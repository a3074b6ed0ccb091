"""Every exported name, and every public member of `Modulus`, has a caller
inside the library, or a stated reason.

A public function that only tests call is either a statement an acceptance
criterion checks, or an oracle that belongs in the tests.  This scan keeps
`cyclotile.__all__` honest: a name counts as used when some module of the
package other than `__init__` refers to it outside its own definition.
`Modulus` is the primitive every layer builds on, so its public methods and
properties are held to the same rule: each must be read as an attribute
somewhere in the package outside its own definition.  The attribute scan goes
by name, not by type, so a read of a same-named attribute of another object
also counts.
"""

from __future__ import annotations

import ast
import symtable
import types
from pathlib import Path

import cyclotile

SRC = Path(cyclotile.__file__).parent

# Exported names with no caller in the library, each with its reason.
NO_CALLER = {
    "box_product_sweep_is_one": "criterion 4: the box-product identity of a tiling",
    "detect_extended_corner": "criterion 8: the extended corner of the structure taxonomy",
    "phi_divides_via_cuboids": "criterion 5: the cuboid route to Phi_s | A",
    "plane_bound_check": "criterion 9: the plane bound of a tile",
}

# Public members of Modulus with no attribute read in the library, each with
# its reason.
MODULUS_NO_CALLER: dict[str, str] = {}


def _bindings(tree: ast.Module, module: str) -> dict[str, tuple[str, str | None]]:
    """What each name bound by a definition or a relative import denotes:
    (module, name) for a function or class, (module, None) for a module."""
    out: dict[str, tuple[str, str | None]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = (module, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (alias.name, None) if node.module is None else (node.module, alias.name)
                out[alias.asname or alias.name] = target
    return out


def _references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that the module refers to, by name or as an
    attribute of an imported sibling module, outside the definition of that
    same name."""
    source = path.read_text()
    tree = ast.parse(source)
    bind = _bindings(tree, path.stem)
    found: set[tuple[str, str]] = set()

    def walk(table: symtable.SymbolTable, owner: str | None) -> None:
        for sym in table.get_symbols():
            name = sym.get_name()
            module_level = table.get_type() == "module"
            if (
                sym.is_referenced()
                and (module_level or sym.is_global() or sym.is_imported())
                and name != owner
                and bind.get(name, (None, None))[1] is not None
            ):
                found.add(bind[name])
        for child in table.get_children():
            walk(child, owner or child.get_name())

    walk(symtable.symtable(source, str(path), "exec"), None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, name = bind.get(node.value.id, (None, ""))
            if module is not None and name is None:
                found.add((module, node.attr))
    return found


def _library_references() -> set[tuple[str, str]]:
    out: set[tuple[str, str]] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            out |= _references(path)
    return out


def _attribute_reads(path: Path, cls: str) -> set[str]:
    """Names read as an attribute (`x.name`) in the module, outside the body
    of the method `name` of class `cls`."""
    found: set[str] = set()

    def walk(node: ast.AST, klass: str | None, own: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            klass = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if klass == cls and own is None:
                own = node.name
            klass = None
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, klass, own)

    walk(ast.parse(path.read_text()), None, None)
    return found


def _exported() -> dict[str, tuple[str, str]]:
    """Exported name -> (defining module, name), modules left out."""
    out = {}
    for name in cyclotile.__all__:
        obj = getattr(cyclotile, name)
        if not isinstance(obj, types.ModuleType):
            out[name] = (obj.__module__.rpartition(".")[2], obj.__name__)
    return out


def test_every_export_has_a_caller_or_a_reason():
    refs = _library_references()
    uncalled = sorted(n for n, target in _exported().items() if target not in refs)
    assert uncalled == sorted(NO_CALLER), (
        "exports without a caller in src/cyclotile must be listed in NO_CALLER "
        "with a reason, and a listed name that gained a caller must leave it"
    )


def test_every_modulus_member_is_read_or_has_a_reason():
    reads: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        reads |= _attribute_reads(path, "Modulus")
    members = {name for name in vars(cyclotile.Modulus) if not name.startswith("_")}
    assert "gcd_table" in members and "divisors" in members
    unread = sorted(members - reads)
    assert unread == sorted(MODULUS_NO_CALLER), (
        "public members of Modulus that src/cyclotile never reads must be listed "
        "in MODULUS_NO_CALLER with a reason, and a listed one that gained a "
        "reader must leave it"
    )


def test_attribute_scan_flags_an_uncalled_method(tmp_path):
    mod = tmp_path / "demo.py"
    box = (
        "class Box:\n"
        "    def used(self):\n"
        "        return 1\n"
        "\n"
        "    def rec(self, n):\n"
        "        return self.rec(n - 1) if n else self.used()\n"
        "\n"
        "    def unused(self):\n"
        "        return 2\n"
    )
    mod.write_text(box)
    reads = _attribute_reads(mod, "Box")
    assert "used" in reads
    # a method read only inside its own body, or never, is flagged
    assert "rec" not in reads and "unused" not in reads
    # a read inside a same-named method of another class counts
    mod.write_text(box + "\n\nclass Other:\n    def rec(self, box):\n        return box.rec(0)\n")
    assert "rec" in _attribute_reads(mod, "Box")


def test_scan_sees_calls():
    # a name called from another module, as an attribute of an imported
    # module, or only inside its own module counts
    refs = _library_references()
    for target in (
        ("tiling", "verify_direct"),  # from .tiling import ..., called in reduce
        ("cyclo", "phi_divides"),  # called as cyclo.phi_divides
        ("structure", "grid_tensor"),  # called inside the module only
        ("zm", "Modulus"),
    ):
        assert target in refs


def test_scan_ignores_own_definition(tmp_path):
    mod = tmp_path / "demo.py"
    mod.write_text(
        "def rec(n):\n"
        "    return rec(n - 1) if n else 0\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "def caller():\n"
        "    box = used()\n"
        "    return box\n"
        "\n"
        "def box():\n"
        "    return 2\n"
    )
    refs = _references(mod)
    assert ("demo", "used") in refs
    assert ("demo", "rec") not in refs
    # a local variable that shares a top-level name is not a reference to it
    assert ("demo", "box") not in refs
