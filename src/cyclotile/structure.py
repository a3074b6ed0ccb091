"""Fibering analysis and structure detection on top-scale grids.

A D(M)-grid of a 3-prime modulus is identified with the coordinate box
Z_{p_i} x Z_{p_j} x Z_{p_k}, and all grids of a multiset together form one
(D, p_i, p_j, p_k) tensor (`grid_tensor`), built by a single index.  On it,
"M-fibered in direction nu" is "constant along axis nu", a transverse 2d
slice is a take along that axis, and fiber stripping clears lines.  The
detectors below classify how a set meets a grid: fibered directions,
diagonal boxes, corners and extended corners, full planes, almost corners,
and the even-modulus variants.  The classification dispatches on which top
divisors (multiples of D(M)) occur among the differences of the grid
restriction; acceptance criterion 8 checks its labels and
`detect_extended_corner`.  `plane_bound_check` counts a tile's plane
intersections against the plane bound, which acceptance criterion 9 checks
on every swept tiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import prod

import numpy as np

from . import cyclo
from .multiset import Multiset
from .tiling import TilingInstance, div_set
from .zm import Modulus

_SUBSET_ENUM_GUARD = 1_000_000


@lru_cache(maxsize=None)
def _box_offsets(mod: Modulus) -> np.ndarray:
    """y(c) = sum_nu c_nu * (M/D)/p_nu mod M/D for every cell c of the box
    Z_{p_1} x ... x Z_{p_r}; cell c of the grid through r holds r + D*y(c)."""
    q = mod.m // mod.d_of_m
    cells = np.indices(mod.prime_list)
    out = sum(c * (q // p) for c, p in zip(cells, mod.prime_list)) % q
    out.setflags(write=False)
    return out


def grid_tensor(a: Multiset) -> np.ndarray:
    """Weights of A on every D(M)-grid at once, shape (D, p_1, ..., p_r).

    Entry [r, c] is the weight at r + D*y(c).  Moving by M/p_nu steps axis
    nu + 1 by one, so the M-fibers in direction nu are the lines along it."""
    mod = a.modulus
    return a.weights.reshape(-1, mod.d_of_m).T[:, _box_offsets(mod)]


def _grid(a: Multiset, anchor: int) -> tuple[np.ndarray, np.ndarray]:
    """(occupancy, elements) boxes of the grid through anchor: which cells A
    meets, and the element each cell holds."""
    mod = a.modulus
    d = mod.d_of_m
    return grid_tensor(a)[anchor % d] != 0, anchor % d + d * _box_offsets(mod)


def _fibered(t: np.ndarray, axis: int) -> np.ndarray:
    """For each index of the leading axis, whether t is constant along `axis`:
    a 0/1 array then meets every line along that axis fully or not at all."""
    return (t == t.take([0], axis=axis)).reshape(len(t), -1).all(axis=1)


class GridView:
    """A D(M)-grid with its coordinate identification.

    Coordinates: x in the grid corresponds to (x - anchor)/D read through CRT,
    so that moving by M/p_nu steps coordinate nu by one.
    """

    def __init__(self, mod: Modulus, anchor: int):
        if mod.num_primes != 3:
            raise ValueError("grid coordinates require a 3-prime modulus")
        self.mod = mod
        self.d = mod.d_of_m
        self.anchor = anchor % self.d
        self.sizes = mod.prime_list

    def from_coords(self, coords: tuple[int, ...]) -> int:
        if len(coords) != 3 or not all(0 <= c < p for c, p in zip(coords, self.sizes)):
            raise ValueError(f"coordinates {coords} lie outside the box {self.sizes}")
        return int(self.anchor + self.d * _box_offsets(self.mod)[tuple(coords)])

    def occupancy(self, a: Multiset) -> np.ndarray:
        """Boolean array over Z_{p_i} x Z_{p_j} x Z_{p_k} marking members of a."""
        return _grid(a, self.anchor)[0]


def _fiber_roots(occ: np.ndarray, elements: np.ndarray, nu: int) -> tuple[bool, tuple[int, ...]]:
    """(fibered in direction nu, sorted least elements of the full fibers) of
    one grid's occupancy box."""
    if not _fibered(occ[None], nu + 1)[0]:
        return False, ()
    return True, tuple(sorted(elements.min(axis=nu)[occ.all(axis=nu)].tolist()))


@dataclass(frozen=True)
class GridFiberReport:
    anchor: int
    empty: bool
    fibered: tuple[bool, ...]  # per direction
    roots: tuple[tuple[int, ...], ...]  # per direction

    @property
    def fibered_any(self) -> bool:
        return not self.empty and any(self.fibered)


def grid_fiber_report(a: Multiset, anchor: int) -> GridFiberReport:
    mod = a.modulus
    occ, elements = _grid(a, anchor)
    if not occ.any():
        return GridFiberReport(anchor, True, (True,) * mod.num_primes, ((),) * mod.num_primes)
    flags, roots = zip(*(_fiber_roots(occ, elements, nu) for nu in range(mod.num_primes)))
    return GridFiberReport(anchor, False, flags, roots)


def unfibered_grids(a: Multiset) -> list[int]:
    """Anchors of the grids that A meets but is M-fibered on in no direction
    (an empty grid is fibered in every direction)."""
    occ = grid_tensor(a) != 0
    fibered = np.logical_or.reduce([_fibered(occ, nu + 1) for nu in range(a.modulus.num_primes)])
    return np.flatnonzero(~fibered).tolist()


def fibered_on_all_grids(a: Multiset) -> bool:
    """Every nonempty grid restriction is M-fibered in at least one direction."""
    return not unfibered_grids(a)


# -- the I/J/K membership partition ------------------------------------------------


@dataclass(frozen=True)
class IJKPartition:
    """Fiber membership of each element of A, with the standing-assumption flags."""

    sets: tuple[frozenset[int], ...]  # per direction: elements on a full fiber
    covers_a: bool  # A == I u J u K
    pairwise: tuple[tuple[int, int, int], ...]  # (nu, kappa, |intersection|)
    triple: frozenset[int]
    flag_f: bool
    flag_f1: bool
    flag_f2: bool
    flag_f3: bool

    def set_for(self, nu: int) -> frozenset[int]:
        return self.sets[nu]


def ijk_partition(t: TilingInstance) -> IJKPartition:
    """Per-direction full-fiber membership of A (the points of the M-fibers
    that lie in its support), plus the fibered-case flags."""
    mod = t.modulus
    if mod.num_primes != 3:
        raise ValueError("the fiber membership partition requires 3 primes")
    a = t.a
    sets = []
    for nu in range(3):
        p = mod.primes[nu][0]
        fibers = a.fiber_roots(nu) + mod.m // p * np.arange(p)[:, None]
        sets.append(frozenset(fibers.ravel().tolist()))
    support = frozenset(a.support())
    covers = support == sets[0] | sets[1] | sets[2]
    pairwise = tuple(
        (n1, n2, len(sets[n1] & sets[n2])) for n1, n2 in combinations(range(3), 2)
    )
    triple = sets[0] & sets[1] & sets[2]
    odd = all(p % 2 == 1 for p, _ in mod.primes)
    square = all(n == 2 for _, n in mod.primes)
    pq = prod(p for p, _ in mod.primes)
    sizes_ok = len(t.a) == pq and len(t.b) == pq
    flag_f = (
        odd
        and square
        and sizes_ok
        and t.is_tiling()
        and cyclo.phi_divides(mod.m, a)
        and fibered_on_all_grids(a)
    )
    flag_f1 = flag_f and all(c == 0 for _, _, c in pairwise)
    flag_f2 = flag_f and not triple and any(c for _, _, c in pairwise)
    flag_f3 = flag_f and not triple and any(
        not sets[nu] and (sets[k1] - sets[k2]) and (sets[k2] - sets[k1])
        for nu, k1, k2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )
    return IJKPartition(
        tuple(sets), covers, pairwise, triple, flag_f, flag_f1, flag_f2, flag_f3
    )


# -- structure findings ---------------------------------------------------------------


@dataclass(frozen=True)
class StructureFinding:
    """A detected grid structure with enough witness data to re-validate."""

    kind: str  # diagonal-boxes | corner | extended-corner | full-plane |
    #            almost-corner | even-corner | even-diagonal-boxes | none
    direction: int | None = None
    witness: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.kind != "none"


@lru_cache(maxsize=None)
def _subsets_lex(p: int) -> tuple[tuple[int, ...], ...]:
    """Nonempty proper subsets of Z_p as sorted tuples in lexicographic order."""
    out = []
    for size in range(1, p):
        out.extend(combinations(range(p), size))
    return tuple(sorted(out))


def detect_diagonal_boxes(a: Multiset, anchor: int) -> StructureFinding:
    """Find nonempty proper I, J, K with (IxJxK) u (I^c x J^c x K^c) inside the
    grid restriction; returns the lexicographically least witness or none.

    The subset search is exhaustive (not just proof-order slices), which is
    feasible for the small primes this library targets.
    """
    mod = a.modulus
    grid = GridView(mod, anchor)
    occ = grid.occupancy(a)
    pi, pj, pk = grid.sizes
    if prod((2**p - 2) for p in grid.sizes) > _SUBSET_ENUM_GUARD:
        raise ValueError("prime sizes too large for exhaustive subset search")
    # Bitmask layers: for each i, the allowed (j, k) cells as bit j*pk + k.
    layer = [sum(1 << b for b in np.flatnonzero(occ[i]).tolist()) for i in range(pi)]
    all_jk = (1 << (pj * pk)) - 1

    def and_over(rows: tuple[int, ...]) -> int:
        out = all_jk
        for i in rows:
            out &= layer[i]
        return out

    k_masks = {ks: sum(1 << k for k in ks) for ks in _subsets_lex(pk)}
    for i_set in _subsets_lex(pi):
        ic = tuple(v for v in range(pi) if v not in i_set)
        allow = and_over(i_set)
        allow_c = and_over(ic)
        if not allow or not allow_c:
            continue
        for j_set in _subsets_lex(pj):
            jc = tuple(v for v in range(pj) if v not in j_set)
            for k_set in _subsets_lex(pk):
                kc = tuple(v for v in range(pk) if v not in k_set)
                box = 0
                for j in j_set:
                    box |= k_masks[k_set] << (j * pk)
                if box & ~allow:
                    continue
                box_c = 0
                for j in jc:
                    box_c |= k_masks[kc] << (j * pk)
                if box_c & ~allow_c:
                    continue
                return StructureFinding(
                    "diagonal-boxes",
                    None,
                    {
                        "anchor": grid.anchor,
                        "i": tuple(i_set),
                        "j": tuple(j_set),
                        "k": tuple(k_set),
                    },
                )
    return StructureFinding("none")


def _transverse_planes(occ: np.ndarray, mod: Modulus, nu: int):
    """Flags of the grid's 2d slices c_nu = s: `nonempty[s]`, and for each
    other direction d, `union[d][s]` when the slice meets A in a nonempty
    union of d-fibers and `single[d][s]` when in exactly one."""
    planes = np.moveaxis(occ, nu, 0)
    count = planes.reshape(len(planes), -1).sum(axis=1)
    others = [k for k in range(3) if k != nu]
    union = {d: _fibered(planes, 1 + i) & (count > 0) for i, d in enumerate(others)}
    single = {d: union[d] & (count == mod.primes[d][0]) for d in others}
    return count > 0, union, single


def _corner_pairs(occ: np.ndarray, elements: np.ndarray, nu: int):
    """Members x, x_i = x + t*M/p_nu of the grid with the indices of their
    slices across nu; least x first, then least t."""
    p = occ.shape[nu]
    for x, c in sorted(zip(elements[occ].tolist(), np.argwhere(occ).tolist())):
        for t in range(1, p):
            ci = tuple(c[:nu] + [(c[nu] + t) % p] + c[nu + 1 :])
            if occ[ci]:
                yield x, int(elements[ci]), c[nu], ci[nu]


def detect_corner(a: Multiset, anchor: int, nu: int) -> StructureFinding:
    """Strict corner in direction nu: two parallel 2d slices holding exactly
    one fiber each, in the two different transverse directions."""
    others = [k for k in range(3) if k != nu]
    occ, elements = _grid(a, anchor)
    _, _, single = _transverse_planes(occ, a.modulus, nu)
    for x, xi, s, si in _corner_pairs(occ, elements, nu):
        for d1, d2 in (others, others[::-1]):
            if single[d1][s] and single[d2][si]:
                return StructureFinding(
                    "corner", nu, {"a": x, "a_i": xi, "dir_a": d1, "dir_ai": d2}
                )
    return StructureFinding("none")


def detect_extended_corner(a: Multiset, anchor: int, nu: int) -> StructureFinding:
    """Extended corner in direction nu: two parallel 2d slices fibered in the
    two transverse directions exclusively (one each)."""
    others = [k for k in range(3) if k != nu]
    occ, elements = _grid(a, anchor)
    _, union, _ = _transverse_planes(occ, a.modulus, nu)
    for x, xi, s, si in _corner_pairs(occ, elements, nu):
        for d1, d2 in (others, others[::-1]):
            if union[d1][s] and not union[d2][s] and union[d2][si] and not union[d1][si]:
                return StructureFinding(
                    "extended-corner", nu, {"a": x, "a_i": xi, "dir_a": d1, "dir_ai": d2}
                )
    return StructureFinding("none")


def remove_fibers(a: Multiset, anchor: int) -> tuple[Multiset, tuple[tuple[int, int], ...]]:
    """Strip whole M-fibers from the grid restriction until none remain.

    Deterministic: least root first, direction order on ties.  Returns the
    residual restriction (as a multiset on Z_m supported on the grid) and the
    removed (root, direction) list.  The residual is one admissible outcome;
    the procedure itself is order-sensitive.
    """
    mod = a.modulus
    occ, elements = _grid(a, anchor)
    removed: list[tuple[int, int]] = []
    while True:
        full = [
            np.broadcast_to(occ.all(axis=nu, keepdims=True), occ.shape)
            for nu in range(mod.num_primes)
        ]
        on_full = np.logical_or.reduce(full)
        if not on_full.any():
            break
        cell = np.unravel_index(np.where(on_full, elements, mod.m).argmin(), occ.shape)
        nu = next(nu for nu in range(mod.num_primes) if full[nu][cell])
        line = cell[:nu] + (slice(None),) + cell[nu + 1 :]
        occ[line] = False
        removed.append((int(elements[line].min()), nu))
    return Multiset.from_set(mod, elements[occ].tolist()), tuple(removed)


# -- classification of a single unfibered grid -----------------------------------------


def _top_divisor_profile(a: Multiset, anchor: int) -> tuple[frozenset[int], frozenset[int]]:
    """(present, missing) top divisors {m : D(M) | m | M} of Div(A & grid)."""
    mod = a.modulus
    occ, elements = _grid(a, anchor)
    top = frozenset(m for m in mod.divisors if m % mod.d_of_m == 0)
    present = div_set(Multiset.from_set(mod, elements[occ].tolist())).members & top
    return present, top - present


def _boxes_exactly_cover(a: Multiset, anchor: int, finding: StructureFinding) -> bool:
    grid = GridView(a.modulus, anchor)
    occ = grid.occupancy(a)
    w = finding.witness
    shape = np.zeros(grid.sizes, dtype=bool)
    full = [list(range(p)) for p in grid.sizes]
    ic = [v for v in full[0] if v not in w["i"]]
    jc = [v for v in full[1] if v not in w["j"]]
    kc = [v for v in full[2] if v not in w["k"]]
    shape[np.ix_(list(w["i"]), list(w["j"]), list(w["k"]))] = True
    shape[np.ix_(ic, jc, kc)] = True
    return bool(np.array_equal(occ, shape))


def _detect_full_plane(a: Multiset, anchor: int, nu: int) -> StructureFinding:
    """Witness point whose grid box realizes only the N/p_nu and N/(p_j p_k)
    entries, at their full counts."""
    mod = a.modulus
    others = [k for k in range(3) if k != nu]
    occ, elements = _grid(a, anchor)
    members = elements[occ]
    g = mod.gcd_table()
    p_nu = mod.primes[nu][0]
    pj, pk = (mod.primes[k][0] for k in others)
    want_nu = mod.m // p_nu
    want_jk = mod.m // (pj * pk)
    if len(members) == (p_nu - 1) + (pj - 1) * (pk - 1):
        for x in np.sort(elements[~occ]).tolist():
            ds = g[(x - members) % mod.m]
            if (
                np.count_nonzero(ds == want_nu) == p_nu - 1
                and np.count_nonzero(ds == want_jk) == (pj - 1) * (pk - 1)
            ):
                return StructureFinding("full-plane", nu, {"anchor": anchor, "x": x})
    return StructureFinding("none")


def _corner_planes_ok(a: Multiset, anchor: int, nu: int) -> bool:
    """Every transverse plane of the grid is empty or a single fiber in one of
    the two other directions, with both directions represented."""
    nonempty, _, single = _transverse_planes(_grid(a, anchor)[0], a.modulus, nu)
    return bool(
        np.all(~nonempty | np.logical_or.reduce(list(single.values())))
        and all(flags.any() for flags in single.values())
    )


def classify_unfibered_grid(a: Multiset, anchor: int) -> StructureFinding:
    """Label an unfibered grid restriction by its top-divisor profile.

    Preconditions (checked): Phi_M divides A, the restriction is nonempty and
    not M-fibered in any direction.  Dispatch: no missing top divisors ->
    diagonal boxes (with the fiber-stripping decomposition); one missing pair
    divisor -> corner or almost-corner; two missing pair divisors sharing a
    prime -> full plane; a missing top difference M/p with p = 2 -> pure
    diagonal boxes (even case).  Shapes that cannot occur under the
    preconditions come back as 'none'.
    """
    mod = a.modulus
    if mod.num_primes != 3:
        raise ValueError("grid classification requires 3 primes")
    report = grid_fiber_report(a, anchor)
    if report.empty:
        raise ValueError("grid restriction is empty")
    if report.fibered_any:
        raise ValueError("grid restriction is fibered; nothing to classify")
    if not cyclo.phi_divides(mod.m, a):
        raise ValueError("Phi_M does not divide A")
    present, missing = _top_divisor_profile(a, anchor)
    even = any(p == 2 for p, _ in mod.primes)

    if not missing:
        finding = detect_diagonal_boxes(a, anchor)
        if not finding.found:
            return StructureFinding("none")
        residual, stripped = remove_fibers(a, anchor)
        witness = dict(finding.witness)
        witness["removed_fibers"] = stripped
        witness["residual_size"] = len(residual)
        return StructureFinding("diagonal-boxes", None, witness)

    top_missing = [mod.m // p for p, _ in mod.primes]
    missing_tops = [d for d in missing if d in top_missing]
    if missing_tops:
        # Odd primes with a missing top difference force fibering; only the
        # even direction can survive unfibered (pure diagonal boxes).
        for d in missing_tops:
            nu = top_missing.index(d)
            if mod.primes[nu][0] == 2:
                finding = detect_diagonal_boxes(a, anchor)
                if finding.found and _boxes_exactly_cover(a, anchor, finding):
                    w = dict(finding.witness)
                    return StructureFinding("even-diagonal-boxes", nu, w)
        return StructureFinding("none")

    pair_type = set()
    for nu in range(3):
        others = [k for k in range(3) if k != nu]
        pair_type.add(mod.m // prod(mod.primes[k][0] for k in others))

    missing_pairs = sorted(d for d in missing if d in pair_type)
    if len(missing_pairs) == 1:
        # missing M/(p_i p_j): corner/almost-corner in the remaining direction
        d = missing_pairs[0]
        exps = mod.divisor_exponents(d)
        nu = next(k for k in range(3) if exps[k] == mod.primes[k][1])
        if _corner_planes_ok(a, anchor, nu):
            kind = "even-corner" if even else "corner"
            inner = detect_corner(a, anchor, nu)
            return StructureFinding(kind, nu, dict(inner.witness, anchor=anchor))
        if not even:
            finding = detect_diagonal_boxes(a, anchor)
            if finding.found and _boxes_exactly_cover(a, anchor, finding):
                w = finding.witness
                sizes = (len(w["i"]), len(w["j"]), len(w["k"]))
                comp = tuple(p - s for p, s in zip(mod.prime_list, sizes))
                transverse = [k for k in range(3) if k != nu]
                # Almost corner: both transverse directions pinched to a
                # singleton on one side, the corner direction proper on both.
                if (
                    min(sizes[nu], comp[nu]) > 1
                    and all(min(sizes[k], comp[k]) == 1 for k in transverse)
                ):
                    return StructureFinding("almost-corner", nu, dict(w))
        return StructureFinding("none")
    if len(missing_pairs) == 2:
        e1 = mod.divisor_exponents(missing_pairs[0])
        e2 = mod.divisor_exponents(missing_pairs[1])
        shared = [
            k
            for k in range(3)
            if e1[k] < mod.primes[k][1] and e2[k] < mod.primes[k][1]
        ]
        if len(shared) == 1 and not even:
            nu = shared[0]
            finding = _detect_full_plane(a, anchor, nu)
            if finding.found:
                return finding
    return StructureFinding("none")


# -- the plane bound ----------------------------------------------------------------------


def plane_bound_check(t: TilingInstance) -> bool:
    """Cardinality bound for tile-plane intersections at every scale.

    |A & Pi(x, p_nu^{n_nu - alpha})| <= p_nu^alpha * |A| / p_nu^{beta_nu},
    where p_nu^{beta_nu} exactly divides |A|; counted for all x and alpha.
    The bound is a theorem for tilings; on other instances the count may
    exceed it, and the result is then False.
    """
    mod = t.modulus
    size = len(t.a)
    sup = np.array(t.a.support(), dtype=np.int64)
    for nu, (p, n) in enumerate(mod.primes):
        beta = 0
        while size % p ** (beta + 1) == 0:
            beta += 1
        for alpha in range(0, n + 1):
            scale = p ** (n - alpha)
            bound = p**alpha * (size // p**beta)
            if scale == 1:
                if size > bound:
                    return False
                continue
            counts = np.bincount(sup % scale, minlength=scale)
            if counts.max() > bound:
                return False
    return True
