"""Fibering analysis and structure detection on top-scale grids.

A D(M)-grid of a 3-prime modulus is identified with the coordinate box
Z_{p_i} x Z_{p_j} x Z_{p_k}, and all grids of a multiset together form one
(D, p_i, p_j, p_k) tensor (`grid_tensor`), built by a single index; a
detector that looks at one grid indexes just that grid (`_grid`).  On it,
"M-fibered in direction nu" is "constant along axis nu", a transverse 2d
slice is a take along that axis, and fiber stripping clears lines.  The
detectors below classify how a set meets a grid: fibered directions (one
flag per direction, `grid_fiber_report`), diagonal boxes, corners and
extended corners, full planes, almost corners, and the even-modulus
variants.  Fiber membership over all of Z_M is one (3, M) bool mask
(`ijk_partition`), read from the full-fiber test of
`Multiset.fiber_roots`.  The classification dispatches on which top
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
    meets, and the element each cell holds; one grid of `grid_tensor`."""
    mod = a.modulus
    elements = anchor % mod.d_of_m + mod.d_of_m * _box_offsets(mod)
    return a.weights[elements] != 0, elements


def _fibered(t: np.ndarray, axis: int) -> np.ndarray:
    """For each index of the leading axis, whether t is constant along `axis`:
    a 0/1 array then meets every line along that axis fully or not at all."""
    return (t == t.take([0], axis=axis)).reshape(len(t), -1).all(axis=1)


def grid_fiber_report(a: Multiset, anchor: int) -> tuple[bool, ...]:
    """Per direction, whether the grid through anchor is M-fibered there (A
    meets each M-fiber of the grid fully or not at all); an empty grid is
    fibered in every direction."""
    occ = _grid(a, anchor)[0][None]
    return tuple(bool(_fibered(occ, nu + 1)[0]) for nu in range(a.modulus.num_primes))


def unfibered_grids(a: Multiset) -> list[int]:
    """Anchors of the grids that A meets but is M-fibered on in no direction
    (an empty grid is fibered in every direction)."""
    occ = grid_tensor(a) != 0
    fibered = np.logical_or.reduce([_fibered(occ, nu + 1) for nu in range(a.modulus.num_primes)])
    return np.flatnonzero(~fibered).tolist()


# -- the I/J/K membership partition ------------------------------------------------


def ijk_partition(a: Multiset) -> np.ndarray:
    """Per-direction full-fiber membership as a (3, m) bool mask: row nu marks
    the points x whose M-fiber in direction nu lies in the support of A, read
    from `Multiset.fiber_roots`.  A marked point lies in A, and a point
    marked in all three rows is in the triple intersection."""
    mod = a.modulus
    if mod.num_primes != 3:
        raise ValueError("the fiber membership partition requires 3 primes")
    on = np.zeros((3, mod.m), dtype=bool)
    for nu, p in enumerate(mod.prime_list):
        on[nu, a.fiber_roots(nu) + mod.m // p * np.arange(p)[:, None]] = True
    return on


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


def _least_between(lower: int, upper: int, p: int) -> tuple[int, ...] | None:
    """The lexicographically least nonempty proper K of Z_p, as a sorted
    tuple, with lower <= K <= upper as bitmasks; None when there is none.

    A candidate is smaller than each of its extensions, and a smaller next
    element beats a larger one whatever follows, so while its prefix is no
    candidate the least K takes the least next element of `upper` that
    leaves a proper completion (so K stays proper).  An element of `lower`
    skipped on the way never comes back, and the loop then runs out."""
    full = (1 << p) - 1
    out: list[int] = []
    chosen = 0
    while not chosen or chosen & lower != lower:
        for e in range(out[-1] + 1 if out else 0, p):
            if (upper >> e) & 1 and (chosen | (1 << e) | (lower >> (e + 1) << (e + 1))) != full:
                break
        else:
            return None
        out.append(e)
        chosen |= 1 << e
    return tuple(out)


def detect_diagonal_boxes(a: Multiset, anchor: int) -> StructureFinding:
    """Find nonempty proper I, J, K with (IxJxK) u (I^c x J^c x K^c) inside the
    grid restriction; returns the lexicographically least witness or none.

    The search runs over every I and J (not just proof-order slices); for
    each pair, the cells free in every row of I x J bound K from above and
    those missing from some row of I^c x J^c from below, and
    `_least_between` reads off the least K.
    """
    mod = a.modulus
    if mod.num_primes != 3:
        raise ValueError("grid coordinates require a 3-prime modulus")
    occ = _grid(a, anchor)[0]
    pi, pj, pk = mod.prime_list
    if (2**pi - 2) * (2**pj - 2) > _SUBSET_ENUM_GUARD:
        raise ValueError("prime sizes too large for exhaustive subset search")
    # cells[i][j]: the k with (i, j, k) in A, as bits.
    cells = (occ * (1 << np.arange(pk))).sum(axis=2).tolist()
    full_k = (1 << pk) - 1

    def meet(masks) -> int:
        out = full_k
        for mask in masks:
            out &= mask
        return out

    for i_set in _subsets_lex(pi):
        ic = [v for v in range(pi) if v not in i_set]
        allow = [meet(cells[i][j] for i in i_set) for j in range(pj)]
        allow_c = [meet(cells[i][j] for i in ic) for j in range(pj)]
        if not any(allow) or not any(allow_c):
            continue
        for j_set in _subsets_lex(pj):
            upper = meet(allow[j] for j in j_set)
            lower = full_k & ~meet(allow_c[j] for j in range(pj) if j not in j_set)
            k_set = _least_between(lower, upper, pk)
            if k_set is not None:
                return StructureFinding(
                    "diagonal-boxes",
                    None,
                    {"anchor": anchor % mod.d_of_m, "i": i_set, "j": j_set, "k": k_set},
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
    present = div_set(Multiset.from_set(mod, elements[occ].tolist())) & top
    return present, top - present


def _boxes_exactly_cover(a: Multiset, anchor: int, finding: StructureFinding) -> bool:
    sizes = a.modulus.prime_list
    occ = _grid(a, anchor)[0]
    w = finding.witness
    shape = np.zeros(sizes, dtype=bool)
    full = [list(range(p)) for p in sizes]
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
    if not _grid(a, anchor)[0].any():
        raise ValueError("grid restriction is empty")
    if any(grid_fiber_report(a, anchor)):
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
