"""Exact matrix realization of diagrams on V^(x)n (x) Delta.

V is the N-dimensional orthogonal space W + W* (+ C e for odd N) with
pairing omega(w_i, w_j*) = delta_ij, omega(e, e) = 1; Delta is the exterior
algebra on W, modeled on bitmasks (bit i-1 set when w_i is in the wedge).
Each basis vector of V is one content code: w_i is i-1, w_i* is m+i-1 and
e is 2m.

Two primitives define the spin side; everything else derives from them.
The Clifford action gamma (`_absorb`) sends w_i to sqrt2 times the wedge,
w_i* to sqrt2 times the contraction and e to the parity, and `_dual` names
the content omega pairs with a content (w_i <-> w_i*, e <-> e). The
projection applies gamma; the injection emits the dual of each content gamma
absorbs; the invariant element of V (x) V pairs each content with its dual,
and the contraction pairs slots by omega. The rotation algebra so(N) is
wedge^2 V, spanned by the bivectors u ^ v of distinct contents, each named
by its content pair (u, v): it acts on V by c -> omega(v, c) u - omega(u, c) v
and on Delta by the commutator (gamma(u) gamma(v) - gamma(v) gamma(u)) / 4;
the odd reflection acts on Delta by gamma(w_1 - w_1*) / 2.

A diagram acts through the equivariant building blocks: contractions on top
arcs, one projection per top isolated vertex (in label order), a tensor-slot
permutation for the through strings, one injection per bottom isolated vertex
(in label order), and the invariant-element immersion on bottom arcs.
Evaluation is slot-based: slots are named, never renumbered mid-pipeline.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .diagrams import DiagramError, SpinDiagram
from .linalg import LinearMap, PairColumn

__all__ = [
    "SpaceSpec",
    "BLOCKS",
    "omega_pairing",
    "so_basis",
    "act_so",
    "act_gamma",
    "projection_map",
    "injection_map",
    "immersion_map",
    "contraction_map",
    "swap_map",
    "ColumnSet",
    "realize_diagram",
    "commutant_dimension",
]


@dataclass(frozen=True)
class SpaceSpec:
    """Shape of the carrier space: N = dim V, n tensor factors of V.

    An instance also carries its Clifford tables, gamma and emits, built
    on first use and shared by every map built on it.
    """

    N: int
    n: int = 0

    def __post_init__(self):
        for name, value in (("N", self.N), ("n", self.n)):
            if type(value) is not int:
                raise TypeError(f"{name} = {value!r} is not an integer")
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.n < 0:
            raise ValueError("n must be nonnegative")

    @property
    def m(self) -> int:
        return self.N // 2

    @property
    def odd(self) -> bool:
        return self.N % 2 == 1

    @property
    def fock_dim(self) -> int:
        return 1 << self.m

    @property
    def total_dim(self) -> int:
        return self.N**self.n * self.fock_dim

    @cached_property
    def gamma(self) -> list[list[Optional[tuple[int, int, int]]]]:
        """gamma[c][mask]: the Clifford action _absorb of content c on mask."""
        return [[_absorb(c, mask, self) for mask in range(self.fock_dim)]
                for c in range(self.N)]

    @cached_property
    def emits(self) -> list[list[tuple[int, int, int, int]]]:
        """emits[mask]: the terms _emit emits from mask."""
        return [_emit(mask, self) for mask in range(self.fock_dim)]

    @cached_property
    def places(self) -> list[int]:
        """places[p]: the index step of slot p; content c there adds c * places[p]."""
        return [self.N ** (self.n - 1 - p) * self.fock_dim for p in range(self.n)]

    def with_n(self, n: int) -> SpaceSpec:
        return SpaceSpec(self.N, n)

    # A basis vector is one content per slot (the codes of the module
    # docstring) and a Fock mask.

    def encode(self, slots: Sequence[int], mask: int) -> int:
        return sum(map(operator.mul, slots, self.places)) + mask

    def basis(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for slots in itertools.product(range(self.N), repeat=self.n):
            for mask in range(self.fock_dim):
                yield slots, mask


# --- the orthogonal pairing ------------------------------------------------


def _dual(c: int, space: SpaceSpec) -> int:
    """The content omega pairs with c: w_i <-> w_i*, e <-> e."""
    m = space.m
    if c < m:
        return c + m
    return c - m if c < 2 * m else c


def omega_pairing(u: int, v: int, space: SpaceSpec) -> int:
    """The orthogonal pairing of two V-basis contents (always 0 or 1)."""
    return 1 if v == _dual(u, space) else 0


# --- per-basis-vector kernels of the spin blocks ----------------------------
#
# Coefficients on hot paths are integer pairs (a, b) standing for a + b sqrt2.


def _times(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b sqrt2)(c + d sqrt2) as an integer pair."""
    return a * c + 2 * b * d, a * d + b * c


def _absorb(c: int, mask: int, space: SpaceSpec) -> Optional[tuple[int, int, int]]:
    """The Clifford action gamma of one slot content on Delta.

    w_i wedges and w_i* contracts mode i (each scaled by sqrt2), with the
    sign of the occupied modes below i, which a sorted wedge lists first; e
    acts by the parity. The projection absorbs a slot's content this way.
    Returns (a, b, new mask) for the factor a + b sqrt2, or None when the
    basis vector is annihilated.
    """
    m = space.m
    if c == 2 * m:
        return (-1 if bin(mask).count("1") % 2 else 1), 0, mask
    bit = 1 << (c if c < m else c - m)
    if bool(mask & bit) == (c < m):  # wedge onto an occupied mode, or contract an empty one
        return None
    return 0, (-1 if bin(mask & (bit - 1)).count("1") % 2 else 1), mask ^ bit


def _emit(mask: int, space: SpaceSpec) -> list[tuple[int, int, int, int]]:
    """Emit a new slot from Delta, as the injection does.

    Each content c that gamma absorbs emits its dual with gamma's factor.
    Returns the terms as (content, a, b, new mask).
    """
    out = []
    for c in range(space.N):
        res = _absorb(c, mask, space)
        if res is not None:
            out.append((_dual(c, space), *res))
    return out


def _invariant_pairs(space: SpaceSpec) -> list[tuple[int, int]]:
    """Content pairs of the invariant element: each content with its dual."""
    return [(c, _dual(c, space)) for c in range(space.N)]


# --- equivariant map primitives ---------------------------------------------


def _slotwise(space: SpaceSpec, cod: SpaceSpec, rule: Callable[..., Iterable[tuple]],
              den: int = 1) -> LinearMap:
    """The map sending each basis vector (slots, mask) of space to its terms.

    rule(slots, mask) yields the terms as (out slots, out mask, a, b), each
    adding (a + b sqrt2) / den to the entry at cod's basis vector (out slots,
    out mask); equal rows add up. basis() runs in index order, so a column's
    index is its position in it.
    """
    cols: dict[int, PairColumn] = {}
    for j, (slots, mask) in enumerate(space.basis()):
        col: PairColumn = {}
        for out, mk, a, b in rule(slots, mask):
            row = cod.encode(out, mk)
            ca, cb = col.get(row, (0, 0))
            col[row] = (ca + a, cb + b)
        col = {r: v for r, v in col.items() if v != (0, 0)}
        if col:
            cols[j] = col
    return LinearMap._canonical(space.total_dim, cod.total_dim, cols, den)


def projection_map(space: SpaceSpec, i: int) -> LinearMap:
    """Collapse slot i into the spin factor: V^(x)n (x) Delta -> V^(x)(n-1) (x) Delta."""
    if not 1 <= i <= space.n:
        raise ValueError(f"projection slot {i} outside 1..{space.n}")

    gamma = space.gamma

    def rule(slots, mask):
        res = gamma[slots[i - 1]][mask]
        if res is not None:
            a, b, mk = res
            yield slots[: i - 1] + slots[i:], mk, a, b
    return _slotwise(space, space.with_n(space.n - 1), rule)


def injection_map(space: SpaceSpec, j: int) -> LinearMap:
    """Create a new slot at position j of the codomain from the spin factor."""
    if not 1 <= j <= space.n + 1:
        raise ValueError(f"injection slot {j} outside 1..{space.n + 1}")
    emits = space.emits

    def rule(slots, mask):
        return [(slots[: j - 1] + (c,) + slots[j - 1:], mk, a, b)
                for c, a, b, mk in emits[mask]]
    return _slotwise(space, space.with_n(space.n + 1), rule)


def immersion_map(space: SpaceSpec, i: int, j: int) -> LinearMap:
    """Insert the invariant element of V (x) V into codomain positions i < j."""
    if not 1 <= i < j <= space.n + 2:
        raise ValueError(f"immersion positions ({i},{j}) invalid for n={space.n}")
    pairs = _invariant_pairs(space)

    def rule(slots, mask):
        for ca, cb in pairs:
            out = list(slots)
            out.insert(i - 1, ca)
            out.insert(j - 1, cb)
            yield out, mask, 1, 0
    return _slotwise(space, space.with_n(space.n + 2), rule)


def contraction_map(space: SpaceSpec, i: int, j: int) -> LinearMap:
    """Pair domain slots i < j with omega and remove them."""
    if not 1 <= i < j <= space.n:
        raise ValueError(f"contraction positions ({i},{j}) invalid for n={space.n}")

    def rule(slots, mask):
        w = omega_pairing(slots[i - 1], slots[j - 1], space)
        if w:
            yield slots[: i - 1] + slots[i: j - 1] + slots[j:], mask, w, 0
    return _slotwise(space, space.with_n(space.n - 2), rule)


def swap_map(space: SpaceSpec, images: Sequence[int]) -> LinearMap:
    """Send slot i to slot images[i-1]; the spin factor is untouched."""
    if sorted(images) != list(range(1, space.n + 1)):
        raise ValueError(f"{images} is not a permutation of 1..{space.n}")

    def rule(slots, mask):
        out = [0] * space.n
        for i, c in enumerate(slots):
            out[images[i] - 1] = c
        yield out, mask, 1, 0
    return _slotwise(space, space, rule)


# Each equivariant building block: its builder, called as builder(space,
# *positions) (swap_map takes the image tuple as its one position), and the
# slots it gains, the codomain's n minus the domain's.
BLOCKS = {"projection": (projection_map, -1), "injection": (injection_map, 1),
          "immersion": (immersion_map, 2), "contraction": (contraction_map, -2),
          "swap": (swap_map, 0)}


# --- the rotation Lie algebra action -----------------------------------------


def so_basis(space: SpaceSpec) -> list[tuple[int, int]]:
    """The bivectors u ^ v spanning so(N), each as its content pair (u, v).

    Every unordered pair of distinct contents appears once, in the isotropic
    order: w_i ^ w_j and w_i* ^ w_j* for i < j, then w_i ^ w_j*, then (odd N)
    w_i ^ e and e ^ w_i*.
    """
    m, e = space.m, 2 * space.m
    out: list[tuple[int, int]] = []
    for i, j in itertools.combinations(range(m), 2):
        out += [(i, j), (m + i, m + j)]
    out += [(i, m + j) for i in range(m) for j in range(m)]
    if space.odd:
        for i in range(m):
            out += [(i, e), (e, m + i)]
    return out


def _v_action(pair: tuple[int, int], c: int, space: SpaceSpec) -> list[tuple[int, int]]:
    """Action on one V-basis content, c -> omega(v, c) u - omega(u, c) v."""
    u, v = pair
    terms = [(omega_pairing(v, c, space), u), (-omega_pairing(u, c, space), v)]
    return [(coeff, nc) for coeff, nc in terms if coeff]


def _spin_action(pair: tuple[int, int], mask: int,
                 space: SpaceSpec) -> list[tuple[int, int, int]]:
    """Action on one Fock basis vector of Delta, the commutator quarter.

    The bivector u ^ v acts by (gamma(u) gamma(v) - gamma(v) gamma(u)) / 4.
    Returns the terms as (a, b, new mask) for the coefficient (a + b sqrt2)/2.
    """
    u, v = pair
    gamma = space.gamma
    out: dict[int, tuple[int, int]] = {}
    for x, y, s in ((u, v, 1), (v, u, -1)):
        first = gamma[y][mask]
        second = first and gamma[x][first[2]]
        if second:
            a, b = _times(first[0], first[1], second[0], second[1])
            pa, pb = out.get(second[2], (0, 0))
            out[second[2]] = (pa + s * a, pb + s * b)
    # Over the common den 2, a quarter of the commutator is half its pair.
    return [(a // 2, b // 2, mk) for mk, (a, b) in out.items() if a or b]


def act_so(pair: tuple[int, int], space: SpaceSpec) -> LinearMap:
    """Derivation action of the bivector u ^ v, pair = (u, v), on V^(x)n (x) Delta."""
    if len(pair) != 2 or pair[0] == pair[1] or not all(c in range(space.N) for c in pair):
        raise ValueError(f"{pair!r} is not a pair of distinct contents in 0..{space.N - 1}")
    v_terms = [_v_action(pair, c, space) for c in range(space.N)]
    spin_terms = [_spin_action(pair, mask, space) for mask in range(space.fock_dim)]

    def rule(slots, mask):
        # coefficients (a + b sqrt2)/2
        for k, c in enumerate(slots):
            for coeff, nc in v_terms[c]:
                yield slots[:k] + (nc,) + slots[k + 1:], mask, 2 * coeff, 0
        for a, b, mk in spin_terms[mask]:
            yield slots, mk, a, b
    return _slotwise(space, space, rule, 2)


def act_gamma(space: SpaceSpec) -> LinearMap:
    """The odd reflection generating the non-identity component of Pin(N).

    On each V factor: w_1 -> -w_1*, w_1* -> -w_1, every other basis vector to
    its negative; on Delta: gamma(w_1 - w_1*)/2, that is (wedge w_1 -
    contract w_1*) / sqrt2. The overall sign on V is a convention; this is
    the unique choice (given the Delta action) that commutes with the
    projection and injection maps, and it is frozen here and asserted by the
    equivariance tests.
    """
    m, gamma = space.m, space.gamma
    spin = []  # per mask: (b, new mask) for the entry (0, b) over 2
    for mask in range(space.fock_dim):
        for c, s in ((0, 1), (m, -1)):  # exactly one of the two survives
            res = gamma[c][mask]
            if res is not None:
                spin.append((s * res[1], res[2]))
    sign = (-1) ** space.n

    def rule(slots, mask):
        b, mk = spin[mask]
        yield [_dual(c, space) if c in (0, m) else c for c in slots], mk, 0, sign * b
    return _slotwise(space, space, rule, 2)


# --- realizing diagrams -------------------------------------------------------


class ColumnSet:
    """Column indices of one space, checked once to lie in it, with what the
    realization walk reads of them: each slot's contents (allowed[p]) and
    the Fock masks (starts). Built once per check; a realization only walks."""

    def __init__(self, space: SpaceSpec, indices: Iterable[int]):
        self.space, self.indices = space, frozenset(indices)
        dim, N, fock = space.total_dim, space.N, space.fock_dim
        if self.indices and not 0 <= min(self.indices) <= max(self.indices) < dim:
            raise ValueError(f"columns must lie in 0..{dim - 1}")
        self.allowed = [sorted({j // step % N for j in self.indices}) for step in space.places]
        self.starts = sorted({j % fock for j in self.indices})


def realize_diagram(d: SpinDiagram, space: SpaceSpec,
                    columns: Optional[ColumnSet] = None) -> LinearMap:
    """The endomorphism of V^(x)n (x) Delta carried by a canonical diagram.

    The building blocks act in the order of the module docstring, sharing
    the block maps' kernels. Indices are computed arithmetically: content c
    in slot p adds c * place[p] to an index, so each part of the diagram
    contributes a list of index offsets, and a column is one choice from
    each list. Top arcs choose paired contents, through strings copy a
    content from the column to the row, and the top isolated vertices
    absorb their contents into the mask in label order. The bottom isolated
    vertices and arcs depend only on the mask that is left, so their terms
    are tabulated once per mask reached.

    Given a column set of space, only its columns are built (the others are
    zero; the shape stays total_dim x total_dim): its slot contents and
    masks prune the walk, which drops the columns it reaches outside it.
    Without one, the walk starts from every mask and a slot holds any content.
    """
    if d.n != space.n:
        raise DiagramError(f"diagram has n={d.n}, space has n={space.n}")
    dim, place = space.total_dim, space.places
    if columns is None:
        allowed, starts, keep = [range(space.N)] * space.n, range(space.fock_dim), None
    elif columns.space != space:
        raise ValueError(f"columns of {columns.space} given for {space}")
    else:
        allowed, starts, keep = columns.allowed, columns.starts, columns.indices
    pairs = _invariant_pairs(space)
    gamma, emits = space.gamma, space.emits

    def bottom(mask: int) -> list[tuple[int, int, int]]:
        """The bottom terms from one mask, as (row offset, a, b)."""
        terms = [(0, 1, 0, mask)]  # (row offset, a, b, mask)
        for v in d.bottom_isolated:
            terms = [(ro + c * place[v - 1], *_times(ta, tb, a, b), mk)
                     for ro, ta, tb, tmask in terms for c, a, b, mk in emits[tmask]]
        for a, b in d.bottom_arcs:
            terms = [(ro + cx * place[a - 1] + cy * place[b - 1], ta, tb, tmask)
                     for ro, ta, tb, tmask in terms for cx, cy in pairs]
        # The contents a term emits determine its path, so its row is its own.
        return [(ro + tmask, ta, tb) for ro, ta, tb, tmask in terms]

    arc_cols = [0]
    for a, b in d.top_arcs:
        ends = [(u, _dual(u, space)) for u in allowed[a - 1]]
        arc_cols = [o + u * place[a - 1] + w * place[b - 1]
                    for o in arc_cols for u, w in ends if w in allowed[b - 1]]
    through = [(0, 0)]  # (column offset, row offset)
    for i, j in d.through:
        through = [(co + c * place[i - 1], ro + c * place[j - 1])
                   for co, ro in through for c in allowed[i - 1]]
    top = [(mask, 1, 0, mask) for mask in starts]  # (column offset, a, b, mask)
    for v in d.top_isolated:
        absorbed = []
        for co, ca, cb, mask in top:
            for c in allowed[v - 1]:
                res = gamma[c][mask]
                if res is not None:
                    a, b, mk = res
                    absorbed.append((co + c * place[v - 1], *_times(ca, cb, a, b), mk))
        top = absorbed

    table = {mask: bottom(mask) for mask in {t[3] for t in top}}
    cols: dict[int, PairColumn] = {}
    for co, ca, cb, mask in top:
        out = [(ro, _times(ca, cb, a, b)) for ro, a, b in table[mask]]
        for ac in arc_cols:
            for tc, tr in through:
                if keep is None or ac + co + tc in keep:
                    cols[ac + co + tc] = {tr + ro: v for ro, v in out}
    # Each entry is a product of nonzero factors, each row gets one term and
    # the indices come from contents < N and masks < fock: the columns are
    # canonical as built.
    return LinearMap._canonical(dim, dim, cols)


# --- the dimension of the commutant -------------------------------------------


def _straighten(v: list[int], odd: bool) -> Optional[tuple[int, tuple[int, ...]]]:
    """(det w, w v) for the Weyl group element w taking v to the dominant
    chamber, or None when v lies on a wall.

    Type B (odd N) acts by all signed permutations, so x_i = 0 is a wall too;
    type D (even N) by those with an even number of sign changes, so the
    last coordinate keeps the sign that is left over. Only |x_i| = |x_j| is
    a wall of both.
    """
    out = sorted(map(abs, v), reverse=True)
    if (odd and out and out[-1] == 0) or any(a == b for a, b in zip(out, out[1:])):
        return None
    negatives = sum(x < 0 for x in v)
    inversions = sum(abs(x) < abs(y) for i, x in enumerate(v) for y in v[i + 1:])
    det = (-1) ** (inversions + (negatives if odd else 0))
    if not odd and negatives % 2:
        out[-1] = -out[-1]
    return det, tuple(out)


def commutant_dimension(space: SpaceSpec) -> int:
    """dim End_Pin(N)(V^(x)n (x) Delta), the sum of the squared multiplicities.

    The highest weights of so(N) in V^(x)n (x) Delta come from Delta's,
    (1/2, ..., 1/2) (and (1/2, ..., 1/2, -1/2) at even N), by tensoring with
    V n times by the Brauer-Klimyk rule: each weight mu of V sends lambda to
    w(lambda + mu + rho) - rho with sign det w, where w straightens
    lambda + mu + rho into the dominant chamber; a weight on a wall drops
    out. Coordinates are doubled, so they stay integers, and the Weyl group
    is never enumerated.

    At odd N the odd reflection is a scalar times an element of Spin(N) on
    this space (the volume element is central in the Clifford algebra and
    acts on V by -1), so the Pin and Spin commutants agree: sum m_lambda^2.
    At even N every weight has half-integer coordinates, so lambda_m != 0,
    and the odd reflection exchanges the isotypic parts of lambda and
    (..., -lambda_m), which have equal multiplicities: sum m_lambda^2 / 2.
    """
    m, odd = space.m, space.odd
    rho = [2 * (m - 1 - i) + odd for i in range(m)]
    shifts = [(i, s) for i in range(m) for s in (2, -2)] + ([(0, 0)] if odd else [])
    weights = {(1,) * m: 1}
    if not odd:
        weights[(1,) * (m - 1) + (-1,)] = 1
    for _ in range(space.n):
        tensored: dict[tuple[int, ...], int] = {}
        for lam, mult in weights.items():
            shifted = [x + r for x, r in zip(lam, rho)]
            for i, s in shifts:
                v = list(shifted)
                v[i] += s
                got = _straighten(v, odd)
                if got is not None:
                    det, w = got
                    nu = tuple(x - r for x, r in zip(w, rho))
                    tensored[nu] = tensored.get(nu, 0) + det * mult
        weights = {lam: mult for lam, mult in tensored.items() if mult}
    total = sum(mult * mult for mult in weights.values())
    return total if odd else total // 2
