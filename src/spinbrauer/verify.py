"""Executable check suite: every structural claim becomes a deterministic,
exactly-evaluated pass/fail report with a witness on failure.

Matrix checks specialize delta to N; algebraic checks (associativity,
filtration, the Brauer subalgebra) run symbolically in Z[delta].
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, chain, groupby, repeat
from typing import Callable, Iterable, Optional, Sequence

from .cellular import modmult_check, phi_ell
from .diagrams import (
    AlgebraElement,
    BasisView,
    CellTriple,
    DiagramError,
    SpinDiagram,
    cell_encode,
    emit_diagram,
    enumerate_S,
    enumerate_basis,
    involution,
)
from .linalg import LinearMap, rank_of_vectors, rank_reaches
from .multiply import multiply_diagrams, multiply_elements
from .realization import (
    BLOCKS,
    ColumnSet,
    SpaceSpec,
    act_gamma,
    act_so,
    commutant_dimension,
    contraction_map,
    immersion_map,
    injection_map,
    projection_map,
    realize_diagram,
    so_basis,
)
from .scalars import DeltaPolynomial, RootTwoNumber

__all__ = [
    "VerificationReport",
    "ResourceBoundError",
    "DEFAULT_DIMENSION_BOUND",
    "verify_homomorphism",
    "verify_equivariance",
    "verify_circuit_scaling",
    "verify_clifford_relation",
    "verify_rank",
    "verify_surjectivity",
    "verify_brauer_consistency",
    "verify_associativity",
    "verify_filtration",
    "verify_modmult",
    "verify_cell_symmetry",
    "verify_involution_compatibility",
    "CHECKS",
]

DEFAULT_DIMENSION_BOUND = 4096


@dataclass
class VerificationReport:
    check_name: str
    parameters: dict
    passed: bool
    counterexample: Optional[dict] = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError(f"failed {self.check_name} report needs a counterexample")

    def to_json(self) -> dict:
        out = {
            "check": self.check_name,
            "parameters": self.parameters,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.info:
            out["info"] = self.info
        return out


def _verdict(name: str, params: dict, failures: Iterable[dict],
             info: Optional[dict] = None) -> VerificationReport:
    """The one place a check's report is made: it passes exactly when there
    is no failure. failures is read only as far as its first witness, so a
    sweep that yields them lazily stops at the first."""
    witness = next(iter(failures), None)
    return VerificationReport(name, params, witness is None, witness, info or {})


def _pair(top: SpinDiagram, bottom: SpinDiagram) -> dict:
    """The witness of a failing product: its two factors."""
    return {"top": emit_diagram(top), "bottom": emit_diagram(bottom)}


class ResourceBoundError(RuntimeError):
    """Requested parameters exceed the configured dimension bound."""


def _check_bound(space: SpaceSpec, bound: int) -> None:
    if space.total_dim > bound:
        raise ResourceBoundError(f"total dimension {space.total_dim} exceeds bound {bound}")


def _orbit_walk(space: SpaceSpec, distance: Callable[[tuple[int, ...]], int]) -> list[int]:
    """The columns of _mode_orbit_columns of a V-weight sought (w_i adds
    eps_i, w_i* subtracts it), listed slot by slot. distance(weight) is the
    fewest slots that take a weight to one sought: each prefix carries its
    own weight, none is decoded, and is extended only while that is at
    most the slots left."""
    m, N = space.m, space.N
    steps = [1] * m + [-1] * m + [0] * (N - 2 * m)  # each content's sign on eps_(c mod m)
    prefixes = [(0, 0, (0,) * m)]  # (index of the slots so far, modes used, V-weight)
    for left in reversed(range(space.n)):
        grown = []
        for idx, used, weight in prefixes:
            k = min(used + 1, m)  # the modes used so far and the next one
            for c in chain(range(k), range(m, m + k), range(2 * m, N)):
                i, step = c % m, steps[c]
                moved = weight[:i] + (weight[i] + step,) + weight[i + 1:]
                if distance(moved) <= left:
                    grown.append((idx * N + c, max(used, i + 1) if step else used, moved))
        prefixes = grown
    return [idx * space.fock_dim for idx, _, _ in prefixes]


def _mode_orbit_columns(space: SpaceSpec) -> list[int]:
    """One Fock-mask-0 column, one of V^(x)n (x) |0>, per orbit of the mode
    permutations, in column order: those whose modes first appear in the
    order 1, 2, 3, ..., read slot by slot (a restricted growth string).

    A permutation s of the m modes, w_i -> w_s(i) and w_i* -> w_s(i)* with
    e fixed, keeps omega and has determinant sgn(s)^2 = 1, so it lies in
    SO(N) and lifts to g in Spin(N). g conjugates each gamma(w_i*) to
    gamma(w_s(i)*), so g|0> is annihilated by every contraction: it is a
    nonzero multiple of |0>. So g permutes the vacuum columns up to nonzero
    scalars, and a Pin(N)-equivariant map that vanishes on one column of
    each orbit vanishes on all of them, and therefore everywhere (see
    _realized_rank). Relabeling modes in order of first appearance takes
    each column to its orbit's representative; it is the orbit's smallest
    column index, since the codes order w_1 < ... < w_m < w_1* < ... < e
    and the first slot is the most significant. The columns are listed
    slot by slot, never by filtering all N^n (see _orbit_walk).
    """
    return _orbit_walk(space, lambda weight: 0)


def _weight_orbit_columns(space: SpaceSpec) -> list[int]:
    """The orbit columns of V-weight 0, or eps_j when none has weight 0 (n
    odd, N even), in column order: exact at N >= 3 (see _realized_rank).

    A slot moves one coordinate of the weight by one, or none (e), and mode
    1 is always free: so a weight w reaches 0 in |w|_1 slots, and some eps_j
    in |w|_1 - 1 when a coordinate is positive, else |w|_1 + 1. Slots to
    spare hold e at odd N; at even N the coordinate sum has the parity of
    the slots filled, so they come in pairs, w_1 w_1*. The walk extends only
    the prefixes that can still reach the kept weight.
    """
    if space.odd or space.n % 2 == 0:
        return _orbit_walk(space, lambda weight: sum(map(abs, weight)))
    return _orbit_walk(space, lambda weight: (sum(map(abs, weight))
                                              + (-1 if max(weight) > 0 else 1)))


def _first_entry(lhs: LinearMap, rhs: LinearMap) -> dict:
    """The first entry where two unequal maps differ, for a counterexample."""
    row, col, left, right = lhs.first_difference(rhs)
    return {"row": row, "col": col, "lhs": left.to_json(), "rhs": right.to_json()}


def verify_homomorphism(
    n: int,
    N: int,
    mode: str = "exhaustive",
    samples: int = 50,
    seed: int = 0,
    bound: int = DEFAULT_DIMENSION_BOUND,
) -> VerificationReport:
    """multiply(top, bottom) realized at delta=N equals the matrix composite.

    Both sides are Pin(N)-equivariant, so they are compared on one vacuum
    column per orbit of the mode permutations alone (see
    _mode_orbit_columns): an equivariant map that vanishes there is zero.
    The product's terms and the top factor are realized on those columns,
    and each bottom factor once, on the rows its top factors reach: the
    only columns the composites read. Random mode draws from a BasisView.

    At N >= 3 the pairs pass if they agree on the kept weight's orbit
    columns (_weight_orbit_columns), exact by _realized_rank's argument,
    whose rank tests are the evidence: the odd reflection pairs the halves
    of Delta at even N; the vacuum line is a character of its parabolic, so
    a g-map V^(x)n (x) Delta_+- -> L(lambda) is fixed on V^(x)n (x) |0>;
    and a degree induction from the kept weight, minuscule in its coset,
    finishes. At N = 2 they fall short.

    A failure names the first entry, in column order, where the two maps
    differ on the vacuum columns, as a check on all of them would: any
    difference on the kept columns reruns the pairs on all orbit columns.
    Their difference is equivariant, so the vacuum columns where it is
    nonzero are a union of orbits: the first of them is the smallest column
    of its orbit, its representative, and each representative column is
    realized with all its rows.
    """
    space = SpaceSpec(N, n)
    _check_bound(space, bound)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if mode == "exhaustive":
        basis = enumerate_basis(n)
        pairs = [(a, b) for a in basis for b in basis]
    elif mode == "random":
        rng, view = random.Random(seed), BasisView(n)
        pairs = [(rng.choice(view), rng.choice(view)) for _ in range(samples)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    dim = space.total_dim
    params = {"n": n, "N": N, "mode": mode, "pairs": len(pairs), "seed": seed}

    def failures(columns: ColumnSet):
        # A product term that is no top factor is realized when used, not kept.
        tops = {d: realize_diagram(d, space, columns)
                for d in dict.fromkeys(t for t, _ in pairs)}
        reached = {d: m.rows() for d, m in tops.items()}
        reads: dict[SpinDiagram, set[int]] = {}
        for top, bottom in pairs:
            reads.setdefault(bottom, set()).update(reached[top])
        below = cache(lambda d: realize_diagram(d, space, ColumnSet(space, reads[d])))
        for top, bottom in pairs:
            terms = multiply_diagrams(top, bottom).terms.items()
            lhs = LinearMap.combination(dim, dim, (
                (c.eval_at(N),
                 tops[d] if d in tops else realize_diagram(d, space, columns))
                for d, c in terms))
            rhs = below(bottom) @ tops[top]
            if lhs != rhs:
                yield {**_pair(top, bottom), "entry": _first_entry(lhs, rhs)}
    if N >= 3 and next(failures(ColumnSet(space, _weight_orbit_columns(space))), None) is None:
        return _verdict("homomorphism", params, ())
    return _verdict("homomorphism", params, failures(ColumnSet(space, _mode_orbit_columns(space))))


# Each block's domain sizes n and the positions its builder takes there. The
# invariant element of V (x) V is the image of the spin factor under the
# immersion into n = 2, so "invariant" checks the first immersion entry alone.
_EQUIVARIANT_FAMILIES: dict[str, list[tuple[int, tuple]]] = {
    "projection": [(1, (1,)), (2, (1,)), (2, (2,))],
    "injection": [(0, (1,)), (1, (1,)), (1, (2,))],
    "immersion": [(0, (1, 2)), (1, (1, 3)), (1, (2, 3))],
    "contraction": [(2, (1, 2))],
    "swap": [(2, ((2, 1),))],
    "invariant": [(0, (1, 2))],
}


def verify_equivariance(N: int, map_kind: str = "projection",
                        bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """Commutation with every so(N) basis element and the odd reflection.

    map_kind "invariant" checks the immersion of the spin factor into n = 2:
    its commuting with the so(N) action, whose spin parts cancel, says that
    the immersed element of V (x) V is annihilated by the action on the slots.
    """
    params = {"N": N, "map_kind": map_kind}
    if map_kind not in _EQUIVARIANT_FAMILIES:
        raise ValueError(f"unknown map kind {map_kind!r}")
    build, gained = BLOCKS["immersion" if map_kind == "invariant" else map_kind]
    family = [(SpaceSpec(N, n), SpaceSpec(N, n + gained), pos)
              for n, pos in _EQUIVARIANT_FAMILIES[map_kind]]
    for dom, cod, _ in family:
        _check_bound(dom, bound)
        _check_bound(cod, bound)
    # The family's spaces repeat, so each action is built once: the pair
    # None stands for the odd reflection.
    action = cache(lambda pair, space:
                   act_gamma(space) if pair is None else act_so(pair, space))

    def failures():
        for dom, cod, pos in family:
            fmap = build(dom, *pos)
            for pair in (*so_basis(dom), None):
                lhs = fmap @ action(pair, dom)
                rhs = action(pair, cod) @ fmap
                if lhs != rhs:
                    yield {"symbol": "gamma" if pair is None else repr(pair), "n": dom.n,
                           "positions": repr(pos), "entry": _first_entry(lhs, rhs)}
    return _verdict("equivariance", params, failures())


# Each circuit type's plan as (arcs the opening spends, opening, link,
# closing), every step a block kind of BLOCKS and its positions on the open
# slots. The slots lie on one chain: each arc is a link, an immersion below
# and a contraction above, and each end is closed by a contraction (type I),
# an injection (from the spin factor) or a projection (into it). Spin steps
# keep their relative order: they do not commute (the Clifford swap rule).
_LINK = (("immersion", 2, 3), ("contraction", 1, 2))
_CIRCUITS: dict[str, tuple[int, tuple, tuple, tuple]] = {
    "I": (1, (("immersion", 1, 2),), (("immersion", 3, 4), ("contraction", 2, 3)),
          (("contraction", 1, 2),)),
    "II": (0, (("injection", 1),), _LINK, (("injection", 2), ("contraction", 1, 2))),
    "III": (0, (("immersion", 1, 2), ("projection", 1)), _LINK, (("projection", 1),)),
    "IV": (0, (("injection", 1),), _LINK, (("projection", 1),)),
    "V": (0, (("injection", 1),), (("immersion", 1, 2), ("contraction", 2, 3)),
          (("projection", 1),)),
}


def verify_circuit_scaling(N: int, circuit_type: str = "IV", arcs: int = 0,
                           bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """A closed-circuit composite equals N times the identity on the spin factor.

    The composite is the opening, the link once per arc the opening leaves,
    and the closing. Type I's opening immersion is already the circuit's
    first arc, so it takes arcs - 1 links. A link opens two slots and closes
    two, so every link starts at the width the first one did and passes the
    same widths: the peak width, checked against the bound before any map
    is built, is read from the opening, one link and the closing.
    """
    params = {"N": N, "type": circuit_type, "arcs": arcs}
    if arcs < 0:
        raise ValueError("the number of arcs must be nonnegative")
    if circuit_type not in _CIRCUITS:
        raise ValueError(f"unknown circuit type {circuit_type!r}")
    spent, opening, link, closing = _CIRCUITS[circuit_type]
    links = arcs - spent
    if links < 0:
        raise ValueError(f"type {circuit_type} needs at least one arc")
    peak = max(accumulate(BLOCKS[kind][1]
                          for kind, *_ in chain(opening, link if links else (), closing)))
    _check_bound(SpaceSpec(N, peak), bound)
    composite, width = LinearMap.identity(SpaceSpec(N, 0).fock_dim), 0
    for kind, *positions in chain(opening, chain.from_iterable(repeat(link, links)), closing):
        build, gained = BLOCKS[kind]
        composite = build(SpaceSpec(N, width), *positions) @ composite
        width += gained
    expected = LinearMap.identity(composite.domain_dim).scale(RootTwoNumber(N))
    return _verdict("circuit_scaling", params,
                    [{"got_nnz": composite.nnz()}] if composite != expected else [])


def verify_clifford_relation(N: int,
                             bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """Transposing adjacent spin operators matches the diagram rewriting rule.

    For each adjacent pair (injection/injection, projection/injection,
    projection/projection) the swapped composite equals minus the original
    plus twice the joined map (immersion, through string, contraction).
    """
    params = {"N": N}
    space0, space1, space2 = (SpaceSpec(N, n) for n in range(3))
    _check_bound(space2, bound)  # the largest space any composite uses
    swaps = [  # (pair, original composite, swapped composite, joined map)
        ("injection/injection", injection_map(space1, 2) @ injection_map(space0, 1),
         injection_map(space1, 1) @ injection_map(space0, 1), immersion_map(space0, 1, 2)),
        ("projection/injection", injection_map(space0, 1) @ projection_map(space1, 1),
         projection_map(space2, 2) @ injection_map(space1, 1),
         LinearMap.identity(space1.total_dim)),
        ("projection/projection", projection_map(space1, 1) @ projection_map(space2, 1),
         projection_map(space1, 1) @ projection_map(space2, 2), contraction_map(space2, 1, 2)),
    ]
    fails = [pair for pair, canonical, swapped, joined in swaps
             if swapped != joined.scale(RootTwoNumber(2)) - canonical]
    return _verdict("clifford_relation", params, [{"failing_swaps": fails}] if fails else [])


def _row_column(arcs: tuple, isolated: tuple, space: SpaceSpec) -> int:
    """The index of the one Fock-mask-0 column of a top row (A, I): arc k of
    A carries w_k at its left end and w_k* at its right, a vertex of I
    carries w_j, and every other vertex, a through string's top end,
    carries w_j*, each j a mode of its own."""
    m, contents = space.m, [0] * space.n
    for k, (a, b) in enumerate(arcs):
        contents[a - 1], contents[b - 1] = k, m + k
    free = sorted(set(range(1, space.n + 1)).difference(*arcs))
    for j, v in enumerate(free, len(arcs)):
        contents[v - 1] = j if v in isolated else m + j
    return space.encode(contents, 0)


def _each_owns_a_row(maps: list[LinearMap]) -> bool:
    """Whether every map has a nonzero row that no other map touches. A
    nonzero entry in each such row is a coordinate where only its own map
    is nonzero: there the maps are diagonal with nonzero entries, so they
    are independent, exactly. A zero map has no row and fails."""
    supports = [m.rows() for m in maps]
    counts = Counter(chain.from_iterable(supports))
    return all(any(counts[r] == 1 for r in rows) for rows in supports)


def _blocks_certify(basis: Iterable[SpinDiagram], space: SpaceSpec) -> bool:
    """Whether, in each top-row group realized on its column, every diagram
    owns a row. A group is a run of basis diagrams with one top row, as the
    basis order makes them; a top row that recurs after its run fails."""
    seen = set()
    for row, group in groupby(basis, lambda d: (d.top_arcs, d.top_isolated)):
        if row in seen:
            return False
        seen.add(row)
        column = ColumnSet(space, (_row_column(*row, space),))
        if not _each_owns_a_row([realize_diagram(d, space, column) for d in group]):
            return False
    return True


def _realized_rank(basis: Sequence[SpinDiagram], space: SpaceSpec) -> int:
    """Rank over Q(sqrt2) of the realized basis, exact.

    For N >= 2n, full rank is first certified group by group: a group is
    the run of the basis order with one top row (A, I), its top arcs A and
    top isolated vertices I, realized on its row's one column (_row_column).
    Arc k of A holds w_k and w_k* on mode k, and each of the n - 2|A| other
    vertices a mode of its own, so the row needs n - |A| modes of the
    m = N // 2 there are. The rows without arcs need n, hence N >= 2n.

    Order top rows by (A', I') <= (A, I) iff A' is a subset of A and I' a
    subset of I u ends(A - A'). This is a partial order: reflexive,
    antisymmetric (A' = A leaves ends(A - A') empty, so I' = I) and
    transitive (ends(A - A') u ends(A' - A'') = ends(A - A'')). So it has no
    cycle, and every finite set of top rows has a <=-minimal element.

    A diagram with top row (A', I') is zero on (A, I)'s column unless
    (A', I') <= (A, I). A top arc contracts its ends by omega, and among the
    column's contents only w_k and w_k* pair, so each arc of A' is one of
    A. A top isolated vertex absorbs its content into the vacuum, in label
    order: a through end's w_j* meets a mode that nothing fills, and the
    right end w_k* of an arc of A - A' needs its left end absorbed first,
    so I' lies in I u ends(A - A'). A group's own diagrams are nonzero on
    their column: their arcs pair w_k with w_k*, and their isolated vertices
    wedge distinct modes into the vacuum.

    In a dependency, a <=-minimal top row (A, I) of its support therefore
    leaves (A, I)'s group dependent on (A, I)'s column: every other diagram
    of the support vanishes there. A group is independent on its column
    when each of its diagrams has a row there that no other diagram of the
    group touches: on those rows the group's matrix is diagonal with nonzero
    entries (see _each_owns_a_row). So private rows in every group prove
    full rank exactly over Q(sqrt2), with no prime and nothing eliminated.

    A pass at N = 2n proves full rank, injectivity, at every N' > 2n too, by
    the mode-embedding lemma: w_i -> w_i, w_i* -> w_i*, e -> e with the Fock
    mask kept takes each column at N to one at N' (not odd N to even N'),
    where on the image rows every realization equals its own at N. A top
    row's column maps to its column at N', so private rows stay private,
    and the <= argument does not depend on N.

    When a diagram owns no row in its group, or N < 2n and the kept columns
    below fall short, each diagram is realized on one vacuum column, one of
    V^(x)n (x) |0>, per orbit of the mode permutations (see
    _mode_orbit_columns), then flattened and eliminated modulo primes (see
    linalg). This keeps the rank. A combination of realizations is
    Pin(N)-equivariant, each being a composite of the blocks that
    verify_equivariance checks. So if it vanishes on one column per orbit,
    it vanishes on every vacuum column, which the mode permutations permute
    up to nonzero scalars, and then everywhere: g in Pin(N) maps
    V^(x)n (x) |0> onto V^(x)n (x) g|0>, and the vectors g|0> span Delta
    (so(N) carries the vacuum onto Delta_+, all of Delta at odd N, and the
    odd reflection carries Delta_+ onto Delta_-).

    Equivariance also bounds the rank by the ceiling commutant_dimension(space)
    = dim End_Pin(N)(V^(x)n (x) Delta), and a rank modulo a prime is at most
    the rank, so a prime that reaches the ceiling settles it; when the
    realization is onto the commutant, the first prime does unless it
    divides every maximal minor. Otherwise the Hadamard bound decides.

    For 3 <= N < 2n the kept weight's orbit columns (_weight_orbit_columns)
    come first, reduced modulo one prime as they stream (rank_reaches), and
    are taken only if they reach the ceiling. At N = 2 they fall short (4
    of 6 at n = 2). Why they are exact at N >= 3: let an equivariant map
    vanish there, and F be its part onto an irreducible L(lambda) of so(N). At
    even N the odd reflection pairs the two halves of Delta, so F may be
    taken on V^(x)n (x) Delta_+. The vacuum line is a character of the
    parabolic p = l + u that fixes it (l = gl(m); u, spanned by the
    w_i* ^ w_j* and e ^ w_i*, kills |0>), and |0> generates Delta_+: F is
    determined by its restriction F0 to V^(x)n (x) |0>, which commutes
    with u. A degree induction finishes, a weight's degree being its
    coordinate sum, which u lowers. In the kept degree each l-irreducible
    part holds a mode permutation of the kept weight, so F0 vanishes there,
    and below, which u reaches from there. Above, where F0 vanishes on the
    lower degrees, u carries F0 into the u-invariants of L(lambda), its
    lowest component. The kept weight plus the vacuum's is the minuscule
    weight of its coset, so a weight of every L(lambda) that occurs, and
    its degree bounds that component: F0 vanishes. The rank tests on the
    kept columns (the ceiling reached for n <= 3 at N = 3..9, (4, 4) and
    (4, 8)) are the executable evidence for this argument.
    """
    if space.N >= 2 * space.n and _blocks_certify(basis, space):
        return len(basis)
    ceiling = commutant_dimension(space)
    if 3 <= space.N < 2 * space.n:
        kept = ColumnSet(space, _weight_orbit_columns(space))
        if rank_reaches((realize_diagram(d, space, kept).flatten() for d in basis), ceiling):
            return ceiling
    orbits = ColumnSet(space, _mode_orbit_columns(space))
    return rank_of_vectors([realize_diagram(d, space, orbits).flatten() for d in basis],
                           ceiling=ceiling)


def verify_rank(n: int, N: int, bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """Rank of the span of the realized basis diagrams.

    The rank is exact over Q(sqrt2) (see _realized_rank). Passes when the
    rank equals the basis size for N >= 2n; for N < 2n the observed rank is
    reported without any assertion (verify_surjectivity asserts it).
    """
    space = SpaceSpec(N, n)
    _check_bound(space, bound)
    basis = BasisView(n)
    rank = _realized_rank(basis, space)
    asserted = N >= 2 * n
    info = {"basis_size": len(basis), "rank": rank, "asserted": asserted}
    deficient = asserted and rank != len(basis)
    return _verdict("rank", {"n": n, "N": N},
                    [{"rank": rank, "basis_size": len(basis)}] if deficient else [], info)


def verify_surjectivity(n: int, N: int,
                        bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """The realization SB_n(N) -> End_Pin(N)(V^(x)n (x) Delta) is onto.

    Passes when the rank of the realized basis equals the commutant
    dimension, for every N; for N >= 2n the commutant dimension must also
    equal the basis size, so that the map is an isomorphism.
    """
    space = SpaceSpec(N, n)
    _check_bound(space, bound)
    basis = BasisView(n)
    dim = commutant_dimension(space)
    rank = _realized_rank(basis, space)
    info = {"basis_size": len(basis), "commutant_dim": dim, "rank": rank}
    onto = rank == dim and (N < 2 * n or dim == len(basis))
    return _verdict("surjectivity", {"n": n, "N": N}, [] if onto else [dict(info)], info)


# --- independent classical Brauer oracle -------------------------------------

BrauerDiagram = dict  # each vertex ("t" | "b", v) -> the other end of its string


def brauer_from_spin(d: SpinDiagram) -> BrauerDiagram:
    if d.top_isolated or d.bottom_isolated:
        raise ValueError("only isolated-free diagrams are classical")
    strings = [(("t", a), ("t", b)) for a, b in d.top_arcs]
    strings += [(("b", a), ("b", b)) for a, b in d.bottom_arcs]
    strings += [(("t", i), ("b", j)) for i, j in d.through]
    return {u: w for s in strings for u, w in (s, s[::-1])}


def brauer_to_spin(n: int, partner: BrauerDiagram) -> SpinDiagram:
    arcs: dict[str, list] = {"t": [], "b": []}
    through = []
    for (r1, v1), (r2, v2) in partner.items():
        if r1 != r2:
            if r1 == "t":
                through.append((v1, v2))
        elif v1 < v2:
            arcs[r1].append((v1, v2))
    return SpinDiagram(n, (), (), tuple(arcs["t"]), tuple(arcs["b"]), tuple(through))


def brauer_multiply(top: BrauerDiagram, bottom: BrauerDiagram,
                    n: int) -> tuple[int, BrauerDiagram]:
    """Classical product by path tracing; returns (closed loops, partner map).

    Each string of the product starts at an outer vertex, in the top row of
    top or the bottom row of bottom, and is walked once: at every middle
    vertex it switches to the other diagram's string there. The middle
    vertices no string met lie on closed loops, each walked once to count it.
    """
    factors = (top, bottom)
    met = [False] * (n + 1)

    def walk(side: int, end: tuple) -> tuple:
        """From the far end of a string of factors[side], switch diagrams at
        each middle vertex (row "b" of top, "t" of bottom) until an outer
        vertex, or a middle vertex already met, ends the walk."""
        while end[0] == "bt"[side] and not met[end[1]]:
            met[end[1]] = True
            side ^= 1
            end = factors[side]["bt"[side], end[1]]
        return end

    product: BrauerDiagram = {}
    for side, row in ((0, "t"), (1, "b")):
        for v in range(1, n + 1):
            if (row, v) not in product:
                end = walk(side, factors[side][row, v])
                product[row, v], product[end] = end, (row, v)
    loops = 0
    for v in range(1, n + 1):
        if not met[v]:
            loops += 1
            walk(0, ("b", v))  # as if top's string ended at v: round the loop
    return loops, product


def verify_brauer_consistency(n: int) -> VerificationReport:
    """Products of isolated-free diagrams match the classical path-tracing product."""
    basis = [d for d in enumerate_basis(n) if not d.top_isolated and not d.bottom_isolated]
    params = {"n": n, "diagrams": len(basis)}

    def failures():
        for d1 in basis:
            for d2 in basis:
                loops, matching = brauer_multiply(brauer_from_spin(d1), brauer_from_spin(d2), n)
                expected = AlgebraElement.from_diagram(brauer_to_spin(n, matching),
                                                       DeltaPolynomial.delta(loops))
                if multiply_diagrams(d1, d2) != expected:
                    yield _pair(d1, d2)
    return _verdict("brauer_consistency", params, failures())


def verify_associativity(n: int, samples: int = 50, seed: int = 0) -> VerificationReport:
    """(a b) c = a (b c) symbolically on random basis triples."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    basis = BasisView(n)
    rng = random.Random(seed)
    params = {"n": n, "samples": samples, "seed": seed}

    def failures():
        for _ in range(samples):
            a, b, c = (AlgebraElement.from_diagram(rng.choice(basis)) for _ in range(3))
            left = multiply_elements(multiply_elements(a, b), c)
            right = multiply_elements(a, multiply_elements(b, c))
            if left != right:
                yield {"triple": [e.to_json() for e in (a, b, c)]}
    return _verdict("associativity", params, failures())


def verify_filtration(n: int) -> VerificationReport:
    """Through-string count never exceeds either factor's count."""
    basis = enumerate_basis(n)
    params = {"n": n, "pairs": len(basis) ** 2}
    return _verdict("filtration", params, (
        _pair(d1, d2) for d1 in basis for d2 in basis
        if multiply_diagrams(d1, d2).max_through() > min(d1.through_count, d2.through_count)))


def verify_modmult(n: int) -> VerificationReport:
    """Exhaustive agreement of products with the pairing-form prediction."""
    basis = enumerate_basis(n)
    params = {"n": n, "pairs": len(basis) ** 2}
    references: dict = {}  # one reference product per pair of middle rows
    return _verdict("modmult", params, (
        _pair(d1, d2) for d1 in basis for d2 in basis
        if not modmult_check(d1, d2, references)))


def verify_cell_symmetry(n: int) -> VerificationReport:
    """Swapping the pairing's arguments inverts the permutation, scalars fixed."""
    if n < 0:
        raise DiagramError("n must be nonnegative")

    def failures():
        for ell in range(n + 1):
            vecs = enumerate_S(n, ell)
            for v1 in vecs:
                for v2 in vecs:
                    a = phi_ell(ell, v1, v2)  # None is the zero value
                    if (a and a.inverted()) != phi_ell(ell, v2, v1):
                        yield {"ell": ell, "v1": repr(v1), "v2": repr(v2)}
    return _verdict("cell_symmetry", {"n": n}, failures())


def verify_involution_compatibility(n: int) -> VerificationReport:
    """Row swap exchanges the two cell factors and inverts the permutation."""
    def failures():
        for d in BasisView(n):
            ell, t = cell_encode(d)
            inverse = tuple(sorted(range(ell), key=t.sigma.__getitem__))
            if cell_encode(involution(d)) != (ell, CellTriple(t.y, t.T, t.x, t.S, inverse)):
                yield {"diagram": emit_diagram(d)}
    return _verdict("involution_compatibility", {"n": n}, failures())


CHECKS: dict[str, Callable[..., VerificationReport]] = {
    "homomorphism": verify_homomorphism,
    "equivariance": verify_equivariance,
    "circuit": verify_circuit_scaling,
    "clifford": verify_clifford_relation,
    "rank": verify_rank,
    "surjectivity": verify_surjectivity,
    "brauer": verify_brauer_consistency,
    "associativity": verify_associativity,
    "filtration": verify_filtration,
    "modmult": verify_modmult,
    "cell-symmetry": verify_cell_symmetry,
    "involution": verify_involution_compatibility,
}
