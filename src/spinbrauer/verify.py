"""Executable check suite: every structural claim becomes a deterministic,
exactly-evaluated pass/fail report with a witness on failure.

Matrix checks specialize delta to N; algebraic checks (associativity,
filtration, the Brauer subalgebra) run symbolically in Z[delta].
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .cellular import modmult_check, phi_ell
from .diagrams import (
    AlgebraElement,
    SpinDiagram,
    cell_encode,
    emit_diagram,
    enumerate_S,
    enumerate_basis,
    involution,
)
from .linalg import LinearMap, independent_mod_p, rank_of_vectors
from .multiply import multiply_diagrams, multiply_elements
from .realization import (
    BLOCKS,
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
        assert self.passed or self.counterexample is not None

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


class ResourceBoundError(RuntimeError):
    """Requested parameters exceed the configured dimension bound."""


def _check_bound(space: SpaceSpec, bound: int) -> None:
    if space.total_dim > bound:
        raise ResourceBoundError(
            f"total dimension {space.total_dim} exceeds bound {bound}"
        )


class _Realizer:
    """Caches diagram realizations for one space."""

    def __init__(self, space: SpaceSpec):
        self.space = space
        self._cache: dict[SpinDiagram, LinearMap] = {}

    def __call__(self, d: SpinDiagram) -> LinearMap:
        got = self._cache.get(d)
        if got is None:
            got = self._cache[d] = realize_diagram(d, self.space)
        return got

    def element(self, a: AlgebraElement, N: int) -> LinearMap:
        dim = self.space.total_dim
        return LinearMap.combination(
            dim, dim, ((c.eval_at(N), self(d)) for d, c in a.terms.items()))


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
    """multiply(top, bottom) realized at delta=N equals the matrix composite."""
    space = SpaceSpec(N, n)
    _check_bound(space, bound)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    basis = enumerate_basis(n)
    if mode == "exhaustive":
        pairs = [(a, b) for a in basis for b in basis]
    elif mode == "random":
        rng = random.Random(seed)
        pairs = [(rng.choice(basis), rng.choice(basis)) for _ in range(samples)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    realize = _Realizer(space)
    params = {"n": n, "N": N, "mode": mode, "pairs": len(pairs), "seed": seed}
    for top, bottom in pairs:
        product = multiply_diagrams(top, bottom).evaluate_at(N)
        lhs = realize.element(product, N)
        rhs = realize(bottom) @ realize(top)
        if lhs != rhs:
            return VerificationReport(
                "homomorphism",
                params,
                False,
                {"top": emit_diagram(top), "bottom": emit_diagram(bottom),
                 "entry": _first_entry(lhs, rhs)},
            )
    return VerificationReport("homomorphism", params, True)


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


def verify_equivariance(N: int, map_kind: str,
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
    actions: dict[tuple[Optional[tuple[int, int]], SpaceSpec], LinearMap] = {}

    def action(pair: Optional[tuple[int, int]], space: SpaceSpec) -> LinearMap:
        if (pair, space) not in actions:
            actions[pair, space] = act_gamma(space) if pair is None else act_so(pair, space)
        return actions[pair, space]

    for dom, cod, pos in family:
        fmap = build(dom, *pos)
        for pair in (*so_basis(dom), None):
            lhs = fmap @ action(pair, dom)
            rhs = action(pair, cod) @ fmap
            if lhs != rhs:
                return VerificationReport(
                    "equivariance", params, False,
                    {"symbol": "gamma" if pair is None else repr(pair), "n": dom.n,
                     "positions": repr(pos), "entry": _first_entry(lhs, rhs)},
                )
    return VerificationReport("equivariance", params, True)


class _SlotComposer:
    """Builds a composite of equivariant blocks over named slots.

    Slots are identified by integer names whose sorted order is the final
    left-to-right layout; positions are recomputed at every step, so a plan
    reads like the circuit picture regardless of arity changes.
    """

    def __init__(self, N: int):
        self.N = N
        self.slots: list[int] = []
        self.matrix = LinearMap.identity(SpaceSpec(N, 0).fock_dim)

    def step(self, kind: str, names: tuple[int, ...]) -> None:
        """Apply a block of BLOCKS (not the swap) to the named slots.

        A block that adds slots finds their positions in the new sorted
        layout; one that removes slots finds them in the old layout.
        """
        build, gained = BLOCKS[kind]
        if gained > 0:
            new = layout = sorted(self.slots + list(names))
        else:
            layout, new = self.slots, [s for s in self.slots if s not in names]
        positions = sorted(layout.index(s) + 1 for s in names)
        space = SpaceSpec(self.N, len(self.slots))
        self.matrix = build(space, *positions) @ self.matrix
        self.slots = new


def _circuit_plan(circuit_type: str, arcs: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The steps of a closed circuit as (block kind, slot names).

    Slots 1..k lie on one chain: arcs alternate between immersions (below)
    and contractions (above), and each end is closed by a contraction (type
    I), an injection (from the spin factor) or a projection (into it). The
    plan walks the chain from its first spin step and contracts as it goes,
    so at most four slots are open at once. Spin steps keep their relative
    order: they do not commute in general (the Clifford swap rule), while
    blocks on disjoint slots do. The steps are generated one at a time, so a
    walk of the plan holds none of them.
    """
    if arcs < 0:
        raise ValueError("the number of arcs must be nonnegative")
    i = arcs
    if circuit_type == "I":
        if i < 1:
            raise ValueError("type I needs at least one arc")
        k = 2 * i
        yield "immersion", (1, 2)
        for a in range(3, k, 2):
            yield from (("immersion", (a, a + 1)), ("contraction", (a - 1, a)))
        yield "contraction", (1, k)
    elif circuit_type == "II":
        k = 2 * i + 2
        yield "injection", (1,)
        for a in range(2, k - 1, 2):
            yield from (("immersion", (a, a + 1)), ("contraction", (a - 1, a)))
        yield from (("injection", (k,)), ("contraction", (k - 1, k)))
    elif circuit_type == "III":
        k = 2 * i + 2
        yield from (("immersion", (1, 2)), ("projection", (1,)))
        for a in range(3, k, 2):
            yield from (("immersion", (a, a + 1)), ("contraction", (a - 1, a)))
        yield "projection", (k,)
    elif circuit_type == "IV":
        k = 2 * i + 1
        yield "injection", (1,)
        for a in range(2, k, 2):
            yield from (("immersion", (a, a + 1)), ("contraction", (a - 1, a)))
        yield "projection", (k,)
    elif circuit_type == "V":
        k = 2 * i + 1
        yield "injection", (k,)
        for a in range(k - 2, 0, -2):
            yield from (("immersion", (a, a + 1)), ("contraction", (a + 1, a + 2)))
        yield "projection", (1,)
    else:
        raise ValueError(f"unknown circuit type {circuit_type!r}")


def verify_circuit_scaling(N: int, circuit_type: str, arcs: int,
                           bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """A closed-circuit composite equals N times the identity on the spin factor."""
    params = {"N": N, "type": circuit_type, "arcs": arcs}
    # The plan is walked twice: for its peak width (which validates the type
    # and arc count before any map is built), then to compose it.
    open_slots = peak = 0
    for kind, _ in _circuit_plan(circuit_type, arcs):
        open_slots += BLOCKS[kind][1]
        peak = max(peak, open_slots)
    _check_bound(SpaceSpec(N, peak), bound)
    composer = _SlotComposer(N)
    for kind, names in _circuit_plan(circuit_type, arcs):
        composer.step(kind, names)
    if composer.slots:
        raise AssertionError("circuit plan left open slots")
    fock = SpaceSpec(N, 0).fock_dim
    expected = LinearMap.identity(fock).scale(RootTwoNumber(N))
    passed = composer.matrix == expected
    ce = None if passed else {"got_nnz": composer.matrix.nnz()}
    return VerificationReport("circuit_scaling", params, passed, ce)


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
    passed = not fails
    return VerificationReport(
        "clifford_relation", params, passed,
        None if passed else {"failing_swaps": fails},
    )


def _block_contents(arcs: tuple, space: SpaceSpec) -> list[tuple[int, ...]]:
    """The slot contents of a top-arc set, at Fock mask 0: arc k carries w_k
    at its left end and w_k* at its right, and every other vertex w_j or w_j*
    on a mode j of its own."""
    m, contents = space.m, [()] * space.n
    for k, (a, b) in enumerate(arcs):
        contents[a - 1], contents[b - 1] = (k,), (m + k,)
    free = sorted(set(range(1, space.n + 1)).difference(*arcs))
    for j, v in enumerate(free, len(arcs)):
        contents[v - 1] = (j, m + j)
    return contents


def _blocks_certify(basis: list[SpinDiagram], space: SpaceSpec) -> bool:
    """Whether each top-arc group is independent modulo a prime on its contents."""
    groups: dict[tuple, list[SpinDiagram]] = {}
    for d in basis:
        groups.setdefault(d.top_arcs, []).append(d)
    for arcs, group in groups.items():
        contents = _block_contents(arcs, space)
        if not independent_mod_p([realize_diagram(d, space, contents) for d in group]):
            return False
    return True


def _realized_rank(basis: list[SpinDiagram], space: SpaceSpec) -> int:
    """Rank over Q(sqrt2) of the realized basis, exact.

    For N >= 2n, full rank is first certified block by block: the basis is
    grouped by top-arc set A, and each group is realized on A's columns only,
    those its slot contents select (see _block_contents). These give every
    vertex outside A's arcs a mode of its own, so they need n <= N // 2
    modes. A top arc pairs the contents at its ends, so a diagram is zero on
    A's columns unless its top arcs lie inside A. In a dependency, an
    inclusion-minimal A among its diagrams' top-arc sets therefore leaves
    A's group dependent on A's columns. Restricting to columns and reducing
    modulo a prime cannot raise a rank, so every group independent modulo
    one prime proves full rank exactly, with nothing flattened.

    When a group fails, and always for N < 2n, each diagram is realized on
    the Fock-mask-0 columns only, those of V^(x)n (x) |0>, then flattened and
    eliminated modulo primes (see linalg). Restricting to these columns keeps
    the rank. Each realization is Pin(N)-equivariant, a composite of the
    blocks that verify_equivariance checks, and g in Pin(N) maps
    V^(x)n (x) |0> onto V^(x)n (x) g|0>. The vectors g|0> span Delta: so(N)
    carries the vacuum onto Delta_+ (all of Delta at odd N), and the odd
    reflection carries Delta_+ onto Delta_-. So an equivariant map, such as
    a combination of realizations, that vanishes there is zero.

    Equivariance also bounds the rank by the ceiling commutant_dimension(space)
    = dim End_Pin(N)(V^(x)n (x) Delta), and a rank modulo a prime is at most
    the rank, so a prime that reaches the ceiling settles it; when the
    realization is onto the commutant, the first prime does unless it
    divides every maximal minor. Otherwise the Hadamard bound decides.
    """
    if space.N >= 2 * space.n and _blocks_certify(basis, space):
        return len(basis)
    vacuum = [range(space.N)] * space.n
    return rank_of_vectors([realize_diagram(d, space, vacuum).flatten() for d in basis],
                           ceiling=commutant_dimension(space))


def verify_rank(n: int, N: int, bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """Rank of the span of the realized basis diagrams.

    The rank is exact over Q(sqrt2) (see _realized_rank). Passes when the
    rank equals the basis size for N >= 2n; for N < 2n the observed rank is
    reported without any assertion (verify_surjectivity asserts it).
    """
    space = SpaceSpec(N, n)
    _check_bound(space, bound)
    basis = enumerate_basis(n)
    rank = _realized_rank(basis, space)
    info = {"basis_size": len(basis), "rank": rank, "asserted": N >= 2 * n}
    if N >= 2 * n:
        passed = rank == len(basis)
    else:
        passed = True
    ce = None if passed else {"rank": rank, "basis_size": len(basis)}
    return VerificationReport("rank", {"n": n, "N": N}, passed, ce, info)


def verify_surjectivity(n: int, N: int,
                        bound: int = DEFAULT_DIMENSION_BOUND) -> VerificationReport:
    """The realization SB_n(N) -> End_Pin(N)(V^(x)n (x) Delta) is onto.

    Passes when the rank of the realized basis equals the commutant
    dimension, for every N; for N >= 2n the commutant dimension must also
    equal the basis size, so that the map is an isomorphism.
    """
    space = SpaceSpec(N, n)
    _check_bound(space, bound)
    basis = enumerate_basis(n)
    dim = commutant_dimension(space)
    rank = _realized_rank(basis, space)
    info = {"basis_size": len(basis), "commutant_dim": dim, "rank": rank}
    passed = rank == dim and (N < 2 * n or dim == len(basis))
    return VerificationReport("surjectivity", {"n": n, "N": N}, passed,
                              None if passed else dict(info), info)


# --- independent classical Brauer oracle -------------------------------------

BrauerDiagram = frozenset  # of frozensets {("t", i) | ("b", i)}


def brauer_from_spin(d: SpinDiagram) -> BrauerDiagram:
    if d.top_isolated or d.bottom_isolated:
        raise ValueError("only isolated-free diagrams are classical")
    edges = [frozenset((("t", a), ("t", b))) for a, b in d.top_arcs]
    edges += [frozenset((("b", a), ("b", b))) for a, b in d.bottom_arcs]
    edges += [frozenset((("t", i), ("b", j))) for i, j in d.through]
    return frozenset(edges)


def brauer_to_spin(n: int, matching: BrauerDiagram) -> SpinDiagram:
    top_arcs, bottom_arcs, through = [], [], []
    for edge in matching:
        (r1, v1), (r2, v2) = sorted(edge)
        if r1 == r2 == "t":
            top_arcs.append((v1, v2))
        elif r1 == r2 == "b":
            bottom_arcs.append((v1, v2))
        else:
            through.append((v2, v1))  # sorted puts ("b", j) before ("t", i)
    return SpinDiagram(n, (), (), tuple(top_arcs), tuple(bottom_arcs), tuple(through))


def brauer_multiply(top: BrauerDiagram, bottom: BrauerDiagram,
                    n: int) -> tuple[int, BrauerDiagram]:
    """Classical product by path tracing; returns (closed loops, matching).

    Edges are consumed one by one, so parallel edges (a two-edge loop through
    the middle row) are handled like any other cycle.
    """
    edges: list[tuple[tuple, tuple]] = []
    for edge in top:
        (r1, v1), (r2, v2) = edge
        a = ("T", v1) if r1 == "t" else ("M", v1)
        b = ("T", v2) if r2 == "t" else ("M", v2)
        edges.append((a, b))
    for edge in bottom:
        (r1, v1), (r2, v2) = edge
        a = ("M", v1) if r1 == "t" else ("B", v1)
        b = ("M", v2) if r2 == "t" else ("B", v2)
        edges.append((a, b))
    incident: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(edges):
        incident.setdefault(a, []).append(idx)
        incident.setdefault(b, []).append(idx)
    used = [False] * len(edges)

    out = []
    done_ext: set[tuple] = set()
    for start in sorted(incident):
        if start[0] == "M" or start in done_ext:
            continue
        done_ext.add(start)
        cur = start
        while True:
            eidx = next(i for i in incident[cur] if not used[i])
            used[eidx] = True
            a, b = edges[eidx]
            cur = b if a == cur else a
            if cur[0] != "M":
                done_ext.add(cur)
                break
        out.append(frozenset((
            ("t" if start[0] == "T" else "b", start[1]),
            ("t" if cur[0] == "T" else "b", cur[1]),
        )))

    loops = 0
    for idx in range(len(edges)):
        if used[idx]:
            continue
        loops += 1
        used[idx] = True
        first, cur = edges[idx]
        while cur != first:
            eidx = next(i for i in incident[cur] if not used[i])
            used[eidx] = True
            a, b = edges[eidx]
            cur = b if a == cur else a
    return loops, frozenset(out)


def verify_brauer_consistency(n: int) -> VerificationReport:
    """Products of isolated-free diagrams match the classical path-tracing product."""
    basis = [d for d in enumerate_basis(n) if not d.top_isolated and not d.bottom_isolated]
    params = {"n": n, "diagrams": len(basis)}
    for d1 in basis:
        for d2 in basis:
            loops, matching = brauer_multiply(
                brauer_from_spin(d1), brauer_from_spin(d2), n
            )
            expected = AlgebraElement.from_diagram(
                brauer_to_spin(n, matching), DeltaPolynomial.delta(loops)
            )
            if multiply_diagrams(d1, d2) != expected:
                return VerificationReport(
                    "brauer_consistency", params, False,
                    {"top": emit_diagram(d1), "bottom": emit_diagram(d2)},
                )
    return VerificationReport("brauer_consistency", params, True)


def verify_associativity(n: int, samples: int = 100, seed: int = 0) -> VerificationReport:
    """(a b) c = a (b c) symbolically on random basis triples."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    basis = enumerate_basis(n)
    rng = random.Random(seed)
    params = {"n": n, "samples": samples, "seed": seed}
    for _ in range(samples):
        a, b, c = (AlgebraElement.from_diagram(rng.choice(basis)) for _ in range(3))
        left = multiply_elements(multiply_elements(a, b), c)
        right = multiply_elements(a, multiply_elements(b, c))
        if left != right:
            return VerificationReport(
                "associativity", params, False,
                {"triple": [e.to_json() for e in (a, b, c)]},
            )
    return VerificationReport("associativity", params, True)


def verify_filtration(n: int) -> VerificationReport:
    """Through-string count never exceeds either factor's count."""
    basis = enumerate_basis(n)
    params = {"n": n, "pairs": len(basis) ** 2}
    for d1 in basis:
        for d2 in basis:
            cap = min(d1.through_count, d2.through_count)
            product = multiply_diagrams(d1, d2)
            if product.max_through() > cap:
                return VerificationReport(
                    "filtration", params, False,
                    {"top": emit_diagram(d1), "bottom": emit_diagram(d2)},
                )
    return VerificationReport("filtration", params, True)


def verify_modmult(n: int) -> VerificationReport:
    """Exhaustive agreement of products with the pairing-form prediction."""
    basis = enumerate_basis(n)
    params = {"n": n, "pairs": len(basis) ** 2}
    references: dict = {}  # one reference product per pair of middle rows
    for d1 in basis:
        for d2 in basis:
            if not modmult_check(d1, d2, references):
                return VerificationReport(
                    "modmult", params, False,
                    {"top": emit_diagram(d1), "bottom": emit_diagram(d2)},
                )
    return VerificationReport("modmult", params, True)


def verify_cell_symmetry(n: int) -> VerificationReport:
    """Swapping the pairing's arguments inverts the permutation, scalars fixed."""
    params = {"n": n}
    for ell in range(n + 1):
        vecs = enumerate_S(n, ell)
        for v1 in vecs:
            for v2 in vecs:
                a = phi_ell(ell, v1, v2)
                b = phi_ell(ell, v2, v1)
                if (a is None) != (b is None) or (a is not None and a.inverted() != b):
                    return VerificationReport(
                        "cell_symmetry", params, False,
                        {"ell": ell, "v1": repr(v1), "v2": repr(v2)},
                    )
    return VerificationReport("cell_symmetry", params, True)


def verify_involution_compatibility(n: int) -> VerificationReport:
    """Row swap exchanges the two cell factors and inverts the permutation."""
    params = {"n": n}
    for d in enumerate_basis(n):
        ell, t = cell_encode(d)
        ell2, ti = cell_encode(involution(d))
        inv = [0] * ell
        for i, j in enumerate(t.sigma):
            inv[j] = i
        ok = (
            ell == ell2
            and ti.x == t.y and ti.S == t.T
            and ti.y == t.x and ti.T == t.S
            and ti.sigma == tuple(inv)
        )
        if not ok:
            return VerificationReport(
                "involution_compatibility", params, False, {"diagram": emit_diagram(d)}
            )
    return VerificationReport("involution_compatibility", params, True)


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
