import inspect
import io
import itertools
import json
import tracemalloc
from collections import Counter, defaultdict

import pytest

from spinbrauer import cellular, cli, linalg, verify
from spinbrauer.diagrams import (
    AlgebraElement,
    SpinDiagram,
    emit_diagram,
    enumerate_basis,
    parse_diagram,
)
from spinbrauer.linalg import LinearMap
from spinbrauer.multiply import multiply_diagrams
from spinbrauer.realization import ColumnSet, SpaceSpec, commutant_dimension, realize_diagram
from spinbrauer.scalars import DeltaPolynomial, RootTwoNumber
from spinbrauer.verify import (
    ResourceBoundError,
    VerificationReport,
    brauer_from_spin,
    brauer_multiply,
    brauer_to_spin,
    verify_associativity,
    verify_brauer_consistency,
    verify_cell_symmetry,
    verify_circuit_scaling,
    verify_clifford_relation,
    verify_equivariance,
    verify_filtration,
    verify_homomorphism,
    verify_involution_compatibility,
    verify_modmult,
    verify_rank,
    verify_surjectivity,
)

CUP_CAP = SpinDiagram(2, (), (), ((1, 2),), ((1, 2),), ())


def test_report_requires_witness_on_failure():
    with pytest.raises(ValueError, match="needs a counterexample"):
        VerificationReport("x", {}, False)


def test_report_json_round_trips():
    report = VerificationReport("x", {"n": 1}, True, info={"rank": 2})
    assert json.loads(json.dumps(report.to_json())) == {
        "check": "x", "parameters": {"n": 1}, "passed": True, "info": {"rank": 2},
    }


def test_brauer_single_loop():
    loops, matching = brauer_multiply(
        brauer_from_spin(CUP_CAP), brauer_from_spin(CUP_CAP), 2
    )
    assert loops == 1
    assert brauer_to_spin(2, matching) == CUP_CAP
    assert multiply_diagrams(CUP_CAP, CUP_CAP).terms == {
        CUP_CAP: DeltaPolynomial.delta(1)
    }


def test_brauer_two_loops():
    cups = SpinDiagram(4, (), (), ((1, 2), (3, 4)), ((1, 2), (3, 4)), ())
    loops, matching = brauer_multiply(brauer_from_spin(cups), brauer_from_spin(cups), 4)
    assert loops == 2
    assert brauer_to_spin(4, matching) == cups


def test_brauer_loop_through_four_middle_vertices():
    # The middle row holds top's caps (1, 2), (3, 4) and bottom's cups
    # (1, 4), (2, 3): one loop 1-2-3-4. The through strings 1 -> 6 -> 1 and
    # 2 -> 5 -> 3 pass beside it.
    top = SpinDiagram(6, (), (), ((3, 4), (5, 6)), ((1, 2), (3, 4)), ((1, 6), (2, 5)))
    bottom = SpinDiagram(6, (), (), ((1, 4), (2, 3)), ((2, 4), (5, 6)), ((5, 3), (6, 1)))
    loops, matching = brauer_multiply(brauer_from_spin(top), brauer_from_spin(bottom), 6)
    assert loops == 1
    assert brauer_to_spin(6, matching) == SpinDiagram(
        6, (), (), ((3, 4), (5, 6)), ((2, 4), (5, 6)), ((1, 1), (2, 3)))


def test_brauer_round_trip():
    for d in enumerate_basis(2):
        if d.top_isolated or d.bottom_isolated:
            continue
        assert brauer_to_spin(2, brauer_from_spin(d)) == d


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_brauer_consistency(n):
    assert verify_brauer_consistency(n).passed


def test_homomorphism_small():
    assert verify_homomorphism(1, 3).passed
    report = verify_homomorphism(2, 3, mode="random", samples=10, seed=4)
    assert report.passed and report.parameters["pairs"] == 10


def test_homomorphism_bound():
    with pytest.raises(ResourceBoundError):
        verify_homomorphism(3, 9, bound=100)


def test_homomorphism_failure_names_first_differing_entry(monkeypatch):
    def wrong_product(top, bottom):
        return multiply_diagrams(top, bottom) + AlgebraElement.from_diagram(top)

    monkeypatch.setattr(verify, "multiply_diagrams", wrong_product)
    n, N = 2, 3
    report = verify_homomorphism(n, N)
    assert not report.passed
    ce = report.counterexample
    top, bottom = parse_diagram(ce["top"]), parse_diagram(ce["bottom"])
    space = SpaceSpec(N, n)
    dim = space.total_dim
    lhs = LinearMap.combination(dim, dim, (
        (c.eval_at(N), realize_diagram(d, space))
        for d, c in wrong_product(top, bottom).terms.items()))
    rhs = realize_diagram(bottom, space) @ realize_diagram(top, space)
    entry = ce["entry"]
    row, col = entry["row"], entry["col"]
    left = lhs.column(col).get(row, RootTwoNumber(0))
    right = rhs.column(col).get(row, RootTwoNumber(0))
    assert left != right
    assert (left.to_json(), right.to_json()) == (entry["lhs"], entry["rhs"])
    assert json.loads(json.dumps(report.to_json())) == report.to_json()


def _whole_failures(n, N):
    """Each pair, in the check's order, whose whole maps differ, with the two
    maps: the homomorphism check without the restriction to the vacuum
    columns, as an oracle."""
    space = SpaceSpec(N, n)
    dim = space.total_dim
    basis = enumerate_basis(n)
    realized = {d: realize_diagram(d, space) for d in basis}
    for top in basis:
        for bottom in basis:
            terms = verify.multiply_diagrams(top, bottom).terms.items()
            lhs = LinearMap.combination(dim, dim, ((c.eval_at(N), realized[d]) for d, c in terms))
            rhs = realized[bottom] @ realized[top]
            if lhs != rhs:
                yield top, bottom, lhs, rhs


_PRODUCT_FAULTS = {
    "none": multiply_diagrams,
    "plus-top": lambda top, bottom: (
        multiply_diagrams(top, bottom) + AlgebraElement.from_diagram(top)),
    # Only the pairs whose top factor has a top arc fail. A top arc pairs a
    # content with its dual, so such a factor vanishes on the vacuum column
    # whose slots all hold content 0: the witness lies past that column.
    "plus-top-if-arc": lambda top, bottom: (
        multiply_diagrams(top, bottom) + AlgebraElement.from_diagram(top, len(top.top_arcs))),
}


@pytest.mark.parametrize("fault", _PRODUCT_FAULTS)
@pytest.mark.parametrize("n,N", [(n, N) for n in range(3) for N in range(2, 7)])
def test_homomorphism_on_the_vacuum_columns_matches_the_whole_maps(n, N, fault, monkeypatch):
    monkeypatch.setattr(verify, "multiply_diagrams", _PRODUCT_FAULTS[fault])
    report = verify_homomorphism(n, N)
    first = next(_whole_failures(n, N), None)
    assert report.passed == (first is None)
    if first is None:
        return
    top, bottom, lhs, rhs = first
    ce = report.counterexample
    assert (ce["top"], ce["bottom"]) == (emit_diagram(top), emit_diagram(bottom))
    # The witness is an entry of a vacuum column where the whole maps
    # differ, the representative of its mode-permutation orbit.
    entry = ce["entry"]
    row, col = entry["row"], entry["col"]
    assert col % SpaceSpec(N, n).fock_dim == 0
    assert col in verify._mode_orbit_columns(SpaceSpec(N, n))
    left = lhs.column(col).get(row, RootTwoNumber(0))
    right = rhs.column(col).get(row, RootTwoNumber(0))
    assert left != right
    assert (left.to_json(), right.to_json()) == (entry["lhs"], entry["rhs"])


@pytest.mark.parametrize("n,N", [(n, N) for n in range(4) for N in range(2, 8)])
def test_mode_orbit_columns_list_each_orbit_by_its_smallest_column(n, N):
    # Brute force: permute the modes of every vacuum column in every way.
    space = SpaceSpec(N, n)
    m = space.m
    listed = verify._mode_orbit_columns(space)
    assert listed == sorted(set(listed))

    def image(slots, s):  # w_i -> w_s(i), w_i* -> w_s(i)*, e fixed
        return tuple(s[c] if c < m else m + s[c - m] if c < 2 * m else c for c in slots)

    orbits = {frozenset(space.encode(image(slots, s), 0)
                        for s in itertools.permutations(range(m)))
              for slots in itertools.product(range(N), repeat=n)}
    assert all(orbit & set(listed) == {min(orbit)} for orbit in orbits)
    assert len(listed) == len(orbits)


@pytest.mark.parametrize("n,N,count", [(3, 5, 63), (3, 6, 40), (4, 8, 240), (5, 10, 1664)])
def test_mode_orbit_column_counts(n, N, count):
    assert len(verify._mode_orbit_columns(SpaceSpec(N, n))) == count


def _v_weight(slots, m):
    """The V-weight of a column's slot contents: w_i adds eps_i, w_i*
    subtracts it and e adds nothing."""
    weight = [0] * m
    for c in slots:
        if c < 2 * m:
            weight[c % m] += 1 if c < m else -1
    return tuple(weight)


@pytest.mark.parametrize("n,N", [(n, N) for n in range(4) for N in range(3, 8)])
def test_weight_orbit_columns_keep_each_orbit_of_the_kept_weight(n, N):
    # Brute force: decode every vacuum column, keep the weight 0 ones (eps_j
    # when there are none), and take each of their orbits' smallest column.
    space = SpaceSpec(N, n)
    m = space.m
    weights = {space.encode(slots, 0): _v_weight(slots, m)
               for slots in itertools.product(range(N), repeat=n)}
    zero = (0,) * m
    units = {zero[:j] + (1,) + zero[j + 1:] for j in range(m)}
    target = {zero} if zero in weights.values() else units
    orbit_of = {}
    for slots in itertools.product(range(N), repeat=n):
        orbit = [space.encode(tuple(s[c] if c < m else m + s[c - m] if c < 2 * m else c
                                    for c in slots), 0)
                 for s in itertools.permutations(range(m))]
        orbit_of[space.encode(slots, 0)] = min(orbit)
    expected = sorted({orbit_of[col] for col, w in weights.items() if w in target})
    kept = verify._weight_orbit_columns(space)
    assert kept == expected
    assert all(weights[col] in target for col in kept)
    assert set(kept) <= set(verify._mode_orbit_columns(space))


@pytest.mark.parametrize("n,N,count", [
    *((3, N, c) for N, c in zip(range(3, 8), (7, 9, 7, 9, 7))),
    *((4, N, c) for N, c in zip(range(3, 10), (19, 18, 31, 18, 31, 18, 31))),
    (5, 10, 160)])
def test_weight_orbit_column_counts(n, N, count):
    assert len(verify._weight_orbit_columns(SpaceSpec(N, n))) == count


def _kept_rank(n, N, ceiling=None):
    space = SpaceSpec(N, n)
    kept = ColumnSet(space, verify._weight_orbit_columns(space))
    return linalg.rank_of_vectors(
        [realize_diagram(d, space, kept).flatten() for d in enumerate_basis(n)], ceiling=ceiling)


@pytest.mark.parametrize("n,N", [(n, N) for n in range(4) for N in range(3, 10)]
                         + [(4, 4), (4, 8)])
def test_kept_columns_are_injective_on_the_commutant(n, N):
    # The executable evidence for the argument in _realized_rank: the basis
    # spans the commutant, and its restriction to the kept columns keeps
    # the whole dimension (the ceiling is an upper bound, so reaching it is
    # exact), so an equivariant map that vanishes there is zero.
    ceiling = commutant_dimension(SpaceSpec(N, n))
    assert _kept_rank(n, N, ceiling) == ceiling


@pytest.mark.parametrize("n, rank, ceiling", [(2, 4, 6), (3, 9, 20)])
def test_kept_columns_fall_short_at_two(n, rank, ceiling):
    # Why N = 2 keeps every orbit column: there the kept ones lose rank.
    assert (_kept_rank(n, 2), commutant_dimension(SpaceSpec(2, n))) == (rank, ceiling)


def test_rank_falls_back_when_the_kept_columns_fall_short(monkeypatch):
    # Without its last two kept columns, (3, 4) reaches rank 64 of 70 there:
    # the one prime tried falls short, and the orbit columns give the rank.
    kept, rank_mod = verify._weight_orbit_columns, linalg._rank_mod
    primes = []

    def counted(vectors, p):
        primes.append(p)
        return rank_mod(vectors, p)

    monkeypatch.setattr(verify, "_weight_orbit_columns", lambda space: kept(space)[:-2])
    monkeypatch.setattr(linalg, "_rank_mod", counted)
    assert verify._realized_rank(enumerate_basis(3), SpaceSpec(4, 3)) == 70
    # One prime on the kept columns, one on the orbit columns.
    assert len(primes) == 2


def _no_kept_columns(space):
    raise AssertionError("built a kept column set")


@pytest.mark.parametrize("fault", ["none", "plus-top"])
def test_homomorphism_at_two_builds_no_kept_set(monkeypatch, fault):
    monkeypatch.setattr(verify, "multiply_diagrams", _PRODUCT_FAULTS[fault])
    monkeypatch.setattr(verify, "_weight_orbit_columns", _no_kept_columns)
    assert verify_homomorphism(3, 2).passed == (fault == "none")


def test_rank_at_two_builds_no_kept_set(monkeypatch):
    monkeypatch.setattr(verify, "_weight_orbit_columns", _no_kept_columns)
    assert verify_rank(3, 2).info["rank"] == 20
    assert verify_surjectivity(2, 2).passed


@pytest.mark.parametrize("mode", ["random", "exhaustive"])
@pytest.mark.parametrize("n,N", [(2, 4), (3, 5)])
def test_homomorphism_realizes_no_whole_matrix_and_no_column_twice(monkeypatch, n, N, mode):
    # At N >= 3 a passing check compares on the kept weight's orbit columns
    # alone: the mode-orbit columns are never listed.
    realize, kept_columns, building = (
        verify.realize_diagram, verify._weight_orbit_columns, verify.ColumnSet)
    listed = []  # the kept columns, listed once per check
    sets = []  # the column sets built, the kept set first
    on_kept = set()  # the top factors and terms realized on them
    built = defaultdict(set)  # each bottom factor's columns realized so far

    def listing(space):
        listed.append(kept_columns(space))
        return listed[-1]

    def building_once(space, indices):
        sets.append(building(space, indices))
        return sets[-1]

    def spy(d, space, columns=None):
        assert columns is not None, f"{d} realized without columns"
        if columns is sets[0]:
            on_kept.add(d)
        else:
            assert not built[d] & columns.indices, f"a column of {d} realized twice"
            built[d] |= columns.indices
        return realize(d, space, columns)

    def refused(space):
        raise AssertionError("listed the mode-orbit columns")

    monkeypatch.setattr(verify, "_weight_orbit_columns", listing)
    monkeypatch.setattr(verify, "_mode_orbit_columns", refused)
    monkeypatch.setattr(verify, "ColumnSet", building_once)
    monkeypatch.setattr(verify, "realize_diagram", spy)
    assert verify_homomorphism(n, N, mode, samples=30, seed=3).passed
    assert len(listed) == 1 and on_kept and built
    # The kept set is built once, and one set for each bottom factor.
    assert sets[0].indices == set(listed[0]) and len(sets) == 1 + len(built)


def test_equivariance_failure_names_first_differing_entry(monkeypatch):
    # Doubling the action on the spin factor alone breaks the commutation.
    act_so = verify.act_so
    monkeypatch.setattr(verify, "act_so", lambda pair, space: (
        act_so(pair, space).scale(RootTwoNumber(2)) if space.n == 0 else act_so(pair, space)))
    report = verify_equivariance(4, "invariant")
    assert not report.passed
    # The immersion applies after the action on the spin factor: the
    # doubled side is the left one.
    ce = report.counterexample
    # The first so(4) basis pair, w1 ^ w2, already moves the spin factor.
    assert (ce["symbol"], ce["n"], ce["positions"]) == ("(0, 1)", 0, "(1, 2)")
    entry = ce["entry"]
    assert 0 <= entry["row"] < 4 * 4 * 4 and 0 <= entry["col"] < 4
    left, right = (RootTwoNumber.from_json(entry[k]) for k in ("lhs", "rhs"))
    assert right and left == right * 2


def test_homomorphism_rejects_unknown_mode():
    with pytest.raises(ValueError):
        verify_homomorphism(1, 3, mode="sometimes")


def test_equivariance_all_kinds_at_three():
    for kind in ("projection", "injection", "immersion", "contraction",
                 "swap", "invariant"):
        assert verify_equivariance(3, kind).passed
    with pytest.raises(ValueError, match="unknown map kind 'bogus'"):
        verify_equivariance(3, "bogus")


def test_circuit_scaling_representatives():
    assert verify_circuit_scaling(3, "IV", 0).passed
    assert verify_circuit_scaling(5, "II", 1).passed
    assert verify_circuit_scaling(4, "I", 1).passed
    assert verify_circuit_scaling(3, "V", 2).passed


def test_circuit_scaling_rejects_bad_plan():
    with pytest.raises(ValueError):
        verify_circuit_scaling(3, "I", 0)
    with pytest.raises(ValueError):
        verify_circuit_scaling(3, "VI", 1)
    with pytest.raises(ValueError):
        verify_circuit_scaling(3, "IV", -1)


def test_circuit_scaling_bound_checked_before_work():
    # The plans contract as they go: at most three open slots (four for
    # type I), so N = 5 peaks at 5^3 * 4 = 500 and N = 8 at 8^4 * 16.
    with pytest.raises(ResourceBoundError, match="total dimension 500 exceeds"):
        verify_circuit_scaling(5, "II", 2, bound=499)
    assert verify_circuit_scaling(5, "II", 2, bound=500).passed
    with pytest.raises(ResourceBoundError, match="total dimension 65536 exceeds"):
        verify_circuit_scaling(8, "I", 2)


def test_circuit_plan_is_bounded_before_it_is_built():
    # A 10^5-arc plan is walked for its width, not stored, before the bound.
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBoundError):
            verify_circuit_scaling(3, "IV", 10**5, bound=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bad_circuit_plan_fails_before_any_map(monkeypatch):
    def no_map(*args):
        raise AssertionError("a map was built")

    blocks = {kind: (no_map, gained) for kind, (_, gained) in verify.BLOCKS.items()}
    monkeypatch.setattr(verify, "BLOCKS", blocks)
    monkeypatch.setattr(verify.LinearMap, "identity", no_map)
    for circuit_type, arcs, message in (("I", 0, "type I needs at least one arc"),
                                        ("VI", 1, "unknown circuit type 'VI'"),
                                        ("IV", -1, "arcs must be nonnegative")):
        with pytest.raises(ValueError, match=message):
            verify_circuit_scaling(3, circuit_type, arcs)
    with pytest.raises(AssertionError, match="a map was built"):
        verify_circuit_scaling(3, "IV", 0)


# The open slots at the widest step of each plan: the opening and closing
# alone for no links, and one link (two slots opened above the one or two
# the opening leaves) otherwise.
@pytest.mark.parametrize("circuit_type, arcs, peak", [
    ("I", 1, 2), ("I", 2, 4), ("I", 4, 4),
    ("II", 0, 2), ("II", 1, 3), ("II", 4, 3),
    ("III", 0, 2), ("III", 1, 3), ("III", 4, 3),
    ("IV", 0, 1), ("IV", 1, 3), ("IV", 4, 3),
    ("V", 0, 1), ("V", 1, 3), ("V", 4, 3),
])
def test_circuit_peak_width_meets_the_bound(circuit_type, arcs, peak):
    dim = SpaceSpec(3, peak).total_dim
    with pytest.raises(ResourceBoundError, match=f"total dimension {dim} exceeds bound"):
        verify_circuit_scaling(3, circuit_type, arcs, bound=dim - 1)
    assert verify_circuit_scaling(3, circuit_type, arcs, bound=dim).passed


@pytest.mark.parametrize("N", range(2, 7))
def test_circuit_scaling_at_three_and_four_arcs(N):
    bound = SpaceSpec(N, 4).total_dim  # type I's peak, the widest
    for circuit_type in verify._CIRCUITS:
        for arcs in (3, 4):
            assert verify_circuit_scaling(N, circuit_type, arcs, bound).passed


def test_clifford_relation():
    assert verify_clifford_relation(3).passed


def test_rank_asserted_range():
    report = verify_rank(1, 3)
    assert report.passed and report.info == {
        "basis_size": 2, "rank": 2, "asserted": True,
    }


def test_rank_informational_below_stability():
    report = verify_rank(2, 2)
    assert report.passed
    assert report.info["asserted"] is False
    assert report.info["rank"] < report.info["basis_size"]


@pytest.mark.parametrize("n, N, rank", [(3, 3, 51), (3, 4, 70), (3, 5, 75)])
def test_deficient_ranks_below_stability(n, N, rank):
    report = verify_rank(n, N)
    assert report.passed and report.info == {
        "basis_size": 76, "rank": rank, "asserted": False,
    }


@pytest.mark.parametrize("N", [6, 7])
def test_full_rank_at_n3(N):
    report = verify_rank(3, N)
    assert report.passed and report.info == {
        "basis_size": 76, "rank": 76, "asserted": True,
    }


@pytest.mark.parametrize("N", [8, 9])
def test_full_rank_at_n4(N):
    report = verify_rank(4, N, bound=SpaceSpec(N, 4).total_dim)
    assert report.passed and report.info == {
        "basis_size": 764, "rank": 764, "asserted": True,
    }


def test_isomorphism_at_n4():
    report = verify_surjectivity(4, 8, bound=SpaceSpec(8, 4).total_dim)
    assert report.passed and report.info == {
        "basis_size": 764, "commutant_dim": 764, "rank": 764,
    }


def _top_row_below(lower: tuple, upper: tuple) -> bool:
    """(A', I') <= (A, I): A' inside A, I' inside I and the ends of A - A'."""
    (arcs, isolated), (up_arcs, up_isolated) = lower, upper
    dropped = set(up_arcs) - set(arcs)
    return set(arcs) <= set(up_arcs) and set(isolated) <= set(up_isolated).union(*dropped)


@pytest.mark.parametrize("n, N", [(1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 6), (3, 7),
                                  (3, 8), (4, 8)])
def test_row_columns_see_only_top_rows_below_their_own(n, N):
    # The property the certificate rests on: on the one column of a top row
    # (A, I), a diagram vanishes unless its top row is <= (A, I), and the
    # group of (A, I) itself does not vanish.
    space = SpaceSpec(N, n)
    basis = enumerate_basis(n)
    rows = {(d.top_arcs, d.top_isolated) for d in basis}
    for row in rows:
        column = verify._row_column(*row, space)
        assert column % space.fock_dim == 0
        one = ColumnSet(space, [column])
        for d in basis:
            own = (d.top_arcs, d.top_isolated)
            nnz = realize_diagram(d, space, one).nnz()
            if not _top_row_below(own, row):
                assert nnz == 0, (d, row)
            elif own == row:
                assert nnz > 0, (d, row)


@pytest.mark.parametrize("n, N, certified", [(2, 4, True), (3, 6, True), (3, 4, False),
                                             (2, 2, False)])
def test_rank_builds_each_column_set_once(monkeypatch, n, N, certified):
    # The certificate builds one set per top-row group, each of one column.
    # The elimination fallback builds one set: the kept weight's orbit
    # columns at N >= 3, where they reach the rank, the mode-orbit columns at
    # N = 2.
    space, basis = SpaceSpec(N, n), enumerate_basis(n)
    building, realize = verify.ColumnSet, verify.realize_diagram
    sets, used = [], set()

    def building_once(space, indices):
        sets.append(building(space, indices))
        return sets[-1]

    def spy(d, space, columns=None):
        used.add(id(columns))
        return realize(d, space, columns)

    monkeypatch.setattr(verify, "ColumnSet", building_once)
    monkeypatch.setattr(verify, "realize_diagram", spy)
    assert verify._realized_rank(basis, space) == commutant_dimension(space)
    assert used == {id(s) for s in sets}
    if certified:
        groups = {(d.top_arcs, d.top_isolated) for d in basis}
        assert len(sets) == len(groups) and all(len(s.indices) == 1 for s in sets)
    else:
        assert len(sets) == 1
        listed = verify._weight_orbit_columns if N >= 3 else verify._mode_orbit_columns
        assert sorted(sets[0].indices) == listed(space)


def test_blocks_certify_independent_realizations():
    for n, N in [(0, 2), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 6),
                 (3, 7), (3, 8), (4, 8), (4, 9)]:
        assert verify._blocks_certify(enumerate_basis(n), SpaceSpec(N, n)), (n, N)


def test_each_owns_a_row():
    r2 = RootTwoNumber
    one = LinearMap.identity(2)
    swap = LinearMap(2, 2, {0: {1: r2(1)}, 1: {0: r2(1)}})
    first = LinearMap(2, 3, {0: {0: r2(1), 2: r2(1, 1)}})
    second = LinearMap(2, 3, {1: {1: r2(-2)}, 0: {2: r2(3)}})
    # Rows 0 and 1 are private; row 2, which both touch, is not needed.
    assert verify._each_owns_a_row([first, second])
    assert verify._each_owns_a_row([first])
    # A zero map has no row.
    assert not verify._each_owns_a_row([first, LinearMap.zero(2, 3)])
    # Equal supports, even of independent maps, leave no row private.
    assert one.rows() == swap.rows() and not verify._each_owns_a_row([one, swap])
    assert not verify._each_owns_a_row([first, first.scale(r2(0, 1))])


@pytest.mark.parametrize("n, N", [(4, 8), (3, 7)])
def test_full_rank_needs_no_prime(monkeypatch, n, N):
    # Private rows certify full rank: no elimination, modulo any prime, runs.
    def refused(*args, **kwargs):
        raise AssertionError("eliminated on the full-rank path")

    monkeypatch.setattr(linalg, "_rank_mod", refused)
    monkeypatch.setattr(verify, "rank_of_vectors", refused)
    size = len(enumerate_basis(n))
    assert verify_rank(n, N, bound=SpaceSpec(N, n).total_dim).info["rank"] == size
    assert verify_surjectivity(n, N, bound=SpaceSpec(N, n).total_dim).passed


def test_blocks_certify_refuses_a_split_top_row():
    # Each half of a split group owns its rows, but the certificate needs a
    # whole group: a top row that recurs after its run fails.
    basis, space = enumerate_basis(2), SpaceSpec(4, 2)
    assert (basis[0].top_arcs, basis[0].top_isolated) == (basis[1].top_arcs,
                                                          basis[1].top_isolated)
    assert verify._blocks_certify(basis, space)
    assert not verify._blocks_certify(basis[1:] + basis[:1], space)


def test_basis_checks_walk_the_view(monkeypatch):
    # rank and surjectivity (the certificate and the elimination fallback),
    # involution and enumerate --count-only never list the basis.
    def refused(n):
        raise AssertionError("listed the basis")

    monkeypatch.setattr(verify, "enumerate_basis", refused)
    monkeypatch.setattr(cli, "enumerate_basis", refused, raising=False)
    assert verify_rank(3, 6).passed
    assert verify_rank(3, 5).info["rank"] == 75
    assert verify_surjectivity(2, 4).passed and verify_surjectivity(2, 3).passed
    assert verify_involution_compatibility(3).passed
    stream = io.StringIO()
    assert cli.run_command(["enumerate", "--n", "4", "--count-only"], stream) == 0
    assert json.loads(stream.getvalue()) == {"n": 4, "count": 764}


def test_rank_falls_back_to_elimination_when_a_block_fails(monkeypatch):
    basis = enumerate_basis(2)
    doubled = basis + [basis[3]]
    assert not verify._blocks_certify(doubled, SpaceSpec(6, 2))
    calls = Counter()
    exact = verify.rank_of_vectors

    def counted(vectors, *, ceiling):
        calls["rank_of_vectors", ceiling] += 1
        return exact(vectors, ceiling=ceiling)

    monkeypatch.setattr(verify, "BasisView", lambda n: doubled)
    monkeypatch.setattr(verify, "rank_of_vectors", counted)
    report = verify_rank(2, 6)
    # The elimination runs once, under the commutant dimension of (2, 6).
    assert calls == {("rank_of_vectors", 10): 1}
    assert not report.passed
    assert report.info == {"basis_size": 11, "rank": 10, "asserted": True}
    assert report.counterexample == {"rank": 10, "basis_size": 11}


def test_rank_elimination_stops_at_the_commutant_dimension(monkeypatch):
    # (3, 5) has rank 75 of 76: one prime reaches the ceiling, where the
    # Hadamard bound alone needs ten.
    calls = Counter()
    rank_mod = linalg._rank_mod

    def counted(vectors, p):
        calls["_rank_mod"] += 1
        return rank_mod(vectors, p)

    monkeypatch.setattr(linalg, "_rank_mod", counted)
    assert verify_rank(3, 5).info["rank"] == 75
    assert calls == {"_rank_mod": 1}


@pytest.mark.parametrize("n", range(4))
def test_vacuum_columns_keep_the_rank(n):
    # V^(x)n (x) |0> generates V^(x)n (x) Delta under Pin(N), and the mode
    # permutations permute its columns up to scalars: the rank on one column
    # per orbit is found without a ceiling, the whole one under the true
    # ceiling.
    basis = enumerate_basis(n)
    for N in range(2, 6):
        space = SpaceSpec(N, n)
        whole = [realize_diagram(d, space).flatten() for d in basis]
        orbits = ColumnSet(space, verify._mode_orbit_columns(space))
        restricted = [realize_diagram(d, space, orbits).flatten() for d in basis]
        assert linalg.rank_of_vectors(restricted) == linalg.rank_of_vectors(
            whole, ceiling=commutant_dimension(space)), (n, N)


def test_rank_path_builds_no_root_two_number(monkeypatch):
    def refuse(self, a=0, b=0):
        raise AssertionError("a RootTwoNumber was built")

    monkeypatch.setattr(RootTwoNumber, "__init__", refuse)
    assert verify_rank(3, 2).info["rank"] == 20
    assert verify_rank(2, 6).info["rank"] == 10


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("N", range(2, 8))
def test_surjectivity(n, N):
    report = verify_surjectivity(n, N)
    size = len(enumerate_basis(n))
    assert report.passed, report.counterexample
    assert report.info["basis_size"] == size
    assert report.info["rank"] == report.info["commutant_dim"]
    if N >= 2 * n:
        assert report.info["rank"] == size


@pytest.mark.parametrize("n, N, offset, info", [
    # A ceiling above or below the rank: the Hadamard bound finds the rank 6.
    (2, 2, 1, {"basis_size": 10, "commutant_dim": 7, "rank": 6}),
    (2, 2, -1, {"basis_size": 10, "commutant_dim": 5, "rank": 6}),
    # Full rank certified by the blocks, but not the commutant dimension.
    (2, 4, 1, {"basis_size": 10, "commutant_dim": 11, "rank": 10}),
])
def test_surjectivity_failure_names_both_numbers(monkeypatch, n, N, offset, info):
    true_dim = verify.commutant_dimension
    monkeypatch.setattr(verify, "commutant_dimension",
                        lambda space: true_dim(space) + offset)
    report = verify_surjectivity(n, N)
    assert not report.passed
    assert report.info == report.counterexample == info


def test_surjectivity_bound_checked_before_any_realization(monkeypatch):
    monkeypatch.setattr(verify, "realize_diagram", None)
    monkeypatch.setattr(verify, "BasisView", None)
    with pytest.raises(ResourceBoundError, match="total dimension 500 exceeds bound 499"):
        verify_surjectivity(3, 5, bound=499)


@pytest.mark.parametrize("map_kind", [
    "projection", "injection", "immersion", "contraction", "swap", "invariant"])
def test_equivariance_builds_each_action_once(monkeypatch, map_kind):
    calls = Counter()
    act_so, act_gamma = verify.act_so, verify.act_gamma

    def counted_so(pair, space):
        calls[pair, space] += 1
        return act_so(pair, space)

    def counted_gamma(space):
        calls["gamma", space] += 1
        return act_gamma(space)

    monkeypatch.setattr(verify, "act_so", counted_so)
    monkeypatch.setattr(verify, "act_gamma", counted_gamma)
    assert verify_equivariance(5, map_kind).passed
    assert calls and max(calls.values()) == 1


def test_associativity_symbolic():
    assert verify_associativity(2, samples=25, seed=3).passed


def test_filtration():
    assert verify_filtration(2).passed


def test_modmult_runs_one_reference_product_per_middle_datum(monkeypatch):
    basis = enumerate_basis(3)
    middles = {cellular._middle_rows(a, b) for a in basis for b in basis
               if a.through_count == b.through_count}
    calls = Counter()
    maximal_term = cellular._maximal_term

    def counted(*args):
        calls["_maximal_term"] += 1
        return maximal_term(*args)

    monkeypatch.setattr(cellular, "_maximal_term", counted)
    assert verify_modmult(3).passed
    assert calls["_maximal_term"] == len(middles) == 62
    # The prediction itself keeps no table: each call runs its reference product.
    calls.clear()
    for _ in range(3):
        cellular.predicted_leading_term(basis[5], basis[5])
    assert calls["_maximal_term"] == 3


def test_modmult_and_cell_checks():
    assert verify_modmult(2).passed
    assert verify_cell_symmetry(2).passed
    assert verify_involution_compatibility(2).passed


ROW_CHECKS = [name for name, check in verify.CHECKS.items()
              if "n" in inspect.signature(check).parameters]


def test_row_checks_are_the_nine_that_take_n():
    assert len(ROW_CHECKS) == 9 and "cell-symmetry" in ROW_CHECKS


@pytest.mark.parametrize("name", ROW_CHECKS)
def test_every_check_refuses_a_negative_n(name):
    # A check with no rows to sweep must not pass vacuously.
    check = verify.CHECKS[name]
    args = {"n": -1, "N": 4} if "N" in inspect.signature(check).parameters else {"n": -1}
    with pytest.raises(ValueError, match="n must be nonnegative"):
        check(**args)


def test_reports_are_deterministic():
    a = verify_homomorphism(2, 3, mode="random", samples=5, seed=11)
    b = verify_homomorphism(2, 3, mode="random", samples=5, seed=11)
    assert a.to_json() == b.to_json()


# Every RootTwoNumber operation that computes a new number.
_ROOT_TWO_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                        "__rmul__", "__neg__")
_MATRIX_CHECKS = [
    (verify_homomorphism, (2, 3)), (verify_homomorphism, (2, 4)),
    *((verify_equivariance, (3, kind)) for kind in verify._EQUIVARIANT_FAMILIES),
    *((verify_circuit_scaling, (3, kind, 2)) for kind in verify._CIRCUITS),
    (verify_clifford_relation, (3,)), (verify_clifford_relation, (4,)),
    (verify_rank, (2, 3)), (verify_rank, (2, 4)), (verify_surjectivity, (2, 3)),
]


@pytest.mark.parametrize("check, args", _MATRIX_CHECKS,
                         ids=[f"{c.__name__}{a}" for c, a in _MATRIX_CHECKS])
def test_matrix_checks_compute_on_integer_pairs_only(monkeypatch, check, args):
    # The matrices are built, combined, composed and compared as integer
    # pairs; RootTwoNumber only carries values across the boundary.
    def refuse(*_):
        raise AssertionError("RootTwoNumber arithmetic in a matrix check")

    for name in _ROOT_TWO_ARITHMETIC:
        monkeypatch.setattr(RootTwoNumber, name, refuse)
    assert check(*args).passed
