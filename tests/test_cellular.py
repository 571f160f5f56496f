import hashlib
import math
import random
from collections import Counter
from typing import Optional, Sequence

import pytest

from conftest import DEMO_B, DEMO_BOTTOM, DEMO_TOP, assert_validated
from spinbrauer import cellular, multiply
from spinbrauer.cellular import (
    CellFormError,
    PhiValue,
    irreducible_indices,
    is_regular,
    modmult_check,
    partitions_of,
    phi_ell,
    predicted_leading_term,
)
from spinbrauer.diagrams import (
    Block,
    CellTriple,
    DiagramError,
    Partition,
    SpinDiagram,
    cell_decode,
    cell_encode,
    enumerate_S,
    enumerate_basis,
    enumerate_size_le2_partitions,
    identity_diagram,
    singletons,
)
from spinbrauer.multiply import default_strategy, multiply_diagrams
from spinbrauer.scalars import DeltaPolynomial

D = DeltaPolynomial.delta


def blocks(*bs):
    return tuple(sorted(tuple(sorted(b)) for b in bs))


def test_three_vertex_partitions():
    assert set(enumerate_size_le2_partitions(3)) == {
        blocks((1, 2), (3,)),
        blocks((1, 3), (2,)),
        blocks((2, 3), (1,)),
        blocks((1,), (2,), (3,)),
    }


def test_partition_counts_are_involution_numbers():
    counts = [len(enumerate_size_le2_partitions(n)) for n in range(1, 6)]
    assert counts == [1, 2, 4, 10, 26]


def test_partitions_reject_negative_n():
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_size_le2_partitions(-1)


def test_partitions_reject_n_above_the_bound():
    with pytest.raises(ValueError, match="n=13 exceeds bound 12"):
        enumerate_size_le2_partitions(13)


def test_singleton_counter():
    p = blocks((1, 2), (3,), (4,))
    assert len(singletons(p)) == 2 and singletons(p) == ((3,), (4,))


def test_pair_subset_counts():
    assert len(enumerate_S(2, 1)) == 2
    assert len(enumerate_S(2, 2)) == 1
    assert len(enumerate_S(2, 0)) == 2


# --- the literal pairing rules -----------------------------------------------
#
# The zero pattern and the permutation of the pairing form, derived from the
# partitions alone. phi_ell reads both off a reference product instead; these
# rules are the reference it is compared against where no closed circuit
# interleaves its labels.


def join_partitions(x: Partition, y: Partition) -> tuple[Block, ...]:
    """Finest common coarsening: merge all blocks sharing elements."""
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for part in (x, y):
        for block in part:
            for v in block:
                parent.setdefault(v, v)
            for v in block[1:]:
                union(block[0], v)
    groups: dict[int, list[int]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def test_join_merges_overlapping_blocks():
    mu = blocks((1, 3), (2,), (4, 5))
    nu = blocks((1, 2), (3,), (4,), (5,))
    assert join_partitions(mu, nu) == blocks((1, 2, 3), (4, 5))


def _beta_pairs(sides: Sequence[str]) -> tuple[list[tuple[int, int]], bool]:
    """Cancel adjacent (T, S) side pairs in a gap-free word.

    sides[p] is "S", "T" or "-" (an index belonging to neither set; such
    entries persist and block adjacency). Returns (removed pairs as 0-based
    positions (s_pos, t_pos), reached_sorted_order).
    """
    alive = list(range(len(sides)))
    pairs: list[tuple[int, int]] = []
    while True:
        live_sides = [sides[p] for p in alive]
        s_positions = [k for k, s in enumerate(live_sides) if s == "S"]
        t_positions = [k for k, s in enumerate(live_sides) if s == "T"]
        if not s_positions or not t_positions or max(s_positions) < min(t_positions):
            return pairs, True
        hit = None
        for k in range(len(alive) - 1):
            if live_sides[k] == "T" and live_sides[k + 1] == "S":
                hit = k
                break
        if hit is None:
            return pairs, False
        pairs.append((alive[hit + 1], alive[hit]))
        del alive[hit + 1]
        del alive[hit]


def beta(gamma_s: Sequence[int], gamma_t: Sequence[int],
         length: Optional[int] = None) -> Optional[int]:
    """Minimal count of inductively removed adjacent (i+1, i) index pairs.

    gamma_s and gamma_t are disjoint 1-based index sets into a common
    sequence of the given length (default: the largest index). Indices
    belonging to neither set keep their place during reindexing; if the
    removal process cannot reach a state where every gamma_s index precedes
    every gamma_t index, the statistic is undefined and None is returned.
    """
    ss, tt = set(gamma_s), set(gamma_t)
    if ss & tt:
        raise ValueError("index sets must be disjoint")
    top = max([0, *ss, *tt]) if length is None else length
    sides = ["S" if i in ss else "T" if i in tt else "-" for i in range(1, top + 1)]
    pairs, ok = _beta_pairs(sides)
    return len(pairs) if ok else None


def _component_of(x: Partition, y: Partition) -> dict[int, int]:
    """Each vertex's component index in the join of x and y."""
    return {v: ci for ci, block in enumerate(join_partitions(x, y)) for v in block}


def literal_crossings(xS: tuple[Partition, Sequence[Block]],
                      yT: tuple[Partition, Sequence[Block]]) -> int:
    """The S- and T-origins that share a component of the join."""
    comp_of = _component_of(xS[0], yT[0])
    return sum(1 for b in xS[1] for b2 in yT[1] if comp_of[b[0]] == comp_of[b2[0]])


def literal_pairing_rules(
    ell: int,
    xS: tuple[Partition, Sequence[Block]],
    yT: tuple[Partition, Sequence[Block]],
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Literal zero test and permutation assembly; None when the form vanishes.

    Returns (|Gamma_S|, sigma). Zero cases, checked in order: (1) two
    S-origins or two T-origins share a join component; (2) unequal
    leftover-singleton sets attached to S and T; (3) crossings plus attached
    singletons fail to account for every through string; (4) the attached
    singletons cannot be fully cancelled across rows.
    """
    x, S = xS
    y, T = yT
    if len(S) != ell or len(T) != ell:
        raise ValueError(f"S and T must have size ell={ell}")
    comp_of = _component_of(x, y)
    s_comps = [comp_of[b[0]] for b in S]
    t_comps = [comp_of[b[0]] for b in T]
    if len(set(s_comps)) != ell or len(set(t_comps)) != ell:  # condition (1)
        return None

    gammas = [("x", b[0]) for b in singletons(x) if b not in set(S)]
    gammas += [("y", b[0]) for b in singletons(y) if b not in set(T)]
    s_comp_set, t_comp_set = set(s_comps), set(t_comps)
    gamma_comps = [comp_of[v] for _, v in gammas]
    gamma_S = [k for k, c in enumerate(gamma_comps) if c in s_comp_set]
    gamma_T = [k for k, c in enumerate(gamma_comps) if c in t_comp_set]
    if len(gamma_S) != len(gamma_T):  # condition (2)
        return None

    crossings = [
        (i, j) for i in range(ell) for j in range(ell) if s_comps[i] == t_comps[j]
    ]
    if len(crossings) + len(gamma_S) != ell:  # condition (3)
        return None

    # Indices consumed by closed circuits vanish from the order before any
    # transposition happens, so the cancellation runs on the surviving
    # gamma indices only.
    union = sorted(gamma_S + gamma_T)
    in_s = set(gamma_S)
    sides = ["S" if k in in_s else "T" for k in union]
    pairs, ok = _beta_pairs(sides)
    if not ok or len(pairs) != len(gamma_S):  # condition (4)
        return None

    comp_to_s = {c: i for i, c in enumerate(s_comps)}
    comp_to_t = {c: j for j, c in enumerate(t_comps)}
    perm = dict(crossings)
    for s_pos, t_pos in pairs:
        i = comp_to_s[gamma_comps[union[s_pos]]]
        if i in perm:
            raise RuntimeError(f"S-origin {i} assigned twice")
        perm[i] = comp_to_t[gamma_comps[union[t_pos]]]
    if sorted(perm) != list(range(ell)) or sorted(perm.values()) != list(range(ell)):
        raise RuntimeError(f"assembled {perm} is not a permutation of {ell} strings")
    return len(gamma_S), tuple(perm[i] for i in range(ell))


def test_beta_worked_example():
    assert beta((1, 2, 5, 6), (3, 4, 7)) == 2


def test_beta_empty():
    assert beta((), ()) == 0


def test_beta_single_removable_pair():
    assert beta((2,), (1,)) == 1


def test_beta_sorted_sets_need_no_removal():
    assert beta((1, 2), (3, 5)) == 0


def test_beta_gap_blocks_removal():
    assert beta((3,), (1,), length=3) is None


def test_beta_rejects_overlap():
    with pytest.raises(ValueError):
        beta((1,), (1,))


def test_phi_three_string_example():
    x = blocks((1,), (2,), (3,), (4,), (5,), (6,), (7, 8))
    S = ((1,), (4,), (6,))
    y = blocks((1, 3), (2,), (4,), (5,), (6, 7), (8,))
    T = ((2,), (5,), (8,))
    value = phi_ell(3, (x, S), (y, T))
    assert value == PhiValue(DeltaPolynomial.one(), 2, (0, 1, 2))
    assert value.coefficient() == DeltaPolynomial.constant(4)
    assert value.delta_power == 0


def test_phi_single_cross_transposition():
    # Derived from the product: the maximal part is 2 times the through
    # diagram, so the form is 2 * id rather than zero.
    x = blocks((1,), (2,))
    y = blocks((1,), (2,))
    value = phi_ell(1, (x, ((1,),)), (y, ((2,),)))
    assert value == PhiValue(DeltaPolynomial.one(), 1, (0,))


def test_phi_zero_when_order_cannot_be_fixed():
    x = blocks((1,), (2,), (3,))
    y = blocks((1, 2), (3,))
    assert phi_ell(1, (x, ((1,),)), (y, ((3,),))) is None


def test_phi_self_pairing_structure():
    # Self-pairing never vanishes: identity permutation, no transposition
    # factor, and a pure delta power whenever no leftover singletons remain
    # (aligned leftover singletons form crossing circuits, which correct the
    # delta power).
    for n in (1, 2, 3):
        for ell in range(n + 1):
            for x, S in enumerate_S(n, ell):
                value = phi_ell(ell, (x, S), (x, S))
                assert value is not None
                assert value.two_power == 0
                assert value.perm == tuple(range(ell))
                arcs = len(x) - len(singletons(x))
                if len(singletons(x)) == ell:
                    assert value.circuit_factor == D(arcs)
                else:
                    assert value.circuit_factor.eval_at(1) == 1
                    assert value.circuit_factor.degree == arcs + (len(singletons(x)) - ell)


def test_phi_interleaved_circuits_pick_up_corrections():
    x = blocks((1,), (2,))
    value = phi_ell(0, (x, ()), (x, ()))
    assert value.circuit_factor == 2 * D(1) - D(2)
    assert value.delta_power is None


def test_phi_size_validation():
    with pytest.raises(ValueError):
        phi_ell(1, (blocks((1,)), ()), (blocks((1,)), ()))


@pytest.mark.parametrize("xS, yT, message", [
    ((((1, 2, 3),), ()), (((1, 2, 3),), ()), r"bottom vertices \[1, 2, 3\] not covered"),
    ((((1,), (2,)), ((3,),)), (((1,), (2,)), ((1,),)), r"top vertex 3 outside 1\.\.2"),
    ((((1,), (1,)), ()), (((1,), (2,)), ()), "bottom vertex 1 used twice"),
])
def test_phi_validates_its_partitions(xS, yT, message):
    # The partitions are caller input: the reference factors built from
    # them go through the checking constructor.
    with pytest.raises(DiagramError, match=message):
        phi_ell(len(xS[1]), xS, yT)


def test_literal_rules_match_extraction_at_small_size():
    for n in (1, 2):
        for ell in range(n + 1):
            vectors = enumerate_S(n, ell)
            for v1 in vectors:
                for v2 in vectors:
                    literal = literal_pairing_rules(ell, v1, v2)
                    value = phi_ell(ell, v1, v2)
                    assert (literal is None) == (value is None)
                    if literal is not None:
                        two, sigma = literal
                        assert value.two_power == two
                        assert value.perm == sigma


def test_phi_value_not_single_permutation_raises():
    x = blocks((1,), (2,), (3,), (4,))
    S = ((2,), (4,))
    T = ((1,), (3,))
    with pytest.raises(CellFormError):
        phi_ell(2, (x, S), (x, T))


def test_tau_symmetry_small():
    for n in (1, 2):
        for ell in range(n + 1):
            vectors = enumerate_S(n, ell)
            for v1 in vectors:
                for v2 in vectors:
                    a = phi_ell(ell, v1, v2)
                    b = phi_ell(ell, v2, v1)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.inverted() == b


# n -> (pairs, CellFormError outcomes, SHA-256 of the outcomes) of phi_ell
# over enumerate_S(n, ell)^2, ell = 0..n.
_PHI_DIGESTS = {
    2: (9, 0, "9af765ff255399038370882da3fedac26825ff4274add8f7bc07f92aba9387a3"),
    3: (62, 0, "91890e07d08db3775e71df89185c536626d4c7935f3ace6261fd79a3d01a44dc"),
    4: (517, 6, "9a1ed375a6733d203f442bd6ce340d0b9bd60a68106c1faa931745f39ba7a119"),
}


@pytest.mark.parametrize("n", sorted(_PHI_DIGESTS))
def test_phi_values_are_pinned(n):
    # Each value as (circuit factor, power of two, permutation), None, or
    # "CellFormError"; the literal rules are compared at n <= 2 only.
    outcomes = []
    for ell in range(n + 1):
        vectors = enumerate_S(n, ell)
        for v1 in vectors:
            for v2 in vectors:
                value = _outcome(phi_ell, ell, v1, v2)
                if value is CellFormError:
                    outcomes.append("CellFormError")
                else:
                    outcomes.append(None if value is None else (
                        value.circuit_factor.to_pairs(), value.two_power, value.perm))
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert (len(outcomes), outcomes.count("CellFormError"), digest) == _PHI_DIGESTS[n]


def test_modmult_identity_pair():
    assert modmult_check(identity_diagram(2), identity_diagram(2))


def test_modmult_demo_pair():
    assert DEMO_TOP.through_count == DEMO_BOTTOM.through_count == 2
    assert predicted_leading_term(DEMO_TOP, DEMO_BOTTOM) == (DEMO_B, 2 * D(1))
    assert modmult_check(DEMO_TOP, DEMO_BOTTOM)


def _outcome(f, *args):
    """f(*args), or CellFormError when it raises that."""
    try:
        return f(*args)
    except CellFormError:
        return CellFormError


def _phi_prediction(top, bottom):
    """The leading term by its defining formula: phi_ell of the middle rows,
    carried to the outer rows through sigma_1, then the pairing's
    permutation, then sigma_2."""
    ell, t1 = cell_encode(top)
    _, t2 = cell_encode(bottom)
    value = phi_ell(ell, (t1.y, t1.T), (t2.x, t2.S))
    if value is None:
        return None
    sigma = tuple(t2.sigma[value.perm[s]] for s in t1.sigma)
    return (cell_decode(ell, CellTriple(t1.x, t1.S, t2.y, t2.T, sigma)),
            value.coefficient())


def _check_prediction(top, bottom):
    """predicted_leading_term agrees with the formula, zero and raising
    alike; returns its outcome."""
    got = _outcome(predicted_leading_term, top, bottom)
    assert got == _outcome(_phi_prediction, top, bottom)
    if isinstance(got, tuple):
        assert_validated(got[0])
    return got


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_prediction_matches_the_pairing_formula(n):
    basis = enumerate_basis(n)
    for top in basis:
        for bottom in basis:
            if top.through_count == bottom.through_count:
                _check_prediction(top, bottom)


def test_prediction_matches_the_pairing_formula_at_four():
    # One pair for each ell and middle data: top's bottom row (x, S) meets
    # bottom's top row (y, T).
    outcomes = Counter()
    for ell in range(5):
        rows = enumerate_S(4, ell)
        ident = tuple(range(ell))
        for x, S in rows:
            top = cell_decode(ell, CellTriple(x, S, x, S, ident))
            for y, T in rows:
                bottom = cell_decode(ell, CellTriple(y, T, y, T, ident))
                got = _check_prediction(top, bottom)
                outcomes[got if got in (None, CellFormError) else "term"] += 1
    assert sum(outcomes.values()) == 517
    assert outcomes[CellFormError] == 6


def _check_floor(ell, top, bottom):
    """The normal form with floor ell keeps exactly the terms of the
    unpruned product with ell or more through strings, and _maximal_term
    raises where that part holds several terms."""
    closed, state = multiply._stitch(top, bottom)
    pruned = multiply._normal_form(top.n, state, {closed: 1}, default_strategy, ell)
    leading = {d: c for d, c in multiply_diagrams(top, bottom).terms.items()
               if d.through_count >= ell}
    assert pruned == leading, (top, bottom)
    expected = (CellFormError if len(leading) > 1
                else next(iter(leading.items()), None))
    assert _outcome(cellular._maximal_term, ell, top, bottom) == expected
    return expected


def _reference_factors(ell, xS, yT):
    """The reference product's factors for the middle rows (x, S), (y, T)."""
    top = cell_decode(ell, CellTriple(xS[0], xS[1], xS[0], xS[1], tuple(range(ell))))
    bottom = cell_decode(ell, CellTriple(yT[0], yT[1], yT[0], yT[1], tuple(range(ell))))
    rows = cellular._middle_rows(top, bottom)
    return [SpinDiagram(*fields) for fields in cellular._reference_fields(*rows)]


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_floor_keeps_the_leading_part_of_every_product(n):
    basis = enumerate_basis(n)
    for top in basis:
        for bottom in basis:
            if top.through_count == bottom.through_count:
                _check_floor(top.through_count, top, bottom)


def test_floor_keeps_the_leading_part_at_every_middle_datum_at_four():
    outcomes = Counter()
    for ell in range(5):
        rows = enumerate_S(4, ell)
        for xS in rows:
            for yT in rows:
                got = _check_floor(ell, *_reference_factors(ell, xS, yT))
                outcomes[got if got in (None, CellFormError) else "term"] += 1
    assert sum(outcomes.values()) == 517
    assert outcomes[CellFormError] == 6


def test_floor_keeps_the_leading_part_at_seeded_middle_data_at_five():
    rng = random.Random("floor/5")
    rows = [enumerate_S(5, ell) for ell in range(6)]
    outcomes = Counter()
    for _ in range(2000):
        ell = rng.randrange(6)
        got = _check_floor(ell, *_reference_factors(ell, rng.choice(rows[ell]),
                                                    rng.choice(rows[ell])))
        outcomes[got if got in (None, CellFormError) else "term"] += 1
    # Every outcome occurs, so the comparison covers each kind.
    assert min(outcomes.values()) > 0 and len(outcomes) == 3


def _direct_through(ell, xS, yT):
    """The through strings the reference stitch draws directly."""
    _, state = multiply._stitch(*_reference_factors(ell, xS, yT))
    return len(state[2])


# n -> middle data (x, S), (y, T) with |S| = |T|, over every ell
_MIDDLE_DATA = {0: 1, 1: 2, 2: 9, 3: 62, 4: 517}


@pytest.mark.parametrize("n", sorted(_MIDDLE_DATA))
def test_stitch_draws_one_through_string_per_crossing(n):
    # phi_ell's power of two is ell minus the stitch's direct through
    # strings; the literal count is that of crossings in the join.
    data = [(ell, xS, yT) for ell in range(n + 1)
            for xS in enumerate_S(n, ell) for yT in enumerate_S(n, ell)]
    assert len(data) == _MIDDLE_DATA[n]
    for ell, xS, yT in data:
        assert _direct_through(ell, xS, yT) == literal_crossings(xS, yT), (xS, yT)


def test_stitch_draws_one_through_string_per_crossing_at_seeded_five():
    rng = random.Random("through/5")
    rows = [enumerate_S(5, ell) for ell in range(6)]
    for _ in range(2000):
        ell = rng.randrange(6)
        xS, yT = rng.choice(rows[ell]), rng.choice(rows[ell])
        assert _direct_through(ell, xS, yT) == literal_crossings(xS, yT), (xS, yT)


def test_prediction_refuses_diagrams_of_different_n():
    one_string = SpinDiagram(2, (2,), (2,), (), (), ((1, 1),))
    with pytest.raises(DiagramError, match="cannot stack"):
        predicted_leading_term(identity_diagram(1), one_string)


def test_phi_refuses_a_coefficient_the_transposition_factor_does_not_divide(monkeypatch):
    # The pairing below has two_power 1; a maximal term with an odd
    # coefficient must stop phi_ell, also under python -O.
    maximal_term = cellular._maximal_term

    def odd(*args):
        d, coeff = maximal_term(*args)
        return d, coeff + 1

    monkeypatch.setattr(cellular, "_maximal_term", odd)
    x = blocks((1,), (2,))
    with pytest.raises(ArithmeticError, match="not divisible"):
        phi_ell(1, (x, ((1,),)), (x, ((2,),)))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_modmult_exhaustive(n):
    basis = enumerate_basis(n)
    for d1 in basis:
        for d2 in basis:
            assert modmult_check(d1, d2)


def test_dimension_identity():
    for n in range(4):
        total = sum(
            math.factorial(ell) * len(enumerate_S(n, ell)) ** 2
            for ell in range(n + 1)
        )
        assert total == len(enumerate_basis(n))
    total4 = sum(
        math.factorial(ell) * len(enumerate_S(4, ell)) ** 2 for ell in range(5)
    )
    assert total4 == 764


def test_partitions_enumeration_order():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0) == [()]


def test_regularity():
    assert is_regular((2, 2), 3)
    assert not is_regular((2, 2), 2)
    assert is_regular((5,), 0)
    assert not is_regular((1,), 1)


def test_irreducible_indices_char_zero():
    assert irreducible_indices(2, 0) == [
        (0, ()), (1, (1,)), (2, (2,)), (2, (1, 1)),
    ]


def test_irreducible_indices_char_two():
    assert irreducible_indices(2, 2) == [(0, ()), (1, (1,)), (2, (2,))]


@pytest.mark.parametrize("char", [1, 4, 9])
def test_irreducible_indices_reject_a_characteristic_no_field_has(char):
    for delta_zero in (False, True):
        with pytest.raises(ValueError, match="neither 0 nor a prime"):
            irreducible_indices(2, char, delta_zero)


def test_irreducible_indices_delta_zero():
    assert irreducible_indices(2, 0, delta_zero=True) == [(0, ())]


def test_irreducible_count_cross_check():
    # Independent oracle: count partitions with no part repeated char times.
    def count(m, char):
        def gen(rest, maxpart):
            if rest == 0:
                yield ()
                return
            for part in range(min(rest, maxpart), 0, -1):
                for tail in gen(rest - part, part):
                    yield (part,) + tail

        total = 0
        for lam in gen(m, m if m else 1):
            if char == 0 or all(lam.count(p) < char for p in set(lam)):
                total += 1
        return total

    for n in range(5):
        for char in (0, 2, 3):
            expected = sum(count(m, char) for m in range(n + 1))
            assert len(irreducible_indices(n, char)) == expected
