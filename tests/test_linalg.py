import random
from fractions import Fraction

import pytest

from spinbrauer.diagrams import enumerate_basis
from spinbrauer.linalg import LinearMap, rank_of_vectors
from spinbrauer.realization import SpaceSpec, realize_diagram
from spinbrauer.scalars import RootTwoNumber


def r2(a, b=0):
    return RootTwoNumber(a, b)


def random_map(rng, rows, cols, density=0.3, fractional=False):
    entries = {}
    for j in range(cols):
        col = {}
        for i in range(rows):
            if rng.random() < density:
                if fractional:
                    col[i] = RootTwoNumber(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    )
                else:
                    col[i] = r2(rng.randint(-4, 4), rng.randint(-2, 2))
        entries[j] = {i: v for i, v in col.items() if v}
    return LinearMap(cols, rows, entries)


def test_identity_rank():
    assert LinearMap.identity(3).rank() == 3


def test_zero_map_rank():
    assert LinearMap.zero(4, 4).rank() == 0


def test_span_of_realized_basis_on_one_strand():
    # Independent oracle: realize both diagrams and row-reduce the flattenings.
    space = SpaceSpec(3, 1)
    vectors = [realize_diagram(d, space).flatten() for d in enumerate_basis(1)]
    assert len(vectors) == 2
    assert rank_of_vectors(vectors) == 2


def test_compose_dimension_check():
    with pytest.raises(ValueError):
        LinearMap.zero(2, 3).compose(LinearMap.zero(3, 3))


def test_entry_validation():
    with pytest.raises(ValueError):
        LinearMap(1, 1, {0: {5: r2(1)}})
    with pytest.raises(ValueError):
        LinearMap(1, 1, {3: {0: r2(1)}})


def test_zero_entries_dropped():
    m = LinearMap(2, 2, {0: {0: r2(0)}, 1: {1: r2(2)}})
    assert m.nnz() == 1


def test_compose_fast_and_generic_paths_agree():
    rng = random.Random(7)
    for trial in range(20):
        a_int = random_map(rng, 6, 5)
        b_int = random_map(rng, 5, 6)
        fast = a_int.compose(b_int)
        # Force the generic path by scaling with a fractional unit and back.
        half = RootTwoNumber(Fraction(1, 2))
        two = RootTwoNumber(2)
        generic = a_int.scale(half).compose(b_int).scale(two)
        assert fast == generic


def test_rank_of_composition_bounded():
    rng = random.Random(11)
    for trial in range(15):
        a = random_map(rng, 5, 4, fractional=trial % 2 == 0)
        b = random_map(rng, 4, 5, fractional=trial % 3 == 0)
        assert a.compose(b).rank() <= min(a.rank(), b.rank())


def test_apply_matches_compose():
    rng = random.Random(3)
    a = random_map(rng, 5, 4)
    vec = {0: r2(2), 3: r2(0, 1)}
    by_apply = a.apply(vec)
    as_map = LinearMap(1, 4, {0: vec})
    assert a.compose(as_map).column(0) == by_apply


def test_entries_sorted_by_column_then_row():
    m = LinearMap(2, 3, {1: {2: r2(1), 0: r2(1)}, 0: {1: r2(1)}})
    coords = [(c, r) for r, c, _ in m.entries()]
    assert coords == sorted(coords)


def test_json_shape():
    m = LinearMap(1, 2, {0: {1: RootTwoNumber(Fraction(1, 2), 1)}})
    assert m.to_json() == {
        "rows": 2,
        "cols": 1,
        "entries": [[1, 0, {"a": "1/2", "b": "1"}]],
    }
