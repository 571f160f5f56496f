import dataclasses
import hashlib
import json
import math

import pytest

from conftest import FIVE_VERTEX, assert_validated
from spinbrauer.diagrams import (
    CellTriple,
    DiagramError,
    SpinDiagram,
    cell_decode,
    cell_encode,
    diagram_key,
    emit_diagram,
    enumerate_basis,
    identity_diagram,
    involution,
    parse_diagram,
    pretty,
)


def test_parse_five_vertex_datum():
    text = json.dumps(
        {
            "n": 5,
            "top": {"isolated": [2, 5], "arcs": [[1, 3]]},
            "bottom": {"isolated": [1, 4], "arcs": [[2, 5]]},
            "through": [[4, 3]],
        }
    )
    assert parse_diagram(text) == FIVE_VERTEX


def test_identity_strand_valid():
    d = parse_diagram(
        {"n": 1, "top": {"isolated": [], "arcs": []},
         "bottom": {"isolated": [], "arcs": []}, "through": [[1, 1]]}
    )
    assert d == identity_diagram(1)


def test_vertex_in_two_roles_rejected():
    with pytest.raises(DiagramError, match="used twice"):
        SpinDiagram(2, (1,), (), ((1, 2),), ((1, 2),), ())


def test_non_bijection_rejected():
    with pytest.raises(DiagramError):
        SpinDiagram(2, (), (), (), (), ((1, 1), (2, 1)))


def test_unsorted_isolated_rejected():
    with pytest.raises(DiagramError, match="not ascending"):
        SpinDiagram(2, (2, 1), (1, 2), (), (), ())


def test_parse_rejects_misordered_arcs():
    with pytest.raises(DiagramError, match="smaller vertex first"):
        parse_diagram(
            {"n": 2, "top": {"isolated": [], "arcs": [[2, 1]]},
             "bottom": {"isolated": [1, 2], "arcs": []}, "through": []}
        )


_ONE_STRAND = {"n": 1, "top": {"isolated": [], "arcs": []},
               "bottom": {"isolated": [], "arcs": []}, "through": [[1, 1]]}


@pytest.mark.parametrize("path, value", [
    (("n",), 1.0),
    (("n",), True),
    (("n",), "1"),
    (("through", 0, 0), 1.9),
    (("through", 0, 1), True),
    (("through", 0, 1), "1"),
], ids=["n-float", "n-bool", "n-string", "through-float", "through-bool", "through-string"])
def test_parse_rejects_a_number_that_is_not_an_integer(path, value):
    obj = json.loads(json.dumps(_ONE_STRAND))
    *parents, key = path
    target = obj
    for p in parents:
        target = target[p]
    target[key] = value
    with pytest.raises(DiagramError, match="is not an integer"):
        parse_diagram(obj)


@pytest.mark.parametrize("row, field, value", [
    ("top", "isolated", [1.0]),
    ("bottom", "isolated", [False]),
    ("top", "arcs", [[1, 2.0]]),
    ("bottom", "arcs", [["1", 2]]),
])
def test_parse_rejects_non_integer_vertices(row, field, value):
    obj = {"n": 2, "top": {"isolated": [1, 2], "arcs": []},
           "bottom": {"isolated": [1, 2], "arcs": []}, "through": []}
    obj[row] = {"isolated": [], "arcs": []}
    obj[row][field] = value
    with pytest.raises(DiagramError, match="is not an integer"):
        parse_diagram(obj)


@pytest.mark.parametrize("fields", [
    (2, (), (), ((1.9, 2),), ((1, 2),), ()),
    (2, (), (), ((1, 2),), ((1, 2),), (("1", 1.2),)),
    (1, (1.0,), (1,), (), (), ()),
    (1, (True,), (1,), (), (), ()),
    (1.0, (), (), (), (), ((1, 1),)),
    (True, (), (), (), (), ((1, 1),)),
], ids=["arc-float", "through-string-float", "isolated-float", "isolated-bool",
        "n-float", "n-bool"])
def test_constructor_rejects_a_number_that_is_not_an_integer(fields):
    with pytest.raises(DiagramError, match="is not an integer"):
        SpinDiagram(*fields)


def test_round_trip_is_byte_stable(fixtures_dir):
    for name in ("five_vertex_datum", "product_demo_top", "product_demo_bottom"):
        raw = (fixtures_dir / f"{name}.json").read_text()
        emitted = emit_diagram(parse_diagram(raw))
        assert json.dumps(emitted, sort_keys=True) == json.dumps(
            json.loads(raw), sort_keys=True
        )


def _count_by_cell_data(n: int) -> int:
    """Independent count: sum over ell of ell! times (partition, subset) pairs squared."""

    def partitions_le2(verts):
        if not verts:
            yield ()
            return
        v, rest = verts[0], verts[1:]
        for tail in partitions_le2(rest):
            yield ((v,),) + tail
        for k, w in enumerate(rest):
            for tail in partitions_le2(rest[:k] + rest[k + 1:]):
                yield ((v, w),) + tail

    total = 0
    parts = list(partitions_le2(tuple(range(1, n + 1))))
    for ell in range(n + 1):
        a = 0
        for p in parts:
            sing = [b for b in p if len(b) == 1]
            a += math.comb(len(sing), ell)
        total += math.factorial(ell) * a * a
    return total


@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 10), (3, 76), (4, 764)])
def test_basis_counts(n, count):
    basis = enumerate_basis(n)
    assert len(basis) == count == _count_by_cell_data(n)
    assert len(set(basis)) == count


def test_basis_ordered_by_descending_through_count():
    basis = enumerate_basis(2)
    counts = [d.through_count for d in basis]
    assert counts == sorted(counts, reverse=True)


def test_enumeration_bound():
    with pytest.raises(DiagramError, match="bound"):
        enumerate_basis(6)


def test_enumeration_rejects_negative_n():
    with pytest.raises(DiagramError, match="nonnegative"):
        enumerate_basis(-1)


@pytest.mark.parametrize("n,digest", [
    (4, "3dd852d323da0ca8ba491c988dd9e27ed4d67f17bec541c4c978f449c4f20fec"),
    (5, "3d043c472cd3a6b8a710beb3d8cb4f17600c45e6827a3f95a6acd8945c83a3dd"),
])
def test_golden_basis_order(n, digest):
    keys = "\n".join(diagram_key(d) for d in enumerate_basis(n))
    assert hashlib.sha256(keys.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", range(6))
def test_basis_diagrams_equal_the_validated_ones(n):
    for d in enumerate_basis(n):
        assert_validated(d)
        assert cell_decode(*cell_encode(d)) == d


def test_involution_fixes_identity():
    assert involution(identity_diagram(3)) == identity_diagram(3)


def test_involution_of_five_vertex_datum():
    assert involution(FIVE_VERTEX) == SpinDiagram(
        5, (1, 4), (2, 5), ((2, 5),), ((1, 3),), ((3, 4),)
    )


def test_involution_is_an_involution():
    for d in enumerate_basis(3):
        assert involution(involution(d)) == d


def test_cell_encode_five_vertex_datum():
    ell, t = cell_encode(FIVE_VERTEX)
    assert ell == 1
    assert t.x == ((1, 3), (2,), (4,), (5,))
    assert t.S == ((4,),)
    assert t.y == ((1,), (2, 5), (3,), (4,))
    assert t.T == ((3,),)
    assert t.sigma == (0,)


def test_cell_encode_identity():
    ell, t = cell_encode(identity_diagram(2))
    assert ell == 2
    assert t.x == t.y == ((1,), (2,))
    assert t.S == t.T == ((1,), (2,))
    assert t.sigma == (0, 1)


def test_cell_decode_inverts_encode():
    for n in (0, 1, 2, 3):
        for d in enumerate_basis(n):
            ell, t = cell_encode(d)
            assert cell_decode(ell, t) == d


def test_cell_decode_trivial_isolated_pair():
    d = cell_decode(0, CellTriple(((1,),), (), ((1,),), (), ()))
    assert d == SpinDiagram(1, (1,), (1,), (), (), ())


def test_cell_triple_validation():
    with pytest.raises(DiagramError):
        CellTriple(((1, 2),), ((1,),), ((1,), (2,)), ((1,),), (0,))


@pytest.mark.parametrize("n", range(5))
def test_cell_encode_builds_the_validated_triples(n):
    for d in enumerate_basis(n):
        _, t = cell_encode(d)
        # replace() rebuilds the triple through the checking constructor.
        assert dataclasses.replace(t) == t


@pytest.mark.parametrize("cls, fields", [
    (SpinDiagram, (1, (1,), (1,), (), (), ())),
    (CellTriple, (((1,),), ((1,),), ((1,),), ((1,),), (0,))),
])
def test_trusted_rejects_a_wrong_number_of_fields(cls, fields):
    assert cls._trusted(*fields) == cls(*fields)
    for wrong in (fields[:-1], fields + ((),)):
        with pytest.raises(ValueError):
            cls._trusted(*wrong)


def test_diagram_key_orders_terms_deterministically():
    keys = [diagram_key(d) for d in enumerate_basis(2)]
    assert len(set(keys)) == len(keys)


def test_pretty_marks_isolated_vertices():
    text = pretty(FIVE_VERTEX)
    assert "⊙" in text and "through: 4->3'" in text
