"""Cellular structure: partition joins, the pairing form, and irreducibles.

A diagram with ell through strings is encoded by (row partition, through
origins) data on each row plus a permutation; multiplication modulo diagrams
with fewer through strings is governed by the pairing form phi_ell. On small
rows its value is delta^(closed components of the join) * 2^(cross-row label
transpositions) times one permutation; closed circuits with interleaved
labels correct the delta power (see PhiValue.circuit_factor), and from four
vertices per row on the value can stop being a single permutation multiple
altogether (CellFormError).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Optional, Sequence

from .diagrams import (
    Block,
    Partition,
    SpinDiagram,
    cell_encode,
    singletons,
)
from .multiply import multiply_diagrams
from .scalars import DeltaPolynomial

__all__ = [
    "m1",
    "join_partitions",
    "beta",
    "PhiValue",
    "CellFormError",
    "literal_pairing_rules",
    "phi_ell",
    "modmult_check",
    "predicted_leading_term",
    "partitions_of",
    "is_regular",
    "irreducible_indices",
]


def m1(p: Partition) -> int:
    """Number of size-1 blocks."""
    return len(singletons(p))


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


# --- the swap-count statistic ------------------------------------------------


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


# --- the bilinear form --------------------------------------------------------


@dataclass(frozen=True)
class PhiValue:
    """Nonzero value of the pairing form: circuit_factor * 2^two_power * perm.

    For products whose closed circuits do not interleave, circuit_factor is
    the monomial delta^(number of circuits); interleaved circuits contribute
    anticommutator corrections, so in general it is a polynomial in delta.
    """

    circuit_factor: DeltaPolynomial
    two_power: int
    perm: tuple[int, ...]  # 0-based images

    @property
    def delta_power(self) -> Optional[int]:
        """The exponent when the circuit factor is a plain power of delta."""
        pairs = self.circuit_factor.to_pairs()
        if len(pairs) == 1 and pairs[0][1] == 1:
            return pairs[0][0]
        return None

    def coefficient(self) -> DeltaPolynomial:
        return self.circuit_factor * (2**self.two_power)

    def inverted(self) -> PhiValue:
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return PhiValue(self.circuit_factor, self.two_power, tuple(inv))


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
    join = join_partitions(x, y)
    comp_of: dict[int, int] = {}
    for ci, block in enumerate(join):
        for v in block:
            comp_of[v] = ci

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
    perm: dict[int, int] = {}
    for i, j in crossings:
        assert i not in perm
        perm[i] = j
    for s_pos, t_pos in pairs:
        cs = gamma_comps[union[s_pos]]
        ct = gamma_comps[union[t_pos]]
        i = comp_to_s[cs]
        j = comp_to_t[ct]
        assert i not in perm
        perm[i] = j
    assert sorted(perm) == list(range(ell))
    return len(gamma_S), tuple(perm[i] for i in range(ell))


def _reference_fields(upper: tuple, lower: tuple) -> tuple[tuple, tuple]:
    """The fields of the two factors with identity outer rows whose middle
    rows are upper (the first factor's bottom row) and lower (the second
    factor's top row), each given as (n, isolated, arcs, through ends)."""
    (n1, iso1, arcs1, ends1), (n2, iso2, arcs2, ends2) = upper, lower
    return (
        (n1, tuple(v for v in range(1, n1 + 1) if v not in ends1), iso1,
         (), arcs1, tuple((v, v) for v in ends1)),
        (n2, iso2, tuple(v for v in range(1, n2 + 1) if v not in ends2),
         arcs2, (), tuple((v, v) for v in ends2)),
    )


class CellFormError(ValueError):
    """The pairing value is not a scalar multiple of a single permutation.

    Transposition corrections can spread the maximal part of a product over
    several permutations once enough leftover singletons interleave (first
    seen on two rows of four vertices); the closed-form wrapper cannot
    represent such a value.
    """


def _maximal_term(
    ell: int, top: SpinDiagram, bottom: SpinDiagram
) -> Optional[tuple[SpinDiagram, DeltaPolynomial]]:
    """The single term of the product with ell through strings, or None when
    there is none; CellFormError when there are several."""
    leading = [(d, c) for d, c in multiply_diagrams(top, bottom).terms.items()
               if d.through_count >= ell]
    if len(leading) > 1:
        raise CellFormError(f"maximal part spreads over {len(leading)} diagrams")
    return leading[0] if leading else None


def phi_ell(
    ell: int,
    xS: tuple[Partition, Sequence[Block]],
    yT: tuple[Partition, Sequence[Block]],
) -> Optional[PhiValue]:
    """The pairing of (x, S) and (y, T); None encodes the zero value.

    The value is read off the maximal-through part of a reference product
    with identity outer rows, so it is exactly the element governing
    multiplication modulo lower filtration layers. The literal component
    rules (literal_pairing_rules) agree with it whenever no closed
    circuit survives with interleaved labels; the circuit factor equals
    delta^(number of circuits) in that regime and acquires anticommutator
    corrections otherwise.
    """
    x, S = xS
    y, T = yT
    if len(S) != ell or len(T) != ell:
        raise ValueError(f"S and T must have size ell={ell}")
    # The partitions are caller input, so the factors are validated.
    n = sum(len(b) for b in x)
    rows = [(n, tuple(b[0] for b in singletons(p) if b not in set(O)),
             tuple(b for b in p if len(b) == 2), sorted(b[0] for b in O))
            for p, O in (xS, yT)]
    top, bottom = (SpinDiagram(*fields) for fields in _reference_fields(*rows))
    term = _maximal_term(ell, top, bottom)
    if term is None:
        return None
    d, coeff = term
    ell2, t = cell_encode(d)
    assert ell2 == ell
    join = join_partitions(x, y)
    comp_of: dict[int, int] = {}
    for ci, block in enumerate(join):
        for v in block:
            comp_of[v] = ci
    crossings = sum(
        1 for b in S for b2 in T if comp_of[b[0]] == comp_of[b2[0]]
    )
    two_power = ell - crossings
    circuit_factor = _divide_by_power_of_two(coeff, two_power)
    return PhiValue(circuit_factor, two_power, t.sigma)


def _divide_by_power_of_two(p: DeltaPolynomial, k: int) -> DeltaPolynomial:
    out = {}
    for e, c in p.to_pairs():
        q, r = divmod(c, 2**k)
        assert r == 0, "coefficient not divisible by the transposition factor"
        out[e] = q
    return DeltaPolynomial(out)


def _middle_rows(top: SpinDiagram, bottom: SpinDiagram) -> tuple[tuple, tuple]:
    """top's bottom row and bottom's top row, each as (n, isolated, arcs,
    through ends): the key of the reference product of a prediction."""
    if top.through_count != bottom.through_count:
        raise ValueError("through counts differ")
    upper_ends = tuple(sorted(j for _, j in top.through))
    lower_ends = tuple(i for i, _ in bottom.through)
    return ((top.n, top.bottom_isolated, top.bottom_arcs, upper_ends),
            (bottom.n, bottom.top_isolated, bottom.top_arcs, lower_ends))


def _reference_term(upper: tuple,
                    lower: tuple) -> Optional[tuple[SpinDiagram, DeltaPolynomial]]:
    """The maximal term of the reference product with the given middle rows.

    The rows come from validated diagrams, so the factors are canonical by
    construction and built unchecked.
    """
    return _maximal_term(len(upper[3]), *(SpinDiagram._trusted(*fields)
                                          for fields in _reference_fields(upper, lower)))


def _carried(top: SpinDiagram, bottom: SpinDiagram,
             term: Optional[tuple[SpinDiagram, DeltaPolynomial]]
             ) -> Optional[tuple[SpinDiagram, DeltaPolynomial]]:
    """A reference term carried to the outer rows: top's top row, bottom's
    bottom row, and the through strings of top, then of the term, then of
    bottom. The result is canonical by construction."""
    if term is None:
        return None
    d, coeff = term
    via, down = d.through_map(), bottom.through_map()
    through = tuple((i, down[via[j]]) for i, j in top.through)
    return SpinDiagram._trusted(top.n, top.top_isolated, bottom.bottom_isolated,
                                top.top_arcs, bottom.bottom_arcs, through), coeff


def predicted_leading_term(
    top: SpinDiagram, bottom: SpinDiagram
) -> Optional[tuple[SpinDiagram, DeltaPolynomial]]:
    """The unique maximal-through-count term of a product of equal-count diagrams.

    It is phi_ell of top's bottom row and bottom's top row, carried to the
    outer rows: top's top row, bottom's bottom row, and the through strings
    of top, then of the pairing's maximal term, then of bottom.
    """
    return _carried(top, bottom, _reference_term(*_middle_rows(top, bottom)))


def modmult_check(top: SpinDiagram, bottom: SpinDiagram,
                  references: Optional[dict] = None) -> bool:
    """Compare the engine's product against the pairing-form prediction.

    For equal through counts ell, the product with all terms of fewer than
    ell through strings deleted must equal the predicted single term (or be
    empty when the form vanishes); when the pairing value is not expressible
    as a single permutation multiple the check fails. For unequal counts the
    check degrades to the filtration property: no term may exceed the
    smaller count.

    references, when given, is the caller's table of reference terms keyed
    by the two middle rows (CellFormError standing for a value that is not
    a single term): pairs that share their middle rows share one reference
    product.
    """
    ell1 = top.through_count
    ell2 = bottom.through_count
    product = multiply_diagrams(top, bottom)
    if ell1 != ell2:
        return product.max_through() <= min(ell1, ell2)
    leading = {
        d: c for d, c in product.terms.items() if d.through_count >= ell1
    }
    rows = _middle_rows(top, bottom)
    references = {} if references is None else references
    if rows not in references:
        try:
            references[rows] = _reference_term(*rows)
        except CellFormError:
            references[rows] = CellFormError
    term = references[rows]
    if term is CellFormError:
        return False
    predicted = _carried(top, bottom, term)
    if predicted is None:
        return not leading
    d, coeff = predicted
    return leading == {d: coeff}


# --- irreducible representation indexing --------------------------------------


def partitions_of(m: int) -> list[tuple[int, ...]]:
    """Integer partitions of m, descending parts, in descending lex order."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, maxpart: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, maxpart), 0, -1):
            rec(rest - part, part, acc + (part,))

    rec(m, m if m else 1, ())
    return out


def is_regular(lam: tuple[int, ...], a: int) -> bool:
    """No part repeated a or more times (every partition is 0-regular)."""
    if a == 0:
        return True
    return all(lam.count(p) <= a - 1 for p in set(lam))


def irreducible_indices(
    n: int, char: int = 0, delta_zero: bool = False
) -> list[tuple[int, tuple[int, ...]]]:
    """Index set (m, regular partition of m) for the irreducible modules."""
    if n < 0 or char < 0:
        raise ValueError(f"n and char must be nonnegative, got n={n}, char={char}")
    if char == 1 or any(char % p == 0 for p in range(2, isqrt(char) + 1)):
        raise ValueError(f"char={char} is neither 0 nor a prime")
    if delta_zero:
        return [(0, ())]
    out = []
    for m in range(n + 1):
        for lam in partitions_of(m):
            if is_regular(lam, char):
                out.append((m, lam))
    return out
