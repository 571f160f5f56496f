"""Cellular structure: the pairing form and irreducibles.

A diagram with ell through strings is encoded by (row partition, through
origins) data on each row plus a permutation; multiplication modulo diagrams
with fewer through strings is governed by the pairing form phi_ell, read off
the maximal-through part of one reference product. On small rows its value
is delta^(closed middle components) * 2^(cross-row label transpositions)
times one permutation. The power of two is read off the reference stitch:
each through string it does not draw directly, from an S-origin to a
T-origin along one middle component, comes from a transposition. Closed
circuits with interleaved labels correct the delta power (see
PhiValue.circuit_factor), and from four vertices per row on the value can
stop being a single permutation multiple altogether (CellFormError).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagrams import Block, Partition, SpinDiagram, _row_of, cell_encode
from .linalg import _MR_BOUND, _is_prime
from .multiply import _normal_form, _stitch, default_strategy, multiply_diagrams
from .scalars import DeltaPolynomial

__all__ = [
    "PhiValue",
    "CellFormError",
    "phi_ell",
    "modmult_check",
    "predicted_leading_term",
    "partitions_of",
    "is_regular",
    "irreducible_indices",
]


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
    there is none; CellFormError when there are several.

    The normal form runs with floor ell: states that cannot reach ell through
    strings are never expanded, and the terms it keeps are exact.
    """
    closed, state = _stitch(top, bottom)
    leading = list(_normal_form(top.n, state, {closed: 1}, default_strategy, ell).items())
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
    multiplication modulo lower filtration layers. The circuit factor equals
    delta^(number of circuits) while no closed circuit survives with
    interleaved labels, and acquires anticommutator corrections otherwise.
    """
    x, S = xS
    y, T = yT
    if len(S) != ell or len(T) != ell:
        raise ValueError(f"S and T must have size ell={ell}")
    # The partitions are caller input, so the factors are validated.
    n = sum(len(b) for b in x)
    rows = [(n, *_row_of(p, O), sorted(b[0] for b in O)) for p, O in (xS, yT)]
    top, bottom = (SpinDiagram(*fields) for fields in _reference_fields(*rows))
    term = _maximal_term(ell, top, bottom)
    if term is None:
        return None
    d, coeff = term
    ell2, t = cell_encode(d)
    if ell2 != ell:
        raise RuntimeError(f"maximal term has {ell2} through strings, not {ell}")
    # The stitch draws a through string for each middle component joining an
    # S-origin to a T-origin; the term's other through strings come from
    # cross-row label transpositions, a factor of 2 each.
    two_power = ell - len(_stitch(top, bottom)[1][2])
    circuit_factor = _divide_by_power_of_two(coeff, two_power)
    return PhiValue(circuit_factor, two_power, t.sigma)


def _divide_by_power_of_two(p: DeltaPolynomial, k: int) -> DeltaPolynomial:
    out = {}
    for e, c in p.to_pairs():
        q, r = divmod(c, 2**k)
        if r:
            raise ArithmeticError(
                f"coefficient {c} of delta^{e} not divisible by the transposition factor 2^{k}")
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
    if char >= _MR_BOUND:
        raise ValueError(f"char={char} is too large: primality is decided below {_MR_BOUND}")
    if char and not _is_prime(char):
        raise ValueError(f"char={char} is neither 0 nor a prime")
    if delta_zero:
        return [(0, ())]
    out = []
    for m in range(n + 1):
        for lam in partitions_of(m):
            if is_regular(lam, char):
                out.append((m, lam))
    return out
