"""Sparse exact linear algebra over Q(sqrt2): maps, composition, rank.

A LinearMap is stored column-wise as integer pairs (a, b) over one positive
integer denominator per map: the entry is (a + b sqrt2) / den. Entries of
diagram realizations lie in Z[sqrt2], so den is 1 there; the so(N) action
and the odd reflection bring den = 2. The form is canonical (no stored zero,
gcd(den, every a, every b) = 1, den = 1 for the zero map), so equal maps
have equal storage. RootTwoNumber values appear only at the boundary: the
public constructor, column, apply, entries, flatten and to_json.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Optional

from .scalars import RootTwoNumber

__all__ = ["LinearMap", "rank_of_vectors"]

Column = dict[int, RootTwoNumber]
Pair = tuple[int, int]
PairColumn = dict[int, Pair]
_ZERO: Pair = (0, 0)


class LinearMap:
    """An exact sparse linear map between based Q(sqrt2)-spaces."""

    __slots__ = ("domain_dim", "codomain_dim", "_cols", "_den")

    def __init__(
        self,
        domain_dim: int,
        codomain_dim: int,
        columns: Mapping[int, Mapping[int, RootTwoNumber]] = (),
    ):
        items = list(columns.items() if isinstance(columns, Mapping) else columns)
        den = lcm(*(x.denominator for _, col in items for v in col.values()
                    for x in (v.a, v.b)))
        pairs = {j: {r: (int(v.a * den), int(v.b * den)) for r, v in col.items()}
                 for j, col in items}
        self._adopt(domain_dim, codomain_dim, pairs, den)

    @classmethod
    def _from_pairs(cls, domain_dim: int, codomain_dim: int,
                    cols: dict[int, PairColumn], den: int = 1) -> LinearMap:
        """Adopt pair columns over den (> 0); the dicts become the map's own."""
        out = cls.__new__(cls)
        out._adopt(domain_dim, codomain_dim, cols, den)
        return out

    def _adopt(self, domain_dim: int, codomain_dim: int,
               cols: dict[int, PairColumn], den: int) -> None:
        """Check indices, drop zero entries and empty columns, reduce den."""
        if domain_dim < 0 or codomain_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        clean: dict[int, PairColumn] = {}
        for j, col in cols.items():
            if _ZERO in col.values():
                col = {r: v for r, v in col.items() if v != _ZERO}
            if col:
                clean[j] = col
        if cols:
            for j in (min(cols), max(cols)):
                if not 0 <= j < domain_dim:
                    raise ValueError(f"column index {j} out of range")
        if clean:
            for r in (min(map(min, clean.values())), max(map(max, clean.values()))):
                if not 0 <= r < codomain_dim:
                    raise ValueError(f"row index {r} out of range")
        if den != 1:
            g = gcd(den, *(x for col in clean.values() for v in col.values() for x in v))
            if g != 1:
                den //= g
                clean = {j: {r: (a // g, b // g) for r, (a, b) in col.items()}
                         for j, col in clean.items()}
        object.__setattr__(self, "domain_dim", domain_dim)
        object.__setattr__(self, "codomain_dim", codomain_dim)
        object.__setattr__(self, "_cols", clean)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinearMap is immutable")

    @classmethod
    def identity(cls, n: int) -> LinearMap:
        return cls._from_pairs(n, n, {j: {j: (1, 0)} for j in range(n)})

    @classmethod
    def zero(cls, domain_dim: int, codomain_dim: int) -> LinearMap:
        return cls._from_pairs(domain_dim, codomain_dim, {})

    @classmethod
    def combination(cls, domain_dim: int, codomain_dim: int,
                    terms: Iterable[tuple[int, LinearMap]]) -> LinearMap:
        """The sum of c * m over integer coefficients c, in one pass."""
        terms = [(c, m) for c, m in terms if c]
        for _, m in terms:
            if (m.domain_dim, m.codomain_dim) != (domain_dim, codomain_dim):
                raise ValueError("dimension mismatch in sum")
        den = lcm(*(m._den for _, m in terms))
        cols: dict[int, PairColumn] = {}
        for c, m in terms:
            f = c * (den // m._den)
            for j, col in m._cols.items():
                tgt = cols.get(j)
                if tgt is None:
                    cols[j] = (dict(col) if f == 1 else
                               {r: (a * f, b * f) for r, (a, b) in col.items()})
                    continue
                for r, (a, b) in col.items():
                    cur = tgt.get(r)
                    if cur is None:
                        tgt[r] = (a * f, b * f)
                    else:
                        tgt[r] = (cur[0] + a * f, cur[1] + b * f)
        return cls._from_pairs(domain_dim, codomain_dim, cols, den)

    def _box(self, pair: Pair) -> RootTwoNumber:
        a, b = pair
        den = self._den
        if den == 1:
            return RootTwoNumber(a, b)
        return RootTwoNumber(Fraction(a, den), Fraction(b, den))

    def column(self, j: int) -> Column:
        return {r: self._box(v) for r, v in self._cols.get(j, {}).items()}

    def nnz(self) -> int:
        return sum(len(c) for c in self._cols.values())

    def entries(self) -> Iterator[tuple[int, int, RootTwoNumber]]:
        """All nonzero entries as (row, col, value), sorted by (col, row)."""
        for j in sorted(self._cols):
            col = self._cols[j]
            for r in sorted(col):
                yield r, j, self._box(col[r])

    def first_difference(
        self, other: LinearMap
    ) -> Optional[tuple[int, int, RootTwoNumber, RootTwoNumber]]:
        """The first (row, col, self's entry, other's entry) where the maps
        differ, in entries() order; None when they are equal."""
        if (self.domain_dim, self.codomain_dim) != (other.domain_dim, other.codomain_dim):
            raise ValueError("dimension mismatch in comparison")
        ds, do = self._den, other._den
        for j in sorted(self._cols.keys() | other._cols.keys()):
            mine, theirs = self._cols.get(j, {}), other._cols.get(j, {})
            for r in sorted(mine.keys() | theirs.keys()):
                (a, b), (c, d) = mine.get(r, _ZERO), theirs.get(r, _ZERO)
                if a * do != c * ds or b * do != d * ds:
                    return r, j, self._box((a, b)), other._box((c, d))
        return None

    def apply(self, vec: Mapping[int, RootTwoNumber]) -> Column:
        out: Column = {}
        for j, c in vec.items():
            if not c:
                continue
            for r, v in self.column(j).items():
                s = out.get(r)
                s = v * c if s is None else s + v * c
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def compose(self, other: LinearMap) -> LinearMap:
        """self o other (apply `other` first)."""
        if other.codomain_dim != self.domain_dim:
            raise ValueError(
                f"inner dimensions differ: {other.codomain_dim} vs {self.domain_dim}"
            )
        left = self._cols
        cols: dict[int, PairColumn] = {}
        for j, rcol in other._cols.items():
            acc: PairColumn = {}
            for k, (c, d) in rcol.items():
                lcol = left.get(k)
                if lcol is None:
                    continue
                for r, (a, b) in lcol.items():
                    cur = acc.get(r)
                    if cur is None:
                        acc[r] = (a * c + 2 * b * d, a * d + b * c)
                    else:
                        acc[r] = (cur[0] + a * c + 2 * b * d, cur[1] + a * d + b * c)
            cols[j] = acc
        return LinearMap._from_pairs(other.domain_dim, self.codomain_dim, cols,
                                     self._den * other._den)

    def __matmul__(self, other: LinearMap) -> LinearMap:
        return self.compose(other)

    def __add__(self, other: LinearMap) -> LinearMap:
        return LinearMap.combination(self.domain_dim, self.codomain_dim,
                                     ((1, self), (1, other)))

    def __sub__(self, other: LinearMap) -> LinearMap:
        return LinearMap.combination(self.domain_dim, self.codomain_dim,
                                     ((1, self), (-1, other)))

    def scale(self, c: RootTwoNumber) -> LinearMap:
        if not c:
            return LinearMap.zero(self.domain_dim, self.codomain_dim)
        cden = lcm(c.a.denominator, c.b.denominator)
        p, q = int(c.a * cden), int(c.b * cden)
        cols = {
            j: {r: (a * p + 2 * b * q, a * q + b * p) for r, (a, b) in col.items()}
            for j, col in self._cols.items()
        }
        return LinearMap._from_pairs(self.domain_dim, self.codomain_dim, cols,
                                     self._den * cden)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.domain_dim == other.domain_dim
            and self.codomain_dim == other.codomain_dim
            and self._den == other._den
            and self._cols == other._cols
        )

    def __hash__(self) -> int:  # pragma: no cover - maps rarely used as keys
        return hash((self.domain_dim, self.codomain_dim, self.nnz()))

    def flatten(self) -> Column:
        """The map as one sparse vector, index = row * domain_dim + col."""
        out: Column = {}
        for r, j, v in self.entries():
            out[r * self.domain_dim + j] = v
        return out

    def rank(self) -> int:
        return rank_of_vectors(self.column(j) for j in self._cols)

    def to_json(self) -> dict:
        return {
            "rows": self.codomain_dim,
            "cols": self.domain_dim,
            "entries": [[r, c, v.to_json()] for r, c, v in self.entries()],
        }

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.domain_dim}->{self.codomain_dim}, nnz={self.nnz()})"
        )


def rank_of_vectors(vectors: Iterable[Mapping[int, RootTwoNumber]]) -> int:
    """Rank of the span of sparse Q(sqrt2)-vectors, by Gaussian elimination.

    Pivot rows are normalized to leading coefficient 1; a pivot is only ever
    taken from a nonzero entry, so no division by zero can occur.
    """
    pivots: dict[int, Column] = {}
    for vec in vectors:
        v = {i: c for i, c in vec.items() if c}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                assert v[lead], "pivot must be nonzero"
                inv = v[lead].inverse()
                pivots[lead] = {i: c * inv for i, c in v.items()}
                break
            factor = v[lead]
            for i, c in piv.items():
                s = v.get(i)
                s = -(c * factor) if s is None else s - c * factor
                if s:
                    v[i] = s
                else:
                    v.pop(i, None)
            assert lead not in v
    return len(pivots)
