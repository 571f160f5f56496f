"""Sparse exact linear algebra over Q(sqrt2): maps, composition, rank.

A LinearMap is stored column-wise; every stored entry is nonzero. Composition
has an integer fast path (entries of diagram realizations always lie in
Z[sqrt2]) and a generic Fraction path; the two agree exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional

from .scalars import RootTwoNumber

__all__ = ["LinearMap", "rank_of_vectors"]

Column = dict[int, RootTwoNumber]


class LinearMap:
    """An exact sparse linear map between based Q(sqrt2)-spaces."""

    __slots__ = ("domain_dim", "codomain_dim", "_cols")

    def __init__(
        self,
        domain_dim: int,
        codomain_dim: int,
        columns: Mapping[int, Mapping[int, RootTwoNumber]] = (),
    ):
        if domain_dim < 0 or codomain_dim < 0:
            raise ValueError("dimensions must be nonnegative")
        object.__setattr__(self, "domain_dim", domain_dim)
        object.__setattr__(self, "codomain_dim", codomain_dim)
        cols: dict[int, Column] = {}
        items = columns.items() if isinstance(columns, Mapping) else columns
        for j, col in items:
            if not 0 <= j < domain_dim:
                raise ValueError(f"column index {j} out of range")
            clean = {}
            for r, v in col.items():
                if not 0 <= r < codomain_dim:
                    raise ValueError(f"row index {r} out of range")
                if v:
                    clean[r] = v
            if clean:
                cols[j] = clean
        object.__setattr__(self, "_cols", cols)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LinearMap is immutable")

    @classmethod
    def identity(cls, n: int) -> LinearMap:
        one = RootTwoNumber(1)
        return cls(n, n, {j: {j: one} for j in range(n)})

    @classmethod
    def zero(cls, domain_dim: int, codomain_dim: int) -> LinearMap:
        return cls(domain_dim, codomain_dim, {})

    def column(self, j: int) -> Column:
        return dict(self._cols.get(j, {}))

    def nnz(self) -> int:
        return sum(len(c) for c in self._cols.values())

    def entries(self) -> Iterator[tuple[int, int, RootTwoNumber]]:
        """All nonzero entries as (row, col, value), sorted by (col, row)."""
        for j in sorted(self._cols):
            col = self._cols[j]
            for r in sorted(col):
                yield r, j, col[r]

    def apply(self, vec: Mapping[int, RootTwoNumber]) -> Column:
        out: Column = {}
        for j, c in vec.items():
            if not c:
                continue
            for r, v in self._cols.get(j, {}).items():
                s = out.get(r)
                s = v * c if s is None else s + v * c
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def _int_cols(self) -> Optional[dict[int, list[tuple[int, int, int]]]]:
        """Columns as (row, a, b) integer triples, or None if any entry is fractional."""
        out: dict[int, list[tuple[int, int, int]]] = {}
        for j, col in self._cols.items():
            rows = []
            for r, v in col.items():
                if v.a.denominator != 1 or v.b.denominator != 1:
                    return None
                rows.append((r, v.a.numerator, v.b.numerator))
            out[j] = rows
        return out

    def compose(self, other: LinearMap) -> LinearMap:
        """self o other (apply `other` first)."""
        if other.codomain_dim != self.domain_dim:
            raise ValueError(
                f"inner dimensions differ: {other.codomain_dim} vs {self.domain_dim}"
            )
        left = self._int_cols()
        right = other._int_cols()
        if left is not None and right is not None:
            cols: dict[int, Column] = {}
            for j, rcol in right.items():
                acc: dict[int, tuple[int, int]] = {}
                for k, ca, cb in rcol:
                    for r, va, vb in left.get(k, ()):
                        na = va * ca + 2 * vb * cb
                        nb = va * cb + vb * ca
                        cur = acc.get(r)
                        if cur is None:
                            acc[r] = (na, nb)
                        else:
                            acc[r] = (cur[0] + na, cur[1] + nb)
                col = {
                    r: RootTwoNumber(a, b) for r, (a, b) in acc.items() if a or b
                }
                if col:
                    cols[j] = col
            return LinearMap(other.domain_dim, self.codomain_dim, cols)
        cols = {}
        for j in other._cols:
            col = self.apply(other._cols[j])
            if col:
                cols[j] = col
        return LinearMap(other.domain_dim, self.codomain_dim, cols)

    def __matmul__(self, other: LinearMap) -> LinearMap:
        return self.compose(other)

    def __add__(self, other: LinearMap) -> LinearMap:
        if (self.domain_dim, self.codomain_dim) != (other.domain_dim, other.codomain_dim):
            raise ValueError("dimension mismatch in sum")
        cols: dict[int, Column] = {j: dict(c) for j, c in self._cols.items()}
        for j, col in other._cols.items():
            tgt = cols.setdefault(j, {})
            for r, v in col.items():
                s = tgt.get(r)
                s = v if s is None else s + v
                if s:
                    tgt[r] = s
                else:
                    tgt.pop(r, None)
        return LinearMap(self.domain_dim, self.codomain_dim, cols)

    def __sub__(self, other: LinearMap) -> LinearMap:
        return self + other.scale(RootTwoNumber(-1))

    def scale(self, c: RootTwoNumber) -> LinearMap:
        if not c:
            return LinearMap.zero(self.domain_dim, self.codomain_dim)
        cols = {j: {r: v * c for r, v in col.items()} for j, col in self._cols.items()}
        return LinearMap(self.domain_dim, self.codomain_dim, cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.domain_dim == other.domain_dim
            and self.codomain_dim == other.codomain_dim
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
        return rank_of_vectors(self._cols.values())

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

