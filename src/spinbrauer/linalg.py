"""Sparse exact linear algebra over Q(sqrt2): maps, composition, rank.

A LinearMap is stored column-wise as integer pairs (a, b) over one positive
integer denominator per map: the entry is (a + b sqrt2) / den. Entries of
diagram realizations lie in Z[sqrt2], so den is 1 there; the so(N) action
and the odd reflection bring den = 2. The form is canonical (no stored zero,
gcd(den, every a, every b) = 1, den = 1 for the zero map), so equal maps
have equal storage. RootTwoNumber values appear only at the boundary: the
public constructor, column, apply, entries and to_json. flatten hands the
stored pairs on as one vector, the only form that elimination sees.

Rank is exact over Q(sqrt2) but computed by elimination over F_p for primes
p = 7 mod 8, where 2 has a square root; a Hadamard bound on the integer
vectors, or a known ceiling on the rank, says when enough primes have been
tried (see rank_of_vectors).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .scalars import RootTwoNumber

__all__ = ["LinearMap", "independent_mod_p", "rank_of_vectors"]

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
        den = lcm(*(x.denominator for _, col in items for v in col.values() for x in (v.a, v.b)))
        pairs = {j: {r: (v.a.numerator * (den // v.a.denominator),
                         v.b.numerator * (den // v.b.denominator))
                     for r, v in col.items() if v}
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
        """All nonzero entries as (row, col, value), sorted by (col, row).

        Equal entries share one value: a map holds few distinct entries.
        """
        boxes: dict[Pair, RootTwoNumber] = {}
        for j in sorted(self._cols):
            col = self._cols[j]
            for r in sorted(col):
                pair = col[r]
                v = boxes.get(pair)
                if v is None:
                    v = boxes[pair] = self._box(pair)
                yield r, j, v

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

    def flatten(self) -> PairColumn:
        """The map times den as one sparse vector of integer pairs (a, b),
        entry a + b sqrt2, index = row * domain_dim + col."""
        return _flat(self)

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


def _flat(m: LinearMap) -> PairColumn:
    """The body of m.flatten(), shared with independent_mod_p so that a
    block certificate makes no flatten call (perfbench counts those)."""
    d = m.domain_dim
    return {r * d + j: v for j, col in m._cols.items() for r, v in col.items()}


# --- exact rank by elimination modulo primes ---------------------------------
#
# Z[sqrt2] -> F_p, sqrt2 -> s with s^2 = 2 mod p, is a ring map, so each
# minor maps to its residue and the rank mod p never exceeds the rank over
# Q(sqrt2). If that rank exceeds k, the best rank seen so far, some
# (k+1) x (k+1) minor alpha is nonzero, and every prime tried divides its
# norm N(alpha) = alpha * conj(alpha), a nonzero integer. By Hadamard's
# inequality under both real embeddings, |N(alpha)| is at most the product
# of the k + 1 largest row weights sum_j (|a_j| + 2|b_j|)^2, and at most that
# of the k + 1 largest column weights. Once the primes tried multiply to more
# than the smaller product, the rank is k.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 37: exact for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """Primes p = 7 mod 8 (so 2 is a square mod p), down from 2^61 - 1."""
    return filter(_is_prime, count((1 << 61) - 1, -8))


def _rank_mod(vectors: list[PairColumn], p: int) -> int:
    """Rank over F_p, sqrt2 sent to the square root 2^((p+1)/4) of 2 mod p.

    Each pivot row is scaled to 1 at its lead, its least index.
    """
    s = pow(2, (p + 1) // 4, p)
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = {i: x for i, (a, b) in vec.items() if (x := (a + b * s) % p)}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {i: x * inv % p for i, x in v.items()}
                break
            f = p - v[lead]
            for i, x in piv.items():
                y = (v.get(i, 0) + f * x) % p
                if y:
                    v[i] = y
                else:
                    del v[i]  # f * x is nonzero mod p, so v held i
    return len(pivots)


def independent_mod_p(maps: Sequence[LinearMap]) -> bool:
    """Whether the maps, read as vectors, are independent modulo 2^61 - 1.

    Reduction modulo a prime only lowers the rank, so True proves the maps
    linearly independent over Q(sqrt2); False proves nothing. A zero map
    answers False without any elimination.
    """
    if not all(m._cols for m in maps):
        return False
    return _rank_mod([_flat(m) for m in maps], next(_primes())) == len(maps)


def _weights(vectors: list[PairColumn]) -> tuple[list[int], list[int]]:
    """Row and column weights sum (|a| + 2|b|)^2, each sorted largest first."""
    rows: list[int] = []
    cols: dict[int, int] = {}
    for vec in vectors:
        total = 0
        for i, (a, b) in vec.items():
            w = (abs(a) + 2 * abs(b)) ** 2
            total += w
            cols[i] = cols.get(i, 0) + w
        rows.append(total)
    return sorted(rows, reverse=True), sorted(cols.values(), reverse=True)


def rank_of_vectors(vectors: Iterable[Mapping[int, Pair]], *,
                    ceiling: Optional[int] = None) -> int:
    """Exact rank over Q(sqrt2) of the span of sparse integer pair vectors
    (entries a + b sqrt2), such as those flatten returns.

    Zero vectors are dropped and the others divided by the gcd of their
    integers, which shrinks the bound. Primes are tried until the best rank
    seen is full, equals the ceiling, or their product exceeds the Hadamard
    bound for one more.

    The ceiling is the caller's proof that the rank is at most that number.
    A rank modulo a prime never exceeds the rank, so reaching the ceiling
    settles it. Every vector is still reduced, so a rank modulo a prime
    above a wrong ceiling is seen: a ceiling that is not the rank only
    leaves the bound to stop the search, and never changes the answer.
    """
    primitive: list[PairColumn] = []
    for vec in vectors:
        g = gcd(*(x for pair in vec.values() for x in pair))
        if g:
            primitive.append(vec if g == 1 else
                             {i: (a // g, b // g) for i, (a, b) in vec.items()})
    best, modulus, rows = 0, 1, []
    for p in _primes():
        best = max(best, _rank_mod(primitive, p))
        if best in (len(primitive), ceiling):
            return best
        modulus *= p
        if not rows:  # only a deficient rank needs the bound
            rows, cols = _weights(primitive)
        if modulus > min(prod(rows[:best + 1]), prod(cols[:best + 1])):
            return best
