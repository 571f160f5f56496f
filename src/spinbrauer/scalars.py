"""Exact scalar arithmetic: the polynomial ring Z[delta] and the field Q(sqrt2).

Everything here is immutable and exact; there is no floating point anywhere
in this package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

__all__ = ["DeltaPolynomial", "RootTwoNumber"]


def _check_int(x: object) -> None:
    """Refuse a float, a bool or a numeric string, which int() would coerce."""
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")


class DeltaPolynomial:
    """A polynomial in the circuit parameter delta with integer coefficients.

    Stored sparsely as exponent -> coefficient; zero coefficients are never
    kept, so the zero polynomial has an empty table.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        # The exact-type test spares dicts, the common case, an ABC check.
        if type(coeffs) is dict or isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = coeffs
        table: dict[int, int] = {}
        for exp, c in items:
            _check_int(exp)
            _check_int(c)
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            c = table.get(exp, 0) + c
            if c:
                table[exp] = c
            else:
                table.pop(exp, None)
        self._coeffs = table

    @classmethod
    def _wrap(cls, table: dict[int, int]) -> DeltaPolynomial:
        """Adopt a table that already has no zero coefficients, unchecked."""
        out = cls.__new__(cls)
        out._coeffs = table
        return out

    @classmethod
    def zero(cls) -> DeltaPolynomial:
        return cls._wrap({})

    @classmethod
    def one(cls) -> DeltaPolynomial:
        return cls._wrap({0: 1})

    @classmethod
    def constant(cls, k: int) -> DeltaPolynomial:
        _check_int(k)
        return cls._wrap({0: k} if k else {})

    @classmethod
    def delta(cls, power: int = 1) -> DeltaPolynomial:
        _check_int(power)
        if power < 0:
            raise ValueError(f"negative exponent {power}")
        return cls._wrap({power: 1})

    @property
    def degree(self) -> int:
        """Largest stored exponent; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({0: other} if other else {})
        if not isinstance(other, DeltaPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        # A constant equals the int it holds, so it must hash like that int.
        if self._coeffs.keys() <= {0}:
            return hash(self._coeffs.get(0, 0))
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> DeltaPolynomial:
        return DeltaPolynomial._wrap({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: Union[DeltaPolynomial, int]) -> DeltaPolynomial:
        if isinstance(other, int):
            other = DeltaPolynomial.constant(other)
        if not isinstance(other, DeltaPolynomial):
            return NotImplemented
        table = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = table.get(e, 0) + c
            if s:
                table[e] = s
            else:
                table.pop(e, None)
        return DeltaPolynomial._wrap(table)

    __radd__ = __add__

    def __sub__(self, other: Union[DeltaPolynomial, int]) -> DeltaPolynomial:
        return self + (-other if isinstance(other, DeltaPolynomial) else -other)

    def __rsub__(self, other: int) -> DeltaPolynomial:
        return (-self) + other

    def __mul__(self, other: Union[DeltaPolynomial, int]) -> DeltaPolynomial:
        if isinstance(other, int):
            if not other:
                return DeltaPolynomial.zero()
            return DeltaPolynomial._wrap({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, DeltaPolynomial):
            return NotImplemented
        table: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = table.get(e, 0) + c1 * c2
                if s:
                    table[e] = s
                else:
                    table.pop(e, None)
        return DeltaPolynomial._wrap(table)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> DeltaPolynomial:
        if k < 0:
            raise ValueError("negative power")
        out = DeltaPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def eval_at(self, k: int) -> int:
        """Substitute delta := k; exact integer result."""
        return sum(c * k**e for e, c in self._coeffs.items())

    def to_pairs(self) -> list[list[int]]:
        """Serialized form: [exponent, coefficient] pairs sorted by exponent."""
        return [[e, c] for e, c in sorted(self._coeffs.items())]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> DeltaPolynomial:
        """Inverse of to_pairs; as strict as the constructor."""
        return cls((e, c) for e, c in pairs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            if e == 0:
                parts.append(f"{c:+d}")
            elif e == 1:
                parts.append(f"{c:+d}*d")
            else:
                parts.append(f"{c:+d}*d^{e}")
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:
        return f"DeltaPolynomial({self.to_pairs()!r})"


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RootTwoNumber:
    """An element a + b*sqrt(2) of the real quadratic field Q(sqrt2).

    Components are Fractions, so canonical form (lowest terms, positive
    denominator) is automatic.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RootTwoNumber is immutable")

    @classmethod
    def sqrt2(cls) -> RootTwoNumber:
        return cls(0, 1)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = RootTwoNumber(other)
        if not isinstance(other, RootTwoNumber):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        # A rational element equals the int it holds, so it must hash alike.
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __neg__(self) -> RootTwoNumber:
        return RootTwoNumber(-self.a, -self.b)

    def __add__(self, other: Union[RootTwoNumber, int, Fraction]) -> RootTwoNumber:
        # Fraction is tested last: isinstance against it is an ABC check.
        if isinstance(other, RootTwoNumber):
            return RootTwoNumber(self.a + other.a, self.b + other.b)
        if isinstance(other, (int, Fraction)):
            return RootTwoNumber(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Union[RootTwoNumber, int, Fraction]) -> RootTwoNumber:
        if isinstance(other, RootTwoNumber):
            return RootTwoNumber(self.a - other.a, self.b - other.b)
        if isinstance(other, (int, Fraction)):
            return RootTwoNumber(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other: Union[int, Fraction]) -> RootTwoNumber:
        return (-self) + other

    def __mul__(self, other: Union[RootTwoNumber, int, Fraction]) -> RootTwoNumber:
        if isinstance(other, (int, Fraction)):
            return RootTwoNumber(self.a * other, self.b * other)
        if not isinstance(other, RootTwoNumber):
            return NotImplemented
        return RootTwoNumber(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def conjugate(self) -> RootTwoNumber:
        """Galois conjugate a - b*sqrt(2)."""
        return RootTwoNumber(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (product with the conjugate)."""
        return self.a * self.a - 2 * self.b * self.b

    def inverse(self) -> RootTwoNumber:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
        return RootTwoNumber(self.a / n, -self.b / n)

    def __truediv__(self, other: Union[RootTwoNumber, int]) -> RootTwoNumber:
        if isinstance(other, int):
            other = RootTwoNumber(other)
        return self * other.inverse()

    def to_json(self) -> dict[str, str]:
        return {"a": str(self.a), "b": str(self.b)}

    @classmethod
    def from_json(cls, obj: Mapping[str, str]) -> RootTwoNumber:
        return cls(Fraction(obj["a"]), Fraction(obj["b"]))

    def __str__(self) -> str:
        return f"{self.a}+{self.b}*sqrt2"

    def __repr__(self) -> str:
        return f"RootTwoNumber({self.a!r}, {self.b!r})"
