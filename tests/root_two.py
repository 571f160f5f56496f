"""Field operations of Q(sqrt2) that only the tests need: the package
computes with integer pairs and never divides a RootTwoNumber."""

from fractions import Fraction

from spinbrauer.scalars import RootTwoNumber

SQRT2 = RootTwoNumber(0, 1)


def conjugate(x: RootTwoNumber) -> RootTwoNumber:
    """Galois conjugate a - b*sqrt(2)."""
    return RootTwoNumber(x.a, -x.b)


def norm(x: RootTwoNumber) -> Fraction:
    """Field norm a^2 - 2 b^2 (product with the conjugate)."""
    return x.a * x.a - 2 * x.b * x.b


def inverse(x: RootTwoNumber) -> RootTwoNumber:
    n = norm(x)
    if n == 0:
        raise ZeroDivisionError("inverse of zero in Q(sqrt2)")
    return RootTwoNumber(x.a / n, -x.b / n)
