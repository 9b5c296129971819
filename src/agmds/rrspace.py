"""Monomial bases of the one-point function spaces L(m * P0).

P0 is the point at infinity of the curve model.  On a genus-1 Weierstrass
curve x has a double pole and y a triple pole at P0; on the odd-degree
genus-2 model x has a double pole and y a five-fold pole.  The monomials
x^i * y^j with j <= 1 realize exactly one function per attainable pole
order, so collecting those with pole order <= m gives a basis of L(m*P0).
Gap orders ({1} for genus 1, {1, 3} for genus 2) have no function.
A monomial is evaluated at a point given as its plain (x, y) tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import Curve
from .errors import DegreeOutOfRange, InfinityEvaluation
from .field import FieldSpec


@dataclass(frozen=True, slots=True)
class RRBasis:
    """Monomial basis of L(m*P0): exponent pairs (i, j) meaning x^i * y^j."""

    curve: Curve
    m: int
    monomials: tuple
    pole_orders: tuple

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def y_pole_order(curve: Curve) -> int:
    """The pole order 2g + 1 of y at P0 on the odd-degree model
    y^2 + h(x)*y = f(x), deg f = 2g + 1: 3 for genus 1 and 5 for genus 2."""
    return 2 * curve.genus + 1


def rr_basis(curve: Curve, m: int) -> RRBasis:
    """Basis of L(m*P0), monomials sorted by increasing pole order."""
    if m < 0:
        raise DegreeOutOfRange(f"divisor degree must be >= 0, got {m}")
    ypole = y_pole_order(curve)
    monos = []
    for j in (0, 1):
        i = 0
        while 2 * i + ypole * j <= m:
            monos.append((2 * i + ypole * j, (i, j)))
            i += 1
    monos.sort()
    return RRBasis(
        curve=curve,
        m=m,
        monomials=tuple(mono for _, mono in monos),
        pole_orders=tuple(order for order, _ in monos),
    )


def evaluate_monomial(field: FieldSpec, monomial: tuple, point: tuple) -> int:
    """Evaluate x^i * y^j at an affine point (x, y); returns an element code."""
    if not point:
        raise InfinityEvaluation("cannot evaluate at the point at infinity")
    i, j = monomial
    x, y = point
    v = field.pow(x, i)
    if j:
        v = field.mul(v, field.pow(y, j))
    return v
