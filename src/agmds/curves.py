"""Curves over finite fields and their rational-point groups.

Two models are supported:

* genus 1 — a general Weierstrass cubic
  ``y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6`` (the five-coefficient
  form keeps characteristic 2 and 3 uniform), and
* genus 2 — an odd-degree hyperelliptic model
  ``y^2 + h(x)*y = f(x)`` with deg f = 5 and deg h <= 2, which has exactly
  one point at infinity and Weierstrass gap structure {1, 3} there.

The module provides point enumeration, the chord-tangent group law,
integer labels for the point group (every group question past the
labelling is integer arithmetic), group-shape computation, subgroup/coset
machinery, curve search by point count, and the classification tables of
attainable orders and group shapes over F_q (cross-checked empirically by
the test suite).

A point count N of a genus-1 curve always satisfies |N - (q+1)| <= 2*sqrt(q).
Note the window endpoints are computed with integer flooring,
q + 1 +/- isqrt(4q).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from random import Random

from .errors import (
    BadModel,
    BudgetExhausted,
    MalformedText,
    NotAdmissible,
    NotPrimePower,
    OutsideHasse,
    PointNotOnCurve,
    Singular,
    TooLarge,
)
from .field import FieldSpec
from .intmath import factorint, prime_factors, prime_power_split

MAX_GENUS1_ORDER = 1 << 16
MAX_GENUS2_ORDER = 1 << 12


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """A rational point; x == y == None encodes the point at infinity."""

    x: int | None = None
    y: int | None = None

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def sort_key(self) -> tuple:
        if self.x is None:
            return (0, 0, 0)
        return (1, self.x, self.y)


INFINITY = CurvePoint.infinity()


class Curve:
    """A validated nonsingular curve model over a FieldSpec."""

    __slots__ = ("field", "genus", "coeffs", "_points", "_structure", "_labels")

    def __init__(self, field: FieldSpec, genus: int, coeffs: tuple):
        self.field = field
        self.genus = genus
        self.coeffs = coeffs
        self._points = None
        self._structure = None
        self._labels = None

    # coeffs layout: genus 1 -> (a1, a3, a2, a4, a6)
    #               genus 2 -> (f0..f5, h0, h1, h2)

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and self.field == other.field
            and self.genus == other.genus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.genus, self.coeffs))

    def __repr__(self):
        return f"Curve({self.text()!r} over {self.field.spec_text()})"

    def text(self) -> str:
        et = self.field.element_text
        if self.genus == 1:
            return "g1:" + ",".join(et(c) for c in self.coeffs)
        f = ",".join(et(c) for c in self.coeffs[:6])
        h = ",".join(et(c) for c in self.coeffs[6:])
        return f"g2:{f};{h}"

    # -- equation helpers ------------------------------------------------------

    def _rhs_quadratic(self, x: int) -> tuple[int, int]:
        """Coefficients (B, C) of y^2 + B*y = C at abscissa x."""
        F = self.field
        if self.genus == 1:
            a1, a3, a2, a4, a6 = self.coeffs
            b = F.add(F.mul(a1, x), a3)
            c = F.add(F.add(F.mul(F.mul(x, x), F.add(x, a2)), F.mul(a4, x)), a6)
            return b, c
        f = self.coeffs[:6]
        h = self.coeffs[6:]
        b = F.add(F.add(h[0], F.mul(h[1], x)), F.mul(h[2], F.mul(x, x)))
        c = 0
        for coef in reversed(f):
            c = F.add(F.mul(c, x), coef)
        return b, c

    def contains(self, point: CurvePoint) -> bool:
        if point.is_infinity:
            return True
        F = self.field
        b, c = self._rhs_quadratic(point.x)
        lhs = F.add(F.mul(point.y, point.y), F.mul(b, point.y))
        return lhs == c

    def point(self, x, y) -> CurvePoint:
        p = CurvePoint(x, y)
        if not self.contains(p):
            raise PointNotOnCurve(f"({x},{y}) not on {self.text()}")
        return p

    # -- enumeration ------------------------------------------------------------

    def points(self) -> tuple:
        """All rational points, infinity first, affine sorted by (x, y)."""
        if self._points is None:
            cap = MAX_GENUS1_ORDER if self.genus == 1 else MAX_GENUS2_ORDER
            if self.field.q > cap:
                raise TooLarge(
                    f"enumeration over q={self.field.q} exceeds cap {cap}"
                )
            pts = [INFINITY]
            solve = self.field.solve_quadratic
            for x in range(self.field.q):
                b, c = self._rhs_quadratic(x)
                for y in solve(b, c):
                    pts.append(CurvePoint(x, y))
            pts.sort(key=CurvePoint.sort_key)
            self._points = tuple(pts)
        return self._points

    def point_count(self) -> int:
        if self._points is not None:
            return len(self._points)
        cap = MAX_GENUS1_ORDER if self.genus == 1 else MAX_GENUS2_ORDER
        if self.field.q > cap:
            raise TooLarge(f"count over q={self.field.q} exceeds cap {cap}")
        F = self.field
        n = 1
        if F.p == 2:
            F._ensure_as()
            as_tab = F._as_tab
            for x in range(F.q):
                b, c = self._rhs_quadratic(x)
                if b == 0:
                    n += 1
                else:
                    w = F.mul(c, F.pow(F.inv(b), 2))
                    if w in as_tab:
                        n += 2
        else:
            chi = F.chi
            half = F.inv(F.from_int(2))
            for x in range(F.q):
                b, c = self._rhs_quadratic(x)
                if b:
                    sh = F.mul(b, half)
                    c = F.add(c, F.mul(sh, sh))
                n += 1 + chi(c)
        return n

    def affine_points(self) -> list:
        return [p for p in self.points() if not p.is_infinity]

    # -- genus-1 group law --------------------------------------------------------

    def _neg_xy(self, pt):
        if pt is None:
            return None
        F = self.field
        a1, a3 = self.coeffs[0], self.coeffs[1]
        x, y = pt
        return (x, F.sub(F.sub(F.neg(y), F.mul(a1, x)), a3))

    def _add_xy(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        F = self.field
        a1, a3, a2, a4, a6 = self.coeffs
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 != y2:
                return None  # the two y-values over one x are inverses
            denom = F.add(F.add(F.mul(F.from_int(2), y1), F.mul(a1, x1)), a3)
            if denom == 0:
                return None  # 2-torsion
            x1sq = F.mul(x1, x1)
            num_l = F.sub(
                F.add(
                    F.add(F.mul(F.from_int(3), x1sq), F.mul(F.mul(F.from_int(2), a2), x1)),
                    a4,
                ),
                F.mul(a1, y1),
            )
            num_n = F.sub(
                F.add(
                    F.add(F.neg(F.mul(x1sq, x1)), F.mul(a4, x1)),
                    F.mul(F.from_int(2), a6),
                ),
                F.mul(a3, y1),
            )
            idenom = F.inv(denom)
            lam = F.mul(num_l, idenom)
            nu = F.mul(num_n, idenom)
        else:
            idx = F.inv(F.sub(x2, x1))
            lam = F.mul(F.sub(y2, y1), idx)
            nu = F.mul(F.sub(F.mul(y1, x2), F.mul(y2, x1)), idx)
        x3 = F.sub(F.sub(F.sub(F.add(F.mul(lam, lam), F.mul(a1, lam)), a2), x1), x2)
        y3 = F.sub(F.sub(F.neg(F.mul(F.add(lam, a1), x3)), nu), a3)
        return (x3, y3)

    def _scalar_xy(self, k: int, P):
        if k < 0:
            return self._scalar_xy(-k, self._neg_xy(P))
        acc = None
        base = P
        while k:
            if k & 1:
                acc = self._add_xy(acc, base)
            base = self._add_xy(base, base)
            k >>= 1
        return acc

    def _as_xy(self, point: CurvePoint):
        if point.is_infinity:
            return None
        return (point.x, point.y)

    def _require_group(self):
        if self.genus != 1:
            raise BadModel("the group law is defined for genus-1 curves only")

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        self._require_group()
        for pt in (P, Q):
            if not self.contains(pt):
                raise PointNotOnCurve(f"{pt} not on {self.text()}")
        r = self._add_xy(self._as_xy(P), self._as_xy(Q))
        return INFINITY if r is None else CurvePoint(*r)

    def neg(self, P: CurvePoint) -> CurvePoint:
        self._require_group()
        if not self.contains(P):
            raise PointNotOnCurve(f"{P} not on {self.text()}")
        r = self._neg_xy(self._as_xy(P))
        return INFINITY if r is None else CurvePoint(*r)

    def scalar_mul(self, k: int, P: CurvePoint) -> CurvePoint:
        self._require_group()
        if not self.contains(P):
            raise PointNotOnCurve(f"{P} not on {self.text()}")
        r = self._scalar_xy(k, self._as_xy(P))
        return INFINITY if r is None else CurvePoint(*r)

    def point_order(self, P: CurvePoint) -> int:
        """Least t >= 1 with t*P = infinity (divides the group order)."""
        self._require_group()
        if not self.contains(P):
            raise PointNotOnCurve(f"{P} not on {self.text()}")
        n = len(self.points())
        t = n
        xy = self._as_xy(P)
        for l in prime_factors(n):
            while t % l == 0 and self._scalar_xy(t // l, xy) is None:
                t //= l
        return t


def hasse_window(q: int) -> tuple[int, int]:
    w = isqrt(4 * q)
    return q + 1 - w, q + 1 + w


def _b_invariants(F: FieldSpec, a1, a3, a2, a4, a6):
    c = F.from_int
    mul, add, sub = F.mul, F.add, F.sub
    b2 = add(mul(a1, a1), mul(c(4), a2))
    b4 = add(mul(c(2), a4), mul(a1, a3))
    b6 = add(mul(a3, a3), mul(c(4), a6))
    b8 = sub(
        add(
            add(mul(mul(a1, a1), a6), mul(mul(c(4), a2), a6)),
            mul(a2, mul(a3, a3)),
        ),
        add(mul(mul(a1, a3), a4), mul(a4, a4)),
    )
    return b2, b4, b6, b8


def discriminant_genus1(F: FieldSpec, coeffs) -> int:
    a1, a3, a2, a4, a6 = coeffs
    c = F.from_int
    mul, add, sub = F.mul, F.add, F.sub
    b2, b4, b6, b8 = _b_invariants(F, a1, a3, a2, a4, a6)
    t1 = mul(mul(b2, b2), b8)
    t2 = mul(c(8), mul(b4, mul(b4, b4)))
    t3 = mul(c(27), mul(b6, b6))
    t4 = mul(c(9), mul(b2, mul(b4, b6)))
    return sub(t4, add(add(t1, t2), t3))


def curve_make(field: FieldSpec, genus: int, coefficients) -> Curve:
    """Validate and build a curve.

    Genus 1 takes (a1, a3, a2, a4, a6); the discriminant must be nonzero.
    Genus 2 takes f-coefficients (length 6, f5 != 0) and optionally
    h-coefficients (up to 3); the model must be smooth over the algebraic
    closure, which polynomial gcds over F_q decide.
    """
    if genus == 1:
        coeffs = tuple(int(c) for c in coefficients)
        if len(coeffs) != 5:
            raise BadModel("genus-1 model needs 5 coefficients (a1,a3,a2,a4,a6)")
        if discriminant_genus1(field, coeffs) == 0:
            raise Singular(f"zero discriminant for g1:{coeffs}")
        return Curve(field, 1, coeffs)
    if genus == 2:
        coeffs = [int(c) for c in coefficients]
        if len(coeffs) == 6:
            coeffs += [0, 0, 0]
        if len(coeffs) != 9:
            raise BadModel("genus-2 model needs 6 f-coefficients and up to 3 h-coefficients")
        f = tuple(coeffs[:6])
        h = tuple(coeffs[6:])
        if f[5] == 0:
            raise BadModel("genus-2 model needs deg f = 5 exactly")
        curve = Curve(field, 2, f + h)
        _check_genus2_smooth(curve)
        return curve
    raise BadModel(f"unsupported genus {genus}")


def _check_genus2_smooth(curve: Curve):
    """Reject models that are singular anywhere over the algebraic closure.

    The affine singular points of y^2 + h*y = f are the common zeros of the
    curve and its partials (h'*y - f', 2y + h).  For odd p, completing the
    square turns the model into (2y + h)^2 = 4f + h^2, which is smooth
    exactly when 4f + h^2 is squarefree.  For p = 2 a singular point needs
    h(x) = 0 and then y^2 = f(x), h'(x)*y = f'(x), so the model is smooth
    exactly when gcd(h, h'^2*f + f'^2) = 1; h = 0 is always singular.
    The point at infinity of an odd-degree model is always smooth.
    """
    F = curve.field
    f = _poly_trim(list(curve.coeffs[:6]))
    h = _poly_trim(list(curve.coeffs[6:]))
    if F.p == 2:
        dh, df = _poly_deriv(F, h), _poly_deriv(F, f)
        g = _poly_gcd(F, h, _poly_add(F, _poly_mul(F, _poly_mul(F, dh, dh), f),
                                      _poly_mul(F, df, df)))
        reason = "h has a root where h'^2*f + f'^2 vanishes"
    else:
        disc = _poly_add(F, [F.mul(F.from_int(4), c) for c in f], _poly_mul(F, h, h))
        g = _poly_gcd(F, disc, _poly_deriv(F, disc))
        reason = "4f + h^2 is not squarefree"
    if len(g) != 1:
        raise Singular(f"{curve.text()} is singular over the algebraic closure: {reason}")


# -- polynomials over F_q, coefficient lists low degree first ------------------------


def _poly_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_add(F: FieldSpec, a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _poly_trim([F.add(c, b[i]) if i < len(b) else c for i, c in enumerate(a)])


def _poly_mul(F: FieldSpec, a: list, b: list) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _poly_trim(out)


def _poly_deriv(F: FieldSpec, a: list) -> list:
    return _poly_trim([F.mul(F.from_int(i), a[i]) for i in range(1, len(a))])


def _poly_gcd(F: FieldSpec, a: list, b: list) -> list:
    """A greatest common divisor (not normalized); [] only for gcd(0, 0)."""
    a, b = list(a), list(b)
    while b:
        inv_lead = F.inv(b[-1])
        while len(a) >= len(b):
            c = F.mul(a[-1], inv_lead)
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = F.sub(a[shift + i], F.mul(c, y))
            _poly_trim(a)
        a, b = b, a
    return a


# -- integer labels for the point group -----------------------------------------------


class PointLabels:
    """Integer coordinates for the rational points of a genus-1 curve.

    The point group is Z/d1 x Z/d2 (d1 | d2) with a basis (P1, P2) of
    orders d1 and d2; the point i*P1 + j*P2 carries the label (i, j).
    Labels add coordinatewise, so orders, spans and cosets are integer
    arithmetic.
    """

    __slots__ = ("d1", "d2", "_label", "_point")

    def __init__(self, d1: int, d2: int, label: dict, point: dict):
        self.d1 = d1
        self.d2 = d2
        self._label = label
        self._point = point

    def of(self, pt: CurvePoint) -> tuple[int, int]:
        try:
            return self._label[pt]
        except KeyError:
            raise PointNotOnCurve(f"{pt} is not a rational point of the curve") from None

    def point(self, a: tuple[int, int]) -> CurvePoint:
        return self._point[a]

    def sorted_points(self, labels) -> list:
        return sorted((self._point[a] for a in labels), key=CurvePoint.sort_key)

    def add(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return (a[0] + b[0]) % self.d1, (a[1] + b[1]) % self.d2

    def scale(self, k: int, a: tuple[int, int]) -> tuple[int, int]:
        return k * a[0] % self.d1, k * a[1] % self.d2

    def order(self, a: tuple[int, int]) -> int:
        o1 = self.d1 // gcd(a[0], self.d1)
        o2 = self.d2 // gcd(a[1], self.d2)
        return o1 * o2 // gcd(o1, o2)

    def span(self, generators) -> set:
        """The labels of the subgroup the given labels generate."""
        return _closure(self.add, (0, 0), generators)

    def torsion(self, n: int) -> list:
        """The labels killed by n: the n-torsion Z/gcd(n,d1) x Z/gcd(n,d2)."""
        s1, s2 = self.d1 // gcd(n, self.d1), self.d2 // gcd(n, self.d2)
        return [(i, j) for i in range(0, self.d1, s1) for j in range(0, self.d2, s2)]


def point_labels(curve: Curve) -> PointLabels:
    """The integer labels of the curve's points, computed once per curve.

    A basis is built prime by prime (_sylow_basis) and CRT-combined into
    P1 of order d1 and P2 of order d2; labelling then walks the grid
    i*P1 + j*P2 with N additions.
    """
    curve._require_group()
    if curve._labels is None:
        n = len(curve.points())
        add = curve._add_xy
        p1 = p2 = None
        d1 = 1
        for l, h in factorint(n).items():
            g_max, g_other, a = _sylow_basis(curve, n, l, h)
            p2 = add(p2, g_max)
            p1 = add(p1, g_other)
            d1 *= l**a
        d2 = n // d1
        label: dict = {}
        point: dict = {}
        row = None
        for i in range(d1):
            xy = row
            for j in range(d2):
                pt = INFINITY if xy is None else CurvePoint(*xy)
                label[pt] = (i, j)
                point[(i, j)] = pt
                xy = add(xy, p2)
            row = add(row, p1)
        if len(label) != n:  # pragma: no cover - consistency guard
            raise AssertionError(f"basis of {curve.text()} does not span {n} points")
        curve._labels = PointLabels(d1, d2, label, point)
        curve._structure = (d1, d2)
    return curve._labels


def _xy_key(xy) -> tuple:
    return (0,) if xy is None else (1, *xy)


def _sylow_basis(curve: Curve, n: int, l: int, h: int):
    """A basis (G, H, a) of the l-Sylow subgroup Z/l^a x Z/l^(h-a), a <= h-a:
    G of maximal order l^(h-a), H of order l^a with <G> + <H> the whole
    l-part (H is None when a = 0).  Group elements are xy pairs.

    Points, walked in sorted order, are mapped into the l-part by the
    cofactor n / l^h.  When the l-part must be cyclic (h = 1, or l does not
    divide q - 1, by the Weil pairing) the first image of order l^h is G.
    Otherwise the images' span is closed until it has l^h elements; G is
    its first element of maximal order and H the first of order l^a whose
    order-l multiple lies outside <G>.
    """
    scalar, add = curve._scalar_xy, curve._add_xy
    size = l**h
    cofactor = n // size
    images = (scalar(cofactor, curve._as_xy(pt)) for pt in curve.points())
    if h == 1 or (curve.field.q - 1) % l:
        for g in images:
            if scalar(size // l, g) is not None:
                return g, None, 0
        raise AssertionError(f"no element of order {size}")  # pragma: no cover
    elements = sorted(_closure(add, None, images, size), key=_xy_key)
    times_l = {x: scalar(l, x) for x in elements}

    def log_order(x) -> int:  # log_l of the order of x
        e = 0
        while x is not None:
            x = times_l[x]
            e += 1
        return e

    order = {x: log_order(x) for x in elements}
    top = max(order.values())
    g_max = next(x for x in elements if order[x] == top)
    a = h - top
    if a == 0:
        return g_max, None, 0
    cyclic = _closure(add, None, [g_max])
    for x in elements:
        if order[x] == a:
            y = x
            for _ in range(a - 1):
                y = times_l[y]
            if y not in cyclic:
                return g_max, x, a
    raise AssertionError(f"no complement to <G> in the {l}-part")  # pragma: no cover


def _closure(add, zero, generators, size: int = 0) -> set:
    """The subgroup the generators span under add (identity zero).  With a
    size, generators stop being drawn once the span has that many elements.

    Joining g to a subgroup H adds the cosets H + k*g for k below the
    first k with k*g in H.
    """
    span = {zero}
    for g in generators:
        if len(span) == size:
            break
        grown = set(span)
        step = g
        while step not in span:
            grown.update(add(s, step) for s in span)
            step = add(step, g)
        span = grown
    return span


# -- subgroups and cosets ------------------------------------------------------------


def subgroup_closure(curve: Curve, generators) -> list:
    """The subgroup generated by the given points, sorted deterministically."""
    labels = point_labels(curve)
    return labels.sorted_points(labels.span(map(labels.of, generators)))


def coset(curve: Curve, subgroup_points, rep: CurvePoint) -> list:
    """The coset rep + S as a sorted point list."""
    labels = point_labels(curve)
    r = labels.of(rep)
    return labels.sorted_points(labels.add(r, labels.of(s)) for s in subgroup_points)


def group_structure(curve: Curve) -> tuple[int, int]:
    """The pair (d1, d2), d1 | d2, with the point group = Z/d1 x Z/d2.

    Only an l-part with l | q - 1 and l^2 | N can be non-cyclic (Weil
    pairing), so d1 is assembled from the Sylow bases of those primes
    alone; the rest of the group is never labelled.
    """
    curve._require_group()
    if curve._structure is None:
        n = len(curve.points())
        q = curve.field.q
        d1 = 1
        for l, h in factorint(n).items():
            if h >= 2 and (q - 1) % l == 0:
                d1 *= l ** _sylow_basis(curve, n, l, h)[2]
        curve._structure = (d1, n // d1)
    return curve._structure


# -- order and shape classification ---------------------------------------------------


def _beta_admissible(beta: int, p: int, n: int, q: int) -> bool:
    """Whether the trace value beta = q + 1 - N can occur for a genus-1
    curve over F_q, q = p^n.  The attainable traces in |beta| <= 2*sqrt(q)
    are: those coprime to p; +/-2*sqrt(q) for even n; +/-sqrt(q) for even n
    when p != 1 mod 3; +/-p^((n+1)/2) for odd n when p is 2 or 3; and 0
    when n is odd or p != 1 mod 4."""
    if beta * beta > 4 * q:
        return False
    if beta != 0 and gcd(beta, p) == 1:
        return True
    if n % 2 == 0:
        if beta * beta == 4 * q:
            return True
        if beta * beta == q and p % 3 != 1:
            return True
    if n % 2 == 1 and p in (2, 3) and beta * beta == p * q:
        return True
    if beta == 0 and (n % 2 == 1 or p % 4 != 1):
        return True
    return False


def _is_supersingular_extreme(beta: int, n: int, q: int) -> bool:
    """The forced-shape case: even extension degree and beta = +/-2*sqrt(q)."""
    return n % 2 == 0 and beta * beta == 4 * q


def admissible_curve_orders(q: int) -> list[int]:
    """All point counts realized by genus-1 curves over F_q, sorted."""
    try:
        p, n = prime_power_split(q)
    except ValueError as exc:
        raise NotPrimePower(str(exc)) from None
    w = isqrt(4 * q)
    return sorted(
        q + 1 - beta for beta in range(-w, w + 1) if _beta_admissible(beta, p, n, q)
    )


def admissible_group_structures(q: int, n_points: int) -> list[tuple[int, int]]:
    """All group shapes (d1, d2) realized by genus-1 curves over F_q with
    the given point count, sorted; empty if the count itself is not
    attainable.

    The p-part is always cyclic.  For each other prime l with l^h || N the
    split exponent a ranges over 0..min(v_l(q-1), h//2), except in the
    forced case (even extension degree, extreme trace) where a = h/2.
    """
    try:
        p, n = prime_power_split(q)
    except ValueError as exc:
        raise NotPrimePower(str(exc)) from None
    beta = q + 1 - n_points
    if not _beta_admissible(beta, p, n, q):
        return []
    fac = factorint(n_points) if n_points > 1 else {}
    forced = _is_supersingular_extreme(beta, n, q)
    choices: list[int] = [1]
    qm1 = factorint(q - 1) if q > 2 else {}
    for l, h in fac.items():
        if l == p:
            continue
        if forced:
            if h % 2 != 0:  # pragma: no cover - cannot happen for extreme traces
                return []
            exps = [h // 2]
        else:
            cap = min(qm1.get(l, 0), h // 2)
            exps = list(range(cap + 1))
        choices = [c * (l**a) for c in choices for a in exps]
    return sorted({(d1, n_points // d1) for d1 in choices})


def is_admissible_structure(q: int, n_points: int, d1: int, d2: int) -> bool:
    if d1 * d2 != n_points or d2 % d1 != 0:
        return False
    return (d1, d2) in admissible_group_structures(q, n_points)


# -- curve families and search ----------------------------------------------------------


def curve_family(field: FieldSpec):
    """Deterministic iterator over nonsingular genus-1 curves covering every
    isomorphism class over the field.

    Odd characteristic: y^2 = x^3 + a2 x^2 + a4 x + a6 (completing the
    square removes a1, a3 without changing the point group); for p >= 5 the
    x-shift also removes a2.  Characteristic 2: the two standard families
    y^2 + xy = x^3 + a2 x^2 + a6 (a6 != 0) and y^2 + a3 y = x^3 + a4 x + a6
    (a3 != 0).
    """
    q = field.q
    if field.p == 2:
        for a6 in range(1, q):
            for a2 in range(q):
                yield Curve(field, 1, (1, 0, a2, 0, a6))
        for a3 in range(1, q):
            for a4 in range(q):
                for a6 in range(q):
                    coeffs = (0, a3, 0, a4, a6)
                    yield Curve(field, 1, coeffs)
        return
    if field.p == 3:
        for a2 in range(q):
            for a4 in range(q):
                for a6 in range(q):
                    coeffs = (0, 0, a2, a4, a6)
                    if discriminant_genus1(field, coeffs) != 0:
                        yield Curve(field, 1, coeffs)
        return
    for a4 in range(q):
        for a6 in range(q):
            coeffs = (0, 0, 0, a4, a6)
            if discriminant_genus1(field, coeffs) != 0:
                yield Curve(field, 1, coeffs)


def random_curve(field: FieldSpec, rng: Random) -> Curve:
    """A uniformly random nonsingular curve in full five-coefficient form."""
    q = field.q
    while True:
        coeffs = tuple(rng.randrange(q) for _ in range(5))
        if discriminant_genus1(field, coeffs) != 0:
            return Curve(field, 1, coeffs)


def attained_orders(field: FieldSpec) -> set[int]:
    """Point counts attained over the family of all isomorphism classes."""
    return {c.point_count() for c in curve_family(field)}


def attained_structures(field: FieldSpec) -> set[tuple[int, tuple[int, int]]]:
    """(N, (d1, d2)) pairs attained over the family of all isomorphism
    classes."""
    out = set()
    for c in curve_family(field):
        out.add((len(c.points()), group_structure(c)))
    return out


_EXHAUSTIVE_FAMILY_CAP = 3000


def _matching_curves(
    field: FieldSpec,
    n_points: int,
    shape: tuple[int, int] | None,
    seed: int,
    draws: int,
    family_cap: int = _EXHAUSTIVE_FAMILY_CAP,
):
    """Distinct curves with exactly n_points rational points (and the
    requested (d1, d2) shape, if given), in a seeded order.

    Fields of order at most family_cap walk curve_family in its
    deterministic order; larger ones draw `draws` seeded random
    five-coefficient models, skipping repeats.
    """

    def matches(curve: Curve) -> bool:
        return curve.point_count() == n_points and (
            shape is None or group_structure(curve) == tuple(shape)
        )

    if field.q <= family_cap:
        yield from filter(matches, curve_family(field))
        return
    rng = Random(seed)
    seen = set()
    for _ in range(draws):
        curve = random_curve(field, rng)
        if curve.coeffs not in seen:
            seen.add(curve.coeffs)
            if matches(curve):
                yield curve


def find_curve_with_order(
    field: FieldSpec,
    n_points: int,
    shape: tuple[int, int] | None = None,
    seed: int = 0,
    budget: int = 200_000,
) -> Curve:
    """First curve over the field with exactly n_points rational points
    (and the requested (d1, d2) shape, if given).

    The family is scanned exhaustively in deterministic order when the
    field is small; above the cap, seeded random five-coefficient models
    are drawn until the budget runs out.
    """
    lo, hi = hasse_window(field.q)
    if not lo <= n_points <= hi:
        raise OutsideHasse(f"N={n_points} outside [{lo}, {hi}] for q={field.q}")
    if n_points not in admissible_curve_orders(field.q):
        raise NotAdmissible(f"N={n_points} is not an attainable point count for q={field.q}")
    if shape is not None and tuple(shape) not in admissible_group_structures(
        field.q, n_points
    ):
        raise NotAdmissible(
            f"shape {tuple(shape)} is not attainable for N={n_points}, q={field.q}"
        )
    curve = next(_matching_curves(field, n_points, shape, seed, budget), None)
    if curve is None:
        want = f"N={n_points}" + (f" and shape {tuple(shape)}" if shape else "")
        raise BudgetExhausted(f"no curve with {want} over q={field.q}")
    return curve


def parse_curve_text(field: FieldSpec, text: str) -> Curve:
    """Parse ``g1:a1,a3,a2,a4,a6`` or ``g2:f0,...,f5;h0,h1,h2``."""
    text = text.strip()
    kind, _, body = text.partition(":")
    if kind == "g1":
        coeffs = [field.parse_element(t) for t in _split_elements(body)]
        return curve_make(field, 1, coeffs)
    if kind == "g2":
        f_txt, _, h_txt = body.partition(";")
        coeffs = [field.parse_element(t) for t in _split_elements(f_txt)]
        if h_txt.strip():
            coeffs += [field.parse_element(t) for t in _split_elements(h_txt)]
        return curve_make(field, 2, coeffs)
    raise BadModel(f"unknown curve text {text!r}")


def _split_elements(body: str) -> list[str]:
    """Split on commas at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p for p in (s.strip() for s in parts) if p]


def point_text(field: FieldSpec, point: CurvePoint) -> str:
    if point.is_infinity:
        return "inf"
    return f"({field.element_text(point.x)},{field.element_text(point.y)})"


def parse_point_text(field: FieldSpec, text: str) -> CurvePoint:
    text = text.strip()
    if text == "inf":
        return INFINITY
    parts = _split_elements(text[1:-1])
    if not (text.startswith("(") and text.endswith(")")) or len(parts) != 2:
        raise MalformedText(f"malformed point text {text!r}")
    return CurvePoint(*(field.parse_element(t) for t in parts))
