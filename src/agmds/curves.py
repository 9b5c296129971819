"""Curves over finite fields and their rational-point groups.

Two models are supported:

* genus 1 — a general Weierstrass cubic
  ``y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6`` (the five-coefficient
  form keeps characteristic 2 and 3 uniform), and
* genus 2 — an odd-degree hyperelliptic model
  ``y^2 + h(x)*y = f(x)`` with deg f = 5 and deg h <= 2, which has exactly
  one point at infinity and Weierstrass gap structure {1, 3} there.

The module provides point enumeration in (x, y) order, the chord-tangent
group law from one slope, integer labels for the point group (every group
question past the labelling is integer arithmetic), group-shape
computation, subgroup/coset machinery, curve search by point count (one
verdict per isomorphism class: the ordinary characteristic-2 family is
walked by its two classes per a6, fixed by Tr(a2), and p >= 5 keys its
classes), and the classification tables of attainable orders and group
shapes over F_q (cross-checked empirically by the test suite).

Enumeration reduces to x alone: at x the model is y^2 + b*y = c.  A genus-1
curve solves it from the log tables: an ordinary curve in characteristic 2
in u = b = a1*x + a3 with the Artin-Schreier table (y = u*z, and
z^2 + z = c/u^2 is a Laurent polynomial in u with per-curve coefficients, so
each abscissa takes one log), an odd-characteristic curve by completing the
square and reading squares off the parity of the log.  The other curves
(a1 = 0 in characteristic 2, and genus 2) use FieldSpec.solve_quadratic.
The group law is read on the log tables too, bound once per curve.

A point is a plain tuple, (x, y) or () for the point at infinity
(INFINITY), so tuple order is point order, `not P` tests for infinity and
x, y = P reads an affine point; enumeration, the group law, the labels and
every function of the API take and return such tuples.

A point count N of a genus-1 curve always satisfies |N - (q+1)| <= 2*sqrt(q).
Note the window endpoints are computed with integer flooring,
q + 1 +/- isqrt(4q).
"""

from __future__ import annotations

from itertools import groupby, islice, repeat
from math import gcd, isqrt
from operator import itemgetter
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

MAX_GENUS2_ORDER = 1 << 12


INFINITY = ()


class Curve:
    """A validated nonsingular curve model over a FieldSpec."""

    __slots__ = (
        "field", "genus", "coeffs", "_points", "_sylow", "_structure", "_labels", "_law",
    )

    def __init__(self, field: FieldSpec, genus: int, coeffs: tuple):
        self.field = field
        self.genus = genus
        self.coeffs = coeffs
        self._points = None
        self._sylow = {}  # l -> the l-Sylow basis, built once (_sylow_basis)
        self._structure = None
        self._labels = None
        self._law = None  # the group law, bound once (_group_law)

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

    def contains(self, point: tuple) -> bool:
        """Whether the point is () or an (x, y) tuple of codes on the model;
        anything else (None, a list, a tuple of another length) is not."""
        if point == ():
            return True
        if not isinstance(point, tuple) or len(point) != 2:
            return False
        F = self.field
        x, y = point
        if not (0 <= x < F.q and 0 <= y < F.q):
            return False
        b, c = self._rhs_quadratic(x)
        return F.add(F.mul(y, y), F.mul(b, y)) == c

    def _require_on(self, point: tuple):
        if not self.contains(point):
            raise PointNotOnCurve(f"{_given_point_text(self.field, point)} not on {self.text()}")

    def point(self, x, y) -> tuple:
        self._require_on((x, y))
        return x, y

    # -- enumeration ------------------------------------------------------------

    def _require_enumerable(self, what: str):
        # FieldSpec caps q at 2^16, which is the genus-1 cap
        if self.genus == 2 and self.field.q > MAX_GENUS2_ORDER:
            raise TooLarge(f"{what} over q={self.field.q} exceeds cap {MAX_GENUS2_ORDER}")

    def _char2_points(self):
        """The affine points of an ordinary genus-1 curve in characteristic 2, in
        order: at x, y^2 + b*y = c with b = a1*x + a3 and
        c = ((x + a2)*x + a4)*x + a6 has the root sqrt(c) if b = 0, else b*z, b*z + b
        for z^2 + z = c/b^2, where z is read from the field's Artin-Schreier list
        (None: no root).

        An ordinary curve (a1 != 0) is read in u = b: x = e*u + f with e = 1/a1 and
        f = a3/a1, so c/u^2 = alpha3*u + alpha2 + alpha1/u + alpha0/u^2 with the
        per-curve constants alpha3 = e^3, alpha2 = e^2*(f + a2), alpha1 = e*(f^2 + a4)
        and alpha0 = c(f) (Menezes, Elliptic Curve Public Key Cryptosystems, ch. 3).
        Each x then takes one log, lu = log u, and u = 0 (x = f) has the one root
        sqrt(alpha0).  The constants are read on logs, reduced mod q - 1, and a zero
        alpha1 or alpha0 drops its term (log 0 is -1).  exp has period q - 1 and
        length 2(q - 1), so it takes every index in [-2(q - 1), 2(q - 1)) as it
        stands, and each index lies there: log alpha3 + lu and lu + log z in
        [0, 2(q - 1)), log alpha1 - lu in (-(q - 1), q - 1) and log alpha0 - 2*lu in
        (-2(q - 1), q - 1)."""
        F = self.field
        exp, log, as_tab = F._exp, F._log, F._as_tab
        a1, a3, a2, a4, a6 = self.coeffs
        order = F.q - 1
        le = -log[a1] % order
        lf = (le + log[a3]) % order if a3 else -1
        f = exp[lf] if a3 else 0
        fa2 = f ^ a2
        alpha2 = exp[(2 * le + log[fa2]) % order] if fa2 else 0
        t = exp[2 * lf] ^ a4 if f else a4  # f^2 + a4
        l1 = (le + log[t]) % order if t else -1
        t = exp[log[fa2] + lf] ^ a4 if f and fa2 else a4  # (f + a2)*f + a4
        alpha0 = exp[log[t] + lf] ^ a6 if f and t else a6
        l3, l0, la1 = 3 * le % order, log[alpha0], log[a1]
        for x in range(F.q):
            u = exp[la1 + log[x]] ^ a3 if x else a3
            if u == 0:
                yield x, F.frobenius_sqrt(alpha0)
                continue
            lu = log[u]
            w = exp[l3 + lu] ^ alpha2
            if l1 >= 0:
                w ^= exp[l1 - lu]
            if l0 >= 0:
                w ^= exp[l0 - 2 * lu]
            z = as_tab[w]
            if z is not None:
                y = exp[lu + log[z]] if z else 0
                y1 = y ^ u
                if y1 < y:
                    y, y1 = y1, y
                yield x, y
                yield x, y1

    def _completed_squares(self):
        """For each x of a genus-1 curve in odd characteristic, in order, the
        triple (x, s, d) with y^2 + b*y = c rewritten as (y - s)^2 = d:
        s = -b/2 and d = c + s^2, for b = a1*x + a3 and
        c = ((x + a2)*x + a4)*x + a6.  Products are read on the log tables
        (a zero factor, whose log is -1, is skipped) and sums go through
        F.add; every index is a sum of two logs, in [0, 2(q - 1) - 2], which
        the doubled exp table holds."""
        F = self.field
        exp, log, add = F._exp, F._log, F.add
        a1, a3, a2, a4, a6 = self.coeffs
        la1 = log[a1]
        lh = log[F.neg(F.inv(F.from_int(2)))]  # log(-1/2)
        has_b = a1 or a3
        s = 0
        for x in range(F.q):
            lx = log[x]
            t = add(x, a2) if a2 else x
            t = exp[log[t] + lx] if t and x else 0
            if a4:
                t = add(t, a4)
            c = exp[log[t] + lx] if t and x else 0
            if a6:
                c = add(c, a6)
            if has_b:
                b = exp[la1 + lx] if a1 and x else 0
                if a3:
                    b = add(b, a3)
                s = exp[log[b] + lh] if b else 0
                if s:
                    c = add(c, exp[2 * log[s]])
            yield x, s, c

    def _odd_points(self):
        """The affine points of a genus-1 curve in odd characteristic, in order:
        (y - s)^2 = d (_completed_squares) has the one root s if d = 0, and
        s +/- g^(log(d)/2) if log(d) is even (Euler's criterion: the
        generator g is a non-square), else none.  log(d) >> 1 and
        log(d) >> 1 + (q - 1)/2 (the log of the negated root) lie in
        [0, q - 1), inside the doubled exp table."""
        F = self.field
        exp, log, add = F._exp, F._log, F.add
        half = F.q >> 1  # -1 = g^((q - 1)/2)
        for x, s, d in self._completed_squares():
            if d == 0:
                yield x, s
                continue
            ld = log[d]
            if ld & 1:
                continue
            y, y1 = add(s, exp[ld >> 1]), add(s, exp[(ld >> 1) + half])
            if y > y1:
                y, y1 = y1, y
            yield x, y
            yield x, y1

    def points(self) -> tuple:
        """All rational points, infinity first, affine sorted by (x, y)."""
        if self._points is None:
            self._require_enumerable("enumeration")
            self._points = (INFINITY, *self._affine_points())
        return self._points

    def _affine_points(self):
        if self.genus == 1 and self.field.p != 2:
            return self._odd_points()
        if self.genus == 1 and self.coeffs[0]:
            return self._char2_points()
        # genus 2 and supersingular characteristic-2 curves (a1 = 0)
        solve, rhs = self.field.solve_quadratic, self._rhs_quadratic
        # x rises, so only each x's roots need sorting
        return ((x, y) for x in range(self.field.q) for y in sorted(solve(*rhs(x))))

    def point_count(self) -> int:
        """The number of rational points.  A genus-1 curve in odd
        characteristic counts 1 + (1, 2 or 0 per x as d is zero, has an even
        log or an odd one) over its completed squares without building
        points; d's log is only tested for parity, so no exp index arises
        beyond _completed_squares' own sums of two logs.  Other curves
        count their enumerated points, which they keep."""
        if self._points is not None:
            return len(self._points)
        self._require_enumerable("count")
        if self.genus == 1 and self.field.p != 2:
            log = self.field._log
            return 1 + sum(
                2 - 2 * (log[d] & 1) if d else 1 for _, _, d in self._completed_squares()
            )
        return len(self.points())

    def affine_points(self) -> list:
        return list(self.points()[1:])

    # -- genus-1 group law --------------------------------------------------------

    def _neg_xy(self, pt):
        if not pt:
            return pt
        F = self.field
        a1, a3 = self.coeffs[0], self.coeffs[1]
        x, y = pt
        return (x, F.sub(F.sub(F.neg(y), F.mul(a1, x)), a3))

    def _group_law(self):
        """The curve's chord-tangent law on point tuples (the empty tuple for
        infinity), bound once and kept in self._law: P + Q is
        x3 = lam^2 + a1*lam - a2 - x1 - x2, y3 = lam*(x1 - x3) - y1 - a1*x3 - a3
        with lam the slope of the chord PQ (of the tangent at P if P == Q).
        The line passes through P, so its intercept is y1 - lam*x1 either way
        and lam is the one quotient (Silverman, AEC, III.2.3).

        Products and quotients are read on the log tables and sums go through
        F.additive(): the XOR builtin in characteristic 2, F.add and F.sub
        otherwise.  A term whose factor is zero is skipped (log 0 is -1),
        which drops the a1, a2 and a3 terms of short models and the constants
        2 and 3 in characteristic 2 and 3.  The doubled exp table takes every
        index in [-2(q - 1), 2(q - 1)): a sum of two logs, a log difference
        and log(lam) plus a log all lie there, and the three-factor terms
        3*x1^2 and 2*a2*x1 take their constant's log down into [-(q - 1), 0).
        """
        if self._law is not None:
            return self._law
        F = self.field
        exp, log, (add, sub) = F._exp, F._log, F.additive()
        order = F.q - 1
        a1, a3, a2, a4, _ = self.coeffs
        two, three = F.from_int(2), F.from_int(3)
        la1, l2 = log[a1], log[two]
        l3 = log[three] - order
        l2a2 = (l2 + log[a2]) % order - order

        def law(P, Q):
            if not P:
                return Q
            if not Q:
                return P
            x1, y1 = P
            x2, y2 = Q
            if x1 == x2:
                if y1 != y2:
                    return ()  # the two y-values over one x are inverses
                lx, ly = log[x1], log[y1]
                den = exp[l2 + ly] if two and y1 else 0  # 2y1 + a1x1 + a3
                if a1 and x1:
                    den = add(den, exp[la1 + lx])
                if a3:
                    den = add(den, a3)
                if den == 0:
                    return ()  # 2-torsion
                num = exp[l3 + 2 * lx] if three and x1 else 0  # 3x1^2 + 2a2x1 + a4 - a1y1
                if two and a2 and x1:
                    num = add(num, exp[l2a2 + lx])
                if a4:
                    num = add(num, a4)
                if a1 and y1:
                    num = sub(num, exp[la1 + ly])
            else:
                num, den = sub(y2, y1), sub(x2, x1)
            if num:
                lam = log[num] - log[den]  # log of the slope, in (-(q - 1), q - 1)
                x3 = exp[2 * lam]
                if a1:
                    x3 = add(x3, exp[la1 + lam])
            else:
                x3 = 0
            if a2:
                x3 = sub(x3, a2)
            x3 = sub(sub(x3, x1), x2)
            t = sub(x1, x3)
            y3 = sub(exp[lam + log[t]] if num and t else 0, y1)
            if a1 and x3:
                y3 = sub(y3, exp[la1 + log[x3]])
            if a3:
                y3 = sub(y3, a3)
            return (x3, y3)

        self._law = law
        return law

    def _scalar_xy(self, k: int, P):
        if k < 0:
            return self._scalar_xy(-k, self._neg_xy(P))
        add = self._group_law()
        acc = ()
        base = P
        while k:
            if k & 1:
                acc = add(acc, base)
            k >>= 1
            if k:  # no doubling after the top bit
                base = add(base, base)
        return acc

    def _require_group(self, *points: tuple):
        """The one check of the point API: a genus-1 curve, points on it."""
        if self.genus != 1:
            raise BadModel("the group law is defined for genus-1 curves only")
        for pt in points:
            self._require_on(pt)

    def add(self, P: tuple, Q: tuple) -> tuple:
        self._require_group(P, Q)
        return self._group_law()(P, Q)

    def neg(self, P: tuple) -> tuple:
        self._require_group(P)
        return self._neg_xy(P)

    def scalar_mul(self, k: int, P: tuple) -> tuple:
        self._require_group(P)
        return self._scalar_xy(k, P)

    def point_order(self, P: tuple) -> int:
        """Least t >= 1 with t*P = infinity (divides the group order)."""
        self._require_group(P)
        n = len(self.points())
        t = n
        for l in prime_factors(n):
            while t % l == 0 and not self._scalar_xy(t // l, P):
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
        curve = Curve(field, 1, coeffs)
        if discriminant_genus1(field, coeffs) == 0:
            raise Singular(f"zero discriminant for {curve.text()}")
        return curve
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


class Group:
    """Z/d1 x Z/d2 (d1 | d2) on integer labels (i, j), which add
    coordinatewise: orders, spans and sums are integer arithmetic."""

    __slots__ = ("d1", "d2")

    def __init__(self, d1: int, d2: int):
        self.d1, self.d2 = d1, d2

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

    def sum(self, labels) -> tuple[int, int]:
        i, j = map(sum, zip((0, 0), *labels))
        return i % self.d1, j % self.d2


class PointLabels(Group):
    """Integer coordinates for the rational points of a genus-1 curve.

    The point group is Z/d1 x Z/d2 (d1 | d2) with a basis (P1, P2) of
    orders d1 and d2; the point i*P1 + j*P2 carries the label (i, j).
    """

    __slots__ = ("field", "_label", "_point")

    def __init__(self, field: FieldSpec, d1: int, d2: int, label: dict, point: dict):
        super().__init__(d1, d2)
        self.field = field
        self._label = label
        self._point = point

    def of(self, pt: tuple) -> tuple[int, int]:
        try:
            return self._label[pt]
        except (KeyError, TypeError):  # TypeError: an unhashable non-pair
            text = _given_point_text(self.field, pt)
            raise PointNotOnCurve(f"{text} is not a rational point of the curve") from None

    def point(self, a: tuple[int, int]) -> tuple:
        return self._point[a]

    def sorted_points(self, labels) -> list:
        return sorted(self._point[a] for a in labels)


def point_labels(curve: Curve) -> PointLabels:
    """The integer labels of the curve's points, computed once per curve:
    i*P1 + j*P2 carries the label (i, j) for the basis of _group_basis, and
    labelling walks that grid with N additions.  The labels depend on which
    basis the stride walk of _sylow_basis meets first; no recipe output
    does, since subgroups are taken whole and cosets by their first point.
    """
    curve._require_group()
    if curve._labels is None:
        n = len(curve.points())
        add = curve._group_law()
        d1, d2, p1, p2 = _group_basis(curve)
        label: dict = {}
        point: dict = {}
        row = ()
        for i in range(d1):
            xy = row
            for j in range(d2):
                label[xy] = (i, j)
                point[(i, j)] = xy
                xy = add(xy, p2)
            row = add(row, p1)
        if len(label) != n:  # pragma: no cover - consistency guard
            raise AssertionError(f"basis of {curve.text()} does not span {n} points")
        curve._labels = PointLabels(curve.field, d1, d2, label, point)
    return curve._labels


def _group_basis(curve: Curve):
    """(d1, d2, P1, P2): the point group is Z/d1 x Z/d2 (d1 | d2) with P1
    of order d1 and P2 of order d2.  The Sylow bases (_sylow_basis) are
    joined by CRT: points of coprime orders sum to a point of the product
    order, so P2 sums their maximal-order G and P1 their H."""
    n = len(curve.points())
    add = curve._group_law()
    p1 = p2 = ()
    d1 = 1
    for l, h in factorint(n).items():
        g_max, g_other, a = _sylow_basis(curve, n, l, h)
        p2 = add(p2, g_max)
        p1 = add(p1, g_other)
        d1 *= l**a
    return d1, n // d1, p1, p2


def _sylow_basis(curve: Curve, n: int, l: int, h: int):
    """A basis (G, H, a) of the l-Sylow subgroup Z/l^a x Z/l^(h-a), a <= h-a:
    G of maximal order l^(h-a), H of order l^a with <G> + <H> the whole
    l-part (H is infinity when a = 0).  Group elements are point tuples.

    Points are mapped into the l-part by the cofactor n / l^h, walked in a
    fixed stride order: the i-th is points[i*k % n] for the largest
    k <= 0.618 n prime to n.  When the l-part must be cyclic (h = 1, or l
    does not divide q - 1, by the Weil pairing) the first image of order l^h
    is G.  Otherwise the images' span is closed until it has l^h elements;
    G is its first element of maximal order and H the first of order l^a
    whose order-l multiple lies outside <G>.  Each basis is built once per
    curve and kept in curve._sylow, so group_structure and point_labels
    share it.

    The walk fixes the cyclic case's G; a closed span is the whole l-part
    whatever the walk.  Sorted (x, y) order is the worst walk for l = 2 in
    characteristic 2: a point of y^2 + xy = x^3 + a2 x^2 + a6 is twice a
    point iff Tr(x) = Tr(a2) (point halving), and the abscissa codes below
    32 over F_2^8 (below 2048 over F_2^16) all have trace 0, so when
    Tr(a2) = 0 no point below them generates the 2-part.  Each stride step
    moves a golden-ratio fraction of the way through the sorted points, so
    the abscissas tried spread over the field, and about half of them give
    a generator.
    """
    if l not in curve._sylow:
        curve._sylow[l] = _build_sylow_basis(curve, n, l, h)
    return curve._sylow[l]


def _build_sylow_basis(curve: Curve, n: int, l: int, h: int):
    """The basis of _sylow_basis, built afresh from the stride walk."""
    scalar, add = curve._scalar_xy, curve._group_law()
    size = l**h
    cofactor = n // size
    points, step = curve.points(), n * 618 // 1000
    while gcd(step, n) != 1:
        step -= 1
    images = (scalar(cofactor, points[i * step % n]) for i in range(n))
    if h == 1 or (curve.field.q - 1) % l:
        for g in images:
            if scalar(size // l, g):
                return g, (), 0
        raise AssertionError(f"no element of order {size}")  # pragma: no cover
    elements = sorted(_closure(add, (), images, size))
    times_l = {x: scalar(l, x) for x in elements}

    def log_order(x) -> int:  # log_l of the order of x
        e = 0
        while x:
            x = times_l[x]
            e += 1
        return e

    order = {x: log_order(x) for x in elements}
    top = max(order.values())
    g_max = next(x for x in elements if order[x] == top)
    a = h - top
    if a == 0:
        return g_max, (), 0
    cyclic = _closure(add, (), [g_max])
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
    first k with k*g in H; a g already in H adds none and is skipped.
    """
    span = {zero}
    for g in generators:
        if len(span) == size:
            break
        if g in span:
            continue
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


def coset(curve: Curve, subgroup_points, rep: tuple) -> list:
    """The coset rep + S as a sorted point list."""
    labels = point_labels(curve)
    r = labels.of(rep)
    return labels.sorted_points(labels.add(r, labels.of(s)) for s in subgroup_points)


def group_structure(curve: Curve) -> tuple[int, int]:
    """The pair (d1, d2), d1 | d2, with the point group = Z/d1 x Z/d2.

    Only an l-part with l | q - 1 and l^2 | N can be non-cyclic (Weil
    pairing), so d1 is read off the kept Sylow bases of those primes
    alone (_sylow_basis); the rest of the group is never labelled.
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


def _table_order(q: int) -> tuple[int, int]:
    """(p, n) with q = p^n, for the order tables; q must lie below 2^32,
    the range that trial division in intmath serves."""
    if q >= 1 << 32:
        raise TooLarge(f"the order tables need q < 2^32, got q={q}")
    try:
        return prime_power_split(q)
    except ValueError as exc:
        raise NotPrimePower(str(exc)) from None


def admissible_curve_orders(q: int) -> list[int]:
    """All point counts realized by genus-1 curves over F_q, sorted."""
    p, n = _table_order(q)
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
    p, n = _table_order(q)
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
        yield from _char2_j0_family(field)
        return
    if field.p == 3:
        for a2 in range(q):
            for a4 in range(q):
                for a6 in range(q):
                    coeffs = (0, 0, a2, a4, a6)
                    if discriminant_genus1(field, coeffs) != 0:
                        yield Curve(field, 1, coeffs)
        return
    # the short form's discriminant is -16(4 a4^3 + 27 a6^2), and 16 is a unit
    mul, add = field.mul, field.add
    four = field.from_int(4)
    a6_terms = [mul(field.from_int(27), mul(a6, a6)) for a6 in range(q)]
    for a4 in range(q):
        a4_term = mul(four, mul(a4, mul(a4, a4)))
        for a6 in range(q):
            if add(a4_term, a6_terms[a6]) != 0:
                yield Curve(field, 1, (0, 0, 0, a4, a6))


def _char2_j0_family(field: FieldSpec):
    """curve_family's characteristic-2 j = 0 branch, y^2 + a3 y = x^3 + a4 x + a6."""
    q = field.q
    for a3 in range(1, q):
        for a4 in range(q):
            for a6 in range(q):
                yield Curve(field, 1, (0, a3, 0, a4, a6))


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


def _class_key(F: FieldSpec, coeffs: tuple):
    """Isomorphism-class key of a curve_family tuple y^2 = x^3 + a4 x + a6
    over F_q, p >= 5, or None for p = 3 and characteristic 2.

    (a4, a6) and (u^4 a4, u^6 a6) are the isomorphic models (Silverman,
    The Arithmetic of Elliptic Curves, App. A).  For a4*a6 != 0 the key is
    (a4^3 / a6^2, chi(a4*a6)): if both agree, then
    nu = (a6'/a6) / (a4'/a4) has nu^2 = a4'/a4, nu^3 = a6'/a6 and
    chi(nu) = chi(a4 a6) chi(a4' a6') = 1, so nu = u^2.  For a4 = 0
    (j = 0) the key is a6 modulo 6th powers, for a6 = 0 (j = 1728) a4
    modulo 4th powers.  All are read on discrete logs: a4^3 / a6^2 is
    3 log a4 - 2 log a6 mod q - 1, chi is the parity of log(a4*a6) (the
    generator is a non-square), and the g-th powers are the logs divisible
    by g = gcd(6, q - 1) or gcd(4, q - 1).
    """
    if F.p <= 3:
        return None
    a4, a6 = coeffs[3], coeffs[4]
    log, order = F._log, F.q - 1
    if a4 == 0:
        return "j=0", log[a6] % gcd(6, order)
    if a6 == 0:
        return "j=1728", log[a4] % gcd(4, order)
    la4, la6 = log[a4], log[a6]
    return (3 * la4 - 2 * la6) % order, (la4 + la6) & 1


_REFUTING_POINTS = 3


def _refutes_count(curve: Curve, n_points: int) -> bool:
    """Whether a rational point P with [n_points]P != O exists among the
    curve's first few: the first point over each of its first abscissas
    (the other point over x is -P, and [N](-P) = -[N]P).

    The order of every point divides #E (Lagrange), so True proves
    #E != n_points; False decides nothing.
    """
    firsts = (next(pts) for _, pts in groupby(curve._affine_points(), itemgetter(0)))
    return any(
        curve._scalar_xy(n_points, P) for P in islice(firsts, _REFUTING_POINTS)
    )


def _ordinary_char2_matches(field: FieldSpec, matches):
    """_matching_curves on the ordinary characteristic-2 family
    y^2 + xy = x^3 + a2 x^2 + a6, one a6 block at a time.

    a2 and a2 + z^2 + z give isomorphic curves (y -> y + zx), so a block
    holds two classes, told apart by the absolute trace Tr(a2), which is 0
    iff a2 = z^2 + z for some z (Menezes, Elliptic Curve Public Key
    Cryptosystems, ch. 3).  Each class is decided on its first tuple,
    a2 = 0 or t1 (the least code of trace 1), the latter only after the
    yields below t1.  A block where neither matches builds no other curve;
    otherwise each a2 yields the first curve of its class if that matched.
    """
    q, as_tab = field.q, field._as_tab
    t1 = as_tab.index(None)
    traces = [as_tab[a2] is None for a2 in range(t1, q)]
    for a6 in range(1, q):
        first = Curve(field, 1, (1, 0, 0, 0, a6))
        first = first if matches(first) else None
        if first is not None:
            yield from repeat(first, t1)  # every a2 below t1 has trace 0
        second = Curve(field, 1, (1, 0, t1, 0, a6))
        firsts = first, (second if matches(second) else None)
        if firsts != (None, None):
            yield from (firsts[t] for t in traces if firsts[t] is not None)


def _matching_curves(
    field: FieldSpec,
    n_points: int,
    shape: tuple[int, int] | None,
    seed: int,
    draws: int,
    family_cap: int = _EXHAUSTIVE_FAMILY_CAP,
):
    """For each model with exactly n_points rational points (and the
    requested (d1, d2) shape, if given), in a seeded order, a curve of its
    isomorphism class.

    Each candidate is refuted before it is counted: if one of its first
    few rational points has [n_points]P != O, it cannot have n_points
    points (_refutes_count), and only the curves that survive get
    point_count and, for a shape, group_structure.  Fields of order at
    most family_cap walk curve_family in its deterministic order.
    Isomorphic curves share point count and shape, so the verdict is
    computed once per class (_ordinary_char2_matches walks the ordinary
    characteristic-2 family by class, _class_key keys it for p >= 5), and
    each matching tuple yields its class's first curve: one object, which
    keeps what it has computed.  The other tuples (p = 3 and the
    characteristic-2 j = 0 branch) are decided one by one and stand for
    themselves.  The walk yields once for each tuple, in the order, that
    counting every tuple would match.  Larger fields draw `draws` seeded
    random five-coefficient models, skipping repeats.
    """

    def matches(curve: Curve) -> bool:
        if _refutes_count(curve, n_points):
            return False
        return curve.point_count() == n_points and (
            shape is None or group_structure(curve) == tuple(shape)
        )

    if field.q <= family_cap:
        family = curve_family(field)
        if field.p == 2:
            yield from _ordinary_char2_matches(field, matches)
            family = _char2_j0_family(field)
        firsts: dict = {}  # class key -> the class's first curve, or None if it fails
        for curve in family:
            key = _class_key(field, curve.coeffs)
            first = firsts.get(key, curve)
            if first is curve:
                first = curve if matches(curve) else None
                if key is not None:
                    firsts[key] = first
            if first is not None:
                yield first
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
    field is small, deciding each isomorphism class once (each a6 of the
    ordinary characteristic-2 family builds two curves when neither of its
    classes matches; see _matching_curves), so the curve is its class's
    first model; above the cap, seeded random five-coefficient models are
    drawn until the budget runs out.  Either way a candidate is first
    refuted by [n_points]P != O at a few of its points, and only a
    survivor's points are counted.
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


def point_text(field: FieldSpec, point: tuple) -> str:
    if not point:  # the point at infinity, ()
        return "inf"
    return f"({field.element_text(point[0])},{field.element_text(point[1])})"


def _given_point_text(field: FieldSpec, point: tuple) -> str:
    """A point as an error message names it: by point_text if it is a pair
    of field codes, else by what it holds."""
    if not isinstance(point, tuple) or len(point) != 2:
        return f"non-pair {point!r}"
    if all(0 <= c < field.q for c in point):
        return point_text(field, point)
    return f"codes {point} outside [0, {field.q})"


def parse_point_text(field: FieldSpec, text: str) -> tuple:
    text = text.strip()
    if text == "inf":
        return INFINITY
    parts = _split_elements(text[1:-1])
    if not (text.startswith("(") and text.endswith(")")) or len(parts) != 2:
        raise MalformedText(f"malformed point text {text!r}")
    return tuple(field.parse_element(t) for t in parts)
