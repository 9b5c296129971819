"""Exact arithmetic in prime fields F_p and extension fields F_{p^s}.

An element of F_{p^s} is a residue c_0 + c_1*x + ... + c_{s-1}*x^{s-1}
modulo a monic irreducible polynomial over F_p.  Every layer passes an
element as its integer code sum(c_i * p**i), the one representation; codes
make equality, hashing and table indexing cheap, and the prime subfield
embeds as the codes 0..p-1.

A FieldSpec builds discrete-log tables on first use, after which
multiplication, inversion and powers are O(1) lookups.  Addition is XOR in
characteristic 2 and residue arithmetic in prime fields; in an odd-
characteristic extension it is a lookup too, through Zech logarithms
Z(k) = log(1 + g^k), since a + b = a * (1 + b/a).  Characteristic-2 tables
are built with carry-less integer multiplication, odd-characteristic
extension tables with base-p digits packed into integer lanes.  Field
orders are capped at 2**16 so whole-field exhaustive checks stay
practical.

Text forms: a prime-field element prints as its decimal residue, an
extension element as a bracketed little-endian coefficient list such as
``[1,0,1]``.  A field prints as ``p^s:modulus``, e.g.
``2^6:[1,1,0,0,0,0,1]`` (empty modulus part for prime fields).
"""

from __future__ import annotations

import sys

from .errors import (
    CharNotTwo,
    DegreeMismatch,
    DivisionByZero,
    MalformedText,
    NotPrime,
    Reducible,
    TooLarge,
)
from .intmath import is_prime, prime_factors

MAX_ORDER = 1 << 16


# -- polynomial helpers on little-endian coefficient tuples over F_p --------

def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    """(a*b) mod modulus; all little-endian, modulus monic of degree s."""
    s = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, s - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(s):
                prod[i - s + j] = (prod[i - s + j] - c * modulus[j]) % p
    return tuple(prod[:s])


def _poly_rem(num: list, den: tuple, p: int) -> list:
    """Remainder of num by monic den, little-endian, destructive on num."""
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            for j in range(d):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    return num[:d]


def poly_is_irreducible(modulus: tuple, p: int) -> bool:
    """Irreducibility over F_p by root scan plus trial division.

    A reducible polynomial of degree s has a monic factor of degree at
    most s//2, so checking roots (degree-1 factors) and dividing by every
    monic polynomial of degree 2..s//2 is a complete test.
    """
    s = len(modulus) - 1
    if s < 1 or modulus[-1] != 1:
        return False
    for a in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    for d in range(2, s // 2 + 1):
        for idx in range(p**d):
            den = []
            v = idx
            for _ in range(d):
                den.append(v % p)
                v //= p
            den.append(1)
            rem = _poly_rem(list(modulus), tuple(den), p)
            if not any(rem):
                return False
    return True


def _default_modulus(p: int, s: int) -> tuple:
    """Smallest monic irreducible of degree s, ordered by the base-p value
    of the non-leading coefficients."""
    for value in range(p**s):
        coeffs = []
        v = value
        for _ in range(s):
            coeffs.append(v % p)
            v //= p
        cand = tuple(coeffs) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {s} over F_{p}")  # pragma: no cover


class FieldSpec:
    """A finite field F_{p^s} with integer-coded elements.

    Elements are integer codes in [0, q), the only element representation:
    every arithmetic method takes and returns codes, and decode/encode
    convert a code to and from its coefficient tuple.
    """

    __slots__ = (
        "p", "s", "q", "modulus",
        "_exp", "_log", "_zech", "_clmul_mod", "_sqrt_tab", "_as_tab",
    )

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not is_prime(p):
            raise NotPrime(f"characteristic {p} is not prime")
        if s < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {s}")
        q = p**s
        if q > MAX_ORDER:
            raise TooLarge(f"field order {q} exceeds the cap {MAX_ORDER}")
        if s == 1:
            modulus = None
        else:
            if modulus is None:
                modulus = _default_modulus(p, s)
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != s + 1 or modulus[-1] != 1:
                    raise DegreeMismatch(
                        f"modulus must be monic of degree {s} "
                        f"({s + 1} coefficients)"
                    )
                if not poly_is_irreducible(modulus, p):
                    raise Reducible(f"modulus {list(modulus)} factors over F_{p}")
        self.p = p
        self.s = s
        self.q = q
        self.modulus = modulus
        # characteristic 2: the modulus as a bit mask, for carry-less products
        self._clmul_mod = self.encode(modulus) if p == 2 and s > 1 else None
        self._exp = None
        self._log = None
        self._zech = None
        self._sqrt_tab = None
        self._as_tab = None

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.spec_text()!r})"

    # -- element coding --------------------------------------------------------

    def decode(self, a: int) -> tuple:
        """Little-endian coefficient tuple of length s."""
        if self.s == 1:
            return (a,)
        p = self.p
        out = []
        for _ in range(self.s):
            out.append(a % p)
            a //= p
        return tuple(out)

    def encode(self, coeffs) -> int:
        p = self.p
        acc = 0
        for c in reversed(list(coeffs)):
            acc = acc * p + (int(c) % p)
        return acc

    def from_int(self, n: int) -> int:
        """Embed an integer via the prime subfield."""
        return n % self.p

    # -- table construction -------------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a * b) % self.p
        mod = self._clmul_mod
        if mod is not None:
            # shift-and-add over F_2[x], reducing a*x^i as it passes x^s
            top = 1 << self.s
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return r
        return self.encode(
            _poly_mul_mod(self.decode(a), self.decode(b), self.modulus, self.p)
        )

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _powers_by_digits(self, gen: int, order: int) -> list:
        """[gen^0, ..., gen^(order-1)] in an odd-characteristic extension,
        multiplying by gen as digit arithmetic on the code.

        A code is packed one base-p digit per lane of `width` bits.  Times
        gen is F_p-linear, so gen * v is the lane sum of gen * (low digits
        of v) and gen * (high digits of v), each looked up in a table of
        about sqrt(q) entries.  Each lane of that sum is below 2p, and
        adding 2^(width-1) - p to every lane sets a lane's top bit exactly
        where its digit must drop by p.
        """
        p, s = self.p, self.s
        width = (2 * p - 2).bit_length() + 1
        top = width - 1

        def pack(c: int) -> int:
            v = 0
            for i in range(s):
                c, d = divmod(c, p)
                v |= d << (width * i)
            return v

        lanes = sum(1 << (width * i) for i in range(s))
        tops = lanes << top
        bias = lanes * ((1 << top) - p)
        half = s // 2
        cut = width * half
        low_mask = (1 << cut) - 1
        step = p**half
        # packed half -> (the code it stands for, gen times it, packed)
        low = {pack(c): (c, pack(self._mul_raw(c, gen))) for c in range(step)}
        high = {
            pack(c): (c * step, pack(self._mul_raw(c * step, gen)))
            for c in range(p ** (s - half))
        }
        powers = [1] * order
        v = pack(gen)
        for i in range(1, order):
            low_code, low_prod = low[v & low_mask]
            high_code, high_prod = high[v >> cut]
            powers[i] = low_code + high_code
            v = low_prod + high_prod
            v -= (((v + bias) & tops) >> top) * p
        return powers

    def _ensure_tables(self):
        if self._exp is not None:
            return
        q = self.q
        order = q - 1
        gen = 1
        if order > 1:
            factors = prime_factors(order)
            for g in range(2, q):
                if all(self._pow_raw(g, order // l) != 1 for l in factors):
                    gen = g
                    break
        p = self.p
        odd_extension = p != 2 and self.s > 1
        exp = [1] * (2 * order)
        if odd_extension:
            exp[:order] = self._powers_by_digits(gen, order)
        else:
            acc = 1
            for i in range(1, order):
                acc = self._mul_raw(acc, gen)
                exp[i] = acc
        exp[order:] = exp[:order]
        log = [-1] * q
        for i in range(order):
            log[exp[i]] = i
        if odd_extension:
            # Z(k) = log(1 + g^k), -1 where 1 + g^k = 0: adding 1 bumps the
            # lowest base-p digit of the code.  Two periods, so any exponent
            # difference in (-(q-1), 2(q-1)) indexes it directly.
            self._zech = [log[v - p + 1 if v % p == p - 1 else v + 1] for v in exp]
        self._exp = exp
        self._log = log

    # -- arithmetic on codes ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        if self._zech is None:
            self._ensure_tables()
        # a + b = g^la * (1 + g^(lb - la))
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.s == 1:
            return (-a) % self.p
        if self.p == 2 or a == 0:
            return a
        if self._exp is None:
            self._ensure_tables()
        # -1 = g^((q-1)/2), and (q-1)/2 == q >> 1 for odd q
        return self._exp[self._log[a] + (self.q >> 1)]

    def sub(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if b == 0:
            return a
        if a == 0:
            return self.neg(b)
        if self._zech is None:
            self._ensure_tables()
        # a - b = g^la * (1 + g^(lb + (q-1)/2 - la))
        la = self._log[a]
        z = self._zech[self._log[b] + (self.q >> 1) - la]
        return self._exp[la + z] if z >= 0 else 0

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is None:
            self._ensure_tables()
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._exp is None:
            self._ensure_tables()
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is None:
            self._ensure_tables()
        order = self.q - 1
        if order == 0:
            return 1
        return self._exp[(self._log[a] * e) % order]

    def log(self, a: int) -> int:
        """The discrete log of nonzero a to the tables' generator, in [0, q-1)."""
        if a == 0:
            raise DivisionByZero("logarithm of zero")
        if self._log is None:
            self._ensure_tables()
        return self._log[a]

    def frobenius_sqrt(self, a: int) -> int:
        """The unique square root in characteristic 2: a**(2**(s-1)) = a**(q/2),
        one table lookup like every other power."""
        if self.p != 2:
            raise CharNotTwo(f"characteristic is {self.p}, not 2")
        return self.pow(a, self.q >> 1)

    # -- square roots and quadratics -------------------------------------------------

    def _ensure_sqrt(self):
        if self._sqrt_tab is None:
            tab = [None] * self.q
            for y in range(self.q):
                c = self.mul(y, y)
                if tab[c] is None:
                    tab[c] = y
            self._sqrt_tab = tab

    def _ensure_as(self):
        # Solutions of z**2 + z = w in characteristic 2; half the w values
        # are reachable, each with the pair {z, z+1}.
        if self._as_tab is None:
            tab: dict[int, int] = {}
            for z in range(self.q):
                w = self.add(self.mul(z, z), z)
                tab.setdefault(w, z)
            self._as_tab = tab

    def sqrt_or_none(self, a: int):
        """A square root of a, or None (odd characteristic)."""
        self._ensure_sqrt()
        return self._sqrt_tab[a]

    def chi(self, a: int) -> int:
        """Quadratic character: 0 for zero, +1 for squares, -1 otherwise."""
        if a == 0:
            return 0
        if self.p == 2:
            return 1
        self._ensure_sqrt()
        return 1 if self._sqrt_tab[a] is not None else -1

    def solve_quadratic(self, b: int, c: int) -> tuple:
        """All y with y**2 + b*y = c, as a tuple of 0, 1 or 2 codes."""
        if self.p == 2:
            if b == 0:
                return (self.frobenius_sqrt(c),)
            self._ensure_as()
            w = self.mul(c, self.pow(self.inv(b), 2))
            z = self._as_tab.get(w)
            if z is None:
                return ()
            y = self.mul(b, z)
            return (y, self.add(y, b))
        # odd characteristic: complete the square
        half = self.inv(self.from_int(2))
        shift = self.mul(b, half)
        d = self.add(c, self.mul(shift, shift))
        if d == 0:
            return (self.neg(shift),)
        r = self.sqrt_or_none(d)
        if r is None:
            return ()
        return (self.sub(r, shift), self.sub(self.neg(r), shift))

    # -- text forms ----------------------------------------------------------------

    def element_text(self, a: int) -> str:
        """Interned, so the many matrices written over one field (catalog
        entries above all) share one string per element."""
        if self.s == 1:
            return sys.intern(str(a))
        return sys.intern("[" + ",".join(str(c) for c in self.decode(a)) + "]")

    def parse_element(self, text: str) -> int:
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise DegreeMismatch(f"malformed element text {text!r}")
            coeffs = [_parse_int(t) for t in text[1:-1].split(",")] if text != "[]" else []
            if len(coeffs) > self.s:
                raise DegreeMismatch(f"too many coefficients in {text!r}")
            coeffs += [0] * (self.s - len(coeffs))
            return self.encode(coeffs)
        code = _parse_int(text)
        if self.s == 1:
            return code % self.p
        if not 0 <= code < self.q:
            raise DegreeMismatch(f"code {code} outside [0, {self.q})")
        return code

    def spec_text(self) -> str:
        mod = "" if self.s == 1 else "[" + ",".join(map(str, self.modulus)) + "]"
        return f"{self.p}^{self.s}:{mod}"


_FIELD_CACHE: dict = {}


def field_make(p: int, s: int = 1, modulus=None) -> FieldSpec:
    """Validated field constructor; instances with equal parameters are shared
    so their arithmetic tables are built once."""
    key = (p, s, tuple(modulus) if modulus is not None else None)
    spec = _FIELD_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, s, modulus)
        _FIELD_CACHE[key] = spec
        _FIELD_CACHE.setdefault((p, s, spec.modulus), spec)
    return spec


def parse_field_text(text: str) -> FieldSpec:
    """Parse ``p``, ``p^s`` or ``p^s:[modulus]``."""
    text = text.strip()
    body, _, mod = text.partition(":")
    p_txt, _, s_txt = body.partition("^")
    p = _parse_int(p_txt)
    s = _parse_int(s_txt) if s_txt else 1
    mod = mod.strip()
    if not mod or s == 1:
        return field_make(p, s)
    if not (mod.startswith("[") and mod.endswith("]")):
        raise DegreeMismatch(f"malformed modulus text {mod!r}")
    coeffs = [_parse_int(t) for t in mod[1:-1].split(",")]
    return field_make(p, s, coeffs)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedText(f"malformed integer text {text!r}") from None
