"""Field arithmetic: frozen examples, exhaustive invariants, properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from agmds import field_make, parse_field_text
from agmds.field import FieldSpec, _poly_mul_mod
from agmds.errors import (
    DegreeMismatch,
    DivisionByZero,
    CharNotTwo,
    NotPrime,
    Reducible,
    TooLarge,
)

F19 = field_make(19)
F4 = field_make(2, 2, [1, 1, 1])
F16 = field_make(2, 4)
F64 = field_make(2, 6)
F25 = field_make(5, 2)


# -- independent polynomial oracle for the default-modulus choice -------------


def _poly_mul(a, b, mod, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    s = len(mod) - 1
    for i in range(len(prod) - 1, s - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(s):
                prod[i - s + j] = (prod[i - s + j] - c * mod[j]) % p
    return tuple(prod[:s])


def _residues_form_field(mod, p):
    """Every nonzero residue has an inverse under test-local arithmetic."""
    s = len(mod) - 1
    q = p**s

    def dec(v):
        out = []
        for _ in range(s):
            out.append(v % p)
            v //= p
        return tuple(out)

    one = dec(1)
    for a in range(1, q):
        da = dec(a)
        if not any(_poly_mul(da, dec(b), mod, p) == one for b in range(1, q)):
            return False
    return True


def test_default_sextic_modulus_is_smallest_field_former():
    # frozen: x^6 + x + 1
    assert F64.modulus == (1, 1, 0, 0, 0, 0, 1)
    value = sum(c * 2**i for i, c in enumerate(F64.modulus[:6]))
    assert value == 3
    # every smaller candidate fails to make the residues a field
    for smaller in range(value):
        cand = tuple((smaller >> i) & 1 for i in range(6)) + (1,)
        assert not _residues_form_field(cand, 2)
    assert _residues_form_field(F64.modulus, 2)


def test_field_make_examples():
    assert F19.q == 19 and F19.modulus is None
    assert F4.q == 4 and F4.modulus == (1, 1, 1)
    assert field_make(2, 2).modulus == (1, 1, 1)  # unique irreducible quadratic


def test_field_make_errors():
    with pytest.raises(NotPrime):
        field_make(6)
    with pytest.raises(Reducible):
        field_make(2, 2, [1, 0, 1])  # (x+1)^2
    with pytest.raises(DegreeMismatch):
        field_make(2, 3, [1, 1, 1])
    with pytest.raises(TooLarge):
        field_make(2, 17)


def test_arith_examples():
    assert F19.inv(2) == 10
    assert F19.pow(2, 18) == 1
    x = F4.encode([0, 1])
    assert F4.mul(x, x) == F4.encode([1, 1])
    with pytest.raises(DivisionByZero):
        F19.inv(0)


def test_frobenius_sqrt_examples():
    x = F4.encode([0, 1])
    assert F4.frobenius_sqrt(x) == F4.encode([1, 1])  # (x+1)^2 = x
    for F in (F4, F16, F64):
        assert F.frobenius_sqrt(1) == 1
    # x generates F16*: verify, then sqrt(g^5) = g^10 by direct squaring
    g = F16.encode([0, 1])
    assert F16.pow(g, 15) == 1
    assert all(F16.pow(g, 15 // l) != 1 for l in (3, 5))
    a = F16.pow(g, 5)
    b = F16.frobenius_sqrt(a)
    assert b == F16.pow(g, 10)
    assert F16.mul(b, b) == a
    with pytest.raises(CharNotTwo):
        F19.frobenius_sqrt(2)


@pytest.mark.parametrize("F", [F19, F4, F16, F64, F25, field_make(3, 2)])
def test_inverse_and_frobenius_fixed_point(F):
    for a in range(F.q):
        assert F.pow(a, F.q) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1


@pytest.mark.parametrize("F", [F19, F4, F16, F25, field_make(3, 3), field_make(2)])
def test_log_is_a_bijection_turning_products_into_sums(F):
    order = F.q - 1
    logs = [F.log(a) for a in range(1, F.q)]
    assert sorted(logs) == list(range(order)) and F.log(1) == 0
    g = next(a for a in range(1, F.q) if F.log(a) == 1 % order)
    for a in range(1, F.q):
        assert F.pow(g, F.log(a)) == a
        for b in range(1, F.q, 3):
            assert F.log(F.mul(a, b)) == (F.log(a) + F.log(b)) % order
    with pytest.raises(DivisionByZero):
        F.log(0)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 6, 8, 10])
def test_frobenius_sqrt_squares_back_exhaustive(s):
    F = field_make(2, s)
    for a in range(F.q):
        b = F.frobenius_sqrt(a)
        assert F.mul(b, b) == a


def test_ring_axioms_on_random_triples():
    fields = [F19, F4, F16, F64, F25, field_make(3, 3), field_make(7)]
    rng = random.Random(1234)
    for _ in range(11000):
        F = rng.choice(fields)
        a, b, c = (rng.randrange(F.q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.sub(a, b) == F.add(a, F.neg(b))


@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_pow_matches_repeated_multiplication(a, b, e):
    acc = 1
    for _ in range(e):
        acc = F64.mul(acc, a)
    assert F64.pow(a, e) == acc
    assert F64.mul(a, b) < 64


def test_solve_quadratic_consistency():
    rng = random.Random(99)
    for F in (F19, F16, F25, F64):
        for _ in range(200):
            b, c = rng.randrange(F.q), rng.randrange(F.q)
            roots = F.solve_quadratic(b, c)
            assert len(set(roots)) == len(roots)
            for y in roots:
                assert F.add(F.mul(y, y), F.mul(b, y)) == c
        # total number of solutions over all c for fixed b is q
        for b in (0, 1):
            assert sum(len(F.solve_quadratic(b, c)) for c in range(F.q)) == F.q


def test_code_arithmetic_matches_residues():
    a, b = 7, 15
    assert F19.add(a, b) == 3
    assert F19.mul(a, b) == (7 * 15) % 19
    assert F19.mul(F19.div(a, b), b) == 7
    assert F19.add(F19.neg(a), a) == 0
    assert F19.pow(a, 3) == pow(7, 3, 19)
    assert list(F25.decode(F25.encode([2, 3]))) == [2, 3]


def test_text_forms_round_trip():
    assert F19.element_text(7) == "7"
    assert F64.element_text(F64.encode([1, 0, 1])) == "[1,0,1,0,0,0]"
    assert F19.spec_text() == "19^1:"
    assert F64.spec_text() == "2^6:[1,1,0,0,0,0,1]"
    for F in (F19, F64, F25):
        assert parse_field_text(F.spec_text()) == F
        for a in (0, 1, F.q - 1):
            assert F.parse_element(F.element_text(a)) == a
    assert parse_field_text("2^6") == F64
    assert parse_field_text("19") == F19


def test_coefficients_and_text_give_one_code():
    assert F25.encode([3, 4]) == F25.parse_element("[3,4]")


# -- table-lookup addition against digit-wise oracles ---------------------------


def _digits(F, a):
    out = []
    for _ in range(F.s):
        a, c = divmod(a, F.p)
        out.append(c)
    return out


def _undigits(F, digits):
    return sum(c * F.p**i for i, c in enumerate(digits))


def digit_add(F, a, b):
    """Coefficient-wise sum of the base-p digits of two codes."""
    return _undigits(F, [(x + y) % F.p for x, y in zip(_digits(F, a), _digits(F, b))])


def digit_neg(F, a):
    return _undigits(F, [(-x) % F.p for x in _digits(F, a)])


# every odd-characteristic extension field with q <= 125
SMALL_ODD_EXTENSIONS = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]


@pytest.mark.parametrize("p, s", SMALL_ODD_EXTENSIONS)
def test_zech_add_sub_neg_exhaustive(p, s):
    F = field_make(p, s)
    for a in range(F.q):
        assert F.neg(a) == digit_neg(F, a)
        for b in range(F.q):
            total = digit_add(F, a, b)
            assert F.add(a, b) == total
            assert F.sub(total, b) == a


@pytest.mark.parametrize("p, s", [(3, 5), (7, 3), (3, 10), (5, 6), (7, 5)])
def test_zech_add_sub_neg_random_pairs(p, s):
    F = field_make(p, s)
    rng = random.Random(f"zech:{p}^{s}")
    # the first pairs include zero operands and b = -a
    pairs = [(0, 0), (0, 1), (1, 0), (1, F.neg(1))]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3000)]
    for a, b in pairs:
        assert F.add(a, b) == digit_add(F, a, b)
        assert F.sub(a, b) == digit_add(F, a, digit_neg(F, b))
        assert F.neg(b) == digit_neg(F, b)


@pytest.mark.parametrize("s", range(2, 17))
def test_char2_carryless_mul_matches_polynomial_product(s):
    F = FieldSpec(2, s)
    rng = random.Random(f"clmul:{s}")
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        expected = F.encode(_poly_mul_mod(F.decode(a), F.decode(b), F.modulus, 2))
        assert F._mul_raw(a, b) == expected


@pytest.mark.parametrize(
    "p, s", [(3, s) for s in range(2, 7)] + [(5, 2), (5, 3), (7, 2), (7, 3)]
)
def test_odd_extension_tables_equal_the_polynomial_product_walk(p, s):
    F = FieldSpec(p, s)
    F._ensure_tables()
    order = F.q - 1
    gen = F._exp[1]
    # gen is the smallest primitive code, as the generator search defines it
    for g in range(2, gen):
        assert any(F._pow_raw(g, e) == 1 for e in range(1, order))
    exp, log = [1], [-1] * F.q
    log[1] = 0
    for i in range(1, order):
        exp.append(F._mul_raw(exp[-1], gen))
        log[exp[-1]] = i
    assert F._exp == exp + exp
    assert F._log == log
    zech = [log[digit_add(F, 1, v)] for v in exp]
    assert F._zech == zech + zech
