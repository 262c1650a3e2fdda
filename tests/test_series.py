"""Truncated series arithmetic against naive oracles, plus frozen expansions."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quotdt import series as series_mod
from quotdt.errors import NonIntegralError
from quotdt.series import Series, dt_closed_formula, macmahon, series_pow


def naive_mul(a: tuple, b: tuple) -> tuple:
    n = len(a) - 1
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def random_series(rng: random.Random, order: int = 6) -> Series:
    return Series(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
    )


# Oracles that share no code with the recurrences: the inverse by long
# division, powers by square-and-multiply, MacMahon as a product of factors.


def _one(order: int) -> Series:
    return Series((1,) + (0,) * order)


def _reference_inverse(s: Series) -> Series:
    a0 = s.coeffs[0]
    if not a0:
        raise ZeroDivisionError("series with zero constant term has no inverse")
    out = [Fraction(1) / a0]
    for k in range(1, s.order + 1):
        out.append(-sum(s.coeffs[i] * out[k - i] for i in range(1, k + 1)) / a0)
    return Series(out)


def _reference_pow(s: Series, exponent: int) -> Series:
    base = s
    if exponent < 0:
        base = _reference_inverse(s)
        exponent = -exponent
    result = _one(s.order)
    while exponent:
        if exponent & 1:
            result = result * base
        if exponent > 1:
            base = base * base
        exponent >>= 1
    return result


def _reference_macmahon(order: int) -> Series:
    result = _one(order)
    for k in range(1, order + 1):
        factor = Series((1, *(0,) * (k - 1), -1, *(0,) * (order - k)))
        result = result * _reference_pow(factor, -k)
    return result


def test_mul_matches_naive():
    rng = random.Random(6021)
    for _ in range(200):
        a, b = random_series(rng), random_series(rng)
        assert (a * b).coeffs == naive_mul(a.coeffs, b.coeffs)


def test_inverse_is_two_sided():
    rng = random.Random(77)
    for _ in range(100):
        a = random_series(rng)
        if not a.coeffs[0]:
            continue
        assert (a * a ** -1).coeffs == _one(a.order).coeffs
    with pytest.raises(ZeroDivisionError):
        Series((0, 1, 2)) ** -1


def test_pow_matches_repeated_mul():
    rng = random.Random(13)
    a = random_series(rng)
    assert a ** 4 == a * a * a * a
    b = random_series(rng)
    assert (b ** -3) * (b ** 3) == _one(b.order)


def test_pow_matches_reference_on_random_series():
    rng = random.Random(2024)
    for order in range(13):
        zeros = (0,) * rng.randint(1, 2)
        cases = [
            # rational coefficients with a_0 != 1
            Series(
                (Fraction(rng.randint(2, 9), rng.randint(1, 9)),)
                + random_series(rng, order).coeffs[1:]
            ),
            # integer coefficients with a_0 = +-1: the int path
            Series((rng.choice((1, -1)),) + tuple(rng.randint(-5, 5) for _ in range(order))),
            # a_0 = 0: no exponent has an answer
            Series((zeros + random_series(rng, order).coeffs)[: order + 1]),
        ]
        for s in cases:
            for exponent in range(-25, 26):
                if not s.coeffs[0]:
                    with pytest.raises(ZeroDivisionError):
                        s ** exponent
                    continue
                assert s ** exponent == _reference_pow(s, exponent), (s, exponent)


def test_pow_refuses_a_zero_constant_term():
    # the closed formula raises only series with a_0 = +-1, so every
    # exponent is refused, order 0 included
    for s in (Series((0, 0, 3, Fraction(1, 2), 0, 7)), Series((0, 0, 0)), Series((0,))):
        for exponent in (-1, 0, 1, 2, 3):
            with pytest.raises(ZeroDivisionError, match="zero constant term"):
                s ** exponent
    # the exponent's type is checked first
    with pytest.raises(TypeError, match="series powers must be integers"):
        Series((0, 1)) ** Fraction(1, 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=1, max_size=7
    ).filter(lambda cs: cs[0] != 0),
    a=st.integers(-6, 6),
    b=st.integers(-6, 6),
)
def test_power_laws(coeffs, a, b):
    s = Series(coeffs)
    assert s ** a * s ** b == s ** (a + b)


def test_rational_powers_are_exact():
    # a_0 = 1 admits any rational power, with b_0 = 1 set exactly; 1 ** p was
    # once the float 1.0, and the int path then refused the cube root
    m = macmahon(12)
    root = m ** Fraction(1, 3)
    assert _reference_pow(root, 3) == root ** 3 == m
    assert root.coeffs[:4] == (1, Fraction(1, 3), Fraction(8, 9), Fraction(113, 81))
    raw = series_mod._power(macmahon(3).coeffs, Fraction(1, 3))
    assert raw == root.coeffs[:4] and all(type(c) is Fraction for c in raw)
    # a Fraction with denominator 1 is the int power, through the Fraction path
    assert m ** Fraction(-20) == m ** -20
    assert m ** Fraction(0) == _one(12)
    # any other non-int exponent, or a Fraction when a_0 != 1, is refused
    for base, exponent in ((Series((2, 1)), Fraction(1, 2)), (Series((-1, 1)), Fraction(1, 3)),
                           (m, 0.5), (m, "2")):
        with pytest.raises(TypeError, match="series powers must be integers"):
            base ** exponent


def test_bool_exponents_and_signs_are_refused():
    # bool subclasses int; m ** True once returned m and m ** False one, and
    # substitute_signed(True) returned the series unchanged
    m = macmahon(3)
    for exponent in (True, False):
        with pytest.raises(TypeError, match="series powers must be integers"):
            m ** exponent
    for sign in (True, 1.0, Fraction(-1)):
        with pytest.raises(ValueError, match="^sign must be \\+1 or -1$"):
            m.substitute_signed(sign)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    tail=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), max_size=6),
    numerator=st.integers(-6, 6),
    denominator=st.integers(1, 5),
)
def test_rational_power_laws(tail, numerator, denominator):
    # (s^(m/d))^d = s^m by repeated products, which share no code with the recurrence
    s = Series([1, *tail])
    power = s ** Fraction(numerator, denominator)
    assert all(type(c) is Fraction for c in power.coeffs)
    assert _reference_pow(power, denominator) == _reference_pow(s, numerator)


def test_macmahon_matches_product_form():
    reference = _reference_macmahon(40).coeffs
    for order in range(41):
        assert macmahon(order).coeffs == reference[: order + 1]


def test_macmahon_power_matches_reference():
    # the closed-form benchmark workload, against an oracle built from scratch
    reference = _reference_macmahon(60)
    assert series_pow(macmahon(60), -20) == _reference_pow(reference, -20)
    for exponent in (1, -1, 4):
        assert series_pow(macmahon(60), exponent) == _reference_pow(reference, exponent)


def test_macmahon_division_is_checked(monkeypatch):
    # a wrong divisor sum makes 2 a_2 = 1 odd; the division must not floor it
    wrong = lambda order: [0, 1] + [0] * (order - 1)
    monkeypatch.setattr(series_mod, "_divisor_square_sums", wrong)
    with pytest.raises(NonIntegralError, match=r"q\^2"):
        macmahon(3)


def test_macmahon_coefficients():
    assert macmahon(8).integer_coeffs() == (1, 1, 3, 6, 13, 24, 48, 86, 160)


def test_macmahon_power_coefficients():
    # fixed point counts of P^3: coefficient of q^n in M(q)^4
    assert series_pow(macmahon(4), 4).integer_coeffs() == (1, 4, 18, 64, 215)
    assert series_pow(macmahon(2), -1).integer_coeffs() == (1, -1, -2)


def test_closed_formula_values():
    assert dt_closed_formula(1, -20, 3).integer_coeffs() == (1, 20, 150, 400)
    assert dt_closed_formula(1, -18, 2).integer_coeffs() == (1, 18, 117)
    assert dt_closed_formula(1, -16, 2).integer_coeffs() == (1, 16, 88)
    assert dt_closed_formula(2, -20, 2).integer_coeffs() == (1, -40, 700)
    with pytest.raises(ValueError):
        dt_closed_formula(0, -20, 2)


def test_closed_formula_sign_convention():
    # odd rank flips the sign of q before exponentiating
    m = macmahon(3)
    assert dt_closed_formula(1, -1, 3) == (m.substitute_signed(-1)) ** -1
    assert dt_closed_formula(2, -1, 3) == m ** -2


def test_substitute_signed():
    s = Series((1, 2, 3, 4))
    assert s.substitute_signed(-1).coeffs == (1, -2, 3, -4)
    assert s.substitute_signed(1) is s
    with pytest.raises(ValueError):
        s.substitute_signed(2)


def test_integer_coeffs_raises_on_fractions():
    with pytest.raises(NonIntegralError):
        Series((1, Fraction(1, 2))).integer_coeffs()


def test_empty_series_is_refused():
    with pytest.raises(ValueError, match="at least the constant coefficient"):
        Series(())


@pytest.mark.parametrize("coeffs, message", [
    ([1, True], "series coefficient True is a bool; use int or Fraction"),
    ([1, "2"], "series coefficient '2' is a str; use int or Fraction"),
    (["1e3"], "series coefficient '1e3' is a str; use int or Fraction"),
    ([1, None], "series coefficient None is a NoneType; use int or Fraction"),
])
def test_only_int_and_fraction_coefficients_are_accepted(coeffs, message):
    # a str went through Fraction(str), so "1e3" read as 1000
    with pytest.raises(TypeError) as got:
        Series(coeffs)
    assert str(got.value) == message


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        Series((1, 2)) * Series((1, 2, 3))


def test_float_coefficients_are_refused():
    for coeffs in ([1, 0.5], (1.0,), [Fraction(1), 2, -0.0]):
        with pytest.raises(TypeError, match="is a float"):
            Series(coeffs)
    for combine in (lambda s: s * 0.5, lambda s: 0.5 * s):
        with pytest.raises(TypeError, match="cannot be combined with float"):
            combine(Series((1, 2)))


def test_series_are_immutable_and_copy_through_init():
    # a series is hashable, so changing its coefficients would change its hash
    s = macmahon(3)
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        s.coeffs = (1, 2)
    with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
        del s.coeffs
    assert s.coeffs == (1, 1, 3, 6)
    for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert twin == s and hash(twin) == hash(s)
