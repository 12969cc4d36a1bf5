from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfkit.fields import Field, FieldError, QQ


def test_rationals_basics():
    assert QQ.char == 0
    assert QQ.zero == 0
    assert QQ.one == 1
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 7)) == Fraction(7, 2)


def test_prime_field_basics():
    f5 = Field.prime(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(2, 4) == 3
    assert f5.neg(2) == 3
    assert f5.inv(2) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f5.coerce(-1) == 4


def test_characteristic_must_be_prime():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(6)
    Field(2)
    Field(97)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Field.prime(3).inv(0)


def test_coerce_rejects_fractions_in_prime_field():
    with pytest.raises(FieldError):
        Field.prime(5).coerce(Fraction(1, 2))
    assert Field.prime(5).coerce(Fraction(4, 1)) == 4


def test_parse_and_format_round_trip():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.format(QQ.parse("2/4")) == "1/2"
    assert QQ.parse("-3") == Fraction(-3)
    f7 = Field.prime(7)
    assert f7.parse("-1") == 6
    assert f7.format(f7.parse("10")) == "3"
    with pytest.raises(FieldError):
        QQ.parse("x")
    with pytest.raises(FieldError):
        f7.parse("1/2")
    assert QQ.parse("9" * 4300 + "/" + "7" * 4300) > 1
    # only the tokens ``dumps`` writes, each integer within 4300 digits
    too_long = "9" * 4301
    for bad in ("1e2000000", "1.5", "+3", "1/0", "1/-2", "1_0", too_long,
                "1/" + too_long):
        with pytest.raises(FieldError):
            QQ.parse(bad)
        if "/" not in bad:
            with pytest.raises(FieldError):
                f7.parse(bad)


def test_the_zero_token_parses_to_the_int_zero():
    # "0" skips the regex; "00", "-0" and "0/7" take the general path and
    # give the same value and type, and what is not a scalar is still refused
    for fld in (QQ, Field.prime(5)):
        got = fld.parse("0")
        assert got == 0 and type(got) is int
        for token in ("00", "-0") + (("0/7",) if fld is QQ else ()):
            same = fld.parse(token)
            assert same == got and type(same) is int
        for bad in ("0.0", " 0", "0 ", "+0", "O"):
            with pytest.raises(FieldError):
                fld.parse(bad)


def test_tokens():
    assert QQ.token() == "Q"
    assert Field.prime(5).token() == "GF:5"
    assert Field.from_token("Q") == QQ
    assert Field.from_token("GF:11") == Field.prime(11)
    with pytest.raises(FieldError):
        Field.from_token("R")
    for bad in ("GF:abc", "GF:", "GF:+5", "GF:٥", "GF:0_5", "GF:" + "5" * 4301):
        with pytest.raises(FieldError):
            Field.from_token(bad)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_gf7_is_a_field(a, b, c):
    f = Field.prime(7)
    a, b, c = f.coerce(a), f.coerce(b), f.coerce(c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


q_values = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def _forms(q):
    """Every way a caller may hold the rational ``q``: always a ``Fraction``,
    and a plain ``int`` too when ``q`` is integral."""
    return [q, q.numerator] if q.denominator == 1 else [q]


def _check_q_value(x, expected):
    assert not isinstance(x, float)
    assert x == expected


@settings(max_examples=200, deadline=None)
@given(q_values, q_values)
def test_q_operations_are_exact_whatever_the_input_type(p, q):
    for op, exact in ((QQ.add, p + q), (QQ.sub, p - q), (QQ.mul, p * q)):
        for a in _forms(p):
            for b in _forms(q):
                _check_q_value(op(a, b), exact)
    for a in _forms(p):
        _check_q_value(QQ.neg(a), -p)
        # coerce, parse and inv give the canonical form: int when integral
        canonical = int if p.denominator == 1 else Fraction
        for got in (QQ.coerce(a), QQ.parse(str(a))):
            _check_q_value(got, p)
            assert type(got) is canonical
        if p:
            inverse = QQ.inv(a)
            _check_q_value(inverse, 1 / p)
            assert type(inverse) is (int if p.numerator in (1, -1) else Fraction)


def test_parse_error_quotes_a_bounded_prefix_of_the_token():
    huge = "9" * 1_000_000
    for fld in (QQ, Field.prime(7)):
        with pytest.raises(FieldError) as info:
            fld.parse(huge)
        msg = str(info.value)
        assert len(msg) < 120 and "1000000 characters" in msg
        assert "9" * 40 in msg
    with pytest.raises(FieldError, match=r"'x'$"):
        QQ.parse("x")
