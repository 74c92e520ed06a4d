import random
from fractions import Fraction

import pytest

from gproj import GF, QQ, InputError


def test_prime_validation():
    for p in (2, 3, 5, 31, 65537):
        assert GF(p).p == p
    for bad in (0, 1, 4, 9, 15, 2**31):
        with pytest.raises(InputError):
            GF(bad)


def test_gf_inverses_random():
    rng = random.Random(1)
    for p in (2, 3, 7, 101):
        f = GF(p)
        for _ in range(25):
            a = rng.randrange(1, p)
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_fraction_with_a_denominator_divisible_by_p_is_an_input_error():
    assert GF(5).from_fraction(3, 7) == 4
    for num, den in ((1, 5), (2, 10), (1, 0)):
        with pytest.raises(InputError, match=f"^coefficient {num}/{den} has denominator 0 "
                           r"in GF\(5\)$"):
            GF(5).from_fraction(num, den)
    with pytest.raises(InputError):
        QQ.from_fraction(1, 0)


def test_rationals_lowest_terms():
    a = QQ.from_fraction(4, -6)
    assert a == Fraction(-2, 3)
    assert a.denominator > 0
    assert QQ.coeff_str(Fraction(-1, 2)) == "-1/2"
    assert QQ.coeff_str(Fraction(5)) == "5"


def test_field_equality_and_caching():
    assert GF(7) is GF(7)
    assert GF(7) == GF(7) and GF(7) != GF(5)
    assert QQ == QQ and QQ != GF(2)
