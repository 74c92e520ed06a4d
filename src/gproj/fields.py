"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values (Fraction for QQ, int in [0, p) for
GF(p)); the field object supplies the arithmetic. Everything is immutable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

_PRIME_CAP = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface for exact coefficient fields. Each field defines
    `kind`, the values `zero` and `one`, `from_int`, `from_fraction`, `add`,
    `sub`, `mul`, `neg` and `inv`; the methods here are built on those."""

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coeff_str(self, a) -> str:
        return str(a)


class RationalField(Field):
    kind = "rationals"
    zero, one = Fraction(0), Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, num, den):
        if den == 0:
            raise InputError("zero denominator in rational coefficient")
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def coeff_str(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def __eq__(self, other):
        return self is other or isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "prime_field"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InputError(f"{p} is not prime")
        if p >= _PRIME_CAP:
            raise InputError(f"prime {p} exceeds the 2^31 cap")
        self.p = p
        self.zero, self.one = 0, 1

    def from_int(self, n):
        return n % self.p

    def from_fraction(self, num, den):
        if den % self.p == 0:
            raise InputError(f"coefficient {num}/{den} has denominator 0 in {self!r}")
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return self is other or (isinstance(other, PrimeField) and other.p == self.p)

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]
