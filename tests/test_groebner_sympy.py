"""Reduced Groebner bases agree with sympy's, term by term, where sympy is installed."""

import random

import pytest

from gproj import GF, QQ, PolyRing, groebner_basis

sympy = pytest.importorskip("sympy")

# the two ends of the prime range: over GF(2) every cancellation leaves a
# numerator 0 mod 2, and under the 2^31 cap the reduction loop's unreduced
# sums of coefficient products can pass 2^62
EDGE_PRIMES = (GF(2), GF(2147483647))


def cyclic(n):
    v = [f"x{i}" for i in range(n)]
    eqs = [" + ".join("*".join(v[(s + k) % n] for k in range(d)) for s in range(n))
           for d in range(1, n)]
    eqs.append("*".join(v) + " - 1")
    return v, eqs


def katsura(n):
    v = [f"u{i}" for i in range(n + 1)]

    def u(i):
        return v[abs(i)] if abs(i) <= n else None

    eqs = []
    for m in range(n):
        terms = [f"{u(k)}*{u(m - k)}" for k in range(-n, n + 1) if u(k) and u(m - k)]
        eqs.append(" + ".join(terms) + f" - {v[m]}")
    eqs.append(" + ".join([v[0]] + [f"2*{x}" for x in v[1:]]) + " - 1")
    return v, eqs


def sympy_basis(ring, eqs):
    """sympy's reduced basis, made monic in the ring's order."""
    syms = sympy.symbols(ring.variables)
    field = ring.field
    extra = {} if field == QQ else {"modulus": field.p}
    exprs = [sympy.sympify(e.replace("^", "**")) for e in eqs]
    out = []
    for p in sympy.groebner(exprs, *syms, order=ring.order, **extra).polys:
        terms = {}
        for monom, c in p.terms():
            num, den = sympy.fraction(sympy.Rational(c))
            terms[tuple(monom)] = field.from_fraction(int(num), int(den))
        out.append(ring.from_dict(terms).monic())
    return out


@pytest.mark.parametrize("system, n, field, order", [
    (cyclic, 4, GF(32003), "grevlex"),
    (cyclic, 5, GF(32003), "grevlex"),
    (katsura, 4, QQ, "grevlex"),
    (cyclic, 4, QQ, "lex"),
    (cyclic, 5, GF(2), "grevlex"),
    (cyclic, 4, GF(2), "lex"),
    (katsura, 4, GF(2147483647), "grevlex"),
    (cyclic, 4, GF(2147483647), "lex"),
    # the QQ sizes where every S-vector reducing to zero was a cliff
    (katsura, 5, QQ, "grevlex"),
    (cyclic, 5, QQ, "grevlex"),
])
def test_reduced_basis_matches_sympy(system, n, field, order):
    variables, eqs = system(n)
    ring = PolyRing(field, variables, order)
    gb = groebner_basis([ring.poly(e) for e in eqs], ring)
    assert all(g.lead_coeff() == field.one for g in gb)
    expected = sympy_basis(ring, eqs)
    expected.sort(key=lambda g: ring.key(g.lead_monomial()), reverse=True)
    assert [g.terms for g in gb] == [g.terms for g in expected]


def _random_poly(rng, ring, degree, nterms, nvars):
    """Up to nterms terms in the first nvars variables, total degree <= degree."""
    terms = {}
    for _ in range(nterms):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randint(-5, 5)
    return ring.from_dict(terms)


def _to_sympy(p, syms):
    return sum((sympy.Rational(c) * sympy.Mul(*[s**k for s, k in zip(syms, e)])
                for e, c in p.terms), sympy.Integer(0))


@pytest.mark.parametrize("field", [QQ, GF(32003), *EDGE_PRIMES], ids=repr)
@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_normal_forms_match_sympy_remainders(field, order):
    rng = random.Random(f"nf-{field!r}-{order}")
    ring = PolyRing(field, ("x", "y", "z"), order)
    syms = sympy.symbols(ring.variables)
    extra = {} if field == QQ else {"modulus": field.p}
    # generators in x and y only, so no lead is divisible by z and a z^k
    # term past the packing width stays in the normal form
    R = ring.quotient([_random_poly(rng, ring, 3, 3, 2) + ring.poly(lead)
                       for lead in ("x^2", "y^3")])
    G = [_to_sympy(g, syms) for g in R.modulus.reduced_gb]
    wide = R.modulus._gb._layout.cap + 1
    for n in range(24):
        f = _random_poly(rng, ring, 6, 5, 3)
        if n % 3 == 0:
            f = f + ring.var("z") ** (wide + n)
        _, r = sympy.reduced(_to_sympy(f, syms), G, *syms, order=order, polys=True, **extra)
        want = ring.from_dict({e: field.from_fraction(int(sympy.numer(c)), int(sympy.denom(c)))
                               for e, c in r.terms()})
        assert R.nf(f) == want
        assert R.modulus.contains(f) == want.is_zero()
