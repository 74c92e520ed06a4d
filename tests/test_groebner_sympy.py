"""Reduced Groebner bases agree with sympy's, term by term, where sympy is installed."""

import pytest

from gproj import GF, QQ, PolyRing, groebner_basis

sympy = pytest.importorskip("sympy")


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
])
def test_reduced_basis_matches_sympy(system, n, field, order):
    variables, eqs = system(n)
    ring = PolyRing(field, variables, order)
    gb = groebner_basis([ring.poly(e) for e in eqs], ring)
    assert all(g.lead_coeff() == field.one for g in gb)
    expected = sympy_basis(ring, eqs)
    expected.sort(key=lambda g: ring.key(g.lead_monomial()), reverse=True)
    assert [g.terms for g in gb] == [g.terms for g in expected]
