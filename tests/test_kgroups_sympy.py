"""Smith forms and class decompositions agree with sympy's invariant factors,
where sympy is installed."""

import random

import pytest

from gproj import GF, QQ, FPModule, KClass, PolyRing, class_decompose, smith_normal_form
from gproj.rings import format_poly

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

X = sympy.Symbol("x")
FIELDS = [QQ, GF(2), GF(3), GF(5)]


def _domain(field):
    return sympy.QQ if field == QQ else sympy.GF(field.p)


def _int_matrix(rng, rows, cols, rank):
    """A random rows x cols integer matrix of rank at most `rank`."""
    B = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
    C = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rank)]
    return [[sum(B[i][k] * C[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


def test_snf_diagonal_matches_sympy_invariant_factors():
    rng = random.Random(5)
    for _ in range(150):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = _int_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        expected = tuple(int(d) for d in invariant_factors(sympy.Matrix(A),
                                                           domain=sympy.ZZ) if d)
        assert smith_normal_form(A).diagonal == expected, A


def _to_sympy(p):
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** e[0] for e, c in p.terms)


def _monic_from_sympy(expr, base):
    """The sympy polynomial as a monic gproj polynomial over base."""
    field = base.field
    terms = {}
    for (e,), c in sympy.Poly(expr, X, domain=_domain(field)).monic().terms():
        c = sympy.Rational(c)
        terms[(e,)] = field.from_fraction(int(c.p), int(c.q))
    return base.from_dict(terms)


def _random_poly(rng, base, degree, den=1):
    """Coefficients in [-3, 3] (numerators in [-9, 9] over denominators up to
    den, where den > 1)."""
    field = base.field
    return base.from_dict({(e,): field.from_int(rng.randint(-3, 3)) if den == 1
                           else field.from_fraction(rng.randint(-9, 9), rng.randint(1, den))
                           for e in range(degree + 1) if rng.random() < 0.6})


def _random_columns(rng, base, ngens, nrels, degree, den=1):
    """Relation columns; at random one generator row or one column is zero, and
    one row is scaled by an integer greater than 1."""
    rows = [[_random_poly(rng, base, degree, den) for _ in range(nrels)]
            for _ in range(ngens)]
    if nrels and rng.random() < 0.3:
        rows[rng.randrange(ngens)] = [base.zero()] * nrels
    if nrels and rng.random() < 0.3:
        j = rng.randrange(nrels)
        for row in rows:
            row[j] = base.zero()
    if rng.random() < 0.5:
        i = rng.randrange(ngens)
        rows[i] = [p * base.constant(rng.choice([2, 3, 6])) for p in rows[i]]
    return [tuple(row[j] for row in rows) for j in range(nrels)]


def _expected_class(factors, base, ngens, free_degree=None):
    """Catalog coordinates read off monic invariant factors over k[x]: a zero
    factor, or one of degree free_degree, is a copy of [R]; a constant one
    cancels a generator."""
    coords = {"[R]": ngens - sum(1 for f in factors if f != 0)}
    for f in factors:
        if f == 0:
            continue
        g = _monic_from_sympy(f, base)
        if g.degree_in(0) == free_degree:
            coords["[R]"] += 1
        elif not g.is_constant():
            label = f"[R/({format_poly(g)})]"
            coords[label] = coords.get(label, 0) + 1
    return KClass(coords)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_poly_decomposition_matches_sympy(field):
    rng = random.Random(11)
    base = PolyRing(field, ("x",))
    R = base.quotient([])
    domain = _domain(field)[X]
    # degree 2 up to 4 x 4, then degree 1 up to 5 x 4 and 4 x 5 with denominators
    # up to 9 over QQ
    shapes = [(rng.randint(1, 4), rng.randint(0, 4), 2, 1) for _ in range(25)]
    shapes += [(rng.randint(3, 5), rng.randint(3, 5), 1, 9 if field == QQ else 1)
               for _ in range(15)]
    for ngens, nrels, degree, den in shapes:
        if (ngens, nrels) == (5, 5):
            continue
        cols = _random_columns(rng, base, ngens, nrels, degree, den)
        M = FPModule(R, ngens, cols)
        A = sympy.Matrix(ngens, nrels, [_to_sympy(cols[j][i]) for i in range(ngens)
                                        for j in range(nrels)])
        factors = invariant_factors(A, domain=domain)
        assert class_decompose(M) == _expected_class(factors, base, ngens), cols


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_chain_decomposition_matches_sympy(field):
    # over k[x], a module over k[x]/(x^n) presented by A is presented by [A | x^n I]
    rng = random.Random(23)
    base = PolyRing(field, ("x",))
    x = base.var("x")
    for _ in range(20):
        n = rng.randint(1, 4)
        R = base.quotient([f"x^{n}"])
        ngens, nrels = rng.randint(1, 4), rng.randint(0, 4)
        cols = [tuple(R.nf(_random_poly(rng, base, n - 1) * x ** rng.randint(0, n - 1))
                      for _ in range(ngens)) for _ in range(nrels)]
        M = FPModule(R, ngens, cols)
        A = sympy.Matrix(ngens, nrels, [_to_sympy(cols[j][i]) for i in range(ngens)
                                        for j in range(nrels)])
        A = A.row_join(X ** n * sympy.eye(ngens))
        factors = invariant_factors(A, domain=_domain(field)[X])
        assert class_decompose(M) == _expected_class(factors, base, ngens, n), (n, cols)
