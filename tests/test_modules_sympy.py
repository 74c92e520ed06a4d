"""Generic module ranks agree with sympy's matrix rank, where sympy is installed."""

import random

import pytest

from gproj import QQ, FPModule, module_rank, polynomial_ring

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("x y")


def _linear(rng, ring):
    """A random polynomial of degree at most 1 with small integer coefficients."""
    return ring.base.from_dict({(0, 0): rng.randint(-2, 2), (1, 0): rng.randint(-2, 2),
                                (0, 1): rng.randint(-2, 2)})


def _to_sympy(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * X**e[0] * Y**e[1]
                for e, c in p.terms), sympy.Integer(0))


def test_module_rank_matches_sympy_on_rank_deficient_matrices():
    # A = B*C with B of size n x r and C of size r x m has rank at most r < n
    # in most cases, so the fraction-free elimination clears rows below each
    # pivot; M = coker(A) has rank n - rank(A)
    R = polynomial_ring(QQ, ("x", "y"))
    rng = random.Random(11)
    deficient = 0
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(1, max(1, min(n, m) - 1))
        B = [[_linear(rng, R) for _ in range(r)] for _ in range(n)]
        C = [[_linear(rng, R) for _ in range(m)] for _ in range(r)]
        A = [[sum((B[i][k] * C[k][j] for k in range(r)), R.zero()) for j in range(m)]
             for i in range(n)]
        M = FPModule(R, n, [tuple(A[i][j] for i in range(n)) for j in range(m)])
        rank = sympy.Matrix(n, m, lambda i, j: _to_sympy(A[i][j])).rank(
            iszerofunc=lambda e: sympy.expand(e) == 0)
        assert module_rank(M) == n - rank, A
        deficient += 0 < rank < min(n, m)
    assert deficient >= 10


def test_module_rank_of_a_four_row_product_matches_sympy():
    # draw 123 of seed 7 of the generator above, B of size 4 x 3 and C of
    # size 3 x 4: its module basis took 1.3 s while the modulus entered the
    # completion as ordinary inputs, and takes 0.03 s on a 2.1 GHz Xeon now
    R = polynomial_ring(QQ, ("x", "y"))
    rows = [["-x^2+5*x*y-3*y^2+9*x+3*y+4", "x^2-2*y^2+2*y+3",
             "-2*x^2-x*y-y^2+3*x-2*y+5", "3*x^2-x*y+5*y^2+5*x-5*y"],
            ["4*x*y+5*y^2+6*x+8*y+4", "-3*x^2+6*x*y+6*y^2-6*x+6*y-4",
             "-3*x^2+3*x*y+3*y^2-4*x+5*y-2", "4*x^2+2*x*y-3*y^2+5*x+4*y"],
            ["2*x^2+3*x*y+2*x+3*y", "-5*x^2+11*x*y-2*y^2+3*x-y+4",
             "x^2+x*y+7*x-2*y+3", "2*x^2+x*y-5*x-y+1"],
            ["-x^2+2*x*y-2*y^2+7*x+2*y-4", "3*x^2+3*x*y-6*y^2+7*x-4*y+7",
             "-3*x*y-y^2+9*x-7*y+6", "x^2-2*x*y+2*y^2-x-y-1"]]
    A = [[R.poly(p) for p in row] for row in rows]
    M = FPModule(R, 4, [tuple(A[i][j] for i in range(4)) for j in range(4)])
    rank = sympy.Matrix(4, 4, lambda i, j: _to_sympy(A[i][j])).rank(
        iszerofunc=lambda e: sympy.expand(e) == 0)
    assert rank == 3
    assert module_rank(M) == 1
