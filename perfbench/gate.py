"""Independent checks on benchmark outputs, and their canonical digests.

Nothing here calls the library's reduction, Groebner-basis or Smith-form
code. Polynomials are divided by a loop of this module's own, coefficient
arithmetic is done on the raw values (Fraction or int mod p), and integer
matrices are multiplied and their determinants taken here. A check raises
`GateError` with a one-line reason; it never returns a verdict to ignore.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


class GateError(Exception):
    """An output failed its independent check."""


# ---------------------------------------------------------------------------
# coefficient arithmetic without the library's field objects
# ---------------------------------------------------------------------------

class Arith:
    """Exact arithmetic on raw coefficients of QQ (Fraction) or GF(p) (int)."""

    def __init__(self, field):
        self.p = getattr(field, "p", None)

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def div(self, a, b):
        if self.p:
            return (a * pow(b, self.p - 2, self.p)) % self.p
        return Fraction(a) / b


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def terms_of(poly) -> dict:
    return dict(poly.terms)


def poly_mul(f: dict, g: dict, ar: Arith) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = ar.add(out.get(e, 0), ar.mul(c1, c2))
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def poly_sub(f: dict, g: dict, ar: Arith) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = ar.sub(out.get(e, 0), c)
        if v == 0:
            out.pop(e, None)
        else:
            out[e] = v
    return out


def lead(f: dict, key):
    return max(f, key=key)


def remainder(f: dict, basis: list[dict], key, ar: Arith) -> dict:
    """Full normal form of f modulo basis (any order of division is fine
    for deciding zero when basis is a Groebner basis)."""
    leads = [(lead(g, key), g) for g in basis if g]
    work = dict(f)
    rem: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, g in leads:
            if _divides(lm, m):
                q = ar.div(c, g[lm])
                shift = tuple(b - a for a, b in zip(lm, m))
                for e, cc in g.items():
                    if e == lm:
                        continue
                    e2 = tuple(a + b for a, b in zip(e, shift))
                    v = ar.sub(work.get(e2, 0), ar.mul(q, cc))
                    if v == 0:
                        work.pop(e2, None)
                    else:
                        work[e2] = v
                break
        else:
            rem[m] = c
    return rem


def check_groebner(gens, basis, ring) -> None:
    """`basis` is the reduced, monic Groebner basis of the ideal of `gens`.

    The generators reduce to zero, every S-polynomial reduces to zero (pairs
    with coprime leads are skipped by Buchberger's first criterion), each
    element is monic and no term of one element is divisible by the lead of
    another. Together these pin down the unique reduced basis.
    """
    key, ar = ring._key, Arith(ring.field)
    G = [terms_of(g) for g in basis]
    if any(not g for g in G):
        raise GateError("zero element in basis")
    leads = [lead(g, key) for g in G]
    for i, g in enumerate(G):
        if g[leads[i]] != 1:
            raise GateError(f"basis element {i} is not monic")
        for j, lm in enumerate(leads):
            if j != i and any(_divides(lm, e) for e in g):
                raise GateError(f"basis element {i} is not reduced by element {j}")
    for f in gens:
        if remainder(terms_of(f), G, key, ar):
            raise GateError("an input generator does not reduce to zero")
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            a, b = leads[i], leads[j]
            if all(x == 0 or y == 0 for x, y in zip(a, b)):
                continue
            lcm = tuple(max(x, y) for x, y in zip(a, b))
            si = {tuple(x - y for x, y in zip(lcm, a)): 1}
            sj = {tuple(x - y for x, y in zip(lcm, b)): 1}
            s = poly_sub(poly_mul(G[i], si, ar), poly_mul(G[j], sj, ar), ar)
            if remainder(s, G, key, ar):
                raise GateError(f"S-polynomial ({i},{j}) does not reduce to zero")


def check_reduced_against(poly, basis_leads) -> None:
    for e, _ in poly.terms:
        if any(_divides(lm, e) for lm in basis_leads):
            raise GateError("normal form has a term divisible by a modulus lead")


def check_witness(ring, generators, column, witness) -> None:
    """sum_j witness[j] * generators[j] equals column in the quotient ring."""
    if witness is None:
        raise GateError("member column got no witness")
    if len(witness) != len(generators):
        raise GateError("witness length differs from the generator count")
    key, ar = ring.base._key, Arith(ring.base.field)
    G = [terms_of(g) for g in ring.modulus.reduced_gb]
    for i, target in enumerate(column):
        acc = terms_of(target)
        for w, gen in zip(witness, generators):
            acc = poly_sub(acc, poly_mul(terms_of(w), terms_of(gen[i]), ar), ar)
        if remainder(acc, G, key, ar):
            raise GateError(f"witness does not recombine in coordinate {i}")


def _has_constant(p) -> bool:
    return any(not any(e) for e, _ in p.terms)


def check_nonmember(ring, generators, column, witness) -> None:
    """Certify non-membership at the origin: the modulus and every generator
    vanish there and the column does not, so the column lies outside the
    span (which sits inside m*R^r for m the maximal ideal of the origin)."""
    if witness is not None:
        raise GateError("non-member column got a witness")
    if any(_has_constant(g) for g in ring.modulus.reduced_gb):
        raise GateError("modulus has a constant term; no certificate")
    if any(_has_constant(p) for gen in generators for p in gen):
        raise GateError("generator has a constant term; no certificate")
    if not any(_has_constant(p) for p in column):
        raise GateError("non-member column has no constant term; no certificate")


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def int_matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def int_det(M) -> int:
    """Bareiss fraction-free determinant."""
    A = [list(r) for r in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k]:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def check_snf(A, U, S, V, diagonal) -> None:
    """S = U*A*V, U and V unimodular, S diagonal with d_1 | d_2 | ... ."""
    if int_matmul(int_matmul(U, A), V) != [list(r) for r in S]:
        raise GateError("S != U*A*V")
    if int_det(U) not in (1, -1) or int_det(V) not in (1, -1):
        raise GateError("transform is not unimodular")
    diag = []
    for i, row in enumerate(S):
        for j, v in enumerate(row):
            if i != j and v:
                raise GateError("S is not diagonal")
            if i == j and v:
                diag.append(v)
    if tuple(diag) != tuple(diagonal) or any(d < 0 for d in diag):
        raise GateError("diagonal does not match S")
    if any(b % a for a, b in zip(diag, diag[1:])):
        raise GateError("diagonal entries do not divide in sequence")


def field_rank(rows, ar: Arith) -> int:
    """Rank of a matrix of raw coefficients, by Gaussian elimination."""
    A = [[ar.norm(v) for v in row] for row in rows]
    rank, ncols = 0, len(A[0]) if A else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(A)) if A[r][c] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(len(A)):
            if r != rank and A[r][c] != 0:
                q = ar.div(A[r][c], A[rank][c])
                A[r] = [ar.sub(x, ar.mul(q, y)) for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# canonical forms and digests
# ---------------------------------------------------------------------------

def poly_canon(p) -> str:
    return ";".join(f"{e}:{c}" for e, c in p.terms)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
