"""Shared oracles for the test suite, deliberately independent of the library
internals: brute-force enumeration over finite rings, a Groebner-free
linear-algebra ideal-membership oracle, a plain module Buchberger, a plain
read-off of a module basis's columns, a schoolbook polynomial product,
classic integer-matrix oracles, and a reference top-level comma splitter
for model-file matrices
and a reference token-list polynomial parser;
also the rings of the gclass benchmark workload, which several tests share.
"""

from __future__ import annotations

import re
from heapq import heappop, heappush
from itertools import product
from math import gcd
from operator import add, sub

from gproj import GF, QQ, FPModule, Poly, PolyRing, QuotRing
from gproj.errors import InputError, ParseError
from gproj.modules import SubmoduleEngine, colon_generators

# the rings of the gclass benchmark workload: field, variables, modulus
GCLASS_RINGS = {
    "A": (GF(2), ("x", "y"), ["x^2", "y^2"]),
    "B": (GF(2), ("x", "y", "z"), ["x^2", "y^2", "z^2"]),
    "C": (QQ, ("x", "y"), ["x^2", "y^2"]),
    "D": (GF(3), ("x", "y"), ["x*y"]),
    "E": (GF(2), ("x", "y"), ["x^2", "x*y", "y^2"]),
    "chain2": (GF(7), ("x",), ["x^2"]),
    "chain4": (GF(5), ("x",), ["x^4"]),
    "chain5": (GF(3), ("x",), ["x^5"]),
}


def gclass_ring(key, guard=32):
    field, variables, modulus = GCLASS_RINGS[key]
    return PolyRing(field, variables, degree_guard=guard).quotient(modulus)


def late_period_module():
    """coker [[1, 0], [x, x^2]] over GF(5)[x]/(x^4), as in
    demos/late_period.model: R/(x^2) on a redundant presentation, d_2 =
    (0, x^2), then x^2 forever, so its resolution repeats from step 2."""
    R = gclass_ring("chain4")
    x = R.poly("x")
    return FPModule(R, 2, [(R.one(), x), (R.zero(), x * x)])


# ---------------------------------------------------------------------------
# enumeration of finite quotient rings and their modules
# ---------------------------------------------------------------------------

def field_elements(field):
    if field.kind != "prime_field":
        raise ValueError("only prime fields are enumerable")
    return list(range(field.p))


def ring_elements(R: QuotRing):
    """All normal forms of a finite quotient ring, or None if infinite."""
    base = R.base
    n = base.nvars
    gb = R.modulus.reduced_gb
    if base.field.kind != "prime_field":
        return None
    if n == 0:
        return [base.constant(c) for c in field_elements(base.field)]
    bounds = []
    leads = [g.lead_monomial() for g in gb]
    for i in range(n):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    standard = []
    for expt in product(*(range(b) for b in bounds)):
        if not any(all(expt[j] >= lead[j] for j in range(n)) for lead in leads):
            standard.append(expt)
    elements = []
    coeffs = field_elements(base.field)
    for combo in product(coeffs, repeat=len(standard)):
        elements.append(base.from_dict(
            {e: base.field.from_int(c) for e, c in zip(standard, combo) if c}))
    return elements


def vector_space(R, rank, elements):
    """All vectors of R^rank as tuples of normal forms."""
    return [tuple(v) for v in product(elements, repeat=rank)]


def span_of_columns(R, rank, columns, elements):
    """The full element set of the submodule generated by the columns: the
    closure under addition of their monomial multiples (over GF(p), adding
    a vector to itself gives its scalar multiples; a sum of normal forms is
    one)."""
    zero = tuple(R.zero() for _ in range(rank))
    span = {zero}
    frontier = [zero]
    monomials = [c for c in elements if len(c.terms) == 1 and c.lead_coeff() == 1]
    step_vectors = [tuple(R.mul(c, p) for p in col) for col in columns for c in monomials]
    while frontier:
        base_vec = frontier.pop()
        for sv in step_vectors:
            w = tuple(a + b for a, b in zip(base_vec, sv))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def matrix_image(R, columns, v, nrows):
    """sum v_j * columns_j in R^nrows, one ring product at a time; sums of
    normal forms are normal forms."""
    out = [R.zero() for _ in range(nrows)]
    for c, col in zip(v, columns):
        out = [a + R.mul(c, p) for a, p in zip(out, col)]
    return tuple(out)


def exact_kernel_reference(R, rank_here, rank_next, incoming, outgoing):
    """The verdict of `modules.exact_kernel` with every question asked: the
    image inside the kernel by `matrix_image`, then the kernel inside the
    image by membership on a fresh engine, also where the kernel's
    generators are the incoming columns themselves."""
    if rank_here == 0:
        return ()
    if any(any(p.terms for p in matrix_image(R, outgoing, col, rank_next)) for col in incoming):
        return None
    kernel = colon_generators(R, outgoing)
    image = SubmoduleEngine(R, rank_here, list(incoming))
    return kernel if all(image.contains(k) for k in kernel) else None


def kernel_vectors(R, columns, nrows, modifiers, elements):
    """Every v in R^len(columns) whose image sum v_j * columns_j lies in the
    span of the modifier columns of R^nrows, by enumeration."""
    span = span_of_columns(R, nrows, modifiers, elements)
    return [v for v in vector_space(R, len(columns), elements)
            if matrix_image(R, columns, v, nrows) in span]


def module_cosets(M: FPModule, elements):
    """Canonical coset representative map for a module over a finite ring."""
    R = M.ring
    span = span_of_columns(R, M.ngens, M.relations, elements)
    reps = {}
    seen = {}
    for v in vector_space(R, M.ngens, elements):
        if v in seen:
            continue
        coset = sorted(
            (tuple(R.add(a, b) for a, b in zip(v, s)) for s in span),
            key=lambda w: tuple(str(p) for p in w))
        rep = coset[0]
        for w in coset:
            seen[w] = rep
        reps[rep] = None
    return seen, list(reps)


# ---------------------------------------------------------------------------
# Groebner-free ideal membership (Macaulay-style linear algebra)
# ---------------------------------------------------------------------------

class LinearMembershipOracle:
    """Exact ideal membership over GF(p) without Groebner machinery.

    Builds the row-echelon span of bounded-degree multiples of the
    generators, takes the non-pivot monomials as a candidate quotient basis,
    and certifies it border-basis style: every top-degree monomial must be a
    pivot, the multiplication-by-variable matrices on the candidate basis
    must commute pairwise, and evaluating each generator at those matrices
    must give zero. Under that certificate the evaluation map is a ring
    homomorphism whose kernel is exactly the ideal, so membership queries of
    any degree are decided by matrix evaluation.
    """

    def __init__(self, p, nvars, gens, max_degree=16, min_degree=0):
        self.p = p
        self.nvars = nvars
        self.gens = [dict(g) for g in gens if g]
        self.rows = {}
        self.degree = None
        self.zero_ring = False
        self.basis = []
        if not self.gens:
            self.degree = 0  # zero ideal: membership is literal zero-ness
            self.trivial_ideal = True
            return
        self.trivial_ideal = False
        base_deg = max(self._deg(g) for g in self.gens)
        for D in range(max(base_deg, min_degree, 1), max_degree + 1):
            self._build(D)
            if not self._closed(D):
                continue
            self.degree_candidate = D
            if self._certify():
                self.degree = D
                return

    @staticmethod
    def _deg(poly):
        return max(sum(e) for e in poly)

    def _monomials(self, d):
        def rec(prefix, remaining, slots):
            if slots == 1:
                yield prefix + (remaining,)
                return
            for i in range(remaining + 1):
                yield from rec(prefix + (i,), remaining - i, slots - 1)
        if self.nvars == 0:
            yield ()
            return
        for total in range(d + 1):
            yield from rec((), total, self.nvars)

    def _reduce(self, poly):
        poly = dict(poly)
        out = {}
        while poly:
            lead = max(poly, key=lambda e: (sum(e), e))
            c = poly[lead] % self.p
            if not c:
                del poly[lead]
                continue
            row = self.rows.get(lead)
            if row is None:
                out[lead] = c
                del poly[lead]
                continue
            for e, rc in row.items():
                v = (poly.get(e, 0) - c * rc) % self.p
                if v:
                    poly[e] = v
                else:
                    poly.pop(e, None)
        return out

    def _insert(self, poly):
        r = self._reduce(poly)
        if not r:
            return
        lead = max(r, key=lambda e: (sum(e), e))
        inv = pow(r[lead], self.p - 2, self.p)
        self.rows[lead] = {e: (c * inv) % self.p for e, c in r.items()}

    def _build(self, D):
        self.rows = {}
        for g in self.gens:
            gd = self._deg(g)
            for m in self._monomials(D - gd):
                shifted = {tuple(a + b for a, b in zip(e, m)): c
                           for e, c in g.items()}
                self._insert(shifted)

    def _closed(self, D):
        for m in self._monomials(D):
            if sum(m) == D and m not in self.rows:
                return False
        return True

    def _mat_apply(self, M, v):
        dim = len(v)
        return tuple(sum(M[i][j] * v[j] for j in range(dim)) % self.p
                     for i in range(dim))

    def _certify(self):
        one = (0,) * self.nvars
        if one in self.rows:
            self.zero_ring = True  # 1 lies in the span, so the ideal is (1)
            self.basis = []
            return True
        basis = [m for m in self._monomials(self.degree_candidate)
                 if m not in self.rows]
        index = {m: i for i, m in enumerate(basis)}
        dim = len(basis)
        mats = []
        for i in range(self.nvars):
            M = [[0] * dim for _ in range(dim)]
            for j, w in enumerate(basis):
                shifted = tuple(w[t] + (1 if t == i else 0)
                                for t in range(self.nvars))
                r = self._reduce({shifted: 1})
                for e, c in r.items():
                    if e not in index:
                        return False  # reduction escaped the candidate basis
                    M[index[e]][j] = c
            mats.append(M)
        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                for col in range(dim):
                    v = tuple(1 if t == col else 0 for t in range(dim))
                    if self._mat_apply(mats[i], self._mat_apply(mats[j], v)) != \
                            self._mat_apply(mats[j], self._mat_apply(mats[i], v)):
                        return False
        self.basis = basis
        self.index = index
        self.mats = mats
        self.one_vec = tuple(1 if basis[t] == one else 0 for t in range(dim))
        for g in self.gens:
            if any(self._evaluate(g)):
                return False
        return True

    def _evaluate(self, poly):
        dim = len(self.basis)
        out = [0] * dim
        for e, c in poly.items():
            v = self.one_vec
            for i in range(self.nvars):
                for _ in range(e[i]):
                    v = self._mat_apply(self.mats[i], v)
            for t in range(dim):
                out[t] = (out[t] + c * v[t]) % self.p
        return tuple(out)

    @property
    def saturated(self):
        return self.degree is not None

    def quotient_dimension(self):
        if self.trivial_ideal:
            raise ValueError("zero ideal has an infinite quotient")
        return len(self.basis)

    def contains(self, poly):
        poly = {e: c % self.p for e, c in poly.items() if c % self.p}
        if not poly:
            return True
        if self.trivial_ideal:
            return False
        if self.zero_ring:
            return True
        return not any(self._evaluate(poly))


def random_ideal(rng):
    """A seeded small ideal: 2-4 generators of 1-4 terms and degree <= 4 in
    2-4 variables over GF(2), GF(7), GF(32003) or QQ, lex or grevlex, at a
    degree guard of 4 to 32 (some trip it). Returns (ring, generators)."""
    field = rng.choice([GF(2), GF(7), GF(32003), QQ])
    nvars = rng.randint(2, 4)
    ring = PolyRing(field, [f"x{i}" for i in range(nvars)], rng.choice(["lex", "grevlex"]),
                    rng.choice([4, 6, 8, 12, 16, 32]))
    degree = rng.randint(2, 4)
    gens = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * nvars
            for _ in range(rng.randint(0, degree)):
                e[rng.randrange(nvars)] += 1
            c = rng.randint(-5, 5) if field == QQ else rng.randrange(1, 40000)
            if c:
                terms[tuple(e)] = c
        gens.append(ring.from_dict(terms))
    return ring, gens


def random_module(R: QuotRing, rng) -> FPModule:
    """A seeded small module over R: 1-2 generators and 1-3 relations, each
    entry 0 or a sum of 1-2 monomials of degree <= 2 with coefficients 1-3."""
    n = R.base.nvars

    def entry():
        terms = {}
        for _ in range(rng.choice([0, 1, 1, 2])):
            e = [0] * n
            for _ in range(rng.randint(0, 2)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = rng.randint(1, 3)
        return R.nf(R.base.from_dict(terms))

    ngens = rng.randint(1, 2)
    return FPModule(R, ngens, [tuple(entry() for _ in range(ngens))
                               for _ in range(rng.randint(1, 3))])


def random_submodule(rng):
    """A seeded small submodule with a modulus: 1-4 vectors of rank 1-3, each
    entry of 0-2 terms of degree <= 3, over 2-3 variables and GF(2), GF(7),
    GF(32003) or QQ, lex or grevlex, at a degree guard of 4 to 32, and 1-3
    modulus generators of 1-3 terms and degree 2-3. Returns (ring, rank,
    vectors as {(position, exponent): coeff}, modulus generators)."""
    field = rng.choice([GF(2), GF(7), GF(32003), QQ])
    nvars = rng.randint(2, 3)
    ring = PolyRing(field, [f"x{i}" for i in range(nvars)], rng.choice(["lex", "grevlex"]),
                    rng.choice([4, 6, 8, 12, 16, 32]))

    def poly(low, high, nterms):
        terms = {}
        for _ in range(nterms):
            e = [0] * nvars
            for _ in range(rng.randint(low, high)):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = rng.randint(-5, 5) if field == QQ else rng.randrange(1, 40000)
        return ring.from_dict(terms)

    modulus = [poly(2, 3, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    rank = rng.randint(1, 3)
    vectors = [{(p, e): c for p in range(rank) for e, c in poly(0, 3, rng.randint(0, 2)).terms}
               for _ in range(rng.randint(1, 4))]
    return ring, rank, vectors, modulus


# ---------------------------------------------------------------------------
# module Groebner bases by plain Buchberger
# ---------------------------------------------------------------------------

def reference_module_basis(ring, rank, vectors, modulus=()):
    """The reduced Groebner basis of span(vectors) + (modulus)*P^rank in P^rank
    under the position-over-term order, by plain Buchberger on
    {(position, exponent): coeff} dicts: every pair at one position is
    reduced (normal selection, no criterion), with the field's own methods
    and no packed terms. Listed as FreeModuleGB.basis lists its vectors:
    by descending lead, each its lead first, then its tail descending."""
    field = ring.field

    def key(term):
        return -term[0], ring.key(term[1])

    def shifted(v, s):
        return {(p, tuple(map(add, e, s))): c for (p, e), c in v.items()}

    def minus(v, c, w):  # v - c*w
        out = dict(v)
        for t, cw in w.items():
            x = field.sub(out.get(t, field.zero), field.mul(c, cw))
            if x == field.zero:
                out.pop(t, None)
            else:
                out[t] = x
        return out

    def divides(a, b):
        return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))

    def reduce(v, basis):
        v, rem = dict(v), {}
        while v:
            t = max(v, key=key)
            g = next(((lg, g) for lg, g in basis if divides(lg, t)), None)
            if g is None:
                rem[t] = v.pop(t)
            else:  # g is monic: the step cancels t
                v = minus(v, v[t], shifted(g[1], tuple(map(sub, t[1], g[0][1]))))
        return rem

    basis, pairs = [], []

    def insert(v):
        lead = max(v, key=key)
        inv = field.inv(v[lead])
        for i, (other, _) in enumerate(basis):
            if other[0] == lead[0]:
                lcm = tuple(map(max, other[1], lead[1]))
                heappush(pairs, (sum(lcm), len(pairs), lcm, i, len(basis)))
        basis.append((lead, {t: field.mul(c, inv) for t, c in v.items()}))

    for v in list(vectors) + [{(p, e): c for e, c in g.terms} for g in modulus
                              for p in range(rank)]:
        if (r := reduce(v, basis)):
            insert(r)
    while pairs:
        _, _, lcm, i, j = heappop(pairs)
        (a, f), (b, g) = basis[i], basis[j]
        s = minus(shifted(f, tuple(map(sub, lcm, a[1]))), field.one,
                  shifted(g, tuple(map(sub, lcm, b[1]))))
        if (r := reduce(s, basis)):
            insert(r)
    minimal = [(lead, v) for n, (lead, v) in enumerate(basis)
               if not any(m != n and divides(other, lead) for m, (other, _) in enumerate(basis))]
    out = []
    for lead, v in sorted(minimal, key=lambda lv: key(lv[0]), reverse=True):
        tail = reduce({t: c for t, c in v.items() if t != lead}, minimal)
        out.append({lead: field.one, **dict(sorted(tail.items(), key=lambda tc: key(tc[0]),
                                                   reverse=True))})
    return out


def reference_read_off(R: QuotRing, gb, start, rank):
    """The columns in R^rank of the reducers of the reduced basis gb led at
    position start or later, read the plain way: every reducer of gb._index
    is unpacked into a rank-length column, one led by a modulus lead is put
    in normal form entry by entry, and zero columns are dropped."""
    leads = {g.lead_monomial() for g in R.modulus.reduced_gb}
    out = []
    for pos in sorted(gb._index):
        for lead, tail, _, _ in gb._index[pos] if pos >= start else ():
            terms = [[] for _ in range(rank)]
            for m, c in ((lead, R.base.field.one),) + tail:
                p, e = gb._layout.unpack(m)
                terms[p - start].append((e, c))
            col = tuple(Poly(R.base, tuple(t)) for t in terms)
            if gb._layout.unpack(lead)[1] in leads:
                col = tuple(R.nf(p) for p in col)
            if any(p.terms for p in col):
                out.append(col)
    return tuple(out)


def poly_to_int_dict(p):
    """A gproj Poly over GF(p) as {exponent: int} for the oracle."""
    return {e: int(c) for e, c in p.terms}


def schoolbook_product(a, b):
    """The terms of a * b, multiplied term by term through the field's own
    mul and add: no zero coefficients, in the ring's order."""
    field, ring = a.ring.field, a.ring
    out = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = field.add(out.get(e, field.zero), field.mul(c1, c2))
    return tuple(sorted(((e, c) for e, c in out.items() if c != field.zero),
                        key=lambda t: ring.key(t[0]), reverse=True))


def low_rank_product(R: QuotRing, rng, n=7, rank=4, degrees=(1, 2)):
    """A seeded n x n matrix B*C over R, as rows: B is n x rank and C is
    rank x n, each entry a dense polynomial of degree at most degrees[0]
    (in B) or degrees[1] (in C): every monomial of such a degree present,
    with a nonzero coefficient in -5..5. So B*C has rank at most rank and
    entries of degree degrees[0] + degrees[1]; its products are schoolbook
    ones."""
    base, n_vars = R.base, R.base.nvars

    def entry(d):
        monos = [e for e in product(range(d + 1), repeat=n_vars) if sum(e) <= d]
        return base.from_dict({e: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
                               for e in monos})

    B = [[entry(degrees[0]) for _ in range(rank)] for _ in range(n)]
    C = [[entry(degrees[1]) for _ in range(n)] for _ in range(rank)]
    return [[sum((Poly(base, schoolbook_product(B[i][k], C[k][j])) for k in range(rank)),
                 base.zero()) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# integer matrix oracles
# ---------------------------------------------------------------------------

def int_determinant(A):
    n = len(A)
    if n == 0:
        return 1
    A = [list(r) for r in A]
    from fractions import Fraction
    B = [[Fraction(x) for x in row] for row in A]
    det = Fraction(1)
    for c in range(n):
        pivot = None
        for r in range(c, n):
            if B[r][c]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != c:
            B[c], B[pivot] = B[pivot], B[c]
            det = -det
        det *= B[c][c]
        inv = 1 / B[c][c]
        for r in range(c + 1, n):
            if B[r][c]:
                f = B[r][c] * inv
                B[r] = [a - f * b for a, b in zip(B[r], B[c])]
    assert det.denominator == 1
    return int(det)


def minors_gcd_invariant_factors(A):
    """Invariant factors via gcds of k x k minors (the classic oracle)."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    from itertools import combinations
    previous = 1
    factors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                minor = int_determinant([[A[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


def univariate_gcd(a, b):
    """Monic gcd in k[x] for Poly values of a single-variable ring."""
    while not b.is_zero():
        r = a
        db = b.degree_in(0)
        lead_b = b.coeff_of((db,))
        while not r.is_zero() and r.degree_in(0) >= db:
            dr = r.degree_in(0)
            c = r.ring.field.div(r.coeff_of((dr,)), lead_b)
            r = r - b * r.ring.from_dict({(dr - db,): c})
        a, b = b, r
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# model-file text
# ---------------------------------------------------------------------------

def split_top_level_reference(text):
    """Split on commas outside brackets, one character at a time: the
    reference for the CLI's slicing splitter, unbalanced brackets included."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
            continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^]))")


def parse_poly_reference(text: str, ring: PolyRing) -> Poly:
    """The token-list parser of the polynomial grammar, one Field call per
    factor: the reference for `parse_poly`'s results, its errors' types,
    messages and columns included. It lexes the whole text first, so a stray
    character anywhere is the error it reports."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad = len(text) - len(rest)  # the first non-space character
            raise ParseError(f"unexpected character {text[bad]!r}", col=bad + 1)
        pos = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
    if not tokens:
        raise ParseError("empty polynomial")

    field, index = ring.field, ring._varindex
    terms: dict[tuple, object] = {}
    i = 0
    n = len(tokens)

    def parse_factor(i, coeff, expt):
        # one factor: integer, integer/integer, or var[^k]; a number scales
        # the coefficient and a power adds to the exponent list
        kind, val, col = tokens[i]
        if kind == "num":
            num = int(val)
            i += 1
            if i + 1 < n and tokens[i][1] == "/" and tokens[i + 1][0] == "num":
                try:  # a zero denominator is reported at its numerator
                    value = field.from_fraction(num, int(tokens[i + 1][1]))
                except InputError as exc:
                    raise ParseError(str(exc), col=col + 1) from None
                return field.mul(coeff, value), i + 2
            return field.mul(coeff, field.from_int(num)), i
        if kind == "name":
            if val not in index:
                raise ParseError(f"undeclared variable {val!r}", col=col + 1)
            i += 1
            k = 1
            if i + 1 < n and tokens[i][1] == "^":
                if tokens[i + 1][0] != "num":
                    raise ParseError("exponent must be an integer", col=tokens[i][2] + 1)
                k = int(tokens[i + 1][1])
                i += 2
            expt[index[val]] += k
            return coeff, i
        raise ParseError(f"unexpected {val!r}", col=col + 1)

    sign = 1
    first = True
    while i < n:
        kind, val, col = tokens[i]
        if kind == "op" and val in "+-":
            if not first and i > 0 and tokens[i - 1][0] == "op":
                raise ParseError("two consecutive operators", col=col + 1)
            sign = 1 if val == "+" else -1
            i += 1
            if i >= n:
                raise ParseError("dangling sign", col=col + 1)
        expt = [0] * ring.nvars
        coeff, i = parse_factor(i, field.one, expt)
        while i < n and tokens[i][1] == "*":
            if i + 1 == n:
                raise ParseError("dangling '*'", col=tokens[i][2] + 1)
            coeff, i = parse_factor(i + 1, coeff, expt)
        if sign < 0:
            coeff = field.neg(coeff)
        e = tuple(expt)
        terms[e] = field.add(terms[e], coeff) if e in terms else coeff
        sign = 1
        first = False
        if i < n and tokens[i][0] != "op":
            raise ParseError(f"expected operator before {tokens[i][1]!r}",
                             col=tokens[i][2] + 1)
        if i < n and tokens[i][1] in "*/^":
            raise ParseError(f"misplaced {tokens[i][1]!r}", col=tokens[i][2] + 1)
    return ring.from_dict(terms)
