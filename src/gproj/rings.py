"""Multivariate polynomial rings, monomial orders, Groebner bases, quotient rings.

Polynomials are sparse: a tuple of (exponent vector, coefficient) pairs kept
strictly descending in the ring's monomial order, with no zero coefficients.
One Groebner engine, FreeModuleGB, serves both ideals (rank 1) and
submodules of free modules over P/I, with one completion at every rank:
signatures, which skip most S-vectors that reduce to zero, with the reduced
basis of I as reducers below every signature (see FreeModuleGB). Its final
interreduction reduces only the tails that some lead divides, and it records
the leads of the modulus rows g*e_p it left as they were, which a read-off of
columns over P/I skips, since such a row is zero there. Inside it a
term (position, exponent) is one int: a low part of equal-width fields (total
degree, then e_{n-1} .. e_0 up to the top), each field below a guard bit, then
a key part, a linear form in the exponents plus an offset, whose int order is
the monomial order reversed, then the position. So a product by a monomial is
one add, the heap pops the smallest int first, divisibility is
((m | H) - lead) & H == H for the guard bits H, and the degree is a mask.
Fields hold twice the larger of the degree guard and the degree of the inputs
and the modulus, the most an S-vector or lcm reaches; a wider query meets the
reducers repacked at its width. FreeModuleGB.reduce is the one reduction loop:
normal forms and ideal membership run it on the rank-1 basis each Ideal keeps,
and a finished basis remembers which reducer divides each term it has met.
It calls no Field method: over GF(p) a coefficient is a plain int, left
unreduced as steps add products to it and taken mod p once, when it is popped.
Over QQ a completion holds each vector as a primitive integer multiple, which
has the same support and so takes the same steps; its reducers become monic
Fractions once, when the reduced basis is done, so every query reads those.
A reducer has one shape throughout, (lead, tail, top, a), a = 1 once finished.
A step past the degree guard trips, naming the largest degree it would reach,
and so does a new basis element past it; the inputs themselves may pass it.
Every value here is immutable after construction; ideals compute their reduced
Groebner basis at construction time, never lazily. A basis's reducer memo
caches a pure function of a term and the frozen basis, so a concurrent miss
only computes the same entry twice, and instances can be shared freely
across threads.
"""

from __future__ import annotations

import re
from bisect import insort_left as insort
from copy import copy
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import add, itemgetter, le, mul, neg
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import (
    DegreeGuardExceeded,
    InputError,
    NotMonic,
    ParseError,
    RingMismatch,
)
from .fields import Field

Monomial = tuple[int, ...]

DEFAULT_DEGREE_GUARD = 32
_MEMO_SIZE = 1 << 16  # a basis's reducer memo is cleared when it holds this many terms


def _key_lex(expt: Monomial):
    return expt


def _key_grevlex(expt: Monomial):
    # total degree first; ties: smaller exponent in the last differing
    # variable wins, encoded by negating the reversed vector
    return (sum(expt), *map(neg, reversed(expt)))


_ORDER_KEYS = {"lex": _key_lex, "grevlex": _key_grevlex}


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


class PolyRing:
    """k[x_1, ..., x_n] with a fixed monomial order ('grevlex' or 'lex')."""

    __slots__ = ("field", "variables", "order", "degree_guard", "_key", "_varindex", "_hash")

    def __init__(self, field: Field, variables: Iterable[str], order: str = "grevlex",
                 degree_guard: int = DEFAULT_DEGREE_GUARD):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise InputError("duplicate variable names")
        for v in variables:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v):
                raise InputError(f"bad variable name {v!r}")
        if order not in _ORDER_KEYS:
            raise InputError(f"unknown monomial order {order!r}")
        if type(degree_guard) is not int or degree_guard < 0:
            raise InputError(
                f"degree guard must be a non-negative integer, got {degree_guard!r}")
        self.field = field
        self.variables = variables
        self.order = order
        self.degree_guard = degree_guard
        self._key = _ORDER_KEYS[order]
        self._varindex = {v: i for i, v in enumerate(variables)}
        self._hash = hash((field, variables, order))  # immutable: hashed once

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def key(self, expt: Monomial):
        return self._key(expt)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing) and self.field == other.field
            and self.variables == other.variables and self.order == other.order)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}] ({self.order})"

    # ----- element constructors -----
    def from_dict(self, d: dict[Monomial, object]) -> "Poly":
        from_int, terms = self.field.from_int, []
        for e, c in d.items():  # raw int coefficients are mapped into the field
            if (c := from_int(c) if isinstance(c, int) else c) != 0:
                terms.append((e, c))
        terms.sort(key=lambda t: self._key(t[0]), reverse=True)
        return Poly(self, tuple(terms))

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c) -> "Poly":
        c = self.field.from_int(c) if isinstance(c, int) else c
        if c == 0:
            return self.zero()
        return Poly(self, (((0,) * self.nvars, c),))

    def var(self, name: str) -> "Poly":
        if name not in self._varindex:
            raise InputError(f"unknown variable {name!r}")
        e = [0] * self.nvars
        e[self._varindex[name]] = 1
        return Poly(self, ((tuple(e), self.field.one),))

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(v) for v in self.variables)

    def poly(self, text: str) -> "Poly":
        return parse_poly(text, self)

    def quotient(self, modulus_gens: Iterable) -> "QuotRing":
        gens = [g if isinstance(g, Poly) else self.poly(g) for g in modulus_gens]
        return QuotRing(self, Ideal(self, gens))


def _dot(ring: PolyRing, columns, vec, nrows: int,
         gb: Optional["FreeModuleGB"] = None) -> tuple["Poly", ...]:
    """The one product kernel: the nrows rows of sum_j vec_j * columns_j,
    summed column by column into one dict per row on exponent tuples, zero
    entries skipped. Over QQ the columns and the vector are each scaled to
    integer numerators over their lcm of denominators, so every sum is of
    ints over one common denominator and each output term makes one
    Fraction; over GF(p) the sums are unreduced ints. Given gb, the rank-1
    basis of a modulus, each row that does not cancel is packed once and
    reduced once, as `QuotRing.nf` reduces it; with none, it is sorted into
    a Poly.
    A Poly product is the 1x1 case with no modulus."""
    field = ring.field
    if p := field.p if field.kind == "prime_field" else None:
        pairs = [([f.terms for f in col], b.terms) for col, b in zip(columns, vec) if b.terms]
    else:
        pairs = [(col, b.terms) for col, b in zip(columns, vec) if b.terms]
        dc = lcm(*(c.denominator for col, _ in pairs for f in col for _, c in f.terms))
        dv = lcm(*(c.denominator for _, b in pairs for _, c in b))
        pairs = [([[(e, c.numerator * (dc // c.denominator)) for e, c in f.terms] for f in col],
                  [(e, c.numerator * (dv // c.denominator)) for e, c in b]) for col, b in pairs]
    rows = [{} for _ in range(nrows)]
    for col, b in pairs:
        for acc, a in zip(rows, col):
            for e1, c1 in a:
                for e2, c2 in b:
                    e = tuple(map(add, e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
    if not p:  # one Fraction per sum that does not cancel
        den = dc * dv
        rows = [{e: Fraction(c, den) for e, c in acc.items() if c} for acc in rows]
    if gb is None:
        return tuple(map(ring.from_dict, rows))  # over GF(p) it takes each sum mod p
    rows = [{e: c for e, c in acc.items() if (c % p if p else c)} for acc in rows]
    return tuple(Poly(ring, _normal_form(gb, acc.items(), max(map(sum, acc)),
                                         ring.degree_guard)) if acc else ring.zero()
                 for acc in rows)


class Poly:
    """Sparse multivariate polynomial over a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def lead_monomial(self) -> Monomial:
        return self.terms[0][0]

    def lead_coeff(self):
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, idx: int) -> int:
        if not self.terms:
            return -1
        return max(e[idx] for e, _ in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    def _dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        if self.ring != other.ring:
            raise RingMismatch("polynomial rings differ")
        f = self.ring.field
        d = self._dict()
        for e, c in other.terms:
            s = f.add(d.get(e, f.zero), c)
            if s == 0:
                d.pop(e, None)
            else:
                d[e] = s
        return self.ring.from_dict(d)

    def __neg__(self) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, tuple((e, f.neg(c)) for e, c in self.terms))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        if self.ring is not other.ring and self.ring != other.ring:  # no call when shared
            raise RingMismatch("polynomial rings differ")
        return _dot(self.ring, ((self,),), (other,), 1)[0]

    def scale(self, c) -> "Poly":
        f = self.ring.field
        c = f.from_int(c) if isinstance(c, int) else c
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, tuple((e, f.mul(cc, c)) for e, cc in self.terms))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.ring.field.inv(self.lead_coeff()))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise InputError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def coeff_of(self, expt: Monomial):
        for e, c in self.terms:
            if e == expt:
                return c
        return self.ring.field.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):  # lead exponent and size: Fraction coefficients hash slowly
        return hash((len(self.terms), self.terms[0][0] if self.terms else None))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# ---------------------------------------------------------------------------
# printing / parsing (the grammar used by reports and model files)
# ---------------------------------------------------------------------------

def format_poly(p: Poly) -> str:
    """Canonical string form: terms in ring order joined by +/-."""
    if p.is_zero():
        return "0"
    field = p.ring.field
    parts: list[str] = []
    for i, (e, c) in enumerate(p.terms):
        neg = False
        if field.kind == "rationals" and c < 0:
            neg, c = True, -c
        mono = "*".join(
            v if k == 1 else f"{v}^{k}"
            for v, k in zip(p.ring.variables, e) if k
        )
        cs = field.coeff_str(c)
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        else:
            body = f"{cs}*{mono}"
        if i == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^]))")


def parse_poly(text: str, ring: PolyRing) -> Poly:
    """Parse the polynomial grammar: sums of `coeff`, `mono`, `coeff*mono`.
    Each term is read into one coefficient and one exponent list and added
    into one dict of terms."""
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
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
    terms: dict[Monomial, object] = {}
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


# ---------------------------------------------------------------------------
# normal forms and the Groebner engine
# ---------------------------------------------------------------------------

Vec = dict  # {(position, exponent): coeff}, an element of the free module P^r


class _Layout(NamedTuple):
    """One packing of terms into ints; its functions close over the rest."""
    cap: int  # the largest exponent or total degree a field holds
    low: int  # mask of the low part: at one degree its int order is lex, e_0 highest
    guards: int  # the top bit of each exponent field
    degree: int  # mask of the total-degree field, the lowest one
    pshift: int  # bit offset of the position
    pack: Callable[[int, Monomial], int]
    unpack: Callable[[int], tuple[int, Monomial]]
    lcm: Callable[[int, int], int]  # the low part of the lcm of two terms
    lift: Callable[[int], int]  # the packed monomial of a low part, at position 0


@lru_cache(maxsize=32)
def _layout(nvars: int, order: str, width: int) -> _Layout:
    n, w, base = nvars, width, 1 << width
    low, cap = (n + 1) * w, (1 << (w - 1)) - 1
    offsets = [(n - i) * w for i in range(n)]  # of the fields of e_0 .. e_{n-1}
    # the key: digits B - degree, e_{n-1} .. e_0 for grevlex; B^(n+1) - E for
    # lex, E the exponent fields read as one number
    keys = [base**i - base**n if order == "grevlex" else -(base ** (n - 1 - i)) for i in range(n)]
    weights = [(k << low) + (1 << s) + 1 for k, s in zip(keys, offsets)]
    pshift, origin, degree = low + (n + 2) * w, base ** (n + 1) << low, base - 1
    units = sum(1 << s for s in offsets)  # a 1 in each exponent field
    exponents, guards, ones = cap * units, (cap + 1) * units, sum(base**i for i in range(n))

    # few distinct monomials cross the engine boundary: remember them
    monomial = lru_cache(maxsize=512)(lambda expt: sum(map(mul, expt, weights), origin))
    exponent = lru_cache(maxsize=512)(lambda m: tuple([(m >> s) & cap for s in offsets]))
    lift = lru_cache(maxsize=512)(lambda m: monomial(exponent(m)))

    def lcm(a: int, b: int) -> int:
        la, lb = a & exponents, b & exponents
        ge = ((la | guards) - lb) & guards  # the guard bits where a's field is the larger
        mx = lb ^ ((la ^ lb) & (ge - (ge >> (w - 1))))
        return mx + ((mx * ones >> (n * w)) & degree)

    return _Layout(cap, exponents | degree, guards, degree, pshift,
                   lambda pos, expt: (pos << pshift) + monomial(expt),
                   lambda m: (m >> pshift, exponent(m & (exponents | degree))), lcm, lift)


def _width(degree: int) -> int:
    """Bits per field, so that a field holds 0 .. degree below its guard bit."""
    return max(degree, 1).bit_length() + 1


def _guard_exceeded(operation: str, what: str, degree: int, guard: int):
    return DegreeGuardExceeded(f"{operation}: {what} degree {degree} exceeds guard {guard}")


def _primitive(v: dict) -> dict:
    """A vector over QQ, its coefficients Fractions or ints, as the integer
    multiple with coprime coefficients and a positive first one."""
    d = lcm(*[c.denominator for c in v.values()])
    v = {m: c.numerator * (d // c.denominator) for m, c in v.items()}
    g = gcd(*v.values())
    g = -g if next(iter(v.values())) < 0 else g
    return {m: c // g for m, c in v.items()} if g != 1 else v


def _divisor(m: int, reducers, guards: int) -> Optional[tuple]:
    """The first of the reducers whose lead divides the term m, or None."""
    mg = m | guards
    for g in reducers:
        if (mg - g[0]) & guards == guards:
            return g
    return None


class FreeModuleGB:
    """Reduced Groebner basis of span(vectors) + I*P^rank in P^rank (POT
    order), where modulus is the reduced Groebner basis of an ideal I of P.

    This is the one Groebner engine in gproj; an ideal is the rank-1 case
    with no modulus. Every rank is completed by signatures (RB in C. Eder
    and J.-C. Faugere, "A survey on signature-based algorithms for computing
    Groebner bases", J. Symb. Comput. 80 (2017)), which skips most S-vectors
    that reduce to zero. The known basis of I*P^rank sits below every
    signature, as in incremental F5 (J.-C. Faugere, ISSAC 2002): each g*e_p
    is a reducer that is always regular, forms pairs only with the new
    elements at its position, and gives each input i the syzygies
    LM(g)*e_i. _fixed holds the packed leads of the rows g*e_p that the
    reduced basis keeps as they are (empty in a repacked copy). Inside,
    every term is a packed int (see the module docstring) and a reducer is
    one tuple (lead, tail, top, a), from the completion to the last query:
    its lead term, the other terms as (term, coeff) pairs in descending POT
    order, the largest total degree among them, and a, the lead's
    coefficient. Coefficients are plain values under operators, not Field
    methods: ints in [0, p) over GF(p), where a = 1 throughout; only
    reduce() holds unreduced sums. Over QQ the completion holds every
    vector as a primitive integer one (_primitive) with a > 0, so no
    Fraction is made until _interreduced makes each reducer monic, once,
    with Fraction tail coefficients and a = 1. So every finished reducer is
    monic over either field. The guard bounds the products a completion
    makes and the basis elements it adds; the inputs themselves may pass
    it. _memo maps each packed term an unbounded reduction has met to its
    reducer in _index (see _reducer), and is replaced with the index it
    serves.
    """

    def __init__(self, ring: PolyRing, rank: int, vectors: list[Vec],
                 modulus: tuple[Poly, ...] = ()):
        self.ring = ring
        self.rank = rank
        # S-vector terms and lcms reach at most twice the larger of the guard
        # and the input degree; no product past the guard is ever made
        top = max(chain((sum(e) for v in vectors for _, e in v),
                        (g.total_degree() for g in modulus)), default=0)
        self._operation = "Groebner basis" if rank == 1 else f"module basis at rank {rank}"
        self._p = ring.field.p if ring.field.kind == "prime_field" else None  # None over QQ
        width = 2 * max(top, ring.degree_guard)
        while True:  # a signature, unlike a term, is not bounded by the guard
            self._layout = _layout(ring.nvars, ring.order, _width(width))
            self._index: dict[int, list[tuple]] = {}  # position -> reducers, kept current
            packed = [self._packed(v) for v in vectors if v]
            basis = self._signature_buchberger(
                packed if self._p else list(map(_primitive, packed)), modulus)
            if basis is not None:
                break
            width *= 2
        self._index, self._memo = basis, {}
        self._operation = "normal form"

    @property
    def basis(self) -> list[Vec]:
        """The reduced basis as vectors, built on each read so it is stored once;
        each lists its lead, then its tail in descending POT order."""
        one, unpack = self.ring.field.one, self._layout.unpack
        return [{unpack(m): c for m, c in chain(((lead, one),), tail)}
                for lead, tail, _, _ in chain.from_iterable(self._index.values())]

    def reduce_vec(self, v: Vec) -> Vec:
        """reduce() on {(position, exponent): coeff} vectors."""
        gb = self._holding(max((sum(e) for _, e in v), default=0))
        r = gb.reduce(gb._packed(v), self.ring.degree_guard)
        return {gb._layout.unpack(m): c for m, c in r.items()}

    def _holding(self, degree: int) -> "FreeModuleGB":
        """self, or if degree is too wide for it, a copy repacked to hold degree,
        with its own memo: its terms are packed differently, so it must never
        share self's. Each reducer keeps its order, coefficients, top and a;
        only its terms are repacked, since top is a total degree, the same in
        any layout."""
        if degree <= self._layout.cap:
            return self
        gb = copy(self)
        gb._layout, gb._fixed, gb._memo = (
            _layout(self.ring.nvars, self.ring.order, _width(degree)), set(), {})
        unpack, pack = self._layout.unpack, gb._layout.pack
        gb._index = {pos: [(pack(*unpack(lead)), tuple([(pack(*unpack(m)), c) for m, c in tail]),
                            top, a) for lead, tail, top, a in reducers]
                     for pos, reducers in self._index.items()}
        return gb

    def _packed(self, v: Vec) -> dict:
        pack = self._layout.pack
        return {pack(p, e): c for (p, e), c in v.items()}

    def reduce(self, v: dict, guard: int, bound: Optional[int] = None,
               head: Iterable = ()) -> dict:
        """Full normal form of a packed vector {term: coeff}: every term gets
        reduced, the result is unique and lists its terms in descending POT
        order. The degree guard must not pass the layout's cap. A popped
        coefficient is negated once, tail steps add cc * -c with no mod and no
        zero test, and a term is taken mod p when popped, then skipped before
        the guard check if it is 0. With a signature bound (see
        _signature_buchberger) only the steps whose multiple of the reducer
        has a smaller signature are taken: the regular reduction that keeps
        the reduced vector's signature. Its reducers of m are the modulus
        rows self._rows and each element g at m's position whose multiple's
        signature sig(g) - ((m - LM(g)) << ib) is below the bound, that is,
        whose ratio is below (m << ib) + bound; self._ratios[pos] lists them
        by ascending ratio. Terms pop in ascending int order, so positions
        only grow and, within one, reducers only ever join the list. Under a
        bound it reduces inputs too, which may pass the guard, so there a
        step by a reducer with no tail, which only cancels the term, never
        trips. With no bound the reducer of m is read from the memo (see
        _reducer): the reducer the scan would pick, so the steps, the result
        and any guard trip are the scan's. A bound changes the reducers, so
        there each term is scanned. A reducer carries its lead coefficient
        a, which is 1 except inside a completion over QQ: where a does not
        divide the popped c, the work and the remainder are scaled by
        a / gcd(a, c) first, so the step stays in integers (a
        pseudo-reduction). The result is then an integer multiple of the
        normal form. It starts with the (term, coeff) pairs of head, each
        larger than every term of v, scaled with the rest."""
        p = self._p
        guards, degree, pshift = self._layout.guards, self._layout.degree, self._layout.pshift
        reducer, limit = self._reducer, 0
        work = dict(v)
        heap = list(work)  # the smallest int is the largest term
        heapify(heap)
        remainder = dict(head)
        while heap:
            m = heappop(heap)
            c = work.pop(m)  # queued once: every term queued after m is smaller
            if p:
                c %= p
            if not c:
                continue  # cancelled after it was queued
            if bound is None:
                g = reducer(m)
            else:
                if m >= limit:  # the first term at its position
                    limit = (m >> pshift) + 1 << pshift
                    reducers, waiting, ib = self._rows[:], self._ratios[m >> pshift][::-1], self._ib
                while waiting and waiting[-1][0] < (m << ib) + bound:
                    reducers.append(waiting.pop()[1])
                g = _divisor(m, reducers, guards)
            if g is None:
                remainder[m] = c
                continue
            lead, tail, top, a = g
            if a != 1:  # scale by s = a / gcd(a, c): the step then cancels m in integers
                d = gcd(a, c)
                if (s := a // d) != 1:
                    work = {t: x * s for t, x in work.items()}
                    remainder = {t: x * s for t, x in remainder.items()}
                c //= d
            shift = m - lead  # the packed quotient m / lead
            if top + (shift & degree) > guard and (tail or bound is None):
                raise _guard_exceeded(self._operation, "term", top + (shift & degree), guard)
            c = -c
            for t, cc in tail:
                t += shift
                old = work.get(t)
                if old is None:
                    heappush(heap, t)
                    work[t] = cc * c
                else:
                    work[t] = old + cc * c
        return remainder

    def _reducer(self, m: int) -> Optional[tuple]:
        """The first reducer in self._index at the position of the term m whose
        lead divides m, or None, remembered in self._memo: the index is frozen
        while its memo lives, so an entry never goes stale, and a normal form
        that meets the term again on this basis makes no scan. The memo is
        cleared when it reaches _MEMO_SIZE terms. Two threads that miss on one
        term only compute the same entry twice."""
        memo = self._memo
        if (g := memo.get(m, memo)) is memo:
            if len(memo) >= _MEMO_SIZE:
                memo.clear()
            g = memo[m] = _divisor(m, self._index.get(m >> self._layout.pshift, ()),
                                   self._layout.guards)
        return g

    def _element(self, v: dict) -> tuple:
        """The reducer (lead, tail, top, a) of a packed vector whose terms
        ascend, as reduce() returns them: its lead comes first.
        Over GF(p) it is monic, a = 1; over QQ it is the primitive integer
        multiple (see _primitive) with lead coefficient a > 0."""
        if p := self._p:
            terms = tuple(v.items())
            if (c := terms[0][1]) != 1:
                c = self.ring.field.inv(c)
                terms = tuple([(m, cc * c % p) for m, cc in terms])
        else:
            terms = tuple(_primitive(v).items())
        degree = self._layout.degree
        return terms[0][0], terms[1:], max([m & degree for m in v]), terms[0][1]

    def _svector(self, f: tuple, g: tuple, lcm: int) -> dict:
        """b*lcm/LM(f)*f - a*lcm/LM(g)*g for the lead coefficients a of f and
        b of g over their gcd; the leads cancel, so only tails are read. Over
        GF(p) a = b = 1 and each coefficient is taken mod p, a cancelled one
        dropped."""
        p, d = self._p, gcd(f[3], g[3])
        a, b, sf, sg = f[3] // d, g[3] // d, lcm - f[0], lcm - g[0]
        out = {m + sf: c * b for m, c in f[1]}
        for m, c in g[1]:
            m += sg
            s = out.get(m, 0) - c * a
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                del out[m]
        return out

    def _signature_buchberger(self, vectors: list[dict], modulus: tuple[Poly, ...]
                              ) -> Optional[dict[int, list[tuple]]]:
        """RB with signatures in the Schreyer order: the indexed reduced basis,
        or None when a signature outgrows the packing.

        Input i, in ascending order of leads, has signature e_i; t*e_i is
        ordered by the term t*LM(f_i), then by i, and is one int, its key
        (-packed(t*LM(f_i)) << ib) + i, which a product by a monomial lowers
        by the packed quotient << ib. Divisibility reads the low part of
        packed(t*LM(f_i)) alone. The modulus reducers g*e_p sit below every
        signature: every reduction may use them, and they are never items.
        Items (input e_i, or the S-vector of a pair at one position whose
        upper element a of G has the larger multiple, T = u*sig(a)) leave the
        heap in ascending T, so G gets one element per signature, in
        ascending order, with distinct leads (the later of two would have
        been reduced by the earlier). An item is skipped when
          - an item of the same T came first: its element, or the zero it
            reduced to, settles T;
          - a syzygy signature divides T: LM(g)*e_i for g in the modulus,
            since g*f_i lies in I*P^rank (this covers every Koszul syzygy
            against a modulus reducer), one of a zero reduction, or the
            Koszul syzygy LM(b)*a - LM(a)*b of two elements with every term
            at one position, which is gcd(LM(a), LM(b)) times the pair's T
            (so such pairs with coprime leads are not formed);
          - an element added after a has a signature dividing T (the
            rewrite criterion: the latest element wins).
        A pair whose multiples share a signature is not formed. Other items
        are reduced by regular steps only, which keep T. These are the
        survey's criteria, so G and the modulus reducers are a Groebner basis
        when the heap is empty, and those whose lead no other lead divides
        are a minimal one."""
        guard, rank = self.ring.degree_guard, self.rank
        layout = self._layout
        guards, degree, cap, low = layout.guards, layout.degree, layout.cap, layout.low
        lcm, lift, pshift = layout.lcm, layout.lift, layout.pshift
        origin = lift(0)  # the packed monomial 1
        inputs = sorted(vectors, key=min, reverse=True)
        ib = self._ib = len(inputs).bit_length()
        mask = (1 << ib) - 1
        # the modulus reducers g*e_p: the rows of g*e_0 serve every position,
        # since divisibility and the shift m - LM(g) carry a term to its own
        # position; the minimal basis places them at each p
        rows = self._rows = [self._element(self._packed({(0, e): c for e, c in g.terms}))
                             for g in modulus]
        # per position p: its reducers (the rows, then G there) for the input
        # test, and G there as (ratio, element, index in G, pure) by
        # ascending ratio key + (lead << ib), sig(a) / LM(a), for reduce();
        # pure: every term at p
        index = self._index
        at = self._ratios = [[] for _ in range(rank)]
        for p in range(rank):
            index[p] = rows[:]
        elements: list[tuple] = []  # G, in signature order
        leads = [(g[0], g[0] & low) for g in rows]  # the rows' leads and their low parts
        # index -> minimal low parts, LM(g)*LM(f_i) first
        syzygies = {i: [(min(v) & low) + gl for _, gl in leads]
                    for i, v in enumerate(inputs)} if rows else {}
        signed = [[] for _ in inputs]  # index -> (low part, k) in G
        heap = [((-min(v) << ib) + i, 1, i) for i, v in enumerate(inputs)]
        heapify(heap)  # (T, 1, i) for input i, (T, -upper, lower) for a pair, ~j for rows[j]

        def add_syzygy(i: int, t: int) -> None:
            """Record the low part t of a syzygy signature of index i."""
            known = syzygies.setdefault(i, [])
            tg = t | guards
            for s in known:
                if (tg - s) & guards == guards:
                    return
            known[:] = [s for s in known if ((s | guards) - t) & guards != guards]
            known.append(t)

        def rewritten(T: int, upper: int) -> bool:
            """The syzygy and rewrite criteria for an item of signature T."""
            i, tg = T & mask, -(T >> ib) & low | guards
            for s in syzygies.get(i, ()):
                if (tg - s) & guards == guards:
                    return True
            for t, k in reversed(signed[i]):
                if k <= upper:
                    return False
                if (tg - t) & guards == guards:
                    return True
            return False

        minimal: list[bool] = []  # no other lead divides this one
        last = None
        while heap:
            T, upper, lower = heappop(heap)
            if T == last:
                continue
            last, r = T, None
            if upper > 0:  # an input: nothing of its index is known yet
                v = inputs[lower]
                if not any(((m | guards) - g[0]) & guards == guards
                           for m in v for g in index[m >> pshift]):
                    r = dict(sorted(v.items()))  # its own normal form, in POT order
            elif rewritten(T, -upper):
                continue
            else:
                a = elements[-upper]
                pos = a[0] >> pshift
                b = elements[lower] if lower >= 0 else rows[~lower]
                v = self._svector(a, b, lift(lcm(a[0], b[0])) + (pos << pshift))
            if r is None:
                r = self.reduce(v, guard, T)
            if not r:
                add_syzygy(T & mask, -(T >> ib) & low)
                continue
            h = self._element(r)
            if upper <= 0 and h[2] > guard:  # inputs are exempt
                raise _guard_exceeded(self._operation, "basis element", h[2], guard)
            k, (lead, tail, _, _) = len(elements), h
            pos, hl, ratio = lead >> pshift, lead & low, T + (lead << ib)
            elements.append(h)
            minimal.append(True)
            if not hl and rank == 1:  # 1 is in the ideal, and (1) is its reduced basis
                at = [[(ratio, h, k, True)]]
                break
            pure = not tail or tail[-1][0] >> pshift == pos  # tails descend in POT order
            signed[T & mask].append((-(T >> ib) & low, k))
            here = at[pos]
            for rj, g, j, pj in here:
                b = g[0]
                lc, bl = lcm(lead, b), b & low
                if lc == bl:  # the leads are distinct
                    minimal[j] = False
                elif lc == hl:
                    minimal[k] = False
                if rj == ratio:
                    continue  # the multiples share a signature
                # the upper element, and the low part and index of its
                # signature times the other lead: the Koszul signature
                up, ru, lo = (k, ratio, j) if ratio > rj else (j, rj, k)
                if pure and pj:  # LM(a)*LM(b)*e_pos: packed, two leads less e_pos
                    K = ru - (lead + b - origin - (pos << pshift) << ib)
                    if (kt := -(K >> ib) & low) & degree <= cap:
                        add_syzygy(K & mask, kt)
                    if lc == hl + bl:
                        continue  # coprime leads: T is the Koszul signature
                S = ru - (lift(lc) + (pos << pshift) << ib)  # the pair's T
                if -(S >> ib) & degree > cap:
                    return None
                if not rewritten(S, up):
                    heappush(heap, (S, -up, lo))
            for j, (g, gl) in enumerate(leads):
                lc = lcm(lead, g)
                if lc == hl + gl:
                    continue  # coprime leads: T is divided by the syzygy LM(g)*sig(h)
                S = ratio - (lift(lc) + (pos << pshift) << ib)
                if -(S >> ib) & degree > cap:
                    return None
                if not rewritten(S, k):
                    heappush(heap, (S, -k, ~j))
            index[pos].append(h)
            insort(here, (ratio, h, k, pure), key=itemgetter(0))
        del self._ratios, self._ib, self._rows
        # the elements and modulus reducers whose lead no other lead divides
        # are a minimal basis; placed: the leads of the rows g*e_p placed in it
        placed = set()
        for pos, here in enumerate(at):
            kept, s = [g for _, g, k, _ in here if minimal[k]] if here else [], pos << pshift
            index[pos] = kept + [
                (lead + s, tuple([(m + s, c) for m, c in tail]) if tail else (), top, a)
                for lead, tail, top, a in rows
                if not kept or not any(((lead | guards) - h[0]) & guards == guards for h in kept)]
            placed.update(g[0] for g in index[pos][len(kept):])
        return self._interreduced(placed)

    def _interreduced(self, placed: set) -> dict[int, list[tuple]]:
        """The reduced basis, indexed, from the minimal one in self._index: no
        term of a tail is a multiple of its own lead, so reducing each tail
        against all reducers leaves the reduced basis, leads unchanged. Only
        a tail with a term that some lead at that term's position divides is
        reduced; any other is its own normal form, so its reducer tuple is
        kept as it is and no step is made. The test and the reductions share
        one memo of the minimal index, dropped when the reduced index
        replaces it. self._fixed keeps the leads of the
        placed modulus rows g*e_p whose tails were kept: those rows are g*e_p
        itself, and a reduced basis has one reducer per lead. Over GF(p) each
        reducer is already monic and leaves as the very tuple the completion
        built; over QQ it is made monic once, its integer tail over a becoming
        Fractions (the only ones the completion makes), with a = 1."""
        guard, index, self._memo = self.ring.degree_guard, {}, {}
        for pos, reducers in self._index.items():  # in ascending position order
            reduced = []
            for g in reducers:
                if any(self._reducer(m) for m, _ in g[1]):
                    placed.discard(g[0])
                    g = self._element(self.reduce(dict(g[1]), guard, head=((g[0], g[3]),)))
                if not self._p:
                    lead, tail, top, a = g
                    g = lead, tuple([(m, Fraction(c, a)) for m, c in tail]), top, 1
                reduced.append(g)
            if reduced:
                reduced.sort()  # by lead: no two reducers share one
                index[pos] = reduced
        self._fixed = placed
        return index


def _normal_form(gb: FreeModuleGB, terms, degree: int, guard: int) -> tuple:
    """The terms, descending, of the full normal form modulo the rank-1 basis
    gb of the polynomial with these (exponent, coeff) terms and this total
    degree: packed once, in a layout that holds the degree, and reduced once,
    tripping past guard. Over GF(p) the coefficients may be unreduced ints."""
    gb = gb._holding(max(guard, degree))
    pack, unpack = gb._layout.pack, gb._layout.unpack
    r = gb.reduce({pack(0, e): c for e, c in terms}, guard)
    return tuple((unpack(m)[1], c) for m, c in r.items())


def reduce_poly(f: Poly, gb: FreeModuleGB, guard: int) -> Poly:
    """Full normal form of f modulo the rank-1 basis gb, tripping past guard."""
    return Poly(f.ring, _normal_form(gb, f.terms, f.total_degree(), guard))


def groebner_basis(gens: Iterable[Poly], ring: Optional[PolyRing] = None) -> tuple[Poly, ...]:
    """Reduced Groebner basis of the ideal generated by gens.

    A generator that is not a Poly is parsed in `ring`, which defaults to the
    ring of the first Poly among gens; `Ideal` checks the rings.

    Computed by the rank-1 FreeModuleGB, the engine that builds module
    bases, through its signature completion. Output is deterministic:
    monic, fully auto-reduced, sorted by descending leading monomial.
    """
    gens = list(gens)
    if ring is None:
        ring = next((g.ring for g in gens if isinstance(g, Poly)), None)
        if ring is None:
            raise InputError("cannot infer the ring: no polynomial among the generators")
    return Ideal(ring, gens).reduced_gb


# ---------------------------------------------------------------------------
# ideals and quotient rings
# ---------------------------------------------------------------------------

class Ideal:
    """A finitely generated ideal with its rank-1 FreeModuleGB, which membership
    and quotient normal forms reduce through, and that basis as polynomials."""

    __slots__ = ("ring", "generators", "reduced_gb", "_gb", "_hash")

    def __init__(self, ring: PolyRing, generators: Iterable[Poly]):
        gens = []
        for g in generators:
            if not isinstance(g, Poly):
                g = ring.poly(g)
            if g.ring != ring:
                raise RingMismatch("ideal generator over a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb, self.reduced_gb = None, ()  # the zero ideal builds no basis
        if gens:
            self._gb = FreeModuleGB(ring, 1, [{(0, e): c for e, c in g.terms} for g in gens])
            self.reduced_gb = tuple(Poly(ring, tuple((e, c) for (_, e), c in v.items()))
                                    for v in self._gb.basis)
        self._hash = hash((ring, self.reduced_gb))

    def is_zero(self) -> bool:
        return not self.reduced_gb

    def contains(self, f: Poly) -> bool:
        if f.ring != self.ring:
            raise RingMismatch("polynomial and ideal over different rings")
        if self.is_zero():
            return f.is_zero()
        return reduce_poly(f, self._gb, self.ring.degree_guard).is_zero()

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.reduced_gb)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and self.ring == other.ring
                and self.reduced_gb == other.reduced_gb)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(format_poly(g) for g in self.reduced_gb) + ")"


class QuotRing:
    """base / modulus; elements are represented by unique normal forms."""

    __slots__ = ("base", "modulus", "_hash", "_one")

    def __init__(self, base: PolyRing, modulus: Ideal):
        if modulus.ring != base:
            raise RingMismatch("modulus over a different ring")
        self.base = base
        self.modulus = modulus
        self._hash = hash((base, modulus))
        # a proper ideal's reduced basis has no constant lead, so 1 is reduced
        self._one = base.zero() if modulus.contains_one() else base.one()

    def nf(self, f: Poly) -> Poly:
        if f.ring != self.base:
            raise RingMismatch("variable mismatch with the base ring")
        if f.is_zero() or self.modulus.is_zero():
            return f
        return reduce_poly(f, self.modulus._gb, self.base.degree_guard)

    def poly(self, text: str) -> Poly:
        return self.nf(self.base.poly(text))

    def zero(self) -> Poly:
        return self.base.zero()

    def one(self) -> Poly:
        return self._one

    def add(self, a: Poly, b: Poly) -> Poly:
        return self.nf(a + b)

    def sub(self, a: Poly, b: Poly) -> Poly:
        return self.nf(a - b)

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.nf(a * b)

    def neg(self, a: Poly) -> Poly:
        return self.nf(-a)

    def is_unit(self, a: Poly) -> bool:
        gens = list(self.modulus.generators) + [a]
        return Ideal(self.base, gens).contains_one()

    def __eq__(self, other):
        return (isinstance(other, QuotRing) and self.base == other.base
                and self.modulus == other.modulus)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.modulus.is_zero():
            return repr(self.base)
        return f"{self.base!r}/{self.modulus!r}"


def polynomial_ring(field: Field, variables: Iterable[str], order: str = "grevlex",
                    degree_guard: int = DEFAULT_DEGREE_GUARD) -> QuotRing:
    """Convenience: the polynomial ring itself, viewed as a quotient by (0)."""
    base = PolyRing(field, variables, order, degree_guard)
    return QuotRing(base, Ideal(base, []))


def extend_ring(ring: QuotRing, new_var: str) -> QuotRing:
    """Append a fresh variable; the modulus generators carry over unchanged."""
    if new_var in ring.base.variables:
        raise InputError(f"variable {new_var!r} already present")
    big = PolyRing(ring.base.field, ring.base.variables + (new_var,),
                   ring.base.order, ring.base.degree_guard)
    gens = [embed_poly(g, big) for g in ring.modulus.generators]
    return QuotRing(big, Ideal(big, gens))


def embed_poly(p: Poly, big: PolyRing) -> Poly:
    """View p in a ring whose variable list extends p's (a prefix match)."""
    k = len(p.ring.variables)
    if big.variables[:k] != p.ring.variables:
        raise RingMismatch("target ring does not extend the source ring")
    pad = (0,) * (big.nvars - k)
    return big.from_dict({e + pad: c for e, c in p.terms})


def restrict_poly(p: Poly, small: PolyRing) -> Poly:
    """Inverse of embed_poly; fails if p involves the removed variables."""
    k = small.nvars
    for e, _ in p.terms:
        if any(e[k:]):
            raise InputError("polynomial involves removed variables")
    return small.from_dict({e[:k]: c for e, c in p.terms})


def substitute_zero(p: Poly, idx: int) -> Poly:
    """Set variable #idx to zero (terms with that variable vanish)."""
    return p.ring.from_dict({e: c for e, c in p.terms if e[idx] == 0})


def coeffs_by_variable(p: Poly, idx: int) -> dict[int, Poly]:
    """Write p as sum_d (coeff_d) * v^d; coefficients keep v-exponent zero."""
    split: dict[int, dict] = {}
    for e, c in p.terms:
        d = e[idx]
        e0 = e[:idx] + (0,) + e[idx + 1:]
        split.setdefault(d, {})[e0] = c
    return {d: p.ring.from_dict(part) for d, part in split.items()}


def is_monic_in_var(f: Poly, idx: int) -> bool:
    """True when the top coefficient of f, viewed in (other vars)[v], is 1."""
    parts = coeffs_by_variable(f, idx)
    if not parts:
        return False
    k = max(parts)
    return parts[k] == f.ring.one()


def reduce_by_monic_in_var(p: Poly, f: Poly, idx: int) -> Poly:
    """Reduce the degree of p in variable #idx below deg(f) using monic f.

    Valid over any coefficient ring: monicity makes each step drop the
    idx-degree strictly, so this terminates without field divisions.
    """
    ring = p.ring
    if not is_monic_in_var(f, idx):
        raise NotMonic(f"divisor is not monic in {ring.variables[idx]!r}")
    k = f.degree_in(idx)
    while True:
        d = p.degree_in(idx)
        if d < k:
            return p
        q = coeffs_by_variable(p, idx)[d]  # idx-exponent already stripped
        shift = ring.from_dict(
            {tuple(d - k if i == idx else 0 for i in range(ring.nvars)): ring.field.one})
        p = p - q * shift * f
