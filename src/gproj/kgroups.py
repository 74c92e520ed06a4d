"""Grothendieck-group machinery: Smith normal form, finitely presented abelian
groups, class decomposition over catalog rings, and the Euler/pushdown maps.

Catalog rings are exactly the families where presentation matrices admit
diagonal canonical forms, making module classes computable: fields, k[x],
and the chain rings k[x]/(x^n). One Euclidean diagonalizer serves these
families and the integers. Each ring hands it a Euclidean size (absolute
value on Z, degree on k and k[x], valuation on k[x]/(x^n)), a division with
remainder, and the canonical associate of an element (nonnegative, monic,
x^v). It returns the diagonal with the divisibility chain, and the transforms
only for the integer Smith form, which prints them. Integer entries are native
ints under inline operators. The catalog rings have at most one variable, so
their entries are coefficient dicts keyed by degree: the relation rows are
converted once, the chain ring's normal form is a truncation below x^n, and
only the diagonal goes back into polynomials. Over QQ and QQ[x] every nonzero
integer is a unit, so each relation row is scaled to integer coefficients and
the diagonalizer runs on integers alone: pseudo-division in place of division,
each changed row or column divided by the gcd of its coefficients, and
fractions only in the monic diagonal. Class vectors print as formal sums like
2*[R] + 1*[R/(x)].
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, NamedTuple, Optional

from .errors import InputError, PdInfiniteOrUnresolved, RingNotInCatalog
from .fields import QQ
from .modules import (
    FPModule,
    _tower,
    colon_generators,
    span_scope,
    transpose,
)
from .resolutions import free_resolution, pd_bounded, verify_short_exact
from .rings import QuotRing, coeffs_by_variable, format_poly, restrict_poly


# ---------------------------------------------------------------------------
# one diagonalizer for Euclidean rings
# ---------------------------------------------------------------------------

class _Euclid(NamedTuple):
    """What the diagonalizer needs to know about a Euclidean ring.

    Division returns a quotient token q and the remainder sub_mul(a, b, q): on
    Z, k and k[x]/(x^n) that is a - q*b; on QQ[x] a token (s, q) stands for
    s*a - q*b with s a nonzero integer, a unit. A remainder of either kind is
    zero exactly when b divides a, and a row or column operation by a token is
    invertible. Where `scale` is set it takes each changed row or column to a
    unit multiple with smaller coefficients. An entry, a native int or a
    coefficient dict, is zero exactly when it is falsy."""

    size: Callable  # Euclidean size of a nonzero element
    divmod: Callable  # (token, remainder): remainder zero or of smaller size than b
    associate: Callable  # the canonical associate of a nonzero element
    minus_one: object = -1  # row t -= minus_one * row i adds row i to row t
    sub_mul: Optional[Callable] = None  # a - b*q on dict entries; None: native ints
    scale: Optional[Callable] = None  # a unit multiple of a row or column; None: none


_INTEGERS = _Euclid(abs, divmod, abs)


def _subtract(r, b, shift, c):  # r -= c * x^shift * b, in place, on integers
    for e, cb in b.items():
        if s := r.get(e + shift, 0) - cb * c:
            r[e + shift] = s
        else:
            del r[e + shift]


def _pseudo_divmod(a, b):
    """((s, q), r) with r = s*a - q*b of lower degree than b: the pseudo-division
    of H. Cohen, A Course in Computational Algebraic Number Theory, Alg. 3.1.2,
    scaling r at each step by the least integer that makes its top coefficient
    a multiple of b's, so that the quotient stays integral; s is the product of
    those factors."""
    lead = b[db := max(b)]
    s, q, r = 1, {}, dict(a)
    while r and (d := max(r)) >= db:
        if (u := lead // gcd(lead, r[d])) != 1:
            s, q, r = s * u, _scaled(q, u), _scaled(r, u)
        c = q[d - db] = r[d] // lead
        _subtract(r, b, d - db, c)
    return (s, q), r


def _scaled(a, s):
    return {e: s * c for e, c in a.items()}


def _pseudo_sub_mul(a, b, token):  # s*a - q*b
    s, q = token
    r = dict(a) if s == 1 else _scaled(a, s)
    for j, c in q.items():
        _subtract(r, b, j, c)
    return r


def _primitive(entries):
    """The entries divided by the gcd of all their integer coefficients."""
    g = gcd(*(c for e in entries for c in e.values()))
    return entries if g < 2 else [{d: c // g for d, c in e.items()} for e in entries]


def _monic(a):  # the diagonal's only fractions
    lead = a[max(a)]
    return {d: Fraction(c, lead) for d, c in a.items()}


# QQ[x] (and QQ) on integer coefficient dicts keyed by degree
_RATIONAL_POLYS = _Euclid(max, _pseudo_divmod, _monic, (1, {0: -1}), _pseudo_sub_mul,
                          _primitive)


def _catalog_ring(field, n: float = inf) -> _Euclid:
    """k[x] (n infinite; k is its degree-0 part) or the chain ring k[x]/(x^n)
    on coefficient dicts keyed by degree. In k[x] the size is the degree,
    division cancels from the top term and the associate is monic. In
    k[x]/(x^n) a = u*x^v with u a unit, so the size is the valuation v,
    division from the bottom term is exact whenever v(a) >= v(b), the
    associate is x^v, and the normal form is a truncation below degree n.
    QQ[x] is `_RATIONAL_POLYS`, on integer coefficients: its division is a
    pseudo-division and it keeps rows and columns primitive."""
    if field == QQ and n == inf:
        return _RATIONAL_POLYS
    sub, mul, zero, one = field.sub, field.mul, field.zero, field.one
    pick = max if n == inf else min  # the term that sets the size

    def subtract(r, b, shift, c):  # r -= c * x^shift * b, in place
        for e, cb in b.items():
            if (t := e + shift) < n:
                if (s := sub(r.get(t, zero), mul(cb, c))) == 0:
                    del r[t]
                else:
                    r[t] = s

    def divide(a, b):
        db = pick(b)
        inv = field.inv(b[db])
        q, r = {}, dict(a)
        while r and (d := pick(r)) >= db:
            c = q[d - db] = mul(r[d], inv)
            subtract(r, b, d - db, c)
        return q, r

    def sub_mul(a, b, q):
        r = dict(a)
        for j, c in q.items():
            subtract(r, b, j, c)
        return r

    def associate(a):
        if n < inf:
            return {min(a): one}
        inv = field.inv(a[max(a)])
        return {d: mul(c, inv) for d, c in a.items()}

    return _Euclid(pick, divide, associate, {0: field.neg(one)}, sub_mul)


def _diagonalize(rows, ring: _Euclid, transforms: bool = False):
    """Diagonal form d_1 | d_2 | ... of a matrix over a Euclidean ring.

    Returns (diagonal, S, U, V): the nonzero diagonal entries as canonical
    associates, S = U*A*V, and the unimodular integer transforms U and V,
    which are None unless `transforms` is set (integer matrices only).
    """
    size, divide, associate, minus_one, sub_mul, scale = ring
    S = [list(r) for r in rows]
    nrows = len(S)
    ncols = len(S[0]) if nrows else 0
    U = V = None
    row_mats = col_mats = (S,)
    if transforms:
        U = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
        V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        row_mats, col_mats = (S, U), (S, V)

    def row_sub(i, t, q):  # row i -= q * row t
        for M in row_mats:
            M[i] = ([a - b * q for a, b in zip(M[i], M[t])] if sub_mul is None
                    else [sub_mul(a, b, q) for a, b in zip(M[i], M[t])])
        if scale:
            S[i] = scale(S[i])

    def row_swap(i, t):
        for M in row_mats:
            M[i], M[t] = M[t], M[i]

    def col_sub(j, t, q):  # column j -= q * column t
        for M in col_mats:
            for r in M:
                r[j] = r[j] - r[t] * q if sub_mul is None else sub_mul(r[j], r[t], q)
        if scale:
            for r, a in zip(S, scale([r[j] for r in S])):
                r[j] = a

    def col_swap(j, t):
        for M in col_mats:
            for r in M:
                r[j], r[t] = r[t], r[j]

    def clear_pivot(t):
        # a nonzero remainder becomes the pivot; no swap in a pass means the
        # pivot's row and column are clean
        dirty = True
        while dirty:
            dirty = False
            for i in range(nrows):
                if i != t and S[i][t]:
                    row_sub(i, t, divide(S[i][t], S[t][t])[0])
                    if S[i][t]:
                        row_swap(i, t)
                        dirty = True
            for j in range(ncols):
                if j != t and S[t][j]:
                    col_sub(j, t, divide(S[t][j], S[t][t])[0])
                    if S[t][j]:
                        col_swap(j, t)
                        dirty = True

    def offending_row(t):
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if divide(S[i][j], S[t][t])[1]:
                    return i
        return None

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if S[i][j]:
                    s = size(S[i][j])
                    if best is None or s < best:
                        best, pivot = s, (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(pivot[0], t)
        if pivot[1] != t:
            col_swap(pivot[1], t)
        clear_pivot(t)
        # enforce the divisibility chain into the remaining block
        while (offender := offending_row(t)) is not None:
            row_sub(t, offender, minus_one)  # row t += the offending row
            clear_pivot(t)
        # the pivot is alone in its row, so only it and U's row change
        if (d := associate(S[t][t])) != S[t][t]:
            S[t][t] = d
            if U is not None:  # an integer's only other unit is -1
                U[t] = [-a for a in U[t]]
        t += 1
    return [S[i][i] for i in range(t)], S, U, V


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------

class SNFResult(NamedTuple):
    U: tuple  # rows x rows, unimodular
    S: tuple  # diagonal with divisibility chain, S = U A V
    V: tuple  # cols x cols, unimodular
    diagonal: tuple[int, ...]  # nonzero diagonal entries, in chain order


def int_mat_mul(A, B):
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0])
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _integer(a) -> int:
    try:
        return operator.index(a)
    except TypeError:
        raise InputError(f"matrix entry {a!r} is not an integer") from None


def smith_normal_form(A) -> SNFResult:
    """U, S, V with S = U*A*V diagonal, nonnegative, and d_1 | d_2 | ... ."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    for row in A:
        if len(row) != cols:
            raise InputError("ragged integer matrix")
    diagonal, S, U, V = _diagonalize([list(map(_integer, row)) for row in A],
                                     _INTEGERS, transforms=True)
    return SNFResult(tuple(map(tuple, U)), tuple(map(tuple, S)),
                     tuple(map(tuple, V)), tuple(diagonal))


class AbGroupPresentation(NamedTuple):
    labels: tuple[str, ...]
    relations: tuple  # relation rows, width = len(labels)
    snf: SNFResult
    invariant_factors: tuple[int, ...]  # torsion orders > 1
    free_rank: int

    def element_is_zero(self, vector) -> bool:
        """Does the integer vector lie in the row span of the relations?"""
        if len(vector) != len(self.labels):
            raise InputError("vector width does not match the generators")
        V = self.snf.V
        w = [sum(vector[i] * V[i][j] for i in range(len(vector)))
             for j in range(len(self.labels))]
        S = self.snf.S
        r = len(self.snf.diagonal)
        for j, wj in enumerate(w):
            d = S[j][j] if j < min(len(S), r) else 0
            if d:
                if wj % d:
                    return False
            elif wj:
                return False
        return True

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


def group_from_relations(labels, relation_rows) -> AbGroupPresentation:
    labels = tuple(labels)
    rows = [tuple(map(_integer, r)) for r in relation_rows]
    for r in rows:
        if len(r) != len(labels):
            raise InputError("relation width does not match the generators")
    snf = smith_normal_form([list(r) for r in rows]) if rows else \
        smith_normal_form([[0] * len(labels)] if labels else [])
    torsion = tuple(d for d in snf.diagonal if d > 1)
    free_rank = len(labels) - len(snf.diagonal)
    return AbGroupPresentation(labels, tuple(rows), snf, torsion, free_rank)


# ---------------------------------------------------------------------------
# class vectors and catalogs
# ---------------------------------------------------------------------------

class KClass:
    """Integer coordinates against catalog generator labels; prints as a sum."""

    __slots__ = ("coords",)

    def __init__(self, coords=None):
        self.coords = {k: v for k, v in (coords or {}).items() if v}

    def __add__(self, other):
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, 0) + v
        return KClass(out)

    def __sub__(self, other):
        return self + KClass({k: -v for k, v in other.coords.items()})

    def __eq__(self, other):
        return isinstance(other, KClass) and self.coords == other.coords

    def __hash__(self):
        return hash(tuple(sorted(self.coords.items())))

    def is_zero(self) -> bool:
        return not self.coords

    def coefficient(self, label: str) -> int:
        return self.coords.get(label, 0)

    @staticmethod
    def _label_key(label):
        return (label != "[R]" and label != "[k]", label)

    def __str__(self):
        if not self.coords:
            return "0"
        items = sorted(self.coords.items(), key=lambda kv: self._label_key(kv[0]))
        out = []
        for i, (label, c) in enumerate(items):
            if i == 0:
                out.append(f"{c}*{label}")
            elif c < 0:
                out.append(f" - {-c}*{label}")
            else:
                out.append(f" + {c}*{label}")
        return "".join(out)

    def __repr__(self):
        return f"KClass({self})"


class Catalog(NamedTuple):
    """A ring family with computable diagonal canonical forms."""

    family: str  # "field" | "poly" | "chain"
    ring: QuotRing
    chain_power: int  # n for k[x]/(x^n), else 0

    @property
    def unit_label(self) -> str:
        return "[k]" if self.family == "field" else "[R]"

    def generator_labels(self) -> tuple[str, ...]:
        if self.family == "field":
            return ("[k]",)
        if self.family == "poly":
            return ("[R]",)
        x = self.ring.base.variables[0]
        labels = ["[R]"]
        for j in range(1, self.chain_power):
            power = format_poly(self.ring.base.var(x) ** j)
            labels.append(f"[R/({power})]")
        return tuple(labels)

    def module_for_label(self, label: str) -> FPModule:
        if label == self.unit_label:
            return FPModule.free(self.ring, 1)
        if label.startswith("[R/(") and label.endswith(")]"):
            f = self.ring.base.poly(label[4:-2])
            return FPModule(self.ring, 1, [(f,)])
        raise InputError(f"unknown catalog label {label!r}")

    def group_value(self, cls: KClass) -> int:
        """The image of a class vector in the Grothendieck group (= Z here).

        Fields count dimension, k[x] counts rank ([R/(f)] = 0 in the group),
        chain rings count composition length ([R] has length n).
        """
        total = 0
        for label, c in cls.coords.items():
            if label == self.unit_label:
                total += c * (self.chain_power if self.family == "chain" else 1)
            elif self.family == "chain":
                f = self.ring.base.poly(label[4:-2])
                total += c * f.degree_in(0)
            elif self.family != "poly":
                raise InputError(f"label {label!r} outside the catalog")
        return total


def catalog_for(R: QuotRing) -> Catalog:
    """Recognize the ring family; reject rings without canonical forms."""
    base = R.base
    if base.nvars == 0 and R.modulus.is_zero():
        return Catalog("field", R, 0)
    if base.nvars == 1 and R.modulus.is_zero():
        return Catalog("poly", R, 0)
    if base.nvars == 1 and not R.modulus.is_zero():
        gb = R.modulus.reduced_gb  # (x^n) with n > 0: the zero ring (1) is no chain ring
        if len(gb) == 1 and len(gb[0].terms) == 1 and (n := gb[0].degree_in(0)) > 0:
            return Catalog("chain", R, n)
    raise RingNotInCatalog(f"no catalog family for {R!r}")


def class_decompose(M: FPModule) -> KClass:
    """Coordinates of M against the generators of its ring's catalog, via
    canonical forms: the diagonal of M's canonical relations, a reduced basis
    of the relation submodule, already triangular with monic pivots, so it
    has the invariant factors of the relations as given at less work."""
    cat = catalog_for(M.ring)
    base = M.ring.base
    n = cat.chain_power if cat.family == "chain" else inf
    rows = [[{d: c for e, c in p.terms if (d := sum(e)) < n} for p in row]
            for row in transpose(M.canonical_relations, M.ngens)]
    ring = _catalog_ring(base.field, n)
    if ring is _RATIONAL_POLYS:  # a unit scaling clears each row's denominators
        for row in rows:
            m = lcm(*(c.denominator for a in row for c in a.values()))
            row[:] = [{d: c.numerator * (m // c.denominator) for d, c in a.items()} for a in row]
    diagonal, *_ = _diagonalize(rows, ring)
    coords: dict[str, int] = {cat.unit_label: M.ngens - len(diagonal)}
    for d in diagonal:
        if max(d):  # a unit relation cancels a generator
            d = base.from_dict({(k,) * base.nvars: c for k, c in d.items()})
            label = f"[R/({format_poly(d)})]"
            coords[label] = coords.get(label, 0) + 1
    return KClass(coords)


# ---------------------------------------------------------------------------
# the Euler map, the pushdown map, and the extension map
# ---------------------------------------------------------------------------

@span_scope
def euler_class(M: FPModule, depth: int = 8) -> KClass:
    """Alternating sum of free ranks of a finite free resolution, as m*[R].

    Requires a Finite projective-dimension verdict whose resolution ends in a
    free tail; anything else raises PdInfiniteOrUnresolved. The resolution
    to depth n + 2 is the verdict's own, cut, unless n + 2 passes its depth.
    """
    verdict = pd_bounded(M, depth)
    if verdict.kind != "finite":
        raise PdInfiniteOrUnresolved(f"pd verdict is {verdict}")
    res, n = verdict.resolution, verdict.n + 2
    res = res.truncated(n + 1) if n <= res.verified_depth else free_resolution(M, n)
    if res.maps and res.maps[-1]:  # a projective syzygy that is not free
        raise PdInfiniteOrUnresolved(
            f"pd verdict is {verdict}, but the resolution has no free tail")
    ranks = res.ranks[:-1] if res.maps else res.ranks
    total = sum((-1) ** s * r for s, r in enumerate(ranks))
    label = "[k]" if M.ring.base.nvars == 0 else "[R]"
    return KClass({label: total})


@span_scope
def pushdown_class(M: FPModule) -> KClass:
    """Class of a module over R[x], x the last variable, pushed down to the
    base-ring catalog.

    From a free presentation 0 -> A -> P -> M -> 0 over R[x], the result is
    [P/xP] - [A/xA] as catalog coordinates over R.
    """
    S = M.ring
    idx, R = _tower(S)
    free_class = class_decompose(FPModule.free(R, M.ngens))
    a_cols = M.canonical_relations
    if not a_cols:
        return free_class
    a_rels = colon_generators(S, a_cols)
    small, zero = R.base, S.zero()
    reduced_cols = [  # each entry at x = 0
        tuple(restrict_poly(coeffs_by_variable(p, idx).get(0, zero), small) for p in col)
        for col in a_rels]
    a_bar = FPModule(R, len(a_cols), reduced_cols)
    return free_class - class_decompose(a_bar)


class EulerMapReport(NamedTuple):
    status: str  # "ok" | "PropertyCUnverified"
    offending_generator: Optional[str]
    generator_verdicts: tuple
    free_roundtrip_ok: bool
    additivity_results: tuple  # one bool (or None if skipped) per sequence


@span_scope
def euler_map_report(cat: Catalog, sequences=(), depth: int = 8) -> EulerMapReport:
    """Verify the Euler map against the projective-class embedding.

    Checks every declared catalog generator for finite projective dimension,
    the identity on free classes up to rank 4, and additivity of the Euler
    class across each supplied short exact sequence (pairs of maps).
    """
    verdicts = []
    offender = None
    for label in cat.generator_labels():
        module = cat.module_for_label(label)
        v = pd_bounded(module, depth)
        verdicts.append((label, str(v)))
        if v.kind != "finite" and offender is None:
            offender = label
    status = "ok" if offender is None else "PropertyCUnverified"

    free_ok = True
    for r in range(1, 5):
        cls = euler_class(FPModule.free(cat.ring, r), depth)
        if cls != KClass({cat.unit_label: r}):
            free_ok = False

    additivity = []
    for incl, proj in sequences:
        if not verify_short_exact(incl, proj).ok:
            additivity.append(None)
            continue
        try:
            va = euler_class(incl.source, depth)
            vb = euler_class(incl.target, depth)
            vc = euler_class(proj.target, depth)
        except PdInfiniteOrUnresolved:
            additivity.append(None)
            continue
        additivity.append(vb == va + vc)
    return EulerMapReport(status, offender, tuple(verdicts), free_ok,
                          tuple(additivity))
