"""Free resolutions by iterated syzygies, pd verdicts, and sequence builders.

Resolutions are chains of column-major matrices d_1, d_2, ... with
F_0 = R^{ngens} surjecting onto the module and columns of d_{s+1} generating
the kernel of d_s. Every matrix is the canonical (reduced-basis) generating
set of its syzygy module, so equal presentations repeat verbatim and
periodicity detection is a literal matrix comparison. Each step is a function
of the map before it, so a resolution stops computing at its first repeat
d_{s+p+1} = d_{s+1}: every later map, dual map, Ext group and split is read
by the period's index, s + (k - s) % p, and a node check meets the repeated
maps by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import NamedTuple, Optional

from .errors import DegreeGuardExceeded, InputError, NotRegularOnQuotient
from .modules import (
    FPModule,
    ModuleMap,
    SubmoduleOfFree,
    _bareiss,
    _per_scope,
    _top_degree,
    _tower,
    _zero_column,
    annihilator_of_element,
    colon_generators,
    exact_kernel,
    identity,
    intersect_with_truncation,
    is_regular_element,
    mat_vec,
    polynomial_extension,
    span_engine,
    span_scope,
    transpose,
    window_vector_to_ambient,
)
from .rings import FreeModuleGB, Ideal, Poly, QuotRing, embed_poly, format_poly, reduce_poly


@dataclass(frozen=True)
class FreeResolution:
    """F_depth -> ... -> F_1 -> F_0 (->> module), maps as column lists.

    periodicity is (start s, period p) of the first literal repeat among the
    maps, maps[s + p] == maps[s] nonzero with the smallest s, then the
    smallest p, or None; `free_resolution` records it as it builds, and a
    hand-built chain states it. Past s + p, maps[k] is maps[s + (k - s) % p]
    by reference, and so is every node of the chains built from them."""

    module: FPModule
    maps: tuple  # maps[s] = d_{s+1}: F_{s+1} -> F_s, a tuple of columns
    verified_depth: int
    periodicity: Optional[tuple[int, int]] = None

    @cached_property  # read once per step by report_lines, rank() and pd_bounded
    def ranks(self) -> list[int]:
        return [self.module.ngens] + [len(m) for m in self.maps]

    def rank(self, s: int) -> int:
        """Rank of F_s; 0 past the end of the resolution."""
        ranks = self.ranks
        return ranks[s] if s < len(ranks) else 0

    def map(self, s: int) -> tuple:
        """d_{s+1}: F_{s+1} -> F_s; () past the end of the resolution."""
        return self.maps[s] if s < len(self.maps) else ()

    @cached_property  # Hom(F., R), built once: every Ext, Hom(d, N) and window scan reads it
    def dual_maps(self) -> tuple:
        """dual_maps[s] = d_{s+1}^T: F_s* -> F_{s+1}*, so node s of the dual
        chain is resolution step s. Only d_1..d_{s+p} are transposed; later
        entries repeat them by the period's index."""
        per = self.periodicity
        head = self.maps[:per[0] + per[1]] if per else self.maps
        return _by_period([transpose(m, self.rank(s)) for s, m in enumerate(head)],
                          len(self.maps), per)

    def dual_map(self, s: int) -> tuple:
        """d_{s+1}^T: F_s* -> F_{s+1}*; past the end, the map to zero (rank(s)
        empty columns, not the no-source ())."""
        maps = self.dual_maps
        return maps[s] if s < len(maps) else transpose((), self.rank(s))

    def syzygy_module(self, n: int) -> FPModule:
        """The n-th syzygy as an abstract f.p. module (n = 0 gives the module).
        Past the end of a terminated resolution, whose last map is empty, it
        is the zero module; past the end of a truncated one, InputError."""
        if n == 0:
            return self.module
        if n > len(self.maps):
            if self.maps and not self.maps[-1]:
                return FPModule(self.module.ring, 0, ())
            raise InputError(f"resolution too short for syzygy {n}")
        gens = len(self.maps[n - 1])
        rels = self.maps[n] if n < len(self.maps) else \
            colon_generators(self.module.ring, self.maps[n - 1])
        return FPModule(self.module.ring, gens, rels)

    def report_lines(self) -> list[str]:
        lines = [f"module gens = {self.module.ngens}"]
        for s, m in enumerate(self.maps):
            rows = self.ranks[s]
            lines.append(f"step {s + 1}: {rows} x {len(m)}")
            for i in range(rows):
                lines.append("  [" + ", ".join(format_poly(col[i]) for col in m) + "]")
        lines.append(f"verified_depth = {self.verified_depth}")
        if self.periodicity:
            lines.append(f"periodicity = (start {self.periodicity[0]}, "
                         f"period {self.periodicity[1]})")
        else:
            lines.append("periodicity = none")
        return lines

    def truncated(self, length: int) -> "FreeResolution":
        """The first `length` maps at verified depth length - 1; the
        periodicity stays only if they still hold its repeat."""
        keep = self.periodicity is not None and sum(self.periodicity) < length
        return FreeResolution(self.module, self.maps[:length], length - 1,
                              self.periodicity if keep else None)


def _by_period(head, length: int, periodicity) -> tuple:
    """head, entries 0..s+p-1 at least of a chain that repeats from s with
    period p, filled by reference to `length` entries."""
    if periodicity is None:
        return tuple(head)
    s, p = periodicity
    return tuple(head) + tuple(head[s + (k - s) % p] for k in range(len(head), length))


@span_scope
def free_resolution(M: FPModule, depth: int) -> FreeResolution:
    """Resolve to the requested depth by iterated syzygy computation, up to
    the first repeat only.

    Step t + 1 depends only on maps[t] (a nonempty map's column length is its
    rank), so the first t with maps[t] == maps[s], s < t, gives
    maps[k] == maps[k - p] for every k >= s + p, p = t - s. No earlier map
    repeats later without repeating before t, so (s, p) is the smallest s,
    then the smallest p, of any literal repeat; maps[t:] are filled by the
    period with no further kernel computed."""
    if depth < 0:
        raise InputError("negative depth")
    R = M.ring
    maps = [M.canonical_relations]
    first = {maps[0]: 0} if maps[0] else {}
    for t in range(1, depth + 1):
        current = maps[-1]
        if not current:
            break  # previous kernel was zero; the resolution has terminated
        nxt = colon_generators(R, current)
        if nxt and (s := first.setdefault(nxt, t)) < t:
            return FreeResolution(M, _by_period(maps, depth + 1, (s, t - s)), depth, (s, t - s))
        maps.append(nxt)
    return FreeResolution(M, tuple(maps), depth)


@span_scope
def first_inexact_node(R: QuotRing, maps) -> Optional[int]:
    """First interior node (1..len(maps)-1) where the chain is not exact, or None.

    Reads the chain left to right: maps[j] sends node j to node j+1 as a
    column list, so node j's rank is len(maps[j]), and a map to R^0 holds
    empty columns. Each node is checked by `exact_kernel`, not by the
    construction that produced the maps. Its verdict is a function of the
    node's two maps, so a node whose map objects (by identity) are an
    earlier node's is skipped: a chain that repeats its maps by reference,
    as a periodic resolution, its dual maps and the windows spliced from
    them do, is checked once per distinct node at any length."""
    seen = set()
    for node in range(1, len(maps)):
        key = (id(maps[node - 1]), id(maps[node]))
        if key not in seen:
            seen.add(key)
            if exact_kernel(R, maps[node - 1], maps[node]) is None:
                return node
    return None


@span_scope
def verify_exactness(res: FreeResolution) -> bool:
    """Independent check: F_0 presents the module and the chain is exact.

    The kernel of F_0 ->> M must equal the relation span, and every interior
    node of F_L -> ... -> F_0 must pass `first_inexact_node`. A stated
    periodicity (s, p) is first confirmed literally, as `FreeResolution`
    defines it: the repeat maps[s + p] is in the chain, maps[s] is nonzero,
    and maps[k] equals maps[s + (k - s) % p] for every k >= s + p.
    """
    R = res.module.ring
    maps, per = res.maps, res.periodicity
    if maps:
        if not all(res.module.rel_span_contains(col) for col in maps[0]):
            return False
        eng = span_engine(R, res.module.ngens, maps[0])
        if not all(eng.contains(col) for col in res.module.relations):
            return False
    if per is not None and not (sum(per) < len(maps) and maps[per[0]]
                                and maps == _by_period(maps[:sum(per)], len(maps), per)):
        return False  # the stated repeat is not there
    return first_inexact_node(R, maps[::-1]) is None


# ---------------------------------------------------------------------------
# projective-dimension verdicts
# ---------------------------------------------------------------------------

class PdVerdict(NamedTuple):
    kind: str  # "finite" | "at_least" | "infinite_periodic"
    n: Optional[int]  # finite: the dimension; at_least: the checked depth
    start: Optional[int]
    period: Optional[int]
    resolution: FreeResolution
    splitting: Optional[tuple]  # retraction matrix certifying projectivity

    def __str__(self):
        if self.kind == "finite":
            return f"Finite({self.n})"
        if self.kind == "infinite_periodic":
            return f"InfinitePeriodic({self.start},{self.period})"
        return f"AtLeast({self.n})"


# the minors of a q x w matrix of rank r are taken only while C(q, r) * C(w, r)
# is at most this: over QQ[x,y] on a shared 2-CPU Xeon VM they took 1.4 s at
# 400 minors of size 3 and 2.7 s at 225 of size 4, where the product system
# took 6.4 s and over 60 s, and 17 s at 1,225 of size 4
_MINORS_BOUND = 1000


def _fitting_rejects(R: QuotRing, U) -> bool:
    """True only on a proof that M = coker(U) is not projective, U the q x w
    matrix whose w > 0 columns, each of length q, are U; False proves
    nothing. A projective module has idempotent Fitting ideals, Fitt_j(M)
    being the ideal of the (q - j)-minors of any presentation matrix of M
    (H. Lombardi and C. Quitte, Commutative Algebra: Constructive Methods,
    2015, ch. IV; D. Eisenbud, Commutative Algebra, GTM 150, 1995, ch. 20).
    - Units: a nonzero constant entry is a unit pivot; its row and column are
      eliminated, which keeps M, until the matrix V has no constant entry.
      A zero or empty V presents a free M.
    - Entries, any modulus I: J, the ideal of the entries of V, is a Fitting
      ideal of M and must lie in J^2. If I lies in m^2, m the ideal of the
      origin, and every entry vanishes there, J^2 lies in m^2 and an entry
      with a linear term is outside it. Otherwise each entry is tested on one
      rank-1 basis of the products of two entries, with the modulus as its
      fixed reducers.
    - Zero modulus, before the basis: P is a domain, so M is projective
      exactly when the minors of V of size r = rank V generate 1 (Eisenbud,
      Prop. 20.8). The minors come from `_bareiss`, a square V of full rank
      giving det V alone, and are skipped above _MINORS_BOUND.
    A check that trips the degree guard proves nothing, so the routes after
    it trip as they did, with the same message."""
    try:
        rows = list(transpose(U, len(U[0])))
        while unit := next(((i, j) for i, row in enumerate(rows) for j, p in enumerate(row)
                            if p.is_constant() and not p.is_zero()), None):
            i, j = unit
            inv = R.base.field.inv(rows[i][j].lead_coeff())
            pivot = [t.scale(inv) for t in rows.pop(i)]
            rows = [[p if row[j].is_zero() or t.is_zero() else R.nf(p - row[j] * t)
                     for k, (p, t) in enumerate(zip(row, pivot)) if k != j] for row in rows]
        entries = tuple(dict.fromkeys(p for row in rows for p in row if not p.is_zero()))
        if not entries:
            return False
        low = [min(sum(e) for e, _ in f.terms) for f in entries]
        if min(low) == 1 and all(sum(e) > 1 for g in R.modulus.reduced_gb for e, _ in g.terms):
            return True
        r, last = _bareiss(rows) if R.modulus.is_zero() else (0, None)
        count = comb(len(rows), r) * comb(len(rows[0]), r)
        if r and count <= _MINORS_BOUND:  # one minor: V is square, last is det V
            minors = {last} if count == 1 else {
                d for picked in combinations(rows, r) for cols in combinations(range(len(rows[0])), r)
                for n, d in [_bareiss([[row[j] for j in cols] for row in picked])] if n == r}
            return not any(d.is_constant() for d in minors) and (
                len(minors) == 1 or not Ideal(R.base, minors).contains_one())
        products = [{(0, e): c for e, c in p.terms}
                    for f, g in combinations_with_replacement(entries, 2)
                    if not (p := R.mul(f, g)).is_zero()]
        gb = FreeModuleGB(R.base, 1, products, R.modulus.reduced_gb)
        return any(not reduce_poly(f, gb, R.base.degree_guard).is_zero() for f in entries)
    except DegreeGuardExceeded:
        return False


def _split_surjection_onto_kernel(R: QuotRing, kernel_gens) -> Optional[tuple]:
    """Retraction of R^q onto the span of kernel_gens, or None, q the
    columns' length.

    Solves U*H*U = U over R, U the q x w matrix whose columns are kernel_gens;
    a solution certifies that the cokernel of the inclusion is projective (the
    presenting surjection splits: a von Neumann regular U has a projective
    cokernel, and conversely). Three routes, in order:
    - Fitting ideals (`_fitting_rejects`): None on a proof that coker(U) is
      not projective, since every Fitting ideal of a projective module is
      idempotent (Lombardi-Quitte 2015, ch. IV) and over a domain the minors
      of size rank U generate 1 (Eisenbud, GTM 150, Prop. 20.8). It builds
      no H, so a module it does not reject goes on to the routes below.
    - ker U = 0: U*(H*U - 1) = 0 forces H*U = 1, so row i of H is a witness
      of the unit vector e_i over the rows of U: a rank-w basis on entries of
      degree d, where the product system below needs rank q*w and degree 2d.
      ker U is asked by `colon_generators`, which inside `pd_bounded` is the
      resolution's next map and so costs no new basis.
    - ker U != 0: H*U need not be 1, so the products of two entries of U are
      the system. Adding the next map S as H*U + S*C = 1 is also correct but
      measured slower on every chain whose maps have a kernel.
    """
    w = len(kernel_gens)
    if w == 0:
        return ()
    q = len(kernel_gens[0])
    if _fitting_rejects(R, kernel_gens):
        return None
    if not colon_generators(R, kernel_gens):
        return span_engine(R, w, transpose(kernel_gens, q)).lift(identity(R, w))
    # unknowns H[i][j], i < w, j < q; equation vec(U H U) = vec(U) with
    # U[a][i] = kernel_gens[i][a] at index a*w + i of u = vec(U). Entry (a, l)
    # of system column (i, j) is u[a*w + i] * u[j*w + l]: one product per
    # unordered pair of indices
    u = tuple(kernel_gens[i][a] for a in range(q) for i in range(w))
    prod = [[None] * (q * w) for _ in u]
    for k, f in enumerate(u):
        for m in range(k, q * w):
            prod[k][m] = prod[m][k] = R.mul(f, u[m])
    sys_cols = [tuple(prod[a * w + i][j * w + l] for a in range(q) for l in range(w))
                for i in range(w) for j in range(q)]
    wit = span_engine(R, q * w, sys_cols).witness(u)
    if wit is None:
        return None
    return tuple(tuple(wit[i * q:(i + 1) * q]) for i in range(w))


# pd_bounded asks each distinct map once, and a later pd verdict on the same
# module in one top-level call (euler_class after a K0 generator check) asks
# nothing again
split_surjection_onto_kernel = span_scope(_per_scope(_split_surjection_onto_kernel))


@span_scope
def pd_bounded(M: FPModule, depth: int) -> PdVerdict:
    """Scan syzygies for a certified splitting; detect periodic repetition.

    Finite(n): the n-th syzygy splits off (explicit retraction found) and no
    earlier one does. InfinitePeriodic(s, p): the canonical presentation
    matrices repeat and the repeating syzygy has no splitting. AtLeast(depth)
    otherwise (a conservative lower bound).
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    R = M.ring
    res = free_resolution(M, depth + 1)
    per = res.periodicity
    for s in range(sum(per) if per else min(depth + 1, len(res.maps))):
        H = split_surjection_onto_kernel(R, res.maps[s])
        if H is not None:
            return PdVerdict("finite", s, None, None, res, H)
    # a periodic chain has s + p <= len(res.maps) - 1 <= depth + 1: the loop
    # asked every step below s + p, and each later step repeats one of
    # s..s+p-1 (the same map, so the same rank), none of which split
    if per is not None:
        return PdVerdict("infinite_periodic", None, per[0], per[1], res, None)
    return PdVerdict("at_least", depth, None, None, res, None)


# ---------------------------------------------------------------------------
# the square-zero self-annihilator detector
# ---------------------------------------------------------------------------

class InfinitePdCertificate(NamedTuple):
    accepted: bool
    failures: tuple[str, ...]
    module: Optional[FPModule]  # the principal ideal, presented as R/(a)
    resolution: Optional[FreeResolution]
    verdict: Optional[PdVerdict]


@span_scope
def infinite_pd_detector(R: QuotRing, a: Poly, depth: int = 8) -> InfinitePdCertificate:
    """Certify pd = infinity for the principal ideal of a square-zero element.

    Accepts when a != 0, a^2 = 0, and ann(a) = (a); both inclusions are
    memberships of ideals of R on rank-1 engines: ann(a) in (a) on the engine
    of (a) that the annihilator was read off, a in ann(a) on one engine over
    the annihilator's generators. The ideal (a) is then R/(a) with the
    period-1 resolution multiplication-by-a forever, and no syzygy is
    projective. The periodicity is read off a resolution of depth `depth`,
    which must be at least 2."""
    if depth < 2:
        raise InputError("depth must be at least 2")
    a = R.nf(a)
    failures = []
    if a.is_zero():
        failures.append("a = 0")
        return InfinitePdCertificate(False, tuple(failures), None, None, None)
    if not R.mul(a, a).is_zero():
        failures.append("a^2 != 0")
    ann = annihilator_of_element(a, R)
    principal = span_engine(R, 1, [(a,)])  # the engine ann(a) was read off
    outside = next((g for g in ann if not principal.contains((g,))), None)
    if outside is not None:
        failures.append(f"ann(a) reaches outside (a): {format_poly(outside)}")
    if not span_engine(R, 1, [(g,) for g in ann]).contains((a,)):
        failures.append("a is not in ann(a)")
    if failures:
        return InfinitePdCertificate(False, tuple(failures), None, None, None)
    ideal_module = FPModule(R, 1, [(a,)])
    verdict = pd_bounded(ideal_module, depth - 1)
    res = verdict.resolution
    accepted = (verdict.kind == "infinite_periodic" and res.periodicity == (0, 1))
    if not accepted:
        failures.append("periodic certificate did not materialize")
    return InfinitePdCertificate(accepted, tuple(failures), ideal_module, res, verdict)


# ---------------------------------------------------------------------------
# short-exactness checking and the horseshoe construction
# ---------------------------------------------------------------------------

class ShortExactReport(NamedTuple):
    injective: bool
    composite_zero: bool
    kernel_in_image: bool
    surjective: bool

    @property
    def ok(self) -> bool:
        return (self.injective and self.composite_zero
                and self.kernel_in_image and self.surjective)


@span_scope
def verify_short_exact(incl: ModuleMap, proj: ModuleMap) -> ShortExactReport:
    """Membership-based exactness check for 0 -> A -> B -> C -> 0."""
    composite = proj.compose(incl)
    composite_zero = all(
        proj.target.rel_span_contains(col) for col in composite.columns)
    injective = incl.kernel_is_zero()
    surjective = proj.cokernel_is_zero()
    # kernel of proj inside the image of incl (plus target relations of B)
    kernel_in_image = all(map(incl._image.contains, proj.kernel_preimage_generators()))
    return ShortExactReport(injective, composite_zero, kernel_in_image, surjective)


class HorseshoeResult(NamedTuple):
    resolution: FreeResolution  # of the middle, on the combined generators
    augmentation: ModuleMap  # free module on combined generators ->> middle


@span_scope
def horseshoe_resolution(incl: ModuleMap, proj: ModuleMap, depth: int) -> HorseshoeResult:
    """Resolution of the middle of a short exact sequence from the outer two.

    Builds F^B_s = F^A_s + F^C_s with block differentials [[a, h], [0, c]],
    solving for the correction blocks h level by level through membership
    witnesses. F^B_0 covers the middle through the returned augmentation; the
    chain can be fed to the independent exactness checker.
    """
    report = verify_short_exact(incl, proj)
    if not report.ok:
        raise InputError("the given pair of maps is not a short exact sequence")
    A, B, C = incl.source, incl.target, proj.target
    R = B.ring
    res_a = free_resolution(A, depth)
    res_c = free_resolution(C, depth)

    # lift each C-generator through proj
    beta = [w[:B.ngens] for w in proj._image.lift(identity(R, C.ngens))]

    # h_1: correction into F^A_0 for each column of c_1
    lifted = incl._image.lift([mat_vec(R, beta, col, B.ngens) for col in res_c.map(0)])
    if lifted is None:
        raise InputError("horseshoe lift failed at level 0")
    h = [tuple(-p for p in wit[:A.ngens]) for wit in lifted]

    maps = []
    for s in range(depth):
        a_cols, c_cols, ra = res_a.map(s), res_c.map(s), res_a.rank(s)
        zeros = _zero_column(R, res_c.rank(s))
        maps.append(tuple([col + zeros for col in a_cols]
                          + [h[j] + col for j, col in enumerate(c_cols)]))
        if not res_a.map(s + 1) and not res_c.map(s + 1):
            break
        # solve the next correction block: a_s * h_{s+1} = -(h_s * c_{s+1})
        h = span_engine(R, ra, a_cols).lift(
            [tuple(-p for p in mat_vec(R, h, col, ra)) for col in res_c.map(s + 1)])
        if h is None:
            raise InputError(f"horseshoe lift failed at level {s + 1}")
    combined_rank = A.ngens + C.ngens
    middle = FPModule(R, combined_rank, maps[0] if maps else ())
    res = FreeResolution(middle, tuple(maps), depth)
    aug = ModuleMap(FPModule.free(R, combined_rank), B, list(incl.columns) + beta)
    return HorseshoeResult(res, aug)


# ---------------------------------------------------------------------------
# the degree-window short exact sequence over R[x]
# ---------------------------------------------------------------------------

class TruncationSequence(NamedTuple):
    k: int
    A: FPModule  # over the base ring
    B: FPModule  # over the base ring
    phi: ModuleMap  # A[x] -> B[x]
    psi: ModuleMap  # B[x] -> M
    M: FPModule  # the submodule, presented abstractly over R[x]
    exactness: ShortExactReport


@span_scope
def truncation_sequence(Msub: SubmoduleOfFree) -> TruncationSequence:
    """Resolve a submodule M of F[x], x the last variable, by degree windows
    over the base ring.

    With k one more than the top generator x-degree, B = M meet F_k and
    A = M meet F_{k-1} are base-ring modules; the connecting maps
    phi(a (x) x^i) = a (x) x^{i+1} - (x a) (x) x^i and
    psi(b (x) x^i) = x^i b assemble into an exact sequence
    0 -> A[x] -> B[x] -> M -> 0, verified by membership computations.
    """
    S = Msub.ring
    base = S.base
    r = Msub.ambient_rank
    # regularity is judged before the tower is read: a variable that is not
    # regular on F/M stays a MathRejection when the tower is malformed too
    if base.nvars and not is_regular_element(S.nf(base.gens()[-1]),
                                             FPModule(S, r, Msub.generators)):
        raise NotRegularOnQuotient(f"{base.variables[-1]} is not regular on the ambient quotient")
    idx, R = _tower(S)
    var, var_poly = base.variables[idx], base.gens()[idx]
    k = 1 + max((_top_degree(g, idx) for g in Msub.generators), default=0)

    B_sub = intersect_with_truncation(Msub, k)
    A_sub = intersect_with_truncation(Msub, k - 1)
    B_fp = B_sub.as_fpmodule()
    A_fp = A_sub.as_fpmodule()

    A_ext = polynomial_extension(A_fp, var)
    B_ext = polynomial_extension(B_fp, var)
    M_fp = Msub.as_fpmodule()

    # phi columns: for each A-generator a, the element a (x) x - (x a) (x) 1
    phi_cols = []
    zeros = (R.zero(),) * r
    for a_col in A_sub.generators:
        # the F_{k-1} window coordinates embedded into the F_k window (c),
        # and shifted up one degree there (d)
        wits = B_sub._engine.lift([a_col + zeros, zeros + a_col])
        if wits is None:
            raise InputError("window intersection witnesses failed")
        phi_cols.append(tuple(S.nf(embed_poly(c, base) * var_poly - embed_poly(d, base))
                              for c, d in zip(*wits)))
    phi = ModuleMap(A_ext, B_ext, phi_cols)

    # psi columns: each B-generator, rebuilt as an ambient vector, inside M
    psi_cols = Msub._engine.lift(
        [window_vector_to_ambient(b_col, r, S) for b_col in B_sub.generators])
    if psi_cols is None:
        raise InputError("window generator escaped the submodule")
    psi = ModuleMap(B_ext, M_fp, psi_cols)

    exactness = verify_short_exact(phi, psi)
    return TruncationSequence(k, A_fp, B_fp, phi, psi, M_fp, exactness)
