"""Ext computation, the G-class test, bounded Gorenstein-projective dimension,
and complete-resolution windows.

Conditions quantified over all positive degrees are only checked to the
requested depth d. A clean G-class run is certified by a complete resolution
whenever a two-sided window of width d around M verifies, exact and dual
exact. Its right side is an identity splice (M free), the repeated period (a
resolution periodic from M), or the dualized resolution of M* spliced on by
the double-duality map; on that last route the resolution need not be
periodic, and the certificate covers the window of width d only. The
window's left dual scan reads Hom(F., R) through node d + 1, so it also
needs Ext^{d+1}(M, R) = 0; any other clean run passes up to depth d.

A resolution and its Ext groups are functions of the ring, the generator
count and the canonical relations. So when `dual_module` presents M* as M,
as for a free module, or k over GF(2)[x,y]/(x^2, y^2), the dual side is
read off M's own resolution: neither `g_class_test` nor
`complete_resolution_check` resolves one presentation twice.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .errors import DegreeGuardExceeded, InputError, NoCoresolutionAvailable
from .modules import (
    Column,
    DualModule,
    FPModule,
    SubmoduleOfFree,
    colon_generators,
    double_duality_verdict,
    dual_module,
    exact_kernel,
    identity,
    polynomial_extension,
    span_scope,
    subquotient,
    transpose,
)
from .rings import QuotRing
from .resolutions import FreeResolution, first_inexact_node, free_resolution


# ---------------------------------------------------------------------------
# Ext from free resolutions
# ---------------------------------------------------------------------------

class ExtResult(NamedTuple):
    """Ext^i with a presentation. A vanishing Ext^m(M, R) in a GClassReport is
    presented on its kernel generators with the unit columns as relations."""

    i: int
    module: FPModule
    is_zero: bool


def _hom_free_into(N: FPModule, a: int) -> list[Column]:
    """Canonical relations of Hom(R^a, N) = N^a; generator (t, b) sits at t*g + b.

    N's canonical relations shifted into each block already form the reduced
    basis: position-over-term never pairs leads in different positions.
    """
    zero = N.ring.zero()
    g = N.ngens
    return [(zero,) * (t * g) + rel + (zero,) * ((a - 1 - t) * g)
            for t in range(a) for rel in N.canonical_relations]


def _hom_induced_columns(R: QuotRing, dual_cols, g: int) -> tuple:
    """Columns of Hom(d, N) = Hom(d, R) (x) I_g for N on g generators, from
    dual_cols = Hom(d, R), the resolution's dual map: column (l, b) holds
    dual column l at the positions t*g + b."""
    zero = R.zero()
    return tuple(tuple(p if c == b else zero for p in col for c in range(g))
                 for col in dual_cols for b in range(g))


@span_scope
def ext_module(M: FPModule, N: FPModule, i: int) -> ExtResult:
    """Ext^i(M, N) as the homology of Hom(-, N) on a free resolution of M."""
    if i < 0:
        raise InputError("negative Ext degree")
    if M.ring != N.ring:
        raise InputError("Ext needs a common ring")
    return _ext_from_resolution(free_resolution(M, i + 1), N, i)


def _ext_from_resolution(res: FreeResolution, N: FPModule, i: int) -> ExtResult:
    """Ext^i(res.module, N) from a resolution of depth at least i + 1.

    Only the dual maps d_i^T and d_{i+1}^T of the resolution's Hom(F., R)
    are read, so a deeper resolution gives the same bytes.
    """
    R = N.ring
    g = N.ngens
    x_dim = res.rank(i) * g
    if x_dim == 0:
        return ExtResult(i, FPModule(R, 0, ()), True)
    # u = Hom(d_{i+1}, N): Hom(F_i, N) -> Hom(F_{i+1}, N)
    u_cols = _hom_induced_columns(R, res.dual_map(i), g)
    kernel_gens = colon_generators(R, u_cols, _hom_free_into(N, res.rank(i + 1)))
    denominator = _hom_free_into(N, res.rank(i))
    if i >= 1:  # plus the image of Hom(d_i, N)
        denominator += _hom_induced_columns(R, res.dual_map(i - 1), g)
    ext = subquotient(SubmoduleOfFree(R, x_dim, kernel_gens), denominator)
    return ExtResult(i, ext, ext.is_zero())


def _ext_into_ring(res: FreeResolution, m: int) -> ExtResult:
    """Ext^m(res.module, R), m >= 1: zero, certified by membership, when
    Hom(F_., R) is exact at F_m; else the `_ext_from_resolution` subquotient."""
    R = res.module.ring
    kernel = exact_kernel(R, res.dual_map(m - 1), res.dual_map(m))
    if kernel is not None:
        return ExtResult(m, FPModule.zero(R, len(kernel)), True)
    return _ext_from_resolution(res, FPModule.free(R, 1), m)


def _exts_into_ring(res: FreeResolution, depth: int) -> tuple[ExtResult, ...]:
    """Ext^m(res.module, R) for m = 1..depth. Ext^m reads d_m and d_{m+1}, so
    past s + p, (s, p) the periodicity, it is Ext^{m-p} again with i = m."""
    out: list[ExtResult] = []
    last = sum(res.periodicity) if res.periodicity else depth
    for m in range(1, depth + 1):
        out.append(_ext_into_ring(res, m) if m <= last
                   else out[m - 1 - res.periodicity[1]]._replace(i=m))
    return tuple(out)


# ---------------------------------------------------------------------------
# complete-resolution windows
# ---------------------------------------------------------------------------

class CompleteResolutionWindow(NamedTuple):
    """A two-sided chain, read left to right: maps[j] sends node j to node j+1."""

    route: str  # "periodic" | "trivial_projective" | "dual_of_dual_resolution"
    ranks: tuple[int, ...]
    maps: tuple
    module_position: int  # node index of F_0; the module is im(maps at F_0)
    window: int


class CompleteResolutionFailure(NamedTuple):
    stage: str  # "left_dual_exactness" | "window_exactness" | "window_dual_exactness"
    node: int
    detail: str


@span_scope
def complete_resolution_check(M: FPModule, window: int
                              ) -> Union[CompleteResolutionWindow, CompleteResolutionFailure]:
    """Assemble a two-sided window around M and verify dual exactness on it.

    The left tail is a free resolution. Right tails exist for free modules
    (identity splice), for periodic resolutions starting at the module, and
    through double duality when the evaluation map is an isomorphism; raises
    NoCoresolutionAvailable when none applies. Check failures (for example a
    nonzero Ext breaking dual exactness) come back as a failure value.
    M is resolved once, to depth window + 1; on the double-duality route a
    dual presented as M takes that resolution, which covers the window's
    reads of it, and any other dual is resolved to depth window.
    """
    if window < 1:
        raise InputError("window must be at least 1")

    res = free_resolution(M, window + 1)

    def dual_side():
        D = dual_module(M)
        if double_duality_verdict(M, D) != "iso":
            raise NoCoresolutionAvailable(
                "no periodicity and the double-duality map is not an isomorphism")
        return D, res if D.module.same_presentation(M) else free_resolution(D.module, window)

    return _complete_window(res, window, dual_side)


def _complete_window(res: FreeResolution, window: int, dual_side
                     ) -> Union[CompleteResolutionWindow, CompleteResolutionFailure]:
    """`complete_resolution_check` on res = free_resolution(M, window + 1).

    `dual_side()` is called only on the dual_of_dual_resolution route. It
    returns the dual of M, whose double-duality map must be an isomorphism,
    and a resolution of the dual M* of depth at least window. The splice
    F_0 -> G_0* is K^T, K the dual's evaluation, the matrix whose two nodes
    `double_duality_verdict` checked, so within one call they are memo hits.

    Each window map keeps its dual beside it, read from what is already
    built: `res.dual_maps`, K, the dual's resolution maps. Every scan reads
    its whole chain; `first_inexact_node` checks each distinct node once, so
    a chain that repeats by reference costs one period at any window.
    """
    M = res.module
    R = M.ring

    # dual exactness of the left tail alone, node s of Hom(F., R) being step
    # s; failures here are nonzero Ext^s
    step = first_inexact_node(R, res.dual_maps)
    if step is not None:
        return CompleteResolutionFailure(
            "left_dual_exactness", step,
            f"Hom(-, R) loses exactness at resolution step {step}")

    # splice a right tail onto F_depth, ..., F_0, still reading left to
    # right; a free module instead gets a trivial window of its own
    module_position = min(window, len(res.maps))
    maps_ltr = [res.maps[s] for s in range(module_position - 1, -1, -1)]
    duals_ltr = [res.dual_maps[s] for s in range(module_position - 1, -1, -1)]
    n = M.ngens
    if not M.canonical_relations:
        route = "trivial_projective"
        one, to_zero = identity(R, n), transpose((), n)
        maps_ltr = [(), one, to_zero]  # the last is F_0 -> 0
        duals_ltr = [to_zero, one, ()]
        module_position = 1
    elif res.periodicity is not None and res.periodicity[0] == 0:
        route = "periodic"
        _, p = res.periodicity
        # after F_0 the ranks cycle F_{p-1}, ..., F_0 with the splice d_p first
        for j in range(window):
            s = p - 1 - j % p
            maps_ltr.append(res.maps[s])
            duals_ltr.append(res.dual_maps[s])
    else:
        D, dual_res = dual_side()
        route = "dual_of_dual_resolution"
        maps_ltr.append(transpose(D.evaluation, n))
        duals_ltr.append(D.evaluation)
        for s, d in enumerate(dual_res.dual_maps[:window - 1]):
            maps_ltr.append(d)
            duals_ltr.append(dual_res.maps[s])

    maps_t = tuple(maps_ltr)
    bad = first_inexact_node(R, maps_t)
    if bad is not None:
        return CompleteResolutionFailure(
            "window_exactness", bad, "two-sided window is not exact")
    bad = first_inexact_node(R, duals_ltr[::-1])
    if bad is not None:
        return CompleteResolutionFailure(
            "window_dual_exactness", bad,
            "Hom(-, R) loses exactness on the two-sided window")
    ranks = tuple(map(len, maps_t)) + (len(maps_t[-1][0]) if maps_t[-1] else 0,)
    return CompleteResolutionWindow(route, ranks, maps_t, module_position, window)


# ---------------------------------------------------------------------------
# the three-condition test and bounded Gorenstein dimension
# ---------------------------------------------------------------------------

class GClassReport(NamedTuple):
    """A vanishing Ext in cond1 or cond2 holds the unit columns as its raw
    relations; only a nonzero one, the fail witness among them, is a full
    subquotient presentation, as `ext_module` gives. cond3_verdict is
    `double_duality_verdict` on M and `dual`: no double dual or evaluation
    map is built for it (`double_dual_map` builds both)."""

    depth: int
    cond1: tuple[ExtResult, ...]  # Ext^m(M, R), m = 1..depth
    cond2: tuple[ExtResult, ...]  # Ext^m(M*, R)
    cond3_verdict: str
    dual: DualModule
    verdict_kind: str  # "certified" | "pass_up_to_depth" | "fail"
    certified_by: Optional[str]
    fail_witness: Optional[tuple]

    @property
    def passed(self) -> bool:
        return self.verdict_kind != "fail"

    def verdict_str(self) -> str:
        if self.verdict_kind == "certified":
            return f"Certified({self.certified_by})"
        if self.verdict_kind == "pass_up_to_depth":
            return f"PassUpToDepth({self.depth})"
        kind, m, _ = self.fail_witness
        at = f" at m={m}" if m is not None else ""
        return f"Fail({kind}{at})"


@span_scope
def g_class_test(M: FPModule, depth: int) -> GClassReport:
    """Run the three conditions to the given depth; certify when possible.

    Condition 1: Ext^m(M, R) = 0 for 1 <= m <= depth. Condition 2: the same
    for the dual module, read off M's resolution and condition 1 when the
    dual is presented as M, else off a resolution of its own. Condition 3:
    the double-duality map is an isomorphism, decided by
    `double_duality_verdict`'s two node checks with no double dual built. A
    full pass upgrades to certified when a two-sided window with verified
    dual exactness exists; its left dual scan reads Hom(F., R) through node
    depth + 1 of the resolution, so this also needs Ext^{depth+1}(M, R) = 0.
    A resolution periodic from s with period p is computed to its first
    repeat only; Ext^m for m > s + p is read by the period's index, and the
    window scans meet the repeated maps by reference and check each distinct
    node once, so the work does not grow with the depth on any window route.
    """
    if depth < 1:
        raise InputError("depth must be at least 1")
    res = free_resolution(M, depth + 1)
    cond1 = _exts_into_ring(res, depth)
    D = dual_module(M)
    dual_res = res if D.module.same_presentation(M) else free_resolution(D.module, depth + 1)
    cond2 = cond1 if dual_res is res else _exts_into_ring(dual_res, depth)
    cond3 = double_duality_verdict(M, D)

    witnesses = [(kind, r.i, r) for kind, results in (("cond1", cond1), ("cond2", cond2))
                 for r in results if not r.is_zero]
    if cond3 != "iso":
        witnesses.append(("cond3", None, cond3))
    if witnesses:
        return GClassReport(depth, cond1, cond2, cond3, D, "fail", None, witnesses[0])

    if isinstance(_complete_window(res, depth, lambda: (D, dual_res)),
                  CompleteResolutionWindow):
        return GClassReport(depth, cond1, cond2, cond3, D, "certified",
                            "complete_resolution", None)
    return GClassReport(depth, cond1, cond2, cond3, D, "pass_up_to_depth", None, None)


class GpdVerdict(NamedTuple):
    kind: str  # "at_most" | "fail" | "inconclusive"
    n: int
    report: Optional[GClassReport]

    def __str__(self):
        if self.kind == "at_most":
            return f"AtMost({self.n})"
        if self.kind == "inconclusive":
            return f"AtLeastDepthInconclusive({self.n})"
        return "FailWitness"


@span_scope
def gpd_bounded(M: FPModule, n: int, depth: int) -> GpdVerdict:
    """Test whether the n-th syzygy passes the three-condition test."""
    if n < 0:
        raise InputError("negative syzygy index")
    omega = free_resolution(M, n + 1).syzygy_module(n)
    try:
        report = g_class_test(omega, depth)
    except DegreeGuardExceeded:
        return GpdVerdict("inconclusive", depth, None)
    if report.passed:
        return GpdVerdict("at_most", n, report)
    return GpdVerdict("fail", n, report)


class GpdCompareReport(NamedTuple):
    base_verdict: GpdVerdict
    extended_verdict: GpdVerdict
    variable: str

    @property
    def match(self) -> bool:
        return (self.base_verdict.kind == self.extended_verdict.kind
                and self.base_verdict.n == self.extended_verdict.n)


def fresh_variable(R: QuotRing) -> str:
    for name in ("y", "z", "w", "u", "v", "s"):
        if name not in R.base.variables:
            return name
    i = 0
    while f"t{i}" in R.base.variables:
        i += 1
    return f"t{i}"


@span_scope
def gpd_extension_compare(M: FPModule, n: int, depth: int) -> GpdCompareReport:
    """Run the bounded gpd test on M and on its polynomial extension."""
    var = fresh_variable(M.ring)
    base = gpd_bounded(M, n, depth)
    extended = gpd_bounded(polynomial_extension(M, var), n, depth)
    return GpdCompareReport(base, extended, var)
