import contextlib
import random
from types import SimpleNamespace

import pytest

from gproj import (
    GF,
    QQ,
    CompleteResolutionFailure,
    CompleteResolutionWindow,
    FPModule,
    ModuleMap,
    NoCoresolutionAvailable,
    PolyRing,
    complete_resolution_check,
    double_dual_map,
    dual_module,
    ext_module,
    free_resolution,
    g_class_test,
    gpd_bounded,
    gpd_extension_compare,
    polynomial_ring,
)
from gproj import gorenstein
from gproj.modules import SubmoduleEngine, double_duality_verdict, mat_vec, transpose
from gproj.resolutions import FreeResolution
from gproj.rings import FreeModuleGB, QuotRing

from helpers import (GCLASS_RINGS, gclass_ring, late_period_module, module_cosets, random_module,
                     ring_elements)


def R4():
    return PolyRing(GF(2), ("x",)).quotient(["x^2"])


def QxQ():
    return polynomial_ring(QQ, ("x",))


# ----- Ext -----

def test_ext0_of_ring_is_ring():
    Qx = QxQ()
    F = FPModule.free(Qx, 1)
    r = ext_module(F, F, 0)
    assert not r.is_zero
    assert r.module.ngens == 1 and not r.module.relations


def test_ext1_of_residue_field_is_residue_field():
    # apply Hom(-, R) to 0 -> R -x-> R -> k -> 0; the cokernel of
    # multiplication by x is k again, computed here independently
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    r = ext_module(k, FPModule.free(Qx, 1), 1)
    assert not r.is_zero
    assert r.module.ngens == 1
    assert [[str(p) for p in c] for c in r.module.canonical_relations] == [["x"]]


def test_ext_vanishes_on_periodic_module():
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    F = FPModule.free(R, 1)
    for i in range(1, 5):
        assert ext_module(I, F, i).is_zero


def test_ext_zero_for_free_modules():
    R = R4()
    F = FPModule.free(R, 2)
    for i in range(1, 4):
        assert ext_module(F, FPModule.free(R, 1), i).is_zero


def test_ext_with_module_coefficients():
    # Ext^i(k, k) over QQ[x] is k in degrees 0 and 1 (Koszul self-extensions)
    Qx = QxQ()
    from gproj import class_decompose
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    e0 = ext_module(k, k, 0)
    e1 = ext_module(k, k, 1)
    assert not e0.is_zero and not e1.is_zero
    assert str(class_decompose(e0.module)) == "1*[R/(x)]"
    assert str(class_decompose(e1.module)) == "1*[R/(x)]"
    assert ext_module(k, k, 2).is_zero


def test_ext_presentation_independent_cardinality():
    # the same module with a padded presentation gives Ext of equal size
    R = R4()
    elements = ring_elements(R)
    x = R.poly("x")
    M = FPModule(R, 1, [(x,)])
    padded = FPModule(R, 2, [(x, R.zero()), (R.zero(), R.one())])
    F = FPModule.free(R, 1)
    for i in (1, 2):
        a = ext_module(M, F, i).module
        b = ext_module(padded, F, i).module
        _, reps_a = module_cosets(a, elements)
        _, reps_b = module_cosets(b, elements)
        assert len(reps_a) == len(reps_b)


# ----- the three-condition test -----

def test_free_module_is_certified():
    rep = g_class_test(FPModule.free(R4(), 2), 3)
    assert rep.verdict_kind == "certified"
    assert all(r.is_zero for r in rep.cond1)
    assert all(r.is_zero for r in rep.cond2)
    assert rep.cond3_verdict == "iso"


def test_residue_field_fails_with_koszul_witness():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    rep = g_class_test(k, 3)
    assert rep.verdict_kind == "fail"
    kind, m, witness = rep.fail_witness
    assert kind == "cond1" and m == 1
    assert witness.module.ngens == 1
    assert [[str(p) for p in c]
            for c in witness.module.canonical_relations] == [["x"]]


def test_flagship_module_certified_at_depth_5():
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    rep = g_class_test(I, 5)
    assert rep.verdict_kind == "certified"
    assert rep.certified_by == "complete_resolution"


def test_dual_of_certified_module_also_passes():
    # instance check of the dual-side conclusion on catalog rings
    R = R4()
    for M in (FPModule(R, 1, [(R.poly("x"),)]), FPModule.free(R, 1),
              FPModule(R, 1, [(R.poly("x"),)]).direct_sum(FPModule.free(R, 1))):
        rep = g_class_test(M, 3)
        assert rep.passed
        rep_dual = g_class_test(dual_module(M).module, 3)
        assert rep_dual.passed


def test_reflexivity_instances_along_short_exact_sequence():
    # 0 -> (x) -> R -> R/(x) -> 0 over the chain ring: both ends certified,
    # so the kernel and its dual are reflexive and the dual Exts vanish
    R = R4()
    M = FPModule(R, 1, [(R.poly("x"),)])
    rep = g_class_test(M, 4)
    assert rep.passed and rep.cond3_verdict == "iso"
    D = dual_module(M)
    from gproj import double_dual_map
    assert double_dual_map(D.module).verdict == "iso"
    F = FPModule.free(R, 1)
    for i in range(1, 5):
        assert ext_module(D.module, F, i).is_zero


def test_direct_sum_passes_iff_both_summands_do():
    R = R4()
    Qx = QxQ()
    good = FPModule(R, 1, [(R.poly("x"),)])
    assert g_class_test(good.direct_sum(FPModule.free(R, 1)), 3).passed
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    free = FPModule.free(Qx, 1)
    assert not g_class_test(k.direct_sum(free), 3).passed
    assert g_class_test(free.direct_sum(free), 3).passed


# ----- gpd -----

def test_gpd_examples():
    R = R4()
    Qx = QxQ()
    assert str(gpd_bounded(FPModule.free(R, 2), 0, 3)) == "AtMost(0)"
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    assert str(gpd_bounded(k, 1, 3)) == "AtMost(1)"
    assert str(gpd_bounded(k, 0, 3)) == "FailWitness"
    I = FPModule(R, 1, [(R.poly("x"),)])
    assert str(gpd_bounded(I, 0, 5)) == "AtMost(0)"


def test_gpd_past_a_terminated_resolution_reads_the_zero_syzygy():
    R, Qx = R4(), QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])  # pd 1: d_2 is the empty map
    for M, n in ((FPModule.free(R, 1), 3), (k, 2), (k, 5)):
        verdict = gpd_bounded(M, n, 2)
        assert str(verdict) == f"AtMost({n})"
        assert verdict.report.verdict_kind == "certified"


def test_gpd_polynomial_comparison_matches():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    rep = gpd_extension_compare(k, 1, 3)
    assert rep.match
    assert str(rep.base_verdict) == "AtMost(1)"
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    rep2 = gpd_extension_compare(I, 0, 5)
    assert rep2.match
    assert str(rep2.base_verdict) == "AtMost(0)"
    free = FPModule.free(Qx, 2)
    rep3 = gpd_extension_compare(free, 0, 3)
    assert rep3.match and str(rep3.base_verdict) == "AtMost(0)"


# ----- complete resolutions -----

def test_periodic_window_passes_dual_exactness():
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    w = complete_resolution_check(I, 4)
    assert isinstance(w, CompleteResolutionWindow)
    assert w.route == "periodic"
    assert all(r == 1 for r in w.ranks)


def test_trivial_window_for_free_module():
    w = complete_resolution_check(FPModule.free(QxQ(), 2), 3)
    assert isinstance(w, CompleteResolutionWindow)
    assert w.route == "trivial_projective"
    assert w.ranks == (0, 2, 2, 0)
    # each node's rank is read off its outgoing map; with no generators the
    # identity and the map to zero have no columns either
    w = complete_resolution_check(FPModule(R4(), 0, ()), 3)
    assert isinstance(w, CompleteResolutionWindow) and w.route == "trivial_projective"
    assert w.ranks == (0, 0, 0, 0) and w.maps == ((), (), ())


def test_window_fails_for_residue_field():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    out = complete_resolution_check(k, 3)
    assert isinstance(out, CompleteResolutionFailure)
    assert out.stage == "left_dual_exactness"
    assert out.node == 1  # the nonzero first Ext breaks dual exactness


def test_left_dual_failure_names_the_resolution_step_of_the_first_nonzero_ext():
    # over GF(2)[x,y]/(x^2, xy, y^2) the residue field has Ext^1(k, R) != 0,
    # so Hom(F., R) first loses exactness at step 1 whatever the window; the
    # chain of R/(x) over QQ[x] above is too short to tell the ends apart
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "x*y", "y^2"])
    k = FPModule(R, 1, [(R.poly("x"),), (R.poly("y"),)])
    rep = g_class_test(k, 2)
    assert rep.fail_witness[:2] == ("cond1", 1)
    for w in (1, 2, 3):
        out = complete_resolution_check(k, w)
        assert isinstance(out, CompleteResolutionFailure)
        assert out.stage == "left_dual_exactness"
        assert out.node == 1
        assert "step 1" in out.detail


def test_period_two_window_over_cross_ring():
    # over GF(2)[x,y]/(xy) the module R/(x) resolves ... -y-> R -x-> R with
    # period 2, and the two-sided splice stays exact after dualizing
    R = PolyRing(GF(2), ("x", "y")).quotient(["x*y"])
    M = FPModule(R, 1, [(R.poly("x"),)])
    from gproj import free_resolution
    res = free_resolution(M, 6)
    assert res.periodicity == (0, 2)
    w = complete_resolution_check(M, 4)
    assert isinstance(w, CompleteResolutionWindow)
    assert w.route == "periodic"
    rep = g_class_test(M, 4)
    assert rep.verdict_kind == "certified"
    assert rep.certified_by == "complete_resolution"


def test_double_duality_coresolution_route():
    # a redundantly presented free module over QQ[x]: no periodicity, not a
    # free presentation, so the right tail comes from resolving the dual
    Qx = QxQ()
    M = FPModule.from_strings(Qx, 2, [["1"], ["0"]])
    assert M.canonical_relations  # the presentation is genuinely redundant
    w = complete_resolution_check(M, 3)
    assert isinstance(w, CompleteResolutionWindow)
    assert w.route == "dual_of_dual_resolution"
    rep = g_class_test(M, 3)
    assert rep.verdict_kind == "certified"


def test_g_class_robust_on_random_small_modules():
    import random
    rng = random.Random(41)
    rings = [R4(), PolyRing(GF(2), ("x", "y")).quotient(["x*y"])]
    for _ in range(10):
        R = rings[rng.randrange(2)]
        monos = [(0,) * R.base.nvars,
                 tuple(1 if i == 0 else 0 for i in range(R.base.nvars))]
        if R.base.nvars == 2:
            monos.append((0, 1))
        ngens = rng.randrange(1, 3)
        cols = []
        for _ in range(rng.randrange(0, 3)):
            col = []
            for _ in range(ngens):
                d = {}
                for _ in range(rng.randrange(0, 3)):
                    d[monos[rng.randrange(len(monos))]] = 1
                col.append(R.nf(R.base.from_dict(d)))
            cols.append(tuple(col))
        M = FPModule(R, ngens, cols)
        rep = g_class_test(M, 3)
        assert rep.verdict_kind in ("certified", "pass_up_to_depth", "fail")
        if rep.verdict_kind == "fail":
            assert rep.fail_witness is not None


@pytest.mark.parametrize("key", ["chain2", "chain4", "chain5", "x^2 - x"])
def test_every_module_over_a_self_injective_ring_is_certified_by_its_window(key):
    # over k[x]/(f), f nonzero, Hom(-, R) is exact and every module is
    # reflexive, so all three conditions hold and every node of the
    # complete-resolution window is exact and dual exact
    R = gclass_ring(key) if key in GCLASS_RINGS else PolyRing(GF(7), ("x",)).quotient([key])
    rng = random.Random(32)
    for _ in range(12):
        assert g_class_test(random_module(R, rng), 3).verdict_str() == \
            "Certified(complete_resolution)"


# ----- g_class_test against the standalone routes -----

def _residue_field_of_xy_squares():
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    return FPModule(R, 1, [(R.poly("x"),), (R.poly("y"),)])


def _x_squared_over_gf5_chain_ring():
    R = PolyRing(GF(5), ("x",)).quotient(["x^4"])
    return FPModule(R, 1, [(R.poly("x^2"),)])


def _residue_field_of_cube_of_maximal_ideal():
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "x*y", "y^2"])
    return FPModule(R, 1, [(R.poly("x"),), (R.poly("y"),)])


def _principal_quotient(R):
    return FPModule(R, 1, [(R.base.gens()[0],)])


def _residue_field(R):
    return FPModule(R, 1, [(v,) for v in R.base.gens()])


def _assert_report_matches_standalone_routes(M, depth, rep):
    # g_class_test reuses one resolution of M and of M*, and certifies a
    # vanishing Ext by membership; every part of its report must equal what
    # the public entry points compute from scratch
    R1 = FPModule.free(M.ring, 1)
    dual = dual_module(M)
    for m in range(1, depth + 1):
        for got, module in ((rep.cond1[m - 1], M), (rep.cond2[m - 1], dual.module)):
            want = ext_module(module, R1, m)
            assert got.i == m and got.is_zero == want.is_zero
            assert got.module.is_zero() == want.module.is_zero() == got.is_zero
            assert got.module.ngens == want.module.ngens
            assert got.module.canonical_relations == want.module.canonical_relations
            if not got.is_zero:  # a nonzero Ext is presented in full
                assert got.module.relations == want.module.relations
    assert rep.dual.module.same_presentation(dual.module)
    assert rep.dual.evaluation == dual.evaluation
    try:
        certified = isinstance(complete_resolution_check(M, depth),
                               CompleteResolutionWindow)
    except NoCoresolutionAvailable:
        certified = False
    assert (rep.certified_by == "complete_resolution") == certified


@pytest.mark.parametrize("build, depth, verdict", [
    (_residue_field_of_xy_squares, 4, "Certified(complete_resolution)"),
    (_x_squared_over_gf5_chain_ring, 4, "Certified(complete_resolution)"),
    (_residue_field_of_cube_of_maximal_ideal, 1, "Fail(cond1 at m=1)"),
])
def test_g_class_test_verdicts_match_standalone_routes(build, depth, verdict):
    M = build()
    rep = g_class_test(M, depth)
    assert rep.verdict_str() == verdict
    _assert_report_matches_standalone_routes(M, depth, rep)


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS))
@pytest.mark.parametrize("build", [_residue_field, _principal_quotient])
def test_g_class_test_matches_standalone_routes(key, build):
    M = build(gclass_ring(key))
    for depth in range(1, 5):
        _assert_report_matches_standalone_routes(M, depth, g_class_test(M, depth))


# ----- the dual side read off M's resolution when M* presents M -----

def _dual_side_draws(key):
    """The residue field and 25 random modules over a catalog ring; about a
    third of the random ones have M* presented as M."""
    R = gclass_ring(key)
    rng = random.Random(f"dual-side:{key}")
    return [_residue_field(R)] + [random_module(R, rng) for _ in range(25)]


def _entries(conds):
    return [(r.i, r.is_zero, r.module.ngens, r.module.canonical_relations) for r in conds]


def _reference_g_class(M, depth):
    """The verdict and both conditions with M* resolved in its own top-level
    call and its Ext read off that resolution, whatever presents it."""
    res = free_resolution(M, depth + 1)
    D = dual_module(M)
    dual_res = free_resolution(D.module, depth + 1)
    cond1 = gorenstein._exts_into_ring(res, depth)
    cond2 = gorenstein._exts_into_ring(dual_res, depth)
    fails = [f"{kind} at m={r.i}" for kind, conds in (("cond1", cond1), ("cond2", cond2))
             for r in conds if not r.is_zero]
    if double_duality_verdict(M, D) != "iso":
        fails.append("cond3")
    if fails:
        verdict = f"Fail({fails[0]})"
    elif isinstance(gorenstein._complete_window(res, depth, lambda: (D, dual_res)),
                    CompleteResolutionWindow):
        verdict = "Certified(complete_resolution)"
    else:
        verdict = f"PassUpToDepth({depth})"
    return verdict, _entries(cond1), _entries(cond2)


def _window_outcome(check, M, window):
    """What a window check gives, comparable across calls: the route, ranks,
    maps and module position of a window, a failure as it is, or the class
    of the exception raised."""
    try:
        w = check(M, window)
    except NoCoresolutionAvailable as exc:
        return type(exc)
    if isinstance(w, CompleteResolutionWindow):
        return w.route, w.ranks, w.maps, w.module_position
    return w


def _reference_window(M, window):
    """complete_resolution_check with M* resolved in its own top-level call."""
    def dual_side():
        D = dual_module(M)
        if double_duality_verdict(M, D) != "iso":
            raise NoCoresolutionAvailable("the double-duality map is not an isomorphism")
        return D, free_resolution(D.module, window)

    return gorenstein._complete_window(free_resolution(M, window + 1), window, dual_side)


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS))
def test_dual_side_matches_a_separately_resolved_dual(key):
    branches = set()
    for M in _dual_side_draws(key):
        branches.add(dual_module(M).module.same_presentation(M))
        rep = g_class_test(M, 2)
        assert (rep.verdict_str(), _entries(rep.cond1), _entries(rep.cond2)) == \
            _reference_g_class(M, 2)
        assert _window_outcome(complete_resolution_check, M, 2) == \
            _window_outcome(_reference_window, M, 2)
    assert branches == {True, False}  # M* presents M, and it does not


def test_window_checks_fail_on_a_dual_resolution_with_one_map_zeroed():
    # k over GF(2)[x,y]/(x^2, y^2) is its own dual and takes the dual-of-dual
    # route, whose window reads the dual's resolution twice: its transposes
    # in the window, its maps in the window's dual. Zeroing its d_2 breaks
    # the window at G_1*, node 5 of F_3 F_2 F_1 F_0 G_0* G_1* G_2*, where
    # d_2^T leaves; with the transposes left intact only Hom(-, R) of the
    # window breaks, at its first node, G_1, where d_2 arrives
    k = _residue_field(gclass_ring("A"))
    res, D = free_resolution(k, 4), dual_module(k)
    assert D.module.same_presentation(k)
    assert gorenstein._complete_window(res, 3, lambda: (D, res)).route == \
        "dual_of_dual_resolution"
    zero = tuple(tuple(k.ring.zero() for _ in col) for col in res.maps[1])
    broken = FreeResolution(k, (res.maps[0], zero) + res.maps[2:], res.verified_depth)
    assert gorenstein._complete_window(res, 3, lambda: (D, broken)) == \
        CompleteResolutionFailure("window_exactness", 5, "two-sided window is not exact")
    maps_only = SimpleNamespace(maps=broken.maps, dual_maps=res.dual_maps)
    assert gorenstein._complete_window(res, 3, lambda: (D, maps_only)) == \
        CompleteResolutionFailure("window_dual_exactness", 1,
                                  "Hom(-, R) loses exactness on the two-sided window")


def test_residue_field_duals_take_each_branch():
    # k over the Gorenstein ring A is its own dual; over E its dual is the
    # socle (x, y), presented as k^2, so only there is M* resolved again
    k_a, k_e = _residue_field(gclass_ring("A")), _residue_field(gclass_ring("E"))
    assert dual_module(k_a).module.same_presentation(k_a)
    assert dual_module(k_e).module.ngens == 2
    assert _window_outcome(complete_resolution_check, k_a, 3)[0] == "dual_of_dual_resolution"


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS))
def test_no_call_resolves_a_presentation_twice(key, monkeypatch):
    # keyed as the benchmark tracer keys a resolution: a call that asks for
    # a presentation it already resolved at least as deep is a rebuild
    calls = []
    original = gorenstein.free_resolution

    def recording(M, depth):
        calls.append(((M.ring, M.ngens, M.canonical_relations), depth))
        return original(M, depth)

    monkeypatch.setattr(gorenstein, "free_resolution", recording)
    runs = (g_class_test, complete_resolution_check, lambda M, d: gpd_bounded(M, 1, d))
    for M in _dual_side_draws(key):
        for run in runs:
            calls.clear()
            with contextlib.suppress(NoCoresolutionAvailable):
                run(M, 2)
            deepest = {}
            for presentation, depth in calls:
                assert deepest.get(presentation, -1) < depth
                deepest[presentation] = depth


@pytest.mark.parametrize("key, depth, entries", [("A", 4, 1), ("E", 1, 2)])
def test_g_class_test_resolves_the_dual_only_when_it_presents_another_module(
        key, depth, entries, count_calls):
    M = _residue_field(gclass_ring(key))
    _, calls = count_calls(gorenstein, "free_resolution", g_class_test, M, depth)
    assert calls == entries


# ----- condition 3 against the double dual built as a module -----

def _cond3_by_the_double_dual(M):
    """The verdict read off M** built as a module: the evaluation map into it
    rebuilt with its well-definedness check, then its kernel and cokernel
    asked on its image engine."""
    mu = double_dual_map(M)
    f = ModuleMap(M, mu.double_dual.module, mu.map.columns)
    if not f.kernel_is_zero():
        return "not_mono"
    return "iso" if f.cokernel_is_zero() else "mono_not_iso"


def _cond3_verdicts(M):
    """double_duality_verdict and what each of its callers reports."""
    return {double_duality_verdict(M, dual_module(M)), double_dual_map(M).verdict,
            g_class_test(M, 1).cond3_verdict}


def _maximal_ideal_of_qq_xy():
    # (x, y) in QQ[x,y] on its Koszul relation: its double dual is R
    Q = polynomial_ring(QQ, ("x", "y"))
    x, y = Q.poly("x"), Q.poly("y")
    return FPModule(Q, 2, [(y, -x)])


@pytest.mark.parametrize("build, verdict", [
    (lambda: _residue_field(QxQ()), "not_mono"),  # M* = 0
    (_maximal_ideal_of_qq_xy, "mono_not_iso"),
    (_residue_field_of_xy_squares, "iso"),
    (lambda: FPModule(QxQ(), 0, ()), "iso"),
    (lambda: FPModule.zero(gclass_ring("A"), 2), "iso"),
    (lambda: FPModule.free(QxQ(), 3), "iso"),
    (lambda: FPModule.free(gclass_ring("chain4"), 2), "iso"),
], ids=["k-over-QQ[x]", "maximal-ideal-QQ[x,y]", "k-over-A",
        "zero-on-no-gens", "zero-on-two-gens", "free-QQ[x]", "free-chain4"])
def test_cond3_verdict_of_each_kind_matches_the_double_dual(build, verdict):
    M = build()
    assert _cond3_by_the_double_dual(M) == verdict
    assert _cond3_verdicts(M) == {verdict}


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS))
def test_cond3_verdict_matches_the_double_dual_on_random_modules(key):
    rng = random.Random(f"cond3:{key}")
    R = gclass_ring(key)
    for _ in range(6):
        M = random_module(R, rng)
        assert _cond3_verdicts(M) == {_cond3_by_the_double_dual(M)}


@pytest.mark.parametrize("build", [
    _residue_field_of_xy_squares,
    lambda: FPModule.from_strings(QxQ(), 2, [["1"], ["0"]]),
])
def test_dual_of_dual_splice_is_the_evaluation_map_into_the_double_dual(build):
    # K^T, K the dual's evaluation, is the double-duality map read in G_0*
    M = build()
    w = complete_resolution_check(M, 3)
    assert w.route == "dual_of_dual_resolution"
    mu = double_dual_map(M)
    k = mu.dual.module.ngens
    old = tuple(mat_vec(M.ring, mu.double_dual.evaluation, col, k) for col in mu.map.columns)
    assert w.maps[w.module_position] == old


@pytest.mark.parametrize("ring", [
    lambda: gclass_ring("A"),
    lambda: gclass_ring("C"),
    QxQ,
    lambda: PolyRing(GF(3), ("x", "y")).quotient(["x*y - 1", "x"]),  # 1 in the modulus
])
def test_zero_module_equals_the_module_on_unit_relations(ring):
    R = ring()
    for n in (0, 1, 3):
        units = [tuple(R.one() if j == i else R.zero() for j in range(n)) for i in range(n)]
        want = FPModule(R, n, units)
        got = FPModule.zero(R, n)
        assert got.ngens == want.ngens == n
        assert got.relations == want.relations
        assert got.canonical_relations == want.canonical_relations
        assert got.is_zero() and want.is_zero()
        for col in units:
            assert got.rel_witness(col) == want.rel_witness(col)


def test_zero_module_builds_no_basis(count_calls):
    R = gclass_ring("A")
    _, builds = count_calls(FreeModuleGB, "__init__", FPModule.zero, R, 3)
    assert builds == 0


def test_certified_run_presents_no_ext(count_calls):
    # counted on the name g_class_test calls, `gorenstein.subquotient`
    rep, calls = count_calls(gorenstein, "subquotient", g_class_test,
                             _residue_field_of_xy_squares(), 4)
    assert rep.verdict_str() == "Certified(complete_resolution)"
    assert calls == 0


def test_failing_run_presents_each_nonzero_ext_once(count_calls):
    rep, calls = count_calls(gorenstein, "subquotient", g_class_test,
                             _residue_field_of_cube_of_maximal_ideal(), 3)
    assert rep.verdict_str() == "Fail(cond1 at m=1)"
    nonzero = [r for r in rep.cond1 + rep.cond2 if not r.is_zero]
    assert nonzero and calls == len(nonzero)


def test_g_class_test_builds_at_most_20_module_bases(count_calls):
    # Hom terms are column lists, and within one call each column list is
    # spanned once: the window, the Ext kernels and the dual resolution
    # reuse the bases the resolutions built, a vanishing Ext is certified
    # by membership in a span the window needs anyway, each kernel is
    # read off its engine's basis with no second build, a reduced basis is
    # its own canonical set, and a kernel asked only for membership takes
    # no canonical basis; condition 3 is two node checks whose engines are
    # the dual's and its resolution's, with no double dual built
    rep, builds = count_calls(FreeModuleGB, "__init__", g_class_test,
                              _residue_field_of_xy_squares(), 8)
    assert rep.verdict_str() == "Certified(complete_resolution)"
    assert builds <= 20


def test_gpd_bounded_builds_at_most_16_module_bases(count_calls):
    # the G-class test of the first syzygy reuses the resolution of M
    verdict, builds = count_calls(FreeModuleGB, "__init__", gpd_bounded,
                                  _residue_field_of_xy_squares(), 1, 2)
    assert str(verdict) == "AtMost(1)"
    assert builds <= 16


def test_double_dual_map_builds_no_basis_for_the_duals_relations(count_calls):
    # the relations of each dual are colon_generators output, a reduced
    # basis the span cache already holds as its own canonical set, so
    # every basis built is an engine's
    M = _residue_field_of_xy_squares()
    (result, engines), builds = count_calls(FreeModuleGB, "__init__", count_calls,
                                            SubmoduleEngine, "__init__", double_dual_map, M)
    assert result.dual.module.relations and result.double_dual.module.relations
    assert result.verdict == "iso"
    assert builds == engines


def test_g_class_test_of_a_chain_ring_module_builds_one_basis(count_calls):
    # R/(x^2) over GF(5)[x]/(x^4) resolves with period 1 from 0 and is its
    # own dual: every node, the dual's relations and both double-duality
    # checks read the one engine of the map x^2. Counted from before M is
    # built, that engine is the only one: it is M's own, which the call's
    # span cache starts with, so the call alone builds no basis
    def build_and_test():
        M = _x_squared_over_gf5_chain_ring()
        return M, g_class_test(M, 4)

    (M, rep), engines = count_calls(SubmoduleEngine, "__init__", build_and_test)
    assert rep.verdict_str() == "Certified(complete_resolution)"
    assert engines == 1
    again, builds = count_calls(FreeModuleGB, "__init__", g_class_test, M, 4)
    assert again.verdict_str() == rep.verdict_str() and builds == 0


def test_g_class_test_makes_one_dual_and_no_module_map():
    # condition 3 and the dual-of-dual splice read the dual's evaluation:
    # no double dual, no evaluation map and no image engine of a map
    from gproj import modules
    calls = {"dual": 0, "map": 0}
    dual, init = modules.dual_module, ModuleMap.__init__

    def counting_dual(M):
        calls["dual"] += 1
        return dual(M)

    def counting_init(self, *args, **kwargs):
        calls["map"] += 1
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for owner in (modules, gorenstein):
            patch.setattr(owner, "dual_module", counting_dual)
        patch.setattr(ModuleMap, "__init__", counting_init)
        rep = g_class_test(_residue_field_of_xy_squares(), 4)
    assert rep.verdict_str() == "Certified(complete_resolution)"
    assert calls == {"dual": 1, "map": 0}


def test_kernel_is_zero_builds_no_canonical_basis(count_calls):
    # membership of the kernel generators needs no canonical set: the one
    # basis is the engine of the columns and the target relations
    R = gclass_ring("A")
    x, y = R.poly("x"), R.poly("y")
    M = FPModule(R, 2, [(y, R.zero())])
    for u, injective in ((x, False), (y, False), (R.one() + x, True)):
        f = ModuleMap(M, M, [(u, R.zero()), (R.zero(), u)])
        (verdict, engines), builds = count_calls(FreeModuleGB, "__init__", count_calls,
                                                 SubmoduleEngine, "__init__", f.kernel_is_zero)
        assert verdict is injective
        assert builds == engines == 1


def test_g_class_test_makes_at_most_262_normal_forms(count_calls):
    # columns are held in normal form, so only new products, the nonzero
    # polynomials of the basis elements led by a modulus lead and the
    # constructors' nonzero inputs get reduced; the unit takes none, and
    # each node's image-in-kernel products are made once per call
    rep, calls = count_calls(QuotRing, "nf", g_class_test,
                             _residue_field_of_xy_squares(), 8)
    assert rep.verdict_str() == "Certified(complete_resolution)"
    assert calls <= 262


def test_g_class_test_work_is_independent_of_depth_on_a_periodic_module(count_calls):
    # the flagship's chain repeats one node, so the Ext checks and the
    # window scans ask it once per call however deep they read, and no
    # basis is built past the first period
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    for owner, name in ((FreeModuleGB, "reduce"), (QuotRing, "nf"),
                        (SubmoduleEngine, "contains"), (FreeModuleGB, "__init__")):
        (shallow, few), (deep, many) = (
            count_calls(owner, name, g_class_test, I, d) for d in (50, 800))
        assert shallow.verdict_str() == deep.verdict_str() == "Certified(complete_resolution)"
        assert few == many, name


def test_g_class_test_of_a_module_built_from_raw_int_coefficients():
    # from_dict maps raw ints into the field: over GF(2), 2*x + 3*y is y
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    P, field = R.base, R.base.field
    raw = [{(1, 0): 2, (0, 1): 3}, {(1, 0): 5, (0, 1): 4}]
    mapped = [{e: field.from_int(c) for e, c in d.items()} for d in raw]
    verdicts = [g_class_test(FPModule(R, 1, [(P.from_dict(d),) for d in dicts]), 4).verdict_str()
                for dicts in (raw, mapped)]
    assert verdicts == ["Certified(complete_resolution)"] * 2


@pytest.mark.parametrize("ring", [
    lambda: PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"]),
    lambda: PolyRing(GF(5), ("x",)).quotient(["x^4"]),
    QxQ,
])
def test_hom_free_into_is_the_canonical_presentation_of_the_sum(ring):
    # the reduced basis of N^3 is N's reduced basis shifted into each block
    from gproj.gorenstein import _hom_free_into
    R = ring()
    x = R.poly("x")
    N = FPModule(R, 2, [(x, x * x), (x * x * x, R.zero()), (x * x, x + x * x)])
    assert N.canonical_relations
    zero = (R.zero(),) * 2
    blocks = [zero * t + rel + zero * (2 - t)
              for t in range(3) for rel in N.relations]
    assert tuple(_hom_free_into(N, 3)) == FPModule(R, 6, blocks).canonical_relations


# ----- Hom(F., R) read once: the window duals and Hom(d, N) -----

def _transposed_chain(ranks, maps):
    """Hom(-, R) of a chain read left to right, computed here: the nodes in
    reverse order and each map transposed."""
    return (tuple(reversed(ranks)),
            tuple(transpose(maps[k], ranks[k + 1]) for k in reversed(range(len(maps)))))


def _unsymmetric_period_two_module():
    # over GF(5)[x]/(x^4), d_1 = [[x, 0], [2, x]] and d_2 = [[x^3, 0], [3x^2,
    # x^3]] repeat from step 0, and neither is its own transpose
    R = gclass_ring("chain4")
    x = R.poly("x")
    return FPModule(R, 2, [(x, R.poly("2")), (R.zero(), x)])


@pytest.mark.parametrize("build, window, route", [
    (lambda: FPModule.free(R4(), 2), 3, "trivial_projective"),
    (lambda: _principal_quotient(R4()), 4, "periodic"),
    (lambda: _principal_quotient(PolyRing(GF(2), ("x", "y")).quotient(["x*y"])), 5, "periodic"),
    (_unsymmetric_period_two_module, 5, "periodic"),
    (_residue_field_of_xy_squares, 4, "dual_of_dual_resolution"),
    (late_period_module, 6, "dual_of_dual_resolution"),
], ids=["trivial", "period-1", "period-2", "period-2-rank-2", "residue-field", "late-period"])
def test_each_window_scans_its_transpose_as_the_dual_chain(build, window, route, monkeypatch):
    # the scans read maps already built (the resolution's dual maps, the
    # evaluation K, the dual's resolution maps); what they read must be the
    # transposes, computed here from the window itself
    scans, scan = [], gorenstein.first_inexact_node

    def recording(R, maps):
        scans.append(tuple(maps))
        return scan(R, maps)

    monkeypatch.setattr(gorenstein, "first_inexact_node", recording)
    M = build()
    w = complete_resolution_check(M, window)
    assert isinstance(w, CompleteResolutionWindow) and w.route == route
    res = free_resolution(M, window + 1)
    ranks, duals = _transposed_chain(w.ranks, w.maps)
    assert scans == [_transposed_chain(res.ranks[::-1], res.maps[::-1])[1], w.maps, duals]
    assert ranks[:-1] == tuple(map(len, duals))  # each dual node's rank is its map's width


def _hom_induced_columns_of_the_map(R, d_cols, rank_from, g):
    """Hom(d, N) for N on g generators read entry by entry from d itself:
    column (l, b) holds row l of d at the positions t*g + b."""
    cols = []
    for l in range(rank_from):
        for b in range(g):
            col = [R.zero()] * (len(d_cols) * g)
            for t in range(len(d_cols)):
                col[t * g + b] = d_cols[t][l]
            cols.append(tuple(col))
    return tuple(cols)


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS))
def test_hom_induced_columns_from_the_dual_map_read_the_map(key):
    # Hom(d, N) = Hom(d, R) (x) I_g, built from the resolution's dual map,
    # against the map read entry by entry, for g = 1, 2 and 3 and past the end
    rng = random.Random(f"hom:{key}")
    R = gclass_ring(key)
    modules = [random_module(R, rng) for _ in range(4)]
    if key == "chain4":
        modules.append(late_period_module())
    for M in modules:
        res = free_resolution(M, 3)
        for i in range(len(res.maps) + 1):
            for g in (1, 2, 3):
                assert (gorenstein._hom_induced_columns(R, res.dual_map(i), g)
                        == _hom_induced_columns_of_the_map(R, res.map(i), res.rank(i), g))
