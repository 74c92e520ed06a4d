import random
from fractions import Fraction

import pytest

from gproj import (
    GF,
    QQ,
    DegreeGuardExceeded,
    FPModule,
    ModuleMap,
    NotRegularOnModule,
    Poly,
    PolyRing,
    RingNotRecognizedAsDomain,
    SubmoduleOfFree,
    UnitElement,
    ZeroDivisorInRing,
    annihilator_of_element,
    double_dual_map,
    dual_map,
    dual_module,
    intersect_with_truncation,
    intersection_criterion_check,
    is_regular_element,
    kernel_of_map,
    maps_equal,
    module_over_cover,
    module_rank,
    polynomial_extension,
    polynomial_ring,
    quotient_by_regular_element,
    restrict_scalars_monic,
    verify_short_exact,
)
from gproj.errors import InputError, MapNotWellDefined, RingMismatch
from gproj.modules import FreeModuleGB, SubmoduleEngine, colon_generators, span_engine
from gproj.resolutions import free_resolution
from gproj.rings import substitute_zero, restrict_poly

from helpers import (
    gclass_ring,
    kernel_vectors,
    matrix_image,
    module_cosets,
    ring_elements,
    span_of_columns,
    vector_space,
)


def R4():
    return PolyRing(GF(2), ("x",)).quotient(["x^2"])


def QxQ():
    return polynomial_ring(QQ, ("x",))


# ----- annihilators and regularity -----

def test_annihilator_examples():
    R = R4()
    ann = annihilator_of_element(R.poly("x"), R)
    assert [str(g) for g in ann] == ["x"]
    assert annihilator_of_element(R.one(), R) == ()
    Qx = QxQ()
    assert annihilator_of_element(Qx.poly("x"), Qx) == ()


def test_annihilator_is_an_ideal_of_the_quotient():
    # ann(x) over GF(2)[x,y]/(x^2, y^2) is (x); asked through the rank-1
    # engine it holds the modulus, so y^2 = 0 and x + y^2 = x lie in it. An
    # ideal of the polynomial ring on the same generators would hold neither
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    ann = annihilator_of_element(R.poly("x"), R)
    assert [str(g) for g in ann] == ["x"]
    engine = span_engine(R, 1, [(g,) for g in ann])
    for f in ("y^2", "x + y^2", "x*y"):
        assert engine.contains((R.base.poly(f),)), f
    for f in ("y", "1", "x + y"):
        assert not engine.contains((R.base.poly(f),)), f
    assert ann == tuple(col[0] for col in colon_generators(R, [(R.poly("x"),)]))


def test_annihilator_times_element_is_zero():
    rng = random.Random(3)
    R = PolyRing(GF(2), ("x", "y")).quotient(["x*y", "y^2"])
    for _ in range(15):
        d = {}
        for _ in range(rng.randrange(1, 4)):
            d[(rng.randrange(2), rng.randrange(2))] = 1
        a = R.nf(R.base.from_dict(d))
        for g in annihilator_of_element(a, R):
            assert R.mul(g, a).is_zero()


def test_annihilator_matches_enumeration():
    R = R4()
    elements = ring_elements(R)
    x = R.poly("x")
    by_enum = {str(e) for e in elements if R.mul(e, x).is_zero()}
    engine = span_engine(R, 1, [(g,) for g in annihilator_of_element(x, R)])
    by_ideal = {str(e) for e in elements if engine.contains((e,))}
    assert by_enum == by_ideal == {"0", "x"}


def test_regularity_examples():
    Fx = polynomial_ring(GF(2), ("x",))
    assert is_regular_element(Fx.poly("x"), FPModule.free(Fx, 1))
    torsion = FPModule(Fx, 1, [(Fx.poly("x^2"),)])
    assert not is_regular_element(Fx.poly("x"), torsion)
    assert is_regular_element(Fx.one(), torsion)


# ----- kernels -----

def test_kernel_of_multiplication_map():
    R = R4()
    F = FPModule.free(R, 1)
    k = kernel_of_map(ModuleMap(F, F, [(R.poly("x"),)]))
    elements = ring_elements(R)
    enum_kernel = {str(e) for e in elements if R.mul(e, R.poly("x")).is_zero()}
    span = span_of_columns(R, 1, k.generators, elements)
    assert {str(v[0]) for v in span} == enum_kernel == {"0", "x"}


def test_kernel_identity_is_zero():
    R = R4()
    F = FPModule.free(R, 2)
    assert kernel_of_map(ModuleMap.identity(F)).is_zero()


def test_kernel_substitution_example():
    Qx = QxQ()
    f = ModuleMap.from_strings(FPModule.free(Qx, 2), FPModule.free(Qx, 1),
                               [["1", "-x"]])
    k = kernel_of_map(f)
    expected = SubmoduleOfFree(Qx, 2, [(Qx.poly("x"), Qx.one())])
    assert k.equals(expected)
    assert module_rank(k.as_fpmodule()) == 1


# ----- duals and double duals -----

def test_dual_of_free_is_free_of_same_rank():
    Qx = QxQ()
    for n in range(4):
        d = dual_module(FPModule.free(Qx, n))
        assert d.module.ngens == n
        assert not d.module.relations


def test_dual_of_torsion_over_domain_is_zero():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    assert dual_module(k).module.is_zero()


def test_dual_over_chain_ring():
    R = R4()
    M = FPModule(R, 1, [(R.poly("x"),)])
    d = dual_module(M)
    assert d.module.ngens == 1
    assert [[str(p) for p in c] for c in d.module.canonical_relations] == [["x"]]


def test_double_dual_verdicts():
    R = R4()
    Qx = QxQ()
    assert double_dual_map(FPModule.free(Qx, 3)).verdict == "iso"
    assert double_dual_map(FPModule(Qx, 1, [(Qx.poly("x"),)])).verdict == "not_mono"
    assert double_dual_map(FPModule(R, 1, [(R.poly("x"),)])).verdict == "iso"


def test_double_dual_iso_by_enumeration():
    R = R4()
    M = FPModule(R, 1, [(R.poly("x"),)])
    dd = double_dual_map(M)
    elements = ring_elements(R)
    lookup, reps_m = module_cosets(M, elements)
    lookup2, reps_dd = module_cosets(dd.map.target, elements)
    images = set()
    for rep in reps_m:
        image = dd.map.apply_to_vector(rep)
        images.add(lookup2[image])
    assert len(reps_m) == len(reps_dd) == len(images)


def test_mu_naturality_random_maps():
    rng = random.Random(5)
    R = R4()
    x = R.poly("x")
    candidates = [FPModule.free(R, 1), FPModule(R, 1, [(x,)]),
                  FPModule(R, 2, [(x, R.zero())])]
    elements = ring_elements(R)
    count = 0
    while count < 8:
        M = candidates[rng.randrange(len(candidates))]
        N = candidates[rng.randrange(len(candidates))]
        cols = [tuple(elements[rng.randrange(len(elements))]
                      for _ in range(N.ngens)) for _ in range(M.ngens)]
        try:
            f = ModuleMap(M, N, cols)
        except MapNotWellDefined:
            continue
        count += 1
        mu_m = double_dual_map(M)
        mu_n = double_dual_map(N)
        fss = dual_map(dual_map(f, mu_n.dual, mu_m.dual),
                       mu_m.double_dual, mu_n.double_dual)
        left = mu_n.map.compose(f)
        right = fss.compose(mu_m.map)
        assert maps_equal(left, right)


# ----- base-change transports -----

def test_quotient_by_regular_element_errors():
    Qx = QxQ()
    Fx = polynomial_ring(GF(2), ("x",))
    with pytest.raises(UnitElement):
        quotient_by_regular_element(FPModule.free(Qx, 1), Qx.poly("2"))
    with pytest.raises(ZeroDivisorInRing):
        quotient_by_regular_element(FPModule.free(Qx, 1), Qx.zero())
    torsion = FPModule(Fx, 1, [(Fx.poly("x^2"),)])
    with pytest.raises(NotRegularOnModule):
        quotient_by_regular_element(torsion, Fx.poly("x"))


def test_quotient_by_regular_element_free_cases():
    Qx = QxQ()
    q1 = quotient_by_regular_element(FPModule.free(Qx, 1), Qx.poly("x"))
    assert q1.ngens == 1 and not q1.relations
    assert not q1.ring.modulus.is_zero()
    q2 = quotient_by_regular_element(FPModule.free(Qx, 2), Qx.poly("x"))
    assert q2.ngens == 2 and not q2.relations


def test_extension_then_quotient_returns_original():
    Qx = QxQ()
    for rows in ([["x"]], [["x^2", "0"], ["0", "x-1"]]):
        M = FPModule.from_strings(Qx, len(rows), rows)
        ext = polynomial_extension(M, "y")
        back = quotient_by_regular_element(ext, ext.ring.poly("y"))
        # strip the new variable and compare canonical presentations
        idx = back.ring.base.nvars - 1
        cols = [tuple(restrict_poly(substitute_zero(p, idx), Qx.base)
                      for p in col) for col in back.canonical_relations]
        assert cols == list(M.canonical_relations)


def test_polynomial_extension_of_zero():
    Qx = QxQ()
    Z = FPModule(Qx, 0, [])
    assert polynomial_extension(Z, "y").ngens == 0


def test_restrict_scalars_free_tower():
    T = PolyRing(QQ, ("x",)).quotient(["x^2"])
    out = restrict_scalars_monic(FPModule.free(T, 1), T.base.poly("x^2"))
    assert out.ngens == 2 and not out.relations
    assert out.ring.base.nvars == 0
    T3 = PolyRing(QQ, ("t", "x")).quotient(["x^3"])
    out3 = restrict_scalars_monic(FPModule.free(T3, 2), T3.base.poly("x^3"))
    assert out3.ngens == 6 and not out3.relations


def test_restrict_scalars_torsion():
    T = PolyRing(QQ, ("x",)).quotient(["x^2"])
    N = FPModule(T, 1, [(T.poly("x"),)])
    out = restrict_scalars_monic(N, T.base.poly("x^2"))
    # generators 1 (x) x^0 and 1 (x) x^1; the shift of the relation kills the
    # second one, leaving a 1-dimensional space
    assert out.ngens == 2
    assert len(out.relations) == 1
    from gproj import class_decompose
    assert str(class_decompose(out)) == "1*[k]"


def test_restrict_scalars_rejects_non_monic():
    from gproj import NotMonic
    T = PolyRing(QQ, ("x",)).quotient(["2*x^2"])
    with pytest.raises(NotMonic):
        restrict_scalars_monic(FPModule.free(T, 1), T.base.poly("2*x^2"))


def test_module_over_cover_transport():
    # a module over k = QQ[x]/(x) viewed over QQ[x] picks up killing relations
    Qx = QxQ()
    k_ring = Qx.base.quotient(["x"])
    M = FPModule.free(k_ring, 2)
    lifted = module_over_cover(M, Qx)
    assert lifted.ring == Qx
    assert lifted.ngens == 2
    assert module_rank(lifted) == 0


# ----- rank -----

def test_module_rank_examples():
    Qx = QxQ()
    assert module_rank(FPModule.free(Qx, 3)) == 3
    assert module_rank(FPModule(Qx, 1, [(Qx.poly("x"),)])) == 0
    with pytest.raises(RingNotRecognizedAsDomain):
        module_rank(FPModule.free(R4(), 1))


# ----- truncation windows -----

def test_intersect_with_truncation_examples():
    S = QxQ()
    M = SubmoduleOfFree(S, 2, [(S.poly("x"), S.one())])
    assert intersect_with_truncation(M, 1).is_zero()
    I2 = intersect_with_truncation(M, 2)
    R = I2.ring
    # degree-major coordinates: (x, 1) becomes e_1 + x e_0 -> (0, 1, 1, 0)
    expected = SubmoduleOfFree(R, 4, [(R.zero(), R.one(), R.one(), R.zero())])
    assert I2.equals(expected)


def test_intersect_full_module_gives_whole_window():
    S = QxQ()
    M = SubmoduleOfFree(S, 1, [(S.one(),)])
    for k in (1, 2, 3):
        win = intersect_with_truncation(M, k)
        assert len(win.generators) == k
        units = [tuple(win.ring.one() if i == j else win.ring.zero()
                       for i in range(k)) for j in range(k)]
        assert win.equals(SubmoduleOfFree(win.ring, k, units))


def test_intersect_zero_module():
    S = QxQ()
    M = SubmoduleOfFree(S, 2, [])
    assert intersect_with_truncation(M, 3).is_zero()


def test_intersection_window_outputs_are_sound_members():
    # adversarial input: v = 1 + t*y^5 is a unit (v^2 = 1 over GF(2)[t]/(t^2)),
    # so the true M meets every window fully; the bounded computation still
    # only ever returns genuine members, and the sequence builder's window
    # choice keeps its certificate exact on this input
    from gproj import truncation_sequence
    S = PolyRing(GF(2), ("t", "y")).quotient(["t^2"])
    v = S.poly("1 + t*y^5")
    assert str(S.mul(v, v)) == "1"
    M = SubmoduleOfFree(S, 1, [(v,)])
    win = intersect_with_truncation(M, 1)
    for g in win.generators:
        ambient = (S.nf(rings_embed(g[0], S.base)),)
        assert M.contains_vector(ambient)
    seq = truncation_sequence(M)
    assert seq.k == 6 and seq.exactness.ok


def rings_embed(p, big):
    from gproj.rings import embed_poly
    return embed_poly(p, big)


def test_intersection_monotone_in_k():
    S = polynomial_ring(GF(2), ("x",))
    M = SubmoduleOfFree(S, 2, [(S.poly("x^2+x"), S.one()), (S.poly("x^3"), S.poly("x"))])
    for k in (1, 2, 3):
        small = intersect_with_truncation(M, k)
        big = intersect_with_truncation(M, k + 1)
        r = M.ambient_rank
        # embed the F_k window into the F_{k+1} window (degree-major layout)
        for g in small.generators:
            embedded = tuple(g) + tuple(small.ring.zero() for _ in range(r))
            assert big.contains_vector(embedded)


# ----- rejections of the change-of-rings transports -----

def _tower_cases():
    from gproj import NotMonic, pushdown_class, truncation_sequence
    bare = polynomial_ring(QQ, ())
    xy = polynomial_ring(GF(2), ("x", "y"))
    mixed = xy.base.quotient(["y^2 + x"])  # y is regular here, but the modulus holds it
    cases = []
    for name, R in (("no_variable", bare), ("modulus_has_it", mixed)):
        W = SubmoduleOfFree(R, 1, [(R.one(),)])  # F/W = 0, so every variable is regular
        cases += [(f"truncation_sequence-{name}", lambda W=W: truncation_sequence(W)),
                  (f"intersect_with_truncation-{name}",
                   lambda W=W: intersect_with_truncation(W, 2)),
                  (f"pushdown_class-{name}", lambda R=R: pushdown_class(FPModule.free(R, 1)))]
    T = xy.base.quotient(["y^2"])
    restrict = [("no_variable", bare, "1", InputError),
                ("not_monic", T, "x*y^2", NotMonic),
                ("not_in_modulus", T, "y^2 + 1", InputError),
                ("other_generator_has_it", xy.base.quotient(["y^2", "x*y"]), "y^2", InputError)]
    cases = [(case, fn, InputError) for case, fn in cases]
    cases += [(f"restrict_scalars_monic-{name}",
               lambda R=R, f=f: restrict_scalars_monic(FPModule.free(R, 1), R.base.poly(f)),
               exc) for name, R, f, exc in restrict]
    k = xy.base.quotient(["x", "y"])
    cases += [("module_over_cover-other_base",
               lambda: module_over_cover(FPModule.free(k, 1), polynomial_ring(GF(2), ("x",))),
               RingMismatch),
              ("module_over_cover-modulus_not_contained",
               lambda: module_over_cover(FPModule.free(T, 1), xy.base.quotient(["x"])), InputError)]
    xy0 = xy.base.quotient(["x*y"])
    cases.append(("quotient_by_regular_element-zero_divisor",
                  lambda: quotient_by_regular_element(FPModule.free(xy0, 1), xy0.poly("x")),
                  ZeroDivisorInRing))
    return [pytest.param(build, exc, id=case) for case, build, exc in cases]


@pytest.mark.parametrize("build, exc", _tower_cases())
def test_transport_rejections_keep_their_class(build, exc):
    with pytest.raises(exc) as err:
        build()
    assert type(err.value) is exc


# ----- the monomorphism/intersection criterion -----

def test_intersection_criterion_identity_case():
    R = R4()
    B = SubmoduleOfFree(R, 1, [(R.one(),)])
    A = SubmoduleOfFree(R, 1, [(R.poly("x"),)])
    res = intersection_criterion_check(A, B, B, A)
    assert res.h_is_mono and res.lower_left_equals_intersection


def test_intersection_criterion_forced_failure():
    Qx = QxQ()
    zero = SubmoduleOfFree(Qx, 1, [])
    full = SubmoduleOfFree(Qx, 1, [(Qx.one(),)])
    res = intersection_criterion_check(zero, full, full, full)
    assert not res.h_is_mono and not res.lower_left_equals_intersection


def test_intersection_criterion_chain_ring_case():
    R = R4()
    zero = SubmoduleOfFree(R, 1, [])
    Bx = SubmoduleOfFree(R, 1, [(R.poly("x"),)])
    full = SubmoduleOfFree(R, 1, [(R.one(),)])
    res = intersection_criterion_check(zero, Bx, full, Bx)
    assert not res.h_is_mono and not res.lower_left_equals_intersection


def test_intersection_criterion_booleans_agree_randomly():
    rng = random.Random(9)
    R = R4()
    elements = ring_elements(R)
    vectors = vector_space(R, 2, elements)
    trials = 0
    while trials < 12:
        pick = lambda: [vectors[rng.randrange(len(vectors))]
                        for _ in range(rng.randrange(1, 3))]
        A1 = SubmoduleOfFree(R, 2, pick())
        B1_gens = pick() + list(A1.generators)
        B1 = SubmoduleOfFree(R, 2, B1_gens)
        B = SubmoduleOfFree(R, 2, pick())
        if not B1.contains_submodule(B):
            continue
        inter = A1.intersect(B)
        sub_gens = [g for g in inter.generators][:1]
        A = SubmoduleOfFree(R, 2, sub_gens)
        res = intersection_criterion_check(A, B, B1, A1)
        assert res.h_is_mono == res.lower_left_equals_intersection
        trials += 1


# ----- maps: certificates and composition -----

def test_map_certificate_rejects_bad_matrix():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    F = FPModule.free(Qx, 1)
    with pytest.raises(MapNotWellDefined):
        ModuleMap(k, F, [(Qx.one(),)])  # x * 1 is not zero in the free target


def test_map_composition_recertifies():
    R = R4()
    M = FPModule(R, 1, [(R.poly("x"),)])
    f = ModuleMap(M, M, [(R.poly("x"),)])
    g = ModuleMap(M, M, [(R.one(),)])
    h = g.compose(f)
    assert maps_equal(h, f)


def test_direct_sum_presentation():
    R = R4()
    M = FPModule(R, 1, [(R.poly("x"),)])
    N = FPModule.free(R, 1)
    s = M.direct_sum(N)
    assert s.ngens == 2
    assert len(s.relations) == 1


def test_degree_guard_aborts_runaway_module_basis():
    # the graph basis of (x - y^3, x^2 + y) at rank 3 reaches degree 9 in lex
    def build(guard):
        P = PolyRing(QQ, ("x", "y"), "lex", degree_guard=guard)
        f, g = P.poly("x - y^3"), P.poly("x^2 + y")
        vectors = [{**{(0, e): c for e, c in f.terms}, (1, (0, 0)): QQ.one},
                   {**{(0, e): c for e, c in g.terms}, (2, (0, 0)): QQ.one}]
        return FreeModuleGB(P, 3, vectors)

    for guard in (4, 8):
        with pytest.raises(DegreeGuardExceeded, match="^module basis at rank 3: term degree"):
            build(guard)
    gb = build(9)
    assert [sorted(v) for v in gb.basis] == [
        [(0, (0, 3)), (0, (1, 0)), (1, (0, 0))],
        [(0, (0, 1)), (0, (0, 6)), (1, (0, 3)), (1, (1, 0)), (2, (0, 0))],
        [(1, (0, 1)), (1, (2, 0)), (2, (0, 3)), (2, (1, 0))],
    ]


@pytest.mark.parametrize("key, calls, zeros", [("A", 5, 0), ("B", 15, 0)])
def test_graph_basis_makes_the_pinned_number_of_reductions(key, calls, zeros):
    # the engine of d_3 in the resolution of the residue field over the
    # gclass rings GF(2)[x,y]/(x^2,y^2) and GF(2)[x,y,z]/(x^2,y^2,z^2): one
    # reduction per input and per S-vector the signature criteria leave,
    # plus one per tail that a lead divides; `zeros` of the S-vectors reduce
    # to zero. The modulus reducers form no pairs among themselves: entered
    # as ordinary inputs over A, they made 25 reductions, 12 of them zero.
    # Reducing every nonempty tail made 12 and 37
    R = gclass_ring(key)
    res = free_resolution(FPModule(R, 1, [(g,) for g in R.base.gens()]), 3)
    columns = list(res.maps[2])
    results = []
    original = FreeModuleGB.reduce

    def recording(self, v, guard, bound=None):
        results.append((bound, original(self, v, guard, bound)))
        return results[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeModuleGB, "reduce", recording)
        engine = SubmoduleEngine(R, len(columns[0]), columns)
    assert len(results) == calls
    assert sum(bound is not None and not r for bound, r in results) == zeros
    assert len(engine.syzygies()) == res.ranks[4]


def test_zero_polynomials_skip_normal_form(count_calls):
    # a zero polynomial is its own normal form; only the nonzero entries of
    # a column go to QuotRing.nf, and only the rows of a matrix-vector
    # product whose sums do not cancel are reduced, once each, with no nf
    from gproj.modules import _nf_column, mat_vec
    from gproj.rings import QuotRing
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    x, y, z = R.poly("x"), R.poly("y"), R.zero()
    col, calls = count_calls(QuotRing, "nf", _nf_column, R, (x, z, y * y, z))
    assert col == (x, z, z, z) and calls == 2
    args = (R, [(x, z, z), (y, z, x)], (x, y), 3)
    prod, calls = count_calls(FreeModuleGB, "reduce", mat_vec, *args)
    assert prod == (z, z, x * y) and calls == 2  # x^2 + y^2 was not yet zero
    assert count_calls(QuotRing, "nf", mat_vec, *args) == (prod, 0)
    other = PolyRing(GF(2), ("u",))
    with pytest.raises(RingMismatch):
        _nf_column(R, (other.zero(),))


def test_submodule_is_zero_builds_no_basis(count_calls):
    # held generators are reduced and nonzero, so emptiness is the answer
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    x, y = R.poly("x"), R.poly("y")
    nonzero = SubmoduleOfFree(R, 2, [(x, y), (x * y, R.zero())])
    zero = SubmoduleOfFree(R, 2, [(x * x, R.zero()), (R.zero(), R.zero())])
    for sub, expected in ((nonzero, False), (zero, True)):
        verdict, builds = count_calls(FreeModuleGB, "__init__", sub.is_zero)
        assert verdict is expected and builds == 0


def test_one_kernel_routine_and_its_edge_maps(count_calls):
    # no columns is the map out of R^0, with no kernel generators; empty
    # columns are the map onto R^0, whose kernel is all of the source, found
    # with no engine; otherwise it agrees with the kernel read off an engine
    from gproj.modules import SubmoduleEngine, colon_generators, identity, transpose
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    x, y, z = R.poly("x"), R.poly("y"), R.zero()
    assert colon_generators(R, ()) == ()
    kernel, builds = count_calls(SubmoduleEngine, "__init__", colon_generators, R, ((),) * 3)
    assert kernel == identity(R, 3) and builds == 0
    cols = ((x, y), (y, z), (x * y, x))
    assert colon_generators(R, cols) == SubmoduleEngine(R, 2, cols).syzygies()
    assert identity(R, 2) == ((R.one(), z), (z, R.one()))
    assert identity(R, 2, y) == ((y, z), (z, y))
    assert transpose(cols, 2) == ((x, y, x * y), (y, z, x))
    assert transpose((), 2) == ((), ())


def test_no_nonzero_column_builds_no_basis(count_calls):
    # with no nonzero column the canonical set is the empty Matrix at any
    # rank, read off no basis of the modulus rows: a free module's engine is
    # the one basis it builds
    from gproj.modules import Matrix, canonical_generators
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    F, builds = count_calls(FreeModuleGB, "__init__", FPModule.free, R, 3)
    assert builds == 1 and F.canonical_relations == () and type(F.canonical_relations) is Matrix
    zeros = [(R.zero(),) * 3] * 2
    cols, builds = count_calls(FreeModuleGB, "__init__", canonical_generators, R, zeros)
    assert builds == 0 and cols == () and type(cols) is Matrix


def test_lift_is_the_one_solver():
    # lift solves generators * X = columns one witness column per column,
    # and gives None as soon as a column misses the span
    from gproj.modules import SubmoduleEngine, mat_vec
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    x, y, z = R.poly("x"), R.poly("y"), R.zero()
    gens = ((x, y), (y, z))
    eng = SubmoduleEngine(R, 2, gens)
    assert eng.lift(()) == ()
    assert SubmoduleEngine(R, 1, ()).lift([(z,)]) == ((),)
    assert eng.lift([(x, y), (R.one(), z)]) is None
    columns = [(x, y), (x * y, z), (x + y, y), (z, z)]
    lifted = eng.lift(columns)
    assert len(lifted) == len(columns)
    assert [mat_vec(R, gens, w, 2) for w in lifted] == columns


def test_mat_vec_takes_its_row_count():
    from gproj.modules import mat_vec
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    assert mat_vec(R, (), (), 3) == (R.zero(),) * 3
    assert mat_vec(R, ((), ()), (R.one(), R.poly("x")), 0) == ()


def test_a_query_of_the_wrong_length_is_an_input_error():
    # the surplus entry of (x, 1) would land in the engine's tag block and
    # read as a member with witness [0]; a short column would be padded
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    x = R.poly("x")
    M = FPModule(R, 1, [(x,)])
    sub = SubmoduleOfFree(R, 1, [(x,)])
    for ask in (M.rel_witness, M.rel_span_contains, sub.witness, sub.contains_vector):
        for column in ((x, R.one()), ()):
            with pytest.raises(InputError, match="length"):
                ask(column)
    f = ModuleMap(FPModule.free(R, 2), FPModule.free(R, 1), [(x,), (R.one(),)])
    assert f.apply_to_vector((R.one(), x)) == (R.zero(),)
    for vec in ((R.one(),), (R.one(), x, x)):
        with pytest.raises(InputError, match="length"):
            f.apply_to_vector(vec)



@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_mat_vec_is_the_sum_of_its_products(field, count_calls):
    # one dict per row, over QQ integer numerators over one common
    # denominator; a row whose sum does not cancel is reduced once, one that
    # cancels to zero is not reduced
    from gproj.modules import mat_vec
    R = PolyRing(field, ("x", "y")).quotient(["x^3", "x*y^2"])
    rng = random.Random(field.kind)

    def coefficient():
        n = rng.randrange(-4, 5)
        return Fraction(n, rng.randrange(1, 6)) if field.kind == "rationals" else n

    def poly():
        return R.nf(R.base.from_dict({(rng.randrange(4), rng.randrange(3)): coefficient()
                                      for _ in range(rng.randrange(4))}))

    cancelled = 0
    for _ in range(60):
        nrows, ncols = rng.randrange(4), rng.randrange(1, 4)
        columns = [tuple(poly() for _ in range(nrows)) for _ in range(ncols)]
        vec = [poly() for _ in range(ncols)]
        columns.append(columns[0])  # a twin of the first column, weighted
        vec.append(-vec[0])  # by minus its weight: with one column, all cancel
        sums = [R.base.zero()] * nrows
        for col, c in zip(columns, vec):
            sums = [s + p * c for s, p in zip(sums, col)]
        got, calls = count_calls(FreeModuleGB, "reduce", mat_vec, R, columns, vec, nrows)
        assert got == tuple(R.nf(s) for s in sums)
        assert calls == sum(not s.is_zero() for s in sums)
        cancelled += sum(s.is_zero() and any(not p.is_zero() for p in row)
                         for s, row in zip(sums, zip(*columns)))
    assert cancelled


@pytest.mark.parametrize("field, modulus", [
    (GF(2), ["x^2+y", "y^3"]), (GF(7), ["x^3", "x*y^2+3*y"]),
    (GF(32003), ["x^2-5*y", "y^3"]), (QQ, ["2*x^2-y", "x*y^2"]), (QQ, [])], ids=str)
def test_mat_vec_matches_schoolbook_sums_in_normal_form(field, modulus):
    # each row is the sum of the schoolbook products of its entries and the
    # vector, taken to R.nf; unreduced entries are allowed
    from gproj.modules import mat_vec
    from helpers import schoolbook_product
    R = PolyRing(field, ("x", "y")).quotient(modulus)
    rng = random.Random(f"{field}{modulus}")

    def coefficient():
        n = rng.randrange(-6, 7)
        return Fraction(n, rng.randrange(1, 5)) if field.kind == "rationals" else n

    def poly():
        return R.base.from_dict({(rng.randrange(4), rng.randrange(4)): coefficient()
                                 for _ in range(rng.randrange(5))})

    for _ in range(40):
        nrows, ncols = rng.randrange(4), rng.randrange(4)
        columns = [tuple(poly() for _ in range(nrows)) for _ in range(ncols)]
        vec = [poly() for _ in range(ncols)]
        sums = [sum((Poly(R.base, schoolbook_product(c, col[i])) for col, c in zip(columns, vec)),
                    R.base.zero()) for i in range(nrows)]
        assert mat_vec(R, columns, vec, nrows) == tuple(R.nf(s) for s in sums)


@pytest.mark.parametrize("field", [GF(2), GF(7), GF(32003), QQ], ids=str)
def test_mat_vec_trips_the_guard_as_the_normal_form_of_its_row(field):
    # x*y^4 + x*y^2 reduces by y^3 - x^2 through x*y times it, of degree 5
    from gproj.modules import mat_vec
    R = PolyRing(field, ("x", "y"), degree_guard=3).quotient(["y^3-x^2"])
    x, y = R.poly("x"), R.poly("y")
    with pytest.raises(DegreeGuardExceeded) as want:
        R.nf(x * y ** 4 + x * y * y)
    with pytest.raises(DegreeGuardExceeded) as got:
        mat_vec(R, [(x * y * y,), (y * y,)], (y * y, x), 1)
    assert str(got.value) == str(want.value) == "normal form: term degree 5 exceeds guard 3"


def _random_module(R, elements, rng):
    """A module of rank 1 or 2 over a finite ring, on 0 to 2 random relations."""
    n = rng.randrange(1, 3)
    return FPModule(R, n, [tuple(rng.choice(elements) for _ in range(n))
                           for _ in range(rng.randrange(3))])


def _random_map(source, target, elements, rng):
    """A random matrix from source to target, or None if not well defined."""
    cols = [tuple(rng.choice(elements) for _ in range(target.ngens))
            for _ in range(source.ngens)]
    try:
        return ModuleMap(source, target, cols)
    except MapNotWellDefined:
        return None


def _brute_injective(R, f, elements):
    """f is injective iff every v with f(v) in the target relations lies in
    the source relations: both sets enumerated."""
    source_span = span_of_columns(R, f.source.ngens, f.source.relations, elements)
    return all(v in source_span for v in kernel_vectors(
        R, f.columns, f.target.ngens, f.target.relations, elements))


@pytest.mark.parametrize("key", ["A", "E"])
def test_kernel_is_zero_matches_the_brute_force_kernel(key):
    R = gclass_ring(key)
    elements = ring_elements(R)
    rng = random.Random(f"kernel:{key}")
    verdicts = []
    while len(verdicts) < 10:
        f = _random_map(_random_module(R, elements, rng), _random_module(R, elements, rng),
                        elements, rng)
        if f is not None:
            want = _brute_injective(R, f, elements)
            assert f.kernel_is_zero() is want
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_cokernel_is_zero_builds_one_image_basis(count_calls):
    # outside a span scope each engine is built afresh, so the image engine
    # is bound once per call: one basis for all the target generators
    R = PolyRing(GF(5), ("x", "y")).quotient(["x^2", "y^2"])
    x, y, z = R.poly("x"), R.poly("y"), R.zero()
    M = FPModule(R, 3, [(x, z, z), (z, y, x)])
    onto, builds = count_calls(FreeModuleGB, "__init__", ModuleMap.identity(M).cokernel_is_zero)
    assert onto is True and builds == 1
    to_x = ModuleMap(FPModule.free(R, 1), M, [(x, z, z)])
    onto, builds = count_calls(FreeModuleGB, "__init__", to_x.cokernel_is_zero)
    assert onto is False and builds == 1


@pytest.mark.parametrize("key", ["A", "E"])
def test_verify_short_exact_matches_brute_force(key):
    R = gclass_ring(key)
    elements = ring_elements(R)
    rng = random.Random(f"exact:{key}")
    x = R.poly("x")
    # 0 -> R/ann(x) -> R -> R/(x) -> 0 is exact; random pairs mostly are not
    ann = FPModule(R, 1, [(g,) for g in annihilator_of_element(x, R)])
    ring = FPModule.free(R, 1)
    pairs = [(ModuleMap(ann, ring, [(x,)]),
              ModuleMap(ring, FPModule(R, 1, [(x,)]), [(R.one(),)]))]
    while len(pairs) < 8:
        A, B, C = (_random_module(R, elements, rng) for _ in range(3))
        incl, proj = _random_map(A, B, elements, rng), _random_map(B, C, elements, rng)
        if incl is not None and proj is not None:
            pairs.append((incl, proj))
    oks = []
    for incl, proj in pairs:
        B, C = incl.target, proj.target
        span_c = span_of_columns(R, C.ngens, C.relations, elements)
        image = span_of_columns(R, B.ngens, incl.columns + B.relations, elements)
        want = (
            _brute_injective(R, incl, elements),
            all(matrix_image(R, proj.columns, col, C.ngens) in span_c for col in incl.columns),
            all(v in image
                for v in kernel_vectors(R, proj.columns, C.ngens, C.relations, elements)),
            len(span_of_columns(R, C.ngens, proj.columns + C.relations, elements))
            == len(elements) ** C.ngens,
        )
        report = verify_short_exact(incl, proj)
        assert tuple(report) == want
        oks.append(report.ok)
    assert True in oks and False in oks


def test_engine_queries_reject_a_column_over_another_ring():
    # packing reads exponents by position, so x*z of k[x,y,z] queried in
    # k[x,y] would be read as x*y; a ring equal up to its guard is accepted
    R = PolyRing(GF(7), ("x", "y")).quotient([])
    wide = PolyRing(GF(7), ("x", "y", "z"))
    engine = span_engine(R, 1, [(R.poly("x"),)])
    xz = wide.poly("x*z")
    for query in (engine.contains, engine.witness, lambda c: engine.lift([c])):
        with pytest.raises(RingMismatch):
            query((xz,))
    copy = PolyRing(GF(7), ("x", "y"), degree_guard=8)
    assert engine.contains((copy.poly("x*y"),))
    assert not engine.contains((R.poly("y"),))
