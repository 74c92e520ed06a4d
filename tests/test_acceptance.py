"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
outcomes. Tolerances are exact (symbolic computation); the only quantitative
bound is the one-second wall-clock cap on the flagship detector.
"""

import random
import time

import pytest

from gproj import (
    GF,
    QQ,
    FPModule,
    Ideal,
    ModuleMap,
    PdInfiniteOrUnresolved,
    PolyRing,
    SubmoduleOfFree,
    catalog_for,
    class_decompose,
    double_dual_map,
    dual_map,
    euler_class,
    free_resolution,
    g_class_test,
    gpd_extension_compare,
    group_from_relations,
    infinite_pd_detector,
    is_regular_element,
    module_rank,
    pd_bounded,
    polynomial_ring,
    polynomial_extension,
    pushdown_class,
    quotient_by_regular_element,
    smith_normal_form,
    truncation_sequence,
    verify_exactness,
    verify_short_exact,
)
from gproj.errors import MapNotWellDefined
from gproj.kgroups import int_mat_mul
from gproj.modules import mat_vec, module_over_cover
from gproj.rings import restrict_poly, substitute_zero

from helpers import (
    LinearMembershipOracle,
    int_determinant,
    minors_gcd_invariant_factors,
    module_cosets,
    poly_to_int_dict,
    ring_elements,
    span_of_columns,
    vector_space,
)


def R4():
    return PolyRing(GF(2), ("x",)).quotient(["x^2"])


def test_criterion_1_membership_matches_bruteforce_oracle():
    """100 random small ideals over GF(2)/GF(3): membership vs enumeration."""
    rng = random.Random(2024)
    ideals_checked = 0
    queries_checked = 0
    per_field = 50
    for p in (2, 3):
        P = PolyRing(GF(p), ("x", "y"))
        accepted = 0
        attempts = 0
        while accepted < per_field:
            attempts += 1
            assert attempts < 4000, "ideal generation stalled"
            gens = []
            for _ in range(rng.randrange(1, 4)):
                d = {}
                for _ in range(rng.randrange(1, 5)):
                    e = (rng.randrange(4), rng.randrange(4))
                    if sum(e) <= 3:
                        d[e] = rng.randrange(1, p)
                if d:
                    gens.append(P.from_dict(d))
            if not gens:
                continue
            oracle = LinearMembershipOracle(
                p, 2, [poly_to_int_dict(g) for g in gens], max_degree=12)
            if not oracle.saturated:
                continue
            if not oracle.zero_ring and p ** oracle.quotient_dimension() > 4096:
                continue
            ideal = Ideal(P, gens)
            for _ in range(20):
                d = {}
                for _ in range(rng.randrange(1, 6)):
                    e = (rng.randrange(4), rng.randrange(4))
                    d[e] = rng.randrange(p)
                f = P.from_dict({e: P.field.from_int(c) for e, c in d.items()})
                assert ideal.contains(f) == oracle.contains(poly_to_int_dict(f))
                queries_checked += 1
            accepted += 1
        ideals_checked += accepted
    assert ideals_checked >= 100
    print(f"\nACCEPTANCE 1: membership agreed with the enumeration oracle on "
          f"{ideals_checked} ideals / {queries_checked} queries: PASS")


def test_criterion_2_resolution_soundness_random_modules():
    """50 random modules: composites vanish, homology vanishes to depth 5."""
    rng = random.Random(77)
    chain_ring = R4()
    cross_ring = PolyRing(GF(2), ("x", "y")).quotient(["x*y"])
    elements = ring_elements(chain_ring)
    enumerated_steps = 0
    for ring_index, R in enumerate((chain_ring, cross_ring)):
        if ring_index == 0:
            monomials = [(0,), (1,)]
        else:
            monomials = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]
        for _ in range(25):
            ngens = rng.randrange(1, 3)
            ncols = rng.randrange(1, 3)
            cols = []
            for _ in range(ncols):
                col = []
                for _ in range(ngens):
                    d = {}
                    for _ in range(rng.randrange(0, 3)):
                        d[monomials[rng.randrange(len(monomials))]] = 1
                    col.append(R.nf(R.base.from_dict(d)))
                cols.append(tuple(col))
            M = FPModule(R, ngens, cols)
            res = free_resolution(M, 5)
            assert verify_exactness(res)
            # composites vanish, checked directly
            for s in range(len(res.maps) - 1):
                for col in res.maps[s + 1]:
                    image = mat_vec(R, res.maps[s], col, res.ranks[s])
                    assert all(q.is_zero() for q in image)
            if ring_index == 0:
                ranks = res.ranks
                for s in range(len(res.maps) - 1):
                    if not res.maps[s] or ranks[s + 1] > 4:
                        continue
                    kernel = {
                        v for v in vector_space(R, ranks[s + 1], elements)
                        if all(q.is_zero()
                               for q in mat_vec(R, res.maps[s], v, ranks[s]))}
                    image = span_of_columns(R, ranks[s + 1],
                                            res.maps[s + 1], elements)
                    assert kernel == image
                    enumerated_steps += 1
    assert enumerated_steps >= 20
    print(f"\nACCEPTANCE 2: 50 random resolutions exact to depth 5 "
          f"({enumerated_steps} steps cross-checked by enumeration): PASS")


def test_criterion_3_flagship_detector_under_one_second():
    """The square-zero detector accepts and certifies within one second."""
    R = R4()
    start = time.perf_counter()
    cert = infinite_pd_detector(R, R.poly("x"))
    I = FPModule(R, 1, [(R.poly("x"),)])
    verdict = pd_bounded(I, 8)
    elapsed = time.perf_counter() - start
    assert cert.accepted
    assert str(verdict) == "InfinitePeriodic(0,1)"
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3: detector accepted, pd = InfinitePeriodic(0,1) "
          f"in {elapsed:.3f}s: PASS")


def test_criterion_4_g_class_discrimination():
    """Certified on the flagship module; Koszul-forced failure witness on k."""
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    rep = g_class_test(I, 5)
    assert rep.verdict_kind == "certified"
    assert all(r.is_zero for r in rep.cond1)
    assert all(r.is_zero for r in rep.cond2)
    assert rep.cond3_verdict == "iso"

    Qx = polynomial_ring(QQ, ("x",))
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    rep_k = g_class_test(k, 3)
    assert rep_k.verdict_kind == "fail"
    kind, m, witness = rep_k.fail_witness
    assert kind == "cond1" and m == 1
    # the witness is the residue field itself: one generator killed by x
    assert witness.module.ngens == 1
    assert [[str(q) for q in c]
            for c in witness.module.canonical_relations] == [["x"]]
    print("\nACCEPTANCE 4: Certified on the chain-ring ideal; cond1 fails at "
          "m=1 with a length-1 witness over QQ[x]: PASS")


def test_criterion_5_gpd_agrees_with_polynomial_extension():
    """Bounded gpd verdicts match between M and M[y], zero mismatches."""
    Qx = polynomial_ring(QQ, ("x",))
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    rep = gpd_extension_compare(k, 1, 3)
    assert rep.match
    assert str(rep.base_verdict) == "AtMost(1)"
    assert str(rep.extended_verdict) == "AtMost(1)"

    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    rep2 = gpd_extension_compare(I, 0, 5)
    assert rep2.match
    assert str(rep2.base_verdict) == "AtMost(0)"
    assert str(rep2.extended_verdict) == "AtMost(0)"
    print("\nACCEPTANCE 5: gpd verdicts equal under polynomial extension "
          "(AtMost(1)/AtMost(1) and AtMost(0)/AtMost(0)): PASS")


def test_criterion_6_truncation_sequence_construction():
    """The degree-window sequence for R[x](x,1) inside QQ^2[x]."""
    S = polynomial_ring(QQ, ("x",))
    M = SubmoduleOfFree(S, 2, [(S.poly("x"), S.one())])
    seq = truncation_sequence(M)
    assert seq.k == 2
    assert seq.A.is_zero()
    assert module_rank(seq.B) == 1
    # independent homology check, recomputed from scratch on the two maps
    fresh = verify_short_exact(seq.phi, seq.psi)
    assert fresh.injective
    assert fresh.composite_zero
    assert fresh.kernel_in_image
    assert fresh.surjective
    print("\nACCEPTANCE 6: window sequence has k=2, A=0, rank-1 B, and the "
          "independent checker certifies exactness: PASS")


def test_criterion_7_grothendieck_machinery():
    """Smith form oracle, the chain-ring class group, retraction, pushdown."""
    rng = random.Random(5150)
    for _ in range(100):
        A = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        r = smith_normal_form(A)
        U = [list(row) for row in r.U]
        V = [list(row) for row in r.V]
        assert int_mat_mul(int_mat_mul(U, A), V) == [list(row) for row in r.S]
        assert int_determinant(U) in (1, -1)
        assert int_determinant(V) in (1, -1)
        assert list(r.diagonal) == minors_gcd_invariant_factors(A)

    # the chain-ring class group: gens [R], [k]; relation [R] = 2[k] gives Z
    g = group_from_relations(["[R]", "[k]"], [[1, -2]])
    assert g.free_rank == 1 and not g.invariant_factors

    # pushdown after extension is the identity on catalog generators
    for field in (GF(2), GF(3), QQ):
        base = polynomial_ring(field, ())
        cat = catalog_for(base)
        for label in cat.generator_labels():
            Mod = cat.module_for_label(label)
            assert pushdown_class(polynomial_extension(Mod, "x")) == \
                class_decompose(Mod)

    # pushdown equals the class of M/xM on ten regular examples
    checked = 0
    for field in (QQ, GF(3)):
        S = polynomial_ring(field, ("x",))
        examples = [
            FPModule.free(S, 1),
            FPModule.free(S, 2),
            FPModule.free(S, 3),
            FPModule(S, 1, [(S.poly("x-1"),)]),
            FPModule(S, 2, [(S.poly("x-1"), S.zero()),
                            (S.zero(), S.poly("x^2+1"))]),
        ]
        for M in examples:
            x = S.poly("x")
            assert is_regular_element(x, M)
            quotient = quotient_by_regular_element(M, x)
            idx = quotient.ring.base.nvars - 1
            base = polynomial_ring(field, ())
            cols = [tuple(base.nf(restrict_poly(substitute_zero(q, idx),
                                                base.base)) for q in col)
                    for col in quotient.relations]
            reduced = FPModule(base, quotient.ngens, cols)
            assert pushdown_class(M) == class_decompose(reduced)
            checked += 1
    assert checked == 10

    # the Euler class resolves exactly when the pd verdict is finite
    R = R4()
    Qx = polynomial_ring(QQ, ("x",))
    probes = [FPModule(R, 1, [(R.poly("x"),)]), FPModule.free(R, 1),
              FPModule(Qx, 1, [(Qx.poly("x"),)]), FPModule.free(Qx, 3)]
    for M in probes:
        verdict = pd_bounded(M, 6)
        if verdict.kind == "infinite_periodic":
            with pytest.raises(PdInfiniteOrUnresolved):
                euler_class(M)
        else:
            assert verdict.kind == "finite"
            euler_class(M)
    print("\nACCEPTANCE 7: SNF oracle (100 matrices), chain-ring class group, "
          "retraction on three base fields, ten pushdown/quotient matches, "
          "Euler-class error discipline: PASS")


def test_criterion_8_pd_shift_under_quotient():
    """pd over the polynomial ring equals pd over the quotient plus one."""
    instances = 0
    for field in (QQ, GF(3)):
        Poly_ring = polynomial_ring(field, ("x",))
        k_ring = Poly_ring.base.quotient(["x"])
        mods = [
            FPModule.free(k_ring, 1),
            FPModule.free(k_ring, 2),
            FPModule.from_strings(k_ring, 2, [["1"], ["0"]]),
        ]
        if field is QQ:
            mods.append(FPModule.free(k_ring, 3))
            mods.append(FPModule.from_strings(k_ring, 1, [[]]))
        for M in mods:
            below = pd_bounded(M, 3)
            above = pd_bounded(module_over_cover(M, Poly_ring), 3)
            assert below.kind == "finite" and above.kind == "finite"
            assert above.n == below.n + 1
            instances += 1
    assert instances >= 5
    print(f"\nACCEPTANCE 8: pd shift (+1) verified on {instances} quotient "
          "instances: PASS")


def test_criterion_9_naturality_of_double_duality():
    """mu_N o f = f** o mu_M for 20 random certified maps, by enumeration."""
    rng = random.Random(99)
    R = R4()
    x = R.poly("x")
    pool = [FPModule.free(R, 1), FPModule(R, 1, [(x,)]),
            FPModule(R, 2, [(x, R.zero())]),
            FPModule(R, 2, [(x, R.zero()), (R.zero(), x)])]
    elements = ring_elements(R)
    checked = 0
    while checked < 20:
        M = pool[rng.randrange(len(pool))]
        N = pool[rng.randrange(len(pool))]
        cols = [tuple(elements[rng.randrange(len(elements))]
                      for _ in range(N.ngens)) for _ in range(M.ngens)]
        try:
            f = ModuleMap(M, N, cols)
        except MapNotWellDefined:
            continue
        mu_m = double_dual_map(M)
        mu_n = double_dual_map(N)
        f_star = dual_map(f, mu_n.dual, mu_m.dual)
        f_dstar = dual_map(f_star, mu_m.double_dual, mu_n.double_dual)
        left = mu_n.map.compose(f)
        right = f_dstar.compose(mu_m.map)
        target = mu_n.map.target
        lookup, _ = module_cosets(target, elements)
        for vec in vector_space(R, M.ngens, elements):
            lv = left.apply_to_vector(vec)
            rv = right.apply_to_vector(vec)
            assert lookup[lv] == lookup[rv]
        checked += 1
    print("\nACCEPTANCE 9: double-duality naturality verified by enumeration "
          "on 20 random certified maps: PASS")
