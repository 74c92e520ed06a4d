import random
from itertools import combinations
from pathlib import Path

import pytest

from gproj import (
    GF,
    QQ,
    FPModule,
    FreeResolution,
    InputError,
    ModuleMap,
    NotRegularOnQuotient,
    PolyRing,
    SubmoduleOfFree,
    free_resolution,
    horseshoe_resolution,
    infinite_pd_detector,
    module_over_cover,
    pd_bounded,
    polynomial_ring,
    truncation_sequence,
    verify_exactness,
    verify_short_exact,
)
from gproj import complete_resolution_check, g_class_test, modules, resolutions
from gproj.cli import main
from gproj.errors import DegreeGuardExceeded
from gproj.modules import colon_generators, mat_vec, span_engine
from gproj.resolutions import first_inexact_node, split_surjection_onto_kernel
from gproj.rings import FreeModuleGB, QuotRing

from helpers import (GCLASS_RINGS, exact_kernel_reference, gclass_ring, late_period_module,
                     low_rank_product, random_module, ring_elements, span_of_columns,
                     vector_space)


def R4():
    return PolyRing(GF(2), ("x",)).quotient(["x^2"])


def QxQ():
    return polynomial_ring(QQ, ("x",))


# ----- basic resolutions -----

def test_flagship_periodic_resolution():
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    res = free_resolution(I, 6)
    assert all([[str(p) for p in c] for c in m] == [["x"]] for m in res.maps)
    assert res.periodicity == (0, 1)
    assert verify_exactness(res)


def test_free_module_length_zero():
    res = free_resolution(FPModule.free(R4(), 3), 5)
    assert res.ranks == [3, 0]
    assert verify_exactness(res)


def test_koszul_resolution_of_residue_field():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    res = free_resolution(k, 5)
    assert res.ranks == [1, 1, 0]
    assert [[str(p) for p in c] for c in res.maps[0]] == [["x"]]
    assert verify_exactness(res)
    assert res.periodicity is None


def test_the_syzygy_past_a_terminated_end_is_the_zero_module():
    Qx = QxQ()
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    for M in (k, FPModule.free(R4(), 2)):
        res = free_resolution(M, 5)
        assert not res.maps[-1]  # terminated: the last map has no columns
        for n in range(len(res.maps), len(res.maps) + 3):
            omega = res.syzygy_module(n)
            assert (omega.ring, omega.ngens, omega.relations) == (M.ring, 0, ())
    # a chain cut before its end says nothing past it
    _, _, res = _residue_field_resolution(3)
    short = res.truncated(2)
    assert short.syzygy_module(2).ngens == res.ranks[2]
    with pytest.raises(InputError, match="too short for syzygy 3"):
        short.syzygy_module(3)


def test_resolution_homology_cross_checked_by_enumeration():
    R = R4()
    elements = ring_elements(R)
    M = FPModule(R, 2, [(R.poly("x"), R.one()), (R.zero(), R.poly("x"))])
    res = free_resolution(M, 4)
    assert verify_exactness(res)
    ranks = res.ranks
    for s in range(len(res.maps) - 1):
        d, d_next = res.maps[s], res.maps[s + 1]
        if not d or ranks[s + 1] > 5 or ranks[s + 2] > 5:
            continue
        kernel = {v for v in vector_space(R, ranks[s + 1], elements)
                  if all(p.is_zero() for p in mat_vec(R, d, v, ranks[s]))}
        image = span_of_columns(R, ranks[s + 1], d_next, elements)
        assert kernel == image


def _residue_field_resolution(depth):
    # over GF(2)[x,y]/(x^2,y^2) the ranks are 1, 2, 3, ...; d_2 has columns
    # (x, 0), (y, x), (0, y)
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    k = FPModule(R, 1, [(R.poly("x"),), (R.poly("y"),)])
    return R, k, free_resolution(k, depth)


def _first_inexact(res):
    return first_inexact_node(res.module.ring, res.maps[::-1])


def test_exactness_checker_accepts_the_intact_resolution():
    _, _, res = _residue_field_resolution(3)
    assert verify_exactness(res)
    assert _first_inexact(res) is None


def test_exactness_checker_rejects_missing_d2_column():
    # without (0, y) the syzygy (0, y) of d_1 is no longer a boundary at F_1
    _, k, res = _residue_field_resolution(1)
    d1, d2 = res.maps
    broken = FreeResolution(k, (d1, d2[:2]), 1)
    assert not verify_exactness(broken)
    assert _first_inexact(broken) == 1  # nodes F_2, F_1, F_0: F_1 is node 1


def test_exactness_checker_rejects_a_non_syzygy_in_d2():
    # (1, 0) is not a syzygy of d_1 = [x, y], so d_1 d_2 != 0 at F_1
    R, k, res = _residue_field_resolution(1)
    d1, d2 = res.maps
    broken = FreeResolution(k, (d1, d2[:2] + ((R.one(), R.zero()),)), 1)
    assert not verify_exactness(broken)
    assert _first_inexact(broken) == 1


def test_exactness_checker_reports_the_first_inexact_node():
    # the same bad column in a deeper resolution also breaks d_2 d_3 at F_2;
    # read left to right F_4, F_3, F_2, F_1, F_0, F_2 is node 2 and F_1 node 3
    R, k, res = _residue_field_resolution(3)
    d2 = res.maps[1][:2] + ((R.one(), R.zero()),)
    broken = FreeResolution(k, (res.maps[0], d2) + res.maps[2:], 3)
    assert not verify_exactness(broken)
    assert _first_inexact(broken) == 2
    assert first_inexact_node(R, broken.maps[::-1][2:]) == 1  # F_1 fails too


def test_exactness_checker_rejects_a_wrong_presentation_at_f0():
    R, k, res = _residue_field_resolution(1)
    x_only = (res.maps[0][0],)  # misses the relation y
    assert not verify_exactness(FreeResolution(k, (x_only,), 0))
    outside = ((R.one(),),)  # 1 is not a relation of k
    assert not verify_exactness(FreeResolution(k, (outside,), 0))


def _primal_nodes(res):
    """(rank_here, rank_next, incoming, outgoing) of each node F_s, s >= 1."""
    return [(res.rank(s), res.rank(s - 1), res.map(s), res.map(s - 1))
            for s in range(1, len(res.maps))]


def _dual_nodes(res):
    """The same for each node F_s* of the dual chain, s >= 1."""
    return [(res.rank(s), res.rank(s + 1), res.dual_map(s - 1), res.dual_map(s))
            for s in range(1, len(res.maps))]


def test_a_literal_kernel_asks_no_membership(count_calls):
    # at a primal node of a resolution the kernel of d_s is d_{s+1} itself,
    # so exact_kernel returns it with no witness; a node whose kernel has
    # other generators, here the dual of a redundant presentation, still asks
    from gproj.modules import SubmoduleEngine, exact_kernel
    R, _, res = _residue_field_resolution(5)
    for node in _primal_nodes(res):
        kernel, asked = count_calls(SubmoduleEngine, "witness", exact_kernel, R, *node[2:])
        assert kernel == node[2] and asked == 0
    res = free_resolution(late_period_module(), 4)
    R, differ = res.module.ring, 0
    for node in _primal_nodes(res) + _dual_nodes(res):
        kernel, asked = count_calls(SubmoduleEngine, "witness", exact_kernel, R, *node[2:])
        literal = colon_generators(R, node[3]) == node[2]
        assert (asked == 0) == literal and kernel == exact_kernel_reference(R, *node)
        differ += not literal
    assert differ


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS))
def test_exact_kernel_matches_the_reference_that_always_asks(key):
    # random modules' resolutions, their dual chains, and the same nodes
    # with one map perturbed by a monomial in one entry
    from gproj.modules import exact_kernel
    R = gclass_ring(key)
    rng = random.Random(key)
    monomials = [R.one()] + list(R.base.gens())
    verdicts = set()
    for _ in range(6):
        res = free_resolution(random_module(R, rng), 4)
        for rank_here, rank_next, incoming, outgoing in _primal_nodes(res) + _dual_nodes(res):
            maps = [incoming, outgoing]
            perturbed = [list(incoming), list(outgoing)]
            k = rng.randrange(2)
            if perturbed[k]:
                j = rng.randrange(len(perturbed[k]))
                col = list(perturbed[k][j])
                if col:
                    i = rng.randrange(len(col))
                    col[i] = R.nf(col[i] + rng.choice(monomials))
                perturbed[k][j] = tuple(col)
            for chain in (maps, [tuple(m) for m in perturbed]):
                want = exact_kernel_reference(R, rank_here, rank_next, *chain)
                assert exact_kernel(R, *chain) == want
                verdicts.add(want is None)
    assert verdicts == {True, False}


# ----- pd verdicts -----

def test_pd_examples():
    R = R4()
    Qx = QxQ()
    assert str(pd_bounded(FPModule.free(R, 1), 4)) == "Finite(0)"
    k = FPModule(Qx, 1, [(Qx.poly("x"),)])
    assert str(pd_bounded(k, 4)) == "Finite(1)"
    I = FPModule(R, 1, [(R.poly("x"),)])
    assert str(pd_bounded(I, 8)) == "InfinitePeriodic(0,1)"


def test_pd_finite_splitting_is_a_real_retraction():
    Qx = QxQ()
    # redundant presentation of a free module: one generator killed by a unit
    M = FPModule.from_strings(Qx, 2, [["1"], ["0"]])
    verdict = pd_bounded(M, 4)
    assert verdict.kind == "finite" and verdict.n == 0
    # U*H*U = U certifies the retraction
    assert _retracts(Qx, M.ngens, M.canonical_relations, verdict.splitting)


def test_periodicity_soundness_two_extra_periods():
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    verdict = pd_bounded(I, 4)
    assert verdict.kind == "infinite_periodic"
    s, p = verdict.start, verdict.period
    longer = free_resolution(I, 4 + 2 * p)
    for step in range(s, s + 2 * p):
        assert longer.maps[step] == longer.maps[step + p]


def _products(R, q, U, H):
    """H*U (w x w, as rows) and U*H*U (as columns) for U given as w columns of
    length q and H as w rows of length q, by schoolbook sums of products."""
    zero, w = R.base.zero(), len(U)
    hu = [[R.nf(sum((H[i][j] * col[j] for j in range(q)), zero)) for col in U]
          for i in range(w)]
    uhu = [tuple(R.nf(sum((U[i][a] * hu[i][l] for i in range(w)), zero)) for a in range(q))
           for l in range(w)]
    return hu, uhu


def _retracts(R, q, U, H):
    return _products(R, q, U, H)[1] == [tuple(col) for col in U]


def _split_by_the_full_system(R, q, kernel_gens):
    """split_surjection_onto_kernel with every one of the (qw)^2 products made."""
    w = len(kernel_gens)
    cols = [tuple(R.mul(kernel_gens[i][a], kernel_gens[l][j]) for a in range(q) for l in range(w))
            for i in range(w) for j in range(q)]
    target = tuple(kernel_gens[l][a] for a in range(q) for l in range(w))
    wit = span_engine(R, q * w, cols).witness(target)
    return None if wit is None else tuple(tuple(wit[i * q + j] for j in range(q)) for i in range(w))


@pytest.mark.parametrize("ring", ["QQ[x]", "GF(3)[x]", "A", "chain2"])
def test_splitting_matches_the_full_system(ring):
    rng = random.Random(5)
    if ring.endswith("[x]"):
        R = polynomial_ring(QQ if ring == "QQ[x]" else GF(3), ("x",))
    else:
        R = gclass_ring(ring)
    monomials = ["1", "x", "x^2"] + (["y", "x*y"] if R.base.nvars > 1 else [])

    def entry():
        if rng.random() < 0.3:
            return R.zero()
        text = " + ".join(f"{rng.randint(1, 4)}*{m}" for m in rng.sample(monomials, rng.randint(1, 3)))
        return R.poly(text)

    found = set()
    for _ in range(12):
        q, w = rng.randint(1, 3), rng.randint(1, 3)
        gens = [tuple(entry() for _ in range(q)) for _ in range(w)]
        if rng.random() < 0.4:  # a unit column makes a split more likely
            gens[0] = tuple(R.one() if a == 0 else R.zero() for a in range(q))
        H = split_surjection_onto_kernel(R, gens)
        assert H == _split_by_the_full_system(R, q, gens)
        found.add(H is None)
    assert found == {True, False}


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = rows[0][0].ring.zero()
    for j, p in enumerate(rows[0]):
        term = p * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def test_bareiss_finds_the_rank_and_ends_on_the_determinant():
    # the rank is the size of the largest nonzero minor, each by cofactor
    # expansion, and a square matrix of full rank ends on its determinant
    rng = random.Random(30)
    for R in (polynomial_ring(QQ, ("x", "y")), polynomial_ring(GF(3), ("x",))):
        units = [R.one()] + list(R.base.gens())

        def entry():
            return sum((u.scale(rng.randint(-2, 2)) * rng.choice(units) for u in units), R.zero())

        for _ in range(60):
            q, w = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[entry() for _ in range(w)] for _ in range(q)]
            if q > 1 and rng.random() < 0.3:
                rows[-1] = rows[0]
            rank, last = modules._bareiss(rows)
            assert rank == max((k for k in range(1, min(q, w) + 1)
                                for picked in combinations(range(q), k)
                                for cols in combinations(range(w), k)
                                if not _det([[rows[i][j] for j in cols] for i in picked]).is_zero()),
                               default=0)
            if rank == q == w:
                assert last in (_det(rows), -_det(rows))


def test_bareiss_ends_on_the_determinant_of_a_low_rank_product():
    # 4 x 4 minors of degree-3 entries of a rank-4 product B*C over QQ[x,y]:
    # each exact quotient is taken on one term dict, and the last pivot is
    # the cofactor-expansion determinant up to sign; a 5 x 5 minor has rank 4
    R = polynomial_ring(QQ, ("x", "y"))
    A = low_rank_product(R, random.Random(34))
    rng = random.Random(34)
    for size in (4, 4, 4, 5):
        picked, cols = sorted(rng.sample(range(7), size)), sorted(rng.sample(range(7), size))
        rows = [[A[i][j] for j in cols] for i in picked]
        rank, last = modules._bareiss(rows)
        assert rank == 4
        if size == 4:
            assert last in (_det(rows), -_det(rows))


@pytest.mark.parametrize("ring", ["QQ[x]", "GF(3)[x]", "chain2", "A"])
def test_splitting_of_an_injective_map_matches_the_full_system(ring):
    # U with kernel 0: over k[x], a w x w block of nonzero determinant (half
    # of them unimodular, a product of unitriangular factors) under random
    # rows; over the chain ring and A, an identity block among random rows
    rng = random.Random(19)
    domain = ring.endswith("[x]")
    if domain:  # a high guard: the reference's products double the degrees
        R = polynomial_ring(QQ if ring == "QQ[x]" else GF(3), ("x",), degree_guard=128)
    else:
        R = gclass_ring(ring)
    monomials = ["1", "x", "x^2"] + (["y", "x*y"] if R.base.nvars > 1 else [])

    def entry():
        if rng.random() < 0.3:
            return R.zero()
        text = " + ".join(f"{rng.randint(1, 4)}*{m}" for m in rng.sample(monomials, rng.randint(1, 3)))
        return R.poly(text)

    def block(w):  # rows of a w x w block
        if not domain:
            return [[R.one() if a == i else R.zero() for i in range(w)] for a in range(w)]
        if rng.random() < 0.5:
            low = [[entry() if i < a else R.one() if i == a else R.zero() for i in range(w)]
                   for a in range(w)]
            up = [[entry() if i > a else R.one() if i == a else R.zero() for i in range(w)]
                  for a in range(w)]
            return [[R.nf(sum((low[a][k] * up[k][i] for k in range(w)), R.base.zero()))
                     for i in range(w)] for a in range(w)]
        while True:
            rows = [[entry() for _ in range(w)] for _ in range(w)]
            if not R.nf(_det(rows)).is_zero():
                return rows

    found = set()
    for shape in ("square", "tall") * 6:
        w = rng.randint(1, 3) if shape == "square" else rng.randint(1, 2)
        q = w if shape == "square" else rng.randint(w + 1, 3)
        rows = block(w) + [[entry() for _ in range(w)] for _ in range(q - w)]
        rng.shuffle(rows)
        gens = [tuple(row[i] for row in rows) for i in range(w)]
        H = split_surjection_onto_kernel(R, gens)
        assert (H is None) == (_split_by_the_full_system(R, q, gens) is None)
        if H is not None:
            hu, _ = _products(R, q, gens, H)
            assert hu == [[R.one() if l == i else R.zero() for l in range(w)] for i in range(w)]
            assert _retracts(R, q, gens, H)
        found.add(H is None)
    assert found == ({True, False} if domain else {False})


def _fitting_corpus():
    """(R, q, U) for every nonempty map of a depth-2 resolution of seeded
    random modules over each gclass ring, GF(5)[x,y]/(x^2+xy, y^2), QQ[x] and
    GF(3)[x], and for products B*C of small random matrices over QQ[x,y]
    (B q x k, C k x w, k < min(q, w), entries of degree <= 1)."""
    rng = random.Random(30)
    rings = [gclass_ring(key) for key in GCLASS_RINGS]
    rings += [PolyRing(GF(5), ("x", "y")).quotient(["x^2 + x*y", "y^2"]),
              polynomial_ring(QQ, ("x",)), polynomial_ring(GF(3), ("x",))]
    for R in rings:
        for _ in range(8):
            res = free_resolution(random_module(R, rng), 2)
            yield from ((R, res.rank(s), U) for s, U in enumerate(res.maps) if U)
    R = polynomial_ring(QQ, ("x", "y"))
    x, y = R.base.gens()

    def entry():
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        return x.scale(a) + y.scale(b) + R.one().scale(c)

    for q, k, w in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 3)] * 3:
        B = [[entry() for _ in range(k)] for _ in range(q)]
        C = [[entry() for _ in range(w)] for _ in range(k)]
        yield R, q, [tuple(R.nf(sum((B[a][i] * C[i][j] for i in range(k)), R.zero()))
                           for a in range(q)) for j in range(w)]


def test_fitting_rejections_are_full_system_nones(monkeypatch):
    # a Fitting rejection must be a product-system None, and the split's
    # verdict must be the product system's; the corpus reaches each route:
    # the linear-term shortcut, the minors over a domain and the J^2 basis
    routes = []

    def recording(name):
        original = getattr(resolutions, name)
        return lambda *args: routes.append(name) or original(*args)

    for name in ("_bareiss", "reduce_poly"):
        monkeypatch.setattr(resolutions, name, recording(name))
    rejected = {}
    for R, q, U in _fitting_corpus():
        routes.clear()
        full = _split_by_the_full_system(R, q, U)
        if resolutions._fitting_rejects(R, U):
            assert full is None, (R, U)
            route = routes[-1] if routes else "shortcut"
            rejected[route] = rejected.get(route, 0) + 1
        assert (split_surjection_onto_kernel(R, U) is None) == (full is None), (R, U)
    assert set(rejected) == {"shortcut", "_bareiss", "reduce_poly"}, rejected


def test_the_zero_map_is_projective():
    # U = 0 presents the free module R^q: its empty minor is 1
    for R in (polynomial_ring(QQ, ("x", "y")), gclass_ring("A")):
        U = [(R.zero(), R.zero())]
        assert not resolutions._fitting_rejects(R, U)
        assert split_surjection_onto_kernel(R, U) is not None


@pytest.mark.parametrize("ring, q, columns", [
    ("QQ[x,y]", 2, [["1", "y"], ["x", "x*y"]]),  # rank 1, cokernel R after the pivot
    ("A", 1, [["1"], ["x"]]),  # a constant pivot leaves the empty matrix
    ("chain2", 1, [["1 + x"], ["x"]]),  # a unit that is not constant: J^2 = R
], ids=["domain", "constant", "nonconstant"])
def test_a_unit_entry_falls_through(ring, q, columns):
    R = polynomial_ring(QQ, ("x", "y")) if ring == "QQ[x,y]" else gclass_ring(ring)
    U = [tuple(R.poly(p) for p in col) for col in columns]
    assert not resolutions._fitting_rejects(R, U)
    H = split_surjection_onto_kernel(R, U)
    assert H is not None and _retracts(R, q, U, H)


@pytest.mark.parametrize("entry", ["x", "y", "x + y"])
def test_a_modulus_with_a_linear_term_never_fires_the_shortcut(entry, count_calls):
    # over GF(3)[x,y]/(x - y^2), where x = y^2 lies in m^2 + I, every entry
    # is reduced on the J^2 basis, which rejects each of these 1 x 1 maps
    R = PolyRing(GF(3), ("x", "y")).quotient(["x - y^2"])
    U = [(R.poly(entry),)]
    rejects, reductions = count_calls(resolutions, "reduce_poly", resolutions._fitting_rejects,
                                      R, U)
    assert rejects and reductions > 0
    assert _split_by_the_full_system(R, 1, U) is None


def test_a_fitting_check_that_trips_the_guard_falls_through(monkeypatch):
    # the three 2 x 2 minors have degree 6 and their basis trips guard 4, so
    # the check proves nothing and the split answers, or trips, as the
    # routes after it do alone
    R = PolyRing(QQ, ("x",), degree_guard=4).quotient([])
    U = [tuple(R.poly(p) for p in col)
         for col in (["x^3+1", "x^3+x"], ["x^3+2", "x^2+3"], ["x^3+x+5", "x^3-1"])]
    trips, ideal = [], resolutions.Ideal

    def tripping(*args):
        try:
            return ideal(*args)
        except DegreeGuardExceeded as exc:
            trips.append(str(exc))
            raise

    monkeypatch.setattr(resolutions, "Ideal", tripping)
    assert not resolutions._fitting_rejects(R, U)
    assert trips == ["Groebner basis: term degree 6 exceeds guard 4"]

    def outcome():
        try:
            return split_surjection_onto_kernel(R, U)
        except DegreeGuardExceeded as exc:
            return str(exc)

    checked = outcome()
    monkeypatch.setattr(resolutions, "_fitting_rejects", lambda *args: False)
    assert checked == outcome()


@pytest.mark.parametrize("relations, verdict", [
    ([["4*x*y + y^2", "x + 1"], ["-x + 2", "3*x*y - 4*y^2 + 2*y"]], "Finite(1)"),
    ([["-x + y", "0"], ["x^2", "0"], ["-2*x*y + 1", "3*x^2 + 1"]], "Finite(2)"),
], ids=["rank12_basis_element", "rank12_term"])
def test_a_fitting_rejection_spares_a_product_system_that_trips_the_guard(relations, verdict):
    # at guard 8 the product system of each map that does not split tripped
    # ("module basis at rank 12: ... degree 9 exceeds guard 8"); its minors
    # reject it first, and the verdict is the one at guard 32
    for guard in (8, 32):
        R = PolyRing(QQ, ("x", "y"), degree_guard=guard).quotient([])
        M = FPModule(R, 2, [tuple(R.poly(p) for p in rel) for rel in relations])
        assert str(pd_bounded(M, 4)) == verdict


def test_pd_of_a_square_torsion_module_builds_no_basis_above_rank_6(monkeypatch):
    # shaped like the CLI's k0 modules over QQ[x]: 3 x 3 of degree 2 with
    # nonzero determinant, so the presentation is injective and its
    # splitting needs a rank-6 basis; the product system needed rank 18.
    # The bases are recorded from before M is built: its own engine, which
    # the call reuses, is one of them
    ranks = []
    build = FreeModuleGB.__init__

    def recording(self, ring, rank, vectors, modulus=()):
        ranks.append(rank)
        build(self, ring, rank, vectors, modulus)

    monkeypatch.setattr(FreeModuleGB, "__init__", recording)
    Qx = QxQ()
    M = FPModule.from_strings(Qx, 3, [["x^2 + 2", "3*x - 1", "2*x^2"],
                                      ["x - 3", "x^2 + x", "1"],
                                      ["2", "x^2 - 1", "3*x"]])
    assert str(pd_bounded(M, 4)) == "Finite(1)"
    assert max(ranks) == 6


def test_injective_splitting_stays_below_a_guard_the_product_system_trips():
    # the product system doubles the entries' degrees: at guard 8 it tripped
    # at rank 18 ("basis element degree 9 exceeds guard 8") on this module
    R = PolyRing(GF(3), ("x",), degree_guard=8).quotient([])
    M = FPModule.from_strings(R, 3, [["2*x^2", "x + 2", "0"], ["2*x^2", "0", "x^2 + x + 1"],
                                     ["0", "x^2 + x + 1", "x"]])
    assert str(pd_bounded(M, 4)) == "Finite(1)"


def test_pd_solves_each_distinct_map_once_per_call(count_calls):
    # the flagship's period-1 chain repeats one map: every raw split build
    # runs one Fitting check, which rejects x by its linear term before any
    # system is built, and no split makes a QuotRing.mul call, so both
    # counts are depth-free
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    counts = [(count_calls(resolutions, "_fitting_rejects", pd_bounded, I, depth)[1],
               count_calls(QuotRing, "mul", pd_bounded, I, depth)[1]) for depth in (50, 5000)]
    assert counts[0] == counts[1] and counts[0][0] == 1


@pytest.mark.parametrize("columns", [
    [["2*x^2", "3*x+4", "0"], ["0", "0", "x^2+3*x+3"], ["2*x^2+4*x", "3", "3*x^2"]],
    [["3*x^2+2*x", "3*x", "3*x^2+3*x"], ["0", "4*x+3", "4*x^2+3*x+3"]],
], ids=["three_columns", "two_columns"])
def test_splitting_over_a_chain_ring_stays_below_the_guard(columns):
    # with modulus multiples seeded in the tag block too, the engine's tag
    # polynomials stay reduced; unseeded, these trip at degree 34 and 42
    R = gclass_ring("chain4")
    kernel_gens = [tuple(R.poly(p) for p in col) for col in columns]
    assert split_surjection_onto_kernel(R, kernel_gens) is None


def _find_periodicity(maps):
    """The oracle for FreeResolution.periodicity: the smallest s, then the
    smallest p, with maps[s] == maps[s + p] nonzero; the first repeat of each
    map gives its p, one pass over the maps."""
    first: dict = {}
    found = None
    for t, m in enumerate(maps):
        if m and (s := first.setdefault(m, t)) < t and (found is None or s < found[0]):
            found = (s, t - s)
    return found


def test_periodicity_matches_the_pairwise_scan():
    def pairwise(maps):
        for s in range(len(maps)):
            for p in range(1, len(maps) - s):
                if maps[s] == maps[s + p] and maps[s]:
                    return (s, p)
        return None

    rng = random.Random(3)
    for _ in range(2000):
        maps = tuple(rng.choice([(), ("a",), ("b",), ("c",), ("a", "b")])
                     for _ in range(rng.randint(0, 9)))
        assert _find_periodicity(maps) == pairwise(maps)


def _cross_ring_module():
    # R/(x) over GF(2)[x,y]/(xy): d_1 = x, d_2 = y, d_3 = x, ..., period 2 from 0
    R = PolyRing(GF(2), ("x", "y")).quotient(["x*y"])
    return FPModule(R, 1, [(R.poly("x"),)])


def _iterated_kernels(M, depth, max_rank=6):
    """The maps of a depth-`depth` resolution of M by colon_generators alone,
    step by step, with no repeat detected and nothing filled; it stops early,
    with the maps so far, once a rank passes max_rank."""
    maps = [M.canonical_relations]
    while len(maps) <= depth and maps[-1] and len(maps[-1]) <= max_rank:
        maps.append(colon_generators(M.ring, maps[-1]))
    return tuple(maps)


def _flagship_module():
    R = R4()
    return FPModule(R, 1, [(R.poly("x"),)])


# periodic modules and the (start, period) of their resolutions
PERIODIC = {"flagship": (_flagship_module, (0, 1)), "cross": (_cross_ring_module, (0, 2)),
            "late": (late_period_module, (2, 1))}


@pytest.mark.parametrize("ring", [*GCLASS_RINGS, *PERIODIC])
def test_resolution_to_the_first_repeat_matches_iterated_kernels(ring):
    # every depth 1-12 reads the same maps as the step-by-step kernels, and
    # the periodicity recorded at the build is the oracle's on those maps;
    # the gclass rings draw random modules: free, periodic from 0, or of
    # growing rank (cut at rank 6)
    if ring in PERIODIC:
        cases = [PERIODIC[ring][0]()]
    else:
        rng = random.Random(f"repeat:{ring}")
        cases = [random_module(gclass_ring(ring), rng) for _ in range(6)]
    for M in cases:
        maps = _iterated_kernels(M, 12)
        top = len(maps) - 1 if maps[-1] else 12  # a terminated chain is whole
        for depth in range(1, top + 1):
            res = free_resolution(M, depth)
            assert res.maps == maps[:depth + 1]
            assert res.periodicity == _find_periodicity(maps[:depth + 1])
        if ring in PERIODIC:
            assert res.periodicity == PERIODIC[ring][1]


@pytest.mark.parametrize("depth, periodicity", [(1, "none"), (2, "(start 0, period 2)")])
def test_resolve_prints_a_periodicity_only_when_its_repeat_is_printed(depth, periodicity, capsys):
    # pd resolves one step deeper than it prints: at depth 1 the repeat d_3 = d_1
    # is cut off, so the slice shows no periodicity beside the verdict
    model = Path(__file__).resolve().parent.parent / "demos" / "period2.model"
    assert main(["resolve", str(model), "M", "--depth", str(depth), "--format", "machine"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"periodicity = {periodicity}" in out
    assert "verdict = InfinitePeriodic(0,2)" in out


def _work(fn, *args):
    """fn(*args) and, counted from outside the library, the work it did:
    span-cache lookups, exact_kernel builds, split calls and FPModule.zero
    builds."""
    counts = dict.fromkeys(("lookups", "exact_kernel", "split", "zero"), 0)
    var, exact = modules._SPANS, resolutions.exact_kernel.__wrapped__

    class Spans(dict):
        def get(self, key, default=None):
            counts["lookups"] += 1
            return dict.get(self, key, default)

        def __setitem__(self, key, value):  # a build's key leads with its function
            counts["exact_kernel"] += key[0] is exact
            dict.__setitem__(self, key, value)

    class Scopes:  # modules._SPANS, with a counting cache for every new scope
        get, reset = staticmethod(var.get), staticmethod(var.reset)

        @staticmethod
        def set(value):
            return var.set(Spans(value))

    def counting(name, original):
        def call(*a):
            counts[name] += 1
            return original(*a)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "_SPANS", Scopes)
        patch.setattr(resolutions, "split_surjection_onto_kernel",
                      counting("split", resolutions.split_surjection_onto_kernel))
        patch.setattr(FPModule, "zero", counting("zero", FPModule.zero))
        return fn(*args), counts


@pytest.mark.parametrize("module, fn, verdict", [
    ("flagship", g_class_test, "Certified(complete_resolution)"),
    ("flagship", pd_bounded, "InfinitePeriodic(0,1)"),
    ("cross", g_class_test, "Certified(complete_resolution)"),
    ("cross", pd_bounded, "InfinitePeriodic(0,2)"),
    ("late", g_class_test, "Certified(complete_resolution)"),
    ("late", complete_resolution_check, "dual_of_dual_resolution"),
], ids=["flagship-gclass", "flagship-pd", "cross-gclass", "cross-pd", "late-gclass",
        "late-crc"])
def test_a_periodic_chain_does_the_same_work_at_any_depth(module, fn, verdict):
    # past the first repeat every map, Ext and split is read by the period's
    # index and every node check meets the repeated maps by reference, so
    # nothing counted here grows with the depth. The late module's chain
    # repeats from step 2, so its window takes the dual-of-dual route, where
    # no scan is cut to a period
    M = PERIODIC[module][0]()
    (shallow, few), (deep, many) = (_work(fn, M, depth) for depth in (50, 5000))
    read = {g_class_test: lambda r: r.verdict_str(),
            complete_resolution_check: lambda r: r.route}.get(fn, str)
    assert read(shallow) == read(deep) == verdict
    assert few == many
    assert few["lookups"] > 0
    if fn is pd_bounded:
        assert few["split"] > 0
    else:
        assert few["exact_kernel"] > 0 and (fn is not g_class_test or few["zero"] > 0)


@pytest.mark.parametrize("module", sorted(PERIODIC))
def test_verify_exactness_does_the_same_work_at_any_depth(module):
    # past s + p the chain repeats its maps by reference, so the scan checks
    # steps 1..s+p only and the span-cache lookups and node checks do not
    # grow with the depth
    M = PERIODIC[module][0]()
    (shallow, few), (deep, many) = (_work(verify_exactness, free_resolution(M, depth))
                                    for depth in (50, 5000))
    assert shallow is deep is True
    assert few == many
    assert few["exact_kernel"] > 0


def test_verify_exactness_rejects_a_false_periodicity():
    # a hand-built chain that states period 1 from 0 but breaks at F_4: the
    # literal check of the stated repeat rejects it, as the whole-chain scan
    # does when no periodicity is stated
    R = R4()
    M = _flagship_module()
    x, one = M.canonical_relations, ((R.one(),),)  # maps d = x and d = 1
    maps = (x,) * 4 + (one,) + (x,) * 3
    assert not verify_exactness(FreeResolution(M, maps, 7))
    assert not verify_exactness(FreeResolution(M, maps, 7, (0, 1)))
    assert verify_exactness(FreeResolution(M, (x,) * 8, 7, (0, 1)))
    # an exact chain is rejected too when the repeat it states is not there
    cross = free_resolution(_cross_ring_module(), 7)
    assert cross.periodicity == (0, 2) and verify_exactness(cross)
    assert not verify_exactness(FreeResolution(cross.module, cross.maps, 7, (0, 1)))


def test_verify_exactness_rejects_a_periodicity_whose_repeat_is_missing():
    # FreeResolution states (s, p) only with the repeat maps[s + p] == maps[s]
    # in the chain and maps[s] nonzero; a chain shorter than s + p + 1, or
    # one that "repeats" a zero map, holds no such repeat
    M = _flagship_module()
    two = free_resolution(M, 1)
    assert len(two.maps) == 2 and two.periodicity == (0, 1) and verify_exactness(two)
    assert not verify_exactness(FreeResolution(M, two.maps, 1, (0, 5)))
    assert not verify_exactness(FreeResolution(M, two.maps, 1, (1, 1)))
    free = FPModule.free(M.ring, 1)
    assert verify_exactness(FreeResolution(free, ((),), 0))
    assert not verify_exactness(FreeResolution(free, ((), ()), 1, (0, 1)))


def test_ranks_are_computed_once():
    R = R4()
    res = free_resolution(FPModule(R, 1, [(R.poly("x"),)]), 5)
    assert res.ranks is res.ranks and res.ranks == [1] * 7


def test_pd_shift_under_regular_quotient():
    # modules over k[x]/(x) have pd 0; viewed over k[x] they have pd 1
    for field in (QQ, GF(3)):
        Qx = polynomial_ring(field, ("x",))
        k_ring = Qx.base.quotient(["x"])
        instances = [
            FPModule.free(k_ring, 1),
            FPModule.free(k_ring, 2),
            FPModule.from_strings(k_ring, 2, [["1"], ["0"]]),
            FPModule.free(k_ring, 3),
            FPModule.from_strings(k_ring, 1, [[]]),
        ]
        for M in instances:
            below = pd_bounded(M, 3)
            assert below.kind == "finite" and below.n == 0
            lifted = module_over_cover(M, Qx)
            above = pd_bounded(lifted, 3)
            assert above.kind == "finite" and above.n == below.n + 1


# ----- the square-zero detector -----

def test_detector_accepts_flagship():
    R = R4()
    cert = infinite_pd_detector(R, R.poly("x"))
    assert cert.accepted
    assert cert.resolution.periodicity == (0, 1)
    assert str(cert.verdict) == "InfinitePeriodic(0,1)"


def test_detector_needs_depth_two():
    # the period-1 certificate is read off a resolution of depth `depth`
    R = R4()
    with pytest.raises(InputError, match="depth must be at least 2"):
        infinite_pd_detector(R, R.poly("x"), 1)
    assert infinite_pd_detector(R, R.poly("x"), 2).accepted


def test_dual_maps_are_the_transposes_indexed_by_resolution_step():
    R = R4()
    res = free_resolution(FPModule(R, 1, [(R.poly("x"),)]), 3)
    assert len(res.dual_maps) == len(res.maps)
    for s, d in enumerate(res.maps):
        assert res.dual_map(s) == tuple(tuple(col[i] for col in d) for i in range(res.rank(s)))
    # past the end the dual map goes to zero: rank(s) empty columns, not the
    # () of map(s), which would be a map with no source
    past = len(res.maps)
    assert res.rank(past) == 1 and res.map(past) == ()
    assert res.dual_map(past) == ((),)
    # a terminated resolution: d_2 = 0 out of F_2 = 0 dualizes to F_1* -> 0
    Qx = polynomial_ring(QQ, ("x",))
    short = free_resolution(FPModule(Qx, 1, [(Qx.poly("x"),)]), 3)
    assert short.maps[1] == () and short.dual_map(1) == ((),)


def test_detector_rejects_when_square_nonzero():
    R = PolyRing(GF(2), ("x",)).quotient(["x^3"])
    cert = infinite_pd_detector(R, R.poly("x"))
    assert not cert.accepted
    assert any("a^2" in f for f in cert.failures)


def test_detector_rejects_zero():
    cert = infinite_pd_detector(R4(), R4().zero())
    assert not cert.accepted
    assert cert.failures == ("a = 0",)


def test_detector_rejects_when_annihilator_too_big():
    # in GF(2)[x,y]/(x^2, x*y), ann(x) = (x, y) is strictly larger than (x)
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "x*y"])
    cert = infinite_pd_detector(R, R.poly("x"))
    assert not cert.accepted
    assert any("outside" in f for f in cert.failures)


# ----- three-term sequences -----

def test_truncation_sequence_flagship_example():
    S = QxQ()
    M = SubmoduleOfFree(S, 2, [(S.poly("x"), S.one())])
    seq = truncation_sequence(M)
    assert seq.k == 2
    assert seq.A.is_zero()
    assert seq.B.ngens == 1 and not seq.B.relations
    assert seq.exactness.ok
    # psi is an isomorphism here
    assert seq.psi.kernel_is_zero() and seq.psi.cokernel_is_zero()


def test_truncation_sequence_full_module():
    S = QxQ()
    M = SubmoduleOfFree(S, 1, [(S.one(),)])
    seq = truncation_sequence(M)
    assert seq.k == 1
    assert seq.A.is_zero()
    assert seq.B.ngens == 1
    assert seq.exactness.ok


def test_truncation_sequence_rejects_torsion_quotient():
    S = QxQ()
    M = SubmoduleOfFree(S, 1, [(S.poly("x"),)])
    with pytest.raises(NotRegularOnQuotient):
        truncation_sequence(M)


def test_truncation_sequence_nontrivial_A():
    # a redundant degree-3 generator forces k = 4 and a nonzero A
    S = QxQ()
    M = SubmoduleOfFree(S, 2, [(S.poly("x"), S.one()),
                               (S.poly("x^3"), S.poly("x^2"))])
    seq = truncation_sequence(M)
    assert seq.exactness.ok
    assert seq.k == 4
    assert not seq.A.is_zero()
    assert seq.phi.kernel_is_zero()


# ----- horseshoe -----

def _inclusion_of_ideal(R, elem):
    """0 -> (elem) -> R -> R/(elem) -> 0 as certified maps."""
    sub = FPModule(R, 1, list(
        SubmoduleOfFree(R, 1, [(elem,)]).syzygies()))
    mid = FPModule.free(R, 1)
    quo = FPModule(R, 1, [(elem,)])
    incl = ModuleMap(sub, mid, [(elem,)])
    proj = ModuleMap(mid, quo, [(R.one(),)])
    return incl, proj


def test_horseshoe_over_domain():
    Qx = QxQ()
    incl, proj = _inclusion_of_ideal(Qx, Qx.poly("x"))
    assert verify_short_exact(incl, proj).ok
    result = horseshoe_resolution(incl, proj, 4)
    assert verify_exactness(result.resolution)
    assert result.augmentation.cokernel_is_zero()
    # kernel of the augmentation equals the image of the first differential
    kernel_gens = result.augmentation.kernel_preimage_generators()
    first = result.resolution.maps[0]
    from gproj.modules import SubmoduleEngine
    eng = SubmoduleEngine(Qx, result.resolution.module.ngens, list(first))
    assert all(eng.contains(g) for g in kernel_gens)


def test_horseshoe_two_of_three_on_chain_ring():
    R = R4()
    incl, proj = _inclusion_of_ideal(R, R.poly("x"))
    assert verify_short_exact(incl, proj).ok
    result = horseshoe_resolution(incl, proj, 5)
    assert verify_exactness(result.resolution)


def test_horseshoe_split_sequence():
    R = R4()
    A = FPModule(R, 1, [(R.poly("x"),)])
    C = FPModule.free(R, 1)
    B = A.direct_sum(C)
    incl = ModuleMap(A, B, [(R.one(), R.zero())])
    proj = ModuleMap(B, C, [(R.zero(),), (R.one(),)])
    result = horseshoe_resolution(incl, proj, 4)
    assert verify_exactness(result.resolution)
