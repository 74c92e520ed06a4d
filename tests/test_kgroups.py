import random
from fractions import Fraction
from itertools import combinations
from math import inf, lcm

import pytest

from gproj import (
    GF,
    QQ,
    FPModule,
    InputError,
    KClass,
    ModuleMap,
    PdInfiniteOrUnresolved,
    PolyRing,
    RingNotInCatalog,
    catalog_for,
    class_decompose,
    euler_class,
    euler_map_report,
    group_from_relations,
    is_regular_element,
    polynomial_extension,
    polynomial_ring,
    pushdown_class,
    quotient_by_regular_element,
    smith_normal_form,
)
from gproj.fields import RationalField
from gproj.kgroups import _RATIONAL_POLYS, _catalog_ring, _diagonalize, int_mat_mul
from gproj.resolutions import pd_bounded
from gproj.rings import FreeModuleGB, QuotRing, format_poly, restrict_poly, substitute_zero

from helpers import int_determinant, minors_gcd_invariant_factors, univariate_gcd


def R4():
    return PolyRing(GF(2), ("x",)).quotient(["x^2"])


def QxQ():
    return polynomial_ring(QQ, ("x",))


# ----- Smith normal form -----

def test_snf_spec_cases():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal == (1, 1)
    assert smith_normal_form([[2]]).diagonal == (2,)


def test_snf_properties_random():
    rng = random.Random(17)
    for _ in range(60):
        A = [[rng.randrange(-9, 10) for _ in range(4)] for _ in range(4)]
        r = smith_normal_form(A)
        U = [list(row) for row in r.U]
        V = [list(row) for row in r.V]
        S = [list(row) for row in r.S]
        assert int_mat_mul(int_mat_mul(U, A), V) == S
        assert int_determinant(U) in (1, -1)
        assert int_determinant(V) in (1, -1)
        diag = list(r.diagonal)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        assert diag == minors_gcd_invariant_factors(A)


def test_snf_rectangular():
    r = smith_normal_form([[1, -2]])
    assert r.diagonal == (1,)
    r2 = smith_normal_form([[2], [4], [6]])
    assert r2.diagonal == (2,)


# U and V as the integer elimination has always produced them: `snf` prints
# them, so its sequence of row and column operations is part of the output
PINNED_SNF = [
    ([[2, 0], [0, 3]],
     ((1, 1), (3, 2)), ((-1, 3), (1, -2)), (1, 6)),
    ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
     ((1, 0, 0), (2, -1, -1), (3, -4, -3)),
     ((1, -2, 2), (0, 1, -2), (0, 0, 1)), (2, 6, 12)),
    ([[-3, 5], [7, -2], [4, 6]],
     ((-1, -3, 0), (-12, -9, 7), (-50, -38, 29)), ((0, 1), (1, 18)), (1, 1)),
    ([[1, 2, 3], [2, 4, 6], [-1, 0, 5]],
     ((1, 0, 0), (1, 0, 1), (-2, 1, 0)),
     ((1, -2, 5), (0, 1, -4), (0, 0, 1)), (1, 2)),
    ([[6, -10, 15, 0], [4, 9, -7, 3]],
     ((1, -7), (-2, 15)),
     ((0, 12, -35, -30), (0, 212, -618, -531), (1, 137, -398, -342),
      (3, -332, 972, 835)), (1, 1)),
    ([[-4]], ((-1,),), ((1,),), (4,)),
]


@pytest.mark.parametrize("A, U, V, diagonal", PINNED_SNF)
def test_snf_transforms_are_pinned(A, U, V, diagonal):
    r = smith_normal_form(A)
    assert (r.U, r.V, r.diagonal) == (U, V, diagonal)
    assert int_mat_mul(int_mat_mul(r.U, A), r.V) == [list(row) for row in r.S]


@pytest.mark.parametrize("build", [
    lambda: smith_normal_form([[1.5, 0], [0, 2.9]]),
    lambda: smith_normal_form([[Fraction(1, 2)]]),
    lambda: group_from_relations(["a"], [["3"]]),
], ids=["float", "fraction", "string"])
def test_non_integer_entries_are_rejected(build):
    with pytest.raises(InputError, match="is not an integer"):
        build()


# ----- abelian group presentations -----

def test_group_from_relations_spec_cases():
    g = group_from_relations(["[R]", "[k]"], [[1, -2]])
    assert g.free_rank == 1 and not g.invariant_factors
    assert str(g) == "Z"
    assert str(group_from_relations(["a", "b", "c"], [])) == "Z + Z + Z"
    assert str(group_from_relations(["g"], [[0]])) == "Z"


def test_group_torsion():
    g = group_from_relations(["a", "b"], [[2, 0], [0, 3]])
    assert g.free_rank == 0
    assert g.invariant_factors == (6,)


def test_group_element_is_zero():
    g = group_from_relations(["a", "b"], [[1, -2]])
    assert g.element_is_zero([1, -2])
    assert g.element_is_zero([2, -4])
    assert not g.element_is_zero([1, 0])
    assert not g.element_is_zero([0, 1])


# ----- catalogs and decomposition -----

def test_decompose_over_field():
    F3 = polynomial_ring(GF(3), ())
    assert str(class_decompose(FPModule.free(F3, 3))) == "3*[k]"
    # a unit relation cancels a generator
    M = FPModule.from_strings(F3, 2, [["2"], ["0"]])
    assert str(class_decompose(M)) == "1*[k]"


def test_decompose_over_polynomial_ring():
    Qx = QxQ()
    M = FPModule.from_strings(Qx, 2, [["1", "0"], ["0", "x^2"]])
    assert str(class_decompose(M)) == "1*[R/(x^2)]"
    assert str(class_decompose(FPModule.free(Qx, 2))) == "2*[R]"
    # the divisibility chain is enforced: diag(x^2, x) renormalizes
    N = FPModule.from_strings(Qx, 2, [["x^2", "0"], ["0", "x"]])
    assert str(class_decompose(N)) == "1*[R/(x)] + 1*[R/(x^2)]"
    # coprime diagonal entries merge into a single invariant factor
    P2 = FPModule.from_strings(Qx, 2, [["x", "0"], ["0", "x-1"]])
    assert str(class_decompose(P2)) == "1*[R/(x^2-x)]"


def test_decompose_over_chain_ring():
    R = R4()
    M = FPModule.from_strings(R, 2, [["0"], ["x"]])
    assert str(class_decompose(M)) == "1*[R] + 1*[R/(x)]"
    # units of the chain ring cancel generators: x+1 is a unit
    N = FPModule.from_strings(R, 1, [["x+1"]])
    assert str(class_decompose(N)) == "0"


def _class_from_relation_rows(M):
    """class_decompose as it was when it diagonalized the relations as given,
    M.relation_rows(), not the canonical relations."""
    cat = catalog_for(M.ring)
    base = M.ring.base
    n = cat.chain_power if cat.family == "chain" else inf
    rows = [[{d: c for e, c in p.terms if (d := sum(e)) < n} for p in row]
            for row in M.relation_rows()]
    ring = _catalog_ring(base.field, n)
    if ring is _RATIONAL_POLYS:
        for row in rows:
            m = lcm(*(c.denominator for a in row for c in a.values()))
            row[:] = [{d: c.numerator * (m // c.denominator) for d, c in a.items()} for a in row]
    diagonal, *_ = _diagonalize(rows, ring)
    coords = {cat.unit_label: M.ngens - len(diagonal)}
    for d in diagonal:
        if max(d):
            d = base.from_dict({(k,) * base.nvars: c for k, c in d.items()})
            label = f"[R/({format_poly(d)})]"
            coords[label] = coords.get(label, 0) + 1
    return KClass(coords)


@pytest.mark.parametrize("ring", ["QQ[]", "QQ[x]", "GF(5)[x]/(x^3)", "GF(2)[x]/(x^4)"])
def test_canonical_relations_give_the_class_of_the_relations_as_given(ring):
    # free modules, and relation matrices of lower rank than ngens (a zero row,
    # a column that is a multiple of another) are among the draws
    rng = random.Random(35)
    field = QQ if ring.startswith("QQ") else GF(int(ring[3]))
    variables = () if ring == "QQ[]" else ("x",)
    R = PolyRing(field, variables).quotient([ring[-4:-1]] if "/" in ring else [])
    base = R.base

    def entry():
        d = {(rng.randint(0, 2),) * base.nvars: (Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                                 if field == QQ else rng.randrange(field.p))
             for _ in range(rng.randint(0, 2))}
        return R.nf(base.from_dict(d))

    free = deficient = 0
    for _ in range(40):
        ngens, nrels = rng.randint(1, 4), rng.randint(0, 4)
        cols = [[entry() for _ in range(ngens)] for _ in range(nrels)]
        if cols and rng.random() < 0.3:  # a zero row: rank below ngens
            i = rng.randrange(ngens)
            for col in cols:
                col[i] = base.zero()
            deficient += 1
        if len(cols) > 1 and rng.random() < 0.3:
            c = entry()
            cols[1] = [R.nf(c * a) for a in cols[0]]
        M = FPModule(R, ngens, [tuple(col) for col in cols])
        free += not M.canonical_relations
        assert class_decompose(M) == _class_from_relation_rows(M), cols
    assert free and deficient


def test_chain_decomposition_cardinality_by_enumeration():
    # over GF(3)[x]/(x^3): the class vector predicts the module's size,
    # p^(sum of lengths), which enumeration confirms
    import random

    from helpers import module_cosets, ring_elements

    rng = random.Random(13)
    R = PolyRing(GF(3), ("x",)).quotient(["x^3"])
    cat = catalog_for(R)
    elements = ring_elements(R)
    for _ in range(8):
        ngens = rng.randrange(1, 3)
        cols = []
        for _ in range(rng.randrange(0, 3)):
            col = tuple(R.nf(R.base.from_dict(
                {(rng.randrange(3),): rng.randrange(3)})) for _ in range(ngens))
            cols.append(col)
        M = FPModule(R, ngens, cols)
        cls = class_decompose(M)
        predicted = 3 ** cat.group_value(cls)
        _, reps = module_cosets(M, elements)
        assert len(reps) == predicted


def _random_poly(rng, ring, top, n=None):
    k = ring.field
    d = {(e,) * ring.nvars: (k.from_fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           if k == QQ else k.from_int(rng.randrange(k.p)))
         for e in range(top + 1) if rng.random() < 0.7}
    p = ring.from_dict(d)
    return p if n is None else ring.from_dict({e: c for e, c in p.terms if e[0] < n})


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_term_divmod_divides_with_remainder(field):
    # k and k[x] divide from the top term, k[x]/(x^n) from the bottom one, on
    # coefficient dicts keyed by degree: a = q*b + r, and b's term at that end
    # does not divide r's. QQ and QQ[x] run on integer dicts, where the
    # division is a pseudo-division: s*a = q*b + r for a nonzero integer s
    rng = random.Random(11)
    k, kx = PolyRing(field, ()), PolyRing(field, ("x",))
    for ring, n in [(k, None), (kx, None)] + [(kx, n) for n in (1, 2, 3, 4)]:
        R = ring.quotient([] if n is None else [f"x^{n}"])
        divmod_ = _catalog_ring(field, inf if n is None else n).divmod
        pseudo = field == QQ and n is None
        end = 0 if n is None else -1
        for _ in range(60):
            a, b = (_random_poly(rng, ring, rng.randrange(6), n) for _ in range(2))
            if b.is_zero():
                continue
            if pseudo:  # clear denominators: a unit scaling
                a, b = (p * ring.constant(lcm(*(c.denominator for _, c in p.terms)))
                        for p in (a, b))
            dicts = [{sum(e): int(c) if pseudo else c for e, c in p.terms} for p in (a, b)]
            token, r = divmod_(*dicts)
            s, q = token if pseudo else (1, token)
            assert isinstance(s, int) and s != 0
            if pseudo:
                assert all(type(c) is int for part in (q, r) for c in part.values())
            q, r = (ring.from_dict({(d,) * ring.nvars: c for d, c in part.items()})
                    for part in (q, r))
            assert R.nf(q * b + r) == ring.constant(s) * a and R.nf(q) == q and R.nf(r) == r
            assert r.is_zero() or sum(r.terms[end][0]) < sum(b.terms[end][0])


def test_chain_decomposition_makes_no_normal_form_call(monkeypatch):
    # over k[x]/(x^n) the diagonalizer's normal form is a truncation
    R = PolyRing(GF(5), ("x",)).quotient(["x^4"])
    M = FPModule.from_strings(R, 3, [["x^2+x", "3*x^3", "0"], ["x^3", "2+x", "x"],
                                     ["4*x^2", "x^3+x^2", "x^2"]])
    calls = []
    nf = QuotRing.nf
    monkeypatch.setattr(QuotRing, "nf", lambda self, f: calls.append(f) or nf(self, f))
    cls = class_decompose(M)
    assert calls == []
    assert str(cls) == "1*[R/(x)] + 1*[R/(x^2)]"


def _determinant(M):
    if len(M) == 1:
        return M[0][0]
    total = M[0][0].ring.zero()
    for j, a in enumerate(M[0]):
        term = a * _determinant([row[:j] + row[j + 1:] for row in M[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def _awkward_matrix(rng, ring, shape, top):
    """A random matrix with, at random, a zero row, a zero column and a row
    scaled by an integer greater than 1 (over QQ: a row of integer content
    greater than 1 once its denominators are cleared)."""
    A = [[_random_poly(rng, ring, rng.randrange(top + 1)) for _ in range(shape[1])]
         for _ in range(shape[0])]
    if rng.random() < 0.3:
        A[rng.randrange(shape[0])] = [ring.zero()] * shape[1]
    if rng.random() < 0.3:
        j = rng.randrange(shape[1])
        for row in A:
            row[j] = ring.zero()
    if rng.random() < 0.5:
        i = rng.randrange(shape[0])
        A[i] = [p * ring.constant(rng.choice([2, 3, 6, 12])) for p in A[i]]
    return A


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_invariant_factors_are_quotients_of_determinantal_divisors(field):
    # the product of the first k invariant factors is the monic gcd of the
    # k x k minors; QQ coefficients have denominators up to 9
    rng = random.Random(23)
    R = polynomial_ring(field, ("x",))
    for shape, top in [((3, 3), 2), ((4, 3), 2)] * 15 + [((5, 4), 1), ((4, 5), 1)] * 6:
        A = _awkward_matrix(rng, R.base, shape, top)
        cls = class_decompose(FPModule(R, shape[0], list(zip(*A))))
        rank = shape[0] - cls.coefficient("[R]")
        factors = sorted((R.base.poly(label[4:-2]) for label, c in cls.coords.items()
                          if label != "[R]" for _ in range(c)),
                         key=lambda f: f.degree_in(0))
        factors = [R.base.one()] * (rank - len(factors)) + factors
        product = R.base.one()
        for k in range(1, min(shape) + 1):
            divisor = R.base.zero()
            for rows in combinations(A, k):
                for cols in combinations(range(shape[1]), k):
                    minor = _determinant([[row[j] for j in cols] for row in rows])
                    divisor = univariate_gcd(divisor, minor)
            if k > rank:
                assert divisor.is_zero()
                continue
            product = product * factors[k - 1]
            assert product == divisor


def test_rational_decomposition_makes_no_field_arithmetic_call(monkeypatch):
    # over QQ[x] the diagonalizer runs on integers: relation rows are scaled
    # to integer coefficients and only the monic diagonal holds fractions
    R = QxQ()
    M = FPModule.from_strings(R, 3, [["1/2*x", "1/3", "0"], ["2/3*x^2 - 1/2", "x", "3/4"],
                                     ["0", "5/6*x + 1/9", "x^2"]])
    calls = []
    for name in ("add", "sub", "mul", "neg", "inv", "div"):
        method = getattr(RationalField, name)
        monkeypatch.setattr(RationalField, name,
                            lambda self, *a, _n=name, _m=method: calls.append(_n) or _m(self, *a))
    cls = class_decompose(M)
    assert calls == []
    assert str(cls) == "1*[R/(x^4-21/40*x^2-3/20*x)]"


def test_snf_zero_matrix():
    r = smith_normal_form([[0, 0], [0, 0]])
    assert r.diagonal == ()
    g = group_from_relations(["a", "b"], [[0, 0]])
    assert g.free_rank == 2


def test_catalog_rejects_multivariate_quotient():
    R = PolyRing(GF(2), ("x", "y")).quotient(["x*y"])
    with pytest.raises(RingNotInCatalog):
        catalog_for(R)


def test_decomposition_additive_on_short_exact_sequences():
    # group-level additivity: [middle] = [sub] + [quot] in the Grothendieck
    # group (composition length over the chain ring, rank over k[x])
    R = R4()
    cat = catalog_for(R)
    x = R.poly("x")
    sub = class_decompose(FPModule(R, 1, [(x,)]))       # (x) inside R
    mid = class_decompose(FPModule.free(R, 1))
    quo = class_decompose(FPModule(R, 1, [(x,)]))
    assert cat.group_value(mid) == cat.group_value(sub) + cat.group_value(quo)

    Qx = QxQ()
    catq = catalog_for(Qx)
    for f in ("x", "x^2", "x^2-1"):
        sub = class_decompose(FPModule.free(Qx, 1))
        mid = class_decompose(FPModule.free(Qx, 1))
        quo = class_decompose(FPModule(Qx, 1, [(Qx.poly(f),)]))
        assert catq.group_value(mid) == catq.group_value(sub) + catq.group_value(quo)


# ----- Euler classes -----

def test_euler_class_examples():
    Qx = QxQ()
    for n in range(1, 5):
        assert euler_class(FPModule.free(Qx, n)) == KClass({"[R]": n})
    for f in ("x", "x^2", "x^2-1"):
        assert euler_class(FPModule(Qx, 1, [(Qx.poly(f),)])).is_zero()


def test_euler_class_rejects_infinite_pd():
    R = R4()
    I = FPModule(R, 1, [(R.poly("x"),)])
    with pytest.raises(PdInfiniteOrUnresolved):
        euler_class(I)


def test_euler_class_of_a_projective_module_that_is_not_free_is_unresolved():
    # R/(x) over GF(7)[x]/(x^2 - x) is a summand of R, so pd is 0, but its
    # resolution repeats with period 2 and never ends in a free tail; that
    # is a pd verdict euler_class cannot use, not malformed input
    R = PolyRing(GF(7), ("x",)).quotient(["x^2 - x"])
    M = FPModule(R, 1, [(R.poly("x"),)])
    assert str(pd_bounded(M, 8)) == "Finite(0)"
    with pytest.raises(PdInfiniteOrUnresolved, match=r"pd verdict is Finite\(0\)"):
        euler_class(M)


def test_euler_error_exactly_on_infinite_verdicts():
    from gproj import pd_bounded
    R = R4()
    Qx = QxQ()
    cases = [FPModule(R, 1, [(R.poly("x"),)]), FPModule.free(R, 2),
             FPModule(Qx, 1, [(Qx.poly("x"),)]), FPModule.free(Qx, 1)]
    for M in cases:
        verdict = pd_bounded(M, 6)
        if verdict.kind == "infinite_periodic":
            with pytest.raises(PdInfiniteOrUnresolved):
                euler_class(M)
        else:
            euler_class(M)  # must not raise


def test_euler_class_resolves_once(count_calls):
    # the pd scan and the resolution read off its ranks share one span cache,
    # so euler_class builds no more module bases than pd_bounded alone: none,
    # since the resolution's one kernel is read off the engine M built with
    # its presentation, which the call's cache starts with, and d_1 is
    # rejected by det d_1 with no basis
    Qx = QxQ()
    M = FPModule.from_strings(Qx, 3, [["x^2-1", "x+1", "1/2*x^2"], ["2*x+3", "-x^2+x", "x-2"],
                                      ["x", "3", "x^2+x+1"]])
    verdict, pd_builds = count_calls(FreeModuleGB, "__init__", pd_bounded, M, 8)
    cls, builds = count_calls(FreeModuleGB, "__init__", euler_class, M, 8)
    assert str(verdict) == "Finite(1)" and cls.is_zero()
    assert builds == pd_builds == 0



@pytest.mark.parametrize("depth, resolved", [(8, [9]), (1, [2, 3])])
def test_euler_class_reads_the_resolution_off_its_pd_verdict(depth, resolved, monkeypatch):
    # the resolution to depth n + 2 is the Finite(n) verdict's own, cut:
    # free_resolution is entered once, by pd_bounded, and again only when
    # n + 2 passes the verdict's depth + 1, as Finite(1) at depth 1 does
    from gproj import kgroups, resolutions
    original, calls = resolutions.free_resolution, []

    def recording(M, d):
        calls.append(d)
        return original(M, d)

    monkeypatch.setattr(resolutions, "free_resolution", recording)
    monkeypatch.setattr(kgroups, "free_resolution", recording)
    Qx = QxQ()
    M = FPModule.from_strings(Qx, 3, [["x^2-1", "x+1", "1/2*x^2"], ["2*x+3", "-x^2+x", "x-2"],
                                      ["x", "3", "x^2+x+1"]])
    cases = [(M, KClass({}), resolved), (FPModule(Qx, 1, [(Qx.poly("x^2-1"),)]), KClass({}), resolved),
             (FPModule.free(Qx, 2), KClass({"[R]": 2}), [depth + 1])]  # Finite(1), (1), (0)
    for N, cls, entries in cases:
        calls.clear()
        assert euler_class(N, depth) == cls and calls == entries

# ----- pushdown and extension -----

def test_pushdown_examples():
    S = QxQ()
    assert str(pushdown_class(FPModule.free(S, 1))) == "1*[k]"
    assert pushdown_class(FPModule(S, 1, [(S.poly("x"),)])).is_zero()
    assert pushdown_class(FPModule(S, 0, [])).is_zero()


def test_retraction_identity_on_catalog_generators():
    for field in (GF(2), GF(3), QQ):
        base = polynomial_ring(field, ())
        cat = catalog_for(base)
        for label in cat.generator_labels():
            M = cat.module_for_label(label)
            ext = polynomial_extension(M, "x")
            assert pushdown_class(ext) == class_decompose(M)


def test_pushdown_matches_quotient_when_variable_regular():
    # ten x-regular modules over QQ[x] and GF(3)[x]: the pushdown equals the
    # class of M/xM
    cases = []
    for field in (QQ, GF(3)):
        S = polynomial_ring(field, ("x",))
        cases.extend([
            FPModule.free(S, 1),
            FPModule.free(S, 2),
            FPModule.free(S, 3),
            FPModule(S, 1, [(S.poly("x-1"),)]),
            FPModule(S, 2, [(S.poly("x-1"), S.zero()),
                            (S.zero(), S.poly("x^2-1") if field is QQ
                             else S.poly("x^2+1"))]),
        ])
    checked = 0
    for M in cases:
        S = M.ring
        x = S.poly("x")
        if not is_regular_element(x, M):
            continue
        checked += 1
        base_cat = catalog_for(polynomial_ring(S.base.field, ()))
        quotient = quotient_by_regular_element(M, x)
        idx = quotient.ring.base.nvars - 1
        small = base_cat.ring.base
        cols = [tuple(base_cat.ring.nf(restrict_poly(substitute_zero(p, idx), small))
                      for p in col) for col in quotient.relations]
        reduced = FPModule(base_cat.ring, quotient.ngens, cols)
        assert pushdown_class(M) == class_decompose(reduced)
    assert checked == 10


def test_pushdown_well_defined_across_presentations():
    # the same module with padded presentations gives the same pushdown class
    rng = random.Random(31)
    S = QxQ()
    samples = [
        FPModule.free(S, 1),
        FPModule(S, 1, [(S.poly("x-1"),)]),
        FPModule(S, 2, [(S.poly("x-1"), S.zero())]),
        FPModule.free(S, 2),
        FPModule(S, 1, [(S.poly("x^2-1"),)]),
    ]
    pairs = 0
    for M in samples:
        base = pushdown_class(M)
        # pad with a redundant generator killed by a unit
        padded_rel = [col + (S.zero(),) for col in M.relations]
        padded_rel.append(tuple(S.zero() for _ in range(M.ngens)) + (S.one(),))
        padded = FPModule(S, M.ngens + 1, padded_rel)
        assert pushdown_class(padded) == base
        pairs += 1
        # pad with a duplicated generator identified with the first one
        if M.ngens >= 1:
            dup_rel = [col + (S.zero(),) for col in M.relations]
            dup = tuple(S.one() if i == 0 else S.zero()
                        for i in range(M.ngens)) + (S.neg(S.one()),)
            dup_rel.append(dup)
            padded2 = FPModule(S, M.ngens + 1, dup_rel)
            assert pushdown_class(padded2) == base
            pairs += 1
    assert pairs >= 10


# ----- the Euler map report -----

def _ses_multiplication(ring, f):
    sub = FPModule.free(ring, 1)
    mid = FPModule.free(ring, 1)
    quo = FPModule(ring, 1, [(ring.poly(f),)])
    incl = ModuleMap(sub, mid, [(ring.poly(f),)])
    proj = ModuleMap(mid, quo, [(ring.one(),)])
    return incl, proj


def test_euler_map_report_over_polynomial_ring():
    Qx = QxQ()
    cat = catalog_for(Qx)
    seqs = [_ses_multiplication(Qx, f) for f in ("x", "x^2", "x^2-1")]
    rep = euler_map_report(cat, seqs)
    assert rep.status == "ok"
    assert rep.free_roundtrip_ok
    assert all(rep.additivity_results)


def test_euler_map_report_flags_unverified_property():
    cat = catalog_for(R4())
    rep = euler_map_report(cat, [])
    assert rep.status == "PropertyCUnverified"
    assert rep.offending_generator == "[R/(x)]"


def test_four_term_class_identity_from_window_sequence():
    # chase [N] = [P[x]] - [F[x]] + [B[x]] - [A[x]] through the pushdown map:
    # K = relation span of N inside P[x], K1 = its syzygies inside F[x], and
    # the window sequence resolves K1 by base-ring modules A and B
    from gproj import SubmoduleOfFree, truncation_sequence
    from gproj.modules import SubmoduleEngine

    S = QxQ()
    N = FPModule(S, 2, [(S.poly("x"), S.one()),
                        (S.poly("x^2"), S.poly("x"))])
    K_gens = N.canonical_relations
    K1_gens = SubmoduleEngine(S, N.ngens, list(K_gens)).syzygies()
    K1 = SubmoduleOfFree(S, len(K_gens), K1_gens)
    seq = truncation_sequence(K1)
    assert seq.exactness.ok
    rhs = (KClass({"[k]": N.ngens}) - KClass({"[k]": len(K_gens)})
           + class_decompose(seq.B) - class_decompose(seq.A))
    assert pushdown_class(N) == rhs
