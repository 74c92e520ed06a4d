"""A normal form the library makes records the modulus it is reduced over.

`Poly.mod` is the modulus `Ideal` a polynomial is known to be reduced over:
set on the results of `QuotRing.nf`, on the rows `mat_vec` reduces, on the
entries `_read_columns` reads off a basis and on the parts of a witness.
`QuotRing.nf` returns a polynomial marked with its very modulus object as it
is. Reducing a reduced polynomial makes no step, so every answer and every
guard trip is the one a normal form that reads no mark gives.
"""

from pathlib import Path
from random import Random

import pytest

from gproj import GF, QQ, DegreeGuardExceeded, FPModule, ModuleMap, PolyRing, SubmoduleOfFree
from gproj import rings
from gproj.errors import RingMismatch
from gproj.modules import canonical_generators, colon_generators, mat_vec
from gproj.rings import FreeModuleGB, Ideal, Poly, QuotRing, reduce_poly

from helpers import GCLASS_RINGS, gclass_ring

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MEMBERSHIP = ("syz_gf2", "syz_qq", "cyc4_gf", "kat3_qq", "sub_qq")
RINGS = [f"gclass.{key}" for key in sorted(GCLASS_RINGS)] + \
    [f"membership.{key}" for key in MEMBERSHIP] + ["qq_denominators", "binomial"]


@pytest.fixture(scope="module")
def standing():
    """The membership workload's standing rings, keyed as its deck keys them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        workloads = pytest.importorskip("workloads")
        return {key: R for key, (R, _, _) in workloads.standing_inputs().items()}


def ring_under_test(name, standing, guard=32):
    """A fresh ring of this name whose normal forms and module bases run
    under guard; its modulus is built at the default guard, past which the
    bases of cyclic-4 and katsura-3 reach."""
    family, _, key = name.partition(".")
    if family == "gclass":
        return gclass_ring(key, guard)
    if family == "membership":
        R = standing[key]
    elif family == "binomial":  # module bases change some of its rows g*e_p
        R = PolyRing(GF(5), ("x", "y")).quotient(["x^2 + x*y", "y^2"])
    else:  # a modulus whose reduced basis has denominators
        R = PolyRing(QQ, ("x", "y")).quotient(["2*x^2 - y", "3*y^3 + x*y"])
    base = PolyRing(R.base.field, R.base.variables, R.base.order, guard)
    return QuotRing(base, Ideal(R.base, R.modulus.generators))


def unmarked_nf(R, f):
    """QuotRing.nf reading and setting no mark: every nonzero f is reduced."""
    if f.ring != R.base:
        raise RingMismatch("variable mismatch with the base ring")
    if f.is_zero() or R.modulus.is_zero():
        return f
    return reduce_poly(f, R.modulus._gb, R.base.degree_guard)


def outcome(fn):
    """fn's result, or the guard trip it raised: a trip is an output too."""
    try:
        return fn()
    except DegreeGuardExceeded as exc:
        return f"trip: {exc}"


def unmarked_outcome(fn):
    """outcome(fn) with QuotRing.nf replaced by unmarked_nf."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuotRing, "nf", unmarked_nf)
        return outcome(fn)


def random_poly(rng, base, high, nterms=3):
    """Up to nterms terms of degree up to high, with nonzero coefficients."""
    field, terms = base.field, {}
    for _ in range(nterms):
        e = [0] * base.nvars
        for _ in range(rng.randint(0, high)):
            e[rng.randrange(base.nvars)] += 1
        terms[tuple(e)] = (field.from_fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
                           if field == QQ else field.from_int(rng.randrange(1, 40000)))
    return base.from_dict(terms)


def unmarked(p):
    return Poly(p.ring, p.terms)


@pytest.mark.parametrize("name", RINGS)
def test_nf_marks_the_plain_reduction_and_returns_a_marked_result_as_it_is(name, standing,
                                                                          monkeypatch):
    R = ring_under_test(name, standing)
    rng = Random(f"marks {name}")
    base = R.base
    results = []
    for _ in range(40):
        f = random_poly(rng, base, 6)
        assert f.mod is None
        g = R.nf(f)
        assert g == unmarked_nf(R, f)
        assert R.nf(g) is g
        assert g.mod is R.modulus or g.is_zero()
        results.append(g)
    # a mark of an equal modulus held by another Ideal, or of another modulus
    # over the same PolyRing, is not trusted: the polynomial is reduced again
    twin = QuotRing(base, Ideal(base, R.modulus.generators))
    larger = QuotRing(base, Ideal(base, list(R.modulus.generators) + [base.gens()[-1]]))
    assert twin == R and twin.modulus is not R.modulus and larger != R
    reduced = []
    monkeypatch.setattr(rings, "reduce_poly", lambda f, gb, guard: reduced.append(gb)
                        or reduce_poly(f, gb, guard))
    nonzero = [g for g in results if not g.is_zero()]
    assert nonzero
    for g in nonzero:
        again = twin.nf(g)
        assert again == g and again is not g and again.mod is twin.modulus
        assert larger.nf(g) == unmarked_nf(larger, g)
    assert reduced == [twin.modulus._gb, larger.modulus._gb] * len(nonzero)
    assert any(larger.nf(g) != g for g in nonzero)


@pytest.mark.parametrize("guard", [4, 32])
@pytest.mark.parametrize("name", RINGS)
def test_unmarked_unreduced_columns_get_the_answers_of_a_normal_form_with_no_marks(
        name, guard, standing):
    # each public constructor and query reduces a caller's column first; on
    # columns with no mark, built from terms up to degree 5 (past guard 4),
    # every answer and every guard trip is the one of unmarked_nf
    R = ring_under_test(name, standing, guard)
    base, rng = R.base, Random(f"columns {name} {guard}")
    rank = 2 if base.nvars > 1 else 1
    gens = [tuple(random_poly(rng, base, 2, 2) for _ in range(rank)) for _ in range(2)]
    member = tuple(sum((random_poly(rng, base, 2, 1) * g[i] for g in gens), base.zero())
                   + random_poly(rng, base, 3, 1) * R.modulus.generators[0] for i in range(rank))
    queries = [member] + [tuple(random_poly(rng, base, 5) for _ in range(rank)) for _ in range(2)]
    builds = {
        "FPModule": lambda c: FPModule(R, rank, c).canonical_relations,
        "SubmoduleOfFree": lambda c: SubmoduleOfFree(R, rank, c).generators,
        "ModuleMap": lambda c: ModuleMap(FPModule.free(R, len(c)), FPModule.free(R, rank),
                                         c).columns,
    }
    for build in builds.values():
        for cols in (gens, queries):
            assert outcome(lambda: build(cols)) == unmarked_outcome(lambda: build(cols))
    M = outcome(lambda: FPModule(R, rank, gens))
    sub = outcome(lambda: SubmoduleOfFree(R, rank, gens))
    asks = [] if isinstance(M, str) else [M.rel_witness, M.rel_span_contains]
    asks += [] if isinstance(sub, str) else [sub.witness, sub.contains_vector]
    for ask in asks:
        for q in queries:
            assert all(p.mod is None for p in q)
            assert outcome(lambda: ask(q)) == unmarked_outcome(lambda: ask(q))
    # the same answers on the normal forms the library marked
    for q in queries:
        marked = outcome(lambda: tuple(map(R.nf, q)))
        if isinstance(marked, str):
            continue
        for ask in asks:
            assert outcome(lambda: ask(marked)) == outcome(
                lambda: ask(tuple(map(unmarked, marked))))


def test_an_entry_above_the_degree_guard_still_trips():
    # x^3*y^3 is reduced to zero by x^2 in one step, which reaches degree 6
    R = gclass_ring("A", 4)
    x = R.poly("x")
    M, sub = FPModule(R, 1, [(x,)]), SubmoduleOfFree(R, 1, [(x,)])
    q = (R.base.poly("x^3*y^3 + y"),)
    asks = [lambda: R.nf(q[0]), lambda: M.rel_witness(q), lambda: M.rel_span_contains(q),
            lambda: sub.witness(q), lambda: sub.contains_vector(q),
            lambda: ModuleMap(FPModule.free(R, 1), M, [q]), lambda: FPModule(R, 1, [q]),
            lambda: SubmoduleOfFree(R, 1, [q])]
    for ask in asks:
        with pytest.raises(DegreeGuardExceeded,
                           match="^normal form: term degree 6 exceeds guard 4$"):
            ask()


@pytest.mark.parametrize("name", RINGS)
def test_library_made_columns_are_not_reduced_again(name, standing, monkeypatch):
    # columns made by nf, mat_vec, a basis read-off and witness carry the
    # mark, and the queries and constructors handed them make no reduction
    # on the modulus's own basis
    R = ring_under_test(name, standing)
    base, rng = R.base, Random(f"pin {name}")
    rank = 2 if base.nvars > 1 else 1
    gens = [tuple(R.nf(random_poly(rng, base, 3, 2)) for _ in range(rank)) for _ in range(3)]
    coeffs = [tuple(R.nf(random_poly(rng, base, 2, 2)) for _ in gens) for _ in range(4)]
    products = [mat_vec(R, gens, c, rank) for c in coeffs]  # members of the span
    canonical, syz = canonical_generators(R, gens), colon_generators(R, gens)
    M, sub = FPModule(R, rank, gens), SubmoduleOfFree(R, rank, gens)
    witnesses = [tuple(sub.witness(col)) for col in products]
    made = [*gens, *coeffs, *products, *canonical, *syz, *witnesses]
    assert syz and all(p.mod is R.modulus for col in made for p in col if p.terms)
    assert all(unmarked_nf(R, p) == p for col in made for p in col)  # each mark is true
    on_modulus = []
    reduce = FreeModuleGB.reduce

    def counting(gb, v, guard, bound=None, **head):
        if gb is R.modulus._gb:
            on_modulus.append(v)
        return reduce(gb, v, guard, bound, **head)

    monkeypatch.setattr(FreeModuleGB, "reduce", counting)
    members = products + list(canonical)
    for col in members:
        assert M.rel_witness(col) is not None and sub.witness(col) is not None
        assert M.rel_span_contains(col) and sub.contains_vector(col)
    mapped = [ModuleMap(FPModule.free(R, len(cols)), FPModule.free(R, len(cols[0])), cols)
              for cols in (members, list(syz), witnesses)]
    rebuilt = FPModule(R, rank, tuple(members))
    assert on_modulus == []
    assert all(p.mod is R.modulus for f in mapped for col in f.columns for p in col if p.terms)
    assert rebuilt.relations == tuple(col for col in members if any(p.terms for p in col))
    # the patch sees a reduction on the modulus's basis: an unmarked copy is reduced
    g = next(p for col in made for p in col if p.terms)
    assert R.nf(unmarked(g)) == g and len(on_modulus) == 1
