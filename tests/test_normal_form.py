"""Columns are held in normal form modulo the ring's modulus.

Every polynomial the module layer hands back is reduced, the normal forms
it no longer recomputes would have changed nothing, and the polynomials
built from terms already in order equal the ones a sort would build.
"""

from pathlib import Path

import pytest

from gproj import (
    GF,
    DegreeGuardExceeded,
    FPModule,
    InputError,
    ModuleMap,
    PolyRing,
    SubmoduleOfFree,
    dual_module,
    ext_module,
    free_resolution,
    g_class_test,
    quotient_by_regular_element,
)
from gproj import modules
from gproj.modules import SubmoduleEngine, canonical_generators, colon_generators, span_engine
from gproj.resolutions import FreeResolution
from gproj.rings import Poly, QuotRing

from helpers import GCLASS_RINGS, gclass_ring

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def unreduced_polys(R):
    """Up to three terms of degree up to 6: past the modulus and past guard 4."""
    base = R.base
    monomial = st.tuples(*[st.integers(0, 4)] * base.nvars).filter(lambda e: sum(e) <= 6)
    coeff = st.integers(1, 6).map(base.field.from_int)
    return st.dictionaries(monomial, coeff, max_size=3).map(base.from_dict)


@st.composite
def unreduced_modules(draw):
    """A gclass ring at guard 4, 6 or 32, a rank, relation columns, a query."""
    R = gclass_ring(draw(st.sampled_from(sorted(GCLASS_RINGS))),
                    draw(st.sampled_from((4, 6, 32))))
    n = draw(st.integers(1, 2))
    column = st.tuples(*[unreduced_polys(R)] * n)
    return R, n, draw(st.lists(column, min_size=1, max_size=3)), draw(column)


def outcome(fn):
    """fn's result, or the guard trip it raised: a trip is an output too."""
    try:
        return fn()
    except DegreeGuardExceeded as exc:
        return f"trip: {exc}"


def polys(x):
    """Every polynomial held anywhere in a result."""
    if isinstance(x, Poly):
        yield x
    elif isinstance(x, FPModule):
        yield from polys((x.relations, x.canonical_relations))
    elif isinstance(x, ModuleMap):
        yield from polys((x.source, x.target, x.columns))
    elif isinstance(x, FreeResolution):
        yield from polys((x.module, x.maps))
    elif isinstance(x, (tuple, list)):  # named tuples too: reports, duals
        for e in x:
            yield from polys(e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(unreduced_modules())
def test_returned_columns_are_in_normal_form(case):
    R, n, cols, _ = case
    M = outcome(lambda: FPModule(R, n, cols))
    if isinstance(M, str):
        return
    R1 = FPModule.free(R, 1)
    results = [M, outcome(lambda: free_resolution(M, 3)), outcome(lambda: dual_module(M)),
               outcome(lambda: ext_module(M, R1, 1)), outcome(lambda: g_class_test(M, 2))]
    for p in polys(results):
        assert R.nf(p) == p


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(unreduced_modules())
def test_unreduced_columns_give_the_answers_of_their_normal_forms(case):
    R, n, cols, query = case

    def nf(column):
        return tuple(R.nf(p) for p in column)

    # the public queries reduce a caller's column first, so they agree on
    # every input, guard trips included
    M = outcome(lambda: FPModule(R, n, cols))
    if not isinstance(M, str):
        for ask in (M.rel_witness, M.rel_span_contains):
            assert outcome(lambda: ask(query)) == outcome(lambda: ask(nf(query)))
    sub = outcome(lambda: SubmoduleOfFree(R, n, cols))
    if not isinstance(sub, str):
        for ask in (sub.witness, sub.contains_vector):
            assert outcome(lambda: ask(query)) == outcome(lambda: ask(nf(query)))
    # the internal builders take held, reduced columns; on unreduced ones
    # they reach the same answer (v - nf(v) lies in the preimage module
    # each basis is built from) but may trip the guard elsewhere
    for build in (lambda c: canonical_generators(R, c), lambda c: span_engine(R, n, c).syzygies()):
        raw = outcome(lambda: build(cols))
        reduced = outcome(lambda: build([nf(c) for c in cols]))
        if not isinstance(raw, str) and not isinstance(reduced, str):
            assert raw == reduced


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS) + ["nonmonomial"])
def test_the_builders_are_handed_reduced_columns(key, monkeypatch):
    # the columns and queries a G-class test hands the engine and
    # canonical_generators, the syzygies an engine reads out of its basis too
    if key == "nonmonomial":
        R = PolyRing(GF(5), ("x", "y")).quotient(["x^2+2*y^2", "x*y-y^2"])
    else:
        R = gclass_ring(key)
    handed = []
    init, witness = SubmoduleEngine.__init__, SubmoduleEngine.witness
    canonical = modules.canonical_generators

    def recording_init(self, R, rank, columns):
        handed.extend(columns)
        init(self, R, rank, columns)

    def recording_witness(self, column):
        handed.append(column)
        return witness(self, column)

    def recording_canonical(R, columns):
        handed.extend(columns)
        return canonical(R, columns)

    monkeypatch.setattr(SubmoduleEngine, "__init__", recording_init)
    monkeypatch.setattr(SubmoduleEngine, "witness", recording_witness)
    monkeypatch.setattr(modules, "canonical_generators", recording_canonical)
    x = R.base.gens()[0]
    g_class_test(FPModule(R, 1, [(v,) for v in R.base.gens()]), 3)
    g_class_test(FPModule(R, 2, [(x, x + R.one()), (x * x, x)]), 2)
    assert handed
    assert all(R.nf(p) == p for column in handed for p in column)


def test_an_unreduced_query_is_reduced_before_the_engine_sees_it():
    # q reduces to zero within guard 4, but reducing q itself against the
    # module basis reaches term degree 5
    R = gclass_ring("E", 4)
    M = FPModule(R, 2, [(R.one(), R.poly("y+1"))])
    sub = SubmoduleOfFree(R, 2, M.relations)
    q = (R.base.poly("y^4+x*y"), R.zero())
    assert M.rel_witness(q) == sub.witness(q) == [R.zero()]
    assert M.rel_span_contains(q) and sub.contains_vector(q)


def test_ordered_builds_equal_sorted_builds(monkeypatch, tmp_path):
    # on the seeded inputs of two benchmark workloads, every polynomial made
    # anywhere has the terms from_dict would give it
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = pytest.importorskip("workloads")
    init = Poly.__init__
    unordered, busy = [], []

    def checked_init(self, ring, terms, mod=None):
        init(self, ring, terms, mod)
        if not busy:
            busy.append(None)
            try:
                if ring.from_dict(dict(terms)).terms != tuple(terms):
                    unordered.append(terms)
            finally:
                busy.pop()

    monkeypatch.setattr(Poly, "__init__", checked_init)
    for build in (workloads.build_ideal_gb, workloads.build_membership):
        deck = build(1, tmp_path)
        for op in deck.rounds[0]:
            op.check(op.run())
    # the decks' modules have monomial entries only; this one's are sums
    _, _, sub = workloads.standing_inputs()["sub_qq"]
    sub.as_fpmodule()
    assert not unordered


# ----- columns read off a basis are not reduced again -----

@pytest.mark.parametrize("key", ["A", "chain4", "D"])
def test_columns_read_off_a_basis_over_the_same_ring_skip_normal_form(key, monkeypatch):
    # monomial moduli: building on the columns reads no changed modulus row,
    # so every nf call counted is one of the columns handed in
    R = gclass_ring(key)
    x, y = R.poly("x"), R.nf(R.base.gens()[-1])
    kernel = colon_generators(R, [(x,), (x * y,), (y * y,)])
    syz = colon_generators(R, kernel)
    assert kernel and syz and kernel.ring is syz.ring is R
    calls, nf = [], QuotRing.nf
    monkeypatch.setattr(QuotRing, "nf", lambda R, f: calls.append(f) or nf(R, f))
    built = [FPModule(R, len(kernel), syz), SubmoduleOfFree(R, 3, kernel)]
    assert not calls
    assert built[0].relations is syz and built[1].generators is kernel
    # the same columns as a plain tuple, or over an equal but distinct ring,
    # are normalized as any caller's columns are: one nf per nonzero entry
    twin = gclass_ring(key)
    assert twin == R and twin is not R
    entries = sum(not p.is_zero() for col in kernel for p in col)
    for ring, cols in ((R, tuple(kernel)), (twin, kernel)):
        calls.clear()
        sub = SubmoduleOfFree(ring, 3, cols)
        assert len(calls) == entries and sub.generators == kernel
    with pytest.raises(InputError, match="generator length"):
        SubmoduleOfFree(R, 2, kernel)
    with pytest.raises(InputError, match="relation column length"):
        FPModule(R, len(kernel) + 1, syz)


def test_a_module_moved_to_a_quotient_ring_is_reduced_there():
    # M's relations were read off a basis over R: over R/(y) they are not
    # reduced, and the moved module holds their normal forms
    R = PolyRing(GF(5), ("x", "y")).quotient(["x^3"])
    x, y = R.poly("x"), R.poly("y")
    rels = colon_generators(R, [(x * x,), (y,)])
    assert rels.ring is R
    Q = quotient_by_regular_element(FPModule(R, 2, rels), y)
    assert Q.ring != R and any(Q.ring.nf(p) != p for col in rels for p in col)
    assert Q.relations == tuple(
        c for c in (tuple(Q.ring.nf(p) for p in col) for col in rels)
        if any(not p.is_zero() for p in c))
    assert all(Q.ring.nf(p) == p for col in Q.relations for p in col)
