"""The per-call span cache: scoped to one top-level call, started with what
its module arguments own and otherwise never shared across calls or threads,
keyed on the degree guard, and invisible in every output."""

import random
import sys
import threading

import pytest

from gproj import (
    GF,
    DegreeGuardExceeded,
    FPModule,
    ModuleMap,
    Poly,
    PolyRing,
    complete_resolution_check,
    euler_class,
    ext_module,
    free_resolution,
    g_class_test,
    gpd_bounded,
    horseshoe_resolution,
    pd_bounded,
    verify_short_exact,
)
from gproj import modules
from gproj.modules import (Matrix, SubmoduleEngine, canonical_generators, span_engine,
                           span_scope)
from gproj.rings import FreeModuleGB

from helpers import GCLASS_RINGS as RINGS, gclass_ring as ring, random_module

def residue_field(R):
    return FPModule(R, 1, [(v,) for v in R.base.gens()])


def principal(R, text):
    return FPModule(R, 1, [(R.poly(text),)])


def canon(x) -> str:
    """Every presentation, matrix and verdict in a result, as one string."""
    def walk(v):
        if isinstance(v, FPModule):
            return ("FPModule", v.ngens, walk(v.canonical_relations))
        if isinstance(v, ModuleMap):
            return ("ModuleMap", walk(v.source), walk(v.target), walk(v.columns))
        if isinstance(v, tuple):  # named tuples keep their type name
            return (type(v).__name__,) + tuple(walk(e) for e in v)
        return repr(v)
    return repr(walk(x))


def outcome(fn, *args) -> str:
    try:
        return canon(fn(*(a() if callable(a) else a for a in args)))
    except Exception as exc:  # a trip or a rejection is an output too
        return f"{type(exc).__name__}: {exc}"


def test_second_identical_call_builds_as_many_bases(count_calls):
    M = residue_field(ring("A"))
    first, n1 = count_calls(FreeModuleGB, "__init__", g_class_test, M, 4)
    second, n2 = count_calls(FreeModuleGB, "__init__", g_class_test, M, 4)
    assert n1 == n2 > 0
    assert canon(first) == canon(second)
    assert modules._SPANS.get() is None


def test_scope_is_cleared_after_a_guard_trip():
    # the modulus x^5 passes guard 4, but building R and k makes no product:
    # x^5 reduced by x, which has no tail, is only cancelled; the trip comes
    # inside the G-class test
    M = residue_field(ring("chain5", guard=4))
    with pytest.raises(DegreeGuardExceeded):
        g_class_test(M, 3)
    assert modules._SPANS.get() is None


def test_lower_guard_copy_of_the_ring_still_trips_in_one_scope():
    high = PolyRing(GF(2), ("x", "y"), degree_guard=8).quotient([])
    low = PolyRing(GF(2), ("x", "y"), degree_guard=3).quotient([])
    assert high == low  # ring equality ignores the guard

    def columns(R):  # reduced, of degree 3; their reduced basis holds y^4
        return [(R.poly("x^2*y"),), (R.poly("x^3+y^3"),)]

    assert [str(c[0]) for c in canonical_generators(high, columns(high))] == [
        "y^4", "x^3+y^3", "x^2*y"]

    @span_scope
    def both():
        for build in (lambda R, cols: span_engine(R, 1, cols), canonical_generators):
            build(high, columns(high))
            with pytest.raises(DegreeGuardExceeded):
                build(low, columns(low))

    both()


def test_threads_match_serial_runs():
    # more threads than cores, switching often: each call keeps its own cache
    jobs = [(residue_field(ring("A")), 6), (principal(ring("chain4"), "x^2"), 6),
            (residue_field(ring("E")), 2), (principal(ring("D"), "y"), 4)]
    serial = [canon(g_class_test(M, d)) for M, d in jobs]
    barrier = threading.Barrier(len(jobs))
    got = {}

    def worker(j):
        barrier.wait()
        got[j] = [canon(g_class_test(*jobs[j])) for _ in range(2)]

    threads = [threading.Thread(target=worker, args=(j,)) for j in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert [got[j] for j in range(len(jobs))] == [[c, c] for c in serial]


class _NoSpans:
    """Stands in for the span cache variable: no scope ever opens."""

    def get(self):
        return None

    def set(self, value):
        return None

    def reset(self, token):
        pass


@pytest.mark.parametrize("key", sorted(RINGS))
def test_outputs_identical_with_the_scope_off(key, monkeypatch):
    # every route and every guard trip is the same whether or not bases are
    # shared within a call: the cache only skips deterministic rebuilds
    def run_all():
        out = []
        for guard in (4, 6, 8):
            R = ring(key, guard)
            # modules are built inside `outcome`, since building one may trip
            k, x = (lambda: residue_field(R)), (lambda: principal(R, "x"))
            out += [outcome(g_class_test, k, 2), outcome(g_class_test, x, 2),
                    outcome(gpd_bounded, k, 1, 2),
                    outcome(complete_resolution_check, k, 2),
                    outcome(complete_resolution_check, x, 2),
                    outcome(complete_resolution_check, lambda: FPModule.free(R, 1), 2)]
        return out

    scoped = run_all()
    monkeypatch.setattr(modules, "_SPANS", _NoSpans())
    assert run_all() == scoped


def test_a_canonical_set_is_its_own_canonical_set_in_a_scope(count_calls):
    # reduced bases are unique, so what canonical_generators or an engine's
    # syzygies return is cached as its own canonical set: a module presented
    # on it builds no second basis, within the scope only
    R = ring("A")
    x, y = R.poly("x"), R.poly("y")
    cols = [(x, y), (y, x), (x * y, R.zero())]

    @span_scope
    def rebuild():
        canonical = canonical_generators(R, cols)
        syzygies = span_engine(R, 2, cols).syzygies()
        again = [count_calls(FreeModuleGB, "__init__", canonical_generators, R, list(c))
                 for c in (canonical, syzygies)]
        return canonical, syzygies, again

    canonical, syzygies, again = rebuild()
    assert canonical and syzygies
    assert again == [(canonical, 0), (syzygies, 0)]
    rebuilt = count_calls(FreeModuleGB, "__init__", canonical_generators, R, canonical)
    assert rebuilt == (canonical, 1)


# ----- a scope starts with what its module arguments own -----

def module_outputs(M) -> list:
    """The verdicts, resolution report and Ext presentations of M, each call
    its own top-level call; a trip or a rejection is an output too."""
    def present(ext):
        rels = [[str(p) for p in col] for col in ext.module.canonical_relations]
        return ext.i, ext.is_zero, ext.module.ngens, rels

    return [outcome(call) for call in (
        lambda: g_class_test(M, 3).verdict_str(),
        lambda: str(pd_bounded(M, 3)),
        lambda: free_resolution(M, 3).report_lines(),
        lambda: present(ext_module(M, FPModule.free(M.ring, 1), 1)),
        lambda: present(ext_module(M, N=M, i=2)))]


@pytest.mark.parametrize("key", sorted(RINGS))
def test_module_built_outside_the_call_gives_the_outputs_built_inside(key):
    # outside: M's engine, canonical relations and syzygies seed each call's
    # cache; inside: M is built in the scope, whose calls join it unseeded
    R = ring(key)
    for seed in range(3):
        M = random_module(R, random.Random(seed))
        outside, again = module_outputs(M), module_outputs(M)

        @span_scope
        def inside():
            return module_outputs(random_module(R, random.Random(seed)))

        assert outside == again == inside()


def test_no_engine_is_built_on_a_module_argument_s_relations(monkeypatch):
    built = []
    init = SubmoduleEngine.__init__

    def recording(self, R, rank, columns):
        built.append((rank, tuple(columns)))
        init(self, R, rank, columns)

    R = ring("A")
    M = random_module(R, random.Random(4))
    M.rel_span_contains((R.zero(),) * M.ngens)
    monkeypatch.setattr(SubmoduleEngine, "__init__", recording)
    for call in (lambda: g_class_test(M, 3), lambda: pd_bounded(M, 3),
                 lambda: free_resolution(M, 3), lambda: euler_class(M, 3),
                 lambda: ext_module(M, M, 1), lambda: gpd_bounded(M, 1, 3)):
        call()
    assert built and (M.ngens, M.canonical_relations) not in built


def test_a_zero_module_with_a_deferred_engine_passes_through_a_scoped_call():
    R = ring("E")
    Z = FPModule.zero(R, 2)
    assert Z._span is None
    built = FPModule(R, 2, Z.relations)
    expected = [canon(fn(built, 2)) for fn in (g_class_test, pd_bounded)]
    assert [canon(fn(Z, 2)) for fn in (g_class_test, pd_bounded)] == expected
    assert Z.is_zero() and Z._span is not None  # asked now, so it seeds
    assert [canon(fn(Z, 2)) for fn in (g_class_test, pd_bounded)] == expected


def test_threads_on_one_module_built_outside_match_a_serial_run():
    M = residue_field(ring("B"))
    serial = canon(g_class_test(M, 4)), canon(pd_bounded(M, 4))
    barrier = threading.Barrier(4)
    got = {}

    def worker(j):
        barrier.wait()
        got[j] = canon(g_class_test(M, 4)), canon(pd_bounded(M, 4))

    threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert [got[j] for j in range(4)] == [serial] * 4


# ----- matrices hash once -----

def test_a_matrix_is_its_tuple_as_a_key(monkeypatch):
    R = ring("A")
    x, y = R.poly("x"), R.poly("y")
    cols = ((x, y), (y, R.zero()))
    m = Matrix(cols)
    assert m == cols and cols == m and hash(m) == hash(cols)
    assert {cols: 1}[m] == 1 and {m: 2}[cols] == 2
    calls = []
    poly_hash = Poly.__hash__

    def counting(p):
        calls.append(p)
        return poly_hash(p)

    monkeypatch.setattr(Poly, "__hash__", counting)
    assert hash(Matrix(cols)) == hash(cols) and calls
    calls.clear()
    hash(m)
    assert not calls


def test_a_map_argument_seeds_its_source_and_target(monkeypatch):
    # 0 -> (x) -> R -> R/(x) -> 0 over GF(5)[x]/(x^4), (x) = R/(x^3), each
    # module and map built before the call
    def sequence():
        R = ring("chain4")
        x = R.poly("x")
        A, B, C = FPModule(R, 1, [(x ** 3,)]), FPModule.free(R, 1), FPModule(R, 1, [(x,)])
        return ModuleMap(A, B, [(x,)]), ModuleMap(B, C, [(R.one(),)])

    @span_scope
    def inside(call, *args):  # every module built in the scope: nothing seeded
        return canon(call(*sequence(), *args))

    expected = [inside(verify_short_exact), inside(horseshoe_resolution, 5)]
    built = []
    init = SubmoduleEngine.__init__

    def recording(self, R, rank, columns):
        built.append((rank, tuple(columns)))
        init(self, R, rank, columns)

    incl, proj = sequence()
    owned = {(M.ngens, M.canonical_relations) for M in (incl.source, incl.target, proj.target)}
    monkeypatch.setattr(SubmoduleEngine, "__init__", recording)
    got = [canon(verify_short_exact(incl, proj))]
    assert len(built) == 1  # incl's image
    got.append(canon(horseshoe_resolution(incl, proj, 5)))
    assert got == expected
    assert len(built) == 1 + 3 and not owned & set(built)
