"""A finished basis remembers, per packed term, the first reducer whose lead
divides it (`FreeModuleGB._reducer`). The memo must give the reducer a scan
would pick, so every normal form, witness, matrix product and guard trip is
the one a basis with no memo gives, on the first query and on a repeated one.
"""

import sys
import threading
from copy import copy
from pathlib import Path
from random import Random

from gproj import GF, QQ, DegreeGuardExceeded, PolyRing, g_class_test
from gproj import rings
from gproj.cli import parse_model_file
from gproj.modules import SubmoduleEngine, mat_vec
from gproj.rings import FreeModuleGB, _divisor, _dot, reduce_poly

GOLDEN = Path(__file__).parent / "golden"


class Scanning(FreeModuleGB):
    """A basis that remembers nothing: every term scans its reducers."""

    def _reducer(self, m):
        return _divisor(m, self._index.get(m >> self._layout.pshift, ()), self._layout.guards)


def scanning(gb: FreeModuleGB) -> FreeModuleGB:
    """The basis gb, read with no memo."""
    ref = copy(gb)
    ref.__class__, ref._memo = Scanning, {}
    return ref


def outcome(fn):
    """fn's result, or the guard trip it raised: a trip is an output too."""
    try:
        return fn()
    except DegreeGuardExceeded as exc:
        return f"trip: {exc}"


def random_poly(rng, base, low, high, nterms):
    field, terms = base.field, {}
    for _ in range(nterms):
        e = [0] * base.nvars
        for _ in range(rng.randint(low, high)):
            e[rng.randrange(base.nvars)] += 1
        terms[tuple(e)] = (field.from_fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           if field == QQ else rng.randrange(1, 40000))
    return base.from_dict(terms)


def random_quotient(rng):
    """A quotient of 2-3 variables over GF(2), GF(7), GF(32003) or QQ, lex or
    grevlex, at guard 6, 10 or 32, by 1-3 generators of degree 2-3 whose
    basis does not trip its guard."""
    while True:
        base = PolyRing(rng.choice([GF(2), GF(7), GF(32003), QQ]),
                        [f"x{i}" for i in range(rng.randint(2, 3))],
                        rng.choice(["lex", "grevlex"]), rng.choice([6, 10, 32]))
        gens = [random_poly(rng, base, 2, 3, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        try:
            R = base.quotient(gens)
        except DegreeGuardExceeded:
            continue
        if not R.modulus.is_zero() and not R.modulus.contains_one():
            return R


def test_sixty_rings_match_a_basis_with_no_memo():
    # each query is asked twice, so the second reads what the first remembered;
    # queries of degree up to 10 trip guards 6 and 10 on many of the rings
    rng = Random(35)
    results = trips = remembered = 0
    for _ in range(60):
        R = random_quotient(rng)
        base, gb = R.base, R.modulus._gb
        ref = scanning(gb)
        queries = [random_poly(rng, base, 0, 10, rng.randint(1, 4)) for _ in range(20)]
        for f in queries + queries:
            got = outcome(lambda: R.nf(f))
            assert got == outcome(lambda: reduce_poly(f, ref, base.degree_guard)), (R, f)
            results += 1
            trips += isinstance(got, str)
        # the rows of a matrix product are reduced by the same loop
        cols = [tuple(queries[2 * j + i] for i in range(2)) for j in range(3)]
        vec = queries[6:9]
        for _ in range(2):
            got = outcome(lambda: mat_vec(R, cols, vec, 2))
            assert got == outcome(lambda: _dot(base, cols, vec, 2, ref))
        # witnesses on a module engine, whose basis has its own memo
        rank = rng.randint(1, 2)
        columns = [tuple(random_poly(rng, base, 0, 2, 2) for _ in range(rank))
                   for _ in range(rng.randint(1, 2))]
        asks = [tuple(random_poly(rng, base, 0, 3, 2) for _ in range(rank)) for _ in range(4)]
        asks.append(tuple(sum((c[i] * base.var("x0") for c in columns), base.zero())
                          for i in range(rank)))  # a member
        try:  # columns and queries are asked in normal form
            columns, asks = ([tuple(map(R.nf, c)) for c in cs] for cs in (columns, asks))
            engine = SubmoduleEngine(R, rank, columns)
        except DegreeGuardExceeded:
            continue
        plain = copy(engine)
        plain.gb = scanning(engine.gb)
        for col in asks + asks:
            got = outcome(lambda: engine.witness(col))
            assert got == outcome(lambda: plain.witness(col)), (R, columns, col)
            results += 1
            trips += isinstance(got, str)
        remembered += len(gb._memo) + len(engine.gb._memo)
    assert results > 2500 and trips > 500 and remembered > 0


def test_a_repeated_query_adds_no_entry():
    base = PolyRing(GF(7), ("x", "y", "z"))
    R = base.quotient(["x^2 - y*z", "y^3 + x", "x*z^2"])
    memo = R.modulus._gb._memo
    f = base.poly("x^4*y + 3*x*y^2*z + y^5 + z^3 + 2")
    first = R.nf(f)
    seen = dict(memo)
    assert seen and R.nf(f) == first and memo == seen
    engine = SubmoduleEngine(R, 2, [(R.poly("x"), R.poly("y")), (R.poly("z"), R.poly("x*y"))])
    col = (R.poly("x*z + x^2"), R.poly("y*z + x*y^2"))
    first = engine.witness(col)
    seen = dict(engine.gb._memo)
    assert first is not None and engine.witness(col) == first and engine.gb._memo == seen


def test_memo_serves_the_reduced_index():
    # interreduction remembers reducers of the minimal basis, here x - y^7 for
    # the tail term x*y of z - x*y; the finished basis starts a memo of its own,
    # so every entry is a reducer of the reduced index
    base = PolyRing(GF(7), ("z", "x", "y"), "lex")
    R = base.quotient(["z - x*y", "x - y^7", "y^3 - 1"])
    gb = R.modulus._gb
    assert R.modulus.reduced_gb == tuple(map(base.poly, ("z - y^2", "x - y", "y^3 - 1")))
    assert gb._memo == {}
    assert R.nf(base.poly("x*y + z^2 + y^5")) == base.poly("2*y^2 + y")
    assert gb._memo and all(g is None or any(g is h for h in gb._index[0])
                            for g in gb._memo.values())


def test_repacked_copy_keeps_its_own_memo():
    # y^(cap + 1) is irreducible and wider than the basis's layout, so the
    # query is reduced on a repacked copy, whose terms are packed otherwise
    base = PolyRing(GF(5), ("x", "y"))
    R = base.quotient(["x^2", "x*y"])
    gb = R.modulus._gb
    small = base.poly("x^3 + x*y + y^2 + x")
    assert R.nf(small) == base.poly("y^2 + x")
    seen = dict(gb._memo)
    cap = gb._layout.cap
    wide = base.poly(f"y^{cap + 1} + x^2*y + x + 1")
    assert gb._holding(cap + 1)._memo is not gb._memo
    assert R.nf(wide) == base.poly(f"y^{cap + 1} + x + 1")
    assert gb._memo == seen  # the copy wrote nothing into its parent's memo
    assert R.nf(small) == base.poly("y^2 + x")
    assert R.nf(wide) == base.poly(f"y^{cap + 1} + x + 1")


def test_memo_is_cleared_at_its_bound(monkeypatch):
    assert rings._MEMO_SIZE == 1 << 16
    monkeypatch.setattr(rings, "_MEMO_SIZE", 8)
    rng = Random(3)
    base = PolyRing(GF(32003), ("x", "y", "z"))
    R = base.quotient(["x^2 + y*z", "y^2 - x*z", "z^3"])
    gb = R.modulus._gb
    ref = scanning(gb)
    for _ in range(40):
        f = random_poly(rng, base, 0, 6, 4)
        assert R.nf(f) == reduce_poly(f, ref, base.degree_guard)
        assert 0 < len(gb._memo) <= 8


def test_two_threads_get_single_thread_results():
    rng = Random(11)

    def ring():
        base = PolyRing(QQ, ("x", "y", "z"), "grevlex", 10)
        return base.quotient(["x^2 - y*z + 1", "y^2 + x*z", "z^2*x - y"])

    base = ring().base
    queries = [random_poly(rng, base, 0, 7, 4) for _ in range(60)]
    single = ring()
    want = [outcome(lambda: single.nf(f)) for f in queries]
    shared = ring()  # a fresh basis: both threads meet every term first
    got = [None, None]

    def work(k):
        order = queries if k == 0 else queries[::-1]
        got[k] = [outcome(lambda: shared.nf(f)) for f in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside the loop
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert got[0] == want and got[1] == want[::-1]


def test_guard_trip_message_is_unchanged_on_a_warm_memo():
    # the golden case `gclass kB --depth 1 --degree-guard 3` of gclass_fail;
    # the second test reads the ring basis the first left remembered
    model = parse_model_file((GOLDEN / "gclass_fail.model").read_text(), degree_guard=3)
    kB = model.modules["kB"]
    for _ in range(2):
        assert outcome(lambda: g_class_test(kB, 1)) == (
            "trip: normal form: term degree 4 exceeds guard 3")
    assert kB.ring.modulus._gb._memo
