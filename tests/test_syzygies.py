"""Syzygies are read off the engine's graph basis, with no second basis.

By POT elimination the elements of the reduced graph basis led in the tag
block are the reduced basis of the syzygy preimage {s : sum s_j*col_j in
I*P^rank}. So the read-off must equal what a second build of that basis
gives, be a fixed point of `canonical_generators`, hold every polynomial in
normal form and, over finite rings, span the brute-force kernel.
"""

import random

import pytest

from gproj import GF, QQ, FPModule, Poly, PolyRing, free_resolution, modules, polynomial_ring
from gproj.errors import DegreeGuardExceeded
from gproj.modules import SubmoduleEngine, _column_to_vec, canonical_generators, transpose
from gproj.rings import FreeModuleGB, QuotRing

from helpers import (GCLASS_RINGS, gclass_ring, random_module, random_submodule,
                     reference_read_off, ring_elements, span_of_columns, vector_space)

RINGS = {
    **{key: (lambda key=key: gclass_ring(key)) for key in GCLASS_RINGS},
    "QQ[x]": lambda: polynomial_ring(QQ, ("x",)),
    "zero ring": lambda: PolyRing(GF(2), ("x",)).quotient(["1"]),
}


def random_poly(R, rng):
    """A reduced polynomial of up to three terms of degree up to 3."""
    base = R.base
    terms = {tuple(rng.randrange(4) for _ in range(base.nvars)): rng.randrange(-3, 4)
             for _ in range(rng.randrange(4))}
    return R.nf(base.from_dict({e: c for e, c in terms.items() if sum(e) <= 3}))


def random_matrices(R, seed, count, max_columns=3):
    """count (rank, columns) pairs: rank 1 or 2, 1 to max_columns columns."""
    rng = random.Random(seed)
    for _ in range(count):
        rank, m = rng.randrange(1, 3), rng.randrange(1, max_columns + 1)
        yield rank, [tuple(random_poly(R, rng) for _ in range(rank)) for _ in range(m)]


def tag_rows(eng, keep):
    """The graph-basis elements led in the tag block whose lead keep accepts,
    shifted into R^m and split into columns."""
    R, rank = eng.R, eng.rank
    rows = []
    for b in eng.gb.basis:
        pos, lead = next(iter(b))
        if pos >= rank and keep(lead):
            rows.append(tuple(R.base.from_dict({e: c for (p, e), c in b.items() if p == rank + j})
                              for j in range(eng.m)))
    return rows


def modulus_leads(R):
    return {g.lead_monomial() for g in R.modulus.reduced_gb}


@pytest.mark.parametrize("key", sorted(RINGS))
def test_read_off_syzygies_equal_a_second_basis(key):
    R = RINGS[key]()
    leads = modulus_leads(R)
    for rank, cols in random_matrices(R, seed=len(key), count=6):
        eng = SubmoduleEngine(R, rank, cols)
        syz = eng.syzygies()
        # the route a second basis takes: the rows not led by a modulus
        # lead, handed to canonical_generators
        assert syz == canonical_generators(R, tag_rows(eng, lambda t: t not in leads))
        assert canonical_generators(R, syz) == syz
        assert all(R.nf(p) == p for col in syz for p in col)
        if key == "zero ring":
            assert syz == ()


# at most 512 vectors in R^m; B's 256 elements give one matrix, as a zero
# column there makes the span enumeration take seconds
@pytest.mark.parametrize("key, max_columns, count",
                         [("A", 2, 3), ("B", 1, 1), ("E", 3, 3), ("chain5", 1, 3)])
def test_read_off_syzygies_span_the_brute_force_kernel(key, max_columns, count):
    R = gclass_ring(key)
    elements = ring_elements(R)
    for rank, cols in random_matrices(R, seed=11, count=count, max_columns=max_columns):
        zero = (R.zero(),) * rank

        def image(s):
            acc = zero
            for sj, col in zip(s, cols):
                acc = tuple(R.add(a, R.mul(sj, c)) for a, c in zip(acc, col))
            return acc

        kernel = {s for s in vector_space(R, len(cols), elements) if image(s) == zero}
        syz = SubmoduleEngine(R, rank, cols).syzygies()
        assert span_of_columns(R, len(cols), syz, elements) == kernel


def changed_rows(eng):
    """The modulus-led reducers of eng's basis in the tag block that
    interreduction changed, each as (packed lead, tail)."""
    gb, leads = eng.gb, modulus_leads(eng.R)
    return [(lead, tail) for pos, reducers in gb._index.items() if pos >= eng.rank
            for lead, tail, _, _ in reducers
            if gb._layout.unpack(lead)[1] in leads and lead not in gb._fixed]


@pytest.mark.parametrize("columns", [["x", "y"], ["1", "x"], ["x*y", "x+y", "1"]])
def test_syzygies_build_no_basis_and_reduce_only_modulus_led_rows(count_calls, columns):
    # only the modulus rows g*e_p that interreduction changed are put in
    # normal form; over the monomial modulus of A it changes none, so the
    # read-off makes no normal form, where it made one per nonzero entry of
    # every modulus-led row
    R = gclass_ring("A")
    cols = [(R.poly(c),) for c in columns]
    built, fresh = SubmoduleEngine(R, 1, cols), SubmoduleEngine(R, 1, cols)
    _, builds = count_calls(FreeModuleGB, "__init__", built.syzygies)
    _, calls = count_calls(QuotRing, "nf", fresh.syzygies)
    assert builds == 0 and tag_rows(built, lambda t: t in modulus_leads(R))
    assert changed_rows(built) == [] and calls == 0


def test_read_off_of_the_a_graph_basis_builds_no_column_for_a_modulus_row():
    # the engine of d_3 in the resolution of the residue field over A: every
    # modulus row it places is g*e_p itself, so the read-off unpacks only
    # the other tag-block reducers, one Poly per entry of each column
    R = gclass_ring("A")
    res = free_resolution(FPModule(R, 1, [(g,) for g in R.base.gens()]), 3)
    columns = list(res.maps[2])
    eng = SubmoduleEngine(R, len(columns[0]), columns)
    leads = modulus_leads(R)
    tag = [b for b in eng.gb.basis if next(iter(b))[0] >= eng.rank]
    rows = sum(next(iter(b))[1] in leads for b in tag)
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "Poly", lambda *a: built.append(a) or Poly(*a))
        syz = eng.syzygies()
    assert rows and len(built) == eng.m * (len(tag) - rows)
    assert syz == reference_read_off(R, eng.gb, eng.rank, eng.m)


def _outcome(fn):
    """fn()'s value, or the message of the guard trip it raised."""
    try:
        return fn()
    except DegreeGuardExceeded as exc:
        return str(exc)


def _both_read_offs(R, rank, columns, seen):
    """(library, reference): the syzygies and canonical generators of the
    columns by the library's read-off and by the plain one, each a value or
    a guard-trip message; seen[0] counts the changed modulus rows met."""
    def library():
        return (SubmoduleEngine(R, rank, columns).syzygies(),
                canonical_generators(R, columns))

    def reference():
        eng = SubmoduleEngine(R, rank, columns)
        seen[0] += len(changed_rows(eng))
        vectors = [v for v in map(_column_to_vec, columns) if v]
        canon = () if not vectors and R.modulus.is_zero() else reference_read_off(
            R, FreeModuleGB(R.base, rank, vectors, R.modulus.reduced_gb), 0, rank)
        return reference_read_off(R, eng.gb, rank, eng.m), canon

    return _outcome(library), _outcome(reference)


def test_read_off_matches_a_plain_read_off_on_random_submodules():
    # GF(2), GF(7), GF(32003) and QQ, lex and grevlex, guards 4-32, with a
    # modulus that is mostly not monomial, so that interreduction changes
    # some of the modulus rows a basis places; a trip must name the same
    # degree on both routes
    seen, trips = [0], 0
    for k in range(400):
        ring, rank, vectors, modulus = random_submodule(random.Random(k))

        def reduced_columns():
            R = ring.quotient(modulus)
            return R, [tuple(R.nf(ring.from_dict({e: c for (p, e), c in v.items() if p == i}))
                             for i in range(rank)) for v in vectors]

        built = _outcome(reduced_columns)
        if isinstance(built, str):  # the modulus or a column trips first
            trips += 1
            continue
        library, reference = _both_read_offs(built[0], rank, built[1], seen)
        assert library == reference, k
        trips += isinstance(library, str)
    assert seen[0] > 0 and trips < 100


@pytest.mark.parametrize("key", sorted(GCLASS_RINGS) + ["binomial"])
def test_read_off_matches_a_plain_read_off_on_random_modules(key):
    # the relations of random modules and their transposes, over each gclass
    # ring and over GF(5)[x,y]/(x^2 + x*y, y^2), whose binomial modulus has
    # rows that interreduction changes
    R = (PolyRing(GF(5), ("x", "y")).quotient(["x^2 + x*y", "y^2"]) if key == "binomial"
         else gclass_ring(key))
    rng, seen = random.Random(len(key)), [0]
    for _ in range(8):
        M = random_module(R, rng)
        cols = M.canonical_relations
        for rank, columns in ((M.ngens, cols), (len(cols), transpose(cols, M.ngens))):
            library, reference = _both_read_offs(R, rank, list(columns), seen)
            assert library == reference
    assert seen[0] > 0 or key != "binomial"


def test_a_guard_trip_only_the_second_basis_reached_is_gone():
    # over GF(5)[x]/(x^4) the graph basis of (x), (x^3 + x + 1) stays within
    # degree 6, and only a second build of its syzygy basis passed it
    def syzygies(guard):
        R = gclass_ring("chain4", guard)
        return SubmoduleEngine(R, 1, [(R.poly("x"),), (R.poly("x^3 + x + 1"),)]).syzygies()

    assert syzygies(6) == syzygies(32)
