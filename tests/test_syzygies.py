"""Syzygies are read off the engine's graph basis, with no second basis.

By POT elimination the elements of the reduced graph basis led in the tag
block are the reduced basis of the syzygy preimage {s : sum s_j*col_j in
I*P^rank}. So the read-off must equal what a second build of that basis
gives, be a fixed point of `canonical_generators`, hold every polynomial in
normal form and, over finite rings, span the brute-force kernel.
"""

import random

import pytest

from gproj import GF, QQ, PolyRing, polynomial_ring
from gproj.modules import SubmoduleEngine, canonical_generators
from gproj.rings import FreeModuleGB, QuotRing

from helpers import GCLASS_RINGS, gclass_ring, ring_elements, span_of_columns, vector_space

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
        assert syz == canonical_generators(R, eng.m, tag_rows(eng, lambda t: t not in leads))
        assert canonical_generators(R, eng.m, syz) == syz
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


@pytest.mark.parametrize("columns", [["x", "y"], ["1", "x"], ["x*y", "x+y", "1"]])
def test_syzygies_build_no_basis_and_reduce_only_modulus_led_rows(count_calls, columns):
    R = gclass_ring("A")
    cols = [(R.poly(c),) for c in columns]
    built, fresh = SubmoduleEngine(R, 1, cols), SubmoduleEngine(R, 1, cols)
    _, builds = count_calls(FreeModuleGB, "__init__", built.syzygies)
    _, calls = count_calls(QuotRing, "nf", fresh.syzygies)
    led = tag_rows(built, lambda t: t in modulus_leads(R))
    assert builds == 0 and led
    assert calls == sum(not p.is_zero() for row in led for p in row)


def test_a_guard_trip_only_the_second_basis_reached_is_gone():
    # over GF(5)[x]/(x^4) the graph basis of (x), (x^3 + x + 1) stays within
    # degree 6, and only a second build of its syzygy basis passed it
    def syzygies(guard):
        R = gclass_ring("chain4", guard)
        return SubmoduleEngine(R, 1, [(R.poly("x"),), (R.poly("x^3 + x + 1"),)]).syzygies()

    assert syzygies(6) == syzygies(32)
