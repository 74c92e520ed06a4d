"""Property tests: the reduced Groebner basis is a function of the ideal alone."""

import pytest

from gproj import GF, PolyRing, groebner_basis
from gproj.rings import Ideal

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIELD = GF(101)


@st.composite
def ideals(draw):
    """A ring in 2-3 variables and 1-4 generators of degree at most 3.

    Lex only in 2 variables: in 3, lex computations on such ideals can run
    past the default degree guard (term degree 33 was seen).
    """
    nvars = draw(st.integers(2, 3))
    order = draw(st.sampled_from(["grevlex", "lex"])) if nvars == 2 else "grevlex"
    ring = PolyRing(FIELD, [f"x{i}" for i in range(nvars)], order)
    monomial = st.tuples(*[st.integers(0, 3)] * nvars).filter(lambda e: sum(e) <= 3)
    poly = st.dictionaries(monomial, st.integers(1, FIELD.p - 1), min_size=1, max_size=4)
    gens = [ring.from_dict(d) for d in draw(st.lists(poly, min_size=1, max_size=4))]
    return ring, gens


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ideals(), st.data())
def test_basis_depends_only_on_the_ideal(case, data):
    ring, gens = case
    gb = groebner_basis(gens, ring)
    ideal = Ideal(ring, gb)
    assert ideal.reduced_gb == gb  # a reduced basis is its own
    assert all(ideal.contains(g) for g in gens)
    shuffled = data.draw(st.permutations(gens))
    combination = ring.zero()
    for g in gens:
        c = data.draw(st.integers(0, FIELD.p - 1))
        v = data.draw(st.sampled_from((None,) + ring.variables))
        combination = combination + g * (ring.constant(c) if v is None else ring.var(v))
    assert groebner_basis(shuffled + [combination], ring) == gb
    assert groebner_basis(shuffled, ring) == gb
