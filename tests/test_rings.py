import hashlib
import json
import random
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path

import pytest

from gproj import (
    GF,
    QQ,
    DegreeGuardExceeded,
    Ideal,
    InputError,
    ParseError,
    PolyRing,
    RingMismatch,
    groebner_basis,
    polynomial_ring,
)
from gproj import rings
from gproj.fields import PrimeField
from gproj.modules import SubmoduleEngine
from gproj.rings import (
    FreeModuleGB,
    format_poly,
    QuotRing,
    _key_grevlex,
    _layout,
    _width,
    monomial_divides,
    parse_poly,
    reduce_by_monic_in_var,
)

from helpers import (
    LinearMembershipOracle,
    parse_poly_reference,
    poly_to_int_dict,
    random_ideal,
    random_submodule,
    reference_module_basis,
    schoolbook_product,
    univariate_gcd,
)


def QxQ():
    return polynomial_ring(QQ, ("x",))


def R4():
    return PolyRing(GF(2), ("x",)).quotient(["x^2"])


# ----- normal forms -----

def test_nf_generator_reduces_to_zero():
    R = QxQ().base.quotient(["x^2"])
    assert R.nf(R.base.poly("x^2")).is_zero()


def test_nf_square_over_gf2():
    R = R4()
    # (x+1)^2 = x^2 + 1 = 1 in GF(2)[x]/(x^2), confirmed by enumerating the
    # 4-element ring elsewhere in this file
    assert str(R.nf(R.base.poly("x+1") ** 2)) == "1"


def test_nf_zero_modulus_is_identity():
    R = polynomial_ring(QQ, ("x", "y"))
    f = R.base.poly("x^2*y-3*x+1/2")
    assert R.nf(f) == f


def test_nf_idempotent_and_compatible_with_ops():
    rng = random.Random(7)
    R = PolyRing(GF(3), ("x", "y")).quotient(["x^2+y", "y^2"])

    def random_poly():
        d = {}
        for _ in range(rng.randrange(1, 5)):
            e = (rng.randrange(3), rng.randrange(3))
            d[e] = R.base.field.from_int(rng.randrange(1, 3))
        return R.base.from_dict(d)

    for _ in range(40):
        f, g = random_poly(), random_poly()
        nf = R.nf
        assert nf(nf(f)) == nf(f)
        assert nf(f + g) == nf(nf(f) + nf(g))
        assert nf(f * g) == nf(nf(f) * nf(g))


# ----- Groebner bases -----

def test_gb_univariate_matches_gcd_oracle():
    P = PolyRing(QQ, ("x",), "lex")
    f, g = P.poly("x^2-1"), P.poly("x^3-1")
    gb = groebner_basis([f, g], P)
    assert list(gb) == [univariate_gcd(f, g)]
    assert str(gb[0]) == "x-1"


def test_gb_zero_ideal():
    P = PolyRing(QQ, ("x",))
    assert groebner_basis([], P) == ()
    assert groebner_basis([P.zero()], P) == ()


def test_gb_monomial_pair_is_already_reduced():
    P = PolyRing(QQ, ("x", "y"), "lex")
    gb = groebner_basis([P.poly("x^2"), P.poly("x*y")], P)
    assert [str(g) for g in gb] == ["x^2", "x*y"]


def test_gb_deterministic_recomputation():
    P = PolyRing(GF(3), ("x", "y"))
    gens = [P.poly("x^2+y"), P.poly("x*y+2"), P.poly("y^2+x")]
    first = groebner_basis(gens, P)
    second = groebner_basis(list(reversed(gens)), P)
    assert first == second


def test_gb_generators_reduce_to_zero():
    rng = random.Random(11)
    P = PolyRing(GF(2), ("x", "y"))
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            d = {}
            for _ in range(rng.randrange(1, 4)):
                d[(rng.randrange(3), rng.randrange(3))] = 1
            gens.append(P.from_dict(d))
        ideal = Ideal(P, gens)
        for g in gens:
            assert ideal.contains(g)


# ----- membership -----

def test_membership_spec_cases():
    P = PolyRing(QQ, ("x",), "lex")
    ideal = Ideal(P, [P.poly("x^2-1"), P.poly("x^3-1")])
    assert not ideal.contains(P.poly("x^3"))
    assert ideal.contains(P.zero())
    square = Ideal(P, [P.poly("x^2")])
    assert not square.contains(P.poly("x"))


def test_membership_agrees_with_linear_algebra_oracle():
    rng = random.Random(23)
    checked = 0
    for p in (2, 3):
        P = PolyRing(GF(p), ("x", "y"))
        while checked < 12 if p == 2 else checked < 24:
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
                p, 2, [poly_to_int_dict(g) for g in gens], min_degree=4)
            if not oracle.saturated or p ** oracle.quotient_dimension() > 4096:
                continue
            ideal = Ideal(P, gens)
            for _ in range(10):
                d = {}
                for _ in range(rng.randrange(1, 5)):
                    e = (rng.randrange(3), rng.randrange(3))
                    d[e] = rng.randrange(p)
                f = P.from_dict({e: P.field.from_int(c) for e, c in d.items()})
                assert ideal.contains(f) == oracle.contains(poly_to_int_dict(f))
            checked += 1


# ----- parsing and printing -----

@pytest.mark.parametrize("text", [
    "0", "1", "-1", "x", "x^2", "2*x", "1/2*x", "x*y", "x^2*y-1/2*x+3",
    "-x+1", "3", "x^3-x^2+x-1",
])
def test_poly_string_roundtrip(text):
    P = PolyRing(QQ, ("x", "y"))
    p = P.poly(text)
    assert P.poly(str(p)) == p


def test_parse_rejects_unknown_variable():
    P = PolyRing(QQ, ("x",))
    with pytest.raises(ParseError):
        P.poly("x + z")


def test_parse_rejects_bad_syntax():
    P = PolyRing(QQ, ("x",))
    for bad in ("x +", "* x", "x ^ y", "x 2"):
        with pytest.raises(ParseError):
            P.poly(bad)


def _parse_outcome(text, ring, parse):
    try:
        return parse(text, ring).terms
    except InputError as exc:
        return type(exc), str(exc), exc.col


def test_parse_poly_matches_the_reference_on_random_texts():
    # the one-scan parser against the token-list one it replaced: the same
    # terms, or the same error type, message and column, over QQ and GF(5).
    # The pieces include zero denominators mod 5 and over QQ, an undeclared
    # variable, stray and non-ASCII characters, a dangling operator and
    # Unicode spaces and digits
    over = [PolyRing(QQ, ("x", "y")), PolyRing(GF(5), ("x", "y"))]
    pieces = ["x", "y", "z", "x2", "1", "2", "0", "3", "10", "25", "+", "-", "*", "/", "^",
              " ", "\t", "\u00a0", "\u0663", "$", "(", ".", "3/5", "2/0", "1/10", "x^", "^2"]
    rng = random.Random(42)
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
        for ring in over:
            assert (_parse_outcome(text, ring, parse_poly)
                    == _parse_outcome(text, ring, parse_poly_reference)), (text, ring)


def test_gf_coefficients_normalized():
    P = PolyRing(GF(3), ("x",))
    assert str(P.poly("4*x - 1")) == "x+2"


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=repr)
@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_parse_reads_back_every_printed_polynomial(field, order):
    rng = random.Random(7)
    for nvars in range(4):
        ring = PolyRing(field, ("x", "y", "z")[:nvars], order)
        for _ in range(40):
            f = ring.from_dict({
                tuple(rng.randrange(4) for _ in range(nvars)):
                    field.from_fraction(rng.randint(-30, 30), rng.randint(1, 7))
                    if field == QQ else field.from_int(rng.randrange(field.p))
                for _ in range(rng.randrange(6))})
            assert ring.poly(format_poly(f)) == f


@pytest.mark.parametrize("text, expected", [
    ("x*x^2*y", "x^3*y"), ("x^0", "1"), ("0*x + 1", "1"), ("x - x", "0"),
    ("1/2*x", "1/2*x"), ("y^2*3*x - 2/4*x*y^2", "5/2*x*y^2"), ("-x + 2 - 3", "-x-1"),
])
def test_parse_collects_each_term_into_one_coefficient_and_exponent(text, expected):
    P = PolyRing(QQ, ("x", "y"))
    assert format_poly(P.poly(text)) == expected


def test_parse_over_a_prime_field_reduces_fractions():
    P = PolyRing(GF(7), ("x",))
    assert P.poly("1/2*x") == P.poly("4*x") and P.poly("3/5 + 7*x") == P.poly("2")
    with pytest.raises(InputError, match=r"coefficient 1/7 has denominator 0 in GF\(7\)"):
        P.poly("1/7")
    with pytest.raises(InputError, match="coefficient 2/14 has denominator 0"):
        P.poly("x + 2/14*x")


@pytest.mark.parametrize("text, message, col", [
    ("x + * y", "unexpected '*'", 5), ("x + + y", "unexpected '+'", 5),
    ("x y", "expected operator before 'y'", 3), ("2 3", "expected operator before '3'", 3),
    ("x^y", "exponent must be an integer", 2), ("x^-1", "exponent must be an integer", 2),
    ("x^", "misplaced '^'", 2), ("x ^ 2 ^ 3", "misplaced '^'", 7),
    ("3/x", "misplaced '/'", 2), ("x/2", "misplaced '/'", 2), ("x + 1/", "misplaced '/'", 6),
    ("z + 1", "undeclared variable 'z'", 1), ("xy", "undeclared variable 'xy'", 1),
    ("", "empty polynomial", None), ("   ", "empty polynomial", None),
    ("x $ y", "unexpected character '$'", 3), ("x.y", "unexpected character '.'", 2),
    ("(x)", "unexpected character '('", 1), ("x -", "dangling sign", 3),
    ("+", "dangling sign", 1), ("x * / y", "unexpected '/'", 5), ("^2", "unexpected '^'", 1),
    ("/x", "unexpected '/'", 1), ("x**2", "unexpected '*'", 3),
    ("x - - y", "unexpected '-'", 5), ("- -x", "unexpected '-'", 3),
    ("x*", "dangling '*'", 2), ("1 + 2*x*", "dangling '*'", 8), ("x *", "dangling '*'", 3),
])
def test_parse_errors_name_the_same_message_and_column(text, message, col):
    P = PolyRing(QQ, ("x", "y"))
    with pytest.raises(ParseError) as exc:
        P.poly(text)
    assert (str(exc.value), exc.value.col) == (message, col)


# ----- orders -----

def test_grevlex_vs_lex_leading_terms():
    grev = PolyRing(QQ, ("x", "y"), "grevlex")
    lex = PolyRing(QQ, ("x", "y"), "lex")
    f = "x*y^2 + x^2"
    assert grev.poly(f).lead_monomial() == (1, 2)
    assert lex.poly(f).lead_monomial() == (2, 0)


def test_grevlex_degree_first():
    grev = PolyRing(QQ, ("x", "y"), "grevlex")
    assert grev.poly("y^3 + x^2").lead_monomial() == (0, 3)


# ----- guard and misc -----

def test_degree_guard_aborts_runaway_reduction():
    base = PolyRing(QQ, ("x", "y"), "lex", degree_guard=6)
    R = base.quotient(["x - y^3"])
    with pytest.raises(DegreeGuardExceeded):
        R.nf(base.poly("x^4"))


def test_normal_form_function_and_ring_mismatch():
    R = R4()
    other = PolyRing(GF(2), ("t",))
    with pytest.raises(RingMismatch):
        R.nf(other.poly("t"))


def test_reduce_by_monic_in_var():
    P = PolyRing(QQ, ("x",))
    r = reduce_by_monic_in_var(P.poly("x^5+x+1"), P.poly("x^2"), 0)
    assert str(r) == "x+1"
    # non-monic divisor is rejected
    from gproj import NotMonic
    with pytest.raises(NotMonic):
        reduce_by_monic_in_var(P.poly("x^3"), P.poly("2*x^2"), 0)


def test_groebner_basis_parses_string_generators():
    P = PolyRing(GF(7), ("x", "y"))
    want = Ideal(P, ["x^2", "y"]).reduced_gb
    assert [str(g) for g in want] == ["x^2", "y"]
    assert groebner_basis(["x^2", P.poly("y")], P) == want
    assert groebner_basis([P.poly("y"), "x^2"]) == want  # the ring of the Poly
    assert groebner_basis(["x^2", "y"], P) == want
    with pytest.raises(InputError, match="cannot infer the ring"):
        groebner_basis(["x^2", "y"])
    with pytest.raises(RingMismatch):
        groebner_basis(["x^2", PolyRing(GF(7), ("x", "z")).poly("z")], P)


def test_ideal_contains_checks_the_ring():
    k = GF(7)
    P, big = PolyRing(k, ("x", "y")), PolyRing(k, ("x", "y", "z"))
    xz = big.poly("x*z")
    for ideal in (Ideal(P, ["x"]), Ideal(P, [])):
        with pytest.raises(RingMismatch):
            ideal.contains(xz)
    with pytest.raises(RingMismatch):
        P.quotient(["x"]).nf(xz)
    assert Ideal(P, ["x"]).contains(P.poly("x*y"))
    # an equal ring, built again, passes
    assert Ideal(P, ["x"]).contains(PolyRing(k, ("x", "y")).poly("x^2"))


def test_is_unit_in_quotient():
    R = R4()
    assert R.is_unit(R.poly("x+1"))
    assert not R.is_unit(R.poly("x"))


def test_degree_guard_aborts_runaway_groebner_basis():
    # lex: the S-polynomial x*y^3 + y reduces through y^6, so the build
    # needs guard 6 even though both generators have degree at most 3
    for guard in (4, 5):
        P = PolyRing(QQ, ("x", "y"), "lex", degree_guard=guard)
        with pytest.raises(DegreeGuardExceeded) as exc:
            groebner_basis([P.poly("x - y^3"), P.poly("x^2 + y")], P)
        assert str(exc.value) == f"Groebner basis: term degree 6 exceeds guard {guard}"
    P = PolyRing(QQ, ("x", "y"), "lex", degree_guard=6)
    gb = groebner_basis([P.poly("x - y^3"), P.poly("x^2 + y")], P)
    assert [str(g) for g in gb] == ["x-y^3", "y^6+y"]


def test_degree_guard_names_normal_form():
    base = PolyRing(QQ, ("x", "y"), "lex", degree_guard=6)
    R = base.quotient(["x - y^3"])
    with pytest.raises(DegreeGuardExceeded, match="^normal form: term degree"):
        R.nf(base.poly("x^4"))
    # the lead x is not the top-degree term of x - y^3: the step on x^7 would
    # make x^6*y^3, and the message gives that largest degree, 9
    with pytest.raises(DegreeGuardExceeded, match="^normal form: term degree 9 exceeds guard 6$"):
        R.nf(base.poly("x^7"))


def test_quotient_reduces_under_its_own_guard():
    # ring equality ignores the guard, so a polynomial built in a copy of the
    # base ring with another guard passes the ring check; the quotient's
    # own guard must still govern its normal forms and memberships
    R = PolyRing(GF(2), ("x",), degree_guard=4).quotient(["x^2"])
    copy32 = PolyRing(GF(2), ("x",), degree_guard=32)
    assert copy32 == R.base
    for f in (copy32.poly("x^10"), R.base.poly("x^10")):
        with pytest.raises(DegreeGuardExceeded, match="guard 4$"):
            R.nf(f)
        with pytest.raises(DegreeGuardExceeded, match="guard 4$"):
            R.modulus.contains(f)
    # a modulus built over a copy with a lower or a higher guard: the
    # quotient's guard governs its normal forms and ideal memberships, the
    # modulus's guard its own memberships; y^18 is wider than the packing of
    # a basis built at guard 4
    lex = {g: PolyRing(QQ, ("x", "y"), "lex", degree_guard=g) for g in (4, 32)}
    for guard, other in ((4, 32), (32, 4)):
        Q = QuotRing(lex[guard], Ideal(lex[other], ["x - y^3"]))
        f, r = lex[guard].poly("x^6"), lex[guard].poly("y^18")
        tripping = "guard 4$"
        if guard == 4:
            with pytest.raises(DegreeGuardExceeded, match=tripping):
                Q.nf(f)
            with pytest.raises(DegreeGuardExceeded, match=tripping):
                SubmoduleEngine(Q, 1, []).contains((f - r,))
            assert Q.modulus.contains(f - r)
        else:
            assert Q.nf(f) == r
            assert SubmoduleEngine(Q, 1, []).contains((f - r,))
            with pytest.raises(DegreeGuardExceeded, match=tripping):
                Q.modulus.contains(f - r)


def test_one_is_the_normal_form_of_one():
    P = PolyRing(GF(3), ("x", "y"))
    for gens in (["x^2", "x*y - 1"], ["x*y - 1", "x"], []):  # proper, 1 inside, zero
        R = P.quotient(gens)
        assert R.one() == R.nf(P.one())
    assert P.quotient(["x*y - 1", "x"]).one().is_zero()
    assert P.quotient(["x^2"]).one() == P.one()


def test_one_is_stored_at_construction(monkeypatch):
    # identity and FPModule.zero ask R.one() per call: it scans nothing
    P = PolyRing(GF(3), ("x", "y"))
    rings = [P.quotient(gens) for gens in (["x^2", "y^3"], ["x*y - 1", "x"], [])]
    asked = []
    monkeypatch.setattr(Ideal, "contains_one", lambda self: asked.append(self))
    monkeypatch.setattr("gproj.rings.reduce_poly", lambda *a: asked.append(a))
    assert [R.one() for R in rings] == [P.one(), P.zero(), P.one()]
    assert rings[1].one().is_zero() and not asked


def test_from_dict_maps_int_coefficients_into_the_field():
    P = PolyRing(GF(2), ("x", "y"))
    assert P.from_dict({(1, 0): 2}).is_zero()
    assert P.from_dict({(1, 0): 3, (0, 1): -1, (0, 0): 4}) == P.poly("x + y")
    assert PolyRing(QQ, ("x",)).from_dict({(1,): 2}).terms == (((1,), Fraction(2)),)


def _listed(basis):
    return [list(v.items()) for v in basis]


def test_ideal_bases_match_a_plain_buchberger_on_random_ideals():
    # an independent route: the plain Buchberger of tests/helpers, with no
    # packed terms, no criterion and no FreeModuleGB.reduce. A case where
    # the engine trips is left out
    compared = 0
    for k in range(1600):  # taking singular steps too first gives a wrong basis at 1446
        ring, gens = random_ideal(random.Random(k))
        vectors = [{(0, e): c for e, c in g.terms} for g in gens]
        try:
            ideal = FreeModuleGB(ring, 1, vectors).basis
        except DegreeGuardExceeded:
            continue
        assert _listed(ideal) == _listed(reference_module_basis(ring, 1, vectors)), k
        compared += 1
    assert compared >= 1500


def test_module_bases_match_a_plain_buchberger_on_random_submodules():
    # submodules of rank 1-3 with a modulus, whose reducers enter the
    # completion below every signature; the reference adds the modulus
    # generators at every position as ordinary vectors. A case where the
    # engine or the modulus's own basis trips is left out
    compared = 0
    for k in range(500):
        ring, rank, vectors, modulus = random_submodule(random.Random(k))
        try:
            basis = FreeModuleGB(ring, rank, vectors, Ideal(ring, modulus).reduced_gb).basis
        except DegreeGuardExceeded:
            continue
        assert _listed(basis) == _listed(reference_module_basis(ring, rank, vectors, modulus)), k
        compared += 1
    assert compared >= 450


def test_a_module_over_an_artinian_rational_ring_matches_a_plain_buchberger():
    # over QQ[x,y]/(x^2 - y, y^3) at guard 32 the module basis of these
    # columns once ran past 80 s in Fraction arithmetic
    R = PolyRing(QQ, ("x", "y")).quotient(["x^2 - y", "y^3"])
    columns = [("3*x^2*y^3+5*x*y", "5*x*y^2+y^3+6*x^2"),
               ("5*x^2*y^3+5*x^2*y+x*y", "4*x^3*y^2+x^2*y+1"),
               ("5*x*y^3+x*y^2", "x^2+2*x*y+6*x")]
    vectors = [{(i, e): c for i, text in enumerate(col) for e, c in R.poly(text).terms}
               for col in columns]
    basis = FreeModuleGB(R.base, 2, vectors, R.modulus.reduced_gb).basis
    assert _listed(basis) == _listed(reference_module_basis(R.base, 2, vectors,
                                                            R.modulus.generators))
    assert len(basis) == 4


def test_a_signature_past_the_packing_restarts_the_completion_wider():
    # a signature is not bounded by the guard as terms are: here one passes
    # the packing sized for guard 3 (fields hold degree 7), and the
    # completion starts again at twice the width, with the basis that a
    # plain Buchberger run on the same generators gives
    P = PolyRing(GF(7), ("x0", "x1"), degree_guard=3)
    vectors = [{(0, e): c for e, c in P.poly(g).terms}
               for g in ("6*x0*x1^2+1", "3*x0^2*x1+3*x0*x1")]
    caps = []
    original = FreeModuleGB._signature_buchberger

    def recording(self, packed, modulus):
        caps.append(self._layout.cap)
        return original(self, packed, modulus)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeModuleGB, "_signature_buchberger", recording)
        gb = FreeModuleGB(P, 1, vectors)
    assert caps == [7, 15]
    assert gb.basis == reference_module_basis(P, 1, vectors) == [
        {(0, (0, 2)): 1, (0, (0, 0)): 1}, {(0, (1, 0)): 1, (0, (0, 0)): 1}]


# ----- packed terms inside FreeModuleGB -----

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def packings(draw):
    """A layout, its ring, and exponents whose sums stay within the layout."""
    nvars = draw(st.integers(1, 4))
    order = draw(st.sampled_from(["lex", "grevlex"]))
    layout = _layout(nvars, order, _width(draw(st.integers(1, 300))))
    ring = PolyRing(GF(2), [f"x{i}" for i in range(nvars)], order)
    expt = st.tuples(*[st.integers(0, layout.cap // (2 * nvars))] * nvars)
    return layout, ring, draw(st.lists(st.tuples(st.integers(0, 3), expt), min_size=2, max_size=2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packings())
def test_packing_is_order_isomorphic_additive_and_invertible(case):
    layout, ring, ((p, a), (q, b)) = case
    x, y = layout.pack(p, a), layout.pack(q, b)
    assert layout.unpack(x) == (p, a)
    assert x & layout.degree == sum(a)
    # smaller ints are larger terms: position first, then the ring's order
    assert (x < y) == ((p, ring.key(b)) < (q, ring.key(a)))
    assert (x == y) == ((p, a) == (q, b))
    ab = tuple(map(sum, zip(a, b)))
    assert x + layout.pack(0, b) - layout.pack(0, (0,) * len(a)) == layout.pack(p, ab)
    divides = ((layout.pack(p, b) | layout.guards) - x) & layout.guards == layout.guards
    assert divides == monomial_divides(a, b)
    assert layout.lcm(x, layout.pack(p, b)) == layout.pack(p, tuple(map(max, a, b))) & layout.low


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 50), max_size=6).map(tuple))
def test_grevlex_key_is_the_negated_reversed_vector(expt):
    assert _key_grevlex(expt) == (sum(expt),) + tuple(-e for e in reversed(expt))


def _cyclic(n):
    v = [f"x{i}" for i in range(n)]
    eqs = [" + ".join("*".join(v[(s + k) % n] for k in range(d)) for s in range(n))
           for d in range(1, n)]
    return v, eqs + ["*".join(v) + " - 1"]


def _katsura(n):
    v = [f"u{i}" for i in range(n + 1)]

    def u(i):
        return v[abs(i)] if abs(i) <= n else None

    eqs = [" + ".join(f"{u(m)}*{u(k - m)}" for m in range(-n, n + 1) if u(m) and u(k - m))
           + f" - {v[k]}" for k in range(n)]
    return v, eqs + [" + ".join([v[0]] + [f"2*{x}" for x in v[1:]]) + " - 1"]


@pytest.mark.parametrize("system, n, calls, zeros", [(_cyclic, 4, 7, 1), (_cyclic, 5, 52, 5),
                                                     (_katsura, 4, 21, 1)])
def test_groebner_basis_makes_the_pinned_number_of_reductions(system, n, calls, zeros):
    # one reduction per input after the first and per S-vector the signature
    # criteria leave, plus one per tail that a lead divides; `zeros` of the
    # S-vectors reduce to zero. The counts move if item order or a criterion
    # does. Reducing every nonempty tail made 14, 68 and 27
    variables, eqs = system(n)
    P = PolyRing(GF(32003), variables)
    results = []
    original = FreeModuleGB.reduce

    def recording(self, v, guard, bound=None, **head):
        results.append((bound, original(self, v, guard, bound, **head)))
        return results[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeModuleGB, "reduce", recording)
        gb = groebner_basis([P.poly(e) for e in eqs], P)
    assert len(results) == calls
    assert sum(bound is not None and not r for bound, r in results) == zeros
    assert all(g.lead_coeff() == 1 for g in gb)


def test_the_reduction_loop_makes_no_field_method_calls():
    # over GF(p) the engine does its arithmetic on plain ints: neither a
    # Groebner basis nor a batch of normal forms calls PrimeField.add, sub or mul
    variables, eqs = _cyclic(4)
    P = PolyRing(GF(32003), variables)
    gens = [P.poly(e) for e in eqs]
    R = P.quotient(gens)
    queries = [a * b for a in gens for b in gens] + [P.var(v) ** 6 for v in variables]
    calls = []

    def counting(name):
        original = getattr(PrimeField, name)
        return lambda self, a, b: calls.append(name) or original(self, a, b)

    with pytest.MonkeyPatch.context() as patch:
        for name in ("add", "sub", "mul"):
            patch.setattr(PrimeField, name, counting(name))
        gb = groebner_basis(gens, P)
        forms = [R.nf(f) for f in queries]
    assert calls == []
    assert gb == R.modulus.reduced_gb
    assert sum(not f.is_zero() for f in forms) == len(variables)


def _k0_poly_vectors(rng):
    """A 3x3 module over QQ[x] shaped as the benchmark's k0 poly ops: three
    columns of entries of degree <= 2 with coefficients -5..5, as Fractions."""
    return [{(i, (d,)): Fraction(c) for i in range(3) for d in range(3)
             if (c := rng.randint(-5, 5))} for _ in range(3)]


def test_a_rational_completion_makes_no_fraction_arithmetic():
    # over QQ the completion clears denominators once, by _primitive, for
    # each input vector and each modulus row, holds primitive integer vectors
    # and makes its reducers monic once, by Fraction(c, a) as they leave it:
    # completing katsura-3, a k0-shaped module and a module over a quotient
    # whose modulus rows have denominators makes no Fraction sum, difference
    # or product, while the same patch counts one made outside
    variables, eqs = _katsura(3)
    P = PolyRing(QQ, variables)
    ideal = [{(0, e): c for e, c in P.poly(f).terms} for f in eqs]
    Qx = PolyRing(QQ, ("x",))
    module = _k0_poly_vectors(random.Random(40))
    R = PolyRing(QQ, ("x", "y")).quotient(["2*x^2 - y", "3*y^3 + x*y"])
    modulus = R.modulus.reduced_gb
    assert any(c.denominator > 1 for g in modulus for _, c in g.terms)
    columns = [("1/2*x*y + 3", "x^2"), ("y^2", "2/3*x - y"), ("x", "0")]
    quotient = [{(i, e): c for i, text in enumerate(col) for e, c in R.poly(text).terms}
                for col in columns]
    calls, cleared = [], []

    def counting(name):
        original = getattr(Fraction, name)
        return lambda self, other: calls.append(name) or original(self, other)

    primitive = rings._primitive
    with pytest.MonkeyPatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            patch.setattr(Fraction, name, counting(name))
        patch.setattr(rings, "_primitive", lambda v: cleared.append(len(v)) or primitive(v))
        bases = [FreeModuleGB(P, 1, ideal).basis, FreeModuleGB(Qx, 3, module).basis,
                 FreeModuleGB(R.base, 2, quotient, modulus).basis]
        assert calls == []
        assert cleared == ([len(v) for v in ideal + module + quotient]
                           + [len(g.terms) for g in modulus])
        assert Fraction(1, 2) * 3 and calls == ["__mul__"]
    assert _listed(bases[0]) == _listed(reference_module_basis(P, 1, ideal))
    assert _listed(bases[1]) == _listed(reference_module_basis(Qx, 3, module))
    assert _listed(bases[2]) == _listed(reference_module_basis(R.base, 2, quotient, modulus))
    assert all(type(c) is Fraction for v in chain(*bases) for c in v.values())


def _completion_digest(ring, rank, vectors, modulus=()):
    """sha256 of every reduction a completion makes under a signature bound,
    in order, of its final packed index and of its placed modulus leads."""
    reduced = []
    original = FreeModuleGB.reduce

    def recording(self, v, guard, bound=None, **head):
        r = original(self, v, guard, bound, **head)
        if bound is not None:
            reduced.append(tuple(r.items()))
        return r

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeModuleGB, "reduce", recording)
        gb = FreeModuleGB(ring, rank, vectors, modulus)
    assert all(g[3] == 1 for reducers in gb._index.values() for g in reducers)
    index = sorted((pos, [g[:3] for g in reducers]) for pos, reducers in gb._index.items())
    text = repr((reduced, index, sorted(gb._fixed)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_a_prime_field_completion_builds_the_reducers_it_built_before():
    # over GF(p) every reducer is monic, so no scaling step fires: each
    # reduction under a signature and the finished reducer tuples give the
    # digests recorded while rational completions still ran on Fractions
    variables, eqs = _katsura(3)
    P = PolyRing(GF(32003), variables)
    ideal = [{(0, e): c for e, c in P.poly(f).terms} for f in eqs]
    ring, rank, vectors, modulus = next(
        d for k in range(100) if (d := random_submodule(random.Random(k)))[0].field == GF(32003)
        and d[1] == 3 and d[0].degree_guard >= 12)
    modulus = Ideal(ring, modulus).reduced_gb
    assert _completion_digest(P, 1, ideal) == "450e1bb302150a08"
    assert _completion_digest(ring, rank, vectors, modulus) == "c4e53ad4acb8568f"


def _assert_finished_shape(gb, coefficient):
    """Every reducer of gb is (lead, tail, top, 1): monic, top the largest
    total degree of its terms, each tail coefficient a nonzero `coefficient`."""
    degree = gb._layout.degree
    for pos, reducers in gb._index.items():
        for g in reducers:
            lead, tail, top, a = g
            terms = [lead] + [t for t, _ in tail]
            assert type(a) is int and a == 1
            assert lead >> gb._layout.pshift == pos
            assert terms == sorted(set(terms))  # distinct, descending in POT order
            assert top == max(m & degree for m in terms)
            assert all(type(c) is coefficient and c for _, c in tail)


def test_a_finished_reducer_is_monic_with_a_one_also_in_a_repacked_copy():
    # one reducer shape from the completion to the last query: a finished
    # basis over GF(p) or QQ holds (lead, tail, top, 1), and so does a copy
    # repacked for a wider query, with the same coefficients and tops
    variables, eqs = _katsura(3)
    for field, coefficient in ((GF(32003), int), (QQ, Fraction)):
        P = PolyRing(field, variables)
        gb = FreeModuleGB(P, 1, [{(0, e): c for e, c in P.poly(f).terms} for f in eqs])
        wide = gb._holding(gb._layout.cap + 1)
        assert wide._layout.cap > gb._layout.cap
        for basis in (gb, wide):
            _assert_finished_shape(basis, coefficient)
        unpack, wide_unpack = gb._layout.unpack, wide._layout.unpack
        assert [[(unpack(lead), [(unpack(m), c) for m, c in tail], top)
                 for lead, tail, top, _ in gb._index[pos]] for pos in gb._index] == \
            [[(wide_unpack(lead), [(wide_unpack(m), c) for m, c in tail], top)
              for lead, tail, top, _ in wide._index[pos]] for pos in wide._index]
        assert wide.basis == gb.basis


def test_a_prime_field_reducer_needing_no_step_leaves_interreduction_as_built():
    # over GF(p) the completion's reducers are monic already, so one whose
    # tail no lead divides leaves _interreduced as the very tuple built, and
    # only the others are rebuilt; over QQ each is made monic once, anew
    variables, eqs = _katsura(3)
    for field in (GF(32003), QQ):
        P = PolyRing(field, variables)
        ideal = [{(0, e): c for e, c in P.poly(f).terms} for f in eqs]
        built = {}
        original = FreeModuleGB._interreduced

        def recording(self, placed):
            built.update((g[0], g) for reducers in self._index.values() for g in reducers)
            return original(self, placed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FreeModuleGB, "_interreduced", recording)
            gb = FreeModuleGB(P, 1, ideal)
        finished = [g for reducers in gb._index.values() for g in reducers]
        kept = [g for g in finished if g[1] == built[g[0]][1]]
        assert 0 < len(kept) < len(finished)  # some reducers take steps, some do not
        assert all((g is built[g[0]]) == (field == GF(32003)) for g in kept)


def _qq_draws(draw, n):
    """The first n draws over QQ of random_ideal or random_submodule, by seed."""
    draws = ((k, draw(random.Random(k))) for k in range(10**4))
    return list(islice(((k, d) for k, d in draws if d[0].field == QQ), n))


def test_rational_bases_and_guard_trips_match_the_reference_and_the_record():
    # 200 rational draws each of random_ideal and random_submodule at their
    # own guard, and 24 k0-shaped modules, give the plain Buchberger's bases
    # where they do not trip. Rerun at guards 4-8, every draw trips where it
    # tripped when the completion ran on Fractions, with the same message:
    # a trip follows the reduction path, which integer scaling keeps
    trips, compared = {}, 0
    for kind, draw in (("ideal", random_ideal), ("submodule", random_submodule)):
        for k, d in _qq_draws(draw, 200):
            ring, rank, vectors, modulus = d if kind == "submodule" else (
                d[0], 1, [{(0, e): c for e, c in g.terms} for g in d[1]], [])

            def basis(guard):
                r = PolyRing(QQ, ring.variables, ring.order, guard)
                return FreeModuleGB(r, rank, vectors, Ideal(r, modulus).reduced_gb).basis

            for guard in range(4, 9):
                try:
                    basis(guard)
                except DegreeGuardExceeded as exc:
                    trips[f"{kind} {k} {guard}"] = str(exc)
            try:
                got = basis(ring.degree_guard)
            except DegreeGuardExceeded:
                continue
            assert _listed(got) == _listed(
                reference_module_basis(ring, rank, vectors, modulus)), (kind, k)
            compared += 1
    rng = random.Random(24)
    Qx = PolyRing(QQ, ("x",))
    for _ in range(24):
        vectors = _k0_poly_vectors(rng)
        assert _listed(FreeModuleGB(Qx, 3, vectors).basis) == _listed(
            reference_module_basis(Qx, 3, vectors))
    assert compared >= 350
    recorded = json.loads((Path(__file__).parent / "golden" / "qq_guard_trips.json").read_text())
    assert trips == recorded


def _graph_basis(guard):
    # x*e_0 + e_1 in GF(7)[x, y]^2: the packing is sized for degree 2*max(guard, 1)
    P = PolyRing(GF(7), ("x", "y"), degree_guard=guard)
    return FreeModuleGB(P, 2, [{(0, (1, 0)): 1, (1, (0, 0)): 1}])


@pytest.mark.parametrize("guard", [2, 10**12])
def test_queries_past_the_packing_width(guard):
    big = 10 * guard
    gb = _graph_basis(guard)
    # an irreducible term of any degree is kept, the rest reduces as usual
    for degree in (500, big):
        r = gb.reduce_vec({(0, (0, degree)): 1, (0, (1, 0)): 3})
        assert list(r.items()) == [((0, (0, degree)), 1), ((1, (0, 0)), 4)]
    # a reducible one trips the guard with the degree it would have reached
    with pytest.raises(DegreeGuardExceeded, match=f"^normal form: term degree {big} exceeds "
                       f"guard {guard}$"):
        gb.reduce_vec({(0, (big, 0)): 1})
    if guard == 2:
        with pytest.raises(DegreeGuardExceeded, match="term degree 500 exceeds guard 2$"):
            gb.reduce_vec({(0, (499, 1)): 1})
    else:
        assert gb.reduce_vec({(0, (499, 1)): 1}) == {(1, (498, 1)): 6}


@pytest.mark.parametrize("guard", [0])  # a negative guard is an input error
def test_guards_below_one(guard):
    gb = _graph_basis(guard)
    assert gb.reduce_vec({(1, (0, 0)): 2}) == {(1, (0, 0)): 2}
    for degree in (1, 500):
        with pytest.raises(DegreeGuardExceeded, match=f"^normal form: term degree {degree} "
                           f"exceeds guard {guard}$"):
            gb.reduce_vec({(0, (degree, 0)): 1})
    P = PolyRing(GF(7), ("x", "y"), degree_guard=guard)
    assert [str(g) for g in groebner_basis([P.poly("x^2"), P.poly("y^2")], P)] == ["x^2", "y^2"]
    assert [str(g) for g in groebner_basis([P.poly("x - 1")], P)] == ["x+6"]
    with pytest.raises(DegreeGuardExceeded, match="^Groebner basis: basis element degree 2 "
                       f"exceeds guard {guard}$"):
        groebner_basis([P.poly("x^2 - y"), P.poly("x*y - 1")], P)


@pytest.mark.parametrize("guard", [4, 8, 32])
def test_s_vectors_reach_twice_the_guard(guard):
    # (x + y)*e_1 first reduces y^g*e_0 + x^g*e_1 to y^g*e_0 + (-1)^g*y^g*e_1.
    # Its pair with x^g*e_0 + y^g*e_1 has coprime leads, but neither vector
    # lies at one position, so no Koszul syzygy prunes it: the S-vector
    # y^2g*e_1 - (-1)^g*x^g*y^g*e_1 meets the reducer x*e_1 + y*e_1, so the
    # packing must hold degree 2g to see x divide x^g*y^g
    P = PolyRing(QQ, ("x", "y"), degree_guard=guard)
    g = guard
    vectors = [{(0, (g, 0)): 1, (1, (0, g)): 1}, {(0, (0, g)): 1, (1, (g, 0)): 1},
               {(1, (1, 0)): 1, (1, (0, 1)): 1}]
    with pytest.raises(DegreeGuardExceeded, match=f"^module basis at rank 2: term degree "
                       f"{2 * g} exceeds guard {g}$"):
        FreeModuleGB(P, 2, vectors)


# ----- products on integer numerators -----

@st.composite
def factor_pairs(draw):
    """Two polynomials of one ring: QQ with large coprime denominators and
    both signs, or GF(2) or GF(32003); 0-4 variables, lex or grevlex. Small
    coefficient and exponent ranges make terms of the product cancel."""
    field = draw(st.sampled_from([QQ, GF(2), GF(32003)]))
    nvars = draw(st.integers(0, 4))
    ring = PolyRing(field, [f"x{i}" for i in range(nvars)], draw(st.sampled_from(["lex", "grevlex"])))
    if field is QQ:
        big = st.integers(-10**30, 10**30)
        coeff = st.one_of(st.integers(-3, 3), st.builds(Fraction, big, st.integers(1, 10**25)),
                          st.builds(Fraction, st.integers(-5, 5), st.sampled_from([2, 3, 7, 2**61 - 1])))
    else:
        coeff = st.integers(-3, 40000)
    expt = st.tuples(*[st.integers(0, 3)] * nvars)

    def poly():
        return ring.from_dict(dict(draw(st.lists(st.tuples(expt, coeff), max_size=6))))
    return poly(), poly()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(factor_pairs())
def test_product_matches_the_schoolbook_product(pair):
    a, b = pair
    for p, q in ((a, b), (b, a), (a, a)):
        assert (p * q).terms == schoolbook_product(p, q)
        assert all(type(c) is type(p.ring.field.zero) for _, c in (p * q).terms)


def test_products_that_cancel():
    Q = PolyRing(QQ, ("x", "y"))
    assert Q.poly("x + y") * Q.poly("x - y") == Q.poly("x^2 - y^2")
    assert (Q.poly("1/3*x - 2/5") * Q.poly("0")).is_zero()
    assert Q.poly("1/2*x + 1/3") * Q.poly("6") == Q.poly("3*x + 2")
    assert Q.poly("2/3*x") * Q.poly("3/2*y") == Q.poly("x*y")  # denominators cancel to 1
    F = PolyRing(GF(2), ("x",))
    assert F.poly("x + 1") * F.poly("x + 1") == F.poly("x^2 + 1")
    k = PolyRing(GF(3), ())
    assert (k.poly("2") * k.poly("2")).terms == (((), 1),)


@pytest.mark.parametrize("guard", [-1, -3, 2.0, "8", None, True])
def test_degree_guard_must_be_a_non_negative_int(guard):
    with pytest.raises(InputError, match="degree guard must be a non-negative integer"):
        PolyRing(QQ, ("x",), degree_guard=guard)


def test_degree_guard_zero_is_valid():
    assert PolyRing(QQ, ("x",), degree_guard=0).degree_guard == 0
