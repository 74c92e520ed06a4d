"""Seeded workload generators for the gproj benchmark.

Each workload is a deck of rounds; every round has the same fixed op mix
(one caller, closed loop) and differs from the others only in the inputs
the seed draws. The seed never changes the mix, so the cost of a round is
nearly the same on every seed, and the percentiles of op latency fall in
the middle of a block of ops of one kind rather than between kinds (the
counts below were chosen for that, from measured op latencies).

An op carries its inputs already built: `run` calls one public entry point
of the library and nothing else, `check` verifies the result independently
(see gate.py) and `canon` gives the canonical text digested for the
reference comparison.
"""

from __future__ import annotations

import ast
import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gproj
from gproj import GF, QQ, FPModule, PolyRing, SubmoduleOfFree
from gproj.cli import main as cli_main

import gate
from gate import GateError, poly_canon

P = 32003


@dataclass
class Op:
    kind: str
    inputs: str  # canonical text of the generated inputs
    run: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], str]


@dataclass
class Deck:
    rounds: list[list[Op]]
    # checks on standing inputs, run once with the op checks
    standing_checks: list[Callable[[], None]] = field(default_factory=list)


def round_rng(name: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


# ---------------------------------------------------------------------------
# ideal_gb: groebner_basis on cyclic-n, katsura-n and random-coefficient
# ideals on the same supports
# ---------------------------------------------------------------------------

def cyclic_system(n: int):
    v = [f"x{i}" for i in range(n)]
    eqs = [" + ".join("*".join(v[(s + k) % n] for k in range(d)) for s in range(n))
           for d in range(1, n)]
    eqs.append("*".join(v) + " - 1")
    return v, eqs


def katsura_system(n: int):
    v = [f"u{i}" for i in range(n + 1)]

    def u(i):
        return v[abs(i)] if abs(i) <= n else None

    eqs = []
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        eqs.append(" + ".join(terms) + f" - {v[m]}")
    eqs.append(" + ".join([v[0]] + [f"2*{x}" for x in v[1:]]) + " - 1")
    return v, eqs


SYSTEMS = {"cyclic": cyclic_system, "katsura": katsura_system}
FIELDS = {"gf": GF(P), "qq": QQ}

# (count per round, family, n, field, order, coefficient mode)
IDEAL_GB_MIX = [
    (5, "cyclic", 3, "gf", "grevlex", "scaled"),
    (4, "cyclic", 3, "gf", "lex", "random"),
    (4, "cyclic", 3, "qq", "grevlex", "random"),
    (4, "cyclic", 3, "qq", "lex", "scaled"),
    (5, "cyclic", 3, "gf", "lex", "scaled"),
    (4, "cyclic", 3, "qq", "grevlex", "scaled"),
    (4, "cyclic", 3, "qq", "lex", "random"),
    (40, "cyclic", 4, "gf", "grevlex", "scaled"),
    (3, "katsura", 3, "qq", "grevlex", "scaled"),
    (3, "katsura", 3, "gf", "grevlex", "random"),
    (2, "cyclic", 4, "qq", "lex", "scaled"),
    (2, "cyclic", 4, "gf", "lex", "scaled"),
    (6, "cyclic", 4, "gf", "grevlex", "random"),
    (12, "katsura", 4, "gf", "grevlex", "scaled"),
    (1, "katsura", 4, "qq", "grevlex", "scaled"),
    (1, "cyclic", 5, "gf", "grevlex", "scaled"),
]
IDEAL_GB_ROUNDS = 4


def _coefficient(rng, fld):
    if fld is QQ:
        return rng.choice([c for c in range(-9, 10) if c])
    return rng.randrange(1, P)


def ideal_instance(rng, family, n, fkey, order, mode):
    """Generators of a seeded member: variables scaled by random units
    (an isomorphic ideal, same Groebner structure), or random nonzero
    coefficients on the system's own support."""
    fld = FIELDS[fkey]
    variables, eqs = SYSTEMS[family](n)
    ring = PolyRing(fld, variables, order)
    gens = [ring.poly(e) for e in eqs]
    if mode == "scaled":
        scale = [rng.randint(1, 9) for _ in variables]
        out = []
        for g in gens:
            d = {}
            for e, c in g.terms:
                f = 1
                for s, k in zip(scale, e):
                    f *= s ** k
                d[e] = fld.mul(c, fld.from_int(f))
            out.append(ring.from_dict(d))
        return ring, out
    return ring, [ring.from_dict({e: fld.from_int(_coefficient(rng, fld))
                                  for e, _ in g.terms}) for g in gens]


def _polys_canon(polys) -> str:
    return "|".join(poly_canon(p) for p in polys)


def _columns_canon(columns) -> str:
    return "/".join(",".join(poly_canon(p) for p in col) for col in columns)


def _module_canon(M) -> str:
    return f"{M.ring!r}:{M.ngens}:{_columns_canon(M.relations)}"


def _gb_op(kind, ring, gens):
    return Op(kind, f"{ring!r}:{_polys_canon(gens)}",
              lambda: gproj.groebner_basis(gens, ring),
              lambda out: gate.check_groebner(gens, out, ring),
              _polys_canon)


def build_ideal_gb(seed: int, work_dir: Path) -> Deck:
    rounds = []
    for r in range(IDEAL_GB_ROUNDS):
        rng = round_rng("ideal_gb", seed, r)
        ops = []
        for count, family, n, fkey, order, mode in IDEAL_GB_MIX:
            for _ in range(count):
                ring, gens = ideal_instance(rng, family, n, fkey, order, mode)
                ops.append(_gb_op(f"gb.{family}{n}.{fkey}.{order}.{mode}", ring, gens))
        rng.shuffle(ops)
        rounds.append(ops)
    return Deck(rounds)


# ---------------------------------------------------------------------------
# membership: normal forms and witnesses against standing rings and modules
# ---------------------------------------------------------------------------

def random_poly(rng, ring, nterms, max_deg, coeffs=range(1, 10)):
    d = {}
    nv = ring.nvars
    for _ in range(nterms):
        deg = rng.randint(0, max_deg)
        e = [0] * nv
        for _ in range(deg):
            e[rng.randrange(nv)] += 1
        d[tuple(e)] = ring.field.from_int(rng.choice(coeffs))
    return ring.from_dict(d)


def _modulus_check(R, gens):
    return lambda: gate.check_groebner(gens, R.modulus.reduced_gb, R.base)


def standing_inputs():
    """The rings and modules that membership queries read against."""
    out = {}
    A = PolyRing(GF(2), ("x", "y", "z"))
    A_gens = [A.poly(s) for s in ("x^2", "y^2", "z^2")]
    RA = A.quotient(A_gens)
    kA = FPModule.from_strings(RA, 1, [["x", "y", "z"]])
    out["syz_gf2"] = (RA, A_gens, gproj.free_resolution(kA, 3).syzygy_module(2))
    C = PolyRing(QQ, ("x", "y"))
    C_gens = [C.poly(s) for s in ("x^2", "y^2")]
    RC = C.quotient(C_gens)
    kC = FPModule.from_strings(RC, 1, [["x", "y"]])
    out["syz_qq"] = (RC, C_gens, gproj.free_resolution(kC, 3).syzygy_module(2))
    for key, family, n, fkey in (("cyc4_gf", "cyclic", 4, "gf"),
                                 ("kat3_qq", "katsura", 3, "qq")):
        variables, eqs = SYSTEMS[family](n)
        base = PolyRing(FIELDS[fkey], variables)
        gens = [base.poly(e) for e in eqs]
        out[key] = (base.quotient(gens), gens, None)
    S = PolyRing(QQ, ("x", "y", "z"))
    S_gens = [S.poly(s) for s in ("x^2 - y*z", "y^3")]
    RS = S.quotient(S_gens)
    sub_cols = [(RS.poly("x"), RS.poly("y^2"), RS.poly("z")),
                (RS.poly("y"), RS.poly("x*z"), RS.poly("x + z")),
                (RS.poly("z^2"), RS.poly("x"), RS.poly("y - 2*x"))]
    out["sub_qq"] = (RS, S_gens, SubmoduleOfFree(RS, 3, sub_cols))
    return out


def _nf_op(kind, R, f, rng):
    hs = [random_poly(rng, R.base, 2, 2) for _ in R.modulus.generators]
    shifted = f
    for h, g in zip(hs, R.modulus.generators):
        shifted = shifted + h * g
    leads = [g.lead_monomial() for g in R.modulus.reduced_gb]

    def check(out):
        gate.check_reduced_against(out, leads)
        if R.nf(shifted) != out:
            raise GateError("nf changed under adding multiples of the modulus")

    return Op(kind, poly_canon(f), lambda: R.nf(f), check, poly_canon)


def _combo(rng, R, gens, rank):
    col = [R.base.zero()] * rank
    for g in gens:
        a = random_poly(rng, R.base, 2, 1)
        col = [c + a * p for c, p in zip(col, g)]
    return tuple(R.nf(c) for c in col)


def _witness_op(kind, R, gens, query, rng, member):
    rank = len(gens[0])
    col = _combo(rng, R, gens, rank)
    if not member:
        i = rng.randrange(rank)
        col = tuple(R.nf(c + R.base.one()) if j == i else c for j, c in enumerate(col))

    def check(out):
        if member:
            gate.check_witness(R, gens, col, out)
        else:
            gate.check_nonmember(R, gens, col, out)

    def canon(out):
        return "none" if out is None else _polys_canon(out)

    return Op(kind, _polys_canon(col), lambda: query(col), check, canon)


# (count per round, op kind, standing input key)
MEMBERSHIP_MIX = [
    (8, "nf", "syz_gf2"),
    (8, "nf", "cyc4_gf"),
    (8, "nf", "kat3_qq"),
    (4, "rel_witness.member", "syz_gf2"),
    (4, "rel_witness.nonmember", "syz_gf2"),
    (2, "rel_witness.member", "syz_qq"),
    (2, "rel_witness.nonmember", "syz_qq"),
    (2, "witness.member", "sub_qq"),
    (2, "witness.nonmember", "sub_qq"),
]
MEMBERSHIP_ROUNDS = 20
NF_SHAPE = {"syz_gf2": (12, 6), "cyc4_gf": (8, 5), "kat3_qq": (8, 4)}


def build_membership(seed: int, work_dir: Path) -> Deck:
    standing = standing_inputs()
    rounds = []
    for r in range(MEMBERSHIP_ROUNDS):
        rng = round_rng("membership", seed, r)
        ops = []
        for count, kind, key in MEMBERSHIP_MIX:
            R, _, obj = standing[key]
            for _ in range(count):
                if kind == "nf":
                    nterms, deg = NF_SHAPE[key]
                    f = random_poly(rng, R.base, nterms, deg)
                    ops.append(_nf_op(f"nf.{key}", R, f, rng))
                elif kind.startswith("rel_witness"):
                    ops.append(_witness_op(f"{kind}.{key}", R, obj.canonical_relations,
                                           obj.rel_witness, rng, kind.endswith(".member")))
                else:
                    ops.append(_witness_op(f"{kind}.{key}", R, obj.generators,
                                           obj.witness, rng, kind.endswith(".member")))
        rng.shuffle(ops)
        rounds.append(ops)
    checks = [_modulus_check(R, gens) for R, gens, _ in standing.values()]
    return Deck(rounds, checks)


# ---------------------------------------------------------------------------
# gclass: g_class_test, gpd_bounded and complete_resolution_check on local
# Artinian rings
# ---------------------------------------------------------------------------

def _small_coefficient(rng, fld):
    return rng.randrange(1, fld.p) if fld is not QQ else rng.randint(1, 9)


def residue_field(rng, R):
    """k = R/m, with m generated by a random invertible mix of the variables."""
    fld = R.base.field
    gens = R.base.gens()
    while True:
        mat = [[rng.randrange(getattr(fld, "p", 3)) for _ in gens] for _ in gens]
        if gate.field_rank(mat, gate.Arith(fld)) == len(gens):
            break
    rel = []
    for row in mat:
        f = R.base.zero()
        for c, v in zip(row, gens):
            f = f + v.scale(fld.from_int(c))
        rel.append(f)
    return FPModule(R, 1, [(f,) for f in rel])


def principal_quotient(rng, R, text):
    """R/(f), with f multiplied by a random unit c + b*x."""
    fld = R.base.field
    x = R.base.gens()[0]
    unit = R.base.constant(_small_coefficient(rng, fld)) + x.scale(fld.from_int(rng.randrange(2)))
    return FPModule(R, 1, [(R.nf(unit * R.base.poly(text)),)])


def _gclass_canon(rep):
    parts = [rep.verdict_str(), rep.cond3_verdict]
    for cond in (rep.cond1, rep.cond2):
        for e in cond:
            parts.append(f"{e.i}:{e.is_zero}:{e.module.ngens}:"
                         f"{_columns_canon(e.module.canonical_relations)}")
    return "|".join(parts)


def _expect(expected, got):
    if got != expected:
        raise GateError(f"verdict {got!r}, expected {expected!r}")


def _gclass_op(kind, M, depth, expected):
    return Op(kind, f"{_module_canon(M)}:{depth}", lambda: gproj.g_class_test(M, depth),
              lambda rep: _expect(expected, rep.verdict_str()), _gclass_canon)


def _gpd_op(kind, M, n, depth, expected):
    return Op(kind, f"{_module_canon(M)}:{n}:{depth}", lambda: gproj.gpd_bounded(M, n, depth),
              lambda v: _expect(expected, str(v)),
              lambda v: str(v) + "|" + _gclass_canon(v.report))


def _crc_op(kind, M, window, expected_route):
    def canon(w):
        return "|".join([w.route, str(w.ranks), str(w.module_position)] +
                        [_columns_canon(m) for m in w.maps])

    return Op(kind, f"{_module_canon(M)}:{window}",
              lambda: gproj.complete_resolution_check(M, window),
              lambda w: _expect(expected_route, getattr(w, "route", type(w).__name__)),
              canon)


def gclass_rings():
    return {
        "A": PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"]),
        "B": PolyRing(GF(2), ("x", "y", "z")).quotient(["x^2", "y^2", "z^2"]),
        "C": PolyRing(QQ, ("x", "y")).quotient(["x^2", "y^2"]),
        "D": PolyRing(GF(3), ("x", "y")).quotient(["x*y"]),
        "E": PolyRing(GF(2), ("x", "y")).quotient(["x^2", "x*y", "y^2"]),
        "chain2": PolyRing(GF(7), ("x",)).quotient(["x^2"]),
        "chain4": PolyRing(GF(5), ("x",)).quotient(["x^4"]),
        "chain5": PolyRing(GF(3), ("x",)).quotient(["x^5"]),
    }


CERT = "Certified(complete_resolution)"

# (count per round, op name, ring, module, depth or (n, depth), expected)
GCLASS_MIX = [
    (1, "gclass", "A", "k", 8, CERT),
    (1, "gclass", "B", "k", 1, CERT),
    (1, "gclass", "E", "k", 1, "Fail(cond1 at m=1)"),
    (1, "gpd", "A", "k", (1, 2), "AtMost(1)"),
    (1, "gclass", "C", "k", 2, CERT),
    (1, "crc", "A", "k", 4, "dual_of_dual_resolution"),
    (10, "gclass", "A", "k", 2, CERT),
    (4, "gclass", "chain5", "x", 6, CERT),
    (3, "gclass", "A", "x", 3, CERT),
    (2, "gclass", "D", "y", 4, CERT),
    (40, "gclass", "chain4", "x^2", 4, CERT),
    (16, "gclass", "D", "y", 2, CERT),
    (8, "crc", "D", "y", 3, "periodic"),
    (11, "gclass", "chain2", "x", 2, CERT),
]
GCLASS_ROUNDS = 3


def build_gclass(seed: int, work_dir: Path) -> Deck:
    rings = gclass_rings()
    rounds = []
    for r in range(GCLASS_ROUNDS):
        rng = round_rng("gclass", seed, r)
        ops = []
        for count, op, rkey, mod, arg, expected in GCLASS_MIX:
            R = rings[rkey]
            for _ in range(count):
                M = residue_field(rng, R) if mod == "k" else principal_quotient(rng, R, mod)
                kind = f"{op}.{rkey}.{mod}.{arg}"
                if op == "gclass":
                    ops.append(_gclass_op(kind, M, arg, expected))
                elif op == "gpd":
                    ops.append(_gpd_op(kind, M, arg[0], arg[1], expected))
                else:
                    ops.append(_crc_op(kind, M, arg, expected))
        rng.shuffle(ops)
        rounds.append(ops)
    return Deck(rounds)


# ---------------------------------------------------------------------------
# cli_report: in-process `gproj <cmd> <model> ... --format machine`
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def machine_fields(text: str) -> dict:
    """Flat view of a machine-format report: block paths joined with '.'."""
    fields, stack = {}, []
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip(" "))) // 2
        stack = stack[:depth]
        body = line.strip()
        if body.endswith(":") and " = " not in body:
            stack.append(body[:-1])
            continue
        key, _, value = body.partition(" = ")
        fields[".".join(stack + [key])] = value
    return fields


def _mat_text(rows):
    return "[" + ", ".join("[" + ", ".join(str(v) for v in row) + "]" for row in rows) + "]"


def _cli_check(expected_code, expect_fields, extra=None):
    def check(res: CliResult):
        if res.code != expected_code:
            raise GateError(f"exit code {res.code}, expected {expected_code}: {res.err.strip()}")
        got = machine_fields(res.out)
        for key, value in expect_fields.items():
            if got.get(key) != value:
                raise GateError(f"{key} = {got.get(key)!r}, expected {value!r}")
        if extra is not None:
            extra(got)
    return check


def _cli_op(kind, argv, check):
    model = "" if argv[1] == "-" else Path(argv[1]).read_text(encoding="utf-8")
    inputs = " ".join(argv[:1] + argv[2:]) + "\n" + model
    return Op(kind, inputs, lambda: run_cli(argv), check,
              lambda res: f"{res.code}\n{res.out}")


def _snf_check(A):
    def extra(got):
        U, S, V = ([ast.literal_eval(got[f"{name}.row{i}"]) for i in range(len(A))]
                   for name in ("U", "S", "V"))
        gate.check_snf(A, U, S, V, ast.literal_eval(got["diagonal"]))
    return extra


def _parse_class(text: str) -> dict:
    if text == "0":
        return {}
    coords = {}
    for part in text.replace(" - ", " + -").split(" + "):
        c, _, label = part.partition("*")
        coords[label] = int(c)
    return coords


def _k0_check(family, rows, ngens, chain_power=0, p=None):
    """Independent invariant of M = coker(rows): dim over a field, free rank
    over QQ[x] (rank at three sample points), length over k[x]/(x^n)."""
    def extra(got):
        cls = _parse_class(got["class"])
        if family == "field":
            want = ngens - gate.field_rank(rows, gate.Arith(QQ))
            if cls != ({"[k]": want} if want else {}):
                raise GateError(f"class {got['class']} != {want}*[k]")
            if got["euler_class"] != got["class"]:
                raise GateError("euler class differs from class over a field")
        elif family == "poly":
            ranks = [gate.field_rank([[_ev(f, t) for f in row] for row in rows], gate.Arith(QQ))
                     for t in (3, 7, 11)]
            free = ngens - max(ranks)
            if cls.get("[R]", 0) != free:
                raise GateError(f"free rank {cls.get('[R]', 0)} != {free}")
            if got["euler_class"] != (f"{free}*[R]" if free else "0"):
                raise GateError(f"euler class {got['euler_class']} != {free}*[R]")
        else:
            length = 0
            for label, c in cls.items():
                length += c * (chain_power if label == "[R]" else
                               int(label.split("^")[1][:-2]) if "^" in label else 1)
            if length != _chain_length(rows, ngens, chain_power, p):
                raise GateError("composition length does not match the class")
    return extra


def _ev(coeffs, t):
    """Evaluate a polynomial given as {degree: int} at x = t."""
    return sum(c * t ** k for k, c in coeffs.items())


def _chain_length(rows, ngens, n, p):
    """dim_k of k[x]/(x^n)^ngens modulo the span of x^i * column_j."""
    ncols = len(rows[0]) if rows else 0
    vecs = []
    for j in range(ncols):
        for i in range(n):
            v = [0] * (ngens * n)
            for g in range(ngens):
                for k, c in rows[g][j].items():
                    if k + i < n:
                        v[g * n + k + i] = (v[g * n + k + i] + c) % p
            vecs.append(v)
    return ngens * n - (gate.field_rank(vecs, gate.Arith(GF(p))) if vecs else 0)


def _poly_entry(rng, deg, lo=-5, hi=5, p=None):
    d = {}
    for k in range(deg + 1):
        c = rng.randint(lo, hi) if p is None else rng.randrange(p)
        if c:
            d[k] = c
    return d


def _entry_text(d):
    if not d:
        return "0"
    parts = [(f"{c}*x^{k}" if k else str(c)) for k, c in sorted(d.items(), reverse=True)]
    return " + ".join(parts).replace("+ -", "- ")


def _module_line(name, ring, rows):
    cells = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    return f"module {name} over {ring} gens {len(rows)} relations [{cells}]"


class ModelWriter:
    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = self.root / f"m{self.count}.model"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _k0_op(rng, models, family, n, m, p=None, chain=0):
    if family == "field":
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        # make the matrix rank-deficient half of the time
        if rng.random() < 0.5 and m > 1:
            for row in rows:
                row[-1] = row[0] + row[1]
        text = "ring R = QQ[]\n" + _module_line("M", "R", [[str(v) for v in r] for r in rows])
        extra = _k0_check("field", rows, n)
    elif family == "poly":
        rows = [[_poly_entry(rng, 2) for _ in range(m)] for _ in range(n)]
        text = "ring R = QQ[x]\n" + _module_line("M", "R", [[_entry_text(d) for d in r] for r in rows])
        extra = _k0_check("poly", rows, n)
    else:
        rows = [[_poly_entry(rng, chain - 1, p=p) for _ in range(m)] for _ in range(n)]
        for row in rows:  # entries in the maximal ideal keep the module non-free
            for d in row:
                d.pop(0, None)
        text = (f"ring R = GF({p})[x] mod [x^{chain}]\n" +
                _module_line("M", "R", [[_entry_text(d) for d in r] for r in rows]))
        extra = _k0_check("chain", rows, n, chain, p)
    path = models.write(text + "\n")
    return _cli_op(f"cli.k0.{family}", ["k0", path, "M", "--format", "machine"],
                   _cli_check(0, {"family": family}, extra))


def _snf_op(rng, n, bound):
    A = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    return _cli_op(f"cli.snf.{n}x{n}", ["snf", "-", _mat_text(A), "--format", "machine"],
                   _cli_check(0, {}, _snf_check(A)))


def _gb_cli_check(gens, ring):
    def extra(got):
        basis = [ring.poly(got[f"g{i}"]) for i in range(int(got["size"]))]
        gate.check_groebner(gens, basis, ring)
    return extra


def _ideal_ring_text(rng, family, n, fkey):
    ring, gens = ideal_instance(rng, family, n, fkey, "grevlex", "scaled")
    fld = "QQ" if fkey == "qq" else f"GF({P})"
    text = (f"ring R = {fld}[{', '.join(ring.variables)}] mod [" +
            ", ".join(gproj.format_poly(g) for g in gens) + "]\n")
    return ring, gens, text


def _gb_op_cli(rng, models, family, n, fkey):
    ring, gens, text = _ideal_ring_text(rng, family, n, fkey)
    path = models.write(text)
    return _cli_op(f"cli.gb.{family}{n}.{fkey}", ["gb", path, "R", "--format", "machine"],
                   _cli_check(0, {}, _gb_cli_check(gens, ring)))


def _nf_op_cli(rng, models, family, n, fkey):
    ring, gens, text = _ideal_ring_text(rng, family, n, fkey)
    f = random_poly(rng, ring, 6, 4)
    ftext = gproj.format_poly(f)
    path = models.write(text)
    R = ring.quotient(gens)
    leads = [g.lead_monomial() for g in R.modulus.reduced_gb]

    def extra(got):
        r = ring.poly(got["normal_form"])
        gate.check_reduced_against(r, leads)
        key, ar = ring._key, gate.Arith(ring.field)
        diff = gate.poly_sub(gate.terms_of(f), gate.terms_of(r), ar)
        if gate.remainder(diff, [gate.terms_of(g) for g in R.modulus.reduced_gb], key, ar):
            raise GateError("input minus normal form is not in the ideal")

    return _cli_op(f"cli.nf.{family}{n}.{fkey}", ["nf", path, "R", ftext, "--format", "machine"],
                   _cli_check(0, {"input": ftext}, extra))


def _ann_op(rng, models):
    ring = PolyRing(GF(2), ("x", "y"))
    R = ring.quotient(["x^2", "y^2"])
    a = rng.choice(["x", "y", "x+y", "x*y", "x+x*y"])
    path = models.write("ring R = GF(2)[x, y] mod [x^2, y^2]\n")
    aa = R.poly(a)

    def extra(got):
        for i in range(int(got["annihilator_size"])):
            if not R.nf(aa * ring.poly(got[f"a{i}"])).is_zero():
                raise GateError("annihilator element does not kill the element")

    return _cli_op("cli.ann", ["ann", path, "R", a, "--format", "machine"],
                   _cli_check(0, {}, extra))


def _pd_op(rng, models, which):
    if which == "chain":
        p = rng.choice([2, 3, 5])
        text = f"ring R = GF({p})[x] mod [x^2]\nmodule M over R gens 1 relations [[x]]\n"
        verdict = "InfinitePeriodic(0,1)"
    else:
        c, root = rng.randint(1, 9), rng.randint(1, 9)
        text = f"ring R = QQ[x]\nmodule M over R gens 1 relations [[{c}*x - {c * root}]]\n"
        verdict = "Finite(1)"
    path = models.write(text)
    return _cli_op(f"cli.pd.{which}", ["pd", path, "M", "--format", "machine", "--depth", "4"],
                   _cli_check(0, {"verdict": verdict}))


def _resolve_op(rng, models):
    a, b = rng.choice([("x", "y"), ("y", "x"), ("x + y", "y"), ("x", "x + y")])
    path = models.write("ring A = GF(2)[x, y] mod [x^2, y^2]\n"
                        f"module k over A gens 1 relations [[{a}, {b}]]\n")
    return _cli_op("cli.resolve", ["resolve", path, "k", "--format", "machine", "--depth", "2"],
                   _cli_check(0, {"verdict": "AtLeast(2)", "periodicity": "none"}))


def _lemma45_op(rng, models):
    p = rng.choice([2, 3, 5, 7])
    path = models.write(f"ring R = GF({p})[x] mod [x^2]\n")
    return _cli_op("cli.lemma45", ["lemma45", path, "R", "x", "--format", "machine"],
                   _cli_check(0, {"accepted": "True", "pd_verdict": "InfinitePeriodic(0,1)"}))


def _report_op(rng, models):
    p = rng.choice([2, 3, 5])
    c = rng.randint(1, 9)
    text = (f"ring R = GF({p})[x] mod [x^2]\n"
            "module I over R gens 1 relations [[x]]\n"
            "ring S = QQ[x]\n"
            f"module T over S gens 2 relations [[x - {c}, 1], [0, x^2]]\n"
            "task pd I --depth 4\n"
            "task k0 T\n"
            "task gb R\n"
            "task lemma45 R x\n")
    path = models.write(text)
    expect = {"task0.verdict": "InfinitePeriodic(0,1)", "task1.family": "poly",
              "task1.euler_class": "0", "task2.g0": "x^2", "task3.accepted": "True"}
    return _cli_op("cli.report", ["report", path, "--format", "machine"],
                   _cli_check(0, expect))


def _cli_round(rng, models):
    ops = []
    ops += [_snf_op(rng, 4, 30) for _ in range(24)]
    ops += [_snf_op(rng, 3, 50) for _ in range(6)]
    ops += [_snf_op(rng, 5, 5) for _ in range(6)]
    ops += [_k0_op(rng, models, "field", 3, 3) for _ in range(2)]
    ops += [_k0_op(rng, models, "poly", 3, 3) for _ in range(8)]
    ops += [_k0_op(rng, models, "chain", 2, 2, p=rng.choice([2, 3, 5]), chain=3)
            for _ in range(4)]
    ops += [_gb_op_cli(rng, models, "katsura", 3, "qq"),
            _gb_op_cli(rng, models, "cyclic", 4, "gf")]
    ops += [_nf_op_cli(rng, models, "cyclic", 4, "gf"),
            _nf_op_cli(rng, models, "katsura", 3, "qq")]
    ops += [_ann_op(rng, models), _pd_op(rng, models, "chain"), _pd_op(rng, models, "poly"),
            _resolve_op(rng, models), _lemma45_op(rng, models), _report_op(rng, models)]
    rng.shuffle(ops)
    return ops


CLI_ROUNDS = 24


def build_cli_report(seed: int, work_dir: Path) -> Deck:
    work_dir.mkdir(parents=True, exist_ok=True)
    models = ModelWriter(work_dir)
    rounds = [_cli_round(round_rng("cli_report", seed, r), models) for r in range(CLI_ROUNDS)]
    return Deck(rounds)


DECKS = {
    "ideal_gb": build_ideal_gb,
    "membership": build_membership,
    "gclass": build_gclass,
    "cli_report": build_cli_report,
}
