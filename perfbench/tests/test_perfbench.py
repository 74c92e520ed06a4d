"""Tests of the benchmark harness itself: generators, gate and tracing."""

import ast
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gproj  # noqa: E402
import calibrate  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gate import GateError  # noqa: E402
from workloads import CliResult, Deck  # noqa: E402


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def first_of(deck, prefix, count=1):
    ops = [op for rnd in deck.rounds for op in rnd if op.kind.startswith(prefix)]
    return ops[:count]


def cheap_ops(tmp_path):
    """A few fast ops from every workload, for the tracing tests."""
    gb = workloads.build_ideal_gb(5, tmp_path)
    mem = workloads.build_membership(5, tmp_path)
    gc = workloads.build_gclass(5, tmp_path)
    cli = workloads.build_cli_report(5, tmp_path / "cli")
    ops = first_of(gb, "gb.cyclic3", 3) + first_of(gb, "gb.cyclic4.gf.grevlex.scaled", 1)
    ops += mem.rounds[0][:12]
    ops += first_of(gc, "crc.D", 1) + first_of(gc, "gclass.chain2", 1)
    ops += [op for op in cli.rounds[0] if op.kind != "cli.resolve"][:20]
    return Deck([ops])


# ----- generators -----

@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    build = workloads.DECKS[name]
    a = build(7, tmp_path / "a")
    b = build(7, tmp_path / "b")
    c = build(8, tmp_path / "c")
    inputs = [[op.inputs for op in rnd] for rnd in a.rounds]
    assert inputs == [[op.inputs for op in rnd] for rnd in b.rounds]
    assert inputs != [[op.inputs for op in rnd] for rnd in c.rounds]
    # the seed changes inputs, never the op mix of a round
    assert sorted(op.kind for op in a.rounds[0]) == sorted(op.kind for op in c.rounds[0])


# ----- tracing -----

def _gproj_bindings():
    out = {}
    for name, module in sys.modules.items():
        if name == "gproj" or name.startswith("gproj."):
            out.update({(name, k): v for k, v in vars(module).items()})
            for k, v in vars(module).items():
                if isinstance(v, type) and v.__module__.startswith("gproj"):
                    out.update({(name, k, a): m for a, m in vars(v).items()})
    return out


def test_wrappers_leave_outputs_identical_and_are_removed(tmp_path):
    deck = cheap_ops(tmp_path)
    before = _gproj_bindings()
    original = gproj.resolutions.free_resolution
    plain = run.run_rounds(deck, 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (gproj.gorenstein, gproj.kgroups, gproj.cli, gproj.resolutions, gproj):
            assert module.free_resolution is not original
        traced = run.run_rounds(deck, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    after = _gproj_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for (ri, i, _, a, ea), (_, _, _, b, eb) in zip(plain, traced):
        assert ea is None and eb is None
        op = deck.rounds[ri][i]
        assert gate.digest(op.canon(a)) == gate.digest(op.canon(b))
    assert tracer.layer_metrics()["rings.gb_calls"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    deck = cheap_ops(tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.run_rounds(deck, 1, tracer=tracer)
        finally:
            tracer.uninstall()
        m = tracer.layer_metrics()
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]


def test_field_counter_counts_outermost_calls_only():
    counter = tracing.FieldCounter()
    counter.install()
    counter.enabled = True
    try:
        F = gproj.GF(7)
        F.div(3, 5)  # one op, which inverts once
        F.add(1, 2)
    finally:
        counter.uninstall()
    assert (counter.ops, counter.inv) == (2, 1)
    assert "div" not in vars(type(F)) and not hasattr(gproj.fields.Field.div, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [("op", 0.0, 10.0, -1, 0), ("a", 1.0, 6.0, 0, 0),
             ("b", 2.0, 3.0, 1, 0), ("b", 7.0, 9.0, 0, 0)]
    assert tracing.self_times(spans) == [3.0, 4.0, 1.0, 2.0]


# ----- gate -----

def test_gate_rejects_corrupted_groebner_basis(tmp_path):
    op = first_of(workloads.build_ideal_gb(3, tmp_path), "gb.cyclic3.qq")[0]
    out = op.run()
    op.check(out)
    with pytest.raises(GateError):
        op.check(out[:-1])
    g = out[0]
    e, c = g.terms[-1]
    bumped = g.ring.from_dict({**dict(g.terms), e: c + 1})
    with pytest.raises(GateError):
        op.check((bumped,) + tuple(out[1:]))


def test_gate_rejects_corrupted_membership_outputs(tmp_path):
    deck = workloads.build_membership(3, tmp_path)
    member = first_of(deck, "rel_witness.member.syz_gf2")[0]
    out = member.run()
    member.check(out)
    with pytest.raises(GateError):
        member.check([out[0] + out[0].ring.one()] + list(out[1:]))
    with pytest.raises(GateError):
        member.check(None)
    nonmember = first_of(deck, "rel_witness.nonmember.syz_gf2")[0]
    nonmember.check(nonmember.run())
    with pytest.raises(GateError):
        nonmember.check(out)
    nf = first_of(deck, "nf.kat3_qq")[0]
    r = nf.run()
    nf.check(r)
    with pytest.raises(GateError):
        nf.check(r + r.ring.one())


def test_gate_rejects_corrupted_cli_and_verdicts(tmp_path):
    deck = workloads.build_cli_report(3, tmp_path)
    snf = first_of(deck, "cli.snf.4x4")[0]
    res = snf.run()
    snf.check(res)
    with pytest.raises(GateError):
        snf.check(CliResult(1, res.out, res.err))
    lines = res.out.splitlines()
    row = lines.index("U:") + 1
    values = ast.literal_eval(lines[row].split(" = ")[1])
    values[0] += 1
    lines[row] = f"  row0 = {values}"
    with pytest.raises(GateError):
        snf.check(CliResult(0, "\n".join(lines), res.err))
    k0 = first_of(deck, "cli.k0.chain")[0]
    res = k0.run()
    k0.check(res)
    with pytest.raises(GateError):
        k0.check(CliResult(0, res.out.replace("class = ", "class = 1*[R] + "), res.err))
    gc = first_of(workloads.build_gclass(3, tmp_path), "crc.D")[0]
    window = gc.run()
    gc.check(window)
    with pytest.raises(GateError):
        gc.check(window._replace(route="trivial_projective"))


def test_gate_snf_and_determinant_helpers():
    A = [[2, 4, 5], [1, 3, -7], [6, 0, 9]]
    r = gproj.smith_normal_form(A)
    gate.check_snf(A, r.U, r.S, r.V, r.diagonal)
    assert gate.int_det([[2, 1], [7, 4]]) == 1
    with pytest.raises(GateError):
        gate.check_snf(A, r.U, r.S, r.V, r.diagonal[:-1] + (r.diagonal[-1] * 2,))


# ----- contract -----

def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        tracing.LAYER_METRICS
    reference = json.loads(run.REFERENCE.read_text())
    assert sorted(reference) == sorted(run.WORKLOADS)


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_gproj(run.Calibrator())
    assert exc.value.code == 2


# ----- calibration -----

def test_calibration_scales_by_the_probes_around_a_call():
    cal = calibrate.Calibrator()
    cal.ends, cal.probes = [1.0, 2.0, 3.0, 4.0], [1e-3, 0.5e-3, 0.25e-3, 0.25e-3]
    ref = calibrate.REFERENCE_S
    # probes before and after a short call
    assert cal.scale((1.5, 1.7, 0.2)) == pytest.approx(0.2 * ref / 0.75e-3)
    # a long call also averages the probes taken inside it
    assert cal.scale((1.5, 3.5, 1.9)) == pytest.approx(1.9 * ref / 0.5e-3)
    with pytest.raises(ValueError):
        cal.scale((4.5, 4.7, 0.2))


def test_calibration_probes_inside_a_long_call_and_subtracts_them():
    cal = calibrate.Calibrator()
    with cal.running():
        mark = cal.mark()
        t0 = time.process_time()
        while time.process_time() - t0 < 4 * calibrate.PROBE_EVERY_S:
            pass
        span = cal.span(mark)
    start, end, seconds = span
    inside = [e for e in cal.ends if start < e < end]
    assert len(inside) >= 2
    assert seconds < end - start
    assert cal.scale(span) > 0
