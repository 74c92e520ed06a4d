"""Benchmark of the gproj library: seeded closed-loop workloads.

    python3 perfbench/run.py --workload ideal_gb --seed 1 --seconds 6 --trace 0

One caller runs the workload's ops back to back, in whole rounds, until a
third of `--seconds` of op time and at least 100 ops are done, then runs
the same ops twice more; each op's latency is the median of its three.
Every time is scaled to a reference host speed by probes of a fixed kernel
taken along the loop (calibrate.py), so a slow spell of a shared host does
not read as a slower library; the summary line states the host speed seen.
Every result is checked after the timed loop (gate.py); for the default
seed each round's canonical outputs are also compared with the digests in
reference_digests.json. The last line of output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs a fixed
number of rounds, each op once untraced and once with span wrappers
(tracing.py), then all of them again with field-arithmetic counters, and
reports the per-layer metrics, whose counts repeat exactly for a given
seed, with the tracing overhead.
`--workload all` runs the four workloads one after another in this process
(peak RSS is then the process's high-water mark so far).

Exit status: 0 when every op passed, 1 when any op failed, 2 on a usage or
environment error (for example no gproj sources next to this directory).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference_digests.json"
WORK = HERE / "_work" / str(os.getpid())
SPANS = HERE / "_out"

DEFAULT_SEED = 1
WORKLOADS = ("ideal_gb", "membership", "gclass", "cli_report")
MIN_OPS = 100
SWEEPS = 3
SETUP_REPEATS = 5
OP_CAP_S = 30.0  # a single op or check running longer counts as failed
LOOP_WALL_CAP_S = 45.0  # first sweep stops adding rounds after this much wall time
TRACE_ROUNDS = {"ideal_gb": 1, "membership": 20, "gclass": 1, "cli_report": 4}

END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by the alarm when an op passes its cap; a BaseException so the
    library's own `except Exception` handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def capped(fn, *args):
    """(seconds, result, error text or None) of fn(*args) under OP_CAP_S."""
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    try:
        t0 = perf_counter()
        try:
            out, err = fn(*args), None
        except OpTimeout:
            out, err = None, f"timeout after {OP_CAP_S:g} s"
        except Exception as exc:  # any library failure counts against the op
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return t1 - t0, out, err


def import_gproj(cal) -> float:
    """Import gproj from the sources beside this directory SETUP_REPEATS
    times (dropping it from sys.modules in between); the median time in s,
    at the reference host speed."""
    if not (SRC / "gproj" / "__init__.py").is_file():
        print(f"error: no gproj sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    spans = []
    with cal.running():
        for _ in range(SETUP_REPEATS):
            for name in [m for m in sys.modules if m == "gproj" or m.startswith("gproj.")]:
                del sys.modules[name]
            mark = cal.mark()
            import gproj
            spans.append(cal.span(mark))
    if Path(gproj.__file__).resolve().parent != (SRC / "gproj").resolve():
        print(f"error: imported gproj from {gproj.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return statistics.median(cal.scale(span) for span in spans)


def build(name, seed, tag, repeats=SETUP_REPEATS, cal=None):
    """Build the workload's deck `repeats` times; (first deck, median s at
    the reference host speed)."""
    import workloads

    cal = cal or Calibrator()
    spans, deck = [], None
    with cal.running():
        for k in range(repeats):
            mark = cal.mark()
            d = workloads.DECKS[name](seed, WORK / tag / f"b{k}")
            spans.append(cal.span(mark))
            deck = deck or d
    return deck, statistics.median(cal.scale(span) for span in spans)


REPEAT = object()  # stands for a result dropped after matching its first run


def run_rounds(deck, rounds, seconds=None, tracer=None, canons=None, cal=None):
    """Run ops in whole rounds. With `seconds`, keep going until that much op
    time and MIN_OPS ops are done; otherwise run exactly `rounds` rounds.
    With `canons`, a dict shared across calls, a repeated op's output is
    compared with its first run's canonical text (after its timing) and
    dropped, so memory stays at one result per distinct op. With `cal`, a
    Calibrator, the recorded seconds are at the reference host speed.
    Returns [(round index in deck, op index, seconds, result, error)]."""
    spans = []
    with cal.running() if cal is not None else contextlib.nullcontext():
        records = _rounds(deck, rounds, seconds, tracer, canons, cal, spans)
    if cal is not None:
        records = [(ri, i, cal.scale(span), out, err)
                   for span, (ri, i, _, out, err) in zip(spans, records)]
    return records


def _rounds(deck, rounds, seconds, tracer, canons, cal, spans):
    records, busy, r = [], 0.0, 0
    start = perf_counter()
    while True:
        ri = r % len(deck.rounds)
        for i, op in enumerate(deck.rounds[ri]):
            if tracer is not None:
                tracer.begin_op((r, i), op.kind)
            if cal is not None:
                mark = cal.mark()
            dt, out, err = capped(op.run)
            if cal is not None:
                spans.append(cal.span(mark))
                dt = spans[-1][2]
            if tracer is not None:
                tracer.end_op()
            if canons is not None and err is None:
                _, canon, err = capped(op.canon, out)
                if (ri, i) not in canons:
                    canons[(ri, i)] = canon
                else:
                    if err is None and canon != canons[(ri, i)]:
                        err = "output differs from an earlier run of the same input"
                    out = REPEAT
            records.append((ri, i, dt, out, err))
            busy += dt
        r += 1
        if seconds is None:
            if r >= rounds:
                break
        elif (busy >= seconds and len(records) >= MIN_OPS) or \
                perf_counter() - start > LOOP_WALL_CAP_S:
            break
    return records


def gate_records(deck, records, seed, name):
    """Check every record outside the timed region; returns the failures as
    {record index: reason}."""
    import gate

    failures, digests = {}, {}
    for checker in deck.standing_checks:
        _, _, err = capped(checker)
        if err:
            return {k: f"standing input: {err}" for k in range(len(records))}
    for k, (ri, i, _, out, err) in enumerate(records):
        op = deck.rounds[ri][i]
        if err:
            failures[k] = err
            continue
        if out is REPEAT:
            continue
        _, canon, cerr = capped(op.canon, out)
        if cerr is None:
            _, _, cerr = capped(op.check, out)
        if cerr:
            failures[k] = f"check: {cerr}"
        digests[(ri, i)] = gate.digest(canon) if canon is not None else "failed"
    # a repeat whose output matched a failed first run fails with it
    failed_ops = {records[k][:2]: reason for k, reason in failures.items()}
    for k, (ri, i, _, out, _) in enumerate(records):
        if out is REPEAT and (ri, i) in failed_ops and k not in failures:
            failures[k] = failed_ops[(ri, i)]
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())[name]
        bad_rounds = {ri for ri in {ri for ri, _ in digests}
                      if ri >= len(reference) or round_digest(deck, digests, ri) != reference[ri]}
        for k, (ri, *_rest) in enumerate(records):
            if ri in bad_rounds and k not in failures:
                failures[k] = "reference digest mismatch"
    return failures


def round_digest(deck, digests, ri):
    import gate

    parts = [digests.get((ri, i), "missing") for i in range(len(deck.rounds[ri]))]
    return gate.digest("\n".join(parts))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report_failures(name, records, failures, deck):
    for k in sorted(failures)[:10]:
        ri, i = records[k][:2]
        print(f"  FAIL {name} round {ri} op {i} ({deck.rounds[ri][i].kind}): {failures[k]}",
              file=sys.stderr)


def timed_run(name, seed, seconds, import_s, cal):
    """SWEEPS passes over the same ops. The first pass takes whole rounds
    until seconds/SWEEPS of op time and MIN_OPS ops are done; each op's
    latency is the median of its SWEEPS runs, which spreads every op over
    the whole run and discards a pass that hit a slow spell of the machine."""
    deck, setup_median = build(name, seed, f"{name}-{seed}", cal=cal)
    canons = {}
    sweeps = [run_rounds(deck, None, seconds / SWEEPS, canons=canons, cal=cal)]
    n_rounds = -(-len(sweeps[0]) // len(deck.rounds[0]))
    sweeps += [run_rounds(deck, n_rounds, canons=canons, cal=cal) for _ in range(SWEEPS - 1)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [rec for sweep in sweeps for rec in sweep]
    failures = gate_records(deck, records, seed, name)
    report_failures(name, records, failures, deck)
    lat = [statistics.median(runs) for runs in zip(*([rec[2] for rec in sweep] for sweep in sweeps))]
    n = len(lat)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "setup_s": import_s + setup_median,
        "peak_rss_mb": peak_mb,
    }
    print(f"{name}: n_ops={n} (each timed {SWEEPS}x, median taken) " +
          " ".join(f"{k}={v:.6g} {END_TO_END[k]}" for k, v in metrics.items()) +
          f" fail_ratio={len(failures) / len(records):.6g} ({len(failures)}/{len(records)})"
          f" host_speed={cal.speed():.3f}x reference")
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return len(records), len(failures), metrics


def traced_run(name, seed):
    import gate
    import tracing

    deck, _ = build(name, seed, f"{name}-{seed}-trace", repeats=1)
    rounds = TRACE_ROUNDS[name]
    tracer = tracing.Tracer()
    plain, traced = [], []
    # Each op runs once plain and once traced, back to back in alternating
    # order, so a drift in machine speed does not read as tracing overhead.
    for r in range(rounds):
        for i, op in enumerate(deck.rounds[r]):
            for with_spans in ((False, True) if (r + i) % 2 == 0 else (True, False)):
                if not with_spans:
                    plain.append((r, i, *capped(op.run)))
                    continue
                tracer.install()
                tracer.begin_op((r, i), op.kind)
                try:
                    traced.append((r, i, *capped(op.run)))
                finally:
                    tracer.end_op()
                    tracer.uninstall()
    counter = tracing.FieldCounter()
    counter.install()
    counter.enabled = True
    try:
        run_rounds(deck, rounds)
    finally:
        counter.enabled = False
        counter.uninstall()
    failures = gate_records(deck, traced, seed, name)
    for k, (a, b) in enumerate(zip(plain, traced)):
        op = deck.rounds[a[0]][a[1]]
        if k not in failures and (a[4] or b[4] or gate.digest(op.canon(a[3])) !=
                                  gate.digest(op.canon(b[3]))):
            failures[k] = "traced output differs from the untraced output"
    report_failures(name, traced, failures, deck)
    tracer.write_spans(SPANS / f"spans_{name}_seed{seed}.jsonl.gz")
    n = len(traced)
    layer = tracer.layer_metrics()
    layer["fields.ops"] = counter.ops
    layer["fields.inv"] = counter.inv
    layer["cli.out_bytes"] = sum(len(rec[3].out.encode()) for rec in traced
                                 if hasattr(rec[3], "out"))
    plain_rate = n / sum(rec[2] for rec in plain)
    traced_rate = n / sum(rec[2] for rec in traced)
    layer["trace.n_ops"] = n
    layer["trace.untraced_ops_per_s"] = plain_rate
    layer["trace.traced_ops_per_s"] = traced_rate
    layer["trace.overhead_ratio"] = plain_rate / traced_rate
    print(f"{name} (traced, {rounds} rounds): n_ops={n} tracing overhead "
          f"{plain_rate / traced_rate:.3f}x ({plain_rate:.4g} -> {traced_rate:.4g} ops/s)")
    metrics = {k: {"value": layer[k], "unit": unit}
               for k, (unit, _) in tracing.LAYER_METRICS.items()}
    return n, len(failures), metrics


def write_reference() -> None:
    """Record the default seed's round digests (only when an output change
    is intended and has been reviewed)."""
    import gate

    out = {}
    for name in WORKLOADS:
        deck, _ = build(name, DEFAULT_SEED, f"{name}-reference", repeats=1)
        records = run_rounds(deck, len(deck.rounds))
        failures = gate_records(deck, records, None, name)
        if failures:
            report_failures(name, records, failures, deck)
            raise SystemExit(f"error: {len(failures)} {name} ops failed; nothing written")
        digests = {(ri, i): gate.digest(deck.rounds[ri][i].canon(result))
                   for ri, i, _, result, _ in records}
        out[name] = [round_digest(deck, digests, ri) for ri in range(len(deck.rounds))]
        print(f"{name}: {len(out[name])} rounds")
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference_digests.json for the default seed")
    args = parser.parse_args(argv)

    cal = Calibrator()
    import_s = import_gproj(cal)
    signal.signal(signal.SIGALRM, _on_alarm)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        if args.write_reference:
            write_reference()
            return 0
        for name in names:
            if args.trace:
                n, bad, m = traced_run(name, args.seed)
            else:
                n, bad, m = timed_run(name, args.seed, args.seconds, import_s, cal)
            attempted += n
            failed += bad
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
