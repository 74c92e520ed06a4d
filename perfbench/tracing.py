"""Outside-in tracing of gproj's public entry points.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, op id) while an op is
running. A function is patched in its defining module and in every gproj
module that imported it by name, so calls made through either name are
seen; methods are patched on their class. `uninstall()` puts every
original back. Spans stay in memory until the run ends; self time is each
span's duration minus the durations of its direct child spans.

Field arithmetic is called millions of times per op, so it is counted by a
separate `FieldCounter` pass that records no spans and does not inflate
the span times of the traced pass.
"""

from __future__ import annotations

import gzip
import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (defining module, attribute path)
TARGETS = {
    "rings.gb": ("gproj.rings", "groebner_basis"),
    "rings.reduce": ("gproj.rings", "reduce_poly"),
    "rings.nf": ("gproj.rings", "QuotRing.nf"),
    "modules.gb": ("gproj.modules", "FreeModuleGB.__init__"),
    "modules.reduce": ("gproj.modules", "FreeModuleGB.reduce"),
    "modules.engine": ("gproj.modules", "SubmoduleEngine.__init__"),
    "modules.witness": ("gproj.modules", "SubmoduleEngine.witness"),
    "modules.contains": ("gproj.modules", "SubmoduleEngine.contains"),
    "modules.syzygies": ("gproj.modules", "SubmoduleEngine.syzygies"),
    "modules.canonical": ("gproj.modules", "canonical_generators"),
    "modules.dual": ("gproj.modules", "dual_module"),
    "resolutions.build": ("gproj.resolutions", "free_resolution"),
    "resolutions.split": ("gproj.resolutions", "split_surjection_onto_kernel"),
    "gorenstein.ext": ("gproj.gorenstein", "ext_module"),
    "gorenstein.gclass": ("gproj.gorenstein", "g_class_test"),
    "gorenstein.crc": ("gproj.gorenstein", "complete_resolution_check"),
    "kgroups.snf": ("gproj.kgroups", "smith_normal_form"),
    "kgroups.decompose": ("gproj.kgroups", "class_decompose"),
    "kgroups.euler": ("gproj.kgroups", "euler_class"),
    "cli.parse": ("gproj.cli", "parse_model_file"),
    "cli.run": ("gproj.cli", "run_command"),
    "cli.render": ("gproj.cli", "Report.render"),
}

ENGINE_QUERIES = ("modules.witness", "modules.contains", "modules.syzygies")

# Per-layer metrics of the traced run: name -> (unit, better).
LAYER_METRICS = {
    "fields.ops": ("count", "lower"),
    "fields.inv": ("count", "lower"),
    "rings.gb_calls": ("count", "lower"),
    "rings.gb_self_s": ("s", "lower"),
    "rings.reduce_calls": ("count", "lower"),
    "rings.reduce_self_s": ("s", "lower"),
    "rings.reduce_useful_ratio": ("ratio", "higher"),
    "rings.nf_calls": ("count", "lower"),
    "rings.nf_self_s": ("s", "lower"),
    "rings.basis_size": ("count", "lower"),
    "modules.gb_builds": ("count", "lower"),
    "modules.gb_self_s": ("s", "lower"),
    "modules.gb_rank_max": ("count", "lower"),
    "modules.reduce_calls": ("count", "lower"),
    "modules.reduce_self_s": ("s", "lower"),
    "modules.reduce_useful_ratio": ("ratio", "higher"),
    "modules.engine_builds": ("count", "lower"),
    "modules.engine_use_ratio": ("ratio", "higher"),
    "modules.canonical_calls": ("count", "lower"),
    "modules.canonical_self_s": ("s", "lower"),
    "modules.witness_calls": ("count", "lower"),
    "modules.witness_self_s": ("s", "lower"),
    "modules.dual_calls": ("count", "lower"),
    "resolutions.builds": ("count", "lower"),
    "resolutions.steps": ("count", "lower"),
    "resolutions.self_s": ("s", "lower"),
    "resolutions.rank_max": ("count", "lower"),
    "resolutions.rebuild_ratio": ("ratio", "lower"),
    "resolutions.split_calls": ("count", "lower"),
    "resolutions.split_self_s": ("s", "lower"),
    "gorenstein.ext_calls": ("count", "lower"),
    "gorenstein.ext_self_s": ("s", "lower"),
    "gorenstein.gclass_calls": ("count", "lower"),
    "gorenstein.gclass_self_s": ("s", "lower"),
    "gorenstein.crc_calls": ("count", "lower"),
    "gorenstein.crc_self_s": ("s", "lower"),
    "kgroups.snf_calls": ("count", "lower"),
    "kgroups.snf_self_s": ("s", "lower"),
    "kgroups.snf_max_bits": ("count", "lower"),
    "kgroups.decompose_calls": ("count", "lower"),
    "kgroups.decompose_self_s": ("s", "lower"),
    "kgroups.euler_self_s": ("s", "lower"),
    "cli.parse_calls": ("count", "lower"),
    "cli.parse_self_s": ("s", "lower"),
    "cli.run_self_s": ("s", "lower"),
    "cli.render_self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "trace.n_ops": ("count", "higher"),
    "trace.untraced_ops_per_s": ("ops/s", "higher"),
    "trace.traced_ops_per_s": ("ops/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# metric -> span whose call count it reports
CALL_COUNTS = {
    "rings.gb_calls": "rings.gb", "rings.reduce_calls": "rings.reduce",
    "rings.nf_calls": "rings.nf", "modules.gb_builds": "modules.gb",
    "modules.reduce_calls": "modules.reduce", "modules.engine_builds": "modules.engine",
    "modules.canonical_calls": "modules.canonical", "modules.witness_calls": "modules.witness",
    "modules.dual_calls": "modules.dual", "resolutions.builds": "resolutions.build",
    "resolutions.split_calls": "resolutions.split", "gorenstein.ext_calls": "gorenstein.ext",
    "gorenstein.gclass_calls": "gorenstein.gclass", "gorenstein.crc_calls": "gorenstein.crc",
    "kgroups.snf_calls": "kgroups.snf", "kgroups.decompose_calls": "kgroups.decompose",
    "cli.parse_calls": "cli.parse",
}

# metric -> span whose summed self time it reports
SELF_TIMES = {
    "rings.gb_self_s": "rings.gb", "rings.reduce_self_s": "rings.reduce",
    "rings.nf_self_s": "rings.nf", "modules.gb_self_s": "modules.gb",
    "modules.reduce_self_s": "modules.reduce", "modules.canonical_self_s": "modules.canonical",
    "modules.witness_self_s": "modules.witness", "resolutions.self_s": "resolutions.build",
    "resolutions.split_self_s": "resolutions.split", "gorenstein.ext_self_s": "gorenstein.ext",
    "gorenstein.gclass_self_s": "gorenstein.gclass", "gorenstein.crc_self_s": "gorenstein.crc",
    "kgroups.snf_self_s": "kgroups.snf", "kgroups.decompose_self_s": "kgroups.decompose",
    "kgroups.euler_self_s": "kgroups.euler", "cli.parse_self_s": "cli.parse",
    "cli.run_self_s": "cli.run", "cli.render_self_s": "cli.render",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a module function or class method."""
    module = sys.modules[module_name]
    if "." in path:
        cls_name, attr = path.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, path, getattr(module, path)


def _patch(owner, attr, original, wrapper, restore: list) -> None:
    """Patch a method on its class, or a function in every gproj module that
    holds it by name (the package itself included)."""
    if isinstance(owner, type):
        restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name != "gproj" and not name.startswith("gproj."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                restore.append((module, key, original))
                setattr(module, key, wrapper)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - child[i] for i, (_, t0, t1, _, _) in enumerate(spans)]


class Tracer:
    """Spans and work counts at gproj's layer boundaries, per op."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.op_id = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._restore: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._engines_built = weakref.WeakSet()
        self._engines_used = weakref.WeakSet()
        self._resolved: dict = {}

    # ----- ops -----
    def begin_op(self, op_id, kind: str) -> None:
        self.op_id = op_id
        self._resolved = {}
        self._stack = [len(self.spans)]
        self.spans.append(["op:" + kind, perf_counter(), None, -1, op_id])

    def end_op(self) -> None:
        span = self.spans[self._stack[0]]
        span[2] = perf_counter()
        self.spans[self._stack[0]] = tuple(span)
        self._stack = []
        self.op_id = None

    # ----- wrappers -----
    def install(self) -> None:
        for name, (module_name, path) in TARGETS.items():
            owner, attr, original = _resolve(module_name, path)
            _patch(owner, attr, original, self._wrap(name, original), self._restore)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, name, original):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return original(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1]
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._active[name] += 1
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                tracer.spans[idx] = (name, t0, t1, parent, tracer.op_id)
            tracer._observe(name, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def _observe(self, name, args, kwargs, result) -> None:
        """Counts that need the call's arguments or result."""
        c, active = self.counts, self._active
        if name == "rings.gb":
            c["rings.basis_size"] += len(result)
        elif name == "rings.reduce" and active["rings.gb"]:
            c["rings.reduce_in_gb"] += 1
            c["rings.reduce_in_gb_nonzero"] += not result.is_zero()
        elif name == "modules.gb":
            rank = args[2] if len(args) > 2 else kwargs["rank"]
            self.maxima["modules.gb_rank_max"] = max(self.maxima["modules.gb_rank_max"], rank)
        elif name == "modules.reduce" and active["modules.gb"]:
            c["modules.reduce_in_gb"] += 1
            c["modules.reduce_in_gb_nonzero"] += bool(result)
        elif name == "modules.engine":
            self._engines_built.add(args[0])
        elif name in ENGINE_QUERIES:
            engine = args[0]
            if engine in self._engines_built and engine not in self._engines_used:
                self._engines_used.add(engine)
                c["modules.engines_used"] += 1
        elif name == "resolutions.build":
            module, depth = args[0], args[1] if len(args) > 1 else kwargs["depth"]
            c["resolutions.steps"] += len(result.maps) - 1
            self.maxima["resolutions.rank_max"] = max(self.maxima["resolutions.rank_max"],
                                                      max(result.ranks))
            key = (module.ring, module.ngens, module.canonical_relations)
            if self._resolved.get(key, -1) >= depth:
                c["resolutions.rebuilds"] += 1
            self._resolved[key] = max(self._resolved.get(key, -1), depth)
        elif name == "kgroups.snf":
            bits = max((abs(v).bit_length() for mat in (result.U, result.S, result.V)
                        for row in mat for v in row), default=0)
            self.maxima["kgroups.snf_max_bits"] = max(self.maxima["kgroups.snf_max_bits"], bits)

    # ----- results -----
    def layer_metrics(self) -> dict:
        calls: Counter = Counter()
        selfs: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            selfs[span[0]] += own
        c = self.counts
        out = {metric: calls[span] for metric, span in CALL_COUNTS.items()}
        out.update({metric: selfs[span] for metric, span in SELF_TIMES.items()})
        out.update(self.maxima)
        for key in ("rings.basis_size", "resolutions.steps"):
            out[key] = c[key]
        out["rings.reduce_useful_ratio"] = _ratio(c["rings.reduce_in_gb_nonzero"],
                                                  c["rings.reduce_in_gb"])
        out["modules.reduce_useful_ratio"] = _ratio(c["modules.reduce_in_gb_nonzero"],
                                                    c["modules.reduce_in_gb"])
        out["modules.engine_use_ratio"] = _ratio(c["modules.engines_used"],
                                                 calls["modules.engine"])
        out["resolutions.rebuild_ratio"] = _ratio(c["resolutions.rebuilds"],
                                                  calls["resolutions.build"])
        for key in ("modules.gb_rank_max", "resolutions.rank_max", "kgroups.snf_max_bits"):
            out.setdefault(key, 0)
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num, den) -> float:
    """num/den, or 0.0 when nothing was attempted (den = 0)."""
    return num / den if den else 0.0


FIELD_METHODS = ("add", "sub", "mul", "neg", "inv", "div")


class FieldCounter:
    """Counts field-arithmetic calls made by the library during ops.

    `fields.ops` counts outermost calls (a div that calls mul and inv is one
    op); `fields.inv` counts every inversion performed, those inside div too.
    """

    def __init__(self):
        self.ops = 0
        self.inv = 0
        self.enabled = False
        self._depth = 0
        self._restore: list = []

    def install(self) -> None:
        from gproj import fields

        for cls in (fields.Field, fields.RationalField, fields.PrimeField):
            for attr in FIELD_METHODS:
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(attr, original))

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._restore):
            setattr(cls, attr, original)
        self._restore = []

    def _wrap(self, attr, original):
        counter = self

        def counted(*args):
            if not counter.enabled:
                return original(*args)
            if counter._depth == 0:
                counter.ops += 1
            if attr == "inv":
                counter.inv += 1
            counter._depth += 1
            try:
                return original(*args)
            finally:
                counter._depth -= 1

        counted.__wrapped__ = original
        return counted
