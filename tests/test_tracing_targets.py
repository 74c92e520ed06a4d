"""The benchmark's tracer (perfbench/tracing.py) patches gproj functions by
name; every name it lists must resolve, so a rename that would break the
traced benchmark run fails here too."""

import importlib
import importlib.util
from pathlib import Path

from gproj import GF, PolyRing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("gproj_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _tracing()
    assert tracing.TARGETS
    for name, (module_name, path) in tracing.TARGETS.items():
        importlib.import_module(module_name)
        _, _, original = tracing._resolve(module_name, path)
        assert callable(original), name


def test_normal_forms_show_as_ring_reductions_in_a_trace():
    tracing = _tracing()
    R = PolyRing(GF(2), ("x", "y")).quotient(["x^2", "y^2"])
    f = R.base.poly("x^3 + x*y + 1")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0, "nf")
        assert str(R.nf(f)) == "x*y+1"
        assert R.modulus.contains(f - R.base.poly("x*y + 1"))
        tracer.end_op()
    finally:
        tracer.uninstall()
    calls = tracer.layer_metrics()
    assert (calls["rings.nf_calls"], calls["rings.reduce_calls"]) == (1, 2)
