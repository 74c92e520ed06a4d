"""Output of CLI `gclass`, `gpd`, `ext`, `resolve`, `k0`, `ann`, `lemma45` and
`report`, pinned byte for byte with its exit code, on the flagship model, on a
model whose G-class tests fail (`golden/gclass_fail.model`) and on QQ[x]
modules with fractional relations (`golden/k0_qq.model`). A case runs in
machine format unless it names its own `--format`."""

import json
from pathlib import Path

import pytest

from gproj.cli import ENV_GUARD, main

HERE = Path(__file__).parent
MODELS = {
    "flagship": HERE.parent / "demos" / "flagship.model",
    "gclass_fail": HERE / "golden" / "gclass_fail.model",
    "k0_qq": HERE / "golden" / "k0_qq.model",
}
COMMANDS = {
    "flagship": [
        ["gclass", "I", "--depth", "5"], ["gclass", "k", "--depth", "3"],
        ["gclass", "FreeMod", "--depth", "2"], ["gpd", "I", "0", "--depth", "3"],
        ["gpd", "k", "1", "--depth", "2"], ["ext", "I", "0"], ["ext", "I", "1"],
        ["ext", "I", "2"], ["ext", "k", "0"], ["ext", "k", "1"], ["ext", "k", "2"],
        ["report"],
        # long periodic tails: rank 1 and period 1 at every depth
        ["resolve", "I", "--depth", "50"], ["resolve", "I", "--depth", "200"],
        ["gclass", "I", "--depth", "50"], ["gclass", "I", "--depth", "200"],
        ["report", "--format", "text"],
        # annihilators and the square-zero detector: accepted, and rejected
        # by a^2 != 0 with a outside ann(a) (a unit; a nonzerodivisor of QQ[x])
        ["ann", "R2", "x"], ["ann", "R2", "x+1"], ["ann", "S", "x"],
        ["lemma45", "R2", "x"], ["lemma45", "R2", "x+1"], ["lemma45", "S", "x"],
    ],
    "gclass_fail": [
        ["gclass", "k", "--depth", "1"], ["gclass", "k", "--depth", "3"],
        ["gclass", "xE", "--depth", "2"], ["gpd", "k", "0", "--depth", "2"],
        ["gpd", "k", "1", "--depth", "2"], ["gpd", "xE", "2", "--depth", "1"],
        ["ext", "k", "1"], ["ext", "k", "2"], ["ext", "xE", "1"], ["ext", "F", "1"],
        ["gclass", "kB", "--depth", "2"], ["gclass", "kB", "--depth", "1", "--degree-guard", "3"],
        ["gpd", "kB", "1", "--depth", "1", "--degree-guard", "3"], ["ext", "kB", "2"],
        ["report"],
        # text format, with nested witness blocks
        ["gclass", "k", "--depth", "3", "--format", "text"],
        # annihilators larger than (a), so the detector rejects by ann(a)
        # reaching outside (a); x over B = GF(2)[x,y,z]/(x^2, y^2, z^2) passes
        ["ann", "E", "x"], ["ann", "E", "x+y"], ["ann", "B", "x*y"],
        ["lemma45", "E", "x"], ["lemma45", "B", "x"], ["lemma45", "B", "x*y*z"],
        ["lemma45", "E", "x", "--format", "text"],
    ],
    "k0_qq": [["k0", "A"], ["k0", "B"], ["k0", "C"], ["k0", "D"], ["report"],
              ["report", "--format", "text"]],
}
GOLDEN = HERE / "golden" / "cli_output.json"


def cases():
    return [(model, cmd) for model in COMMANDS for cmd in COMMANDS[model]]


def run(model, cmd, capsys):
    fmt = [] if "--format" in cmd else ["--format", "machine"]
    code = main([cmd[0], str(MODELS[model]), *cmd[1:], *fmt])
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("model, cmd", cases(), ids=lambda v: v if isinstance(v, str) else "-".join(v))
def test_machine_output_is_byte_identical(model, cmd, capsys, monkeypatch):
    monkeypatch.delenv(ENV_GUARD, raising=False)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[model + " " + " ".join(cmd)]
    assert run(model, cmd, capsys) == want
