"""Batch front end: parse model files, dispatch computations, emit reports.

A model file declares rings, modules, maps, and submodules of free modules,
one per line, plus an optional task list. `parse_model_file` builds each
declaration once and maps its name to the object: a QuotRing, FPModule,
ModuleMap or SubmoduleOfFree; `ModelFile.serialize` writes the text back from
those objects. Reports come in two formats, rendered by one method: a
line-oriented machine format (`key = value`, nested blocks indented by two
spaces, byte-identical across runs) and a human-readable text format.

Exit codes: 0 success, 1 mathematical rejection (failed precondition or a
detector rejecting its input), 2 input error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from functools import cache

from .errors import (
    DegreeGuardExceeded,
    GprojError,
    InputError,
    MathRejection,
    ParseError,
    PdInfiniteOrUnresolved,
)
from .fields import GF, QQ
from .gorenstein import ext_module, g_class_test, gpd_bounded
from .kgroups import catalog_for, class_decompose, euler_class, smith_normal_form
from .modules import (
    FPModule,
    ModuleMap,
    SubmoduleOfFree,
    annihilator_of_element,
    dual_module,
    span_scope,
)
from .resolutions import free_resolution, infinite_pd_detector, pd_bounded, truncation_sequence
from .rings import DEFAULT_DEGREE_GUARD, Ideal, PolyRing, QuotRing, format_poly

ENV_GUARD = "GPROJ_DEGREE_GUARD"

# each command with the positional arguments it needs, in order
ARGUMENTS = {
    "gb": ("ring",), "nf": ("ring", "polynomial"), "ann": ("ring", "element"),
    "resolve": ("module",), "pd": ("module",), "ext": ("module", "degree"),
    "dual": ("module",), "gclass": ("module",), "gpd": ("module", "syzygy index"),
    "lemma45": ("ring", "element"), "lemma312": ("submodule",),
    "k0": ("module",), "snf": ("matrix",), "report": (),
}
COMMANDS = tuple(ARGUMENTS)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report:
    """An ordered tree of key/value entries with deterministic rendering."""

    def __init__(self):
        self.entries = []

    def add(self, key: str, value) -> "Report":
        self.entries.append((key, str(value)))
        return self

    def block(self, key: str) -> "Report":
        sub = Report()
        self.entries.append((key, sub))
        return sub

    def lines(self, fmt: str, indent: int = 0) -> list[str]:
        """Machine format writes `key = value`; text format writes
        `label: value`, the label being the key with blanks for underscores."""
        machine = fmt == "machine"
        sep = " = " if machine else ": "
        pad = "  " * indent
        out = []
        for key, value in self.entries:
            label = key if machine else key.replace("_", " ")
            if isinstance(value, Report):
                out.append(f"{pad}{label}:")
                out.extend(value.lines(fmt, indent + 1))
            else:
                out.append(f"{pad}{label}{sep}{value}")
        return out

    def render(self, fmt: str) -> str:
        return "\n".join(self.lines(fmt)) + "\n"


def _row_text(row) -> str:
    return "[" + ", ".join(format_poly(p) for p in row) + "]"


def _matrix_text(rows) -> str:
    return "[" + ", ".join(_row_text(row) for row in rows) + "]"


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

@dataclass
class ModelFile:
    """Each table maps a declared name to its object: `rings` to a QuotRing,
    `modules` to an FPModule, `maps` to a ModuleMap and `submodules` to a
    SubmoduleOfFree. `tasks` holds each task line's words."""

    rings: dict
    modules: dict
    maps: dict
    submodules: dict
    tasks: list

    def serialize(self) -> str:
        """Model-file text derived from the objects. A module names its ring,
        and a map its modules, by finding that object in its table."""
        names = {id(obj): name for table in (self.rings, self.modules)
                 for name, obj in table.items()}
        lines = []
        for name, R in self.rings.items():
            base = R.base
            line = f"ring {name} = {base.field!r}[{', '.join(base.variables)}] order {base.order}"
            if R.modulus.generators:
                line += " mod " + _row_text(R.modulus.generators)
            lines.append(line)
        for name, M in self.modules.items():
            lines.append(f"module {name} over {names[id(M.ring)]} gens {M.ngens} "
                         f"relations {_matrix_text(M.relation_rows())}")
        for name, W in self.submodules.items():
            lines.append(f"submodule {name} over {names[id(W.ring)]} "
                         f"ambient {W.ambient_rank} gens {_matrix_text(W.generators)}")
        for name, f in self.maps.items():
            lines.append(f"map {name} : {names[id(f.source)]} -> {names[id(f.target)]} "
                         f"= {_matrix_text(f.rows())}")
        lines.extend("task " + " ".join(t) for t in self.tasks)
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, ModelFile) and self.serialize() == other.serialize()


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside brackets."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    tail = text[start:].strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_matrix(text: str) -> list[list[str]]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("expected a bracketed matrix")
    inner = text[1:-1].strip()
    if not inner:
        return []
    rows = []
    for part in _split_top_level(inner):
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError("expected a bracketed row")
        body = part[1:-1].strip()
        rows.append([] if not body else [s.strip() for s in _split_top_level(body)])
    return rows


_RING_RE = re.compile(
    r"ring\s+(?P<name>\w+)\s*=\s*(?P<field>QQ|GF\(\d+\))\s*"
    r"\[(?P<vars>[^\]]*)\]\s*(?:order\s+(?P<order>\w+))?\s*"
    r"(?:mod\s+(?P<mod>\[.*\]))?\s*$")
_MODULE_RE = re.compile(
    r"module\s+(?P<name>\w+)\s+over\s+(?P<ring>\w+)\s+gens\s+(?P<n>\d+)\s+"
    r"relations\s+(?P<mat>\[.*\])\s*$")
_MAP_RE = re.compile(
    r"map\s+(?P<name>\w+)\s*:\s*(?P<src>\w+)\s*->\s*(?P<dst>\w+)\s*=\s*"
    r"(?P<mat>\[.*\])\s*$")
_SUBMODULE_RE = re.compile(
    r"submodule\s+(?P<name>\w+)\s+over\s+(?P<ring>\w+)\s+"
    r"ambient\s+(?P<n>\d+)\s+gens\s+(?P<mat>\[.*\])\s*$")


def _declaration_error(exc: GprojError, line_no: int) -> GprojError:
    """A declaration that failed is a ParseError at its line, and at the column
    of a polynomial that did not parse, except a degree-guard trip, which
    stays a mathematical rejection (exit 1)."""
    if isinstance(exc, DegreeGuardExceeded):
        return DegreeGuardExceeded(f"{exc} at line {line_no}")
    return ParseError(str(exc), line=line_no, col=getattr(exc, "col", None))


def _parse_entries(poly, rows, raw: str, pos: int):
    """Matrix entries parsed by `poly`, found left to right in the raw line
    from index `pos` on; a parse error names its column in that line."""
    out = []
    for row in rows:
        out.append([])
        for s in row:
            pos = raw.index(s, pos)
            try:
                out[-1].append(poly(s))
            except ParseError as exc:
                raise ParseError(str(exc), col=exc.col and pos + exc.col) from None
            pos += len(s)
    return out


_DECLARATIONS = {"ring": _RING_RE, "module": _MODULE_RE, "map": _MAP_RE,
                 "submodule": _SUBMODULE_RE}


def _declare(model: ModelFile, line: str, raw: str, degree_guard: int) -> None:
    """Add the declaration or task of one model-file line (`line` is `raw`
    without its comment and outer blanks) to the model. Its errors name no
    line; the caller adds it."""
    head = line.split(None, 1)[0]
    if head == "task":
        parts = line.split()[1:]
        if not parts or parts[0] not in COMMANDS:
            raise ParseError("unknown task command")
        if parts[0] == "report":
            raise ParseError("a task cannot run report")
        model.tasks.append(parts)
        return
    if head not in _DECLARATIONS:
        raise ParseError(f"unknown declaration {head!r}")
    if not (m := _DECLARATIONS[head].fullmatch(line)):
        raise ParseError(f"malformed {head} declaration")
    name = m.group("name")
    if any(name in table for table in (model.rings, model.modules, model.maps,
                                       model.submodules)):
        raise ParseError(f"duplicate name {name!r}")
    lead = len(raw) - len(raw.lstrip())  # the offset of `line` in `raw`
    if head == "ring":
        field_text, mod = m.group("field"), m.group("mod")
        fld = QQ if field_text == "QQ" else GF(int(field_text[3:-1]))
        variables = [v.strip() for v in m.group("vars").split(",") if v.strip()]
        base = PolyRing(fld, variables, m.group("order") or "grevlex", degree_guard)
        mod_strings = _split_top_level(mod[1:-1]) if mod else []
        [gens] = _parse_entries(base.poly, [mod_strings], raw, lead + m.start("mod"))
        model.rings[name] = QuotRing(base, Ideal(base, gens))
        return
    if head == "map":
        source, target = (_need(model.modules, m.group(ref), "module") for ref in ("src", "dst"))
        ring = source.ring
    else:
        ring = _need(model.rings, m.group("ring"), "ring")
    rows = _parse_entries(ring.poly, _parse_matrix(m.group("mat")), raw, lead + m.start("mat"))
    if head == "module":
        model.modules[name] = FPModule.from_strings(ring, int(m.group("n")), rows)
    elif head == "map":
        model.maps[name] = ModuleMap.from_strings(source, target, rows)
    else:
        model.submodules[name] = SubmoduleOfFree(ring, int(m.group("n")), [tuple(g) for g in rows])


def parse_model_file(text: str, degree_guard: int = DEFAULT_DEGREE_GUARD) -> ModelFile:
    """Parse and fully validate a model file, or fail with a line diagnostic."""
    model = ModelFile({}, {}, {}, {}, [])
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            try:
                _declare(model, line, raw, degree_guard)
            except GprojError as exc:
                raise _declaration_error(exc, line_no) from None
    return model


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _integer(text, message: str) -> int:
    """int(text), or an InputError of message, its {!r} filled with text,
    when text is not an integer literal."""
    try:
        return int(text)
    except ValueError:
        if text.strip().lstrip("+-").replace("_", "").isdecimal():
            raise  # digits past the interpreter's limit for integer strings
        raise InputError(message.format(text)) from None


# a resolution holds one map reference per step, so --depth, the ext degree
# and the gpd syzygy index, each the length of a resolution, are bounded
MAX_DEPTH = 10**6


def _checked_depth(text, name: str = "--depth") -> int:
    """The integer text (or int) as a resolution length, at most MAX_DEPTH."""
    if (value := _integer(text, name + " must be an integer, got {!r}")) > MAX_DEPTH:
        raise InputError(f"{name} {value} exceeds the limit {MAX_DEPTH}")
    return value


def _extract_flags(args, depth: int):
    """The --depth given in args, else depth, and the other arguments, with
    --format and its value left out."""
    rest = []
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--depth":
            if i + 1 >= len(args):
                raise InputError("--depth needs a value")
            depth = _checked_depth(args[i + 1])
            i += 2
        elif a == "--degree-guard":
            raise InputError("--degree-guard is set on the command line, "
                             "for the whole model, not in a task")
        elif a == "--format":  # read by main(); a task's own is checked and ignored
            if i + 1 >= len(args):
                raise InputError("--format needs a value")
            i += 2
        else:
            rest.append(a)
            i += 1
    return depth, rest


def _need(table: dict, name: str, what: str):
    if name not in table:
        raise InputError(f"undeclared {what} {name!r}")
    return table[name]


def _matrix_block(report: Report, key: str, rows) -> None:
    sub = report.block(key)
    if not rows:
        sub.add("rows", 0)
        return
    for i, row in enumerate(rows):
        sub.add(f"row{i}", _row_text(row))


@span_scope
def run_command(cmd: str, args, model: ModelFile, depth: int = 8) -> tuple[Report, int]:
    """Dispatch one command against a parsed model; returns (report, exit code).
    A ring, module or submodule named by the first argument is looked up in
    its table once, and its name is the report's second line."""
    if cmd not in ARGUMENTS:
        raise InputError(f"unknown command {cmd!r}")
    depth, rest = _extract_flags(list(args), depth)
    wanted = ARGUMENTS[cmd]
    if len(rest) < len(wanted):
        need = wanted[len(rest)]
        raise InputError(f"{cmd} needs {'an' if need[0] in 'aeiou' else 'a'} {need} argument")
    if len(rest) > len(wanted):
        raise InputError(f"{cmd} takes {len(wanted)} argument(s) "
                         f"({', '.join(wanted) or 'none'}), got {len(rest)}: {' '.join(rest)}")
    report = Report()
    report.add("command", cmd)
    code = 0
    if wanted and wanted[0] in ("ring", "module", "submodule"):
        obj = _need(getattr(model, wanted[0] + "s"), rest[0], wanted[0])
        report.add(wanted[0], rest[0])

    if cmd == "gb":
        gb = obj.modulus.reduced_gb
        report.add("size", len(gb))
        for i, g in enumerate(gb):
            report.add(f"g{i}", format_poly(g))
    elif cmd == "nf":
        report.add("input", rest[1])
        report.add("normal_form", format_poly(obj.poly(rest[1])))
    elif cmd == "ann":
        a = obj.poly(rest[1])
        ann = annihilator_of_element(a, obj)
        report.add("element", format_poly(a))
        report.add("annihilator_size", len(ann))
        for i, g in enumerate(ann):
            report.add(f"a{i}", format_poly(g))
    elif cmd == "resolve":
        if depth >= 1:  # print the verdict's resolution, cut back to this depth
            verdict = pd_bounded(obj, depth)
            res = verdict.resolution.truncated(depth + 1)
        else:
            verdict, res = None, free_resolution(obj, depth)
        for line in res.report_lines():
            key, sep, value = line.partition(" = ")
            if sep:
                report.add(key, value)
            else:
                report.add("info", line)
        if verdict is not None:
            report.add("verdict", str(verdict))
    elif cmd == "pd":
        report.add("depth", depth)
        report.add("verdict", str(pd_bounded(obj, depth)))
    elif cmd == "ext":
        i = _checked_depth(rest[1], "ext degree")
        result = ext_module(obj, FPModule.free(obj.ring, 1), i)
        report.add("degree", i)
        report.add("is_zero", result.is_zero)
        report.add("gens", result.module.ngens)
        _matrix_block(report, "relations", result.module.relation_rows())
    elif cmd == "dual":
        d = dual_module(obj)
        report.add("dual_gens", d.module.ngens)
        _matrix_block(report, "dual_relations", d.module.relation_rows())
        ev = report.block("evaluation_rows")
        for i, row in enumerate(d.evaluation):
            ev.add(f"e{i}", _row_text(row))
    elif cmd == "gclass":
        rep = g_class_test(obj, depth)
        report.add("depth", depth)
        c1 = report.block("cond1_ext_vanishing")
        for r in rep.cond1:
            c1.add(f"m{r.i}", r.is_zero)
        c2 = report.block("cond2_dual_ext_vanishing")
        for r in rep.cond2:
            c2.add(f"m{r.i}", r.is_zero)
        report.add("cond3_double_duality", rep.cond3_verdict)
        report.add("verdict", rep.verdict_str())
        if rep.fail_witness is not None:
            kind, m, data = rep.fail_witness
            w = report.block("witness")
            w.add("condition", kind)
            if m is not None:
                w.add("degree", m)
            if kind in ("cond1", "cond2"):
                w.add("ext_gens", data.module.ngens)
                _matrix_block(w, "ext_relations", data.module.relation_rows())
    elif cmd == "gpd":
        n = _checked_depth(rest[1], "gpd syzygy index")
        verdict = gpd_bounded(obj, n, depth)
        report.add("n", n)
        report.add("depth", depth)
        report.add("verdict", str(verdict))
    elif cmd == "lemma45":
        a = obj.poly(rest[1])
        cert = infinite_pd_detector(obj, a, depth)
        report.add("element", format_poly(a))
        report.add("accepted", cert.accepted)
        if cert.accepted:
            report.add("pd_verdict", str(cert.verdict))
            report.add("periodicity", f"({cert.resolution.periodicity[0]},"
                                      f"{cert.resolution.periodicity[1]})")
            report.add("spd_infinite", True)
        else:
            for i, f in enumerate(cert.failures):
                report.add(f"rejection{i}", f)
            code = 1
    elif cmd == "lemma312":
        seq = truncation_sequence(obj)
        report.add("k", seq.k)
        report.add("A_gens", seq.A.ngens)
        report.add("A_is_zero", seq.A.is_zero())
        report.add("B_gens", seq.B.ngens)
        report.add("exact", seq.exactness.ok)
    elif cmd == "k0":
        cat = catalog_for(obj.ring)
        report.add("family", cat.family)
        report.add("class", str(class_decompose(obj)))
        try:
            report.add("euler_class", str(euler_class(obj, depth)))
        except PdInfiniteOrUnresolved as exc:
            report.add("euler_class", f"unresolved ({exc})")
    elif cmd == "snf":
        matrix = [[_integer(v, "matrix entry {!r} is not an integer") for v in row]
                  for row in _parse_matrix(rest[0])]
        result = smith_normal_form(matrix)
        try:
            report.add("diagonal", list(result.diagonal))
            for name, mat in (("U", result.U), ("S", result.S), ("V", result.V)):
                sub = report.block(name)
                for i, row in enumerate(mat):
                    sub.add(f"row{i}", list(row))
        except ValueError:  # only raised by the interpreter's integer digit limit
            raise MathRejection(
                "Smith form entries exceed the limit of "
                f"{sys.get_int_max_str_digits()} digits for integer string "
                "conversion") from None
    else:  # report
        for i, task in enumerate(model.tasks):
            sub, sub_code = run_command(task[0], task[1:], model, depth)
            block = report.block(f"task{i}")
            block.entries.extend(sub.entries)
            code = max(code, sub_code)
    return report, code


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gproj",
        description="desk-scale homological algebra over quotient rings")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("model", help="model file path, or - for none")
    parser.add_argument("args", nargs="*", help="command arguments")
    # read as text and checked as a task's own flags are, with the same messages
    parser.add_argument("--depth", default=8)
    parser.add_argument("--degree-guard", default=None)
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


@span_scope
def _load_and_run(ns, guard: int) -> tuple[Report, int]:
    """Parse the model and run the command in one span scope, so the command
    reuses the module bases that the declarations built."""
    depth = _checked_depth(ns.depth)
    if ns.model == "-":
        model = ModelFile({}, {}, {}, {}, [])
    else:
        with open(ns.model, "r", encoding="utf-8") as fh:
            model = parse_model_file(fh.read(), guard)
    return run_command(ns.command, ns.args, model, depth)


def main(argv=None) -> int:
    """Run one command; returns the exit code. The argument parser is built
    once per process, on the first call, and reused by every later call."""
    ns = _parser().parse_args(argv)

    try:
        raw, source = ns.degree_guard, "--degree-guard"
        if raw is None:
            raw, source = os.environ.get(ENV_GUARD, str(DEFAULT_DEGREE_GUARD)), ENV_GUARD
        guard = _integer(raw, source + " must be an integer, got {!r}")
        if guard < 0:
            raise InputError(f"{source} must be a non-negative integer, got {guard}")
        report, code = _load_and_run(ns, guard)
    except (InputError, ParseError, OSError, ValueError, IndexError) as exc:
        # a parse error of one polynomial argument names its column in it
        col = exc.col if isinstance(exc, ParseError) and exc.line is None else None
        sys.stderr.write(f"input error: {exc}" + (f" at col {col}" if col else "") + "\n")
        return 2
    except MathRejection as exc:
        sys.stderr.write(f"rejected: {type(exc).__name__}: {exc}\n")
        return 1
    sys.stdout.write(report.render(ns.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
