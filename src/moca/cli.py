"""Command-line interface: validate, evaluate, explain, matrix, diff.

Exit codes are a stable scripting contract: 0 on success, 1 when the
knowledge base has validation errors, 2 for usage and input problems and
for output that cannot be written, 130 when interrupted. No command mutates
any input file.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import stat
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import islice
from pathlib import Path

from . import kb as kb_mod
from .dsl import _emit_term
from .kb import Finding, KnowledgeBase
from .model import (
    ConfigurationError,
    CulturalProfile,
    DEFAULT_THRESHOLDS,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    MocaError,
    UnknownEntityError,
    check_thresholds,
    _PRACTICE, _ROLE,
    _gc_paused,
)

TYPE_CHECKING = False  # typing itself is not imported: no command needs it
if TYPE_CHECKING:  # the commands that evaluate import engine; validate and explain never do
    from typing import NoReturn

    from . import engine

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130

#: Load-failure codes that mean "bad input", not "invalid knowledge".
_INPUT_ERROR_CODES = frozenset({"io-error", "unsupported-file"})


class CliError(MocaError):
    def __init__(self, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.exit_code = exit_code


def resolve_kb_paths(kb_args: Sequence[str | Path | None] | None) -> tuple[Path, ...]:
    """KB files from --kb arguments, $MOCA_KB_PATH, or the bundled seed KB.

    Arguments and search-path entries may be files or directories;
    directories contribute their .json and .moca files. An empty argument or
    entry counts as not given.
    """
    roots = [Path(arg) for arg in kb_args or () if arg]
    if not roots:
        env = os.environ.get("MOCA_KB_PATH", "")
        roots = [Path(part) for part in env.split(os.pathsep) if part] or [kb_mod.seed_dir()]
    paths: list[Path] = []
    for root in roots:
        paths.extend(kb_mod.expand_kb_path(root))
    return tuple(paths)


def _write_stdout(chunks: Iterable[str]):
    """The one writer of stdout: each chunk as it is made, then a flush. What was
    written before a failure stays, and the failure is a CliError (exit 2)."""
    if sys.stdout is None:  # the process started with stdout closed
        raise CliError("cannot write standard output: it is closed")
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except OSError as exc:
        # The process flushes stdout again before it ends; pointing it at os.devnull drops
        # the unwritten rest there, as the Python docs' "Note on SIGPIPE" (signal module)
        # does for a closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise CliError(f"cannot write standard output: {exc.strerror or exc}") from None
    except UnicodeEncodeError as exc:  # what was written stays, as for a broken pipe
        raise CliError(f"cannot write standard output: {exc}") from None


def _write_stderr(text: str):
    """The one writer of stderr: the text, then a flush. It is dropped when stderr
    is closed (None) or fails, and never goes to stdout."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def _emit(args: argparse.Namespace, chunks: Iterable[str]):
    """Write the chunks as they are made, to stdout (kept up to a failure) or
    --out; a regular --out file is replaced whole, mode kept, or left as it was."""
    if args.out is None:
        _write_stdout(chunks)
        return
    target = Path(os.path.realpath(args.out))
    inputs = args.kb + ((args.profile_file,) if args.profile_file else ())
    if any(target == Path(os.path.realpath(path)) for path in inputs):
        raise CliError(f"--out '{args.out}' is an input of this command")
    try:
        if args.out.exists() and not args.out.is_file():
            # A device, FIFO or terminal is written in place, never replaced.
            with args.out.open("w", encoding="utf-8") as handle:
                handle.writelines(chunks)
            return
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IMODE(target.stat().st_mode) if target.exists() else 0o666 & ~umask
        import tempfile  # only here: it imports random, shutil, bz2 and lzma
        fd, temp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                os.chmod(fd, mode)
                handle.writelines(chunks)
            os.replace(temp, target)
        finally:
            Path(temp).unlink(missing_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write '{args.out}': {exc.strerror or exc}") from None


#: Records or lines per chunk; matrix rows go one a chunk.
_SLICE = 2000
_quote = json.encoder.encode_basestring  # the string escaper of json.dumps(ensure_ascii=False)
# Layouts read an enum's _value_ or _name_, a plain attribute, where .value and .name
# are Python-level descriptors. Every value is a lowercase word, written unescaped.


def _json_list(records: Sequence, lay_out: Callable[[Sequence], list[str]],
               head: str = "", indent: str = "", tail: str = "\n") -> Iterator[str]:
    """head, the records as json.dumps(indent=2) lays out a list whose closing
    bracket is at `indent`, then tail: _SLICE records a chunk, each slice laid
    out by one fixed template in lay_out."""
    for start in range(0, len(records), _SLICE):
        laid_out = ",\n".join(lay_out(records[start:start + _SLICE]))
        yield (",\n" if start else f"{head}[\n") + laid_out
    yield f"\n{indent}]{tail}" if records else f"{head}[]{tail}"


def _field_list(items: Sequence, lay_out: Callable[..., str] = _quote) -> str:
    """A record field's list as json.dumps(indent=2) lays it out, each item at
    indent 6 laid out by lay_out."""
    return "[\n      " + ",\n      ".join(map(lay_out, items)) + "\n    ]" if items else "[]"


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """The lines, each ended by a newline, _SLICE lines per chunk."""
    lines = iter(lines)
    while block := list(islice(lines, _SLICE)):
        yield "\n".join(block) + "\n"


def _where(finding: Finding) -> str:
    """' (PATH:LINE)' or ' (PATH)' for a finding from a file, else ''."""
    if not finding.path:
        return ""
    where = finding.path if finding.line is None else f"{finding.path}:{finding.line}"
    return f" ({where})"


def _finding_line(finding: Finding) -> str:
    line = f"{finding.severity._value_} {finding.code}: {finding.message}"
    if finding.entity_id:
        line += f" [{finding.entity_id}]"
    return line + _where(finding)


def _report_exit_code(errors: Sequence[Finding]) -> int:
    """The exit code for a report's error findings."""
    if any(f.code in _INPUT_ERROR_CODES for f in errors):
        return EXIT_USAGE
    return EXIT_INVALID if errors else EXIT_OK


def _require_kb(args: argparse.Namespace) -> KnowledgeBase:
    """Load the KB for a non-validate command; findings go to stderr."""
    result = kb_mod.load(args.kb)
    if result.kb is None:
        _write_stderr("".join(_finding_line(f) + "\n" for f in result.report.findings))
        raise CliError("knowledge base is not usable",
                       _report_exit_code(result.report.errors))
    return result.kb


def _profiles(kb: KnowledgeBase, args: argparse.Namespace) -> dict[str, CulturalProfile]:
    """The KB's profiles by name; those of --profile-file shadow them."""
    profiles = {p.name: p for p in kb.profiles}
    if args.profile_file is None:
        return profiles
    loaded, report = kb_mod.load_profiles(args.profile_file)
    errors = (*report.errors, *kb_mod._unknown_metrics(
        loaded, kb._metric_index, kb_mod._file_name(args.profile_file)))
    if errors:
        raise CliError("; ".join(f.message + _where(f) for f in errors))
    return profiles | {p.name: p for p in loaded}


def _profile(profiles: dict[str, CulturalProfile], name: str | None) -> CulturalProfile:
    """The named profile, or the only one when no name is given."""
    available = ", ".join(sorted(profiles)) or "none"
    if name is None:
        if len(profiles) == 1:
            return next(iter(profiles.values()))
        raise CliError(f"--profile is required (available: {available})")
    if name not in profiles:
        raise CliError(f"unknown profile '{name}' (available: {available})")
    return profiles[name]


def _context(args: argparse.Namespace, profile: CulturalProfile,
             flags: Sequence[str]) -> engine.EvaluationContext:
    from . import engine
    return engine.EvaluationContext(profile, frozenset(flags), args.thresholds, args.element)


# --- validate ---------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    result = kb_mod.load(args.kb)
    errors = result.report.errors  # completeness reports warnings only
    findings = result.report.findings
    if result.kb is not None:
        # Through the module attribute, which bench/tracing.py wraps to time it.
        findings += kb_mod.validate_completeness(result.kb).findings
    # The summary is made now, so the KB is not held while the findings are written.
    summary = _kb_summary(result.kb) if result.kb is not None else None
    if args.format == "text":
        return _report_exit_code(errors), _blocks(_validate_text(summary, findings, errors))
    return _report_exit_code(errors), _validate_json(summary, findings, errors)


def _kb_summary(kb: KnowledgeBase) -> dict:
    practices = sum(1 for e in kb.elements if e.kind is _PRACTICE)
    roles = sum(1 for e in kb.elements if e.kind is _ROLE)
    return {
        "metrics": len(kb.metrics),
        "elements": len(kb.elements),
        "practices": practices,
        "roles": roles,
        "conditions": len(kb.conditions),
        "rules": len(kb.rules),
        "profiles": len(kb.profiles),
        "matrix_cells": len(kb.metrics) * len(kb.rule_eligible_elements),
        "manifest_declared": kb.manifest is not None,
    }


def _validate_json(summary: dict | None, findings: Sequence[Finding],
                   errors: Sequence[Finding]) -> Iterator[str]:
    """`json.dumps(payload, indent=2, ensure_ascii=False) + "\n"` of validate's
    payload: "valid" and "summary" in one json.dumps, the findings through
    _json_list."""
    head = json.dumps({"valid": not errors, "summary": summary, "findings": []},
                      indent=2, ensure_ascii=False)
    return _json_list(findings, _finding_layouts, head[:-len("[]\n}")], "  ", "\n}\n")


def _finding_layouts(findings: Sequence[Finding]) -> list[str]:
    return [f'    {{\n      "severity": "{f.severity._value_}",\n'
            f'      "code": {_quote(f.code)},\n      "message": {_quote(f.message)},\n'
            f'      "entity_id": {"null" if f.entity_id is None else _quote(f.entity_id)},\n'
            f'      "path": {"null" if f.path is None else _quote(f.path)},\n'
            f'      "line": {"null" if f.line is None else str(f.line)}\n    }}'
            for f in findings]


def _validate_text(summary: dict | None, findings: Sequence[Finding],
                   errors: Sequence[Finding]) -> Iterator[str]:
    if summary is not None:
        yield f"metrics: {summary['metrics']}"
        yield (f"elements: {summary['elements']} "
               f"({summary['practices']} practices, {summary['roles']} roles)")
        yield f"conditions: {summary['conditions']}"
        yield f"rules: {summary['rules']}"
        yield f"profiles: {summary['profiles']}"
        yield f"matrix domain: {summary['matrix_cells']} cells"
        if summary["manifest_declared"]:
            yield "manifest: counts confirmed"
    yield from map(_finding_line, findings)
    yield f"result: {len(errors)} error(s), {len(findings) - len(errors)} warning(s)"


# --- evaluate ---------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import engine
    kb = _require_kb(args)
    profile = _profile(_profiles(kb, args), args.profile)
    assessments = engine.evaluate(kb, _context(args, profile, args.flag))
    if args.format == "json":
        return EXIT_OK, _json_list(assessments, _assessment_layouts)
    return EXIT_OK, _blocks(_assessments_text(kb, assessments))


def _assessment_layouts(assessments: Sequence[engine.Assessment]) -> list[str]:
    return [f'  {{\n    "element": {_quote(a.element)},\n'
            f'    "contributions": {_field_list(a.contributions, _contribution_layout)},\n'
            f'    "score": {a.score!s},\n    "label": "{a.label._value_}",\n'
            f'    "indeterminate_rules": {_field_list(a.indeterminate_rules)},\n'
            f'    "gated_rules": {_field_list(a.gated_rules)}\n  }}' for a in assessments]


def _contribution_layout(c: engine.Contribution) -> str:
    return (f'{{\n        "rule_id": {_quote(c.rule_id)},\n        "value": {c.value!s},\n'
            f'        "fired_level": "{c.fired_level._value_}",\n'
            f'        "condition_status": "{c.condition_status._value_}"\n      }}')


def _assessment_json(a: engine.Assessment) -> dict:
    """The payload of one assessment, read back from _assessment_layouts."""
    return json.loads(_assessment_layouts((a,))[0])


def _assessments_text(kb: KnowledgeBase,
                      assessments: Sequence[engine.Assessment]) -> Iterator[str]:
    for a in assessments:
        header = f"{a.element}: {a.label._value_.replace('_', ' ')}"
        if a.contributions:
            header += f" ({', '.join(c.rule_id for c in a.contributions)})"
        yield header
        yield f"  score: {a.score:+d}"
        for c in a.contributions:
            rule = kb.rule(c.rule_id)
            detail = (f"  fired: {c.rule_id} {c.value:+d} "
                      f"[{c.fired_level._name_} {rule.metric}]")
            if rule.rationale:
                detail += f" because {rule.rationale}"
            yield detail
        for rule_id in a.gated_rules:
            yield f"  gated: {rule_id} ({kb.rule(rule_id).condition} not satisfied)"
        for rule_id in a.indeterminate_rules:
            yield f"  indeterminate: {rule_id} (no value for {kb.rule(rule_id).metric})"


# --- matrix -----------------------------------------------------------------

def cmd_matrix(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import engine
    matrix = engine.export_matrix(_require_kb(args))
    if args.format == "json":
        return EXIT_OK, _matrix_json(matrix)
    return EXIT_OK, _blocks(_matrix_csv(matrix))


def _matrix_csv(matrix: engine.MatrixExport) -> Iterator[str]:
    """CSV lines needing no quoting: ids and cell tokens are identifiers joined
    by ':', '@' and ';', which the model's constructors enforce. A cell token
    is RULE:LEVEL:SIGN, with @CONDITION when the rule has one."""
    column = {element_id: i for i, element_id in enumerate(matrix.elements, 1)}
    rows = {metric_id: [metric_id, *[""] * len(column)] for metric_id in matrix.metrics}
    for (metric_id, element_id), entries in matrix.cells.items():
        rows[metric_id][column[element_id]] = ";".join([
            f"{e.rule_id}:{e.stated_level._name_}:{e.sign._name_}"
            f"{'' if e.condition is None else '@' + e.condition}" for e in entries])
    yield ",".join(["metric", *matrix.elements])
    yield from map(",".join, rows.values())


def _matrix_json(matrix: engine.MatrixExport) -> Iterator[str]:
    """`json.dumps(payload, indent=2, ensure_ascii=False) + "\n"` of the matrix
    payload, one metric row a chunk. "metrics" and "elements" go in one
    json.dumps; an uncovered cell is [] and every entry is laid out by one
    fixed template, its strings escaped by the escaper json.dumps uses."""
    head = json.dumps({"metrics": list(matrix.metrics), "elements": list(matrix.elements),
                       "cells": {}}, indent=2, ensure_ascii=False)
    if not matrix.metrics:
        yield head + "\n"
        return
    yield head[:-len("{}\n}")] + "{\n"
    keys = [f"{_quote(element_id)}: " for element_id in matrix.elements]
    column = {element_id: i for i, element_id in enumerate(matrix.elements)}
    covered: dict[str, list] = {metric_id: [] for metric_id in matrix.metrics}
    for (metric_id, element_id), entries in matrix.cells.items():
        covered[metric_id].append((column[element_id], entries))
    uncovered = [key + "[]" for key in keys]
    for n, (metric_id, cells) in enumerate(covered.items()):
        row = uncovered.copy()
        for i, entries in cells:
            row[i] = keys[i] + "[\n" + ",\n".join([
                f'        {{\n          "rule_id": {_quote(e.rule_id)},\n'
                f'          "stated_level": "{e.stated_level._value_}",\n'
                f'          "sign": "{e.sign._value_}",\n'
                f'          "condition": {"null" if e.condition is None else _quote(e.condition)}'
                f'\n        }}'
                for e in entries]) + "\n      ]"
        body = "{\n      " + ",\n      ".join(row) + "\n    }" if row else "{}"
        yield (",\n" if n else "") + f"    {_quote(metric_id)}: {body}"
    yield "\n  }\n}\n"


# --- explain ----------------------------------------------------------------

def cmd_explain(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    kb = _require_kb(args)
    rule = kb.rule(args.rule_id)
    condition = None if rule.condition is None else kb.condition(rule.condition)
    if args.format == "json":
        return EXIT_OK, (json.dumps(_explain_json(rule, condition), indent=2,
                                    ensure_ascii=False) + "\n",)
    return EXIT_OK, _blocks(_explain_text(rule, condition))


def _explain_text(rule: ImpactRule, condition: ImpactCondition | None) -> Iterator[str]:
    yield f"{rule.id}: {rule.title}" if rule.title else rule.id
    sign = "+" if rule.sign is ImpactSign.POSITIVE else "-"
    notation = f"{rule.stated_level.name}({rule.metric}) ->({sign}) {rule.element}"
    if condition is None:
        yield "  No precondition"
        yield f"  {notation}"
    else:
        yield f"  IF ({condition.id}: {condition.description}) THEN {notation}"
        yield f"  condition {condition.id}: {' AND '.join(map(_emit_term, condition.terms))}"
    if rule.rationale:
        yield f"  rationale: {rule.rationale}"


def _explain_json(rule: ImpactRule, condition: ImpactCondition | None) -> dict:
    return {
        "id": rule.id,
        "title": rule.title,
        "metric": rule.metric,
        "stated_level": rule.stated_level.value,
        "sign": rule.sign.value,
        "element": rule.element,
        "condition": None if condition is None else {
            "id": condition.id,
            "description": condition.description,
            "terms": [_emit_term(t) for t in condition.terms],
        },
        "rationale": rule.rationale,
    }


# --- diff -------------------------------------------------------------------

def cmd_diff(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    from . import engine
    kb = _require_kb(args)
    profiles = _profiles(kb, args)
    # Only an absent --profile-a or --profile-b means --profile; an empty one names none.
    a, b = (args.profile if name is None else name for name in (args.profile_a, args.profile_b))
    ctx_a = _context(args, _profile(profiles, a), args.flag + args.flag_a)
    ctx_b = _context(args, _profile(profiles, b), args.flag + args.flag_b)
    diffs = engine.diff(kb, ctx_a, ctx_b)
    if not args.all:
        diffs = tuple(d for d in diffs if d.delta != 0 or d.rules_changed)
    if args.format == "json":
        return EXIT_OK, _json_list(diffs, _diff_layouts)
    return EXIT_OK, _blocks(_diff_text(diffs))


def _diff_layouts(diffs: Sequence[engine.ElementDiff]) -> list[str]:
    return [f'  {{\n    "element": {_quote(d.element)},\n    "score_a": {d.score_a!s},\n'
            f'    "score_b": {d.score_b!s},\n    "delta": {d.delta!s},\n'
            f'    "rules_changed": {_field_list(d.rules_changed)}\n  }}' for d in diffs]


def _diff_text(diffs: Sequence[engine.ElementDiff]) -> Iterator[str]:
    if not diffs:
        yield "no differences"
    for d in diffs:
        line = f"{d.element}: {d.score_a:+d} -> {d.score_b:+d} (delta {d.delta:+d})"
        if d.rules_changed:
            line += f" rules: {', '.join(d.rules_changed)}"
        yield line


# --- argument parsing -------------------------------------------------------

def _thresholds_arg(text: str) -> tuple[int, int]:
    try:
        low, high = map(int, text.split(","))
        return check_thresholds((low, high))
    except ValueError:  # from int() or the unpacking, in words meant for Python, not the user
        problem = f"expected two integers, got {text!r}"
    except ConfigurationError as exc:
        problem = str(exc)
    raise argparse.ArgumentTypeError(f"expected LOW,HIGH with 0 < LOW < HIGH < 100: {problem}")


def _path_arg(text: str) -> Path | None:
    """An empty PATH counts as not given."""
    return Path(text) if text else None


def _add_kb_options(p: argparse.ArgumentParser, formats: tuple[str, ...],
                    default_format: str):
    p.add_argument("--kb", action="append", type=_path_arg, metavar="PATH",
                   help="knowledge-base file or directory, repeatable "
                        "(default: $MOCA_KB_PATH, then the bundled seed KB)")
    p.add_argument("--format", choices=formats, default=default_format,
                   help=f"output format (default: {default_format})")
    p.add_argument("--out", type=_path_arg, metavar="PATH",
                   help="write output to PATH instead of standard output")


def _add_scenario_options(p: argparse.ArgumentParser):
    p.add_argument("--profile-file", type=_path_arg, metavar="PATH",
                   help="extra profiles file; names shadow KB profiles")
    p.add_argument("--profile", metavar="NAME", help="profile to evaluate")
    p.add_argument("--flag", action="append", default=[], metavar="ID",
                   help="context flag, repeatable")
    p.add_argument("--thresholds", type=_thresholds_arg, default=DEFAULT_THRESHOLDS,
                   metavar="LOW,HIGH",
                   help="level thresholds (default: 33,67)")
    p.add_argument("--element", action="append", metavar="ID",
                   help="restrict evaluation to this element, repeatable")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help goes through _write_stdout, so help that stdout
    does not take ends as any other output does, and whose usage and errors go
    through _write_stderr."""

    def print_help(self):
        _write_stdout((self.format_help(),))

    def _print_message(self, message, file=None):
        _write_stderr(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moca",
        description="Evaluate the impact of a cultural profile on agile "
                    "practices and roles, using an authorable causal rule base.")
    parser.set_defaults(profile_file=None)  # _emit reads it for every command
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a knowledge base and report findings")
    p.set_defaults(run=cmd_validate)
    _add_kb_options(p, ("text", "json"), "text")

    p = sub.add_parser("evaluate", help="assess every element for one profile")
    p.set_defaults(run=cmd_evaluate)
    _add_kb_options(p, ("text", "json"), "text")
    _add_scenario_options(p)

    p = sub.add_parser("explain", help="show one rule with its condition and rationale")
    p.set_defaults(run=cmd_explain)
    _add_kb_options(p, ("text", "json"), "text")
    p.add_argument("rule_id", metavar="RULE")

    p = sub.add_parser("matrix", help="export the full metric x element impact matrix")
    p.set_defaults(run=cmd_matrix)
    _add_kb_options(p, ("csv", "json"), "csv")

    p = sub.add_parser("diff", help="compare two evaluation scenarios")
    p.set_defaults(run=cmd_diff)
    _add_kb_options(p, ("text", "json"), "text")
    _add_scenario_options(p)
    p.add_argument("--profile-a", metavar="NAME",
                   help="scenario A profile (default: --profile)")
    p.add_argument("--profile-b", metavar="NAME",
                   help="scenario B profile (default: --profile)")
    p.add_argument("--flag-a", action="append", default=[], metavar="ID",
                   help="extra context flag for scenario A, repeatable")
    p.add_argument("--flag-b", action="append", default=[], metavar="ID",
                   help="extra context flag for scenario B, repeatable")
    p.add_argument("--all", action="store_true",
                   help="show unchanged elements too")
    return parser


@_gc_paused
def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: the one place that writes its output and turns errors
    into exit codes."""
    try:
        args = build_parser().parse_args(argv)
        args.kb = resolve_kb_paths(args.kb)
        code, chunks = args.run(args)  # the code is known before the first write
        _emit(args, chunks)
        return code
    except SystemExit as exc:  # from argparse, after help, usage or an error
        return int(exc.code or 0)
    except CliError as exc:
        _write_stderr(f"error: {exc}\n")
        return exc.exit_code
    except (UnknownEntityError, ConfigurationError) as exc:
        _write_stderr(f"error: {exc}\n")
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


def _script() -> NoReturn:
    """The `moca` script and `python -m moca.cli`: main(), the atexit handlers,
    a flush, then os._exit, which skips the interpreter's teardown (as mypy's
    runs end). A stdout that fails the flush is exit 2, as in main; Ctrl-C 130."""
    try:
        code = main()
        atexit._run_exitfuncs()
        try:
            if sys.stdout is not None:
                _write_stdout(())
        except CliError as exc:
            _write_stderr(f"error: {exc}\n")
            code = EXIT_USAGE
        _write_stderr("")  # only its flush
    except KeyboardInterrupt:
        code = EXIT_INTERRUPTED
    os._exit(code)


if __name__ == "__main__":
    _script()
