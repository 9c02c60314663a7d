"""Command-line interface: validate, evaluate, explain, matrix, diff.

Exit codes are a stable scripting contract: 0 on success, 1 when the
knowledge base has validation errors, 2 for usage and input problems and
for output that cannot be written, 130 when interrupted. No command mutates
any input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING

from . import kb as kb_mod
from .dsl import _emit_term
from .kb import Finding, KnowledgeBase
from .model import (
    ConfigurationError,
    CulturalProfile,
    DEFAULT_THRESHOLDS,
    ElementKind,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    MocaError,
    UnknownEntityError,
    check_thresholds,
    _gc_paused,
)

if TYPE_CHECKING:  # the commands that evaluate import it; validate and explain never do
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


def _emit(args: argparse.Namespace, chunks: Iterable[str]):
    """Write the chunks as they are made, to stdout (kept up to a failure) or
    --out; a regular --out file is replaced whole, mode kept, or left as it was."""
    if args.out is None:
        if sys.stdout is None:  # the process started with stdout closed
            raise CliError("cannot write standard output: it is closed")
        try:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        except OSError as exc:
            # The interpreter flushes stdout again at exit; pointing it at
            # os.devnull drops the unwritten rest there, as the Python docs'
            # "Note on SIGPIPE" (signal module) does for a closed pipe.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise CliError(f"cannot write standard output: {exc.strerror or exc}") from None
        except UnicodeEncodeError as exc:  # what was written stays, as for a broken pipe
            raise CliError(f"cannot write standard output: {exc}") from None
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
        raise CliError(f"cannot write '{args.out}': {exc}") from None


_CONTAINERS = (dict, list, tuple)
_SCALARS = frozenset({str, int, float, bool, type(None)})
#: Members per encoder call in a long or lazy container; lines per text chunk.
_SLICE = 2000


@functools.cache
def _encoder(depth: int):
    """json's C encoder for the members of a container opened at `depth`: made
    once, where `JSONEncoder.encode` makes one per call."""
    encode = json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring, None,
        ": ", ",\n" + "  " * (depth + 1), False, False, True)
    return lambda value: "".join(encode(value, 0))


def _json_chunks(payload) -> Iterator[str]:
    """`json.dumps(payload, indent=2, ensure_ascii=False) + "\n"` in pieces."""
    yield from _chunks(payload, 0)
    yield "\n"


def _chunks(value, depth: int) -> Iterator[str]:
    """`_render(value, depth)` in pieces, where an iterator stands for a list. A
    dict holding a dict or an iterator goes one member at a time; an iterator,
    or another container of more than _SLICE members, goes _SLICE members per
    `_render`. Each piece is cut from a `_render`, so the layout is json's."""
    inner, outer = "  " * (depth + 1), "  " * depth
    if isinstance(value, dict) and any(
            issubclass(kind, (dict, Iterator)) for kind in set(map(type, value.values()))):
        for i, (key, member) in enumerate(value.items()):
            pieces = _chunks(member, depth + 1)
            yield f"{',' if i else '{'}\n{inner}{_encoder(depth)({key: 0})[1:-2]}{next(pieces)}"
            yield from pieces
        yield f"\n{outer}}}"
    elif isinstance(value, Iterator) or isinstance(value, _CONTAINERS) and len(value) > _SLICE:
        is_dict, tail, text = isinstance(value, dict), len(outer) + 2, None
        members = iter(value.items() if is_dict else value)
        parts = iter(lambda: list(islice(members, _SLICE)), [])
        for i, text in enumerate(_render(dict(p) if is_dict else p, depth) for p in parts):
            yield text[:-tail] if i == 0 else "," + text[1:-tail]  # "," + "\n" + inner + body
        yield "[]" if text is None else text[-tail:]  # an iterator may be empty
    else:
        yield _render(value, depth)


def _render(value, depth: int) -> str:
    """`value` as json.dumps(indent=2) lays it out `depth` levels down. json
    runs its C encoder only without an indent, so the layout goes in the item
    separator. A container is encoded with its non-empty containers swapped
    for 0, split at the separator and the 0s filled in; a list of objects is
    encoded a level down, then split at "}" + separator + "{". This is safe
    because the separator starts with a newline, and json escapes it inside a
    string: it only ever occurs between two members."""
    if not (isinstance(value, _CONTAINERS) and value):
        return _encoder(depth)(value)
    inner, outer, is_dict = "  " * (depth + 1), "  " * depth, isinstance(value, dict)
    run = not is_dict and all(isinstance(v, dict) and v for v in value)
    level = depth + run  # one call lays out the fields of a run of objects
    members = list(chain.from_iterable(map(dict.values, value)) if run
                   else value.values() if is_dict else value)
    nested = {} if _SCALARS.issuperset(map(type, members)) else {
        i: v for i, v in enumerate(members) if isinstance(v, _CONTAINERS) and v}
    cut = 1 + run  # the brackets, and a run's first "{" and last "}"
    if not nested:
        body = _encoder(level)(value)[cut:-cut]
    else:
        flat = iter([0 if i in nested else v for i, v in enumerate(members)])
        skeleton = ([dict(zip(v, flat)) for v in value] if run
                    else dict(zip(value, flat)) if is_dict else list(flat))
        separator = ",\n" + "  " * (level + 1)
        parts = _encoder(level)(skeleton)[cut:-cut].split(separator)
        for i, member in nested.items():  # only a run's "}" can follow a 0
            head, _, tail = parts[i].rpartition("0")
            parts[i] = head + _render(member, level + 1) + tail
        body = separator.join(parts)
        del parts  # a large member's text is not held twice
    if run:
        body = body.replace(f"}},\n{inner}  {{", f"\n{inner}}},\n{inner}{{\n{inner}  ")
        return f"[\n{inner}{{\n{inner}  {body}\n{inner}}}\n{outer}]"
    return f"{'{' if is_dict else '['}\n{inner}{body}\n{outer}{'}' if is_dict else ']'}"


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
    line = f"{finding.severity.value} {finding.code}: {finding.message}"
    if finding.entity_id:
        line += f" [{finding.entity_id}]"
    return line + _where(finding)


def _finding_json(finding: Finding) -> dict:
    return {
        "severity": finding.severity.value,
        "code": finding.code,
        "message": finding.message,
        "entity_id": finding.entity_id,
        "path": finding.path,
        "line": finding.line,
    }


def _report_exit_code(errors: Sequence[Finding]) -> int:
    """The exit code for a report's error findings."""
    if any(f.code in _INPUT_ERROR_CODES for f in errors):
        return EXIT_USAGE
    return EXIT_INVALID if errors else EXIT_OK


def _require_kb(args: argparse.Namespace) -> KnowledgeBase:
    """Load the KB for a non-validate command; findings go to stderr."""
    result = kb_mod.load(args.kb)
    if result.kb is None:
        for finding in result.report.findings:
            print(_finding_line(finding), file=sys.stderr)
        raise CliError("knowledge base is not usable",
                       _report_exit_code(result.report.errors))
    return result.kb


def _profiles(kb: KnowledgeBase, args: argparse.Namespace) -> dict[str, CulturalProfile]:
    """The KB's profiles by name; those of --profile-file shadow them."""
    profiles = {p.name: p for p in kb.profiles}
    if args.profile_file is None:
        return profiles
    loaded, report = kb_mod.load_profiles(args.profile_file)
    if report.has_errors:
        raise CliError("; ".join(f.message + _where(f) for f in report.errors))
    metric_ids = {m.id for m in kb.metrics}
    for profile in loaded:
        unknown = sorted(set(profile.values) - metric_ids)
        if unknown:
            raise CliError(
                f"profile '{profile.name}' references unknown metrics: "
                f"{', '.join(unknown)}")
        profiles[profile.name] = profile
    return profiles


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
    if args.format == "text":
        return _report_exit_code(errors), _blocks(_validate_text(result.kb, findings, errors))
    return _report_exit_code(errors), _json_chunks({
        "valid": not errors,
        "summary": _kb_summary(result.kb) if result.kb is not None else None,
        "findings": map(_finding_json, findings)})  # made a slice at a time


def _kb_summary(kb: KnowledgeBase) -> dict:
    practices = sum(1 for e in kb.elements if e.kind is ElementKind.PRACTICE)
    roles = sum(1 for e in kb.elements if e.kind is ElementKind.ROLE)
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


def _validate_text(kb: KnowledgeBase | None, findings: Sequence[Finding],
                   errors: Sequence[Finding]) -> Iterator[str]:
    if kb is not None:
        summary = _kb_summary(kb)
        yield f"metrics: {summary['metrics']}"
        yield (f"elements: {summary['elements']} "
               f"({summary['practices']} practices, {summary['roles']} roles)")
        yield f"conditions: {summary['conditions']}"
        yield f"rules: {summary['rules']}"
        yield f"profiles: {summary['profiles']}"
        yield f"matrix domain: {summary['matrix_cells']} cells"
        if kb.manifest is not None:
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
        return EXIT_OK, _json_chunks(map(_assessment_json, assessments))
    return EXIT_OK, _blocks(_assessments_text(kb, assessments))


def _assessment_json(a: engine.Assessment) -> dict:
    return {
        "element": a.element,
        "contributions": [
            {
                "rule_id": c.rule_id,
                "value": c.value,
                "fired_level": c.fired_level.value,
                "condition_status": c.condition_status.value,
            }
            for c in a.contributions
        ],
        "score": a.score,
        "label": a.label.value,
        "indeterminate_rules": list(a.indeterminate_rules),
        "gated_rules": list(a.gated_rules),
    }


def _assessments_text(kb: KnowledgeBase,
                      assessments: Sequence[engine.Assessment]) -> Iterator[str]:
    for a in assessments:
        header = f"{a.element}: {a.label.value.replace('_', ' ')}"
        if a.contributions:
            header += f" ({', '.join(c.rule_id for c in a.contributions)})"
        yield header
        yield f"  score: {a.score:+d}"
        for c in a.contributions:
            rule = kb.rule(c.rule_id)
            detail = (f"  fired: {c.rule_id} {c.value:+d} "
                      f"[{c.fired_level.name} {rule.metric}]")
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
        return EXIT_OK, _json_chunks(_matrix_json(matrix))  # a row, or a slice of one, a chunk
    return EXIT_OK, _blocks(_matrix_csv(matrix))


def _cell_token(entry: engine.MatrixEntry) -> str:
    token = f"{entry.rule_id}:{entry.stated_level.name}:{entry.sign.name}"
    if entry.condition is not None:
        token += f"@{entry.condition}"
    return token


def _matrix_csv(matrix: engine.MatrixExport) -> Iterator[str]:
    """CSV lines needing no quoting: ids and cell tokens are identifiers joined
    by ':', '@' and ';', which the model's constructors enforce."""
    rows = {metric_id: dict.fromkeys(matrix.elements, "") for metric_id in matrix.metrics}
    for (metric_id, element_id), entries in matrix.cells.items():
        rows[metric_id][element_id] = ";".join(_cell_token(entry) for entry in entries)
    yield ",".join(["metric", *matrix.elements])
    for metric_id, row in rows.items():
        yield ",".join([metric_id, *row.values()])


def _matrix_json(matrix: engine.MatrixExport) -> dict:
    # An uncovered cell shares one empty tuple, which renders as [].
    cells: dict[str, dict[str, list | tuple]] = {
        metric_id: dict.fromkeys(matrix.elements, ()) for metric_id in matrix.metrics}
    for (metric_id, element_id), entries in matrix.cells.items():
        cells[metric_id][element_id] = [
            {
                "rule_id": entry.rule_id,
                "stated_level": entry.stated_level.value,
                "sign": entry.sign.value,
                "condition": entry.condition,
            }
            for entry in entries
        ]
    return {"metrics": list(matrix.metrics),
            "elements": list(matrix.elements),
            "cells": cells}


# --- explain ----------------------------------------------------------------

def cmd_explain(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    kb = _require_kb(args)
    rule = kb.rule(args.rule_id)
    condition = None if rule.condition is None else kb.condition(rule.condition)
    if args.format == "json":
        return EXIT_OK, _json_chunks(_explain_json(rule, condition))
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
    ctx_a = _context(args, _profile(profiles, args.profile_a or args.profile),
                     args.flag + args.flag_a)
    ctx_b = _context(args, _profile(profiles, args.profile_b or args.profile),
                     args.flag + args.flag_b)
    diffs = engine.diff(kb, ctx_a, ctx_b)
    if not args.all:
        diffs = tuple(d for d in diffs if d.delta != 0 or d.rules_changed)
    if args.format == "json":
        return EXIT_OK, _json_chunks(map(_diff_json, diffs))
    return EXIT_OK, _blocks(_diff_text(diffs))


def _diff_json(d: engine.ElementDiff) -> dict:
    return {
        "element": d.element,
        "score_a": d.score_a,
        "score_b": d.score_b,
        "delta": d.delta,
        "rules_changed": list(d.rules_changed),
    }


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
        low, high = (int(part) for part in text.split(","))
        return check_thresholds((low, high))
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected LOW,HIGH with 0 < LOW < HIGH < 100: {exc}") from None


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def _print_error(exc: Exception):
    """One 'error:' line on stderr, when stderr can still be written."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:
        pass


@_gc_paused
def main(argv: Sequence[str] | None = None) -> int:
    """Run one command: the one place that writes its output and turns errors
    into exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.kb = resolve_kb_paths(args.kb)
        code, chunks = args.run(args)  # the code is known before the first write
        _emit(args, chunks)
        return code
    except CliError as exc:
        _print_error(exc)
        return exc.exit_code
    except (UnknownEntityError, ConfigurationError) as exc:
        _print_error(exc)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
