"""Command-line interface: validate, evaluate, explain, matrix, diff.

Exit codes are a stable scripting contract: 0 on success, 1 when the
knowledge base has validation errors, 2 for usage and input problems.
No command mutates any input file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import engine
from . import kb as kb_mod
from .kb import Finding, KnowledgeBase, ValidationReport
from .model import (
    ConfigurationError,
    ContextFlag,
    CulturalProfile,
    DEFAULT_THRESHOLDS,
    ElementKind,
    ImpactRule,
    ImpactSign,
    Level,
    MocaError,
    UnknownEntityError,
    check_thresholds,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

#: Load-failure codes that mean "bad input", not "invalid knowledge".
_INPUT_ERROR_CODES = frozenset({"io-error", "unsupported-file"})


class OutputFormat(Enum):
    TEXT = "text"
    JSON = "json"
    CSV = "csv"


class CliError(MocaError):
    def __init__(self, message: str, exit_code: int = EXIT_USAGE):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    kb_paths: tuple[Path, ...]
    profile_file: Path | None = None
    profile_name: str | None = None
    flags: tuple[str, ...] = ()
    thresholds: tuple[int, int] = DEFAULT_THRESHOLDS
    elements: tuple[str, ...] | None = None
    output_format: OutputFormat = OutputFormat.TEXT
    out_path: Path | None = None


def resolve_kb_paths(kb_args: Sequence[str] | None) -> tuple[Path, ...]:
    """KB files from --kb arguments, $MOCA_KB_PATH, or the bundled seed KB.

    Arguments and search-path entries may be files or directories;
    directories contribute their .json and .moca files.
    """
    if kb_args:
        roots = [Path(arg) for arg in kb_args]
    else:
        env = os.environ.get("MOCA_KB_PATH", "")
        parts = [part for part in env.split(os.pathsep) if part]
        roots = [Path(part) for part in parts] if parts else [kb_mod.seed_dir()]
    paths: list[Path] = []
    for root in roots:
        paths.extend(kb_mod.expand_kb_path(root))
    return tuple(paths)


def _emit(config: RunConfig, text: str):
    """Write to stdout or --out; a regular --out file is replaced whole, mode kept."""
    if config.out_path is None:
        sys.stdout.write(text)
        return
    target = Path(os.path.realpath(config.out_path))
    inputs = config.kb_paths + ((config.profile_file,) if config.profile_file else ())
    if any(target == Path(os.path.realpath(path)) for path in inputs):
        raise CliError(f"--out '{config.out_path}' is an input of this command")
    try:
        if config.out_path.exists() and not config.out_path.is_file():
            # A device, FIFO or terminal is written in place, never replaced.
            config.out_path.write_text(text, encoding="utf-8")
            return
        umask = os.umask(0o022)
        os.umask(umask)
        mode = stat.S_IMODE(target.stat().st_mode) if target.exists() else 0o666 & ~umask
        fd, temp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
        try:
            with open(fd, "w", encoding="utf-8") as handle:
                os.chmod(fd, mode)
                handle.write(text)
            os.replace(temp, target)
        finally:
            Path(temp).unlink(missing_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write '{config.out_path}': {exc}") from None


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _finding_line(finding: Finding) -> str:
    line = f"{finding.severity.value} {finding.code}: {finding.message}"
    if finding.entity_id:
        line += f" [{finding.entity_id}]"
    if finding.path:
        where = finding.path if finding.line is None else f"{finding.path}:{finding.line}"
        line += f" ({where})"
    return line


def _finding_json(finding: Finding) -> dict:
    return {
        "severity": finding.severity.value,
        "code": finding.code,
        "message": finding.message,
        "entity_id": finding.entity_id,
        "path": finding.path,
        "line": finding.line,
    }


def _report_exit_code(report: ValidationReport) -> int:
    if any(f.code in _INPUT_ERROR_CODES for f in report.errors):
        return EXIT_USAGE
    return EXIT_INVALID if report.has_errors else EXIT_OK


def _require_kb(config: RunConfig) -> KnowledgeBase:
    """Load the KB for a non-validate command; findings go to stderr."""
    result = kb_mod.load(config.kb_paths)
    if result.kb is None:
        for finding in result.report.findings:
            print(_finding_line(finding), file=sys.stderr)
        raise CliError("knowledge base is not usable",
                       _report_exit_code(result.report))
    return result.kb


def _resolve_profile(kb: KnowledgeBase, config: RunConfig,
                     name: str | None) -> CulturalProfile:
    profiles = {p.name: p for p in kb.profiles}
    if config.profile_file is not None:
        loaded, report = kb_mod.load_profiles(config.profile_file)
        if report.has_errors:
            raise CliError("; ".join(f.message for f in report.errors))
        metric_ids = {m.id for m in kb.metrics}
        for profile in loaded:
            unknown = sorted(set(profile.values) - metric_ids)
            if unknown:
                raise CliError(
                    f"profile '{profile.name}' references unknown metrics: "
                    f"{', '.join(unknown)}")
            profiles[profile.name] = profile
    wanted = name or config.profile_name
    available = ", ".join(sorted(profiles)) or "none"
    if wanted is None:
        if len(profiles) == 1:
            return next(iter(profiles.values()))
        raise CliError(f"--profile is required (available: {available})")
    if wanted not in profiles:
        raise CliError(f"unknown profile '{wanted}' (available: {available})")
    return profiles[wanted]


def _context(config: RunConfig, profile: CulturalProfile,
             flags: Sequence[str] | None = None) -> engine.EvaluationContext:
    return engine.EvaluationContext(
        profile=profile,
        flags=frozenset(config.flags if flags is None else flags),
        thresholds=config.thresholds,
        elements=config.elements,
    )


# --- validate ---------------------------------------------------------------

def cmd_validate(config: RunConfig) -> int:
    result = kb_mod.load(config.kb_paths)
    report = result.report
    if result.kb is not None:
        report = report.merged(kb_mod.validate_completeness(result.kb))
    if config.output_format is OutputFormat.JSON:
        _emit(config, _json_text(_validate_json(result.kb, report)))
    else:
        _emit(config, _validate_text(result.kb, report))
    return _report_exit_code(report)


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


def _validate_text(kb: KnowledgeBase | None, report: ValidationReport) -> str:
    lines = []
    if kb is not None:
        summary = _kb_summary(kb)
        lines.append(f"metrics: {summary['metrics']}")
        lines.append(f"elements: {summary['elements']} "
                     f"({summary['practices']} practices, {summary['roles']} roles)")
        lines.append(f"conditions: {summary['conditions']}")
        lines.append(f"rules: {summary['rules']}")
        lines.append(f"profiles: {summary['profiles']}")
        lines.append(f"matrix domain: {summary['matrix_cells']} cells")
        if kb.manifest is not None and not report.has_errors:
            lines.append("manifest: counts confirmed")
    lines.extend(_finding_line(f) for f in report.findings)
    lines.append(f"result: {len(report.errors)} error(s), "
                 f"{len(report.warnings)} warning(s)")
    return "\n".join(lines) + "\n"


def _validate_json(kb: KnowledgeBase | None, report: ValidationReport) -> dict:
    return {
        "valid": not report.has_errors,
        "summary": _kb_summary(kb) if kb is not None else None,
        "findings": [_finding_json(f) for f in report.findings],
    }


# --- evaluate ---------------------------------------------------------------

def cmd_evaluate(config: RunConfig) -> int:
    kb = _require_kb(config)
    profile = _resolve_profile(kb, config, None)
    assessments = engine.evaluate(kb, _context(config, profile))
    if config.output_format is OutputFormat.JSON:
        _emit(config, _json_text([_assessment_json(a) for a in assessments]))
    else:
        _emit(config, _assessments_text(kb, assessments))
    return EXIT_OK


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


def _label_text(label: engine.ImpactLabel) -> str:
    return label.value.replace("_", " ")


def _assessments_text(kb: KnowledgeBase, assessments: Sequence[engine.Assessment]) -> str:
    lines = []
    for a in assessments:
        header = f"{a.element}: {_label_text(a.label)}"
        if a.contributions:
            header += f" ({', '.join(c.rule_id for c in a.contributions)})"
        lines.append(header)
        lines.append(f"  score: {a.score:+d}")
        for c in a.contributions:
            rule = kb.rule(c.rule_id)
            detail = (f"  fired: {c.rule_id} {c.value:+d} "
                      f"[{c.fired_level.value.upper()} {rule.metric}]")
            if rule.rationale:
                detail += f" because {rule.rationale}"
            lines.append(detail)
        for rule_id in a.gated_rules:
            lines.append(f"  gated: {rule_id} ({kb.rule(rule_id).condition} not satisfied)")
        for rule_id in a.indeterminate_rules:
            lines.append(f"  indeterminate: {rule_id} (no value for {kb.rule(rule_id).metric})")
    return "\n".join(lines) + "\n"


# --- matrix -----------------------------------------------------------------

def cmd_matrix(config: RunConfig) -> int:
    kb = _require_kb(config)
    matrix = engine.export_matrix(kb)
    if config.output_format is OutputFormat.JSON:
        _emit(config, _json_text(_matrix_json(matrix)))
    else:
        _emit(config, _matrix_csv(matrix))
    return EXIT_OK


def _cell_token(entry: engine.MatrixEntry) -> str:
    token = f"{entry.rule_id}:{entry.stated_level.name}:{entry.sign.name}"
    if entry.condition is not None:
        token += f"@{entry.condition}"
    return token


def _matrix_csv(matrix: engine.MatrixExport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", *matrix.elements])
    for metric_id in matrix.metrics:
        row = [metric_id]
        for element_id in matrix.elements:
            entries = matrix.cells.get((metric_id, element_id), ())
            row.append(";".join(_cell_token(entry) for entry in entries))
        writer.writerow(row)
    return buffer.getvalue()


def _matrix_json(matrix: engine.MatrixExport) -> dict:
    cells: dict[str, dict[str, list]] = {}
    for metric_id in matrix.metrics:
        cells[metric_id] = {}
        for element_id in matrix.elements:
            cells[metric_id][element_id] = [
                {
                    "rule_id": entry.rule_id,
                    "stated_level": entry.stated_level.value,
                    "sign": entry.sign.value,
                    "condition": entry.condition,
                }
                for entry in matrix.cells.get((metric_id, element_id), ())
            ]
    return {"metrics": list(matrix.metrics),
            "elements": list(matrix.elements),
            "cells": cells}


# --- explain ----------------------------------------------------------------

def cmd_explain(config: RunConfig, rule_id: str) -> int:
    kb = _require_kb(config)
    rule = kb.rule(rule_id)
    if config.output_format is OutputFormat.JSON:
        _emit(config, _json_text(_explain_json(kb, rule)))
    else:
        _emit(config, _explain_text(kb, rule))
    return EXIT_OK


def _term_text(term) -> str:
    if isinstance(term, ContextFlag):
        return f"FLAG {term.flag}"
    return f"{term.level.value.upper()} {term.metric}"


def _rule_notation(kb: KnowledgeBase, rule: ImpactRule) -> str:
    level = "HIGH" if rule.stated_level is Level.HIGH else "LOW"
    sign = "+" if rule.sign is ImpactSign.POSITIVE else "-"
    head = f"{level}({rule.metric}) ->({sign}) {rule.element}"
    if rule.condition is None:
        return head
    condition = kb.condition(rule.condition)
    return f"IF ({condition.id}: {condition.description}) THEN {head}"


def _explain_text(kb: KnowledgeBase, rule: ImpactRule) -> str:
    lines = [f"{rule.id}: {rule.title}" if rule.title else rule.id]
    if rule.condition is None:
        lines.append("  No precondition")
        lines.append(f"  {_rule_notation(kb, rule)}")
    else:
        lines.append(f"  {_rule_notation(kb, rule)}")
        condition = kb.condition(rule.condition)
        terms = " AND ".join(_term_text(t) for t in condition.terms)
        lines.append(f"  condition {condition.id}: {terms}")
    if rule.rationale:
        lines.append(f"  rationale: {rule.rationale}")
    return "\n".join(lines) + "\n"


def _explain_json(kb: KnowledgeBase, rule: ImpactRule) -> dict:
    condition = None
    if rule.condition is not None:
        cond = kb.condition(rule.condition)
        condition = {
            "id": cond.id,
            "description": cond.description,
            "terms": [_term_text(t) for t in cond.terms],
        }
    return {
        "id": rule.id,
        "title": rule.title,
        "metric": rule.metric,
        "stated_level": rule.stated_level.value,
        "sign": rule.sign.value,
        "element": rule.element,
        "condition": condition,
        "rationale": rule.rationale,
    }


# --- diff -------------------------------------------------------------------

def cmd_diff(config: RunConfig, profile_a: str | None, profile_b: str | None,
             flags_a: Sequence[str], flags_b: Sequence[str],
             show_all: bool) -> int:
    kb = _require_kb(config)
    ctx_a = _context(config, _resolve_profile(kb, config, profile_a),
                     tuple(config.flags) + tuple(flags_a))
    ctx_b = _context(config, _resolve_profile(kb, config, profile_b),
                     tuple(config.flags) + tuple(flags_b))
    diffs = engine.diff(kb, ctx_a, ctx_b)
    if not show_all:
        diffs = tuple(d for d in diffs if d.delta != 0 or d.rules_changed)
    if config.output_format is OutputFormat.JSON:
        _emit(config, _json_text([_diff_json(d) for d in diffs]))
    else:
        _emit(config, _diff_text(diffs))
    return EXIT_OK


def _diff_json(d: engine.ElementDiff) -> dict:
    return {
        "element": d.element,
        "score_a": d.score_a,
        "score_b": d.score_b,
        "delta": d.delta,
        "rules_changed": list(d.rules_changed),
    }


def _diff_text(diffs: Sequence[engine.ElementDiff]) -> str:
    if not diffs:
        return "no differences\n"
    lines = []
    for d in diffs:
        line = f"{d.element}: {d.score_a:+d} -> {d.score_b:+d} (delta {d.delta:+d})"
        if d.rules_changed:
            line += f" rules: {', '.join(d.rules_changed)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# --- argument parsing -------------------------------------------------------

def _thresholds_arg(text: str) -> tuple[int, int]:
    try:
        low, high = (int(part) for part in text.split(","))
        return check_thresholds((low, high))
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected LOW,HIGH with 0 < LOW < HIGH < 100: {exc}") from None


def _add_kb_options(p: argparse.ArgumentParser, formats: tuple[str, ...],
                    default_format: str):
    p.add_argument("--kb", action="append", metavar="PATH",
                   help="knowledge-base file or directory, repeatable "
                        "(default: $MOCA_KB_PATH, then the bundled seed KB)")
    p.add_argument("--format", choices=formats, default=default_format,
                   help=f"output format (default: {default_format})")
    p.add_argument("--out", metavar="PATH",
                   help="write output to PATH instead of standard output")


def _add_scenario_options(p: argparse.ArgumentParser):
    p.add_argument("--profile-file", metavar="PATH",
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a knowledge base and report findings")
    _add_kb_options(p, ("text", "json"), "text")

    p = sub.add_parser("evaluate", help="assess every element for one profile")
    _add_kb_options(p, ("text", "json"), "text")
    _add_scenario_options(p)

    p = sub.add_parser("explain", help="show one rule with its condition and rationale")
    _add_kb_options(p, ("text", "json"), "text")
    p.add_argument("rule_id", metavar="RULE")

    p = sub.add_parser("matrix", help="export the full metric x element impact matrix")
    _add_kb_options(p, ("csv", "json"), "csv")

    p = sub.add_parser("diff", help="compare two evaluation scenarios")
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


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        kb_paths=resolve_kb_paths(args.kb),
        profile_file=Path(args.profile_file)
            if getattr(args, "profile_file", None) else None,
        profile_name=getattr(args, "profile", None),
        flags=tuple(getattr(args, "flag", ())),
        thresholds=getattr(args, "thresholds", DEFAULT_THRESHOLDS),
        elements=tuple(args.element)
            if getattr(args, "element", None) else None,
        output_format=OutputFormat(args.format),
        out_path=Path(args.out) if args.out else None,
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = _config_from(args)
    try:
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "explain":
            return cmd_explain(config, args.rule_id)
        if args.command == "matrix":
            return cmd_matrix(config)
        return cmd_diff(config, args.profile_a, args.profile_b,
                        args.flag_a, args.flag_b, args.all)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (UnknownEntityError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
