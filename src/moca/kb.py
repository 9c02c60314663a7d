"""Knowledge-base assembly: load entity files, validate, expose an immutable KB.

A knowledge base is assembled from plain data files:

* ``*.json`` files hold metrics, elements, and profiles (arrays of objects,
  classified per item by shape) or a manifest of expected counts (a single
  object).
* ``*.moca`` files hold impact rules and conditions in the rule language.

Loading is deterministic and independent of the order paths are given in;
referential integrity is checked across the whole file set, and a file set
with any error-severity finding never produces a knowledge base.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import dsl
from .model import (
    AgileElement,
    CulturalMetric,
    CultureLevel,
    CulturalProfile,
    ElementKind,
    IDENT_RE,
    ImpactCondition,
    ImpactRule,
    MATRIX_KINDS,
    METRIC_ID_RE,
    MetricPredicate,
    MetricSource,
    MocaError,
    UnknownEntityError,
)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One validation result; Error findings make a KB unusable."""

    severity: Severity
    code: str
    message: str
    entity_id: str | None = None
    path: str | None = None
    line: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    def merged(self, other: "ValidationReport") -> "ValidationReport":
        return ValidationReport(self.findings + other.findings)


@dataclass(frozen=True)
class ExpectedCounts:
    """Declared sizes the loaded knowledge base must match exactly."""

    metrics: int
    practices: int
    roles: int
    practice_categories: int

    def __post_init__(self):
        for name in ("metrics", "practices", "roles", "practice_categories"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"manifest {name} must be a non-negative integer")


class KnowledgeBaseError(MocaError, ValueError):
    """Raised when entities or a file set do not make a usable KB; the report
    holds every finding."""

    def __init__(self, report: ValidationReport):
        self.report = report
        errors = report.errors
        head = errors[0].message if errors else "knowledge base is invalid"
        extra = f" (+{len(errors) - 1} more errors)" if len(errors) > 1 else ""
        super().__init__(head + extra)


def _integrity_findings(kb: KnowledgeBase) -> list[Finding]:
    """Uniqueness and referential-integrity findings for assembled entities."""
    findings: list[Finding] = []

    def err(code: str, message: str, entity_id: str):
        findings.append(Finding(Severity.ERROR, code, message, entity_id=entity_id))

    for label, ids in (
        ("metric", [m.id for m in kb.metrics]),
        ("element", [e.id for e in kb.elements]),
        ("condition", [c.id for c in kb.conditions]),
        ("rule", [r.id for r in kb.rules]),
        ("profile", [p.name for p in kb.profiles]),
    ):
        seen: set[str] = set()
        for entity_id in ids:
            if entity_id in seen:
                err("duplicate-id", f"duplicate {label} id '{entity_id}'", entity_id)
            seen.add(entity_id)

    metric_ids = {m.id for m in kb.metrics}
    condition_ids = {c.id for c in kb.conditions}
    kinds = {e.id: e.kind for e in kb.elements}

    for cond in kb.conditions:
        for term in cond.terms:
            if isinstance(term, MetricPredicate) and term.metric not in metric_ids:
                err("dangling-metric",
                    f"condition {cond.id} references unknown metric '{term.metric}'",
                    cond.id)

    relations: set[tuple[str, str, str | None]] = set()
    for rule in kb.rules:
        if rule.metric not in metric_ids:
            err("dangling-metric",
                f"rule {rule.id} references unknown metric '{rule.metric}'", rule.id)
        if rule.element not in kinds:
            err("dangling-element",
                f"rule {rule.id} references unknown element '{rule.element}'", rule.id)
        elif kinds[rule.element] not in MATRIX_KINDS:
            findings.append(Finding(
                Severity.WARNING, "rule-target-kind",
                f"rule {rule.id} targets {kinds[rule.element].value} "
                f"'{rule.element}', which is outside the impact matrix",
                entity_id=rule.id))
        if rule.condition is not None and rule.condition not in condition_ids:
            err("dangling-condition",
                f"rule {rule.id} references unknown condition '{rule.condition}'", rule.id)
        relation = (rule.metric, rule.element, rule.condition)
        if relation in relations:
            err("duplicate-relation",
                f"rule {rule.id} duplicates the (metric, element, condition) "
                f"relation {relation!r}", rule.id)
        relations.add(relation)

    for profile in kb.profiles:
        for metric_id in profile.values:
            if metric_id not in metric_ids:
                err("dangling-metric",
                    f"profile '{profile.name}' references unknown metric '{metric_id}'",
                    profile.name)

    return findings


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable, fully resolved knowledge base.

    Construction is the one place uniqueness and referential integrity are
    checked. Any error raises KnowledgeBaseError (a ValueError) whose report
    holds every finding; a valid KB keeps the warnings for load() to report.
    """

    metrics: tuple[CulturalMetric, ...] = ()
    elements: tuple[AgileElement, ...] = ()
    conditions: tuple[ImpactCondition, ...] = ()
    rules: tuple[ImpactRule, ...] = ()
    manifest: ExpectedCounts | None = None
    profiles: tuple[CulturalProfile, ...] = ()

    def __post_init__(self):
        for name in ("metrics", "elements", "conditions", "rules", "profiles"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        report = ValidationReport(tuple(_integrity_findings(self)))
        if report.has_errors:
            raise KnowledgeBaseError(report)
        object.__setattr__(self, "_warnings", report.findings)

    @cached_property
    def _metric_index(self) -> dict[str, CulturalMetric]:
        return {m.id: m for m in self.metrics}

    @cached_property
    def _element_index(self) -> dict[str, AgileElement]:
        return {e.id: e for e in self.elements}

    @cached_property
    def _condition_index(self) -> dict[str, ImpactCondition]:
        return {c.id: c for c in self.conditions}

    @cached_property
    def _rule_index(self) -> dict[str, ImpactRule]:
        return {r.id: r for r in self.rules}

    @cached_property
    def _profile_index(self) -> dict[str, CulturalProfile]:
        return {p.name: p for p in self.profiles}

    @cached_property
    def _rules_by_element(self) -> dict[str, tuple[ImpactRule, ...]]:
        grouped: dict[str, list[ImpactRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.element, []).append(rule)
        return {eid: tuple(sorted(group, key=lambda r: r.id))
                for eid, group in grouped.items()}

    @cached_property
    def rule_eligible_elements(self) -> tuple[AgileElement, ...]:
        """Matrix-eligible elements (practices and roles), id-sorted."""
        return tuple(sorted(
            (e for e in self.elements if e.kind in MATRIX_KINDS), key=lambda e: e.id))

    def metric(self, metric_id: str) -> CulturalMetric:
        try:
            return self._metric_index[metric_id]
        except KeyError:
            raise UnknownEntityError("metric", metric_id) from None

    def element(self, element_id: str) -> AgileElement:
        try:
            return self._element_index[element_id]
        except KeyError:
            raise UnknownEntityError("element", element_id) from None

    def condition(self, condition_id: str) -> ImpactCondition:
        try:
            return self._condition_index[condition_id]
        except KeyError:
            raise UnknownEntityError("condition", condition_id) from None

    def rule(self, rule_id: str) -> ImpactRule:
        try:
            return self._rule_index[rule_id]
        except KeyError:
            raise UnknownEntityError("rule", rule_id) from None

    def profile(self, name: str) -> CulturalProfile:
        try:
            return self._profile_index[name]
        except KeyError:
            raise UnknownEntityError("profile", name) from None

    def rules_for(self, element_id: str) -> tuple[ImpactRule, ...]:
        """Rules targeting one element, sorted by rule id."""
        return self._rules_by_element.get(element_id, ())


def validate_completeness(kb: KnowledgeBase) -> ValidationReport:
    """Manifest-gated completeness check.

    With a manifest present, verifies the declared counts exactly and
    reports every uncovered (metric, matrix-eligible element) cell as a
    Warning; a partial rule set is legal. Without a manifest the report
    is empty.
    """
    if kb.manifest is None:
        return ValidationReport(())
    findings = list(_count_findings(kb.manifest, kb.metrics, kb.elements))
    covered = {(r.metric, r.element) for r in kb.rules}
    for metric in kb.metrics:
        for element in kb.rule_eligible_elements:
            if (metric.id, element.id) not in covered:
                findings.append(Finding(
                    Severity.WARNING, "uncovered-cell",
                    f"no rule covers ({metric.id}, {element.id})",
                    entity_id=f"{metric.id}:{element.id}"))
    return ValidationReport(tuple(findings))


def _count_findings(
    manifest: ExpectedCounts,
    metrics: Sequence[CulturalMetric],
    elements: Sequence[AgileElement],
) -> Iterable[Finding]:
    practices = [e for e in elements if e.kind is ElementKind.PRACTICE]
    actual = {
        "metrics": len(metrics),
        "practices": len(practices),
        "roles": sum(1 for e in elements if e.kind is ElementKind.ROLE),
        "practice_categories": len({p.category for p in practices}),
    }
    for name, expected in (
        ("metrics", manifest.metrics),
        ("practices", manifest.practices),
        ("roles", manifest.roles),
        ("practice_categories", manifest.practice_categories),
    ):
        if actual[name] != expected:
            yield Finding(
                Severity.ERROR, "manifest-mismatch",
                f"manifest declares {expected} {name}, found {actual[name]}",
                entity_id=name)


@dataclass(frozen=True)
class LoadResult:
    """Outcome of load(): a usable KB, or None plus an explanatory report."""

    kb: KnowledgeBase | None
    report: ValidationReport


class _Collector:
    """Accumulates entities and findings while files are read."""

    def __init__(self):
        self.metrics: list[CulturalMetric] = []
        self.elements: list[AgileElement] = []
        self.conditions: list[ImpactCondition] = []
        self.rules: list[ImpactRule] = []
        self.profiles: list[CulturalProfile] = []
        self.manifest: ExpectedCounts | None = None
        self.manifest_path: str | None = None
        self.findings: list[Finding] = []

    def error(self, code: str, message: str, *, entity_id: str | None = None,
              path: str | None = None, line: int | None = None):
        self.findings.append(Finding(
            Severity.ERROR, code, message, entity_id=entity_id, path=path, line=line))


def _no_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


_METRIC_KEYS = {"id", "name", "level", "low_pole", "high_pole", "source"}
_ELEMENT_KEYS = {"id", "name", "kind", "category", "source_methods"}
_PROFILE_KEYS = {"name", "values"}
_MANIFEST_KEYS = {"metrics", "practices", "roles", "practice_categories"}


def _check_keys(item: dict, allowed: set[str], required: set[str],
                what: str, entity_id: str | None, path: str, out: _Collector) -> bool:
    ok = True
    for key in sorted(set(item) - allowed):
        out.error("unknown-field", f"{what} has unknown field '{key}'",
                  entity_id=entity_id, path=path)
        ok = False
    for key in sorted(required - set(item)):
        out.error("missing-field", f"{what} is missing required field '{key}'",
                  entity_id=entity_id, path=path)
        ok = False
    return ok


def _decode_enum(enum_cls, raw, what: str, entity_id: str | None,
                 path: str, out: _Collector):
    if isinstance(raw, str):
        try:
            return enum_cls(raw.lower())
        except ValueError:
            pass
    allowed = ", ".join(e.value for e in enum_cls)
    out.error("invalid-value", f"{what} must be one of: {allowed}; got {raw!r}",
              entity_id=entity_id, path=path)
    return None


def _string_field(item: dict, key: str, what: str, entity_id: str | None,
                  path: str, out: _Collector) -> str | None:
    raw = item.get(key)
    if not isinstance(raw, str):
        out.error("invalid-value", f"{what} field '{key}' must be a string, got {raw!r}",
                  entity_id=entity_id, path=path)
        return None
    return raw


def _parse_metric(item: dict, path: str, out: _Collector):
    entity_id = item.get("id") if isinstance(item.get("id"), str) else None
    if not _check_keys(item, _METRIC_KEYS, _METRIC_KEYS, "metric", entity_id, path, out):
        return
    fields = {key: _string_field(item, key, "metric", entity_id, path, out)
              for key in ("id", "name", "low_pole", "high_pole")}
    level = _decode_enum(CultureLevel, item["level"], "metric level", entity_id, path, out)
    source = _decode_enum(MetricSource, item["source"], "metric source", entity_id, path, out)
    if None in fields.values() or level is None or source is None:
        return
    if not METRIC_ID_RE.match(fields["id"]):
        out.error("invalid-id",
                  f"metric id must match [A-Z][A-Z0-9_]*, got '{fields['id']}'",
                  entity_id=entity_id, path=path)
        return
    try:
        out.metrics.append(CulturalMetric(
            id=fields["id"], name=fields["name"], level=level,
            low_pole=fields["low_pole"], high_pole=fields["high_pole"], source=source))
    except ValueError as exc:
        out.error("invalid-entity", str(exc), entity_id=entity_id, path=path)


def _parse_element(item: dict, path: str, out: _Collector):
    entity_id = item.get("id") if isinstance(item.get("id"), str) else None
    if not _check_keys(item, _ELEMENT_KEYS, {"id", "name", "kind"},
                       "element", entity_id, path, out):
        return
    ident = _string_field(item, "id", "element", entity_id, path, out)
    name = _string_field(item, "name", "element", entity_id, path, out)
    kind = _decode_enum(ElementKind, item["kind"], "element kind", entity_id, path, out)
    if ident is None or name is None or kind is None:
        return
    category = item.get("category")
    if category is not None and not isinstance(category, str):
        out.error("invalid-value", f"element category must be a string, got {category!r}",
                  entity_id=entity_id, path=path)
        return
    methods = item.get("source_methods", [])
    if not (isinstance(methods, list) and all(isinstance(m, str) for m in methods)):
        out.error("invalid-value",
                  f"element source_methods must be a list of strings, got {methods!r}",
                  entity_id=entity_id, path=path)
        return
    if not IDENT_RE.match(ident):
        out.error("invalid-id", f"element id must be an identifier, got '{ident}'",
                  entity_id=entity_id, path=path)
        return
    try:
        out.elements.append(AgileElement(
            id=ident, name=name, kind=kind, category=category,
            source_methods=tuple(methods)))
    except ValueError as exc:
        out.error("invalid-entity", str(exc), entity_id=entity_id, path=path)


def _parse_profile(item: dict, path: str, out: _Collector):
    entity_id = item.get("name") if isinstance(item.get("name"), str) else None
    if not _check_keys(item, _PROFILE_KEYS, _PROFILE_KEYS,
                       "profile", entity_id, path, out):
        return
    name = _string_field(item, "name", "profile", entity_id, path, out)
    values = item.get("values")
    if name is None:
        return
    if not isinstance(values, dict):
        out.error("invalid-value", f"profile values must be an object, got {values!r}",
                  entity_id=entity_id, path=path)
        return
    try:
        out.profiles.append(CulturalProfile(name=name, values=values))
    except ValueError as exc:
        out.error("invalid-entity", str(exc), entity_id=entity_id, path=path)


def _parse_manifest(obj: dict, path: str, out: _Collector):
    if not _check_keys(obj, _MANIFEST_KEYS, _MANIFEST_KEYS, "manifest", None, path, out):
        return
    try:
        manifest = ExpectedCounts(
            metrics=obj["metrics"], practices=obj["practices"],
            roles=obj["roles"], practice_categories=obj["practice_categories"])
    except ValueError as exc:
        out.error("invalid-entity", str(exc), path=path)
        return
    if out.manifest is not None:
        out.error("duplicate-manifest",
                  f"manifest already declared in {out.manifest_path}", path=path)
        return
    out.manifest = manifest
    out.manifest_path = path


def _classify_item(item: dict) -> str | None:
    if "kind" in item:
        return "element"
    if "values" in item:
        return "profile"
    if "source" in item or "level" in item or "low_pole" in item:
        return "metric"
    return None


def _read_json_file(path: Path, out: _Collector):
    name = str(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"),
                             object_pairs_hook=_no_duplicate_keys)
    except RecursionError:
        out.error("invalid-json", "nesting is too deep to decode", path=name)
        return
    except json.JSONDecodeError as exc:
        out.error("invalid-json", exc.msg, path=name, line=exc.lineno)
        return
    except ValueError as exc:
        out.error("invalid-json", str(exc), path=name)
        return
    if isinstance(payload, dict):
        _parse_manifest(payload, name, out)
        return
    if not isinstance(payload, list):
        out.error("invalid-json", "top level must be an object or an array", path=name)
        return
    parsers = {"metric": _parse_metric, "element": _parse_element,
               "profile": _parse_profile}
    for index, item in enumerate(payload):
        if not isinstance(item, dict):
            out.error("invalid-entity", f"entry {index} must be an object, got {item!r}",
                      path=name)
            continue
        shape = _classify_item(item)
        if shape is None:
            out.error("invalid-entity",
                      f"entry {index} does not look like a metric, element, or profile",
                      entity_id=item.get("id") or item.get("name"), path=name)
            continue
        parsers[shape](item, name, out)


def _read_rule_file(path: Path, out: _Collector):
    name = str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        before = exc.object[:exc.start]
        column = exc.start - before.rfind(b"\n")
        out.error("syntax-error", f"column {column}: not valid UTF-8 ({exc.reason})",
                  path=name, line=before.count(b"\n") + 1)
        return
    try:
        doc = dsl.parse(source)
    except dsl.RuleSyntaxError as exc:
        for err in exc.errors:
            message = f"column {err.column}: {err.message}"
            if err.expected:
                message += f" (expected {', '.join(err.expected)})"
            out.error("syntax-error", message, path=name, line=err.line)
        return
    out.rules.extend(doc.rules)
    out.conditions.extend(doc.conditions)


def _unsupported_file(path: Path, out: _Collector):
    out.error("unsupported-file",
              f"'{path}' is neither a .json data file nor a .moca rule file",
              entity_id=str(path), path=str(path))


#: Reader for each knowledge-base file suffix.
_READERS = {".json": _read_json_file, ".moca": _read_rule_file}


def _read_file(path: Path, reader: Callable[[Path, _Collector], None],
               out: _Collector):
    """Run reader on path; a missing or unreadable file is an io-error finding."""
    try:
        if path.is_file():
            reader(path, out)
            return
        reason = "not a readable file"
    except OSError as exc:
        reason = str(exc)
    out.error("io-error", f"cannot read '{path}': {reason}",
              entity_id=str(path), path=str(path))


def load(paths: Iterable[str | Path]) -> LoadResult:
    """Load a knowledge base from data and rule files.

    Paths are deduplicated and processed in a canonical order, so the same
    file set always yields an identical knowledge base regardless of the
    order given. Returns a LoadResult: either a usable KB (report holds at
    most warnings) or no KB and a report whose errors explain every failure.
    """
    canonical: dict[str, Path] = {}
    for raw in paths:
        canonical.setdefault(os.path.realpath(raw), Path(raw))

    out = _Collector()
    for _, path in sorted(canonical.items()):
        _read_file(path, _READERS.get(path.suffix, _unsupported_file), out)

    try:
        kb = KnowledgeBase(metrics=out.metrics, elements=out.elements,
                           conditions=out.conditions, rules=out.rules,
                           manifest=out.manifest, profiles=out.profiles)
        integrity = kb._warnings
    except KnowledgeBaseError as exc:
        kb, integrity = None, exc.report.findings
    findings = [*out.findings, *integrity]
    if out.manifest is not None:
        findings.extend(_count_findings(out.manifest, out.metrics, out.elements))
    report = ValidationReport(tuple(findings))
    return LoadResult(None if report.has_errors else kb, report)


def load_kb(paths: Iterable[str | Path]) -> KnowledgeBase:
    """load() that raises KnowledgeBaseError instead of returning a report."""
    result = load(paths)
    if result.kb is None:
        raise KnowledgeBaseError(result.report)
    return result.kb


def load_profiles(path: str | Path) -> tuple[tuple[CulturalProfile, ...], ValidationReport]:
    """Read one profiles file; reference checks happen against a KB later."""
    out = _Collector()
    file_path = Path(path)
    _read_file(file_path, _read_json_file, out)
    for entity in (out.metrics, out.elements):
        for stray in entity:
            out.error("invalid-entity",
                      f"expected only profiles in '{file_path}', found {stray.id}",
                      entity_id=stray.id, path=str(file_path))
    return tuple(out.profiles), ValidationReport(tuple(out.findings))


def seed_dir() -> Path:
    """Directory holding the bundled seed knowledge base."""
    return Path(__file__).resolve().parent / "seed"


def expand_kb_path(path: Path) -> list[Path]:
    """A directory's .json and .moca files in sorted order; a file as given."""
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix in _READERS)
    return [path]


def seed_kb_paths() -> tuple[Path, ...]:
    """The bundled seed knowledge-base files, in canonical order."""
    return tuple(expand_kb_path(seed_dir()))
