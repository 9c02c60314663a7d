"""Knowledge-base assembly: load entity files, validate, expose an immutable KB.

A knowledge base is assembled from plain data files:

* ``*.json`` files hold metrics, elements, and profiles (arrays of objects,
  classified per item by shape) or a manifest of expected counts (a single
  object). One table of fields per shape (``_SHAPES``) reads them all: a
  wrongly typed value is an invalid-value finding, and a record rule the
  value object refuses (id form, source and level, ...) is invalid-entity.
* ``*.moca`` files hold impact rules and conditions in the rule language.

Loading is deterministic and independent of the order paths are given in.
Constructing a KnowledgeBase is the one validity gate for unique ids,
references across the file set and a manifest's counts: set operations over
id and reference columns check them, and a per-entity loop words findings
only when a check fails. A file set with any error-severity finding never
produces a knowledge base. validate_completeness adds a coverage warning for
each matrix cell no rule covers, once a manifest declares the matrix.

load and validate_completeness pause Python's cyclic garbage collector while
they run and then restore its previous state: the rules and findings they
build hold no reference cycles, so reference counting frees them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable

from . import dsl
from .model import (
    AgileElement,
    CulturalMetric,
    CultureLevel,
    CulturalProfile,
    ElementKind,
    ImpactCondition,
    ImpactRule,
    MATRIX_KINDS,
    MetricPredicate,
    MetricSource,
    MocaError,
    UnknownEntityError,
    _gc_paused,
    _record,
)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@_record
class Finding:
    """One validation result; Error findings make a KB unusable."""

    severity: Severity
    code: str
    message: str
    entity_id: str | None = None
    path: str | None = None
    line: int | None = None


@_record
class ValidationReport:
    """The findings of one load or check, in the order they were found."""

    findings: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)


@_record
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


def _reference_findings(kb: KnowledgeBase) -> list[Finding]:
    """Referential-integrity findings, read from the KB's id indexes."""
    findings: list[Finding] = []

    def err(code: str, message: str, entity_id: str):
        findings.append(Finding(Severity.ERROR, code, message, entity_id=entity_id))

    metrics, elements = kb._metric_index, kb._element_index
    for cond in kb.conditions:
        for term in cond.terms:
            if isinstance(term, MetricPredicate) and term.metric not in metrics:
                err("dangling-metric",
                    f"condition {cond.id} references unknown metric '{term.metric}'",
                    cond.id)

    eligible = {e.id for e in kb.elements if e.kind in MATRIX_KINDS}  # one kind test per element
    # Set checks over the rules' columns pass a clean rule set; only a failed
    # one runs the per-rule loop, which words each finding in rule order.
    if not (len(set(map(attrgetter("metric", "element", "condition"), kb.rules))) == len(kb.rules)
            and metrics.keys() >= set(map(attrgetter("metric"), kb.rules))
            and eligible.issuperset(map(attrgetter("element"), kb.rules))
            and {None, *kb._condition_index}.issuperset(map(attrgetter("condition"), kb.rules))):
        relations = set()
        for rule in kb.rules:
            if rule.metric not in metrics:
                err("dangling-metric",
                    f"rule {rule.id} references unknown metric '{rule.metric}'", rule.id)
            element = elements.get(rule.element)
            if element is None:
                err("dangling-element",
                    f"rule {rule.id} references unknown element '{rule.element}'", rule.id)
            elif rule.element not in eligible:
                findings.append(Finding(
                    Severity.WARNING, "rule-target-kind",
                    f"rule {rule.id} targets {element.kind.value} "
                    f"'{rule.element}', which is outside the impact matrix",
                    entity_id=rule.id))
            if rule.condition is not None and rule.condition not in kb._condition_index:
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
            if metric_id not in metrics:
                err("dangling-metric",
                    f"profile '{profile.name}' references unknown metric '{metric_id}'",
                    profile.name)

    return findings


def _count_findings(kb: KnowledgeBase) -> Iterable[Finding]:
    """manifest-mismatch findings: declared counts the KB does not have."""
    practices = [e for e in kb.elements if e.kind is ElementKind.PRACTICE]
    actual = {
        "metrics": len(kb.metrics),
        "practices": len(practices),
        "roles": sum(1 for e in kb.elements if e.kind is ElementKind.ROLE),
        "practice_categories": len({p.category for p in practices}),
    }
    for name, found in actual.items():
        expected = getattr(kb.manifest, name)
        if found != expected:
            yield Finding(
                Severity.ERROR, "manifest-mismatch",
                f"manifest declares {expected} {name}, found {found}",
                entity_id=name)


#: (field, label, id attribute) of each entity tuple; __post_init__ builds the
#: index _<label>_index, id -> entity, for each.
_INDEXED = (("metrics", "metric", "id"), ("elements", "element", "id"),
            ("conditions", "condition", "id"), ("rules", "rule", "id"),
            ("profiles", "profile", "name"))


def _lookup(label: str):
    """The KnowledgeBase method that finds an entity in its _<label>_index."""
    attr = f"_{label}_index"

    def lookup(self, entity_id: str):
        try:
            return self.__dict__[attr][entity_id]
        except KeyError:
            raise UnknownEntityError(label, entity_id) from None
    lookup.__name__, lookup.__qualname__ = label, f"KnowledgeBase.{label}"
    return lookup


@dataclass(frozen=True)
class KnowledgeBase:
    """Immutable, fully resolved knowledge base.

    Construction is the one validity gate. An id index shorter than its
    entity tuple means a duplicate id; the reference checks read those
    indexes; a manifest's counts are then checked against the entities.
    Any error raises KnowledgeBaseError (a ValueError) whose report holds
    every finding; a valid KB keeps the warnings for load() to report.
    """

    metrics: tuple[CulturalMetric, ...] = ()
    elements: tuple[AgileElement, ...] = ()
    conditions: tuple[ImpactCondition, ...] = ()
    rules: tuple[ImpactRule, ...] = ()
    manifest: ExpectedCounts | None = None
    profiles: tuple[CulturalProfile, ...] = ()

    def __post_init__(self):
        findings: list[Finding] = []
        for name, label, key in _INDEXED:
            entities = tuple(getattr(self, name))
            index = dict(zip(map(attrgetter(key), entities), entities))
            if len(index) < len(entities):  # a duplicate id: word each one in order
                index = {}
                for entity in entities:
                    entity_id = getattr(entity, key)
                    if entity_id in index:
                        findings.append(Finding(
                            Severity.ERROR, "duplicate-id",
                            f"duplicate {label} id '{entity_id}'", entity_id=entity_id))
                    index[entity_id] = entity
            object.__setattr__(self, name, entities)
            object.__setattr__(self, f"_{label}_index", index)
        findings.extend(_reference_findings(self))
        if self.manifest is not None:
            findings.extend(_count_findings(self))
        report = ValidationReport(tuple(findings))
        if report.has_errors:
            raise KnowledgeBaseError(report)
        object.__setattr__(self, "_warnings", report.findings)

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

    #: The five lookups by id: kb.metric(id), .element, .condition, .rule and
    #: .profile(name), each raising UnknownEntityError for an unknown id.
    metric, element, condition, rule, profile = (_lookup(label) for _, label, _ in _INDEXED)

    def rules_for(self, element_id: str) -> tuple[ImpactRule, ...]:
        """Rules targeting one element, sorted by rule id."""
        return self._rules_by_element.get(element_id, ())


@_gc_paused
def validate_completeness(kb: KnowledgeBase) -> ValidationReport:
    """Manifest-gated coverage check.

    With a manifest present, reports every uncovered (metric,
    matrix-eligible element) cell as an uncovered-cell Warning with entity_id
    "METRIC:ELEMENT", in metric order, then element-id order, built in one
    pass over the cells; a partial rule set is legal. Without a manifest the
    report is empty. Construction already enforced the declared counts.
    """
    if kb.manifest is None:
        return ValidationReport(())
    # A member read through its enum class is a Python-level descriptor call: one, not one a cell.
    warning = Severity.WARNING
    covered = {metric.id: set() for metric in kb.metrics}
    for rule in kb.rules:
        covered[rule.metric].add(rule.element)
    element_ids = [e.id for e in kb.rule_eligible_elements]
    return ValidationReport(tuple([
        Finding(warning, "uncovered-cell", f"no rule covers ({m}, {e})", f"{m}:{e}")
        for m, have in covered.items() for e in element_ids if e not in have]))


@_record
class LoadResult:
    """Outcome of load(): a usable KB, or None plus an explanatory report."""

    kb: KnowledgeBase | None
    report: ValidationReport


class _Collector:
    """Accumulates entities and findings while files are read: one list per
    JSON shape (see _SHAPES), the rules and conditions, and the findings."""

    def __init__(self):
        self.found: dict[str, list] = {shape: [] for shape in _SHAPES}
        self.conditions: list[ImpactCondition] = []
        self.rules: list[ImpactRule] = []
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


def _string(item: dict, key: str | None) -> str | None:
    """item[key] if it is a string, else None: the id a finding names."""
    value = item.get(key)
    return value if isinstance(value, str) else None


_STRING = (lambda raw: isinstance(raw, str), "a string")


def _shape(record: type, id_key: str | None, checks: dict, optional=()) -> tuple:
    """A _SHAPES entry: an Enum check becomes its {value: member} table, and
    every key but the optional ones is required."""
    tables = {key: {m.value: m for m in check} if isinstance(check, type) else check
              for key, check in checks.items()}
    return record, id_key, tables, checks.keys() - {*optional}


#: Each JSON shape: its record type, the key whose string value names an
#: item in findings, a check for each field in checking order, and its
#: required keys: all but the optional ones. A check is an Enum, matched
#: case-insensitively; a (test, words) pair, where words end "<shape> <key>
#: must be ..."; or None, leaving the value to the record.
_SHAPES = {
    "metric": _shape(CulturalMetric, "id", {
        "id": _STRING, "name": _STRING, "low_pole": _STRING, "high_pole": _STRING,
        "level": CultureLevel, "source": MetricSource}),
    "element": _shape(AgileElement, "id", {
        "id": _STRING, "name": _STRING, "kind": ElementKind,
        "category": (lambda raw: raw is None or isinstance(raw, str), "a string or null"),
        "source_methods": (lambda raw: isinstance(raw, list)
                           and all(isinstance(m, str) for m in raw), "a list of strings")},
        optional=("category", "source_methods")),
    "profile": _shape(CulturalProfile, "name", {
        "name": _STRING, "values": (lambda raw: isinstance(raw, dict), "an object")}),
    "manifest": _shape(ExpectedCounts, None, dict.fromkeys(
        ("metrics", "practices", "roles", "practice_categories"))),
}


def _parse_item(shape: str, item: dict, path: str, out: _Collector):
    """Check one JSON object against its shape and keep the record it makes.

    Three stages, each reporting all it finds and stopping the item on any
    finding: unknown-field and missing-field, then invalid-value for a value
    of the wrong type, then invalid-entity for a rule the record refuses.
    """
    record, id_key, fields, required = _SHAPES[shape]
    # error, which reads the item's id, is made only for an item with a finding.
    if not (item.keys() <= fields.keys() and item.keys() >= required):
        error = partial(out.error, entity_id=_string(item, id_key), path=path)
        for key in sorted(item.keys() - fields.keys()):
            error("unknown-field", f"{shape} has unknown field '{key}'")
        for key in sorted(required - item.keys()):
            error("missing-field", f"{shape} is missing required field '{key}'")
        return
    values, invalid = {}, []
    for key, check in fields.items():
        if key not in item:
            continue
        raw = values[key] = item[key]
        if type(check) is dict:  # an Enum's {value: member}, matched case-insensitively
            if isinstance(raw, str) and (member := check.get(raw.lower())) is not None:
                values[key] = member
                continue
            words = "one of " + " | ".join(check)
        elif check is None or check[0](raw):
            continue
        else:
            words = check[1]
        invalid.append(f"{shape} {key} must be {words}, got {raw!r}")
    if invalid:
        error = partial(out.error, entity_id=_string(item, id_key), path=path)
        for message in invalid:
            error("invalid-value", message)
        return
    try:
        entity = record(**values)
    except ValueError as exc:
        out.error("invalid-entity", str(exc), entity_id=_string(item, id_key), path=path)
        return
    if shape == "manifest":  # a manifest has no id
        if out.manifest_path is not None:
            out.error("duplicate-manifest", f"manifest already declared in {out.manifest_path}",
                      path=path)
            return
        out.manifest_path = path
    out.found[shape].append(entity)


def _classify_item(item: dict) -> str | None:
    if "kind" in item:
        return "element"
    if "values" in item:
        return "profile"
    if "source" in item or "level" in item or "low_pole" in item:
        return "metric"
    return None


def _read_json_file(path: Path, name: str, out: _Collector):
    try:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text, object_pairs_hook=_no_duplicate_keys)
        if "\\u" in text:  # only an escape can decode to a lone surrogate
            json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except RecursionError:
        out.error("invalid-json", "nesting is too deep to decode", path=name)
        return
    except json.JSONDecodeError as exc:
        out.error("invalid-json", exc.msg, path=name, line=exc.lineno)
        return
    except UnicodeEncodeError:
        out.error("invalid-json", "a string decodes to a lone surrogate", path=name)
        return
    except ValueError as exc:
        out.error("invalid-json", str(exc), path=name)
        return
    if isinstance(payload, dict):
        _parse_item("manifest", payload, name, out)
        return
    if not isinstance(payload, list):
        out.error("invalid-json", "top level must be an object or an array", path=name)
        return
    for index, item in enumerate(payload):
        if not isinstance(item, dict):
            out.error("invalid-entity", f"entry {index} must be an object, got {item!r}",
                      path=name)
            continue
        shape = _classify_item(item)
        if shape is None:
            out.error("invalid-entity",
                      f"entry {index} does not look like a metric, element, or profile",
                      entity_id=_string(item, "id") or _string(item, "name"), path=name)
            continue
        _parse_item(shape, item, name, out)


def _read_rule_file(path: Path, name: str, out: _Collector):
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
    for entry in doc.entries:  # comments go to neither list
        if isinstance(entry, ImpactRule):
            out.rules.append(entry)
        elif isinstance(entry, ImpactCondition):
            out.conditions.append(entry)


def _unsupported_file(path: Path, name: str, out: _Collector):
    out.error("unsupported-file",
              f"'{name}' is neither a .json data file nor a .moca rule file",
              entity_id=name, path=name)


#: Reader for each knowledge-base file suffix.
_READERS = {".json": _read_json_file, ".moca": _read_rule_file}


def _file_name(path: Path) -> str:
    """path for a finding: a byte that is not UTF-8 becomes a \\xNN escape,
    so every output can hold it."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _read_file(path: Path, reader: Callable[[Path, str, _Collector], None],
               out: _Collector):
    """Run reader on path; a missing or unreadable file is an io-error finding."""
    name = _file_name(path)
    try:
        if path.is_file():
            reader(path, name, out)
            return
        reason = "not a readable file"
    except OSError as exc:
        reason = str(exc)
    out.error("io-error", f"cannot read '{name}': {reason}", entity_id=name, path=name)


@_gc_paused
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

    found = out.found
    try:
        kb = KnowledgeBase(metrics=found["metric"], elements=found["element"],
                           conditions=out.conditions, rules=out.rules,
                           manifest=(found["manifest"] or [None])[0],
                           profiles=found["profile"])
        integrity = kb._warnings
    except KnowledgeBaseError as exc:
        kb, integrity = None, exc.report.findings
    report = ValidationReport((*out.findings, *integrity))
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
    name = _file_name(file_path)
    for stray in (*out.found["metric"], *out.found["element"]):
        out.error("invalid-entity", f"expected only profiles, found {stray.id}",
                  entity_id=stray.id, path=name)
    if out.found["manifest"]:
        out.error("invalid-entity", "expected only profiles, found a manifest", path=name)
    return tuple(out.found["profile"]), ValidationReport(tuple(out.findings))


def seed_dir() -> Path:
    """Directory holding the bundled seed knowledge base."""
    return Path(__file__).resolve().parent / "seed"


def expand_kb_path(path: Path) -> list[Path]:
    """A directory's .json and .moca files in sorted order; a file as given.

    A path that cannot be stat'ed or listed is returned as given, for load()
    to report as an io-error.
    """
    try:
        if path.is_dir():
            return sorted(p for p in path.iterdir() if p.suffix in _READERS)
    except OSError:
        pass
    return [path]


def seed_kb_paths() -> tuple[Path, ...]:
    """The bundled seed knowledge-base files, in canonical order."""
    return tuple(expand_kb_path(seed_dir()))
