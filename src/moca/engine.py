"""Evaluation: fire rules against a profile, aggregate, explain, diff, export.

Per element, each targeting rule lands in exactly one bucket:

* indeterminate -- the profile has no value for the rule's metric;
* dormant       -- the value falls in the MEDIUM band, which contributes
                   nothing (such rules are omitted from the assessment);
* gated         -- the rule's condition has an unsatisfied term;
* fired         -- contributes polarity x level sign, always +1 or -1.

Contributions add up to an integer score that maps onto a five-point
qualitative label. The integer is an ordering device; the per-rule trace
is always carried alongside it.

Each call compiles its scenarios once: one ``level_of`` call per profile
metric, and one test per condition, made on first use and shared by every
rule under that condition (as in a Rete network's alpha memory). Each rule
carries its polarity from construction. A rule's bucket is then a lookup on
(level, condition truth, polarity) into 11 interned ``RuleOutcome`` values:
indeterminate, dormant, gated, and fired x (+1/-1) x (LOW/HIGH) x
(SATISFIED/NOT_APPLICABLE). ``evaluate`` and ``diff`` share that pass per
element; ``diff`` compares the two scenarios' outcomes by identity and
builds no assessments, so it costs no more than one evaluation.

``evaluate``, ``diff`` and ``export_matrix`` pause Python's cyclic garbage
collector while they run and then restore its previous state: their results
hold no reference cycles, so reference counting frees them.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from enum import Enum
from types import MappingProxyType

from .kb import KnowledgeBase
from .model import (
    ContextFlag,
    CulturalProfile,
    DEFAULT_THRESHOLDS,
    ImpactSign,
    Level,
    check_thresholds,
    level_of,
    _HIGH,
    _MEDIUM,
    _gc_paused,
    _field,
    _record,
    # Not called here. bench/run.py counts the calls made through
    # moca.engine.level_of and moca.engine.normalize, so both stay importable.
    normalize,  # noqa: F401
)


class ConditionStatus(Enum):
    SATISFIED = "satisfied"
    NOT_APPLICABLE = "not_applicable"


class ImpactLabel(Enum):
    STRONGLY_NEGATIVE = "strongly_negative"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"
    POSITIVE = "positive"
    STRONGLY_POSITIVE = "strongly_positive"


_LABELS = tuple(ImpactLabel)


def label_for(score: int) -> ImpactLabel:
    """Five-point label: <= -2, -1, 0, +1, >= +2."""
    return _LABELS[max(-2, min(score, 2)) + 2]


@_record
class EvaluationContext:
    """One evaluation scenario: profile, context flags, thresholds, selection.

    Unknown flags are permitted (conditions simply match or not), so one
    flag set can serve several knowledge bases. An unset element selection
    means every matrix-eligible element.
    """

    profile: CulturalProfile
    flags: frozenset[str] = frozenset()
    thresholds: tuple[int, int] = DEFAULT_THRESHOLDS
    elements: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "flags", frozenset(self.flags))
        object.__setattr__(self, "thresholds", check_thresholds(self.thresholds))
        if self.elements is not None:
            object.__setattr__(self, "elements", tuple(self.elements))


@_record
class Contribution:
    """One fired rule: value = polarity x level sign, so always +1 or -1."""

    rule_id: str
    value: int
    fired_level: Level
    condition_status: ConditionStatus


@_record
class Assessment:
    """Evaluation result for one element."""

    element: str
    contributions: tuple[Contribution, ...]
    score: int
    label: ImpactLabel
    indeterminate_rules: tuple[str, ...]
    gated_rules: tuple[str, ...]


@_record
class ElementDiff:
    """Score movement for one element between two scenarios."""

    element: str
    score_a: int
    score_b: int
    delta: int
    rules_changed: tuple[str, ...]


@_record
class MatrixEntry:
    """One rule in one cell of the matrix, in its authored form."""

    rule_id: str
    stated_level: Level
    sign: ImpactSign
    condition: str | None


@_record
class MatrixExport:
    """The full (metric x matrix-eligible element) grid.

    Rows keep metric declaration order; columns are element-id sorted.
    ``cells`` holds only the covered cells, each with its entries in rule-id
    order; ``cell()`` answers for every cell of the grid, so the cell count
    is always |metrics| x |eligible elements| independent of how many rules
    exist.
    """

    metrics: tuple[str, ...]
    elements: tuple[str, ...]
    cells: Mapping[tuple[str, str], tuple[MatrixEntry, ...]]
    _grid: tuple[frozenset[str], frozenset[str]] = _field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))
        object.__setattr__(self, "_grid", (frozenset(self.metrics), frozenset(self.elements)))

    def cell(self, metric_id: str, element_id: str) -> tuple[MatrixEntry, ...]:
        """Entries of one cell, () when uncovered; KeyError outside the grid."""
        if metric_id not in self._grid[0] or element_id not in self._grid[1]:
            raise KeyError((metric_id, element_id))
        return self.cells.get((metric_id, element_id), ())

    @property
    def cell_count(self) -> int:
        return len(self.metrics) * len(self.elements)


class RuleOutcome:
    """One rule's bucket in one scenario; only the 11 interned values below
    exist, so outcomes compare by identity. Unfired outcomes have value 0."""

    __slots__ = ("value", "fired_level", "condition_status")

    def __init__(self, value: int = 0, fired_level: Level | None = None,
                 condition_status: ConditionStatus | None = None):
        self.value = value
        self.fired_level, self.condition_status = fired_level, condition_status


_INDETERMINATE = RuleOutcome()
_DORMANT = RuleOutcome()
_GATED = RuleOutcome()
# Keyed by (level is HIGH, rule has a condition, polarity): bools and ints
# hash in C, enum members through a Python-level __hash__.
_FIRED = {
    (level is Level.HIGH, status is ConditionStatus.SATISFIED, polarity): RuleOutcome(
        polarity * sign, level, status)
    for level, sign in ((Level.LOW, -1), (Level.HIGH, 1))
    for status in ConditionStatus
    for polarity in (1, -1)
}


class _Scenario:
    """One context compiled against one knowledge base."""

    __slots__ = ("kb", "flags", "levels", "holds")

    def __init__(self, kb: KnowledgeBase, ctx: EvaluationContext):
        self.kb = kb
        self.flags = ctx.flags
        self.levels = {metric_id: level_of(value, ctx.thresholds)
                       for metric_id, value in ctx.profile.values.items()}
        self.holds: dict[str, bool] = {}

    def _test(self, condition_id: str) -> bool:
        # Conjunctive terms; a predicate over a missing metric is unsatisfied,
        # and a MEDIUM value matches neither LOW nor HIGH.
        holds = all(
            term.flag in self.flags if isinstance(term, ContextFlag)
            else self.levels.get(term.metric) is term.level
            for term in self.kb.condition(condition_id).terms)
        self.holds[condition_id] = holds
        return holds

    def outcomes(self, element_id: str) -> list[RuleOutcome]:
        """The outcome of each rule in kb.rules_for(element_id), in order."""
        levels, holds = self.levels, self.holds
        out = []
        for rule in self.kb.rules_for(element_id):
            level = levels.get(rule.metric)
            if level is None:
                out.append(_INDETERMINATE)
                continue
            if level is _MEDIUM:
                out.append(_DORMANT)
                continue
            conditioned = rule.condition is not None
            if conditioned:
                satisfied = holds.get(rule.condition)
                if satisfied is None:
                    satisfied = self._test(rule.condition)
                if not satisfied:
                    out.append(_GATED)
                    continue
            out.append(_FIRED[level is _HIGH, conditioned, rule.polarity])
        return out


def _assess(scenario: _Scenario, element_id: str) -> Assessment:
    contributions: list[Contribution] = []
    indeterminate: list[str] = []
    gated: list[str] = []
    score = 0
    for rule, outcome in zip(scenario.kb.rules_for(element_id),
                             scenario.outcomes(element_id)):
        if outcome is _DORMANT:
            continue
        if outcome is _INDETERMINATE:
            indeterminate.append(rule.id)
        elif outcome is _GATED:
            gated.append(rule.id)
        else:
            score += outcome.value
            contributions.append(Contribution._unchecked(
                rule.id, outcome.value, outcome.fired_level, outcome.condition_status))
    return Assessment._unchecked(element_id, tuple(contributions), score, label_for(score),
                                 tuple(indeterminate), tuple(gated))


def _selected_elements(kb: KnowledgeBase,
                       selection: Sequence[str] | None) -> tuple[str, ...]:
    if selection is None:
        return tuple(e.id for e in kb.rule_eligible_elements)
    for element_id in selection:
        kb.element(element_id)
    return tuple(sorted(set(selection)))


@_gc_paused
def evaluate(kb: KnowledgeBase, ctx: EvaluationContext) -> tuple[Assessment, ...]:
    """Assess the context's element selection (default: every matrix-eligible
    element), in element-id order."""
    scenario = _Scenario(kb, ctx)
    return tuple(_assess(scenario, element_id)
                 for element_id in _selected_elements(kb, ctx.elements))


def evaluate_element(kb: KnowledgeBase, ctx: EvaluationContext,
                     element_id: str) -> Assessment:
    """`evaluate` over element_id alone, whatever ctx selects; raises UnknownEntityError."""
    one = EvaluationContext(ctx.profile, ctx.flags, ctx.thresholds, (element_id,))
    return evaluate(kb, one)[0]


@_gc_paused
def diff(kb: KnowledgeBase, ctx_a: EvaluationContext,
         ctx_b: EvaluationContext) -> tuple[ElementDiff, ...]:
    """Compare two scenarios element by element.

    delta is score_b - score_a; rules_changed lists every rule whose
    bucket or contribution differs between the scenarios. The element set
    comes from ctx_a's selection, falling back to ctx_b's, then to all
    matrix-eligible elements.
    """
    selection = ctx_a.elements if ctx_a.elements is not None else ctx_b.elements
    scenario_a, scenario_b = _Scenario(kb, ctx_a), _Scenario(kb, ctx_b)
    diffs = []
    for element_id in _selected_elements(kb, selection):
        rules = kb.rules_for(element_id)
        outcomes_a = scenario_a.outcomes(element_id)
        outcomes_b = scenario_b.outcomes(element_id)
        score_a = sum(outcome.value for outcome in outcomes_a)
        score_b = sum(outcome.value for outcome in outcomes_b)
        changed = tuple(rule.id for rule, a, b in zip(rules, outcomes_a, outcomes_b)
                        if a is not b)
        diffs.append(ElementDiff._unchecked(element_id, score_a, score_b, score_b - score_a,
                                            changed))
    return tuple(diffs)


@_gc_paused
def export_matrix(kb: KnowledgeBase) -> MatrixExport:
    """Lay every rule into its (metric, element) cell of the full grid.

    Rules targeting elements outside the matrix (artifacts, techniques,
    tools) have no cell and are omitted; the loader warns about them.
    """
    metric_ids = tuple(m.id for m in kb.metrics)
    element_ids = tuple(e.id for e in kb.rule_eligible_elements)
    cells: dict[tuple[str, str], tuple[MatrixEntry, ...]] = {}
    for element_id in element_ids:
        column: dict[str, list[MatrixEntry]] = {}
        for rule in kb.rules_for(element_id):
            column.setdefault(rule.metric, []).append(
                MatrixEntry._unchecked(rule.id, rule.stated_level, rule.sign, rule.condition))
        for metric_id, entries in column.items():
            cells[metric_id, element_id] = tuple(entries)
    return MatrixExport(metrics=metric_ids, elements=element_ids, cells=cells)
