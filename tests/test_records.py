"""The value-type contract: moca's result and entity records are immutable,
slotted dataclasses whose constructors behave like dataclass(frozen=True)'s."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from moca import dsl, engine, kb, model
from moca.dsl import Comment, ParseError, RuleDocument
from moca.engine import (
    Assessment,
    ConditionStatus,
    Contribution,
    ElementDiff,
    EvaluationContext,
    ImpactLabel,
    MatrixEntry,
    MatrixExport,
)
from moca.kb import ExpectedCounts, Finding, LoadResult, Severity, ValidationReport
from moca.model import (
    AgileElement,
    ContextFlag,
    CulturalMetric,
    CulturalProfile,
    CultureLevel,
    ElementKind,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    Level,
    MetricPredicate,
    MetricSource,
    NormalizedRule,
)


def _rule():
    return ImpactRule("H6", "t", "PDI", Level.HIGH, ImpactSign.NEGATIVE,
                      "daily_meeting", "IC1", "because")


def _profile():
    return CulturalProfile("p", {"PDI": 80})


#: One factory per record type; each call builds an equal, separate instance.
SAMPLES = {
    CulturalMetric: lambda: CulturalMetric("PDI", "Power distance", CultureLevel.NATIONAL,
                                           "low", "high", MetricSource.HOFSTEDE),
    CulturalProfile: _profile,
    AgileElement: lambda: AgileElement("daily_meeting", "Daily meeting",
                                       ElementKind.PRACTICE, "meetings", ["scrum"]),
    ContextFlag: lambda: ContextFlag("manager_attends"),
    MetricPredicate: lambda: MetricPredicate("PDI", Level.HIGH),
    ImpactCondition: lambda: ImpactCondition("IC1", "d", [ContextFlag("f")]),
    ImpactRule: _rule,
    NormalizedRule: lambda: NormalizedRule("H6", "PDI", -1, None, "daily_meeting"),
    Finding: lambda: Finding(Severity.WARNING, "uncovered-cell", "m", entity_id="PDI:x"),
    ValidationReport: lambda: ValidationReport((Finding(Severity.ERROR, "c", "m"),)),
    ExpectedCounts: lambda: ExpectedCounts(8, 48, 7, 6),
    LoadResult: lambda: LoadResult(None, ValidationReport()),
    EvaluationContext: lambda: EvaluationContext(_profile(), {"f"}, [33, 67], ["x"]),
    Contribution: lambda: Contribution("H6", -1, Level.HIGH, ConditionStatus.SATISFIED),
    Assessment: lambda: Assessment("x", (), 0, ImpactLabel.NEUTRAL, ("H4",), ()),
    ElementDiff: lambda: ElementDiff("x", 0, -1, -1, ("H6",)),
    MatrixEntry: lambda: MatrixEntry("H6", Level.HIGH, ImpactSign.NEGATIVE, "IC1"),
    MatrixExport: lambda: MatrixExport(("PDI",), ("coach", "daily_meeting"), {
        ("PDI", "daily_meeting"): (MatrixEntry("H6", Level.HIGH, ImpactSign.NEGATIVE, "IC1"),)}),
    Comment: lambda: Comment("# note"),
    ParseError: lambda: ParseError(3, 7, "unexpected token", ("IMPACTS",)),
    RuleDocument: lambda: RuleDocument((_rule(), Comment("# c")), (1, 2)),
}

#: Frozen dataclasses that keep an instance __dict__ for their cached_property.
CACHED = {kb.KnowledgeBase}

#: Records holding a mapping proxy, which cannot be hashed.
UNHASHABLE = {CulturalProfile, EvaluationContext, MatrixExport}


def _defined_dataclasses():
    return {obj for module in (model, kb, engine, dsl) for obj in vars(module).values()
            if dataclasses.is_dataclass(obj) and isinstance(obj, type)
            and obj.__module__ == module.__name__}


def _reference(cls):
    """What plain dataclass(frozen=True) makes of cls's fields."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default, init=f.init, repr=f.repr,
                                           hash=f.hash, compare=f.compare))
        for f in dataclasses.fields(cls)], frozen=True)


def test_every_record_type_has_a_sample():
    assert _defined_dataclasses() - CACHED == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    a, b = SAMPLES[cls](), SAMPLES[cls]()
    assert type(a) is cls and a == b and a is not b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)

    init_args = {f.name: getattr(a, f.name) for f in dataclasses.fields(cls) if f.init}
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, f.name, getattr(b, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.not_a_field = 1
    assert not hasattr(a, "__dict__")

    assert dataclasses.replace(a) == a
    assert dataclasses.replace(a, **init_args) == a

    reference = _reference(cls)
    assert inspect.signature(cls) == inspect.signature(reference)
    assert cls.__match_args__ == reference.__match_args__
    assert repr(a) == repr(reference(**init_args))


def test_rule_polarity_is_outside_repr_and_equality():
    rule, flipped = _rule(), _rule()
    object.__setattr__(flipped, "polarity", -flipped.polarity)
    assert rule.polarity == -1 and flipped.polarity == 1
    assert "polarity" not in repr(rule)
    assert rule == flipped and hash(rule) == hash(flipped)
    assert "polarity" not in inspect.signature(ImpactRule).parameters


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(copier, seed_kb):
    matrix = engine.export_matrix(seed_kb)
    for value in [*(make() for make in SAMPLES.values()), seed_kb, matrix]:
        twin = copier(value)
        assert type(twin) is type(value) and twin == value, type(value).__name__
    twin = copier(matrix)
    assert twin.cell_count == matrix.cell_count
    assert all(twin.cell(*key) == entries for key, entries in matrix.cells.items())
    twin = copier(seed_kb)
    assert twin.rule("H6") == seed_kb.rule("H6")
    assert twin.rules_for("daily_meeting") == seed_kb.rules_for("daily_meeting")
    # A copy is a constructor call: a forged derived field is recomputed.
    forged = _rule()
    object.__setattr__(forged, "polarity", -forged.polarity)
    assert copier(forged).polarity == _rule().polarity == -1


@pytest.mark.parametrize("spec", [
    dataclasses.field(default_factory=list), dataclasses.field(default=0, init=False)],
    ids=["default_factory", "defaulted_init_false"])
def test_record_refuses_a_field_its_init_cannot_fill(spec):
    with pytest.raises(TypeError, match="^Refused: _record takes no default_factory "
                                        "and no init=False field with a default$"):
        @model._record
        class Refused:
            value: int = spec
