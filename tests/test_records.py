"""The value-type contract: moca's result and entity records are immutable,
slotted dataclasses whose constructors behave like dataclass(frozen=True)'s."""

import copy
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

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


def test_knowledge_base_is_a_record_with_a_dict(seed_kb):
    """KnowledgeBase keeps an instance __dict__ for its indexes and cached
    views, and weak references, with the equality, hash and repr of the
    dataclass(frozen=True) it was."""
    assert seed_kb.rules_for("daily_meeting") and "_rules_by_element" in vars(seed_kb)
    assert weakref.ref(seed_kb)() is seed_kb
    init_args = {name: getattr(seed_kb, name) for name in kb.KnowledgeBase.__match_args__}
    reference = _reference(kb.KnowledgeBase)
    assert repr(seed_kb) == repr(reference(**init_args))
    assert seed_kb == kb.KnowledgeBase(**init_args) and seed_kb != reference(**init_args)
    assert hash(kb.KnowledgeBase()) == hash(reference())
    with pytest.raises(dataclasses.FrozenInstanceError):
        seed_kb.rules = ()


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


def test_record_refuses_a_defaulted_init_false_field_spec():
    with pytest.raises(TypeError, match="^Refused: _record takes no default_factory "
                                        "and no init=False field with a default$"):
        @model._record
        class Refused:
            value: int = model._field(0, init=False)


@model._record
class _Pair:
    left: object
    right: object = None


@model._record
class _OtherPair:
    left: object
    right: object = None


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_repr_of_a_record_inside_itself(cls):
    a = SAMPLES[cls]()
    init_args = {f.name: getattr(a, f.name) for f in dataclasses.fields(cls) if f.init}
    b = _reference(cls)(**init_args)
    name = next(f.name for f in dataclasses.fields(cls) if f.repr)
    for record in (a, b):
        object.__setattr__(record, name, [record])
    assert f"{name}=[...]" in repr(a)
    assert repr(a) == repr(b)


def test_records_of_another_class_are_unequal():
    a = _Pair(1, 2)
    assert a.__eq__(object()) is NotImplemented
    assert a.__eq__(_OtherPair(1, 2)) is NotImplemented
    assert a != _OtherPair(1, 2) and a != (1, 2) and a == _Pair(1, 2)


def test_nan_fields_compare_as_field_tuples():
    nan, reference_pair = float("nan"), _reference(_Pair)
    a, reference = _Pair(nan), reference_pair(nan)
    assert (a == a) is (reference == reference) is True
    assert (a == _Pair(float("nan"))) is (reference == reference_pair(float("nan"))) is False
    # Two records sharing one NaN object are equal, as their field tuples are;
    # so is Python 3.10-3.12's dataclass, while 3.13's compares field by field.
    assert (a == _Pair(nan)) is ((nan, None) == (nan, None)) is True


@pytest.mark.parametrize("cls", [cls for cls in SAMPLES if cls not in UNHASHABLE],
                         ids=lambda cls: cls.__name__)
def test_hash_is_the_reference_hash(cls):
    a = SAMPLES[cls]()
    init_args = {f.name: getattr(a, f.name) for f in dataclasses.fields(cls) if f.init}
    assert hash(a) == hash(_reference(cls)(**init_args))


def _as_dict(value):
    """What dataclasses.asdict makes of a record, read from its annotations."""
    if isinstance(value, tuple):
        return tuple(map(_as_dict, value))
    if type(value) in SAMPLES or type(value) in CACHED:
        return {name: _as_dict(getattr(value, name)) for name in type(value).__annotations__}
    return value


def _check_introspection():
    """The dataclasses view of every sample record and of a KnowledgeBase: the
    fields a _reference dataclass reads back, which are the fields the record's
    __init__, repr and equality act on; replace and asdict; and the params of
    dataclass(slots=True, init=False, eq=False, repr=False)."""
    params = repr(dataclasses.dataclass(slots=True, init=False, eq=False, repr=False)(
        type("Plain", (), {})).__dataclass_params__)
    attrs = ("name", "type", "default", "init", "repr", "compare", "hash")
    for cls, make in [*SAMPLES.items(), (kb.KnowledgeBase, kb.KnowledgeBase)]:
        a = make()
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(a), cls
        assert repr(cls.__dataclass_params__) == params, cls
        fields = dataclasses.fields(a)
        assert [[getattr(f, attr) for attr in attrs] for f in fields] == [
            [getattr(f, attr) for attr in attrs] for f in dataclasses.fields(_reference(cls))]
        assert [f.name for f in fields] == list(cls.__annotations__)
        defaults = {name: dataclasses.MISSING if p.default is p.empty else p.default
                    for name, p in inspect.signature(cls).parameters.items()}
        assert {f.name: f.default for f in fields if f.init} == defaults, cls
        assert tuple(f.name for f in fields if f.repr) == cls._shown_fields
        assert tuple(f.name for f in fields if f.compare) == cls._compared_fields
        init_args = {f.name: getattr(a, f.name) for f in fields if f.init}
        assert dataclasses.replace(a) == a == dataclasses.replace(a, **init_args)
        if hasattr(copy, "replace"):  # Python 3.13
            assert copy.replace(a, **init_args) == a
        if cls not in UNHASHABLE:  # asdict deep-copies fields, and no mapping proxy copies
            assert dataclasses.asdict(a) == _as_dict(a), cls


def test_introspection_is_made_on_first_use():
    """In a fresh interpreter that builds every record before it imports
    dataclasses, the dataclasses view is whole: it is made when first read.
    -S keeps out site hooks, which might import dataclasses first."""
    path = [Path(model.__file__).parents[1], Path(__file__).parent,
            Path(pytest.__file__).parents[1]]
    script = ("import sys; from moca import dsl, engine, kb, model; "
              "assert 'dataclasses' not in sys.modules; "
              "import test_records; test_records._check_introspection()")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    child = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_factory_record_is_the_constructor_record(cls):
    """cls._unchecked(*every field) makes the record the public constructor makes
    from the same fields, and its copies are the constructor record's copies."""
    public = SAMPLES[cls]()
    made = cls._unchecked(*(getattr(public, name) for name in cls.__slots__))
    pairs = [(made, public), *((copier(made), copier(public)) for copier in COPIERS.values())]
    for record, expected in pairs:
        assert type(record) is cls and not hasattr(record, "__dict__")
        assert record == expected and repr(record) == repr(expected)
        if cls not in UNHASHABLE:
            assert hash(record) == hash(expected)
        for name in cls.__slots__:
            assert getattr(record, name) == getattr(expected, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(expected, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)


def test_records_from_the_factory_paths_are_constructor_records(seed_kb):
    """The rules, findings, matrix entries, contributions, assessments and diffs
    that parse, validate_completeness, export_matrix, evaluate and diff build
    through the factories equal the records their public constructors build."""
    ctx = EvaluationContext(seed_kb.profile("strong_hierarchy"), {"manager_attends_meeting"})
    assessments = engine.evaluate(seed_kb, ctx)
    other = EvaluationContext(seed_kb.profile("flat_hierarchy"), set())
    made = [*seed_kb.rules, *kb.validate_completeness(seed_kb).findings, *assessments,
            *engine.diff(seed_kb, ctx, other),
            *(c for a in assessments for c in a.contributions),
            *(e for entries in engine.export_matrix(seed_kb).cells.values() for e in entries)]
    assert {type(record) for record in made} == {
        ImpactRule, Finding, Assessment, Contribution, MatrixEntry, ElementDiff}
    for record in made:
        cls = type(record)
        public = cls(*(getattr(record, name) for name in cls.__match_args__))
        assert record == public and repr(record) == repr(public) and hash(record) == hash(public)
        assert all(getattr(record, name) == getattr(public, name) for name in cls.__slots__)


_FACTORIES_AFTER = """\
import json, sys
import moca.cli
from moca import dsl, engine, kb, model
argv = json.loads(sys.argv[1])
if argv:
    assert moca.cli.main(argv) == 0
records = {obj for module in (model, kb, engine, dsl) for obj in vars(module).values()
           if isinstance(obj, type) and "_unchecked" in vars(obj)}
built = [cls.__name__ for cls in records
         if not isinstance(vars(cls)["_unchecked"], model._Unchecked)]
print(json.dumps([sorted(built), sorted(cls.__name__ for cls in records)]))
"""


@pytest.mark.parametrize("argv,built", [
    ([], []),
    (["explain", "H6"], ["ImpactRule"]),
    (["validate"], ["Finding", "ImpactRule"]),
    (["matrix"], ["ImpactRule", "MatrixEntry"]),
    (["evaluate", "--profile", "strong_hierarchy"], ["Assessment", "Contribution", "ImpactRule"]),
    (["diff", "--profile-a", "strong_hierarchy", "--profile-b", "flat_hierarchy"],
     ["ElementDiff", "ImpactRule"]),
], ids=["import", "explain", "validate", "matrix", "evaluate", "diff"])
def test_factories_are_made_on_first_use(argv, built):
    """Importing moca.cli builds no factory, and a command builds only those of
    the records it makes through one. Every record but KnowledgeBase has one."""
    path = Path(model.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(path)}
    env.pop("MOCA_KB_PATH", None)
    child = subprocess.run([sys.executable, "-S", "-c", _FACTORIES_AFTER, json.dumps(argv)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    made, records = json.loads(child.stdout.splitlines()[-1])
    assert made == built
    assert records == sorted(cls.__name__ for cls in SAMPLES)
