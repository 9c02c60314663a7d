"""Domain model: cultural metrics, agile elements, and signed impact rules.

Two catalogs meet here. Cultural metrics are measurable characteristics of
a team's context, scored 0..100 between two named poles (national-culture
metrics and organizational-culture metrics). Agile elements are the units
an agile way of working is assembled from: practices, roles, artifacts,
techniques, and tools.

An impact rule links the two: it states that a HIGH or LOW value of one
metric helps or hurts one element, optionally gated by a precondition.
Rules are authored in stated-level + sign form and normalized internally
to a single polarity, so the inverse effect at the opposite level is
derived rather than written down twice.

The value types here and in ``kb``, ``engine`` and ``dsl`` are immutable
slotted dataclasses built by ``_record``: assigning or deleting an attribute
raises ``dataclasses.FrozenInstanceError``, and instances carry no
``__dict__``. moca builds them by the tens of thousands (rules, findings,
matrix entries), so their constructor stores fields through the slot
descriptors. A copy or a pickle calls the constructor again.
"""

from __future__ import annotations

import functools
import gc
import re
import threading
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence

METRIC_ID_RE = re.compile(r"[A-Z][A-Z0-9_]*\Z")
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
IDENT_RE = re.compile(_IDENT + r"\Z")

#: Default level thresholds (t_low, t_high): value <= t_low is LOW,
#: value >= t_high is HIGH, anything between is MEDIUM.
DEFAULT_THRESHOLDS = (33, 67)


_pause_lock = threading.Lock()
_pause_depth = 0
_resume_collector = False


def _gc_paused(func):
    """Run func with Python's cyclic garbage collector paused, then restore
    the collector's previous state. moca's results are large and hold no
    reference cycles, so reference counting frees them; pausing only spares
    the collector's repeated walks over them while they are built.

    The pause is shared by all threads: the first paused call in records
    the collector's state and disables it, the last one out restores it."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        global _pause_depth, _resume_collector
        with _pause_lock:
            if _pause_depth == 0:
                _resume_collector = gc.isenabled()
                gc.disable()
            _pause_depth += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _pause_lock:
                _pause_depth -= 1
                if _pause_depth == 0 and _resume_collector:
                    gc.enable()
    return paused


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(record):
    """Copy or pickle a record as a call to its constructor, which re-runs its
    checks and derives its init=False fields; a read-only mapping goes as a dict."""
    values = (getattr(record, name) for name in record.__match_args__)
    return type(record), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


def _record(cls=None, *, unchecked=False):
    """dataclass(slots=True) with field-tuple equality and hashing, made
    immutable here: assigning or deleting any attribute raises
    FrozenInstanceError, and _reduce copies and pickles it.

    The __init__ is generated here, with the parameters, defaults and
    annotations the dataclass's own would have; it stores each field
    through its slot descriptor, then calls __post_init__ if the class has
    one. A default_factory or a defaulted init=False field would need code
    here to fill it, so either is refused. unchecked=True adds cls._unchecked(*every
    field) for fields already proven: it stores them all, calling no __post_init__."""
    if cls is None:
        return functools.partial(_record, unchecked=unchecked)
    cls = dataclass(slots=True, init=False, unsafe_hash=True)(cls)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__reduce__ = _reduce
    if any(f.default_factory is not MISSING or not (f.init or f.default is MISSING)
           for f in fields(cls)):
        raise TypeError(f"{cls.__name__}: _record takes no default_factory "
                        "and no init=False field with a default")
    params = [f for f in fields(cls) if f.init]
    namespace = {f"_set_{f.name}": getattr(cls, f.name).__set__ for f in fields(cls)}
    namespace.update({f"_default_{f.name}": f.default for f in params if f.default is not MISSING})
    signature = "".join(f", {f.name}" if f.default is MISSING else f", {f.name}=_default_{f.name}"
                        for f in params)
    def stores(group):
        return "".join(f"\n    _set_{f.name}(self, {f.name})" for f in group)
    body = stores(params)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(f"def __init__(self{signature}):{body}", namespace)
    init = namespace["__init__"]
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    if unchecked:  # generated only where used: each exec costs start-up time
        exec(f"def _unchecked(cls{''.join(f', {f.name}' for f in fields(cls))}):\n"
             f"    self = object.__new__(cls){stores(fields(cls))}\n    return self", namespace)
        cls._unchecked = classmethod(namespace["_unchecked"])
    return cls


class MocaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(MocaError):
    """An evaluation setting (e.g. level thresholds) is invalid."""


class UnknownEntityError(MocaError):
    """A lookup named an entity the knowledge base does not declare."""

    def __init__(self, kind: str, entity_id: str):
        super().__init__(f"unknown {kind} '{entity_id}'")
        self.kind = kind
        self.entity_id = entity_id


class CultureLevel(Enum):
    """Whether a metric describes a national or an organizational culture."""

    NATIONAL = "national"
    ORGANIZATIONAL = "organizational"


class MetricSource(Enum):
    """Catalog a metric comes from: Hofstede dimensions or the CVM."""

    HOFSTEDE = "hofstede"
    CVM = "cvm"


#: Metrics from each source sit on a fixed culture level.
SOURCE_LEVELS = {
    MetricSource.HOFSTEDE: CultureLevel.NATIONAL,
    MetricSource.CVM: CultureLevel.ORGANIZATIONAL,
}


class Level(Enum):
    """Discretized metric value: LOW, MEDIUM or HIGH (see level_of)."""

    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class ElementKind(Enum):
    PRACTICE = "practice"
    ROLE = "role"
    ARTIFACT = "artifact"
    TECHNIQUE = "technique"
    TOOL = "tool"


#: Element kinds that take part in the impact matrix (rows x columns
#: accounting); other kinds may appear in the taxonomy but are not counted.
MATRIX_KINDS = frozenset({ElementKind.PRACTICE, ElementKind.ROLE})


class ImpactSign(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


# Read for every rule built: a module global is read several times faster
# than a member through its enum class.
_MEDIUM, _HIGH, _POSITIVE = Level.MEDIUM, Level.HIGH, ImpactSign.POSITIVE


def _polarity(stated_level: Level, sign: ImpactSign) -> int:
    return 1 if (stated_level is _HIGH) == (sign is _POSITIVE) else -1


def check_metric_value(value: object, *, context: str = "metric value") -> int:
    """Validate a 0..100 metric value; bools are rejected."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{context} must be an integer, got {value!r}")
    if not 0 <= value <= 100:
        raise ValueError(f"{context} must be in [0, 100], got {value}")
    return value


def check_thresholds(thresholds: Sequence[int]) -> tuple[int, int]:
    """Validate a (t_low, t_high) pair with 0 < t_low < t_high < 100."""
    try:
        t_low, t_high = thresholds
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"thresholds must be a (low, high) pair, got {thresholds!r}"
        ) from None
    for t in (t_low, t_high):
        if not isinstance(t, int) or isinstance(t, bool):
            raise ConfigurationError(f"thresholds must be integers, got {thresholds!r}")
    if not 0 < t_low < t_high < 100:
        raise ConfigurationError(
            f"thresholds must satisfy 0 < low < high < 100, got ({t_low}, {t_high})"
        )
    return (t_low, t_high)


@_record
class CulturalMetric:
    """One measurable cultural characteristic with a 0..100 scale."""

    id: str
    name: str
    level: CultureLevel
    low_pole: str
    high_pole: str
    source: MetricSource

    def __post_init__(self):
        if not METRIC_ID_RE.match(self.id):
            raise ValueError(
                f"metric id must match [A-Z][A-Z0-9_]*, got {self.id!r}"
            )
        if SOURCE_LEVELS[self.source] is not self.level:
            raise ValueError(
                f"metric {self.id}: {self.source.value} metrics are "
                f"{SOURCE_LEVELS[self.source].value}, not {self.level.value}"
            )


@_record
class CulturalProfile:
    """Measured metric values for one team or context.

    The map may be partial: rules over missing metrics are reported as
    indeterminate during evaluation, never silently treated as neutral.
    """

    name: str
    values: Mapping[str, int]

    def __post_init__(self):
        values = dict(self.values)
        for metric_id, value in values.items():
            check_metric_value(value, context=f"profile {self.name!r} value for {metric_id}")
        object.__setattr__(self, "values", MappingProxyType(values))


@_record
class AgileElement:
    """A node of the agile-elements taxonomy."""

    id: str
    name: str
    kind: ElementKind
    category: str | None = None
    source_methods: tuple[str, ...] = ()

    def __post_init__(self):
        if not IDENT_RE.match(self.id):
            raise ValueError(f"element id must be an identifier, got {self.id!r}")
        if self.kind is ElementKind.PRACTICE and not self.category:
            raise ValueError(f"practice {self.id} must declare a category")
        object.__setattr__(self, "source_methods", tuple(self.source_methods))


@_record
class ContextFlag:
    """Condition term satisfied when the named flag is set for the run."""

    flag: str

    def __post_init__(self):
        if not IDENT_RE.match(self.flag):
            raise ValueError(f"flag must be an identifier, got {self.flag!r}")


@_record
class MetricPredicate:
    """Condition term satisfied when a metric's level matches LOW or HIGH.

    A predicate over a missing metric is unsatisfied (conservative gating),
    and MEDIUM never matches.
    """

    metric: str
    level: Level

    def __post_init__(self):
        if not IDENT_RE.match(self.metric):
            raise ValueError(f"metric reference must be an identifier, got {self.metric!r}")
        if self.level is Level.MEDIUM:
            raise ValueError("metric predicates may only test LOW or HIGH")


ConditionTerm = ContextFlag | MetricPredicate


@_record
class ImpactCondition:
    """Named precondition: a conjunction of one or more terms."""

    id: str
    description: str
    terms: tuple[ConditionTerm, ...]

    def __post_init__(self):
        if not IDENT_RE.match(self.id):
            raise ValueError(f"condition id must be an identifier, got {self.id!r}")
        terms = tuple(self.terms)
        if not terms:
            raise ValueError(f"condition {self.id} must have at least one term")
        object.__setattr__(self, "terms", terms)


@_record(unchecked=True)
class ImpactRule:
    """One causal relation from a metric level to an agile element.

    ``polarity`` is derived at construction, so it is a field that is not
    an ``__init__`` parameter and takes no part in ``repr``, equality or
    hashing: +1 exactly when the stated level and the sign agree
    (HIGH+POSITIVE or LOW+NEGATIVE), else -1. The relationship inverts at the
    opposite level, so the two authorable forms of one relation share one
    polarity.
    """

    id: str
    title: str
    metric: str
    stated_level: Level
    sign: ImpactSign
    element: str
    condition: str | None = None
    rationale: str = ""
    polarity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for label, value in (("rule id", self.id), ("metric", self.metric),
                             ("element", self.element)):
            if not IDENT_RE.match(value):
                raise ValueError(f"{label} must be an identifier, got {value!r}")
        if self.condition is not None and not IDENT_RE.match(self.condition):
            raise ValueError(f"condition reference must be an identifier, got {self.condition!r}")
        if self.stated_level is _MEDIUM:
            raise ValueError(f"rule {self.id}: stated level must be LOW or HIGH")
        object.__setattr__(self, "polarity", _polarity(self.stated_level, self.sign))


@_record
class NormalizedRule:
    """Rule reduced to a single polarity.

    polarity +1 means the element benefits as the metric rises; -1 means
    it suffers. The stated-level + sign form and its inverse collapse to
    the same polarity.
    """

    rule_id: str
    metric: str
    polarity: int
    condition: str | None
    element: str

    def __post_init__(self):
        if self.polarity not in (1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity!r}")


def level_of(value: int, thresholds: Sequence[int] = DEFAULT_THRESHOLDS) -> Level:
    """Discretize a 0..100 value into LOW, MEDIUM, or HIGH.

    Boundaries are inclusive: value <= t_low is LOW, value >= t_high is HIGH.
    """
    t_low, t_high = check_thresholds(thresholds)
    check_metric_value(value)
    if value <= t_low:
        return Level.LOW
    if value >= t_high:
        return Level.HIGH
    return Level.MEDIUM


def normalize(rule: ImpactRule) -> NormalizedRule:
    """Reduce a rule to its polarity (see ImpactRule)."""
    return NormalizedRule(
        rule_id=rule.id,
        metric=rule.metric,
        polarity=rule.polarity,
        condition=rule.condition,
        element=rule.element,
    )
