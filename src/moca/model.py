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

The value types here and in ``kb``, ``engine`` and ``dsl`` are immutable slotted
records built by ``_record``: assigning or deleting an attribute raises
``dataclasses.FrozenInstanceError``, and instances carry no ``__dict__``. Their
constructor checks its fields, and a copy or a pickle calls it again. moca builds
them by the tens of thousands (rules, findings, matrix entries), so code whose fields
are proven calls a record's ``_unchecked`` factory instead, made on first use: it fills
a layout twin (the record's slots, no ``__setattr__``) with plain stores, then gives it
the record's class. They share one ``__eq__``, ``__hash__`` and ``__repr__``.
No command imports ``dataclasses`` (nor ``inspect``, which it imports): ``_record``
builds each class itself, and makes its dataclasses view only when that is first read.
"""

from __future__ import annotations

import functools
import gc
import re
import reprlib
import sys
import threading
from collections.abc import Mapping, Sequence
from enum import Enum
from types import MappingProxyType

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
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(record):
    """Copy or pickle a record as a call to its constructor, which re-runs its
    checks and derives its init=False fields; a read-only mapping goes as a dict."""
    values = (getattr(record, name) for name in record.__match_args__)
    return type(record), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


def _compared(record):
    return tuple([getattr(record, name) for name in record._compared_fields])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _compared(self) == _compared(other)
    return NotImplemented


def _hash(self):
    return hash(_compared(self))


@reprlib.recursive_repr()  # the guard dataclasses copies: "..." for a record inside itself
def _repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown_fields])
    return f"{self.__class__.__qualname__}({shown})"


def _replace(self, /, **changes):  # copy.replace (Python 3.13) of a record
    from dataclasses import replace
    return replace(self, **changes)


_MISSING = object()


class _field:
    """A record field's spec, written in a record body where dataclasses.field would be."""

    def __init__(self, default=_MISSING, *, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare


class _Introspected:
    """A record class's __dataclass_fields__ or __dataclass_params__, made when either is first
    read: those of dataclass(slots=True, init=False, eq=False, repr=False) of the same fields."""

    def __init__(self, name, specs):
        self.name, self.specs = name, specs

    def __get__(self, record, cls):
        from dataclasses import MISSING, dataclass, field
        shadow = {name: field(default=MISSING if spec.default is _MISSING else spec.default,
                              init=spec.init, repr=spec.repr, compare=spec.compare)
                  for name, spec in self.specs.items()}
        shadow.update(__annotations__=cls.__annotations__, __module__=cls.__module__)
        shadow = dataclass(slots=True, init=False, eq=False, repr=False)(
            type(cls.__name__, (), shadow))
        cls.__dataclass_fields__ = shadow.__dataclass_fields__
        cls.__dataclass_params__ = shadow.__dataclass_params__
        return getattr(cls, self.name)


class _Unchecked:
    """A record class's _unchecked(*every field), made on first read: it fills a layout
    twin, a plain class with the record's __slots__ and no __setattr__, with plain stores
    (which CPython 3.11+ specializes), then gives it the record class. It runs no check
    and no __post_init__, so it is for fields already proven."""

    def __get__(self, record, cls):
        slots = cls.__slots__
        namespace = {"_cls": cls, "_twin": type(cls.__name__, (), {"__slots__": slots})}
        exec(f"def _unchecked({', '.join(slots)}):\n    self = _twin()"
             + "".join(f"\n    self.{name} = {name}" for name in slots)
             + "\n    self.__class__ = _cls\n    return self", namespace)
        factory = namespace["_unchecked"]
        factory.__module__, factory.__qualname__ = cls.__module__, f"{cls.__qualname__}._unchecked"
        cls._unchecked = staticmethod(factory)
        return factory


def _record(cls):
    """cls rebuilt with slots for the fields its annotations declare, in order (a _field
    spec sets init, repr and compare) and any the body's __slots__ names. Assigning or
    deleting any attribute raises FrozenInstanceError, and _reduce copies and pickles it.
    The shared _eq, _hash and _repr act as dataclass(frozen=True)'s do. is_dataclass,
    fields, replace and asdict read the _Introspected view, which imports dataclasses.

    The generated __init__ has the parameters, defaults and annotations the dataclass's
    own would have; it stores each field through its slot descriptor, then calls
    __post_init__ if the class has one. A defaulted init=False field, or a dataclasses.field,
    would need code here to fill it, so both are refused. A class whose body names no
    __slots__ gets the _Unchecked factory; KnowledgeBase, whose body names __dict__, has none."""
    body, specs = cls.__dict__, {}
    dataclass_field = getattr(sys.modules.get("dataclasses"), "Field", ())
    for name in body.get("__annotations__", {}):
        spec = body.get(name, _MISSING)
        spec = spec if isinstance(spec, (_field, dataclass_field)) else _field(spec)
        if not isinstance(spec, _field) or not (spec.init or spec.default is _MISSING):
            raise TypeError(f"{cls.__name__}: _record takes no default_factory "
                            "and no init=False field with a default")
        specs[name] = spec
    params = [name for name, spec in specs.items() if spec.init]
    namespace = {key: value for key, value in body.items()
                 if key not in specs and key not in ("__dict__", "__weakref__")}
    if "__slots__" not in body:
        namespace["_unchecked"] = _Unchecked()
    namespace.update(
        __slots__=(*specs, *body.get("__slots__", ())), __match_args__=tuple(params),
        __qualname__=cls.__qualname__, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
        __reduce__=_reduce, __eq__=_eq, __hash__=_hash, __repr__=_repr, __replace__=_replace,
        __dataclass_fields__=_Introspected("__dataclass_fields__", specs),
        __dataclass_params__=_Introspected("__dataclass_params__", specs),
        _compared_fields=tuple(name for name, spec in specs.items() if spec.compare),
        _shown_fields=tuple(name for name, spec in specs.items() if spec.repr))
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in specs}
    namespace.update({f"_default_{name}": specs[name].default for name in params
                      if specs[name].default is not _MISSING})
    signature = "".join(f", {name}" if specs[name].default is _MISSING
                        else f", {name}=_default_{name}" for name in params)
    code = "".join(f"\n    _set_{name}(self, {name})" for name in params)
    if hasattr(cls, "__post_init__"):
        code += "\n    self.__post_init__()"
    exec(f"def __init__(self{signature}):{code}", namespace)
    init = namespace["__init__"]
    init.__annotations__ = {**{name: cls.__annotations__[name] for name in params}, "return": None}
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    cls.__init__ = init
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


# Read per rule or element: a module global is several times faster than a member read
# through its enum class, and a tuple tests membership without Enum.__hash__.
_MEDIUM, _HIGH, _POSITIVE = Level.MEDIUM, Level.HIGH, ImpactSign.POSITIVE
_PRACTICE, _ROLE, _MATRIX_KINDS = ElementKind.PRACTICE, ElementKind.ROLE, tuple(MATRIX_KINDS)


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
        if self.kind is _PRACTICE and not self.category:
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


@_record
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
    polarity: int = _field(init=False, repr=False, compare=False)

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
