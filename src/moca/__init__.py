"""moca: a rule-based engine for assessing cultural impact on agile elements.

The package joins a catalog of cultural metrics (0..100 scales between two
named poles) with a taxonomy of agile elements, and evaluates authorable,
optionally condition-gated impact rules against a team's cultural profile.
Results are qualitative per-element assessments with full explanation
traces, what-if diffs, and a full-matrix export.

Each public name is imported from its module on first use (PEP 562), so
importing the package, or a command that needs no engine, loads no more
than it uses.
"""

#: Each public name, by the submodule that defines it.
_EXPORTS = {
    "model": (
        "AgileElement", "ConditionTerm", "ConfigurationError", "ContextFlag",
        "CulturalMetric", "CulturalProfile", "CultureLevel", "DEFAULT_THRESHOLDS",
        "ElementKind", "ImpactCondition", "ImpactRule", "ImpactSign", "Level",
        "MATRIX_KINDS", "MetricPredicate", "MetricSource", "MocaError",
        "NormalizedRule", "UnknownEntityError", "level_of", "normalize"),
    "dsl": ("Comment", "ParseError", "RuleDocument", "RuleSyntaxError", "parse", "serialize"),
    "kb": (
        "ExpectedCounts", "Finding", "KnowledgeBase", "KnowledgeBaseError",
        "LoadResult", "Severity", "ValidationReport", "load", "load_kb",
        "load_profiles", "seed_dir", "seed_kb_paths", "validate_completeness"),
    "engine": (
        "Assessment", "ConditionStatus", "Contribution", "ElementDiff",
        "EvaluationContext", "ImpactLabel", "MatrixEntry", "MatrixExport", "diff",
        "evaluate", "evaluate_element", "export_matrix", "label_for"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    """A public name or a submodule, imported the first time it is asked for."""
    if name in _EXPORTS:  # -X importtime logs __import__, not importlib.import_module
        return __import__(f"{__name__}.{name}", fromlist=["*"])
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value  # later uses find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
