"""moca's public surface: the names in `moca.__all__`, each imported from
its module the first time it is used."""

import json
import os
import subprocess
import sys
from pathlib import Path

import moca

#: `moca.__all__` without "__version__", in its order, with the module that
#: defines each name.
PUBLIC = {
    "AgileElement": "model", "Assessment": "engine", "Comment": "dsl",
    "ConditionStatus": "engine", "ConditionTerm": "model",
    "ConfigurationError": "model", "ContextFlag": "model", "Contribution": "engine",
    "CulturalMetric": "model", "CulturalProfile": "model", "CultureLevel": "model",
    "DEFAULT_THRESHOLDS": "model", "ElementDiff": "engine", "ElementKind": "model",
    "EvaluationContext": "engine", "ExpectedCounts": "kb", "Finding": "kb",
    "ImpactCondition": "model", "ImpactLabel": "engine", "ImpactRule": "model",
    "ImpactSign": "model", "KnowledgeBase": "kb", "KnowledgeBaseError": "kb",
    "Level": "model", "LoadResult": "kb", "MATRIX_KINDS": "model",
    "MatrixEntry": "engine", "MatrixExport": "engine", "MetricPredicate": "model",
    "MetricSource": "model", "MocaError": "model", "NormalizedRule": "model",
    "ParseError": "dsl", "RuleDocument": "dsl", "RuleSyntaxError": "dsl",
    "Severity": "kb", "UnknownEntityError": "model", "ValidationReport": "kb",
    "diff": "engine", "evaluate": "engine", "evaluate_element": "engine",
    "export_matrix": "engine", "label_for": "engine", "level_of": "model", "load": "kb",
    "load_kb": "kb", "load_profiles": "kb", "normalize": "model", "parse": "dsl",
    "seed_dir": "kb", "seed_kb_paths": "kb", "serialize": "dsl",
    "validate_completeness": "kb",
}

#: Run in a fresh interpreter, so that every name takes the lazy path.
_PROBE = """
import json, sys
import moca
public = json.loads(sys.argv[1])
assert not [m for m in sys.modules if m.startswith("moca.")], "import moca loaded a submodule"
assert moca.engine is sys.modules["moca.engine"]
assert moca.__all__ == [*public, "__version__"], moca.__all__
star = {}
exec("from moca import *", star)
for name, module in public.items():
    assert star[name] is getattr(sys.modules["moca." + module], name) is getattr(moca, name), name
assert star["__version__"] == moca.__version__
assert set(moca.__all__) <= set(dir(moca)) and {"model", "dsl", "kb", "engine"} <= set(dir(moca))
try:
    moca.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("moca.no_such_name resolved")
"""


def test_public_names_resolve_lazily_to_their_defining_modules():
    env = {**os.environ, "PYTHONPATH": str(Path(moca.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(PUBLIC)], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
