"""Golden outputs: the exact stdout, stderr and exit code of every command.

The seed KB runs every command in both of its output formats, and once more
for each scenario option: a ``--profile-file`` (``golden/extra_profiles.json``,
whose profiles shadow or extend the KB's), repeated ``--element``,
``--thresholds``, the ``diff`` scenario options, an empty ``--out`` or
``--profile-file`` (not given), and moca's own exit-2 messages. The broken KB
under ``golden/broken_kb`` (a syntax error, dangling references, a
rule-target-kind warning and a manifest mismatch) runs ``validate`` and
``evaluate``. The synthetic KB under ``golden/synthetic_kb`` (Hofstede and
CVM metrics, an artifact, flag, metric and two-term conditions, rules of
both levels and signs, several rules in one cell, and a profile with a
missing metric and a MEDIUM value) runs every command in both formats.
Paths inside the broken KB are written as ``<KB>``, other paths inside
``golden/`` as ``<GOLDEN>``.

``golden/parse_errors.json`` holds the exact line, column, message and
expected tokens of every syntax error for the criterion-6 mutations of the
seed rule file and for the malformed lines of ``test_dsl.py``.

To regenerate after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import moca.cli
from moca.cli import main
from moca.dsl import parse_errors
from moca.kb import seed_dir, seed_kb_paths

from test_acceptance import _MUTATIONS
from test_dsl import MALFORMED_LINES

GOLDEN = Path(__file__).resolve().parent / "golden"
BROKEN_KB = GOLDEN / "broken_kb"
SYNTHETIC_KB = GOLDEN / "synthetic_kb"
EXTRA_PROFILES = str(GOLDEN / "extra_profiles.json")

_SCENARIO = ("--profile", "strong_hierarchy")
_SEED = {
    "validate": ("validate",),
    "evaluate": ("evaluate", *_SCENARIO, "--flag", "manager_attends_meeting"),
    "explain": ("explain", "H6"),
    "diff": ("diff", *_SCENARIO, "--flag-b", "manager_attends_meeting"),
}
CASES = {f"seed_{name}": (*argv, "--kb", str(seed_dir()))
         for name, argv in _SEED.items()}
CASES.update({f"{name}_json": (*argv, "--format", "json")
              for name, argv in list(CASES.items())})
CASES["seed_matrix_csv"] = ("matrix", "--kb", str(seed_dir()))
CASES["seed_matrix_json"] = ("matrix", "--kb", str(seed_dir()), "--format", "json")
for _command in ("validate", "evaluate"):
    CASES[f"broken_{_command}"] = (_command, "--kb", str(BROKEN_KB))
    CASES[f"broken_{_command}_json"] = (_command, "--kb", str(BROKEN_KB),
                                        "--format", "json")

_SEED_OPTIONS = {
    "profile_file": ("evaluate", "--profile-file", EXTRA_PROFILES,
                     "--profile", "remote_startup", "--element", "review_meeting",
                     "--element", "planning_meeting", "--thresholds", "20,80"),
    "profile_file_shadows": ("evaluate", "--profile-file", EXTRA_PROFILES,
                             "--profile", "strong_hierarchy",
                             "--flag", "manager_attends_meeting"),
    "diff_profiles": ("diff", "--profile-a", "strong_hierarchy",
                      "--profile-b", "flat_hierarchy",
                      "--flag-a", "manager_attends_meeting", "--all"),
    "diff_profile_file": ("diff", "--profile", "remote_startup",
                          "--profile-file", EXTRA_PROFILES,
                          "--flag-b", "manager_attends_meeting"),
    "explain_h4": ("explain", "H4"),
    "empty_out": ("explain", "H5", "--out", ""),
    "empty_profile_file": ("evaluate", *_SCENARIO, "--profile-file", "",
                           "--element", "daily_meeting"),
    "ambiguous_profile": ("evaluate",),
    "unknown_profile": ("evaluate", "--profile", "nope"),
    "unknown_profile_file_profile": ("diff", "--profile-file", EXTRA_PROFILES,
                                     "--profile-a", "remote_startup",
                                     "--profile-b", "nope"),
    "unknown_element": ("evaluate", *_SCENARIO, "--element", "ghost"),
    "unknown_rule": ("explain", "Z9"),
}
for _name, _argv in _SEED_OPTIONS.items():
    CASES[f"seed_{_name}"] = (*_argv, "--kb", str(seed_dir()))
CASES["seed_diff_profiles_json"] = (*CASES["seed_diff_profiles"], "--format", "json")

_SYNTHETIC = {
    "validate": ("validate",),
    "evaluate": ("evaluate", "--profile", "partial_team"),
    "explain": ("explain", "S3"),
    "diff": ("diff", "--profile-a", "partial_team", "--profile-b", "full_team",
             "--flag", "remote_team"),
    "matrix": ("matrix",),
}
for _name, _argv in _SYNTHETIC.items():
    CASES[f"synthetic_{_name}"] = (*_argv, "--kb", str(SYNTHETIC_KB))
    CASES[f"synthetic_{_name}_json"] = (*_argv, "--kb", str(SYNTHETIC_KB),
                                        "--format", "json")


def run_case(argv) -> tuple[int, str, str]:
    """Run the CLI in-process; paths under ``golden/`` are normalized."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (code,) + tuple(
        stream.getvalue().replace(str(BROKEN_KB), "<KB>").replace(str(GOLDEN), "<GOLDEN>")
        for stream in (out, err))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out, err = run_case(CASES[case])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[case]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
    assert err.encode("utf-8") == (GOLDEN / f"{case}.err").read_bytes()


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("case", ["seed_validate", "seed_validate_json", "seed_matrix_json",
                                  "synthetic_validate_json"])
def test_golden_output_in_small_slices(case, size, monkeypatch):
    """At the real slice size these outputs fit in one slice; small slices
    make them cross many slice boundaries."""
    monkeypatch.setattr(moca.cli, "_SLICE", size)
    test_golden_output(case)


def parse_error_rows() -> dict:
    """Every pinned syntax error as [line, column, message, expected]."""
    def rows(source):
        return [[e.line, e.column, e.message, list(e.expected)]
                for e in parse_errors(source)]

    seed = next(p for p in seed_kb_paths() if p.suffix == ".moca").read_text()
    return {"mutations": {label: rows(mutate(seed)) for label, mutate in _MUTATIONS},
            "lines": {source: rows(source) for source, _ in MALFORMED_LINES}}


def test_parse_errors_golden():
    golden = json.loads((GOLDEN / "parse_errors.json").read_text(encoding="utf-8"))
    assert parse_error_rows() == golden


def regenerate():
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out, err = run_case(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{case}.err").write_bytes(err.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (GOLDEN / "parse_errors.json").write_text(
        json.dumps(parse_error_rows(), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    regenerate()
