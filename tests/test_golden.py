"""Golden outputs: the exact stdout, stderr and exit code of every command.

The seed KB runs every command in both of its output formats; the broken KB
under ``golden/broken_kb`` (a syntax error, dangling references, a
rule-target-kind warning and a manifest mismatch) runs ``validate`` and
``evaluate``. Paths inside the broken KB are written as ``<KB>``.

To regenerate after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from moca.cli import main
from moca.kb import seed_dir

GOLDEN = Path(__file__).resolve().parent / "golden"
BROKEN_KB = GOLDEN / "broken_kb"

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


def run_case(argv) -> tuple[int, str, str]:
    """Run the CLI in-process; the KB directory path is normalized."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return (code,) + tuple(stream.getvalue().replace(str(BROKEN_KB), "<KB>")
                           for stream in (out, err))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out, err = run_case(CASES[case])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[case]
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
    assert err.encode("utf-8") == (GOLDEN / f"{case}.err").read_bytes()


def regenerate():
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out, err = run_case(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode("utf-8"))
        (GOLDEN / f"{case}.err").write_bytes(err.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
