import csv
import io
import json
import os
import shutil
import stat
from pathlib import Path

import pytest

from moca.cli import main
from moca.kb import seed_dir

from util import write_kb


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("MOCA_KB_PATH", raising=False)


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


EVAL_ARGS = ("evaluate", "--profile", "strong_hierarchy")


class TestValidate:
    def test_seed_kb_is_valid(self, run):
        code, out, _ = run("validate")
        assert code == 0
        assert "matrix domain: 384 cells" in out
        assert "manifest: counts confirmed" in out
        assert "result: 0 error(s), 381 warning(s)" in out

    def test_dangling_reference_exits_1(self, run, tmp_path):
        paths = write_kb(tmp_path, rules="RULE R1: HIGH PDI IMPACTS ghost POSITIVE\n")
        code, out, _ = run("validate", *(f"--kb={p}" for p in paths))
        assert code == 1
        assert "error dangling-element" in out
        assert out.count("error ") == 1

    def test_unreadable_file_exits_2(self, run, tmp_path):
        code, out, _ = run("validate", "--kb", str(tmp_path / "missing.json"))
        assert code == 2
        assert "io-error" in out

    def test_json_format(self, run):
        code, out, _ = run("validate", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["summary"]["matrix_cells"] == 384
        assert payload["summary"]["practices"] == 38
        assert payload["summary"]["roles"] == 10
        assert len(payload["findings"]) == 381

    def test_kb_directory_argument(self, run):
        code, out, _ = run("validate", "--kb", str(seed_dir()))
        assert code == 0
        assert "matrix domain: 384 cells" in out


class TestUnreadableRuleFile:
    def test_invalid_utf8_is_a_syntax_error(self, run, tmp_path):
        write_kb(tmp_path)
        (tmp_path / "rules.moca").write_bytes(
            b"RULE R1: HIGH PDI IMPACTS daily_meeting NEGATIVE\n# caf\xff\n")
        code, out, _ = run("validate", "--kb", str(tmp_path))
        assert code == 1
        assert "error syntax-error: column 6: not valid UTF-8" in out
        assert "rules.moca:2)" in out
        code, _, err = run("evaluate", "--kb", str(tmp_path))
        assert code == 1
        assert "syntax-error" in err
        assert "Traceback" not in err

    def test_read_failure_is_an_io_error(self, run, tmp_path, monkeypatch):
        write_kb(tmp_path)
        read_text = Path.read_text

        def failing_read_text(path, *args, **kwargs):
            if path.suffix == ".moca":
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)
        code, _, err = run("evaluate", "--kb", str(tmp_path))
        assert code == 2
        assert "error io-error: cannot read" in err
        assert "Permission denied" in err
        assert "Traceback" not in err


class TestEvaluate:
    def test_flagged_evaluation_text(self, run):
        code, out, _ = run(*EVAL_ARGS, "--flag", "manager_attends_meeting")
        assert code == 0
        assert "daily_meeting: negative (H6)" in out
        assert "review_meeting: negative (H5)" in out
        assert "planning_meeting: positive (H4)" in out

    def test_unflagged_evaluation_gates(self, run):
        code, out, _ = run(*EVAL_ARGS)
        assert code == 0
        assert "daily_meeting: neutral" in out
        assert "gated: H6 (IC1 not satisfied)" in out
        assert "gated: H5 (IC1 not satisfied)" in out

    def test_rationale_shown_for_fired_rules(self, run):
        _, out, _ = run(*EVAL_ARGS, "--flag", "manager_attends_meeting")
        assert "fired: H6 -1 [HIGH PDI]" in out
        assert "steep hierarchies discourage" in out

    def test_json_round_trips_and_mirrors_assessment_fields(self, run):
        code, out, _ = run(*EVAL_ARGS, "--flag", "manager_attends_meeting",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 48
        by_element = {a["element"]: a for a in payload}
        daily = by_element["daily_meeting"]
        assert set(daily) == {"element", "contributions", "score", "label",
                              "indeterminate_rules", "gated_rules"}
        assert daily["score"] == -1
        assert daily["label"] == "negative"
        assert daily["contributions"] == [{
            "rule_id": "H6", "value": -1, "fired_level": "high",
            "condition_status": "satisfied"}]

    def test_unknown_profile_exits_2(self, run):
        code, _, err = run("evaluate", "--profile", "nope")
        assert code == 2
        assert "unknown profile 'nope'" in err

    def test_ambiguous_profile_exits_2(self, run):
        code, _, err = run("evaluate")
        assert code == 2
        assert "--profile is required" in err

    def test_profile_file_overrides(self, run, tmp_path):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps(
            [{"name": "custom", "values": {"UAI": 90}}]))
        code, out, _ = run("evaluate", "--profile", "custom",
                           "--profile-file", str(profile_file),
                           "--element", "planning_meeting")
        assert code == 0
        assert "planning_meeting: positive (H4)" in out

    def test_unreadable_profile_file_exits_2(self, run, tmp_path, monkeypatch):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text("[]")
        read_text = Path.read_text

        def failing_read_text(path, *args, **kwargs):
            if path == profile_file:
                raise OSError(5, "Input/output error", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)
        code, _, err = run(*EVAL_ARGS, "--profile-file", str(profile_file))
        assert code == 2
        assert "error: cannot read" in err
        assert "Input/output error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["kb", "profile-file"])
    def test_deeply_nested_json_is_invalid_json(self, run, tmp_path, where):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        if where == "kb":
            code, out, _ = run("validate", "--kb", str(deep))
            assert code == 1
            assert "error invalid-json: nesting is too deep to decode" in out
        else:
            code, _, err = run(*EVAL_ARGS, "--profile-file", str(deep))
            assert code == 2
            assert err == "error: nesting is too deep to decode\n"

    def test_profile_file_with_unknown_metric_exits_2(self, run, tmp_path):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps(
            [{"name": "custom", "values": {"ZZZ": 90}}]))
        code, _, err = run("evaluate", "--profile", "custom",
                           "--profile-file", str(profile_file))
        assert code == 2
        assert "ZZZ" in err

    def test_element_selection(self, run):
        code, out, _ = run(*EVAL_ARGS, "--element", "daily_meeting",
                           "--element", "coach")
        assert code == 0
        assert out.splitlines()[0].startswith("coach:")
        assert "planning_meeting" not in out

    def test_unknown_element_exits_2(self, run):
        code, _, err = run(*EVAL_ARGS, "--element", "ghost")
        assert code == 2
        assert "unknown element" in err

    def test_invalid_kb_reports_to_stderr_and_exits_1(self, run, tmp_path):
        paths = write_kb(tmp_path, rules="RULE R1: HIGH ZZZ IMPACTS daily_meeting POSITIVE\n")
        code, _, err = run("evaluate", "--profile", "p",
                           *(f"--kb={p}" for p in paths))
        assert code == 1
        assert "dangling-metric" in err

    def test_csv_format_rejected(self, run):
        code, _, err = run(*EVAL_ARGS, "--format", "csv")
        assert code == 2
        assert "invalid choice" in err

    @pytest.mark.parametrize("bad", ["67,33", "0,50", "40,140", "a,b", "50"])
    def test_bad_thresholds_exit_2(self, run, bad):
        code, _, err = run(*EVAL_ARGS, "--thresholds", bad)
        assert code == 2
        assert "LOW,HIGH" in err

    def test_thresholds_change_banding(self, run):
        # UAI 75 is HIGH at 33,67 but MEDIUM at 74,76
        code, out, _ = run(*EVAL_ARGS, "--thresholds", "74,76",
                           "--element", "planning_meeting")
        assert code == 0
        assert "planning_meeting: neutral" in out

    def test_deterministic_output(self, run):
        args = EVAL_ARGS + ("--flag", "manager_attends_meeting", "--format", "json")
        assert run(*args) == run(*args)

    def test_out_writes_file(self, run, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(*EVAL_ARGS, "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())
        assert list(tmp_path.iterdir()) == [target]

    def test_out_keeps_the_mode_of_a_replaced_file(self, run, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        for target in (fresh, existing):
            assert run("matrix", "--out", str(target))[0] == 0
            assert target.read_text().startswith("metric,")
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(existing.stat().st_mode) == 0o640
        assert sorted(tmp_path.iterdir()) == [existing, fresh]

    def test_out_writes_into_a_fifo_in_place(self, run, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # A non-blocking reader lets the writer open the FIFO without a thread;
        # the explain output fits in the pipe buffer.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run("explain", "H6", "--out", str(fifo))
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert (code, out, err) == (0, "", "")
        assert received == run("explain", "H6")[1]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


class TestExplain:
    def test_h4_has_no_precondition(self, run):
        code, out, _ = run("explain", "H4")
        assert code == 0
        assert "No precondition" in out
        assert "HIGH(UAI) ->(+) planning_meeting" in out

    def test_h5_shows_condition(self, run):
        code, out, _ = run("explain", "H5")
        assert code == 0
        assert "IC1" in out
        assert "manager attends the meeting" in out
        assert "HIGH(MAS) ->(-) review_meeting" in out
        assert "FLAG manager_attends_meeting" in out

    def test_unknown_rule_exits_2(self, run):
        code, _, err = run("explain", "Z9")
        assert code == 2
        assert "unknown rule 'Z9'" in err

    def test_json(self, run):
        _, out, _ = run("explain", "H6", "--format", "json")
        payload = json.loads(out)
        assert payload["id"] == "H6"
        assert payload["stated_level"] == "high"
        assert payload["sign"] == "negative"
        assert payload["condition"]["id"] == "IC1"


class TestMatrix:
    def test_csv_cells_and_shape(self, run):
        code, out, _ = run("matrix")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert header[0] == "metric"
        assert len(header) == 49  # label column + 48 elements
        assert len(data) == 8
        assert all(len(row) == 49 for row in data)
        grid = {row[0]: dict(zip(header[1:], row[1:])) for row in data}
        assert grid["PDI"]["daily_meeting"] == "H6:HIGH:NEGATIVE@IC1"
        assert grid["MAS"]["review_meeting"] == "H5:HIGH:NEGATIVE@IC1"
        assert grid["UAI"]["planning_meeting"] == "H4:HIGH:POSITIVE"
        assert grid["PDI"]["coach"] == ""

    def test_empty_rule_kb_keeps_shape(self, run, tmp_path):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        (kb_dir / "rules.moca").write_text("# no rules yet\n")
        code, out, _ = run("matrix", "--kb", str(kb_dir))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(cell == "" for row in rows[1:] for cell in row[1:])

    def test_json_format(self, run):
        _, out, _ = run("matrix", "--format", "json")
        payload = json.loads(out)
        assert payload["cells"]["PDI"]["daily_meeting"] == [{
            "rule_id": "H6", "stated_level": "high", "sign": "negative",
            "condition": "IC1"}]
        cell_count = sum(len(cols) for cols in payload["cells"].values())
        assert cell_count == 384

    def test_text_format_rejected(self, run):
        code, _, err = run("matrix", "--format", "text")
        assert code == 2
        assert "invalid choice" in err


class TestDiff:
    def test_flag_toggle(self, run):
        code, out, _ = run("diff", "--profile", "strong_hierarchy",
                           "--flag-b", "manager_attends_meeting")
        assert code == 0
        assert "daily_meeting: +0 -> -1 (delta -1) rules: H6" in out
        assert "review_meeting: +0 -> -1 (delta -1) rules: H5" in out
        assert "planning_meeting" not in out  # unchanged

    def test_identical_scenarios(self, run):
        code, out, _ = run("diff", "--profile", "strong_hierarchy")
        assert code == 0
        assert out == "no differences\n"

    def test_all_shows_unchanged(self, run):
        _, out, _ = run("diff", "--profile", "strong_hierarchy", "--all")
        assert len(out.splitlines()) == 48

    def test_profile_swing(self, run):
        code, out, _ = run("diff",
                           "--profile-a", "strong_hierarchy",
                           "--profile-b", "flat_hierarchy",
                           "--flag", "manager_attends_meeting",
                           "--element", "daily_meeting")
        assert code == 0
        assert "daily_meeting: -1 -> +1 (delta +2) rules: H6" in out

    def test_json(self, run):
        _, out, _ = run("diff", "--profile", "strong_hierarchy",
                        "--flag-b", "manager_attends_meeting", "--format", "json")
        payload = json.loads(out)
        daily = next(d for d in payload if d["element"] == "daily_meeting")
        assert daily == {"element": "daily_meeting", "score_a": 0, "score_b": -1,
                         "delta": -1, "rules_changed": ["H6"]}


class TestKbResolution:
    def test_env_search_path(self, run, monkeypatch, tmp_path):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        monkeypatch.setenv("MOCA_KB_PATH", str(kb_dir))
        code, out, _ = run("validate")
        assert code == 0
        assert "matrix domain: 384 cells" in out

    def test_explicit_kb_beats_env(self, run, monkeypatch, tmp_path):
        monkeypatch.setenv("MOCA_KB_PATH", str(tmp_path / "nowhere"))
        code, _, _ = run("validate", "--kb", str(seed_dir()))
        assert code == 0

    def test_inputs_never_mutated(self, run, tmp_path):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        before = {p.name: p.read_bytes() for p in sorted(kb_dir.iterdir())}
        run("validate", "--kb", str(kb_dir))
        run("evaluate", "--kb", str(kb_dir), "--profile", "strong_hierarchy",
            "--flag", "manager_attends_meeting")
        run("matrix", "--kb", str(kb_dir))
        run("explain", "H6", "--kb", str(kb_dir))
        after = {p.name: p.read_bytes() for p in sorted(kb_dir.iterdir())}
        assert after == before

    def test_out_never_overwrites_an_input(self, run, tmp_path):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps([{"name": "custom", "values": {"UAI": 90}}]))
        inputs = sorted(kb_dir.iterdir()) + [profile_file]
        before = [p.read_bytes() for p in inputs]
        for argv in (
            ("matrix", "--out", str(kb_dir / "rules.moca")),
            ("validate", "--out", str(kb_dir / "." / "metrics.json")),
            ("evaluate", "--profile", "custom", "--profile-file", str(profile_file),
             "--out", str(profile_file)),
        ):
            code, out, err = run(*argv, "--kb", str(kb_dir))
            assert code == 2
            assert out == ""
            assert "is an input of this command" in err
            assert "Traceback" not in err
        assert [p.read_bytes() for p in inputs] == before

    def test_out_into_missing_directory_exits_2(self, run, tmp_path):
        target = tmp_path / "missing" / "matrix.csv"
        code, out, err = run("matrix", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write '{target}'")
        assert not target.parent.exists()

    def test_help_exits_0(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "validate" in out
