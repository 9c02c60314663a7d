import argparse
import atexit
import contextlib
import csv
import dataclasses
import enum
import errno
import io
import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import unittest.mock
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import moca
from moca import engine, kb as kb_mod
from moca.cli import (_assessment_layouts, _blocks, _diff_layouts, _json_list, _matrix_csv,
                      _matrix_json, _validate_json, main)
from moca.kb import Finding, KnowledgeBase, Severity, seed_dir
from moca.model import (AgileElement, ContextFlag, CulturalMetric, CultureLevel, ElementKind,
                        ImpactCondition, ImpactRule, ImpactSign, Level, MetricSource)

from strategies import knowledge_bases
from util import MIN_ELEMENTS, MIN_METRICS, write_kb


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


def run_strict(*argv, encoding="utf-8"):
    """main() with stdout a strict stream in `encoding` and stderr a strict
    UTF-8 one, as a real stdout is strict: a StringIO would hide encode errors."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding=name) for name in (encoding, "utf-8"))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    for stream in (out, err):
        stream.flush()
    return (code, out.buffer.getvalue().decode(encoding), err.buffer.getvalue().decode("utf-8"))


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

    def test_only_profile_needs_no_name(self, run, tmp_path):
        shutil.copytree(seed_dir(), tmp_path, dirs_exist_ok=True)
        (tmp_path / "profiles.json").write_text(json.dumps(
            [{"name": "custom", "values": {"UAI": 90}}]))
        argv = ("evaluate", "--kb", str(tmp_path), "--element", "planning_meeting")
        code, out, err = run(*argv)
        assert (code, err) == (0, "")
        assert out.startswith("planning_meeting: positive (H4)\n")
        assert run(*argv, "--profile", "custom") == (code, out, err)

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
            assert err == f"error: nesting is too deep to decode ({deep})\n"

    @pytest.mark.parametrize("where", ["kb", "profile-file"])
    def test_lone_surrogate_is_invalid_json(self, run, tmp_path, where):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        profiles = kb_dir / "profiles.json"
        profiles.write_text('[{"name": "b\\ud800d", "values": {"ZZZ": 50}}]')
        message = "invalid-json: a string decodes to a lone surrogate"
        if where == "kb":
            report = tmp_path / "report.txt"
            code, out, err = run("validate", "--kb", str(kb_dir), "--out", str(report))
            assert (code, out, err) == (1, "", "")
            assert f"error {message} ({profiles})" in report.read_text()
            code, out, err = run(*EVAL_ARGS, "--kb", str(kb_dir))
            assert code == 1
            assert f"error {message} ({profiles})" in err
        else:
            code, out, err = run(*EVAL_ARGS, "--profile-file", str(profiles))
            assert code == 2
            assert err == f"error: a string decodes to a lone surrogate ({profiles})\n"
        assert out == ""
        assert "Traceback" not in err

    def test_broken_profile_file_names_its_location(self, run, tmp_path):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text('[\n{"name": "custom", ')
        code, out, err = run(*EVAL_ARGS, "--profile-file", str(profile_file))
        assert (code, out) == (2, "")
        assert err == ("error: Expecting property name enclosed in double quotes "
                       f"({profile_file}:2)\n")

    def test_manifest_as_profile_file_exits_2(self, run):
        manifest = seed_dir() / "manifest.json"
        code, out, err = run(*EVAL_ARGS, "--profile-file", str(manifest))
        assert (code, out) == (2, "")
        assert err == f"error: expected only profiles, found a manifest ({manifest})\n"

    def test_profile_file_is_read_once(self, run, tmp_path, monkeypatch):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps([{"name": "custom", "values": {"PDI": 90}}]))
        reads = []
        load_profiles = kb_mod.load_profiles

        def counting_load_profiles(path):
            reads.append(path)
            return load_profiles(path)

        monkeypatch.setattr(kb_mod, "load_profiles", counting_load_profiles)
        code, _, _ = run("diff", "--profile-file", str(profile_file),
                         "--profile-a", "custom", "--profile-b", "strong_hierarchy")
        assert code == 0
        assert reads == [profile_file]

    def test_profile_file_with_unknown_metric_exits_2(self, run, tmp_path):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps(
            [{"name": "custom", "values": {"ZZZ": 90}}]))
        assert run("evaluate", "--profile", "custom", "--profile-file", str(profile_file)) == (
            2, "", f"error: profile 'custom' references unknown metric 'ZZZ' ({profile_file})\n")

    def test_profile_file_names_every_unknown_metric_in_file_order(self, run, tmp_path):
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps([{"name": "b", "values": {"PDI": 10, "ZZZ": 90}},
                                            {"name": "a", "values": {"YYY": 50}}]))
        assert run("evaluate", "--profile", "a", "--profile-file", str(profile_file)) == (
            2, "", f"error: profile 'b' references unknown metric 'ZZZ' ({profile_file}); "
                   f"profile 'a' references unknown metric 'YYY' ({profile_file})\n")

    def test_profile_file_with_a_duplicate_name_exits_2(self, run, tmp_path):
        """As a KB with two profiles of one name is refused: the later does not win."""
        profile_file = tmp_path / "extra.json"
        profile_file.write_text(json.dumps([{"name": "p", "values": {"PDI": 10}},
                                            {"name": "p", "values": {"PDI": 90}}]))
        assert run("evaluate", "--profile", "p", "--profile-file", str(profile_file)) == (
            2, "", f"error: duplicate profile id 'p' ({profile_file})\n")

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

    @pytest.mark.parametrize("bad", ["67,33", "0,50", "40,140", "a,b", "50", "1,2,3", ","])
    def test_bad_thresholds_exit_2(self, run, bad):
        code, _, err = run(*EVAL_ARGS, "--thresholds", bad)
        assert code == 2
        assert "LOW,HIGH" in err
        assert "unpack" not in err and "literal" not in err

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

    @settings(max_examples=100, deadline=None)
    @given(kb=knowledge_bases())
    @example(kb=KnowledgeBase(
        metrics=(CulturalMetric("PDI", "Power", CultureLevel.NATIONAL, "low", "high",
                                MetricSource.HOFSTEDE),),
        elements=(AgileElement("coach", "Coach", ElementKind.ROLE),),
        conditions=(ImpactCondition("C1", "c", (ContextFlag("f"),)),),
        rules=(ImpactRule("R2", "", "PDI", Level.LOW, ImpactSign.POSITIVE, "coach", "C1"),
               ImpactRule("R1", "", "PDI", Level.HIGH, ImpactSign.NEGATIVE, "coach"))))
    def test_csv_needs_no_quoting(self, kb):
        """The joined rows equal the csv module's rendering of the same rows,
        each cell's tokens spelled here from the rules' public enum names."""
        matrix = engine.export_matrix(kb)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["metric", *matrix.elements])
        for metric_id in matrix.metrics:
            writer.writerow([metric_id, *(
                ";".join(f"{r.id}:{r.stated_level.name}:{r.sign.name}"
                         + ("" if r.condition is None else f"@{r.condition}")
                         for r in sorted(kb.rules, key=lambda r: r.id)
                         if (r.metric, r.element) == (metric_id, element))
                for element in matrix.elements)])
        assert "".join(_blocks(_matrix_csv(matrix))) == buffer.getvalue()


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

    @pytest.mark.parametrize("option", ["--profile-a", "--profile-b"])
    def test_empty_scenario_profile_exits_2(self, run, option):
        """An empty scenario profile names no profile, as an empty --profile
        does; it does not fall back to --profile."""
        code, out, err = run("diff", "--profile", "strong_hierarchy", option, "")
        assert (code, out) == (2, "")
        assert "unknown profile ''" in err

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

    def test_empty_kb_counts_as_not_given(self, run, monkeypatch, tmp_path):
        # an empty --kb must not read the current directory
        (tmp_path / "broken.moca").write_text("RULE broken\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        plain = run("validate")
        assert plain[0] == 0 and "matrix domain: 384 cells" in plain[1]
        assert run("validate", "--kb", "") == plain
        assert run("validate", "--kb", "", "--kb", str(seed_dir())) == plain

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
        assert run("matrix", "--out", str(target)) == (
            2, "", f"error: cannot write '{target}': No such file or directory\n")
        assert not target.parent.exists()

    def test_out_under_a_file_exits_2(self, run, tmp_path):
        """The message names --out and the reason, not the temporary file beside it."""
        (tmp_path / "FILE").write_text("kept")
        target = tmp_path / "FILE" / "matrix.csv"
        assert run("matrix", "--out", str(target)) == (
            2, "", f"error: cannot write '{target}': Not a directory\n")
        assert (tmp_path / "FILE").read_text() == "kept"

    @pytest.mark.parametrize("route", ["kb", "env"])
    def test_unstatable_kb_path_is_an_io_error(self, run, monkeypatch, tmp_path, route):
        too_long = str(tmp_path / ("x" * 5000))
        if route == "kb":
            code, out, err = run("validate", "--kb", too_long)
        else:
            monkeypatch.setenv("MOCA_KB_PATH", too_long)
            code, out, err = run("validate")
        assert code == 2
        assert "error io-error: cannot read" in out
        assert "File name too long" in out
        assert err == ""

    def test_help_exits_0(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "validate" in out


def _run_child(*argv, stdout, buffered, stderr=subprocess.PIPE, preexec_fn=None,
               site_dir=None):
    """`moca ARGV` in a child interpreter; returns its exit code and stderr (None
    when stderr is not a pipe to this process).

    Its stdout is block-buffered, as a pipe or file is when PYTHONUNBUFFERED
    is unset, or unbuffered; site_dir, if given, is put first on its path."""
    src = str(Path(moca.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": f"{site_dir}{os.pathsep}{src}" if site_dir else src}
    env.pop("MOCA_KB_PATH", None)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.run([sys.executable, "-m", "moca.cli", *argv], stdout=stdout,
                           stderr=stderr, env=env, preexec_fn=preexec_fn, timeout=120)
    return child.returncode, None if child.stderr is None else child.stderr.decode()


#: Each child test runs its command both ways: a test host may set
#: PYTHONUNBUFFERED or not, and the output must not depend on it.
BUFFERING = (True, False)
CANNOT_WRITE = "error: cannot write standard output"


class TestOutputFailure:
    """A stdout that cannot be written, or an interrupt, ends in an exit code
    and at most one stderr line, never a traceback."""

    def test_reader_closed_early(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            ends = [_run_child(*EVAL_ARGS, stdout=write_end, buffered=b) for b in BUFFERING]
        finally:
            os.close(write_end)
        assert ends == [(2, f"{CANNOT_WRITE}: {os.strerror(errno.EPIPE)}\n")] * 2

    @pytest.mark.parametrize("argv", [("--help",), ("explain", "--help")])
    def test_help_left_in_the_buffer_for_a_closed_pipe(self, argv):
        """Help goes through the one stdout writer, whose flush reports the
        broken pipe as every other stdout failure is."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = _run_child(*argv, stdout=write_end, buffered=True)
        finally:
            os.close(write_end)
        assert (code, err) == (2, f"{CANNOT_WRITE}: {os.strerror(errno.EPIPE)}\n")

    @pytest.mark.parametrize("argv", [("--help",), ("explain", "--help")])
    def test_unbuffered_help_into_a_closed_pipe(self, argv):
        """argparse drops a failed write of its own; help goes through the one
        stdout writer instead, and ends as every other stdout failure does."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = _run_child(*argv, stdout=write_end, buffered=False)
        finally:
            os.close(write_end)
        assert (code, err) == (2, f"{CANNOT_WRITE}: {os.strerror(errno.EPIPE)}\n")

    def test_failed_usage_write_to_stderr_is_dropped(self, run, monkeypatch, tmp_path):
        """Also on Python 3.10, whose argparse lets that write's OSError raise; so
        are a KB's findings. A closed stderr (None) never sends them to stdout."""
        class BrokenStderr(io.StringIO):
            def write(self, text):
                raise OSError(errno.EPIPE, os.strerror(errno.EPIPE))

        for stderr in (BrokenStderr(), None):
            monkeypatch.setattr(sys, "stderr", stderr)
            assert run("no-such-command")[:2] == (2, "")
            assert run("evaluate", "--profile", "p", "--kb", str(tmp_path / "missing"))[:2] == (
                2, "")

    @pytest.mark.parametrize("stderr", ["reader closed", "descriptor closed"])
    def test_stderr_that_cannot_be_written(self, tmp_path, stderr):
        """What goes to stderr is dropped, never sent to stdout; the exit code stays."""
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        write_kb(kb_dir, rules="RULE R1: HIGH ZZZ IMPACTS daily_meeting POSITIVE\n")
        read_end, write_end = os.pipe()
        os.close(read_end)
        where = ({"stderr": write_end} if stderr == "reader closed"
                 else {"stderr": None, "preexec_fn": lambda: os.close(2)})
        out = tmp_path / "stdout.txt"
        ends = []
        try:
            for argv in ((*EVAL_ARGS, "--kb", str(tmp_path / "missing")),
                         (*EVAL_ARGS, "--kb", str(kb_dir)), ("explain", "NOPE")):
                for buffered in BUFFERING:
                    with out.open("wb") as handle:
                        code, _ = _run_child(*argv, stdout=handle, buffered=buffered, **where)
                    ends.append((code, out.read_bytes()))
        finally:
            os.close(write_end)
        assert ends == [(2, b"")] * 2 + [(1, b"")] * 2 + [(2, b"")] * 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            ends = [_run_child("validate", stdout=full, buffered=b) for b in BUFFERING]
        assert ends == [(2, f"{CANNOT_WRITE}: {os.strerror(errno.ENOSPC)}\n")] * 2

    def test_closed_stdout(self):
        ends = [_run_child(*argv, stdout=None, buffered=b, preexec_fn=lambda: os.close(1))
                for argv in (("validate",), ("--help",), ("explain", "--help"))
                for b in BUFFERING]
        assert ends == [(2, f"{CANNOT_WRITE}: it is closed\n")] * 6

    def test_stdout_encoding_that_cannot_hold_a_kb_character(self, monkeypatch, tmp_path):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        rules = kb_dir / "rules.moca"
        rules.write_text(rules.read_text(encoding="utf-8").replace(
            'BECAUSE "steep hierarchies', 'BECAUSE "caf\u00e9: steep hierarchies'),
            encoding="utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        for buffered in BUFFERING:
            code, err = _run_child("explain", "H6", "--kb", str(kb_dir),
                                   stdout=subprocess.PIPE, buffered=buffered)
            assert code == 2
            assert err.startswith(
                f"{CANNOT_WRITE}: 'ascii' codec can't encode character '\\xe9'")
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_write_error_in_process(self, run, monkeypatch, tmp_path):
        """The failed stream's descriptor is pointed at os.devnull, so the
        interpreter's final flush cannot fail again."""
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", FullStdout())
        try:
            code, _, err = run(*EVAL_ARGS)
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert (code, err) == (2, f"{CANNOT_WRITE}: {os.strerror(errno.ENOSPC)}\n")

    def test_interrupt_leaves_no_temporary_file(self, run, monkeypatch, tmp_path):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        try:
            code, out, err = run("matrix", "--out", str(tmp_path / "matrix.csv"))
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped main()")
        assert (code, out, err) == (130, "", "")
        assert list(tmp_path.iterdir()) == []

    def test_write_error_after_the_first_chunk(self, run, monkeypatch, tmp_path):
        """What was written before the failure stays; the rest is dropped."""
        monkeypatch.setattr(moca.cli, "_SLICE", 1)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        written = []

        class FullAfterOneWrite(io.StringIO):
            def write(self, text):
                if written:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                written.append(text)

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stdout", FullAfterOneWrite())
        try:
            code, _, err = run("validate")
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert (code, err) == (2, f"{CANNOT_WRITE}: {os.strerror(errno.ENOSPC)}\n")
        assert written == ["metrics: 8\n"]

    @pytest.mark.parametrize("existing", [None, b"kept as it was\n"])
    @pytest.mark.parametrize("argv", [("validate",), ("validate", "--format", "json"),
                                      ("matrix", "--format", "json"),
                                      (*EVAL_ARGS, "--format", "json"),
                                      ("diff", "--profile", "strong_hierarchy",
                                       "--flag-b", "manager_attends_meeting", "--format", "json")])
    def test_interrupt_between_chunks_leaves_out_as_it_was(self, run, monkeypatch, tmp_path,
                                                           argv, existing):
        monkeypatch.setattr(moca.cli, "_SLICE", 1)
        chunks_of = {name: getattr(moca.cli, name)
                     for name in ("_blocks", "_json_list", "_matrix_json", "_validate_json")}
        made, outer = [], []

        def interrupted(name):
            def chunks(*args):
                if outer:  # a wrapped maker called by another runs whole
                    yield from chunks_of[name](*args)
                    return
                outer.append(name)
                pieces = chunks_of[name](*args)
                made.append(next(pieces))
                yield made[-1]
                raise KeyboardInterrupt
            return chunks

        for name in chunks_of:
            monkeypatch.setattr(moca.cli, name, interrupted(name))
        target = tmp_path / "out.txt"
        if existing is not None:
            target.write_bytes(existing)
        code, out, err = run(*argv, "--out", str(target))
        assert (code, out, err, len(made)) == (130, "", "", 1)
        assert list(tmp_path.iterdir()) == ([] if existing is None else [target])
        if existing is not None:
            assert target.read_bytes() == existing


class TestProcessExit:
    """`python -m moca.cli` and the `moca` script end the process with os._exit
    once the atexit handlers have run and the output is flushed; what a child
    leaves is what main() gives in-process."""

    def test_atexit_handler_registered_before_the_cli_runs(self, run, tmp_path):
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit\natexit.register(print, 'atexit handler ran')\n", encoding="utf-8")
        expected = (0, run("explain", "H6")[1] + "atexit handler ran\n", "")
        out = tmp_path / "stdout.txt"
        for buffered in BUFFERING:
            with out.open("wb") as handle:
                code, err = _run_child("explain", "H6", stdout=handle, buffered=buffered,
                                       site_dir=str(tmp_path))
            assert (code, out.read_text(encoding="utf-8"), err) == expected

    @pytest.mark.parametrize("argv,expected", [
        (("explain", "H6"), 0),
        (("validate", "--kb", "{kb}"), 1),
        (("explain", "NO_SUCH_RULE"), 2),
        (("evaluate", "--no-such-option"), 2),
    ])
    def test_exit_code_and_output_are_main_s(self, run, tmp_path, argv, expected):
        kb_dir = tmp_path / "kb"
        kb_dir.mkdir()
        write_kb(kb_dir, rules="RULE R1: HIGH PDI IMPACTS ghost POSITIVE\n")
        argv = [arg.format(kb=kb_dir) for arg in argv]
        in_process = run(*argv)
        assert in_process[0] == expected
        out = tmp_path / "stdout.txt"
        for buffered in BUFFERING:
            with out.open("wb") as handle:
                code, err = _run_child(*argv, stdout=handle, buffered=buffered)
            assert (code, out.read_text(encoding="utf-8"), err) == in_process

    def test_out_file_is_main_s(self, run, tmp_path):
        argv = (*EVAL_ARGS, "--format", "json", "--out")
        reference = tmp_path / "in-process.json"
        assert run(*argv, str(reference)) == (0, "", "")
        child = tmp_path / "child.json"
        for buffered in BUFFERING:
            child.write_text("old\n", encoding="utf-8")
            child.chmod(0o640)
            assert _run_child(*argv, str(child), stdout=subprocess.DEVNULL,
                              buffered=buffered) == (0, "")
            assert child.read_bytes() == reference.read_bytes()
            assert stat.S_IMODE(child.stat().st_mode) == 0o640
            assert sorted(path.name for path in tmp_path.iterdir()) == [child.name,
                                                                        reference.name]

    def test_help_is_the_parser_s(self, monkeypatch, tmp_path):
        """Each parser's --help writes exactly its format_help()."""
        monkeypatch.setenv("COLUMNS", "80")
        parser = moca.cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        out = tmp_path / "stdout.txt"
        for argv, p in [((), parser), *(((name,), p) for name, p in sub.choices.items())]:
            for buffered in BUFFERING:
                with out.open("wb") as handle:
                    ends = _run_child(*argv, "--help", stdout=handle, buffered=buffered)
                assert (ends, out.read_text(encoding="utf-8")) == ((0, ""), p.format_help())

    def test_interrupt_after_main_is_exit_130(self, monkeypatch, capsys):
        """A Ctrl-C while the atexit handlers run or the output is flushed."""
        def interrupt():
            raise KeyboardInterrupt

        ended = []
        monkeypatch.setattr(atexit, "_run_exitfuncs", interrupt)
        monkeypatch.setattr(os, "_exit", ended.append)
        monkeypatch.setattr(sys, "argv", ["moca", "explain", "H6"])
        moca.cli._script()
        assert ended == [130]
        assert capsys.readouterr().err == ""


class TestNonUtf8FileName:
    """A KB file name that is not UTF-8 is shown with \\xNN escapes."""

    @pytest.fixture
    def kb_dir(self, tmp_path):
        kb_dir = tmp_path / "kb"
        shutil.copytree(seed_dir(), kb_dir)
        (kb_dir / os.fsdecode(b"bad\xff.json")).write_text("[1")
        return kb_dir

    def where(self, kb_dir):
        return f"({kb_dir}{os.sep}bad\\xff.json:1)"

    def test_validate(self, kb_dir):
        code, out, err = run_strict("validate", "--kb", str(kb_dir))
        assert (code, err) == (1, "")
        assert f"error invalid-json: Expecting ',' delimiter {self.where(kb_dir)}" in out

    def test_validate_out(self, kb_dir, tmp_path):
        report = tmp_path / "report.txt"
        code, out, err = run_strict("validate", "--kb", str(kb_dir), "--out", str(report))
        assert (code, out, err) == (1, "", "")
        assert self.where(kb_dir) in report.read_text(encoding="utf-8")

    def test_validate_json(self, kb_dir):
        code, out, err = run_strict("validate", "--kb", str(kb_dir), "--format", "json")
        assert (code, err) == (1, "")
        (finding,) = json.loads(out)["findings"]
        assert finding["path"] == f"{kb_dir}{os.sep}bad\\xff.json"

    def test_evaluate(self, kb_dir):
        code, out, err = run_strict(*EVAL_ARGS, "--kb", str(kb_dir))
        assert (code, out) == (1, "")
        assert self.where(kb_dir) in err
        assert "Traceback" not in err


_KB_FILES = ("metrics.json", "elements.json", "profiles.json", "manifest.json", "rules.moca")
_COMMANDS = (
    ("validate",),
    (*EVAL_ARGS, "--flag", "manager_attends_meeting"),
    ("explain", "H6"),
    ("diff", "--profile", "strong_hierarchy", "--flag-b", "manager_attends_meeting"),
    ("matrix",),
)
#: Inserted besides random bytes: JSON and rule-language pieces that random
#: bytes rarely form, such as a lone surrogate escape.
_FRAGMENTS = (b'"', b"\\", b"\\ud800", b'"\\udc00"', b"{", b"[", b",", b":",
              b"null", b"NaN", b"1e999", b"-1", b"RULE", b"\r", b"\xff")


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(_KB_FILES), command=st.sampled_from(_COMMANDS),
       json_format=st.booleans(), position=st.integers(0, 4000),
       cut=st.integers(0, 8),
       junk=st.binary(max_size=8) | st.sampled_from(_FRAGMENTS))
def test_corrupt_kb_file_never_crashes_the_cli(tmp_path, name, command, json_format,
                                               position, cut, junk):
    """Random bytes in any KB file end in exit 0, 1 or 2, never an exception."""
    kb_dir = tmp_path / "kb"
    shutil.copytree(seed_dir(), kb_dir, dirs_exist_ok=True)
    target = kb_dir / name
    data = target.read_bytes()
    at = position % (len(data) + 1)
    target.write_bytes(data[:at] + junk + data[at + cut:])
    formats = ("csv", "json") if command[0] == "matrix" else ("text", "json")
    code, out, err = run_strict(*command, "--kb", str(kb_dir),
                                "--format", formats[json_format])
    assert code in (0, 1, 2)
    if code != 0:
        # validate reports its findings on stdout; the other commands on stderr.
        assert out if command[0] == "validate" else err




#: Per KB: its directory, profiles, some elements and some rules.
_ARGV_KBS = {
    "seed": (seed_dir(), ("strong_hierarchy", "flat_hierarchy", "mid_band"),
             ("daily_meeting", "planning_meeting", "scrum_master"), ("H4", "H6")),
    "synthetic": (Path(__file__).parent / "golden" / "synthetic_kb",
                  ("partial_team", "full_team"),
                  ("daily_standup", "product_backlog", "scrum_master"), ("S1", "S3")),
}
#: Each --thresholds value and the pair it means; None marks a malformed one.
_THRESHOLDS = {"33,67": (33, 67), "10,90": (10, 90), "49,51": (49, 51),
               " 20 , 80 ": (20, 80), "67,33": None, "0,50": None, "50,100": None,
               "50": None, "a,b": None, "-1,50": None}
_FLAGS = ("manager_attends_meeting", "remote_team", "no_such_flag")
_SCENARIO_OPTIONS = ["--profile", "--flag", "--element", "--thresholds"]
_OWN_OPTIONS = {"evaluate": _SCENARIO_OPTIONS,
                "diff": _SCENARIO_OPTIONS + ["--profile-a", "--profile-b", "--flag-a",
                                             "--flag-b", "--all"]}


@st.composite
def _argv_cases(draw):
    """(KB name, command, positionals, options, well-formed). A well-formed
    case uses only the command's own options with known names and valid
    values; any other case draws from the whole vocabulary, with unknown
    names, malformed values and options the command does not take. A None
    value marks an option that takes none."""
    kb_name = draw(st.sampled_from(sorted(_ARGV_KBS)))
    _, profiles, elements, rules = _ARGV_KBS[kb_name]
    command = draw(st.sampled_from(("validate", "evaluate", "explain", "matrix", "diff")))
    values = {"--profile": profiles, "--profile-a": profiles, "--profile-b": profiles,
              "--flag": _FLAGS, "--flag-a": _FLAGS, "--flag-b": _FLAGS,
              "--element": elements, "--all": (None,),
              "--thresholds": tuple(t for t in _THRESHOLDS if _THRESHOLDS[t])}
    well_formed = draw(st.booleans())
    if well_formed:
        names = _OWN_OPTIONS.get(command, [])
    else:
        rules += ("Z9",)
        values.update({"--profile": profiles + ("nobody", ""),
                       "--element": elements + ("ghost",),
                       "--thresholds": tuple(_THRESHOLDS), "--bogus": (None,)})
        names = sorted(values)
    drawn = draw(st.lists(st.sampled_from(names), max_size=5)) if names else []
    options = [(name, draw(st.sampled_from(values[name]))) for name in drawn]
    if command in _OWN_OPTIONS:
        options.insert(0, ("--profile", draw(st.sampled_from(values["--profile"]))))
    positionals = [draw(st.sampled_from(rules))] if command == "explain" else []
    return kb_name, command, positionals, options, well_formed

def _plain(value):
    """A library result as the JSON renderers spell it: enums by value,
    tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _library_payload(kb, command, options):
    """What evaluate or diff returns through the library for the same options:
    a stored option keeps its last value, an appended one every value."""
    def every(*names):
        return [value for option, value in options if option in names]

    def last(name):
        return (every(name) or [None])[-1]

    thresholds = _THRESHOLDS[last("--thresholds") or "33,67"]
    elements = tuple(every("--element")) or None

    def context(profile, *flag_options):
        return engine.EvaluationContext(kb.profile(profile), every(*flag_options),
                                        thresholds, elements)

    if command == "evaluate":
        return _plain(engine.evaluate(kb, context(last("--profile"), "--flag")))

    def scenario(side):
        name = last(f"--profile-{side}")
        return context(last("--profile") if name is None else name, "--flag", f"--flag-{side}")

    diffs = engine.diff(kb, scenario("a"), scenario("b"))
    if not every("--all"):
        diffs = tuple(d for d in diffs if d.delta != 0 or d.rules_changed)
    return _plain(diffs)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argv_cases(), json_format=st.booleans(),
       out=st.sampled_from((None, "", "out.txt")))
def test_any_argv_ends_in_an_exit_code(tmp_path, case, json_format, out):
    """Options drawn from a fixed vocabulary end in exit 0, 1 or 2 without a
    traceback; a well-formed case exits 0, and an exit-0 JSON evaluate or diff
    prints the library's result."""
    kb_name, command, positionals, options, well_formed = case
    kb_dir = _ARGV_KBS[kb_name][0]
    formats = ("csv", "json") if command == "matrix" else ("text", "json")
    argv = [command, *positionals, "--kb", str(kb_dir), "--format", formats[json_format]]
    argv += [name if value is None else f"{name}={value}" for name, value in options]
    out_path = tmp_path / "out.txt"
    out_path.unlink(missing_ok=True)
    if out is not None:
        argv.append(f"--out={out and out_path}")
    code, stdout, stderr = run_strict(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if any(name == "--thresholds" and _THRESHOLDS[value] is None
           for name, value in options):
        assert code == 2
    if code != 0:
        assert not well_formed
        assert stderr
        return
    if out:
        assert stdout == ""
        stdout = out_path.read_text(encoding="utf-8")
    if json_format and command in _OWN_OPTIONS:
        kb = kb_mod.load_kb(kb_mod.expand_kb_path(kb_dir))
        assert json.loads(stdout) == _library_payload(kb, command, options)


#: KB text: what a rule-language string can carry, often non-ASCII or non-BMP.
_KB_TEXT = st.text(st.sampled_from("\u00e9\u20ac\U0001f600\U00010348") | st.characters(
    exclude_characters='"\n\r', exclude_categories=("Cs",)), min_size=1, max_size=12)
_ENCODED_COMMANDS = (("validate",), ("evaluate", "--flag", "remote"), ("explain", "R1"),
                     ("explain", "R2"), ("diff", "--flag-b", "remote"), ("matrix",))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.lists(_KB_TEXT, min_size=9, max_size=9),
       dir_name=st.text(st.sampled_from("\u00e9\U0001f600") | st.characters(
           exclude_characters="/\x00", exclude_categories=("Cs",)), max_size=8),
       command=st.sampled_from(_ENCODED_COMMANDS), json_format=st.booleans(),
       encoding=st.sampled_from(("ascii", "latin-1", "utf-8")))
def test_any_stdout_encoding_ends_in_an_exit_code(tmp_path, text, dir_name, command,
                                                  json_format, encoding):
    """A KB whose strings and path a strict stdout encoding may not hold: every
    command exits 0, or 2 with one error line after the output it could write."""
    kb_dir = Path(tempfile.mkdtemp(dir=tmp_path)) / f"kb{dir_name}"
    kb_dir.mkdir()
    metrics = [{**metric, "name": name} for metric, name in zip(MIN_METRICS, text)]
    elements = [{**element, "name": name} for element, name in zip(MIN_ELEMENTS, text[2:])]
    elements.append({"id": "backlog", "name": text[4], "kind": "artifact"})
    write_kb(kb_dir, metrics, elements, rules=(
        f'CONDITION C1 "{text[5]}": FLAG remote\n'
        f'RULE R1 "{text[6]}": HIGH PDI IMPACTS daily_meeting NEGATIVE BECAUSE "{text[7]}"\n'
        f'RULE R2: IF C1 THEN LOW UAI IMPACTS coach POSITIVE BECAUSE "{text[8]}"\n'
        "RULE R3: HIGH UAI IMPACTS backlog POSITIVE\n"),
        manifest={"metrics": 2, "practices": 1, "roles": 1, "practice_categories": 1},
        profiles=[{"name": text[0], "values": {"PDI": 90, "UAI": 10}}])
    formats = ("csv", "json") if command[0] == "matrix" else ("text", "json")
    argv = (*command, "--kb", str(kb_dir), "--format", formats[json_format])
    expected = run_strict(*argv)
    assert expected[0] == 0
    code, out, err = run_strict(*argv, encoding=encoding)
    if code == 0:
        assert (code, out, err) == expected
    else:
        assert code == 2
        assert err.startswith(f"{CANNOT_WRITE}: '{encoding}' codec can't encode character")
        assert err.count("\n") == 1
        assert expected[1].startswith(out) and len(out) < len(expected[1])


#: The library functions the benchmark's traced run wraps, as module attributes,
#: to time each layer: a command that bypassed one would leave its metric empty.
_TRACED = {"kb": ("load", "validate_completeness"), "dsl": ("parse",),
           "engine": ("evaluate", "diff", "export_matrix")}


@pytest.mark.parametrize("argv,reached", [
    (("validate",), {"kb.load", "dsl.parse", "kb.validate_completeness"}),
    (EVAL_ARGS, {"kb.load", "dsl.parse", "engine.evaluate"}),
    ((*EVAL_ARGS, "--element", "daily_meeting"), {"kb.load", "dsl.parse", "engine.evaluate"}),
    (("explain", "H6"), {"kb.load", "dsl.parse"}),
    (("diff", "--profile", "strong_hierarchy", "--flag-b", "manager_attends_meeting"),
     {"kb.load", "dsl.parse", "engine.diff"}),
    (("matrix",), {"kb.load", "dsl.parse", "engine.export_matrix"}),
])
def test_commands_reach_the_traced_module_attributes(run, monkeypatch, argv, reached):
    calls = []
    for module_name, names in _TRACED.items():
        module = getattr(moca, module_name)
        for name in names:
            def counted(*args, _name=f"{module_name}.{name}",
                        _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    assert run(*argv)[0] == 0
    assert set(calls) == reached


def test_engine_keeps_the_names_whose_calls_the_benchmark_counts():
    assert callable(moca.engine.level_of) and callable(moca.engine.normalize)


# --- JSON rendering -----------------------------------------------------------

def _dumps(value):
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture
def encoder_calls(monkeypatch):
    """The values handed to json.JSONEncoder.iterencode, which json.dumps with
    an indent and any encoder of its own go through."""
    calls = []
    iterencode = json.JSONEncoder.iterencode

    def counting(self, value, *args, **kwargs):
        calls.append(value)
        return iterencode(self, value, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting)
    return calls


def test_validate_json_lays_out_all_findings_in_a_few_encoder_calls(encoder_calls, run):
    """The encoder lays out "valid" and "summary" in a few calls, and no
    finding: a renderer that fell back to a call per finding would still pass
    every golden."""
    code, out, _ = run("validate", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["findings"]) == 381
    assert 0 < len(encoder_calls) <= 10


@pytest.mark.parametrize("argv, records", [
    pytest.param(("evaluate", "--profile", "strong_hierarchy",
                  "--flag", "manager_attends_meeting"), 48, id="evaluate"),
    pytest.param(("diff", "--profile", "strong_hierarchy",
                  "--flag-b", "manager_attends_meeting"), 2, id="diff"),
    pytest.param(("diff", "--profile", "strong_hierarchy", "--all"), 48, id="diff-all"),
])
def test_evaluate_and_diff_json_make_no_encoder_call(encoder_calls, run, argv, records):
    """Every assessment and every diff is laid out by its fixed template: a
    renderer that fell back to the encoder would still pass every golden."""
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == records
    assert encoder_calls == []


@pytest.mark.parametrize("argv, keys", [
    pytest.param(("explain", "H5"), 8, id="explain"),
    pytest.param(("matrix",), 3, id="matrix"),
])
def test_explain_and_matrix_json_make_one_encoder_call(encoder_calls, run, argv, keys):
    """explain's payload and the matrix's ids take one encoder call; every
    matrix row is laid out by its fixed template."""
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == keys
    assert len(encoder_calls) == 1


#: Strings at the edges of JSON escaping: quotes, backslashes, control
#: characters, DEL, U+2028, non-ASCII and non-BMP text, from a fixed alphabet.
_finding_strings = st.text(st.sampled_from(
    'a/"\\\x00\x08\t\n\x0c\r\x1b\x1f\x7f\x85\xa0é\u2028\u2029\ufeff中\U0001f600'), max_size=6)
_findings = st.builds(Finding, st.sampled_from(Severity), _finding_strings, _finding_strings,
                      st.none() | _finding_strings, st.none() | _finding_strings,
                      st.none() | st.integers(-2**70, 2**70))


def _finding_payload(finding):
    return {"severity": finding.severity.value, "code": finding.code,
            "message": finding.message, "entity_id": finding.entity_id,
            "path": finding.path, "line": finding.line}


@settings(max_examples=300, deadline=None)
@given(findings=st.lists(_findings, max_size=7), size=st.integers(1, 3) | st.just(2000))
def test_validate_json_lays_out_any_finding_as_json_dumps(findings, size):
    """The fixed finding layout is json.dumps's, in any chunking."""
    errors = [f for f in findings if f.severity is Severity.ERROR]
    payload = {"valid": not errors, "summary": None,
               "findings": [_finding_payload(f) for f in findings]}
    with unittest.mock.patch.object(moca.cli, "_SLICE", size):
        chunks = list(_validate_json(None, findings, errors))
    assert "".join(chunks) == _dumps(payload)
    assert all(chunks)


@st.composite
def _matrices(draw):
    """Up to 3 x 3 grids of drawn ids, each covered cell holding 1-3 entries."""
    metrics = draw(st.lists(_finding_strings, max_size=3, unique=True))
    elements = draw(st.lists(_finding_strings, max_size=3, unique=True))
    grid = [(m, e) for m in metrics for e in elements]
    entries = st.lists(st.builds(engine.MatrixEntry, _finding_strings, st.sampled_from(Level),
                                 st.sampled_from(ImpactSign), st.none() | _finding_strings),
                       min_size=1, max_size=3).map(tuple)
    cells = draw(st.dictionaries(st.sampled_from(grid), entries) if grid else st.just({}))
    return engine.MatrixExport(tuple(metrics), tuple(elements), cells)


def _matrix_payload(matrix):
    return {"metrics": list(matrix.metrics), "elements": list(matrix.elements), "cells": {
        m: {e: [{"rule_id": entry.rule_id, "stated_level": entry.stated_level.value,
                 "sign": entry.sign.value, "condition": entry.condition}
                for entry in matrix.cells.get((m, e), ())] for e in matrix.elements}
        for m in matrix.metrics}}


@settings(max_examples=300, deadline=None)
@given(matrix=_matrices(), size=st.integers(1, 3) | st.just(2000))
def test_matrix_json_lays_out_any_matrix_as_json_dumps(matrix, size):
    """The fixed row and entry layout is json.dumps's, in any chunking."""
    with unittest.mock.patch.object(moca.cli, "_SLICE", size):
        chunks = list(_matrix_json(matrix))
    assert "".join(chunks) == _dumps(_matrix_payload(matrix))
    assert all(chunks)


_ints = st.integers(-2, 2) | st.integers(-2**70, 2**70)
_id_tuples = st.lists(_finding_strings, max_size=3).map(tuple)
_contributions = st.builds(engine.Contribution, _finding_strings, _ints, st.sampled_from(Level),
                           st.sampled_from(engine.ConditionStatus))
_assessments = st.builds(engine.Assessment, _finding_strings,
                         st.lists(_contributions, max_size=3).map(tuple), _ints,
                         st.sampled_from(engine.ImpactLabel), _id_tuples, _id_tuples)
_element_diffs = st.builds(engine.ElementDiff, _finding_strings, _ints, _ints, _ints, _id_tuples)


def _assessment_payload(a):
    return {"element": a.element,
            "contributions": [{"rule_id": c.rule_id, "value": c.value,
                               "fired_level": c.fired_level.value,
                               "condition_status": c.condition_status.value}
                              for c in a.contributions],
            "score": a.score, "label": a.label.value,
            "indeterminate_rules": list(a.indeterminate_rules),
            "gated_rules": list(a.gated_rules)}


def _diff_payload(d):
    return {"element": d.element, "score_a": d.score_a, "score_b": d.score_b,
            "delta": d.delta, "rules_changed": list(d.rules_changed)}


@settings(max_examples=300, deadline=None)
@given(assessments=st.lists(_assessments, max_size=5), diffs=st.lists(_element_diffs, max_size=5),
       size=st.integers(1, 3) | st.just(2000))
def test_evaluate_and_diff_json_lay_out_any_record_as_json_dumps(assessments, diffs, size):
    """The fixed assessment and diff layouts are json.dumps's, in any chunking."""
    with unittest.mock.patch.object(moca.cli, "_SLICE", size):
        for records, lay_out, payload in ((assessments, _assessment_layouts, _assessment_payload),
                                          (diffs, _diff_layouts, _diff_payload)):
            chunks = list(_json_list(records, lay_out))
            assert "".join(chunks) == _dumps([payload(r) for r in records])
            assert all(chunks)


@pytest.mark.parametrize("uncovered", [0, 1, 2000, 2001, 4001])
def test_validate_output_across_slices(run, tmp_path, uncovered):
    """One metric and uncovered + 1 practices, the first covered by a rule:
    exactly `uncovered` findings, across _SLICE boundaries the goldens never reach."""
    elements = [{"id": f"p{i:05d}", "name": f"P{i}", "kind": "practice", "category": "c"}
                for i in range(uncovered + 1)]
    manifest = {"metrics": 1, "practices": uncovered + 1, "roles": 0,
                "practice_categories": 1}
    paths = write_kb(tmp_path, metrics=MIN_METRICS[:1], elements=elements, manifest=manifest,
                     rules="RULE R1: HIGH PDI IMPACTS p00000 NEGATIVE\n")
    kb_args = [arg for path in paths for arg in ("--kb", str(path))]
    code, out, _ = run("validate", "--format", "json", *kb_args)
    assert code == 0
    payload = json.loads(out)
    assert out == _dumps(payload)
    assert [f["entity_id"] for f in payload["findings"]] == [
        f"PDI:p{i:05d}" for i in range(1, uncovered + 1)]
    code, out, _ = run("validate", *kb_args)
    assert code == 0
    assert out.splitlines()[-1] == f"result: 0 error(s), {uncovered} warning(s)"


_ENGINE_AFTER = ("import moca.cli, sys; assert moca.cli.main({argv!r}) == 0; "
                 "assert ('moca.engine' in sys.modules) is {loaded}")
_INTROSPECTION_AFTER = ("import moca.cli, sys; assert moca.cli.main({argv!r}) == 0; "
                        "assert not {{'dataclasses', 'inspect', 'typing'}} & set(sys.modules)")


@pytest.mark.parametrize("script", [
    pytest.param("import moca.cli, sys; assert 'tempfile' not in sys.modules", id="cli-tempfile"),
    pytest.param("import moca, sys; assert not [m for m in sys.modules if m.startswith('moca.')]",
                 id="package-submodules"),
    pytest.param(_ENGINE_AFTER.format(argv=["validate"], loaded=False), id="validate-engine"),
    pytest.param(_ENGINE_AFTER.format(argv=["explain", "H6"], loaded=False), id="explain-engine"),
    pytest.param(_ENGINE_AFTER.format(argv=["evaluate", "--profile", "strong_hierarchy"],
                                      loaded=True), id="evaluate-loads-engine"),
    *(pytest.param(_INTROSPECTION_AFTER.format(argv=argv), id=f"{argv[0]}-dataclasses")
      for argv in (["validate"], ["explain", "H6"], ["evaluate", "--profile", "strong_hierarchy"],
                   ["diff", "--profile", "strong_hierarchy"], ["matrix"])),
])
def test_start_up_leaves_unused_modules_unloaded(script):
    """Only a regular --out file needs tempfile, and only the commands that
    evaluate need the engine, so nothing else imports them; a bare `import
    moca` imports no submodule. Only code that introspects a record needs
    dataclasses (and with it inspect), so no command imports either, nor
    typing. -S keeps out site hooks, some of which import these themselves."""
    env = {**os.environ, "PYTHONPATH": str(Path(moca.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                           timeout=60)
    assert child.returncode == 0, child.stderr


def test_import_time_lists_each_moca_module_a_command_loads():
    """The package imports a submodule through the import statement's own
    path, which -X importtime logs, so no module's time is counted as its
    importer's."""
    env = {**os.environ, "PYTHONPATH": str(Path(moca.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-X", "importtime", "-m", "moca.cli", *EVAL_ARGS],
                           env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    listed = {line.rsplit("|", 1)[-1].strip() for line in child.stderr.splitlines()}
    assert {"moca", "moca.model", "moca.dsl", "moca.kb", "moca.engine"} <= listed
