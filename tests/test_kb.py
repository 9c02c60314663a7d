import itertools
import json

import pytest

from moca.kb import (
    ExpectedCounts,
    KnowledgeBase,
    KnowledgeBaseError,
    Severity,
    load,
    load_kb,
    load_profiles,
    seed_kb_paths,
    validate_completeness,
)
from moca.model import (
    AgileElement,
    CulturalMetric,
    CultureLevel,
    ElementKind,
    ImpactRule,
    ImpactSign,
    Level,
    MetricSource,
    UnknownEntityError,
)

from util import MIN_ELEMENTS, MIN_METRICS, write_kb


def codes(report, severity=None):
    return [f.code for f in report.findings
            if severity is None or f.severity is severity]


class TestSeedKb:
    def test_loads_clean(self, seed_paths):
        result = load(seed_paths)
        assert result.kb is not None
        assert result.report.findings == ()

    def test_seed_metric_set(self, seed_kb):
        assert [m.id for m in seed_kb.metrics] == [
            "PDI", "UAI", "IDV", "MAS", "LTO", "IVR", "OPS", "OF"]

    def test_seed_levels_follow_sources(self, seed_kb):
        for metric in seed_kb.metrics:
            expected = (CultureLevel.NATIONAL
                        if metric.source is MetricSource.HOFSTEDE
                        else CultureLevel.ORGANIZATIONAL)
            assert metric.level is expected

    def test_seed_rules_and_condition(self, seed_kb):
        assert [r.id for r in seed_kb.rules] == ["H4", "H5", "H6"]
        assert [c.id for c in seed_kb.conditions] == ["IC1"]
        h6 = seed_kb.rule("H6")
        assert h6.condition == "IC1"
        assert h6.metric == "PDI"
        assert h6.element == "daily_meeting"
        assert h6.sign is ImpactSign.NEGATIVE

    def test_seed_counts(self, seed_kb):
        practices = [e for e in seed_kb.elements if e.kind is ElementKind.PRACTICE]
        roles = [e for e in seed_kb.elements if e.kind is ElementKind.ROLE]
        assert len(practices) == 38
        assert len(roles) == 10
        assert len({p.category for p in practices}) == 5
        assert len(seed_kb.rule_eligible_elements) == 48

    def test_load_is_path_order_independent(self, seed_paths):
        baseline = load_kb(seed_paths)
        for ordering in itertools.permutations(seed_paths):
            assert load_kb(ordering) == baseline

    def test_duplicate_paths_are_deduplicated(self, seed_paths):
        assert load_kb(list(seed_paths) + list(seed_paths)) == load_kb(seed_paths)

    def test_lookup_errors(self, seed_kb):
        with pytest.raises(UnknownEntityError):
            seed_kb.metric("XYZ")
        with pytest.raises(UnknownEntityError):
            seed_kb.element("nonexistent")
        with pytest.raises(UnknownEntityError):
            seed_kb.rule("Z9")


class TestLoadFailures:
    def test_dangling_metric_reference(self, tmp_path):
        paths = write_kb(tmp_path, rules="RULE R1: HIGH XYZ IMPACTS daily_meeting POSITIVE\n")
        result = load(paths)
        assert result.kb is None
        (finding,) = result.report.errors
        assert finding.code == "dangling-metric"
        assert finding.entity_id == "R1"

    def test_dangling_element_reference(self, tmp_path):
        paths = write_kb(tmp_path, rules="RULE R1: HIGH PDI IMPACTS nowhere POSITIVE\n")
        assert codes(load(paths).report) == ["dangling-element"]

    def test_dangling_condition_reference(self, tmp_path):
        paths = write_kb(tmp_path,
                         rules="RULE R1: IF IC9 THEN HIGH PDI IMPACTS daily_meeting POSITIVE\n")
        assert codes(load(paths).report) == ["dangling-condition"]

    def test_duplicate_rule_id(self, tmp_path):
        paths = write_kb(tmp_path, rules=(
            "RULE H4: HIGH PDI IMPACTS daily_meeting POSITIVE\n"
            "RULE H4: HIGH UAI IMPACTS daily_meeting POSITIVE\n"))
        report = load(paths).report
        assert "duplicate-id" in codes(report, Severity.ERROR)

    def test_duplicate_relation(self, tmp_path):
        paths = write_kb(tmp_path, rules=(
            "RULE R1: HIGH PDI IMPACTS daily_meeting POSITIVE\n"
            "RULE R2: LOW PDI IMPACTS daily_meeting NEGATIVE\n"))
        report = load(paths).report
        assert codes(report, Severity.ERROR) == ["duplicate-relation"]

    def test_same_pair_under_different_conditions_is_legal(self, tmp_path):
        rules = (
            'CONDITION C1 "gate": FLAG f1\n'
            "RULE R1: HIGH PDI IMPACTS daily_meeting POSITIVE\n"
            "RULE R2: IF C1 THEN HIGH PDI IMPACTS daily_meeting NEGATIVE\n")
        result = load(write_kb(tmp_path, rules=rules))
        assert result.kb is not None

    def test_unreadable_path(self, tmp_path):
        result = load([tmp_path / "missing.json"])
        assert result.kb is None
        assert codes(result.report) == ["io-error"]

    def test_symlink_loop_is_an_io_error(self, tmp_path):
        loop = tmp_path / "loop.json"
        loop.symlink_to(loop)
        assert codes(load([loop]).report) == ["io-error"]

    def test_unsupported_suffix(self, tmp_path):
        stray = tmp_path / "rules.yaml"
        stray.write_text("nope")
        assert codes(load([stray]).report) == ["unsupported-file"]

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "metrics.json"
        bad.write_text("[{", encoding="utf-8")
        (finding,) = load([bad]).report.errors
        assert finding.code == "invalid-json"
        assert finding.line == 1

    def test_duplicate_json_keys(self, tmp_path):
        bad = tmp_path / "profiles.json"
        bad.write_text('[{"name": "p", "values": {"PDI": 1, "PDI": 2}}]')
        (finding,) = load([bad]).report.errors
        assert finding.code == "invalid-json"
        assert "duplicate key" in finding.message

    def test_syntax_error_carries_position(self, tmp_path):
        paths = write_kb(tmp_path, rules="RULE broken\n")
        (finding,) = load(paths).report.errors
        assert finding.code == "syntax-error"
        assert finding.line == 1
        assert finding.path.endswith("rules.moca")

    def test_unknown_field(self, tmp_path):
        metrics = [dict(MIN_METRICS[0], extra="nope")]
        paths = write_kb(tmp_path, metrics=metrics + MIN_METRICS[1:], rules=None)
        assert "unknown-field" in codes(load(paths).report)

    def test_missing_field(self, tmp_path):
        broken = {k: v for k, v in MIN_METRICS[0].items() if k != "low_pole"}
        paths = write_kb(tmp_path, metrics=[broken] + MIN_METRICS[1:], rules=None)
        assert "missing-field" in codes(load(paths).report)

    def test_bad_enum_value(self, tmp_path):
        metrics = [dict(MIN_METRICS[0], source="globe")]
        paths = write_kb(tmp_path, metrics=metrics + MIN_METRICS[1:], rules=None)
        assert "invalid-value" in codes(load(paths).report)

    def test_level_source_mismatch(self, tmp_path):
        metrics = [dict(MIN_METRICS[0], level="organizational")] + MIN_METRICS[1:]
        paths = write_kb(tmp_path, metrics=metrics, rules=None)
        assert "invalid-entity" in codes(load(paths).report)

    def test_unclassifiable_item(self, tmp_path):
        entities = tmp_path / "entities.json"
        entities.write_text('[{"id": "x", "name": "x"}]')
        assert codes(load([entities]).report) == ["invalid-entity"]

    def test_profile_with_unknown_metric(self, tmp_path):
        paths = write_kb(tmp_path, rules=None,
                         profiles=[{"name": "p", "values": {"ZZZ": 10}}])
        report = load(paths).report
        assert "dangling-metric" in codes(report)
        assert any(f.entity_id == "p" for f in report.errors)

    def test_profile_value_out_of_range(self, tmp_path):
        paths = write_kb(tmp_path, rules=None,
                         profiles=[{"name": "p", "values": {"PDI": 250}}])
        assert "invalid-entity" in codes(load(paths).report)

    def test_duplicate_profile_name(self, tmp_path):
        paths = write_kb(tmp_path, rules=None, profiles=[
            {"name": "p", "values": {"PDI": 10}},
            {"name": "p", "values": {"PDI": 20}}])
        assert "duplicate-id" in codes(load(paths).report)

    def test_condition_term_dangling_metric(self, tmp_path):
        rules = ('CONDITION C1 "gate": HIGH ZZZ\n'
                 "RULE R1: IF C1 THEN HIGH PDI IMPACTS daily_meeting POSITIVE\n")
        report = load(write_kb(tmp_path, rules=rules)).report
        assert "dangling-metric" in codes(report)
        assert any(f.entity_id == "C1" for f in report.errors)

    def test_every_error_names_an_entity(self, tmp_path):
        paths = write_kb(tmp_path, rules=(
            "RULE R1: HIGH XYZ IMPACTS nowhere POSITIVE\n"
            "RULE R1: HIGH PDI IMPACTS daily_meeting POSITIVE\n"))
        report = load(paths).report
        assert report.has_errors
        for finding in report.errors:
            assert finding.entity_id

    def test_load_kb_raises(self, tmp_path):
        paths = write_kb(tmp_path, rules="RULE R1: HIGH XYZ IMPACTS daily_meeting POSITIVE\n")
        with pytest.raises(KnowledgeBaseError) as excinfo:
            load_kb(paths)
        assert excinfo.value.report.has_errors


class TestWarnings:
    def test_rule_targeting_artifact_warns(self, tmp_path):
        elements = MIN_ELEMENTS + [
            {"id": "product_backlog", "name": "Product Backlog", "kind": "artifact"}]
        paths = write_kb(tmp_path, elements=elements,
                         rules="RULE R1: HIGH PDI IMPACTS product_backlog POSITIVE\n")
        result = load(paths)
        assert result.kb is not None
        (warning,) = result.report.warnings
        assert warning.code == "rule-target-kind"


class TestCompleteness:
    def test_manifest_gated(self, tmp_path):
        result = load(write_kb(tmp_path))
        assert result.kb.manifest is None
        assert validate_completeness(result.kb).findings == ()

    def test_seed_uncovered_cells(self, seed_kb):
        # oracle: enumerate the cross product and subtract covered cells
        eligible = {e.id for e in seed_kb.elements
                    if e.kind in (ElementKind.PRACTICE, ElementKind.ROLE)}
        cross = {(m.id, e) for m in seed_kb.metrics for e in eligible}
        covered = {(r.metric, r.element) for r in seed_kb.rules}
        expected = cross - covered
        assert len(cross) == 384
        assert len(expected) == 381

        report = validate_completeness(seed_kb)
        assert not report.has_errors
        uncovered = {tuple(f.entity_id.split(":")) for f in report.warnings
                     if f.code == "uncovered-cell"}
        assert uncovered == expected
        assert len(report.warnings) == 381

    def test_manifest_mismatch_blocks_load(self, tmp_path):
        manifest = {"metrics": 8, "practices": 38, "roles": 10,
                    "practice_categories": 5}
        result = load(write_kb(tmp_path, manifest=manifest))
        assert result.kb is None
        mismatches = [f for f in result.report.errors if f.code == "manifest-mismatch"]
        assert {f.entity_id for f in mismatches} == {
            "metrics", "practices", "roles", "practice_categories"}

    def test_manifest_mismatch_direct(self):
        kb = KnowledgeBase(
            metrics=(CulturalMetric("PDI", "Power Distance", CultureLevel.NATIONAL,
                                    "a", "b", MetricSource.HOFSTEDE),),
            elements=(AgileElement("daily_meeting", "Daily", ElementKind.PRACTICE,
                                   category="c"),),
            manifest=ExpectedCounts(metrics=2, practices=1, roles=0,
                                    practice_categories=1))
        report = validate_completeness(kb)
        assert [f.entity_id for f in report.errors] == ["metrics"]

    def test_matching_manifest_is_quiet_on_counts(self, tmp_path):
        manifest = {"metrics": 2, "practices": 1, "roles": 1,
                    "practice_categories": 1}
        result = load(write_kb(tmp_path, manifest=manifest))
        assert result.kb is not None
        report = validate_completeness(result.kb)
        assert not report.has_errors
        # 2 metrics x 2 eligible elements, one covered by the seed rule
        assert len(report.warnings) == 3

    def test_matrix_domain_independent_of_rules(self, tmp_path):
        with_rules = load(write_kb(tmp_path)).kb
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        without_rules = load(write_kb(empty_dir, rules=None)).kb
        domain = lambda kb: len(kb.metrics) * len(kb.rule_eligible_elements)
        assert domain(with_rules) == domain(without_rules) == 4


class TestDirectConstruction:
    def test_dangling_reference_raises(self):
        metric = CulturalMetric("PDI", "Power Distance", CultureLevel.NATIONAL,
                                "a", "b", MetricSource.HOFSTEDE)
        rule = ImpactRule(id="R1", title="", metric="PDI", stated_level=Level.HIGH,
                          sign=ImpactSign.POSITIVE, element="ghost")
        with pytest.raises(ValueError) as raised:
            KnowledgeBase(metrics=(metric,), rules=(rule,))
        assert isinstance(raised.value, KnowledgeBaseError)
        assert codes(raised.value.report) == ["dangling-element"]

    def test_duplicate_id_raises(self):
        metric = CulturalMetric("PDI", "Power Distance", CultureLevel.NATIONAL,
                                "a", "b", MetricSource.HOFSTEDE)
        with pytest.raises(ValueError) as raised:
            KnowledgeBase(metrics=(metric, metric))
        assert codes(raised.value.report) == ["duplicate-id"]


class TestProfilesFile:
    def test_load_profiles(self, seed_paths):
        profiles_path = next(p for p in seed_paths if p.name == "profiles.json")
        profiles, report = load_profiles(profiles_path)
        assert not report.has_errors
        assert {p.name for p in profiles} == {
            "strong_hierarchy", "flat_hierarchy", "mid_band"}

    def test_load_profiles_rejects_other_entities(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(MIN_METRICS))
        _, report = load_profiles(path)
        assert report.has_errors

    def test_load_profiles_missing_file(self, tmp_path):
        _, report = load_profiles(tmp_path / "nope.json")
        assert codes(report) == ["io-error"]


def test_seed_paths_exist():
    paths = seed_kb_paths()
    assert [p.name for p in paths] == [
        "elements.json", "manifest.json", "metrics.json", "profiles.json",
        "rules.moca"]
    for path in paths:
        assert path.is_file()
