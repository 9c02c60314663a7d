import ast
import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from moca import kb as kb_mod
from moca.kb import (
    ExpectedCounts,
    Finding,
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
    CulturalProfile,
    CultureLevel,
    ElementKind,
    ImpactRule,
    ImpactSign,
    Level,
    MetricPredicate,
    MetricSource,
    UnknownEntityError,
)

from strategies import knowledge_bases
from util import MIN_ELEMENTS, MIN_METRICS, MIN_RULES, write_kb

#: A manifest that an empty file set matches.
EMPTY_MANIFEST = {"metrics": 0, "practices": 0, "roles": 0, "practice_categories": 0}


def codes(report, severity=None):
    return [f.code for f in report.findings
            if severity is None or f.severity is severity]


def write_files(tmp_path, files):
    """Write {name: payload} under tmp_path: a str as text, None as no file
    at all, anything else as JSON. Returns the paths."""
    for name, payload in files.items():
        if payload is not None:
            text = payload if isinstance(payload, str) else json.dumps(payload)
            (tmp_path / name).write_text(text, encoding="utf-8")
    return [tmp_path / name for name in files]


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

    @pytest.mark.parametrize("kind, missing", [
        ("metric", "XYZ"), ("element", "nonexistent"), ("condition", "IC9"),
        ("rule", "Z9"), ("profile", "nobody")])
    def test_lookup_errors(self, seed_kb, kind, missing):
        with pytest.raises(UnknownEntityError) as raised:
            getattr(seed_kb, kind)(missing)
        assert (raised.value.kind, raised.value.entity_id) == (kind, missing)
        assert str(raised.value) == f"unknown {kind} '{missing}'"

    @pytest.mark.parametrize("field, kind, key", kb_mod._INDEXED)
    def test_lookup_finds_every_entity(self, seed_kb, field, kind, key):
        entities = getattr(seed_kb, field)
        assert entities
        for entity in entities:
            assert getattr(seed_kb, kind)(getattr(entity, key)) is entity


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
        manifest = write_files(tmp_path, {"m.json": dict(EMPTY_MANIFEST, extra=1)})
        assert codes(load(manifest).report) == ["unknown-field"]

    def test_missing_field(self, tmp_path):
        broken = {k: v for k, v in MIN_METRICS[0].items() if k != "low_pole"}
        paths = write_kb(tmp_path, metrics=[broken] + MIN_METRICS[1:], rules=None)
        assert "missing-field" in codes(load(paths).report)
        manifest = write_files(tmp_path, {"m.json": {"metrics": 0, "roles": 0}})
        assert codes(load(manifest).report) == ["missing-field"] * 2

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

    def test_unclassifiable_item_is_named_only_by_a_string(self, tmp_path):
        entities = write_files(tmp_path, {"e.json": [{"id": {"a": 1}, "name": "x"},
                                                     {"id": 5}]})
        report = load(entities).report
        assert codes(report) == ["invalid-entity"] * 2
        assert [f.entity_id for f in report.findings] == ["x", None]

    @pytest.mark.parametrize("metrics, elements, bad_id, message", [
        ([dict(MIN_METRICS[0], id="pdi")], None, "pdi",
         "metric id must match [A-Z][A-Z0-9_]*, got 'pdi'"),
        (None, [dict(MIN_ELEMENTS[1], id="9x")], "9x",
         "element id must be an identifier, got '9x'"),
    ], ids=["metric", "element"])
    def test_bad_id_is_one_invalid_entity(self, tmp_path, metrics, elements, bad_id, message):
        # the value object's constructor is the one id check
        paths = write_kb(tmp_path, metrics=metrics, elements=elements, rules=None)
        (finding,) = load(paths).report.findings
        assert finding.severity is Severity.ERROR
        assert (finding.code, finding.entity_id, finding.message) == (
            "invalid-entity", bad_id, message)

    @pytest.mark.parametrize("files, code, entity_id, message", [
        ({"m.json": [dict(MIN_METRICS[0], id=5)]}, "invalid-value", None,
         "metric id must be a string, got 5"),
        ({"m.json": [dict(MIN_METRICS[0], level="regional")]}, "invalid-value", "PDI",
         "metric level must be one of national | organizational, got 'regional'"),
        ({"e.json": [dict(MIN_ELEMENTS[1], kind=5)]}, "invalid-value", "coach",
         "element kind must be one of practice | role | artifact | technique | tool, got 5"),
        ({"e.json": [dict(MIN_ELEMENTS[1], source_methods="scrum")]}, "invalid-value",
         "coach", "element source_methods must be a list of strings, got 'scrum'"),
        ({"e.json": [dict(MIN_ELEMENTS[1], source_methods=["scrum", 3])]},
         "invalid-value", "coach",
         "element source_methods must be a list of strings, got ['scrum', 3]"),
        ({"e.json": [dict(MIN_ELEMENTS[0], category=7)]}, "invalid-value",
         "daily_meeting", "element category must be a string or null, got 7"),
        ({"p.json": [{"name": "p", "values": [1]}]}, "invalid-value", "p",
         "profile values must be an object, got [1]"),
        ({"m.json": dict(EMPTY_MANIFEST, roles=True)}, "invalid-entity", None,
         "manifest roles must be a non-negative integer"),
        ({"a.json": EMPTY_MANIFEST, "b.json": EMPTY_MANIFEST}, "duplicate-manifest",
         None, "manifest already declared in "),
        ({"m.json": 5}, "invalid-json", None, "top level must be an object or an array"),
        ({"m.json": [MIN_METRICS[0], "PDI"]}, "invalid-entity", None,
         "entry 1 must be an object, got 'PDI'"),
    ], ids=["id-not-a-string", "bad-enum", "enum-not-a-string", "methods-not-a-list",
            "methods-hold-a-number", "numeric-category", "values-not-an-object",
            "bool-manifest-count", "two-manifests", "scalar-top-level",
            "entry-not-an-object"])
    def test_reader_failure(self, tmp_path, files, code, entity_id, message):
        (finding,) = load(write_files(tmp_path, files)).report.findings
        assert (finding.code, finding.entity_id) == (code, entity_id)
        assert finding.message.startswith(message)

    def test_null_category_is_accepted_and_null_methods_are_not(self, tmp_path):
        element = dict(MIN_ELEMENTS[1], category=None)
        assert load(write_files(tmp_path, {"e.json": [element]})).kb is not None
        element = dict(MIN_ELEMENTS[1], source_methods=None)
        assert codes(load(write_files(tmp_path, {"e.json": [element]})).report) == [
            "invalid-value"]

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


class TestEnumValues:
    def test_enum_values_match_in_any_case(self, tmp_path):
        shouted = [dict(m, level=m["level"].upper(), source=m["source"].title())
                   for m in MIN_METRICS]
        elements = [dict(MIN_ELEMENTS[0], kind="PRACTICE"), dict(MIN_ELEMENTS[1], kind="Role")]
        assert shouted[0]["level"] == "NATIONAL" and shouted[0]["source"] == "Hofstede"
        (tmp_path / "mixed").mkdir()
        (tmp_path / "lower").mkdir()
        mixed = load_kb(write_kb(tmp_path / "mixed", metrics=shouted, elements=elements))
        assert mixed == load_kb(write_kb(tmp_path / "lower"))

    @pytest.mark.parametrize("kind", [["practice"], {"k": 1}, None, True],
                             ids=["list", "object", "null", "true"])
    def test_non_string_enum_value_is_one_invalid_value(self, tmp_path, kind):
        paths = write_kb(tmp_path, elements=[dict(MIN_ELEMENTS[1], kind=kind)], rules=None)
        (finding,) = load(paths).report.findings
        members = " | ".join(member.value for member in ElementKind)
        assert members == "practice | role | artifact | technique | tool"
        assert (finding.code, finding.entity_id, finding.message) == (
            "invalid-value", "coach", f"element kind must be one of {members}, got {kind!r}")


class TestWarnings:
    def test_rule_targeting_artifact_warns(self, tmp_path):
        elements = MIN_ELEMENTS + [
            {"id": "product_backlog", "name": "Product Backlog", "kind": "artifact"}]
        paths = write_kb(tmp_path, elements=elements,
                         rules="RULE R1: HIGH PDI IMPACTS product_backlog POSITIVE\n")
        result = load(paths)
        assert result.kb is not None
        (warning,) = result.report.findings
        assert warning.severity is Severity.WARNING
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
        uncovered = {tuple(f.entity_id.split(":")) for f in report.findings
                     if f.code == "uncovered-cell"}
        assert uncovered == expected
        assert len(report.findings) == 381

    @given(knowledge_bases(max_metrics=4, max_elements=6, max_rules=12))
    @settings(max_examples=100)
    def test_uncovered_cells_in_metric_then_element_order(self, kb):
        # An artifact sorts before every drawn element id and is never a cell.
        artifact = AgileElement(id="Zartifact", name="Z", kind=ElementKind.ARTIFACT)
        practices = [e for e in kb.elements if e.kind is ElementKind.PRACTICE]
        kb = dataclasses.replace(kb, elements=(*kb.elements, artifact), manifest=ExpectedCounts(
            len(kb.metrics), len(practices), len(kb.elements) - len(practices),
            len({p.category for p in practices})))
        covered = {(r.metric, r.element) for r in kb.rules}
        expected = [
            Finding(Severity.WARNING, "uncovered-cell", f"no rule covers ({m.id}, {e.id})",
                    entity_id=f"{m.id}:{e.id}")
            for m in kb.metrics for e in sorted(kb.elements, key=lambda e: e.id)
            if e.kind in (ElementKind.PRACTICE, ElementKind.ROLE) and (m.id, e.id) not in covered]
        assert list(validate_completeness(kb).findings) == expected

    def test_manifest_mismatch_blocks_load(self, tmp_path):
        manifest = {"metrics": 8, "practices": 38, "roles": 10,
                    "practice_categories": 5}
        result = load(write_kb(tmp_path, manifest=manifest))
        assert result.kb is None
        mismatches = [f for f in result.report.errors if f.code == "manifest-mismatch"]
        assert {f.entity_id for f in mismatches} == {
            "metrics", "practices", "roles", "practice_categories"}

    def test_matching_manifest_is_quiet_on_counts(self, tmp_path):
        manifest = {"metrics": 2, "practices": 1, "roles": 1,
                    "practice_categories": 1}
        result = load(write_kb(tmp_path, manifest=manifest))
        assert result.kb is not None
        report = validate_completeness(result.kb)
        assert not report.has_errors
        # 2 metrics x 2 eligible elements, one covered by the seed rule
        assert len(report.findings) == 3

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

    def test_manifest_mismatch_raises(self):
        with pytest.raises(KnowledgeBaseError) as raised:
            KnowledgeBase(
                metrics=(CulturalMetric("PDI", "Power Distance", CultureLevel.NATIONAL,
                                        "a", "b", MetricSource.HOFSTEDE),),
                elements=(AgileElement("daily_meeting", "Daily", ElementKind.PRACTICE,
                                       category="c"),),
                manifest=ExpectedCounts(metrics=2, practices=1, roles=0,
                                        practice_categories=1))
        report = raised.value.report
        assert codes(report) == ["manifest-mismatch"]
        assert [f.entity_id for f in report.errors] == ["metrics"]


#: The entity tuples of a KnowledgeBase in the order it checks their ids.
ENTITY_IDS = (("metrics", "metric", "id"), ("elements", "element", "id"),
              ("conditions", "condition", "id"), ("rules", "rule", "id"),
              ("profiles", "profile", "name"))


@st.composite
def faulty_kb_fields(draw):
    """KnowledgeBase fields from a valid generated KB, each fault injected or
    not on its own draw: rules with a dangling metric, element or condition or
    on an artifact, a copied relation, a repeated id of any entity, profiles
    over unknown metrics and a manifest that may not match."""
    kb = draw(knowledge_bases())
    fields = {"metrics": list(kb.metrics), "elements": list(kb.elements),
              "conditions": list(kb.conditions), "rules": list(kb.rules), "profiles": []}
    if draw(st.booleans()):
        fields["elements"].append(AgileElement("board", "Board", ElementKind.ARTIFACT))
    metric_ids = [m.id for m in kb.metrics]
    element_ids = [e.id for e in kb.elements] + ["board"]
    condition_ids = [None] + [c.id for c in kb.conditions]
    for i in range(draw(st.integers(0, 4))):
        fields["rules"].append(ImpactRule(
            f"X{i}", "", draw(st.sampled_from(metric_ids + ["ZZ"])), Level.HIGH,
            ImpactSign.POSITIVE, draw(st.sampled_from(element_ids + ["ghost"])),
            draw(st.sampled_from(condition_ids + ["C9"]))))
    if fields["rules"] and draw(st.booleans()):
        fields["rules"].append(dataclasses.replace(
            draw(st.sampled_from(fields["rules"])), id="Copy"))
    for _ in range(draw(st.integers(0, 3))):
        fields["profiles"].append(CulturalProfile(
            draw(st.sampled_from(["p1", "p2"])),
            dict.fromkeys(draw(st.lists(st.sampled_from(metric_ids + ["QQ"]))), 50)))
    for name in draw(st.lists(st.sampled_from(list(fields)), max_size=2)):
        if fields[name]:
            fields[name].append(draw(st.sampled_from(fields[name])))
    fields = {name: tuple(draw(st.permutations(entities))) for name, entities in fields.items()}
    if draw(st.booleans()):
        fields["manifest"] = ExpectedCounts(*draw(st.tuples(*[st.integers(0, 6)] * 4)))
    return fields


def integrity_oracle(fields):
    """The findings KnowledgeBase(**fields) must report, found rule by rule
    with linear scans of the entity tuples, in the order construction reports them."""
    findings = []
    for name, label, key in ENTITY_IDS:
        seen = []
        for entity in fields.get(name, ()):
            entity_id = getattr(entity, key)
            if entity_id in seen:
                findings.append(Finding(Severity.ERROR, "duplicate-id",
                                        f"duplicate {label} id '{entity_id}'", entity_id))
            seen.append(entity_id)
    metrics, elements = fields["metrics"], fields["elements"]
    conditions, rules = fields["conditions"], fields["rules"]

    def error(code, message, entity_id):
        findings.append(Finding(Severity.ERROR, code, message, entity_id))

    for cond in conditions:
        for term in cond.terms:
            if isinstance(term, MetricPredicate) and all(m.id != term.metric for m in metrics):
                error("dangling-metric",
                      f"condition {cond.id} references unknown metric '{term.metric}'", cond.id)
    for i, rule in enumerate(rules):
        if all(m.id != rule.metric for m in metrics):
            error("dangling-metric",
                  f"rule {rule.id} references unknown metric '{rule.metric}'", rule.id)
        targets = [e for e in elements if e.id == rule.element]
        if not targets:
            error("dangling-element",
                  f"rule {rule.id} references unknown element '{rule.element}'", rule.id)
        elif all(e.kind not in (ElementKind.PRACTICE, ElementKind.ROLE) for e in targets):
            findings.append(Finding(
                Severity.WARNING, "rule-target-kind",
                f"rule {rule.id} targets {targets[-1].kind.value} '{rule.element}', "
                "which is outside the impact matrix", rule.id))
        if rule.condition is not None and all(c.id != rule.condition for c in conditions):
            error("dangling-condition",
                  f"rule {rule.id} references unknown condition '{rule.condition}'", rule.id)
        relation = (rule.metric, rule.element, rule.condition)
        if any((r.metric, r.element, r.condition) == relation for r in rules[:i]):
            error("duplicate-relation", f"rule {rule.id} duplicates the (metric, element, "
                  f"condition) relation {relation!r}", rule.id)
    for profile in fields["profiles"]:
        for metric_id in profile.values:
            if all(m.id != metric_id for m in metrics):
                error("dangling-metric",
                      f"profile '{profile.name}' references unknown metric '{metric_id}'",
                      profile.name)
    manifest = fields.get("manifest")
    if manifest is not None:
        practices = [e for e in elements if e.kind is ElementKind.PRACTICE]
        for name, found in (("metrics", len(metrics)), ("practices", len(practices)),
                            ("roles", sum(e.kind is ElementKind.ROLE for e in elements)),
                            ("practice_categories", len({e.category for e in practices}))):
            if found != getattr(manifest, name):
                error("manifest-mismatch",
                      f"manifest declares {getattr(manifest, name)} {name}, found {found}", name)
    return findings


@settings(max_examples=300, deadline=None)
@given(fields=faulty_kb_fields())
def test_construction_findings_equal_a_per_rule_oracle(fields):
    expected = integrity_oracle(fields)
    try:
        found = KnowledgeBase(**fields)._warnings
    except KnowledgeBaseError as exc:
        found = exc.report.findings
        assert any(f.severity is Severity.ERROR for f in expected)
    assert list(found) == expected


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


#: A minimal file set that produces each finding code kb.py can emit.
#: uncovered-cell comes from validate_completeness, the rest from load.
FINDING_CODE_FILE_SETS = {
    "io-error": {"missing.json": None},
    "unsupported-file": {"rules.yaml": "nope"},
    "invalid-json": {"metrics.json": "[{"},
    "syntax-error": {"rules.moca": "RULE broken\n"},
    "unknown-field": {"metrics.json": [dict(MIN_METRICS[0], extra=1)]},
    "missing-field": {"manifest.json": {"metrics": 0}},
    "invalid-value": {"metrics.json": [dict(MIN_METRICS[0], source="globe")]},
    "invalid-entity": {"metrics.json": [dict(MIN_METRICS[0], level="organizational")]},
    "duplicate-manifest": {"a.json": EMPTY_MANIFEST, "b.json": EMPTY_MANIFEST},
    "manifest-mismatch": {"manifest.json": dict(EMPTY_MANIFEST, roles=1)},
    "duplicate-id": {"metrics.json": MIN_METRICS[:1] * 2},
    "dangling-metric": {"elements.json": MIN_ELEMENTS, "rules.moca": MIN_RULES},
    "dangling-element": {"metrics.json": MIN_METRICS, "rules.moca": MIN_RULES},
    "dangling-condition": {
        "metrics.json": MIN_METRICS, "elements.json": MIN_ELEMENTS,
        "rules.moca": "RULE R1: IF C9 THEN HIGH PDI IMPACTS daily_meeting NEGATIVE\n"},
    "duplicate-relation": {
        "metrics.json": MIN_METRICS, "elements.json": MIN_ELEMENTS,
        "rules.moca": MIN_RULES + MIN_RULES.replace("R1", "R2")},
    "rule-target-kind": {
        "metrics.json": MIN_METRICS,
        "elements.json": [{"id": "board", "name": "Board", "kind": "artifact"}],
        "rules.moca": "RULE R1: HIGH PDI IMPACTS board NEGATIVE\n"},
    "uncovered-cell": {
        "metrics.json": MIN_METRICS, "elements.json": MIN_ELEMENTS,
        "manifest.json": {"metrics": 2, "practices": 1, "roles": 1,
                          "practice_categories": 1}},
}


def emitted_finding_codes():
    """Every string literal kb.py passes as a finding code, read with ast:
    the first argument of an error() or err() call, the second of Finding().
    Also returns, as source text, each argument there that is not a literal."""
    with open(kb_mod.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    literals, others = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        position = {"error": 0, "err": 0, "Finding": 1}.get(callee)
        if position is None or len(node.args) <= position:
            continue
        arg = node.args[position]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            literals.add(arg.value)
        else:
            others.add(ast.unparse(arg))
    return literals, others


def test_every_finding_code_has_a_file_set():
    literals, others = emitted_finding_codes()
    # only the helpers forward a code, as their parameter named code; a code
    # passed in any other way would escape the literal scan
    assert others == {"code"}
    assert literals == set(FINDING_CODE_FILE_SETS)


@pytest.mark.parametrize("code", sorted(FINDING_CODE_FILE_SETS))
def test_finding_code_file_set_produces_it(tmp_path, code):
    result = load(write_files(tmp_path, FINDING_CODE_FILE_SETS[code]))
    found = codes(result.report)
    if result.kb is not None:
        found += codes(validate_completeness(result.kb))
    assert code in found
