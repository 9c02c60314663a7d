import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from moca.engine import (
    Assessment,
    ConditionStatus,
    EvaluationContext,
    ImpactLabel,
    diff,
    evaluate,
    evaluate_element,
    export_matrix,
    label_for,
)
from moca.kb import KnowledgeBase, load_kb
from moca.model import (
    AgileElement,
    ContextFlag,
    CulturalMetric,
    CulturalProfile,
    CultureLevel,
    ElementKind,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    Level,
    MetricSource,
    UnknownEntityError,
    normalize,
)

from oracle import assessment_as_dict, brute_assess
from strategies import contexts_for, kb_with_context, knowledge_bases, pinned_scenario

FLAG = "manager_attends_meeting"


def ctx(values, flags=(), thresholds=(33, 67), elements=None):
    return EvaluationContext(
        profile=CulturalProfile("test", values),
        flags=frozenset(flags),
        thresholds=thresholds,
        elements=elements,
    )


class TestEvaluateElement:
    def test_high_pdi_with_flag_fires_h6(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({"PDI": 90}, {FLAG}), "daily_meeting")
        assert a.score == -1
        assert a.label is ImpactLabel.NEGATIVE
        (c,) = a.contributions
        assert c.rule_id == "H6"
        assert c.value == -1
        assert c.fired_level is Level.HIGH
        assert c.condition_status is ConditionStatus.SATISFIED
        assert a.gated_rules == ()
        assert a.indeterminate_rules == ()

    def test_without_flag_h6_is_gated(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({"PDI": 90}), "daily_meeting")
        assert a.score == 0
        assert a.label is ImpactLabel.NEUTRAL
        assert a.contributions == ()
        assert a.gated_rules == ("H6",)

    def test_low_pdi_with_flag_inverts(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({"PDI": 10}, {FLAG}), "daily_meeting")
        assert a.score == 1
        (c,) = a.contributions
        assert c.value == 1
        assert c.fired_level is Level.LOW

    def test_unconditional_rule_needs_no_flag(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({"UAI": 75}), "planning_meeting")
        assert a.score == 1
        (c,) = a.contributions
        assert c.rule_id == "H4"
        assert c.condition_status is ConditionStatus.NOT_APPLICABLE

    def test_medium_contributes_nothing(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({"PDI": 50}, {FLAG}), "daily_meeting")
        assert a.score == 0
        assert a.contributions == ()
        assert a.gated_rules == ()
        assert a.indeterminate_rules == ()

    def test_missing_metric_is_indeterminate(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({}, {FLAG}), "daily_meeting")
        assert a.score == 0
        assert a.indeterminate_rules == ("H6",)
        assert a.gated_rules == ()

    def test_unknown_element_raises(self, seed_kb):
        with pytest.raises(UnknownEntityError):
            evaluate_element(seed_kb, ctx({}), "ghost_meeting")

    def test_rule_free_element_is_neutral(self, seed_kb):
        a = evaluate_element(seed_kb, ctx({"PDI": 90}, {FLAG}), "pair_programming")
        assert a == Assessment("pair_programming", (), 0, ImpactLabel.NEUTRAL, (), ())


class TestEvaluate:
    def test_seed_trio(self, seed_kb):
        results = {a.element: a for a in evaluate(
            seed_kb, ctx({"PDI": 90, "MAS": 80, "UAI": 75}, {FLAG}))}
        assert len(results) == 48
        assert results["planning_meeting"].score == 1
        assert results["review_meeting"].score == -1
        assert results["daily_meeting"].score == -1
        neutral = [a for a in results.values() if a.score == 0]
        assert len(neutral) == 45

    def test_order_is_lexicographic(self, seed_kb):
        assessments = evaluate(seed_kb, ctx({}))
        ids = [a.element for a in assessments]
        assert ids == sorted(ids)

    def test_empty_profile_all_neutral_all_indeterminate(self, seed_kb):
        assessments = evaluate(seed_kb, ctx({}, {FLAG}))
        by_element = {a.element: a for a in assessments}
        for a in assessments:
            assert a.label is ImpactLabel.NEUTRAL
            assert a.contributions == ()
        assert by_element["planning_meeting"].indeterminate_rules == ("H4",)
        assert by_element["review_meeting"].indeterminate_rules == ("H5",)
        assert by_element["daily_meeting"].indeterminate_rules == ("H6",)

    def test_selection_narrows_and_sorts(self, seed_kb):
        assessments = evaluate(
            seed_kb, ctx({"PDI": 90}, {FLAG},
                         elements=("planning_meeting", "daily_meeting")))
        assert [a.element for a in assessments] == ["daily_meeting", "planning_meeting"]

    def test_selection_with_unknown_element_raises(self, seed_kb):
        with pytest.raises(UnknownEntityError):
            evaluate(seed_kb, ctx({}, elements=("daily_meeting", "ghost")))

    def test_result_invariant_under_kb_file_order(self, seed_paths):
        # oracle: evaluate under every file ordering and compare
        scenario = ctx({"PDI": 90, "MAS": 80, "UAI": 75}, {FLAG})
        baseline = evaluate(load_kb(seed_paths), scenario)
        for ordering in itertools.permutations(seed_paths):
            assert evaluate(load_kb(ordering), scenario) == baseline


class TestDiff:
    def test_flag_toggle(self, seed_kb):
        d = {x.element: x for x in diff(
            seed_kb, ctx({"PDI": 90}), ctx({"PDI": 90}, {FLAG}))}
        daily = d["daily_meeting"]
        assert daily.score_a == 0
        assert daily.score_b == -1
        assert daily.delta == -1
        assert daily.rules_changed == ("H6",)

    def test_identical_contexts(self, seed_kb):
        scenario = ctx({"PDI": 90, "UAI": 75}, {FLAG})
        for d in diff(seed_kb, scenario, scenario):
            assert d.delta == 0
            assert d.rules_changed == ()

    def test_pdi_swing_with_flag_held(self, seed_kb):
        # oracle: two independent assessments, subtracted
        a = evaluate_element(seed_kb, ctx({"PDI": 90}, {FLAG}), "daily_meeting")
        b = evaluate_element(seed_kb, ctx({"PDI": 10}, {FLAG}), "daily_meeting")
        assert b.score - a.score == 2

        d = {x.element: x for x in diff(
            seed_kb, ctx({"PDI": 90}, {FLAG}), ctx({"PDI": 10}, {FLAG}))}
        assert d["daily_meeting"].delta == 2
        assert d["daily_meeting"].rules_changed == ("H6",)

    def test_gating_status_change_is_reported_even_at_same_score(self, seed_kb):
        # H6 indeterminate vs gated: score stays 0 but the status moved
        d = {x.element: x for x in diff(
            seed_kb, ctx({}, {FLAG}), ctx({"PDI": 90}))}
        assert d["daily_meeting"].delta == 0
        assert d["daily_meeting"].rules_changed == ("H6",)

    def test_selection_respected(self, seed_kb):
        diffs = diff(seed_kb, ctx({"PDI": 90}, elements=("daily_meeting",)),
                     ctx({"PDI": 90}, {FLAG}, elements=("daily_meeting",)))
        assert [d.element for d in diffs] == ["daily_meeting"]


class TestExportMatrix:
    def test_seed_cells(self, seed_kb):
        matrix = export_matrix(seed_kb)
        assert [e.rule_id for e in matrix.cell("UAI", "planning_meeting")] == ["H4"]
        assert [e.rule_id for e in matrix.cell("MAS", "review_meeting")] == ["H5"]
        assert [e.rule_id for e in matrix.cell("PDI", "daily_meeting")] == ["H6"]
        entry = matrix.cell("PDI", "daily_meeting")[0]
        assert entry.stated_level is Level.HIGH
        assert entry.sign is ImpactSign.NEGATIVE
        assert entry.condition == "IC1"

    def test_full_domain(self, seed_kb):
        matrix = export_matrix(seed_kb)
        assert matrix.cell_count == 384
        assert len(matrix.metrics) == 8
        assert len(matrix.elements) == 48
        covered = [(m, e) for m in matrix.metrics for e in matrix.elements
                   if matrix.cell(m, e)]
        assert len(covered) == 3
        assert set(matrix.cells) == set(covered)

    def test_cell_outside_grid_raises(self, seed_kb):
        matrix = export_matrix(seed_kb)
        with pytest.raises(KeyError):
            matrix.cell("NOPE", "daily_meeting")
        with pytest.raises(KeyError):
            matrix.cell("PDI", "ghost_meeting")

    def test_rows_follow_declaration_columns_sorted(self, seed_kb):
        matrix = export_matrix(seed_kb)
        assert matrix.metrics == tuple(m.id for m in seed_kb.metrics)
        assert list(matrix.elements) == sorted(matrix.elements)

    def test_zero_rules_same_shape(self, seed_kb):
        stripped = dataclasses.replace(seed_kb, rules=())
        matrix = export_matrix(stripped)
        assert matrix.cell_count == 384
        assert dict(matrix.cells) == {}
        assert all(matrix.cell(m, e) == ()
                   for m in matrix.metrics for e in matrix.elements)

    def test_every_rule_in_exactly_one_cell(self, seed_kb):
        matrix = export_matrix(seed_kb)
        placed = [e.rule_id for entries in matrix.cells.values() for e in entries]
        assert sorted(placed) == [r.id for r in seed_kb.rules]


class TestLabelMapping:
    @pytest.mark.parametrize("score,expected", [
        (-5, ImpactLabel.STRONGLY_NEGATIVE),
        (-2, ImpactLabel.STRONGLY_NEGATIVE),
        (-1, ImpactLabel.NEGATIVE),
        (0, ImpactLabel.NEUTRAL),
        (1, ImpactLabel.POSITIVE),
        (2, ImpactLabel.STRONGLY_POSITIVE),
        (7, ImpactLabel.STRONGLY_POSITIVE),
    ])
    def test_label_for(self, score, expected):
        assert label_for(score) is expected

    def test_conflicting_contributions_sum_to_neutral(self):
        metric = CulturalMetric("PDI", "Power Distance", CultureLevel.NATIONAL,
                                "a", "b", MetricSource.HOFSTEDE)
        element = AgileElement("daily_meeting", "Daily", ElementKind.PRACTICE,
                               category="c")
        gate = ImpactCondition("C1", "always on", (ContextFlag("on"),))
        kb = KnowledgeBase(
            metrics=(metric,), elements=(element,), conditions=(gate,),
            rules=(
                ImpactRule(id="R1", title="", metric="PDI", stated_level=Level.HIGH,
                           sign=ImpactSign.POSITIVE, element="daily_meeting"),
                ImpactRule(id="R2", title="", metric="PDI", stated_level=Level.HIGH,
                           sign=ImpactSign.NEGATIVE, element="daily_meeting",
                           condition="C1"),
            ))
        a = evaluate_element(kb, ctx({"PDI": 90}, {"on"}), "daily_meeting")
        assert a.score == 0
        assert a.label is ImpactLabel.NEUTRAL
        assert [c.value for c in a.contributions] == [1, -1]


class TestProperties:
    @given(kb_with_context())
    @settings(max_examples=150, deadline=None)
    def test_additivity_and_contribution_invariant(self, kb_ctx):
        kb, context = kb_ctx
        for a in evaluate(kb, context):
            assert a.score == sum(c.value for c in a.contributions)
            assert a.label is label_for(a.score)
            for c in a.contributions:
                rule = kb.rule(c.rule_id)
                sign = 1 if c.fired_level is Level.HIGH else -1
                assert c.value == normalize(rule).polarity * sign
                assert c.value in (-1, 1)

    @given(kb_with_context(), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_removing_one_fired_rule_shifts_score_by_its_value(self, kb_ctx, rng):
        kb, context = kb_ctx
        fired = [(a.element, c) for a in evaluate(kb, context)
                 for c in a.contributions]
        if not fired:
            return
        element_id, contribution = rng.choice(fired)
        smaller = dataclasses.replace(
            kb, rules=tuple(r for r in kb.rules if r.id != contribution.rule_id))
        before = evaluate_element(kb, context, element_id).score
        after = evaluate_element(smaller, context, element_id).score
        assert before - after == contribution.value

    @given(knowledge_bases(max_rules=10))
    @settings(max_examples=150, deadline=None)
    def test_inversion(self, kb):
        for rule in kb.rules:
            high = pinned_scenario(kb, rule, 100)
            low = pinned_scenario(kb, rule, 0)
            if high is None or low is None:
                continue  # condition pins the rule's own metric
            outcomes = []
            for values, flags in (high, low):
                a = evaluate_element(kb, ctx(values, flags), rule.element)
                outcomes.append({c.rule_id: c.value for c in a.contributions}[rule.id])
            assert outcomes[0] == -outcomes[1]

    @given(kb_with_context())
    @settings(max_examples=100, deadline=None)
    def test_gated_rules_contribute_exactly_zero(self, kb_ctx):
        kb, context = kb_ctx
        for a in evaluate(kb, context):
            fired_ids = {c.rule_id for c in a.contributions}
            for rule_id in a.gated_rules:
                assert rule_id not in fired_ids
            buckets = (len(a.contributions) + len(a.gated_rules)
                       + len(a.indeterminate_rules))
            assert buckets <= len(kb.rules_for(a.element))

    @given(kb_with_context(), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_order_invariance(self, kb_ctx, rng):
        kb, context = kb_ctx
        shuffled = list(kb.rules)
        rng.shuffle(shuffled)
        permuted = dataclasses.replace(kb, rules=tuple(shuffled))
        assert evaluate(permuted, context) == evaluate(kb, context)
        assert export_matrix(permuted) == export_matrix(kb)

    @given(n_rules=st.integers(1, 4),
           polarity_picks=st.lists(st.booleans(), min_size=4, max_size=4),
           v1=st.integers(0, 100), v2=st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_monotone_response(self, n_rules, polarity_picks, v1, v2):
        # one (metric, element) pair, n always-on rules of mixed polarity
        if v1 > v2:
            v1, v2 = v2, v1
        metric = CulturalMetric("M1", "Metric", CultureLevel.NATIONAL,
                                "a", "b", MetricSource.HOFSTEDE)
        element = AgileElement("target", "Target", ElementKind.PRACTICE,
                               category="c")
        conditions = tuple(
            ImpactCondition(f"C{i}", "on", (ContextFlag("on"),))
            for i in range(1, n_rules))
        rules = []
        for i in range(n_rules):
            rules.append(ImpactRule(
                id=f"R{i}", title="", metric="M1",
                stated_level=Level.HIGH,
                sign=ImpactSign.POSITIVE if polarity_picks[i] else ImpactSign.NEGATIVE,
                element="target",
                condition=None if i == 0 else f"C{i}"))
        kb = KnowledgeBase(metrics=(metric,), elements=(element,),
                           conditions=conditions, rules=tuple(rules))

        def fired(v):
            a = evaluate_element(kb, ctx({"M1": v}, {"on"}), "target")
            return {c.rule_id: c.value for c in a.contributions}

        low_fired, high_fired = fired(v1), fired(v2)
        for rule in rules:
            change = high_fired.get(rule.id, 0) - low_fired.get(rule.id, 0)
            assert change * normalize(rule).polarity >= 0
        from moca.model import level_of
        order = [Level.LOW, Level.MEDIUM, Level.HIGH]
        if abs(order.index(level_of(v2)) - order.index(level_of(v1))) <= 1:
            score_change = sum(high_fired.values()) - sum(low_fired.values())
            assert abs(score_change) <= n_rules

    @given(kb_with_context(max_metrics=4, max_rules=8))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_brute_force_on_random_contexts(self, kb_ctx):
        kb, context = kb_ctx
        values = dict(context.profile.values)
        for element in kb.rule_eligible_elements:
            expected = brute_assess(kb, values, context.flags,
                                    context.thresholds, element.id)
            actual = assessment_as_dict(
                evaluate_element(kb, context, element.id))
            assert actual == expected

    @given(kb_with_context(max_metrics=4, max_rules=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_diff_agrees_with_brute_force_on_random_contexts(self, kb_ctx, data):
        kb, ctx_a = kb_ctx
        low = data.draw(st.integers(1, 49), label="t_low")
        high = data.draw(st.integers(51, 99), label="t_high")
        ctx_b = data.draw(contexts_for(kb, thresholds=(low, high)), label="ctx_b")
        if data.draw(st.booleans(), label="inverse"):
            # Mirrored values under the same flags make fired rules flip value.
            ctx_b = dataclasses.replace(ctx_b, flags=ctx_a.flags, profile=CulturalProfile(
                "inverse", {m: 100 - v for m, v in ctx_a.profile.values.items()}))

        def oracle(context, element_id):
            return brute_assess(kb, dict(context.profile.values), context.flags,
                                context.thresholds, element_id)

        def bucket(assessment, rule_id):
            if rule_id in assessment["fired"]:
                return ("fired", assessment["fired"][rule_id])
            if rule_id in assessment["gated"]:
                return "gated"
            if rule_id in assessment["indeterminate"]:
                return "indeterminate"
            return "dormant"

        diffs = diff(kb, ctx_a, ctx_b)
        assert [d.element for d in diffs] == [e.id for e in kb.rule_eligible_elements]
        for d in diffs:
            a, b = oracle(ctx_a, d.element), oracle(ctx_b, d.element)
            assert (d.score_a, d.score_b, d.delta) == (
                a["score"], b["score"], b["score"] - a["score"])
            rule_ids = sorted(r.id for r in kb.rules if r.element == d.element)
            assert d.rules_changed == tuple(
                r for r in rule_ids if bucket(a, r) != bucket(b, r))
