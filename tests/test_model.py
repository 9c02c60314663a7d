import pytest
from hypothesis import given, strategies as st

from moca.model import (
    AgileElement,
    ConfigurationError,
    CulturalMetric,
    CulturalProfile,
    CultureLevel,
    DEFAULT_THRESHOLDS,
    ElementKind,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    Level,
    MetricPredicate,
    MetricSource,
    check_thresholds,
    level_of,
    level_sign,
    normalize,
)

from strategies import stated_level_st, sign_st


class TestLevelOf:
    def test_high_at_default_thresholds(self):
        assert level_of(80, (33, 67)) is Level.HIGH

    def test_medium_at_default_thresholds(self):
        assert level_of(50, (33, 67)) is Level.MEDIUM

    def test_low_boundary_inclusive(self):
        assert level_of(33, (33, 67)) is Level.LOW

    def test_high_boundary_inclusive(self):
        assert level_of(67, (33, 67)) is Level.HIGH

    def test_extremes(self):
        assert level_of(0) is Level.LOW
        assert level_of(100) is Level.HIGH

    @pytest.mark.parametrize("thresholds", [(0, 67), (33, 100), (50, 50),
                                            (67, 33), (33,), "33,67"])
    def test_invalid_thresholds_rejected(self, thresholds):
        with pytest.raises(ConfigurationError):
            level_of(50, thresholds)

    def test_value_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            level_of(101)
        with pytest.raises(ValueError):
            level_of(-1)

    @given(v1=st.integers(0, 100), v2=st.integers(0, 100),
           low=st.integers(1, 97), gap=st.integers(1, 50))
    def test_monotone(self, v1, v2, low, gap):
        high = min(low + gap, 98)
        if v1 > v2:
            v1, v2 = v2, v1
        assert level_of(v1, (low, high)).rank <= level_of(v2, (low, high)).rank

    def test_check_thresholds_returns_pair(self):
        assert check_thresholds([49, 51]) == (49, 51)


def _rule(stated, sign, rule_id="R", metric="PDI", element="daily_meeting",
          condition=None):
    return ImpactRule(id=rule_id, title="t", metric=metric, stated_level=stated,
                      sign=sign, element=element, condition=condition)


class TestNormalize:
    def test_high_positive_is_plus_one(self):
        # the no-precondition planning-meeting relation
        rule = _rule(Level.HIGH, ImpactSign.POSITIVE, "H4", "UAI", "planning_meeting")
        assert normalize(rule).polarity == 1

    def test_high_negative_is_minus_one(self):
        rule = _rule(Level.HIGH, ImpactSign.NEGATIVE, "H6", "PDI", "daily_meeting")
        assert normalize(rule).polarity == -1

    def test_low_negative_inverts_to_plus_one(self):
        rule = _rule(Level.LOW, ImpactSign.NEGATIVE, "X", "MAS", "review_meeting")
        assert normalize(rule).polarity == 1

    def test_low_positive_is_minus_one(self):
        assert normalize(_rule(Level.LOW, ImpactSign.POSITIVE)).polarity == -1

    def test_fields_copied(self):
        rule = _rule(Level.HIGH, ImpactSign.NEGATIVE, "H6", "PDI", "daily_meeting",
                     condition="IC1")
        normalized = normalize(rule)
        assert normalized.rule_id == "H6"
        assert normalized.metric == "PDI"
        assert normalized.element == "daily_meeting"
        assert normalized.condition == "IC1"

    @pytest.mark.parametrize("stated", [Level.LOW, Level.HIGH])
    @pytest.mark.parametrize("sign", list(ImpactSign))
    def test_polarity_is_set_on_the_rule(self, stated, sign):
        rule = _rule(stated, sign)
        assert rule.polarity == normalize(rule).polarity

    @given(stated=stated_level_st, sign=sign_st)
    def test_inverted_form_normalizes_identically(self, stated, sign):
        # authoring HIGH/X or the flipped LOW/opposite-X is the same relation
        flipped_level = Level.LOW if stated is Level.HIGH else Level.HIGH
        flipped_sign = (ImpactSign.NEGATIVE if sign is ImpactSign.POSITIVE
                        else ImpactSign.POSITIVE)
        assert (normalize(_rule(stated, sign)).polarity
                == normalize(_rule(flipped_level, flipped_sign)).polarity)


class TestLevelSign:
    def test_signs(self):
        assert level_sign(Level.HIGH) == 1
        assert level_sign(Level.LOW) == -1

    def test_medium_has_no_sign(self):
        with pytest.raises(ValueError):
            level_sign(Level.MEDIUM)


class TestTypeInvariants:
    def test_metric_id_pattern(self):
        with pytest.raises(ValueError):
            CulturalMetric("pdi", "x", CultureLevel.NATIONAL, "a", "b",
                           MetricSource.HOFSTEDE)
        with pytest.raises(ValueError):
            CulturalMetric("1PD", "x", CultureLevel.NATIONAL, "a", "b",
                           MetricSource.HOFSTEDE)

    def test_hofstede_metrics_are_national(self):
        with pytest.raises(ValueError):
            CulturalMetric("PDI", "x", CultureLevel.ORGANIZATIONAL, "a", "b",
                           MetricSource.HOFSTEDE)

    def test_cvm_metrics_are_organizational(self):
        with pytest.raises(ValueError):
            CulturalMetric("OPS", "x", CultureLevel.NATIONAL, "a", "b",
                           MetricSource.CVM)

    def test_profile_value_range(self):
        with pytest.raises(ValueError):
            CulturalProfile("p", {"PDI": 101})
        with pytest.raises(ValueError):
            CulturalProfile("p", {"PDI": -1})
        profile = CulturalProfile("p", {"PDI": 0, "UAI": 100})
        assert profile.values["UAI"] == 100

    def test_profile_rejects_non_integers(self):
        with pytest.raises(ValueError):
            CulturalProfile("p", {"PDI": 50.5})
        with pytest.raises(ValueError):
            CulturalProfile("p", {"PDI": True})

    def test_profile_values_are_read_only(self):
        profile = CulturalProfile("p", {"PDI": 10})
        with pytest.raises(TypeError):
            profile.values["PDI"] = 20

    def test_predicate_never_medium(self):
        with pytest.raises(ValueError):
            MetricPredicate("PDI", Level.MEDIUM)

    def test_condition_needs_a_term(self):
        with pytest.raises(ValueError):
            ImpactCondition("IC1", "empty", ())

    def test_practice_requires_category(self):
        with pytest.raises(ValueError):
            AgileElement("daily_meeting", "Daily", ElementKind.PRACTICE)
        role = AgileElement("coach", "Coach", ElementKind.ROLE)
        assert role.category is None

    def test_rule_stated_level_never_medium(self):
        with pytest.raises(ValueError):
            _rule(Level.MEDIUM, ImpactSign.POSITIVE)

    def test_default_thresholds(self):
        assert DEFAULT_THRESHOLDS == (33, 67)
