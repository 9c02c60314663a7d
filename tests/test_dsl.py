import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from moca.dsl import (
    Comment,
    ParseError,
    RuleDocument,
    RuleSyntaxError,
    parse,
    parse_errors,
    serialize,
)
from moca.model import (
    ContextFlag,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    Level,
    MetricPredicate,
)

from strategies import rule_documents

H6_LINE = ('RULE H6 "open communication (of problems)": '
           'IF IC1 THEN HIGH PDI IMPACTS daily_meeting NEGATIVE')
H4_LINE = ('RULE H4 "in-depth discussions of questions": '
           'HIGH UAI IMPACTS planning_meeting POSITIVE')


#: Malformed lines, each with a fragment of the message it must produce; their
#: exact errors are pinned in golden/parse_errors.json (see test_golden.py).
MALFORMED_LINES = [
    ("FOO H1: HIGH A IMPACTS b POSITIVE", "RULE, CONDITION, or comment"),
    ("RULE H1: HIGH A IMPACTS b MAYBE", "POSITIVE or NEGATIVE"),
    ("RULE H1: HIGH A IMPACTS b", "POSITIVE or NEGATIVE"),
    ("RULE H1: IF C1 HIGH A IMPACTS b POSITIVE", "THEN"),
    ('RULE H1 "unterminated: HIGH A IMPACTS b POSITIVE', "unterminated string"),
    ("RULE H1: HIGH A IMPACTS b POSITIVE NEGATIVE", "end of line"),
    ("RULE IF: HIGH A IMPACTS b POSITIVE", "rule identifier"),
    ('CONDITION C1 "d": ', "FLAG or HIGH or LOW"),
    ("RULE H1 HIGH A IMPACTS b POSITIVE", "':'"),
    ("RULE H1: HIGH A IMPACTS b POSITIVE # trailing", "unexpected character"),
]
GOLDEN_PARSE_ERRORS = Path(__file__).resolve().parent / "golden" / "parse_errors.json"


class TestParse:
    def test_conditional_rule(self):
        doc = parse(H6_LINE)
        (rule,) = doc.rules
        assert rule.id == "H6"
        assert rule.title == "open communication (of problems)"
        assert rule.condition == "IC1"
        assert rule.stated_level is Level.HIGH
        assert rule.metric == "PDI"
        assert rule.element == "daily_meeting"
        assert rule.sign is ImpactSign.NEGATIVE

    def test_rule_without_condition(self):
        (rule,) = parse(H4_LINE).rules
        assert rule.condition is None
        assert rule.sign is ImpactSign.POSITIVE

    def test_missing_metric_token_is_an_error(self):
        with pytest.raises(RuleSyntaxError) as excinfo:
            parse("RULE X: HIGH IMPACTS foo POSITIVE")
        (err,) = excinfo.value.errors
        assert err.line == 1
        assert err.column == 14  # the IMPACTS keyword
        assert "metric identifier" in err.message
        assert "identifier" in err.expected

    def test_rationale(self):
        (rule,) = parse('RULE R1: LOW MAS IMPACTS x POSITIVE BECAUSE "collaboration"').rules
        assert rule.rationale == "collaboration"
        assert rule.title == ""

    def test_condition_declaration(self):
        source = 'CONDITION IC2 "mixed": FLAG manager_attends_meeting AND HIGH PDI AND LOW MAS'
        (cond,) = parse(source).conditions
        assert cond.id == "IC2"
        assert cond.description == "mixed"
        assert cond.terms == (
            ContextFlag("manager_attends_meeting"),
            MetricPredicate("PDI", Level.HIGH),
            MetricPredicate("MAS", Level.LOW),
        )

    def test_comments_and_blanks(self):
        doc = parse("# header\n\n" + H4_LINE + "\n   \n#tail")
        assert doc.entries[0] == Comment(" header")
        assert isinstance(doc.entries[1], ImpactRule)
        assert doc.entries[2] == Comment("tail")

    def test_entries_map_to_source_lines(self):
        doc = parse("# one\n\n" + H4_LINE + "\n" + H6_LINE)
        assert len(doc.lines) == len(doc.entries)
        assert doc.lines == (1, 3, 4)

    def test_crlf_accepted(self):
        doc = parse(H4_LINE + "\r\n" + H6_LINE + "\r\n")
        assert len(doc.rules) == 2

    def test_identifiers_case_preserved(self):
        (rule,) = parse("RULE MiXeD: HIGH PdI_2 IMPACTS Daily_Meeting POSITIVE").rules
        assert rule.id == "MiXeD"
        assert rule.metric == "PdI_2"
        assert rule.element == "Daily_Meeting"

    def test_empty_source(self):
        assert parse("") == RuleDocument()

    def test_errors_collected_across_lines(self):
        errors = parse_errors("RULE : HIGH A IMPACTS b POSITIVE\n"
                              + H4_LINE + "\n"
                              "CONDITION C1: FLAG f\n")
        assert len(errors) == 2
        assert [e.line for e in errors] == [1, 3]

    @pytest.mark.parametrize("source,fragment", MALFORMED_LINES)
    def test_malformed_lines(self, source, fragment):
        errors = parse_errors(source)
        assert any(fragment in e.message for e in errors)
        golden = json.loads(GOLDEN_PARSE_ERRORS.read_text(encoding="utf-8"))
        assert errors == tuple(ParseError(line, column, message, tuple(expected))
                               for line, column, message, expected
                               in golden["lines"][source])

    def test_error_positions_are_one_based(self):
        (err,) = parse_errors("RULE ?")
        assert err.line == 1
        assert err.column == 6


class TestSerialize:
    def test_h5_literal_tokens(self):
        rule = ImpactRule(
            id="H5", title="communication of done work", metric="MAS",
            stated_level=Level.HIGH, sign=ImpactSign.NEGATIVE,
            element="review_meeting", condition="IC1")
        text = serialize(RuleDocument(entries=(rule,)))
        assert "IF IC1 THEN HIGH MAS IMPACTS review_meeting NEGATIVE" in text

    def test_empty_document(self):
        assert serialize(RuleDocument()) == ""

    def test_deterministic(self):
        doc = parse(H4_LINE + "\n" + H6_LINE)
        assert serialize(doc) == serialize(doc)

    def test_emits_lf_only(self):
        doc = parse(H4_LINE + "\r\n" + H6_LINE)
        assert "\r" not in serialize(doc)

    def test_quote_in_string_rejected(self):
        rule = ImpactRule(id="R1", title='has "quotes"', metric="A",
                          stated_level=Level.HIGH, sign=ImpactSign.POSITIVE,
                          element="b")
        with pytest.raises(ValueError):
            serialize(RuleDocument(entries=(rule,)))

    def test_keyword_identifier_rejected(self):
        cond = ImpactCondition(id="IMPACTS", description="d",
                               terms=(ContextFlag("f"),))
        with pytest.raises(ValueError):
            serialize(RuleDocument(entries=(cond,)))

    def test_title_omitted_when_empty(self):
        rule = ImpactRule(id="R1", title="", metric="A", stated_level=Level.LOW,
                          sign=ImpactSign.POSITIVE, element="b")
        assert serialize(RuleDocument(entries=(rule,))) == "RULE R1: LOW A IMPACTS b POSITIVE\n"


class TestRoundTrip:
    def test_seed_rules_round_trip(self, seed_paths):
        source = next(p for p in seed_paths if p.suffix == ".moca").read_text()
        doc = parse(source)
        assert parse(serialize(doc)) == doc

    @given(rule_documents())
    @settings(max_examples=300)
    def test_parse_serialize_identity(self, doc):
        assert parse(serialize(doc)) == doc

    @given(rule_documents())
    @settings(max_examples=100)
    def test_double_round_trip_is_stable(self, doc):
        once = serialize(doc)
        assert serialize(parse(once)) == once


class TestErrorTotality:
    @given(text=__import__("hypothesis").strategies.text(max_size=200))
    @settings(max_examples=300)
    def test_never_crashes(self, text):
        try:
            doc = parse(text)
        except RuleSyntaxError as exc:
            source_lines = text.replace("\r\n", "\n").split("\n")
            assert exc.errors
            for err in exc.errors:
                assert isinstance(err, ParseError)
                assert 1 <= err.line <= len(source_lines)
                assert err.column >= 1
        else:
            assert isinstance(doc, RuleDocument)
