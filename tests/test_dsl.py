import copy
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from moca import dsl
from moca.dsl import (
    KEYWORDS,
    Comment,
    ParseError,
    RuleDocument,
    RuleSyntaxError,
    parse,
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

from strategies import rule_documents, syntax_condition_st, syntax_rule_st

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
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_PARSE_ERRORS = GOLDEN / "parse_errors.json"


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
        with pytest.raises(RuleSyntaxError) as info:
            parse("RULE : HIGH A IMPACTS b POSITIVE\n" + H4_LINE + "\n"
                  "CONDITION C1: FLAG f\n")
        errors = info.value.errors
        assert len(errors) == 2
        assert [e.line for e in errors] == [1, 3]

    @pytest.mark.parametrize("source,fragment", MALFORMED_LINES)
    def test_malformed_lines(self, source, fragment):
        with pytest.raises(RuleSyntaxError) as info:
            parse(source)
        errors = info.value.errors
        assert any(fragment in e.message for e in errors)
        golden = json.loads(GOLDEN_PARSE_ERRORS.read_text(encoding="utf-8"))
        assert errors == tuple(ParseError(line, column, message, tuple(expected))
                               for line, column, message, expected
                               in golden["lines"][source])

    def test_error_positions_are_one_based(self):
        with pytest.raises(RuleSyntaxError) as info:
            parse("RULE ?")
        (err,) = info.value.errors
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

    @pytest.mark.parametrize("entry, message", [
        (Comment(" a\nb"), "comment cannot contain line breaks: ' a\\nb'"),
        (Comment(" a\rb"), "comment cannot contain line breaks: ' a\\rb'"),
        (ContextFlag("f"), "unsupported document entry: ContextFlag(flag='f')"),
    ], ids=["comment-lf", "comment-cr", "not-an-entry"])
    def test_unserializable_entry_rejected(self, entry, message):
        with pytest.raises(ValueError) as info:
            serialize(RuleDocument(entries=(entry,)))
        assert str(info.value) == message

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


#: Pieces the mutations insert besides drawn characters: everything that can
#: turn a rule line into another well-formed one or break it at one token.
_PIECES = (*sorted(KEYWORDS), '"', '""', '"x"', ":", " ", "\t", "\r", "\f", "#",
           "é", "R1", "_", "9")

#: Characters a mutation draws up to two of: ASCII, control, non-ASCII and
#: non-BMP ones, among them those a regex or str.splitlines treats as space or
#: a line break. A fixed alphabet, because st.text() builds Hypothesis's Unicode
#: table on its first draw, which is slow enough to fail the too_slow check.
_EDGE_CHARS = st.text(st.sampled_from(
    'aZ0_ :"#\t\n\r\x0b\x0c\x00\x1c\x1f\x7f\x85\xa0é\u2028\u3000中\U0001d400\U0001f600'),
    max_size=2)


@st.composite
def mutated_rule_lines(draw):
    """A serialized rule line after 0 to 3 edits: insert, delete, replace,
    swap two words, truncate."""
    line = serialize(RuleDocument(entries=(draw(syntax_rule_st),))).rstrip("\n")
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        at = draw(st.integers(0, len(line)))
        end = min(len(line), at + draw(st.integers(1, 4)))
        piece = draw(st.sampled_from(_PIECES) | _EDGE_CHARS)
        edit = draw(st.sampled_from(("insert", "delete", "replace", "swap", "truncate")))
        if edit == "insert":
            line = line[:at] + piece + line[at:]
        elif edit == "delete":
            line = line[:at] + line[end:]
        elif edit == "replace":
            line = line[:at] + piece + line[end:]
        elif edit == "swap":
            words = line.split(" ")
            i, j = draw(st.integers(0, len(words) - 1)), draw(st.integers(0, len(words) - 1))
            words[i], words[j] = words[j], words[i]
            line = " ".join(words)
        else:
            line = line[:at]
    return line, edits


def _parsed(line):
    """What the recursive-descent parser makes of one line: an entry or an error."""
    try:
        return dsl._parse_line(line, 1)
    except dsl._LineError as exc:
        return exc.error


#: Text for a comment or a rule title: the characters at the edges of the
#: grammar, CR and a vertical tab among them, which plain st.text() seldom draws.
_EDGE_TEXT = st.text(alphabet=st.sampled_from('\r\n"#: \t\x0bRa_'), max_size=8)


@given(st.one_of(mutated_rule_lines().map(lambda drawn: drawn[0]),
                 _EDGE_TEXT.map(lambda text: "#" + text),
                 _EDGE_TEXT.map(lambda text: f'RULE R1 "{text}": HIGH M IMPACTS e POSITIVE')))
@settings(max_examples=500)
def test_accepted_source_round_trips(source):
    """Whatever parse accepts, serialize writes back to an equal document."""
    try:
        doc = parse(source)
    except RuleSyntaxError:
        return
    assert parse(serialize(doc)) == doc


def _match_rule_line(raw):
    """The rule on a well-formed RULE line, as dsl._scan reads it; None for any other."""
    match = dsl._LINE_RE.fullmatch(raw)
    return dsl._rule_of(match) if match and match[9] is None else None


class TestRuleLineRegex:
    """The anchored RULE-line regex only accepts, and accepts only what the
    parser reads the same way."""

    @given(mutated_rule_lines())
    @settings(max_examples=500)
    def test_agrees_with_the_parser(self, drawn):
        line, edits = drawn
        fast = _match_rule_line(line)
        if fast is None:
            assert edits, f"an unedited rule line fell through: {line!r}"
            return
        parsed = _parsed(line)
        assert parsed == fast
        assert parsed.polarity == fast.polarity

    @pytest.mark.parametrize("line,accepted", [
        ("RULE IF: HIGH M IMPACTS e POSITIVE", False),
        ("RULE R1: HIGH AND IMPACTS e POSITIVE", False),
        ('RULE R1"t":HIGH M IMPACTS e POSITIVE BECAUSE"x"', True),
        ('RULE\tR1\t"t"\t:\tIF\tC1\tTHEN\tLOW\tM\tIMPACTS\te\tNEGATIVE\tBECAUSE\t"x"\t', True),
        ("  RULE R1 : LOW M IMPACTS e NEGATIVE  ", True),
        ("RULE R1: HIGH M IMPACTS e POSITIVE # note", False),
        ("RULE R1: HIGH M IMPACTS e POSITIVEBECAUSE \"x\"", False),
        ("RULE R1: HIGH M IMPACTS e POSITIVE\r", False),
        ("RULE R1: HIGH M IMPACTS e POSITIVE\f", False),
        ("RULE R1: HIGH M IMPACTS é POSITIVE", False),
    ])
    def test_explicit_lines(self, line, accepted):
        fast = _match_rule_line(line)
        parsed = _parsed(line)
        if accepted:
            assert fast is not None
            assert parsed == fast
            assert parsed.polarity == fast.polarity
        else:
            assert fast is None
            assert dsl._scan(line)[2] == [parsed]

    def test_only_condition_lines_reach_the_parser(self, monkeypatch, seed_paths):
        """Every well-formed RULE line of the seed and synthetic KBs takes the
        regex: a regex that stopped matching would still parse correctly."""
        parsed_lines = []

        class CountingParser(dsl._LineParser):
            def __init__(self, tokens, line_no):
                parsed_lines.append(line_no)
                super().__init__(tokens, line_no)

        monkeypatch.setattr(dsl, "_LineParser", CountingParser)
        sources = [p for p in seed_paths if p.suffix == ".moca"]
        sources += sorted((GOLDEN / "synthetic_kb").glob("*.moca"))
        for path in sources:
            parsed_lines.clear()
            doc = parse(path.read_text(encoding="utf-8"))
            assert doc.rules
            assert parsed_lines == [line for entry, line in zip(doc.entries, doc.lines)
                                    if isinstance(entry, ImpactCondition)]


#: Rule lines with a keyword where an identifier belongs, in each of the four places.
_KEYWORD_RULE_LINES = st.builds(str.format, st.sampled_from((
    "RULE {}: HIGH M IMPACTS e POSITIVE",
    "RULE R1: IF {} THEN LOW M IMPACTS e NEGATIVE",
    'RULE R1 "t": HIGH {} IMPACTS e POSITIVE',
    "RULE R1: LOW M IMPACTS {} NEGATIVE",
)), st.sampled_from(sorted(KEYWORDS)))


@st.composite
def broken_rule_lines(draw):
    """A serialized rule line broken in two by an LF, often inside a string."""
    line = serialize(RuleDocument(entries=(draw(syntax_rule_st),))).rstrip("\n")
    at = draw(st.integers(0, len(line)))
    return line[:at] + "\n" + line[at:]


#: One line of a multi-line source; a drawn line may itself hold a CR or an LF.
_SOURCE_LINE = st.one_of(
    mutated_rule_lines().map(lambda drawn: drawn[0]),
    broken_rule_lines(),
    syntax_condition_st.map(lambda cond: serialize(RuleDocument(entries=(cond,))).rstrip("\n")),
    _EDGE_TEXT.map(lambda text: "#" + text),
    st.sampled_from(("", " ", "\t", " \f ")),
    _KEYWORD_RULE_LINES,
)


@st.composite
def multi_line_sources(draw):
    """Drawn lines joined by LF or CRLF, with or without a final line break,
    then lone CRs, form feeds and non-ASCII characters put in anywhere."""
    newline = draw(st.sampled_from(("\n", "\r\n")))
    source = newline.join(draw(st.lists(_SOURCE_LINE, max_size=8)))
    source += draw(st.sampled_from(("", newline)))
    for char in draw(st.lists(st.sampled_from("\r\f\x85\u2028é中"), max_size=3)):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + char + source[at:]
    return source


class TestOnePass:
    """parse reads a file in one regex pass: that pass reads each line as
    scanning it alone would, and builds each well-formed RULE line's rule
    without checking its fields again."""

    @given(multi_line_sources())
    @settings(max_examples=500)
    def test_scan_reads_each_line_as_alone(self, source):
        want_entries, want_lines, want_errors = [], [], []
        for offset, line in enumerate(source.replace("\r\n", "\n").split("\n")):
            entries, lines, errors = dsl._scan(line)
            assert lines == [1] * len(entries) and all(e.line == 1 for e in errors)
            want_entries += entries
            want_lines += [offset + 1] * len(entries)
            want_errors += [ParseError(offset + 1, e.column, e.message, e.expected)
                            for e in errors]
        entries, lines, errors = dsl._scan(source)
        assert (entries, lines, errors) == (want_entries, want_lines, want_errors)
        assert ([getattr(e, "polarity", None) for e in entries]
                == [getattr(e, "polarity", None) for e in want_entries])

    def test_parsing_the_golden_kbs_checks_no_rule_again(self, monkeypatch, seed_paths):
        checked = []
        check = ImpactRule.__post_init__
        monkeypatch.setattr(ImpactRule, "__post_init__",
                            lambda rule: checked.append(rule.id) or check(rule))
        sources = [p for p in seed_paths if p.suffix == ".moca"]
        sources += sorted((GOLDEN / "synthetic_kb").glob("*.moca"))
        for path in sources:
            assert parse(path.read_text(encoding="utf-8")).rules
        assert checked == []
        assert ImpactRule("R1", "", "M", Level.HIGH, ImpactSign.POSITIVE, "e").polarity == 1
        assert checked == ["R1"]

    @given(syntax_rule_st)
    @settings(max_examples=200)
    def test_regex_rule_is_the_public_rule(self, rule):
        fast = _match_rule_line(serialize(RuleDocument(entries=(rule,))).rstrip("\n"))
        public = ImpactRule(fast.id, fast.title, fast.metric, fast.stated_level, fast.sign,
                            fast.element, fast.condition, fast.rationale)
        assert public == rule
        for twin in (fast, copy.copy(fast), copy.deepcopy(fast), pickle.loads(pickle.dumps(fast))):
            assert type(twin) is ImpactRule
            assert twin == public and hash(twin) == hash(public)
            assert twin.polarity == public.polarity
