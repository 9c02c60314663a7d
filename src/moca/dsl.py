"""Line-oriented rule language: parser and canonical serializer.

Rule files (``.moca``) hold one declaration per line:

    document   := { line }
    line       := rule | condition | comment | blank
    comment    := "#" any-text
    condition  := "CONDITION" ident string ":" term { "AND" term }
    term       := "FLAG" ident | ("HIGH" | "LOW") ident
    rule       := "RULE" ident [ string ] ":" [ "IF" ident "THEN" ]
                  ("HIGH" | "LOW") ident "IMPACTS" ident
                  ("POSITIVE" | "NEGATIVE") [ "BECAUSE" string ]
    ident      := letter { letter | digit | "_" }
    string     := '"' { any character except '"' } '"'

Keywords are uppercase, case-sensitive, and reserved (they cannot be used
as identifiers). Files are UTF-8; LF and CRLF are both accepted and LF is
emitted. The parser does no reference resolution: rules may name metrics,
elements, or conditions declared elsewhere, and the knowledge-base loader
reports anything that dangles.

One ``_LINE_RE.finditer`` pass yields a file's lines. It only accepts: a
well-formed ``RULE`` line with no keyword as an identifier becomes its rule,
built from the proven fields unchecked. ``_LineParser`` reads and diagnoses
every other line, so every ``ParseError`` comes from one parser. It reads the
``(kind, text, column)`` tokens of ``_TOKEN_RE`` (one master regex walked
with ``finditer``), closed by an ``end`` token, with two verbs: ``accept``
for an optional token and ``expect`` for a required one, whose absence fails
the line with a positioned ``ParseError``.
"""

from __future__ import annotations

import re

from .model import (
    ConditionTerm,
    ContextFlag,
    ImpactCondition,
    ImpactRule,
    ImpactSign,
    Level,
    MetricPredicate,
    MocaError,
    _IDENT,
    _polarity,
    _field,
    _record,
)

KEYWORDS = frozenset({
    "RULE", "CONDITION", "IF", "THEN", "HIGH", "LOW",
    "IMPACTS", "POSITIVE", "NEGATIVE", "BECAUSE", "AND", "FLAG",
})


@_record
class Comment:
    """A standalone comment line, preserved for round-trip fidelity."""

    text: str


DocumentEntry = ImpactRule | ImpactCondition | Comment


@_record
class ParseError:
    """One positioned syntax error. line and column are 1-based."""

    line: int
    column: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        out = f"{self.line}:{self.column}: {self.message}"
        if self.expected:
            out += f" (expected {', '.join(self.expected)})"
        return out


class RuleSyntaxError(MocaError):
    """Raised by parse(); carries every ParseError found in the source."""

    def __init__(self, errors: tuple[ParseError, ...]):
        self.errors = errors
        head = str(errors[0]) if errors else "syntax error"
        extra = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(head + extra)


@_record
class RuleDocument:
    """Parsed rule file: declarations and comments in source order.

    ``lines`` maps each entry to its 1-based source line; it is excluded
    from equality so that a document and its re-parsed serialization
    compare equal.
    """

    entries: tuple[DocumentEntry, ...] = ()
    lines: tuple[int, ...] = _field((), compare=False)

    @property
    def rules(self) -> tuple[ImpactRule, ...]:
        return tuple(e for e in self.entries if isinstance(e, ImpactRule))

    @property
    def conditions(self) -> tuple[ImpactCondition, ...]:
        return tuple(e for e in self.entries if isinstance(e, ImpactCondition))


_WORD = _IDENT  # a keyword or an identifier

#: The whole lexical grammar, tried at each position after spaces and tabs:
#: a word, a quoted string, a colon, or, as the last resort, one character no
#: token can start with.
_TOKEN_RE = re.compile(rf'[ \t]*(?:({_WORD})|"([^"]*)"|(:)|([^ \t]))')

#: One match a line: a well-formed RULE line in groups 1-8 (none spans an LF), else 9.
_LINE_RE = re.compile(
    rf'^[ \t]*RULE[ \t]+({_WORD})[ \t]*(?:"([^"\n\r]*)"[ \t]*)?:[ \t]*'
    rf'(?:IF[ \t]+({_WORD})[ \t]+THEN[ \t]+)?(HIGH|LOW)[ \t]+({_WORD})[ \t]+IMPACTS[ \t]+'
    rf'({_WORD})[ \t]+(POSITIVE|NEGATIVE)(?:[ \t]+BECAUSE[ \t]*"([^"\n\r]*)")?[ \t]*$'
    r'|^(.*)$', re.M)
_MEMBERS = {**Level.__members__, **ImpactSign.__members__}  # "HIGH": Level.HIGH, ...

#: How each token kind is named in messages and in ``ParseError.expected``.
_KIND_NAMES = {"keyword": "keyword", "ident": "identifier", "string": "string",
               "colon": "':'", "end": "end of line"}


class _LineError(Exception):
    def __init__(self, error: ParseError):
        self.error = error


def _tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    """The (kind, text, 1-based column) tokens of one line, closed by an
    "end" token just past its last character."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        word, string, colon, other = match.groups()
        if word is not None:
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append((kind, word, match.start(1) + 1))
        elif string is not None:
            # Group 2 starts just after the opening quote, at its 1-based column.
            tokens.append(("string", string, match.start(2)))
        elif colon is not None:
            tokens.append(("colon", colon, match.start(3) + 1))
        elif other == '"':
            raise _LineError(ParseError(line_no, match.start(4) + 1,
                                        "unterminated string", ('"',)))
        else:
            raise _LineError(ParseError(line_no, match.start(4) + 1,
                                        f"unexpected character {other!r}"))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str, int]], line_no: int):
        self.tokens = tokens
        self.line = line_no
        self.pos = 0

    def accept(self, kind: str, *texts: str) -> str | None:
        """Consume the next token and return its text if it is of this kind
        (and, when texts are given, one of them); otherwise return None."""
        tok_kind, text, _ = self.tokens[self.pos]
        if tok_kind == kind and (not texts or text in texts):
            self.pos += 1
            return text
        return None

    def expect(self, kind: str, *texts: str, what: str = "") -> str:
        """accept() that fails the line when the token is not there."""
        text = self.accept(kind, *texts)
        if text is None:
            expected = texts or (_KIND_NAMES[kind],)
            self._fail(what or " or ".join(expected), expected)
        return text

    def _fail(self, what: str, expected: tuple[str, ...]):
        kind, text, column = self.tokens[self.pos]
        if kind == "end":
            message = f"expected {what} before end of line"
        elif kind in ("keyword", "ident"):
            message = f"expected {what}, found {_KIND_NAMES[kind]} '{text}'"
        else:
            message = f"expected {what}, found {_KIND_NAMES[kind]}"
        raise _LineError(ParseError(self.line, column, message, expected))


def _parse_rule_line(p: _LineParser) -> ImpactRule:
    rule_id = p.expect("ident", what="rule identifier")
    title = p.accept("string") or ""
    p.expect("colon")
    condition = None
    if p.accept("keyword", "IF"):
        condition = p.expect("ident", what="condition identifier")
        p.expect("keyword", "THEN")
    stated = p.expect("keyword", "HIGH", "LOW")
    metric = p.expect("ident", what="metric identifier")
    p.expect("keyword", "IMPACTS")
    element = p.expect("ident", what="element identifier")
    sign = p.expect("keyword", "POSITIVE", "NEGATIVE")
    rationale = ""
    if p.accept("keyword", "BECAUSE"):
        rationale = p.expect("string", what="rationale string")
    return ImpactRule(
        id=rule_id,
        title=title,
        metric=metric,
        stated_level=_MEMBERS[stated],
        sign=_MEMBERS[sign],
        element=element,
        condition=condition,
        rationale=rationale,
    )


def _parse_condition_line(p: _LineParser) -> ImpactCondition:
    cond_id = p.expect("ident", what="condition identifier")
    description = p.expect("string", what="description string")
    p.expect("colon")
    terms: list[ConditionTerm] = []
    while True:
        kw = p.expect("keyword", "FLAG", "HIGH", "LOW")
        if kw == "FLAG":
            terms.append(ContextFlag(p.expect("ident", what="flag identifier")))
        else:
            metric = p.expect("ident", what="metric identifier")
            terms.append(MetricPredicate(metric, _MEMBERS[kw]))
        if not p.accept("keyword", "AND"):
            break
    return ImpactCondition(id=cond_id, description=description, terms=tuple(terms))


def _rule_of(match: re.Match) -> ImpactRule | None:
    rule_id, title, condition, stated, metric, element, sign, rationale, _ = match.groups()
    if not KEYWORDS.isdisjoint((rule_id, condition, metric, element)):
        return None  # a keyword where an identifier belongs: the parser reports it
    stated, sign = _MEMBERS[stated], _MEMBERS[sign]
    return ImpactRule._unchecked(rule_id, title or "", metric, stated, sign, element,
                                 condition, rationale or "", _polarity(stated, sign))


def _parse_line(raw: str, line_no: int) -> DocumentEntry:
    p = _LineParser(_tokenize(raw, line_no), line_no)
    if p.accept("keyword", "RULE"):
        entry = _parse_rule_line(p)
    elif p.accept("keyword", "CONDITION"):
        entry = _parse_condition_line(p)
    else:
        p._fail("RULE, CONDITION, or comment", ("RULE", "CONDITION", "#"))
    p.expect("end")
    return entry


def _scan(source: str) -> tuple[list[DocumentEntry], list[int], list[ParseError]]:
    entries: list[DocumentEntry] = []
    lines: list[int] = []
    errors: list[ParseError] = []
    for line_no, match in enumerate(_LINE_RE.finditer(source.replace("\r\n", "\n")), start=1):
        try:
            if (raw := match[9]) is None:
                entry = _rule_of(match) or _parse_line(match[0], line_no)
            elif not (stripped := raw.strip()):
                continue
            elif stripped.startswith("#"):
                entry = Comment(raw.lstrip()[1:])
            else:
                entry = _parse_line(raw, line_no)
        except _LineError as exc:
            errors.append(exc.error)
            continue
        if raw is not None and "\r" in raw:  # a lone CR in a string or a comment: unwritable
            errors.append(ParseError(line_no, raw.index("\r") + 1, "unexpected character '\\r'"))
            continue
        entries.append(entry)
        lines.append(line_no)
    return entries, lines, errors


def parse(source: str) -> RuleDocument:
    """Parse rule-language source into a document.

    Raises RuleSyntaxError carrying every positioned ParseError found;
    a bad line never hides errors on the lines after it.
    """
    entries, lines, errors = _scan(source)
    if errors:
        raise RuleSyntaxError(tuple(errors))
    return RuleDocument(entries=tuple(entries), lines=tuple(lines))


def _emit_string(value: str, what: str) -> str:
    if '"' in value or "\n" in value or "\r" in value:
        raise ValueError(f"{what} cannot contain quotes or line breaks: {value!r}")
    return f'"{value}"'


def _emit_ident(value: str, what: str) -> str:
    if value in KEYWORDS:
        raise ValueError(f"{what} is not a serializable identifier: {value!r}")
    return value


def _emit_rule(rule: ImpactRule) -> str:
    head = ["RULE", _emit_ident(rule.id, "rule id")]
    if rule.title:
        head.append(_emit_string(rule.title, "rule title"))
    body = []
    if rule.condition is not None:
        body += ["IF", _emit_ident(rule.condition, "condition reference"), "THEN"]
    body += [
        rule.stated_level.name,
        _emit_ident(rule.metric, "metric reference"),
        "IMPACTS",
        _emit_ident(rule.element, "element reference"),
        rule.sign.name,
    ]
    if rule.rationale:
        body += ["BECAUSE", _emit_string(rule.rationale, "rationale")]
    return " ".join(head) + ": " + " ".join(body)


def _emit_term(term: ConditionTerm) -> str:
    if isinstance(term, ContextFlag):
        return f"FLAG {_emit_ident(term.flag, 'flag')}"
    return f"{term.level.name} {_emit_ident(term.metric, 'metric reference')}"


def _emit_condition(cond: ImpactCondition) -> str:
    head = (f"CONDITION {_emit_ident(cond.id, 'condition id')} "
            f"{_emit_string(cond.description, 'condition description')}")
    return head + ": " + " AND ".join(_emit_term(t) for t in cond.terms)


def serialize(doc: RuleDocument) -> str:
    """Render a document back to rule-language text.

    Output is deterministic, LF-terminated, and re-parses to a document
    equal to the input. Raises ValueError if an entry cannot be expressed
    in the grammar (e.g. a string containing a double quote).
    """
    out = []
    for entry in doc.entries:
        if isinstance(entry, Comment):
            if "\n" in entry.text or "\r" in entry.text:
                raise ValueError(f"comment cannot contain line breaks: {entry.text!r}")
            out.append(f"#{entry.text}")
        elif isinstance(entry, ImpactCondition):
            out.append(_emit_condition(entry))
        elif isinstance(entry, ImpactRule):
            out.append(_emit_rule(entry))
        else:
            raise ValueError(f"unsupported document entry: {entry!r}")
    return "\n".join(out) + ("\n" if out else "")
