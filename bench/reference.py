"""Reference evaluator and output checks for the benchmark.

The evaluator is written from the README's evaluation semantics, by direct
case analysis over the generator's rule records. It imports nothing from
the program or its tests, so it can disagree with the engine when the
engine is wrong. Per element, each rule lands in the first bucket that
applies: indeterminate (no value for its metric), dormant (MEDIUM value),
gated (a condition term unsatisfied), fired.

The check_* functions compare program output, already reduced to plain
values, with the reference, and raise CheckError on the first difference.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

from kbgen import DiffPair, Rule, Scenario, Spec


class CheckError(Exception):
    """A program output differs from what the reference expects."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Outcome:
    """One element's assessment, as the reference or the program gives it."""

    fired: dict[str, tuple[int, str]]  # rule id -> (value, "high" | "low")
    gated: frozenset[str]
    indeterminate: frozenset[str]
    score: int
    label: str
    dormant: frozenset[str] = frozenset()


def level(value: int, thresholds: tuple[int, int]) -> str:
    low, high = thresholds
    if value <= low:
        return "low"
    if value >= high:
        return "high"
    return "medium"


def _condition_holds(spec: Spec, condition_id: str, values, flags, thresholds) -> bool:
    for keyword, ident in spec.conditions[condition_id].terms:
        if keyword == "FLAG":
            if ident not in flags:
                return False
        elif ident not in values or level(values[ident], thresholds) != keyword.lower():
            return False
    return True


def status(spec: Spec, rule: Rule, values, flags, thresholds) -> tuple:
    """("indeterminate",), ("dormant",), ("gated",) or ("fired", value, level)."""
    if rule.metric not in values:
        return ("indeterminate",)
    at = level(values[rule.metric], thresholds)
    if at == "medium":
        return ("dormant",)
    if rule.condition and not _condition_holds(spec, rule.condition, values, flags,
                                               thresholds):
        return ("gated",)
    at_stated = 1 if rule.sign == "POSITIVE" else -1
    return ("fired", at_stated if at == rule.level.lower() else -at_stated, at)


def label_for(score: int) -> str:
    if score <= -2:
        return "strongly_negative"
    return {-1: "negative", 0: "neutral", 1: "positive"}.get(score, "strongly_positive")


def _assess(spec: Spec, element: str, values, flags, thresholds) -> Outcome:
    fired, buckets = {}, {"gated": set(), "indeterminate": set(), "dormant": set()}
    for rule in spec.rules_by_element.get(element, ()):
        st = status(spec, rule, values, flags, thresholds)
        if st[0] == "fired":
            fired[rule.id] = (st[1], st[2])
        else:
            buckets[st[0]].add(rule.id)
    score = sum(v for v, _ in fired.values())
    return Outcome(fired, frozenset(buckets["gated"]), frozenset(buckets["indeterminate"]),
                   score, label_for(score), frozenset(buckets["dormant"]))


def selection(spec: Spec, elements) -> tuple[str, ...]:
    return spec.eligible if elements is None else tuple(sorted(set(elements)))


def evaluate(spec: Spec, sc: Scenario) -> dict[str, Outcome]:
    values = spec.profiles[sc.profile]
    return {e: _assess(spec, e, values, sc.flags, sc.thresholds)
            for e in selection(spec, sc.elements)}


def diff(spec: Spec, pair: DiffPair) -> dict[str, tuple[int, int, int, frozenset[str]]]:
    """element -> (score_a, score_b, delta, rules whose bucket or value changed)."""
    a, b = pair.a, pair.b
    va, vb = spec.profiles[a.profile], spec.profiles[b.profile]
    out = {}
    for element in selection(spec, a.elements if a.elements is not None else b.elements):
        oa = _assess(spec, element, va, a.flags, a.thresholds)
        ob = _assess(spec, element, vb, b.flags, b.thresholds)
        changed = frozenset(
            r.id for r in spec.rules_by_element.get(element, ())
            if status(spec, r, va, a.flags, a.thresholds)
            != status(spec, r, vb, b.flags, b.thresholds))
        out[element] = (oa.score, ob.score, ob.score - oa.score, changed)
    return out


# --- checks ------------------------------------------------------------------

def check_evaluate(spec: Spec, sc: Scenario, got: dict[str, Outcome],
                   condition_status: dict[str, str] | None = None):
    """Compare assessments; condition_status maps fired rule -> status if known."""
    want = evaluate(spec, sc)
    expect(set(got) == set(want),
           f"assessed elements differ: {len(got)} given, {len(want)} expected")
    for element, w in want.items():
        g = got[element]
        for field in ("fired", "gated", "indeterminate", "score", "label"):
            expect(getattr(g, field) == getattr(w, field),
                   f"{element}: {field} is {getattr(g, field)!r}, "
                   f"expected {getattr(w, field)!r}")
    for rule_id, st in (condition_status or {}).items():
        wanted = "satisfied" if spec.rule_index[rule_id].condition else "not_applicable"
        expect(st == wanted, f"{rule_id}: condition status {st!r}, expected {wanted!r}")


def check_diff(spec: Spec, pair: DiffPair, got: dict, only_changed: bool):
    """got maps element -> (score_a, score_b, delta, set of rules changed)."""
    want = diff(spec, pair)
    if only_changed:
        want = {e: d for e, d in want.items() if d[2] != 0 or d[3]}
    expect(set(got) == set(want),
           f"diff ({pair.kind}) lists {len(got)} elements, expected {len(want)}")
    for element, w in want.items():
        g = got[element]
        expect(tuple(g[:3]) == w[:3] and frozenset(g[3]) == w[3],
               f"diff ({pair.kind}) {element}: {g!r}, expected {w!r}")


def matrix_tokens(spec: Spec) -> dict[tuple[str, str], set[str]]:
    cells: dict[tuple[str, str], set[str]] = {}
    eligible = set(spec.eligible)
    for r in spec.rules:
        if r.element in eligible:
            token = f"{r.id}:{r.level}:{r.sign}" + (f"@{r.condition}" if r.condition else "")
            cells.setdefault((r.metric, r.element), set()).add(token)
    return cells


def check_matrix(spec: Spec, metrics, elements, cells: dict[tuple[str, str], set[str]]):
    """cells maps every non-empty (metric, element) cell to its token set."""
    expect(list(metrics) == [m.id for m in spec.metrics], "matrix rows differ")
    expect(list(elements) == list(spec.eligible), "matrix columns differ")
    want = matrix_tokens(spec)
    expect(set(cells) == set(want),
           f"matrix has {len(cells)} covered cells, expected {len(want)}")
    for key, tokens in want.items():
        expect(cells[key] == tokens, f"matrix cell {key}: {cells[key]}, expected {tokens}")


def check_uncovered(spec: Spec, uncovered: int):
    want = len(spec.metrics) * len(spec.eligible) - len(spec.covered)
    expect(uncovered == want, f"{uncovered} uncovered-cell warnings, expected {want}")


def check_explain_text(spec: Spec, rule_id: str, text: str):
    rule = spec.rule_index[rule_id]
    names = [rule.id, rule.metric, rule.element, rule.condition, rule.rationale]
    for name in filter(None, names):
        expect(name in text, f"explain {rule_id} does not mention {name!r}")


def check_inversion(original: dict[str, Outcome], inverted: dict[str, Outcome],
                    unconditioned: set[str]):
    """With symmetric thresholds, v -> 100 - v negates every unconditioned
    contribution. Uses program output only, no reference."""
    expect(set(original) == set(inverted), "inverted evaluation covers other elements")
    for element, o in original.items():
        flipped = inverted[element].fired
        for rule_id, (value, _) in o.fired.items():
            if rule_id in unconditioned:
                expect(rule_id in flipped and flipped[rule_id][0] == -value,
                       f"{element}: {rule_id} did not invert")
        for rule_id, (value, _) in flipped.items():
            if rule_id in unconditioned:
                expect(o.fired.get(rule_id, (None,))[0] == -value,
                       f"{element}: {rule_id} fired only after inversion")


# --- reading the CLI's documented output formats ------------------------------

def outcomes_from_json(payload) -> tuple[dict[str, Outcome], dict[str, str]]:
    got, statuses = {}, {}
    for a in payload:
        fired = {}
        for c in a["contributions"]:
            fired[c["rule_id"]] = (c["value"], c["fired_level"])
            statuses[c["rule_id"]] = c["condition_status"]
        got[a["element"]] = Outcome(fired, frozenset(a["gated_rules"]),
                                    frozenset(a["indeterminate_rules"]),
                                    a["score"], a["label"])
    return got, statuses


_HEADER = re.compile(r"(\S+): ([a-z ]+?)(?: \(.*\))?")
_ITEM = re.compile(r"  (score|fired|gated|indeterminate): (\S+)(?: (\S+) \[(HIGH|LOW) )?")


def outcomes_from_text(text: str) -> dict[str, Outcome]:
    got: dict[str, dict] = {}
    current = None
    for line in text.splitlines():
        item = _ITEM.match(line)
        if item and current is not None:
            kind, first = item.group(1), item.group(2)
            if kind == "score":
                current["score"] = int(first)
            elif kind == "fired":
                current["fired"][first] = (int(item.group(3)), item.group(4).lower())
            else:
                current[kind].add(first)
            continue
        header = _HEADER.fullmatch(line)
        expect(header is not None, f"unreadable evaluate line {line!r}")
        current = got[header.group(1)] = {
            "label": header.group(2).replace(" ", "_"), "score": None,
            "fired": {}, "gated": set(), "indeterminate": set()}
    return {e: Outcome(d["fired"], frozenset(d["gated"]), frozenset(d["indeterminate"]),
                       d["score"], d["label"]) for e, d in got.items()}


_DIFF_LINE = re.compile(r"(\S+): ([+-]\d+) -> ([+-]\d+) \(delta ([+-]\d+)\)(?: rules: (.*))?")


def diffs_from_text(text: str) -> dict:
    if text.strip() == "no differences":
        return {}
    got = {}
    for line in text.splitlines():
        m = _DIFF_LINE.fullmatch(line)
        expect(m is not None, f"unreadable diff line {line!r}")
        rules = frozenset(m.group(5).split(", ")) if m.group(5) else frozenset()
        got[m.group(1)] = (int(m.group(2)), int(m.group(3)), int(m.group(4)), rules)
    return got


def diffs_from_json(payload) -> dict:
    return {d["element"]: (d["score_a"], d["score_b"], d["delta"],
                           frozenset(d["rules_changed"])) for d in payload}


def matrix_from_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    expect(bool(rows) and rows[0][:1] == ["metric"], "matrix CSV has no header row")
    elements = rows[0][1:]
    cells = {}
    for row in rows[1:]:
        expect(len(row) == len(elements) + 1, f"matrix row {row[:1]} has a wrong width")
        for element, cell in zip(elements, row[1:]):
            if cell:
                cells[(row[0], element)] = set(cell.split(";"))
    return [row[0] for row in rows[1:]], elements, cells
