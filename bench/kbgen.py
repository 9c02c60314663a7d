"""Seeded synthetic knowledge bases and what-if scenarios for the benchmark.

Everything here is plain data built from ``random.Random(seed)``: the same
seed gives the same knowledge base, file bytes and scenarios. The records
are the benchmark's own copy of the rules, so the reference evaluator can
check the program without going through its parser.

Regenerate the inputs of one seed, and print their make-up, with:

    python3 bench/kbgen.py --seed 1 --out /path/to/dir
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

#: Sizes of the ROADMAP's middle synthetic KB.
HOFSTEDE_METRICS = 30
CVM_METRICS = 20
PRACTICE_CATEGORIES = 12
PRACTICES = 1800
ROLES = 200
OUTSIDE_MATRIX = {"artifact": 30, "tool": 20, "technique": 10}
FLAGS = 12
CONDITIONS = 50
RULES = 20_000
PROFILES = 20
RULE_FILES = 4

#: Share of rules gated by a condition.
GATED_SHARE = 0.3
#: Each profile holds a value for a metric with this probability.
PROFILE_COVERAGE = 0.85
#: The element of rank r (0-based) carries about RULES * (F(r + 1) - F(r))
#: rules, F(x) = (x / elements) ** (1 / TARGET_SKEW): of 2,000 elements the
#: most-ruled carries 126, the median one 9. The counts are the same for
#: every seed (only which element gets which rank changes), so restricted
#: evaluations cost the same whatever the seed.
TARGET_SKEW = 1.5

#: Symmetric threshold pairs (t_low + t_high == 100) used for evaluations,
#: so the inversion property applies to every one of them.
SYMMETRIC_THRESHOLDS = ((33, 67), (30, 70), (25, 75), (40, 60))


@dataclass(frozen=True)
class Metric:
    id: str
    source: str  # "hofstede" | "cvm"


@dataclass(frozen=True)
class Element:
    id: str
    kind: str  # "practice" | "role" | "artifact" | "tool" | "technique"
    category: str | None = None


@dataclass(frozen=True)
class Condition:
    id: str
    description: str
    terms: tuple[tuple[str, str], ...]  # ("FLAG", flag) | ("HIGH" | "LOW", metric)


@dataclass(frozen=True)
class Rule:
    id: str
    title: str
    metric: str
    level: str  # "HIGH" | "LOW"
    sign: str  # "POSITIVE" | "NEGATIVE"
    element: str
    condition: str | None
    rationale: str


@dataclass(frozen=True)
class Scenario:
    profile: str
    flags: frozenset[str]
    thresholds: tuple[int, int] = (33, 67)
    elements: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DiffPair:
    kind: str  # "flag" | "profiles" | "thresholds"
    a: Scenario
    b: Scenario


class Spec:
    """A knowledge base as records, with the indexes the checks need."""

    def __init__(self, metrics, elements, conditions, rules, profiles, flags):
        self.metrics: tuple[Metric, ...] = tuple(metrics)
        self.elements: tuple[Element, ...] = tuple(elements)
        self.conditions: dict[str, Condition] = {c.id: c for c in conditions}
        self.rules: tuple[Rule, ...] = tuple(rules)
        self.profiles: dict[str, dict[str, int]] = dict(profiles)
        self.flags: tuple[str, ...] = tuple(flags)
        self.eligible: tuple[str, ...] = tuple(sorted(
            e.id for e in self.elements if e.kind in ("practice", "role")))
        self.rule_index: dict[str, Rule] = {r.id: r for r in self.rules}
        by_element: dict[str, list[Rule]] = {}
        for rule in self.rules:
            by_element.setdefault(rule.element, []).append(rule)
        self.rules_by_element = by_element
        self.covered = {(r.metric, r.element) for r in self.rules}
        #: Element ids, most-ruled first.
        self.most_ruled = [eid for _, eid in sorted(
            ((len(rs), eid) for eid, rs in by_element.items()), reverse=True)]


def synthetic(seed: int) -> Spec:
    rng = random.Random(seed)
    metrics = [Metric(f"HOF{i:02d}", "hofstede") for i in range(1, HOFSTEDE_METRICS + 1)]
    metrics += [Metric(f"CVM{i:02d}", "cvm") for i in range(1, CVM_METRICS + 1)]
    rng.shuffle(metrics)

    categories = [f"category_{i:02d}" for i in range(1, PRACTICE_CATEGORIES + 1)]
    elements = [Element(f"practice_{i:04d}", "practice",
                        categories[i % PRACTICE_CATEGORIES] if i <= PRACTICE_CATEGORIES
                        else rng.choice(categories))
                for i in range(1, PRACTICES + 1)]
    elements += [Element(f"role_{i:03d}", "role") for i in range(1, ROLES + 1)]
    for kind, count in OUTSIDE_MATRIX.items():
        elements += [Element(f"{kind}_{i:02d}", kind) for i in range(1, count + 1)]

    flags = [f"flag_{i:02d}" for i in range(1, FLAGS + 1)]
    conditions = []
    for i in range(1, CONDITIONS + 1):
        terms = [("FLAG", f) for f in rng.sample(flags, rng.choice((1, 1, 2)))]
        if i % 2 == 0:  # half the conditions add a HIGH/LOW metric predicate
            terms.append((rng.choice(("HIGH", "LOW")), rng.choice(metrics).id))
        conditions.append(Condition(f"IC{i:02d}", f"synthetic precondition {i}",
                                    tuple(terms)))

    targets = [e.id for e in elements if e.kind in ("practice", "role")]
    rng.shuffle(targets)
    relations: set[tuple[str, str, str | None]] = set()
    rules = []
    for element, count in zip(targets, rule_counts(len(targets))):
        while count:
            metric = rng.choice(metrics).id
            condition = rng.choice(conditions).id if rng.random() < GATED_SHARE else None
            if (metric, element, condition) in relations:
                continue
            relations.add((metric, element, condition))
            count -= 1
            rules.append((metric, element, condition))
    rng.shuffle(rules)
    rules = [Rule(
        id=f"R{n:05d}",
        title=f"synthetic relation {n}" if rng.random() < 0.8 else "",
        metric=metric,
        level=rng.choice(("HIGH", "LOW")),
        sign=rng.choice(("POSITIVE", "NEGATIVE")),
        element=element,
        condition=condition,
        rationale=f"generated rationale {n}" if rng.random() < 0.7 else "",
    ) for n, (metric, element, condition) in enumerate(rules, start=1)]

    profiles = {}
    for i in range(1, PROFILES + 1):
        profiles[f"team_{i:02d}"] = {
            m.id: rng.randint(0, 100) for m in metrics if rng.random() < PROFILE_COVERAGE}
    return Spec(metrics, elements, conditions, rules, profiles, flags)


def rule_counts(elements: int) -> list[int]:
    """Rules per element by rank, summing to RULES (see TARGET_SKEW)."""
    share = [((r + 1) / elements) ** (1 / TARGET_SKEW) - (r / elements) ** (1 / TARGET_SKEW)
             for r in range(elements)]
    counts = [int(RULES * s) for s in share]
    for r in range(RULES - sum(counts)):
        counts[r % elements] += 1
    return counts


def seed_paper_spec(seed_dir: Path) -> Spec:
    """The bundled seed KB: catalog from its JSON files, rules as in the paper.

    Rules H4-H6 and condition IC1 are written out here from the paper, not
    read from the program's rule file, so the checks test its parser too.
    """
    metrics, elements, profiles = [], [], {}
    for path in sorted(seed_dir.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, list):
            continue
        for item in payload:
            if "kind" in item:
                elements.append(Element(item["id"], item["kind"], item.get("category")))
            elif "values" in item:
                profiles[item["name"]] = dict(item["values"])
            else:
                metrics.append(Metric(item["id"], item["source"]))
    conditions = [Condition("IC1", "manager attends the meeting",
                            (("FLAG", "manager_attends_meeting"),))]
    rules = [
        Rule("H4", "in-depth discussions of questions", "UAI", "HIGH", "POSITIVE",
             "planning_meeting", None, ""),
        Rule("H5", "communication of done work", "MAS", "HIGH", "NEGATIVE",
             "review_meeting", "IC1", ""),
        Rule("H6", "open communication (of problems)", "PDI", "HIGH", "NEGATIVE",
             "daily_meeting", "IC1", ""),
    ]
    return Spec(metrics, elements, conditions, rules, profiles,
                ["manager_attends_meeting"])


# --- files -------------------------------------------------------------------

def _rule_line(rule: Rule) -> str:
    head = f"RULE {rule.id}" + (f' "{rule.title}"' if rule.title else "") + ":"
    body = f"IF {rule.condition} THEN " if rule.condition else ""
    body += f"{rule.level} {rule.metric} IMPACTS {rule.element} {rule.sign}"
    if rule.rationale:
        body += f' BECAUSE "{rule.rationale}"'
    return f"{head} {body}"


def _condition_line(cond: Condition) -> str:
    terms = " AND ".join(f"{kw} {ident}" for kw, ident in cond.terms)
    return f'CONDITION {cond.id} "{cond.description}": {terms}'


def write_kb(spec: Spec, out: Path) -> list[Path]:
    """Write the knowledge-base files of a spec into a directory."""
    out.mkdir(parents=True, exist_ok=True)

    def dump(name, payload):
        (out / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    dump("metrics.json", [
        {"id": m.id, "name": f"metric {m.id}",
         "level": "national" if m.source == "hofstede" else "organizational",
         "low_pole": "low pole", "high_pole": "high pole", "source": m.source}
        for m in spec.metrics])
    dump("elements.json", [
        {"id": e.id, "name": e.id.replace("_", " "), "kind": e.kind,
         **({"category": e.category} if e.category else {})}
        for e in spec.elements])
    dump("profiles.json", [{"name": n, "values": v} for n, v in spec.profiles.items()])
    practices = [e for e in spec.elements if e.kind == "practice"]
    dump("manifest.json", {
        "metrics": len(spec.metrics),
        "practices": len(practices),
        "roles": sum(1 for e in spec.elements if e.kind == "role"),
        "practice_categories": len({p.category for p in practices}),
    })
    (out / "conditions.moca").write_text(
        "# synthetic conditions\n"
        + "".join(_condition_line(c) + "\n" for c in spec.conditions.values()),
        encoding="utf-8")
    per_file = -(-len(spec.rules) // RULE_FILES)
    for i in range(RULE_FILES):
        chunk = spec.rules[i * per_file:(i + 1) * per_file]
        (out / f"rules_{i + 1}.moca").write_text(
            "".join(_rule_line(r) + "\n" for r in chunk), encoding="utf-8")
    return sorted(p for p in out.iterdir() if p.suffix in (".json", ".moca"))


# --- scenarios ---------------------------------------------------------------

def _random_flags(rng: random.Random, spec: Spec) -> frozenset[str]:
    return frozenset(f for f in spec.flags if rng.random() < 0.5)


def evaluate_scenario(rng: random.Random, spec: Spec,
                      thresholds: tuple[int, int] | None = None) -> Scenario:
    return Scenario(rng.choice(sorted(spec.profiles)), _random_flags(rng, spec),
                    thresholds or rng.choice(SYMMETRIC_THRESHOLDS))


def selected_scenario(rng: random.Random, spec: Spec, size: int | None = None,
                      anchor: str | None = None) -> Scenario:
    """`size` elements (1-8 at random by default), among them `anchor`, or
    else one of the ten most-ruled elements."""
    chosen = {anchor or rng.choice(spec.most_ruled[:10])}
    while len(chosen) < (size or rng.randint(1, 8)):
        chosen.add(rng.choice(spec.eligible))
    base = evaluate_scenario(rng, spec)
    return Scenario(base.profile, base.flags, base.thresholds, tuple(sorted(chosen)))


def diff_pair(rng: random.Random, spec: Spec, kind: str) -> DiffPair:
    a = Scenario(rng.choice(sorted(spec.profiles)), _random_flags(rng, spec))
    if kind == "flag":
        b = Scenario(a.profile, a.flags ^ {rng.choice(spec.flags)})
    elif kind == "profiles":
        other = rng.choice([p for p in sorted(spec.profiles) if p != a.profile])
        b = Scenario(other, a.flags)
    else:
        low = rng.randint(15, 45)
        b = Scenario(a.profile, a.flags, (low, rng.randint(low + 10, 85)))
    return DiffPair(kind, a, b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory to write the knowledge-base files into")
    args = parser.parse_args(argv)
    from reference import evaluate as ref_evaluate  # not at the top: it imports kbgen

    spec = synthetic(args.seed)
    files = write_kb(spec, args.out)
    rng = random.Random(args.seed)
    buckets = {"fired": [], "gated": [], "indeterminate": [], "dormant": []}
    for _ in range(20):
        scenario = evaluate_scenario(rng, spec)
        results = ref_evaluate(spec, scenario)
        for name in buckets:
            buckets[name].append(sum(len(getattr(r, name)) for r in results.values()))
    conditioned = sum(1 for r in spec.rules if r.condition)
    summary = {
        "files": [p.name for p in files],
        "metrics": len(spec.metrics),
        "elements": len(spec.elements),
        "matrix_elements": len(spec.eligible),
        "conditions": len(spec.conditions),
        "rules": len(spec.rules),
        "gated_share": round(conditioned / len(spec.rules), 3),
        "covered_cells": len(spec.covered),
        "most_ruled": {e: len(spec.rules_by_element[e]) for e in spec.most_ruled[:3]},
        "median_buckets_per_evaluate": {
            name: sorted(v)[len(v) // 2] for name, v in buckets.items()},
    }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
