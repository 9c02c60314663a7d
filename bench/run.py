"""moca benchmark: CLI wall time and library throughput, with correctness checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports moca from ./src and runs the CLI
as ``python -m moca.cli`` with ./src on PYTHONPATH; nothing needs installing.
Workloads (each a closed loop with one client, in one process):

  seed_cli      the bundled seed KB; six CLI commands as subprocesses
  large_cli     a seeded 50 x 2,000 x 20,000-rule KB; the same commands
  whatif_sweep  the same KB loaded once; library calls over seeded scenarios

Every operation's output is checked against the reference evaluator in
reference.py (and, on the seed KB, against the paper's facts) outside the
timed region; a failed check counts as a failed operation. Times are
normalized to the speed of a bare interpreter start-up measured around each
timed group (see Tally). With --trace 0 the last line of stdout holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run. Inputs and traces are written under ./.bench_out; only the
trace file stays. bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import kbgen
import reference as ref
from kbgen import DiffPair, Scenario, Spec
from reference import CheckError, Outcome, expect
from tracing import Tracer, counting, median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "validate_ms": "ms",
    "evaluate_ms": "ms",
    "element_evaluate_ms": "ms",
    "explain_ms": "ms",
    "diff_ms": "ms",
    "matrix_ms": "ms",
    "peak_rss_mib": "MiB",
}
OP_KINDS = ("validate", "evaluate", "element_evaluate", "explain", "diff", "matrix")
CLI_SELF = ("validate", "evaluate", "explain", "diff", "matrix")
PER_LAYER = {
    "cli.import_ms": "ms",
    **{f"cli.self_ms.{cmd}": "ms" for cmd in CLI_SELF},
    "dsl.parse_ms": "ms",
    "dsl.parse_rules_per_s": "1/s",
    "kb.load.self_ms": "ms",
    "kb.construct_ms": "ms",
    "kb.validate_completeness_ms": "ms",
    "kb.load.peak_alloc_mib": "MiB",
    "engine.evaluate_ms": "ms",
    "engine.evaluate_selected_ms": "ms",
    "engine.diff_ms": "ms",
    "engine.export_matrix_ms": "ms",
    "model.level_of_calls_per_evaluate": "count",
    "model.normalize_calls_per_evaluate": "count",
    "moca.src_lines": "lines",
    "trace.overhead_pct": "%",
}
#: Time samples are scaled to an interpreter start-up of this length (see Tally).
FLOOR_REF_NS = 50_000_000
FLOOR_STARTS = 3
#: In-process set-ups per run; setup_s is their median.
SETUP_REPS = {"seed_cli": 15, "large_cli": 3, "whatif_sweep": 3}


class PreflightError(Exception):
    pass


# --- the program under test ----------------------------------------------------

class Lib:
    """moca's modules, imported from ./src. Calls go through the module
    attributes so that a Tracer sees them."""

    def __init__(self):
        import moca
        import moca.cli
        self.moca = moca
        self.cli, self.kb = moca.cli, moca.kb
        self.dsl, self.engine, self.model = moca.dsl, moca.engine, moca.model

    def context(self, kb, sc: Scenario):
        return self.engine.EvaluationContext(
            profile=kb.profile(sc.profile), flags=sc.flags,
            thresholds=sc.thresholds, elements=sc.elements)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MOCA_KB_PATH", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def preflight() -> Lib:
    """Make sure both this process and a CLI child import ./src/moca."""
    package = (SRC / "moca").resolve()
    if not (package / "__init__.py").is_file():
        raise PreflightError(f"no moca package under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    lib = Lib()
    if Path(lib.moca.__file__).resolve().parent != package:
        raise PreflightError(f"imported moca from {lib.moca.__file__}, not {package}")
    probe = subprocess.run(
        [sys.executable, "-c", "import moca.cli; print(moca.cli.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    child = probe.stdout.strip()
    if probe.returncode != 0 or Path(child).resolve() != package / "cli.py":
        raise PreflightError(f"CLI child imports moca.cli from {child!r}: {probe.stderr}")
    return lib


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).is_file():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, nproc: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "moca").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    floor = []
    for _ in range(5):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
        floor.append((perf_counter_ns() - t0) / 1e6)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "host": platform.node(),
        "platform": platform.platform(), "nproc": nproc,
        "startup_floor_ms": statistics.median(floor),
    }


# --- operations -----------------------------------------------------------------

@dataclass
class Op:
    kind: str
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # raises CheckError


@dataclass
class CliCommand:
    kind: str
    argv: list[str]
    check: Callable[[str], None]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str = ""
    elapsed_ns: int | None = None  # spawn to exit, as the spawner timed it
    rss_kib: int | None = None


class CliRunner:
    """Runs CLI commands as subprocesses, or in-process for the traced run.

    Subprocesses are started by spawner.py, so that their peak RSS is their
    own. A command's output is checked in full the first time; later outputs
    of the same command must be byte-identical to that checked output.
    """

    def __init__(self, lib: Lib, workdir: Path, in_process: bool):
        self.lib, self.in_process = lib, in_process
        self.out_path, self.err_path = workdir / "stdout.txt", workdir / "stderr.txt"
        self.verified: dict[str, str] = {}
        self.floors: list[int] = []
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait(timeout=60)

    def _request(self, argv: list[str]) -> dict:
        request = {"argv": [sys.executable, *argv],
                   "stdout": str(self.out_path), "stderr": str(self.err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def floor_ns(self) -> int:
        """Spawn-to-exit time of a bare interpreter start-up, the median of
        FLOOR_STARTS (one start-up alone varies by about 10%)."""
        self.floors.append(statistics.median(
            self._request(["-c", "pass"])["elapsed_ns"] for _ in range(FLOOR_STARTS)))
        return self.floors[-1]

    def spawn(self, argv: list[str]) -> CliResult:
        reply = self._request(["-m", "moca.cli", *argv])
        return CliResult(reply["code"], self.out_path.read_text(encoding="utf-8"),
                         self.err_path.read_text(encoding="utf-8", errors="replace"),
                         reply["elapsed_ns"], reply["maxrss_kib"])

    def call(self, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return CliResult(code, out.getvalue(), err.getvalue())

    def op(self, cmd: CliCommand) -> Op:
        def run():
            return self.call(cmd.argv) if self.in_process else self.spawn(cmd.argv)

        def check(result: CliResult):
            expect(result.code == 0,
                   f"{' '.join(cmd.argv[:1])} exited {result.code}: {result.stderr[:300]}")
            key = " ".join(cmd.argv)
            if self.verified.get(key) != result.stdout:
                cmd.check(result.stdout)
                self.verified[key] = result.stdout

        return Op(cmd.kind, run, check)


def scenario_args(sc: Scenario) -> list[str]:
    args = ["--profile", sc.profile]
    for flag in sorted(sc.flags):
        args += ["--flag", flag]
    if sc.thresholds != (33, 67):
        args += ["--thresholds", "%d,%d" % sc.thresholds]
    for element in sc.elements or ():
        args += ["--element", element]
    return args


def diff_args(pair: DiffPair) -> list[str]:
    expect(pair.a.thresholds == pair.b.thresholds, "CLI diffs share one threshold pair")
    args = ["--profile-a", pair.a.profile, "--profile-b", pair.b.profile]
    for flag in sorted(pair.a.flags & pair.b.flags):
        args += ["--flag", flag]
    for flag in sorted(pair.a.flags - pair.b.flags):
        args += ["--flag-a", flag]
    for flag in sorted(pair.b.flags - pair.a.flags):
        args += ["--flag-b", flag]
    return args


def check_validate_json(spec: Spec, text: str):
    payload = json.loads(text)
    summary = payload["summary"]
    expect(payload["valid"] is True, "validate reports the KB invalid")
    expect(summary["rules"] == len(spec.rules),
           f"validate parsed {summary['rules']} rules, {len(spec.rules)} were generated")
    expect((summary["metrics"], summary["elements"], summary["conditions"])
           == (len(spec.metrics), len(spec.elements), len(spec.conditions)),
           f"validate summary {summary} does not match the generated KB")
    codes = [f["code"] for f in payload["findings"]]
    expect(set(codes) <= {"uncovered-cell"}, f"unexpected findings {sorted(set(codes))}")
    ref.check_uncovered(spec, codes.count("uncovered-cell"))


def large_cli_commands(spec: Spec, kb_dir: Path, seed: int) -> list[CliCommand]:
    # Default thresholds: how many rules fire, and so how much output there
    # is, should not depend on the seed.
    rng = random.Random(f"{seed}:cli")
    full = kbgen.evaluate_scenario(rng, spec, (33, 67))
    selected = replace(kbgen.selected_scenario(rng, spec), thresholds=(33, 67))
    pair = kbgen.diff_pair(rng, spec, "flag")
    rule = rng.choice([r for r in spec.rules if r.condition and r.rationale])
    kb = ["--kb", str(kb_dir)]

    def evaluated(sc):
        def check(text):
            got, statuses = ref.outcomes_from_json(json.loads(text))
            ref.check_evaluate(spec, sc, got, statuses)
        return check

    return [
        CliCommand("validate", ["validate", *kb, "--format", "json"],
                   lambda text: check_validate_json(spec, text)),
        CliCommand("evaluate", ["evaluate", *kb, "--format", "json", *scenario_args(full)],
                   evaluated(full)),
        CliCommand("element_evaluate",
                   ["evaluate", *kb, "--format", "json", *scenario_args(selected)],
                   evaluated(selected)),
        CliCommand("explain", ["explain", *kb, rule.id],
                   lambda text: ref.check_explain_text(spec, rule.id, text)),
        CliCommand("diff", ["diff", *kb, "--format", "json", *diff_args(pair)],
                   lambda text: ref.check_diff(
                       spec, pair, ref.diffs_from_json(json.loads(text)), True)),
        CliCommand("matrix", ["matrix", *kb],
                   lambda text: ref.check_matrix(spec, *ref.matrix_from_csv(text))),
    ]


# Paper facts about the seed KB (rules H4-H6, condition IC1).
FLAG = "manager_attends_meeting"
SEED_FULL = Scenario("strong_hierarchy", frozenset({FLAG}))
SEED_SELECTED = Scenario("strong_hierarchy", frozenset(),
                         elements=("daily_meeting", "planning_meeting", "review_meeting"))
SEED_PAIR = DiffPair("flag", SEED_FULL, Scenario("strong_hierarchy", frozenset()))


def seed_cli_commands(spec: Spec) -> list[CliCommand]:
    def check_validate(text):
        lines = text.splitlines()
        uncovered = sum(line.startswith("warning uncovered-cell") for line in lines)
        expect(not any(line.startswith("error ") for line in lines), "validate reports errors")
        expect(uncovered == 381, f"validate reports {uncovered} uncovered cells, not 381")
        ref.check_uncovered(spec, uncovered)
        expect("rules: 3" in lines, "validate does not report the paper's 3 rules")

    def check_full(text):
        got = ref.outcomes_from_text(text)
        ref.check_evaluate(spec, SEED_FULL, got)
        expect(got["planning_meeting"].fired == {"H4": (1, "high")}, "H4 is not +1")
        expect(got["review_meeting"].fired == {"H5": (-1, "high")}, "H5 is not -1")
        expect(got["daily_meeting"].fired == {"H6": (-1, "high")}, "H6 is not -1")

    def check_selected(text):
        got = ref.outcomes_from_text(text)
        ref.check_evaluate(spec, SEED_SELECTED, got)
        expect(got["review_meeting"].gated == {"H5"} and got["daily_meeting"].gated == {"H6"},
               "without the flag, H5 and H6 are not gated")

    def check_diff(text):
        got = ref.diffs_from_text(text)
        ref.check_diff(spec, SEED_PAIR, got, True)
        expect({e: d[2] for e, d in got.items()} == {"review_meeting": 1, "daily_meeting": 1},
               "the diff does not show exactly review_meeting and daily_meeting at +1")

    def check_explain(text):
        ref.check_explain_text(spec, "H6", text)
        for name in ("PDI", "daily_meeting", "IC1"):
            expect(name in text, f"explain H6 does not name {name}")

    return [
        CliCommand("validate", ["validate"], check_validate),
        CliCommand("evaluate", ["evaluate", *scenario_args(SEED_FULL)], check_full),
        CliCommand("element_evaluate", ["evaluate", *scenario_args(SEED_SELECTED)],
                   check_selected),
        CliCommand("explain", ["explain", "H6"], check_explain),
        CliCommand("diff", ["diff", "--profile", "strong_hierarchy", "--flag-a", FLAG],
                   check_diff),
        CliCommand("matrix", ["matrix"],
                   lambda text: ref.check_matrix(spec, *ref.matrix_from_csv(text))),
    ]


# --- reading library results --------------------------------------------------------

def outcomes(assessments) -> tuple[dict[str, Outcome], dict[str, str]]:
    got, statuses = {}, {}
    for a in assessments:
        fired = {}
        for c in a.contributions:
            fired[c.rule_id] = (c.value, c.fired_level.value)
            statuses[c.rule_id] = c.condition_status.value
        got[a.element] = Outcome(fired, frozenset(a.gated_rules),
                                 frozenset(a.indeterminate_rules), a.score, a.label.value)
    return got, statuses


def term_record(term) -> tuple[str, str]:
    if hasattr(term, "flag"):
        return ("FLAG", term.flag)
    return (term.level.name, term.metric)


class Sweep:
    """Library calls on one loaded KB over seeded what-if scenarios."""

    #: Operations of one round, by kind and count. Every round has the same
    #: make-up, so a run's medians do not depend on which scenarios its seed
    #: drew: one full evaluation per symmetric threshold pair, restricted
    #: evaluations of 1..8 elements anchored on the 8 most-ruled elements,
    #: and one diff of each kind.
    ROUND = (("evaluate", len(kbgen.SYMMETRIC_THRESHOLDS)), ("element_evaluate", 8),
             ("explain", 4), ("diff", 3), ("validate", 1), ("matrix", 1))
    DIFF_KINDS = ("flag", "profiles", "thresholds")
    EXPLAINED_RULES = 64

    def __init__(self, lib: Lib, spec: Spec, kb, seed: int):
        self.lib, self.spec, self.kb, self.seed = lib, spec, kb, seed
        self.rule_ids = sorted(spec.rule_index)

    def round(self, index: int) -> list[list[Op]]:
        rng = random.Random(f"{self.seed}:sweep:{index}")
        return [[getattr(self, "_" + kind)(rng, i) for i in range(count)]
                for kind, count in self.ROUND]

    def _evaluate(self, rng, i):
        sc = kbgen.evaluate_scenario(rng, self.spec, kbgen.SYMMETRIC_THRESHOLDS[i])
        ctx = self.lib.context(self.kb, sc)

        def check(result):
            ref.check_evaluate(self.spec, sc, *outcomes(result))
        return Op("evaluate", lambda: self.lib.engine.evaluate(self.kb, ctx), check)

    def _element_evaluate(self, rng, i):
        sc = kbgen.selected_scenario(rng, self.spec, i + 1, self.spec.most_ruled[i])
        ctx = self.lib.context(self.kb, sc)

        def check(result):
            got, statuses = outcomes(result)
            ref.check_evaluate(self.spec, sc, got, statuses)
            values = self.kb.profile(sc.profile).values
            inverse = self.lib.engine.EvaluationContext(
                profile=self.lib.model.CulturalProfile(
                    "inverse", {m: 100 - v for m, v in values.items()}),
                flags=sc.flags, thresholds=sc.thresholds, elements=sc.elements)
            inv_got, inv_statuses = outcomes(self.lib.engine.evaluate(self.kb, inverse))
            unconditioned = {r for st in (statuses, inv_statuses)
                             for r, s in st.items() if s == "not_applicable"}
            ref.check_inversion(got, inv_got, unconditioned)
        return Op("element_evaluate", lambda: self.lib.engine.evaluate(self.kb, ctx), check)

    def _diff(self, rng, i):
        pair = kbgen.diff_pair(rng, self.spec, self.DIFF_KINDS[i % len(self.DIFF_KINDS)])
        ctx_a, ctx_b = self.lib.context(self.kb, pair.a), self.lib.context(self.kb, pair.b)

        def check(result):
            got = {d.element: (d.score_a, d.score_b, d.delta, frozenset(d.rules_changed))
                   for d in result}
            ref.check_diff(self.spec, pair, got, False)
        return Op("diff", lambda: self.lib.engine.diff(self.kb, ctx_a, ctx_b), check)

    def _validate(self, rng, _):
        def check(report):
            codes = [f.code for f in report.findings]
            expect(set(codes) <= {"uncovered-cell"}, f"unexpected findings {set(codes)}")
            ref.check_uncovered(self.spec, codes.count("uncovered-cell"))
        return Op("validate", lambda: self.lib.kb.validate_completeness(self.kb), check)

    def _matrix(self, rng, _):
        def check(matrix):
            expect(matrix.cell_count == len(matrix.metrics) * len(matrix.elements),
                   f"matrix cell_count {matrix.cell_count}")
            cells = {}
            for m in matrix.metrics:
                for e in matrix.elements:
                    entries = matrix.cell(m, e)
                    if entries:
                        cells[(m, e)] = {
                            f"{x.rule_id}:{x.stated_level.name}:{x.sign.name}"
                            + (f"@{x.condition}" if x.condition else "") for x in entries}
            ref.check_matrix(self.spec, matrix.metrics, matrix.elements, cells)
        return Op("matrix", lambda: self.lib.engine.export_matrix(self.kb), check)

    def _explain(self, rng, _):
        rule_ids = rng.sample(self.rule_ids, self.EXPLAINED_RULES)
        kb = self.kb

        def run():
            found = []
            for rule_id in rule_ids:
                rule = kb.rule(rule_id)
                condition = kb.condition(rule.condition) if rule.condition else None
                found.append((rule, condition, kb.metric(rule.metric),
                              kb.element(rule.element)))
            return found

        def check(found):
            for rule, condition, metric, element in found:
                want = self.spec.rule_index[rule.id]
                expect((rule.metric, rule.element, rule.condition, rule.stated_level.name,
                        rule.sign.name, rule.title, rule.rationale)
                       == (want.metric, want.element, want.condition, want.level,
                           want.sign, want.title, want.rationale),
                       f"rule {rule.id} differs from its record")
                expect((metric.id, element.id) == (want.metric, want.element),
                       f"rule {rule.id}: wrong metric or element")
                if want.condition:
                    expect(tuple(map(term_record, condition.terms))
                           == self.spec.conditions[want.condition].terms,
                           f"condition {want.condition} differs from its record")
        return Op("explain", run, check)


# --- the measured loop --------------------------------------------------------------

class Tally:
    """Attempted and failed operations, and normalized time samples by kind.

    On a shared host a core's speed can change by up to 1.7x for seconds at
    a time, so a raw median depends on how much of a run fell into slow
    spells. Each
    timed group is therefore bracketed by two start-ups of a bare
    interpreter (``python -c pass``, which runs no moca code), and its time
    is scaled to a start-up of FLOOR_REF_NS: raw * FLOOR_REF_NS / mean of
    the two. A start-up is, like the timed work, memory- and
    allocation-heavy Python and kernel work, and slows with it.
    """

    def __init__(self, runner: "CliRunner"):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.samples: dict[str, list[float]] = {}
        self.rss_kib: dict[str, list[int]] = {}

    def run_round(self, groups: list[list[Op]]):
        """Time each group of ops between two start-up floors, then check
        every output. One sample per op."""
        timed = []
        before = self.runner.floor_ns()
        for ops in groups:
            done = []
            for op in ops:
                self.attempted += 1
                t0 = perf_counter_ns()
                try:
                    result = op.run()
                except Exception:  # a program fault: count it and keep measuring
                    self.failed += 1
                    if self.failed <= 3:
                        traceback.print_exc()
                    continue
                done.append((op, result, getattr(result, "elapsed_ns", None)
                             or perf_counter_ns() - t0))
            after = self.runner.floor_ns()
            timed.append((done, FLOOR_REF_NS * 2 / (before + after)))
            before = after
        for done, scale in timed:
            for op, result, elapsed in done:
                try:
                    op.check(result)
                except (CheckError, KeyError, ValueError, TypeError) as exc:
                    self.failed += 1
                    self.check_failures += 1
                    if self.check_failures <= 5:
                        print(f"check failed ({op.kind}): {exc!r}", file=sys.stderr)
                self.samples.setdefault(op.kind, []).append(elapsed * scale)
                if getattr(result, "rss_kib", None):
                    self.rss_kib.setdefault(op.kind, []).append(result.rss_kib)

    def median_ms(self, kind: str) -> float:
        return statistics.median(self.samples[kind]) / 1e6


Rounds = Callable[[int], list[list[Op]]]


def measure(rounds: Rounds, seconds: float, tally: Tally):
    """Run whole rounds until `seconds` have passed."""
    start, index = perf_counter(), 0
    while True:
        tally.run_round(rounds(index))
        index += 1
        if perf_counter() - start >= seconds:
            return


def timed_setups(lib: Lib, paths, spec: Spec, scenario: Scenario, reps: int,
                 runner: "CliRunner"):
    """Load the KB and evaluate once, `reps` times; returns the last KB and
    the normalized seconds (see Tally) of each repetition."""
    times = []
    for _ in range(reps):
        gc.collect()
        before = runner.floor_ns()
        t0 = perf_counter_ns()
        kb = lib.kb.load_kb(paths)
        lib.engine.evaluate(kb, lib.context(kb, scenario))
        raw_ns = perf_counter_ns() - t0
        times.append(raw_ns * 2 / (before + runner.floor_ns()) * FLOOR_REF_NS / 1e9)
        expect(len(kb.rules) == len(spec.rules),
               f"{len(kb.rules)} rules parsed, {len(spec.rules)} generated")
    return kb, times


# --- the traced run -----------------------------------------------------------------

def make_tracer(lib: Lib) -> Tracer:
    def cli_name(args):
        argv = args[0]
        kind = "element_evaluate" if "--element" in argv else argv[0]
        return f"cli.main.{kind}"

    def evaluate_name(args):
        return "engine.evaluate" if args[1].elements is None else "engine.evaluate_selected"

    tracer = Tracer()
    tracer.add(lib.cli, "main", "cli.main", cli_name)
    tracer.add(lib.kb, "load", "kb.load")
    tracer.add(lib.kb, "validate_completeness", "kb.validate_completeness")
    tracer.add(lib.dsl, "parse", "dsl.parse")
    tracer.add(lib.engine, "evaluate", "engine.evaluate", evaluate_name)
    tracer.add(lib.engine, "diff", "engine.diff")
    tracer.add(lib.engine, "export_matrix", "engine.export_matrix")
    return tracer


def import_ms() -> float:
    """Cumulative -X importtime of the moca modules that `import moca.cli` loads."""
    runs = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import moca.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True)
        total = 0
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            # Top-level entries only: nested imports are part of their parent.
            if len(parts) == 3 and (parts[2] == "moca" or parts[2].startswith("moca.")):
                total += int(parts[1])
        runs.append(total / 1000)
    return statistics.median(runs)


def probes(lib: Lib, kb, paths, spec: Spec, scenarios: list[Scenario]) -> dict:
    out = {}
    gc.collect()
    tracemalloc.start()
    try:
        lib.kb.load_kb(paths)
        out["kb.load.peak_alloc_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    construct = []
    for _ in range(3):
        t0 = perf_counter_ns()
        lib.kb.KnowledgeBase(metrics=kb.metrics, elements=kb.elements,
                             conditions=kb.conditions, rules=kb.rules,
                             manifest=kb.manifest, profiles=kb.profiles)
        construct.append((perf_counter_ns() - t0) / 1e6)
    out["kb.construct_ms"] = statistics.median(construct)
    calls = {"level_of": [], "normalize": []}
    for sc in scenarios:
        with counting(lib.engine, list(calls)) as counts:
            lib.engine.evaluate(kb, lib.context(kb, sc))
        for name in calls:
            calls[name].append(counts[name])
    out["model.level_of_calls_per_evaluate"] = statistics.median(calls["level_of"])
    out["model.normalize_calls_per_evaluate"] = statistics.median(calls["normalize"])
    out["cli.import_ms"] = import_ms()
    out["moca.src_lines"] = sum(
        1 for path in (SRC / "moca").glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip())
    return out


def layer_metrics(tracer: Tracer, n_rules: int) -> dict:
    parse_ms = median(tracer.child_totals_ms("kb.load", "dsl.parse"))
    out = {f"cli.self_ms.{cmd}": median(tracer.durations_ms(f"cli.main.{cmd}", True))
           for cmd in CLI_SELF}
    out.update({
        "dsl.parse_ms": parse_ms,
        "dsl.parse_rules_per_s": n_rules / (parse_ms / 1000) if parse_ms else None,
        "kb.load.self_ms": median(tracer.durations_ms("kb.load", True)),
        "kb.validate_completeness_ms": median(tracer.durations_ms("kb.validate_completeness")),
    })
    for name in ("evaluate", "evaluate_selected", "diff", "export_matrix"):
        out[f"engine.{name}_ms"] = median(tracer.durations_ms(f"engine.{name}"))
    return out


# --- workloads ----------------------------------------------------------------------

def run_workload(args, lib: Lib, workdir: Path, record: dict) -> tuple[Tally, dict]:
    traced = bool(args.trace)
    if args.workload == "seed_cli":
        spec = kbgen.seed_paper_spec(lib.kb.seed_dir())
        paths = lib.kb.seed_kb_paths()
        commands = seed_cli_commands(spec)
        count_scenarios = [SEED_FULL]
    else:
        spec = kbgen.synthetic(args.seed)
        paths = kbgen.write_kb(spec, workdir / "kb")
        commands = large_cli_commands(spec, workdir / "kb", args.seed)
        rng = random.Random(f"{args.seed}:count")
        count_scenarios = [kbgen.evaluate_scenario(rng, spec) for _ in range(3)]

    runner = CliRunner(lib, workdir, in_process=traced)
    try:
        tally = Tally(runner)
        setup_scenario = SEED_FULL if args.workload == "seed_cli" else count_scenarios[0]
        try:
            kb, setup_times = timed_setups(lib, paths, spec, setup_scenario,
                                           SETUP_REPS[args.workload], runner)
        except CheckError as exc:
            print(f"set-up check failed: {exc}", file=sys.stderr)
            tally.check_failures += 1
            kb, setup_times = lib.kb.load_kb(paths), []
        # Objects alive now (the KB, the generator's records) live to the end;
        # freezing them keeps collections in the timed loop from walking them.
        gc.collect()
        gc.freeze()

        if args.workload == "whatif_sweep":
            rounds = Sweep(lib, spec, kb, args.seed).round
        else:
            groups = [[runner.op(cmd)] for cmd in commands]
            rounds = lambda _index: groups  # noqa: E731

        if not traced:
            measure(rounds, args.seconds, tally)
            metrics = {f"{kind}_ms": tally.median_ms(kind) for kind in OP_KINDS}
            metrics["setup_s"] = statistics.median(setup_times) if setup_times else None
            if args.workload == "whatif_sweep":
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                rss = max(statistics.median(v) for v in tally.rss_kib.values())
            metrics["peak_rss_mib"] = rss / 1024
            return tally, metrics

        # Traced run: alternate untraced and traced rounds, then probe the
        # layers the loop does not reach.
        tracer = make_tracer(lib)
        plain, traced_tally, probe = Tally(runner), Tally(runner), Tally(runner)
        start, index = perf_counter(), 0
        while (perf_counter() - start < args.seconds or not plain.attempted
               or not traced_tally.attempted):
            part = traced_tally if index % 2 else plain
            with tracer if part is traced_tally else contextlib.nullcontext():
                part.run_round(rounds(index // 2))
            index += 1
        if args.workload == "whatif_sweep":
            with tracer:
                probe.run_round([[runner.op(cmd)] for cmd in commands])
        for part in (plain, traced_tally, probe):
            tally.attempted += part.attempted
            tally.failed += part.failed
            tally.check_failures += part.check_failures
        metrics = layer_metrics(tracer, len(spec.rules))
        metrics.update(probes(lib, kb, paths, spec, count_scenarios))
        # Layer times are scaled like the end-to-end ones, by the run's
        # median start-up floor, so traces from different runs compare.
        scale = FLOOR_REF_NS / statistics.median(runner.floors)
        for name, unit in PER_LAYER.items():
            if metrics.get(name) is not None and unit in ("ms", "1/s"):
                metrics[name] *= scale if unit == "ms" else 1 / scale
        kinds = [k for k in OP_KINDS if k in plain.samples and k in traced_tally.samples]
        base = sum(plain.median_ms(k) for k in kinds)
        metrics["trace.overhead_pct"] = (
            100 * (sum(traced_tally.median_ms(k) for k in kinds) - base) / base)
        OUT_DIR.joinpath(f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"record": record, "spans": tracer.spans}), encoding="utf-8")
        return tally, metrics
    finally:
        runner.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("seed_cli", "large_cli", "whatif_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lib = preflight()
    except (PreflightError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"preflight failed: {exc}", file=sys.stderr)
        return 2
    # Keep this process and its CLI children on one core, so the speed probe
    # measures the core the timed work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    record = run_record(args, len(cpus))
    print("record: " + json.dumps(record), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        tally, metrics = run_workload(args, lib, Path(tmp), record)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.check_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
