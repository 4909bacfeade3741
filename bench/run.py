#!/usr/bin/env python3
"""End-to-end benchmark of revenant on forged repositories.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload revive-deep --seed 1 --seconds 30 --trace 0

The benchmark forges its fixtures from `--seed`, then drives revenant
through `revenant.cli.main(argv)` in this process, one fresh workspace
per pass, for `--seconds`.  Every pass is checked against the ground
truth planted by the forge, and its artifacts must be byte-identical to
those of the first pass.

Workloads (BENCHMARK.json says why each exists):

* revive-deep  two revive cases over a long noise history, one-file builds
* revive-wide  one revive case over a wide tree built by make
* pipeline     tiers, revive --jobs 2, bisect, categorize, manifest and
               report on two cases with the same history and target

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics: medians over the passes of CPU seconds, counts
and the peak resident size.  Comment lines above it give the machine, the
wall and CPU time of every pass and command, and the error rate.  With
`--trace 1` passes alternate between plain and traced; traced passes wrap
revenant's public functions in spans (see tracer.py), the JSON carries
the per-layer metrics, and the spans are written to
`.bench_runs/trace-<workload>-s<seed>.json`.

Exit status is 0 when every check passed, 1 when a check failed and 2
when revenant's sources are not next to the benchmark.  The benchmark's
own tests run with `python3 -m pytest bench -q`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"

sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
try:
    # measure the checkout's sources, never an installed copy
    if not (ROOT / "src" / "revenant" / "__init__.py").is_file():
        raise ImportError("no revenant package")
    import fixtures
    import tracer as tracing
    from revenant import cli
    from revenant.categorize import CATEGORIES
except ImportError as exc:  # reported by main(): the sources are missing
    IMPORT_ERROR: Optional[ImportError] = exc
else:
    IMPORT_ERROR = None
# set-ups per run, whose median is setup_s: a cheap set-up is repeated more
# often, a wide one (about 3 s each) fewer times to keep runs short
SETUP_REPEATS = {"revive-deep": 9, "revive-wide": 5, "pipeline": 9}
PIPELINE_NOISE_PER_GAP = 12


def hermetic_env(home: Path) -> Dict[str, str]:
    """The whole environment revenant and its children run under."""
    return {
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "LC_ALL": "C",
        "GIT_CONFIG_GLOBAL": "/dev/null",
        "GIT_CONFIG_NOSYSTEM": "1",
        "HOME": str(home),
        "TMPDIR": str(home / "tmp"),
    }


def _first_line(argv: List[str]) -> str:
    try:
        out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        return f"unavailable: {exc}"
    return out.splitlines()[0].strip() if out else ""


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "git": _first_line(["git", "--version"]),
        "cc": _first_line(["cc", "--version"]),
        "make": _first_line(["make", "--version"]),
        "python": sys.version.split()[0],
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------- workloads ----------


@dataclass
class Case:
    cve: str
    fixture: "fixtures.Fixture"
    max_reverted: int
    config: Optional[Path] = None

    def expected(self) -> dict:
        return self.fixture.expected(self.max_reverted)


@dataclass
class Step:
    """One CLI invocation in a pass; `argv` is built for the pass's workspace."""

    command: str
    argv: Callable[[Path], List[str]]
    case: str = ""  # case id for spans not already inside a revive
    exit_code: int = 0


Check = Tuple[str, Optional[str], List[Path]]  # name, problem or None, artifacts


@dataclass
class Plan:
    cases: List[Case]
    steps: List[Step]
    checks: Callable[[Path], List[Check]]

    @property
    def repos(self) -> List[Path]:
        return sorted({c.fixture.repo for c in self.cases})


def _write_config(root: Path, case: Case, project: str, tiers: Optional[dict] = None) -> None:
    data = fixtures.case_config(case.fixture, case.cve, project, case.max_reverted, tiers)
    case.config = root / f"{case.cve}.json"
    case.config.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _record_check(ws: Path, case: Case) -> Check:
    path = ws / case.cve / "revival_record.json"
    record = json.loads(path.read_text())
    want = case.expected()
    got = {key: record[key] for key in want}
    return (f"revive {case.cve}", None if got == want else f"{got} != ledger {want}", [path])


def _revive_plan(root: Path, seed: int, forge: Callable, project: str, budgets) -> Plan:
    """One forged repository with four breakers per budget, each revived
    by its own `revive`: four reverts revive it, three abort for complexity."""
    rng = random.Random(seed)
    cases = []
    for budget in budgets:
        cve = f"CVE-2000-000{budget}"
        archetypes = fixtures.pick_archetypes(rng)
        case = Case(cve, forge(root / cve, rng.randrange(1 << 30), archetypes), budget)
        _write_config(root, case, project)
        cases.append(case)
    steps = [
        Step("revive", lambda ws, c=c: ["revive", "--config", str(c.config), "--workspace", str(ws)],
             c.cve, 0 if c.max_reverted == 4 else 3)
        for c in cases
    ]
    return Plan(cases, steps, lambda ws: [_record_check(ws, c) for c in cases])


def plan_revive_deep(root: Path, seed: int) -> Plan:
    return _revive_plan(root, seed, fixtures.forge_deep, "pack-deep", (4, 3))


def plan_revive_wide(root: Path, seed: int) -> Plan:
    jobs = os.cpu_count() or 1
    forge = lambda path, s, archetypes: fixtures.forge_wide(path, s, archetypes, jobs=jobs)
    # one case: every wide attempt costs about a second on two cores
    return _revive_plan(root, seed, forge, "pack-wide", (4,))


def plan_pipeline(root: Path, seed: int) -> Plan:
    """Two cases on one history and target that differ only in their revert
    budget: four reverts revive it, three abort for complexity."""
    rng = random.Random(seed)
    archetypes = fixtures.pick_archetypes(rng)
    fixture_seed = rng.randrange(1 << 30)
    # Each case gets its own byte-identical copy of the history (same commit
    # ids, same trees): two `revive --jobs 2` cases in one repository race
    # on `git worktree add`/`prune` at the current code and fail at random.
    fixture, twin = (
        fixtures.forge_deep(root / name, fixture_seed, archetypes,
                            noise_per_gap=PIPELINE_NOISE_PER_GAP)
        for name in ("repo-a", "repo-b")
    )
    if twin.ledger() != fixture.ledger():
        raise RuntimeError("the two pipeline repositories differ")
    twin.poc_file = fixture.poc_file  # one PoC path, so both cases share verdict keys
    first = fixture.first_breaker
    # the reference and the commit before the first breaker still trigger
    tiers = {"reference": fixture.fix, "intermediate": first + "~1", "latest": fixture.target}
    revived = Case("CVE-2001-0001", fixture, 4)
    aborted = Case("CVE-2001-0002", twin, 3)
    for case in (revived, aborted):
        _write_config(root, case, "pack-pipeline", tiers)
    a, b = str(revived.config), str(aborted.config)
    case_dir = lambda ws: ws / revived.cve

    def stack(ws: Path) -> List[str]:
        return json.loads((case_dir(ws) / "revival_record.json").read_text())["revert_stack"]

    steps = [
        Step("tiers", lambda ws: ["tiers", "--config", a, "--workspace", str(ws)], revived.cve),
        Step("revive", lambda ws: ["revive", "--jobs", "2", "--config", a, "--config", b,
                                   "--workspace", str(ws)], exit_code=3),
        Step("bisect", lambda ws: ["bisect", "--config", a, "--workspace", str(ws),
                                   fixture.fix, fixture.target], revived.cve),
        Step("categorize", lambda ws: ["categorize", "--config", a, "--workspace", str(ws),
                                       *stack(ws)], revived.cve),
        Step("manifest", lambda ws: ["manifest", "--config", a, "--config", b,
                                     "--workspace", str(ws)]),
        Step("report", lambda ws: ["report", str(case_dir(ws) / "tiers.json"),
                                   str(case_dir(ws) / "revival_record.json"),
                                   str(ws / aborted.cve / "revival_record.json"),
                                   "--out", str(ws / "report.txt")]),
    ]

    def checks(ws: Path) -> List[Check]:
        out = []
        tiers_file = case_dir(ws) / "tiers.json"
        got = {n: c["status"] for n, c in json.loads(tiers_file.read_text())["tiers"].items()}
        want = {"reference": True, "intermediate": True, "latest": False}
        bad = {n: s for n, s in got.items() if (s == "triggered") != want[n]}
        out.append(("tiers", f"unexpected statuses {bad}" if bad else None, [tiers_file]))
        out += [_record_check(ws, case) for case in (revived, aborted)]
        bisect_file = case_dir(ws) / "bisect.json"
        found = json.loads(bisect_file.read_text())["breaking_commit"]
        out.append(("bisect", None if found == first else f"found {found}, planted {first}",
                    [bisect_file]))
        categories = case_dir(ws) / "categories.json"
        rows = json.loads(categories.read_text())
        calls = [(row["commit"], row["category"] in CATEGORIES) for row in rows]
        want_calls = [(commit, True) for commit in revived.expected()["revert_stack"]]
        out.append(("categorize", None if calls == want_calls else f"categorized {rows}",
                    [categories]))
        manifest = ws / "manifest.json"
        included = [row["cve"] for row in json.loads(manifest.read_text())["included"]]
        out.append(("manifest", None if included == [revived.cve] else f"includes {included}",
                    [manifest]))
        out.append(("report", None, [ws / "report.txt"]))
        return out

    return Plan([revived, aborted], steps, checks)


WORKLOADS = {
    "revive-deep": plan_revive_deep,
    "revive-wide": plan_revive_wide,
    "pipeline": plan_pipeline,
}


# ---------- one pass ----------


class PorterLog:
    """Collects every Porter the CLI builds while in use, for its attempt
    and oracle counters."""

    def __init__(self):
        self.porters: List = []

    def __enter__(self) -> "PorterLog":
        self._original = original = cli._porter

        def recording(cfg, case_dir):
            porter = original(cfg, case_dir)
            self.porters.append(porter)
            return porter

        cli._porter = recording
        return self

    def __exit__(self, *exc) -> None:
        cli._porter = self._original

    def counters(self) -> Dict[str, int]:
        """Oracle counters summed over the porters, plus their attempts."""
        total = {"attempts": sum(p.attempt_count for p in self.porters)}
        for porter in self.porters:
            for name, value in porter.oracle.counters.items():
                total[name] = total.get(name, 0) + value
        return total


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    command_s: Dict[str, float]  # wall seconds per command
    command_cpu_s: Dict[str, float]
    counters: Dict[str, int]  # attempts and the oracle's counters
    checks: List[Check]
    digests: Dict[str, str]


def leftovers(ws: Path, repos: List[Path]) -> List[str]:
    """Worktrees still registered, and attempt or oracle dirs left in scratch."""
    problems = []
    for repo in repos:
        out = subprocess.run(["git", "-C", str(repo), "worktree", "list", "--porcelain"],
                             capture_output=True, text=True, check=True).stdout
        trees = [ln for ln in out.splitlines() if ln.startswith("worktree ")]
        if len(trees) != 1:
            problems.append(f"{repo}: {len(trees)} worktrees registered")
    for pattern in ("*/scratch/wt-*", "*/scratch/oracle/oracle-*"):
        problems += [f"leftover {p}" for p in ws.glob(pattern)]
    return problems


def _cpu_seconds() -> float:
    """User and system time of this process and of its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def unreaped_children() -> Optional[str]:
    """A problem if this process still has a child, running or not yet
    waited for: RUSAGE_CHILDREN, and so every CPU time reported, would miss
    that child's work."""
    try:
        # WNOWAIT leaves an exited child for its owner to reap
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return None
    return "a child process outlived the commands; its CPU time would go uncounted"


def run_pass(plan: Plan, ws: Path, tracer=None) -> Pass:
    """Run the plan's steps in a fresh workspace, then check the outputs."""
    ws.mkdir(parents=True)
    command_s: Dict[str, float] = {}
    command_cpu_s: Dict[str, float] = {}
    checks: List[Check] = []
    t0 = time.perf_counter()
    c0 = _cpu_seconds()
    with PorterLog() as log:
        for step in plan.steps:
            argv = step.argv(ws)
            if tracer is not None:
                tracer.case = step.case
            s0, sc0 = time.perf_counter(), _cpu_seconds()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
            command_s[step.command] = command_s.get(step.command, 0.0) + time.perf_counter() - s0
            command_cpu_s[step.command] = (command_cpu_s.get(step.command, 0.0)
                                           + _cpu_seconds() - sc0)
            if code != step.exit_code:
                said = " | ".join(sink.getvalue().splitlines()[-3:])
                checks.append((step.command, f"exit {code}, expected {step.exit_code}: {said}", []))
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    checks.append(("reaped", unreaped_children(), []))
    if not any(problem for _, problem, _ in checks):
        checks += plan.checks(ws)
    problems = leftovers(ws, plan.repos)
    checks.append(("hermetic", "; ".join(problems) or None, []))
    digests = {
        str(p.relative_to(ws)): hashlib.sha256(p.read_bytes()).hexdigest()
        for _, _, paths in checks for p in paths
    }
    return Pass(wall, cpu, command_s, command_cpu_s, log.counters(), checks, digests)


# ---------- metrics ----------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(passes: List[Pass], setup: List[float]) -> Dict[str, Tuple[float, str]]:
    """Medians over the plain passes.  Times are CPU seconds (user and
    system, of this process and of every child it waited for): on a shared
    virtual machine, stolen time moves wall-clock readings between runs by
    about twice as much.  Wall times are printed on the comment lines."""
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": (_median(setup), "s"),
        "cpu_s": (_median([p.cpu_s for p in passes]), "s"),
        "revive_cpu_s": (_median([p.command_cpu_s.get("revive", 0.0) for p in passes]), "s"),
        "attempts": (_median([p.counters["attempts"] for p in passes]), "count"),
        "builds": (_median([p.counters.get("builds", 0) for p in passes]), "count"),
        # only this process: the oracle forks its children from here, so their
        # ru_maxrss would repeat this process's own resident size
        "peak_rss_mb": (self_rss, "MB"),
    }


def layer_metrics(tracer, traced: Pass, plain_wall: float, planted: Dict[str, str]) -> Dict[str, Tuple[float, str]]:
    spans = tracer.spans
    selfs = tracer.self_times()
    kids = tracer.children()

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].duration for i in named(name))

    attempts = named("porter.attempt")
    attempt_ms = [spans[i].duration * 1000 for i in attempts]
    in_bisect = set()
    for i in named("porter.bisect"):
        todo = list(kids[i])
        while todo:
            k = todo.pop()
            if spans[k].name == "porter.attempt":
                in_bisect.add(k)
            todo.extend(kids[k])

    verdicts = named("oracle.verdict")
    build_keys = []
    for i in verdicts:
        if spans[i].attrs.get("built"):
            trees = [spans[k].attrs.get("tree") for k in kids[i] if spans[k].name == "oracle.tree_hash"]
            build_keys.append((tuple(trees), tuple(spans[i].attrs["key"])))
    hits = traced.counters.get("cache_hits", 0)

    calls = [spans[i].attrs for i in named("categorize.commit")]
    agree = sum(1 for c in calls if planted.get(c["commit"]) == c["category"])

    n_att = len(attempts)
    spawns = len(named("gitio.run_git"))
    out = {
        "gitio.spawns": (spawns, "count"),
        "gitio.spawns_per_attempt": (spawns / n_att if n_att else 0.0, "count"),
        "gitio.git_s": (total("gitio.run_git"), "s"),
        "gitio.commit_diff_calls": (len(named("gitio.commit_diff")), "count"),
        "gitio.resolve_calls": (len(named("gitio.resolve_ref")), "count"),
        "gitio.checkout_s": (total("gitio.checkout_worktree"), "s"),
        "gitio.remove_s": (total("gitio.worktree_remove"), "s"),
        "oracle.hash_s": (total("oracle.tree_hash"), "s"),
        "oracle.stage_s": (sum(selfs[i] for i in verdicts), "s"),
        "oracle.build_s": (total("oracle.build"), "s"),
        "oracle.poc_s": (total("oracle.run_poc"), "s"),
        "oracle.subprocess_launches": (traced.counters.get("subprocess_launches", 0), "count"),
        "oracle.verdict_calls": (len(verdicts), "count"),
        "oracle.cache_hits": (hits, "count"),
        "oracle.hit_ratio": (hits / len(verdicts) if verdicts else 0.0, "ratio"),
        "oracle.dup_builds": (len(build_keys) - len(set(build_keys)), "count"),
        "porter.attempts": (n_att, "count"),
        "porter.attempt_ms.p50": (_quantile(attempt_ms, 0.5), "ms"),
        "porter.attempt_ms.p90": (_quantile(attempt_ms, 0.9), "ms"),
        "porter.attempt_self_s": (sum(selfs[i] for i in attempts), "s"),
        "porter.probes": (len(in_bisect), "count"),
        "porter.bisect_rounds": (len(named("porter.bisect")), "count"),
        "patchcore.apply_calls": (len(named("patchcore.apply_file_patch")), "count"),
        "patchcore.apply_s": (total("patchcore.apply_file_patch"), "s"),
        "patchcore.split_s": (total("patchcore.split"), "s"),
        "categorize.s": (total("categorize.commit"), "s"),
        "categorize.commits": (len(calls), "count"),
        "categorize.agreement": (agree / len(calls) if calls else 0.0, "ratio"),
        "curation.manifest_s": (total("curation.emit_manifest"), "s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "plain.wall_s": (plain_wall, "s"),
        "trace.overhead": (traced.wall_s / plain_wall if plain_wall else 0.0, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for command in ("tiers", "revive", "bisect", "categorize", "manifest", "report"):
        out[f"cli.{command}_s"] = (total(f"cli.{command}"), "s")
    return out


# ---------- entry point ----------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload: str, seed: int, run_dir: Path) -> Tuple[Plan, List[float]]:
    """Forge the fixtures and warm up, SETUP_REPEATS[workload] times; keep
    the first.

    Returns the plan and the CPU seconds each set-up took.

    The warm-up ports the fix onto its own commit, which must trigger:
    it loads git, the compiler and revenant's code paths before timing.
    """
    times = []
    plan = None
    for k in range(SETUP_REPEATS[workload]):
        root = run_dir / f"fixtures-{k}"
        c0 = _cpu_seconds()
        root.mkdir(parents=True)
        candidate = WORKLOADS[workload](root, seed)
        case = candidate.cases[0]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["port", "--config", str(case.config), "--ref", case.fixture.fix,
                             "--workspace", str(root / "warmup")])
        times.append(_cpu_seconds() - c0)
        if code != 0:
            raise RuntimeError(f"warm-up port at the fix exited {code}")
        problem = unreaped_children()
        if problem:
            raise RuntimeError(f"set-up: {problem}")
        if plan is None:
            plan = candidate
        else:
            shutil.rmtree(root)
    return plan, times


def main(argv=None) -> int:
    args = parse_args(argv)
    if IMPORT_ERROR is not None:
        print(f"error: cannot load revenant from {ROOT / 'src'}: {IMPORT_ERROR}", file=sys.stderr)
        return 2

    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    os.environ.clear()
    os.environ.update(hermetic_env(run_dir))
    tempfile.tempdir = None
    facts = machine_facts()

    passes: List[Pass] = []
    traced: List[Tuple[object, Pass]] = []
    first_digests: Optional[Dict[str, str]] = None
    setup_times: List[float] = []
    attempted = failed = 0
    try:
        plan, setup_times = setup(args.workload, args.seed, run_dir)
        start = time.perf_counter()
        longest = 0.0
        n = 0
        while True:
            # with --trace 1, passes alternate plain and traced
            want_trace = bool(args.trace) and n % 2 == 1
            p0 = time.perf_counter()
            ws = run_dir / f"ws-{n}"
            t = tracing.Tracer() if want_trace else None
            if t is not None:
                t.install()
            try:
                result = run_pass(plan, ws, t)
            finally:
                if t is not None:
                    t.uninstall()
            if first_digests is None:
                first_digests = result.digests
            elif result.digests != first_digests:
                changed = sorted(k for k in first_digests if first_digests[k] != result.digests.get(k))
                result.checks.append(("repeat", f"artifacts differ from the first pass: {changed}", []))
            if t is not None:
                problems = t.check(result.counters["attempts"])
                result.checks.append(("trace", "; ".join(problems) or None, []))
                traced.append((t, result))
            else:
                passes.append(result)
            attempted += len(result.checks)
            bad = [(name, problem) for name, problem, _ in result.checks if problem]
            failed += len(bad)
            for name, problem in bad:
                print(f"FAIL pass {n} {name}: {problem}", file=sys.stderr)
            shutil.rmtree(ws)
            n += 1
            longest = max(longest, time.perf_counter() - p0)
            enough = passes and (traced or not args.trace)
            # start another pass only if it should end within --seconds
            if bad or (enough and time.perf_counter() - start + longest > args.seconds):
                break
    except Exception:  # noqa: BLE001 - any crash is a failed run, reported below
        traceback.print_exc()
        attempted += 1
        failed += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if failed or not passes:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                          "metrics": {}}))
        return 1

    if args.trace:
        plain = _median([p.wall_s for p in passes])
        planted = {b["id"]: b["archetype"] for c in plan.cases for b in c.fixture.breakers}
        per_pass = [layer_metrics(t, r, plain, planted) for t, r in traced]
        metrics = {k: (_median([m[k][0] for m in per_pass]), per_pass[0][k][1]) for k in per_pass[0]}
        RUNS_DIR.mkdir(exist_ok=True)
        trace_file = RUNS_DIR / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": facts,
            "passes": [[s.to_dict() for s in t.spans] for t, _ in traced],
        }) + "\n")
    else:
        metrics = end_to_end(passes, setup_times)

    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# passes plain={len(passes)} traced={len(traced)} checks={attempted} "
          f"failed={failed} error_rate={failed / attempted:.4f}")
    every = passes + [r for _, r in traced]
    print("# each pass wall_s " + " ".join(f"{p.wall_s:.3f}" for p in every))
    print("# each pass cpu_s " + " ".join(f"{p.cpu_s:.3f}" for p in every))
    print("# each setup_s " + " ".join(f"{t:.3f}" for t in setup_times))
    for command in passes[0].command_s:
        print(f"# {command} wall_s {_median([p.command_s[command] for p in passes]):.6g} "
              f"cpu_s {_median([p.command_cpu_s[command] for p in passes]):.6g}")
    print(f"# wall_s {_median([p.wall_s for p in passes]):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
