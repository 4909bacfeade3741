"""Command line surface.

One subcommand per pipeline stage; every run writes its artifact under
<workspace>/<cve>/ and prints a one-line machine-parsable summary.

Exit codes: 0 success (or Revived), 3 Aborted, 4 precondition failure,
5 configuration error, 6 environment failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .categorize import categorize_commit, tally
from .config import CaseConfig, ConfigError, default_workspace, load_case
from .curation import (
    FORMAT_EXIT_CODE,
    FORMAT_PASS_FAIL,
    FORMAT_TAP,
    POLICY_LATEST_FIRST,
    POLICY_MAX_SUBSET,
    SuiteCrashed,
    TooLarge,
    emit_manifest,
    parse_allowlist,
    rule_functionality,
)
from .datasets import TIERS, load_breaker_ledger, load_revival_survey, load_tier_survey
from .gitio import CommitMemo, GitGatewayError, activity_histogram
from .oracle import Oracle, stopping, write_atomic
from .porter import (
    BisectError,
    FINAL_REVIVED,
    PortError,
    Porter,
    RECORD_SCHEMA,
    RevivalRecord,
    status_of,
)
from .report import (
    emit_activity_csv,
    emit_activity_plot,
    render_records_table,
    render_revival_matrix,
    render_status_matrix,
    render_tally,
    tier_columns,
)

EXIT_OK = 0
EXIT_ABORTED = 3
EXIT_PRECONDITION = 4
EXIT_CONFIG = 5
EXIT_ENVIRONMENT = 6

RECORD_FILE = "revival_record.json"
TIERS_FILE = "tiers.json"
BISECT_FILE = "bisect.json"
PORT_FILE = "port.json"
CATEGORIES_FILE = "categories.json"
MANIFEST_FILE = "manifest.json"
ACTIVITY_CSV = "activity.csv"
ACTIVITY_SVG = "activity.svg"
VERDICT_CACHE = "verdict-cache"


def _workspace(args, cfg: CaseConfig) -> Path:
    """`--workspace`, else the config's, else the default; absolute, so a
    build slot under it stays reachable from a build's working directory."""
    workspace = getattr(args, "workspace", None) or cfg.workspace
    return Path(workspace or default_workspace()).resolve()


def _case_dir(args, cfg: CaseConfig) -> Path:
    d = _workspace(args, cfg) / cfg.cve
    d.mkdir(parents=True, exist_ok=True)
    return d


def _porter(cfg: CaseConfig, case_dir: Path) -> Porter:
    """A porter for the case whose oracle uses the workspace's verdict
    store: the case's `cache_dir`, else `<workspace>/verdict-cache`."""
    scratch = case_dir / "scratch"
    oracle = Oracle(
        cfg.cache_dir or case_dir.parent / VERDICT_CACHE,
        scratch_dir=scratch / "oracle",
    )
    return Porter(
        cfg.repo,
        cfg.build,
        cfg.poc,
        oracle=oracle,
        granularity=cfg.granularity,
        limits=cfg.limits,
        scratch_dir=scratch,
    )


def _effort(porter: Porter, start: float) -> str:
    """The oracle's build, store-hit and trace-hit counts (trace hits are
    store hits too), the git processes the porter's memo started, and the
    wall seconds since `start`, for a summary line."""
    counters = porter.oracle.counters
    counts = " ".join(f"{field}={counters.get(name, 0)}" for field, name in (
        ("builds", "builds"), ("hits", "cache_hits"), ("traced", "trace_hits")))
    return f"{counts} git={porter.commits.spawns} wall={time.perf_counter() - start:.3f}"


def _write_json(path: Path, data) -> Path:
    return write_atomic(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


# ---------- subcommands ----------


def cmd_port(args) -> int:
    start = time.perf_counter()
    cfg = load_case(args.config, args.defaults)
    if args.tier:
        if args.tier not in cfg.tiers:
            raise ConfigError(f"tier {args.tier!r} not in {sorted(cfg.tiers)}")
        ref = cfg.tiers[args.tier]
    else:
        ref = args.ref or cfg.target
    case_dir = _case_dir(args, cfg)
    with _porter(cfg, case_dir) as porter:
        att = porter.attempt(ref, (), cfg.fix_commits)
    status = status_of(att.verdict.kind)
    out = _write_json(case_dir / PORT_FILE, {
        "cve": cfg.cve,
        "ref": ref,
        "status": status,
        "detector_class": att.verdict.detector_class,
        "files_touched": att.files_touched,
        "hunks_applied": att.hunks_applied,
    })
    print(
        f"port cve={cfg.cve} ref={ref} status={status} "
        f"detector={att.verdict.detector_class or '-'} {_effort(porter, start)} record={out}"
    )
    return EXIT_OK if status == "triggered" else EXIT_ABORTED


def cmd_tiers(args) -> int:
    start = time.perf_counter()
    cfg = load_case(args.config, args.defaults)
    tiers = cfg.tiers or {"target": cfg.target}
    case_dir = _case_dir(args, cfg)
    with _porter(cfg, case_dir) as porter:
        results = porter.evaluate_tiers(cfg.fix_commits, tiers)
    payload = {
        "cve": cfg.cve,
        "project": cfg.project,
        "tiers": {name: res.to_dict() for name, res in results.items()},
    }
    out = _write_json(case_dir / TIERS_FILE, payload)
    cells = " ".join(f"{name}={res.status}" for name, res in results.items())
    print(f"tiers cve={cfg.cve} {cells} {_effort(porter, start)} record={out}")
    return EXIT_OK


def cmd_bisect(args) -> int:
    start = time.perf_counter()
    cfg = load_case(args.config, args.defaults)
    case_dir = _case_dir(args, cfg)
    with _porter(cfg, case_dir) as porter:
        ids = [c.id for c in porter.commits.between(args.good, args.bad)]
        result = porter.bisect(ids, cfg.fix_commits, ())
    payload = {
        "cve": cfg.cve,
        "good": args.good,
        "bad": args.bad,
        "breaking_commit": result.commit,
        "oracle_calls": result.calls,
        "skipped": result.skipped,
        "non_monotone": False,  # see the note above `porter.find_breaking_commit`
    }
    out = _write_json(case_dir / BISECT_FILE, payload)
    print(
        f"bisect cve={cfg.cve} breaking={result.commit} calls={result.calls} "
        f"skipped={len(result.skipped)} {_effort(porter, start)} record={out}"
    )
    return EXIT_OK


def _revive_one(path: str, args) -> Tuple[str, int]:
    start = time.perf_counter()
    cfg = load_case(path, args.defaults)
    case_dir = _case_dir(args, cfg)
    with _porter(cfg, case_dir) as porter:
        record = porter.revive(cfg.cve, cfg.project, cfg.fix_commits, cfg.target)
    out = write_atomic(case_dir / RECORD_FILE, record.to_json())
    line = (
        f"revive cve={cfg.cve} final={record.final}"
        + (f" abort={record.abort_reason}" if record.abort_reason else "")
        + f" stack={len(record.revert_stack)}"
        f" oracle_calls={record.effort.get('oracle_calls', 0)} {_effort(porter, start)} record={out}"
    )
    return line, EXIT_OK if record.final == FINAL_REVIVED else EXIT_ABORTED


def cmd_revive(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    paths = args.config
    if len(paths) == 1:
        line, code = _revive_one(paths[0], args)
        print(line)
        return code
    # one failing case does not stop its siblings: every case prints its
    # line, and then the first error that no exit code maps is raised
    codes = []
    unmapped = []
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        try:
            for path, case in [(path, pool.submit(_revive_one, path, args)) for path in paths]:
                try:
                    line, code = case.result()
                except Exception as exc:  # noqa: BLE001 - mapped to exit codes, or raised below
                    line, code = f"error case={path} {exc}", _code_for(exc)
                    if code is None:
                        unmapped.append(exc)
                print(line)
                codes.append(code)
        except KeyboardInterrupt:
            # the cases' runs sit in sessions of their own, which Ctrl-C
            # does not reach: kill them, and start no other case
            with stopping():
                pool.shutdown(cancel_futures=True)
            raise
    if unmapped:
        raise unmapped[0]
    return max(codes)


def cmd_categorize(args) -> int:
    if args.config:
        cfg = load_case(args.config, args.defaults)
        repo = cfg.repo
    elif args.repo:
        repo = Path(args.repo)
    else:
        raise ConfigError("categorize needs --config or --repo")
    rows = []
    with CommitMemo(repo) as commits:
        for commit in args.commits:
            call = categorize_commit(commits, commit)
            rows.append({"commit": commit, "category": call.category, "rationale": call.rationale})
            print(f"categorize commit={commit} category={call.category} rationale={call.rationale}")
    if args.config:
        case_dir = _case_dir(args, cfg)
        _write_json(case_dir / CATEGORIES_FILE, rows)
    return EXIT_OK


def cmd_manifest(args) -> int:
    cfgs = [load_case(path, args.defaults) for path in args.config]
    projects = {cfg.project for cfg in cfgs}
    targets = {cfg.target for cfg in cfgs}
    if len(projects) > 1 or len(targets) > 1:
        raise ConfigError(
            f"manifest cases must share one project and target, got "
            f"{sorted(projects)} at {sorted(targets)}"
        )
    records = []
    for cfg in cfgs:
        record_path = _workspace(args, cfg) / cfg.cve / RECORD_FILE
        if not record_path.exists():
            print(f"error: no revival record for {cfg.cve}; run revive first", file=sys.stderr)
            return EXIT_PRECONDITION
        record = RevivalRecord.from_json(record_path.read_text("utf-8"))
        if record.cve != cfg.cve:
            # a case renamed after revive, or a copied case directory
            print(f"error: the revival record {record_path} is for {record.cve}, "
                  f"its config names {cfg.cve}; run revive again", file=sys.stderr)
            return EXIT_PRECONDITION
        records.append(record)

    functionality = None
    if args.suite:
        if not args.suite_cwd:
            raise ConfigError("--suite needs --suite-cwd")
        allow = ()
        if args.allowlist:
            allow = tuple(parse_allowlist(Path(args.allowlist).read_text("utf-8")))
        functionality = rule_functionality(
            args.suite, args.suite_cwd, result_format=args.suite_format, allowlist=allow,
        )
    with CommitMemo(cfgs[0].repo) as commits:
        target_time = commits.resolve(cfgs[0].target).timestamp
    created_at = datetime.fromtimestamp(target_time, tz=timezone.utc).isoformat()
    manifest = emit_manifest(
        cfgs[0].project,
        cfgs[0].target,
        records,
        policy=args.policy,
        functionality=functionality,
        limits={cfg.cve: cfg.limits for cfg in cfgs},
        created_at=created_at,
    )
    out = write_atomic(_workspace(args, cfgs[0]) / MANIFEST_FILE, manifest.to_json())
    print(
        f"manifest project={manifest.project} policy={args.policy} "
        f"included={len(manifest.included)} excluded={len(manifest.excluded)} record={out}"
    )
    return EXIT_OK


def cmd_activity(args) -> int:
    cfg = load_case(args.config, args.defaults)
    case_dir = _case_dir(args, cfg)
    base = args.since or cfg.fix_commits[0]
    tip = args.until or cfg.target
    with CommitMemo(cfg.repo) as commits:
        ordered = commits.between(base, tip)
        if args.files:
            tracked = [f.strip() for f in args.files.split(",") if f.strip()]
        else:
            tracked = sorted(
                {fp.path for fix in cfg.fix_commits for fp in commits.diff(fix).files}
            )
        lifelines = [
            {
                "cve": cfg.cve,
                "start": commits.resolve(cfg.fix_commits[0]).timestamp,
                "end": commits.resolve(tip).timestamp,
            }
        ]
        markers = []
        record_path = case_dir / RECORD_FILE
        if record_path.exists():
            record = RevivalRecord.from_json(record_path.read_text("utf-8"))
            markers = [
                {"cve": cfg.cve, "timestamp": commits.resolve(commit).timestamp}
                for commit in record.revert_stack
            ]
        hist = activity_histogram(ordered, tracked, commits.touched)

    csv_path = write_atomic(case_dir / ACTIVITY_CSV, emit_activity_csv(hist))
    svg_path = write_atomic(case_dir / ACTIVITY_SVG, emit_activity_plot(hist, lifelines, markers))
    print(
        f"activity cve={cfg.cve} buckets={len(hist.buckets)} commits={hist.total} "
        f"related={hist.related_total} csv={csv_path} svg={svg_path}"
    )
    return EXIT_OK


def _sniff_report_rows(paths: Sequence[str]) -> Tuple[List[dict], List[RevivalRecord]]:
    matrix_rows = []
    records = []
    for path in paths:
        data = json.loads(Path(path).read_text("utf-8"))
        if isinstance(data, dict) and data.get("schema") == RECORD_SCHEMA:
            records.append(RevivalRecord.from_dict(data))
        elif isinstance(data, dict) and "tiers" in data:
            matrix_rows.append(
                {
                    "cve": data["cve"],
                    "project": data.get("project", ""),
                    "tiers": {
                        name: cell.get("status", "") if isinstance(cell, dict) else cell
                        for name, cell in data["tiers"].items()
                    },
                }
            )
        else:
            raise ConfigError(f"{path}: not a tiers file or revival record")
    return matrix_rows, records


def cmd_report(args) -> int:
    chunks = []
    if args.bundled:
        chunks.append("PoC outcomes by tier\n"
                      + render_status_matrix(load_tier_survey(), TIERS, args.paper_style))
        chunks.append(
            "revival outcomes\n"
            + render_revival_matrix(load_revival_survey(), args.paper_style)
        )
        chunks.append(
            "breaking commit categories\n" + render_tally(tally(load_breaker_ledger()))
        )
    if args.records:
        matrix_rows, records = _sniff_report_rows(args.records)
        if matrix_rows:
            chunks.append("PoC outcomes by tier\n" + render_status_matrix(
                matrix_rows, tier_columns(matrix_rows), args.paper_style))
        if records:
            chunks.append(
                "revival records\n" + render_records_table(records, args.paper_style)
            )
    if not chunks:
        raise ConfigError("report needs record files or --bundled")
    text = "\n".join(chunks)
    if args.out:
        write_atomic(Path(args.out), text)
        print(f"report sections={len(chunks)} record={args.out}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------- parser ----------


def _add_case_flags(sub, multi: bool = False) -> None:
    if multi:
        sub.add_argument(
            "--config", action="append", required=True, metavar="FILE",
            help="case config file (repeatable)",
        )
    else:
        sub.add_argument("--config", required=True, metavar="FILE", help="case config file")
    sub.add_argument("--defaults", metavar="FILE", help="project defaults file merged under the case")
    sub.add_argument("--workspace", metavar="DIR", help="artifact directory (default: $REVENANT_WORKSPACE)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revenant",
        description="Forward-port old vulnerabilities, hunt the commits that "
        "killed them, and curate the survivors into a benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("port", help="reverse-apply the fix at one ref and run the PoC")
    _add_case_flags(sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--ref", help="ref to port onto (default: the case target)")
    group.add_argument("--tier", help="named tier from the case config")
    sub.set_defaults(func=cmd_port)

    sub = subs.add_parser("tiers", help="port onto every named tier and classify")
    _add_case_flags(sub)
    sub.set_defaults(func=cmd_tiers)

    sub = subs.add_parser("bisect", help="find the first commit that breaks the port")
    _add_case_flags(sub)
    sub.add_argument("good", help="ref where the ported PoC still triggers")
    sub.add_argument("bad", help="ref where it no longer triggers")
    sub.set_defaults(func=cmd_bisect)

    sub = subs.add_parser("revive", help="full loop: port, bisect, revert, repeat")
    _add_case_flags(sub, multi=True)
    sub.add_argument("--jobs", type=int, default=1, metavar="N", help="cases to run in parallel")
    sub.set_defaults(func=cmd_revive)

    sub = subs.add_parser("categorize", help="classify breaking commits by diff shape")
    sub.add_argument("--config", metavar="FILE", help="case config file")
    sub.add_argument("--defaults", metavar="FILE")
    sub.add_argument("--workspace", metavar="DIR")
    sub.add_argument("--repo", metavar="DIR", help="bare repo path when no case config applies")
    sub.add_argument("commits", nargs="+", metavar="COMMIT")
    sub.set_defaults(func=cmd_categorize)

    sub = subs.add_parser("manifest", help="curate revived cases into a benchmark manifest")
    _add_case_flags(sub, multi=True)
    sub.add_argument(
        "--policy", choices=[POLICY_LATEST_FIRST, POLICY_MAX_SUBSET],
        default=POLICY_LATEST_FIRST, help="compatible subset selection policy",
    )
    sub.add_argument("--suite", metavar="CMD", help="project test suite command")
    sub.add_argument("--suite-cwd", metavar="DIR", help="directory to run the suite in")
    sub.add_argument(
        "--suite-format", choices=[FORMAT_EXIT_CODE, FORMAT_TAP, FORMAT_PASS_FAIL],
        default=FORMAT_EXIT_CODE, help="how to parse suite results",
    )
    sub.add_argument("--allowlist", metavar="FILE", help="allowlisted failing tests with justifications")
    sub.set_defaults(func=cmd_manifest)

    sub = subs.add_parser("activity", help="emit commit activity CSV and chart for a case")
    _add_case_flags(sub)
    sub.add_argument("--since", metavar="REF", help="range start (default: first fix commit)")
    sub.add_argument("--until", metavar="REF", help="range end (default: the case target)")
    sub.add_argument("--files", metavar="LIST", help="comma-separated tracked files")
    sub.set_defaults(func=cmd_activity)

    sub = subs.add_parser("report", help="render status matrices and tallies")
    sub.add_argument("records", nargs="*", metavar="FILE", help="tiers files or revival records")
    sub.add_argument("--bundled", action="store_true", help="render the shipped survey datasets")
    sub.add_argument("--paper-style", action="store_true", help="collapse cells to plain pass/fail")
    sub.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    sub.set_defaults(func=cmd_report)

    return parser


# the exit code of an error: that of the first class here it is an instance of
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    SuiteCrashed: EXIT_ENVIRONMENT,
    BisectError: EXIT_PRECONDITION,
    PortError: EXIT_PRECONDITION,
    GitGatewayError: EXIT_PRECONDITION,
    TooLarge: EXIT_PRECONDITION,
    ValueError: EXIT_PRECONDITION,
    OSError: EXIT_ENVIRONMENT,
}


def _code_for(exc: BaseException) -> Optional[int]:
    """The exit code of `exc`; None for an error `_EXIT_CODES` does not map."""
    return next((code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)), None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
