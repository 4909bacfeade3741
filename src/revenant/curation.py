"""Benchmark curation: exclusion rules, conflicting pairs, and manifests.

Revived CVEs earn a benchmark slot only if the surgery stayed small, the
revived set can coexist at one base commit, and the host project still
passes its own tests. This module applies those three rules to a pile of
revival records and emits a deterministic manifest.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .oracle import run_limited
from .porter import FINAL_REVIVED, Limits, RevivalRecord

RULE_COMPLEXITY = "complexity"
RULE_INTERCOMPAT = "intercompatibility"

POLICY_LATEST_FIRST = "latest-first"
POLICY_MAX_SUBSET = "max-subset"

VERDICT_FUNCTIONAL = "Functional"
VERDICT_DEGRADED = "Degraded"

FORMAT_EXIT_CODE = "exit-code"
FORMAT_TAP = "tap"
FORMAT_PASS_FAIL = "pass-fail"

MAX_GRAPH_NODES = 64

SUITE_TIMEOUT = 1200.0  # seconds a project's test suite may run


class CurationError(Exception):
    pass


class TooLarge(CurationError):
    pass


class SuiteCrashed(CurationError):
    """The test suite itself failed to run; distinct from failing tests."""


_CVE_RE = re.compile(r"^CVE-(\d{4})-(\d{1,7})$", re.IGNORECASE)


def cve_sort_key(cve: str) -> Tuple[int, int]:
    m = _CVE_RE.match(cve.strip())
    if not m:
        raise ValueError(f"not a CVE id: {cve!r}")
    return int(m.group(1)), int(m.group(2))


def rule_complexity(record: RevivalRecord, limits: Limits) -> Optional[str]:
    """Why a record that never revived or needed too deep a revert stack
    is excluded; None for a record the rule keeps."""
    if record.final != FINAL_REVIVED:
        return f"aborted: {record.abort_reason or record.final}"
    depth = len(record.revert_stack)
    if depth > limits.max_reverted_commits:
        return f"{depth} reverted commits exceeds limit {limits.max_reverted_commits}"
    return None


def _spans_by_file(record: RevivalRecord) -> Dict[str, List[Tuple[int, int]]]:
    out: Dict[str, List[Tuple[int, int]]] = {}
    for region in record.touched_regions:
        out.setdefault(region["file"], []).append((region["start"], region["end"]))
    return out


def _overlap_evidence(ra: RevivalRecord, rb: RevivalRecord) -> Optional[str]:
    spans_a = _spans_by_file(ra)
    spans_b = _spans_by_file(rb)
    for path in sorted(set(spans_a) & set(spans_b)):
        for a0, a1 in spans_a[path]:
            for b0, b1 in spans_b[path]:
                if a0 <= b1 and b0 <= a1:
                    return f"{path}: lines {a0}-{a1} overlap {b0}-{b1}"
    return None


def _revert_dependency(ra: RevivalRecord, rb: RevivalRecord) -> Optional[str]:
    hit = set(ra.revert_stack) & set(rb.fix_commits)
    if hit:
        commit = sorted(hit)[0]
        return f"{ra.cve} reverts {commit}, which {rb.cve}'s port is derived from"
    return None


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def detect_conflicts(records: Sequence[RevivalRecord]) -> Dict[Tuple[str, str], str]:
    """The conflicting pairs among records revived at one target: each
    sorted pair of CVE ids maps to the evidence of its conflict.

    The check is static and over-approximates: one record reverting a
    commit another record's port was derived from counts, as does any
    line-region overlap in the same file.
    """
    recs = list(records)
    targets = {r.target for r in recs}
    if len(targets) > 1:
        raise ValueError(f"records target different commits: {sorted(targets)}")

    conflicts: Dict[Tuple[str, str], str] = {}
    for i, ra in enumerate(recs):
        for rb in recs[i + 1:]:
            evidence = (_revert_dependency(ra, rb) or _revert_dependency(rb, ra)
                        or _overlap_evidence(ra, rb))
            if evidence:
                conflicts.setdefault(_pair(ra.cve, rb.cve), evidence)
    return conflicts


def _clashes(cve: str, others: Iterable[str], conflicts: Dict[Tuple[str, str], str]) -> List[str]:
    """The ids among `others` that conflict with `cve`."""
    return [other for other in others if _pair(cve, other) in conflicts]


def _max_independent_set(order: List[str], conflicts: Dict[Tuple[str, str], str]) -> List[str]:
    # Branch and bound over nodes in recency order, include-branch first,
    # replacing best only on strict improvement. Ties therefore resolve
    # toward keeping the latest CVEs, and the result is deterministic.
    n = len(order)
    best: List[str] = []

    def walk(i: int, chosen: List[str]) -> None:
        nonlocal best
        if len(chosen) + (n - i) <= len(best):
            return
        if i == n:
            best = list(chosen)
            return
        node = order[i]
        if not _clashes(node, chosen, conflicts):
            chosen.append(node)
            walk(i + 1, chosen)
            chosen.pop()
        walk(i + 1, chosen)

    walk(0, [])
    return best


def select_compatible(
    records: Sequence[RevivalRecord],
    conflicts: Dict[Tuple[str, str], str],
    policy: str,
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Pick a subset of the records' CVEs that holds no pair of `conflicts`.

    latest-first greedily keeps the newest CVEs; max-subset finds an exact
    maximum independent set (TooLarge beyond MAX_GRAPH_NODES records).
    Returns (kept ids, excluded (cve, rule, reason) rows), kept newest
    first.
    """
    recs = {r.cve for r in records}
    if len(recs) != len(records):
        raise ValueError("duplicate cve ids in records")

    order = sorted(recs, key=cve_sort_key, reverse=True)
    if policy == POLICY_LATEST_FIRST:
        kept: List[str] = []
        for cve in order:
            if not _clashes(cve, kept, conflicts):
                kept.append(cve)
    elif policy == POLICY_MAX_SUBSET:
        if len(order) > MAX_GRAPH_NODES:
            raise TooLarge(f"{len(order)} nodes exceeds cap {MAX_GRAPH_NODES}")
        kept = _max_independent_set(order, conflicts)
    else:
        raise ValueError(f"unknown selection policy: {policy!r}")

    excluded = [
        (cve, RULE_INTERCOMPAT, "conflicts with kept " + ", ".join(_clashes(cve, kept, conflicts)))
        for cve in order
        if cve not in kept
    ]
    assert not any(_clashes(k, kept[:i], conflicts) for i, k in enumerate(kept))
    return kept, excluded


_TAP_LINE = re.compile(r"^(not ok|ok)\s+(\d+)", re.MULTILINE)
_PASS_FAIL_LINE = re.compile(r"^(PASS|FAIL|SKIP|XFAIL):\s+(\S.*?)\s*$", re.MULTILINE)


def _parse_tap(output: str) -> Optional[Tuple[int, List[str]]]:
    total = 0
    failed = []
    for status, num in _TAP_LINE.findall(output):
        total += 1
        if status == "not ok":
            failed.append(num)
    return (total, failed) if total else None


def _parse_pass_fail(output: str) -> Optional[Tuple[int, List[str]]]:
    total = 0
    failed = []
    for status, name in _PASS_FAIL_LINE.findall(output):
        if status == "SKIP":
            continue
        total += 1
        # XFAIL is an expected failure, counted but not held against the port
        if status == "FAIL":
            failed.append(name)
    return (total, failed) if total else None


@dataclass
class FunctionalityVerdict:
    total_tests: int
    failed: List[str]
    allowlisted: List[str]
    disallowed: List[str]
    verdict: str


def parse_allowlist(text: str) -> Dict[str, str]:
    """One allowlisted test id per line, followed by its justification."""
    entries: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) < 2 or not parts[1].strip():
            raise ValueError(f"allowlist entry needs a justification: {line!r}")
        entries[parts[0]] = parts[1].strip()
    return entries


def rule_functionality(
    suite_cmd: str,
    cwd,
    result_format: str,
    allowlist: Iterable[str],
) -> FunctionalityVerdict:
    """Run the project's own test suite, a shell command, in `cwd` under
    the ambient environment and judge the ported tree by its stdout and
    stderr, read as one stream.  It runs as a build step does
    (`oracle.run_limited`): a suite that does not finish within
    SUITE_TIMEOUT has its whole process group killed.  Such a suite, one
    that cannot be started, and one that the shell cannot find or run are
    SuiteCrashed."""
    res = run_limited(["sh", "-c", suite_cmd], cwd, dict(os.environ), SUITE_TIMEOUT)
    if res.spawn_error or res.timed_out:
        why = res.spawn_error or f"no exit within {SUITE_TIMEOUT:.0f}s"
        raise SuiteCrashed(f"suite did not run: {why}")
    if res.returncode in (126, 127):  # the shell could not run the command, or found none
        raise SuiteCrashed(f"suite did not run: {res.output.strip()}")

    if result_format == FORMAT_EXIT_CODE:
        total, failed = 1, ([] if res.returncode == 0 else ["suite"])
    elif result_format == FORMAT_TAP:
        parsed = _parse_tap(res.output)
        if parsed is None:
            raise SuiteCrashed("no TAP result lines in suite output")
        total, failed = parsed
    elif result_format == FORMAT_PASS_FAIL:
        parsed = _parse_pass_fail(res.output)
        if parsed is None:
            raise SuiteCrashed("no PASS:/FAIL: result lines in suite output")
        total, failed = parsed
    else:
        raise ValueError(f"unknown result format: {result_format!r}")

    allowed = set(allowlist)
    disallowed = sorted(set(failed) - allowed)
    return FunctionalityVerdict(
        total_tests=total,
        failed=sorted(set(failed)),
        allowlisted=sorted(set(failed) & allowed),
        disallowed=disallowed,
        verdict=VERDICT_FUNCTIONAL if not disallowed else VERDICT_DEGRADED,
    )


@dataclass
class BenchmarkManifest:
    project: str
    base_ref: str
    included: List[dict]
    excluded: List[dict]
    selection_policy: str
    functionality: Optional[FunctionalityVerdict]
    created_at: str

    def to_dict(self) -> dict:
        return {"schema": "benchmark-manifest/1", **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def emit_manifest(
    project: str,
    base_ref: str,
    records: Sequence[RevivalRecord],
    policy: str,
    functionality: Optional[FunctionalityVerdict],
    limits: Mapping[str, Limits],
    created_at: str,
) -> BenchmarkManifest:
    """Apply complexity then compatibility rules; emit the curated manifest.

    `limits` maps each record's CVE to the limits its complexity is
    judged by.

    created_at is caller-supplied (e.g. the base commit's committer date)
    so identical inputs serialize byte-identically.
    """
    conflicts = detect_conflicts(records)
    excluded: List[Tuple[str, str, str]] = []
    survivors: List[RevivalRecord] = []
    for rec in records:
        why = rule_complexity(rec, limits[rec.cve])
        if why is None:
            survivors.append(rec)
        else:
            excluded.append((rec.cve, RULE_COMPLEXITY, why))

    kept, dropped = select_compatible(survivors, conflicts, policy)
    excluded.extend(dropped)

    by_cve = {r.cve: r for r in survivors}
    included_rows = [
        {
            "cve": cve,
            "revert_stack": list(by_cve[cve].revert_stack),
            "port_digest": by_cve[cve].port_digest,
        }
        for cve in kept
    ]
    excluded_rows = [
        {"cve": cve, "rule": rule, "reason": reason}
        for cve, rule, reason in sorted(excluded, key=lambda row: cve_sort_key(row[0]))
    ]
    return BenchmarkManifest(
        project=project,
        base_ref=base_ref,
        included=included_rows,
        excluded=excluded_rows,
        selection_policy=policy,
        functionality=functionality,
        created_at=created_at,
    )
