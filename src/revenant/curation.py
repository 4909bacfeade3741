"""Benchmark curation: exclusion rules, conflict graphs, and manifests.

Revived CVEs earn a benchmark slot only if the surgery stayed small, the
revived set can coexist at one base commit, and the host project still
passes its own tests. This module applies those three rules to a pile of
revival records and emits a deterministic manifest.
"""

from __future__ import annotations

import json
import re
import subprocess
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .porter import FINAL_REVIVED, Limits, RevivalRecord

RULE_COMPLEXITY = "complexity"
RULE_INTERCOMPAT = "intercompatibility"

REASON_OVERLAP = "overlapping-region"

POLICY_LATEST_FIRST = "latest-first"
POLICY_MAX_SUBSET = "max-subset"

VERDICT_FUNCTIONAL = "Functional"
VERDICT_DEGRADED = "Degraded"

FORMAT_EXIT_CODE = "exit-code"
FORMAT_TAP = "tap"
FORMAT_PASS_FAIL = "pass-fail"

# Records transcribed from external campaigns may carry this final instead
# of the porter's own FINAL_REVIVED; both qualify for inclusion.
FINAL_TRIVIALLY_REVIVED = "TriviallyRevived"
_REVIVED_FINALS = frozenset({FINAL_REVIVED, FINAL_TRIVIALLY_REVIVED})

MAX_GRAPH_NODES = 64


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


@dataclass(frozen=True)
class RuleDecision:
    keep: bool
    rule: str = ""
    reason: str = ""


def rule_complexity(record: RevivalRecord, limits: Optional[Limits] = None) -> RuleDecision:
    """Exclude records that never revived or needed too deep a revert stack."""
    limits = limits or Limits()
    if record.final not in _REVIVED_FINALS:
        why = record.abort_reason or record.final
        return RuleDecision(False, RULE_COMPLEXITY, f"aborted: {why}")
    depth = len(record.revert_stack)
    if depth > limits.max_reverted_commits:
        return RuleDecision(
            False,
            RULE_COMPLEXITY,
            f"{depth} reverted commits exceeds limit {limits.max_reverted_commits}",
        )
    return RuleDecision(True)


@dataclass
class ConflictEdge:
    a: str
    b: str
    reason: str
    evidence: str


class ConflictGraph:
    """Undirected, irreflexive conflict graph over CVE ids."""

    def __init__(self, nodes: Iterable[str] = ()):
        self.nodes: List[str] = []
        self.edges: Dict[Tuple[str, str], ConflictEdge] = {}
        for n in nodes:
            self.add_node(n)

    def add_node(self, node: str) -> None:
        if node not in self.nodes:
            self.nodes.append(node)

    def add_edge(self, a: str, b: str, reason: str, evidence: str = "") -> None:
        if a == b:
            raise ValueError("conflict edges are irreflexive")
        self.add_node(a)
        self.add_node(b)
        key: Tuple[str, str] = tuple(sorted((a, b)))  # type: ignore[assignment]
        if key not in self.edges:
            self.edges[key] = ConflictEdge(key[0], key[1], reason, evidence)

    def has_edge(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edges

    def is_independent(self, nodes: Iterable[str]) -> bool:
        chosen = list(nodes)
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                if self.has_edge(a, b):
                    return False
        return True

    def subgraph(self, keep: Iterable[str]) -> "ConflictGraph":
        kept = set(keep)
        sub = ConflictGraph(n for n in self.nodes if n in kept)
        for (a, b), edge in self.edges.items():
            if a in kept and b in kept:
                sub.add_edge(a, b, edge.reason, edge.evidence)
        return sub

    def to_dict(self) -> dict:
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"a": e.a, "b": e.b, "reason": e.reason, "evidence": e.evidence}
                for _, e in sorted(self.edges.items())
            ],
        }


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


def detect_conflicts(records: Sequence[RevivalRecord]) -> ConflictGraph:
    """Build the pairwise conflict graph for records revived at one target.

    The check is static and over-approximates: any line-region overlap in
    the same file counts, as does one record reverting a commit another
    record's port was derived from.
    """
    recs = list(records)
    targets = {r.target for r in recs}
    if len(targets) > 1:
        raise ValueError(f"records target different commits: {sorted(targets)}")

    graph = ConflictGraph(r.cve for r in recs)
    for i, ra in enumerate(recs):
        for rb in recs[i + 1:]:
            dep = _revert_dependency(ra, rb) or _revert_dependency(rb, ra)
            if dep:
                graph.add_edge(ra.cve, rb.cve, REASON_OVERLAP, dep)
                continue
            hit = _overlap_evidence(ra, rb)
            if hit:
                graph.add_edge(ra.cve, rb.cve, REASON_OVERLAP, hit)
    return graph


def _max_independent_set(order: List[str], graph: ConflictGraph) -> List[str]:
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
        if not any(graph.has_edge(node, c) for c in chosen):
            chosen.append(node)
            walk(i + 1, chosen)
            chosen.pop()
        walk(i + 1, chosen)

    walk(0, [])
    return best


def select_compatible(
    graph: ConflictGraph,
    records: Sequence[RevivalRecord],
    policy: str = POLICY_LATEST_FIRST,
) -> Tuple[List[str], List[Tuple[str, str, str]]]:
    """Pick a pairwise-compatible subset of the records' CVEs.

    latest-first greedily keeps the newest CVEs; max-subset finds an exact
    maximum independent set (TooLarge beyond MAX_GRAPH_NODES nodes).
    Returns (kept ids, excluded (cve, rule, reason) rows), kept newest
    first.
    """
    recs = {r.cve: r for r in records}
    if len(recs) != len(records):
        raise ValueError("duplicate cve ids in records")
    unknown = [node for node in graph.nodes if node not in recs]
    if unknown:
        raise ValueError(f"graph nodes without records: {sorted(unknown)}")

    order = sorted(recs, key=cve_sort_key, reverse=True)
    if policy == POLICY_LATEST_FIRST:
        kept: List[str] = []
        for cve in order:
            if not any(graph.has_edge(cve, k) for k in kept):
                kept.append(cve)
    elif policy == POLICY_MAX_SUBSET:
        if len(order) > MAX_GRAPH_NODES:
            raise TooLarge(f"{len(order)} nodes exceeds cap {MAX_GRAPH_NODES}")
        kept = _max_independent_set(order, graph)
    else:
        raise ValueError(f"unknown selection policy: {policy!r}")

    kept_set = set(kept)
    excluded = []
    for cve in order:
        if cve in kept_set:
            continue
        clash = sorted(
            (k for k in kept if graph.has_edge(cve, k)),
            key=cve_sort_key,
            reverse=True,
        )
        excluded.append((cve, RULE_INTERCOMPAT, "conflicts with kept " + ", ".join(clash)))
    assert graph.is_independent(kept)
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

    def to_dict(self) -> dict:
        return {
            "total_tests": self.total_tests,
            "failed": list(self.failed),
            "allowlisted": list(self.allowlisted),
            "disallowed": list(self.disallowed),
            "verdict": self.verdict,
        }


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
    suite_cmd,
    cwd,
    result_format: str = FORMAT_EXIT_CODE,
    allowlist: Iterable[str] = (),
    timeout: float = 1200.0,
) -> FunctionalityVerdict:
    """Run the project's own test suite and judge the ported tree by it."""
    shell = isinstance(suite_cmd, str)
    try:
        proc = subprocess.run(
            suite_cmd,
            cwd=str(cwd),
            shell=shell,
            capture_output=True,
            text=True,
            errors="replace",
            timeout=timeout,
        )
    except (subprocess.TimeoutExpired, OSError) as exc:
        raise SuiteCrashed(f"suite did not run: {exc}") from exc

    output = proc.stdout + "\n" + proc.stderr
    if result_format == FORMAT_EXIT_CODE:
        total, failed = 1, ([] if proc.returncode == 0 else ["suite"])
    elif result_format == FORMAT_TAP:
        parsed = _parse_tap(output)
        if parsed is None:
            raise SuiteCrashed("no TAP result lines in suite output")
        total, failed = parsed
    elif result_format == FORMAT_PASS_FAIL:
        parsed = _parse_pass_fail(output)
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
        return {
            "schema": "benchmark-manifest/1",
            "project": self.project,
            "base_ref": self.base_ref,
            "included": [dict(row) for row in self.included],
            "excluded": [dict(row) for row in self.excluded],
            "selection_policy": self.selection_policy,
            "functionality": self.functionality.to_dict() if self.functionality else None,
            "created_at": self.created_at,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def emit_manifest(
    project: str,
    base_ref: str,
    records: Sequence[RevivalRecord],
    graph: Optional[ConflictGraph] = None,
    policy: str = POLICY_LATEST_FIRST,
    functionality: Optional[FunctionalityVerdict] = None,
    limits: Optional[Limits] = None,
    created_at: str = "",
) -> BenchmarkManifest:
    """Apply complexity then compatibility rules; emit the curated manifest.

    created_at is caller-supplied (e.g. the base commit's committer date)
    so identical inputs serialize byte-identically.
    """
    recs = list(records)
    excluded: List[Tuple[str, str, str]] = []
    survivors: List[RevivalRecord] = []
    for rec in recs:
        decision = rule_complexity(rec, limits)
        if decision.keep:
            survivors.append(rec)
        else:
            excluded.append((rec.cve, decision.rule, decision.reason))

    survivor_ids = {r.cve for r in survivors}
    sub = (graph or ConflictGraph(survivor_ids)).subgraph(survivor_ids)
    for cve in survivor_ids:
        sub.add_node(cve)
    kept, dropped = select_compatible(sub, survivors, policy)
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
