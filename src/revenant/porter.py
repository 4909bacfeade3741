"""Reverse-porting fix commits and reviving their vulnerabilities.

The core loop: derive the inverse of the fix, apply it to a later tree,
and ask the oracle whether the proof of concept triggers again.  When it
does not, binary-search the history for the commit that broke the port
or the PoC, revert it, and try again, within configured budgets.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .patchcore import (
    Granularity,
    HunkRejected,
    PatchError,
    SourcePatch,
    apply_file_patch,
    invert,
    render_unified_diff,
    split_by_granularity,
)
from .patchcore.model import MODE_CREATED, MODE_DELETED
from .gitio import (  # noqa: F401 - checkout_worktree: see below
    CommitMemo,
    CommitRef,
    CommitTree,
    RevertConflict,
    checkout_worktree,
    revert_onto,
)
from .oracle import (
    KIND_POC_INCOMPATIBLE,
    KIND_SANDBOX_FAILURE,
    KIND_TRIGGERED,
    BuildRecipe,
    Oracle,
    OracleVerdict,
    PocSpec,
)

# Nothing here checks a tree out.  `checkout_worktree` stays in this
# namespace only because the benchmark's tests look the name up here.

KIND_PORT_CONFLICT = "PortConflict"
KIND_REVERT_CONFLICT = "RevertConflict"

FINAL_REVIVED = "Revived"
FINAL_ABORTED = "Aborted"

ABORT_COMPLEXITY = "Complexity"
ABORT_TOO_MANY_FILES = "TooManyFiles"
ABORT_TOO_MANY_CHUNKS = "TooManyChunks"
ABORT_FUNCTIONALITY_REMOVED = "FunctionalityRemoved"

PROBE_GOOD = "good"
PROBE_BAD = "bad"
PROBE_SKIP = "skip"


def probe_answer(kind: str) -> str:
    """How bisection reads a verdict kind: Triggered is good, a
    SandboxFailure says nothing about the commit and is skipped, and
    anything else is bad."""
    if kind == KIND_TRIGGERED:
        return PROBE_GOOD
    if kind == KIND_SANDBOX_FAILURE:
        return PROBE_SKIP
    return PROBE_BAD


class PortError(Exception):
    pass


class CompositionConflict(PortError):
    pass


class BisectError(Exception):
    pass


class PreconditionViolated(BisectError):
    pass


class SkipBudgetExhausted(BisectError):
    pass


@dataclass(frozen=True)
class Limits:
    max_reverted_commits: int = 4
    max_files_per_commit: int = 14
    max_chunks_per_file: int = 30


@dataclass(frozen=True)
class PortPolicy:
    granularity: Granularity = Granularity.PatchHunks
    max_fuzz: int = 2
    search_window: int = 200
    normalize_trailing_whitespace: bool = False
    skip_budget: int = 3
    check_origin: bool = True


# ---------- reverse patch derivation ----------


def derive_reverse_patch(
    repo: Path, fix_commits: Sequence[str], commits: Optional[CommitMemo] = None
) -> SourcePatch:
    """Inverse of the combined fix, ready to re-open the hole.

    A single fix is simply its commit diff inverted.  Several fixes are
    composed by strictly replaying each one onto the files of the first
    fix's parent, read from its commit; any replay rejection means the
    fixes are not a clean sequence and raises CompositionConflict.
    `commits` is the caller's memo of the repository, if it keeps one; a
    memo made here is closed before returning.
    """
    if not fix_commits:
        raise PortError("at least one fix commit is required")
    with nullcontext(commits) if commits is not None else CommitMemo(repo) as commits:
        if len(fix_commits) == 1:
            return invert(commits.diff(fix_commits[0]))
        diffs = [commits.diff(c) for c in fix_commits]
        first = commits.resolve(fix_commits[0])
        if not first.parents:
            raise PortError(f"fix {first.short_id} has no parent")
        touched = sorted({fp.path for d in diffs for fp in d.files})
        parent = CommitTree(commits, first.parents[0])
        state: Dict[str, Optional[str]] = {
            path: parent.read(path) if parent.exists(path) else None for path in touched
        }
    before = dict(state)

    for commit, diff in zip(fix_commits, diffs):
        for fp in diff.files:
            current = state.get(fp.path)
            if fp.mode_change == MODE_CREATED:
                if current is not None:
                    raise CompositionConflict(
                        f"{commit}: creates {fp.path} which already exists"
                    )
                current = ""
            elif current is None:
                raise CompositionConflict(f"{commit}: {fp.path} is missing")
            new_content, report = apply_file_patch(current, fp)
            if not report.all_applied:
                raise CompositionConflict(
                    f"{commit}: does not apply cleanly to {fp.path}"
                )
            state[fp.path] = None if fp.mode_change == MODE_DELETED else new_content

    from .patchcore import diff_trees

    forward = diff_trees(
        {p: t for p, t in before.items() if t is not None},
        {p: t for p, t in state.items() if t is not None},
    )
    forward = SourcePatch(files=forward.files, provenance="fix:" + "..".join(
        (fix_commits[0], fix_commits[-1])
    ))
    return invert(forward)


def patch_digest(patch: SourcePatch) -> str:
    return hashlib.sha256(render_unified_diff(patch).encode()).hexdigest()


# ---------- bisection ----------


@dataclass
class BisectResult:
    commit: str
    calls: int
    skipped: List[str]
    non_monotone: bool


def find_breaking_commit(
    candidates: Sequence,
    probe: Callable[[str], str],
    skip_budget: int = 3,
) -> BisectResult:
    """Earliest candidate where `probe` says "bad", by binary search.

    `candidates` is oldest first and assumed monotone: good commits, then
    bad ones.  The commit before the range is trusted good; nothing in
    the range is trusted, including the newest entry.  A "skip" answer
    removes that candidate from consideration and consumes skip budget.
    Probe calls stay within ceil(log2(n)) + skip_budget + 1.
    """
    ids = [c.id if isinstance(c, CommitRef) else c for c in candidates]
    if not ids:
        raise PreconditionViolated("empty candidate range")
    active = list(range(len(ids)))
    calls = 0
    budget = skip_budget
    skipped: List[str] = []
    max_good = -1
    min_bad: Optional[int] = None

    lo, hi = 0, len(active) - 1
    first_bad_pos: Optional[int] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        idx = active[mid]
        calls += 1
        res = probe(ids[idx])
        if res == PROBE_SKIP:
            skipped.append(ids[idx])
            budget -= 1
            if budget < 0:
                raise SkipBudgetExhausted(
                    f"more than {skip_budget} unprobeable commits in range"
                )
            del active[mid]
            hi -= 1
            if first_bad_pos is not None and first_bad_pos > mid:
                first_bad_pos -= 1
            continue
        if res == PROBE_BAD:
            min_bad = idx if min_bad is None else min(min_bad, idx)
            first_bad_pos = mid
            hi = mid - 1
        elif res == PROBE_GOOD:
            max_good = max(max_good, idx)
            lo = mid + 1
        else:
            raise BisectError(f"probe returned {res!r}")
    if first_bad_pos is None:
        raise PreconditionViolated("no failing commit in range")
    flip = active[first_bad_pos]
    return BisectResult(
        commit=ids[flip],
        calls=calls,
        skipped=skipped,
        non_monotone=(min_bad is not None and max_good > min_bad),
    )


# ---------- attempts ----------


@dataclass
class AttemptResult:
    verdict: OracleVerdict
    files_touched: int = 0
    hunks_applied: int = 0
    regions: List[dict] = field(default_factory=list)


@dataclass
class TierResult:
    tier: str
    ref: str
    status: str  # kebab-case verdict kind
    detector_class: str = ""

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "ref": self.ref,
            "status": self.status,
            "detector_class": self.detector_class,
        }


_KIND_TO_STATUS = {
    KIND_TRIGGERED: "triggered",
    "NotTriggered": "not-triggered",
    "BuildFailed": "build-failed",
    KIND_POC_INCOMPATIBLE: "poc-incompatible",
    "Hang": "hang",
    KIND_SANDBOX_FAILURE: "sandbox-failure",
    KIND_PORT_CONFLICT: "port-conflict",
    KIND_REVERT_CONFLICT: "revert-conflict",
}


def status_of(kind: str) -> str:
    return _KIND_TO_STATUS.get(kind, kind.lower())


# ---------- revival record ----------


@dataclass
class RevivalRecord:
    cve: str
    project: str
    fix_commits: List[str]
    target: str
    granularity: str
    final: str
    abort_reason: str
    aborted_on: str
    revert_stack: List[str]  # newest first
    verdict: dict
    effort: dict
    flags: dict
    touched_regions: List[dict]
    port_digest: str

    def to_dict(self) -> dict:
        return {
            "schema": "revival-record/1",
            "cve": self.cve,
            "project": self.project,
            "fix_commits": list(self.fix_commits),
            "target": self.target,
            "granularity": self.granularity,
            "final": self.final,
            "abort_reason": self.abort_reason,
            "aborted_on": self.aborted_on,
            "revert_stack": list(self.revert_stack),
            "verdict": dict(self.verdict),
            "effort": dict(self.effort),
            "flags": dict(self.flags),
            "touched_regions": [dict(r) for r in self.touched_regions],
            "port_digest": self.port_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_dict(d: dict) -> "RevivalRecord":
        return RevivalRecord(
            cve=d["cve"],
            project=d["project"],
            fix_commits=list(d["fix_commits"]),
            target=d["target"],
            granularity=d["granularity"],
            final=d["final"],
            abort_reason=d.get("abort_reason", ""),
            aborted_on=d.get("aborted_on", ""),
            revert_stack=list(d["revert_stack"]),
            verdict=dict(d.get("verdict", {})),
            effort=dict(d.get("effort", {})),
            flags=dict(d.get("flags", {})),
            touched_regions=[dict(r) for r in d.get("touched_regions", [])],
            port_digest=d.get("port_digest", ""),
        )

    @staticmethod
    def from_json(text: str) -> "RevivalRecord":
        return RevivalRecord.from_dict(json.loads(text))


# ---------- the porter ----------


class Porter:
    """Holds one project's repo, build recipe and PoC, and runs ports.

    Every attempt is a `CommitTree`: the ref's commit plus the edits its
    reverts and the reverse fix make, held in memory, so no attempt
    checks anything out; the oracle's build slot is the only place its
    files are written.  Facts about commits are remembered in `commits`
    for the porter's life.  A porter built without an oracle makes one
    whose verdict store lives in the porter's scratch directory.  Close
    the porter (or use it as a context manager) to remove its oracle's
    build slot and any scratch directory it made, and to stop the `git
    cat-file` process its memo reads objects over.
    """

    def __init__(
        self,
        repo: Path,
        recipe: BuildRecipe,
        poc: PocSpec,
        oracle: Optional[Oracle] = None,
        policy: PortPolicy = PortPolicy(),
        limits: Limits = Limits(),
        scratch_dir: Optional[Path] = None,
    ):
        self.repo = Path(repo)
        self.recipe = recipe
        self.poc = poc
        self.policy = policy
        self.limits = limits
        self._own_scratch = scratch_dir is None
        self._scratch = Path(scratch_dir) if scratch_dir else Path(
            tempfile.mkdtemp(prefix="porter-")
        )
        self._scratch.mkdir(parents=True, exist_ok=True)
        self.oracle = oracle or Oracle(
            self._scratch / "verdicts", scratch_dir=self._scratch / "oracle"
        )
        self.commits = CommitMemo(self.repo)
        self.attempt_count = 0
        self._reverse_cache: Dict[Tuple[str, ...], SourcePatch] = {}

    def close(self) -> None:
        """Remove the oracle's build slot, stop the commit memo's reader,
        and remove the scratch directory if the porter made it."""
        self.oracle.close()
        self.commits.close()
        if self._own_scratch:
            shutil.rmtree(self._scratch, ignore_errors=True)

    def __enter__(self) -> "Porter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing --

    def reverse_patch(self, fix_commits: Sequence[str]) -> SourcePatch:
        key = tuple(fix_commits)
        if key not in self._reverse_cache:
            self._reverse_cache[key] = derive_reverse_patch(
                self.repo, fix_commits, self.commits
            )
        return self._reverse_cache[key]

    def _apply_reverse(self, tree, reverse: SourcePatch) -> Tuple[bool, int, int, List[dict]]:
        """Apply the reverse patch to `tree` (a `CommitTree` or a
        `Worktree`) at the configured granularity.

        All units of all files must apply; on any rejection nothing is
        written.  Returns (ok, files, hunks, regions).
        """
        pol = self.policy
        try:
            units = split_by_granularity(reverse, pol.granularity, read_file=tree.read)
        except (HunkRejected, PatchError):
            return False, 0, 0, []

        state: Dict[str, Optional[str]] = {}
        staged: Dict[str, Optional[str]] = {}
        regions: List[dict] = []
        hunks = 0

        def current(path: str) -> Optional[str]:
            if path not in state:
                state[path] = tree.read(path) if tree.exists(path) else None
            return state[path]

        for unit in units:
            for fp in unit.files:
                if fp.is_binary:
                    return False, 0, 0, []
                text = current(fp.path)
                if fp.mode_change == MODE_CREATED:
                    if text is not None:
                        return False, 0, 0, []
                    text = ""
                elif text is None:
                    return False, 0, 0, []
                new_text, report = apply_file_patch(
                    text,
                    fp,
                    max_fuzz=pol.max_fuzz,
                    search_window=pol.search_window,
                    normalize_trailing_whitespace=pol.normalize_trailing_whitespace,
                )
                if not report.all_applied:
                    return False, 0, 0, []
                hunks += report.applied_count
                for hunk, res in zip(fp.hunks, report.results):
                    start = max(1, hunk.new_start + (res.offset or 0))
                    regions.append(
                        {
                            "file": fp.path,
                            "start": start,
                            "end": start + max(hunk.new_len, 1) - 1,
                        }
                    )
                value = None if fp.mode_change == MODE_DELETED else new_text
                state[fp.path] = value
                staged[fp.path] = value

        for path, value in staged.items():
            if value is None:
                tree.delete(path)
            else:
                tree.write(path, value)
        return True, len(staged), hunks, regions

    def _revert_regions(self, breaker: str) -> List[dict]:
        out = []
        for fp in self.commits.inverse(breaker).files:
            for hunk in fp.hunks:
                out.append(
                    {
                        "file": fp.path,
                        "start": max(1, hunk.new_start),
                        "end": max(1, hunk.new_start) + max(hunk.new_len, 1) - 1,
                    }
                )
        return out

    def attempt(
        self, ref: str, reverts_newest_first: Sequence[str], fix_commits: Sequence[str]
    ) -> AttemptResult:
        """Take `ref`'s commit, revert the given commits, reverse-port the
        fix, and get a verdict.  Failures at the patching stage come back
        as synthetic verdict kinds."""
        self.attempt_count += 1
        reverse = self.reverse_patch(fix_commits)
        tree = CommitTree(self.commits, ref)
        for breaker in reverts_newest_first:
            try:
                revert_onto(
                    tree,
                    breaker,
                    max_fuzz=self.policy.max_fuzz,
                    search_window=self.policy.search_window,
                    normalize_trailing_whitespace=self.policy.normalize_trailing_whitespace,
                    inverse=self.commits.inverse(breaker),
                )
            except RevertConflict as exc:
                return AttemptResult(
                    OracleVerdict(KIND_REVERT_CONFLICT, evidence=str(exc))
                )
        ok, files, hunks, regions = self._apply_reverse(tree, reverse)
        if not ok:
            return AttemptResult(
                OracleVerdict(
                    KIND_PORT_CONFLICT,
                    evidence=f"reverse patch does not apply at {ref}",
                )
            )
        for breaker in reverts_newest_first:
            regions = regions + self._revert_regions(breaker)
        verdict = self.oracle.verdict(tree, self.recipe, self.poc)
        return AttemptResult(verdict, files, hunks, regions)

    # -- tier evaluation --

    def evaluate_tiers(
        self, fix_commits: Sequence[str], tiers: Dict[str, str]
    ) -> Dict[str, TierResult]:
        """Trivially reverse-port onto each named tier and classify."""
        out: Dict[str, TierResult] = {}
        for tier, ref in tiers.items():
            if not ref:
                continue
            att = self.attempt(ref, (), fix_commits)
            out[tier] = TierResult(
                tier=tier,
                ref=ref,
                status=status_of(att.verdict.kind),
                detector_class=att.verdict.detector_class,
            )
        return out

    # -- revival --

    def revive(
        self,
        cve: str,
        project: str,
        fix_commits: Sequence[str],
        target: str,
    ) -> RevivalRecord:
        """Revive the vulnerability at `target`, reverting breaking
        commits as needed within the configured limits."""
        reverse = self.reverse_patch(fix_commits)
        cands = self.commits.between(fix_commits[-1], target).ordered
        index = {c.id: i for i, c in enumerate(cands)}
        target_id = self.commits.resolve(target).id
        attempts_before = self.attempt_count

        origin_verified = False
        if self.policy.check_origin:
            origin = self.attempt(fix_commits[-1], (), fix_commits)
            if origin.verdict.kind != KIND_TRIGGERED:
                raise PreconditionViolated(
                    f"PoC does not trigger at the fix commit itself "
                    f"(got {origin.verdict.kind}); nothing to revive"
                )
            origin_verified = True

        stack: List[str] = []  # discovery order, oldest breaker first
        rounds: List[dict] = []
        non_monotone = False
        final = ""
        abort_reason = ""
        aborted_on = ""
        last: AttemptResult = AttemptResult(OracleVerdict("Unknown"))

        def applicable(commit_id: str) -> List[str]:
            pos = index[commit_id]
            usable = [b for b in stack if index[b] <= pos]
            return list(reversed(usable))

        def probe(commit_id: str) -> str:
            att = self.attempt(commit_id, applicable(commit_id), fix_commits)
            return probe_answer(att.verdict.kind)

        while True:
            last = self.attempt(target_id, list(reversed(stack)), fix_commits)
            if last.verdict.kind == KIND_TRIGGERED:
                final = FINAL_REVIVED
                break
            if len(stack) >= self.limits.max_reverted_commits:
                final = FINAL_ABORTED
                abort_reason = (
                    ABORT_FUNCTIONALITY_REMOVED
                    if last.verdict.kind == KIND_POC_INCOMPATIBLE
                    else ABORT_COMPLEXITY
                )
                break
            lo = index[stack[-1]] + 1 if stack else 0
            window = cands[lo:]
            try:
                res = find_breaking_commit(
                    window, probe, skip_budget=self.policy.skip_budget
                )
            except PreconditionViolated:
                final = FINAL_ABORTED
                abort_reason = (
                    ABORT_FUNCTIONALITY_REMOVED
                    if last.verdict.kind == KIND_POC_INCOMPATIBLE
                    else ABORT_COMPLEXITY
                )
                break
            non_monotone = non_monotone or res.non_monotone
            rounds.append(
                {"breaker": res.commit, "calls": res.calls, "skipped": res.skipped}
            )
            bdiff = self.commits.diff(res.commit)
            if len(bdiff.files) > self.limits.max_files_per_commit:
                final = FINAL_ABORTED
                abort_reason = ABORT_TOO_MANY_FILES
                aborted_on = res.commit
                break
            if any(len(fp.hunks) > self.limits.max_chunks_per_file for fp in bdiff.files):
                final = FINAL_ABORTED
                abort_reason = ABORT_TOO_MANY_CHUNKS
                aborted_on = res.commit
                break
            stack.append(res.commit)

        return RevivalRecord(
            cve=cve,
            project=project,
            fix_commits=[self.commits.resolve(c).id for c in fix_commits],
            target=target_id,
            granularity=self.policy.granularity.value,
            final=final,
            abort_reason=abort_reason,
            aborted_on=aborted_on,
            revert_stack=list(reversed(stack)),
            verdict=last.verdict.to_dict(),
            effort={
                "oracle_calls": self.attempt_count - attempts_before,
                "commits_reverted": len(stack),
                "files_touched": last.files_touched,
                "hunks_applied": last.hunks_applied,
                "bisect_rounds": len(rounds),
            },
            flags={"origin_verified": origin_verified, "non_monotone": non_monotone},
            touched_regions=last.regions if final == FINAL_REVIVED else [],
            port_digest=patch_digest(reverse),
        )
