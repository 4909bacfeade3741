"""Reverse-porting fix commits and reviving their vulnerabilities.

The core loop: derive the inverse of the fix, apply it to a later tree,
and ask the oracle whether the proof of concept triggers again.  When it
does not, binary-search the history for the commit that broke the port
or the PoC, revert it, and try again, within configured budgets.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .patchcore import (
    CONFLICT_EXISTS,
    CONFLICT_MISSING,
    ApplyReport,
    FilePatch,
    Granularity,
    PatchConflict,
    PatchError,
    SourcePatch,
    apply_patch,
    diff_trees,
    invert,
    render_unified_diff,
    split_by_granularity,
    tree_reader,
)
from .gitio import CommitMemo, CommitTree, RevertConflict, revert_onto
from .gitio import checkout_worktree  # noqa: F401 - see below
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
    skip_budget: int = 3


# ---------- reverse patch derivation ----------


def derive_reverse_patch(commits: CommitMemo, fix_commits: Sequence[str]) -> SourcePatch:
    """Inverse of the combined fix, ready to re-open the hole, from the
    caller's memo of the repository.

    A single fix is simply its commit diff inverted.  Several fixes are
    composed by strictly replaying each one onto a `CommitTree` of the
    first fix's parent; any replay conflict means the fixes are not a
    clean sequence and raises CompositionConflict.
    """
    if not fix_commits:
        raise PortError("at least one fix commit is required")
    if len(fix_commits) == 1:
        return commits.inverse(fix_commits[0])
    diffs = [commits.diff(c) for c in fix_commits]
    first = commits.resolve(fix_commits[0])
    if not first.parents:
        raise PortError(f"fix {first.short_id} has no parent")
    tree = CommitTree(commits, first.parents[0])
    paths = sorted({fp.path for d in diffs for fp in d.files})
    before = {p: tree.read(p) for p in paths if tree.exists(p)}
    for commit, diff in zip(fix_commits, diffs):
        try:
            apply_patch(tree, diff.files, max_fuzz=0)
        except PatchConflict as exc:
            path, reason = next(iter(exc.reasons.items()))
            message = _COMPOSITION_CONFLICT.get(reason, "{commit}: does not apply cleanly to {path}")
            raise CompositionConflict(message.format(commit=commit, path=path)) from None

    return invert(diff_trees(before, {p: tree.read(p) for p in paths if tree.exists(p)}))


_COMPOSITION_CONFLICT = {
    CONFLICT_EXISTS: "{commit}: creates {path} which already exists",
    CONFLICT_MISSING: "{commit}: {path} is missing",
}


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
    ids: Sequence[str],
    probe: Callable[[str], str],
    skip_budget: int,
) -> BisectResult:
    """Earliest candidate where `probe` says "bad", by binary search.

    `ids` are the candidate commit ids, oldest first, assumed monotone:
    good commits, then bad ones.  The commit before the range is trusted
    good; nothing in the range is trusted, including the newest entry.
    A "skip" answer removes that candidate from consideration and
    consumes skip budget.  Probe calls stay within
    ceil(log2(n)) + skip_budget + 1.
    """
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


def _regions(files: Sequence[FilePatch], reports: Sequence[ApplyReport]) -> List[dict]:
    """The lines each applied hunk of `files` covers in the patched text,
    where its report's offset says it applied; a file whose report has no
    offsets (one a revert skipped) has none."""
    regions = []
    for fp, report in zip(files, reports):
        for hunk, offset in zip(fp.hunks, report.offsets):
            start = max(1, hunk.new_start + offset)
            regions.append(
                {"file": fp.path, "start": start, "end": start + max(hunk.new_len, 1) - 1}
            )
    return regions


@dataclass
class AttemptResult:
    verdict: Optional[OracleVerdict]  # None: edits made, no verdict asked yet
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
        return asdict(self)


def status_of(kind: str) -> str:
    """A verdict kind in kebab case: NotTriggered is not-triggered."""
    return "".join(f"-{c}" if c.isupper() and i else c for i, c in enumerate(kind)).lower()


# ---------- revival record ----------


RECORD_SCHEMA = "revival-record/1"


@dataclass(kw_only=True)
class RevivalRecord:
    """What one revival did.  A serialized record may leave out the
    fields that have a default."""

    cve: str
    project: str
    fix_commits: List[str]
    target: str
    granularity: str
    final: str
    abort_reason: str = ""
    aborted_on: str = ""
    revert_stack: List[str]  # newest first
    verdict: dict = field(default_factory=dict)
    effort: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    touched_regions: List[dict] = field(default_factory=list)
    port_digest: str = ""

    def to_dict(self) -> dict:
        return {"schema": RECORD_SCHEMA, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_dict(d: dict) -> "RevivalRecord":
        """The record `to_dict` gave; a missing required key raises KeyError."""
        return RevivalRecord(**{
            f.name: copy.deepcopy(d[f.name])
            for f in fields(RevivalRecord)
            if f.name in d or (f.default is MISSING and f.default_factory is MISSING)
        })

    @staticmethod
    def from_json(text: str) -> "RevivalRecord":
        return RevivalRecord.from_dict(json.loads(text))


# ---------- the porter ----------


class Porter:
    """Holds one project's repo, build recipe and PoC, and runs ports.

    Every attempt is a `CommitTree`: the ref's commit plus the edits its
    reverts and the reverse fix make, held in memory, so no attempt
    checks anything out; the oracle's build slot is the only place its
    files are written.  `edit` is the one place those edits are made,
    on a `CommitTree` or on a checkout.  Facts about commits are
    remembered in `commits` for the porter's life.  A porter built
    without an oracle makes one whose verdict store lives in the porter's
    scratch directory.  Close the porter (or use it as a context manager)
    to remove its oracle's build slot and any scratch directory it made,
    and to stop the `git cat-file` process its memo reads objects over.
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
            self._reverse_cache[key] = derive_reverse_patch(self.commits, fix_commits)
        return self._reverse_cache[key]

    def edit(
        self, tree, reverts_newest_first: Sequence[str], fix_commits: Sequence[str]
    ) -> AttemptResult:
        """Make an attempt's edits on `tree`, a `CommitTree` or a
        `Worktree`: revert the given commits, newest first, then apply the
        reverse fix at the configured granularity.

        Returns the files, hunks and regions edited, with verdict None;
        or, at the first revert or reverse fix that does not apply, a
        RevertConflict or PortConflict verdict, with that edit unmade,
        whose evidence names each file that did not apply.
        """
        reverse = self.reverse_patch(fix_commits)
        reverted = []
        for breaker in reverts_newest_first:
            inverse = self.commits.inverse(breaker)
            try:
                reports = revert_onto(tree, breaker, inverse, max_fuzz=self.policy.max_fuzz)
            except RevertConflict as exc:
                return AttemptResult(OracleVerdict(KIND_REVERT_CONFLICT, evidence=str(exc)))
            reverted += _regions(inverse.files, reports)
        try:
            files = split_by_granularity(reverse, self.policy.granularity, tree_reader(tree))
            reports = apply_patch(tree, files, max_fuzz=self.policy.max_fuzz)
        except PatchError as exc:
            return AttemptResult(OracleVerdict(
                KIND_PORT_CONFLICT, evidence=f"reverse patch does not apply at {tree.commit}: {exc}"
            ))
        hunks = sum(len(report.offsets) for report in reports)
        return AttemptResult(
            None, len({fp.path for fp in files}), hunks, _regions(files, reports) + reverted
        )

    def attempt(
        self, ref: str, reverts_newest_first: Sequence[str], fix_commits: Sequence[str]
    ) -> AttemptResult:
        """Take `ref`'s commit, make the attempt's edits (see `edit`) in
        memory, and get a verdict for the edited tree unless an edit
        conflicted."""
        self.attempt_count += 1
        tree = CommitTree(self.commits, ref)
        result = self.edit(tree, reverts_newest_first, fix_commits)
        if result.verdict is None:
            result.verdict = self.oracle.verdict(tree, self.recipe, self.poc)
        return result

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
        cands = [c.id for c in self.commits.between(fix_commits[-1], target)]
        index = {c: i for i, c in enumerate(cands)}
        target_id = self.commits.resolve(target).id
        attempts_before = self.attempt_count

        origin = self.attempt(fix_commits[-1], (), fix_commits)
        if origin.verdict.kind != KIND_TRIGGERED:
            raise PreconditionViolated(
                f"PoC does not trigger at the fix commit itself "
                f"(got {origin.verdict.kind}); nothing to revive"
            )

        stack: List[str] = []  # discovery order, oldest breaker first
        rounds = 0
        non_monotone = False
        final = ""
        abort_reason = ""
        aborted_on = ""

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
            res = None  # no breaker found: out of budget, or none in the window
            if len(stack) < self.limits.max_reverted_commits:
                lo = index[stack[-1]] + 1 if stack else 0
                try:
                    res = find_breaking_commit(
                        cands[lo:], probe, skip_budget=self.policy.skip_budget
                    )
                except PreconditionViolated:
                    pass
            if res is None:
                final = FINAL_ABORTED
                abort_reason = (
                    ABORT_FUNCTIONALITY_REMOVED
                    if last.verdict.kind == KIND_POC_INCOMPATIBLE
                    else ABORT_COMPLEXITY
                )
                break
            non_monotone = non_monotone or res.non_monotone
            rounds += 1
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
                "bisect_rounds": rounds,
            },
            flags={"origin_verified": True, "non_monotone": non_monotone},
            touched_regions=last.regions if final == FINAL_REVIVED else [],
            port_digest=patch_digest(reverse),
        )
