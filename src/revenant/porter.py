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


# A binary search probes only between the last position it read good and
# the last it read bad, so it never sees a good commit above a bad one: a
# window that is not monotone cannot show in its answers.  Records and
# `bisect.json` keep `non_monotone` as a literal false; a drop-one pass,
# re-attempting the target without each breaker found, is what could set it.


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
    active = list(ids)  # the candidates not skipped
    calls = 0
    skipped: List[str] = []
    bad: Optional[str] = None  # the last candidate probed bad
    lo, hi = 0, len(active) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        calls += 1
        res = probe(active[mid])
        if res == PROBE_SKIP:
            skipped.append(active.pop(mid))
            if len(skipped) > skip_budget:
                raise SkipBudgetExhausted(
                    f"more than {skip_budget} unprobeable commits in range"
                )
            hi -= 1
        elif res == PROBE_BAD:
            bad = active[mid]
            hi = mid - 1
        elif res == PROBE_GOOD:
            lo = mid + 1
        else:
            raise BisectError(f"probe returned {res!r}")
    if bad is None:
        raise PreconditionViolated("no failing commit in range")
    return BisectResult(commit=bad, calls=calls, skipped=skipped)


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
    without an oracle makes one whose verdict store and build slot live
    under `scratch_dir`.  Close the porter (or use it as a context
    manager) to remove its oracle's build slot and to stop the processes
    its memo reads objects and diffs over.
    """

    def __init__(
        self,
        repo: Path,
        recipe: BuildRecipe,
        poc: PocSpec,
        oracle: Optional[Oracle] = None,
        policy: PortPolicy = PortPolicy(),
        *,
        limits: Limits,
        scratch_dir: Path,
    ):
        self.repo = Path(repo)
        self.recipe = recipe
        self.poc = poc
        self.policy = policy
        self.limits = limits
        scratch = Path(scratch_dir)
        self.oracle = oracle or Oracle(scratch / "verdicts", scratch_dir=scratch / "oracle")
        self.commits = CommitMemo(self.repo)
        self.attempt_count = 0
        self._reverse_cache: Dict[Tuple[str, ...], SourcePatch] = {}

    def close(self) -> None:
        """Remove the oracle's build slot and stop the commit memo's
        processes."""
        self.oracle.close()
        self.commits.close()

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

    # -- bisection --

    def bisect(
        self, ids: Sequence[str], fix_commits: Sequence[str], reverts: Sequence[str]
    ) -> BisectResult:
        """The first of `ids` where the reverse fix, with `reverts` reverted
        newest first, no longer triggers the PoC (see `find_breaking_commit`),
        within the policy's skip budget."""
        return find_breaking_commit(
            ids,
            lambda c: probe_answer(self.attempt(c, reverts, fix_commits).verdict.kind),
            self.policy.skip_budget,
        )

    # -- revival --

    def revive(
        self,
        cve: str,
        project: str,
        fix_commits: Sequence[str],
        target: str,
    ) -> RevivalRecord:
        """Revive the vulnerability at `target`, reverting breaking
        commits as needed within the configured limits.  Each round
        bisects the commits after the last breaker found, with every
        breaker found so far reverted."""
        reverse = self.reverse_patch(fix_commits)
        window = [c.id for c in self.commits.between(fix_commits[-1], target)]
        target_id = self.commits.resolve(target).id
        attempts_before = self.attempt_count

        origin = self.attempt(fix_commits[-1], (), fix_commits)
        if origin.verdict.kind != KIND_TRIGGERED:
            raise PreconditionViolated(
                f"PoC does not trigger at the fix commit itself "
                f"(got {origin.verdict.kind}); nothing to revive"
            )

        stack: List[str] = []  # newest breaker first
        rounds = 0
        abort_reason = ""
        aborted_on = ""
        while True:
            last = self.attempt(target_id, stack, fix_commits)
            if last.verdict.kind == KIND_TRIGGERED:
                break
            res = None  # no breaker found: out of budget, or none in the window
            if len(stack) < self.limits.max_reverted_commits:
                try:
                    res = self.bisect(window, fix_commits, stack)
                except PreconditionViolated:
                    pass
            if res is None:
                abort_reason = (
                    ABORT_FUNCTIONALITY_REMOVED
                    if last.verdict.kind == KIND_POC_INCOMPATIBLE
                    else ABORT_COMPLEXITY
                )
                break
            rounds += 1
            abort_reason = self._oversized(res.commit)
            if abort_reason:
                aborted_on = res.commit
                break
            stack = [res.commit, *stack]
            window = window[window.index(res.commit) + 1:]

        final = FINAL_ABORTED if abort_reason else FINAL_REVIVED
        return RevivalRecord(
            cve=cve,
            project=project,
            fix_commits=[self.commits.resolve(c).id for c in fix_commits],
            target=target_id,
            granularity=self.policy.granularity.value,
            final=final,
            abort_reason=abort_reason,
            aborted_on=aborted_on,
            revert_stack=stack,
            verdict=last.verdict.to_dict(),
            effort={
                "oracle_calls": self.attempt_count - attempts_before,
                "commits_reverted": len(stack),
                "files_touched": last.files_touched,
                "hunks_applied": last.hunks_applied,
                "bisect_rounds": rounds,
            },
            # always false: see the note above `find_breaking_commit`
            flags={"origin_verified": True, "non_monotone": False},
            touched_regions=last.regions if final == FINAL_REVIVED else [],
            port_digest=patch_digest(reverse),
        )

    def _oversized(self, commit: str) -> str:
        """The abort reason if `commit` is too large to revert, else ""."""
        files = self.commits.diff(commit).files
        if len(files) > self.limits.max_files_per_commit:
            return ABORT_TOO_MANY_FILES
        if any(len(fp.hunks) > self.limits.max_chunks_per_file for fp in files):
            return ABORT_TOO_MANY_CHUNKS
        return ""
