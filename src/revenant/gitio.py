"""Thin porcelain over a local git repository.

Everything here shells out to git.  A `CommitMemo` remembers what a full
commit id names, which never changes, for as long as its owner keeps it;
the module-level functions start from an empty memo on every call.  A
`CommitTree` is a commit's files plus edits held in memory, so patching
one writes nothing to disk.  File contents travel as str with
surrogateescape so arbitrary bytes survive the Python layer unchanged.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import subprocess
import sys
from collections import OrderedDict
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .patchcore import (
    ApplyReport,
    MODE_CREATED,
    MODE_DELETED,
    SourcePatch,
    apply_file_patch,
    invert,
    parse_unified_diff,
)

ENCODING = "utf-8"
ERRORS = "surrogateescape"

# the modes of a tree entry, as git writes them
MODE_FILE = "100644"
MODE_EXEC = "100755"
MODE_LINK = "120000"

# one tree entry: (path, mode, git object id)
Entry = Tuple[str, str, str]

LISTING_MEMO = 16  # commit listings a CommitMemo keeps, most recently used
TEXT_MEMO = 64  # blob texts a CommitMemo keeps, most recently used
# object ids written to `git cat-file --batch` before reading their
# contents back: 256 ids of at most 65 bytes fit in a pipe's buffer, so
# the write never waits on git while git waits on us
CAT_FILE_BATCH = 256


class GitGatewayError(Exception):
    pass


class UnknownRef(GitGatewayError):
    pass


class ShallowHistory(GitGatewayError):
    pass


class NotAncestor(GitGatewayError):
    pass


class DirtyDestination(GitGatewayError):
    pass


class RootCommit(GitGatewayError):
    pass


class RevertConflict(GitGatewayError):
    def __init__(self, message: str, reports: Optional[List[ApplyReport]] = None):
        super().__init__(message)
        self.reports = reports or []


def decode_text(data: bytes) -> str:
    """File bytes as text: UTF-8 with surrogateescape, and universal
    newlines, as `open` reads a file in text mode."""
    return data.decode(ENCODING, ERRORS).replace("\r\n", "\n").replace("\r", "\n")


def encode_text(text: str) -> bytes:
    return text.encode(ENCODING, ERRORS)


def read_file(path: Path) -> str:
    return decode_text(path.read_bytes())


def write_file(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_text(text))


def blob_id(data: bytes, algorithm: str = "sha1") -> str:
    """The object id git gives a blob holding `data`."""
    return hashlib.new(algorithm, b"blob %d\0%s" % (len(data), data)).hexdigest()


def run_git(
    repo: Path, *args: str, check: bool = True, text: bool = True
) -> subprocess.CompletedProcess:
    """Run git in `repo`; its output is str, or bytes without `text`."""
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=text,
        encoding=ENCODING if text else None,
        errors=ERRORS if text else None,
    )
    if check and proc.returncode != 0:
        stderr = proc.stderr if text else proc.stderr.decode(ENCODING, ERRORS)
        raise GitGatewayError(
            f"git {' '.join(args)} failed ({proc.returncode}): {stderr.strip()}"
        )
    return proc


def _cat_file(repo: Path, oids: Sequence[str]) -> Iterator[bytes]:
    """The contents of the blobs `oids`, in order, one at a time, from one
    `git cat-file --batch`.  The process is killed if need be and waited
    for when the generator finishes or is closed."""
    proc = subprocess.Popen(
        ["git", "-C", str(repo), "cat-file", "--batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        for start in range(0, len(oids), CAT_FILE_BATCH):
            batch = oids[start : start + CAT_FILE_BATCH]
            proc.stdin.write("".join(f"{oid}\n" for oid in batch).encode())
            proc.stdin.flush()
            for oid in batch:
                header = proc.stdout.readline().split()
                if len(header) != 3 or header[1] != b"blob":
                    raise GitGatewayError(f"git cat-file has no blob {oid} in {repo}")
                size = int(header[2])
                data = proc.stdout.read(size)
                if len(data) != size or proc.stdout.read(1) != b"\n":
                    raise GitGatewayError(f"git cat-file cut blob {oid} short in {repo}")
                yield data
    finally:
        proc.kill()
        proc.wait()
        with suppress(OSError):  # a write cut short leaves bytes to flush
            proc.stdin.close()
        proc.stdout.close()


@dataclass(frozen=True)
class CommitRef:
    id: str
    short_id: str
    timestamp: int  # committer date, UTC epoch seconds
    author_timestamp: int  # author date, for histogram consumers that want it
    parents: Tuple[str, ...]
    touched_files: Tuple[str, ...]

    def __str__(self) -> str:
        return self.short_id


@dataclass
class CommitRange:
    base: CommitRef
    tip: CommitRef
    ordered: List[CommitRef] = field(default_factory=list)  # (base, tip], oldest first

    def __len__(self) -> int:
        return len(self.ordered)


@contextmanager
def _worktree_list_lock(repo: Path) -> Iterator[None]:
    """Hold an exclusive lock on `repo` while its worktree list changes.

    `git worktree add` and `remove` read every entry of the list and fail
    on one that another process or thread is still making.
    """
    fd = os.open(repo, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # releases the lock


@dataclass
class Worktree:
    repo: Path
    commit: str
    path: Path

    def read(self, relpath: str) -> str:
        return read_file(self.path / relpath)

    def write(self, relpath: str, text: str) -> None:
        write_file(self.path / relpath, text)

    def exists(self, relpath: str) -> bool:
        return (self.path / relpath).is_file()

    def delete(self, relpath: str) -> None:
        (self.path / relpath).unlink(missing_ok=True)

    def remove(self) -> None:
        # entries whose directory is gone are pruned by the next
        # `checkout_worktree`, under the same lock
        with _worktree_list_lock(self.repo):
            run_git(self.repo, "worktree", "remove", "--force", str(self.path), check=False)

    def __enter__(self) -> "Worktree":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


_LOG_ARGS = (
    "log",
    "--first-parent",
    "--name-only",
    "--no-renames",
    "--format=%x01%H%x00%h%x00%ct%x00%at%x00%P",
)


def _log(repo: Path, *revs: str) -> List[CommitRef]:
    """CommitRefs of `git log --first-parent` over `revs`, in log order."""
    proc = run_git(repo, *_LOG_ARGS, *revs, "--")
    refs: List[CommitRef] = []
    for block in proc.stdout.split("\x01"):
        if not block.strip():
            continue
        head, _, names_blob = block.partition("\n")
        full, short, ct, at, parents_raw = head.split("\x00")
        refs.append(
            CommitRef(
                id=full,
                short_id=short,
                timestamp=int(ct),
                author_timestamp=int(at),
                parents=tuple(parents_raw.split()) if parents_raw else (),
                touched_files=tuple(ln for ln in names_blob.split("\n") if ln),
            )
        )
    return refs


def _rev_parse(repo: Path, name: str) -> str:
    """Full id of the commit `name` points at; tags are peeled."""
    proc = run_git(repo, "rev-parse", "--verify", "--quiet", f"{name}^{{commit}}", check=False)
    if proc.returncode != 0:
        raise UnknownRef(f"{name!r} does not name a commit in {repo}")
    return proc.stdout.strip()


class CommitMemo:
    """Facts about one repository's commits, remembered by full id.

    A full id always names the same commit, so its CommitRef, its diff and
    the inverse of that diff are kept for the life of the memo, and the
    listings of the last `LISTING_MEMO` commits and the texts of the last
    `TEXT_MEMO` blobs read are kept too.  A name (branch, tag, abbreviated
    id) can move, so it is resolved again on every call.  The
    shallow-clone check runs once.  Patches and listings are shared
    between callers, who must not modify them.
    """

    def __init__(self, repo: Path):
        self.repo = Path(repo)
        self._refs: Dict[str, CommitRef] = {}
        self._diffs: Dict[Tuple[str, int], SourcePatch] = {}
        self._inverses: Dict[str, SourcePatch] = {}
        self._listings: "OrderedDict[str, Dict[str, Tuple[str, str]]]" = OrderedDict()
        self._texts: "OrderedDict[str, str]" = OrderedDict()
        self._full_history = False

    def _commit_id(self, name: str) -> str:
        if name in self._refs:
            return name
        if not self._full_history:
            shallow = run_git(self.repo, "rev-parse", "--is-shallow-repository")
            if shallow.stdout.strip() == "true":
                raise ShallowHistory(
                    f"{self.repo} is a shallow clone; fetch full history first"
                )
            self._full_history = True
        return _rev_parse(self.repo, name)

    def resolve(self, name: str) -> CommitRef:
        """Resolve a branch, tag or abbreviated id to a CommitRef.

        Tags are peeled to the commit they point at.  Shallow clones are
        refused because every range operation here assumes full history.
        """
        commit_id = self._commit_id(name)
        ref = self._refs.get(commit_id)
        if ref is None:
            ref = self._refs[commit_id] = _log(self.repo, "-1", commit_id)[0]
        return ref

    def between(self, base: str, tip: str) -> CommitRange:
        """First-parent path (base, tip], oldest first."""
        base_ref = self.resolve(base)
        tip_id = self._commit_id(tip)
        anc = run_git(
            self.repo, "merge-base", "--is-ancestor", base_ref.id, tip_id, check=False
        )
        if anc.returncode != 0:
            raise NotAncestor(f"{base} is not a first-parent ancestor of {tip}")
        ordered = _log(self.repo, "--reverse", f"{base_ref.id}..{tip_id}")
        for ref in ordered:
            self._refs.setdefault(ref.id, ref)
        # guard against the base slipping in (it cannot, with A..B) and make
        # sure the walk ends at the tip we resolved
        if ordered and ordered[-1].id != tip_id:
            raise GitGatewayError("first-parent walk did not end at the tip")
        return CommitRange(base=base_ref, tip=self.resolve(tip_id), ordered=ordered)

    def diff(self, commit: str, context: int = 3) -> SourcePatch:
        """The commit's diff against its first parent, as a SourcePatch."""
        ref = self.resolve(commit)
        patch = self._diffs.get((ref.id, context))
        if patch is None:
            if not ref.parents:
                raise RootCommit(f"{ref.short_id} has no parent to diff against")
            proc = run_git(
                self.repo,
                "diff",
                "--no-color",
                "--no-renames",
                f"-U{context}",
                ref.parents[0],
                ref.id,
            )
            patch = parse_unified_diff(proc.stdout, provenance=f"commit:{ref.id}")
            self._diffs[(ref.id, context)] = patch
        return patch

    def inverse(self, commit: str) -> SourcePatch:
        """The inverse of the commit's diff: what reverting it applies."""
        ref = self.resolve(commit)
        patch = self._inverses.get(ref.id)
        if patch is None:
            patch = self._inverses[ref.id] = invert(self.diff(ref.id))
        return patch

    def listing(self, commit: str) -> Dict[str, Tuple[str, str]]:
        """Path -> (mode, blob id) of every file and symlink in the commit,
        from one `git ls-tree`.  A submodule, which a checkout leaves as an
        empty directory, is not listed."""
        commit_id = self.resolve(commit).id
        found = self._listings.get(commit_id)
        if found is not None:
            self._listings.move_to_end(commit_id)
            return found
        out = run_git(self.repo, "ls-tree", "-r", "-z", "--full-tree", commit_id, text=False)
        found = {}
        for record in out.stdout.split(b"\0"):
            meta, _, path = record.partition(b"\t")
            if not path:
                continue
            mode, kind, oid = meta.decode().split()
            if kind != "blob":
                continue
            if mode not in (MODE_EXEC, MODE_LINK):
                mode = MODE_FILE  # what a checkout of any other file mode writes
            # listings of nearby commits share most paths and ids
            found[sys.intern(os.fsdecode(path))] = (mode, sys.intern(oid))
        self._listings[commit_id] = found
        if len(self._listings) > LISTING_MEMO:
            self._listings.popitem(last=False)
        return found

    def text(self, oid: str) -> str:
        """The blob `oid` as text, as `read_file` reads a file."""
        text = self._texts.get(oid)
        if text is not None:
            self._texts.move_to_end(oid)
            return text
        text = decode_text(run_git(self.repo, "cat-file", "blob", oid, text=False).stdout)
        self._texts[oid] = text
        if len(self._texts) > TEXT_MEMO:
            self._texts.popitem(last=False)
        return text


class CommitTree:
    """A commit's files plus edits held in memory: what an attempt builds.

    Unedited files are the commit's blobs, as `CommitMemo.listing` gives
    them; `write` and `delete` record edits and touch no disk.  Files read
    and write as text the way a `Worktree`'s do, and a file written where
    none was gets mode 100644.  A symlink reads and writes as its target,
    as `git apply` treats it.  The committed bytes are used as they are:
    checkout filters (eol conversion, smudge, ident) are not applied.

    `entries()` lists each file as (path, mode, object id), with ids of
    edited files computed as git would, in the repository's hash
    algorithm, so the listing equals that of a checkout of the commit
    with the same edits made on disk.  `blobs()` streams file contents.
    """

    def __init__(self, commits: CommitMemo, commit: str):
        self.commits = commits
        self.repo = commits.repo
        self.commit = commits.resolve(commit).id
        self._listing = commits.listing(self.commit)
        self._edits: Dict[str, Optional[Tuple[str, bytes]]] = {}  # None: deleted
        self._entries: Optional[List[Entry]] = None

    def _mode(self, relpath: str) -> Optional[str]:
        if relpath in self._edits:
            edit = self._edits[relpath]
            return None if edit is None else edit[0]
        listed = self._listing.get(relpath)
        return None if listed is None else listed[0]

    def exists(self, relpath: str) -> bool:
        return self._mode(relpath) is not None

    def read(self, relpath: str) -> str:
        if relpath in self._edits:
            edit = self._edits[relpath]
            if edit is None:
                raise FileNotFoundError(relpath)
            return decode_text(edit[1])
        if relpath not in self._listing:
            raise FileNotFoundError(relpath)
        return self.commits.text(self._listing[relpath][1])

    def write(self, relpath: str, text: str) -> None:
        self._edits[relpath] = (self._mode(relpath) or MODE_FILE, encode_text(text))
        self._entries = None

    def delete(self, relpath: str) -> None:
        self._edits[relpath] = None
        self._entries = None

    def entries(self) -> List[Entry]:
        """(path, mode, object id) of every file, sorted by path."""
        if self._entries is None:
            algorithm = "sha256" if len(self.commit) == 64 else "sha1"
            listed = [
                (path, mode, oid)
                for path, (mode, oid) in self._listing.items()
                if path not in self._edits
            ]
            edited = [
                (path, edit[0], blob_id(edit[1], algorithm))
                for path, edit in self._edits.items()
                if edit is not None
            ]
            self._entries = sorted(listed + edited)
        return self._entries

    def blobs(self, entries: Iterable[Entry]) -> Iterator[Tuple[Entry, bytes]]:
        """Each of `entries` with its content, one at a time: edited files
        from memory, the rest from one `git cat-file --batch`, which is
        waited for before this generator finishes or is closed."""
        listed = []
        for entry in entries:
            edit = self._edits.get(entry[0])
            if edit is None:
                listed.append(entry)
            else:
                yield entry, edit[1]
        if listed:
            with closing(_cat_file(self.repo, [oid for _, _, oid in listed])) as contents:
                yield from zip(listed, contents)


def resolve_ref(repo: Path, name: str) -> CommitRef:
    """`CommitMemo.resolve` with nothing remembered."""
    return CommitMemo(repo).resolve(name)


def commits_between(repo: Path, base: str, tip: str) -> CommitRange:
    """`CommitMemo.between` with nothing remembered."""
    return CommitMemo(repo).between(base, tip)


def commit_diff(repo: Path, commit: str, context: int = 3) -> SourcePatch:
    """`CommitMemo.diff` with nothing remembered."""
    return CommitMemo(repo).diff(commit, context)


def checkout_worktree(repo: Path, commit: str, dest: Path) -> Worktree:
    """Materialize `commit` in a detached worktree at `dest`.

    Multiple worktrees of the same repository may coexist.
    """
    repo = Path(repo)
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise DirtyDestination(f"{dest} exists and is not empty")
    commit_id = _rev_parse(repo, commit)
    if dest.exists():
        dest.rmdir()  # `git worktree add` wants to create it
    with _worktree_list_lock(repo):
        # drop the entries of worktrees whose directory is gone, as a
        # crashed run leaves them; under the lock no entry is half-made
        run_git(repo, "worktree", "prune")
        run_git(repo, "worktree", "add", "--detach", str(dest), commit_id)
    return Worktree(repo=repo, commit=commit_id, path=dest)


def revert_onto(
    tree,
    commit: str,
    max_fuzz: int = 0,
    search_window: int = 200,
    normalize_trailing_whitespace: bool = False,
    inverse: Optional[SourcePatch] = None,
) -> List[ApplyReport]:
    """Apply the inverse of `commit`'s diff to `tree`, atomically.

    `tree` is a `Worktree` or a `CommitTree`.  Either every hunk of every
    touched file applies and the files are written, or RevertConflict is
    raised and nothing changes.  Files the commit touched that are absent
    from the tree are skipped with an empty report (filtered checkouts are
    legitimate).  A caller that already holds the inverse (see
    `CommitMemo.inverse`) passes it in.
    """
    if inverse is None:
        inverse = invert(commit_diff(tree.repo, commit))
    staged: List[Tuple[str, Optional[str]]] = []  # (path, new_content or None=delete)
    reports: List[ApplyReport] = []
    failures: List[ApplyReport] = []

    for fp in inverse.files:
        if fp.is_binary:
            report = ApplyReport(path=fp.path)
            failures.append(report)
            reports.append(report)
            continue
        if fp.mode_change == MODE_CREATED:
            if tree.exists(fp.path):
                report = ApplyReport(path=fp.path)
                failures.append(report)
                reports.append(report)
                continue
            content = ""
        elif not tree.exists(fp.path):
            # the tree may be a filtered subset; nothing to do here
            reports.append(ApplyReport(path=fp.path))
            continue
        else:
            content = tree.read(fp.path)
        new_content, report = apply_file_patch(
            content,
            fp,
            max_fuzz=max_fuzz,
            search_window=search_window,
            normalize_trailing_whitespace=normalize_trailing_whitespace,
        )
        reports.append(report)
        if not report.all_applied:
            failures.append(report)
            continue
        staged.append((fp.path, None if fp.mode_change == MODE_DELETED else new_content))

    if failures:
        paths = ", ".join(r.path for r in failures)
        raise RevertConflict(f"revert of {commit} conflicts in: {paths}", reports)

    for relpath, content in staged:
        if content is None:
            tree.delete(relpath)
        else:
            tree.write(relpath, content)
    return reports


@dataclass
class ActivityHistogram:
    bucket_width_days: int
    start: int  # epoch seconds of the first bucket's left edge
    buckets: List[Tuple[int, int, int]] = field(default_factory=list)
    # each bucket: (bucket_start_epoch, total_commits, cve_related_commits)

    @property
    def total(self) -> int:
        return sum(b[1] for b in self.buckets)

    @property
    def related_total(self) -> int:
        return sum(b[2] for b in self.buckets)


def activity_histogram(
    commit_range: CommitRange,
    tracked_files: Iterable[str],
    bucket_width_days: int = 14,
) -> ActivityHistogram:
    """Bucketed commit counts over the range, by committer timestamp.

    Buckets are anchored at the first in-range commit and cover through the
    tip; out-of-order timestamps (rebases, clock skew) are clamped into the
    edge buckets so every commit is counted exactly once.
    """
    tracked = set(tracked_files)
    width = bucket_width_days * 86400
    ordered = commit_range.ordered
    if not ordered:
        return ActivityHistogram(bucket_width_days=bucket_width_days, start=0, buckets=[])
    start = ordered[0].timestamp
    span_end = max(commit_range.tip.timestamp, max(c.timestamp for c in ordered))
    n_buckets = max((span_end - start) // width + 1, 1)
    totals = [0] * n_buckets
    related = [0] * n_buckets
    for c in ordered:
        idx = (c.timestamp - start) // width
        idx = min(max(idx, 0), n_buckets - 1)
        totals[idx] += 1
        if tracked and any(f in tracked for f in c.touched_files):
            related[idx] += 1
    buckets = [
        (start + i * width, totals[i], related[i]) for i in range(n_buckets)
    ]
    return ActivityHistogram(
        bucket_width_days=bucket_width_days, start=start, buckets=buckets
    )
