"""Thin porcelain over a local git repository.

Everything here shells out to git.  A `CommitMemo` remembers what a full
commit id names, which never changes, for as long as its owner keeps it,
and reads every object it needs over one `git cat-file --batch` process
that it starts on the first such read: the commit objects that names
and ranges resolve to, tree objects for commit listings and touched
files, and blobs for patching and for the build slot.  It diffs commits
over one `git diff-tree --stdin` process, started on the first diff.
Close the memo to stop both; a memo starts no other git process.  The
module-level functions start from an empty memo on every call and close
it.  A `CommitTree` is a commit's files plus edits held in memory, so
patching one writes nothing to disk.  File contents travel as str with
surrogateescape so arbitrary bytes survive the Python layer unchanged.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import subprocess
import sys
import threading
import weakref
from collections import OrderedDict
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .patchcore import (
    CONTEXT_LINES,
    ApplyReport,
    PatchConflict,
    SourcePatch,
    apply_patch,
    invert,
    parse_unified_diff,
)

ENCODING = "utf-8"
ERRORS = "surrogateescape"

# the modes of a tree entry, as git writes them
MODE_FILE = "100644"
MODE_EXEC = "100755"
MODE_LINK = "120000"

# the modes of a subtree, which a listing walks into, and of a submodule's
# commit (a gitlink), which it leaves out
MODE_TREE = "040000"
MODE_GITLINK = "160000"

# one tree entry: (path, mode, git object id)
Entry = Tuple[str, str, str]

TREE_MEMO = 4096  # parsed tree objects a CommitMemo keeps, most recently used
TEXT_MEMO = 64  # blob texts a CommitMemo keeps, most recently used
# object ids written to `git cat-file --batch` before reading their
# contents back: 256 ids of at most 65 bytes fit in a pipe's buffer, so
# the write never waits on git while git waits on us
CAT_FILE_BATCH = 256
# The memo's diff process.  For each `<commit> <parent>` line it reads, it
# prints the commit's id (`--always`: also when the diff is empty) and the
# diff against that parent; it copies a line that is not an object id to
# stdout and flushes, so `DIFF_END` after each request marks the end of
# its reply.  No line of a diff reads like it.  Plumbing reads no diff.*
# config of the user or the repository.  Its context width is the one a
# composed reverse patch is made with.
DIFF_TREE = (
    "diff-tree", "--stdin", "--always", "-p", "--no-color", "--no-renames", f"-U{CONTEXT_LINES}"
)
DIFF_END = b"revenant: end of diff\n"


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
    pass


def decode_text(data: bytes) -> str:
    """File bytes as text: UTF-8 with surrogateescape, line endings kept,
    so `encode_text` gives the bytes back."""
    return data.decode(ENCODING, ERRORS)


def encode_text(text: str) -> bytes:
    return text.encode(ENCODING, ERRORS)


def read_file(path: Path) -> str:
    return decode_text(path.read_bytes())


def write_file(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_text(text))


def blob_id(data: bytes, algorithm: str) -> str:
    """The object id git gives a blob holding `data`."""
    return hashlib.new(algorithm, b"blob %d\0%s" % (len(data), data)).hexdigest()


def run_git(repo: Path, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run git in `repo`; its output is str."""
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        capture_output=True,
        text=True,
        encoding=ENCODING,
        errors=ERRORS,
    )
    if check and proc.returncode != 0:
        raise GitGatewayError(
            f"git {' '.join(args)} failed ({proc.returncode}): {proc.stderr.strip()}"
        )
    return proc


@dataclass(frozen=True)
class CommitRef:
    id: str
    short_id: str
    timestamp: int  # committer date, UTC epoch seconds
    parents: Tuple[str, ...]
    tree: str  # id of the root tree

    def __str__(self) -> str:
        return self.short_id


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


SHORT_ID = 12  # hex digits of a commit id its CommitRef shows


def _parse_commit(oid: str, data: bytes) -> CommitRef:
    """The CommitRef of the raw commit object `data` whose id is `oid`:
    its root tree, parents and committer date, read from its headers."""
    tree = ""
    parents: List[str] = []
    committed: Optional[int] = None
    for line in data.partition(b"\n\n")[0].split(b"\n"):
        key, _, value = line.partition(b" ")  # a continuation line has no key
        if key == b"tree" and not tree:
            tree = value.decode()
        elif key == b"parent":
            parents.append(value.decode())
        elif key == b"committer" and committed is None:
            # `name <email> seconds zone`: the email may hold spaces
            committed = int(value.rpartition(b">")[2].split()[0])
    return CommitRef(id=oid, short_id=oid[:SHORT_ID], timestamp=committed,
                     parents=tuple(parents), tree=tree)


def _width(oid: str) -> int:
    """Bytes of an object id in a raw tree: SHA-256 or SHA-1."""
    return 32 if len(oid) == 64 else 20


def _entry_mode(mode: bytes) -> str:
    """The mode git reads a tree entry's `mode` as: a regular file is
    executable when its owner may execute it, and any type but a file, a
    symlink or a directory is a gitlink."""
    bits = int(mode, 8)
    kind = bits & 0o170000
    if kind == 0o100000:
        return MODE_EXEC if bits & 0o100 else MODE_FILE
    if kind == 0o120000:
        return MODE_LINK
    if kind == 0o040000:
        return MODE_TREE
    return MODE_GITLINK


def _parse_tree(data: bytes, width: int) -> List[Entry]:
    """(name, mode, object id) of each entry of a raw tree object whose
    object ids are `width` bytes long."""
    entries = []
    pos = 0
    while pos < len(data):
        space = data.index(b" ", pos)
        nul = data.index(b"\0", space)
        end = nul + 1 + width
        # trees of nearby commits share most names and ids
        entries.append((
            sys.intern(os.fsdecode(data[space + 1 : nul])),
            _entry_mode(data[pos:space]),
            sys.intern(data[nul + 1 : end].hex()),
        ))
        pos = end
    return entries


def _flatten(trees: Dict[str, List[Entry]], tree: str, prefix: str,
             out: Dict[str, Tuple[str, str]]) -> None:
    """Add each file and symlink under `tree` to `out`, its path behind
    `prefix`."""
    for name, mode, oid in trees[tree]:
        if mode == MODE_TREE:
            _flatten(trees, oid, f"{prefix}{name}/", out)
        elif mode != MODE_GITLINK:
            out[prefix + name] = (mode, oid)


def _recall(memo: OrderedDict, key: str):
    """`memo[key]`, marked most recently used, or None; safe while other
    threads use `memo`, which a `get` then `move_to_end` is not."""
    value = memo.pop(key, None)
    if value is not None:
        memo[key] = value
    return value


def _stop(proc: subprocess.Popen) -> None:
    """Kill `proc` if it still runs, wait for it and close its pipes."""
    proc.kill()
    proc.wait()
    with suppress(OSError):  # a write cut short leaves bytes to flush
        proc.stdin.close()
    proc.stdout.close()


class _Child:
    """A long-lived git process that answers requests on its stdin: none
    runs until `start()`, and `stop()` (or the child becoming garbage)
    stops it.  `lock` is held for one exchange with it."""

    def __init__(self, repo: Path, *args: str):
        self.argv = ["git", "-C", str(repo), *args]
        self.lock = threading.Lock()
        self.proc: Optional[subprocess.Popen] = None
        self._finalizer: Optional[weakref.finalize] = None

    def start(self) -> subprocess.Popen:
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._finalizer = weakref.finalize(self, _stop, self.proc)
        return self.proc

    def stop(self) -> None:
        if self._finalizer is not None:
            self._finalizer()
        self.proc = self._finalizer = None


class CommitMemo:
    """Facts about one repository's commits, remembered by full id.

    A full id always names the same commit, so its CommitRef, its diff and
    the inverse of that diff are kept for the life of the memo.  So are
    the last `TREE_MEMO` tree objects and the texts of the last
    `TEXT_MEMO` blobs read: an object id always names the same bytes, so a
    commit's listing reads only the trees that no earlier listing read.
    A name (branch, tag, abbreviated id) can move, so it is resolved again
    on every call.  Patches are shared between callers, who must not
    modify them.

    Objects are read over one `git cat-file --batch` process, the
    memo's *reader*, started by the first read and stopped by `close()`
    (or on leaving a `with` block, or when the memo is garbage); a later
    read starts a new one.  Names are resolved over the reader too: it
    peels `<name>^{commit}` and returns the commit object, whose headers
    give the CommitRef's tree, parents and timestamp.  A range is walked
    from its tip through first parents over the reader.  Commits are
    diffed over one `DIFF_TREE` process, the *differ*, that lives the same
    way, under a lock of its own.  `spawns` counts the reader and differ
    starts.

    A shallow clone serves every commit it holds; a walk that needs a
    parent the clone lacks raises ShallowHistory.
    """

    def __init__(self, repo: Path):
        self.repo = Path(repo)
        self.spawns = 0
        self._refs: Dict[str, CommitRef] = {}
        self._diffs: Dict[str, SourcePatch] = {}
        self._inverses: Dict[str, SourcePatch] = {}
        self._trees: "OrderedDict[str, List[Entry]]" = OrderedDict()
        self._texts: "OrderedDict[str, str]" = OrderedDict()
        self._reader = _Child(self.repo, "cat-file", "--batch")
        self._streaming: Optional[int] = None  # the thread in an exchange with the reader
        self._differ = _Child(self.repo, *DIFF_TREE)

    def close(self) -> None:
        """Stop the reader and the differ, where they run."""
        self._reader.stop()
        self._differ.stop()

    def __enter__(self) -> "CommitMemo":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _started(self, child: _Child) -> subprocess.Popen:
        if child.proc is None:
            child.start()
            self.spawns += 1
        return child.proc

    def resolve(self, name: str) -> CommitRef:
        """Resolve a branch, tag or abbreviated id to a CommitRef.

        Tags are peeled to the commit they point at."""
        ref = self._refs.get(name)
        if ref is None:
            # the reader takes one name per line, and no ref name holds a
            # space or a control character
            if not name or " " in name or not name.isprintable():
                raise UnknownRef(f"{name!r} does not name a commit in {self.repo}")
            ((oid, data),) = self._objects([name], b"commit", peel=True)
            ref = self._refs.setdefault(oid, _parse_commit(oid, data))
        return ref

    def touched(self, commit: str) -> Tuple[str, ...]:
        """Paths of the files, symlinks and gitlinks that differ between
        the commit's root tree and its first parent's (the empty tree for
        a root commit), sorted as `git log --name-only` lists them: by
        their bytes."""
        ref = self.resolve(commit)
        before = self._parent(ref).tree if ref.parents else None
        touched = set()
        level: List[Tuple[str, Optional[str], Optional[str]]] = [("", before, ref.tree)]
        while level:  # one exchange per level of changed trees
            wanted = {tree for _, old, new in level for tree in (old, new) if tree}
            trees = self._read_trees(wanted, _width(ref.id))
            deeper = []
            for prefix, old, new in level:
                was = {name: (mode, oid) for name, mode, oid in trees[old]} if old else {}
                now = {name: (mode, oid) for name, mode, oid in trees[new]} if new else {}
                for name in was.keys() | now.keys():
                    sides = (was.get(name), now.get(name))
                    if sides[0] == sides[1]:
                        continue
                    subtrees = [s[1] if s and s[0] == MODE_TREE else None for s in sides]
                    if any(subtrees):
                        deeper.append((f"{prefix}{name}/", *subtrees))
                    if any(s and s[0] != MODE_TREE for s in sides):
                        touched.add(prefix + name)
            level = deeper
        return tuple(sorted(touched, key=os.fsencode))

    def _parent(self, ref: CommitRef) -> CommitRef:
        """The first parent of `ref`.  Raises ShallowHistory when the
        clone holds `ref` but not its parent."""
        try:
            return self.resolve(ref.parents[0])
        except UnknownRef:
            raise ShallowHistory(
                f"{self.repo} is a shallow clone that lacks {ref.parents[0]}, the parent "
                f"of {ref.id}; fetch more history"
            ) from None

    def between(self, base: str, tip: str) -> List[CommitRef]:
        """The tip's first-parent line down to the base, (base, tip],
        oldest first, so the tip is last.  Raises NotAncestor when that
        line ends before it reaches the base."""
        stop = self.resolve(base).id
        ref = self.resolve(tip)
        line = []
        while ref.id != stop:
            if not ref.parents:
                raise NotAncestor(f"{base} is not a first-parent ancestor of {tip}")
            line.append(ref)
            ref = self._parent(ref)
        return line[::-1]

    def diff(self, commit: str) -> SourcePatch:
        """The commit's diff against its first parent, as a SourcePatch."""
        ref = self.resolve(commit)
        patch = self._diffs.get(ref.id)
        if patch is None:
            if not ref.parents:
                raise RootCommit(f"{ref.short_id} has no parent to diff against")
            patch = self._diffs[ref.id] = parse_unified_diff(decode_text(self._diffed(ref)))
        return patch

    def _diffed(self, ref: CommitRef) -> bytes:
        """The differ's diff of `ref` against its first parent, without
        the id line it starts with.  A reply that ends early (git dies on
        a missing object) or starts with another line stops the differ
        and raises GitGatewayError; the next diff starts a new one."""
        with self._differ.lock:
            differ = self._started(self._differ)
            lines = []
            done = False
            try:
                differ.stdin.write(b"%s %s\n%s" % (ref.id.encode(), ref.parents[0].encode(),
                                                   DIFF_END))
                differ.stdin.flush()
                if differ.stdout.readline() == b"%s\n" % ref.id.encode():
                    for line in iter(differ.stdout.readline, b""):
                        if line == DIFF_END:
                            done = True
                            break
                        lines.append(line)
            except BrokenPipeError:
                pass  # git died before it read the request
            finally:
                if not done:  # what is left of the reply would answer the next request
                    self._differ.stop()
        if not done:
            raise GitGatewayError(f"git diff-tree gave no diff of {ref.id} in {self.repo}")
        return b"".join(lines)

    def inverse(self, commit: str) -> SourcePatch:
        """The inverse of the commit's diff: what reverting it applies."""
        ref = self.resolve(commit)
        patch = self._inverses.get(ref.id)
        if patch is None:
            patch = self._inverses[ref.id] = invert(self.diff(ref.id))
        return patch

    def listing(self, commit: str) -> Dict[str, Tuple[str, str]]:
        """Path -> (mode, blob id) of every file and symlink in the commit,
        walked from its tree objects.  A file's mode is 100644 or 100755, as
        a checkout writes it; a submodule, which a checkout leaves as an
        empty directory, is not listed."""
        ref = self.resolve(commit)
        trees: Dict[str, List[Entry]] = {}
        level = [ref.tree]
        while level:  # one exchange per level of new trees
            trees.update(self._read_trees(level, _width(ref.id)))
            level = list({
                oid for tree in level for _, mode, oid in trees[tree]
                if mode == MODE_TREE and oid not in trees
            })
        found: Dict[str, Tuple[str, str]] = {}
        _flatten(trees, ref.tree, "", found)
        return found

    def _read_trees(self, tree_ids: Iterable[str], width: int) -> Dict[str, List[Entry]]:
        """The entries of each tree of `tree_ids`, remembered or read in
        one exchange."""
        trees: Dict[str, List[Entry]] = {}
        missing = []
        for tree in tree_ids:
            entries = _recall(self._trees, tree)
            if entries is None:
                missing.append(tree)
            else:
                trees[tree] = entries
        for tree, (_, data) in zip(missing, list(self._objects(missing, b"tree"))):
            trees[tree] = self._trees[tree] = _parse_tree(data, width)
            if len(self._trees) > TREE_MEMO:
                self._trees.popitem(last=False)
        return trees

    def text(self, oid: str) -> str:
        """The blob `oid` as text, as `read_file` reads a file."""
        text = _recall(self._texts, oid)
        if text is not None:
            return text
        ((_, data),) = self._objects([oid], b"blob")
        text = self._texts[oid] = decode_text(data)
        if len(self._texts) > TEXT_MEMO:
            self._texts.popitem(last=False)
        return text

    def blobs(self, oids: Sequence[str]) -> Iterator[bytes]:
        """The contents of the blobs `oids`, in order, one at a time.  Until
        the stream is finished or closed, another read of this memo raises
        GitGatewayError in the stream's thread and waits in any other."""
        with closing(self._objects(oids, b"blob")) as replies:
            for _, data in replies:
                yield data

    def _objects(
        self, requests: Sequence[str], kind: bytes, peel: bool = False
    ) -> Iterator[Tuple[str, bytes]]:
        """The id and contents of each object of type `kind` that
        `requests` name, in order, from the reader, which gets up to
        `CAT_FILE_BATCH` requests before their replies are read.  A request
        is an object id or, with `peel`, a name that is peeled to `kind`;
        one that names no such object raises UnknownRef with `peel`, else
        GitGatewayError.  A stream closed before its last reply, or a
        reply that is short or not the one asked for, stops the reader, so
        that no unread reply can answer a later request."""
        me = threading.get_ident()
        if self._streaming == me:
            raise GitGatewayError(f"a read of {self.repo} while its object stream is open")
        with self._reader.lock:
            self._streaming = me
            pending = len(requests)
            try:
                for start in range(0, len(requests), CAT_FILE_BATCH):
                    batch = requests[start : start + CAT_FILE_BATCH]
                    if peel:
                        batch = [f"{name}^{{{kind.decode()}}}" for name in batch]
                    reader = self._started(self._reader)
                    reader.stdin.write("".join(f"{line}\n" for line in batch).encode())
                    reader.stdin.flush()
                    for line in batch:
                        reply = self._reply(reader, line, kind, peel)
                        pending -= 1
                        if reply is None:
                            raise (UnknownRef if peel else GitGatewayError)(
                                f"{line} names no {kind.decode()} in {self.repo}"
                            )
                        yield reply
            finally:
                self._streaming = None
                if pending:
                    self._reader.stop()

    def _reply(
        self, reader: subprocess.Popen, line: str, kind: bytes, peel: bool
    ) -> Optional[Tuple[str, bytes]]:
        """The id and contents of the object the reader returns for the
        request `line`, or None when it has none (a one-line reply)."""
        header = reader.stdout.readline().split()
        if len(header) == 2 and header[1] in (b"missing", b"ambiguous"):
            return None
        if len(header) != 3 or header[1] != kind or not (peel or header[0] == line.encode()):
            raise GitGatewayError(f"git cat-file gave no {kind.decode()} for {line} in {self.repo}")
        size = int(header[2])
        data = reader.stdout.read(size)
        if len(data) != size or reader.stdout.read(1) != b"\n":
            raise GitGatewayError(f"git cat-file cut {line} short in {self.repo}")
        return header[0].decode(), data


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
        from memory, the rest streamed by the memo's reader (see
        `CommitMemo.blobs`)."""
        listed = []
        for entry in entries:
            edit = self._edits.get(entry[0])
            if edit is None:
                listed.append(entry)
            else:
                yield entry, edit[1]
        if listed:
            with closing(self.commits.blobs([oid for _, _, oid in listed])) as contents:
                yield from zip(listed, contents)


def resolve_ref(repo: Path, name: str) -> CommitRef:
    """`CommitMemo.resolve` with nothing remembered."""
    with CommitMemo(repo) as memo:
        return memo.resolve(name)


def commits_between(repo: Path, base: str, tip: str) -> List[CommitRef]:
    """`CommitMemo.between` with nothing remembered."""
    with CommitMemo(repo) as memo:
        return memo.between(base, tip)


def commit_diff(repo: Path, commit: str) -> SourcePatch:
    """`CommitMemo.diff` with nothing remembered."""
    with CommitMemo(repo) as memo:
        return memo.diff(commit)


def checkout_worktree(repo: Path, commit: str, dest: Path) -> Worktree:
    """Materialize `commit` in a detached worktree at `dest`.

    Multiple worktrees of the same repository may coexist.
    """
    repo = Path(repo)
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise DirtyDestination(f"{dest} exists and is not empty")
    proc = run_git(repo, "rev-parse", "--verify", "--quiet", f"{commit}^{{commit}}", check=False)
    if proc.returncode != 0:
        raise UnknownRef(f"{commit!r} does not name a commit in {repo}")
    commit_id = proc.stdout.strip()
    if dest.exists():
        dest.rmdir()  # `git worktree add` wants to create it
    with _worktree_list_lock(repo):
        # drop the entries of worktrees whose directory is gone, as a
        # crashed run leaves them; under the lock no entry is half-made
        run_git(repo, "worktree", "prune")
        run_git(repo, "worktree", "add", "--detach", str(dest), commit_id)
    return Worktree(repo=repo, commit=commit_id, path=dest)


def revert_onto(tree, commit: str, inverse: SourcePatch, max_fuzz: int) -> List[ApplyReport]:
    """Apply `inverse`, the inverse of `commit`'s diff (see
    `CommitMemo.inverse`), to `tree` with `patchcore.apply_patch`.

    `tree` is a `Worktree` or a `CommitTree`.  Either every hunk of every
    touched file applies and the files are written, or RevertConflict,
    naming every conflicting path, is raised and nothing changes.
    Returns one report per file of `inverse`.  Hunks match with up to
    `max_fuzz` context lines dropped.
    """
    try:
        return apply_patch(tree, inverse.files, max_fuzz)
    except PatchConflict as exc:
        paths = ", ".join(exc.reasons)
        raise RevertConflict(f"revert of {commit} conflicts in: {paths}") from None


BUCKET_WIDTH_DAYS = 14  # the width of an activity histogram's buckets


@dataclass
class ActivityHistogram:
    buckets: List[Tuple[int, int, int]] = field(default_factory=list)
    # each bucket: (bucket_start_epoch, total_commits, cve_related_commits)

    @property
    def total(self) -> int:
        return sum(b[1] for b in self.buckets)

    @property
    def related_total(self) -> int:
        return sum(b[2] for b in self.buckets)


def activity_histogram(
    ordered: Sequence[CommitRef],
    tracked_files: Iterable[str],
    touched: Callable[[str], Iterable[str]],
) -> ActivityHistogram:
    """Commit counts in buckets of `BUCKET_WIDTH_DAYS` over a range, oldest
    first (see `CommitMemo.between`), by committer timestamp.

    A commit is related when `touched` (see `CommitMemo.touched`), asked
    only while some file is tracked, names a tracked file.  Buckets are
    anchored at the first in-range commit and cover through the latest
    timestamp; out-of-order timestamps (rebases, clock skew) are clamped
    into the edge buckets so every commit is counted exactly once.
    """
    tracked = set(tracked_files)
    width = BUCKET_WIDTH_DAYS * 86400
    if not ordered:
        return ActivityHistogram(buckets=[])
    start = ordered[0].timestamp
    span_end = max(c.timestamp for c in ordered)
    n_buckets = max((span_end - start) // width + 1, 1)
    totals = [0] * n_buckets
    related = [0] * n_buckets
    for c in ordered:
        idx = (c.timestamp - start) // width
        idx = min(max(idx, 0), n_buckets - 1)
        totals[idx] += 1
        if tracked and any(f in tracked for f in touched(c.id)):
            related[idx] += 1
    buckets = [
        (start + i * width, totals[i], related[i]) for i in range(n_buckets)
    ]
    return ActivityHistogram(buckets=buckets)
