"""Minimal deterministic git repo builder for gateway tests."""

from __future__ import annotations

import gc
import os
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional

from revenant.gitio import MODE_EXEC, MODE_FILE, MODE_LINK, CommitMemo, blob_id
from revenant.oracle import (
    SANITIZER_NONE,
    BuildRecipe,
    OracleVerdict,
    PocSpec,
    _records_reads,
    build,
    run_env,
    run_poc,
)

BASE_EPOCH = 1_500_000_000  # 2017-07-14, arbitrary but fixed


class RepoBuilder:
    def __init__(self, root: Path, epoch: int = BASE_EPOCH, step: int = 3600,
                 object_format: str = "sha1"):
        self.root = Path(root)
        self.epoch = epoch
        self.step = step
        self.count = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self.git("init", "-q", "-b", "main", f"--object-format={object_format}")

    def git(self, *args: str, check: bool = True) -> subprocess.CompletedProcess:
        return self.git_input(None, *args, check=check)

    def git_input(
        self, stdin: Optional[str], *args: str, check: bool = True
    ) -> subprocess.CompletedProcess:
        """Run git in the repository with `stdin` as its input."""
        stamp = f"@{self.epoch + self.count * self.step} +0000"
        proc = subprocess.run(
            ["git", "-C", str(self.root), *args],
            input=stdin,
            capture_output=True,
            text=True,
            env={
                "GIT_AUTHOR_NAME": "fixture",
                "GIT_AUTHOR_EMAIL": "fixture@example.invalid",
                "GIT_COMMITTER_NAME": "fixture",
                "GIT_COMMITTER_EMAIL": "fixture@example.invalid",
                "GIT_AUTHOR_DATE": stamp,
                "GIT_COMMITTER_DATE": stamp,
                "GIT_CONFIG_GLOBAL": "/dev/null",
                "GIT_CONFIG_SYSTEM": "/dev/null",
                "PATH": "/usr/bin:/bin",
            },
        )
        if check and proc.returncode != 0:
            raise RuntimeError(f"git {args} failed: {proc.stderr}")
        return proc

    def commit(
        self,
        files: Optional[Dict[str, str]] = None,
        message: str = "change",
        delete: Iterable[str] = (),
        tag: bool = True,
    ) -> str:
        for rel, text in (files or {}).items():
            p = self.root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        for rel in delete:
            self.git("rm", "-q", rel)
        self.git("add", "-A")
        self.git("commit", "-q", "--allow-empty", "-m", message)
        sha = self.git("rev-parse", "HEAD").stdout.strip()
        if tag:
            self.git("tag", f"t{self.count}")
        self.count += 1
        return sha

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").stdout.strip()


def ls_tree_listing(repo: Path, commit: str) -> dict:
    """Path -> (mode, blob id) of every file and symlink in `commit`, read
    from `git ls-tree -r`: the reference for `CommitMemo.listing`.  Any
    mode but 100755 and 120000 reads as 100644, and submodules are left
    out."""
    out = subprocess.run(["git", "-C", str(repo), "ls-tree", "-r", "-z", "--full-tree", commit],
                         capture_output=True, check=True).stdout
    found = {}
    for record in out.split(b"\0"):
        meta, _, path = record.partition(b"\t")
        if not path:
            continue
        mode, kind, oid = meta.decode().split()
        if kind != "blob":
            continue
        if mode not in (MODE_EXEC, MODE_LINK):
            mode = MODE_FILE
        found[os.fsdecode(path)] = (mode, oid)
    return found


def no_child_left() -> bool:
    """Whether this process has no child, running or not yet waited for,
    once unreachable objects (a memo's reader among them) are collected."""
    gc.collect()
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


def record_git(monkeypatch) -> list:
    """The git subcommand of every git process started."""
    spawned = []
    real = subprocess.Popen

    class Recording(real):
        def __init__(self, argv, *args, **kwargs):
            if argv[0] == "git":
                spawned.append(argv[3])  # git -C <repo> <subcommand>
            super().__init__(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return spawned


def record_diffs(monkeypatch) -> list:
    """The id of every commit a memo asks its diff process for."""
    asked = []
    real = CommitMemo._diffed
    monkeypatch.setattr(CommitMemo, "_diffed",
                        lambda memo, ref: asked.append(ref.id) or real(memo, ref))
    return asked


def worktrees(repo: Path) -> list:
    """The `worktree <path>` lines of the repository's worktree list."""
    out = subprocess.run(["git", "-C", str(repo), "worktree", "list", "--porcelain"],
                         capture_output=True, text=True, check=True).stdout
    return [ln for ln in out.splitlines() if ln.startswith("worktree ")]


def snapshot(root: Path) -> dict:
    """Every file and symlink under `root` but .git: path -> ("link",
    target), or (exec bit, bytes)."""
    out = {}
    for path in Path(root).rglob("*"):
        rel = path.relative_to(root)
        if ".git" in rel.parts:
            continue
        st = os.lstat(path)
        if stat.S_ISLNK(st.st_mode):
            out[str(rel)] = ("link", os.readlink(path))
        elif stat.S_ISREG(st.st_mode):
            out[str(rel)] = (bool(st.st_mode & stat.S_IXUSR), path.read_bytes())
    return out


class DiskTree:
    """A directory as a tree view for the oracle: the files and symlinks
    of `snapshot`, with the modes and SHA-1 blob ids git would give them,
    read afresh on every call."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def _files(self) -> Iterator[tuple]:
        for rel, (kind, content) in snapshot(self.root).items():
            if kind == "link":
                yield rel, MODE_LINK, os.fsencode(content)
            else:
                yield rel, MODE_EXEC if kind else MODE_FILE, content

    def entries(self) -> list:
        return sorted((rel, mode, blob_id(data, "sha1")) for rel, mode, data in self._files())

    def blobs(self, entries: Iterable[tuple]) -> Iterator[tuple]:
        contents = {rel: data for rel, _, data in self._files()}
        for entry in entries:
            yield entry, contents[entry[0]]


def atimes_recorded() -> bool:
    """Whether reading a file in the temp directory moves its atime, which
    the oracle's traces need."""
    with tempfile.TemporaryDirectory() as d:
        return _records_reads(Path(d))


def build_in_place(workdir: Path, recipe: BuildRecipe) -> Optional[OracleVerdict]:
    """`build` of `recipe` in `workdir`, as the oracle builds in a slot
    whose home is `workdir`: None, or the BuildFailed verdict."""
    return build(workdir, recipe, lambda name: None, run_env(recipe.env), str(workdir))


def run_poc_in_place(artifacts, poc: PocSpec, cwd: Path,
                     sanitizer: str = SANITIZER_NONE) -> OracleVerdict:
    """`run_poc` in `cwd`, as the oracle runs a PoC of a recipe without
    env in a slot whose home is `cwd`."""
    return run_poc(artifacts, poc, cwd, run_env(()), sanitizer, lambda name: None, str(cwd))
