"""Minimal deterministic git repo builder for gateway tests."""

from __future__ import annotations

import os
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional

from revenant.oracle import _records_reads

BASE_EPOCH = 1_500_000_000  # 2017-07-14, arbitrary but fixed


class RepoBuilder:
    def __init__(self, root: Path, epoch: int = BASE_EPOCH, step: int = 3600):
        self.root = Path(root)
        self.epoch = epoch
        self.step = step
        self.count = 0
        self.root.mkdir(parents=True, exist_ok=True)
        self.git("init", "-q", "-b", "main")

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


def atimes_recorded() -> bool:
    """Whether reading a file in the temp directory moves its atime, which
    the oracle's traces need."""
    with tempfile.TemporaryDirectory() as d:
        return _records_reads(Path(d))
