"""Seeded fixture repositories for the benchmark.

Both variants reuse the forge's public pieces (the C sources, the fix,
the breaker transforms, the PoC bytes and `expected_outcome`) and stream
the history into a fresh repository with one `git fast-import` run.

* `forge_deep` keeps the forge's small project and puts a long run of
  noise commits before and between the breakers, so bisection needs
  many cheap attempts.
* `forge_wide` keeps the history short but adds 800 noise files of about
  4 KB (3.2 MB) and 12 generated translation units behind a Makefile, so
  each attempt pays for checking out, hashing, copying and compiling a
  tree of about 820 files.

The seed picks the archetypes (within a fixed class per position, see
`pick_archetypes`) and the noise content.  The shape of the history (how
many commits, where the breakers sit, how many files and bytes) is fixed
by the variant, so the work a revive does is the same for every seed and
only the bytes differ.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from revenant.forge import (
    BREAKERS,
    BUILD_SH,
    PACK_C_VULN,
    PACK_H,
    README,
    TOOL_C,
    apply_fix,
    expected_outcome,
    overflow_poc_bytes,
)

AUTHOR = "Bench Forge <bench@example.invalid>"
BASE_EPOCH = 1_500_000_000
STEP = 600

# breakers that make the reverse fix conflict, so their attempts never build
CONFLICT_CLASS = ("C1", "C2", "C6")

DEEP_NOISE_PER_GAP = 32
WIDE_NOISE_FILES = 800
WIDE_NOISE_BYTES = 4000
WIDE_UNITS = 12
WIDE_UNIT_FUNCTIONS = 30


class FixtureError(Exception):
    pass


@dataclass
class Fixture:
    """One forged repository and the ground truth planted in it."""

    repo: Path
    poc_file: Path
    steps: List[str]
    artifact: str
    base: str
    fix: str
    target: str
    breakers: List[dict]  # oldest first: {"id", "archetype"}
    commit_count: int

    @property
    def first_breaker(self) -> str:
        return self.breakers[0]["id"]

    def expected(self, max_reverted: int) -> dict:
        final, reason, stack = expected_outcome(
            [b["archetype"] for b in self.breakers],
            [b["id"] for b in self.breakers],
            max_reverted,
        )
        return {"final": final, "abort_reason": reason, "revert_stack": stack}

    def ledger(self) -> dict:
        return {
            "base": self.base,
            "fix": self.fix,
            "target": self.target,
            "breakers": self.breakers,
            "commit_count": self.commit_count,
        }


def pick_archetypes(rng: random.Random) -> List[str]:
    """Four distinct breakers, alternating a port-conflict and a build class.

    Breakers in CONFLICT_CLASS stop the reverse fix from applying, so an
    attempt that meets one ends before the build; C3, C4 and C5
    let it apply and fail at the build or the PoC.  Fixing the class of
    each position fixes which attempts build, so every seed costs the same
    work while the seed still picks the archetypes.

    The last breaker is always C4.  An unreverted C3 ends a run whose
    budget is one short as FunctionalityRemoved, which the forge's ledger
    does not model; and a trailing C5 after C6 and C1 turns some bisection
    probes into revert conflicts, which changes the number of builds.
    """
    first, third = rng.sample(CONFLICT_CLASS, 2)
    return [first, rng.choice(("C3", "C5")), third, "C4"]


def _noise_text(rng: random.Random, size: int) -> str:
    # printable and line-oriented, so git diffs and the hashers see text
    raw = rng.randbytes(size // 2).hex()
    return "\n".join(raw[i : i + 64] for i in range(0, len(raw), 64)) + "\n"


def _git_env(home: Path) -> Dict[str, str]:
    return {
        "GIT_CONFIG_GLOBAL": "/dev/null",
        "GIT_CONFIG_NOSYSTEM": "1",
        "HOME": str(home),
        "LC_ALL": "C",
        "PATH": "/usr/local/bin:/usr/bin:/bin",
    }


def _emit(repo: Path, snapshots: List[Tuple[Dict[str, str], str]]) -> List[str]:
    """Stream snapshots oldest first; write only the paths each one changes."""
    env = _git_env(repo.parent)
    subprocess.run(
        ["git", "init", "-q", "-b", "main", str(repo)], check=True, env=env, capture_output=True
    )
    chunks: List[bytes] = []
    prev: Dict[str, str] = {}
    for idx, (files, message) in enumerate(snapshots):
        when = BASE_EPOCH + idx * STEP
        msg = message.encode()
        chunks.append(b"commit refs/heads/main\nmark :%d\n" % (idx + 1))
        chunks.append(f"author {AUTHOR} {when} +0000\n".encode())
        chunks.append(f"committer {AUTHOR} {when} +0000\n".encode())
        chunks.append(b"data %d\n%s\n" % (len(msg), msg))
        if idx:
            chunks.append(b"from :%d\n" % idx)
        for path in sorted(set(prev) - set(files)):
            chunks.append(f"D {path}\n".encode())
        for path, text in sorted(files.items()):
            if prev.get(path) == text:
                continue
            data = text.encode()
            mode = "100755" if path.endswith(".sh") else "100644"
            chunks.append(f"M {mode} inline {path}\ndata {len(data)}\n".encode())
            chunks.append(data + b"\n")
        chunks.append(b"\n")
        prev = files
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet"],
        input=b"".join(chunks),
        check=True,
        env=env,
        capture_output=True,
    )
    out = subprocess.run(
        ["git", "-C", str(repo), "log", "--reverse", "--first-parent", "--format=%H"],
        check=True,
        env=env,
        capture_output=True,
        text=True,
    )
    ids = out.stdout.split()
    if len(ids) != len(snapshots):
        raise FixtureError(f"emitted {len(snapshots)} commits, repo has {len(ids)}")
    return ids


def _assemble(
    root: Path,
    files: Dict[str, str],
    archetypes: Sequence[str],
    noise: Optional[Callable[[Dict[str, str]], str]],
    noise_per_gap: int,
    steps: List[str],
) -> Fixture:
    """History: init, noise run, fix, then (noise run, breaker) per
    archetype, then a final noise run.  `noise(files)` edits the dict in
    place and returns the commit message."""
    for arch in archetypes:
        if arch not in BREAKERS:
            raise FixtureError(f"unknown archetype {arch!r}")
    root.mkdir(parents=True, exist_ok=True)
    snapshots: List[Tuple[Dict[str, str], str]] = [(dict(files), "initial import")]
    roles: List[str] = ["init"]

    def noise_run() -> None:
        for _ in range(noise_per_gap):
            message = noise(files)
            snapshots.append((dict(files), message))
            roles.append("noise")

    noise_run()
    files.update(apply_fix(files))
    snapshots.append((dict(files), "reject oversized records before copying"))
    roles.append("fix")
    for arch in archetypes:
        noise_run()
        transform, message = BREAKERS[arch]
        files.update(transform(files))
        snapshots.append((dict(files), message))
        roles.append(arch)
    noise_run()

    ids = _emit(root / "repo", snapshots)
    poc_file = root / "poc.bin"
    poc_file.write_bytes(overflow_poc_bytes())
    breakers = [
        {"id": ids[i], "archetype": role}
        for i, role in enumerate(roles)
        if role in BREAKERS
    ]
    return Fixture(
        repo=root / "repo",
        poc_file=poc_file,
        steps=steps,
        artifact="pack_tool",
        base=ids[0],
        fix=ids[roles.index("fix")],
        target=ids[-1],
        breakers=breakers,
        commit_count=len(ids),
    )


def _base_files() -> Dict[str, str]:
    return {
        "pack.h": PACK_H,
        "pack.c": PACK_C_VULN,
        "tool.c": TOOL_C,
        "build.sh": BUILD_SH,
        "README": README,
    }


def forge_deep(
    root: Path, seed: int, archetypes: Sequence[str], noise_per_gap: int = DEEP_NOISE_PER_GAP
) -> Fixture:
    """The forge's one-file-build project under a long noise history.

    Each noise commit edits one of a few documentation files the build
    never reads, so the noise moves bisection but never the verdict.
    """
    rng = random.Random(seed)
    files = _base_files()
    notes = [f"notes/{name}.md" for name in ("design", "format", "release", "porting")]
    for path in notes:
        files[path] = f"# {Path(path).stem}\n"

    def noise(state: Dict[str, str]) -> str:
        path = rng.choice(notes)
        state[path] = state[path] + _noise_text(rng, 48)
        return f"update {path}"

    return _assemble(Path(root), files, archetypes, noise, noise_per_gap, ["sh build.sh"])


def _unit_source(rng: random.Random, index: int, functions: int) -> str:
    lines = [f"/* translation unit {index} */", "", f"unsigned long u{index}_sum = 0;", ""]
    for f in range(functions):
        a, b, c = rng.randrange(1, 1 << 16), rng.randrange(1, 1 << 16), rng.randrange(3, 17)
        lines += [
            f"unsigned long u{index}_f{f}(unsigned long x)",
            "{",
            "    unsigned long acc = 0;",
            "    unsigned long i;",
            f"    for (i = 0; i < x % {c}u + 1u; i++) {{",
            f"        acc = acc * {a}u + (x ^ i) + {b}u;",
            f"        if (acc % 7u == {f % 7}u)",
            f"            acc ^= (acc >> 3) + u{index}_sum;",
            "    }",
            f"    u{index}_sum += acc;",
            "    return acc;",
            "}",
            "",
        ]
    return "\n".join(lines)


def _makefile(units: int, jobs: int) -> Tuple[str, List[str]]:
    objs = " ".join(["tool.o", "pack.o"] + [f"lib/u{i:02d}.o" for i in range(units)])
    text = (
        "CC = cc\n"
        "CFLAGS = -O0\n"
        f"OBJS = {objs}\n"
        "\n"
        "pack_tool: $(OBJS)\n"
        "\t$(CC) -o $@ $(OBJS)\n"
        "\n"
        "%.o: %.c pack.h\n"
        "\t$(CC) $(CFLAGS) -c -o $@ $<\n"
    )
    return text, [f"make -s -j{jobs}"]


def forge_wide(
    root: Path,
    seed: int,
    archetypes: Sequence[str],
    jobs: int,
    noise_files: int = WIDE_NOISE_FILES,
    units: int = WIDE_UNITS,
) -> Fixture:
    """The same breakers over a wide tree built by `make -j<jobs>`.

    The history is only the import, the fix and the breakers, so a revive
    makes few attempts, and each of them checks out, hashes, copies and
    compiles the whole tree.
    """
    rng = random.Random(seed)
    files = _base_files()
    del files["build.sh"]
    makefile, steps = _makefile(units, jobs)
    files["Makefile"] = makefile
    for i in range(units):
        files[f"lib/u{i:02d}.c"] = _unit_source(rng, i, WIDE_UNIT_FUNCTIONS)
    for i in range(noise_files):
        files[f"data/d{i // 100:02d}/f{i:04d}.txt"] = _noise_text(rng, WIDE_NOISE_BYTES)
    return _assemble(Path(root), files, archetypes, None, 0, steps)


def case_config(
    fixture: Fixture, cve: str, project: str, max_reverted: int, tiers: Optional[dict] = None
) -> dict:
    """A revenant case config for the fixture, with absolute paths."""
    return {
        "cve": cve,
        "project": project,
        "repo": str(fixture.repo),
        "fix_commits": [fixture.fix],
        "target": fixture.target,
        "tiers": tiers or {},
        "build": {"steps": list(fixture.steps), "artifacts": [fixture.artifact], "timeout": 300},
        "poc": {
            "command": "{binary} -i {input}",
            "input": str(fixture.poc_file),
            "expected_detector": "heap-buffer-overflow",
            "run_timeout": 30,
        },
        "limits": {"max_reverted_commits": max_reverted},
    }
