"""Deterministic fixture histories for exercising the revival pipeline.

forge_repo builds a small C project whose overflow is purely logical: the
copy loop writes into an in-bounds guard region and a canary check prints
a sanitizer-grammar report, so the "crash" is deterministic, cheap to
build, and free of real undefined behavior.  A fix commit closes the
hole; configurable breaker commits then make naive reverse-porting fail
in six distinct ways.  The ledger records ground truth: which commits
break, in what order they must be reverted, and what the revival verdict
has to be.

forge_flip_history builds trivial histories where a tracked property
flips at a known commit, for validating bisection against a linear scan.
"""

from __future__ import annotations

import json
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .oracle import BuildRecipe, PocSpec
from .porter import Limits

AUTHOR = "Forge <forge@example.invalid>"
BASE_EPOCH = 1_600_000_000
STEP = 3600

SLOT_CAP = 16
GUARD_BYTES = 8

ARCHETYPES = ("C1", "C2", "C3", "C4", "C5", "C6")

DEFAULT_MAX_REVERTED = Limits().max_reverted_commits


class ForgeError(Exception):
    pass


# ---------- project sources ----------

PACK_H = """\
#ifndef PACK_H
#define PACK_H

#define SLOT_CAP 16
#define GUARD_BYTES 8

int unpack_record(const unsigned char *data, unsigned long size, int lenient);

#endif
"""

# vulnerable version: no length check, legacy 0xFFFF marker spins forever,
# copy loop runs to the guard edge
PACK_C_VULN = """\
#include "pack.h"

#include <stdio.h>
#include <string.h>

static unsigned char slot[SLOT_CAP + GUARD_BYTES];

static void reset_guard(void)
{
    memset(slot + SLOT_CAP, 0xA5, GUARD_BYTES);
}

static int guard_intact(void)
{
    int i;
    for (i = 0; i < GUARD_BYTES; i++) {
        if (slot[SLOT_CAP + i] != 0xA5)
            return 0;
    }
    return 1;
}

/* The guard region is legal to address, so corruption is detected and
 * reported here in the runtime's own words instead of crashing. */
static void report_overflow(void)
{
    printf("==4242==ERROR: AddressSanitizer: heap-buffer-overflow on address 0x602000000010 at pc 0x000000400801 bp 0x7ffd40a1 sp 0x7ffd4098\\n");
    printf("WRITE of size 1 at 0x602000000010 thread T0\\n");
    printf("    #0 0x400801 in unpack_record pack.c:61\\n");
    printf("    #1 0x400912 in main tool.c:52\\n");
    printf("SUMMARY: AddressSanitizer: heap-buffer-overflow pack.c:61 in unpack_record\\n");
    printf("==4242==ABORTING\\n");
}

int unpack_record(const unsigned char *data, unsigned long size, int lenient)
{
    unsigned int declared;
    unsigned long avail;
    unsigned long i;

    if (size < 2) {
        fprintf(stderr, "pack: truncated header\\n");
        return -1;
    }
    declared = (unsigned int)data[0] | ((unsigned int)data[1] << 8);
    if (declared == 0xFFFFu) {
        /* legacy continuation marker: wait for the next chunk */
        for (;;)
            ;
    }
    avail = size - 2;
    if (avail < declared) {
        if (!lenient) {
            fprintf(stderr, "pack: short payload\\n");
            return -1;
        }
        fprintf(stderr, "pack: short payload tolerated\\n");
    }
    reset_guard();
    for (i = 0; i < declared && i < avail && i < (unsigned long)(SLOT_CAP + GUARD_BYTES); i++)
        slot[i] = data[i + 2];
    if (!guard_intact()) {
        report_overflow();
        return -2;
    }
    printf("unpacked %lu bytes\\n", i);
    return 0;
}
"""

TOOL_C = """\
#include "pack.h"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static void usage(void)
{
    fprintf(stderr, "usage: pack_tool [-i] FILE\\n");
    exit(64);
}

int main(int argc, char **argv)
{
    const char *path = NULL;
    unsigned char data[4096];
    size_t size;
    FILE *f;
    int lenient = 0;
    int argi;

    for (argi = 1; argi < argc; argi++) {
        if (strcmp(argv[argi], "-i") == 0) {
            lenient = 1;
        } else if (argv[argi][0] == '-') {
            fprintf(stderr, "pack_tool: unknown option %s\\n", argv[argi]);
            usage();
        } else if (path == NULL) {
            path = argv[argi];
        } else {
            usage();
        }
    }
    if (path == NULL)
        usage();

    f = fopen(path, "rb");
    if (f == NULL) {
        perror(path);
        return 1;
    }
    size = fread(data, 1, sizeof data, f);
    fclose(f);

    if (unpack_record(data, (unsigned long)size, lenient) != 0)
        return 1;
    return 0;
}
"""

BUILD_SH = """\
#!/bin/sh
set -e
cc -O0 -o pack_tool tool.c pack.c
"""

README = """\
pack_tool unpacks length-prefixed records.  See build.sh.
"""


def _sub_once(text: str, old: str, new: str) -> str:
    n = text.count(old)
    if n != 1:
        raise ForgeError(f"expected exactly one occurrence, found {n}: {old[:60]!r}")
    return text.replace(old, new)


def apply_fix(files: Dict[str, str]) -> Dict[str, str]:
    """The upstream fix: reject oversized records, drop the legacy spin
    marker, clamp the copy loop.  Reverse-applying this diff restores the
    vulnerable behavior."""
    pack = files["pack.c"]
    pack = _sub_once(
        pack,
        "    declared = (unsigned int)data[0] | ((unsigned int)data[1] << 8);\n"
        "    if (declared == 0xFFFFu) {\n"
        "        /* legacy continuation marker: wait for the next chunk */\n"
        "        for (;;)\n"
        "            ;\n"
        "    }\n",
        "    declared = (unsigned int)data[0] | ((unsigned int)data[1] << 8);\n"
        "    if (declared > (unsigned int)SLOT_CAP) {\n"
        '        fprintf(stderr, "pack: record too long\\n");\n'
        "        return -1;\n"
        "    }\n",
    )
    pack = _sub_once(
        pack,
        "i < declared && i < avail && i < (unsigned long)(SLOT_CAP + GUARD_BYTES)",
        "i < declared && i < avail && i < (unsigned long)SLOT_CAP",
    )
    out = dict(files)
    out["pack.c"] = pack
    return out


# ---------- breaker transforms ----------
# Each takes the current file set and returns the edited one.  All are
# exact-match rewrites so a template drift fails loudly.


def break_rename(files: Dict[str, str]) -> Dict[str, str]:
    pack = files["pack.c"]
    pack, n = re.subn(r"\bdeclared\b", "declared_len", pack)
    if n < 4:
        raise ForgeError(f"rename touched only {n} sites")
    out = dict(files)
    out["pack.c"] = pack
    return out


def break_typechange(files: Dict[str, str]) -> Dict[str, str]:
    pack = files["pack.c"]
    pack, n = re.subn(r"unsigned int (declared\w*);", r"unsigned short \1;", pack)
    if n != 1:
        raise ForgeError(f"declaration rewrite matched {n} times")
    pack = _sub_once(
        pack,
        "= (unsigned int)data[0] | ((unsigned int)data[1] << 8);",
        "= (unsigned short)((unsigned int)data[0] | ((unsigned int)data[1] << 8));",
    )
    out = dict(files)
    out["pack.c"] = pack
    return out


def break_removetool(files: Dict[str, str]) -> Dict[str, str]:
    tool = _sub_once(
        files["tool.c"],
        '        if (strcmp(argv[argi], "-i") == 0) {\n'
        "            lenient = 1;\n"
        "        } else if (argv[argi][0] == '-') {\n",
        "        if (argv[argi][0] == '-') {\n",
    )
    out = dict(files)
    out["tool.c"] = tool
    return out


def break_inputcheck(files: Dict[str, str]) -> Dict[str, str]:
    tool = _sub_once(
        files["tool.c"],
        "    size = fread(data, 1, sizeof data, f);\n    fclose(f);\n",
        "    size = fread(data, 1, sizeof data, f);\n    fclose(f);\n"
        "\n"
        "    if (size > (size_t)(SLOT_CAP + 2)) {\n"
        '        fprintf(stderr, "pack_tool: oversized input rejected\\n");\n'
        "        return 1;\n"
        "    }\n",
    )
    out = dict(files)
    out["tool.c"] = tool
    return out


def break_errorhandling(files: Dict[str, str]) -> Dict[str, str]:
    pack = _sub_once(
        files["pack.c"],
        '        fprintf(stderr, "pack: short payload tolerated\\n");\n',
        '        fprintf(stderr, "pack: short payload rejected\\n");\n'
        "        return -1;\n",
    )
    out = dict(files)
    out["pack.c"] = pack
    return out


def break_refactor(files: Dict[str, str]) -> Dict[str, str]:
    pack = files["pack.c"]
    loop_re = re.compile(
        r"    reset_guard\(\);\n"
        r"    for \(i = 0; i < (declared\w*) && i < avail && i < [^;]+;\s*i\+\+\)\n"
        r"        slot\[i\] = data\[i \+ 2\];\n"
        r"    if \(!guard_intact\(\)\) \{\n"
        r"        report_overflow\(\);\n"
        r"        return -2;\n"
        r"    \}\n"
        r'    printf\("unpacked %lu bytes\\n", i\);\n'
        r"    return 0;\n"
    )
    m = loop_re.search(pack)
    if m is None:
        raise ForgeError("copy loop not found for refactor")
    name = m.group(1)
    helper = (
        "static int copy_payload(const unsigned char *data, unsigned long avail,\n"
        f"                        unsigned long cap, unsigned int {name})\n"
        "{\n"
        "    unsigned long i;\n"
        "    reset_guard();\n"
        f"    for (i = 0; i < {name} && i < avail && i < cap; i++)\n"
        "        slot[i] = data[i + 2];\n"
        "    if (!guard_intact()) {\n"
        "        report_overflow();\n"
        "        return -2;\n"
        "    }\n"
        '    printf("unpacked %lu bytes\\n", i);\n'
        "    return 0;\n"
        "}\n"
        "\n"
    )
    call = f"    return copy_payload(data, avail, (unsigned long)SLOT_CAP, {name});\n"
    pack = pack[: m.start()] + call + pack[m.end() :]
    # the tail return is gone; strip the now-dead locals the helper owns
    pack = _sub_once(pack, "    unsigned long i;\n\n", "\n")
    pack = _sub_once(
        pack,
        "int unpack_record(const unsigned char *data, unsigned long size, int lenient)\n",
        helper
        + "int unpack_record(const unsigned char *data, unsigned long size, int lenient)\n",
    )
    out = dict(files)
    out["pack.c"] = pack
    return out


BREAKERS: Dict[str, Tuple[Callable[[Dict[str, str]], Dict[str, str]], str]] = {
    "C1": (break_rename, "rename declared to declared_len for clarity"),
    "C2": (break_typechange, "narrow record length to 16 bits"),
    "C3": (break_removetool, "drop the -i compatibility flag"),
    "C4": (break_inputcheck, "reject oversized inputs at the tool boundary"),
    "C5": (break_errorhandling, "stop tolerating short payloads"),
    "C6": (break_refactor, "extract payload copying into a helper"),
}

NOISE_MESSAGES = (
    "update release notes",
    "clarify build instructions",
    "note supported platforms",
    "mention record format in docs",
)


# ---------- fast-import emission ----------


@dataclass
class _Commit:
    files: Dict[str, str]
    message: str
    role: str  # init | noise | fix | breaker
    archetype: str = ""


def _emit_fast_import(repo: Path, commits: List[_Commit]) -> List[str]:
    """Create the repo and stream all snapshots in one fast-import run.

    Returns commit ids oldest first.  Tags t0..tN name each commit.
    """
    repo.mkdir(parents=True, exist_ok=True)
    env = {
        "GIT_CONFIG_GLOBAL": "/dev/null",
        "GIT_CONFIG_SYSTEM": "/dev/null",
        "HOME": str(repo),
        "PATH": "/usr/bin:/bin:/usr/local/bin",
    }
    subprocess.run(
        ["git", "init", "-q", "-b", "main", str(repo)],
        stdin=subprocess.DEVNULL,
        check=True,
        env=env,
        capture_output=True,
    )
    chunks: List[bytes] = []
    blob_marks: Dict[str, int] = {}
    next_mark = 1

    def blob(content: str) -> int:
        nonlocal next_mark
        mark = blob_marks.get(content)
        if mark is None:
            mark = next_mark
            next_mark += 1
            blob_marks[content] = mark
            data = content.encode()
            chunks.append(b"blob\nmark :%d\ndata %d\n" % (mark, len(data)))
            chunks.append(data)
            chunks.append(b"\n")
        return mark

    commit_marks: List[int] = []
    for idx, c in enumerate(commits):
        file_marks = [(path, blob(text)) for path, text in sorted(c.files.items())]
        mark = next_mark
        next_mark += 1
        commit_marks.append(mark)
        when = BASE_EPOCH + idx * STEP
        msg = c.message.encode()
        lines = [b"commit refs/heads/main\n", b"mark :%d\n" % mark]
        lines.append(f"author {AUTHOR} {when} +0000\n".encode())
        lines.append(f"committer {AUTHOR} {when} +0000\n".encode())
        lines.append(b"data %d\n" % len(msg))
        lines.append(msg)
        lines.append(b"\n")
        if idx > 0:
            lines.append(b"from :%d\n" % commit_marks[idx - 1])
        lines.append(b"deleteall\n")
        for path, bmark in file_marks:
            mode = "100755" if path.endswith(".sh") else "100644"
            lines.append(f"M {mode} :{bmark} {path}\n".encode())
        lines.append(b"\n")
        chunks.extend(lines)
    for idx, mark in enumerate(commit_marks):
        chunks.append(f"reset refs/tags/t{idx}\nfrom :{mark}\n\n".encode())
    stream = b"".join(chunks)
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet"],
        input=stream,
        check=True,
        env=env,
        capture_output=True,
    )
    out = subprocess.run(
        ["git", "-C", str(repo), "log", "--reverse", "--first-parent", "--format=%H"],
        stdin=subprocess.DEVNULL,
        check=True,
        env=env,
        capture_output=True,
        text=True,
    )
    ids = out.stdout.split()
    if len(ids) != len(commits):
        raise ForgeError(f"emitted {len(commits)} commits, repo has {len(ids)}")
    return ids


# ---------- fixture assembly ----------


@dataclass
class ForgedFixture:
    repo: Path
    recipe: BuildRecipe
    poc: PocSpec
    poc_file: Path
    base: str
    fix: str
    target: str
    breakers: List[dict]  # oldest first: {"id", "archetype", "tag"}
    commits: List[dict]
    expected_final: str
    expected_abort_reason: str
    expected_stack: List[str]  # newest first

    def ledger(self) -> dict:
        return {
            "repo": str(self.repo),
            "base": self.base,
            "fix": self.fix,
            "target": self.target,
            "breakers": self.breakers,
            "commits": self.commits,
            "poc_file": str(self.poc_file),
            "expected": {
                "final": self.expected_final,
                "abort_reason": self.expected_abort_reason,
                "stack": self.expected_stack,
            },
        }


def overflow_poc_bytes() -> bytes:
    # declares 24 bytes, supplies 22: needs the lenient flag, then the
    # copy runs past SLOT_CAP into the guard region
    declared = SLOT_CAP + GUARD_BYTES
    payload = bytes(range(0x41, 0x41 + declared - 2))
    return bytes([declared & 0xFF, declared >> 8]) + payload


def hang_poc_bytes() -> bytes:
    return b"\xff\xff"


def expected_outcome(
    archetypes: List[str], breaker_ids: List[str], max_reverted: int = DEFAULT_MAX_REVERTED
) -> Tuple[str, str, List[str]]:
    """Ground truth for a forged scenario.

    Breakers are discovered oldest first, so the revert stack lists them
    newest first.  More breakers than the revert budget means the run
    aborts with the budget's worth of commits reverted: as
    FunctionalityRemoved when the breakers left include C3, whose build
    drops the PoC's flag, and none of C1, C2 or C6, on whose code the
    reverse fix conflicts before anything is built; else for complexity.
    """
    if len(archetypes) <= max_reverted:
        return "Revived", "", list(reversed(breaker_ids))
    left = set(archetypes[max_reverted:])
    removed = "C3" in left and not left & {"C1", "C2", "C6"}
    reason = "FunctionalityRemoved" if removed else "Complexity"
    return "Aborted", reason, list(reversed(breaker_ids[:max_reverted]))


def forge_repo(
    root: Path,
    archetypes: List[str],
    poc_kind: str = "overflow",
) -> ForgedFixture:
    """Build a fixture repo under `root` with the given breaker sequence,
    a noise commit before each breaker."""
    for a in archetypes:
        if a not in BREAKERS:
            raise ForgeError(f"unknown archetype {a!r}")
    root = Path(root)
    repo = root / "repo"

    files = {
        "pack.h": PACK_H,
        "pack.c": PACK_C_VULN,
        "tool.c": TOOL_C,
        "build.sh": BUILD_SH,
        "README": README,
        "CHANGES": "initial import\n",
    }
    commits: List[_Commit] = [_Commit(dict(files), "initial import", "init")]

    def noise(i: int):
        files["CHANGES"] = files["CHANGES"] + NOISE_MESSAGES[i % len(NOISE_MESSAGES)] + "\n"
        commits.append(_Commit(dict(files), NOISE_MESSAGES[i % len(NOISE_MESSAGES)], "noise"))

    noise(0)
    files.update(apply_fix(files))
    commits.append(_Commit(dict(files), "reject oversized records before copying", "fix"))
    fix_index = len(commits) - 1

    breaker_indices: List[Tuple[int, str]] = []
    for j, arch in enumerate(archetypes):
        noise(j + 1)
        transform, message = BREAKERS[arch]
        files.update(transform(files))
        commits.append(_Commit(dict(files), message, "breaker", archetype=arch))
        breaker_indices.append((len(commits) - 1, arch))
    noise(len(archetypes) + 1)

    ids = _emit_fast_import(repo, commits)

    commit_rows = [
        {
            "id": ids[i],
            "tag": f"t{i}",
            "role": c.role,
            "archetype": c.archetype,
        }
        for i, c in enumerate(commits)
    ]
    breakers = [
        {"id": ids[i], "archetype": arch, "tag": f"t{i}"} for i, arch in breaker_indices
    ]

    poc_file = root / ("poc_hang.bin" if poc_kind == "hang" else "poc.bin")
    poc_file.write_bytes(hang_poc_bytes() if poc_kind == "hang" else overflow_poc_bytes())

    recipe = BuildRecipe.make(["sh build.sh"], ["pack_tool"], timeout=120)
    poc = PocSpec(
        command="{binary} -i {input}",
        input_file=str(poc_file),
        expected_detector="" if poc_kind == "hang" else "heap-buffer-overflow",
        run_timeout=5.0 if poc_kind == "hang" else 30.0,
        hang_is_trigger=(poc_kind == "hang"),
    )

    final, reason, stack = expected_outcome(archetypes, [b["id"] for b in breakers])
    fixture = ForgedFixture(
        repo=repo,
        recipe=recipe,
        poc=poc,
        poc_file=poc_file,
        base=ids[0],
        fix=ids[fix_index],
        target=ids[-1],
        breakers=breakers,
        commits=commit_rows,
        expected_final=final,
        expected_abort_reason=reason,
        expected_stack=stack,
    )
    (root / "ledger.json").write_text(json.dumps(fixture.ledger(), indent=2) + "\n")
    return fixture


# ---------- flat flip histories for bisection validation ----------


@dataclass
class FlipHistory:
    repo: Path
    commit_ids: List[str]  # oldest first, the probe range
    base: str
    flip_index: Optional[int]  # index into commit_ids, None if never flips
    flip_id: Optional[str]


def forge_flip_history(root: Path, n: int, flip_at: Optional[int]) -> FlipHistory:
    """History of n+1 commits where state.txt turns bad at index flip_at.

    flip_at indexes the post-base range (0-based); None means the
    property holds throughout.
    """
    if n < 1:
        raise ForgeError("need at least one candidate commit")
    root = Path(root)
    repo = root / "repo"
    commits: List[_Commit] = []
    state = "good"
    files = {"state.txt": state + "\n", "counter.txt": "0\n"}
    commits.append(_Commit(dict(files), "base", "init"))
    for i in range(n):
        if flip_at is not None and i == flip_at:
            state = "bad"
        files["state.txt"] = state + "\n"
        files["counter.txt"] = f"{i + 1}\n"
        commits.append(_Commit(dict(files), f"step {i + 1}", "noise"))
    ids = _emit_fast_import(repo, commits)
    return FlipHistory(
        repo=repo,
        commit_ids=ids[1:],
        base=ids[0],
        flip_index=flip_at,
        flip_id=ids[1 + flip_at] if flip_at is not None else None,
    )
