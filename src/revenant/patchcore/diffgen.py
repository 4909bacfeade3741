"""Generate FilePatch objects by diffing two texts.

difflib does the sequence matching; this module only shapes its opcodes
into the hunk model, carrying the no-trailing-newline property through so
round-trips stay byte-exact.
"""

from __future__ import annotations

import difflib
from typing import List, Tuple

from .model import (
    ADD,
    CONTEXT,
    MODE_CREATED,
    MODE_DELETED,
    REMOVE,
    FilePatch,
    Hunk,
    HunkLine,
    SourcePatch,
    split_lines,
)


def _tagged_lines(text: str) -> List[Tuple[str, bool]]:
    lines, final_nl = split_lines(text)
    out = [(ln, True) for ln in lines]
    if out and not final_nl:
        out[-1] = (out[-1][0], False)
    return out


CONTEXT_LINES = 3  # unchanged lines kept on each side of a change


def diff_texts(old: str, new: str, path: str) -> FilePatch:
    """Unified diff of two texts as a FilePatch (empty hunks list if equal),
    with `CONTEXT_LINES` of context, that neither creates nor deletes the
    file: an empty text may be a file that stays."""
    a = _tagged_lines(old)
    b = _tagged_lines(new)
    fp = FilePatch(path)

    matcher = difflib.SequenceMatcher(a=a, b=b, autojunk=False)
    for group in matcher.get_grouped_opcodes(CONTEXT_LINES):
        i1, j1 = group[0][1], group[0][3]
        i2, j2 = group[-1][2], group[-1][4]
        hunk = Hunk(
            old_start=i1 + 1 if i2 > i1 else i1,
            old_len=i2 - i1,
            new_start=j1 + 1 if j2 > j1 else j1,
            new_len=j2 - j1,
        )
        for tag, ai, aj, bi, bj in group:
            if tag == "equal":
                for text, nl in a[ai:aj]:
                    hunk.lines.append(HunkLine(CONTEXT, text, nl))
                continue
            if tag in ("replace", "delete"):
                for text, nl in a[ai:aj]:
                    hunk.lines.append(HunkLine(REMOVE, text, nl))
            if tag in ("replace", "insert"):
                for text, nl in b[bi:bj]:
                    hunk.lines.append(HunkLine(ADD, text, nl))
        fp.hunks.append(hunk)
    return fp


def whole_file_patch(old: str, new: str, path: str, mode_change: str) -> FilePatch:
    """A single-hunk patch replacing the full old content with the new.
    `mode_change` says whether it creates or deletes the file: an empty
    text may be either, or a file that stays."""
    a = _tagged_lines(old)
    b = _tagged_lines(new)
    lines = [HunkLine(REMOVE, t, nl) for t, nl in a]
    lines += [HunkLine(ADD, t, nl) for t, nl in b]
    hunk = Hunk(
        old_start=1 if a else 0,
        old_len=len(a),
        new_start=1 if b else 0,
        new_len=len(b),
        lines=lines,
    )
    fp = FilePatch(path, mode_change=mode_change)
    if a or b:
        fp.hunks.append(hunk)
    return fp


def diff_trees(old_files: dict, new_files: dict) -> SourcePatch:
    """Diff two {path: text} snapshots into a SourcePatch.  A path that
    only the new side holds is created, and one that only the old side
    holds is deleted, whatever its text."""
    paths = sorted(set(old_files) | set(new_files))
    files = []
    for p in paths:
        if old_files.get(p) == new_files.get(p):
            continue
        fp = diff_texts(old_files.get(p, ""), new_files.get(p, ""), p)
        if p not in old_files:
            fp.mode_change = MODE_CREATED
        elif p not in new_files:
            fp.mode_change = MODE_DELETED
        files.append(fp)
    return SourcePatch(files=files)
