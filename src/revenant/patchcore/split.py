"""Re-expression of one patch as file patches that each hold one unit, at
four granularities.

Applied in order, the parts are equivalent to the input.  New-side start
lines are renumbered so each part stands alone; applying the parts in order
relies on the applier's offset search to absorb the drift the earlier parts
introduce.  Splitting judges no patch: a binary patch, or one on an absent
file, is left whole for `apply_patch` to refuse.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from .applier import apply_file_patch
from .diffgen import whole_file_patch
from .model import (
    MODE_CREATED,
    FilePatch,
    Granularity,
    Hunk,
    SourcePatch,
    split_lines,
)

# a C-family function definition: unindented, ends in an argument list,
# no trailing semicolon (that would be a prototype)
RE_FUNC_DEF = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_ \t\*]*?([A-Za-z_][A-Za-z0-9_]*)\s*\([^;{}]*\)\s*\{?\s*$"
)


def locate_functions(text: str) -> List[Tuple[str, int, int]]:
    """Best-effort (name, first_line, last_line) spans, 1-based inclusive.

    Brace-balance scanning from lines that look like function definitions.
    Returns [] when no line looks like one, or when a body never closes.
    """
    lines, _ = split_lines(text)
    spans: List[Tuple[str, int, int]] = []
    i = 0
    n = len(lines)
    while i < n:
        m = RE_FUNC_DEF.match(lines[i])
        if m is None:
            i += 1
            continue
        name = m.group(1)
        start = i
        # find the opening brace on this or a following line
        depth = 0
        opened = False
        j = i
        while j < n:
            for ch in lines[j]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened and depth <= 0:
                break
            if not opened and j > i + 2:
                break  # not a definition after all (no body in sight)
            j += 1
        if opened and depth > 0:
            return []
        if not opened:
            i += 1
            continue
        spans.append((name, start + 1, j + 1))
        i = j + 1
    return spans


def _renumber(hunks: List[Hunk]) -> List[Hunk]:
    """Recompute new-side starts as if these were the only hunks."""
    out = []
    delta = 0
    for h in hunks:
        if h.old_len:
            new_start = h.old_start + delta
        else:
            # insertion hunks address the line they follow
            new_start = h.old_start + delta + (1 if h.new_len else 0)
        out.append(Hunk(h.old_start, h.old_len, new_start, h.new_len, list(h.lines)))
        delta += h.new_len - h.old_len
    return out


def _part(fp: FilePatch, hunks: List[Hunk]) -> FilePatch:
    return replace(fp, hunks=_renumber(hunks))


def split_by_granularity(
    patch: SourcePatch,
    granularity: Granularity,
    read: Callable[[str], Optional[str]],
) -> List[FilePatch]:
    """The file patches of `patch`, one per unit at `granularity`, in
    the order they apply.

    WholeFiles and FunctionScope need the pre-patch texts, which
    `read(path)` returns as `apply_patch` reads them: None when the file
    is absent.  An absent or binary file is left whole, for the applier
    to report.  WholeFiles applies each file strictly and replaces it in
    one hunk; a file that does not apply strictly raises HunkRejected.
    FunctionScope groups a file's hunks by the C function that holds
    them, and leaves each other hunk on its own.
    """
    if granularity is Granularity.PatchHunks:
        return list(patch.files)

    if granularity is Granularity.ChunkScope:
        out = []
        for fp in patch.files:
            out += [fp] if fp.is_binary else [_part(fp, [h]) for h in fp.hunks]
        return out

    if granularity not in (Granularity.WholeFiles, Granularity.FunctionScope):
        raise ValueError(f"unknown granularity: {granularity!r}")
    out = []
    for fp in patch.files:
        created = fp.mode_change == MODE_CREATED
        old = None if fp.is_binary else "" if created else read(fp.path)
        if old is None:
            out.append(fp)
        elif granularity is Granularity.WholeFiles:
            new, _ = apply_file_patch(old, fp, search_window=0)
            out.append(whole_file_patch(old, new, fp.path, fp.mode_change))
        elif created:
            out.append(fp)
        else:
            spans = locate_functions(old)
            groups: Dict[object, List[Hunk]] = {}
            for k, h in enumerate(fp.hunks):
                end = h.old_start + max(h.old_len - 1, 0)
                # the function that holds the hunk, else the hunk alone
                key = next(((name, lo) for name, lo, hi in spans
                            if lo <= h.old_start and end <= hi), k)
                groups.setdefault(key, []).append(h)
            out += [_part(fp, hunks) for hunks in groups.values()]
    return out
