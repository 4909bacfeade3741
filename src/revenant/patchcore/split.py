"""Re-expression of one patch as several smaller, independently applicable
patches, at four granularities.

The concatenated outputs are application-equivalent to the input.  New-side
start lines are renumbered so each emitted patch stands alone; applying the
parts in order relies on the applier's offset search to absorb the drift
the earlier parts introduce.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from .applier import apply_file_patch
from .diffgen import whole_file_patch
from .model import (
    FilePatch,
    FunctionBoundaryUnavailable,
    Granularity,
    Hunk,
    HunkRejected,
    SourcePatch,
    split_lines,
)

FALLBACK_NOTE = "function-scope-fallback"

# a C-family function definition: unindented, ends in an argument list,
# no trailing semicolon (that would be a prototype)
RE_FUNC_DEF = re.compile(
    r"^[A-Za-z_][A-Za-z0-9_ \t\*]*?([A-Za-z_][A-Za-z0-9_]*)\s*\([^;{}]*\)\s*\{?\s*$"
)


def locate_functions(text: str) -> List[Tuple[str, int, int]]:
    """Best-effort (name, first_line, last_line) spans, 1-based inclusive.

    Brace-balance scanning from lines that look like function definitions.
    Raises FunctionBoundaryUnavailable when nothing parseable is found or a
    body never closes.
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
        if not opened or depth > 0:
            if opened:
                raise FunctionBoundaryUnavailable(
                    f"unbalanced braces in function starting at line {start + 1}"
                )
            i += 1
            continue
        spans.append((name, start + 1, j + 1))
        i = j + 1
    if not spans:
        raise FunctionBoundaryUnavailable("no function definitions recognized")
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
    return FilePatch(
        old_path=fp.old_path,
        new_path=fp.new_path,
        hunks=_renumber(hunks),
        mode_change=fp.mode_change,
        is_binary=fp.is_binary,
    )


def _provenance(base: str, label: str) -> str:
    return f"{base}|{label}" if base else label


def split_by_granularity(
    patch: SourcePatch,
    granularity: Granularity,
    read_file: Optional[Callable[[str], str]] = None,
) -> List[SourcePatch]:
    """Split `patch` into parts that are each one unit at `granularity`.

    WholeFiles and FunctionScope need the pre-patch file contents, which
    `read_file(path)` returns.  FunctionScope falls back to ChunkScope for
    files whose function boundaries cannot be located, and says so in the
    part's provenance.
    """
    prov = patch.provenance

    if granularity is Granularity.PatchHunks:
        return [
            SourcePatch([fp], provenance=_provenance(prov, f"file:{fp.path}"))
            for fp in patch.files
        ]

    if granularity is Granularity.ChunkScope:
        out = []
        for fp in patch.files:
            if fp.is_binary:
                out.append(
                    SourcePatch([fp], provenance=_provenance(prov, f"chunk:{fp.path}"))
                )
                continue
            for k, h in enumerate(fp.hunks):
                out.append(
                    SourcePatch(
                        [_part(fp, [h])],
                        provenance=_provenance(prov, f"chunk:{fp.path}#{k}"),
                    )
                )
        return out

    if granularity is Granularity.WholeFiles:
        if read_file is None:
            raise ValueError("WholeFiles splitting needs worktree contents")
        files = []
        for fp in patch.files:
            if fp.is_binary:
                raise HunkRejected(f"{fp.path}: binary files cannot be re-diffed")
            old = "" if fp.mode_change == "created" else read_file(fp.path)
            new, report = apply_file_patch(old, fp, max_fuzz=0, search_window=0)
            if not report.all_applied:
                raise HunkRejected(
                    f"{fp.path}: patch does not apply strictly to the worktree copy"
                )
            files.append(whole_file_patch(old, new, fp.path))
        return [SourcePatch(files, provenance=_provenance(prov, "whole-files"))]

    if granularity is Granularity.FunctionScope:
        if read_file is None:
            raise ValueError("FunctionScope splitting needs worktree contents")
        out = []
        for fp in patch.files:
            if fp.is_binary or fp.mode_change == "created":
                out.append(
                    SourcePatch([fp], provenance=_provenance(prov, f"file:{fp.path}"))
                )
                continue
            try:
                spans = locate_functions(read_file(fp.path))
            except FunctionBoundaryUnavailable:
                for k, h in enumerate(fp.hunks):
                    out.append(
                        SourcePatch(
                            [_part(fp, [h])],
                            provenance=_provenance(
                                prov, f"{FALLBACK_NOTE}:{fp.path}#{k}"
                            ),
                        )
                    )
                continue
            groups: Dict[str, List[Hunk]] = {}
            order: List[str] = []
            for k, h in enumerate(fp.hunks):
                begin = h.old_start if h.old_len else h.old_start
                end = h.old_start + max(h.old_len - 1, 0)
                key = f"chunk#{k}"
                for name, lo, hi in spans:
                    if begin >= lo and end <= hi:
                        key = f"fn:{name}@{lo}"
                        break
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(h)
            for key in order:
                out.append(
                    SourcePatch(
                        [_part(fp, groups[key])],
                        provenance=_provenance(prov, f"{key}:{fp.path}"),
                    )
                )
        return out

    raise ValueError(f"unknown granularity: {granularity!r}")
