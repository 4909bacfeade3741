"""Hunk application with offset search and bounded context fuzz.

Anchor search order, per hunk: exact match at the declared position, then an
offset scan alternating +1, -1, +2, -2, ... inside the search window, then
the same again with 1 and finally 2 outer context lines dropped (fuzz).
Two equally distant anchors at the same fuzz level are ambiguous and the
hunk is rejected rather than guessed.  The first hunk that finds no anchor,
or an ambiguous one, rejects the whole file: nothing of it is applied.

With max_fuzz=0 and search_window=0 the behavior is strict application:
every hunk must match byte-exactly at its declared position.

`apply_patch` is the one way a whole patch is applied to a tree: it
writes every file's result when no file conflicted, else nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import (
    CONTEXT,
    MODE_CREATED,
    MODE_DELETED,
    NEW_SIDE,
    OLD_SIDE,
    FilePatch,
    HunkLine,
    HunkRejected,
    PatchApplyError,
    join_lines,
    side,
    split_lines,
)

MAX_FUZZ = 2  # the most context lines a hunk may drop from each end

# why `apply_patch` could not patch a file
CONFLICT_EXISTS = "exists"  # created where a file already is
CONFLICT_MISSING = "missing"  # changed or deleted where no file is
CONFLICT_BINARY = "binary"  # a binary patch, which cannot apply textually
CONFLICT_REJECTED = "rejected"  # a hunk found no anchor, or an ambiguous one


@dataclass
class ApplyReport:
    path: str
    offsets: List[int]  # each applied hunk's displacement from its declared line


class PatchConflict(PatchApplyError):
    """A patch that `apply_patch` did not apply.  `reasons` maps each
    conflicting path to its CONFLICT_* reason, in patch order."""

    def __init__(self, reasons: Dict[str, str]):
        super().__init__(", ".join(f"{path} ({reason})" for path, reason in reasons.items()))
        self.reasons = reasons


def _trim_for_fuzz(lines: List[HunkLine], fuzz: int) -> Tuple[List[HunkLine], int]:
    """Drop up to `fuzz` context lines from each end of the hunk body.

    Only context may be dropped; change lines always survive.  Returns the
    trimmed body and how many leading context lines went away (the anchor
    position shifts forward by that much).
    """
    if fuzz == 0:
        return lines, 0
    lo = 0
    while lo < len(lines) and lo < fuzz and lines[lo].kind == CONTEXT:
        lo += 1
    hi = len(lines)
    dropped_back = 0
    while hi > lo and dropped_back < fuzz and lines[hi - 1].kind == CONTEXT:
        hi -= 1
        dropped_back += 1
    return lines[lo:hi], lo


def _matches_at(
    buf: List[str],
    buf_final_nl: bool,
    pos: int,
    pattern: List[HunkLine],
) -> bool:
    if pos < 0 or pos + len(pattern) > len(buf):
        return False
    last_idx = len(buf) - 1
    for k, want in enumerate(pattern):
        if buf[pos + k] != want.text:
            return False
        # the no-newline property must agree: a pattern line flagged as
        # unterminated matches only the file's unterminated last line
        line_has_nl = not (pos + k == last_idx and not buf_final_nl)
        if line_has_nl != want.newline:
            return False
    return True


def _candidate_positions(center: int, window: int, floor: int, ceil: int):
    """Yield (position, offset) pairs: 0, +1, -1, +2, -2, ... within bounds."""
    if floor <= center <= ceil:
        yield center, 0
    for d in range(1, window + 1):
        up = center + d
        down = center - d
        if up > ceil and down < floor:
            return
        if up <= ceil:
            yield up, d
        if down >= floor:
            yield down, -d


def apply_file_patch(
    content: str,
    fp: FilePatch,
    max_fuzz: int = 0,
    search_window: int = 200,
) -> Tuple[str, ApplyReport]:
    """Apply one FilePatch to file content, hunk by hunk.

    Every hunk applies, or HunkRejected names the first one (counted from
    1) that found no anchor or an ambiguous one.  Binary patches are
    refused outright.
    """
    if fp.is_binary:
        raise HunkRejected(f"{fp.path}: binary files cannot be patched textually")
    if not 0 <= max_fuzz <= MAX_FUZZ:
        raise ValueError(f"max_fuzz must be 0 to {MAX_FUZZ}")

    buf, final_nl = split_lines(content)
    report = ApplyReport(fp.path, [])
    delta = 0  # net line drift caused by already-applied hunks
    floor = 0  # first buffer index not owned by a previous hunk

    for number, hunk in enumerate(fp.hunks, 1):
        # expected 0-based index of the first old-side line; a pure
        # insertion anchors after line old_start, matching patch(1)
        base = hunk.old_start - 1 if hunk.old_len else hunk.old_start
        expected = base + delta

        placed: Optional[Tuple[int, int, List[HunkLine]]] = None
        for fuzz in range(0, max_fuzz + 1):
            body, shift = _trim_for_fuzz(hunk.lines, fuzz)
            old_pat = side(body, OLD_SIDE)
            if not old_pat:
                # nothing to anchor on: a contextless insertion goes exactly
                # where the header says, clamped into the legal region
                pos = min(max(expected + shift, floor), len(buf))
                placed = (pos, 0, body)
                break
            ceil = len(buf) - len(old_pat)
            hits: List[Tuple[int, int]] = []
            for pos, off in _candidate_positions(expected + shift, search_window, floor, ceil):
                if _matches_at(buf, final_nl, pos, old_pat):
                    if hits:
                        if abs(hits[0][1]) == abs(off):
                            hits.append((pos, off))
                        # a farther second match never beats the first
                        break
                    hits.append((pos, off))
                    if off <= 0:
                        # the mirror candidate (+|off|) was already visited,
                        # so no equal-distance tie can follow
                        break
            if len(hits) > 1:
                raise HunkRejected(f"{fp.path}: hunk {number}: ambiguous anchor")
            if hits:
                placed = (*hits[0], body)
                break
        if placed is None:
            raise HunkRejected(f"{fp.path}: hunk {number}: no anchor")

        pos, off, body = placed
        old_pat = side(body, OLD_SIDE)
        new_pat = side(body, NEW_SIDE)
        tail_replaced = pos + len(old_pat) >= len(buf)
        buf[pos : pos + len(old_pat)] = [ln.text for ln in new_pat]
        if tail_replaced and new_pat:
            # the hunk now owns the end of the file; its new side decides
            # whether the file keeps a trailing newline
            final_nl = new_pat[-1].newline
        delta += len(new_pat) - len(old_pat)
        floor = pos + len(new_pat)
        report.offsets.append(off)

    return join_lines(buf, final_nl), report


def tree_reader(tree) -> Callable[[str], Optional[str]]:
    """Read `tree` (anything with `exists` and `read`) as `apply_patch`
    does: a file's text, or None when it is absent."""
    return lambda relpath: tree.read(relpath) if tree.exists(relpath) else None


def apply_patch(tree, files: Sequence[FilePatch], max_fuzz: int) -> List[ApplyReport]:
    """Apply every FilePatch in `files` to `tree` (anything with `exists`,
    `read`, `write` and `delete`), atomically, and return one report per
    FilePatch, in order.

    Every file's result is staged in memory first; a later FilePatch on
    a path sees the text staged for it so far.  A file created where one
    exists, a missing file, a binary patch and a rejected hunk each make
    the file a conflict, and every file is still tried after one.  With
    no conflict every staged result is written to `tree`; otherwise
    nothing is, and PatchConflict names every conflicting path.  Hunks
    match with up to `max_fuzz` context lines dropped.
    """
    read = tree_reader(tree)
    staged: Dict[str, Optional[str]] = {}  # None: deleted
    reports: List[ApplyReport] = []
    conflicts: Dict[str, str] = {}
    for fp in files:
        text = staged[fp.path] if fp.path in staged else read(fp.path)
        created = fp.mode_change == MODE_CREATED
        conflict = None
        if created and text is not None:
            conflict = CONFLICT_EXISTS
        elif not created and text is None:
            conflict = CONFLICT_MISSING
        elif fp.is_binary:
            conflict = CONFLICT_BINARY
        else:
            try:
                new_text, report = apply_file_patch(text or "", fp, max_fuzz=max_fuzz)
            except HunkRejected:
                conflict = CONFLICT_REJECTED
        if conflict is not None:
            conflicts.setdefault(fp.path, conflict)
        else:
            reports.append(report)
            staged[fp.path] = None if fp.mode_change == MODE_DELETED else new_text
    if conflicts:
        raise PatchConflict(conflicts)
    for path, text in staged.items():
        if text is None:
            tree.delete(path)
        else:
            tree.write(path, text)
    return reports
