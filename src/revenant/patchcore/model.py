"""Data model for unified-diff patches.

A patch is kept as plain data: a SourcePatch holds FilePatches, a FilePatch
holds Hunks, a Hunk holds tagged lines.  Nothing here touches the filesystem;
parsing, rendering and application live in sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Tuple

CONTEXT = "context"
REMOVE = "remove"
ADD = "add"

_KIND_TO_SIGIL = {CONTEXT: " ", REMOVE: "-", ADD: "+"}
_SIGIL_TO_KIND = {" ": CONTEXT, "-": REMOVE, "+": ADD}

# the kinds of line on each side of a hunk
OLD_SIDE = (CONTEXT, REMOVE)
NEW_SIDE = (CONTEXT, ADD)


class Granularity(Enum):
    """How much of a fix patch is treated as one indivisible unit."""

    WholeFiles = "whole-files"
    PatchHunks = "patch-hunks"
    FunctionScope = "function"
    ChunkScope = "chunk"


class PatchError(Exception):
    """Base class for everything raised by the patch layer."""


class PatchParseError(PatchError):
    pass


class MalformedHeader(PatchParseError):
    pass


class HunkCountMismatch(PatchParseError):
    pass


class TruncatedHunk(PatchParseError):
    pass


class PatchApplyError(PatchError):
    pass


class HunkRejected(PatchApplyError):
    pass


class FunctionBoundaryUnavailable(PatchError):
    pass


@dataclass(frozen=True)
class HunkLine:
    kind: str  # one of CONTEXT, REMOVE, ADD
    text: str  # line content without its terminator
    # False only for a file's very last line when the file has no trailing
    # newline ("\\ No newline at end of file" in the wire format).
    newline: bool = True

    def sigil(self) -> str:
        return _KIND_TO_SIGIL[self.kind]


def side(lines: List[HunkLine], kinds: Tuple[str, str]) -> List[HunkLine]:
    """The lines of a hunk body on one side: OLD_SIDE or NEW_SIDE."""
    return [ln for ln in lines if ln.kind in kinds]


@dataclass
class Hunk:
    old_start: int
    old_len: int
    new_start: int
    new_len: int
    lines: List[HunkLine] = field(default_factory=list)

    def validate(self) -> None:
        old_n = len(side(self.lines, OLD_SIDE))
        new_n = len(side(self.lines, NEW_SIDE))
        if old_n != self.old_len:
            raise HunkCountMismatch(
                f"hunk declares {self.old_len} old lines, body has {old_n}"
            )
        if new_n != self.new_len:
            raise HunkCountMismatch(
                f"hunk declares {self.new_len} new lines, body has {new_n}"
            )


# mode_change values for FilePatch
MODE_NONE = "none"
MODE_CREATED = "created"
MODE_DELETED = "deleted"


@dataclass
class FilePatch:
    old_path: str
    new_path: str
    hunks: List[Hunk] = field(default_factory=list)
    mode_change: str = MODE_NONE
    is_binary: bool = False

    @property
    def path(self) -> str:
        # the path the patch is addressed to on the side that exists
        return self.old_path if self.mode_change != MODE_CREATED else self.new_path

    def validate(self) -> None:
        if self.is_binary:
            if self.hunks:
                raise MalformedHeader("binary file patch cannot carry hunks")
            return
        prev_end = 0
        for h in self.hunks:
            h.validate()
            # insertion hunks (old_len == 0) sit between lines; treat their
            # occupied old span as empty at position old_start
            begin = h.old_start if h.old_len else h.old_start + 1
            if begin < prev_end:
                raise MalformedHeader(
                    f"hunks overlap or are out of order near line {h.old_start}"
                )
            prev_end = h.old_start + h.old_len


@dataclass
class SourcePatch:
    files: List[FilePatch] = field(default_factory=list)

    def validate(self) -> None:
        for fp in self.files:
            fp.validate()


def _invert_run(removes: List[HunkLine], adds: List[HunkLine]) -> List[HunkLine]:
    # a change run inverts to: previous adds become removes, in order,
    # followed by previous removes as adds
    out = [HunkLine(REMOVE, ln.text, ln.newline) for ln in adds]
    out += [HunkLine(ADD, ln.text, ln.newline) for ln in removes]
    return out


def invert_hunk(h: Hunk) -> Hunk:
    lines: List[HunkLine] = []
    removes: List[HunkLine] = []
    adds: List[HunkLine] = []
    for ln in h.lines:
        if ln.kind == CONTEXT:
            if removes or adds:
                lines += _invert_run(removes, adds)
                removes, adds = [], []
            lines.append(ln)
        elif ln.kind == REMOVE:
            removes.append(ln)
        else:
            adds.append(ln)
    if removes or adds:
        lines += _invert_run(removes, adds)
    return Hunk(
        old_start=h.new_start,
        old_len=h.new_len,
        new_start=h.old_start,
        new_len=h.old_len,
        lines=lines,
    )


_MODE_INVERSE = {MODE_NONE: MODE_NONE, MODE_CREATED: MODE_DELETED, MODE_DELETED: MODE_CREATED}


def invert_file_patch(fp: FilePatch) -> FilePatch:
    return FilePatch(
        old_path=fp.new_path,
        new_path=fp.old_path,
        hunks=[invert_hunk(h) for h in fp.hunks],
        mode_change=_MODE_INVERSE[fp.mode_change],
        is_binary=fp.is_binary,
    )


def invert(patch: SourcePatch) -> SourcePatch:
    """Return the reverse patch: applying it undoes `patch`.

    Involution holds structurally: invert(invert(p)) == p.
    """
    return SourcePatch(files=[invert_file_patch(fp) for fp in patch.files])


def split_lines(text: str) -> tuple[List[str], bool]:
    """Split text on "\\n" only, keeping CR bytes inside the line text.

    Returns (lines, ends_with_newline).  The empty string has no lines.
    """
    if text == "":
        return [], True
    parts = text.split("\n")
    if parts[-1] == "":
        parts.pop()
        return parts, True
    return parts, False


def join_lines(lines: List[str], final_newline: bool) -> str:
    if not lines:
        return ""
    body = "\n".join(lines)
    return body + "\n" if final_newline else body
