"""Data model for unified-diff patches.

A patch is kept as plain data: a SourcePatch holds FilePatches, a FilePatch
names one file and holds Hunks, a Hunk holds tagged lines.  Nothing here
checks a patch or touches the filesystem: the parser checks what it reads,
and rendering and application live in sibling modules.  Every error of the
patch layer is a PatchError: the parser's three kinds, HunkRejected from
applying one file, and the applier's PatchConflict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    """How the reverse fix is applied; the patch applies whole or not at
    all either way (`split_by_granularity`, `apply_patch`).

    PatchHunks applies each file's hunks in order, each searched for
    near its declared line, moved by the lines the hunks before it added
    or removed, with fuzz.  WholeFiles applies each file's patch
    strictly, at its declared lines with no fuzz, and replaces the whole
    file."""

    WholeFiles = "whole-files"
    PatchHunks = "patch-hunks"


class PatchError(Exception):
    """Base class for everything raised by the patch layer."""


class MalformedHeader(PatchError):
    pass


class HunkCountMismatch(PatchError):
    pass


class TruncatedHunk(PatchError):
    pass


class HunkRejected(PatchError):
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


# mode_change values for FilePatch
MODE_NONE = "none"
MODE_CREATED = "created"
MODE_DELETED = "deleted"


@dataclass
class FilePatch:
    path: str  # the one file the patch edits, creates or deletes
    hunks: List[Hunk] = field(default_factory=list)
    mode_change: str = MODE_NONE
    is_binary: bool = False


@dataclass
class SourcePatch:
    files: List[FilePatch] = field(default_factory=list)


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
    return replace(
        fp, hunks=[invert_hunk(h) for h in fp.hunks], mode_change=_MODE_INVERSE[fp.mode_change]
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
