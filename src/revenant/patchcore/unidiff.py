"""Parser and renderer for the unified diff wire format.

The accepted grammar is what `git diff` and `diff -u` emit: `---`/`+++`
headers (with optional a/ b/ prefixes, C quotes and timestamp suffixes),
`@@` hunk headers, and body lines tagged with space, `-`, `+` or the
no-newline marker; an empty line is a blank context line, which git
writes without its space when `diff.suppressBlankEmpty` is set.  Git
decoration lines (index, mode, similarity) are skipped, but
for a file created or deleted empty git writes only `diff --git`, the
file mode and `index`: such a section becomes a hunkless FilePatch named
by its `diff --git` header.  A mode change alone (`old mode`/`new mode`)
is not kept.  The parser is the one place a patch is checked: its
headers, its hunks' counts, and the order of each file's hunks.
Rendering is the inverse minus decoration: parse(render(p)) gives back a
structurally equal patch.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional

from .model import (
    NEW_SIDE,
    OLD_SIDE,
    FilePatch,
    Hunk,
    HunkCountMismatch,
    HunkLine,
    MalformedHeader,
    MODE_CREATED,
    MODE_DELETED,
    MODE_NONE,
    SourcePatch,
    TruncatedHunk,
    _SIGIL_TO_KIND,
)

RE_HUNK = re.compile(
    r"^@@ -(?P<o_start>\d+)(?:,(?P<o_len>\d+))?"
    r" \+(?P<n_start>\d+)(?:,(?P<n_len>\d+))? @@(?: (?P<note>.*))?$"
)
RE_BINARY = re.compile(r"^Binary files (?P<old>.+) and (?P<new>.+) differ$")
NO_NEWLINE_MARKER = "\\ No newline at end of file"

DEV_NULL = "/dev/null"


# the escapes git writes in a quoted path, besides three octal digits
_C_ESCAPES = {b"a": b"\a", b"b": b"\b", b"t": b"\t", b"n": b"\n", b"v": b"\v",
              b"f": b"\f", b"r": b"\r", b'"': b'"', b"\\": b"\\"}
RE_C_ESCAPE = re.compile(rb"\\([0-7]{3}|.)", re.DOTALL)
_C_QUOTES = {value[0]: b"\\" + letter for letter, value in _C_ESCAPES.items()}


def _unquote(quoted: str) -> str:
    """A path that git wrote in C quotes (it holds a byte above 0x7f, a
    control character, a quote or a backslash), as the bytes it names
    decoded the way git's file listings are."""
    raw = RE_C_ESCAPE.sub(
        lambda m: bytes([int(m[1], 8)]) if len(m[1]) == 3 else _C_ESCAPES.get(m[1], m[0]),
        os.fsencode(quoted[1:-1]),
    )
    return os.fsdecode(raw)


def _quote(path: str) -> str:
    """`path` as git writes it: in C quotes if it holds a control
    character, a quote, a backslash or a byte above 0x7e."""
    raw = os.fsencode(path)
    quoted = b"".join(
        _C_QUOTES.get(b) or (bytes([b]) if 0x20 <= b < 0x7f else b"\\%03o" % b) for b in raw
    )
    return path if quoted == raw else '"' + quoted.decode("ascii") + '"'


def _clean_path(raw: str) -> str:
    # drop a "\t<timestamp>" suffix, or the bare tab git writes after a
    # name holding a space (the name keeps its own spaces, also trailing
    # ones), then unquote and strip an "a/" or "b/" prefix
    path = raw.split("\t", 1)[0]
    if len(path) > 1 and path[0] == path[-1] == '"':
        path = _unquote(path)
    if path.startswith(("a/", "b/")):
        path = path[2:]
    return path


def _file_patch(old: str, new: str, is_binary: bool) -> FilePatch:
    """The FilePatch a file header names: a /dev/null side means the file
    is created or deleted, and takes the name of the other side; any
    other file takes its `---` name."""
    if old == DEV_NULL and new == DEV_NULL:
        raise MalformedHeader("both sides are /dev/null")
    if old == DEV_NULL:
        return FilePatch(new, mode_change=MODE_CREATED, is_binary=is_binary)
    mode = MODE_DELETED if new == DEV_NULL else MODE_NONE
    return FilePatch(old, mode_change=mode, is_binary=is_binary)


def parse_unified_diff(text: str) -> SourcePatch:
    """Parse one or many file diffs out of `text`.

    Raises MalformedHeader, HunkCountMismatch or TruncatedHunk on bad input.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    files: List[FilePatch] = []
    current: Optional[FilePatch] = None
    pending_old: Optional[str] = None
    # the current `diff --git` section as a hunkless FilePatch; it is
    # listed once a file mode line creates or deletes it, and dropped
    # again when a file header or a binary line follows
    bare: Optional[FilePatch] = None

    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        i += 1  # `line` is line i, counted from 1
        binary = RE_BINARY.match(line)
        if files and files[-1] is bare and (binary is not None or line.startswith("+++ ")):
            files.pop()

        if line.startswith("diff --git "):
            # `a/<path> b/<path>`, each half quoted or neither: with renames
            # off both halves name one path
            rest = line[len("diff --git "):]
            half = (len(rest) - 1) // 2
            path = _clean_path(rest[:half])
            same = rest[half:half + 1] == " " and _clean_path(rest[half + 1:]) == path
            bare = FilePatch(path) if same else None
        elif bare is not None and line.startswith(("new file mode", "deleted file mode")):
            bare.mode_change = MODE_CREATED if line.startswith("new") else MODE_DELETED
            files.append(bare)
        elif binary is not None:
            old, new = _clean_path(binary.group("old")), _clean_path(binary.group("new"))
            files.append(_file_patch(old, new, is_binary=True))
            current = pending_old = None
        elif line.startswith("--- "):
            pending_old = _clean_path(line[4:])
            current = None
        elif line.startswith("+++ "):
            if pending_old is None:
                raise MalformedHeader(f"'+++' without preceding '---' at line {i}")
            current = _file_patch(pending_old, _clean_path(line[4:]), is_binary=False)
            files.append(current)
            pending_old = None
        elif line.startswith("@@"):
            m = RE_HUNK.match(line)
            if m is None:
                raise MalformedHeader(f"bad hunk header at line {i}: {line!r}")
            if current is None:
                raise MalformedHeader(f"hunk without file header at line {i}")
            hunk = Hunk(
                old_start=int(m.group("o_start")),
                old_len=int(m.group("o_len")) if m.group("o_len") is not None else 1,
                new_start=int(m.group("n_start")),
                new_len=int(m.group("n_len")) if m.group("n_len") is not None else 1,
            )
            got_old = got_new = 0
            # the body runs to the declared counts, and on over a
            # no-newline marker, which belongs to the line before it
            while (marker := i < n and lines[i] == NO_NEWLINE_MARKER) or (
                got_old < hunk.old_len or got_new < hunk.new_len
            ):
                if i >= n:
                    raise TruncatedHunk(
                        f"input ends inside hunk starting at old line {hunk.old_start}"
                    )
                body = lines[i]
                i += 1
                if marker:
                    if not hunk.lines:
                        raise MalformedHeader("no-newline marker before any hunk line")
                    last = hunk.lines[-1]
                    hunk.lines[-1] = HunkLine(last.kind, last.text, newline=False)
                    continue
                # git writes a blank context line as an empty line, without
                # its space, when diff.suppressBlankEmpty is set
                sigil, text = (body[0], body[1:]) if body else (" ", "")
                kind = _SIGIL_TO_KIND.get(sigil)
                if kind is None:
                    raise TruncatedHunk(
                        f"unexpected line inside hunk at line {i}: {body!r}"
                    )
                hunk.lines.append(HunkLine(kind, text))
                if kind in OLD_SIDE:
                    got_old += 1
                if kind in NEW_SIDE:
                    got_new += 1
            # body lines past the declared counts mean the header lied
            if i < n:
                extra = lines[i]
                looks_like_body = extra.startswith("+") or (
                    extra.startswith("-") and not extra.startswith("--- ")
                ) or (extra.startswith(" ") and not extra.strip() == "")
                if looks_like_body:
                    raise HunkCountMismatch(
                        f"hunk body continues past declared counts at line {i + 1}"
                    )
            # the body ends once both sides reach their counts, so a side
            # can only run long, by a line the other side still needed
            if got_old != hunk.old_len:
                raise HunkCountMismatch(
                    f"hunk declares {hunk.old_len} old lines, body has {got_old}"
                )
            if got_new != hunk.new_len:
                raise HunkCountMismatch(
                    f"hunk declares {hunk.new_len} new lines, body has {got_new}"
                )
            current.hunks.append(hunk)
        # any other line is git decoration (index, mode, rename, similarity)
        # or prose between file sections (mail headers, commit messages):
        # neither carries hunk content, and inside a file section the hunk
        # loop above has consumed every body line

    for fp in files:
        prev_end = 0
        for h in fp.hunks:
            # insertion hunks (old_len == 0) sit between lines; treat their
            # occupied old span as empty at position old_start
            begin = h.old_start if h.old_len else h.old_start + 1
            if begin < prev_end:
                raise MalformedHeader(
                    f"hunks overlap or are out of order near line {h.old_start}"
                )
            prev_end = h.old_start + h.old_len
    return SourcePatch(files=files)


def _fmt_range(start: int, length: int) -> str:
    return f"{start}" if length == 1 else f"{start},{length}"


def _header_name(path: str) -> str:
    """A `---`/`+++` name as git writes it: quoted, and followed by a tab
    when the name holds a space, so that a trailing space survives."""
    return _quote(path) + ("\t" if " " in path else "")


def render_unified_diff(patch: SourcePatch) -> str:
    """Serialize back to the wire format (no git decoration lines), with
    paths quoted as git quotes them."""
    out: List[str] = []
    for fp in patch.files:
        old = DEV_NULL if fp.mode_change == MODE_CREATED else f"a/{fp.path}"
        new = DEV_NULL if fp.mode_change == MODE_DELETED else f"b/{fp.path}"
        if fp.is_binary:
            out.append(f"Binary files {_quote(old)} and {_quote(new)} differ")
            continue
        out.append(f"--- {_header_name(old)}")
        out.append(f"+++ {_header_name(new)}")
        for h in fp.hunks:
            out.append(
                f"@@ -{_fmt_range(h.old_start, h.old_len)} "
                f"+{_fmt_range(h.new_start, h.new_len)} @@"
            )
            for ln in h.lines:
                out.append(ln.sigil() + ln.text)
                if not ln.newline:
                    out.append(NO_NEWLINE_MARKER)
    if not out:
        return ""
    return "\n".join(out) + "\n"
