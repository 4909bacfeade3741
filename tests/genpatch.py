"""Helpers shared by the patch tests: a randomized (file, edit) pair
generator, and `DictTree`, a tree of files held in a dict.

Edits are built independently of the patch code under test: we mutate a
line list directly and only then ask diff_texts for a patch, so round-trip
failures cannot be self-consistent bugs.
"""

from __future__ import annotations

import random
from typing import Tuple

WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
]


def gen_file(rng: random.Random, max_lines: int = 240, unique: bool = False) -> str:
    n = rng.randint(0, max_lines)
    lines = []
    for i in range(n):
        word = rng.choice(WORDS)
        if unique:
            lines.append(f"{word} {i:04d} {rng.randint(0, 999999):06d}")
        else:
            lines.append(f"{word} {rng.randint(0, 9)}")
    text = "\n".join(lines)
    if lines:
        text += "\n" if rng.random() < 0.9 else ""
    return text


def gen_edit(rng: random.Random, text: str, max_edits: int = 6) -> str:
    """Apply random line edits to `text` and return the new content."""
    lines = text.split("\n")
    final_nl = False
    if lines and lines[-1] == "":
        lines.pop()
        final_nl = True

    n_edits = rng.randint(1, max_edits)
    for _ in range(n_edits):
        op = rng.choice(("insert", "delete", "replace"))
        if not lines:
            op = "insert"
        if op == "insert":
            at = rng.randint(0, len(lines))
            count = rng.randint(1, 4)
            lines[at:at] = [
                f"new {rng.choice(WORDS)} {rng.randint(0, 999999):06d}"
                for _ in range(count)
            ]
        elif op == "delete":
            at = rng.randrange(len(lines))
            count = min(rng.randint(1, 4), len(lines) - at)
            del lines[at : at + count]
        else:
            at = rng.randrange(len(lines))
            count = min(rng.randint(1, 3), len(lines) - at)
            lines[at : at + count] = [
                f"edit {rng.choice(WORDS)} {rng.randint(0, 999999):06d}"
                for _ in range(rng.randint(1, 3))
            ]

    if not lines:
        return ""
    out = "\n".join(lines)
    # occasionally flip the trailing-newline property as part of the edit
    if rng.random() < 0.08:
        final_nl = not final_nl
    return out + ("\n" if final_nl else "")


def gen_pair(rng: random.Random, unique: bool = False) -> Tuple[str, str]:
    old = gen_file(rng, unique=unique)
    new = gen_edit(rng, old)
    return old, new


class DictTree:
    """Files held in a dict, with the calls `apply_patch` makes and a
    list of the paths it read."""

    def __init__(self, files):
        self.files = dict(files)
        self.reads = []

    def exists(self, path):
        return path in self.files

    def read(self, path):
        self.reads.append(path)
        return self.files[path]

    def write(self, path, text):
        self.files[path] = text

    def delete(self, path):
        del self.files[path]
