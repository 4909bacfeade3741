"""Classify breaking commits into the six-way taxonomy.

Categories, by what the commit did to the code the port needs:
  C1  identifier renamed consistently, structure kept
  C2  declaration or expression types changed, identifiers kept
  C3  functionality the PoC depends on removed (tool, option, target)
  C4  input validation added in front of the vulnerable code
  C5  existing error handling tightened or rerouted
  C6  code moved or restructured without behavioral intent (residual)

Heuristics inspect the commit's own diff only.  Checks run in fixed
precedence (C3, C1, C2, C6, C5, C4) and the first hit wins; C6 doubles
as the residual bucket when nothing else matches.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .patchcore import ADD, CONTEXT, REMOVE, SourcePatch
from .patchcore.model import MODE_DELETED
from .gitio import CommitMemo, commit_diff

CATEGORIES = ("C1", "C2", "C3", "C4", "C5", "C6")

DESCRIPTIONS = {
    "C1": "identifier renamed",
    "C2": "type changed",
    "C3": "functionality removed",
    "C4": "input validation added",
    "C5": "error handling changed",
    "C6": "code restructured",
}

_C_KEYWORDS = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "NULL",
}

_TYPE_TOKENS = {
    "void", "char", "short", "int", "long", "float", "double", "signed",
    "unsigned", "const", "struct", "union", "enum", "size_t", "ssize_t",
    "intptr_t", "uintptr_t", "ptrdiff_t", "bool", "_Bool",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
}

_INPUT_HINTS = (
    "size", "len", "count", "offset", "bound", "limit", "cap", "width",
    "height", "depth", "avail", "remain", "total", "eof", "declared", "nmemb",
)

RE_WORD = re.compile(r"[A-Za-z_]\w*")
RE_NEW_CONDITIONAL = re.compile(r"^\s*(?:\}\s*)?(?:if|while|for|switch)\s*\(")
RE_ERROR_FLOW = re.compile(
    r"^\s*(?:return\b|goto\b|exit\s*\(|abort\s*\(|break\s*;|continue\s*;"
    r"|fprintf\s*\(\s*stderr|perror\s*\(|[{}]\s*$)"
)
RE_ERROR_REPORTING = re.compile(r"fprintf\s*\(\s*stderr|perror\s*\(|\bexit\s*\(")
RE_OPTION_HANDLING = re.compile(
    r"""strcmp\s*\(\s*argv|getopt|\bargv\s*\[|case\s+'-'|["']-[A-Za-z0-9]["']"""
)
RE_ERROR_ACTION = re.compile(r"\breturn\b|\bgoto\b|\bexit\s*\(|fprintf|perror")


@dataclass(frozen=True)
class CategoryCall:
    category: str
    rationale: str

    def to_dict(self) -> dict:
        return {"category": self.category, "rationale": self.rationale}


@dataclass
class _Change:
    removed: List[str]
    added: List[str]
    context: List[str]


def _collect_changes(patch: SourcePatch) -> List[_Change]:
    """One _Change per contiguous run of -/+ lines, with hunk context."""
    changes: List[_Change] = []
    for fp in patch.files:
        for hunk in fp.hunks:
            ctx = [ln.text for ln in hunk.lines if ln.kind == CONTEXT]
            removed: List[str] = []
            added: List[str] = []
            in_run = False
            for ln in hunk.lines:
                if ln.kind == CONTEXT:
                    if in_run:
                        changes.append(_Change(removed, added, ctx))
                        removed, added, in_run = [], [], False
                    continue
                in_run = True
                if ln.kind == REMOVE:
                    removed.append(ln.text)
                else:
                    added.append(ln.text)
            if in_run:
                changes.append(_Change(removed, added, ctx))
    return changes


def _identifiers(line: str) -> List[str]:
    return [w for w in RE_WORD.findall(line) if w not in _C_KEYWORDS]


def _paired_lines(changes: List[_Change]) -> Optional[List[Tuple[str, str]]]:
    """Old/new line pairs when every change run swaps equal line counts."""
    pairs: List[Tuple[str, str]] = []
    for ch in changes:
        if len(ch.removed) != len(ch.added):
            return None
        pairs.extend(zip(ch.removed, ch.added))
    return pairs if pairs else None


# ---------- individual checks, in precedence order ----------


def _check_functionality_removed(patch: SourcePatch, changes) -> Optional[str]:
    for fp in patch.files:
        if fp.mode_change == MODE_DELETED:
            return f"deletes {fp.path} outright"
    removed_text = "\n".join(ln for ch in changes for ln in ch.removed)
    n_removed = sum(len(ch.removed) for ch in changes)
    n_added = sum(len(ch.added) for ch in changes)
    if n_removed > n_added and RE_OPTION_HANDLING.search(removed_text):
        return "removes command line option handling"
    return None


def _check_rename(changes) -> Optional[str]:
    pairs = _paired_lines(changes)
    if pairs is None or len(pairs) < 2:
        return None
    mapping: Optional[Tuple[str, str]] = None
    for old, new in pairs:
        old_ids = _identifiers(old)
        new_ids = _identifiers(new)
        if len(old_ids) != len(new_ids):
            return None
        diffs = {(a, b) for a, b in zip(old_ids, new_ids) if a != b}
        if len(diffs) != 1:
            return None
        pair = diffs.pop()
        if mapping is None:
            mapping = pair
        elif mapping != pair:
            return None
        # only the rename may distinguish the two lines
        if re.sub(rf"\b{re.escape(pair[0])}\b", pair[1], old) != new:
            return None
    if mapping is None:
        return None
    return f"renames {mapping[0]} to {mapping[1]} across {len(pairs)} lines"


def _check_type_change(changes) -> Optional[str]:
    pairs = _paired_lines(changes)
    if pairs is None:
        return None
    touched: set = set()
    for old, new in pairs:
        old_words = RE_WORD.findall(old)
        new_words = RE_WORD.findall(new)
        old_ids = [w for w in old_words if w not in _TYPE_TOKENS]
        new_ids = [w for w in new_words if w not in _TYPE_TOKENS]
        if old_ids != new_ids:
            return None
        changed = set(old_words).symmetric_difference(new_words)
        if not changed:
            return None
        if not changed <= _TYPE_TOKENS:
            return None
        touched |= changed
    return "changes declared types (" + ", ".join(sorted(touched)) + ")"


def _check_moved_code(changes) -> Optional[str]:
    removed = [
        ln.strip() for ch in changes for ln in ch.removed if ln.strip() not in ("", "{", "}")
    ]
    added = {
        ln.strip() for ch in changes for ln in ch.added if ln.strip() not in ("", "{", "}")
    }
    if len(removed) < 2:
        return None
    moved = sum(1 for ln in removed if ln in added)
    if moved >= 2 and moved / len(removed) >= 0.6:
        return f"moves {moved} of {len(removed)} removed lines verbatim"
    return None


def _check_error_handling(changes) -> Optional[str]:
    added = [ln for ch in changes for ln in ch.added]
    if not added:
        return None
    if any(RE_NEW_CONDITIONAL.match(ln) for ln in added):
        return None
    if not all(RE_ERROR_FLOW.match(ln) for ln in added if ln.strip()):
        return None
    near_error = any(
        RE_ERROR_REPORTING.search(ln)
        for ch in changes
        for ln in ch.removed + ch.context
    )
    if not near_error:
        return None
    return "reroutes existing error handling"


def _check_input_validation(changes) -> Optional[str]:
    for ch in changes:
        block = "\n".join(ch.added)
        for ln in ch.added:
            if not RE_NEW_CONDITIONAL.match(ln):
                continue
            words = [w.lower() for w in RE_WORD.findall(ln)]
            if not any(h in w for w in words for h in _INPUT_HINTS):
                continue
            if RE_ERROR_ACTION.search(block):
                return f"adds a guard on {ln.strip()!r}"
    return None


_CHECKS = (
    ("C3", lambda patch, changes: _check_functionality_removed(patch, changes)),
    ("C1", lambda patch, changes: _check_rename(changes)),
    ("C2", lambda patch, changes: _check_type_change(changes)),
    ("C6", lambda patch, changes: _check_moved_code(changes)),
    ("C5", lambda patch, changes: _check_error_handling(changes)),
    ("C4", lambda patch, changes: _check_input_validation(changes)),
)


def categorize_patch(patch: SourcePatch) -> CategoryCall:
    changes = _collect_changes(patch)
    for category, check in _CHECKS:
        rationale = check(patch, changes)
        if rationale is not None:
            return CategoryCall(category, rationale)
    return CategoryCall("C6", "structural change (residual)")


def categorize_commit(
    repo, commit_id: str, commits: Optional[CommitMemo] = None
) -> CategoryCall:
    """The category of the commit's diff; `commits` is the caller's memo
    of the repository, if it keeps one."""
    patch = commit_diff(repo, commit_id) if commits is None else commits.diff(commit_id)
    return categorize_patch(patch)


def apply_overrides(
    calls: Dict[str, CategoryCall], overrides: Dict[str, str]
) -> Dict[str, CategoryCall]:
    """Replace per-commit calls with curated labels where provided."""
    out = dict(calls)
    for commit, category in overrides.items():
        if category not in CATEGORIES:
            raise ValueError(f"unknown category {category!r} for {commit}")
        out[commit] = CategoryCall(category, "curated override")
    return out


def tally(rows: Iterable[dict]) -> Dict[str, int]:
    """Category counts over ledger rows, one vote per (project, commit).

    A commit that breaks several ports is still a single data point.
    """
    seen = {}
    for row in rows:
        key = (row["project"], row["commit"])
        cat = row["category"]
        if cat not in CATEGORIES:
            raise ValueError(f"unknown category {cat!r} in ledger")
        prior = seen.get(key)
        if prior is not None and prior != cat:
            raise ValueError(f"conflicting categories for {key}: {prior} vs {cat}")
        seen[key] = cat
    counts = Counter(seen.values())
    return {c: counts.get(c, 0) for c in CATEGORIES}
