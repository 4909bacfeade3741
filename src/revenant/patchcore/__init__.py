"""Patch algebra: parse, render, invert, apply with fuzz, split.

The package exports what the rest of revenant loads through it; every
other name is imported from its submodule."""

from .model import (
    CONTEXT,
    REMOVE,
    FilePatch,
    Granularity,
    PatchError,
    SourcePatch,
    invert,
)
from .applier import (
    CONFLICT_EXISTS,
    CONFLICT_MISSING,
    MAX_FUZZ,
    PatchConflict,
    apply_patch,
)
from .diffgen import CONTEXT_LINES, diff_trees
from .split import split_by_granularity
from .unidiff import parse_unified_diff, render_unified_diff

__all__ = [
    "CONTEXT",
    "REMOVE",
    "CONFLICT_EXISTS",
    "CONFLICT_MISSING",
    "CONTEXT_LINES",
    "FilePatch",
    "Granularity",
    "MAX_FUZZ",
    "PatchConflict",
    "PatchError",
    "SourcePatch",
    "apply_patch",
    "diff_trees",
    "invert",
    "parse_unified_diff",
    "render_unified_diff",
    "split_by_granularity",
]
