"""Re-expression of one patch as the file patches `apply_patch` applies,
at a granularity.

At PatchHunks they are the patch's own file patches.  At WholeFiles each
file's patch is applied strictly to the file's text first, and the part
replaces the file in one hunk.  Splitting judges no patch: a binary
patch, or one on an absent file, is left whole for `apply_patch` to
refuse.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .applier import apply_file_patch
from .diffgen import whole_file_patch
from .model import MODE_CREATED, FilePatch, Granularity, SourcePatch


def split_by_granularity(
    patch: SourcePatch,
    granularity: Granularity,
    read: Callable[[str], Optional[str]],
) -> List[FilePatch]:
    """The file patches of `patch` at `granularity`, in the order they
    apply.

    WholeFiles needs the pre-patch texts, which `read(path)` returns as
    `apply_patch` reads them: None when the file is absent.  An absent or
    binary file is left whole, for the applier to report; a file that
    does not apply strictly raises HunkRejected.
    """
    if granularity is Granularity.PatchHunks:
        return list(patch.files)
    out = []
    for fp in patch.files:
        old = None if fp.is_binary else "" if fp.mode_change == MODE_CREATED else read(fp.path)
        if old is None:
            out.append(fp)
        else:
            new, _ = apply_file_patch(old, fp, search_window=0)
            out.append(whole_file_patch(old, new, fp.path, fp.mode_change))
    return out
