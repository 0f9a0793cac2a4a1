"""Output files: each one is written as a new file where that is safe.

Truncating an existing file and writing it again makes ext4 (XFS and btrfs
do the like) flush the new data when the file is closed: ext4's
``auto_da_alloc`` replace-via-truncate heuristic.  That costs tens of
milliseconds per output, while writing a path that does not exist yet
costs none of it.  So an ordinary old output is removed before its
replacement is created, as GNU ld's ``unlink_if_ordinary`` does.  A rename
over the old file sets off the same flush, so no temporary file is used.
"""

from __future__ import annotations

import os
import stat

_NEW_FILE_MODE = 0o666  # what open() asks for; the umask narrows it


def _unlink_if_ordinary(path) -> int:
    """Remove ``path`` if a new file can stand in for it; return that file's mode.

    Only a regular file with one link, owned by the caller and writable by
    it, is removed, and its permission bits carry over.  A missing path, a
    symlink, a hard-linked file, a device, FIFO or other special file, a
    file the caller may not write or does not own, and a failed removal
    are all left for ``open`` to write in place or to refuse.
    """
    try:
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                and st.st_uid == os.geteuid() and os.access(path, os.W_OK)):
            os.unlink(path)
            return st.st_mode & 0o777
    except OSError:
        pass
    return _NEW_FILE_MODE


def open_output(path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing, replacing an ordinary old file.

    The bytes written are the same either way; a replaced file keeps its
    permission bits, narrowed by the umask.
    """
    perm = _unlink_if_ordinary(path)
    return open(path, mode, opener=lambda name, flags: os.open(name, flags, perm), **kwargs)
