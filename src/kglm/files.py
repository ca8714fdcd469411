"""Crash-safe writes for the artifacts a later stage reads."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``<path>.tmp`` for writing; on a clean exit it replaces
    ``path`` in one ``os.replace``, and on an exception it is deleted,
    so ``path`` holds either its old bytes or all the new ones. A killed
    process can leave ``<path>.tmp`` behind; the next write replaces it.
    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``."""
    tmp = f"{path}.tmp"
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
