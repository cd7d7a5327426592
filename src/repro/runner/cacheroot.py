"""One cache-root convention for every on-disk cache in the package.

Several subsystems persist derived artifacts across processes: the
campaign :class:`~repro.runner.store.ResultStore`, and the campaign
service's job journal and simulation checkpoints (:mod:`repro.service`).
All resolve their directory here, under a single ``REPRO_CACHE_DIR``
environment variable, so one setting warms every cache::

    REPRO_CACHE_DIR=~/.cache/repro  →  results/  jobs/  checkpoints/

When the variable is unset, resolution returns ``None`` and the caller
stays memory-only.  Every writer goes through :func:`atomic_write`.  See
``docs/PERF.md`` for the operational guidance.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

__all__ = [
    "REPRO_CACHE_DIR_ENV",
    "atomic_write",
    "cache_root",
    "resolve_cache_dir",
]

#: The shared cache-root environment variable.
REPRO_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def cache_root() -> Optional[str]:
    """The shared cache root from ``REPRO_CACHE_DIR``, or ``None``.

    The value is expanded (``~`` and environment references) but not
    created; callers create their subdirectory on first write.
    """
    root = os.environ.get(REPRO_CACHE_DIR_ENV)
    if not root:
        return None
    return os.path.expanduser(os.path.expandvars(root))


def resolve_cache_dir(subdir: str) -> Optional[str]:
    """Resolve one subsystem's cache directory: the shared root's
    ``subdir``, or ``None`` when ``REPRO_CACHE_DIR`` is unset (callers
    treat that as "memory-only, no persistence")."""
    root = cache_root()
    if root is None:
        return None
    return os.path.join(root, subdir)


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` so readers see the old file or the
    new one, never a torn write.

    Creates the parent directory, writes a temp file unique to this
    call in that directory, then ``os.replace``-s it over ``path``; on
    any failure the temp file is removed and the error propagates.  No
    fsync: a crash of the whole machine may still lose the write.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
