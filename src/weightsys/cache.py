"""Disk cache for computed quotient bases.

Files are versioned JSON written atomically (write to a temp file in the
same directory, then rename), with byte-deterministic encoding so repeated
saves of the same basis are identical. A version or convention mismatch
makes ``load_basis`` return None, so stale caches are silently recomputed
and overwritten rather than trusted.
"""

from __future__ import annotations

import json
import os
import tempfile

FORMAT = "weightsys-basis"
VERSION = 1
# Bump whenever canonical labels, enumeration order, or the form of the
# generated relations change: any of these invalidates stored bases.
CONVENTIONS_VERSION = 1

__all__ = ["CONVENTIONS_VERSION", "default_cache_dir", "basis_filename",
           "load_basis", "save_basis"]


def default_cache_dir() -> str:
    """Resolution order: WEIGHTSYS_CACHE, then XDG_CACHE_HOME/weightsys,
    then ~/.cache/weightsys."""
    env = os.environ.get("WEIGHTSYS_CACHE")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "weightsys")


def basis_filename(key) -> str:
    if key[0] == "B":
        return f"basis_B_v{key[1]}_l{key[2]}.json"
    return f"basis_A_total{key[1]}.json"


def load_basis(dirpath: str, key):
    """The stored payload for ``key``, or None if absent, unreadable (nested
    past the recursion limit included), or written under different
    conventions."""
    path = os.path.join(dirpath, basis_filename(key))
    try:
        with open(path, "rb") as fh:
            payload = json.loads(fh.read().decode())
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(payload, dict):
        return None
    if (payload.get("format") != FORMAT or payload.get("version") != VERSION
            or payload.get("conventions") != CONVENTIONS_VERSION):
        return None
    return payload


def save_basis(dirpath: str, key, payload: dict) -> str:
    payload = dict(payload)
    payload["format"] = FORMAT
    payload["version"] = VERSION
    payload["conventions"] = CONVENTIONS_VERSION
    os.makedirs(dirpath, exist_ok=True)
    path = os.path.join(dirpath, basis_filename(key))
    fd, tmp = tempfile.mkstemp(dir=dirpath, prefix=".tmp-basis-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write((json.dumps(payload, sort_keys=True, separators=(",", ":"))
                      + "\n").encode())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
