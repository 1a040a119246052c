"""Binary format for capturing the final state of a run.

A file holds one state (grid, time, n and c) and nothing of the run that
produced it, so it cannot restart a run.

Layout (little-endian throughout):

    magic   5 bytes  b"KSLB1"
    d       u32
    n_axis  u32
    box_len f64
    t       f64
    n       n_axis^d f64 samples, row-major
    c       n_axis^d f64 samples, row-major

Every artifact file is written through ``atomic_open``: a temporary sibling
renamed over the target once it is complete.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .fields import ScalarField, make_grid
from .solver import State

__all__ = [
    "MAGIC",
    "atomic_open",
    "save_checkpoint",
    "load_checkpoint",
    "state_to_bytes",
    "state_from_bytes",
]

MAGIC = b"KSLB1"
_HEADER = struct.Struct("<IIdd")


def state_to_bytes(state: State) -> bytes:
    """``state`` in the KSLB1 layout above, with each sample copied once."""
    grid = state.grid
    header = MAGIC + _HEADER.pack(grid.d, grid.n_axis, grid.box_len, state.t)
    samples = (np.ascontiguousarray(f.values, dtype="<f8").data for f in (state.n, state.c))
    return b"".join((header, *samples))


def state_from_bytes(blob: bytes) -> State:
    """The state a KSLB1 blob holds; every value of it must be finite."""
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("not a checkpoint: bad magic bytes")
    offset = len(MAGIC) + _HEADER.size
    if len(blob) < offset:
        raise ValueError(
            f"checkpoint truncated or padded: expected at least {offset} bytes, got {len(blob)}"
        )
    d, n_axis, box_len, t = _HEADER.unpack_from(blob, len(MAGIC))
    grid = make_grid(d, n_axis, box_len)
    count = grid.npoints
    expected = offset + 2 * count * 8
    if len(blob) != expected:
        raise ValueError(
            f"checkpoint truncated or padded: expected {expected} bytes, got {len(blob)}"
        )
    n_vals = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    c_vals = np.frombuffer(blob, dtype="<f8", count=count, offset=offset + count * 8)
    if not (math.isfinite(t) and np.isfinite(n_vals).all() and np.isfinite(c_vals).all()):
        raise ValueError("checkpoint holds a non-finite time or value")
    return State(
        t=t,
        n=ScalarField(grid, n_vals.reshape(grid.shape).copy()),
        c=ScalarField(grid, c_vals.reshape(grid.shape).copy()),
    )


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Write through a temporary sibling of ``path``, renamed over it on success.

    If the body raises, the temporary file is removed and ``path`` is left as
    it was, so a reader never sees a partial artifact.  Text mode writes
    ``\n`` line ends untranslated.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path: str | Path, state: State) -> None:
    """Write ``state`` to ``path`` atomically, in the KSLB1 layout."""
    with atomic_open(path, "wb") as fh:
        fh.write(state_to_bytes(state))


def load_checkpoint(path: str | Path) -> State:
    """The state of the KSLB1 file at ``path``."""
    return state_from_bytes(Path(path).read_bytes())
