"""Binary snapshot files for complex fields on uniform periodic grids.

Layout: one ASCII header line

    GPR1 <ndims> <n_1> ... <n_ndims> <dx_1> ... <dx_ndims> <time>\n

followed by little-endian float64 pairs (re, im) in C order.  The format is
deliberately dumb: self-describing, endian-pinned, diffable with xxd.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InterfaceError

MAGIC = "GPR1"

__all__ = ["Snapshot", "write_snapshot", "read_snapshot"]


@dataclass(frozen=True, eq=False)
class Snapshot:
    dims: tuple
    spacings: tuple
    time: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.spacings):
            raise InterfaceError("dims and spacings must have equal length")
        if self.values.shape != self.dims:
            raise InterfaceError("values shape does not match dims")


def _check_header(dims: tuple, spacings: tuple, time: float) -> None:
    if (any(n < 1 for n in dims) or not math.isfinite(time)
            or not all(0.0 < s < math.inf for s in spacings)):
        raise InterfaceError(f"snapshot header needs dims >= 1, finite positive "
                             f"spacings and a finite time: dims {dims}, "
                             f"spacings {spacings}, time {time}")


def write_snapshot(path: str | Path, values: np.ndarray, spacings,
                   time: float) -> None:
    """Write `values` at its spacings and time, refused as read_snapshot would."""
    arr = np.ascontiguousarray(values, dtype="<c16")    # (re, im) pairs
    spc = tuple(float(s) for s in spacings)
    if len(spc) != arr.ndim:
        raise InterfaceError("one spacing per array dimension required")
    _check_header(arr.shape, spc, float(time))
    header = " ".join([MAGIC, str(arr.ndim)]
                      + [str(n) for n in arr.shape]
                      + [repr(s) for s in spc] + [repr(float(time))])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(arr.tobytes())


def read_snapshot(path: str | Path) -> Snapshot:
    """A snapshot file, outside input: InterfaceError unless its header has
    dims >= 1, finite positive spacings and a finite time and claims exactly
    the bytes left in the file, which is checked before any is read."""
    with open(path, "rb") as fh:
        header = _read_header_line(fh)
        parts = header.split()
        if not parts or parts[0] != MAGIC:
            raise InterfaceError(f"not a {MAGIC} snapshot: {path}")
        try:
            ndims = int(parts[1])
            dims = tuple(int(p) for p in parts[2:2 + ndims])
            spacings = tuple(float(p) for p in parts[2 + ndims:2 + 2 * ndims])
            time = float(parts[2 + 2 * ndims])
        except (IndexError, ValueError) as exc:
            raise InterfaceError(f"malformed snapshot header: {header!r}") from exc
        if len(parts) != 3 + 2 * ndims:
            raise InterfaceError(f"malformed snapshot header: {header!r}")
        _check_header(dims, spacings, time)
        size = 16 * math.prod(dims)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != size:
            raise InterfaceError(f"truncated or overlong snapshot payload in "
                                 f"{path}: {left} bytes for {size}")
        raw = fh.read(size)
        # read as complex pairs, bit for bit: forming re + 1j * im would turn
        # (x, inf) into (nan, inf) and drop the sign of -0.0
        values = np.frombuffer(raw, dtype="<c16").astype(complex).reshape(dims)
    return Snapshot(dims=dims, spacings=spacings, time=time, values=values)


def _read_header_line(fh: io.BufferedReader) -> str:
    line = fh.readline(4097)
    if not line.endswith(b"\n"):
        if len(line) > 4096:
            raise InterfaceError("snapshot header line too long")
        raise InterfaceError("snapshot file ended before header newline")
    return line[:-1].decode("ascii", errors="replace")
