"""Binary snapshot files for complex fields on uniform periodic grids.

Layout: one ASCII header line

    GPR1 <ndims> <n_1> ... <n_ndims> <dx_1> ... <dx_ndims> <time>\n

followed by little-endian float64 pairs (re, im) in C order.  The format is
deliberately dumb: self-describing, endian-pinned, diffable with xxd.
"""

from __future__ import annotations

import io
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


def write_snapshot(path: str | Path, values: np.ndarray, spacings,
                   time: float) -> None:
    arr = np.ascontiguousarray(values, dtype=complex)
    spc = tuple(float(s) for s in spacings)
    if len(spc) != arr.ndim:
        raise InterfaceError("one spacing per array dimension required")
    header = " ".join([MAGIC, str(arr.ndim)]
                      + [str(n) for n in arr.shape]
                      + [repr(s) for s in spc] + [repr(float(time))])
    interleaved = np.empty(arr.size * 2, dtype="<f8")
    interleaved[0::2] = arr.real.ravel()
    interleaved[1::2] = arr.imag.ravel()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(interleaved.tobytes())


def read_snapshot(path: str | Path) -> Snapshot:
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
        size = 1
        for n in dims:
            size *= n
        raw = fh.read(size * 16)
        if len(raw) != size * 16:
            raise InterfaceError(f"truncated snapshot payload in {path}")
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
