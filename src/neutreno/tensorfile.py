"""Binary tensor container with a bit-exact round trip.

Layout (all integers little-endian):

    bytes 0..7    magic ``NTRNTNSR``
    bytes 8..11   u32 version (currently 1)
    bytes 12..15  u32 rank
    then          u64 dims[rank]
    then          row-major IEEE-754 little-endian float64 payload
                  (8 * prod(dims) bytes)

Write-then-read reproduces the array bit for bit on any platform.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "TensorFileError",
    "save_tensor",
    "load_tensor",
]

MAGIC = b"NTRNTNSR"
VERSION = 1


class TensorFileError(ValueError):
    """A malformed tensor file; the message names the defect."""


def save_tensor(path, array) -> None:
    """Write ``array`` (any rank) to ``path`` in the container format."""
    a = np.ascontiguousarray(array, dtype=np.float64)
    header = MAGIC + struct.pack("<II", VERSION, a.ndim)
    header += struct.pack(f"<{a.ndim}Q", *a.shape) if a.ndim else b""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(a.astype("<f8", copy=False).tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a tensor written by ``save_tensor``, validating the header.

    Raises ``TensorFileError`` naming the defect: a bad magic, an
    unsupported version, a truncated header or payload, or trailing data.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8:
        raise TensorFileError(
            f"file is {len(blob)} bytes, shorter than the fixed header"
        )
    if blob[: len(MAGIC)] != MAGIC:
        raise TensorFileError(
            f"bad magic {blob[:len(MAGIC)]!r}, expected {MAGIC!r}"
        )
    version, rank = struct.unpack_from("<II", blob, len(MAGIC))
    if version != VERSION:
        raise TensorFileError(f"unsupported version {version}, expected {VERSION}")
    offset = len(MAGIC) + 8
    dims_bytes = 8 * rank
    if len(blob) < offset + dims_bytes:
        raise TensorFileError("file ends inside the dimension list")
    dims = struct.unpack_from(f"<{rank}Q", blob, offset) if rank else ()
    offset += dims_bytes
    count = 1
    for d in dims:
        count *= d
    expected = 8 * count
    payload = blob[offset:]
    if len(payload) < expected:
        raise TensorFileError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for dims {tuple(dims)}"
        )
    if len(payload) > expected:
        raise TensorFileError(
            f"{len(payload) - expected} bytes of trailing data after payload"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    return flat.astype(np.float64).reshape(dims)
