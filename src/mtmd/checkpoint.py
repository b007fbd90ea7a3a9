"""Binary checkpoint container with bitwise-exact tensor round trips.

Layout (all integers little-endian):
  magic ``MTMD`` | u32 format version | u32 metadata length | metadata JSON
  (config echo + metric snapshot, sorted keys) | u32 tensor count | per
  tensor: u32 name length, UTF-8 name, u32 rank, u64 dims, float64 LE
  payload in row-major order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MAGIC = b"MTMD"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    meta = json.dumps({"config": ckpt.config, "metrics": ckpt.metrics},
                      sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", ckpt.version))
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<I", len(ckpt.tensors)))
        for name in sorted(ckpt.tensors):
            arr = np.ascontiguousarray(ckpt.tensors[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a file that is truncated or does not follow the
    layout raises :class:`DataError`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    offset = 4

    def take_bytes(size: int) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise DataError(f"{path}: truncated checkpoint")
        offset += size
        return blob[offset - size:offset]

    def take(fmt: str):
        return struct.unpack(fmt, take_bytes(struct.calcsize(fmt)))

    def take_text(size: int) -> str:
        try:
            return take_bytes(size).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: corrupt checkpoint text at byte {offset - size}: {exc}") from None

    (version,) = take("<I")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = take("<I")
    try:
        meta = json.loads(take_text(meta_len))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: corrupt checkpoint metadata: {exc}") from None
    if not (isinstance(meta, dict) and isinstance(meta.get("config"), dict)
            and isinstance(meta.get("metrics"), dict)):
        raise DataError(f"{path}: checkpoint metadata lacks its config and metrics objects")
    (count,) = take("<I")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = take("<I")
        name = take_text(name_len)
        (rank,) = take("<I")
        dims = take(f"<{rank}Q") if rank else ()
        n_elems = 1
        for d in dims:
            n_elems *= d
        payload = take_bytes(n_elems * 8)
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
    return Checkpoint(tensors=tensors, config=meta["config"], metrics=meta["metrics"],
                      version=version)
