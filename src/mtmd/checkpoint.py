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

from .autodiff import LEAKY_SLOPE
from .errors import DataError

MAGIC = b"MTMD"
FORMAT_VERSION = 3


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray]
    config: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    meta = json.dumps({"config": ckpt.config, "metrics": ckpt.metrics},
                      sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
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
    """Read a checkpoint of this or an earlier format version; a file that
    is truncated or does not follow the layout raises :class:`DataError`."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror}") from None
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
    if not 1 <= version <= FORMAT_VERSION:
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
    _drop_retired_keys(path, version, meta["config"])
    return Checkpoint(tensors=tensors, config=meta["config"], metrics=meta["metrics"])


def _drop_retired_keys(path: str, version: int, config: dict) -> None:
    """Remove the config keys that later code retired.

    ``momentum`` and version 1's ``reset_banks_each_epoch`` only ever
    affected training, so they go whatever their value.  ``leaky_slope``
    (formats 1 and 2) and ``eval_writes`` (every format) shape what a model
    computes, so each goes only at the one value this code uses: the slope
    ``LEAKY_SLOPE``, and ``false``, banks written only in training.
    """
    train = config["train"] if isinstance(config.get("train"), dict) else {}
    if version < 3:
        train.pop("momentum", None)
    if version == 1:
        train.pop("reset_banks_each_epoch", None)
    for section in (config.get("model"), train.get("model")):
        if not isinstance(section, dict):
            continue
        if version < 3:
            slope = section.pop("leaky_slope", LEAKY_SLOPE)
            if slope != LEAKY_SLOPE:
                raise DataError(f"{path}: checkpoint has leaky_slope {slope!r}; "
                                f"only {LEAKY_SLOPE} is supported since format 3")
        writes = section.pop("eval_writes", False)
        if writes is not False:
            raise DataError(f"{path}: checkpoint has eval_writes {json.dumps(writes)}; "
                            "memory banks are written only in training")
