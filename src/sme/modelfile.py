"""Versioned binary container for trained models.

Layout (all integers little-endian, all floats little-endian IEEE 754
doubles, arrays in row-major order):

    magic            4 bytes   b"SME1"
    form             u8        0 = linear, 1 = bilinear
    d, p, n_symbols  u32 each
    symbols          n_symbols x (u32 byte-length + UTF-8 bytes)
    relation bitmap  ceil(n_symbols / 8) bytes, little-endian bit order
    embeddings       n_symbols * d doubles
    parameter blocks linear:   w_l1, w_l2, w_r1, w_r2 (p*d each), b_l, b_r (p each)
                     bilinear: w_l, w_r (p*d*d each), b_l, b_r (p each)

The parameter blocks are the model's one parameter buffer (``model.py``),
written with one ``tobytes`` and read with one ``frombuffer``.
Round-tripping reproduces every float bitwise. ``model_bytes`` builds the
bytes ``save_model`` writes, in memory; the evaluation report's
``model_sha256`` is their digest.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import IntegrityError
from .model import BILINEAR, LINEAR, PARAMS, EmbeddingTable, Model

MAGIC = b"SME1"
_FORM_CODES = {LINEAR: 0, BILINEAR: 1}
_FORM_NAMES = {v: k for k, v in _FORM_CODES.items()}


def save_model(model: Model, path) -> None:
    Path(path).write_bytes(model_bytes(model))


def model_bytes(model: Model) -> bytes:
    """The bytes ``save_model`` writes for ``model``."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<B", _FORM_CODES[model.form])
    n = len(model.symbols)
    out += struct.pack("<III", model.d, model.p, n)
    for s in model.symbols:
        raw = s.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += bytes(np.packbits(np.isin(np.arange(n), list(model.relation_ids)), bitorder="little"))
    out += np.ascontiguousarray(model.emb.vectors, dtype="<f8").tobytes()
    out += np.ascontiguousarray(model.params.buf, dtype="<f8").tobytes()
    return bytes(out)


def load_model(path) -> Model:
    """Read a model file. Every length is checked against the bytes left
    before it is used, so a truncated or corrupt file is an IntegrityError;
    so is a NaN or infinite weight, and a symbol no triple file can hold."""
    raw = memoryview(Path(path).read_bytes())
    if raw[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a recognized model file (bad magic/version)")
    off = 4

    def take(nbytes: int) -> memoryview:
        nonlocal off
        if nbytes > len(raw) - off:
            raise IntegrityError(f"{path}: truncated model file")
        off += nbytes
        return raw[off - nbytes:off]

    (form_code,) = struct.unpack("<B", take(1))
    if form_code not in _FORM_NAMES:
        raise IntegrityError(f"{path}: unknown form code {form_code}")
    form = _FORM_NAMES[form_code]
    d, p, n = struct.unpack("<III", take(12))
    if d == 0 or p == 0:
        raise IntegrityError(f"{path}: zero dimension (d={d}, p={p})")
    symbols = []
    for _ in range(n):
        (length,) = struct.unpack("<I", take(4))
        try:
            symbols.append(str(take(length), "utf-8"))
        except UnicodeDecodeError:
            raise IntegrityError(f"{path}: symbol {len(symbols)} is not UTF-8") from None
    if len(set(symbols)) != n:
        raise IntegrityError(f"{path}: duplicate symbol in model file")
    if not all(symbols) or any(map("".join(symbols).__contains__, "\t\n\r")):
        raise IntegrityError(f"{path}: a symbol is empty or holds a TAB, LF or CR")
    bits = np.unpackbits(np.frombuffer(take((n + 7) // 8), dtype=np.uint8), bitorder="little")
    relation_ids = frozenset(np.flatnonzero(bits[:n]).tolist())

    def read_floats(*shape):
        return np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()

    emb = EmbeddingTable(read_floats(n, d))
    cls = PARAMS[form]
    params = cls.from_buffer(read_floats(sum(math.prod(s) for s in cls.shapes(p, d))), p, d)
    if off != len(raw):
        raise IntegrityError(f"{path}: trailing bytes in model file")
    if not (np.isfinite(emb.vectors).all() and np.isfinite(params.buf).all()):
        raise IntegrityError(f"{path}: non-finite weight in model file")
    return Model(symbols, relation_ids, emb, params)
