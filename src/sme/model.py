"""Semantic matching energy in linear and bilinear form, with analytic gradients.

Sign convention, stated once: ``energy`` returns the matching value with its
leading minus sign, so lower energy means a more plausible triple, and the
ranking score used everywhere else is ``-energy``.

A form's parameter blocks are named views into one float64 buffer, (P,) for
a model or (K, P) for a stack of K models, in the model file's block order.
Training runs through one kernel: ``forward`` gathers a batch's embedding
rows once and returns energies plus a cache; ``backward`` writes the
gradients of a weighted energy sum into a buffer laid out as the
parameters'. Both are reshapes and matrix products. A stack adds a leading
K to the embeddings and ids, and each product runs once per model, on the
operands a single model would give it. Validation, test and bulk scoring
use ``energies_batch``: for a fixed relation each form is an affine map of
the entity embedding, so every symbol row is projected once per relation
present in the call and each record is scored by gathers from those tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import Triple
from .errors import LookupIdError, NumericalError, ShapeError

LINEAR = "linear"
BILINEAR = "bilinear"
FORMS = (LINEAR, BILINEAR)


@dataclass
class EmbeddingTable:
    """One d-dimensional row per symbol; relation-type ids flagged. A
    training stack of K models holds (K, n_symbols, d) vectors."""

    vectors: np.ndarray  # (n_symbols, d) or (K, n_symbols, d)
    relation_ids: frozenset[int] = field(default_factory=frozenset)

    @property
    def n(self) -> int:
        return self.vectors.shape[-2]

    @property
    def dim(self) -> int:
        return self.vectors.shape[-1]

    def normalize_rows(self) -> None:
        """Project every row to unit Euclidean norm, in place. A row whose
        norm overflows would silently become zero: NumericalError instead."""
        norms = np.linalg.norm(self.vectors, axis=-1, keepdims=True)
        if not np.isfinite(norms).all():
            raise NumericalError("non-finite embedding norm; training aborted")
        np.divide(self.vectors, norms, out=self.vectors, where=norms > 0)

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.vectors.copy(), self.relation_ids)


class _FlatParams:
    """Parameter blocks as named views into one contiguous float64 buffer
    ``buf``: (P,) for one model, (K, P) for a stack of K. A subclass gives
    the blocks' ``names`` and ``shapes(p, d)`` in the model file's order.
    Constructing from separate arrays packs them into a new buffer;
    ``from_buffer`` views an existing one."""

    form = ""
    names: tuple[str, ...] = ()

    def __init__(self, *blocks: np.ndarray):
        lead, p, d = np.shape(blocks[-1])[:-1], np.shape(blocks[-1])[-1], np.shape(blocks[0])[-1]
        self._view(np.concatenate([np.reshape(b, (*lead, -1)) for b in blocks], axis=-1,
                                  dtype=np.float64), p, d)

    @classmethod
    def from_buffer(cls, buf: np.ndarray, p: int, d: int):
        params = cls.__new__(cls)
        params._view(buf, p, d)
        return params

    def _view(self, buf: np.ndarray, p: int, d: int) -> None:
        self.buf, self.p, self.d = buf, p, d
        start = 0
        for name, shape in zip(self.names, self.shapes(p, d)):
            size = math.prod(shape)
            setattr(self, name, buf[..., start:start + size].reshape(*buf.shape[:-1], *shape))
            start += size
        if start != buf.shape[-1]:
            raise ShapeError(f"{self.form} parameters: {buf.shape[-1]} values for p={p} d={d}")

    def __getitem__(self, index):
        """The stacked models at ``index``: views for one, copies for a list."""
        return self.from_buffer(self.buf[index], self.p, self.d)

    def copy(self):
        return self.from_buffer(self.buf.copy(), self.p, self.d)

    def empty_like(self):
        return self.from_buffer(np.empty_like(self.buf), self.p, self.d)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in self.names)


class LinearParams(_FlatParams):
    form = LINEAR
    names = ("w_l1", "w_l2", "w_r1", "w_r2", "b_l", "b_r")
    shapes = staticmethod(lambda p, d: ((p, d),) * 4 + ((p,),) * 2)


class BilinearParams(_FlatParams):
    form = BILINEAR
    names = ("w_l", "w_r", "b_l", "b_r")   # w modes: output, entity, relation
    shapes = staticmethod(lambda p, d: ((p, d, d),) * 2 + ((p,),) * 2)


Params = LinearParams | BilinearParams
PARAMS = {LINEAR: LinearParams, BILINEAR: BilinearParams}


def init_embeddings(n: int, d: int, rng: np.random.Generator,
                    relation_ids=frozenset()) -> EmbeddingTable:
    scale = 1.0 / np.sqrt(d)
    return EmbeddingTable(rng.uniform(-scale, scale, size=(n, d)),
                          frozenset(relation_ids))


def init_params(form: str, d: int, p: int, rng: np.random.Generator) -> Params:
    """Weights uniform in +-1/sqrt(d), drawn block by block; biases zero."""
    if form not in PARAMS:
        raise ShapeError(f"unknown form {form!r}")
    scale, cls = 1.0 / np.sqrt(d), PARAMS[form]
    return cls(*(rng.uniform(-scale, scale, size=s) if len(s) > 1 else np.zeros(s)
                 for s in cls.shapes(p, d)))


def mode3_contract(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Contract a (p, d, k) tensor with every row of an (m, k) matrix along
    mode 3, in one GEMM: out[n, i, j] = sum_k t[i, j, k] * x[n, k]. Leading
    axes, one per stacked model, must match: (K, p, d, k) with (K, m, k)."""
    if (t.ndim < 3 or x.ndim != t.ndim - 1 or t.shape[:-3] != x.shape[:-2]
            or t.shape[-1] != x.shape[-1]):
        raise ShapeError(f"mode3_contract: {t.shape} x {x.shape}")
    p, d, k = t.shape[-3:]
    flat = t.reshape(*t.shape[:-3], p * d, k)
    return (x @ flat.swapaxes(-1, -2)).reshape(*x.shape[:-1], p, d)


def matvec(maps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise matrix-vector products: out[n] = maps[n] @ x[n] for an
    (m, p, d) stack of matrices and an (m, d) matrix of vectors; leading
    axes alike."""
    if (maps.ndim < 3 or x.ndim != maps.ndim - 1
            or maps.shape[:-2] + maps.shape[-1:] != x.shape):
        raise ShapeError(f"matvec: {maps.shape} x {x.shape}")
    return (maps @ x[..., None])[..., 0]


# ids are range-checked before any table is indexed, so np.take's "clip"
# mode never clips; it spares the buffered copy that "raise" makes
_TAKE = dict(axis=0, mode="clip")


def _check_ids(ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise LookupIdError(f"triple id outside embedding table [0, {n})")


class Cache(NamedTuple):
    """What ``backward`` needs from ``forward``: the gathered rows, u (left)
    and v (right), and each row's bilinear relation maps; stacked, a leading K."""

    el: np.ndarray                  # (m, d)
    er: np.ndarray                  # (m, d)
    eh: np.ndarray                  # (m, d)
    u: np.ndarray                   # (m, p)
    v: np.ndarray                   # (m, p)
    maps_l: np.ndarray | None = None  # (m, p, d)
    maps_r: np.ndarray | None = None  # (m, p, d)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def forward(E: np.ndarray, params: Params, lhs: np.ndarray, rel: np.ndarray,
            rhs: np.ndarray) -> tuple[np.ndarray, Cache]:
    """Energies of the triples (lhs[n], rel[n], rhs[n]) and the cache for
    ``backward``. E is one model's (n_symbols, d) embedding matrix. The ids
    are range-checked here; a stack enters ``_forward`` directly."""
    ids = np.stack((lhs, rel, rhs))
    _check_ids(ids, len(E))
    return _forward(E, params, ids)


def _forward(E: np.ndarray, params: Params, ids: np.ndarray) -> tuple[np.ndarray, Cache]:
    """``forward`` on checked ids: (3, m) rows of E, lhs, rel and rhs in
    turn, or (3, K, m) rows of the flat (K * n_symbols, d) view of a stack,
    so that every stacked model's rows come from one gather."""
    el, er, eh = np.take(E.reshape(-1, E.shape[-1]), ids, **_TAKE)
    if isinstance(params, LinearParams):
        u = el @ _t(params.w_l1) + er @ _t(params.w_l2) + params.b_l[..., None, :]
        v = eh @ _t(params.w_r1) + er @ _t(params.w_r2) + params.b_r[..., None, :]
        cache = Cache(el, er, eh, u, v)
    else:
        # maps[n] is the (p, d) matrix the relation embedding er[n] selects
        maps_l = mode3_contract(params.w_l, er)
        maps_r = mode3_contract(params.w_r, er)
        u = matvec(maps_l, el) + params.b_l[..., None, :]
        v = matvec(maps_r, eh) + params.b_r[..., None, :]
        cache = Cache(el, er, eh, u, v, maps_l, maps_r)
    return -(u * v).sum(axis=-1), cache


@dataclass
class Gradients:
    """d(energy)/d(everything): the parameter gradients, laid out as the
    parameters, and the gradients of the embedding rows involved, keyed by
    slot, not by id. ``d_rows`` holds the lhs, rel and rhs slots in turn;
    from ``backward`` each slot holds one row per triple, and stacked calls
    put a K after the slot axis."""

    params: Params
    d_rows: np.ndarray   # (3, d), or (3, m, d) / (3, K, m, d) from backward

    d_lhs = property(lambda self: self.d_rows[0])
    d_rel = property(lambda self: self.d_rows[1])
    d_rhs = property(lambda self: self.d_rows[2])


def backward(params: Params, cache: Cache, w: np.ndarray,
             out: Params | None = None) -> Gradients:
    """Gradients of sum_n w[n] * energy[n] for the triples in ``cache``,
    the parameters' written into ``out`` (new when None), laid out as
    ``params``. A row weighted 0 adds exact zeros to every sum over rows."""
    el, er, eh, u, v = cache[:5]
    gu = -w[..., None] * v   # d/du of -w * (u . v)
    gv = -w[..., None] * u
    g = params.empty_like() if out is None else out
    rows = np.empty((3, *el.shape))
    np.sum(gu, axis=-2, out=g.b_l)
    np.sum(gv, axis=-2, out=g.b_r)
    if isinstance(params, LinearParams):
        np.matmul(_t(gu), el, out=g.w_l1)
        np.matmul(_t(gu), er, out=g.w_l2)
        np.matmul(_t(gv), eh, out=g.w_r1)
        np.matmul(_t(gv), er, out=g.w_r2)
        np.matmul(gu, params.w_l1, out=rows[0])
        np.matmul(gu, params.w_l2, out=rows[1])
        rows[1] += gv @ params.w_r2
        np.matmul(gv, params.w_r1, out=rows[2])
        return Gradients(g, rows)
    lead, p, d = w.shape, params.p, params.d
    w_l = params.w_l.reshape(*lead[:-1], p * d, d)
    w_r = params.w_r.reshape(*lead[:-1], p * d, d)
    # u[n, i] = sum_jk w_l[i, j, k] el[n, j] er[n, k]: the outer product
    # gu[n] x el[n], flattened to p*d, meets w_l and er in one GEMM each
    a_l = (gu[..., :, None] * el[..., None, :]).reshape(*lead, p * d)
    a_r = (gv[..., :, None] * eh[..., None, :]).reshape(*lead, p * d)
    np.matmul(_t(a_l), er, out=g.w_l.reshape(w_l.shape))
    np.matmul(_t(a_r), er, out=g.w_r.reshape(w_r.shape))
    np.matmul(gu[..., None, :], cache.maps_l, out=rows[0][..., None, :])
    np.matmul(a_l, w_l, out=rows[1])
    rows[1] += a_r @ w_r
    np.matmul(gv[..., None, :], cache.maps_r, out=rows[2][..., None, :])
    return Gradients(g, rows)


def _one(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array([t.lhs]), np.array([t.rel]), np.array([t.rhs])


def energy(t: Triple, emb: EmbeddingTable, params: Params) -> float:
    """Energy of a triple: -dot(g_left, g_right). Lower means more plausible."""
    e, _ = forward(emb.vectors, params, *_one(t))
    return float(e[0])


def energy_gradients(t: Triple, emb: EmbeddingTable, params: Params) -> Gradients:
    _, cache = forward(emb.vectors, params, *_one(t))
    g = backward(params, cache, np.ones(1))
    return Gradients(g.params, g.d_rows[:, 0])


@dataclass
class Model:
    """Trained artifact: symbol table, embeddings, and g-function weights."""

    form: str
    symbols: list[str]
    relation_ids: frozenset[int]
    emb: EmbeddingTable
    params: Params

    @property
    def d(self) -> int:
        return self.emb.dim

    @property
    def p(self) -> int:
        return self.params.p

    def copy(self) -> "Model":
        return replace(self, emb=self.emb.copy(), params=self.params.copy())


# Bytes the projection tables of one ``energies_batch`` call may take; a call
# whose relations need more builds them one block of relations at a time. A
# block holds at least one relation, 2 * n * p * 8 B, which is 2p/d times the
# embedding matrix. UMLS-shaped tables take 49 * 184 * 10 * 8 B, about
# 0.7 MB, per side.
_TABLE_BYTES = 16 << 20
# Records per gather step: their u and v blocks (8192 * p * 8 B each) stay
# in cache for the one row contraction that scores them.
_STEP = 8192


def energies_batch(emb: EmbeddingTable, params: Params,
                   lhs: np.ndarray, rel: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Energies for parallel id arrays, from projection tables built once per call.

    For a fixed relation r both forms are affine maps of the entity
    embedding, ``u = maps_l[r] @ e_lhs + off_l[r]`` and ``v`` alike (see
    ``_relation_maps``), so u depends only on the (lhs, rel) pair and v only
    on the (rhs, rel) pair. The maps of the relations present in the call
    are applied to every symbol row, ``Tl[r, s] = maps_l[r] @ E[s] + off_l[r]``
    (``Tr`` alike), one block of relations at a time within ``_TABLE_BYTES``,
    and each record is two row gathers and a dot product. The SGD step calls
    ``forward``/``backward`` instead: for its 64-row batches the tables
    would cost more than the per-row maps.
    """
    E = emb.vectors
    lhs, rel, rhs = np.asarray(lhs), np.asarray(rel), np.asarray(rhs)
    n, p = E.shape[0], params.p
    for ids in (lhs, rel, rhs):
        _check_ids(ids, n)
    present = np.zeros(n, dtype=bool)
    present[rel] = True
    slot = (np.cumsum(present) - 1)[rel]   # rank of each record's relation
    maps_l, off_l, maps_r, off_r = _relation_maps(params, E, np.flatnonzero(present))
    block = max(1, _TABLE_BYTES // (2 * n * p * 8))
    out = np.empty(len(lhs))
    for first in range(0, len(maps_l), block):
        rows = (slice(None) if block >= len(maps_l)     # one block: every record
                else np.flatnonzero((slot >= first) & (slot < first + block)))
        blk = slice(first, first + block)
        out[rows] = _gather_dot(_project(E, maps_l[blk], off_l[blk]),
                                _project(E, maps_r[blk], off_r[blk]),
                                n, slot[rows] - first, lhs[rows], rhs[rows])
    return np.negative(out, out=out)


def _relation_maps(params: Params, E: np.ndarray, rels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (k, p, d) maps and (k, p) offsets, left then right, of the k
    relations whose embeddings are the rows ``rels`` of E. Linear: the
    entity-side weights, shared by every relation, and offsets
    ``W_2 e_r + b``, taken from a projection of every row of E so that they
    do not depend on how many relations the call holds (numpy multiplies a
    one-row matrix by a matrix-vector path that may round differently).
    Bilinear: the maps ``W x3 e_r``, taken from contractions of fixed row
    blocks of E for the same reason, and the biases."""
    if isinstance(params, LinearParams):
        shape = (len(rels), *params.w_l1.shape)
        off_l = (E @ params.w_l2.T)[rels] + params.b_l
        off_r = (E @ params.w_r2.T)[rels] + params.b_r
        return (np.broadcast_to(params.w_l1, shape), off_l,
                np.broadcast_to(params.w_r1, shape), off_r)
    shape = (len(rels), params.p)
    return (_maps_of_rows(params.w_l, E, rels), np.broadcast_to(params.b_l, shape),
            _maps_of_rows(params.w_r, E, rels), np.broadcast_to(params.b_r, shape))


def _maps_of_rows(w: np.ndarray, E: np.ndarray, rels: np.ndarray) -> np.ndarray:
    """``mode3_contract(w, E)[rels]``. E is contracted in fixed blocks of
    rows, each within ``_TABLE_BYTES``, so every row's maps come from the
    same product whichever rows a call asks for."""
    step = max(1, _TABLE_BYTES // (w.shape[0] * w.shape[1] * 8))
    out = np.empty((len(rels), *w.shape[:2]))
    for start in range(0, len(E), step):
        here = (rels >= start) & (rels < start + step)
        if here.any():
            out[here] = mode3_contract(w, E[start:start + step])[rels[here] - start]
    return out


def _project(E, maps, offsets) -> np.ndarray:
    """Row ``r * n + s`` holds ``maps[r] @ E[s] + offsets[r]``. One GEMM per
    map, so a relation's rows do not depend on the block they were built in."""
    t = np.matmul(E, maps.transpose(0, 2, 1))   # (r, n, p)
    t += offsets[:, None, :]
    return t.reshape(-1, maps.shape[1])


def _gather_dot(tl, tr, n: int, slot, lhs, rhs) -> np.ndarray:
    """Dot products of the rows ``slot * n + lhs`` of tl and ``slot * n + rhs``
    of tr, ``_STEP`` records at a time through two reused work buffers."""
    m = len(lhs)
    out = np.empty(m)
    buf_u, buf_v = (np.empty((min(m, _STEP), tl.shape[1])) for _ in range(2))
    for start in range(0, m, _STEP):
        sl = slice(start, start + _STEP)
        base = slot[sl] * n
        u = np.take(tl, base + lhs[sl], out=buf_u[:len(base)], **_TAKE)
        v = np.take(tr, base + rhs[sl], out=buf_v[:len(base)], **_TAKE)
        np.einsum("ij,ij->i", u, v, out=out[sl])
    return out
