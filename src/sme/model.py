"""Semantic matching energy in linear and bilinear form, with analytic gradients.

Sign convention, stated once: ``energy`` returns the matching value with its
leading minus sign, so lower energy means a more plausible triple, and the
ranking score used everywhere else is ``-energy``.

Training runs through one batched kernel. ``forward`` gathers the embedding
rows of a batch of triples once and returns their energies plus a cache;
``backward`` turns the cache and per-triple weights into the gradients of the
weighted energy sum. Every contraction is a reshape and a matrix product.
The kernel also takes a stack of K independent models: embeddings
(K, n, d), every parameter block with a leading K, id and weight arrays
(K, m). Each matrix product then runs once per model, on the same operands
a single model would give it. The SGD step and the single-triple ``energy``
and ``energy_gradients`` call this kernel. Validation, test and bulk
scoring call ``energies_batch``, one path for both forms: for a fixed
relation each form is an affine map of the entity embedding, so every
symbol row is projected once per relation present in the call and each
record is scored by gathers from those tables.
"""

from __future__ import annotations

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


@dataclass
class LinearParams:
    w_l1: np.ndarray  # (p, d)
    w_l2: np.ndarray  # (p, d)
    w_r1: np.ndarray  # (p, d)
    w_r2: np.ndarray  # (p, d)
    b_l: np.ndarray   # (p,)
    b_r: np.ndarray   # (p,)

    @property
    def form(self) -> str:
        return LINEAR

    @property
    def p(self) -> int:
        return self.w_l1.shape[-2]

    @property
    def d(self) -> int:
        return self.w_l1.shape[-1]

    def copy(self) -> "LinearParams":
        return LinearParams(*(a.copy() for a in self.arrays()))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w_l1, self.w_l2, self.w_r1, self.w_r2, self.b_l, self.b_r)


@dataclass
class BilinearParams:
    w_l: np.ndarray  # (p, d, d); modes: output, entity, relation
    w_r: np.ndarray  # (p, d, d)
    b_l: np.ndarray  # (p,)
    b_r: np.ndarray  # (p,)

    @property
    def form(self) -> str:
        return BILINEAR

    @property
    def p(self) -> int:
        return self.w_l.shape[-3]

    @property
    def d(self) -> int:
        return self.w_l.shape[-2]

    def copy(self) -> "BilinearParams":
        return BilinearParams(*(a.copy() for a in self.arrays()))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w_l, self.w_r, self.b_l, self.b_r)


Params = LinearParams | BilinearParams


def init_embeddings(n: int, d: int, rng: np.random.Generator,
                    relation_ids=frozenset()) -> EmbeddingTable:
    scale = 1.0 / np.sqrt(d)
    return EmbeddingTable(rng.uniform(-scale, scale, size=(n, d)),
                          frozenset(relation_ids))


def init_params(form: str, d: int, p: int, rng: np.random.Generator) -> Params:
    scale = 1.0 / np.sqrt(d)

    def u(*shape):
        return rng.uniform(-scale, scale, size=shape)

    if form == LINEAR:
        return LinearParams(u(p, d), u(p, d), u(p, d), u(p, d),
                            np.zeros(p), np.zeros(p))
    if form == BILINEAR:
        return BilinearParams(u(p, d, d), u(p, d, d), np.zeros(p), np.zeros(p))
    raise ShapeError(f"unknown form {form!r}")


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


def _check_ids(ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise LookupIdError(f"triple id outside embedding table [0, {n})")


class Cache(NamedTuple):
    """What ``backward`` needs from ``forward``: the gathered embedding rows,
    the transformed embeddings u (left) and v (right) and, for the bilinear
    form, each row's relation maps. ``flat_ids`` locates the gathered rows
    in ``E.reshape(-1, d)`` (lhs, rel, rhs slots in turn), where the SGD
    step adds their gradients. Stacked calls add a leading K to every
    array."""

    el: np.ndarray                  # (m, d)
    er: np.ndarray                  # (m, d)
    eh: np.ndarray                  # (m, d)
    u: np.ndarray                   # (m, p)
    v: np.ndarray                   # (m, p)
    flat_ids: np.ndarray            # (3m,)
    maps_l: np.ndarray | None = None  # (m, p, d)
    maps_r: np.ndarray | None = None  # (m, p, d)


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def forward(E: np.ndarray, params: Params, lhs: np.ndarray, rel: np.ndarray,
            rhs: np.ndarray) -> tuple[np.ndarray, Cache]:
    """Energies of the triples (lhs[n], rel[n], rhs[n]) and the cache for
    ``backward``. E is the (n_symbols, d) embedding matrix, or a stack of K
    of them with (K, m) id arrays and stacked parameters; every stacked
    model's rows come from one gather through the flat (K * n_symbols, d)
    view."""
    n, d = E.shape[-2:]
    ids = np.concatenate((lhs, rel, rhs), axis=-1)
    _check_ids(ids, n)
    if E.ndim == 3:
        ids = ids + n * np.arange(len(E))[:, None]
    m = lhs.shape[-1]
    rows = E.reshape(-1, d)[ids]
    el, er, eh = rows[..., :m, :], rows[..., m:2 * m, :], rows[..., 2 * m:, :]
    if isinstance(params, LinearParams):
        u = el @ _t(params.w_l1) + er @ _t(params.w_l2) + params.b_l[..., None, :]
        v = eh @ _t(params.w_r1) + er @ _t(params.w_r2) + params.b_r[..., None, :]
        cache = Cache(el, er, eh, u, v, ids)
    else:
        # maps[n] is the (p, d) matrix the relation embedding er[n] selects
        maps_l = mode3_contract(params.w_l, er)
        maps_r = mode3_contract(params.w_r, er)
        u = matvec(maps_l, el) + params.b_l[..., None, :]
        v = matvec(maps_r, eh) + params.b_r[..., None, :]
        cache = Cache(el, er, eh, u, v, ids, maps_l, maps_r)
    return -(u * v).sum(axis=-1), cache


@dataclass
class Gradients:
    """d(energy)/d(everything); mirrors the parameter structure plus the
    embedding rows involved (keyed by slot, not by id). From ``backward``
    the row gradients hold one row per triple, and stacked calls add a
    leading K."""

    params: Params
    d_lhs: np.ndarray
    d_rel: np.ndarray
    d_rhs: np.ndarray


def backward(params: Params, cache: Cache, w: np.ndarray) -> Gradients:
    """Gradients of sum_n w[n] * energy[n] for the triples in ``cache``. A
    row weighted 0 adds exact zeros to every sum over rows."""
    el, er, eh, u, v = cache.el, cache.er, cache.eh, cache.u, cache.v
    gu = -w[..., None] * v   # d/du of -w * (u . v)
    gv = -w[..., None] * u
    if isinstance(params, LinearParams):
        g = LinearParams(w_l1=_t(gu) @ el, w_l2=_t(gu) @ er,
                         w_r1=_t(gv) @ eh, w_r2=_t(gv) @ er,
                         b_l=gu.sum(axis=-2), b_r=gv.sum(axis=-2))
        return Gradients(g, gu @ params.w_l1, gu @ params.w_l2 + gv @ params.w_r2,
                         gv @ params.w_r1)
    lead, p, d = w.shape, params.p, params.d
    w_l = params.w_l.reshape(*lead[:-1], p * d, d)
    w_r = params.w_r.reshape(*lead[:-1], p * d, d)
    # u[n, i] = sum_jk w_l[i, j, k] el[n, j] er[n, k]: the outer product
    # gu[n] x el[n], flattened to p*d, meets w_l and er in one GEMM each
    a_l = (gu[..., :, None] * el[..., None, :]).reshape(*lead, p * d)
    a_r = (gv[..., :, None] * eh[..., None, :]).reshape(*lead, p * d)
    g = BilinearParams(w_l=(_t(a_l) @ er).reshape(params.w_l.shape),
                       w_r=(_t(a_r) @ er).reshape(params.w_r.shape),
                       b_l=gu.sum(axis=-2), b_r=gv.sum(axis=-2))
    d_lhs = (gu[..., None, :] @ cache.maps_l)[..., 0, :]
    d_rhs = (gv[..., None, :] @ cache.maps_r)[..., 0, :]
    return Gradients(g, d_lhs, a_l @ w_l + a_r @ w_r, d_rhs)


def _one(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array([t.lhs]), np.array([t.rel]), np.array([t.rhs])


def energy(t: Triple, emb: EmbeddingTable, params: Params) -> float:
    """Energy of a triple: -dot(g_left, g_right). Lower means more plausible."""
    e, _ = forward(emb.vectors, params, *_one(t))
    return float(e[0])


def energy_gradients(t: Triple, emb: EmbeddingTable, params: Params) -> Gradients:
    _, cache = forward(emb.vectors, params, *_one(t))
    g = backward(params, cache, np.ones(1))
    return Gradients(g.params, g.d_lhs[0], g.d_rel[0], g.d_rhs[0])


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
# in cache while they are multiplied and summed.
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
    Bilinear: the maps ``W x3 e_r`` and the biases."""
    if isinstance(params, LinearParams):
        shape = (len(rels), *params.w_l1.shape)
        off_l = (E @ params.w_l2.T)[rels] + params.b_l
        off_r = (E @ params.w_r2.T)[rels] + params.b_r
        return (np.broadcast_to(params.w_l1, shape), off_l,
                np.broadcast_to(params.w_r1, shape), off_r)
    er, shape = E[rels], (len(rels), params.p)
    return (mode3_contract(params.w_l, er), np.broadcast_to(params.b_l, shape),
            mode3_contract(params.w_r, er), np.broadcast_to(params.b_r, shape))


def _project(E, maps, offsets) -> np.ndarray:
    """Row ``r * n + s`` holds ``maps[r] @ E[s] + offsets[r]``. One GEMM per
    map, so a relation's rows do not depend on the block they were built in."""
    t = np.matmul(E, maps.transpose(0, 2, 1))   # (r, n, p)
    t += offsets[:, None, :]
    return t.reshape(-1, maps.shape[1])


# ids are range-checked before any table is indexed, so np.take's "clip"
# mode never clips; it spares the buffered copy that "raise" makes
_TAKE = dict(axis=0, mode="clip")


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
        u *= v
        np.sum(u, axis=1, out=out[sl])
    return out
