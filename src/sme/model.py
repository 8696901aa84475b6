"""Semantic matching energy in linear and bilinear form, with analytic gradients.

Sign convention, stated once: ``energy`` returns the matching value with its
leading minus sign, so lower energy means a more plausible triple, and the
ranking score used everywhere else is ``-energy``.

A form's parameter blocks are named views into one float64 buffer, (P,) for
a model or (K, P) for a stack of K models, in the model file's block order.
Training runs through one kernel over pairs, a positive and its corruption,
which share their relation. A batch of m pairs has (5, m) ids, the pair
layout: the lhs of the positives and of the corruptions, the rhs of both,
then each pair's relation; a stack of K models has (K, 5, m). A
``Workspace`` holds the embeddings and parameter buffer a step updates,
every array it writes and every view it reads; training builds one per
stack of models and keeps it while the stack does, and a one-call entry
point builds one over only the rows its batch names. ``_forward`` gathers a
batch's rows into it once and leaves (2, m) energies there; ``backward``
writes the gradients of a weighted energy sum into its buffer laid out as
the parameters'. Both are numpy products written through ``out=``, in
which the two sides run together and a relation row, its maps and its
weight products are computed once per pair; a stacked model's products
see the operands a single model would give them. The sums over a small
axis, each energy's p terms and each bias gradient's m pairs, are BLAS
GEMVs against ones (minus ones for the energies). Validation, test and
bulk scoring use ``energies_batch``: for a fixed relation each form is an
affine map of the entity embedding on each side, read from the same
by-side views of the parameters as the kernel's, so every symbol row is
projected once per relation present in the call, both sides into one
table, and each record is scored by two gathers from it. A
``ScoringPlan`` holds what scoring a set of records needs that no
parameter moves: the checked ids, the relations present and each
record's table rows. Validation builds one per set and reuses it every
epoch; a one-off call builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Triple
from .errors import LookupIdError, NumericalError, ShapeError

LINEAR = "linear"
BILINEAR = "bilinear"
FORMS = (LINEAR, BILINEAR)


@dataclass
class EmbeddingTable:
    """One d-dimensional row per symbol, entity or relation type alike. A
    training stack of K models holds (K, n_symbols, d) vectors."""

    vectors: np.ndarray  # (n_symbols, d) or (K, n_symbols, d)

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
        return EmbeddingTable(self.vectors.copy())


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
        # the same blocks by side, left then right, for the kernel: in file
        # order a side's weights are adjacent and the two biases come last
        self.w_sides = buf[..., :-2 * p].reshape(*buf.shape[:-1], 2, *self.side_shape(p, d))
        self.b_sides = buf[..., -2 * p:].reshape(*buf.shape[:-1], 2, p)

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
    side_shape = staticmethod(lambda p, d: (2, p, d))   # entity, then relation weights


class BilinearParams(_FlatParams):
    form = BILINEAR
    names = ("w_l", "w_r", "b_l", "b_r")   # w modes: output, entity, relation
    shapes = staticmethod(lambda p, d: ((p, d, d),) * 2 + ((p,),) * 2)
    side_shape = staticmethod(lambda p, d: (p, d, d))


Params = LinearParams | BilinearParams
PARAMS = {LINEAR: LinearParams, BILINEAR: BilinearParams}


def init_embeddings(n: int, d: int, rng: np.random.Generator) -> EmbeddingTable:
    scale = 1.0 / np.sqrt(d)
    return EmbeddingTable(rng.uniform(-scale, scale, size=(n, d)))


def init_params(form: str, d: int, p: int, rng: np.random.Generator) -> Params:
    """Weights uniform in +-1/sqrt(d), drawn block by block; biases zero."""
    if form not in PARAMS:
        raise ShapeError(f"unknown form {form!r}")
    scale, cls = 1.0 / np.sqrt(d), PARAMS[form]
    return cls(*(rng.uniform(-scale, scale, size=s) if len(s) > 1 else np.zeros(s)
                 for s in cls.shapes(p, d)))


# ids are range-checked before any table is indexed, so np.take's "clip"
# mode never clips; it spares the buffered copy that "raise" makes
_TAKE = dict(axis=0, mode="clip")


def _check_ids(ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise LookupIdError(f"triple id outside embedding table [0, {n})")


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


class Workspace:
    """The state one SGD step reads and updates, for batches of m pairs of
    one model (E (n, d), params (P,)) or of a stack of K (E (K, n, d),
    params (K, P)): ``E`` and ``param_buf``, the caller's arrays, which the
    step updates in place, every array it writes and every view it reads.
    ``_forward`` and ``backward`` write into it through ``out=`` and the
    step scatters into ``E_flat``, E as one axis, a view because E must be
    C-contiguous (ShapeError otherwise), so a step allocates nothing of its
    own size or of the table's. The workspace lives as long as E and the
    parameter buffer: rebuild it when either is replaced, as a stack that
    loses a fold is.
    ``grad``, laid out as ``params``, takes the parameter gradients and
    ``d_rows``, in the pair layout, the row gradients. Layout by form: u
    and v, side (u, v), slot (positive, corruption) and pair, linear (2, 2,
    m, p), bilinear (m, 2, 2, p), the pair's maps (m, 2, p, d) by side; a
    stack adds a leading K to each. A stack of one runs as one model,
    without that axis: the products then see the operands one model gives
    them, and batched matmuls over one matrix cost more than plain ones.
    ``rows_in``, ``losses_out`` and ``active_out`` view the arrays the
    caller's ids, losses and mask share, with the caller's leading axes.
    ``ones_m`` and ``minus_ones_p`` are the vectors the small sums run
    against."""

    def __init__(self, E: np.ndarray, params: Params, m: int):
        if not E.flags.c_contiguous:   # the step's scatter would write to a copy
            raise ShapeError("a workspace's embeddings must be C-contiguous")
        outer, d, p = E.shape[:-2], E.shape[-1], params.p
        lead = () if outer == (1,) else outer
        self.E, self.param_buf = E, params.buf
        self.params = params if lead == outer else params[0]
        self.flat = E.reshape(-1, d)   # a stack's rows, all in one table
        self.E_flat = E.reshape(-1)
        self.grad = params.empty_like()
        g = self.grad if lead == outer else self.grad[0]
        self.rows = np.empty((*lead, 5, m, d))
        self.rows_in = self.rows.reshape(*outer, 5, m, d)
        self.d_rows = np.empty_like(self.rows)
        # the step's scatter: row i of ``elements`` holds the flat indices
        # of embedding row i's elements, ``at`` those of the batch's rows;
        # np.subtract.at takes its fast path on 1-D indices and values only
        self.elements = np.arange(E.size).reshape(-1, d)
        self.at = np.empty(self.rows_in.shape, dtype=self.elements.dtype)
        self.at_flat, self.d_flat = self.at.reshape(-1), self.d_rows.reshape(-1)
        self.er = self.rows[..., 4, :, :]
        # the entity rows as (2, 2m, d), lhs then rhs, and pair by pair as
        # (m, 2, 2, d), side then slot; the same for the row gradients
        self.sides, self.d_sides = (r[..., 0:4, :, :].reshape(*lead, 2, 2 * m, d)
                                    for r in (self.rows, self.d_rows))
        self.pairs, self.d_pairs = (r[..., 0:4, :, :].reshape(*lead, 2, 2, m, d)
                                    .swapaxes(-2, -3).swapaxes(-3, -4)
                                    for r in (self.rows, self.d_rows))
        self.losses = np.empty((*lead, m))
        self.losses_out = self.losses.reshape(*outer, m)
        self.active = np.empty((*lead, m), dtype=bool)
        self.active_out = self.active.reshape(*outer, m)
        self.w = np.empty((*lead, 2, m))   # the step's weights, by slot
        self.neg_w = np.empty_like(self.w)
        self.g_b = g.b_sides
        self.ones_m, self.minus_ones_p = np.ones(m), np.full(p, -1.0)
        self.prod_rows, self.e_rows = np.empty((*lead, 2 * m, p)), np.empty((*lead, 2 * m))
        params = self.params
        if isinstance(params, LinearParams):
            w = params.w_sides   # side, then its entity and relation weights
            self.uv = np.empty((*lead, 2, 2, m, p))
            self.uv_sides = self.uv.reshape(*lead, 2, 2 * m, p)
            self.uv_swapped = self.uv[..., ::-1, :, :, :]
            self.w_ent, self.w_rel = w[..., 0, :, :], w[..., 1, :, :]
            self.w_entT, self.w_relT = _t(self.w_ent), _t(self.w_rel)
            self.er_b = self.er[..., None, :, :]
            self.rel_uv = np.empty((*lead, 2, m, p))   # W_2 e_r + b, by side
            self.b = params.b_sides[..., None, :]
            self.prod = self.prod_rows.reshape(*lead, 2, m, p)
            self.energies = self.e_rows.reshape(*lead, 2, m)
            self.neg_wb = self.neg_w[..., None, :, :, None]
            self.g_uv = np.empty_like(self.uv)
            self.g_entT = _t(self.g_uv.reshape(*lead, 2, 2 * m, p))
            self.g_ent = _t(self.g_entT)
            self.pair = np.empty((*lead, 2, m, p))   # gu and gv, summed by pair
            self.pairT = _t(self.pair)
            self.d_er = np.empty((*lead, 2, m, d))
            self.g_w_ent, self.g_w_rel = g.w_sides[..., 0, :, :], g.w_sides[..., 1, :, :]
            return
        flat = params.w_sides.reshape(*lead, 2 * p * d, d)
        self.w_flat, self.w_flatT = flat, _t(flat)
        self.maps = np.empty((*lead, m, 2, p, d))
        self.maps_flat = self.maps.reshape(*lead, m, 2 * p * d)
        self.mapsT = _t(self.maps)
        self.uv = np.empty((*lead, m, 2, 2, p))
        self.uv_swapped = self.uv[..., ::-1, :, :]
        self.b = params.b_sides[..., None, :, None, :]
        self.prod = self.prod_rows.reshape(*lead, m, 2, p)
        self.energies = _t(self.e_rows.reshape(*lead, m, 2))
        self.neg_wb = _t(self.neg_w)[..., :, None, :, None]
        self.g_uv = np.empty_like(self.uv)
        self.g_uvT, self.g_uv_flat = _t(self.g_uv), self.g_uv.reshape(*lead, m, 4 * p)
        self.b_sums = np.empty((*lead, 2, 2, p))   # g_uv summed over the pairs
        self.b_sums_flat = self.b_sums.reshape(*lead, 4 * p)
        # a pair's two outer products gu x el, summed, flattened to 2 * p * d
        self.a = np.empty((*lead, m, 2 * p * d))
        self.a_outer = self.a.reshape(*lead, m, 2, p, d)
        self.aT = _t(self.a)
        self.g_w_flat = g.w_sides.reshape(flat.shape)
        self.d_er = self.d_rows[..., 4, :, :]


def _batch_workspace(E: np.ndarray, params: Params,
                     ids: np.ndarray) -> tuple[Workspace, np.ndarray, np.ndarray]:
    """A workspace over a copy of only the rows of E (n_symbols, d) that the
    ids (5, m) name, so that a one-call cost does not grow with the table:
    the workspace, those rows ascending and the checked ids as its rows."""
    _check_ids(ids, len(E))
    rows = np.unique(ids)
    return Workspace(E[rows], params, ids.shape[-1]), rows, np.searchsorted(rows, ids)


def forward(E: np.ndarray, params: Params, lhs: np.ndarray, rel: np.ndarray,
            rhs: np.ndarray) -> tuple[np.ndarray, Workspace]:
    """Energies of the triples (lhs[n], rel[n], rhs[n]) and the workspace
    for ``backward``, over only the rows they name, each triple paired with
    itself (weigh the copy 0). E is one model's (n_symbols, d) embeddings,
    of any memory layout; the ids are checked here."""
    ws, _, at = _batch_workspace(E, params, np.stack((lhs, lhs, rhs, rhs, rel)))
    return _forward(ws, at)[0], ws


def _forward(ws: Workspace, ids: np.ndarray) -> np.ndarray:
    """(2, m) energies, the positives' first, of the pairs whose checked
    ids, rows of the workspace's embeddings, are in the pair layout (5, m);
    a stack takes (K, 5, m) rows of the flat (K * n_symbols, d) view, so
    that every stacked model's rows come from one gather. Returns a view
    into ``ws``, overwritten by its next ``_forward``."""
    np.take(ws.flat, ids, out=ws.rows_in, **_TAKE)
    if isinstance(ws.params, LinearParams):
        np.matmul(ws.sides, ws.w_entT, out=ws.uv_sides)
        np.matmul(ws.er_b, ws.w_relT, out=ws.rel_uv)
        ws.rel_uv += ws.b
        ws.uv += ws.rel_uv[..., None, :, :]
        np.multiply(ws.uv[..., 0, :, :, :], ws.uv[..., 1, :, :, :], out=ws.prod)
    else:
        # maps[n, side] is the (p, d) matrix the relation embedding er[n] selects
        np.matmul(ws.er, ws.w_flatT, out=ws.maps_flat)
        np.matmul(ws.pairs, ws.mapsT, out=ws.uv)
        ws.uv += ws.b
        np.multiply(ws.uv[..., 0, :, :], ws.uv[..., 1, :, :], out=ws.prod)
    np.matmul(ws.prod_rows, ws.minus_ones_p, out=ws.e_rows)
    return ws.energies


@dataclass
class Gradients:
    """d(energy)/d(everything) of one triple: the parameter gradients, laid
    out as the parameters, and the gradients of its lhs, rel and rhs rows."""

    params: Params
    d_rows: np.ndarray   # (3, d)

    d_lhs = property(lambda self: self.d_rows[0])
    d_rel = property(lambda self: self.d_rows[1])
    d_rhs = property(lambda self: self.d_rows[2])


def backward(ws: Workspace, w: np.ndarray) -> None:
    """Gradients of sum_sn w[s, n] * energy[s, n] for the pairs of the last
    ``_forward`` on ``ws``, w (2, m) weighting the positives, then the
    corruptions: the parameters' into ``ws.grad`` and the rows' into
    ``ws.d_rows``, in the pair layout. A pair's two terms are summed before
    they meet its relation; a triple weighted 0 adds exact zeros to every
    sum."""
    # d/du of -w (u . v) is -w v, d/dv is -w u: g_uv is uv, sides swapped, times -w
    np.negative(w, out=ws.neg_w)
    np.multiply(ws.neg_wb, ws.uv_swapped, out=ws.g_uv)
    if isinstance(ws.params, LinearParams):
        np.add(ws.g_uv[..., 0, :, :], ws.g_uv[..., 1, :, :], out=ws.pair)
        np.matmul(ws.ones_m, ws.pair, out=ws.g_b)
        np.matmul(ws.g_entT, ws.sides, out=ws.g_w_ent)
        np.matmul(ws.pairT, ws.er_b, out=ws.g_w_rel)
        np.matmul(ws.g_ent, ws.w_ent, out=ws.d_sides)
        np.matmul(ws.pair, ws.w_rel, out=ws.d_er)
        np.add(ws.d_er[..., 0, :, :], ws.d_er[..., 1, :, :], out=ws.d_rows[..., 4, :, :])
        return
    np.matmul(ws.ones_m, ws.g_uv_flat, out=ws.b_sums_flat)
    np.add(ws.b_sums[..., 0, :], ws.b_sums[..., 1, :], out=ws.g_b)
    # u[n, i] = sum_jk w_l[i, j, k] el[n, j] er[n, k]: a pair's two outer
    # products gu x el sum in one (p, 2) @ (2, d) product per side, and the
    # sums, flattened to 2 * p * d, meet the weights and er in one GEMM each
    np.matmul(ws.g_uvT, ws.pairs, out=ws.a_outer)
    np.matmul(ws.aT, ws.er, out=ws.g_w_flat)
    np.matmul(ws.a, ws.w_flat, out=ws.d_er)
    np.matmul(ws.g_uv, ws.maps, out=ws.d_pairs)


def _one(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array([t.lhs]), np.array([t.rel]), np.array([t.rhs])


def energy(t: Triple, emb: EmbeddingTable, params: Params) -> float:
    """Energy of a triple: -dot(g_left, g_right). Lower means more plausible."""
    e, _ = forward(emb.vectors, params, *_one(t))
    return float(e[0])


def energy_gradients(t: Triple, emb: EmbeddingTable, params: Params) -> Gradients:
    _, ws = forward(emb.vectors, params, *_one(t))
    backward(ws, np.array([[1.0], [0.0]]))
    return Gradients(ws.grad, ws.d_rows[[0, 4, 2], 0])   # lhs, rel, rhs


@dataclass
class Model:
    """Trained artifact: symbol table, embeddings, and g-function weights.
    The form is the parameters' own."""

    symbols: list[str]
    relation_ids: frozenset[int]
    emb: EmbeddingTable
    params: Params

    @property
    def form(self) -> str:
        return self.params.form

    @property
    def d(self) -> int:
        return self.emb.dim

    @property
    def p(self) -> int:
        return self.params.p


# Bytes the tables of one ``energies_batch`` call may take; a call whose
# relations need more builds them one block of relations at a time. A block
# holds at least one relation, both sides' tables 2 * n * p * 8 B, which is
# 2p/d times the embedding matrix. UMLS-shaped tables take
# 49 * 2 * 184 * 10 * 8 B, about 1.4 MB.
_TABLE_BYTES = 16 << 20
# Records per gather step: their u and v blocks (8192 * p * 8 B each) stay
# in cache for the one row contraction that scores them.
_STEP = 8192


@dataclass
class ScoringPlan:
    """What scoring the records (lhs, rel, rhs) takes that no parameter
    moves, for models of n symbols and output size p: the ids, checked
    once; ``rels``, the relations present, ascending; and per block of
    relations within ``_TABLE_BYTES``, the slice of ``rels`` it builds
    tables for, the records it scores (None: every record, in order) and
    each one's flat table rows, ``u`` of its lhs and ``v`` of its rhs, as
    int32 unless the tables reach 2**31 rows."""

    n: int
    p: int
    m: int
    rels: np.ndarray
    blocks: list[tuple[slice, np.ndarray | None, np.ndarray, np.ndarray]]


def scoring_plan(n: int, p: int, lhs: np.ndarray, rel: np.ndarray,
                 rhs: np.ndarray) -> ScoringPlan:
    """The ``ScoringPlan`` of the records (lhs[i], rel[i], rhs[i]) for
    models of n symbols and output size p. Record i's relation is the
    ``slot``-th present one; in its block's (r, 2, n, p) tables, u is the
    row ``2 * slot * n + lhs`` and v the row ``(2 * slot + 1) * n + rhs``,
    with ``slot`` counted from the block's first relation."""
    lhs, rel, rhs = np.asarray(lhs), np.asarray(rel), np.asarray(rhs)
    for ids in (lhs, rel, rhs):
        _check_ids(ids, n)
    if not len(lhs):   # all an empty table passes; it has no block size
        return ScoringPlan(n, p, 0, np.empty(0, dtype=np.intp), [])
    block = max(1, _TABLE_BYTES // (2 * n * p * 8))
    row = np.int32 if 2 * n * block < 2**31 else np.intp
    at = rel.astype(np.intp, copy=False)   # an int32 index gathers about 3x slower
    present = np.zeros(n, dtype=bool)
    present[at] = True
    slot = np.take((np.cumsum(present) - 1).astype(row), at)   # rank of each record's relation
    del at
    rels = np.flatnonzero(present)
    blocks = []
    for first in range(0, len(rels), block):
        if block >= len(rels):   # one block: every record, in order
            rows, u, lhs_ids, rhs_ids = None, slot, lhs, rhs
        else:
            rows = np.flatnonzero((slot >= first) & (slot < first + block))
            u, lhs_ids, rhs_ids = slot[rows] - first, lhs[rows], rhs[rows]
        u *= 2 * n   # the first row of the record's left table
        v = u + n
        u += lhs_ids
        v += rhs_ids
        blocks.append((slice(first, first + block), rows, u, v))
    return ScoringPlan(n, p, len(lhs), rels, blocks)


def energies_batch(emb: EmbeddingTable, params: Params,
                   lhs: np.ndarray, rel: np.ndarray, rhs: np.ndarray,
                   plan: ScoringPlan | None = None) -> np.ndarray:
    """Energies for parallel id arrays, from tables built once per call.

    For a fixed relation r both forms are affine maps of the entity
    embedding, side by side: ``u = maps[r, 0] @ e_lhs + off[r, 0]`` and
    ``v = maps[r, 1] @ e_rhs + off[r, 1]`` (see ``_relation_maps``), so u
    depends only on the (lhs, rel) pair and v only on the (rhs, rel) pair.
    One block of relations at a time within ``_TABLE_BYTES``, the block's
    maps are taken and applied to every symbol row,
    ``T[r, side, s] = maps[r, side] @ E[s] + off[r, side]``, and each of
    its records is two row gathers and a dot product. ``plan``, the records'
    ``scoring_plan``, is built here unless given; a caller that scores the
    same records again, as validation does every epoch, builds it once
    and passes it with those ids, of which only the count is read again.
    The SGD step calls ``_forward``/``backward`` instead: for its 32-pair
    batches the tables would cost more than the per-pair maps.
    """
    E = emb.vectors
    n = E.shape[0]
    if plan is None:
        plan = scoring_plan(n, params.p, lhs, rel, rhs)
    elif (plan.n, plan.p, plan.m) != (n, params.p, len(lhs)):
        raise ShapeError(f"scoring plan for {plan.m} records, n={plan.n} p={plan.p}: "
                         f"scoring {len(lhs)} records, n={n} p={params.p}")
    out = np.empty(plan.m)
    for blk, rows, u, v in plan.blocks:
        maps, offsets = _relation_maps(params, E, plan.rels[blk])
        # one GEMM per map, so a relation's rows do not depend on its block
        t = np.matmul(E, _t(maps))   # (r, 2, n, p)
        t += offsets[:, :, None, :]
        if rows is None:
            _gather_dot(t, u, v, out)
        else:
            out[rows] = _gather_dot(t, u, v, np.empty(len(rows)))
    return np.negative(out, out=out)


def _relation_maps(params: Params, E: np.ndarray,
                   rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 2, p, d) maps and (k, 2, p) offsets, by side, of the k
    relations whose embeddings are the rows ``rels`` of E. Linear: the
    entity-side weights, shared by every relation, and offsets
    ``W_2 e_r + b``. Bilinear: the maps ``W x3 e_r`` and the biases. Each
    relation product, ``W_2 e_r`` or ``W x3 e_r`` from the (2 * p * d, d)
    flattening of the weights, is a matrix-vector product of its own, so
    it is the same whichever relations the call holds."""
    p, d = params.p, params.d
    linear = isinstance(params, LinearParams)
    w = params.w_sides[:, 1] if linear else params.w_sides   # linear: relation weights
    rel_part = np.matmul(w.reshape(-1, d), E[rels, :, None])
    if linear:
        offsets = rel_part.reshape(-1, 2, p)
        offsets += params.b_sides
        return np.broadcast_to(params.w_sides[:, 0], (len(rels), 2, p, d)), offsets
    return rel_part.reshape(-1, 2, p, d), np.broadcast_to(params.b_sides, (len(rels), 2, p))


def _gather_dot(t, u, v, out) -> np.ndarray:
    """Into ``out``, the dot products of the rows ``u`` and ``v`` of the
    (r, 2, n, p) tables t flattened to rows, ``_STEP`` records at a time
    through two reused work buffers."""
    t = t.reshape(-1, t.shape[-1])
    m = len(u)
    buf_u, buf_v = (np.empty((min(m, _STEP), t.shape[1])) for _ in range(2))
    for start in range(0, m, _STEP):
        sl = slice(start, start + _STEP)
        size = len(u[sl])
        a = np.take(t, u[sl], out=buf_u[:size], **_TAKE)
        b = np.take(t, v[sl], out=buf_v[:size], **_TAKE)
        np.einsum("ij,ij->i", a, b, out=out[sl])
    return out
