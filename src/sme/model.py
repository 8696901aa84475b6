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
every array it writes and every view it reads, and the kernel, bound to
them once for the form when it is built; training builds one per stack of
models and keeps it while the stack does, and a one-call entry point
builds one over only the rows its batch names. Its ``forward`` gathers a
batch's rows once and leaves (2, m) energies in it; its ``backward``
writes the gradients of a weighted energy sum into its buffer laid out as
the parameters'. Both are numpy products written into its arrays, in
which the two sides run together and a relation row, its maps and its
weight products are computed once per pair; a stacked model's products
see the operands a single model would give them. The sums over a small
axis, each energy's p terms and each bias gradient's m pairs, are BLAS
GEMVs against ones (minus ones for the energies). Its ``step`` is the
SGD step: the margin hinge on the energies, then, for the pairs that
violate it, the gradient moves the parameters in place and is scattered
into the embedding rows the batch names; it checks nothing, and the
trainer checks each epoch's losses and parameters once. The bilinear
backward selects those pairs once, after the hinge, keeping pair order,
and runs its pair-sized products and the scatter on them alone; a stack
runs at its largest fold's count and pads the other folds with their
zero-weight pairs. Every model is bitwise what the whole batch gives, and
a fold alone bitwise that fold in any stack, by three shape rules, each
measured on OpenBLAS 0.3.31:
1. A product that sums over pairs, ``g_w_flat = aT @ er``, runs on the
   selection: with zero-weight terms dropped or padded at the end and pair
   order kept, a GEMM gives the same bits.
2. A product with one output row per pair, ``d_er = a @ w_flat``, keeps the
   batch's width m, the selected rows first: BLAS computes a matrix's tail
   rows with other kernels, so a row's bits depend on the row count, not
   on the row's position.
3. The bias sums stay GEMVs over all m pairs, so ``g_uv`` is full width
   and the selection gathers its rows after them: a GEMV over fewer terms,
   or over moved ones, groups them otherwise.
The linear form runs its whole batch: it has no per-pair map, and at its
sizes the gathers cost what the narrower products save. Validation, test and
bulk scoring use ``energies_batch``: for a fixed relation each form is an
affine map of the entity embedding on each side, read from the same
by-side views of the parameters as the kernel's, so every symbol row is
projected once per relation present in the call, both sides into one
table, the left side negated so that the energy's minus sign costs no
pass over the records, and each record is scored by two gathers from it,
in steps of a fixed number of bytes, not records. A
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


def _check_ids(ids: np.ndarray, n: int) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise LookupIdError(f"triple id outside embedding table [0, {n})")


def _t(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


class Workspace:
    """The state one SGD step reads and updates, for batches of m pairs of
    one model (E (n, d), params (P,)) or of a stack of K (E (K, n, d),
    params (K, P)): ``E`` and ``param_buf``, the caller's arrays, which the
    step updates in place, and every array it writes and view it reads.
    The kernel is bound here, once, for the form and to these arrays:
    ``forward``, ``backward`` and ``step`` are closures over every view they
    read and write, so a call runs only its numpy calls, each given its
    output positionally, and looks up no form, view or keyword argument.
    The workspace lives as long as E and the parameter buffer: rebuild it
    when either is replaced, as a stack that loses a fold is.
    ``forward(ids)`` gathers once the rows that the checked ids, in the
    pair layout (5, m), name (a stack's (K, 5, m) rows of ``flat``, its
    (K * n, d) view) and returns their (2, m) energies, the positives'
    first, a view it overwrites at its next call. ``backward(ids)`` writes
    the gradients of the energies weighted by ``-minus_w`` (2, m), of the
    pairs ``active`` (m,) or (K, m) marks, the pairs of nonzero weight: the
    parameters' into ``grad``, laid out as ``params``, and the rows' into a
    buffer in the pair layout. It returns the step's scatter, the flat
    element indices and those row gradients, or None when no pair is
    active. The bilinear backward runs on the selection, each fold's active
    pairs first in pair order, then its inactive ones, weighing 0, up to
    the stack's largest count k, m included: width k's arrays are prefix
    views of one full-width flat buffer each, so contiguous at any k, bound
    the first time a step has k active pairs in its widest fold. The module
    docstring gives the products that keep the full width, and why; the
    linear form runs every pair. A pair's two terms are summed before they
    meet its relation; a triple weighted 0 adds exact zeros to every sum.
    Layout by form: ``uv``, side (u, v), slot (positive, corruption) and
    pair, linear (2, 2, m, p), bilinear (m, 2, 2, p), the pair's ``maps``
    (m, 2, p, d) by side; a stack adds a leading K to each. A stack of one
    runs as one model, without that axis: the products then see the
    operands one model gives them, and batched matmuls over one matrix
    cost more than plain ones.
    ``step(counted, ids, margin, lr)`` is one mini-batch update of E and
    the parameter buffer; it returns each pair's ranking loss before it,
    with the caller's leading axes, a view it overwrites at its next call.
    A counted pair with a positive loss weighs +lr on its positive and -lr
    on its corruption; the others, and the pairs ``counted`` (m,) or
    (K, m) leaves out, which pad a fold's short or spent batch, weigh 0. An
    element takes its row gradients one by one, (E - g1) - g2, scattered
    through E as one axis, a view because E must be C-contiguous
    (ShapeError otherwise), so a step allocates only its selection's
    indices, nothing of its rows' size or of the table's. It checks
    nothing: its caller tests the losses and what was applied."""

    def __init__(self, E: np.ndarray, params: Params, m: int):
        if not E.flags.c_contiguous:   # the step's scatter would write to a copy
            raise ShapeError("a workspace's embeddings must be C-contiguous")
        outer, d, p = E.shape[:-2], E.shape[-1], params.p
        lead = () if outer == (1,) else outer
        self.E, self.param_buf = E, params.buf
        self.flat = E.reshape(-1, d)   # a stack's rows, all in one table
        self.grad = params.empty_like()
        param_buf, grad_buf = params.buf, self.grad.buf
        g = self.grad if lead == outer else self.grad[0]
        params = params if lead == outer else params[0]
        rows = np.empty((*lead, 5, m, d))
        # the step's scatter: row i of ``elements`` holds the flat indices
        # of embedding row i's elements, gathered for the batch's rows;
        # np.subtract.at takes its fast path on 1-D indices and values only
        elements = np.arange(E.size).reshape(-1, d)
        E_flat = E.reshape(-1)
        losses, active = np.empty((*lead, m)), np.empty((*lead, m), dtype=bool)
        self.active = active
        # the same two with the caller's leading axes
        losses_out, active_out = losses.reshape(*outer, m), active.reshape(*outer, m)
        minus_w = self.minus_w = np.empty((*lead, 2, m))
        minus_w_pos, minus_w_neg = minus_w[..., 0, :], minus_w[..., 1, :]
        # ids are range-checked before any table is indexed, so take's
        # "clip" mode never clips; it spares the buffered copy "raise" makes
        take, rows_in = self.flat.take, rows.reshape(*outer, 5, m, d)
        take_elements = elements.take
        matmul, multiply, add = np.matmul, np.multiply, np.add
        er = rows[..., 4, :, :]

        # the entity rows, or their gradients, pair by pair as (m, 2, 2, d),
        # side then slot
        def by_pair(r):
            return (r[..., 0:4, :, :].reshape(*lead, 2, 2, r.shape[-2], d)
                    .swapaxes(-2, -3).swapaxes(-3, -4))

        pairs = by_pair(rows)
        ones_m, minus_ones_p, g_b = np.ones(m), np.full(p, -1.0), g.b_sides
        prod_rows, e_rows = np.empty((*lead, 2 * m, p)), np.empty((*lead, 2 * m))
        if isinstance(params, LinearParams):
            d_rows = np.empty_like(rows)
            at = np.empty((*outer, 5, m, d), dtype=elements.dtype)
            at_flat, d_flat = at.reshape(-1), d_rows.reshape(-1)
            # the entity rows and their gradients as (2, 2m, d), lhs then rhs
            sides, d_sides = (r[..., 0:4, :, :].reshape(*lead, 2, 2 * m, d)
                              for r in (rows, d_rows))
            w = params.w_sides   # side, then its entity and relation weights
            uv = self.uv = np.empty((*lead, 2, 2, m, p))
            u, v, uv_swapped = uv[..., 0, :, :, :], uv[..., 1, :, :, :], uv[..., ::-1, :, :, :]
            uv_sides = uv.reshape(*lead, 2, 2 * m, p)
            w_ent, w_rel = w[..., 0, :, :], w[..., 1, :, :]
            w_entT, w_relT, er_b = _t(w_ent), _t(w_rel), er[..., None, :, :]
            rel_uv = np.empty((*lead, 2, m, p))   # W_2 e_r + b, by side
            rel_uv_b, b = rel_uv[..., None, :, :], params.b_sides[..., None, :]
            prod, energies = prod_rows.reshape(*lead, 2, m, p), e_rows.reshape(*lead, 2, m)
            minus_wb = minus_w[..., None, :, :, None]
            g_uv = np.empty_like(uv)
            g_pos, g_neg = g_uv[..., 0, :, :], g_uv[..., 1, :, :]
            g_entT = _t(g_uv.reshape(*lead, 2, 2 * m, p))
            g_ent = _t(g_entT)
            pair = np.empty((*lead, 2, m, p))   # gu and gv, summed by pair
            pairT = _t(pair)
            d_er = np.empty((*lead, 2, m, d))
            d_er_l, d_er_r, d_er_sum = d_er[..., 0, :, :], d_er[..., 1, :, :], d_rows[..., 4, :, :]
            g_w_ent, g_w_rel = g.w_sides[..., 0, :, :], g.w_sides[..., 1, :, :]

            def forward(ids):
                take(ids, 0, rows_in, "clip")
                matmul(sides, w_entT, uv_sides)
                matmul(er_b, w_relT, rel_uv)
                add(rel_uv, b, rel_uv)
                add(uv, rel_uv_b, uv)
                multiply(u, v, prod)
                matmul(prod_rows, minus_ones_p, e_rows)
                return energies

            def backward(ids):
                """The whole batch's backward, or None if no pair is active."""
                if not active.any():   # else a uv that overflowed would turn 0 x inf into NaN
                    return None
                # d/du of -w (u . v) is -w v, d/dv is -w u: g_uv is uv, sides swapped, times -w
                multiply(minus_wb, uv_swapped, g_uv)
                add(g_pos, g_neg, pair)
                matmul(ones_m, pair, g_b)
                matmul(g_entT, sides, g_w_ent)
                matmul(pairT, er_b, g_w_rel)
                matmul(g_ent, w_ent, d_sides)
                matmul(pair, w_rel, d_er)
                add(d_er_l, d_er_r, d_er_sum)
                take_elements(ids, 0, at, "clip")
                return at_flat, d_flat
        else:
            w_flat = params.w_sides.reshape(*lead, 2 * p * d, d)
            w_flatT = _t(w_flat)
            maps = self.maps = np.empty((*lead, m, 2, p, d))
            maps_flat, mapsT = maps.reshape(*lead, m, 2 * p * d), _t(maps)
            uv = self.uv = np.empty((*lead, m, 2, 2, p))
            u, v, uv_swapped = uv[..., 0, :, :], uv[..., 1, :, :], uv[..., ::-1, :, :]
            b = params.b_sides[..., None, :, None, :]
            prod, energies = prod_rows.reshape(*lead, m, 2, p), _t(e_rows.reshape(*lead, m, 2))
            minus_wb = _t(minus_w)[..., :, None, :, None]
            g_uv = np.empty_like(uv)
            g_uv_flat = g_uv.reshape(*lead, m, 4 * p)
            b_sums = np.empty((*lead, 2, 2, p))   # g_uv summed over the pairs
            b_sums_flat = b_sums.reshape(*lead, 4 * p)
            b_pos, b_neg = b_sums[..., 0, :], b_sums[..., 1, :]
            # a pair's two outer products gu x el, summed, flattened to 2 * p
            # * d; past a selection's k rows it holds earlier steps' values
            a = np.zeros((*lead, m, 2 * p * d))
            g_w_flat, d_er = g.w_sides.reshape(w_flat.shape), np.empty((*lead, m, d))

            def forward(ids):
                take(ids, 0, rows_in, "clip")
                # maps[n, side] is the (p, d) matrix the relation embedding er[n] selects
                matmul(er, w_flatT, maps_flat)
                matmul(pairs, mapsT, uv)
                add(uv, b, uv)
                multiply(u, v, prod)
                matmul(prod_rows, minus_ones_p, e_rows)
                return energies

            # The selection at width k, each fold's active pairs first in
            # pair order, then inactive ones, weighing 0, up to the stack's
            # largest count k: its arrays are prefix views of full-width
            # flat buffers, bound once per width, so contiguous at any k.
            sel_rows, sel_d_rows = np.empty((2, rows.size))
            sel_g_uv, sel_maps = np.empty(g_uv.size), np.empty(maps.size)
            sel_at = np.empty(rows.size, dtype=elements.dtype)
            g_uv_rows, maps_rows = g_uv.reshape(-1, 4 * p), maps.reshape(-1, 2 * p * d)
            # column f * m + j holds the flat index of fold f's pair j in
            # each of the 5 slots of a (K, 5, m) array
            cols = np.arange(math.prod(outer) * m)
            slot_table = cols + 4 * m * (cols // m) + np.arange(0, 5 * m, m)[:, None]
            copyto = np.copyto

            def prefix(buf, *shape):
                return buf[:math.prod(shape)].reshape(shape)

            def bind(k):
                """The backward over a selection of width k, taking the
                checked ids and the selected pairs' flat indices (*lead, k);
                the bias sums are run on every pair first (``backward``)."""
                rows_k, d_rows_k = (prefix(x, *lead, 5, k, d) for x in (sel_rows, sel_d_rows))
                at_k = prefix(sel_at, *lead, 5, k, d)
                g_uv_k = prefix(sel_g_uv, *lead, k, 4 * p)
                maps_k = prefix(sel_maps, *lead, k, 2 * p * d)
                pairs_k, d_pairs_k, er_k = by_pair(rows_k), by_pair(d_rows_k), rows_k[..., 4, :, :]
                g_uv_k4 = g_uv_k.reshape(*lead, k, 2, 2, p)
                maps_k4 = maps_k.reshape(*lead, k, 2, p, d)
                a_k = a[..., :k, :]
                a_outer, aT, g_uvT = a_k.reshape(*lead, k, 2, p, d), _t(a_k), _t(g_uv_k4)
                d_er_k, d_er_sel = d_rows_k[..., 4, :, :], d_er[..., :k, :]
                at_k_flat, d_k_flat = at_k.reshape(-1), d_rows_k.reshape(-1)

                def backward_k(ids, sel):
                    slots = slot_table.take(sel, 1)   # (5, *lead, k)
                    ids_k = ids.take(slots.swapaxes(0, 1) if lead else slots)
                    take(ids_k, 0, rows_k, "clip")
                    g_uv_rows.take(sel, 0, g_uv_k, "clip")
                    maps_rows.take(sel, 0, maps_k, "clip")
                    # u[n, i] = sum_jk w_l[i, j, k] el[n, j] er[n, k]: a pair's two
                    # outer products gu x el sum in one (p, 2) @ (2, d) product per
                    # side, and the sums meet the weights and er in one GEMM each;
                    # d_er takes every row of a, so its rows keep their bits
                    matmul(g_uvT, pairs_k, a_outer)
                    matmul(aT, er_k, g_w_flat)
                    matmul(a, w_flat, d_er)
                    matmul(g_uv_k4, maps_k4, d_pairs_k)
                    copyto(d_er_k, d_er_sel)
                    take_elements(ids_k, 0, at_k, "clip")
                    return at_k_flat, d_k_flat
                return backward_k

            widths = {}   # k: the bound backward of width k
            if lead:
                inactive, fold_pairs = np.empty_like(active), cols[::m, None]
                add_reduce, max_reduce = add.reduce, np.maximum.reduce

                def select():
                    k = int(max_reduce(add_reduce(active, -1)))
                    if not k:
                        return k, None
                    np.logical_not(active, inactive)
                    # stable: each fold's active pairs, then its inactive ones, in pair order
                    order = inactive.argsort(-1, "stable")[:, :k]
                    return k, add(order, fold_pairs, order)
            else:
                nonzero = np.nonzero

                def select():
                    sel = nonzero(active)[0]
                    return len(sel), sel

            def backward(ids):
                """The selection's backward, or None if no pair is active."""
                k, sel = select()
                if not k:   # else a uv that overflowed would turn 0 x inf into NaN
                    return None
                # the bias sums over every pair: a GEMV over fewer terms would
                # group them otherwise
                multiply(minus_wb, uv_swapped, g_uv)
                matmul(ones_m, g_uv_flat, b_sums_flat)
                add(b_pos, b_neg, g_b)
                return (widths.get(k) or widths.setdefault(k, bind(k)))(ids, sel)
        e_pos, e_neg = energies[..., 0, :], energies[..., 1, :]
        greater, bitwise_and, negative = np.greater, np.bitwise_and, np.negative
        subtract, subtract_at = np.subtract, np.subtract.at

        def step(counted, ids, margin, lr):
            forward(ids)
            ranking_loss(e_pos, e_neg, margin, losses)
            greater(losses, 0, active)
            bitwise_and(active_out, counted, active_out)
            multiply(active, -lr, minus_w_pos)   # the weights, negated
            negative(minus_w_pos, minus_w_neg)
            scatter = backward(ids)
            if scatter is not None:
                subtract(param_buf, grad_buf, param_buf)
                subtract_at(E_flat, *scatter)
            return losses_out
        self.forward, self.backward, self.step = forward, backward, step


def ranking_loss(e_pos, e_neg, margin: float, out: np.ndarray | None = None):
    """Hinge on energies, elementwise: positives must sit at least `margin`
    below their corruptions. ``out`` takes the result."""
    return np.maximum(0.0, np.subtract(np.add(margin, e_pos, out=out), e_neg, out=out), out=out)


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
    return ws.forward(at)[0], ws


@dataclass
class Gradients:
    """d(energy)/d(everything) of one triple: the parameter gradients, laid
    out as the parameters, and the gradients of its lhs, rel and rhs rows."""

    params: Params
    d_rows: np.ndarray   # (3, d)

    d_lhs = property(lambda self: self.d_rows[0])
    d_rel = property(lambda self: self.d_rows[1])
    d_rhs = property(lambda self: self.d_rows[2])


def _one(t: Triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array([t.lhs]), np.array([t.rel]), np.array([t.rhs])


def energy(t: Triple, emb: EmbeddingTable, params: Params) -> float:
    """Energy of a triple: -dot(g_left, g_right). Lower means more plausible."""
    e, _ = forward(emb.vectors, params, *_one(t))
    return float(e[0])


def energy_gradients(t: Triple, emb: EmbeddingTable, params: Params) -> Gradients:
    lhs, rel, rhs = _one(t)
    ws, _, ids = _batch_workspace(emb.vectors, params, np.stack((lhs, lhs, rhs, rhs, rel)))
    ws.forward(ids)
    ws.active[...] = True   # the one pair is the whole selection
    np.negative([[1.0], [0.0]], out=ws.minus_w)   # the triple weighs 1, its copy 0
    _, d_rows = ws.backward(ids)   # the one pair's row gradients, in the pair layout
    return Gradients(ws.grad, d_rows.reshape(5, -1)[[0, 4, 2]])   # lhs, rel, rhs


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
# Bytes of each of the two row blocks ``_gather_dot`` gathers a step, so a
# step holds ``_GATHER_BYTES // (8 * p)`` records: 3,276 at p = 10, 655 at
# p = 50. A record count fixed at every p would let the blocks grow with p.
# Measured on a 2-core x86 box with 2 MiB of L2 a core, whole-set scoring
# ran fastest at 2,048-3,072 records a step at p = 10 and at 512-640 at
# p = 50: both blocks together take a quarter of L2.
_GATHER_BYTES = 256 << 10
_SIDE_SIGN = np.array([[-1.0], [1.0]])   # left, right; times (2, p) offsets


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
    ranks = (np.cumsum(present) - 1).astype(row)
    slot = ranks.take(at, 0, None, "clip")   # rank of each record's relation
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
    its records is two row gathers and a dot product, a step of rows at a
    time within ``_GATHER_BYTES`` a block (``_gather_dot``). The energy's
    minus sign is taken on the left side's maps and offsets, so the left
    tables hold -u and the dots are the energies, with no pass over the
    output. An energy of exactly zero is +0, as einsum sums from +0, so
    callers take the scores in place as ``0.0 - energy``: -energy, but +0
    where negating would give -0. ``plan``, the records'
    ``scoring_plan``, is built here unless given; a caller that scores the
    same records again, as validation does every epoch, builds it once
    and passes it with those ids, of which only the count is read again.
    The SGD step calls ``Workspace.forward``/``backward`` instead: for its 32-pair
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
        # the energy's minus sign, on the left side's maps and offsets: each
        # u, so each product and partial sum of its dot, is negated exactly
        maps, offsets = maps * _SIDE_SIGN[..., None], offsets * _SIDE_SIGN
        # one GEMM per map, so a relation's rows do not depend on its block
        t = np.matmul(E, _t(maps))   # (r, 2, n, p)
        t += offsets[:, :, None, :]
        if rows is None:
            _gather_dot(t, u, v, out)
        else:
            out[rows] = _gather_dot(t, u, v, np.empty(len(rows)))
    return out


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
    (r, 2, n, p) tables t flattened to rows, a step of records at a time
    through two reused work buffers of at most ``_GATHER_BYTES`` each.
    Each record's row is summed alone, so the step size moves no bit."""
    p = t.shape[-1]
    t = t.reshape(-1, p)
    m, step = len(u), max(1, _GATHER_BYTES // (8 * p))
    buf_u, buf_v = (np.empty((min(m, step), p)) for _ in range(2))
    for start in range(0, m, step):
        sl = slice(start, start + step)
        size = len(u[sl])
        a = t.take(u[sl], 0, buf_u[:size], "clip")   # rows checked by the plan
        b = t.take(v[sl], 0, buf_v[:size], "clip")
        np.einsum("ij,ij->i", a, b, out=out[sl])
    return out
