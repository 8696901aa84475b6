"""Independent oracles used by the tests.

Everything here is written as plain loops, straight from the definitions,
on purpose: these functions must not share code paths with the package.
"""

import numpy as np


def matvec_loop(m, v):
    rows, cols = m.shape
    out = np.zeros(rows)
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += m[i, j] * v[j]
        out[i] = acc
    return out


def dot_loop(a, b):
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def mode3_loop(t, v):
    p, d, k = t.shape
    out = np.zeros((p, d))
    for i in range(p):
        for j in range(d):
            for kk in range(k):
                out[i, j] += t[i, j, kk] * v[kk]
    return out


def energy_linear_formula(e_lhs, e_rel, e_rhs, w_l1, w_l2, w_r1, w_r2, b_l, b_r):
    """Straight-line evaluation of the displayed linear energy."""
    left = matvec_loop(w_l1, e_lhs) + matvec_loop(w_l2, e_rel) + b_l
    right = matvec_loop(w_r1, e_rhs) + matvec_loop(w_r2, e_rel) + b_r
    return -dot_loop(left, right)


def energy_bilinear_formula(e_lhs, e_rel, e_rhs, w_l, w_r, b_l, b_r):
    """Straight-line evaluation of the displayed bilinear energy."""
    left = matvec_loop(mode3_loop(w_l, e_rel), e_lhs) + b_l
    right = matvec_loop(mode3_loop(w_r, e_rel), e_rhs) + b_r
    return -dot_loop(left, right)


def finite_difference(f, x, step=1e-5):
    """Central finite-difference gradient of scalar f at flat array x."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        orig = x[i]
        x[i] = orig + step
        f_plus = f()
        x[i] = orig - step
        f_minus = f()
        x[i] = orig
        g[i] = (f_plus - f_minus) / (2.0 * step)
    return g


def auc_pr_enumeration(scores, labels):
    """Exhaustive threshold-enumeration AUC-PR with the documented tie and
    trapezoid rules: one threshold per distinct score, descending; curve
    starts at (recall 0, precision 1); trapezoids over recall."""
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    assert n_pos > 0 and n_neg > 0
    thresholds = sorted(set(scores), reverse=True)
    points = [(0.0, 1.0)]
    for t in thresholds:
        tp = fp = 0
        for s, y in zip(scores, labels):
            if s >= t:
                if y == 1:
                    tp += 1
                else:
                    fp += 1
        points.append((tp / n_pos, tp / (tp + fp)))
    area = 0.0
    for (r1, p1), (r2, p2) in zip(points, points[1:]):
        area += (r2 - r1) * (p2 + p1) / 2
    return area


def pr_curve_enumeration(scores, labels):
    """The stored PR curve, from the definition: one threshold per distinct
    score, descending, each giving the point (tp / positives, tp / records
    scored at least it) after the start (recall 0, precision 1); of each run
    of consecutive points with equal recall only the first and the last are
    kept. Returns (recall list, precision list)."""
    n_pos = sum(1 for y in labels if y == 1)
    points = [(0.0, 1.0)]
    for t in sorted(set(scores), reverse=True):
        tp = seen = 0
        for s, y in zip(scores, labels):
            if s >= t:
                seen += 1
                if y == 1:
                    tp += 1
        points.append((tp / n_pos, tp / seen))
    kept = []
    for i, (r, p) in enumerate(points):
        first = i == 0 or points[i - 1][0] != r
        last = i == len(points) - 1 or points[i + 1][0] != r
        if first or last:
            kept.append((r, p))
    return [r for r, _ in kept], [p for _, p in kept]


def load_triples_loop(path, n_fields):
    """Line-by-line reader of a file of ``n_fields``-field lines, 3 or 4, by
    the documented rules: lines end in \\n, \\r\\n or \\r; blank lines and
    lines whose first character is '#' are skipped; every other line is
    lhs, rel and rhs, and at 4 fields a label, tab separated, with non-empty
    symbols and the label "0" or "1"; the first repeat of a (lhs, rel, rhs)
    is an error. Symbol ids follow first appearance. Returns ("ok", symbols,
    relation ids, entity ids, (m, n_fields) int64 records), or (error class
    name, message) for the first bad line."""
    index, records, seen = {}, [], set()
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw[:-1] if raw.endswith("\n") else raw
                if line == "" or line[0] == "#":
                    continue
                where = f"{path}:{line_no}: "
                fields = line.split("\t")
                if len(fields) != n_fields:
                    return ("ParseError",
                            f"{where}expected {n_fields} tab-separated fields, got {len(fields)}")
                if "" in fields[:3]:
                    return ("ParseError", f"{where}empty symbol")
                if n_fields == 4 and fields[3] not in ("0", "1"):
                    return ("ParseError", f"{where}label must be 0 or 1, got {fields[3]!r}")
                ids = tuple(index.setdefault(s, len(index)) for s in fields[:3])
                if ids in seen:
                    return ("IntegrityError",
                            f"{where}duplicate triple ({fields[0]}, {fields[1]}, {fields[2]})")
                seen.add(ids)
                records.append(ids + tuple(map(int, fields[3:])))
    except UnicodeDecodeError as exc:
        return ("ParseError", f"{path}: not UTF-8 text ({exc.reason})")
    if not records:
        return ("IntegrityError", f"{path}: no records")
    relation_ids = {r[1] for r in records}
    entity_ids = {r[0] for r in records} | {r[2] for r in records}
    return ("ok", list(index), relation_ids, entity_ids,
            np.array(records, dtype=np.int64).reshape(-1, n_fields))


def fold_masks(split, i):
    """Full-length boolean masks of fold i's whole training set, validation
    set and test set over the fold of each record: the test fold is i, the
    validation fold (i + 1) mod K, and the training folds all others, or
    with K = 2 the validation fold."""
    k, n = split.k, len(split.triples)
    a = np.full(n, -1)
    for j, rows in enumerate(split.members):
        a[rows] = j
    valid = (i + 1) % k
    in_train = np.zeros(n, dtype=bool)
    for j in range(k):
        if j not in (i, valid) or (k == 2 and j == valid):
            in_train |= a == j
    return in_train, a == valid, a == i


def fold_sets_by_masks(split, i):
    """Fold i's training positives, validation records and test records,
    each as (lhs, rel, rhs, label) arrays selected by ``fold_masks``; the
    positives are the label-1 records of the whole training set."""
    ts = split.triples
    in_train, valid, test = fold_masks(split, i)
    return [tuple(column[mask] for column in (ts.lhs, ts.rel, ts.rhs, ts.label))
            for mask in (in_train & (ts.label == 1), valid, test)]
