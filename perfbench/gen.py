"""Seeded synthetic triple files with the canonical UMLS and Kinships shapes.

Every (lhs, rel, rhs) combination appears once, as in the canonical files,
and a fixed share of them is labelled positive. The labels come from a
planted bilinear semantic-matching model: each relation's positives are
its triples with the highest planted score plus Gaussian noise. Training
can therefore learn the structure, but not perfectly.

The planted model is also written as an ``SME1`` model file (layout in
``src/sme/modelfile.py``), so scoring workloads have a model to load
without training one. The file is written here rather than through
``sme.modelfile`` so that the inputs do not depend on the program under
test.

Run as a script: ``python3 perfbench/gen.py --shape umls --seed 1 --out DIR``
writes ``DIR/umls.tsv`` and ``DIR/umls.sme`` and prints one JSON line of
expected counts.
"""

from __future__ import annotations

import argparse
import json
import struct
from pathlib import Path

import numpy as np

# name: (entities, relations, positives, entity types);
# records = entities^2 * relations. The type count divides the entity count,
# so every type-by-type block of a relation holds as many triples.
SHAPES = {
    "umls": (135, 49, 6787, 9),        # 893,025 records, 0.76 % positive
    "kinships": (104, 26, 10799, 4),   # 281,216 records, 3.84 % positive
}
DIM = 10          # planted model: d = p = 10, the CLI defaults
NOISE = 0.1       # label noise, in units of each relation's score std
STRUCTURE_SEED = 0


def expected_inspect(shape: str) -> str:
    """The line `sme inspect` must print for a file of this shape."""
    n_ent, n_rel, n_pos, _ = SHAPES[shape]
    n = n_ent * n_ent * n_rel
    return (f"entities={n_ent} relations={n_rel} records={n} "
            f"valid={100.0 * n_pos / n:.3g}%")


def generate(shape: str, seed: int, out_dir: Path) -> dict:
    n_ent, n_rel, n_pos, n_types = SHAPES[shape]
    # The planted structure is one per shape; the seed draws which entities
    # share a type, which relation takes which relation vector, the label
    # noise and the record order. Every seed's data is then the same problem
    # under new names, so the quality a fixed number of epochs reaches
    # moves with the training's own randomness, not with how hard the seed's
    # structure happens to be.
    fixed = np.random.Generator(np.random.PCG64([STRUCTURE_SEED, n_ent, n_rel]))
    types = fixed.standard_normal((n_types, DIM))
    rel = fixed.standard_normal((n_rel, DIM))
    scale = 1.0 / np.sqrt(DIM)
    w_l = fixed.uniform(-scale, scale, (DIM, DIM, DIM))
    w_r = fixed.uniform(-scale, scale, (DIM, DIM, DIM))
    b_l = b_r = np.zeros(DIM)
    rng = np.random.Generator(np.random.PCG64([seed, n_ent, n_rel]))

    # Every entity takes its type's vector, so each relation scores whole
    # type-by-type blocks alike. Centring the vectors makes every relation's
    # scores average 0; scaling the relation vectors gives them unit spread.
    ent = types[rng.permutation(n_ent) % n_types]
    ent -= ent.mean(axis=0)
    rel = rel[rng.permutation(n_rel)]

    def planted(rel):   # (lhs, rel, rhs) -> -energy under the planted model
        u = np.einsum("pjk,rk,ej->rep", w_l, rel, ent)
        v = np.einsum("pjk,rk,ej->rep", w_r, rel, ent)
        return np.einsum("rap,rbp->arb", u, v)

    rel /= np.sqrt(planted(rel).std(axis=(0, 2)))[:, None]
    noisy = planted(rel) + NOISE * rng.standard_normal((n_ent, n_rel, n_ent))
    # Each relation gets an equal share of the positives: its best triples.
    label = np.zeros((n_ent, n_rel, n_ent), dtype=np.int8)
    base, extra = divmod(n_pos, n_rel)
    for k in range(n_rel):
        top = np.argpartition(-noisy[:, k, :].ravel(), base)[:base + (k < extra)]
        label[top // n_ent, k, top % n_ent] = 1

    lhs, r, rhs, label = (a.ravel() for a in (*np.indices(label.shape), label))
    order = rng.permutation(label.size)
    lhs, r, rhs, label = lhs[order], r[order], rhs[order], label[order]

    ent_names = [f"ent{i:03d}" for i in range(n_ent)]
    rel_names = [f"rel{i:02d}" for i in range(n_rel)]
    out_dir.mkdir(parents=True, exist_ok=True)
    tsv = out_dir / f"{shape}.tsv"
    with tsv.open("w", encoding="utf-8") as fh:
        fh.writelines(f"{ent_names[a]}\t{rel_names[b]}\t{ent_names[c]}\t{y}\n"
                      for a, b, c, y in zip(lhs.tolist(), r.tolist(),
                                            rhs.tolist(), label.tolist()))

    # Symbol ids in order of first appearance, as the loader assigns them;
    # entity k is symbol k, relation k is symbol n_ent + k.
    stream = np.stack([lhs, r + n_ent, rhs], axis=1).ravel()
    uniq, first = np.unique(stream, return_index=True)
    symbol_order = uniq[np.argsort(first)]
    names = ent_names + rel_names
    table = np.concatenate([ent, rel])
    _write_sme1(out_dir / f"{shape}.sme",
                [names[s] for s in symbol_order],
                symbol_order >= n_ent, table[symbol_order],
                (w_l, w_r, b_l, b_r))
    return {"shape": shape, "seed": seed, "entities": n_ent,
            "relations": n_rel, "records": int(label.size), "positives": n_pos,
            "inspect": expected_inspect(shape)}


def _write_sme1(path: Path, symbols, is_relation, vectors, arrays) -> None:
    out = bytearray(b"SME1")
    out += struct.pack("<BIII", 1, DIM, DIM, len(symbols))   # form 1 = bilinear
    for s in symbols:
        raw = s.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += np.packbits(np.asarray(is_relation, dtype=np.uint8),
                       bitorder="little").tobytes()
    for a in (vectors, *arrays):
        out += np.ascontiguousarray(a, dtype="<f8").tobytes()
    path.write_bytes(bytes(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.shape, args.seed, args.out)))


if __name__ == "__main__":
    main()
