"""Triple-file ingestion, symbol dictionary, and cross-validation folds.

File format (UTF-8 text, one record per line):

    <lhs>\\t<rel>\\t<rhs>\\t<label>

where the symbols are non-empty strings without tabs and label is 0 or 1.
Lines starting with '#' are ignored. A dataset manifest is a small JSON
file naming the triple file plus the fold count and split seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, IntegrityError, OutOfDictionaryError, ParseError


@dataclass(frozen=True)
class Triple:
    lhs: int
    rel: int
    rhs: int


class Dictionary:
    """Bijection between symbol strings and integer ids.

    Ids are assigned in order of first appearance in the data file, which
    makes them stable under serialization round-trips. ``relation_ids``
    marks the subset of ids seen in the relation slot; ``entity_ids`` the
    subset seen in an entity slot (the two may overlap).
    """

    def __init__(self):
        self.symbols: list[str] = []
        self._index: dict[str, int] = {}
        self.relation_ids: set[int] = set()
        self.entity_ids: set[int] = set()

    def __len__(self) -> int:
        return len(self.symbols)

    def intern(self, symbol: str) -> int:
        i = self._index.get(symbol)
        if i is None:
            i = len(self.symbols)
            self.symbols.append(symbol)
            self._index[symbol] = i
        return i

    def id_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise OutOfDictionaryError(f"unknown symbol: {symbol!r}") from None

    def is_relation(self, i: int) -> bool:
        return i in self.relation_ids

    @property
    def n_relations(self) -> int:
        return len(self.relation_ids)

    @property
    def n_entities(self) -> int:
        return len(self.entity_ids)

    def entity_id_array(self) -> np.ndarray:
        return np.array(sorted(self.entity_ids), dtype=np.int64)


@dataclass
class TripleSet:
    """Parallel arrays of (lhs, rel, rhs, label) records, optionally folded."""

    lhs: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    label: np.ndarray
    fold: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.fold is None:
            self.fold = np.full(len(self.lhs), -1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.lhs)

    def subset(self, mask: np.ndarray) -> "TripleSet":
        return TripleSet(self.lhs[mask], self.rel[mask], self.rhs[mask],
                         self.label[mask], self.fold[mask])

    @property
    def n_positive(self) -> int:
        return int(self.label.sum())

    @staticmethod
    def from_records(records) -> "TripleSet":
        rec = list(records)
        arr = np.array(rec, dtype=np.int64).reshape(len(rec), 4)
        return TripleSet(arr[:, 0].copy(), arr[:, 1].copy(),
                         arr[:, 2].copy(), arr[:, 3].copy())


def positives_of(ts: TripleSet) -> TripleSet:
    """Records with label 1, in their original order."""
    return ts.subset(ts.label == 1)


def load_triples(path) -> tuple[Dictionary, TripleSet]:
    """Read a triple file, building the dictionary as symbols appear."""
    path = Path(path)
    d = Dictionary()
    seen: set[tuple[int, int, int]] = set()
    records = []
    with path.open("r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}",
                                     path=str(path), line_no=line_no)
                s_lhs, s_rel, s_rhs, s_label = parts
                if not (s_lhs and s_rel and s_rhs):
                    raise ParseError("empty symbol", path=str(path), line_no=line_no)
                if s_label not in ("0", "1"):
                    raise ParseError(f"label must be 0 or 1, got {s_label!r}",
                                     path=str(path), line_no=line_no)
                lhs = d.intern(s_lhs)
                rel = d.intern(s_rel)
                rhs = d.intern(s_rhs)
                d.entity_ids.add(lhs)
                d.entity_ids.add(rhs)
                d.relation_ids.add(rel)
                key = (lhs, rel, rhs)
                if key in seen:
                    raise IntegrityError(
                        f"{path}:{line_no}: duplicate triple ({s_lhs}, {s_rel}, {s_rhs})")
                seen.add(key)
                records.append((lhs, rel, rhs, int(s_label)))
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path=str(path)) from None
    if not records:
        raise IntegrityError(f"{path}: no records")
    return d, TripleSet.from_records(records)


@dataclass
class FoldSplit:
    """K-way partition of a record set for cross-validation.

    Fold i serves as the test set; fold (i+1) mod K is held out for early
    stopping; the remaining K-2 folds are the training pool. With K=2 there
    is no remainder, so the validation fold doubles as the training pool.
    """

    k: int
    triples: TripleSet
    assignment: np.ndarray

    def roles(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Boolean masks over ``triples`` of fold i's (train, valid, test) records."""
        if not 0 <= i < self.k:
            raise ConfigError(f"fold index {i} outside [0, {self.k})")
        test = self.assignment == i
        valid = self.assignment == (i + 1) % self.k
        train = ~(test | valid) if self.k > 2 else valid
        return train, valid, test

    def fold_sets(self, i: int) -> tuple[TripleSet, TripleSet, TripleSet]:
        train, valid, test = self.roles(i)
        return self.triples.subset(train), self.triples.subset(valid), self.triples.subset(test)

    def fold_sizes(self) -> list[int]:
        return [int((self.assignment == i).sum()) for i in range(self.k)]


def make_folds(ts: TripleSet, k: int, seed: int) -> FoldSplit:
    """Seeded uniform permutation sliced into k near-equal folds."""
    n = len(ts)
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"fold count {k} exceeds record count {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    # first (n % k) folds get the extra record
    base, extra = divmod(n, k)
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        assignment[perm[start:start + size]] = i
        start += size
    ts = TripleSet(ts.lhs, ts.rel, ts.rhs, ts.label, assignment.copy())
    return FoldSplit(k, ts, assignment)


@dataclass
class Manifest:
    name: str
    triples_path: Path
    folds: int
    seed: int


def load_manifest(path) -> Manifest:
    """Read a manifest: a JSON object with string ``name`` and ``triples``
    (the triple file, relative to the manifest) and optional integer
    ``folds`` (default 10) and ``seed`` (default 0)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"manifest is not UTF-8 text ({exc.reason})", path=str(path)) from None
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError is a ValueError
        raise ParseError(f"invalid manifest JSON: {exc}", path=str(path)) from None
    if not isinstance(payload, dict):
        raise ParseError("manifest must be a JSON object", path=str(path))
    for key in ("name", "triples"):
        if key not in payload:
            raise ParseError(f"manifest missing key {key!r}", path=str(path))
        if not isinstance(payload[key], str) or not payload[key] or "\0" in payload[key]:
            raise ParseError(f"manifest {key!r} must be a non-empty string", path=str(path))
    folds, seed = (_manifest_int(payload, key, default, path)
                   for key, default in (("folds", 10), ("seed", 0)))
    if seed < 0:
        raise ParseError(f"manifest 'seed' must be >= 0, got {seed}", path=str(path))
    triples_path = (path.parent / payload["triples"]).resolve()
    return Manifest(payload["name"], triples_path, folds, seed)


def _manifest_int(payload: dict, key: str, default: int, path: Path) -> int:
    value = payload.get(key, default)
    # bool is an int subclass; a float would be truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"manifest {key!r} must be an integer, got {value!r:.40}",
                         path=str(path))
    return value
