"""Triple-file ingestion, symbol dictionary, and cross-validation folds.

File format (UTF-8 text, one record per line):

    <lhs>\\t<rel>\\t<rhs>\\t<label>

where the symbols are non-empty strings without tabs and the label is the
one character 0 or 1. Lines end in \\n, \\r\\n or \\r. A line whose first
character is '#' is a comment; comment and blank lines are skipped but
count towards line numbers. A repeated (lhs, rel, rhs) is an error.

The loader streams the file in text blocks of about ``_BLOCK`` characters,
each extended to the end of its last line. Each block is checked by
whole-block numpy operations, with no Python loop over its records. Its
symbols are read as 64-bit words, hashed and looked up in a table of the
symbols seen; the ones it misses are sorted by hash and compared word for
word, and only the first of each run of equal ones becomes a Python string
and a dictionary lookup. A hash collision costs one more lookup, never a
wrong id. Time and memory stay linear in a block's bytes, and memory stays
near one block plus the id arrays.
A dataset manifest is a small JSON file naming the triple file plus the
fold count and split seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IntegrityError, ParseError


@dataclass(frozen=True)
class Triple:
    lhs: int
    rel: int
    rhs: int


class Dictionary:
    """Bijection between symbol strings and integer ids: id i is ``symbols[i]``.

    Ids are assigned in order of first appearance in the data file, which
    makes them stable under serialization round-trips. ``relation_ids``
    marks the subset of ids seen in the relation slot; ``entity_ids`` the
    subset seen in an entity slot (the two may overlap).
    """

    def __init__(self, symbols: list[str], relation_ids: set[int], entity_ids: set[int]):
        self.symbols = symbols
        self.relation_ids = relation_ids
        self.entity_ids = entity_ids

    def __len__(self) -> int:
        return len(self.symbols)

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
    """Parallel arrays of (lhs, rel, rhs, label) records."""

    lhs: np.ndarray
    rel: np.ndarray
    rhs: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.lhs)

    def subset(self, rows: np.ndarray) -> "TripleSet":
        """The records a boolean mask or an index array selects."""
        return TripleSet(self.lhs[rows], self.rel[rows], self.rhs[rows], self.label[rows])

    @property
    def n_positive(self) -> int:
        return int(self.label.sum())


def positives_of(ts: TripleSet) -> TripleSet:
    """Records with label 1, in their original order."""
    return ts.subset(ts.label == 1)


# Characters read per block. Each block also holds its last line's rest, so
# a line longer than this makes a longer block.
_BLOCK = 1 << 20
_TAB, _NL, _HASH, _ZERO, _ONE = b"\t\n#01"


class _Interner(dict):
    """Symbol -> id; an unseen symbol gets the next id, so ids follow first
    appearance. It also holds a direct-mapped table of interned symbols, at
    most one a slot and no probing: a symbol's slot, the high bits of its
    ``_token_hash``, holds that hash, its length in bytes (0: a free slot),
    first word, id and where its later words start in ``rest``. A table of
    fewer than 4 slots a symbol is replaced by an empty one that large."""

    def __init__(self):
        super().__init__()
        self._resize(0)

    def __missing__(self, symbol: str) -> int:
        self[symbol] = i = len(self)
        return i

    def _resize(self, n: int) -> None:
        bits = (4 * n - 1).bit_length()   # the next power of two >= 4 n slots
        self.shift = np.uint64(64 - bits)
        self.hash, self.word = np.zeros((2, 1 << bits), np.uint64)
        self.length, self.id, self.rest_at = np.zeros((3, 1 << bits), np.int64)
        self.rest = np.empty(0, np.uint64)

    def find(self, hashes, length, word, long, rest, first_rest):
        """Each token's id in the table, and the tokens it misses: those
        whose slot's symbol differs in length, hash or any word."""
        slot = (hashes >> self.shift).view(np.int64)
        hit = (self.length[slot] == length) & (self.hash[slot] == hashes) & (self.word[slot] == word)
        j = np.flatnonzero(hit[long])   # long hits, whose later words must match too
        hit[long[j]] = ~_differ(rest, first_rest, j, self.rest, self.rest_at[slot[long[j]]])
        return self.id[slot], np.flatnonzero(~hit)

    def store(self, tokens, ids, hashes, length, word, long, rest, first_rest) -> None:
        """Write ``tokens``, of known ``ids``, into their slots where free,
        the first to a slot winning."""
        if 4 * len(self) > len(self.id):
            self._resize(len(self))
        slot = (hashes[tokens] >> self.shift).view(np.int64)
        free = np.flatnonzero(self.length[slot] == 0)
        put = free[np.unique(slot[free], return_index=True)[1]]
        t, s, i = tokens[put], slot[put], ids[put]
        self.hash[s], self.length[s], self.word[s], self.id[s] = hashes[t], length[t], word[t], i
        k = np.searchsorted(long, t[length[t] > _WORD])   # the long tokens written
        at, sub = _spans(first_rest[k], np.diff(first_rest, append=len(rest))[k])
        self.rest_at[s[length[t] > _WORD]] = sub + len(self.rest)
        self.rest = np.concatenate((self.rest, rest[at]))


class _Block(NamedTuple):
    """The records of one block: their (m, 3) ids and labels (as bools), the
    block's first line (0-based, in the file) and each record's line in it."""

    ids: np.ndarray
    label: np.ndarray
    first_line: int
    lines: np.ndarray


def load_triples(path) -> tuple[Dictionary, TripleSet]:
    """Read a triple file, building the dictionary as symbols appear.

    The first line that breaks the format or repeats an earlier record
    raises ParseError or IntegrityError with its 1-based line number."""
    path = Path(path)
    symbols = _Interner()
    blocks: list[_Block] = []
    error = None
    first_line = 0
    with path.open("r", encoding="utf-8") as fh:
        try:
            for text in _blocks(fh, path):
                block, bad, n_lines = _parse_block(text, symbols, first_line)
                blocks.append(block)
                if bad is not None:
                    raise ParseError(_line_error(text.split("\n", bad + 1)[bad]),
                                     path=str(path), line_no=first_line + bad + 1)
                first_line += n_lines
        except ParseError as exc:
            error = exc
    ids = [b.ids for b in blocks] or [np.empty((0, 3), np.int64)]
    lhs, rel, rhs = (np.concatenate([a[:, j] for a in ids]) for j in range(3))
    # only records before the bad line were kept, so a repeat precedes it
    repeat = _first_repeat(lhs, rel, rhs, len(symbols))
    if repeat is not None:
        names = list(symbols)
        line = np.concatenate([b.first_line + b.lines for b in blocks])[repeat]
        raise IntegrityError(f"{path}:{line + 1}: duplicate triple ({names[lhs[repeat]]}, "
                             f"{names[rel[repeat]]}, {names[rhs[repeat]]})")
    if error is not None:
        raise error
    if not len(lhs):
        raise IntegrityError(f"{path}: no records")
    n = len(symbols)
    relation_ids = set(np.flatnonzero(np.bincount(rel, minlength=n)).tolist())
    entity_ids = set(np.flatnonzero(np.bincount(lhs, minlength=n)
                                    + np.bincount(rhs, minlength=n)).tolist())
    label = np.concatenate([b.label for b in blocks]).astype(np.int64)
    return Dictionary(list(symbols), relation_ids, entity_ids), TripleSet(lhs, rel, rhs, label)


def _blocks(fh, path: Path):
    """The file's text in blocks of whole lines, each ending in a newline."""
    try:
        while text := fh.read(_BLOCK):
            text += fh.readline()
            yield text if text.endswith("\n") else text + "\n"
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=str(path)) from None


def _parse_block(text: str, symbols: _Interner, first_line: int):
    """Check and intern one block. Returns its records up to its first bad
    line, the index of that line in the block, or None, and the block's
    line count. A record line is one that is neither blank nor a comment;
    it is bad unless it has three tabs, non-empty symbols and a label of one
    character, 0 or 1."""
    # zero bytes past the end, so a token's last word can be read whole
    raw = text.encode("utf-8") + bytes(_WORD)
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == _NL)
    tabs = np.flatnonzero(b == _TAB)
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines = np.flatnonzero((ends > starts) & (b[starts] != _HASH))
    upto = np.searchsorted(tabs, ends)   # tabs before each line's end
    n_tabs = np.diff(upto, prepend=0)[lines]
    upto = upto[lines]
    kept = len(lines) if (n_tabs == 3).all() else int(np.argmax(n_tabs != 3))
    t1, t2, t3 = (tabs[upto[:kept] - k] for k in (3, 2, 1))
    at = t3 + 1   # the label's byte
    label = b[at]
    good = ((t1 > starts[lines[:kept]]) & (t2 > t1 + 1) & (t3 > t2 + 1)
            & (ends[lines[:kept]] == at + 1) & ((label == _ZERO) | (label == _ONE)))
    if not good.all():
        kept = int(np.argmin(good))
    bad = int(lines[kept]) if kept < len(lines) else None
    lines = lines[:kept]
    # each kept record's lhs, rel and rhs byte ranges, in file order
    start = np.stack((starts[lines], t1[:kept] + 1, t2[:kept] + 1), axis=1).ravel()
    length = np.stack((t1[:kept], t2[:kept], t3[:kept]), axis=1).ravel() - start
    label, n_lines = label[:kept] == _ONE, len(ends)
    # free the line arrays first, so that interning can reuse their memory
    del ends, tabs, starts, upto, n_tabs, t1, t2, t3, at, good
    ids = _intern(raw, start, length, symbols)
    block = _Block(ids.reshape(-1, 3), label, first_line, lines)
    return block, bad, n_lines


_WORD = 8   # bytes per word of a token
# _KEEP[r] keeps the first r bytes of a little-endian word
_KEEP = np.array([(1 << 8 * r) - 1 for r in range(_WORD + 1)], dtype=np.uint64)


def _intern(raw: bytes, start: np.ndarray, length: np.ndarray, symbols: _Interner) -> np.ndarray:
    """The ids of the tokens ``raw[start:start + length]`` (non-empty UTF-8,
    ``raw`` running at least 7 bytes past each), interning new symbols in
    order of first appearance.

    A token is read as little-endian words, its last zero-padded, hashed
    and looked up once in the table of ``symbols``. The tokens it misses are
    sorted by hash, equal hashes in order of appearance, and each is
    compared by length and word for word with the token before it. Only the
    first token of each run of equal tokens is decoded, looked up and
    stored in the table, so a hash collision can only split runs: it costs
    a lookup, never a wrong id."""
    b = np.frombuffer(raw, dtype=np.uint8)
    every = np.ndarray(len(b) - (_WORD - 1), dtype="<u8", buffer=b, strides=(1,))
    word = every[start]   # each token's first word
    word &= _KEEP[np.minimum(length, _WORD)]
    long = np.flatnonzero(length > _WORD)
    rest, left, first_rest = _later_words(every, start[long], length[long])
    hashes = _token_hash(word, length, long, rest, left, first_rest)
    ids, miss = symbols.find(hashes, length, word, long, rest, first_rest)
    n = len(miss)
    bits = n.bit_length()
    low = np.uint64((1 << bits) - 1)   # a key's low bits: its index in miss
    keys = hashes[miss]
    keys &= ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    order = miss[(keys & low).view(np.int64)]   # the misses by hash, then appearance
    keys >>= np.uint64(bits)
    size, first = length[order], word[order]
    new = np.empty(n, dtype=bool)   # whether each sorted token starts a run
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    new[1:] |= (size[1:] != size[:-1]) | (first[1:] != first[:-1])
    pair = np.flatnonzero(~new[1:] & (size[1:] > _WORD)) + 1
    a, c = (np.searchsorted(long, order[p]) for p in (pair, pair - 1))
    new[pair] = _differ(rest, first_rest, a, rest, first_rest[c])
    heads = order[new]
    seen = np.argsort(heads)   # the runs in order of their first tokens
    firsts = heads[seen]
    names = [raw[i:j].decode("utf-8")
             for i, j in zip(start[firsts].tolist(), (start[firsts] + length[firsts]).tolist())]
    run_id = np.empty(len(heads), dtype=np.int64)
    run_id[seen] = np.fromiter(map(symbols.__getitem__, names), dtype=np.int64, count=len(names))
    ids[order] = run_id[np.cumsum(new) - 1]
    symbols.store(firsts, run_id[seen], hashes, length, word, long, rest, first_rest)
    return ids


def _later_words(every: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The words after the first of tokens longer than a word, the last
    zero-padded; the token bytes left from each on; and the index of each
    token's second word. ``every[i]`` is the word at byte i."""
    count = (length - 1) // _WORD
    first_rest = np.cumsum(count) - count
    at = np.repeat(start + _WORD * (1 - first_rest), count)
    at += np.arange(0, _WORD * len(at), _WORD)
    left = np.repeat(start + length, count)
    left -= at
    words = every[at]
    words &= _KEEP[np.minimum(left, _WORD)]
    return words, left, first_rest


def _mix(words: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Each word mixed with the token bytes left from it on, by SplitMix64's
    finalizer."""
    x = left.astype(np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x ^= words
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _token_hash(word, length, long, rest, left, first_rest) -> np.ndarray:
    """A 64-bit hash of each token: the wrapping sum of its words, each
    mixed with the bytes left from it on, so the length and word order
    count. ``word`` holds each token's first word; ``rest`` the later
    words of the tokens that ``long`` indexes."""
    h = _mix(word, length)
    if len(rest):
        h[long] += np.add.reduceat(_mix(rest, left), first_rest)
    return h


def _spans(first: np.ndarray, count: np.ndarray):
    """The positions ``first[i] .. first[i] + count[i] - 1``, span after
    span, and where each span starts among them."""
    sub = np.cumsum(count) - count
    return np.repeat(first - sub, count) + np.arange(count.sum()), sub


def _differ(rest, first_rest, a, other, at) -> np.ndarray:
    """Whether long token a[i] differs in a later word from ``other[at[i]:]``."""
    count = np.diff(first_rest, append=len(rest))[a]
    pos, sub = _spans(first_rest[a], count)
    return np.logical_or.reduceat(rest[pos] != other[_spans(at, count)[0]], sub)


def _line_error(line: str) -> str:
    """Why a bad record line is bad, checking in the order the format lists."""
    parts = line.split("\t")
    if len(parts) != 4:
        return f"expected 4 tab-separated fields, got {len(parts)}"
    if not all(parts[:3]):
        return "empty symbol"
    return f"label must be 0 or 1, got {parts[3]!r}"


def _first_repeat(lhs, rel, rhs, n: int) -> int | None:
    """Index of the first record equal to an earlier one, or None."""
    # packed keys wrap past 2**21 symbols, but equal records always get
    # equal keys, so distinct keys prove there is no repeat
    keys = (lhs * n + rel) * n + rhs
    keys.sort()
    if not (keys[1:] == keys[:-1]).any():
        return None
    order = np.lexsort((rhs, rel, lhs))   # stable: equal records keep file order
    later, earlier = order[1:], order[:-1]
    same = (lhs[later] == lhs[earlier]) & (rel[later] == rel[earlier]) & (rhs[later] == rhs[earlier])
    return int(later[same].min()) if same.any() else None


@dataclass
class FoldSplit:
    """K-way partition of a record set for cross-validation.

    Fold i serves as the test set; fold (i+1) mod K is held out for early
    stopping; the remaining K-2 folds are the training pool. With K=2 there
    is no remainder, so the validation fold doubles as the training pool.
    ``members[j]`` holds fold j's record indices and ``positives[j]`` those
    of its positives, each ascending, made once with the split.
    """

    k: int
    triples: TripleSet
    members: list[np.ndarray]
    positives: list[np.ndarray]

    def role_folds(self, i: int) -> tuple[list[int], int]:
        """Fold i's training folds and its validation fold."""
        if not 0 <= i < self.k:
            raise ConfigError(f"fold index {i} outside [0, {self.k})")
        valid = (i + 1) % self.k
        return [j for j in range(self.k) if j not in (i, valid)] or [valid], valid

    def fold_sets(self, i: int) -> tuple[TripleSet, TripleSet, TripleSet]:
        """Fold i's training positives (the trainer draws its negatives by
        corruption), validation records and test records, each in record
        order: the trainer's permutations index into them."""
        train, valid = self.role_folds(i)
        rows = np.sort(np.concatenate([self.positives[j] for j in train]))
        return tuple(map(self.triples.subset, (rows, self.members[valid], self.members[i])))


def make_folds(ts: TripleSet, k: int, seed: int) -> FoldSplit:
    """Seeded uniform permutation sliced into k near-equal folds."""
    n = len(ts)
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"fold count {k} exceeds record count {n}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    # fold i takes the next n // k records of the permutation, and the first
    # n % k folds one more each
    sizes = n // k + (np.arange(k) < n % k)
    members = [np.sort(fold) for fold in np.split(perm, np.cumsum(sizes)[:-1])]
    return FoldSplit(k, ts, members, [m[ts.label[m] == 1] for m in members])


@dataclass
class Manifest:
    """A dataset's name, triple file, fold count and split seed."""

    name: str
    triples_path: Path
    folds: int = 10
    seed: int = 0


def load_manifest(path) -> Manifest:
    """Read a manifest: a JSON object with string ``name`` and ``triples``
    (the triple file, relative to the manifest) and optional integer
    ``folds`` (at least 2) and ``seed`` (at least 0), defaulting to
    ``Manifest``'s."""
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
    folds, seed = (_manifest_int(payload, key, least, path)
                   for key, least in (("folds", 2), ("seed", 0)))
    triples_path = (path.parent / payload["triples"]).resolve()
    return Manifest(payload["name"], triples_path, folds, seed)


def _manifest_int(payload: dict, key: str, least: int, path: Path) -> int:
    value = payload.get(key, getattr(Manifest, key))
    # bool is an int subclass; a float would be truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"manifest {key!r} must be an integer, got {value!r:.40}",
                         path=str(path))
    if value < least:
        raise ParseError(f"manifest {key!r} must be >= {least}, got {value}", path=str(path))
    return value
