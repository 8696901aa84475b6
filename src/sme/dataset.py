"""Triple-file ingestion, symbol dictionary, and cross-validation folds.

File format (UTF-8 text, one record per line):

    <lhs>\\t<rel>\\t<rhs>\\t<label>

where the symbols are non-empty strings without tabs and the label is the
one character 0 or 1. Lines end in \\n, \\r\\n or \\r. A line whose first
character is '#' is a comment; comment and blank lines are skipped but
count towards line numbers. A repeated (lhs, rel, rhs) is an error.
``read_records`` reads ``sme score``'s arguments as 3-field lines, with no
label, up to the first that is none, empty, '#'-led or holds a line end.

The loader reads the file's bytes in blocks of whole lines, about
``_BLOCK`` bytes each, into one reused buffer. A block is checked as UTF-8
only if it is not ASCII, and its \\r\\n and \\r line ends become \\n only
if it has a \\r. Each block is checked by whole-block numpy operations,
with no Python loop over its records: one scan finds its tabs and
newlines. Its symbols are read as 64-bit words, hashed and looked up in a
table of the symbols seen, probing past a slot that another symbol holds;
the new ones are sorted by hash and compared word for word, and only the
first of each run of equal ones becomes a Python string and a dictionary
lookup. A hash collision costs one more lookup, never a wrong id. Time and
memory stay linear in a block's bytes.

The records keep the widths they are parsed in: int32 ids and one-byte
labels, 13 B a record. Memory stays near one block plus the records' ids
twice, while the columns are assembled from the blocks. A caller that
indexes an array by the ids of many records widens them to ``np.intp``
first: numpy gathers by an int32 index about 3x slower, more than the
widening costs.
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
    """Parallel arrays of (lhs, rel, rhs, label) records. ``load_triples``
    gives int32 ids and int8 labels (0 or 1), 13 B a record; any integer
    columns score and train alike, bitwise."""

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


# Bytes read per block; a block also holds the unfinished line the one
# before left, so a line longer than this makes a longer block.
_BLOCK = 1 << 19
_TAB, _NL, _HASH, _ZERO, _ONE = b"\t\n#01"


class _Interner(dict):
    """Symbol -> id; an unseen symbol gets the next id, so ids follow first
    appearance. It also keeps each symbol's ``_token_hash``, length in bytes,
    first word and where its later words start in ``rest``, in id order and
    with an unused entry of length 0 after the last, and a table of ids, -1
    in a free slot, at 4 or more slots a symbol. A symbol sits in the first
    free slot from its home slot, the high bits of its hash, at most
    ``probe`` slots on (linear probing)."""

    def __init__(self):
        super().__init__()
        self.hash, self.word = np.zeros((2, 1), np.uint64)
        self.length, self.rest_at = np.zeros((2, 1), np.int64)
        self.rest = np.empty(0, np.uint64)
        self.id, self.shift, self.probe = np.full(2, -1), np.uint64(63), 0

    def __missing__(self, symbol: str) -> int:
        self[symbol] = i = len(self)
        return i

    def _same(self, ids, t, length, word, long, rest, first_rest):
        """Whether the tokens ``t``, an index array or ``...`` for all, are
        the symbols ``ids`` (-1: the unused entry): their lengths and words
        are equal, so their hashes need no comparing."""
        size = length[t]
        same = (self.length[ids] == size) & (self.word[ids] == word[t])
        if len(rest):   # a long token's later words must match too
            j = long[same[long]] if t is ... else np.flatnonzero(same & (size > _WORD))
            a = np.flatnonzero(same[long]) if t is ... else np.searchsorted(long, t[j])
            same[j] = ~_differ(rest, first_rest, a, self.rest, self.rest_at[ids[j]])
        return same

    def find(self, hashes, length, word, long, rest, first_rest):
        """Each token's id in the table, and the tokens it misses. A token
        whose home slot holds another symbol probes up to ``probe`` slots on."""
        args = length, word, long, rest, first_rest
        home = (hashes >> self.shift).view(np.int64)
        ids = self.id[home]
        hit = self._same(ids, ..., *args)
        miss = np.flatnonzero(~hit)
        t = miss[ids[miss] >= 0]
        for step in range(1, self.probe + 1 if len(t) else 1):
            there = self.id[(home[t] + step) & (len(self.id) - 1)]
            same = self._same(there, t, *args)
            ids[t[same]], hit[t[same]] = there[same], True
            t = t[~same & (there >= 0)]
        return ids, miss[~hit[miss]]

    def store(self, tokens, ids, hashes, length, word, long, rest, first_rest) -> None:
        """Keep the new symbols that ``tokens``, of ``ids``, are the first of;
        a table of fewer than 4 slots a symbol is replaced first."""
        n = len(self)
        if len(self.length) <= n:
            self.hash, self.word, self.length, self.rest_at = (
                np.pad(a, (0, n + 1)) for a in (self.hash, self.word, self.length, self.rest_at))
        u, first = np.unique(ids, return_index=True)
        t = tokens[first[self.length[u] == 0]]   # the new symbols' first tokens, in id order
        old = n - len(t)
        self.hash[old:n], self.word[old:n], self.length[old:n] = hashes[t], word[t], length[t]
        k = np.searchsorted(long, t[length[t] > _WORD])
        at, sub = _spans(first_rest[k], np.diff(first_rest, append=len(rest))[k])
        self.rest_at[old:n][length[t] > _WORD] = sub + len(self.rest)
        self.rest = np.concatenate((self.rest, rest[at]))
        if 4 * n > len(self.id):
            bits = (4 * n - 1).bit_length()   # the next power of two >= 4 n slots
            self.id, self.shift, self.probe, old = np.full(1 << bits, -1), np.uint64(64 - bits), 0, 0
        ids = np.arange(old, n)
        slot, step = (self.hash[ids] >> self.shift).view(np.int64), 0
        while len(ids):   # each tries its slot if free; one of those that try a slot gets it
            free = self.id[slot] < 0
            self.id[slot[free]] = ids[free]
            left = self.id[slot] != ids
            ids, slot, step = ids[left], (slot[left] + 1) & (len(self.id) - 1), step + 1
        self.probe = max(self.probe, step - 1)   # the last round placed the last


class _Block(NamedTuple):
    """The records of one block: their (m, 3) ids, as int32, and labels, as
    bools (None at 3 fields), which ``load_triples`` concatenates as they
    are, the labels viewed as int8, into 13 B a record; and each record's
    line in the block, which only the duplicate error reads. Far fewer than
    2**31 symbols fit in memory, so int32 ids lose nothing, but an int32
    index gathers about 3x slower than intp. ``lines`` is a ``range``,
    costing nothing, when the records are the block's first lines, as in a
    file without comment or blank lines; else int32."""

    ids: np.ndarray
    label: np.ndarray | None
    lines: range | np.ndarray


def load_triples(path) -> tuple[Dictionary, TripleSet]:
    """Read a triple file, building the dictionary as symbols appear.

    The first line that breaks the format or repeats an earlier record
    raises ParseError or IntegrityError with its 1-based line number."""
    path = Path(path)
    symbols = _Interner()
    blocks: list[tuple[int, _Block]] = []   # each with its first line (0-based, in the file)
    error = None
    first_line = 0
    work = {}
    with path.open("rb") as fh:
        try:
            for raw, cut in _blocks(fh, path):
                block, bad, reason, n_lines = _parse_block(raw, cut, 4, symbols, work)
                blocks.append((first_line, block))
                if bad is not None:
                    raise ParseError(f"{path}:{first_line + bad + 1}: {reason}")
                first_line += n_lines
        except ParseError as exc:
            error = exc
    symbols = list(symbols)   # and the interning table goes
    # the columns keep the blocks' int32 ids and one-byte labels: 13 B a record
    ids = [b.ids for _, b in blocks] or [np.empty((0, 3), np.int32)]
    lhs, rel, rhs = (np.concatenate([a[:, j] for a in ids]) for j in range(3))
    label = np.concatenate([b.label for _, b in blocks] or [np.empty(0, bool)]).view(np.int8)
    del ids
    blocks = [(first, b.lines) for first, b in blocks]   # all a duplicate's message reads
    # only records before the bad line were kept, so a repeat precedes it
    repeat = _first_repeat(lhs, rel, rhs, len(symbols))
    if repeat is not None:
        line = np.concatenate([first + np.asarray(lines, int) for first, lines in blocks])[repeat]
        raise IntegrityError(f"{path}:{line + 1}: duplicate triple ({symbols[lhs[repeat]]}, "
                             f"{symbols[rel[repeat]]}, {symbols[rhs[repeat]]})")
    if error is not None:
        raise error
    if not len(lhs):
        raise IntegrityError(f"{path}: no records")
    n = len(symbols)
    # bincount would widen the int32 ids itself, more slowly than astype
    rel_count, lhs_count, rhs_count = (np.bincount(a.astype(np.intp), minlength=n)
                                       for a in (rel, lhs, rhs))
    relation_ids = set(np.flatnonzero(rel_count).tolist())
    entity_ids = set(np.flatnonzero(lhs_count + rhs_count).tolist())
    return Dictionary(symbols, relation_ids, entity_ids), TripleSet(lhs, rel, rhs, label)


def read_records(symbols: list[str], lines: list[str]) -> tuple[np.ndarray, list[str], str | None]:
    """The (m, 3) ids of the leading ``lines`` read as record lines of 3
    fields, each id's symbol (``symbols`` keep ids 0..n-1, others follow),
    and why line m is none (empty, '#'-led, holding \\n or \\r, or bad) or None."""
    table = _Interner()
    names = [s.encode("utf-8") for s in symbols]
    length = np.fromiter(map(len, names), np.int64, len(names))
    _intern(b"".join(names) + bytes(_WORD), np.cumsum(length) - length, length, table)
    cut = next((i for i, s in enumerate(lines) if not s or s[0] == "#" or "\n" in s or "\r" in s),
               len(lines))
    # the block's lines are the arguments; at cut 0 it is a blank line, for a line end
    raw = ("\n".join(lines[:cut]) + "\n").encode("utf-8", "surrogatepass") + bytes(_WORD)
    block, _, reason, _ = _parse_block(raw, len(raw) - _WORD, 3, table, {})
    if reason is None and cut < len(lines):
        reason = {"": "is empty", "#": "starts with '#'"}.get(lines[cut][:1], "holds a line end")
    return block.ids, list(table), reason


def _blocks(fh, path: Path):
    """The file in blocks of whole lines: one reused buffer and the length
    of the block at its front, which ends in a newline and is followed by
    ``_WORD`` zero bytes. Each read of ``_BLOCK`` bytes goes after the
    unfinished line the last block left. A block is checked as UTF-8 unless
    ASCII, and only one with a \\r has its \\r\\n and \\r made \\n."""
    buf = bytearray()
    kept = 0
    while True:
        if len(buf) < kept + _BLOCK + _WORD + 1:   # replaced, as numpy views may hold it
            buf = buf[:kept] + bytes(_BLOCK + _WORD + 1 + (kept + _BLOCK) // 8)
        end = kept + fh.readinto(memoryview(buf)[kept:kept + _BLOCK])
        if end == kept and not kept:
            return
        # a \r that ends the read may start a \r\n, so it cannot end the block
        last_cr = buf.rfind(b"\r", 0, end if end == kept else end - 1)
        cut = end if end == kept else max(buf.rfind(b"\n", 0, end), last_cr) + 1
        if not cut:   # no line end yet
            kept = end
            continue
        tail = buf[cut:end]
        if not buf.isascii():
            try:
                str(memoryview(buf)[:cut], "utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if last_cr >= 0:
            text = buf[:cut].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            cut = len(text)
            buf[:cut] = text
        if buf[cut - 1] != _NL:   # the file's last line, without a line end
            buf[cut] = _NL
            cut += 1
        buf[cut:cut + _WORD] = bytes(_WORD)
        yield buf, cut
        kept = len(tail)
        buf[:kept] = tail


def _parse_block(raw: bytearray, cut: int, fields: int, symbols: _Interner, work: dict):
    """Check and intern the block ``raw[:cut]``, whose record lines (neither
    blank nor a comment) have ``fields`` fields, 3 or 4: as many symbols and
    tabs between, all non-empty, and at 4 only a label, 0 or 1. Returns the
    records up to the first line that breaks one of these, that line's index
    in the block and the first rule it breaks, or None twice, and the
    block's line count. ``work`` keeps a buffer for the next block."""
    b = np.frombuffer(raw, dtype=np.uint8, count=cut + _WORD)
    if len(work.get("scan", ())) < cut:
        work["scan"] = np.empty(len(raw), dtype=np.uint8)
    # tabs and newlines in one pass: b - TAB < 2 holds for them alone
    scan = np.subtract(b[:cut], _TAB, out=work["scan"][:cut])
    sep = np.flatnonzero(np.less(scan, 2, out=scan.view(bool)))
    nl = np.flatnonzero(b[sep] == _NL)   # the separators that end lines
    ends = sep[nl]
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines = np.flatnonzero((ends > starts) & (b[starts] != _HASH))
    n_tabs = np.diff(nl, prepend=-1)[lines] - 1
    kept = len(lines) if (n_tabs == fields - 1).all() else int(np.argmax(n_tabs != fields - 1))
    reason = (f"expected {fields} tab-separated fields, got {n_tabs[kept] + 1}"
              if kept < len(lines) else None)
    last = nl[lines[:kept]]   # each record's line end, as an index into sep
    t1, t2, t3 = (sep[last - (fields - k)] for k in (1, 2, 3))   # at 3 fields t3 ends the line
    filled = good = (t1 > starts[lines[:kept]]) & (t2 > t1 + 1) & (t3 > t2 + 1)
    if fields == 4:
        label = b[t3 + 1]
        good = filled & (ends[lines[:kept]] == t3 + 2) & ((label == _ZERO) | (label == _ONE))
    if not good.all():
        kept = int(np.argmin(good))
        reason = "empty symbol" if not filled[kept] else (
            f"label must be 0 or 1, got {raw[t3[kept] + 1:ends[lines[kept]]].decode()!r}")
    bad = int(lines[kept]) if kept < len(lines) else None
    lines = lines[:kept]
    # each kept record's lhs, rel and rhs byte ranges, in file order
    start = np.stack((starts[lines], t1[:kept] + 1, t2[:kept] + 1), axis=1).ravel()
    length = np.stack((t1[:kept], t2[:kept], t3[:kept]), axis=1).ravel() - start
    label, n_lines = (label[:kept] == _ONE if fields == 4 else None), len(ends)
    lines = range(kept) if not kept or lines[-1] == kept - 1 else lines.astype(np.int32)
    # free the line arrays first, so that interning can reuse their memory
    del b, scan, sep, nl, ends, starts, n_tabs, last, t1, t2, t3, filled, good
    ids = _intern(raw, start, length, symbols)
    block = _Block(ids.astype(np.int32).reshape(-1, 3), label, lines)
    return block, bad, reason, n_lines


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
    if not n:   # every token is a known symbol, as in most blocks after the first
        return ids
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
    names = [raw[i:j].decode("utf-8", "surrogatepass")   # surrogates only from read_records
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
    """Each word mixed with the count of token bytes left from it on, by two
    multiplies around one xor: for one count a bijection of the word, whose
    high bits, a token's home slot, depend on every bit of the word."""
    x = left.astype(np.uint64)
    x *= np.uint64(0x9E3779B97F4A7C15)
    x ^= words
    x *= np.uint64(0xBF58476D1CE4E5B9)
    return x


def _token_hash(word, length, long, rest, left, first_rest) -> np.ndarray:
    """A 64-bit hash of each token: the wrapping sum of its words, each
    ``_mix``-ed with the bytes left from it on, so length and word order
    count and two tokens of one word and one length never collide. ``word``
    holds each token's first word; ``rest`` the later words of ``long``'s."""
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


def _first_repeat(lhs, rel, rhs, n: int) -> int | None:
    """Index of the first record equal to an earlier one, or None. Records
    pack into int32 keys while n**3 <= 2**31 (n <= 1,290), else int64."""
    # keys (lhs * n + rel) * n + rhs; int32 sorts over twice as fast, int64
    # wraps past 2**21 symbols, but equal records always get equal keys, so
    # distinct keys prove there is no repeat
    keys = lhs.astype(np.int32 if n ** 3 <= 2 ** 31 else np.int64)
    keys *= n
    keys += rel
    keys *= n
    keys += rhs
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
    members = np.split(perm, np.cumsum(sizes)[:-1])
    for fold in members:   # in place: the folds are views of perm
        fold.sort()
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
        raise ParseError(f"{path}: manifest is not UTF-8 text ({exc.reason})") from None
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError is a ValueError
        raise ParseError(f"{path}: invalid manifest JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")
    for key in ("name", "triples"):
        if key not in payload:
            raise ParseError(f"{path}: manifest missing key {key!r}")
        if not isinstance(payload[key], str) or not payload[key] or "\0" in payload[key]:
            raise ParseError(f"{path}: manifest {key!r} must be a non-empty string")
        try:   # a JSON escape can name a lone surrogate, which no file name or text holds
            payload[key].encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{path}: manifest {key!r} is not UTF-8 text") from None
    folds, seed = (_manifest_int(payload, key, least, path)
                   for key, least in (("folds", 2), ("seed", 0)))
    triples_path = (path.parent / payload["triples"]).resolve()
    return Manifest(payload["name"], triples_path, folds, seed)


def _manifest_int(payload: dict, key: str, least: int, path: Path) -> int:
    value = payload.get(key, getattr(Manifest, key))
    # bool is an int subclass; a float would be truncated
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: manifest {key!r} must be an integer, got {value!r:.40}")
    if value < least:
        raise ParseError(f"{path}: manifest {key!r} must be >= {least}, got {value}")
    return value
