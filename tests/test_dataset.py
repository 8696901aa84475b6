import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sme import dataset, model
from sme.dataset import (TripleSet, load_manifest, load_triples, make_folds,
                         positives_of)
from sme.errors import ConfigError, IntegrityError, ParseError
from sme.evaluator import auc_pr, score_set
from sme.model import BILINEAR, LINEAR, Model, init_embeddings, init_params
from sme.trainer import TrainConfig, train, train_folds

from conftest import load_canonical, sme_capped, two_group_records, write_triples
from oracles import fold_sets_by_masks, load_triples_loop

try:
    from hypothesis import given, settings, strategies as st
except ImportError:   # the property test needs the `test` extra
    st = None


class TestLoadTriples:
    def test_basic(self, tmp_path):
        path = write_triples(tmp_path / "t.tsv", [
            ("a", "r", "b", 1),
            ("b", "r", "a", 0),
            ("# a comment line is ignored",),
            ("a", "s", "b", 1),
        ])
        d, ts = load_triples(path)
        assert len(ts) == 3
        assert d.n_entities == 2
        assert d.n_relations == 2
        assert ts.n_positive == 2
        assert d.symbols.index("a") == 0   # ids follow first appearance
        assert d.symbols.index("r") in d.relation_ids

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_triples(tmp_path / "t.tsv", [("a", "r", "b", 1), ("broken",)])
        with pytest.raises(ParseError, match="2"):
            load_triples(path)

    def test_bad_label(self, tmp_path):
        path = write_triples(tmp_path / "t.tsv", [("a", "r", "b", 2)])
        with pytest.raises(ParseError, match="label"):
            load_triples(path)

    def test_duplicate_triple(self, tmp_path):
        path = write_triples(tmp_path / "t.tsv", [("a", "r", "b", 1), ("a", "r", "b", 0)])
        with pytest.raises(IntegrityError, match="duplicate"):
            load_triples(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tr\tb\t1\n\xff\tr\tb\t0\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_triples(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# only a comment\n")
        with pytest.raises(IntegrityError):
            load_triples(path)

    @pytest.mark.parametrize("text,line_no,message", [
        # a two-character label must not pass as its first character
        ("a\tr\tb\t10\n", 1, "label must be 0 or 1, got '10'"),
        ("a\tr\tb\t1 \n", 1, "label must be 0 or 1, got '1 '"),
        ("a\tr\tb\t\n", 1, "label must be 0 or 1, got ''"),
        # three fields then five: the tab total is right, each line is not
        ("a\tb\t1\n1\tc\td\te\t0\n", 1, "expected 4 tab-separated fields, got 3"),
        ("# c\n\n\tr\tb\t1\n", 3, "empty symbol"),
        (" #\tr\tb\t1\nx\n", 2, "expected 4 tab-separated fields, got 1"),
    ])
    def test_bad_line_message(self, tmp_path, text, line_no, message):
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_triples(path)
        assert str(info.value) == f"{path}:{line_no}: {message}"

    def test_symbols_keep_form_feed_and_line_separator(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes("x\x0cy\tr\tp\u2028q\t1\r\nb\tr\tx\x0cy\t0\rc\tr\tb\t1".encode())
        d, ts = load_triples(path)
        assert d.symbols == ["x\x0cy", "r", "p\u2028q", "b", "c"]
        assert ts.label.tolist() == [1, 0, 1]


def load_outcome(path):
    """What ``load_triples`` gives, in the form ``load_triples_loop`` uses."""
    try:
        d, ts = load_triples(path)
    except (ParseError, IntegrityError) as exc:
        return (type(exc).__name__, str(exc))
    columns = (ts.lhs, ts.rel, ts.rhs, ts.label)
    assert [c.dtype for c in columns] == [np.int32, np.int32, np.int32, np.int8]
    assert all(c.ndim == 1 for c in columns)
    return ("ok", d.symbols, d.relation_ids, d.entity_ids, np.stack(columns, axis=1))


def assert_reference_outcome(got, path):
    """``got`` (from ``load_outcome``) is what ``load_triples_loop`` gives."""
    expect = load_triples_loop(path, 4)
    assert got[:-1] == expect[:-1]
    if got[0] == "ok":
        assert np.array_equal(got[-1], expect[-1])
    else:
        assert got[-1] == expect[-1]


if st is not None:
    SYMBOL = st.sampled_from([
        "a", "b", "\u00e9", "1", " #", "x\x0cy", "p\u2028q", "n\x85l",
        # symbols are interned from 8-byte words: lengths around and past a
        # word, a NUL that zero padding must not hide, a shared first word,
        # and a two-byte character across a word boundary
        "abcdefg", "abcdefgh", "abcdefghi", "abcdefghj", "0123456789abcdef",
        "0123456789" * 4, "a\x00", "1234567\u00e9",
    ])
    LABEL = st.sampled_from(["0", "1"])
    BAD_LABEL = st.sampled_from(["10", "1 ", "", " 1", "2"])
    OTHER_LINE = st.sampled_from([
        "", "#", "# c", "#\ta\tb\tc\t1", "#h\tr\tb\t1",
        "a\tb\t1\n1\tc\td\te\t0", "1\tc\td\te\t0\na\tb\t1", "a",
        "\tr\tb\t1", "a\t\tb\t0", "a\tr\t\t1", "a\tr\tb\t1\t",
    ])

    @st.composite
    def triple_text(draw):
        """Distinct records, then a few comments, blank lines, bad lines or
        repeated records, with mixed line ends, maybe a BOM and maybe no
        final line end."""
        triples = draw(st.lists(st.tuples(SYMBOL, SYMBOL, SYMBOL), unique=True, max_size=24))
        lines = ["\t".join(t + (draw(LABEL),)) for t in triples]
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["other", "bad record", "repeat"]))
            if kind == "other":
                line = draw(OTHER_LINE)
            elif kind == "bad record":   # one empty symbol, or a bad label
                fields = [*draw(st.tuples(SYMBOL, SYMBOL, SYMBOL)), draw(BAD_LABEL)]
                at = draw(st.sampled_from([0, 1, 2, 3, 3]))
                if at < 3:
                    fields[at], fields[3] = "", draw(LABEL)
                line = "\t".join(fields)
            elif triples:
                line = "\t".join(draw(st.sampled_from(triples)) + (draw(LABEL),))
            else:
                continue
            lines.insert(draw(st.integers(0, len(lines))), line)
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and draw(st.booleans()):
            text = text[:-len(ends[-1])]
        return ("\ufeff" if draw(st.booleans()) else "") + text

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=triple_text(), block=st.integers(1, 48))
    def test_matches_line_by_line_reference(text, block, tmp_path_factory):
        """Blocks of a few characters put records, bad lines and repeats
        across block boundaries."""
        path = tmp_path_factory.getbasetemp() / "prop.tsv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(dataset, "_BLOCK", block):
            got = load_outcome(path)
        assert_reference_outcome(got, path)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(text=triple_text(), block=st.integers(1, 48))
    def test_colliding_hashes_match_reference(text, block, tmp_path_factory):
        """With every token hashed alike, tokens are told apart only by
        their length and words."""
        path = tmp_path_factory.getbasetemp() / "collide.tsv"
        path.write_bytes(text.encode("utf-8"))

        def collide(word, *rest):
            return np.zeros(len(word), dtype=np.uint64)

        with mock.patch.object(dataset, "_BLOCK", block), \
                mock.patch.object(dataset, "_token_hash", collide):
            got = load_outcome(path)
        assert_reference_outcome(got, path)


def spy_misses(monkeypatch):
    """Lists that loading then fills: per block, the tokens that the
    interning table misses, and the interner."""
    missed, tables = [], []
    find, intern = dataset._Interner.find, dataset._intern

    def spy(raw, start, length, symbols):
        def spy_find(*args):
            ids, miss = find(symbols, *args)
            missed.append([raw[i:i + n].decode() for i, n in zip(start[miss].tolist(),
                                                                   length[miss].tolist())])
            return ids, miss
        symbols.find = spy_find
        tables.append(symbols)
        return intern(raw, start, length, symbols)

    monkeypatch.setattr(dataset, "_intern", spy)
    return missed, tables


def first_read_holds(monkeypatch, records):
    """Make the first read, and so the first block, exactly these records."""
    monkeypatch.setattr(dataset, "_BLOCK", len("".join("\t".join(map(str, t)) + "\n"
                                                       for t in records).encode()))


@pytest.mark.parametrize("new_symbol", [False, True])
def test_known_symbols_skip_the_sort_path(tmp_path, monkeypatch, new_symbol):
    """Blocks of a few lines whose symbols all came in the first block are
    interned by the table alone: it misses none of their tokens, whether a
    symbol is longer than a word, multibyte or shares its first word with
    another. A block that brings one new symbol sends only that symbol's
    tokens down the sort path, and the blocks after it none."""
    # the 32-slot table that 7 or 8 symbols get (checked below), in which
    # two of these share a home slot, so one is found by probing
    first = [("long_symbol_name_x", "rel", "C0000000_alpha", 1),
             ("\u00fcn\u00ef", "rel", "C0000000_beta", 0), ("a", "rel", "b", 1)]
    entities = ["long_symbol_name_x", "\u00fcn\u00ef", "C0000000_alpha", "C0000000_beta", "a", "b"]
    later = [(x, rel, y, (i + j) % 2) for i, x in enumerate(entities)
             for j, y in enumerate(entities) for rel in ("rel", "b")
             if (x, rel, y) not in {t[:3] for t in first}]
    if new_symbol:
        later.insert(len(later) // 2, ("a", "zeta", "b", 1))
    path = write_triples(tmp_path / "t.tsv", first + later)
    missed, tables = spy_misses(monkeypatch)
    first_read_holds(monkeypatch, first)
    assert_reference_outcome(load_outcome(path), path)
    symbols = tables[-1]
    assert len(symbols.id) == 32 and np.count_nonzero(symbols.length) == len(symbols)
    assert len(missed) > 5
    assert sorted(missed[0]) == sorted(x for t in first for x in t[:3])
    assert [m for m in missed[1:] if m] == ([["zeta"]] if new_symbol else [])


def test_symbols_sharing_a_home_slot_skip_the_sort_path(tmp_path, monkeypatch):
    """With every token hashed alike, all symbols share one home slot, and
    all but one sit in the slots after it. After the first block the table
    still misses no token, also of long symbols of one length and first
    word, which only their later words tell apart."""
    first = [("a", "r", "C0000000_alpha1", 1), ("b", "r", "C0000000_alpha2", 0)]
    entities = ["a", "b", "C0000000_alpha1", "C0000000_alpha2"]
    later = [(x, "r", y, (i + j) % 2) for i, x in enumerate(entities)
             for j, y in enumerate(entities) if (x, "r", y) not in {t[:3] for t in first}]
    path = write_triples(tmp_path / "t.tsv", first + later)
    missed, tables = spy_misses(monkeypatch)
    first_read_holds(monkeypatch, first)
    monkeypatch.setattr(dataset, "_token_hash",
                        lambda word, *rest: np.zeros(len(word), dtype=np.uint64))
    assert_reference_outcome(load_outcome(path), path)
    assert len(missed) > 3 and tables[-1].probe >= 4
    assert sorted(missed[0]) == sorted(x for t in first for x in t[:3])
    assert not any(missed[1:])


def test_crlf_split_between_reads_is_one_line_end(tmp_path, monkeypatch):
    """A \\r\\n whose \\r ends one read and whose \\n starts the next
    ends one line, so a later bad line keeps its line number."""
    path = tmp_path / "t.tsv"
    path.write_bytes(b"a\tr\tb\t1\r\nb\tr\tc\t0\r\nc\tr\ta\t1\r\nbad\r\na\tr\tc\t1\r\n")
    monkeypatch.setattr(dataset, "_BLOCK", len(b"a\tr\tb\t1\r"))
    got = load_outcome(path)
    assert got == ("ParseError", f"{path}:4: expected 4 tab-separated fields, got 1")
    assert_reference_outcome(got, path)


def test_lone_cr_file_is_read_in_blocks(tmp_path, monkeypatch):
    """A file whose lines end in a lone \\r is read a block at a time."""
    path = tmp_path / "t.tsv"
    path.write_bytes(b"".join(b"e%d\tr\te%d\t%d\r" % (i, i + 1, i % 2) for i in range(50)))
    parse, cuts = dataset._parse_block, []
    monkeypatch.setattr(dataset, "_parse_block", lambda *a: cuts.append(a[1]) or parse(*a))
    monkeypatch.setattr(dataset, "_BLOCK", 64)
    assert_reference_outcome(load_outcome(path), path)
    assert len(cuts) > 5 and max(cuts) < 2 * 64


@pytest.mark.parametrize("bad,reason", [(b"x\xff\tr\tb\t0\n", "invalid start byte"),
                                        (b"x\tr\tb\t0\n\xc3", "unexpected end of data")])
def test_bad_utf8_in_a_later_block(tmp_path, monkeypatch, bad, reason):
    """A byte that is not UTF-8 in the second block, or a character cut
    short at the end of the file, is found."""
    good = b"".join(b"e%d\tr\te%d\t1\n" % (i, i + 1) for i in range(20))
    path = tmp_path / "t.tsv"
    path.write_bytes(good + bad)
    parse, cuts = dataset._parse_block, []
    monkeypatch.setattr(dataset, "_parse_block", lambda *a: cuts.append(a[1]) or parse(*a))
    monkeypatch.setattr(dataset, "_BLOCK", len(good))
    got = load_outcome(path)
    assert got == ("ParseError", f"{path}: not UTF-8 text ({reason})") and cuts[0] == len(good)
    assert_reference_outcome(got, path)


def test_long_symbol_loads_in_linear_memory(tmp_path):
    """A 2 MiB symbol, twice, among 50,000 short records loads under the
    1 GiB cap: memory must not grow with tokens times the longest one."""
    big = "s" * (2 << 20)
    records = [(f"e{i % 250}", "r", f"e{i // 250}", i % 2) for i in range(50_000)]
    records[20_000:20_000] = [(big, "r", "e0", 1), ("e1", "r", big, 0)]
    path = write_triples(tmp_path / "long.tsv", records)
    proc = sme_capped(["inspect", "--dataset", str(path)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("entities=251 relations=1 records=50002 ")


@pytest.mark.parametrize("n,width", [(1290, 4), (1291, 8)])
def test_first_repeat_at_the_int32_key_bound(n, width):
    """Records pack into int32 keys while n**3 <= 2**31, 4 B a record
    traced, else into int64 keys, 8 B. A repeat of the record of the
    largest ids is found at its index either way."""
    m = 100_000
    keys = n ** 3 - 1 - np.arange(m, dtype=np.int64) * 20_011   # distinct, the first n**3 - 1
    lhs, rel, rhs = (c.astype(np.int32) for c in (keys // n ** 2, keys // n % n, keys % n))
    assert (lhs[0], rel[0], rhs[0]) == (n - 1,) * 3
    gc.collect()
    tracemalloc.start()
    try:
        assert dataset._first_repeat(lhs, rel, rhs, n) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the keys and one bool a record for comparing neighbours
    assert width * m < peak < (width + 2) * m
    again = (np.append(c, c[0]) for c in (lhs, rel, rhs))
    assert dataset._first_repeat(*again, n) == m


def full_tensor(path, n_ent, n_rel):
    """A triple file of every (e_i, r_j, e_k) once, about 1 in 13 labelled 1."""
    i = np.arange(n_ent * n_rel * n_ent)
    columns = (i // (n_rel * n_ent), i // n_ent % n_rel, i % n_ent, (i * 7919 % 13 == 0) * 1)
    path.write_text("".join(f"e{a}\tr{b}\te{c}\t{y}\n"
                            for a, b, c, y in zip(*(c.tolist() for c in columns))))
    return path


class TestCompactColumns:
    """``load_triples`` keeps int32 ids and one-byte labels, 13 B a record."""

    # a table budget of 1 byte builds one relation's tables at a time
    @pytest.mark.parametrize("table_bytes", [model._TABLE_BYTES, 1])
    @pytest.mark.parametrize("form", [LINEAR, BILINEAR])
    def test_same_results_as_int64_columns(self, form, table_bytes, tmp_path, monkeypatch):
        monkeypatch.setattr(model, "_TABLE_BYTES", table_bytes)
        d, loaded = load_triples(full_tensor(tmp_path / "t.tsv", 20, 6))
        wide = TripleSet(*(c.astype(np.int64)
                           for c in (loaded.lhs, loaded.rel, loaded.rhs, loaded.label)))
        config = TrainConfig(epochs_max=2, batch_size=16, learning_rate=0.05)
        runs = []
        for ts in (loaded, wide):
            sets = [make_folds(ts, 4, seed=0).fold_sets(f) for f in range(4)]
            alone = train(*sets[0][:2], d, form, 5, 4, config)
            stacked = train_folds([t for t, _, _ in sets], [v for _, v, _ in sets], d, form,
                                  5, 4, config, [1, 2, 3, 4])
            runs.append([])
            for trained, trace in [alone, *stacked]:
                scored = score_set(trained, ts)
                runs[-1].append((trained.emb.vectors.tobytes(), trained.params.buf.tobytes(),
                                 [(r.loss, r.val_auc) for r in trace.epochs],
                                 scored.scores.tobytes(), auc_pr(scored)))
        assert runs[0] == runs[1]

    def test_load_and_score_memory_per_record(self, tmp_path):
        """Traced by tracemalloc, which numpy reports its buffers to. With
        int64 columns the load kept 32.1 B a record and peaked at 53.1 B,
        and ``score_set`` peaked at 29.7 B; with these 33.2 and 21.9 B.
        ``make_folds`` holds the permutation, 8 B a record, which its folds
        are sorted views of."""
        path = full_tensor(tmp_path / "big.tsv", 100, 40)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            d, ts = load_triples(path)
            kept, load_peak = (size - start for size in tracemalloc.get_traced_memory())
            rng = np.random.default_rng(0)
            trained = Model(d.symbols, frozenset(d.relation_ids),
                            init_embeddings(len(d), 10, rng), init_params(BILINEAR, 10, 10, rng))
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            score_set(trained, ts)
            score_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            make_folds(ts, 10, seed=0)
            folds_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        m = len(ts)
        assert m == 400_000
        assert sum(c.nbytes for c in (ts.lhs, ts.rel, ts.rhs, ts.label)) == 13 * m
        assert kept < 13.25 * m   # the columns and a dictionary of 140 symbols
        assert load_peak < 36 * m
        assert score_peak < 23.5 * m
        assert folds_peak < 9.5 * m   # 8.76 B; 16.76 B when each fold was sorted into a copy


class TestPositivesOf:
    def test_all_zero(self):
        ts = TripleSet(np.array([0, 1]), np.array([2, 2]), np.array([1, 0]),
                       np.array([0, 0]))
        assert len(positives_of(ts)) == 0

    def test_filter_preserves_order(self):
        label = np.array([0, 1, 0, 0, 1, 0, 1, 0, 0, 0])
        ts = TripleSet(np.arange(10), np.full(10, 90), np.arange(10)[::-1].copy(), label)
        pos = positives_of(ts)
        assert len(pos) == 3
        assert list(pos.lhs) == [1, 4, 6]


class TestMakeFolds:
    def test_forced_sizes(self):
        ts = TripleSet(np.arange(4), np.zeros(4, dtype=np.int64),
                       np.arange(4), np.ones(4, dtype=np.int64))
        split = make_folds(ts, 2, seed=0)
        assert [len(rows) for rows in split.members] == [2, 2]
        assert [len(rows) for rows in split.positives] == [2, 2]

    def test_determinism(self):
        ts = TripleSet(np.arange(50), np.zeros(50, dtype=np.int64),
                       np.arange(50), np.arange(50) % 2)
        a, b = make_folds(ts, 5, seed=9), make_folds(ts, 5, seed=9)
        for field in ("members", "positives"):
            for x, y in zip(getattr(a, field), getattr(b, field), strict=True):
                assert np.array_equal(x, y), field

    def test_partition_and_near_equal_sizes(self):
        n = 103
        ts = TripleSet(np.arange(n), np.zeros(n, dtype=np.int64),
                       np.arange(n), np.ones(n, dtype=np.int64))
        split = make_folds(ts, 10, seed=1)
        sizes = [len(rows) for rows in split.members]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        # every record lands in exactly one test fold
        seen = np.zeros(n, dtype=int)
        for i in range(10):
            _, _, test = split.fold_sets(i)
            seen[test.lhs] += 1
        assert np.array_equal(seen, np.ones(n, dtype=int))

    def test_train_valid_test_disjoint(self):
        n = 40
        ts = TripleSet(np.arange(n), np.zeros(n, dtype=np.int64),
                       np.arange(n), np.ones(n, dtype=np.int64))
        split = make_folds(ts, 4, seed=2)
        train, valid, test = split.fold_sets(1)
        groups = [set(train.lhs), set(valid.lhs), set(test.lhs)]
        assert sum(len(g) for g in groups) == n
        assert groups[0] | groups[1] | groups[2] == set(range(n))

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_fold_sets_match_masks_bitwise(self, k, tmp_path):
        _, ts = load_triples(write_triples(tmp_path / "toy.tsv", two_group_records()))
        split = make_folds(ts, k, seed=5)
        for i in range(k):
            got = split.fold_sets(i)
            for part, want in zip(got, fold_sets_by_masks(split, i)):
                for column, expect in zip((part.lhs, part.rel, part.rhs, part.label), want):
                    assert column.dtype == expect.dtype, (k, i)
                    assert column.tobytes() == expect.tobytes(), (k, i)

    def test_k_too_large(self):
        ts = TripleSet(np.arange(3), np.zeros(3, dtype=np.int64),
                       np.arange(3), np.ones(3, dtype=np.int64))
        with pytest.raises(ConfigError):
            make_folds(ts, 4, seed=0)

    @pytest.mark.parametrize("n, k, seed", [(10, 3, 0), (103, 10, 1), (7, 7, 4), (2, 2, 9)])
    def test_permutation_cut_into_folds_in_order(self, n, k, seed):
        # perm is the seed's own PCG64 permutation: fold i takes the next
        # records of it, n // k of them plus one for each of the first n % k
        ts = TripleSet(np.arange(n), np.zeros(n, dtype=np.int64),
                       np.arange(n), (np.arange(n) % 3 != 1).astype(np.int64))
        perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
        want = np.full(n, -1)
        start = 0
        for i in range(k):
            size = n // k + (i < n % k)
            want[perm[start:start + size]] = i
            start += size
        assert start == n and (want >= 0).all()
        split = make_folds(ts, k, seed)
        for i, (rows, positives) in enumerate(zip(split.members, split.positives, strict=True)):
            assert rows.dtype == positives.dtype == np.int64
            assert rows.tolist() == np.flatnonzero(want == i).tolist()
            assert positives.tolist() == np.flatnonzero((want == i) & (ts.label == 1)).tolist()

    def test_fold_arithmetic_large(self):
        # 893,025 = 10 * 89,302 + 5
        sizes = [89302 + (1 if i < 5 else 0) for i in range(10)]
        assert sum(sizes) == 893025
        assert set(sizes) == {89302, 89303}


class TestRoundTrip:
    def test_tsv_reload_preserves_ids(self, tmp_path):
        recs = [("a", "r", "b", 1), ("c", "r", "a", 0), ("b", "s", "c", 1)]
        p1 = write_triples(tmp_path / "a.tsv", recs)
        d1, ts1 = load_triples(p1)
        p2 = write_triples(tmp_path / "b.tsv", recs)
        d2, ts2 = load_triples(p2)
        assert d1.symbols == d2.symbols
        assert np.array_equal(ts1.lhs, ts2.lhs)
        assert np.array_equal(ts1.label, ts2.label)


class TestManifest:
    def test_load(self, tmp_path):
        write_triples(tmp_path / "toy.tsv", [("a", "r", "b", 1), ("b", "r", "a", 0)])
        (tmp_path / "toy.json").write_text(
            '{"name": "toy", "triples": "toy.tsv", "folds": 2, "seed": 7}')
        m = load_manifest(tmp_path / "toy.json")
        assert m.name == "toy"
        assert m.folds == 2
        assert m.seed == 7
        assert m.triples_path.name == "toy.tsv"

    def test_missing_key(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"name": "x"}')
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "bad.json")

    # each of the manifest's messages, in full: the file, then the reason
    @pytest.mark.parametrize("raw,message", [
        (b'{"name": "t\xe9"}', "manifest is not UTF-8 text (invalid continuation byte)"),
        (b"", "invalid manifest JSON: Expecting value: line 1 column 1 (char 0)"),
        (b'["toy", "toy.tsv"]', "manifest must be a JSON object"),
        (b'{"name": "x"}', "manifest missing key 'triples'"),
        (b'{"name": "", "triples": "t.tsv"}', "manifest 'name' must be a non-empty string"),
        # the value's repr is cut to 40 characters
        (b'{"name": "x", "triples": "t.tsv", "folds": "' + b"9" * 50 + b'"}',
         "manifest 'folds' must be an integer, got '" + "9" * 39),
        (b'{"name": "x", "triples": "t.tsv", "seed": -1}', "manifest 'seed' must be >= 0, got -1"),
    ])
    def test_error_message(self, tmp_path, raw, message):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(ParseError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("name,entities,relations,records,pct", [
    ("umls", 135, 49, 893025, 0.76),
    ("kinships", 104, 26, 281216, 3.84),
    ("nations", 14, 56, 11191, 22.9),
])
def test_canonical_ingestion_counts(name, entities, relations, records, pct):
    d, ts = load_canonical(name)
    assert d.n_entities == entities
    assert d.n_relations == relations
    assert len(ts) == records
    got_pct = 100.0 * ts.n_positive / len(ts)
    assert got_pct == pytest.approx(pct, abs=0.05)


def test_umls_positive_count_consistent_with_percentage():
    _, ts = load_canonical("umls")
    assert abs(ts.n_positive - 0.0076 * 893025) < 0.00005 * 893025
