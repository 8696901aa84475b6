import os
import struct
import warnings

import numpy as np
import pytest

from sme import cli, modelfile
from sme.errors import IntegrityError
from sme.model import BILINEAR, LINEAR, Model, init_embeddings, init_params
from sme.modelfile import load_model, save_model


def random_model(form, seed=0, n=7, d=3, p=2):
    rng = np.random.default_rng(seed)
    relation_ids = frozenset({5, 6})
    emb = init_embeddings(n, d, rng)
    params = init_params(form, d, p, rng)
    params.b_l[:] = rng.normal(size=p)
    params.b_r[:] = rng.normal(size=p)
    symbols = [f"sym_{i}" for i in range(n)]
    return Model(symbols, relation_ids, emb, params)


@pytest.mark.parametrize("form", [LINEAR, BILINEAR])
def test_round_trip_bitwise(tmp_path, form):
    model = random_model(form, seed=form == BILINEAR)
    path = tmp_path / "m.sme"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.form == model.form
    assert loaded.symbols == model.symbols
    assert loaded.relation_ids == model.relation_ids
    assert np.array_equal(loaded.emb.vectors, model.emb.vectors)
    for a, b in zip(loaded.params.arrays(), model.params.arrays()):
        assert np.array_equal(a, b)


def test_save_is_deterministic(tmp_path):
    model = random_model(LINEAR, seed=3)
    p1, p2 = tmp_path / "a.sme", tmp_path / "b.sme"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.sme"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(IntegrityError, match="magic"):
        load_model(path)


def test_truncated_rejected(tmp_path):
    model = random_model(BILINEAR, seed=1)
    path = tmp_path / "m.sme"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(IntegrityError):
        load_model(path)


def test_unicode_symbols_round_trip(tmp_path):
    model = random_model(LINEAR, seed=2)
    model.symbols[0] = "λ-sym/été"
    path = tmp_path / "m.sme"
    save_model(model, path)
    assert load_model(path).symbols[0] == "λ-sym/été"


@pytest.mark.parametrize("form", [LINEAR, BILINEAR])
def test_every_prefix_exits_3_from_score(tmp_path, capsys, form):
    model = random_model(form, seed=4)
    raw_path = tmp_path / "full.sme"
    save_model(model, raw_path)
    raw = raw_path.read_bytes()
    triple = "sym_0\tsym_5\tsym_1"
    assert cli.main(["score", "--model", str(raw_path), triple]) == 0
    path = tmp_path / "cut.sme"
    for end in range(len(raw)):
        path.write_bytes(raw[:end])
        assert cli.main(["score", "--model", str(path), triple]) == 3, end
    assert capsys.readouterr().out.count("\n") == 1   # only the full file scored


# header: magic (4) form (1) d (4) p (4) n_symbols (4), then the symbols
D_AT, COUNT_AT, FIRST_SYMBOL_AT = 5, 13, 17 + 4


def test_huge_symbol_count_is_integrity_error(tmp_path):
    path = tmp_path / "m.sme"
    save_model(random_model(LINEAR, seed=5), path)
    raw = bytearray(path.read_bytes())
    raw[COUNT_AT:COUNT_AT + 4] = struct.pack("<I", 10**9)
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="truncated"):
        load_model(path)


def test_non_utf8_symbol_is_integrity_error(tmp_path):
    path = tmp_path / "m.sme"
    save_model(random_model(LINEAR, seed=6), path)
    raw = bytearray(path.read_bytes())
    raw[FIRST_SYMBOL_AT] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="UTF-8"):
        load_model(path)


def test_zero_dimension_is_integrity_error(tmp_path):
    path = tmp_path / "m.sme"
    save_model(random_model(LINEAR, seed=7), path)
    raw = bytearray(path.read_bytes())
    raw[D_AT:D_AT + 4] = struct.pack("<I", 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(IntegrityError, match="zero dimension"):
        load_model(path)


def test_duplicate_symbol_is_integrity_error(tmp_path):
    model = random_model(LINEAR, seed=8)
    model.symbols[1] = model.symbols[0]
    path = tmp_path / "m.sme"
    save_model(model, path)
    with pytest.raises(IntegrityError, match="duplicate"):
        load_model(path)


@pytest.mark.parametrize("symbol", ["", "a\tb", "a\nb", "a\r"])
def test_symbol_no_triple_file_holds_exits_3_from_score(tmp_path, capsys, symbol):
    # no record line can name such a symbol, so scoring against it would be degenerate
    model = random_model(LINEAR, seed=8)
    model.symbols[1] = symbol
    path = tmp_path / "m.sme"
    save_model(model, path)
    with pytest.raises(IntegrityError, match="empty or holds a TAB, LF or CR"):
        load_model(path)
    assert cli.main(["score", "--model", str(path), "\tsym_5\tsym_0"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_nan_embedding_is_integrity_error(tmp_path):
    model = random_model(LINEAR, seed=9)
    model.emb.vectors[3, 1] = np.nan
    path = tmp_path / "m.sme"
    save_model(model, path)
    with pytest.raises(IntegrityError, match="non-finite"):
        load_model(path)


def test_inf_in_bilinear_tensor_is_integrity_error(tmp_path):
    model = random_model(BILINEAR, seed=10)
    model.params.w_r[1, 0, 2] = -np.inf
    path = tmp_path / "m.sme"
    save_model(model, path)
    with pytest.raises(IntegrityError, match="non-finite"):
        load_model(path)


@pytest.mark.parametrize("form", [LINEAR, BILINEAR])
def test_non_finite_weight_exits_3_from_score(tmp_path, capsys, form):
    model = random_model(form, seed=11)
    model.params.b_l[0] = np.nan
    path = tmp_path / "m.sme"
    save_model(model, path)
    assert cli.main(["score", "--model", str(path), "sym_0\tsym_5\tsym_1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_overflowing_score_exits_4_from_score(tmp_path, capsys):
    # finite weights whose energy overflows to -inf: a score, not a load, failure
    model = random_model(LINEAR, seed=12)
    model.emb.vectors[:] = 1e200
    path = tmp_path / "m.sme"
    save_model(model, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["score", "--model", str(path), "sym_0\tsym_5\tsym_1"]) == 4
    assert not caught   # no numpy warning lines on stderr
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite score" in captured.err


def test_replace_file_renames_a_new_file_over_the_old(tmp_path):
    path = tmp_path / "out"
    path.write_bytes(b"old")
    inode = path.stat().st_ino
    modelfile.replace_file(path, b"new")
    assert path.read_bytes() == b"new" and path.stat().st_ino != inode
    assert os.listdir(tmp_path) == ["out"]


def test_replace_file_writes_another_owners_file_in_place(tmp_path, monkeypatch):
    # a rename would make the file ours; a plain write keeps its owner
    path = tmp_path / "out"
    path.write_bytes(b"old")
    inode = path.stat().st_ino
    monkeypatch.setattr(os, "geteuid", lambda: path.stat().st_uid + 1)
    modelfile.replace_file(path, b"new")
    assert path.read_bytes() == b"new" and path.stat().st_ino == inode


def test_replace_file_writes_in_place_where_no_new_file_can_be_made(tmp_path, monkeypatch):
    # as in a directory that is not writable
    def refuse(path, mode):
        raise PermissionError(13, "Permission denied", str(path))

    path = tmp_path / "out"
    path.write_bytes(b"old")
    inode = path.stat().st_ino
    monkeypatch.setattr(modelfile, "open", refuse, raising=False)
    modelfile.replace_file(path, b"new")
    assert path.read_bytes() == b"new" and path.stat().st_ino == inode
