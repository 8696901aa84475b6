"""Property tests over what a user hands the CLI: model files through
``sme score``, triple files and dataset manifests through ``sme inspect``,
and the numeric flags of ``sme train`` and ``sme eval``. Whatever the input,
the command ends with a documented exit code (0 ok, 2 usage, 3 data,
4 numeric) and, on failure, one ``error:`` line on stderr; never a traceback.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from sme import cli  # noqa: E402
from sme.dataset import load_triples  # noqa: E402
from sme.errors import SmeError  # noqa: E402
from sme.model import BILINEAR, LINEAR, Model  # noqa: E402
from sme.modelfile import MAGIC, save_model  # noqa: E402

from conftest import two_group_records, write_triples  # noqa: E402
from oracles import load_triples_loop  # noqa: E402
from test_cli import train_capped  # noqa: E402
from test_modelfile import random_model  # noqa: E402

# derandomized: the suite sees the same cases on every run
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy warning would be a stray stderr line
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_outcome(code, out, err):
    event(f"exit {code}")   # shown by --hypothesis-show-statistics
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n")
        assert err.count("\n") == 1, err


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    """A valid saved model of each form, as bytes."""
    raw = {}
    for form in (LINEAR, BILINEAR):
        path = tmp_path_factory.mktemp("models") / f"{form}.sme"
        save_model(random_model(form, seed=13), path)
        raw[form] = path.read_bytes()
    return raw


def mutate(raw: bytes, kind: str, data) -> bytes:
    """A valid model file with some bytes overwritten, a cut, or an insert,
    or random bytes behind the magic."""
    if kind == "random":
        return MAGIC + data.draw(st.binary(max_size=200))
    if kind == "cut":
        return raw[:data.draw(st.integers(0, len(raw)))]
    at = data.draw(st.integers(0, len(raw) - 1))
    chunk = data.draw(st.binary(min_size=1, max_size=8))
    if kind == "insert":
        return raw[:at] + chunk + raw[at:]
    return raw[:at] + chunk + raw[at + len(chunk):]


@FUZZ
@given(form=st.sampled_from([LINEAR, BILINEAR]),
       kind=st.sampled_from(["overwrite", "cut", "insert", "random"]), data=st.data())
def test_model_file_bytes_through_score(form, kind, data, model_bytes, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.sme"
    path.write_bytes(mutate(model_bytes[form], kind, data))
    code, out, err = run_cli(["score", "--model", str(path), "sym_0\tsym_5\tsym_1",
                              "sym_2\tsym_6\tsym_2"])
    assert_documented_outcome(code, out, err)
    if code == 0:
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(np.isfinite(float(line.split("\t")[3])) for line in lines)


RECORD = st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["r", "s"]),
                   st.sampled_from(["a", "b", "é"]), st.sampled_from(["0", "1"])
                   ).map("\t".join)
SYMBOL = st.one_of(st.sampled_from(["a", "r", "#x", "", "0", "1", " 1", "1.0"]),
                   st.text(st.characters(codec="utf-8", exclude_characters="\t\n\r"),
                           max_size=4))
FIELDS = st.lists(SYMBOL, max_size=6).map("\t".join)
JUNK = st.text(st.characters(codec="utf-8"), max_size=12)


def text_file(line):
    return st.lists(line, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8"))


TRIPLE_TEXT = st.one_of(
    text_file(st.one_of(RECORD, st.just("# comment"), st.just(""))),
    text_file(st.one_of(RECORD, FIELDS, JUNK)),
    st.binary(max_size=80),
)


@FUZZ
@given(raw=TRIPLE_TEXT)
def test_triple_file_text_through_inspect(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.tsv"
    path.write_bytes(raw)
    code, out, err = run_cli(["inspect", "--dataset", str(path)])
    assert_documented_outcome(code, out, err)
    if code == 0:
        assert out.startswith("entities=") and out.count("\n") == 1


@pytest.fixture(scope="module")
def symbol_model(tmp_path_factory):
    """A saved model whose symbols, all relation types, are SYMBOL's seven."""
    path = tmp_path_factory.mktemp("models") / "symbols.sme"
    model = random_model(LINEAR, seed=14)
    symbols = ["a", "r", "#x", "0", "1", " 1", "1.0"]
    save_model(Model(symbols, frozenset(range(7)), model.emb, model.params), path)
    return path


# a symbol with a line end, which no file can hold: a file ends the line there
LINE_END = st.sampled_from(["\r", "a\r", "\rb", "a\r\nb", "\n1"])


@FUZZ
@given(arg=st.one_of(FIELDS, st.lists(SYMBOL, min_size=3, max_size=3).map("\t".join), JUNK,
                     st.lists(st.one_of(SYMBOL, LINE_END), min_size=3, max_size=3).map("\t".join)))
def test_score_argument_is_a_record_line_without_its_label(arg, symbol_model,
                                                            tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "arg.tsv"
    path.write_bytes(f"{arg}\t1\n".encode("utf-8"))
    try:
        d, ts = load_triples(path)
        record = "\t".join(d.symbols[i] for i in (ts.lhs[0], ts.rel[0], ts.rhs[0]))
        one_record = len(ts) == 1 and record == arg
    except SmeError:
        one_record = False
    code, out, err = run_cli(["score", "--model", str(symbol_model), "--", arg])
    assert_documented_outcome(code, out, err)
    assert (code == 2) == (not one_record), (arg, err)
    if code == 2 and arg[:1] not in ("", "#") and "\n" not in arg and "\r" not in arg:
        # one line of a 3-field file, refused for the reason the oracle gives it
        path.write_bytes(f"{arg}\n".encode("utf-8"))
        kind, message = load_triples_loop(path, 3)
        reason = message.removeprefix(f"{path}:1: ")
        assert kind == "ParseError" and reason != message, (arg, message)
        assert err == f"error: triple must be 'lhs<TAB>rel<TAB>rhs', got {arg!r}: {reason}\n"


# JSON values of every type, some of them fitting values for a manifest key
VALUE = st.one_of(st.integers(-2, 12), st.integers(), st.booleans(), st.none(),
                  st.floats(), st.text(max_size=4),
                  st.lists(st.integers(0, 3), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
# st.text never draws a lone surrogate, which a JSON escape can name
SURROGATE = st.sampled_from(["\ud800.tsv", "\udcff", "t\udfff.tsv"])
TRIPLES_REF = st.one_of(st.sampled_from(["toy.tsv", "./toy.tsv", "missing.tsv", "",
                                         ".", "..", "toy.tsv\0"]), SURROGATE, VALUE)
OPTIONAL = {"folds": VALUE, "seed": VALUE, "other": VALUE}
MANIFEST = st.one_of(
    st.fixed_dictionaries({"name": st.just("toy"), "triples": st.just("toy.tsv")},
                          optional={"folds": st.integers(2, 12), "seed": st.integers(0)}),
    st.fixed_dictionaries({"name": st.just("toy"), "triples": st.just("toy.tsv")},
                          optional=OPTIONAL),
    st.fixed_dictionaries({"name": st.one_of(st.just("toy"), SURROGATE),
                           "triples": st.one_of(st.just("toy.tsv"), SURROGATE)}),
    st.fixed_dictionaries({}, optional={"name": st.one_of(st.just("toy"), SURROGATE, VALUE),
                                        "triples": TRIPLES_REF, **OPTIONAL}),
).map(json.dumps)
MANIFEST_BYTES = st.one_of(
    MANIFEST.map(str.encode),
    MANIFEST.map(str.encode).flatmap(lambda raw: st.integers(0, len(raw)).map(
        lambda cut: raw[:cut])),
    st.one_of(VALUE, st.lists(VALUE, max_size=3)).map(lambda v: json.dumps(v).encode()),
    st.text(st.characters(codec="utf-8"), max_size=20).map(str.encode),
    st.binary(max_size=40),
)


@FUZZ
@given(raw=MANIFEST_BYTES)
def test_manifest_through_inspect(raw, tmp_path_factory):
    base = tmp_path_factory.getbasetemp()
    (base / "toy.tsv").write_text("a\tr\tb\t1\nb\tr\ta\t0\n", encoding="utf-8")
    path = base / "fuzz.json"
    path.write_bytes(raw)
    code, out, err = run_cli(["inspect", "--dataset", str(path)])
    assert_documented_outcome(code, out, err)
    if code == 0:
        assert out == "entities=2 relations=1 records=2 valid=50%\n"


# zero, negative, small and 2**63-scale values; a huge one as a dimension
# asks for more memory than a 1 GiB child has, or than numpy can address
HUGE = st.sampled_from([2**31, 2**40, 2**62, 2**63 - 1, 2**63, 2**64, 10**30])
SMALL = st.integers(-2, 4)
NUMBER = st.one_of(SMALL, HUGE, st.just(-(2**63)))


@st.composite
def numeric_flags(draw):
    """A command and some of its numeric flags. Huge ``--epochs`` come only
    with ``--patience`` <= 2, which stops a run once validation stalls, and
    ``--jobs`` is at most 1, so no case starts worker processes."""
    command = draw(st.sampled_from(["train", "eval"]))
    values = {
        "--dim-d": draw(st.one_of(SMALL, st.integers(5, 12), HUGE)),
        "--dim-p": draw(st.one_of(SMALL, st.integers(5, 12), HUGE)),
        "--batch": draw(st.one_of(NUMBER, st.integers(5, 64))),
        "--epochs": draw(NUMBER),
        "--patience": draw(NUMBER),
        "--folds": draw(st.one_of(NUMBER, st.integers(5, 12))),
    }
    if command == "train":
        values["--fold"] = draw(st.one_of(NUMBER, st.integers(5, 12)))
    else:
        values["--jobs"] = draw(st.sampled_from([-(2**63), -1, 0, 1]))
    chosen = draw(st.lists(st.sampled_from(sorted(values)), unique=True, min_size=1, max_size=4))
    if "--epochs" in chosen and values["--epochs"] > 4:
        values["--patience"] = draw(st.integers(-2, 2))
        chosen = sorted({*chosen, "--patience"})
    return command, [str(x) for flag in chosen for x in (flag, values[flag])]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(case=numeric_flags())
def test_numeric_flags_of_train_and_eval(case, tmp_path_factory):
    command, flags = case
    base = tmp_path_factory.getbasetemp()
    tsv = base / "tiny.tsv"
    if not tsv.exists():
        write_triples(tsv, two_group_records(n_per_group=3))
    proc = train_capped(tsv, base / "fuzz-out", flags, command=command, timeout=60)
    assert_documented_outcome(proc.returncode, proc.stdout, proc.stderr)
    if proc.returncode == 0:
        assert proc.stdout.count("\n") == 1
