import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sme.dataset import TripleSet, load_triples  # noqa: E402


def data_dir() -> Path:
    return Path(os.environ.get("SME_DATA_DIR", Path(__file__).parent.parent / "data"))


def canonical_path(name: str) -> Path:
    return data_dir() / f"{name}.tsv"


def require_canonical(name: str) -> Path:
    """Path to a canonical benchmark triple file, or skip the test."""
    path = canonical_path(name)
    if not path.exists():
        pytest.skip(f"canonical {name} triple file not available at {path} "
                    f"(set SME_DATA_DIR or place it there)")
    return path


_CANONICAL_CACHE = {}


def load_canonical(name: str):
    if name not in _CANONICAL_CACHE:
        _CANONICAL_CACHE[name] = load_triples(require_canonical(name))
    return _CANONICAL_CACHE[name]


def write_triples(path: Path, records) -> Path:
    """records: iterable of (lhs, rel, rhs, label) strings/ints."""
    lines = ["\t".join(str(x) for x in rec) for rec in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _child_env() -> dict:
    """The environment of an ``sme`` child process running this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", SME_LOG="quiet",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def sme_capped(argv, timeout=300):
    """``sme *argv`` in a child under a 1 GiB address-space limit, so no run
    can take more memory than that."""
    return subprocess.run(
        [sys.executable, "-m", "sme.cli", *argv],
        env=_child_env(), capture_output=True, text=True, timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))


def sme_piped(argv):
    """``sme *argv`` in a child whose stdout and stderr are pipes, as a
    context manager yielding the ``Popen``."""
    return subprocess.Popen([sys.executable, "-m", "sme.cli", *argv], env=_child_env(),
                            text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def two_group_records(n_per_group=6, seed=0):
    """Fully observed toy graph: 'same' links entities within a group,
    'other' links entities across groups. Learnable and tiny."""
    entities = [f"e{i}" for i in range(2 * n_per_group)]
    group = {e: (i // n_per_group) for i, e in enumerate(entities)}
    records = []
    for a in entities:
        for b in entities:
            same = 1 if group[a] == group[b] and a != b else 0
            records.append((a, "same", b, same))
            records.append((a, "other", b, 1 - same if a != b else 0))
    return records


@pytest.fixture
def toy_dataset(tmp_path):
    path = write_triples(tmp_path / "toy.tsv", two_group_records())
    return load_triples(path)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_tripleset(rng, n_entities=8, n_relations=2, n_records=40, seed_offset=0):
    lhs = rng.integers(0, n_entities, size=n_records)
    rhs = rng.integers(0, n_entities, size=n_records)
    rel = rng.integers(n_entities, n_entities + n_relations, size=n_records)
    label = rng.integers(0, 2, size=n_records)
    return TripleSet(lhs.astype(np.int64), rel.astype(np.int64),
                     rhs.astype(np.int64), label.astype(np.int64))
