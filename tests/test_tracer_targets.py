"""The benchmark's tracer (perfbench/spans.py) wraps program functions by
their names in ``TARGETS``. A function renamed or removed in ``src/sme``
leaves its per-layer metrics absent, which the traced benchmark step then
reports; these checks make it fail in tier-1 first. The tracer file is read,
never changed."""

import importlib.util
import inspect
from pathlib import Path

from sme import trainer

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
# targets whose function the program no longer has, and the metrics the
# traced benchmark step already expects to be absent because of them
GONE = {("sme.trainer", "_accumulate_gradients")}
KNOWN_ABSENT = {"trainer.active_frac", "trainer.active_pairs",
                "trainer.gradients.calls", "trainer.gradients.s"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_target_resolves():
    spans = load_spans()
    unresolved = [(module, path) for module, path, _, _ in spans.TARGETS
                  if (module, path) not in GONE and spans._resolve(module, path) is None]
    assert unresolved == []


def test_no_metric_beyond_the_known_ones_is_absent():
    assert set(load_spans().Tracer().absent()) <= KNOWN_ABSENT


def test_sgd_step_span_counts_its_first_argument():
    # the span's size is len(args[0]) of _sgd_step_arrays: the counted mask
    assert tuple(inspect.signature(trainer._sgd_step_arrays).parameters) == (
        "counted", "ids", "ws", "config")
