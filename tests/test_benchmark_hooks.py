"""The benchmark's span tracer must still find every function it wraps."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "cvbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("cvbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target():
    from cvsym import runner

    spans = _load_spans()
    original = runner.wishart_triples
    tracer = spans.Tracer()
    try:
        # install() looks up every (module, attribute) in TARGETS and
        # raises on the first one that no longer exists.
        tracer.install()
        assert runner.wishart_triples.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert runner.wishart_triples is original
