"""The names the benchmark tracer rebinds must exist.

``perfbench/spans.py`` wraps polaritylab entry points by (module, attribute)
pair, including names one module imported from another. A renamed or
dropped name would only fail a traced benchmark run, so these tests read
its tables, unchanged, and check every pair here.
"""

import importlib
import importlib.util
import inspect
import sys
from collections.abc import Iterator
from pathlib import Path

import pytest

from polaritylab.graphs import Graph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# arguments for the generator parameters, by name: small enough to be quick
SAMPLE_ARGS = {"n_max": 3, "class_id": "cograph"}


@pytest.fixture
def spans(monkeypatch):
    def load(name):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    load("speed")  # spans imports its clock
    return load("spans")


def _resolve(mod, attr):
    return getattr(importlib.import_module("polaritylab." + mod), attr)


def test_traced_calls_resolve(spans):
    for mod, attr, *_ in spans.CALLS + spans.GENERATORS:
        assert callable(_resolve(mod, attr)), (mod, attr)
    # the labeling span wraps this property and reads this cache slot
    assert isinstance(Graph.__dict__["canonical_bits"], property)
    assert "_bits" in Graph.__slots__


def test_traced_generators_return_iterators(spans):
    for mod, attr, _name in spans.GENERATORS:
        fn = _resolve(mod, attr)
        params = inspect.signature(fn).parameters
        result = fn(**{p: SAMPLE_ARGS[p] for p in params})
        assert isinstance(result, Iterator), (mod, attr)
        assert all(isinstance(g, Graph) for g in result), (mod, attr)


def test_labeling_with_tree_maps_is_traced(spans):
    # the stream commands label class members with their trees' maps; the
    # search must still run inside the property the labeling span wraps
    from polaritylab import classes, cli
    from polaritylab.graphs import catalog, graph6_encode

    tracer = spans.Tracer()
    with tracer.installed():
        g = catalog("thin7")
        classes.member_key(Graph(g.n, g.adj), "p4sparse")
        list(cli.classify_stream([graph6_encode(g)]))
    assert [span[spans.NAME] for span in tracer.spans].count("graphs.canon") == 2
