"""Shared fixtures: expensive enumerations computed once per session."""

import pytest

from polaritylab import graphs
from polaritylab.graphs import enumerate_graphs


@pytest.fixture(scope="session")
def graphs_to_6():
    return list(enumerate_graphs(6))


@pytest.fixture(scope="session")
def graphs_to_7():
    return list(enumerate_graphs(7))


@pytest.fixture(scope="session")
def graphs_to_8():
    # ~5s; shared by the acceptance criteria that sweep all of order <= 8
    return list(enumerate_graphs(8))


def _counted(monkeypatch, name):
    """The calls of ``graphs.<name>`` from here on, as (positional
    arguments, answer), in call order: the function is wrapped by a counter
    that forwards whatever arguments it gets, so a change to its signature
    breaks no test that counts calls."""
    calls = []
    call = getattr(graphs, name)

    def counted(*args, **kwargs):
        answer = call(*args, **kwargs)
        calls.append((args, answer))
        return answer

    monkeypatch.setattr(graphs, name, counted)
    return calls


@pytest.fixture
def searches(monkeypatch):
    """Every canonicity verdict of the enumeration, one ``graphs._walk`` each."""
    return _counted(monkeypatch, "_walk")


@pytest.fixture
def labelings(monkeypatch):
    """Every canonical labeling search, one ``graphs._min_bits`` each."""
    return _counted(monkeypatch, "_min_bits")
