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


@pytest.fixture
def searches(monkeypatch):
    """Every canonical labeling search from here on, as (positional
    arguments, answer), in call order: ``graphs._min_bits`` is wrapped by a
    counter that forwards whatever arguments it gets, so a change to its
    signature breaks no test that counts searches."""
    calls = []
    search = graphs._min_bits

    def counted(*args, **kwargs):
        answer = search(*args, **kwargs)
        calls.append((args, answer))
        return answer

    monkeypatch.setattr(graphs, "_min_bits", counted)
    return calls
