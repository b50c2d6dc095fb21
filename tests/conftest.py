"""Shared fixtures: expensive enumerations computed once per session."""

import pytest

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
