"""Shared test configuration."""

from __future__ import annotations

import pytest
from hypothesis import settings

from dcmatch.verification import GraphCache

# The property suites run alongside long graph builds on shared machines;
# hypothesis's wall-clock deadline turns load spikes into spurious failures.
settings.register_profile("dcmatch", deadline=None)
settings.load_profile("dcmatch")


@pytest.fixture(scope="session")
def graph_cache():
    """Graphs and reports that tests only read, built once per session as
    build_graph(k) builds them.

    Tests that count calls, patch the build or the certificate search,
    or measure memory build their own graphs, so that nothing another
    test cached or certified reaches them.
    """
    return GraphCache()
