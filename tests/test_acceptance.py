"""Acceptance gate: the thirteen reproduction criteria at full scale.

Each criterion runs over its whole stated size range (up to k=12) with
exact tolerances, through the same checks the CLI verify command uses.
Graphs come from the session's graph cache, so each is built once and
shared across criteria and with the other test modules.
"""

from __future__ import annotations

import pytest

from dcmatch.verification import CHECK_NAMES, run_checks

# The pass detail of every check over k = 1..12.
DETAILS = {
    "vertex-counts": "orders equal the Catalan numbers for k=1..12",
    "odd-census": "isolated and star counts match the tables for k=1,3,..,11",
    "even-census": "pair and medium counts match the tables for k=2,4,..,12",
    "isomorphism-classes":
        "component shape counts for k=1..12: 1,1,2,2,3,3,4,4,3,3,3,3",
    "max-degree": "max degree equals the Riordan number, attained exactly at "
                  "the rings, for k=2..12",
    "edge-counts": "edge counts match the series coefficients for k=2..10",
    "bipartiteness": "ring component two-colorable through k=7, odd cycle "
                     "exhibited beyond, for k=2..12",
    "medium-even-structure": "every medium component matches the "
                             "chord-decorated path, and spine adjacency "
                             "follows the parameter-sum rule, for k=4,6,..,12",
    "neighbor-oracle": "flip route equals the brute-force route for all 2055 "
                       "matchings with k=1..8 (2248355 pair tests)",
    "property-suite": "two disjoint separated pairs exist (k=4..8); splicing "
                      "an outer/inner pair preserves degree (hosts k=1..6); "
                      "every neighbor re-pairs each outer/inner pair in place "
                      "(k=2..7); degree lower bounds hold (k=2..8); isolated "
                      "matchings have no antiblocks (k=1,3,..,9); extended "
                      "members have parameter+2 neighbors (sampled k=8,10,12)",
    "family-counts": "27 generated family sizes equal the closed forms "
                     "(isolated, leaf, paired, and star-center families)",
    "growth-probe": "d_30/d_29 = 5.0112 within [4.97, 5.57]",
    "almost-perfect-variant": "connected, with the rings inducing a full odd "
                              "cycle; computed orders k=1: 3, k=2: 10, "
                              "k=3: 35, k=4: 126, k=5: 462, k=6: 1716",
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_criterion(name, graph_cache):
    (result,) = run_checks(lo=1, hi=12, names=(name,), cache=graph_cache)
    line = f"{result.status.upper()} {result.name}: {result.detail}"
    print(line)
    assert result.status == "pass", line
    assert result.detail == DETAILS[name]
