"""The three workloads: one timed round each, and the checks on its answers.

Each workload is chosen so that a different layer does most of its work:

* census-k11: the k = 11 census.  Graph build (neighbor generation in the
  fork pool) and classification dominate; isomorphism is about 2%.
* verify-k1-10: the thirteen acceptance checks over k = 1..10 on one
  worker.  Isomorphism certificates, the medium-even structure check and
  single-worker builds dominate; classification is small.
* query-mix: one caller parsing, expanding and classifying seeded random
  matchings one at a time.  No graph or isomorphism work happens.

``prepare`` runs before the ready point and is part of set-up time;
``inputs`` runs after it and is timed by nobody; ``run`` is the timed
round and returns its answers plus per-query latencies (None where the
whole round is the one query); ``check`` compares the answers outside the
timed region and returns (attempted, failed, problem notes).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

import querygen

CENSUS_K = 11
CENSUS_WORKERS = 2
VERIFY_RANGE = (1, 10)
QUERIES_PER_ROUND = 4000
ORACLE_MAX_K = 10
ORACLE_SAMPLE = 40


def no_span(name):
    return nullcontext()


# -- census-k11 ----------------------------------------------------------------


def census_run(dcmatch, inputs, span=no_span):
    graph = dcmatch.build_graph(CENSUS_K, workers=CENSUS_WORKERS)
    reports = dcmatch.components(graph)
    shapes, _ = dcmatch.isomorphism_classes(graph, reports)
    return (graph, reports, shapes), None


def census_check(dcmatch, inputs, result):
    from dcmatch.verification import ISO_CLASSES_BY_K, ISOLATED_BY_K, ODD_MEDIUMS_BY_K

    graph, reports, shapes = result
    k = CENSUS_K
    gates = [
        ("vertices", graph.order, dcmatch.catalan(k)),
        ("edges", graph.edge_count, dcmatch.edge_series(k)[k]),
        ("isolated", sum(1 for r in reports if r.order == 1), ISOLATED_BY_K[k]),
        ("stars", sum(1 for r in reports if r.category == "medium"), ODD_MEDIUMS_BY_K[k]),
        ("shapes", shapes, ISO_CLASSES_BY_K[k]),
    ]
    problems = [f"{name}: {got} != {want}" for name, got, want in gates if got != want]
    return len(gates), len(problems), problems


# -- verify-k1-10 --------------------------------------------------------------


def verify_run(dcmatch, inputs, span=no_span):
    # One run_checks call per check over a shared cache does exactly the
    # work of run_checks(1, 10, workers=1), with a span per check.
    from dcmatch import verification

    lo, hi = VERIFY_RANGE
    cache = verification.GraphCache(workers=1)
    results = []
    for name in verification.CHECK_NAMES:
        with span(f"verification.{name}"):
            results.extend(
                verification.run_checks(lo, hi, workers=1, names=(name,), cache=cache)
            )
    return results, None


def verify_check(dcmatch, inputs, results):
    from dcmatch.verification import CHECK_NAMES

    problems = [f"{r.name}: {r.status}: {r.detail}" for r in results if r.status != "pass"]
    missing = set(CHECK_NAMES) - {r.name for r in results}
    problems += [f"{name}: not run" for name in sorted(missing)]
    return len(CHECK_NAMES), len(problems), problems


# -- query-mix -----------------------------------------------------------------


def query_prepare(dcmatch):
    """One classify per query size, to fill the lazy strip-family tables.

    A ring (boundary edges only) is neither isolated nor in any strip
    family, so classifying it consults every table of its size.
    """
    for k in querygen.SIZES:
        ring = ",".join(f"{2 * i + 1}-{2 * i + 2}" for i in range(k))
        dcmatch.classify(dcmatch.parse_matching(ring))


def query_inputs(seed, batch):
    return querygen.queries(seed, batch, QUERIES_PER_ROUND)


def query_run(dcmatch, inputs, span=no_span):
    """Closed loop, one caller: each query starts when the previous ends."""
    clock = time.perf_counter
    answers = []
    latencies = []
    for text in inputs:
        start = clock()
        m = dcmatch.parse_matching(text)
        found = dcmatch.neighbors(m)
        label = dcmatch.classify(m)
        latencies.append(clock() - start)
        answers.append((found, label))
    return answers, latencies


def query_check(dcmatch, inputs, answers):
    from dcmatch.families import LABEL_ISOLATED, LABEL_PAIR

    bad = {}
    for i, (found, label) in enumerate(answers):
        if label == LABEL_ISOLATED and found:
            bad[i] = f"{inputs[i]}: {LABEL_ISOLATED} with degree {len(found)}"
        elif label == LABEL_PAIR and len(found) != 1:
            bad[i] = f"{inputs[i]}: {LABEL_PAIR} with degree {len(found)}"
    small = [i for i, text in enumerate(inputs) if querygen.query_size(text) <= ORACLE_MAX_K]
    rng = random.Random("query-mix-oracle")
    for i in rng.sample(small, min(ORACLE_SAMPLE, len(small))):
        m = dcmatch.parse_matching(inputs[i])
        if answers[i][0] != dcmatch.neighbors_bruteforce(m):
            bad[i] = f"{inputs[i]}: neighbors differ from the brute-force route"
    return len(answers), len(bad), list(bad.values())


WORKLOADS = {
    "census-k11": {"prepare": None, "inputs": None, "run": census_run, "check": census_check},
    "verify-k1-10": {"prepare": None, "inputs": None, "run": verify_run, "check": verify_check},
    "query-mix": {
        "prepare": query_prepare,
        "inputs": query_inputs,
        "run": query_run,
        "check": query_check,
    },
}
