"""Self-tests for the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import querygen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from dcmatch import enumerate_matchings, parse_matching  # noqa: E402


def test_same_seed_gives_identical_inputs():
    first = "\n".join(querygen.queries(7, 0, 300)).encode()
    again = "\n".join(querygen.queries(7, 0, 300)).encode()
    assert first == again
    assert querygen.queries(8, 0, 300) != querygen.queries(7, 0, 300)
    assert querygen.queries(7, 1, 300) != querygen.queries(7, 0, 300)


def test_every_query_parses_in_canonical_form():
    for text in querygen.queries(3, 0, 500):
        m = parse_matching(text)
        assert str(m) == text
        assert m.k == querygen.query_size(text)
        assert m.k in querygen.SIZES


def test_all_size3_matchings_appear_at_equal_rates():
    draws = 5000
    seen = Counter(querygen.queries(1, 0, draws, sizes=(3,)))
    assert set(seen) == {str(m) for m in enumerate_matchings(3)}
    expected = draws / 5
    # About 5 standard deviations of a binomial count.
    assert all(abs(count - expected) < 150 for count in seen.values()), seen


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0, 100, -1, None],
        ["inner", 10, 40, 0, None],
        ["leaf", 15, 25, 1, None],
        ["inner", 50, 70, 0, None],
    ]
    totals = tracer.span_totals(spans)
    assert round(totals["outer"]["self_s"] * 1e9) == 50
    assert round(totals["inner"]["self_s"] * 1e9) == 40
    assert totals["inner"]["calls"] == 2
    assert round(totals["leaf"]["total_s"] * 1e9) == 10


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_traced_names_exist_in_the_package():
    import importlib

    from dcmatch.verification import CHECK_NAMES

    assert tracer.CHECK_NAMES == CHECK_NAMES
    for module, attr in tracer.TRACED.values():
        assert callable(getattr(importlib.import_module(module), attr))
