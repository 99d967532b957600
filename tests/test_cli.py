"""Command-line interface: golden outputs, formats, and exit codes."""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import re
import subprocess
import sys
import typing

import pytest

from dcmatch import cli, compat, verification
from dcmatch.cli import main
from dcmatch.errors import CrossingError, MatchingError
from dcmatch.families import BLOCK, _family_words, generate_family
from dcmatch.graph import DcmGraph, build_graph, orbit_tables
from dcmatch.matching import (
    Matching,
    enumerate_matchings,
    from_partner,
    insert,
    partner_word,
    word_partners,
)
from dcmatch.verification import CHECK_NAMES, run_checks
from reference import reference_parse

EDGE_ROW = (1, 0, 1, 1, 9, 21, 125, 421, 2161, 8677, 42245)

SKIP = ("skip", "no applicable sizes in range")
FAMILIES = (
    "generated family sizes equal the closed forms "
    "(isolated, leaf, paired, and star-center families)"
)
GROWTH = ("pass", "d_30/d_29 = 5.0112 within [4.97, 5.57]")
RING = "ring component two-colorable through k=7, odd cycle exhibited beyond"
RIORDAN = "max degree equals the Riordan number, attained exactly at the rings"

# (status, detail) of each check, in run order, for verify --k 3 and --k 11.
VERIFY_DETAILS = {
    3: [
        ("pass", "orders equal the Catalan numbers for k=3"),
        ("pass", "isolated and star counts match the tables for k=3"),
        SKIP,
        ("pass", "component shape counts for k=3: 2"),
        ("pass", f"{RIORDAN}, for k=3"),
        ("pass", "edge counts match the series coefficients for k=3"),
        ("pass", f"{RING}, for k=3"),
        SKIP,
        ("pass", "flip route equals the brute-force route for all 5 matchings "
                 "with k=3 (25 pair tests)"),
        ("pass", "splicing an outer/inner pair preserves degree (hosts k=3); "
                 "every neighbor re-pairs each outer/inner pair in place "
                 "(k=3); degree lower bounds hold (k=3); isolated matchings "
                 "have no antiblocks (k=3)"),
        ("pass", f"2 {FAMILIES}"),
        GROWTH,
        ("pass", "connected, with the rings inducing a full odd cycle; "
                 "computed orders k=3: 35"),
    ],
    11: [
        ("pass", "orders equal the Catalan numbers for k=11"),
        ("pass", "isolated and star counts match the tables for k=11"),
        SKIP,
        ("pass", "component shape counts for k=11: 3"),
        ("pass", f"{RIORDAN}, for k=11"),
        SKIP,
        ("pass", f"{RING}, for k=11"),
        SKIP,
        SKIP,
        SKIP,
        ("pass", f"3 {FAMILIES}"),
        GROWTH,
        SKIP,
    ],
}

DOT_K2 = (
    "graph dcm_2 {\n"
    '  "1-2,3-4";\n'
    '  "1-4,2-3";\n'
    '  "1-2,3-4" -- "1-4,2-3";\n'
    "}\n"
)

CENSUS_K3 = (
    "k,component_id,order,class,bipartite\n"
    "3,0,2,medium,true\n"
    "3,1,1,small,true\n"
    "3,2,1,small,true\n"
    "3,3,1,small,true\n"
)

DUAL_K6 = "classify --k 6 --matching 1-12,2-5,3-4,6-7,8-11,9-10 --dump-dual"

# sha256 of whole outputs too long to pin as literals.
DIGESTS = {
    DUAL_K6:
        "b1e868dcdb9b0a4602d564aa98f182af3aa5390536e78c2032b7192ec2d8fe2e",
    DUAL_K6 + " --format json":
        "692f35f2b041740520d9a087e840a5ad939702bd46a884b3bc8ba96cccce40b9",
    "components --k 10":
        "75f36feccf6fab319b395c7fba9f8b1a268ee0d9b5fd9af941024aede7869108",
    "components --k 10 --format csv":
        "b23bceb6df7a90b7bbd8aa337fbd6ba33155ead0265eeb505c43b05464d1757f",
    "components --k 9 --format json":
        "6d3eafdab2f8fff353ad905b4b639246a57f5035f8d17a31a4c6e1a383e8de31",
    "components --k 11 --format json":
        "2e1b36e5e43cb9a219bd56c322542517ff5c3dd4ab3af9a1eca9ed972dcf6cc1",
    "graph --k 5 --format dot":
        "07cb8c697974b297746ba678886167d41cb86c03f5dda08f9b1628d50de04123",
    "graph --k 5 --format json":
        "ba549fee99e7f258ce138985e3bfe3fd68e8594ef63c48b28203d38f960fc969",
}

# sha256 of verify --k-range 1..4 --format json, each "seconds" value
# written as 0.
VERIFY_1_4_JSON = (
    "081db9c17b4095ee5eb366b7b0197a79862679b05197a71549486b6d798c403e"
)

# sha256 of the outputs at the largest default size, each "seconds"
# value written as 0.
LARGEST_DIGESTS = {
    "components --k 12":
        "17a10d2f46892f5db864ef1db9dc5b2812e4d01fb484390175a0139be8c5295c",
    "components --k 12 --format csv":
        "b202d14b0d653aca693ae25a1b3c7b332d493705129861dbb4935714426756c6",
    "components --k 12 --format json":
        "f2a7c4045c935d75d4dd686b71e0c85873976948c3da04b91cb1909826b5266a",
    "verify --k-range 1..12 --format json":
        "212067391478cd8a69d58de0df95193858b7823d48d31a3bd34deb81c8aa3956",
    "verify --k-range 1..12 --quick --format json":
        "fe573b92e3dba1780e9b4f8d42345b096a44f3b6c3e941989b9cf6bba3843183",
}


def run(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_k3_listing(self, capsys):
        code, out, err = run("enumerate", "--k", "3", capsys=capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0] == "1-2,3-4,5-6"

    def test_k1(self, capsys):
        code, out, _ = run("enumerate", "--k", "1", capsys=capsys)
        assert code == 0
        assert out == "1-2\n"

    def test_csv(self, capsys):
        code, out, _ = run(
            "enumerate", "--k", "2", "--format", "csv", capsys=capsys
        )
        assert code == 0
        assert out == 'index,matching\n0,"1-2,3-4"\n1,"1-4,2-3"\n'
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [
            ["index", "matching"],
            ["0", "1-2,3-4"],
            ["1", "1-4,2-3"],
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            "enumerate", "--k", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "k": 2,
            "matchings": ["1-2,3-4", "1-4,2-3"],
        }

    def test_over_cap(self, capsys):
        code, out, err = run("enumerate", "--k", "99", capsys=capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("dcmatch: ERR_RESOURCE:")
        assert err.count("\n") == 1

    def test_zero(self, capsys):
        code, _, err = run("enumerate", "--k", "0", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")

    def test_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DCM_MAX_K", "5")
        code, _, err = run("enumerate", "--k", "6", capsys=capsys)
        assert code == 3
        assert "cap of 5" in err
        code, out, _ = run("enumerate", "--k", "5", capsys=capsys)
        assert code == 0
        assert len(out.splitlines()) == 42


class TestNeighbors:
    def test_paired_matching_has_one(self, capsys):
        code, out, _ = run(
            "neighbors", "--k", "4",
            "--matching", "1-8,2-3,4-7,5-6", capsys=capsys,
        )
        assert code == 0
        assert out == "1-2,3-8,4-5,6-7\n"

    def test_isolated_matching_has_none(self, capsys):
        code, out, _ = run(
            "neighbors", "--k", "3", "--matching", "1-6,2-5,3-4",
            capsys=capsys,
        )
        assert code == 0
        assert out == ""

    def test_csv(self, capsys):
        code, out, _ = run(
            "neighbors", "--k", "2", "--matching", "1-2,3-4",
            "--format", "csv", capsys=capsys,
        )
        assert code == 0
        assert out == 'neighbor\n"1-4,2-3"\n'

    def test_json(self, capsys):
        code, out, _ = run(
            "neighbors", "--k", "2", "--matching", "1-2,3-4",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        assert json.loads(out) == {
            "k": 2,
            "matching": "1-2,3-4",
            "neighbors": ["1-4,2-3"],
        }

    def test_malformed_matching(self, capsys):
        code, _, err = run(
            "neighbors", "--k", "3", "--matching", "1-6,2-5,3",
            capsys=capsys,
        )
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")

    @pytest.mark.parametrize("text", [
        "", "1", "1-2-3", "a-b", "1-2,,3-4", "1,2", " 2-1 , x-4", "1-2,3-4,5",
        "1-3,2-4,5-6", "1-6,2-4,3-5", "1-2,2-3,4-5", "1-1,2-3,4-5",
        "0-1,2-3,4-5", "1-2,3-4,5-7", "1--2,3-4,5-6", "6-5,4-3", "1-2,3-4,5-6,7-9",
    ])
    def test_parse_error_bytes(self, text, capsys):
        # The usage line names the reference parser's own message.
        with pytest.raises(MatchingError) as info:
            reference_parse(text)
        code, out, err = run("neighbors", "--k", "3", "--matching", text, capsys=capsys)
        assert (code, out, err) == (2, "", f"dcmatch: ERR_USAGE: {info.value}\n")

    def test_size_mismatch(self, capsys):
        code, _, err = run(
            "neighbors", "--k", "5", "--matching", "1-2,3-4",
            capsys=capsys,
        )
        assert code == 2
        assert "size 2" in err


class TestClassify:
    def test_isolated(self, capsys):
        code, out, _ = run(
            "classify", "--k", "3", "--matching", "1-6,2-5,3-4",
            capsys=capsys,
        )
        assert code == 0
        assert out == "Isolated-I\n"

    def test_ring_is_regular_at_k5(self, capsys):
        code, out, _ = run(
            "classify", "--k", "5", "--matching", "1-2,3-4,5-6,7-8,9-10",
            capsys=capsys,
        )
        assert code == 0
        assert out == "Regular\n"

    def test_pair_with_witness(self, capsys):
        code, out, _ = run(
            "classify", "--k", "4", "--matching", "1-8,2-3,4-7,5-6",
            capsys=capsys,
        )
        assert code == 0
        assert out == 'Pair-DB chi="" z=1\n'

    def test_three_parameter_witness(self, capsys):
        # make_edb(6, 1, "", 2): an even path member away from start label 1.
        argv = ("classify", "--k", "6", "--matching",
                "1-2,3-4,5-6,7-10,8-9,11-12")
        code, out, _ = run(*argv, capsys=capsys)
        assert code == 0
        assert out == 'Medium-EDB j=1 chi="" z=2\n'
        code, out, _ = run(*argv, "--format", "json", capsys=capsys)
        assert code == 0
        assert json.loads(out)["witness"] == [1, "", 2]

    @pytest.mark.parametrize(
        "k, matching, line",
        [
            ("7", "1-14,2-5,3-4,6-7,8-9,10-13,11-12",
             'Medium-DBDL j=2 chi="+" z=3'),
            ("8", "1-2,3-16,4-13,5-10,6-9,7-8,11-12,14-15",
             'Medium-EDBL j=3 chi="-" z=1'),
            ("6", "1-4,2-3,5-8,6-7,9-10,11-12", 'Medium-EDBL j=1 chi="" z=4'),
        ],
    )
    def test_leaf_witness(self, capsys, k, matching, line):
        code, out, _ = run(
            "classify", "--k", k, "--matching", matching, capsys=capsys
        )
        assert code == 0
        assert out == line + "\n"

    def test_json_witness_null_for_regular(self, capsys):
        code, out, _ = run(
            "classify", "--k", "5", "--matching", "1-2,3-4,5-6,7-8,9-10",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == "Regular"
        assert payload["witness"] is None

    def test_dump_dual(self, capsys):
        code, out, _ = run(
            "classify", "--k", "2", "--matching", "1-2,3-4", "--dump-dual",
            capsys=capsys,
        )
        assert code == 0
        label_line, tree_line = out.splitlines()
        assert label_line.startswith("Pair-DB")
        tree = json.loads(tree_line)
        assert set(tree) >= {"vertices", "phi", "side_labels", "marked"}

    def test_dump_dual_json(self, capsys):
        code, out, _ = run(
            "classify", "--k", "2", "--matching", "1-2,3-4", "--dump-dual",
            "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dual_tree"]["vertices"] == [1, 2, 3]


class TestComponents:
    def test_census_csv(self, capsys):
        code, out, _ = run(
            "components", "--k", "3", "--format", "csv", capsys=capsys
        )
        assert code == 0
        assert out == CENSUS_K3

    def test_text_summary(self, capsys):
        code, out, _ = run("components", "--k", "6", capsys=capsys)
        assert code == 0
        assert out == (
            "k=6: 19 components\n"
            "  order 2 [small] x 12\n"
            "  order 12 [medium] x 6\n"
            "  order 36 [big] x 1\n"
        )

    def test_json(self, capsys):
        code, out, _ = run(
            "components", "--k", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "k": 2,
            "components": [
                {
                    "id": 0,
                    "order": 2,
                    "class": "small",
                    "bipartite": True,
                    "representative": "1-2,3-4",
                }
            ],
        }

    def test_memory_cap_refusal(self, capsys, monkeypatch):
        # The size cap (DCM_MAX_K, default 12) is the one resource guard.
        monkeypatch.delenv("DCM_MAX_K", raising=False)
        code, _, err = run("components", "--k", "13", capsys=capsys)
        assert code == 3
        assert err.startswith("dcmatch: ERR_RESOURCE:")

    def test_memory_cap_flag_is_unknown(self, capsys):
        code, _, err = run(
            "components", "--k", "2", "--memory-cap", "64", capsys=capsys
        )
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")


class TestGraph:
    def test_dot_golden(self, capsys):
        code, out, _ = run("graph", "--k", "2", capsys=capsys)
        assert code == 0
        assert out == DOT_K2

    def test_json_golden(self, capsys):
        code, out, _ = run(
            "graph", "--k", "2", "--format", "json", capsys=capsys
        )
        assert code == 0
        assert json.loads(out) == {
            "k": 2,
            "vertices": ["1-2,3-4", "1-4,2-3"],
            "edges": [[0, 1]],
        }

    def test_json_edge_count_consistency(self, capsys, graph_cache):
        code, out, _ = run(
            "graph", "--k", "4", "--format", "json", capsys=capsys
        )
        assert code == 0
        assert len(json.loads(out)["edges"]) == graph_cache.graph(4).edge_count

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(
            "graph", "--k", "2", "--out", str(target), capsys=capsys
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == DOT_K2

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run(
            "graph", "--k", "2", "--out", str(tmp_path / "no" / "g.dot"),
            capsys=capsys,
        )
        assert code == 1
        assert err.startswith("dcmatch: ERR_IO:")


class TestDigests:
    @pytest.mark.parametrize("command", sorted(DIGESTS))
    def test_output_digest(self, capsys, command):
        code, out, _ = run(*command.split(), capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]

    @pytest.mark.parametrize("command", sorted(LARGEST_DIGESTS))
    def test_largest_output_digest(self, capsys, monkeypatch, graph_cache,
                                   command):
        # Read through the session's graphs, so that no test builds k = 12
        # again for these.
        monkeypatch.setattr(cli, "build_graph", graph_cache.graph)
        monkeypatch.setattr(
            cli, "run_checks", functools.partial(run_checks, cache=graph_cache)
        )
        code, out, _ = run(*command.split(), capsys=capsys)
        assert code == 0
        masked = re.sub(r'"seconds":[0-9.]+', '"seconds":0', out)
        digest = hashlib.sha256(masked.encode()).hexdigest()
        assert digest == LARGEST_DIGESTS[command]


class TestSeries:
    def test_csv_row(self, capsys):
        code, out, _ = run(
            "series", "--terms", "10", capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,d_k"
        assert tuple(int(line.split(",")[1]) for line in lines[1:]) == EDGE_ROW

    def test_text(self, capsys):
        code, out, _ = run(
            "series", "--terms", "2", "--format", "text",
            capsys=capsys,
        )
        assert code == 0
        assert out == "d_0 = 1\nd_1 = 0\nd_2 = 1\n"

    def test_edges_flag_is_unknown(self, capsys):
        code, _, err = run("series", "--edges", "--terms", "3", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")
        assert err.count("\n") == 1

    def test_negative_terms(self, capsys):
        code, _, err = run(
            "series", "--terms", "-1", capsys=capsys
        )
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")


class TestCounts:
    def test_csv_table(self, capsys):
        code, out, _ = run("counts", "--k-range", "1..6", capsys=capsys)
        assert code == 0
        assert out == (
            "k,small_count,small_order,medium_count,medium_order\n"
            "1,1,1,0,0\n"
            "2,1,2,0,0\n"
            "3,3,1,1,2\n"
            "4,4,2,1,6\n"
            "5,15,1,5,3\n"
            "6,12,2,6,12\n"
        )

    def test_big_row(self, capsys):
        code, out, _ = run("counts", "--k-range", "11..12", capsys=capsys)
        assert code == 0
        assert out.splitlines()[1:] == ["11,4389,1,88,6", "12,192,2,96,30"]

    def test_text(self, capsys):
        code, out, _ = run(
            "counts", "--k-range", "3..4", "--format", "text", capsys=capsys
        )
        assert code == 0
        assert out == (
            "k=3: 3 isolated (order 1), 1 medium (order 2)\n"
            "k=4: 4 pairs (order 2), 1 medium (order 6)\n"
        )

    def test_bad_range(self, capsys):
        code, _, err = run("counts", "--k-range", "6..5", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")

    def test_range_over_cap(self, capsys):
        code, _, err = run("counts", "--k-range", "1..99", capsys=capsys)
        assert code == 3
        assert err.startswith("dcmatch: ERR_RESOURCE:")


class TestVerify:
    def test_quick_json(self, capsys):
        code, out, _ = run(
            "verify", "--k-range", "1..4", "--quick", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["k_range"] == [1, 4]
        assert payload["quick"] is True
        assert [c["name"] for c in payload["checks"]] == list(CHECK_NAMES)
        assert all(
            c["status"] in {"pass", "skip"} for c in payload["checks"]
        )

    def test_text_lines(self, capsys):
        code, out, _ = run(
            "verify", "--k", "3", "--format", "text", capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "result: ok"
        assert len(lines) == len(CHECK_NAMES) + 1
        assert all(
            line.startswith(("PASS", "SKIP")) for line in lines[:-1]
        )

    def test_json_bytes(self, capsys):
        # Every byte but the timings, which differ from run to run.
        code, out, _ = run(
            "verify", "--k-range", "1..4", "--format", "json", capsys=capsys
        )
        assert code == 0
        masked = re.sub(r'"seconds":[0-9.]+', '"seconds":0', out)
        assert masked != out
        assert hashlib.sha256(masked.encode()).hexdigest() == VERIFY_1_4_JSON

    def test_k_and_k_range_are_exclusive(self, capsys):
        code, out, err = run(
            "verify", "--k", "3", "--k-range", "1..2", capsys=capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("dcmatch: ERR_USAGE:")
        assert err.count("\n") == 1
        assert "--k-range" in err
        assert "--k" in err.replace("--k-range", "")

    def test_growth_probe_detail_is_deterministic(self):
        (first,) = run_checks(names=("growth-probe",))
        (again,) = run_checks(names=("growth-probe",))
        assert first.status == "pass"
        assert first.detail == again.detail

    @pytest.mark.parametrize("k", sorted(VERIFY_DETAILS))
    def test_pinned_details(self, capsys, k):
        code, out, _ = run("verify", "--k", str(k), capsys=capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == list(CHECK_NAMES)
        got = [(c["status"], c["detail"]) for c in checks]
        assert got == VERIFY_DETAILS[k]

    def test_quick_skips_every_build_above_the_cap(self, capsys, monkeypatch):
        # The census checks stop at the cap; the neighbor oracle and the
        # property suite read graphs up to k = 8 only.
        def refuse(*args, **kwargs):
            raise AssertionError("quick mode built a graph")

        def refuse_above_8(k):
            return refuse() if k > 8 else build_graph(k)

        monkeypatch.setattr(verification, "build_graph", refuse_above_8)
        monkeypatch.setattr(verification, "build_almost_perfect_graph", refuse)
        code, out, _ = run(
            "verify", "--k-range", "7..9", "--quick", capsys=capsys
        )
        assert code == 0
        statuses = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        unbuilt = {"neighbor-oracle", "property-suite", "family-counts",
                   "growth-probe"}
        assert statuses == {
            name: "pass" if name in unbuilt else "skip" for name in CHECK_NAMES
        }

    @pytest.mark.parametrize("cap", range(1, 9))
    def test_default_range_stops_at_a_lowered_cap(self, cap, capsys, monkeypatch):
        # Every check stops at the cap, and the insertion property, which
        # reads the graph two sizes above its host, at hosts up to cap - 2.
        monkeypatch.setenv("DCM_MAX_K", str(cap))
        code, out, err = run("verify", capsys=capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["k_range"] == [1, cap]
        (suite,) = [c["detail"] for c in payload["checks"]
                    if c["name"] == "property-suite"]
        if cap <= 2:
            assert "splicing" not in suite
        else:
            hosts = "1" if cap == 3 else f"1..{min(cap - 2, 6)}"
            assert f"preserves degree (hosts k={hosts})" in suite

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(verification.ISO_CLASSES_BY_K, 3, 99)
        code, out, _ = run(
            "verify", "--k", "3", "--format", "text", capsys=capsys
        )
        assert code == 1
        assert "\nFAIL isomorphism-classes: k=3: 2 classes != 99\n" in out
        assert out.endswith("\nresult: failed\n")


class TestRunChecks:
    def test_fail_detail(self, monkeypatch, graph_cache):
        monkeypatch.setitem(verification.ISO_CLASSES_BY_K, 3, 99)
        (result,) = run_checks(
            3, 3, names=("isomorphism-classes",), cache=graph_cache
        )
        assert (result.status, result.detail) == ("fail", "k=3: 2 classes != 99")
        assert not result.passed

    def test_property_problem_reaches_the_suite_detail(self, monkeypatch):
        sizes, above, _, holds = verification._PROPERTIES[0]
        planted = (sizes, above, lambda cache, k: [f"k={k}: planted problem"], holds)
        monkeypatch.setattr(
            verification, "_PROPERTIES",
            (planted,) + verification._PROPERTIES[1:],
        )
        (result,) = run_checks(4, 4, names=("property-suite",))
        assert (result.status, result.detail) == ("fail", "k=4: planted problem")

    @pytest.mark.parametrize("k", range(1, 7))
    def test_spliced_word_inserts_the_block(self, k):
        for m in enumerate_matchings(k):
            w = partner_word(m.partner())
            for gap in range(2 * k + 1):
                want = partner_word(insert(m, BLOCK, gap).partner())
                assert verification._spliced_word(w, 2 * k, gap) == want, (m, gap)

    @pytest.mark.parametrize("k", [8, 10, 12])
    def test_extended_members_sort_as_matchings(self, k):
        # The suite samples the members' words sorted by partner table;
        # sorted by their edges, the matchings come in the same order.
        by_partner = sorted(_family_words("EDB", k), key=lambda w: word_partners(w, k))
        by_edges = sorted(generate_family("EDB", k), key=lambda m: m.edges)
        assert [from_partner(word_partners(w, k)) for w in by_partner] == by_edges

    def test_flip_walks_of_oracle_and_suite(self, monkeypatch):
        # Every module of the package that binds the walk counts it.
        calls = [0]
        real = compat._flips

        def counted(p):
            calls[0] += 1
            return real(p)

        for name, module in list(sys.modules.items()):
            if name.startswith("dcmatch") and hasattr(module, "_flips"):
                monkeypatch.setattr(module, "_flips", counted)
        results = run_checks(1, 8, names=("neighbor-oracle", "property-suite"))
        assert all(r.status == "pass" for r in results)
        # One walk per orbit representative in the builds of k = 1..8
        # (117), whose graphs both checks read; then one per sampled
        # extended member at k = 8, every third of 96 (32).
        orbits = sum(len(orbit_tables(k)[3]) for k in range(1, 9))
        assert calls[0] == orbits + 32 == 149

    def test_oracle_reads_the_census_graph(self, monkeypatch):
        # A neighbor dropped from one row of the graph the census reads.
        real = DcmGraph.adjacent

        def dropped(graph, i):
            row = real(graph, i)
            return row[1:] if (graph.k, i) == (5, 7) else row

        monkeypatch.setattr(DcmGraph, "adjacent", dropped)
        (result,) = run_checks(5, 5, names=("neighbor-oracle",))
        assert (result.status, result.detail) == (
            "fail", "k=5: routes disagree at 1-2,3-8,4-5,6-7,9-10"
        )

    def test_problems_are_capped_at_six(self, monkeypatch, graph_cache):
        counts = dict(verification.ISO_CLASSES_BY_K)
        for k in range(1, 9):
            monkeypatch.setitem(verification.ISO_CLASSES_BY_K, k, 99)
        (result,) = run_checks(
            1, 8, names=("isomorphism-classes",), cache=graph_cache
        )
        assert result.status == "fail"
        assert result.detail.split("; ") == [
            f"k={k}: {counts[k]} classes != 99" for k in range(1, 7)
        ]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="nope"):
            run_checks(names=("nope",))

    def test_results_follow_the_table_order(self, graph_cache):
        results = run_checks(
            1, 1, names=("growth-probe", "vertex-counts"), cache=graph_cache
        )
        assert [r.name for r in results] == ["vertex-counts", "growth-probe"]


class TestTopLevel:
    def test_no_command(self, capsys):
        code, _, err = run(capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")

    def test_unknown_flag(self, capsys):
        code, _, err = run("enumerate", "--bogus", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")
        assert err.count("\n") == 1

    def test_internal_fault_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("internal invariant broken")

        monkeypatch.setitem(cli._HANDLERS, "enumerate", broken)
        code, out, err = run("enumerate", "--k", "2", capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("dcmatch: ERR_INTERNAL: ValueError at test_cli")
        assert err.endswith(": internal invariant broken\n")
        assert err.count("\n") == 1

    def test_internal_matching_error_is_not_a_usage_error(
        self, capsys, monkeypatch
    ):
        def broken(args):
            raise CrossingError((1, 3), (2, 4))

        monkeypatch.setitem(cli._HANDLERS, "classify", broken)
        code, out, err = run(
            "classify", "--k", "2", "--matching", "1-2,3-4", capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("dcmatch: ERR_INTERNAL: CrossingError at test_cli")
        assert err.endswith(": edges (1, 3) and (2, 4) cross\n")

    def test_malformed_max_k_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DCM_MAX_K", "twelve")
        code, _, err = run("enumerate", "--k", "2", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE: DCM_MAX_K")

    @pytest.mark.parametrize("command", ["components", "graph", "verify"])
    def test_threads_flag_is_unknown(self, capsys, command):
        code, _, err = run(
            command, "--k", "2", "--threads", "2", capsys=capsys
        )
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")
        assert err.count("\n") == 1

    def test_annotations_resolve(self):
        assert typing.get_type_hints(cli._matching_argument)["return"] is Matching

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dcmatch.cli", "enumerate", "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1-2,3-4\n1-4,2-3\n"
