"""Command-line interface: golden outputs, formats, and exit codes."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from dcmatch import cli
from dcmatch.cli import main
from dcmatch.verification import CHECK_NAMES, run_checks

EDGE_ROW = (1, 0, 1, 1, 9, 21, 125, 421, 2161, 8677, 42245)

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

    def test_threads_do_not_change_bytes(self, capsys):
        outs = set()
        for threads in ("1", "3"):
            code, out, _ = run(
                "components", "--k", "4", "--format", "csv",
                "--threads", threads, capsys=capsys,
            )
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

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


class TestSeries:
    def test_csv_row(self, capsys):
        code, out, _ = run(
            "series", "--edges", "--terms", "10", capsys=capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,d_k"
        assert tuple(int(line.split(",")[1]) for line in lines[1:]) == EDGE_ROW

    def test_text(self, capsys):
        code, out, _ = run(
            "series", "--edges", "--terms", "2", "--format", "text",
            capsys=capsys,
        )
        assert code == 0
        assert out == "d_0 = 1\nd_1 = 0\nd_2 = 1\n"

    def test_requires_edges_flag(self, capsys):
        code, _, err = run("series", "--terms", "4", capsys=capsys)
        assert code == 2
        assert "--edges" in err

    def test_negative_terms(self, capsys):
        code, _, err = run(
            "series", "--edges", "--terms", "-1", capsys=capsys
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

    def test_growth_probe_detail_is_deterministic(self):
        (first,) = run_checks(names=("growth-probe",))
        (again,) = run_checks(names=("growth-probe",))
        assert first.status == "pass"
        assert first.detail == again.detail


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

    def test_malformed_max_k_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("DCM_MAX_K", "twelve")
        code, _, err = run("enumerate", "--k", "2", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE: DCM_MAX_K")

    @pytest.mark.parametrize("flag", ["--threads"])
    def test_nonpositive_worker_flags_are_usage_errors(self, capsys, flag):
        code, _, err = run("components", "--k", "2", flag, "0", capsys=capsys)
        assert code == 2
        assert err.startswith("dcmatch: ERR_USAGE:")
        assert err.count("\n") == 1

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dcmatch.cli", "enumerate", "--k", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "1-2,3-4\n1-4,2-3\n"
