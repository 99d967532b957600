"""Command-line front end.

One executable, ``dcmatch``, with subcommands for enumeration, neighbor
listing, classification, component censuses, graph export, series
coefficients, count tables, and the verification suite.  All output is
deterministic for a given command line; worker count never changes the
bytes emitted.  Exit codes: 0 success, 1 verification, I/O or internal
failure, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .compat import neighbors
from .counting import (
    count_DBD,
    count_EDB_components,
    count_I,
    count_pairs,
    edge_series,
    medium_even_order,
    medium_odd_order,
)
from .dual_tree import to_dual_tree
from .errors import MatchingError, ResourceLimitError
from .families import classify_with_witness
from .graph import (
    build_graph,
    census_csv,
    components,
    graph_to_json_dict,
    to_dot,
)
from .matching import configured_max_k, enumerate_matchings, parse_matching
from .verification import run_checks, summary_dict

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse prints multi-line usage on bad flags; the contract wants a
    # single machine-parsable error line instead.
    def error(self, message):
        raise _UsageError(message)


def _max_k() -> int:
    try:
        return configured_max_k()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _positive(text: str) -> int:
    # argparse type for --threads: a bad value is a usage error at parse
    # time, not a DomainError from the library later.
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _check_k(k: int) -> None:
    cap = _max_k()
    if k < 1:
        raise _UsageError(f"k must be >= 1, got {k}")
    if k > cap:
        raise ResourceLimitError(
            f"k={k} is over the configured cap of {cap}; "
            "set DCM_MAX_K to raise it"
        )


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise _UsageError(f"expected A..B, got {text!r}")
    try:
        bounds = int(lo), int(hi)
    except ValueError:
        raise _UsageError(f"expected A..B, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise _UsageError(f"empty range {text!r}")
    _check_k(bounds[0])
    _check_k(bounds[1])
    return bounds


def _matching_argument(args) -> "Matching":
    m = parse_matching(args.matching)
    if m.k != args.k:
        raise _UsageError(
            f"matching has size {m.k}, but --k is {args.k}"
        )
    return m


# -- subcommand handlers -----------------------------------------------------


def _cmd_enumerate(args) -> tuple[str, int]:
    _check_k(args.k)
    listing = [str(m) for m in enumerate_matchings(args.k)]
    if args.format == "text":
        return "\n".join(listing) + "\n", EXIT_OK
    if args.format == "csv":
        # Matching strings contain commas, so the field is quoted.
        rows = [f'{i},"{s}"' for i, s in enumerate(listing)]
        return "index,matching\n" + "\n".join(rows) + "\n", EXIT_OK
    return _json({"k": args.k, "matchings": listing}), EXIT_OK


def _cmd_neighbors(args) -> tuple[str, int]:
    _check_k(args.k)
    m = _matching_argument(args)
    found = sorted(str(n) for n in neighbors(m))
    if args.format == "text":
        return "".join(s + "\n" for s in found), EXIT_OK
    if args.format == "csv":
        return "neighbor\n" + "".join(f'"{s}"\n' for s in found), EXIT_OK
    payload = {"k": args.k, "matching": str(m), "neighbors": found}
    return _json(payload), EXIT_OK


def _cmd_classify(args) -> tuple[str, int]:
    _check_k(args.k)
    m = _matching_argument(args)
    label, witness = classify_with_witness(m)
    tree = to_dual_tree(m).to_json_dict() if args.dump_dual else None
    if args.format == "text":
        line = label
        if witness is not None:
            line += " " + _witness_text(witness)
        out = line + "\n"
        if tree is not None:
            out += json.dumps(tree, separators=(",", ":")) + "\n"
        return out, EXIT_OK
    payload = {
        "k": args.k,
        "matching": str(m),
        "label": label,
        "witness": list(witness) if witness is not None else None,
    }
    if tree is not None:
        payload["dual_tree"] = tree
    return _json(payload), EXIT_OK


def _witness_text(witness: tuple) -> str:
    if len(witness) == 2:
        chi, z = witness
        return f'chi="{chi}" z={z}'
    j, chi, z = witness
    return f'j={j} chi="{chi}" z={z}'


def _cmd_components(args) -> tuple[str, int]:
    _check_k(args.k)
    graph = build_graph(args.k, workers=args.threads)
    reports = components(graph)
    if args.format == "csv":
        return census_csv(graph, reports), EXIT_OK
    if args.format == "json":
        payload = {
            "k": args.k,
            "components": [
                {
                    "id": r.id,
                    "order": r.order,
                    "class": r.category,
                    "bipartite": r.bipartite,
                    "representative": str(r.representative),
                }
                for r in reports
            ],
        }
        return _json(payload), EXIT_OK
    tally: dict[tuple[int, str], int] = {}
    for r in reports:
        tally[(r.order, r.category)] = tally.get((r.order, r.category), 0) + 1
    lines = [f"k={args.k}: {len(reports)} components"]
    for (order, category), count in sorted(tally.items()):
        lines.append(f"  order {order} [{category}] x {count}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_graph(args) -> tuple[str, int]:
    _check_k(args.k)
    graph = build_graph(args.k, workers=args.threads)
    if args.format == "json":
        return _json(graph_to_json_dict(graph)), EXIT_OK
    return to_dot(graph), EXIT_OK


def _cmd_series(args) -> tuple[str, int]:
    if not args.edges:
        raise _UsageError("choose a series with --edges")
    if args.terms < 0:
        raise _UsageError(f"--terms must be >= 0, got {args.terms}")
    table = edge_series(args.terms)
    rows = list(enumerate(table.coefficients))
    if args.format == "csv":
        body = "".join(f"{k},{d}\n" for k, d in rows)
        return "k,d_k\n" + body, EXIT_OK
    if args.format == "json":
        payload = {
            "series": table.name,
            "terms": args.terms,
            "coefficients": list(table.coefficients),
        }
        return _json(payload), EXIT_OK
    return "".join(f"d_{k} = {d}\n" for k, d in rows), EXIT_OK


def _count_rows(lo: int, hi: int) -> list[dict]:
    rows = []
    for k in range(lo, hi + 1):
        if k % 2:
            half = (k + 1) // 2
            mediums = 0 if k == 1 else (
                count_DBD(half) if half >= 3 else 1
            )
            rows.append({
                "k": k,
                "small_count": count_I(half),
                "small_order": 1,
                "medium_count": mediums,
                "medium_order": medium_odd_order(half) if k >= 3 else 0,
            })
        else:
            half = k // 2
            mediums = 0 if k == 2 else (
                count_EDB_components(half) if half >= 3 else 1
            )
            rows.append({
                "k": k,
                "small_count": count_pairs(half),
                "small_order": 2,
                "medium_count": mediums,
                "medium_order": medium_even_order(half) if k >= 4 else 0,
            })
    return rows


def _cmd_counts(args) -> tuple[str, int]:
    lo, hi = _parse_range(args.k_range)
    rows = _count_rows(lo, hi)
    if args.format == "csv":
        header = "k,small_count,small_order,medium_count,medium_order\n"
        body = "".join(
            "{k},{small_count},{small_order},{medium_count},{medium_order}\n"
            .format(**row)
            for row in rows
        )
        return header + body, EXIT_OK
    if args.format == "json":
        return _json({"rows": rows}), EXIT_OK
    lines = []
    for row in rows:
        kind = "isolated" if row["k"] % 2 else "pairs"
        lines.append(
            "k={k}: {small_count} {kind} (order {small_order}), "
            "{medium_count} medium (order {medium_order})".format(
                kind=kind, **row
            )
        )
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    if args.k_range is not None:
        lo, hi = _parse_range(args.k_range)
    elif args.k is not None:
        _check_k(args.k)
        lo = hi = args.k
    else:
        lo, hi = 1, min(12, _max_k())
    results = run_checks(
        lo=lo,
        hi=hi,
        quick=args.quick,
        workers=args.threads,
    )
    code = EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE
    if args.format == "text":
        lines = [
            f"{r.status.upper():4} {r.name}: {r.detail}" for r in results
        ]
        lines.append("result: " + ("ok" if code == EXIT_OK else "failed"))
        return "\n".join(lines) + "\n", code
    return _json(summary_dict(results, lo, hi, args.quick)), code


def _json(payload) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcmatch",
        description=(
            "Explore the graph of non-crossing perfect matchings under "
            "disjoint compatibility."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, help_text, *, fmt, default_fmt):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=fmt, default=default_fmt)
        p.add_argument("--out", metavar="PATH")
        return p

    p = add("enumerate", "list all matchings of one size",
            fmt=("text", "csv", "json"), default_fmt="text")
    p.add_argument("--k", type=int, required=True)

    p = add("neighbors", "list the neighbors of one matching",
            fmt=("text", "csv", "json"), default_fmt="text")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matching", required=True)

    p = add("classify", "name the family of one matching",
            fmt=("text", "json"), default_fmt="text")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--dump-dual", action="store_true",
                   help="also emit the dual tree as JSON")

    p = add("components", "component census of the graph",
            fmt=("text", "csv", "json"), default_fmt="text")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--threads", type=_positive, metavar="N")

    p = add("graph", "export the whole graph",
            fmt=("dot", "json"), default_fmt="dot")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--threads", type=_positive, metavar="N")

    p = add("series", "edge-count series coefficients",
            fmt=("text", "csv", "json"), default_fmt="csv")
    p.add_argument("--edges", action="store_true",
                   help="the series counting graph edges")
    p.add_argument("--terms", type=int, required=True, metavar="N")

    p = add("counts", "small/medium component count tables",
            fmt=("text", "csv", "json"), default_fmt="csv")
    p.add_argument("--k-range", required=True, metavar="A..B")

    p = add("verify", "run the reproduction checks",
            fmt=("text", "json"), default_fmt="json")
    p.add_argument("--k", type=int)
    p.add_argument("--k-range", metavar="A..B")
    p.add_argument("--quick", action="store_true",
                   help="skip graph builds above k=6")
    p.add_argument("--threads", type=_positive, metavar="N")

    return parser


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "neighbors": _cmd_neighbors,
    "classify": _cmd_classify,
    "components": _cmd_components,
    "graph": _cmd_graph,
    "series": _cmd_series,
    "counts": _cmd_counts,
    "verify": _cmd_verify,
}


def _fail(code_name: str, message: str) -> None:
    first_line = str(message).splitlines()[0] if str(message) else ""
    print(f"dcmatch: {code_name}: {first_line}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        text, code = _HANDLERS[args.command](args)
    except (_UsageError, MatchingError) as exc:
        _fail("ERR_USAGE", str(exc))
        return EXIT_USAGE
    except ResourceLimitError as exc:
        _fail("ERR_RESOURCE", str(exc))
        return EXIT_RESOURCE
    except Exception as exc:
        # Anything else escaping a handler is a fault in the package, not
        # in the command line; name where it was raised on the one line.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        _fail("ERR_INTERNAL", f"{type(exc).__name__} at {where}: {exc}")
        return EXIT_FAILURE
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        _fail("ERR_IO", str(exc))
        return EXIT_FAILURE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
