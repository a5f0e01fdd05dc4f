"""Command-line interface.

Subcommands cover every library surface: ``bounds`` (linear upper-bound
coefficients per cycle family), ``solve`` (minimum density thresholds),
``simulate`` (seeded hole Monte Carlo and the pairing sampler),
``construct`` (trees and multipartite hosts with invariant reports),
``arrow`` (exhaustive small-host arrow checks) and ``reproduce``
(recompute the headline reference constants and PASS/FAIL them).

Output contract: stdout is a pure function of (argv, seed) — floats print
via %.12g, no timestamps, no timings.  Each run appends a one-line JSON
manifest to stderr carrying the version, the parameter echo, a UTC
timestamp and a sha256 of the stdout bytes.  Exit codes: 0 success,
2 usage/validation, 3 search cap exceeded, 4 infeasible density system.

The argument parser is built once per process, on the first ``main`` call.
Handlers resolve library calls as module globals at call time.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .bounds import (
    BoundReport,
    CycleSpec,
    host_constant,
    ramsey_linear_form,
    size_ramsey_bipartite,
    size_ramsey_gnp,
    size_ramsey_regular,
)
from .constructions import (
    BUILD_SIZE_CAP,
    Graph,
    build_complete_multipartite,
    build_connector_tree,
    build_leaf_tree,
    parse_edge_list,
    serialize_graph,
    serialize_tree,
    verify_connector_tree,
    verify_leaf_tree,
)
from .errors import CapExceededError, InfeasibleDensityError
from .random_models import (
    MONTE_CARLO_CAP, child_seed, estimate_hole_probability, sample_pairing, wilson_interval,
)
from .threshold_solver import (
    bipartite_min_density,
    gnp_min_density,
    regular_min_density,
    check_density_certificate,
)
from .arrow_checker import TARGET_VERTEX_CAP, arrows, bipartite_arrows, parse_targets

#: Headline reference values the `reproduce` subcommand checks, in units of
#: 10^6 for the coefficient entries.  A coefficient row passes when the
#: computed value is within one displayed unit of the reference.
REFERENCE_VALUES = {
    "linear_form_base": (33, 49, 0),
    "linear_form_step2": (38033, 57379, -1617),
    "host_constant_two_odd": Fraction(95412),
    "host_constant_two_even": Fraction(538002, 35),
    "gnp_two_odd_units": 113484,
    "gnp_two_even_units": 2515,
    "regular_two_odd_density": 2378778,
    "regular_two_odd_units": 113482,
    "regular_two_even_density": 327091,
    "regular_two_even_units": 2514,
    "bipartite_two_even_units": 843,
}


def fmt(x) -> str:
    """Canonical scalar formatting: exact for rationals, %.12g for floats."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def fmt_count(n: int) -> str:
    """A count rounded up from a float: exact up to 15 digits, %.12g beyond.

    Past 15 digits the lower digits are the binary expansion of a float,
    not information, so tables and csv show only the significant ones.
    """
    text = str(n)
    return text if len(text) <= 15 else "%.12g" % n


def _aligned(table: list[list[str]]) -> list[str]:
    """Each row's cells padded to their column's widest, two spaces apart, trailing blanks cut."""
    widths = [max(map(len, column)) for column in zip(*table)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"expected a rational number like 3 or 538002/35, got {text!r}") from exc


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer list, got {text!r}") from exc


# ── bounds ───────────────────────────────────────────────────────────────────


def _bound_rows(spec: CycleSpec) -> list[dict]:
    rows = []
    reports: list[BoundReport] = [size_ramsey_gnp(spec)]
    solved = regular_min_density(host_constant(spec))
    reports.append(size_ramsey_regular(spec, solved.d_min, verify=False))
    if spec.t_odd == 0:
        reports.append(size_ramsey_bipartite(spec))
    for rep in reports:
        row = rep.as_dict()
        shown = rep.coefficient if rep.coefficient_loose is None else rep.coefficient_loose
        row["display_units"] = math.ceil(shown / 10**6)
        rows.append(row)
    return rows


def cmd_bounds(args) -> str:
    lengths = _parse_int_list(args.cycles, "--cycles")
    spec = CycleSpec.of(*lengths)
    rows = _bound_rows(spec)
    if args.format == "json":
        doc = {"cycles": list(spec.lengths), "bounds": rows}
        return json.dumps(doc, sort_keys=False) + "\n"
    header = ["model", "c", "d", "coefficient", "display_units", "coefficient_loose", "constraint_ok"]
    table = [header] + [[str(r["model"]), r["c"], fmt(r["d"]), fmt(r["coefficient"]),
                         fmt_count(r["display_units"]), fmt(r["coefficient_loose"]),
                         "true" if r["constraint_ok"] else "false"] for r in rows]
    lines = [",".join(row) for row in table] if args.format == "csv" else _aligned(table)
    return "\n".join(lines) + "\n"


# ── solve ────────────────────────────────────────────────────────────────────


def cmd_solve(args) -> str:
    c = _parse_rational(args.c)
    if c <= 0:
        raise ValueError(f"density constant must be positive, got {c}")
    if args.model == "regular":
        res = regular_min_density(c)
        doc = res.as_dict()
        doc["density_ceiling"] = math.ceil(res.d_min)
    else:
        rho = 1 / c
        d = gnp_min_density(rho) if args.model == "gnp" else bipartite_min_density(rho)
        doc = {
            "model": args.model,
            "c": str(c),
            "rho": str(rho),
            "d_min": d,
            "density_ceiling": math.ceil(d),
        }
    if args.format == "json":
        return json.dumps(doc) + "\n"
    doc["density_ceiling"] = fmt_count(doc["density_ceiling"])
    return "".join(f"{k} {fmt(v)}\n" for k, v in doc.items())


# ── simulate ─────────────────────────────────────────────────────────────────


def cmd_simulate(args) -> str:
    if args.simple_only:
        if args.model != "pairing":
            raise ValueError("--simple-only applies to the pairing model only")
        if args.d is None:
            raise ValueError("pairing model needs --d")
        if args.trials < 1:
            raise ValueError("need at least one trial")
        if args.trials > MONTE_CARLO_CAP:
            raise CapExceededError(
                f"simple pairing draws: {args.trials} is over the Monte Carlo cap of {MONTE_CARLO_CAP}"
            )
        attempts = 0
        for i in range(args.trials):
            _, att = sample_pairing(args.N, args.d, child_seed(args.seed, i, 0), simple_only=True)
            attempts += att
        low, high = wilson_interval(args.trials, attempts)
        doc = {
            "model": "pairing",
            "params": {"n": args.N, "d": args.d},
            "trials": args.trials,
            "attempts": attempts,
            "acceptance_rate": args.trials / attempts,
            "ci_low": low,
            "ci_high": high,
            "seed": args.seed,
            "version": __version__,
        }
        return json.dumps(doc) + "\n"
    if args.s is None:
        raise ValueError("hole estimation needs --s (hole size)")
    report = estimate_hole_probability(
        args.model, args.N, args.s, args.trials, args.seed,
        p=args.p, d=args.d, mode=args.mode, iters=args.iters,
    )
    return json.dumps(report.as_dict()) + "\n"


# ── construct ────────────────────────────────────────────────────────────────


def cmd_construct(args) -> str:
    chosen = [x for x in (args.leaf_tree, args.connector, args.multipartite) if x is not None]
    if len(chosen) != 1:
        raise ValueError("pick exactly one of --leaf-tree, --connector, --multipartite")
    if args.leaf_tree is not None:
        n = args.leaf_tree
        tree = build_leaf_tree(n)
        report = verify_leaf_tree(tree, n)
        body = serialize_tree(tree)
    elif args.connector is not None:
        parts = _parse_int_list(args.connector, "--connector")
        if len(parts) != 3:
            raise ValueError("--connector needs m1,m2,n")
        tree = build_connector_tree(*parts)
        report = verify_connector_tree(tree, *parts)
        body = serialize_tree(tree)
    else:
        sizes = _parse_int_list(args.multipartite, "--multipartite")
        graph = build_complete_multipartite(sizes)
        report = {
            "sizes": sizes,
            "vertices": graph.n,
            "edges": graph.edge_count,
            "ok": True,
        }
        body = serialize_graph(graph)
    return "# " + json.dumps(report) + "\n" + body


# ── arrow ────────────────────────────────────────────────────────────────────


def _check_host_vertices(token: str, n: int, m: int) -> None:
    cap = TARGET_VERTEX_CAP if m > 0 else BUILD_SIZE_CAP
    if n > cap:
        raise CapExceededError(f"host {token} has {n} vertices, capped at {cap} vertices")


def _host_from_token(token: str) -> Graph:
    """K6, K3x3, C8, M2x2x1 generators, or @path to read an edge list.

    A host is sized before it is built (from the token) or searched (a file):
    it may have TARGET_VERTEX_CAP vertices with an edge, BUILD_SIZE_CAP without.
    """
    if token.startswith("@"):
        with open(token[1:], "r", encoding="utf-8") as fh:
            host = parse_edge_list(fh.read())
        _check_host_vertices(token, host.n, host.edge_count)
        return host
    kind, rest = token[:1].upper(), token[1:].lower()
    if kind not in ("K", "C", "M"):
        raise ValueError(
            f"unknown host {token!r}: use K<n>, K<a>x<b>, C<n>, M<s1>x<s2>x..., or @file"
        )
    try:
        if kind == "C":
            n = m = int(rest)
        elif kind == "K" and "x" not in rest:
            n = int(rest)
            m = n * (n - 1) // 2
        else:
            sizes = [int(t) for t in (rest.split("x") if kind == "M" else rest.partition("x")[::2])]
            n = sum(sizes)
            m = (n * n - sum(s * s for s in sizes)) // 2
        _check_host_vertices(token, n, m)
        if kind == "C":
            return Graph.cycle(n)
        if kind == "M":
            return build_complete_multipartite(sizes)
        return Graph.complete_bipartite(*sizes) if "x" in rest else Graph.complete(n)
    except ValueError as exc:
        raise ValueError(f"bad host token {token!r}: {exc}") from exc


def cmd_arrow(args) -> str:
    host = _host_from_token(args.host)
    targets = parse_targets(args.targets)
    checker = bipartite_arrows if args.bipartite else arrows
    result = checker(host, targets)
    doc = result.as_dict()
    doc["host"] = args.host
    doc["targets"] = [str(t) for t in targets]
    if args.witness_out and result.witness is not None:
        with open(args.witness_out, "w", encoding="utf-8") as fh:
            fh.write(result.witness.serialize())
        doc["witness_file"] = args.witness_out
    return json.dumps(doc) + "\n"


# ── reproduce ────────────────────────────────────────────────────────────────


def _coefficient_row(name: str, computed: float, reference_units: int) -> dict:
    units = computed / 10**6
    return {
        "name": name,
        "computed": fmt(computed),
        "display_units": math.ceil(units),
        "reference": reference_units,
        "pass": abs(units - reference_units) <= 1.0,
    }


def reproduce_rows() -> list[dict]:
    """Recompute every headline constant from scratch and compare."""
    ref = REFERENCE_VALUES
    two_odd = CycleSpec.of(5, 5)
    two_even = CycleSpec.of(6, 6)
    rows = [
        {"name": key.replace("_", "-"), "computed": fmt(value), "reference": fmt(ref[key]),
         "pass": value == ref[key]}
        for key, value in (
            ("linear_form_base", ramsey_linear_form(1).as_tuple()),
            ("linear_form_step2", ramsey_linear_form(2).as_tuple()),
            ("host_constant_two_odd", host_constant(two_odd)),
            ("host_constant_two_even", host_constant(two_even)),
        )
    ]
    for spec, parity in ((two_odd, "odd"), (two_even, "even")):
        rows.append(_coefficient_row(
            f"gnp-coefficient-two-{parity}",
            size_ramsey_gnp(spec).coefficient_loose,
            ref[f"gnp_two_{parity}_units"],
        ))

    for spec, parity in ((two_odd, "odd"), (two_even, "even")):
        c = host_constant(spec)
        d_ref = ref[f"regular_two_{parity}_density"]
        solved = regular_min_density(c)
        cert = check_density_certificate(c, d_ref)
        coeff = size_ramsey_regular(spec, float(d_ref), verify=False).coefficient
        units = coeff / 10**6
        u_ref = ref[f"regular_two_{parity}_units"]
        rows.append({
            "name": f"regular-two-{parity}",
            "computed": "d_min=%s coefficient=%s" % (fmt(solved.d_min), fmt(coeff)),
            "display_units": math.ceil(units),
            "reference": "d=%d units=%d" % (d_ref, u_ref),
            "pass": bool(cert.ok) and solved.d_min <= d_ref and abs(units - u_ref) <= 1.0,
        })

    rows.append(_coefficient_row(
        "bipartite-coefficient-two-even",
        size_ramsey_bipartite(two_even).coefficient_loose,
        ref["bipartite_two_even_units"],
    ))
    return rows


def cmd_reproduce(args) -> str:
    rows = reproduce_rows()
    if args.json:
        doc = {"rows": rows, "all_pass": all(r["pass"] for r in rows)}
        return json.dumps(doc) + "\n"
    lines = _aligned([[r["name"], str(r["computed"]), str(r["reference"]),
                       "PASS" if r["pass"] else "FAIL"] for r in rows])
    lines.append("all checks: %s" % ("PASS" if all(r["pass"] for r in rows) else "FAIL"))
    return "\n".join(lines) + "\n"


# ── parser and dispatch ──────────────────────────────────────────────────────


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramsey-lab",
        description="Linear size-Ramsey bounds for cycle families: exact arithmetic, "
        "density thresholds, tree constructions, random models, arrow checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="linear upper-bound coefficients for a cycle family")
    p.add_argument("--cycles", required=True, help="comma-separated cycle lengths, e.g. 7,9,11")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("solve", help="minimum density threshold for a model")
    p.add_argument("--model", choices=("regular", "gnp", "bipartite"), required=True)
    p.add_argument("--c", required=True, help="density constant, rational like 95412 or 538002/35")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("simulate", help="seeded hole Monte Carlo / pairing sampler")
    p.add_argument("--model", choices=("gnp", "bipartite", "pairing"), required=True)
    p.add_argument("--N", type=int, required=True, help="vertices (per class for bipartite)")
    p.add_argument("--s", type=int, help="hole size")
    p.add_argument("--p", type=float, help="edge probability (gnp/bipartite)")
    p.add_argument("--d", type=int, help="degree (pairing)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("auto", "exact", "heuristic"), default="auto")
    p.add_argument("--iters", type=int, default=2000, help="heuristic restarts per trial")
    p.add_argument("--simple-only", action="store_true",
                   help="pairing: measure the simple-graph acceptance rate instead")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("construct", help="build a tree or multipartite host")
    p.add_argument("--leaf-tree", type=int, help="leaf count n >= 2")
    p.add_argument("--connector", help="m1,m2,n")
    p.add_argument("--multipartite", help="class sizes, e.g. 2,2,1")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("arrow", help="exhaustive arrow check on a small host")
    p.add_argument("--host", required=True, help="K6, K3x3, C8, M2x2x1, or @edges.txt")
    p.add_argument("--targets", required=True, help="comma list like C3,C3 or K2x2,C4")
    p.add_argument("--bipartite", action="store_true", help="respect the host 2-classing")
    p.add_argument("--witness-out", help="write any good-coloring witness to this file")
    p.set_defaults(handler=cmd_arrow)

    p = sub.add_parser("reproduce", help="recompute headline reference constants, PASS/FAIL each")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_reproduce)

    return parser


def _manifest(args, out: str) -> str:
    params = {
        k: v for k, v in vars(args).items() if k not in ("handler", "command") and v is not None
    }
    doc = {
        "version": __version__,
        "command": args.command,
        "params": dict(sorted(params.items())),
        "seed": getattr(args, "seed", None),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "output_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
    }
    return json.dumps(doc)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    print(_manifest(args, out), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
