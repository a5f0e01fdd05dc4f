"""End-to-end command-line tests: golden bytes, exit codes, manifests."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ramsey_lab.cli as cli
import ramsey_lab.threshold_solver as ts
from ramsey_lab import __version__
from ramsey_lab.arrow_checker import parse_targets, verify_coloring_avoids_targets, EdgeColoring
from ramsey_lab.constructions import Graph
from ramsey_lab.errors import InfeasibleDensityError


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ── golden outputs ───────────────────────────────────────────────────────────


def test_solve_gnp_json_golden(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--model", "gnp", "--c", "10", "--format", "json")
    assert rc == 0
    assert out == (
        '{"model": "gnp", "c": "10", "rho": "1/10", '
        '"d_min": 63.903185965017684, "density_ceiling": 64}\n'
    )


def test_solve_table_golden(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--model", "gnp", "--c", "10")
    assert rc == 0
    assert out == (
        "model gnp\nc 10\nrho 1/10\nd_min 63.903185965\ndensity_ceiling 64\n"
    )


def test_bounds_csv_golden(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--cycles", "10000,10000", "--format", "csv")
    assert rc == 0
    assert out == (
        "model,c,d,coefficient,display_units,coefficient_loose,constraint_ok\n"
        "gnp,538002/35,327111.500994,2514094882.25,2515,2514110254.41,true\n"
        "regular,538002/35,327090.221047,2513931330.05,2514,-,true\n"
        "bipartite,6561,128448.923564,842753387.506,843,842759948.839,true\n"
    )


def test_simulate_golden(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--model", "gnp", "--N", "40", "--s", "4",
        "--p", "0.2", "--trials", "20", "--seed", "7",
    )
    assert rc == 0
    assert out == (
        '{"model": "gnp", "params": {"n": 40, "s": 4, "p": 0.2}, "trials": 20, '
        '"holes": 20, "freq": "1", "ci_low": 0.8388748419471806, "ci_high": 1.0, '
        f'"mode": "exact", "seed": 7, "version": "{__version__}"}}\n'
    )


def test_simulate_pairing_simple_only(capsys):
    rc, out, _ = run_cli(
        capsys, "simulate", "--model", "pairing", "--N", "60", "--d", "3",
        "--trials", "10", "--seed", "3", "--simple-only",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["trials"] == 10
    assert doc["attempts"] >= 10
    assert doc["acceptance_rate"] == doc["trials"] / doc["attempts"]
    assert doc["ci_low"] <= doc["acceptance_rate"] <= doc["ci_high"]


def test_simulate_pairing_simple_only_refuses_hopeless_degree(capsys):
    """d = 12 needs about exp(35.75) draws per simple graph: exit 3 at once, not a hang."""
    t0 = time.perf_counter()
    rc, out, err = run_cli(
        capsys, "simulate", "--model", "pairing", "--N", "100", "--d", "12",
        "--seed", "1", "--simple-only",
    )
    assert rc == 3
    assert out == ""
    assert "cap" in err
    assert time.perf_counter() - t0 < 1.0


def test_simulate_pairing_simple_only_caps_attempts(capsys):
    """exp((d*d - 1)/4) predicts about 6,300 draws, but on 7 vertices far more are needed."""
    t0 = time.perf_counter()
    rc, out, err = run_cli(
        capsys, "simulate", "--model", "pairing", "--N", "7", "--d", "6",
        "--seed", "1", "--trials", "2", "--simple-only",
    )
    assert rc == 3
    assert out == ""
    assert "100000 attempts" in err
    assert time.perf_counter() - t0 < 5.0


def test_construct_leaf_tree_golden(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--leaf-tree", "37")
    assert rc == 0
    header, body = out.split("\n", 1)
    report = json.loads(header[2:])
    assert report == {
        "n": 37, "vertices": 77, "vertex_bound": 78, "leaves": 37,
        "leaf_depth": 6, "expected_depth": 6, "max_degree": 3,
        "root_degree": 2, "ok": True,
    }
    assert body.splitlines()[0] == "77 76"
    assert len(body.splitlines()) == 77  # n m line + 76 edges


def test_construct_connector_golden(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--connector", "4,8,30")
    assert rc == 0
    report = json.loads(out.splitlines()[0][2:])
    assert report["distance"] == 29
    assert report["vertices"] == 45
    assert report["parity_ok"] is True
    assert report["ok"] is True
    assert out.splitlines()[1] == "45 44"


def test_construct_multipartite_golden(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--multipartite", "2,2,1")
    assert rc == 0
    assert out.splitlines()[0] == '# {"sizes": [2, 2, 1], "vertices": 5, "edges": 8, "ok": true}'
    assert out.splitlines()[1] == "5 8"


@pytest.mark.parametrize("argv, sha256", [
    (("construct", "--leaf-tree", "9000"),
     "1792fece5ad4884d4812511b594940771eff2e1961bed3f5daa1fda7a95f7efd"),
    (("construct", "--connector", "3000,2500,430"),
     "97040db84f144ca0b8d7bbe651e29b2e3375970cd0b0d2a6da03ccc00b532960"),
    (("construct", "--connector", "1,1,2"),
     "9ad2c87012d9e8b8c888973ab4f91bb03af508b517c63f38b5f48754cec56380"),
    (("construct", "--multipartite", "3,4,5"),
     "6f02437553cef146864555d526d1400f7318cfa722f2af4faf9a8da2ea22a89a"),
], ids=["leaf-tree", "connector", "connector-path", "multipartite"])
def test_construct_stdout_bytes_frozen(capsys, argv, sha256):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    (("construct", "--leaf-tree", "10000"),
     "21b7bd02ba2e0737ee1615808c6ea5082574b9dfb08e0eecd900c93847f60d25"),
    (("construct", "--connector", "4096,4096,26"),
     "2a69026f2dcbfbc4447cb286298c94ada7a9c3cd1720a6e0bd794d5e4accc6dd"),
], ids=["leaf-tree-10000", "connector-4096"])
def test_construct_large_tree_stdout_bytes_frozen(capsys, argv, sha256):
    """Ids from one to five digits; the connector's joining path has length 1."""
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv, sha256", [
    (("reproduce",),
     "38b35a47d559b89e4281ecc60ae19ff6567b0883f5dc961b7da28bf22a9673ea"),
    (("reproduce", "--json"),
     "4c033b58680f33880059fd102cf5d137225da7e3cce6272b88b5d578fad7666e"),
    (("bounds", "--cycles", "5,5"),
     "47225413319d87a2d8d14fe0e9dc45add6ff75f99750e5bdea66228c0bfe584c"),
    (("bounds", "--cycles", "5,5", "--format", "csv"),
     "5710ab1ab7fa7dfa4e5e43a3495abb4477bc9b667217896a2208650bce132204"),
    (("bounds", "--cycles", "5,5", "--format", "json"),
     "87ea65b3d3909ca9120905e3f9f36d404fbd978cbf56a5eb4025e2545d7ad053"),
    (("bounds", "--cycles", "4,4,4"),
     "685fff3d42d835d62ca8bd8ce9cc6b8db1a155a909ea28cd6223ebc0779b8cca"),
    (("solve", "--model", "regular", "--c", "95412"),
     "aea202fe203a58f7478048c98b1f34d18a869e9cff32d7c23705a40fb35d58a2"),
], ids=["reproduce", "reproduce-json", "bounds-table", "bounds-csv", "bounds-json",
        "bounds-three-even", "solve-regular"])
def test_report_stdout_bytes_frozen(capsys, argv, sha256):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_construct_requires_exactly_one(capsys):
    rc, _, err = run_cli(capsys, "construct")
    assert rc == 2 and "exactly one" in err
    rc, _, err = run_cli(capsys, "construct", "--leaf-tree", "4", "--multipartite", "2,2")
    assert rc == 2


def test_arrow_golden(capsys):
    rc, out, _ = run_cli(capsys, "arrow", "--host", "K6", "--targets", "C3,C3")
    assert rc == 0
    assert out == (
        '{"arrows": true, "witness": null, "colorings_examined": 987, '
        '"host": "K6", "targets": ["C3", "C3"]}\n'
    )


def test_arrow_witness_file(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    rc, out, _ = run_cli(
        capsys, "arrow", "--host", "K5", "--targets", "C3,C3",
        "--witness-out", str(path),
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["arrows"] is False
    assert doc["witness_file"] == str(path)
    text = path.read_text()
    assert text == doc["witness"]
    # reload the witness and re-verify it against the targets independently
    host = Graph.complete(5)
    colors = {}
    for line in text.splitlines():
        u, v, c = map(int, line.split())
        colors[(u, v)] = c
    coloring = EdgeColoring(host, tuple(colors[e] for e in host.edges))
    assert verify_coloring_avoids_targets(coloring, parse_targets("C3,C3"))


def test_arrow_host_tokens(capsys):
    rc, out, _ = run_cli(capsys, "arrow", "--host", "C8", "--targets", "K1x2,K1x2")
    assert rc == 0
    assert json.loads(out)["host"] == "C8"
    rc, out, _ = run_cli(capsys, "arrow", "--host", "M2x2x1", "--targets", "C3,C3")
    assert rc == 0
    rc, out, _ = run_cli(
        capsys, "arrow", "--host", "K2x2", "--targets", "K1x2,K1x2", "--bipartite"
    )
    assert rc == 0
    assert json.loads(out)["arrows"] is False


def test_arrow_host_from_file(capsys, tmp_path):
    path = tmp_path / "host.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    rc, out, _ = run_cli(capsys, "arrow", "--host", f"@{path}", "--targets", "C3,C3")
    assert rc == 0
    assert json.loads(out)["arrows"] is False
    rc, _, err = run_cli(capsys, "arrow", "--host", "@/no/such/file", "--targets", "C3")
    assert rc == 2


# ── exit codes ───────────────────────────────────────────────────────────────


def test_exit_code_usage_errors(capsys):
    rc, _, err = run_cli(capsys, "solve", "--model", "gnp", "--c", "headline")
    assert rc == 2 and err.startswith("error:")
    rc, _, _ = run_cli(capsys, "solve", "--model", "gnp", "--c", "0")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "solve", "--model", "gnp", "--c", "2")  # rho >= 1/2
    assert rc == 2
    rc, _, _ = run_cli(capsys, "bounds", "--cycles", "seven")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "construct", "--connector", "1,1,1")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "arrow", "--host", "Q6", "--targets", "C3")
    assert rc == 2


def test_exit_code_cap_exceeded(capsys):
    rc, _, err = run_cli(capsys, "arrow", "--host", "K21", "--targets", "C3,C3")
    assert rc == 3 and "cap" in err


def test_arrow_host_file_over_vertex_cap(capsys, tmp_path):
    path = tmp_path / "path22.txt"
    path.write_text("22 21\n" + "".join(f"{i} {i + 1}\n" for i in range(21)))
    rc, out, err = run_cli(capsys, "arrow", "--host", f"@{path}", "--targets", "C3,C3")
    assert rc == 3 and out == "" and "capped at 20 vertices" in err


#: edge-list files the test below writes to its working directory: edgeless hosts over the
#: build cap, one beyond int64 and one that would allocate ~115 MB if it were searched
OVERSIZED_HOST_FILES = {"n1e20.txt": "100000000000000000000 0\n", "n2e6.txt": "2000000 0\n"}


@pytest.mark.parametrize("argv", [
    ("construct", "--leaf-tree", "99999999999"),
    ("construct", "--connector", "1,1,99999999999"),
    ("construct", "--multipartite", "100000,100000"),
    ("arrow", "--host", "K100000", "--targets", "C3,C3"),
    ("arrow", "--host", "M100000x100000", "--targets", "C3,C3"),
    ("arrow", "--host", "K0x99999999999", "--targets", "C3,C3"),  # edgeless, over the build cap
    ("arrow", "--host", "@n1e20.txt", "--targets", "C3,C3"),
    ("arrow", "--host", "@n2e6.txt", "--targets", "C3,C3"),
    ("simulate", "--model", "gnp", "--N", "1000000", "--s", "3", "--p", "0.5", "--seed", "1",
     "--trials", "1"),
    ("simulate", "--model", "bipartite", "--N", "1000000", "--s", "3", "--p", "0.5", "--seed", "1",
     "--trials", "1"),
    ("simulate", "--model", "pairing", "--N", "1000000", "--s", "3", "--d", "3", "--seed", "1",
     "--trials", "1"),
    # Monte Carlo runs (trials, times restarts in heuristic mode) over MONTE_CARLO_CAP
    pytest.param(("simulate", "--model", "gnp", "--N", "20", "--s", "3", "--p", "0.9", "--seed", "1",
                  "--trials", "1000000000", "--mode", "exact"), id="simulate --trials 1000000000"),
    pytest.param(("simulate", "--model", "gnp", "--N", "40", "--s", "8", "--p", "0.9", "--seed", "1",
                  "--trials", "1", "--mode", "heuristic", "--iters", "1000000000"),
                 id="simulate --iters 1000000000"),
    pytest.param(("simulate", "--model", "pairing", "--N", "60", "--d", "3", "--seed", "1",
                  "--trials", "1000001", "--simple-only"), id="simulate --simple-only"),
    # a heuristic search table of N * ceil(N/64) uint64 words over BUILD_SIZE_CAP
    pytest.param(("simulate", "--model", "pairing", "--N", "8002", "--d", "2", "--s", "1",
                  "--mode", "heuristic", "--trials", "1", "--seed", "1"),
                 id="simulate --mode heuristic --N 8002"),
    # the search's own caps refuse a 500,000-vertex host before the pairing draw
    pytest.param(("simulate", "--model", "pairing", "--N", "500000", "--d", "2", "--s", "1",
                  "--mode", "heuristic", "--trials", "1", "--seed", "1"),
                 id="simulate --mode heuristic --N 500000"),
    pytest.param(("simulate", "--model", "pairing", "--N", "500000", "--d", "2", "--s", "1",
                  "--mode", "exact", "--trials", "1", "--seed", "1"),
                 id="simulate --mode exact --N 500000"),
], ids=lambda argv: " ".join(argv[:3]))
def test_oversized_input_is_refused_before_allocation(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in OVERSIZED_HOST_FILES.items():
        (tmp_path / name).write_text(text)
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_arrow_search_ends_at_the_colourings_cap(capsys):
    """18 colours on 19 edges: a pigeonhole proof the search cannot shortcut."""
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "arrow", "--host", "K1x19", "--targets", ",".join(["K1x2"] * 18))
    assert time.perf_counter() - t0 < 10.0
    assert rc == 3 and out == ""
    assert err == "error: arrow search capped at 8000000 steps\n"


def test_arrow_search_ends_at_the_work_cap_on_a_large_host(capsys):
    """91 edges, past the old 21-edge cap; one Hamilton-path search can take seconds."""
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "arrow", "--host", "K14", "--targets", "C14,C14")
    assert time.perf_counter() - t0 < 10.0
    assert rc == 3 and out == ""
    assert err == "error: arrow search capped at 8000000 steps\n"


def test_arrow_edgeless_host_over_vertex_cap_is_searched(capsys):
    rc, out, _ = run_cli(capsys, "arrow", "--host", "M25", "--targets", "C3")
    assert rc == 0
    assert json.loads(out)["arrows"] is False


def _assert_one_line_usage_error(rc: int, out: str, err: str) -> None:
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bounds_seven_cycles_underflow_is_usage_error(capsys):
    # c = 82 * 35**126: rho**2 underflows to 0 in binary64
    rc, out, err = run_cli(capsys, "bounds", "--cycles", "3,3,3,3,3,3,3")
    _assert_one_line_usage_error(rc, out, err)
    assert "rho**2" in err


def test_bounds_eight_cycles_overflow_is_usage_error(capsys):
    # c = 82 * 35**254 is beyond the largest binary64
    rc, out, err = run_cli(capsys, "bounds", "--cycles", "3,3,3,3,3,3,3,3")
    _assert_one_line_usage_error(rc, out, err)
    assert "binary64" in err


def test_solve_regular_huge_c_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "solve", "--model", "regular", "--c", "1e400")
    _assert_one_line_usage_error(rc, out, err)
    assert "binary64" in err


@pytest.mark.parametrize(
    "model, c",
    [("gnp", "1e400"), ("bipartite", "1e400"), ("regular", "1e-400")],
    ids=["gnp", "bipartite", "regular-1e-400"],
)
def test_solve_huge_c_error_is_short(capsys, model, c):
    rc, out, err = run_cli(capsys, "solve", "--model", model, "--c", c)
    _assert_one_line_usage_error(rc, out, err)
    assert len(err) < 200


@pytest.mark.parametrize("model, c", [("gnp", "1e-400"), ("bipartite", "1e-320")])
def test_solve_tiny_c_is_usage_error(capsys, model, c):
    # rho = 1/c is beyond the largest binary64
    rc, out, err = run_cli(capsys, "solve", "--model", model, "--c", c)
    _assert_one_line_usage_error(rc, out, err)
    assert "binary64" in err


def test_bounds_builds_one_regular_enclosure(capsys, monkeypatch):
    builds = []
    enclosure = ts._enclosure

    def counted(c):
        builds.append(c)
        return enclosure(c)

    monkeypatch.setattr(ts, "_enclosure", counted)
    rc, _, _ = run_cli(capsys, "bounds", "--cycles", "5,5")
    assert rc == 0
    assert builds == [Fraction(95412)]


def test_solve_regular_large_c_is_feasible(capsys, regular_density_oracle):
    rc, out, _ = run_cli(capsys, "solve", "--model", "regular", "--c", "1e100")
    assert rc == 0
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert abs(float(fields["d_min"]) / float(regular_density_oracle(10**100)) - 1) <= 1e-9


@pytest.mark.parametrize("cycles", ["3,3,3", "4,4,4", "4,4,4,4", "3,3,3,3,3,3"])
def test_bounds_many_cycles_regular_density(capsys, regular_density_oracle, cycles):
    rc, out, _ = run_cli(capsys, "bounds", "--cycles", cycles, "--format", "json")
    assert rc == 0
    row = {r["model"]: r for r in json.loads(out)["bounds"]}["regular"]
    want = regular_density_oracle(Fraction(row["c"]))
    assert abs(row["d"] / float(want) - 1) <= 1e-9


def test_bounds_three_triangles_table(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--cycles", "3,3,3")
    assert rc == 0
    assert out.splitlines()[2].split()[:3] == ["regular", "150737781250", "8.06109706662e+12"]


def test_huge_counts_print_significant_digits(capsys):
    """Past 15 digits a count rounded up from a float prints with %.12g; JSON stays exact."""
    assert cli.fmt_count(10**15 - 1) == "999999999999999"
    assert cli.fmt_count(10**15) == "1e+15"
    _, out, _ = run_cli(capsys, "bounds", "--cycles", "3,3,3,3,3,3", "--format", "json")
    exact = [r["display_units"] for r in json.loads(out)["bounds"]]
    assert [len(str(u)) for u in exact] == [192, 192]
    _, out, _ = run_cli(capsys, "bounds", "--cycles", "3,3,3,3,3,3", "--format", "csv")
    assert [line.split(",")[4] for line in out.splitlines()[1:]] == ["%.12g" % u for u in exact]
    _, out, _ = run_cli(capsys, "bounds", "--cycles", "3,3,3,3,3,3")
    assert [line.split()[4] for line in out.splitlines()[1:]] == ["%.12g" % u for u in exact]
    assert len(out.splitlines()[0]) == 202  # 376 with the 192-digit column

    _, out, _ = run_cli(capsys, "solve", "--model", "regular", "--c", "1e300", "--format", "json")
    ceiling = json.loads(out)["density_ceiling"]
    assert len(str(ceiling)) == 304
    _, out, _ = run_cli(capsys, "solve", "--model", "regular", "--c", "1e300")
    assert out.splitlines()[-1] == "density_ceiling %.12g" % ceiling


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "regular", "--c", "10", "--grid", "10"],
    ["solve", "--model", "regular", "--c", "10", "--tol", "1e-6"],
    ["bounds", "--cycles", "5,5", "--grid", "10"],
    ["reproduce", "--grid", "10"],
])
def test_solver_grid_flags_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_exit_code_infeasible(capsys, monkeypatch):
    def boom(c):
        raise InfeasibleDensityError("no negative-exponent window", a=0.5)

    monkeypatch.setattr(cli, "regular_min_density", boom)
    rc, _, err = run_cli(capsys, "solve", "--model", "regular", "--c", "10")
    assert rc == 4 and "error:" in err


def _call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects, or --version
            rc = exc.code
    return rc, out.getvalue()


def test_parser_is_built_once_and_reused(monkeypatch):
    calls = [
        ("solve", "--model", "gnp", "--c", "10"),
        ("solve", "--model", "gnp", "--frobnicate"),
        ("--version",),
        ("bounds", "--cycles", "5,5", "--format", "csv"),
        ("construct", "--leaf-tree", "37"),
        ("solve", "--model", "gnp", "--c", "10"),
    ]
    reused = [_call(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_call(argv))
    assert reused == fresh
    assert [rc for rc, _ in reused] == [0, 2, 0, 0, 0, 0]
    assert reused[0] == reused[-1]
    assert cli.build_parser() is cli.build_parser()

    def boom(c):
        raise InfeasibleDensityError("no negative-exponent window", a=0.5)

    monkeypatch.setattr(cli, "regular_min_density", boom)
    assert _call(("solve", "--model", "regular", "--c", "10")) == (4, "")
    monkeypatch.undo()
    assert _call(("solve", "--model", "regular", "--c", "10"))[0] == 0


# ── manifest and determinism ─────────────────────────────────────────────────


def test_manifest_schema_and_hash(capsys):
    rc, out, err = run_cli(capsys, "solve", "--model", "gnp", "--c", "10")
    assert rc == 0
    manifest = json.loads(err.splitlines()[-1])
    assert list(manifest) == [
        "version", "command", "params", "seed", "timestamp", "output_sha256",
    ]
    assert manifest["version"] == __version__
    assert manifest["command"] == "solve"
    assert manifest["params"]["c"] == "10"
    assert list(manifest["params"]) == sorted(manifest["params"])
    assert manifest["seed"] is None
    assert manifest["output_sha256"] == hashlib.sha256(out.encode()).hexdigest()


def test_manifest_carries_seed(capsys):
    _, _, err = run_cli(
        capsys, "simulate", "--model", "gnp", "--N", "12", "--s", "2",
        "--p", "0.5", "--trials", "4", "--seed", "11",
    )
    assert json.loads(err.splitlines()[-1])["seed"] == 11


def test_repeat_runs_are_byte_identical(capsys):
    args = (
        "simulate", "--model", "pairing", "--N", "20", "--s", "3",
        "--d", "4", "--trials", "12", "--seed", "42",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# ── reproduce ────────────────────────────────────────────────────────────────

EXPECTED_REPRODUCE_ROWS = [
    "linear-form-base",
    "linear-form-step2",
    "host-constant-two-odd",
    "host-constant-two-even",
    "gnp-coefficient-two-odd",
    "gnp-coefficient-two-even",
    "regular-two-odd",
    "regular-two-even",
    "bipartite-coefficient-two-even",
]


def test_reproduce_json(capsys):
    rc, out, _ = run_cli(capsys, "reproduce", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [r["name"] for r in doc["rows"]] == EXPECTED_REPRODUCE_ROWS
    assert all(r["pass"] for r in doc["rows"])


def test_reproduce_table(capsys):
    rc, out, _ = run_cli(capsys, "reproduce")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert all(line.endswith("PASS") for line in lines[:9])
    assert lines[-1] == "all checks: PASS"


# ── generated argv ───────────────────────────────────────────────────────────

#: values no option takes as given: zero, negatives, out-of-range powers of
#: ten, empty and malformed tokens
HOSTILE = ["0", "-1", "-7", "1e400", "1e-400", "-1e400", "", "nan", "x", "1/0", ",", "3,"]


def _mostly(common, rare):
    """``common`` four times in five, else ``rare``."""
    return st.sampled_from([False] * 4 + [True]).flatmap(lambda r: rare if r else common)


def _value(valid):
    # a value is hostile one time in five, so that many whole argv lists are valid
    return _mostly(valid, st.sampled_from(HOSTILE))


def _ints(lo, hi):
    return _value(st.integers(lo, hi).map(str))


def _joined(token, min_size, max_size):
    return st.lists(token, min_size=min_size, max_size=max_size).map(",".join)


def _opt(name, values):
    # --name=value, so that values starting with "-" reach the handler
    return values.map(lambda v: [f"--{name}={v}"])


def _maybe(name, values):
    return st.one_of(st.just([]), _opt(name, values))


def _rarely(name, values):
    return _mostly(st.just([]), _opt(name, values))


def _flag(name):
    return st.sampled_from([[], [f"--{name}"]])


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [tok for p in ps for tok in p])


_BOUNDS = _argv(
    "bounds",
    _opt("cycles", _joined(_ints(3, 10**6), 0, 8)),
    _maybe("format", st.sampled_from(["table", "json", "csv", "xml"])),
)
_SOLVE = _argv(
    "solve",
    _opt("model", st.sampled_from(["regular", "gnp", "bipartite", "star"])),
    _opt("c", _value(st.one_of(
        st.tuples(st.integers(1, 10**12), st.integers(1, 10**6)).map(lambda pq: "%d/%d" % pq),
        st.integers(-400, 400).map(lambda k: f"1e{k}"),
    ))),
    _maybe("format", st.sampled_from(["table", "json"])),
)


@st.composite
def _simulate(draw):
    model = draw(st.sampled_from(["gnp", "bipartite", "pairing"]))
    pairing = model == "pairing"
    simple = pairing and draw(st.booleans())
    p = _value(st.floats(0, 1).map(repr))
    d = _ints(1, 4 if simple else 8)
    parts = [
        _opt("N", _ints(1, 24)),
        _rarely("s", _ints(1, 4)) if simple else _opt("s", _ints(1, 4)),
        _rarely("p", p) if pairing else _opt("p", p),
        _opt("d", d) if pairing else _rarely("d", d),
        _opt("trials", _ints(1, 4)),
        _opt("seed", _ints(0, 2**32)),
        _maybe("mode", st.sampled_from(["auto", "exact", "heuristic"])),
        _opt("iters", _ints(1, 20)),
        st.just(["--simple-only"]) if simple else _mostly(st.just([]), st.just(["--simple-only"])),
    ]
    return draw(_argv("simulate", st.just([f"--model={model}"]), *parts))


@st.composite
def _construct(draw):
    options = [
        _opt("leaf-tree", _ints(2, 5000)),
        _opt("connector", _value(st.one_of(
            st.tuples(_ints(1, 64), _ints(1, 64), _ints(1, 300)).map(",".join),
            _joined(_ints(1, 64), 0, 4),
        ))),
        _opt("multipartite", _joined(_ints(1, 6), 0, 5)),
    ]
    # mostly exactly one option, as the command requires
    chosen = draw(_mostly(
        st.integers(0, 2).map(lambda k: [k]),
        st.lists(st.integers(0, 2), unique=True),
    ))
    return draw(_argv("construct", *(options[k] for k in chosen)))


_HOST = _mostly(
    st.one_of(
        st.integers(1, 7).map(lambda n: f"K{n}"),
        st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda ab: "K%dx%d" % ab),
        st.integers(3, 12).map(lambda n: f"C{n}"),
        st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
            lambda sizes: "M" + "x".join(map(str, sizes))),
    ),
    st.sampled_from([
        "K", "K0", "Kx", "K0x3", "K-1", "C0", "C-3", "K1e400", "M", "Mx", "M0x-2", "Q6",
        "@no-such-host-file",
    ]),
)
_TARGET = _mostly(
    st.one_of(
        st.integers(3, 12).map(lambda n: f"C{n}"),
        st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda ab: "K%dx%d" % ab),
    ),
    st.sampled_from(["", "C0", "C2", "C-1", "K0x2", "Q3", "C1e400", "K2x", "x"]),
)
_ARROW = _argv(
    "arrow",
    _opt("host", _HOST),
    _opt("targets", _mostly(_joined(_TARGET, 1, 3), _joined(_TARGET, 0, 4))),
    _flag("bipartite"),
)
_REPRODUCE = _argv("reproduce", _flag("json"))
_ANY_ARGV = st.one_of(
    _BOUNDS, _SOLVE, _simulate(), _construct(), _ARROW, _REPRODUCE,
    st.sampled_from([[], ["bounds"], ["frobnicate"], ["solve", "--model=gnp"]]),
)


def _main_output(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2, argv
            rc = 2
    return rc, out.getvalue(), err.getvalue()


@example(["solve", "--model=gnp", "--c=1e-400"])
@example(["solve", "--model=bipartite", "--c=1e-320"])
@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(_ANY_ARGV)
def test_generated_argv_ends_in_a_known_exit_code(argv):
    rc, out, err = _main_output(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    assert "Traceback" not in err
    if rc:
        assert out == "" and "error:" in err
    assert _main_output(argv)[:2] == (rc, out)


# ── module and script entry points ───────────────────────────────────────────


def test_module_entry_point_subprocess():
    # the child does not see pytest's pythonpath setting, so hand it src/
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_lab", "solve", "--model", "gnp", "--c", "10"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == (
        "model gnp\nc 10\nrho 1/10\nd_min 63.903185965\ndensity_ceiling 64\n"
    )
    assert json.loads(proc.stderr.splitlines()[-1])["command"] == "solve"


_MPMATH_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import ramsey_lab.cli as cli

def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), "mpmath" in sys.modules

print(json.dumps([run("construct", "--leaf-tree", "5"),
                  run("arrow", "--host", "K6", "--targets", "C3,C3"),
                  run("solve", "--model", "regular", "--c", "95412"),
                  run("reproduce")]))
"""


def test_mpmath_loads_only_for_the_regular_solver(capsys):
    """construct and arrow never import mpmath; solve and reproduce print the same bytes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MPMATH_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    construct, arrow, solve, reproduce = json.loads(proc.stdout)
    assert construct[0] == arrow[0] == 0
    assert not construct[2] and not arrow[2]
    assert solve[2] and reproduce[2]
    assert solve[:2] == [0, run_cli(capsys, "solve", "--model", "regular", "--c", "95412")[1]]
    assert reproduce[:2] == [0, run_cli(capsys, "reproduce")[1]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
