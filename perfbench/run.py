"""ramsey_lab benchmark: one seeded workload per run, measured from outside src/.

    python3 perfbench/run.py --workload hole_exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seed 1 --seconds 20   # every workload, both modes
    python3 perfbench/run.py --selftest                       # oracles + tiny-op smoke runs
    python3 perfbench/run.py --defects --seed 1               # cli ops that hit known defects

Run from the repository root.  A run sets up (import ramsey_lab, build the
workload's inputs, one warm-up op), then times ops one after another in
this single process, with one library worker, for --seconds, checking
every answer against an oracle.  Eight times during the run the loop
pauses for a set-up child, which repeats the set-up in a fresh interpreter;
the first four also replay a block of ops, whose fingerprints must equal
the timed run's (determinism check).  setup_s is the median of the nine
set-ups.  The
end-to-end times are normalised by a fixed reference loop timed between
slices of ops (see reference_loop); the wall-clock figures are in the
"# summary" line.  Lines
starting with "# " are a human-readable report; the last line is the JSON
result.  --trace 1 wraps the library's public functions and reports
per-layer numbers instead of the end-to-end ones.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 8  # set-up children per run
REPLAY_CHILDREN = 4  # the first ones also replay an op block
END_TO_END = ("norm_units_per_s", "norm_op_p50_ms", "setup_s", "peak_rss_mb")
P90_MIN_OPS = 100  # report p90 only with at least 10 samples beyond it
REF_ITERS = 4_000
REF_REPEATS = 2
REF_NOMINAL_S = 0.002  # normalised times are times at the speed where the reference takes this
SLICE_S = 0.1  # op time between two reference measurements
DEFECT_ROUNDS = 4  # rounds of the full cli mix that --defects runs
_REF_TABLE = {j: 0 for j in range(1024)}


def reference_loop() -> int:
    """Fixed pure-Python work: integer arithmetic and dict updates.

    It never calls ramsey_lab and allocates no object the garbage collector
    tracks, so the heap a workload leaves behind does not slow it down.
    Timed between slices of ops, it tracks how fast the machine runs the
    interpreter at that moment; on a shared host that speed changes by a
    factor of 1.6 within seconds, and op times divided by the reference
    time change far less.
    """
    acc, table = 0, _REF_TABLE
    for i in range(REF_ITERS):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        table[acc & 1023] ^= acc >> 7
    return acc


def reference_s() -> float:
    """Fastest of REF_REPEATS timed reference loops, with the collector off."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(REF_REPEATS):
            start = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def load_library() -> None:
    """Import ramsey_lab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "ramsey_lab" / "__init__.py").is_file():
        sys.exit(f"error: no ramsey_lab sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ramsey_lab
    import ramsey_lab.cli  # noqa: F401  (loads every module the workloads touch)

    if Path(ramsey_lab.__file__).resolve().parent != (src / "ramsey_lab").resolve():
        sys.exit(f"error: imported ramsey_lab from {ramsey_lab.__file__}, not {src}")


def environment(seed: int, threads_env) -> dict:
    import mpmath
    import numpy

    try:
        # the ceiling keeps git from looking for a repository above the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "ramsey_lab").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "RAMSEY_LAB_THREADS": threads_env,
        "library_workers": 1,
    }


def setup(args):
    """Import, build the workload and warm it up; returns (workload, tracer)."""
    load_library()
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    wl.warm_up()
    return wl, tracer


def replay(wl, ops) -> dict:
    """Fingerprints of the given op indices, untimed."""
    out = {}
    for i in ops:
        _, inputs = wl.prepare(i)
        out[i] = wl.check(inputs, wl.execute(inputs)).fingerprint
    return out


def child_block(wl, j: int) -> range:
    if j >= REPLAY_CHILDREN:
        return range(0)
    return range(j * wl.replay_block, (j + 1) * wl.replay_block)


class SetupChildren:
    """Set-up children, started one at a time while the timed loop pauses.

    Child j repeats the set-up in a fresh interpreter and replays op block
    j (see child_block).  The children are spread over the run, so that the set-up samples
    see the machine as the timed ops do and not only its state at the start.
    """

    def __init__(self, args):
        self.args = args
        self.setups: list = []
        self.prints: dict = {}

    def __call__(self, j: int) -> None:
        args = self.args
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-child", str(j)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"error: set-up child {j} failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.splitlines()[-1])
        self.setups.append(doc["setup_s"])
        self.prints.update({int(i): fp for i, fp in doc["fingerprints"].items()})


def run_op(wl, tracer, i: int):
    """Prepare, execute (timed) and check op i; returns (units, wall seconds, outcome)."""
    from workloads import Outcome

    units, inputs = wl.prepare(i)
    start = time.perf_counter()
    try:
        raw = tracer.op(i, wl.execute, inputs) if tracer else wl.execute(inputs)
        error = None
    except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
        raw, error = None, f"raised:{type(exc).__name__}"
    elapsed = time.perf_counter() - start
    if error is not None:
        return units, elapsed, Outcome(reason=error)
    try:
        return units, elapsed, wl.check(inputs, raw)
    except Exception as exc:  # malformed answer
        return units, elapsed, Outcome(reason=f"check_raised:{type(exc).__name__}")


def timed_loop(wl, tracer, seconds: float, pause=None):
    """Run ops back to back for `seconds`; returns per-op records and the
    reference times.

    A record is (op index, units, wall seconds, outcome, normalised
    seconds).  The reference loop runs before the first op, after every
    SLICE_S of ops and after the last op; an op's normalised time is its
    wall time times REF_NOMINAL_S over the mean of the two reference times
    around its slice.  `pause(j)` runs at (j + 1/2) / CHILDREN of the way
    through, between two reference measurements (or after the last op if
    that ran past it); its time does not count.
    """
    records, refs = [], [reference_s()]
    t0 = last_ref = time.perf_counter()
    paused, pauses = 0.0, 0
    i = 0
    while (clock := time.perf_counter() - t0 - paused) < seconds:
        if pause is not None and pauses < CHILDREN and clock >= (pauses + 0.5) * seconds / CHILDREN:
            refs.append(reference_s())
            start = time.perf_counter()
            pause(pauses)
            pauses += 1
            paused += time.perf_counter() - start
            refs.append(reference_s())
            last_ref = time.perf_counter()
        records.append((i, *run_op(wl, tracer, i), len(refs) - 1))
        i += 1
        if time.perf_counter() - last_ref >= SLICE_S:
            refs.append(reference_s())
            last_ref = time.perf_counter()
    refs.append(reference_s())
    while pause is not None and pauses < CHILDREN:  # a long last op ran past a pause
        pause(pauses)
        pauses += 1
    scale = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    return [(i, u, t, o, t * scale[k]) for i, u, t, o, k in records], refs


def fail_reasons(outcomes) -> tuple[dict, int]:
    """Failure counts by label, and how many are not known defects."""
    reasons: dict = {}
    unexpected = 0
    for o in outcomes:
        if o.reason is not None:
            label = o.reason + (" (known defect)" if o.known else "")
            reasons[label] = reasons.get(label, 0) + 1
            unexpected += not o.known
    return reasons, unexpected


def run(args) -> int:
    threads_env = os.environ.pop("RAMSEY_LAB_THREADS", None)
    wl, tracer = setup(args)
    setup_self = time.perf_counter() - T_START
    if args.setup_child is not None:
        fps = replay(wl, child_block(wl, args.setup_child))
        print(json.dumps({"setup_s": setup_self, "fingerprints": fps}))
        return 0

    children = SetupChildren(args)
    records, refs = timed_loop(wl, tracer, args.seconds, children)
    setups, child_prints = [setup_self] + children.setups, children.prints

    fingerprints = {}
    for i, _, _, outcome, _ in records:
        fp = json.loads(json.dumps(outcome.fingerprint))
        fingerprints[i] = fp
        if i in child_prints and child_prints[i] != fp:
            outcome.reason, outcome.known = "nondeterministic", False
    reasons, unexpected = fail_reasons(r[3] for r in records)
    attempted = len(records)
    failed = sum(1 for r in records if r[3].reason is not None)
    times = [r[2] for r in records]
    norm = [r[4] for r in records]
    units = sum(r[1] for r in records)
    units_per_s = units / sum(times)
    norm_units_per_s = units / sum(norm)

    summary = {
        "workload": args.workload,
        "unit": wl.unit,
        "ops": attempted,
        "norm_units_per_s": norm_units_per_s,
        "norm_op_p50_ms": statistics.median(norm) * 1e3,
        "units_per_s": units_per_s,
        "op_p50_ms": statistics.median(times) * 1e3,
        "reference_ms": {"median": statistics.median(refs) * 1e3, "min": min(refs) * 1e3,
                         "max": max(refs) * 1e3, "n": len(refs)},
        "norm_op_p90_ms": (statistics.quantiles(norm, n=10)[-1] * 1e3
                           if attempted >= P90_MIN_OPS else None),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1e3
                      if attempted >= P90_MIN_OPS else None),
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": failed / attempted,
        "fail_reasons": reasons,
        "replayed_ops": len(set(child_prints) & set(fingerprints)),
    }
    if hasattr(wl, "summary"):
        summary.update(wl.summary(fingerprints))
    unit_of = {"norm_units_per_s": "1/s", "norm_op_p50_ms": "ms", "setup_s": "s",
               "peak_rss_mb": "MB"}
    if tracer is None:
        metrics = {k: {"value": summary[k], "unit": unit_of[k]} for k in END_TO_END}
    else:
        layer = tracer.layer_metrics()
        layer["hole_recall"] = (summary.get("hole_recall", 0.0), "ratio")
        layer["traced_norm_units_per_s"] = (norm_units_per_s, "1/s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.npz")
        summary["per_layer"] = {k: m["value"] for k, m in metrics.items()}

    print("# env " + json.dumps(environment(args.seed, threads_env)))
    print("# summary " + json.dumps(summary))
    p90 = summary["norm_op_p90_ms"]
    print(f"# {args.workload}: {attempted} ops, {norm_units_per_s:.4g} {wl.unit}/s normalised "
          f"({units_per_s:.4g} wall), p50 {summary['norm_op_p50_ms']:.4g} ms normalised "
          f"({summary['op_p50_ms']:.4g} wall), "
          + (f"p90 {p90:.4g} ms normalised (n={attempted})" if p90 is not None
             else f"p90 not reported ({attempted} ops < {P90_MIN_OPS})")
          + f", setup {summary['setup_s']:.4g} s, peak RSS {summary['peak_rss_mb']:.1f} MB, "
          f"fail_frac {failed}/{attempted} {reasons or ''}")
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def report(args) -> int:
    """Every workload untraced and traced; all metrics and the tracing overhead."""
    from workloads import WORKLOADS

    for name in WORKLOADS:
        sums = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                return 1
            line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# summary "))
            sums[trace] = json.loads(line[len("# summary "):])
            sums[trace]["result"] = json.loads(proc.stdout.splitlines()[-1])
        s, t = sums[0], sums[1]
        print(f"== {name} (seed {args.seed}, {args.seconds} s, unit: {s['unit']}) ==")
        p90 = ("-" if s["op_p90_ms"] is None else
               f"{s['norm_op_p90_ms']:.4g} ms (wall {s['op_p90_ms']:.4g}, n={s['ops']})")
        print(f"  norm_units_per_s  {s['norm_units_per_s']:.6g} 1/s"
              f" (wall {s['units_per_s']:.6g})\n"
              f"  norm_op_p50_ms    {s['norm_op_p50_ms']:.6g} ms (wall {s['op_p50_ms']:.6g})\n"
              f"  norm_op_p90_ms    {p90}\n  setup_s           {s['setup_s']:.6g} s\n"
              f"  peak_rss_mb       {s['peak_rss_mb']:.6g} MB\n"
              f"  fail_frac         {s['fail_frac']:.4g} {s['fail_reasons']}\n"
              f"  correct           {s['result']['correct']}")
        if "hole_recall" in s:
            print(f"  hole_recall       {s['hole_recall']:.4g} ({s['hole_recall_base']})")
        overhead = 1 - t["norm_units_per_s"] / s["norm_units_per_s"]
        print(f"  tracing overhead  {overhead:.1%} of norm_units_per_s")
        for k, v in t["per_layer"].items():
            if v:
                print(f"  {k:42s} {v:.6g}")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--defects",
                           "--seed", str(args.seed)], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    print("== cli, full domain (known defects) ==\n  " + proc.stdout.strip())
    return proc.returncode


def defects(args) -> int:
    """The cli mix over its full domain, which reaches the known defects.

    A fixed number of ops, untimed: prints failed / attempted with the
    failure labels, so a fix to a known defect shows as a drop.  Exits 1 if
    any failure is not a known defect.
    """
    load_library()
    from workloads import CliMix

    wl = CliMix(args.seed, False, full=True)
    outcomes = [run_op(wl, None, i)[2] for i in range(DEFECT_ROUNDS * len(wl.kinds))]
    reasons, unexpected = fail_reasons(outcomes)
    failed = sum(reasons.values())
    print(json.dumps({"workload": "cli, full domain", "seed": args.seed,
                      "attempted": len(outcomes), "failed": failed,
                      "fail_frac": failed / len(outcomes), "fail_reasons": reasons,
                      "unexpected": unexpected}))
    return 1 if unexpected else 0


def selftest() -> int:
    """Oracle values at the headline constants, then a smoke run of every workload."""
    from fractions import Fraction

    load_library()
    import oracles

    failures = []
    for c, want in ((Fraction(95412), 2378777.3496956308),
                    (Fraction(538002, 35), 327090.22104669012)):
        got = oracles.regular_density(c)[1]
        if not oracles.close(want, got, 1e-15):
            failures.append(f"regular density at c={c}: {got}, want {want}")
    got = oracles.regular_density(Fraction(150737781250))[1]
    if not oracles.close(8.0611e12, got, 1e-4):
        failures.append(f"regular density at c=150737781250: {got}, want 8.0611e12")
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    if not (oracles.has_cycle(k5, 5) and not oracles.has_cycle(k5[:4], 3)):
        failures.append("cycle brute force")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {t: {m["name"]: m["unit"] for m in spec[k]}
                for t, k in ((0, "end_to_end"), (1, "per_layer"))}
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            try:
                res = json.loads(proc.stdout.splitlines()[-1])
                ok = (proc.returncode == 0 and res["correct"] and res["failed"] == 0
                      and {k: m["unit"] for k, m in res["metrics"].items()} == declared[trace])
            except (ValueError, IndexError, KeyError):
                ok = False
            print(f"smoke {w} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"smoke {w} trace={trace}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("hole_heuristic", "hole_exact", "arrow", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny ops, for the self-test")
    ap.add_argument("--report", action="store_true", help="run every workload, print all metrics")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--defects", action="store_true",
                    help="run the cli mix over its full domain; print the known-defect failures")
    ap.add_argument("--setup-child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.defects:
        return defects(args)
    if args.report:
        sys.path.insert(0, str(HERE))
        return report(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
