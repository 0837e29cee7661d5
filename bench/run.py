"""delsarte benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload frobenius --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --check          # correctness-only pass, no timing

Each workload is a closed loop with one client: the operation list drawn
from the seed runs in a fresh interpreter (bench/worker.py), in-process
through `delsarte.cli.main`, each operation starting after the previous one
returns.  Such passes repeat, each in a new interpreter so no operation
input repeats within one process: a fixed number per workload (PASSES),
so the number of samples does not depend on the program's speed, with
`--seconds` only as a cap on the time spent starting passes.  Every output
of every pass is checked.

With `--trace 0` the last stdout line reports the end-to-end metrics:
  setup_s      median over the untraced interpreters the run starts (a
               set-up-only one before each pass, and the pass's own) of spawn ->
               `import delsarte.cli` + `build_parser()` done
  wall_s       wall time of the whole operation list at a fixed host
               speed: each operation's median over the run's passes of
               its time scaled by REF_S / (the pass's median time of a
               fixed reference loop, run before every operation)
  peak_rss_mb  median `ru_maxrss` of the pass processes
With `--trace 1` untraced and traced passes alternate; the traced ones
wrap the package's public functions from outside (bench/tracer.py) and
give the per-layer metrics, the untraced ones give `trace.overhead_ratio`
and the per-class time sums (`prime_field_s`, `ext_field_s`,
`structure_s`, `appendix_s`) and `failed_ops`, which are zero on the
workloads that lack that class and so are not end-to-end metrics.

Inputs, per-operation times, all metrics and traced spans are written
under .bench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# passes per run and per kind (untraced, traced); at the seed commit on
# 2 vCPUs they take 25-30 s, well inside BENCHMARK.json's run_seconds (40)
PASSES = {"frobenius": 6, "pointcount": 8, "catalog": 16}
# the reference loop's (worker.reference_loop) typical time on the 2-vCPU
# host the baseline was recorded on; wall_s is in seconds at that speed
REF_S = 0.0025
MIN_PASSES = 3
DEADLINE_S = 170.0

MODULES = ("cli", "deformation", "exactalg", "monomials", "cyclotomic", "pointcount", "zetafermat", "symbolic")

# Traced span -> the quantities reported for it, each as metric
# "<span>.<quantity>": calls; self_s (span time minus its child spans);
# total_s (outermost spans of that name only); distinct_ratio (distinct
# argument keys / calls); points_per_s (work / self_s); any other quantity
# is the span's work count, computed from the call's arguments or result.
LAYERS = {
    "zetafermat.jacobi_eigenvalue": ("calls", "self_s", "distinct_ratio", "tuples"),
    "zetafermat.char_poly_invariant": ("calls", "self_s", "types"),
    "zetafermat.multiplicative_character": ("calls", "self_s"),
    "zetafermat.verify_common_factor": ("total_s",),
    "cyclotomic.CyclotomicElement.__mul__": ("calls", "self_s"),
    "cyclotomic.CyclotomicElement.reduced": ("calls", "self_s"),
    "pointcount.FiniteField": ("calls", "self_s", "elements"),
    "pointcount.count_cone": ("calls", "self_s", "points", "points_per_s"),
    "pointcount.is_general_position": ("calls", "self_s", "points"),
    "monomials.invariant_image": ("self_s", "elements"),
    "monomials.g_invariant_types": ("self_s",),
    "monomials.enumerate_basis": ("self_s", "types"),
    "monomials.strong_classes": ("self_s",),
    "monomials.weak_classes": ("self_s",),
    "exactalg.determinant": ("calls", "self_s"),
    "exactalg.minimal_map_matrix": ("calls", "self_s", "distinct_ratio"),
    "deformation.build": ("calls", "self_s"),
    "deformation.common_cover": ("total_s",),
    "symbolic.appendix_checks": ("calls", "total_s"),
    "symbolic.bitangent_eliminant": ("calls", "total_s"),
    "symbolic.resultant": ("calls", "self_s", "sylvester_dim"),
    "symbolic.exact_div": ("calls", "self_s"),
    "symbolic.MultiPoly.__mul__": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"self_s": "s", "total_s": "s", "distinct_ratio": "ratio", "points_per_s": "1/s"}
HIGHER_IS_BETTER = {"distinct_ratio", "points_per_s"}
# measured on the untraced passes of a traced run
CLASS_METRICS = [
    ("prime_field_s", "s", "lower"),
    ("ext_field_s", "s", "lower"),
    ("structure_s", "s", "lower"),
    ("appendix_s", "s", "lower"),
    ("failed_ops", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
E2E_METRICS = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
CLASS_OF = {"prime": "prime_field_s", "ext": "ext_field_s", "structure": "structure_s", "appendix": "appendix_s"}


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric a traced run reports."""
    out = [
        (f"{span}.{q}", UNITS.get(q, "count"), "higher" if q in HIGHER_IS_BETTER else "lower")
        for span, quantities in LAYERS.items()
        for q in quantities
    ]
    out += [(f"{module}.errors", "count", "lower") for module in MODULES]
    return out + CLASS_METRICS


def layer_values(summary: dict) -> dict:
    """Per-layer metric values of one traced pass."""
    values = {}
    for span, quantities in LAYERS.items():
        row = summary[span]
        for q in quantities:
            if q == "distinct_ratio":
                value = row["distinct"] / row["calls"] if row["calls"] else 0.0
            elif q == "points_per_s":
                value = row["work"] / row["self_s"] if row["self_s"] else 0.0
            else:
                value = row[q] if q in ("calls", "self_s", "total_s") else row["work"]
            values[f"{span}.{q}"] = value
    for module in MODULES:
        values[f"{module}.errors"] = sum(r["errors"] for s, r in summary.items() if s.split(".")[0] == module)
    return values


class Runner:
    """Spawns worker processes for one benchmark run and collects their reports."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, job: dict) -> tuple[float, dict]:
        self.count += 1
        job_path = os.path.join(self.workdir, f"job{self.count}.json")
        result_path = os.path.join(self.workdir, f"result{self.count}.json")
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        worker = os.path.join(HERE, "worker.py")
        started = time.monotonic()
        with subprocess.Popen([sys.executable, worker, job_path, result_path], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) as proc:
            try:
                _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
            except BaseException:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {err.decode(errors='replace')[-2000:]}")
        with open(result_path, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(result_path)
        return report["ready"] - started, report


def run_pass(runner: Runner, ops: list, expected: dict, trace: bool, tag: str) -> dict:
    job = {"ops": [{"argv": op["argv"]} for op in ops], "trace": trace,
           "spans_path": os.path.join(runner.workdir, f"spans-{tag}.csv.gz")}
    setup_s, report = runner.spawn(job)
    reasons = checks.check_pass(ops, report["ops"], expected)
    return {
        "trace": trace,
        "setup_s": setup_s,
        "wall_s": report["wall_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "op_elapsed_s": [res["elapsed_s"] for res in report["ops"]],
        "reference_s": statistics.median(report["reference_s"]),
        "failures": {i: r for i, r in enumerate(reasons) if r},
        "layers": layer_values(report["layers"]) if trace else None,
        "spans": report.get("spans"),
    }


def scaled_times(passes: list) -> list:
    """Each operation's median time over the passes, at the reference host speed.

    The host's speed drifts by up to 1.5x in phases of seconds to minutes,
    longer than a run, and a fixed pure-Python loop slows with it (on the
    2-vCPU baseline host, loop and operation times alternated for 80 s
    correlate at 0.86).  So each pass's
    times are scaled by REF_S over that pass's median loop time.
    """
    return [
        statistics.median(t * REF_S / p["reference_s"] for p, t in zip(passes, times))
        for times in zip(*(p["op_elapsed_s"] for p in passes))
    ]


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()}


def prepare(workload: str, seed: int, tag: str) -> tuple[str, list]:
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-{tag}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rng = random.Random(f"{workload}:{seed}")
    ops = workloads.WORKLOADS[workload](rng, workdir)
    with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, handle, indent=1)
    return workdir, ops


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t0 = time.monotonic()
    workdir, ops = prepare(workload, seed, f"trace{int(trace)}")
    expected = load_expected()
    runner = Runner(workdir, t0 + DEADLINE_S)
    setups = []
    passes = []
    start = time.monotonic()
    # alternate untraced and traced passes in a traced run; a set-up-only
    # process before each pass spreads the set-up samples over the run
    while len(passes) < MIN_PASSES * (1 + trace) or (
        len(passes) < PASSES[workload] * (1 + trace) and time.monotonic() - start < seconds
    ):
        setups.append(runner.spawn({"setup_only": True})[0])
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(runner, ops, expected, traced, f"pass{len(passes)}"))
        if not traced:
            setups.append(passes[-1]["setup_s"])
    plain = [p for p in passes if not p["trace"]]
    traced_passes = [p for p in passes if p["trace"]]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    scaled = scaled_times(plain)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(scaled),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    layers = {}
    if trace:
        for name in traced_passes[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced_passes)
        for cls, name in CLASS_OF.items():
            layers[name] = sum(t for op, t in zip(ops, scaled) if op["cls"] == cls)
        layers["failed_ops"] = failed / attempted
        layers["trace.overhead_ratio"] = sum(scaled_times(traced_passes)) / e2e["wall_s"]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "inputs": [{"argv": op["argv"], "class": op["cls"], "check": op["check"]} for op in ops],
        "setup_samples_s": setups,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "per_layer": layers,
    }
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    units = {n: u for n, u, _ in per_layer_metrics()} if trace else dict(E2E_METRICS)
    values = layers if trace else e2e
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def check_all(names, seed: int) -> int:
    """Correctness-only pass: each workload once untraced and once traced, all checks, no timing."""
    expected = load_expected()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in E2E_METRICS]:
        problems.append("BENCHMARK.json end_to_end names differ from the metrics reported")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != per_layer_metrics():
        problems.append("BENCHMARK.json per_layer differs from the metrics reported")
    for name in names:
        workdir, ops = prepare(name, seed, "check")
        runner = Runner(workdir, time.monotonic() + 600)
        for trace in (False, True):
            result = run_pass(runner, ops, expected, trace, f"check{int(trace)}")
            for i, reason in result["failures"].items():
                problems.append(f"{name}: {' '.join(ops[i]['argv'])}: {reason}")
            print(f"{name} trace={int(trace)}: {len(ops)} operations, {len(result['failures'])} failed", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="correctness-only pass over every workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "delsarte", "cli.py")):
        print(f"error: no delsarte sources under {ROOT}/src", file=sys.stderr)
        return 2
    # the workloads write their JSON inputs from the package's own registry
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.check:
        return check_all([args.workload] if args.workload else list(workloads.WORKLOADS), args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
