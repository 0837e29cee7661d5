"""Measure the benchmark's baseline and write bench/BASELINE.json.

Usage (from the root of a checkout):

    python3 bench/baseline.py --label 3a5c677

Runs every workload once per seed 1..10 untraced and once traced (seed 1)
for BENCHMARK.json's `run_seconds`,
each as its own `bench/run.py` process, and records for every end-to-end
metric the ten values, their median and their quartile spread
(`statistics.quantiles(values, n=4)`, (Q3 - Q1) / median), the per-layer
metrics of the traced run, the machine, each workload's reason, and the
map from layer metric to the end-to-end metric it should move.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# layer metrics -> end-to-end metric they should move -> workload
LAYER_MAP = [
    ["zetafermat.jacobi_eigenvalue.{calls,self_s,distinct_ratio,tuples}", "prime_field_s, ext_field_s, wall_s", "frobenius"],
    ["zetafermat.char_poly_invariant.{calls,self_s,types}, zetafermat.multiplicative_character.{calls,self_s}, "
     "zetafermat.verify_common_factor.total_s", "wall_s", "frobenius"],
    ["cyclotomic.CyclotomicElement.{__mul__,reduced}.{calls,self_s}", "wall_s / appendix_s",
     "frobenius (order 8-108) / catalog (order 8 in symbolic)"],
    ["pointcount.FiniteField.{calls,self_s,elements}", "prime_field_s, ext_field_s", "frobenius, pointcount"],
    ["pointcount.count_cone.{calls,self_s,points,points_per_s}", "prime_field_s, ext_field_s", "pointcount"],
    ["pointcount.is_general_position.{calls,self_s,points}", "prime_field_s", "pointcount"],
    ["monomials.{invariant_image,g_invariant_types,enumerate_basis,strong_classes,weak_classes}.self_s, "
     "monomials.invariant_image.elements, monomials.enumerate_basis.types", "structure_s", "catalog (little on frobenius)"],
    ["exactalg.{determinant,minimal_map_matrix}.{calls,self_s}, exactalg.minimal_map_matrix.distinct_ratio",
     "structure_s", "catalog"],
    ["deformation.build.{calls,self_s}, deformation.common_cover.total_s", "structure_s / wall_s", "catalog / frobenius"],
    ["symbolic.{appendix_checks,bitangent_eliminant}.{calls,total_s}, symbolic.resultant.{calls,self_s,sylvester_dim}, "
     "symbolic.exact_div.{calls,self_s}, symbolic.MultiPoly.__mul__.{calls,self_s}",
     "appendix_s (MultiPoly also setup_s: its calls include the registry built at import)",
     "catalog"],
    ["cli.main.{calls,self_s}", "structure_s", "catalog"],
    ["<module>.errors, trace.overhead_ratio", "failed_ops", "all"],
]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    print(workload, seed, trace, json.dumps(result["metrics"] if not trace else result["correct"]), flush=True)
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the commit the baseline belongs to")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    out = {
        "commit": args.label,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "seconds": spec["run_seconds"],
        "seeds": list(range(1, 11)),
        "workloads": {},
        "layer_map": [dict(zip(("layer_metrics", "should_move", "on"), row)) for row in LAYER_MAP],
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [run(name, seed, spec["run_seconds"], 0) for seed in out["seeds"]]
        traced = run(name, 1, spec["run_seconds"], 1)
        out["workloads"][name] = {
            "why": workload["why"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]},
            "per_layer_seed1": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
