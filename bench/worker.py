"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/worker.py JOB.json RESULT.json

The worker imports `delsarte.cli` from the checkout's `src/`, builds the
parser, and records the monotonic time at which it is ready, so the parent
can compute set-up time from the moment it spawned the process.  Before
that point it only reads the job and, in a traced pass, hooks the tracer
into the package's classes; its other work comes after.  With
`setup_only` in the job it stops there.  Otherwise it runs every operation
once, in order, in-process through `cli.main` with stdout and stderr
captured, each operation starting after the previous one returns, and
times a reference loop before each operation and after the last.
"""
import os
import sys
import time


def reference_loop() -> float:
    """Time a fixed pure-Python loop (about 2.5 ms) that measures the host's current speed."""
    start = time.perf_counter()
    total = 0
    seen = {}
    for i in range(20_000):
        total += (i * i) % 7
        seen[i & 63] = total
    return time.perf_counter() - start


def run_ops(cli, ops, tracer):
    import contextlib
    import io
    import traceback

    results = []
    refs = []
    pass_start = time.perf_counter()
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        refs.append(reference_loop())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        results.append(
            {"rc": rc, "elapsed_s": elapsed, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
        )
    wall = time.perf_counter() - pass_start
    refs.append(reference_loop())
    return results, wall, refs


def main(job_path: str, result_path: str) -> None:
    import json

    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.hook_classes()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    from delsarte import cli

    cli.build_parser()
    ready = time.monotonic()

    import resource

    report = {"ready": ready}
    if not job.get("setup_only"):
        if tracer is not None:
            tracer.install()
        report["ops"], report["wall_s"], report["reference_s"] = run_ops(cli, job["ops"], tracer)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["layers"] = tracer.summary()
            report["spans"] = len(tracer.spans)
            tracer.write(job["spans_path"])
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main(*sys.argv[1:3])
