"""Record the expected output of every built-in pool operation.

Usage: python3 bench/record.py

Runs each digest-checked operation the workloads can draw once,
in-process, and writes its exit code and stdout sha256 to
bench/expected.json, together with the full `table10` output and the
`verify-appendix` check names that the filtered operations are checked
against.  Run it only at a commit whose outputs are known to be right;
the checked-in file was recorded at commit 3a5c677.
"""
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from delsarte import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def main() -> None:
    pool = workloads.frobenius_keys() + workloads.pointcount_keys() + workloads.catalog_keys()
    digests = {}
    for key, argv in pool:
        rc, out = run(argv)
        digests[key] = {"exit": rc, "sha256": checks.digest(out)}
        print(rc, key, flush=True)
    _, table10 = run(["table10"])
    _, appendix = run(["verify-appendix"])
    if any(not line.startswith("PASS\t") for line in appendix.splitlines()):
        raise SystemExit("verify-appendix does not pass; not recording")
    names = [line.split("\t", 1)[1] for line in appendix.splitlines()]
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump({"digests": digests, "table10": table10, "appendix_names": names}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
