"""CLI stdout pinned byte for byte to the digests in bench/expected.json.

The digests were recorded from `cli.main` at a commit whose outputs are
known to be right.  Every non-`count` key runs here, every `--scan` key,
and one `--lambda` key per `count ... --q Q [--ext E]` prefix, so a change
to any exact result shows up in the unit tests and not only in the
benchmark.
"""
import contextlib
import hashlib
import io
import json
import os

import pytest

from delsarte import cli

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "..", "bench", "expected.json")
with open(EXPECTED_PATH, encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)

# name fragments that select each group of appendix checks
APPENDIX_TOKENS = (
    "quotient-identity",
    "discriminant",
    "isomorphism",
    "leading-factor",
    "vertical-bitangents",
    "eliminant-degree",
    "eliminant-even",
    "eliminant-factors",
    "spot-check",
)


def _pinned_keys() -> list[str]:
    digests = EXPECTED["digests"]
    keys = [k for k in digests if not k.startswith("count ") or k.endswith(" --scan")]
    first_per_prefix: dict[str, str] = {}
    for key in sorted(digests):
        if key.startswith("count ") and " --lambda " in key:
            first_per_prefix.setdefault(key.split(" --lambda ")[0], key)
    return sorted(keys + list(first_per_prefix.values()))


PINNED_KEYS = _pinned_keys()


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def test_pinned_key_count():
    assert len(PINNED_KEYS) == 77


@pytest.mark.parametrize("key", PINNED_KEYS)
def test_stdout_matches_recorded_digest(key):
    want = EXPECTED["digests"][key]
    status, text = run(key.split())
    assert status == want["exit"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want["sha256"]


@pytest.mark.parametrize("only", (None,) + APPENDIX_TOKENS)
def test_verify_appendix_matches_recorded_names(only):
    names = EXPECTED["appendix_names"]
    argv = ["verify-appendix", "--seed", "11"]
    if only is not None:
        names = [n for n in names if only in n]
        argv += ["--only", only]
    status, text = run(argv)
    assert status == 0
    assert text == "".join(f"PASS\t{n}\n" for n in names)
