"""Structural commands on JSON families, pinned to digests from commit ab53dd2.

The digests (exit code and sha256 of stdout) were recorded at ab53dd2,
where the invariant types came from the additive closure of {m*B mod d}
and the adjugate from cofactors.  Two 5-variable families and the
degree-40 Fermat quartic with b = (10,10,10,10), whose quotient group has
order 40^4, cover what the ten built-in families do not.  The family
files are written under fixed names in a scratch directory, because
`analyze` prints the reference it was given.
"""
import contextlib
import hashlib
import io
import json

import pytest

from delsarte import cli

FAMILIES = {
    "fam5a.json": {
        "matrix": [[0, 6, 0, 0, 0], [0, 0, 0, 3, 0], [6, 0, 0, 0, 0], [0, 0, 5, 0, 1], [0, 0, 1, 0, 5]],
        "deformation": [1, 1, 1, 1, 1],
    },
    "fam5b.json": {
        "matrix": [[4, 1, 0, 0, 0], [0, 5, 0, 0, 0], [0, 0, 4, 1, 0], [0, 0, 0, 5, 0], [0, 0, 0, 0, 5]],
        "deformation": [1, 1, 1, 1, 1],
    },
    "diag40.json": {
        "matrix": [[40 if i == j else 0 for j in range(4)] for i in range(4)],
        "deformation": [10, 10, 10, 10],
    },
}

# argv -> (exit code, sha256 of stdout); fam5a has unequal weights, so
# `analyze` refuses it and prints nothing
PINS = {
    "analyze fam5a.json": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "invariants fam5a.json": (0, "145d1ba8824cafcad78e2d36911ae2a2fe721b8c57a70187ae52d4708ea91f1a"),
    "classes fam5a.json --kind strong": (0, "5fc7e26c62d3aaef1fc8fdd2c1212f9ec7a348ba3f1f7072e46690e4ab5730b4"),
    "classes fam5a.json --kind weak": (0, "7c3b22f85576d54da8d2a735f19f97c4a211043af525990b5860092ba942acef"),
    "analyze fam5b.json": (0, "aadcd68d6e84326de50403625fb5703f72d83552eb86edc6b8385f91ada43120"),
    "invariants fam5b.json": (0, "5b55c0757024a3e07b26863494a7b884aa9942a7a083c2c3506f07a3c6ca5aa4"),
    "classes fam5b.json --kind strong": (0, "e4d5d75aaa9e09bd68a8f9fc8e722f357551c7c26c22e40b286169879a1b0847"),
    "classes fam5b.json --kind weak": (0, "d8fe67444fbe7369e056523b3c16e8f459dd33249e0628ddde35f30f14613caa"),
    "analyze diag40.json": (0, "0fedfa98918d21a4089f792d473bc281a1c232e62410fb95ec8a8368478922d2"),
    "invariants diag40.json": (0, "0455b7c50bea42a44cc597221b13f409f6ed06b3bd0da0ea94a8cea32d0f9aef"),
    "classes diag40.json --kind strong": (0, "4c2ea45dfc02ae68e4c7d1d0856b719e646837bb72f717a27529ba70c22ad82d"),
    "classes diag40.json --kind weak": (0, "987db07fd27e4dc0fe53225ea9d7ebb7bc64aa7141f82f85c78a66f2aa77809c"),
}


@pytest.mark.parametrize("key", sorted(PINS))
def test_structural_stdout_matches_parent(key, tmp_path, monkeypatch):
    for name, obj in FAMILIES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(key.split())
    assert (status, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()) == PINS[key]
