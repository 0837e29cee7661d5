"""Seeded workloads: operation lists drawn from fixed pools.

Every workload is a list of operations, each a `delsarte` argument list
plus its class (for the per-class time sums) and the check its output must
pass.  The seed only draws among inputs of equal or similar cost (a
lambda value, a coordinate permutation, a filter subset, a generated family
inside a fixed size band) and sets the order, so the work in a pass stays
nearly the same for every seed while the inputs the program sees do not.
No operation input repeats within one pass.

Why each workload:

* frobenius -- `common-factor`, the paper's certification step.  Its time
  goes to Jacobi sums in `zetafermat` over `FiniteField` arithmetic; it
  never reaches `count_cone` or `symbolic`.  Shared-cover sets recompute
  eigenvalues of the same types across polynomials, single families do
  not, so a Jacobi cache shows on the first and its overhead on the second.
* pointcount -- `count`, the brute-force oracle.  Its time goes to
  `FiniteField` arithmetic in `count_cone` / `is_general_position`; it never
  reaches `zetafermat`.  lambda = 0 against lambda != 0 and Fermat against
  chain/loop rows vary how much of the cone's last level repeats; prime
  against extension fields splits the field's two code paths.
* catalog -- the structural commands and `verify-appendix`.  No finite
  field; many millisecond operations, so per-operation overhead shows.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from math import gcd, lcm

import checks

FAMILY_KEYS = [f"family{i}" for i in range(1, 11)]

# (family set, q).  Every q satisfies d_joint | q - 1; 49 and 81 are
# extension fields.  q = 121 and q >= 193 are left out: one such operation
# costs as much as the rest of the pass.
FROBENIUS_POOL = (
    (("family1", "family2", "family3"), 73),
    (("family2", "family3"), 97),
    (("family6", "family7"), 97),
    (("family6", "family7"), 49),
    (("family4",), 113),
    (("family5",), 81),
    (("family8",), 109),
    (("family8",), 49),
    (("family9",), 73),
    (("family10",), 109),
)

# (family, q, ext, lambda) with lambda None meaning "drawn from 1..p-1".
# q = 25, 27 and primes above 23 are left out: one such operation costs
# more than half of the pass, which leaves too few samples of it per run.
POINTCOUNT_POOL = (
    ("family1", 13, 1, 0),
    ("family1", 13, 1, None),
    ("family4", 17, 1, None),
    ("family7", 17, 1, None),
    ("family10", 19, 1, None),
    ("family5", 23, 1, 0),
    ("family1", 23, 1, None),
    ("family1", 9, 1, 0),
    ("family3", 9, 1, None),
    ("family8", 3, 2, None),
    ("family2", 16, 1, None),
    ("family1", 4, 2, None),
    ("family6", 2, 3, None),
)

# --scan only where the closed form for the singular locus agrees with
# the brute-force scan, so a later closed-form scan keeps these outputs.
SCAN_POOL = (("family1", 5), ("family1", 13), ("family6", 13), ("family8", 13))

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
    "-2",
    "-6",
)

# Generated-family bands: (variables, |det A| range, invariant-type count
# range, equal weights).  The structural commands' work grows with |det A|,
# the size of the quotient group, and with the number of invariant types,
# so the bands keep a pass's work steady across seeds.  Equal weights make
# the family a quartic (4 variables) or quintic (5) in plain projective
# space, where `analyze` applies.
GENERATED_BANDS = (
    (4, (100, 200), (8, 21), False),
    (4, (200, 450), (8, 21), False),
    (5, (1200, 1800), (150, 250), False),
    (5, (2000, 2600), (150, 250), False),
    (4, (1, 10**6), (1, 10**6), True),
    (5, (1, 10**6), (1, 10**6), True),
)
MAX_DEGREE = 400


def prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return p, k


def _op(key: str, argv, cls: str, check: dict) -> dict:
    return {"key": key, "argv": [str(a) for a in argv], "cls": cls, "check": check}


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)
    return path


# -- frobenius ----------------------------------------------------------------


def _permuted_copy(key: str, cols, rows) -> dict:
    from delsarte import deformation

    data = deformation.family(key)
    return {
        "matrix": [[data.matrix.rows[r][c] for c in cols] for r in rows],
        "deformation": [data.deformation[c] for c in cols],
    }


def frobenius_keys() -> list[tuple[str, list]]:
    """Every (key, argv) the frobenius workload runs, with registry names."""
    argvs = [["common-factor", *fams, "--q", str(q)] for fams, q in FROBENIUS_POOL]
    return [(" ".join(a), a) for a in argvs]


def frobenius(rng, workdir: str) -> list[dict]:
    ops = []
    for n, ((fams, q), (key, _)) in enumerate(zip(FROBENIUS_POOL, frobenius_keys())):
        refs = {}
        if rng.random() < 0.5:
            # same problem written as JSON with permuted variables and
            # monomials (one permutation for the whole set, so the cover
            # stays common); the output is identical up to the file names
            cols, rows = list(range(4)), list(range(4))
            rng.shuffle(cols)
            rng.shuffle(rows)
            names = []
            for fam in fams:
                path = os.path.join(workdir, f"frob{n}-{fam}.json")
                _write_json(path, _permuted_copy(fam, cols, rows))
                refs[path] = fam
                names.append(path)
        else:
            names = list(fams)
        cls = "prime" if prime_power(q)[1] == 1 else "ext"
        ops.append(_op(key, ["common-factor", *names, "--q", q], cls, {"kind": "digest", "refs": refs}))
    rng.shuffle(ops)
    return ops


# -- pointcount ---------------------------------------------------------------


def _count_argv(fam, q, ext, lam):
    argv = ["count", fam, "--q", q]
    if ext != 1:
        argv += ["--ext", ext]
    return argv + ["--lambda", lam]


def pointcount_keys() -> list[tuple[str, list]]:
    """Every (key, argv) the pointcount workload can draw."""
    out = []
    for fam, q, ext, lam in POINTCOUNT_POOL:
        lams = [lam] if lam is not None else range(1, prime_power(q)[0])
        for value in lams:
            argv = [str(a) for a in _count_argv(fam, q, ext, value)]
            out.append((" ".join(argv), argv))
    for fam, q in SCAN_POOL:
        argv = ["count", fam, "--q", str(q), "--scan"]
        out.append((" ".join(argv), argv))
    return out


def pointcount(rng, workdir: str) -> list[dict]:
    ops = []
    for fam, q, ext, lam in POINTCOUNT_POOL:
        if lam is None:
            lam = rng.randrange(1, prime_power(q)[0])
        argv = _count_argv(fam, q, ext, lam)
        cls = "prime" if prime_power(q)[1] * ext == 1 else "ext"
        ops.append(_op(" ".join(map(str, argv)), argv, cls, {"kind": "digest"}))
    for fam, q in SCAN_POOL:
        argv = ["count", fam, "--q", q, "--scan"]
        ops.append(_op(" ".join(map(str, argv)), argv, "prime", {"kind": "digest"}))
    rng.shuffle(ops)
    return ops


# -- catalog ------------------------------------------------------------------


def structure_argvs(ref: str, equal_weights: bool = True) -> list[list[str]]:
    argvs = [["analyze", ref]] if equal_weights else []
    argvs += [
        ["invariants", ref],
        ["invariants", ref, "--group", "Gmax"],
        ["classes", ref, "--kind", "strong"],
        ["classes", ref, "--kind", "weak"],
    ]
    return argvs


def catalog_keys() -> list[tuple[str, list]]:
    """Every digest-checked (key, argv) of the catalog workload."""
    argvs = [["table10"]] + [a for fam in FAMILY_KEYS for a in structure_argvs(fam)]
    return [(" ".join(a), a) for a in argvs]


def catalog(rng, workdir: str) -> list[dict]:
    ops = [_op(key, argv, "structure", {"kind": "digest"}) for key, argv in catalog_keys()]
    # --only "family1" would also select family10 (substring match), a
    # known defect whose fix changes that output; draw from the rest
    subsets = []
    while len(subsets) < 2:
        keys = sorted(rng.sample(FAMILY_KEYS[1:], rng.randint(2, 4)), key=FAMILY_KEYS.index)
        if keys not in subsets:
            subsets.append(keys)
    for keys in subsets:
        ops.append(_op("table10 --only", ["table10", "--only", ",".join(keys)], "structure",
                       {"kind": "table10", "keys": keys}))
    for n, band in enumerate(GENERATED_BANDS):
        fam = generate_family(rng, *band)
        path = _write_json(os.path.join(workdir, f"gen{n}.json"),
                           {"matrix": fam["matrix"], "deformation": fam["deformation"]})
        for argv in structure_argvs(path, fam["equal_weights"]):
            ops.append(_op(f"gen{n} {argv[0]}", argv, "structure",
                           {"kind": "generated", "family": fam, "group": n}))
    seeds = rng.sample(range(1_000_000), 5)
    ops.append(_op("verify-appendix", ["verify-appendix", "--seed", seeds[0]], "appendix",
                   {"kind": "appendix", "only": None}))
    for seed in seeds[1:]:
        tokens = rng.sample(APPENDIX_TOKENS, rng.randint(1, 3))
        ops.append(_op("verify-appendix --only", ["verify-appendix", "--seed", seed, "--only=" + ",".join(tokens)],
                       "appendix", {"kind": "appendix", "only": tokens}))
    rng.shuffle(ops)
    return ops


# -- generated Delsarte families -----------------------------------------------


def _inverse(rows):
    """(A^-1, det A) over Q by Gauss-Jordan elimination; (None, 0) if singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None, 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a], int(det)


def _atomic_rows(rng, n1: int, equal_degree: int | None):
    """Exponent rows of an invertible polynomial: Fermat, chain and loop blocks."""
    rows = []
    start = 0
    while start < n1:
        length = rng.randint(1, n1 - start)
        shape = "fermat" if length == 1 else rng.choice(("chain", "loop"))
        for i in range(length):
            row = [0] * n1
            var = start + i
            last = i == length - 1
            if equal_degree is not None:
                exponent = equal_degree if shape == "fermat" or (shape == "chain" and last) else equal_degree - 1
            else:
                exponent = rng.randint(2, 7)
            row[var] = exponent
            if shape == "chain" and not last:
                row[var + 1] = 1
            elif shape == "loop":
                row[start + (i + 1) % length] = 1
            rows.append(row)
        start += length
    perm = list(range(n1))
    rng.shuffle(perm)
    return [[row[c] for c in perm] for row in rows]


def generate_family(rng, n1: int, det_band, types_band, equal_weights: bool) -> dict:
    """Rejection-sample deformation data that `deformation.build` accepts.

    The conditions are the ones `build` checks: nonnegative entries, a zero
    in every column, nonsingular, positive weights w = B*1 with B = d*A^-1
    minimal integral, a nonnegative deformation vector of weighted degree d,
    and nonnegative cover exponents b = a*B.  The deformation vector is
    (1, ..., 1), as for the built-in families, so sum(w) = d.  The bands
    and the bound on d keep the work per family steady.
    """
    while True:
        rows = _atomic_rows(rng, n1, n1 if equal_weights else None)
        if any(all(row[j] != 0 for row in rows) for j in range(n1)):
            continue
        inv, det = _inverse(rows)
        if inv is None or not det_band[0] <= abs(det) <= det_band[1]:
            continue
        d = lcm(*(x.denominator for row in inv for x in row))
        b_matrix = [[int(x * d) for x in row] for row in inv]
        weights = [sum(row) for row in b_matrix]
        b_vec = [sum(column) for column in zip(*b_matrix)]
        if d > MAX_DEGREE or sum(weights) != d or min(weights) <= 0 or min(b_vec) < 0:
            continue
        same = all(w == weights[0] for w in weights)
        fam = {
            "matrix": rows,
            "deformation": [1] * n1,
            "degree": d,
            "map_matrix": b_matrix,
            "cover_exponents": b_vec,
            "weights": weights,
            "equal_weights": same,
            "reduced_degree": d // gcd(*weights),
        }
        count = len(checks.invariant_types(fam))
        if same == equal_weights and types_band[0] <= count <= types_band[1]:
            return fam


WORKLOADS = {"frobenius": frobenius, "pointcount": pointcount, "catalog": catalog}
