"""Output checks for benchmark operations.

Built-in inputs are checked against the exit code and stdout digest
recorded in `expected.json`.  Generated families are checked from first
principles with the benchmark's own arithmetic: printed types are interior,
sum to 0 mod d and satisfy k*A = 0 (mod d), and they are all such types;
the PF marks are exactly the interior multiples of b; class blocks
partition the invariant list and the strong blocks refine the weak ones;
`analyze` agrees with all of that.
"""
from __future__ import annotations

import functools
import hashlib
import itertools

TABLE10_HEADER = "family\tF0\td\tb\tPF\tdimW\tc"
ANALYZE_HEADER = "family\td\tb\tPF\tdimW\tc"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_type(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _fmt(vec) -> str:
    return "(" + ",".join(str(x) for x in vec) + ")"


def pf_types(fam: dict) -> set:
    d, b = fam["degree"], fam["cover_exponents"]
    out = set()
    for t in range(d):
        k = tuple((t * x) % d for x in b)
        if all(0 < e < d for e in k):
            out.add(k)
    return out


@functools.lru_cache(maxsize=None)
def _span_types(b_rows: tuple, d: int) -> frozenset:
    span = {(0,) * len(b_rows)}
    frontier = list(span)
    while frontier:
        base = frontier.pop()
        for row in b_rows:
            nxt = tuple((x + y) % d for x, y in zip(base, row))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return frozenset(k for k in span if sum(k) % d == 0 and all(0 < e < d for e in k))


def invariant_types(fam: dict) -> frozenset:
    """Interior types in the row span of B = d*A^-1 modulo d (those with k*A = 0 mod d)."""
    return _span_types(tuple(map(tuple, fam["map_matrix"])), fam["degree"])


def interior_count(degree: int, n1: int) -> int:
    """Interior types of the degree-`degree` Fermat hypersurface in n1 variables."""
    return sum(1 for head in itertools.product(range(1, degree), repeat=n1 - 1) if (-sum(head)) % degree)


def check_op(op: dict, result: dict, expected: dict) -> str | None:
    """None if the operation's output is right, otherwise the reason."""
    check = op["check"]
    out = result["stdout"]
    if check["kind"] == "digest":
        want = expected["digests"].get(op["key"])
        if want is None:
            return "no recorded digest"
        for path, name in check.get("refs", {}).items():
            out = out.replace(path, name)
        if result["rc"] != want["exit"]:
            return f"exit {result['rc']}, expected {want['exit']}"
        return None if digest(out) == want["sha256"] else "stdout digest differs"
    if result["rc"] != 0:
        return f"exit {result['rc']}: {result['stderr'][-300:]}"
    if check["kind"] == "table10":
        rows = {line.split("\t", 1)[0]: line for line in expected["table10"].splitlines()[1:]}
        want = "\n".join([TABLE10_HEADER] + [rows[k] for k in check["keys"]]) + "\n"
        return None if out == want else "filtered table differs from the full table"
    if check["kind"] == "appendix":
        names = expected["appendix_names"]
        if check["only"] is not None:
            names = [n for n in names if any(t in n for t in check["only"])]
        want = "".join(f"PASS\t{n}\n" for n in names)
        return None if out == want else "appendix output is not the expected PASS lines"
    if check["kind"] == "generated":
        return _check_generated(op["argv"], out, check["family"])
    return f"unknown check {check['kind']}"


def _check_generated(argv, out: str, fam: dict) -> str | None:
    d, rows = fam["degree"], fam["matrix"]
    n1 = len(rows)
    lines = out.splitlines()
    if argv[0] == "analyze":
        if len(lines) != 2 or lines[0] != ANALYZE_HEADER:
            return "analyze output malformed"
        cells = lines[1].split("\t")
        if cells[1:3] != [str(d), _fmt(fam["cover_exponents"])] or cells[3] != str(len(pf_types(fam))):
            return "analyze d, b or PF wrong"
        return None
    if argv[0] == "invariants":
        types = []
        marked = set()
        for line in lines:
            text, _, mark = line.partition("\t")
            k = _parse_type(text)
            if len(k) != n1 or not all(0 < e < d for e in k) or sum(k) % d:
                return f"type {text} is not an interior type mod {d}"
            if any(sum(k[i] * rows[i][j] for i in range(n1)) % d for j in range(n1)):
                return f"type {text} fails k*A = 0 mod {d}"
            if mark not in ("", "PF"):
                return f"unknown mark {mark!r}"
            if mark:
                marked.add(k)
            types.append(k)
        if types != sorted(set(types)):
            return "types not sorted or repeated"
        if marked != pf_types(fam):
            return "PF marks are not the interior multiples of b"
        if "--group" in argv:
            return None if set(types) == marked else "Gmax list is not the multiples of b"
        return None if set(types) == invariant_types(fam) else "invariant list is not the span of B"
    if argv[0] == "classes":
        for line in lines:
            size, _, text = line.partition("\t")
            if int(size) != len(text.split(" ")):
                return "class size does not match its block"
        return None
    return f"unexpected command {argv[0]}"


def check_generated_group(ops, results) -> str | None:
    """Cross-command checks for one generated family within one pass."""
    by_cmd = {}
    fam = ops[0]["check"]["family"]
    for op, res in zip(ops, results):
        argv = op["argv"]
        name = argv[0] + ("-" + argv[-1] if argv[0] == "classes" or "--group" in argv else "")
        by_cmd[name] = res["stdout"]
    g_types = [_parse_type(line.split("\t")[0]) for line in by_cmd["invariants"].splitlines()]
    blocks = {}
    for kind in ("strong", "weak"):
        parts = [
            [_parse_type(t) for t in line.split("\t")[1].split(" ")]
            for line in by_cmd[f"classes-{kind}"].splitlines()
        ]
        flat = [k for block in parts for k in block]
        if sorted(flat) != sorted(g_types):
            return f"{kind} classes do not partition the invariant types"
        blocks[kind] = parts
    weak_of = {k: i for i, block in enumerate(blocks["weak"]) for k in block}
    if any(len({weak_of[k] for k in block}) != 1 for block in blocks["strong"]):
        return "strong classes do not refine weak classes"
    if "analyze" in by_cmd:
        pf, dim_w, c = (int(x) for x in by_cmd["analyze"].splitlines()[1].split("\t")[3:6])
        if pf + dim_w != len(g_types):
            return "analyze PF + dimW differs from the invariant count"
        if c != interior_count(fam["reduced_degree"], len(fam["matrix"])) - len(g_types):
            return "analyze c differs from the interior count"
    return None


def check_pass(ops, results, expected) -> list[str | None]:
    """Per-operation failure reasons (None = passed) for one pass."""
    reasons = [
        check_op(op, res, expected) if res["rc"] is not None else f"exception: {res['stderr'][-300:]}"
        for op, res in zip(ops, results)
    ]
    groups: dict[int, list[int]] = {}
    for i, op in enumerate(ops):
        if op["check"]["kind"] == "generated":
            groups.setdefault(op["check"]["group"], []).append(i)
    for idx in groups.values():
        if any(reasons[i] for i in idx):
            continue
        reason = check_generated_group([ops[i] for i in idx], [results[i] for i in idx])
        if reason:
            for i in idx:
                reasons[i] = reason
    return reasons
