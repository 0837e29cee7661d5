"""Command-line front end.

Commands operate on the built-in family registry ("family1".."family10")
or on user-supplied JSON files of the form
{"matrix": [[int, ...], ...], "deformation": [int, ...]}.  All output is
tab-separated, deterministic, and byte-identical across runs; the exit
code is 0 iff no check failed.  When the reader closes stdout before the
output is written, the run ends quietly with exit code 1.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import deformation, monomials, pointcount, symbolic, zetafermat
from .deformation import DeformationData

USAGE_ERROR = 2


def resolve_family(ref: str) -> DeformationData:
    """Registry key or JSON path -> deformation data, with diagnostics."""
    if ref in deformation.FAMILIES:
        return deformation.family(ref)
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read family file {ref}: {exc}") from exc
        try:
            return deformation.data_from_json(obj)
        except ValueError as exc:
            raise ValueError(f"invalid family data in {ref}: {exc}") from exc
    raise ValueError(f"unknown family {ref!r}: not a registry key and not a file")


def parse_prime_power(q: int, ext: int = 1) -> tuple[int, int]:
    """p, k with q = p^k; F_(q^ext) above `pointcount.MAX_Q` is refused before q is factored."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # q^ext >= 2^ext, so a huge ext exceeds the bound without being computed
    if ext > pointcount.MAX_Q.bit_length():
        raise ValueError(f"field size {q}^{ext} exceeds the bound {pointcount.MAX_Q}")
    if q**ext > pointcount.MAX_Q:
        raise ValueError(f"field size {q**ext} exceeds the bound {pointcount.MAX_Q}")
    factors = pointcount.prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = factors[0]
    k = 1
    while p**k < q:
        k += 1
    return p, k


def _analyze_row(ref: str, data: DeformationData) -> list[str]:
    pf, dim_w, c = monomials.dimension_triple(data)
    return [ref, str(data.degree), f"({monomials.format_type(data.cover_exponents)})", str(pf), str(dim_w), str(c)]


ANALYZE_HEADER = "family\td\tb\tPF\tdimW\tc"
TABLE10_HEADER = "family\tF0\td\tb\tPF\tdimW\tc"


def cmd_analyze(args, out) -> int:
    row = _analyze_row(args.family, resolve_family(args.family))
    print(ANALYZE_HEADER, file=out)
    print("\t".join(row), file=out)
    return 0


def cmd_table10(args, out) -> int:
    keys = list(deformation.FAMILIES)
    if args.only:
        wanted = args.only.split(",")
        for key in wanted:
            if key not in keys:
                raise ValueError(f"--only key {key!r} is not a built-in family")
        keys = [k for k in keys if k in wanted]
    print(TABLE10_HEADER, file=out)
    for key in keys:
        data = deformation.family(key)
        row = _analyze_row(key, data)
        row.insert(1, deformation.equation_string(data))  # F0 after the key
        print("\t".join(row), file=out)
    return 0


def cmd_invariants(args, out) -> int:
    data = resolve_family(args.family)
    if args.group == "Gmax":  # the PF types come sorted, and each is PF
        for k in monomials.gmax_invariant_types(data):
            print(monomials.format_type(k) + "\tPF", file=out)
        return 0
    # the G types before the PF walk: the PF group lies in their kernel, whose limit comes first
    types = monomials.g_invariant_types(data)
    gmax = set(monomials.gmax_invariant_types(data))
    for k in types:
        print(monomials.format_type(k) + ("\tPF" if k in gmax else ""), file=out)
    return 0


def cmd_classes(args, out) -> int:
    data = resolve_family(args.family)
    types = monomials.g_invariant_types(data)
    split = monomials.strong_classes if args.kind == "strong" else monomials.weak_classes
    blocks = split(types, data.cover_exponents, data.degree)
    for block in blocks:
        print(f"{len(block)}\t" + " ".join(monomials.format_type(k) for k in block), file=out)
    return 0


def cmd_common_factor(args, out) -> int:
    data_list = [resolve_family(ref) for ref in args.families]
    report = zetafermat.verify_common_factor(data_list, *parse_prime_power(args.q))
    print(f"joint_degree\t{report.joint_degree}", file=out)
    print(f"common_degree\t{report.common_poly.degree}", file=out)
    print(f"common_poly\t{report.common_poly}", file=out)
    status = 0
    for ref, poly, ok in zip(args.families, report.family_polys, report.divides):
        print(f"family\t{ref}\tdegree\t{poly.degree}\tdivides\t{str(ok).lower()}", file=out)
        if not ok:
            status = 1
    if status:
        print("FAIL\tcommon-factor-divisibility", file=out)
    return status


def cmd_count(args, out) -> int:
    if args.ext < 1:
        raise ValueError(f"--ext must be at least 1, got {args.ext}")
    if args.scan:
        return _scan(args, out)
    p, k = parse_prime_power(args.q, args.ext)
    spec = pointcount.family_hypersurface(resolve_family(args.family), args.lam or 0)
    print(pointcount.count_points(spec, p, k * args.ext), file=out)
    return 0


def _scan(args, out) -> int:
    """General position of every member of the cover over the closure of F_p."""
    for option, given in (("--ext", args.ext != 1), ("--lambda", args.lam is not None)):
        if given:
            raise ValueError(f"--scan covers every lambda over the closure of F_p and takes no {option}")
    p, k = parse_prime_power(args.q)
    if k > 1:
        raise ValueError(f"--scan takes a prime --q, got {args.q} = {p}^{k}")
    data = resolve_family(args.family)
    for lam in range(p):
        ok = pointcount.cover_in_general_position(data.degree, data.cover_exponents, lam, p)
        print(f"lambda\t{lam}\tgeneral_position\t{str(ok).lower()}", file=out)
    return 0


def cmd_verify_appendix(args, out) -> int:
    only = args.only.split(",") if args.only else None
    status = 0
    for name, ok in symbolic.appendix_checks(seed=args.seed, only=only):
        print(("PASS\t" if ok else "FAIL\t") + name, file=out)
        if not ok:
            status = 1
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="delsarte",
        description="Exact analysis of monomial deformations of Delsarte quartic hypersurfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="d, b, PF, dimW, c for one family")
    p_analyze.add_argument("family")
    p_analyze.set_defaults(func=cmd_analyze)

    p_table = sub.add_parser("table10", help="summary table of the ten built-in families")
    p_table.add_argument("--only", default="", help="comma-separated family keys to include")
    p_table.set_defaults(func=cmd_table10)

    p_inv = sub.add_parser("invariants", help="invariant monomial types of a family")
    p_inv.add_argument("family")
    p_inv.add_argument("--group", choices=["G", "Gmax"], default="G")
    p_inv.set_defaults(func=cmd_invariants)

    p_cls = sub.add_parser("classes", help="equivalence classes of invariant types")
    p_cls.add_argument("family")
    p_cls.add_argument("--kind", choices=["strong", "weak"], default="strong")
    p_cls.set_defaults(func=cmd_classes)

    p_cf = sub.add_parser("common-factor", help="common characteristic-polynomial factor at lambda = 0")
    p_cf.add_argument("families", nargs="+")
    p_cf.add_argument("--q", type=int, required=True, help="prime power with joint degree | q - 1")
    p_cf.set_defaults(func=cmd_common_factor)

    p_count = sub.add_parser("count", help="point count of a family member")
    p_count.add_argument("family")
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--lambda", dest="lam", type=int, help="deformation parameter (default 0)")
    p_count.add_argument("--ext", type=int, default=1, help="count over F_{q^ext}")
    p_count.add_argument("--scan", action="store_true", help="per-lambda general-position scan of the cover")
    p_count.set_defaults(func=cmd_count)

    p_va = sub.add_parser("verify-appendix", help="run all symbolic golden verifications")
    p_va.add_argument("--only", default="", help="comma-separated name substrings to run")
    p_va.add_argument("--seed", type=int, default=0, help="seed for the randomized spot checks")
    p_va.set_defaults(func=cmd_verify_appendix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed stdout fails here, inside the handler
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader went away; stdout goes to devnull so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
