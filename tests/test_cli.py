import io
import itertools
import json
import math
import os
import subprocess
import sys

import pytest

from delsarte import cli, deformation, exactalg, monomials, pointcount, zetafermat
from delsarte.pointcount import FiniteField, family_hypersurface

from golden_data import SUMMARY_TABLE
from oracles import brute_count_cone, fermat_count_by_trace


def run_cli(argv):
    out = io.StringIO()
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    status = args.func(args, out)
    return status, out.getvalue()


def run_main(argv):
    """Full entry point including error handling; captures nothing."""
    return cli.main(argv)


def test_analyze_rows():
    for ref, want in [
        ("family2", "family2\t8\t(2,2,2,2)\t3\t12\t6"),
        ("family4", "family4\t28\t(7,7,7,7)\t3\t18\t0"),
        ("family5", "family5\t80\t(20,20,20,20)\t3\t16\t2"),
    ]:
        status, text = run_cli(["analyze", ref])
        assert status == 0
        assert text.splitlines()[1] == want


def test_table10_matches_summary():
    status, text = run_cli(["table10"])
    assert status == 0
    lines = text.splitlines()
    assert lines[0] == "family\tF0\td\tb\tPF\tdimW\tc"
    assert len(lines) == 11
    for line in lines[1:]:
        key, _, d, b, pf, dim_w, c = line.split("\t")
        want = SUMMARY_TABLE[key]
        got = (int(d), tuple(int(x) for x in b.strip("()").split(",")), int(pf), int(dim_w), int(c))
        assert got == want


# a command with a non-default option, then the same command without it
REPEATED_COMMANDS = (
    ["invariants", "family9", "--group", "Gmax"],
    ["invariants", "family9"],
    ["classes", "family5", "--kind", "weak"],
    ["classes", "family5"],
    ["count", "family1", "--q", "13", "--scan"],
    ["count", "family1", "--q", "13"],
)


def test_main_repeated_in_one_process_matches_separate_runs(capsys):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    separate = [
        subprocess.run(
            [sys.executable, "-m", "delsarte.cli", *argv], capture_output=True, text=True, env=env, check=True
        ).stdout
        for argv in REPEATED_COMMANDS
    ]
    assert cli.build_parser() is cli.build_parser()
    for argv, want in zip(REPEATED_COMMANDS * 2, separate * 2):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want, argv


def test_start_up_imports_no_dataclasses_inspect_or_cmath():
    # compared with the child's own modules before the import, so what `site` loads cannot matter
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import delsarte.cli\n"
        "delsarte.cli.build_parser()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    added = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert "delsarte.cli" in added
    assert not {"dataclasses", "inspect", "cmath"} & set(added), added


def test_closed_stdout_ends_quietly():
    # the read end is closed before the command starts, so its first write
    # to stdout fails, with line-buffered and with block-buffered output alike
    for unbuffered in ("1", ""):
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
            PYTHONUNBUFFERED=unbuffered,
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "delsarte.cli", "table10"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "", proc.stderr


def test_table10_deterministic():
    assert run_cli(["table10"]) == run_cli(["table10"])


def test_commands_deterministic():
    for argv in (
        ["invariants", "family7"],
        ["classes", "family5", "--kind", "weak"],
        ["common-factor", "family1", "family2", "--q", "17"],
        ["verify-appendix", "--seed", "3"],
    ):
        assert run_cli(argv) == run_cli(argv)


def test_table10_filter_and_empty(capsys):
    status, text = run_cli(["table10", "--only", "family7"])
    assert status == 0
    lines = text.splitlines()
    assert len(lines) == 2 and lines[1].startswith("family7\t")
    # a key that names no family is refused before the header: no empty table
    assert run_main(["table10", "--only", "nomatch"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --only key 'nomatch' is not a built-in family\n")


@pytest.mark.parametrize("only, key", [("famly6", "famly6"), ("family6,", ""), (",family6", "")])
def test_table10_only_refuses_each_unknown_or_empty_key(only, key, capsys):
    assert run_main(["table10", "--only", only]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --only key {key!r} is not a built-in family\n")


def test_table10_only_matches_whole_keys():
    status, text = run_cli(["table10", "--only", "family1"])
    assert status == 0
    lines = text.splitlines()
    assert len(lines) == 2 and lines[1].startswith("family1\t")
    status, text = run_cli(["table10", "--only", "family10,family1"])
    assert [line.split("\t")[0] for line in text.splitlines()[1:]] == ["family1", "family10"]


def test_invariants_family7():
    status, text = run_cli(["invariants", "family7"])
    assert status == 0
    lines = text.splitlines()
    assert len(lines) == 14
    assert sum(line.endswith("\tPF") for line in lines) == 6
    assert "6,6,8,4\tPF" in lines
    assert "3,15,8,22" in lines


def test_invariants_family1():
    status, text = run_cli(["invariants", "family1"])
    assert len(text.splitlines()) == 21


def test_invariants_family9_all_pf():
    status, text = run_cli(["invariants", "family9", "--group", "G"])
    lines = text.splitlines()
    assert len(lines) == 18
    assert all(line.endswith("\tPF") for line in lines)
    status, text_gmax = run_cli(["invariants", "family9", "--group", "Gmax"])
    assert len(text_gmax.splitlines()) == 18


def test_classes_family4_strong():
    status, text = run_cli(["classes", "family4", "--kind", "strong"])
    lines = text.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("3\t") for line in lines)
    assert any("7,7,7,7 14,14,14,14 21,21,21,21" in line for line in lines)


def test_classes_family1_strong_regression():
    status, text = run_cli(["classes", "family1", "--kind", "strong"])
    sizes = sorted(int(line.split("\t")[0]) for line in text.splitlines())
    assert sizes == [1] * 18 + [3]


def test_classes_family5_weak():
    status, text = run_cli(["classes", "family5", "--kind", "weak"])
    sizes = sorted(int(line.split("\t")[0]) for line in text.splitlines())
    assert sizes == [3, 16]


def test_common_factor_123():
    status, text = run_cli(["common-factor", "family1", "family2", "family3", "--q", "17"])
    assert status == 0
    assert "common_degree\t5" in text
    assert text.count("divides\ttrue") == 3


def test_common_factor_12():
    status, text = run_cli(["common-factor", "family1", "family2", "--q", "17"])
    assert status == 0
    assert "common_degree\t7" in text


def test_common_factor_no_cover_is_usage_error(capsys):
    status = run_main(["common-factor", "family1", "family9", "--q", "17"])
    assert status == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no common cover\n")


def test_common_factor_joint_degree_not_dividing_q_minus_1_is_usage_error(capsys):
    assert run_main(["common-factor", "family1", "family2", "--q", "13"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: joint degree 8 does not divide q - 1 = 12\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family1", "family9", "--q", "1048573"], "no common cover"),
        (["family1", "--q", "1048571"], "joint degree 4 does not divide q - 1 = 1048570"),
    ],
)
def test_common_factor_refused_before_any_table(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(pointcount, "FiniteField", refuse)
    monkeypatch.setattr(zetafermat, "FiniteField", refuse)
    assert run_main(["common-factor", *argv]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_count_family1():
    status, text = run_cli(["count", "family1", "--q", "5", "--lambda", "0"])
    assert status == 0
    assert text.strip() == "0"  # the Fermat quartic has no rational points over F_5
    status, text = run_cli(["count", "family1", "--q", "13", "--lambda", "0"])
    assert text.strip() == "128"


def test_count_ext_flag():
    # F_25: the Fermat quartic against its Frobenius trace (4 | 24);
    # F_9: a deformed member against the point-by-point cone oracle
    status, text = run_cli(["count", "family1", "--q", "5", "--ext", "2", "--lambda", "0"])
    assert status == 0
    field = FiniteField(5, 2)
    assert int(text.strip()) == fermat_count_by_trace(4, 3, field)
    status, text = run_cli(["count", "family1", "--q", "3", "--ext", "2", "--lambda", "1"])
    assert status == 0
    cone = brute_count_cone(family_hypersurface(deformation.family("family1"), 1), FiniteField(3, 2))
    assert int(text.strip()) == (cone - 1) // 8


def test_count_scan():
    status, text = run_cli(["count", "family1", "--q", "5", "--scan"])
    assert status == 0
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[0] == "lambda\t0\tgeneral_position\ttrue"
    assert any(line.endswith("false") for line in lines)


def _singular_lambdas(text):
    return [int(line.split("\t")[1]) for line in text.splitlines() if line.endswith("false")]


def test_count_scan_finds_singular_points_beyond_the_prime_field():
    # family7's singular points at p = 5 need F_(5^8); no F_5 search sees them
    status, text = run_cli(["count", "family7", "--q", "5", "--scan"])
    assert status == 0
    assert _singular_lambdas(text) == [1, 2, 3, 4]


def test_count_scan_uses_primitive_cover_exponents():
    # b = (2, 2, 2, 2): the unreduced form (-lam)^8 * 2^8 == 8^8 holds at
    # eight lambdas mod 17, but only those with (-lam/4)^4 == 1 are singular
    status, text = run_cli(["count", "family2", "--q", "17", "--scan"])
    assert status == 0
    assert _singular_lambdas(text) == [1, 4, 13, 16]


def test_count_scan_rejects_p_dividing_d(capsys):
    status = run_main(["count", "family1", "--q", "2", "--scan"])
    assert status == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p = 2, d = 4" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--ext", "2"], "takes no --ext"),
        (["--ext", "20"], "takes no --ext"),
        (["--lambda", "2"], "takes no --lambda"),
        (["--lambda", "0"], "takes no --lambda"),
    ],
)
def test_count_scan_rejects_options_it_cannot_honour(extra, message, capsys):
    # the scan answers over the closure of F_p, for every lambda at once
    assert run_main(["count", "family1", "--q", "5", "--scan", *extra]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --scan covers every lambda over the closure of F_p and {message}" in captured.err


def test_count_scan_rejects_prime_powers(capsys):
    assert run_main(["count", "family1", "--q", "25", "--scan"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --scan takes a prime --q, got 25 = 5^2" in captured.err


def test_count_lambda_defaults_to_zero():
    assert run_cli(["count", "family1", "--q", "13"]) == run_cli(["count", "family1", "--q", "13", "--lambda", "0"])


def test_count_work_bound_refused_before_any_table(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(pointcount, "FiniteField", refuse)
    assert run_main(["count", "family1", "--q", "8191", "--lambda", "2"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = pointcount.COUNT_WORK_LIMIT
    assert "error: point count work estimate (q-1)^2 + |K| = 67" in captured.err
    assert f"exceeds the limit {limit}" in captured.err and "Traceback" not in captured.err


def test_count_ext_must_be_positive(capsys):
    status = run_main(["count", "family1", "--q", "5", "--ext", "0"])
    assert status == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --ext must be at least 1, got 0" in captured.err


def test_field_bound_checked_before_factoring(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(pointcount, "prime_factors", refuse)
    for argv, size in [
        (["count", "family1", "--q", "10000000000037"], "10000000000037"),
        (["count", "family1", "--q", "10000000000038"], "10000000000038"),
        (["count", "family1", "--q", "5", "--ext", "9"], "1953125"),
        (["count", "family1", "--q", "5", "--ext", "100000000"], "5^100000000"),
        (["common-factor", "family1", "--q", "10000000000037"], "10000000000037"),
    ]:
        assert run_main(argv) == cli.USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: field size {size} exceeds the bound 1048576" in captured.err


def test_verify_appendix():
    status, text = run_cli(["verify-appendix"])
    assert status == 0
    lines = text.splitlines()
    assert lines and all(line.startswith("PASS\t") for line in lines)


def test_verify_appendix_perturbed_registry(monkeypatch):
    from delsarte import symbolic

    broken = dict(symbolic._REGISTRY)
    broken["q1"] = broken["q1"] + symbolic.MultiPoly.variable("u")
    monkeypatch.setattr(symbolic, "_REGISTRY", broken)
    status, text = run_cli(["verify-appendix", "--only", "discriminant-q"])
    assert status == 1
    assert "FAIL\tdiscriminant-q1" in text
    assert "PASS\tdiscriminant-q2" in text


def test_verify_appendix_only():
    status, text = run_cli(["verify-appendix", "--only", "quotient"])
    assert status == 0
    assert all("quotient" in line for line in text.splitlines())


def test_verify_appendix_only_token_matching_nothing(capsys):
    status = run_main(["verify-appendix", "--only", "quotinet"])
    assert status == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --only token 'quotinet' matches no check" in captured.err


def test_verify_appendix_only_empty_token(capsys):
    # "" is a substring of every name, so it would select all the checks
    status = run_main(["verify-appendix", "--only", "quotient,"])
    assert status == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --only token '' is empty" in captured.err


def test_family_added_to_the_registry_is_listed_and_tabled(monkeypatch):
    monkeypatch.setitem(deformation.FAMILIES, "family11", deformation.FAMILIES["family7"])
    assert list(deformation.FAMILIES) == [f"family{i}" for i in range(1, 12)]
    status, text = run_cli(["table10"])
    rows = [line.split("\t") for line in text.splitlines()[1:]]
    assert status == 0 and len(rows) == 11
    assert rows[-1][0] == "family11" and rows[-1][1:] == rows[6][1:]


def test_json_family_input(tmp_path):
    rows, a = deformation.FAMILIES["family6"]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"matrix": [list(r) for r in rows], "deformation": list(a)}))
    status, text = run_cli(["analyze", str(path)])
    assert status == 0
    assert "\t12\t(3,3,4,2)\t6\t12\t3" in text


def test_json_family_invalid(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[1, 1], [1, 1]], "deformation": [1, 1]}))
    assert run_main(["analyze", str(path)]) == cli.USAGE_ERROR
    assert "invalid family" in capsys.readouterr().err


_SQUARE = [[4, 0], [0, 4]]


# (file content, the malformed field, the whole message)
_MALFORMED = [
    ({"matrix": 5, "deformation": [1, 1]}, "matrix", '"matrix" must be a list of lists of integers'),
    ({"matrix": [5, 5], "deformation": [1, 1]}, "matrix", '"matrix" must be a list of lists of integers'),
    ({"matrix": [[4.5, 0], [0, 4]], "deformation": [1, 1]}, "matrix", "matrix row 0 entry 0 is 4.5, not an integer"),
    ({"matrix": [[True, 0], [0, 4]], "deformation": [1, 1]}, "matrix", "matrix row 0 entry 0 is True, not an integer"),
    ({"matrix": _SQUARE, "deformation": 3}, "deformation", '"deformation" must be a list of integers'),
    ({"matrix": _SQUARE, "deformation": [1.5, 1]}, "deformation", "deformation vector entry 0 is 1.5, not an integer"),
    ({"matrix": _SQUARE, "deformation": [True, 1]}, "deformation", "deformation vector entry 0 is True, not an integer"),
    ({"matrix": _SQUARE, "deformation": [1.0, 1]}, "deformation", "deformation vector entry 0 is 1.0, not an integer"),
    ({"matrix": [[4.0, 0], [0, 4]], "deformation": [1, 1]}, "matrix", "matrix row 0 entry 0 is 4.0, not an integer"),
    (
        {"matrix": [[4, 0, 0], [0, 4, 0], [-1, 0, 4]], "deformation": [1, 1, 1]},
        "matrix",
        "matrix has a negative entry",
    ),
    (
        {"matrix": [[4, 0, 0], [0, 4, 0], [0, 0, 4]], "deformation": [2, 2, -1]},
        "deformation",
        "deformation vector has a negative entry",
    ),
]


@pytest.mark.parametrize(
    "obj, field, message", _MALFORMED, ids=[f"obj{i}-{field}" for i, (_, field, _) in enumerate(_MALFORMED)]
)
def test_json_family_malformed_field(tmp_path, capsys, obj, field, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    assert run_main(["analyze", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message.lstrip('"').startswith(field)  # each message names its field first
    assert captured.err == f"error: invalid family data in {path}: {message}\n"


def test_json_family_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"matrix": [[4, 0], [0, 4]], "deformation": [1,')
    assert run_main(["analyze", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read family file {path}: Expecting value")


def test_analyze_unequal_weights_prints_nothing(tmp_path, capsys):
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps({"matrix": [[2, 0, 0], [0, 4, 0], [0, 0, 4]], "deformation": [1, 1, 1]}))
    assert run_main(["analyze", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unequal weights" in captured.err


def test_analyze_curve_names_the_dimension_it_needs(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"matrix": [[2, 0], [0, 2]], "deformation": [1, 1]}))
    assert run_main(["analyze", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the dimension triple needs n >= 2, got n = 1\n")


def test_huge_quotient_group_is_refused(tmp_path, capsys):
    # the walk over k*[A | 1] == 0 (mod 159) has 159^3 points, just over the limit
    path = tmp_path / "huge.json"
    matrix = [[159 if i == j else 0 for j in range(4)] for i in range(4)]
    path.write_text(json.dumps({"matrix": matrix, "deformation": [40, 40, 40, 39]}))
    assert run_main(["invariants", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kernel of 4019679 points" in captured.err and "limit 4000000" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [["invariants", "--group", "Gmax"], ["invariants"], ["analyze"]])
def test_huge_pf_group_is_refused(tmp_path, command, capsys):
    # b generates a cyclic group of order 6,000,000 mod d = 6,000,000, over the limit;
    # where the G types are read, the kernel of [A | 1] that holds it is checked first, and it is larger
    message = "PF group of order 6000000" if "Gmax" in command else "invariant-type kernel of 36000000000000 points"
    path = tmp_path / "huge_pf.json"
    n = 6_000_000
    path.write_text(json.dumps({"matrix": [[n, 0, 0], [0, n, 0], [0, 0, n]], "deformation": [1, 1, n - 2]}))
    assert run_main([command[0], str(path), *command[1:]]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} exceeds the enumeration limit 4000000\n"


@pytest.mark.parametrize("command", [["invariants"], ["analyze"]])
def test_g_kernel_refused_before_the_pf_walk(tmp_path, command, monkeypatch, capsys):
    # the PF group, of order 3,000,000, is within the limit; the kernel of 9*10^12 points is not
    def refuse(*args):
        raise AssertionError("the PF group was walked")

    monkeypatch.setattr(monomials, "_gmax_types", refuse)
    path = tmp_path / "huge_kernel.json"
    n = 3_000_000
    path.write_text(json.dumps({"matrix": [[n, 0, 0], [0, n, 0], [0, 0, n]], "deformation": [1, 1, n - 2]}))
    assert run_main([command[0], str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invariant-type kernel of 9000000000000 points exceeds the enumeration limit 4000000\n"


def test_gmax_prints_the_sorted_interior_multiples_of_b(tmp_path):
    # d = n and b = (1, 1, n - 2), so t*b = (t, t, -2t) mod n is interior unless t = 0 or 2t = n
    n = 2_000
    path = tmp_path / "wide_pf.json"
    path.write_text(json.dumps({"matrix": [[n, 0, 0], [0, n, 0], [0, 0, n]], "deformation": [1, 1, n - 2]}))
    multiples = {tuple(t * x % n for x in (1, 1, n - 2)) for t in range(n)}
    want = [",".join(map(str, k)) + "\tPF" for k in sorted(k for k in multiples if all(k))]
    status, text = run_cli(["invariants", str(path), "--group", "Gmax"])
    assert status == 0 and len(want) == n - 2
    assert text.splitlines() == want


def test_pf_group_limit_is_its_order(monkeypatch):
    data = deformation.family("family9")
    order = data.degree // math.gcd(data.degree, *data.cover_exponents)
    monkeypatch.setattr(monomials, "_SUBGROUP_LIMIT", order - 1)
    with pytest.raises(ValueError, match=f"PF group of order {order} exceeds the enumeration limit {order - 1}"):
        monomials.gmax_invariant_types(data)
    monkeypatch.setattr(monomials, "_SUBGROUP_LIMIT", order)
    assert monomials.gmax_invariant_types(data)


def test_invariant_walk_limit_is_its_own_size(monkeypatch, capsys):
    data = deformation.family("family2")
    d = data.degree
    size = sum(
        1
        for k in itertools.product(range(d), repeat=data.n + 1)
        if sum(k) % d == 0 and monomials.is_g_invariant(k, data)
    )
    monkeypatch.setattr(monomials, "_SUBGROUP_LIMIT", size - 1)
    with pytest.raises(ValueError, match=f"kernel of {size} points exceeds the enumeration limit {size - 1}"):
        monomials.g_invariant_types(data)
    assert run_main(["invariants", "family2"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    monkeypatch.setattr(monomials, "_SUBGROUP_LIMIT", size)
    assert len(monomials.g_invariant_types(data)) == 15


def test_each_family_is_derived_once_per_process(monkeypatch, tmp_path):
    maps, kernels, walks = [], [], []

    def counting_map(m):
        maps.append(m.rows)
        return exactalg.minimal_map_matrix(m)

    def counting_kernel(rows, n):
        kernels.append(n)
        return exactalg.kernel_mod(rows, n)

    def counting_walk(u, steps, n):
        walks.append(n)
        return exactalg.kernel_elements(u, steps, n)

    monkeypatch.setattr(deformation, "minimal_map_matrix", counting_map)
    monkeypatch.setattr(monomials, "kernel_mod", counting_kernel)
    monkeypatch.setattr(monomials, "kernel_elements", counting_walk)
    rows, a = deformation.FAMILIES["family7"]
    same = tmp_path / "family7.json"
    same.write_text(json.dumps({"matrix": [list(r) for r in rows], "deformation": list(a)}))
    # a degree-5 Fermat cover outside the registry, deformed by x0^2*x1*x2*x3
    other = tmp_path / "quintic.json"
    quintic = [[5 * (i == j) for j in range(4)] for i in range(4)]
    other.write_text(json.dumps({"matrix": quintic, "deformation": [2, 1, 1, 1]}))
    commands = (
        ["invariants"],
        ["invariants", "--group", "Gmax"],
        ["classes", "--kind", "strong"],
        ["classes", "--kind", "weak"],
        ["analyze"],
    )
    for ref, derived in (("family7", 1), (str(same), 1), (str(other), 2)):
        for command in commands:
            status, text = run_cli([command[0], ref, *command[1:]])
            assert status == 0 and text, (ref, command)
        assert (len(maps), len(kernels), len(walks)) == (derived, derived, derived), ref


def test_unknown_family(capsys):
    assert run_main(["analyze", "family99"]) == cli.USAGE_ERROR
    assert "unknown family" in capsys.readouterr().err


def test_parse_prime_power():
    assert cli.parse_prime_power(25) == (5, 2)
    assert cli.parse_prime_power(17) == (17, 1)
    assert cli.parse_prime_power(2) == (2, 1)
    assert cli.parse_prime_power(1024) == (2, 10)
    for q in (12, 1, 0, -4):
        with pytest.raises(ValueError, match=f"{q} is not a prime power"):
            cli.parse_prime_power(q)


def test_parse_prime_power_at_the_field_size_bound(monkeypatch):
    assert cli.parse_prime_power(2**20) == (2, 20)

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(pointcount, "prime_factors", refuse)
    for q, ext, size in [(2**20 + 1, 1, "1048577"), (2, 21, "2097152")]:
        with pytest.raises(ValueError, match=f"^field size {size} exceeds the bound 1048576$"):
            cli.parse_prime_power(q, ext)
