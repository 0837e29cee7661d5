import copy
import itertools
import pickle

import pytest

from delsarte.deformation import (
    FAMILIES,
    build,
    common_cover,
    data_from_json,
    equation_string,
    family,
)
from delsarte.exactalg import IntMatrix
from delsarte.monomials import reduce_form
from delsarte.pointcount import family_hypersurface
from delsarte.zetafermat import CharPoly, CommonFactorReport

from golden_data import SUMMARY_TABLE
from oracles import diagonal_matrix, vector_times


def test_validate_family1_clean():
    assert build(diagonal_matrix((4, 4, 4, 4)), (1, 1, 1, 1)).degree == 4


def test_validate_all_ones_singular():
    with pytest.raises(ValueError, match="singular"):
        build(IntMatrix([[1] * 4] * 4), (1, 1, 1, 1))


def test_validate_column_zero_condition():
    with pytest.raises(ValueError, match="no zero"):
        build(IntMatrix([[2, 1], [1, 2]]), (1, 1))


def test_build_family2():
    data = family("family2")
    assert data.degree == 8
    assert data.weights == (2, 2, 2, 2)
    assert data.cover_exponents == (2, 2, 2, 2)


def test_build_family1():
    data = family("family1")
    assert data.degree == 4
    assert data.weights == (1, 1, 1, 1)
    assert data.cover_exponents == (1, 1, 1, 1)


def test_build_family9():
    data = family("family9")
    assert data.degree == 36
    assert data.cover_exponents == (9, 12, 8, 7)


def test_build_rejects_wrong_weighted_degree():
    with pytest.raises(ValueError, match="not a deformation vector"):
        build(diagonal_matrix((4, 4, 4, 4)), (1, 1, 1, 2))


def test_build_rejects_negative_cover_exponent():
    rows, _ = FAMILIES["family2"]
    with pytest.raises(ValueError, match="negative cover exponent"):
        build(IntMatrix(rows), (0, 0, 4, 0))


def test_all_families_match_summary():
    for key in FAMILIES:
        data = family(key)
        d, b, _, _, _ = SUMMARY_TABLE[key]
        assert data.degree == d
        assert data.cover_exponents == b
        assert sum(data.cover_exponents) == data.degree
        assert vector_times(data.deformation, data.map_matrix) == data.cover_exponents
        assert sum(a * w for a, w in zip(data.deformation, data.weights)) == data.degree


def test_common_cover_families_1_2():
    assert common_cover([family("family1"), family("family2")]) == (8, (2, 2, 2, 2))


def test_common_cover_families_6_7():
    assert common_cover([family("family6"), family("family7")]) == (24, (6, 6, 8, 4))


def test_common_cover_families_1_9_absent():
    assert common_cover([family("family1"), family("family9")]) is None


def test_common_cover_five_matrix_example():
    matrices = [
        ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)),
        ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 3, 1), (0, 0, 1, 3)),
        ((3, 1, 0, 0), (1, 3, 0, 0), (0, 0, 3, 1), (0, 0, 1, 3)),
        ((4, 0, 0, 0), (0, 3, 1, 0), (0, 0, 3, 1), (0, 1, 0, 3)),
        ((3, 1, 0, 0), (0, 3, 1, 0), (0, 0, 3, 1), (1, 0, 0, 3)),
    ]
    result = common_cover([build(IntMatrix(m), (1, 1, 1, 1)) for m in matrices])
    assert result is not None
    d, b = result
    assert sum(b) == d


def test_common_cover_order_independent():
    data = [family(key) for key in ("family1", "family2", "family3")]
    results = {common_cover(list(perm)) for perm in itertools.permutations(data)}
    assert len(results) == 1
    assert results.pop() == (8, (2, 2, 2, 2))


def test_common_cover_implies_all_pairs():
    data = [family(key) for key in ("family1", "family2", "family3")]
    assert common_cover(data) is not None
    for i in range(3):
        for j in range(i + 1, 3):
            assert common_cover([data[i], data[j]]) is not None


def test_data_from_json_roundtrip():
    rows, a = FAMILIES["family7"]
    data = data_from_json({"matrix": [list(r) for r in rows], "deformation": list(a)})
    assert data.degree == 24
    with pytest.raises(ValueError, match='"matrix" and "deformation" keys'):
        data_from_json({"matrix": [[1, 1], [1, 1]]})


def test_equal_inputs_share_one_derivation():
    rows, a = FAMILIES["family7"]
    data = family("family7")
    assert build(IntMatrix([list(r) for r in rows]), list(a)) is data
    assert data_from_json({"matrix": [list(r) for r in rows], "deformation": list(a)}) is data
    assert build(IntMatrix(rows), rows[3]) is not data


def test_invalid_input_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError, match="^matrix is singular; column 0 has no zero entry"):
            build(IntMatrix([[1, 1], [1, 1]]), (1, 1))
        with pytest.raises(ValueError, match="not a deformation vector"):
            build(diagonal_matrix((4, 4, 4, 4)), (1, 1, 1, 2))
        with pytest.raises(ValueError, match="wrong length"):
            data_from_json({"matrix": [[4, 0], [0, 4]], "deformation": [1, 1, 1]})


def test_equation_string():
    assert (
        equation_string(family("family2"))
        == "x0^4+x1^4+x2^3*x3+x2*x3^3"
    )


VALUE_RECORDS = {
    "DeformationData": lambda: family("family2"),
    "IntMatrix": lambda: IntMatrix(FAMILIES["family2"][0]),
    "HypersurfaceSpec": lambda: family_hypersurface(family("family2"), 3),
    "ReducedForm": lambda: reduce_form((5, 1, 1, 1), 4),
    "CommonFactorReport": lambda: CommonFactorReport(4, CharPoly((1, -1)), (CharPoly((1, -1)),), (True,)),
}


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_value_records_are_immutable_named_tuples(name):
    record = VALUE_RECORDS[name]()
    cls = type(record)
    assert cls.__name__ == name and cls.__slots__ == () and hasattr(cls, "_fields")
    assert not {"__init__", "__eq__", "__hash__", "__repr__"} & set(vars(cls))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    # value equality and hashing, as tuples; copies and pickles rebuild an equal record
    twin = VALUE_RECORDS[name]()
    assert record == twin and hash(record) == hash(twin)
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))


def test_int_matrix_normalises_and_checks_its_rows():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m == (((1, 2), (3, 4)), 2) and type(m.rows[1]) is tuple
    for rows, message in (([[1]], "at least 2"), ([[1, 2], [3]], "square")):
        with pytest.raises(ValueError, match=message):
            IntMatrix(rows)


def test_int_matrix_refuses_a_float_entry():
    # int() would truncate 4.7 to 4
    with pytest.raises(ValueError, match="matrix row 0 entry 0 is 4.7, not an integer"):
        IntMatrix([[4.7, 0], [0, 4]])


def test_int_matrix_refuses_a_string_or_bool_entry():
    # int() would parse "3" as 3 and read True as 1
    with pytest.raises(ValueError, match="matrix row 0 entry 0 is '3', not an integer"):
        IntMatrix([["3", 0], [0, True]])
    with pytest.raises(ValueError, match="matrix row 1 entry 1 is True, not an integer"):
        IntMatrix([[3, 0], [0, True]])


def test_build_refuses_a_non_integer_deformation_entry():
    fermat = diagonal_matrix((4, 4, 4, 4))
    # int() would read (1.9, 1, 1, 1.2) as (1, 1, 1, 1)
    with pytest.raises(ValueError, match="deformation vector entry 0 is 1.9, not an integer"):
        build(fermat, (1.9, 1, 1, 1.2))
    # 1.0 and True hash as 1, so the check must come before the memo of (A, a)
    assert build(fermat, (1, 1, 1, 1)).cover_exponents == (1, 1, 1, 1)
    for a_vec, entry in (((1, 1, 1.0, 1), "2 is 1.0"), ((1, True, 1, 1), "1 is True")):
        with pytest.raises(ValueError, match=f"deformation vector entry {entry}, not an integer"):
            build(fermat, a_vec)


def test_unknown_family_is_a_plain_value_error():
    with pytest.raises(ValueError, match=r"^unknown family 'family11'; expected family1\.\.family10$") as info:
        family("family11")
    assert type(info.value) is ValueError
