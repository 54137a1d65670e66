"""The library input contract (README, "Library inputs"): every index and
element code an entry point takes is an integer in range, checked by one
rule, and anything else is a ValueError naming the argument or index."""

import re

import numpy as np
import pytest

from agrepair import codes, linalg, repair, sim
from agrepair.gf import FieldTower, LinearizedMap, integers, tower, trace_reconstruct

TW = tower(4, 2)                      # GF(4^2)
FOREIGN = tower(2, 4).element(3)      # an element of GF(2^4): the same q, another tower
RS = codes.rs_code(TW, k=4, n=16)
HERM = codes.hermitian_code(codes.hermitian_curve(TW), 8)
SCHEME = repair.build_scheme(RS, 0, l=1)
WORD = codes.encode(RS, [1, 2, 3, 4]).symbols
CURVE = codes.hermitian_curve(TW)
BAD = {"2.7": 2.7, "2.0": 2.0, "True": True, "np.True_": np.True_, "'3'": "3", "[3]": [3],
       "-1": -1, "bound": None, "2**70": 2 ** 70, "foreign": FOREIGN}


def _fail(node):
    sim.fail_node(sim.make_cluster(RS, 1, seed=0), node)


def _known(*positions):
    return [(j, int(WORD[j])) for j in positions]


NON_INTEGERS = ["2.7", "2.0", "True", "np.True_", "'3'", "[3]"]
SCALARS = NON_INTEGERS[:-1]  # where a list is a digit vector, not a code
ALL = NON_INTEGERS + ["-1", "bound", "2**70", "foreign"]

# entry point -> (call with the bad value, its bound, a pattern naming the
# argument or index, the bad values the parent mishandled: truncated,
# accepted, or refused by a bare IndexError, TypeError or OverflowError or
# by a text naming neither)
ENTRIES = {
    "encode": (lambda v: codes.encode(RS, [0, 0, v, 0]), 16, r"position 2 holds", ["foreign"]),
    "erasure_decode-value": (lambda v: codes.erasure_decode(RS, [(0, v)] + _known(1, 2, 3)), 16,
                             r"position 0 holds", ["foreign"]),
    "erasure_decode-position": (lambda v: codes.erasure_decode(RS, [(v, 1)] + _known(4, 5, 6)),
                                16, r"position", NON_INTEGERS + ["2**70", "foreign"]),
    "erasure_decode_many-position": (
        lambda v: codes.erasure_decode_many(RS, [v, 4, 5, 6], WORD[None, [1, 4, 5, 6]]),
        16, r"position", ALL),
    "helper_response-node": (lambda v: repair.helper_response(SCHEME, v, 3), 16,
                             r"node .+ is not in the helper set",
                             ["2.0", "True", "np.True_", "'3'", "[3]", "foreign"]),
    "helper_response-symbol": (lambda v: repair.helper_response(SCHEME, 1, v), 16,
                               r"node 1 stores", ["foreign"]),
    "build_scheme-target": (lambda v: repair.build_scheme(RS, v, l=1), 16, r"target",
                            NON_INTEGERS + ["foreign"]),
    "build_scheme-helper": (lambda v: repair.build_scheme(RS, 0, helpers=[v] + list(range(4, 14))),
                            16, r"helper", NON_INTEGERS + ["foreign"]),
    "build_scheme-l": (lambda v: repair.build_scheme(RS, 0, l=v), 3, r"l=",
                       ["2.0", "True", "np.True_", "'3'", "[3]", "foreign"]),
    "dual_support_vector-helper": (
        lambda v: codes.dual_support_vector(RS, 0, 0, [v] + list(range(4, 14))),
        16, r"helper", NON_INTEGERS + ["foreign"]),
    "dual_support_vector-extra_pole": (
        lambda v: codes.dual_support_vector(RS, v, 0, list(range(4, 14))), None, r"extra pole",
        NON_INTEGERS + ["-1", "foreign"]),
    "element": (TW.element, 16, r"code", SCALARS + ["foreign"]),
    "operand": (lambda v: TW.element(1) + v, 16, r"code", SCALARS),
    "trace_reconstruct": (lambda v: trace_reconstruct([v, 0], TW), 4, r"trace value",
                          NON_INTEGERS + ["foreign"]),
    "fail_node": (_fail, 16, r"node", NON_INTEGERS + ["foreign"]),
    "hermitian_code-n": (lambda v: codes.hermitian_code(CURVE, 0, n=v), 65, r"length n=",
                         NON_INTEGERS + ["foreign"]),
    "rs_code-point": (lambda v: codes.rs_code(TW, 2, points=[0, v, 5]), 16, r"evaluation points",
                      NON_INTEGERS + ["2**70", "foreign"]),
    "vanishing_line-point": (lambda v: codes.vanishing_line(CURVE, (v, 0)), 16,
                             r"point coordinate", NON_INTEGERS + ["bound", "2**70", "foreign"]),
    "nullspace_of_columns": (
        lambda v: linalg.nullspace_of_columns(TW, linalg.rref(TW, np.eye(3, 16, dtype=np.int64)),
                                              [v, 15]),
        16, r"column", ["True", "np.True_", "[3]"]),
    "linearized_map": (lambda v: LinearizedMap(TW, [1])(v), 16, r"x=", ALL),
    "rs_code-k": (lambda v: codes.rs_code(TW, v, n=16), 17, r"k=", NON_INTEGERS + ["foreign"]),
    "rs_code-n": (lambda v: codes.rs_code(TW, 2, n=v), None, r"length n=.+ is ",
                  NON_INTEGERS + ["-1", "foreign"]),
    "make_cluster-num_stripes": (lambda v: sim.make_cluster(RS, v, seed=0), None, r"num_stripes=",
                                 NON_INTEGERS + ["-1", "foreign"]),
    "hermitian_code-s": (lambda v: codes.hermitian_code(CURVE, v), 64, r"pole degree s=",
                         NON_INTEGERS + ["foreign"]),
    "from_digits": (lambda v: TW.from_digits([v, 0]), 4, r"digit 0 is",
                    NON_INTEGERS + ["2**70", "foreign"]),
    "element-digits": (lambda v: TW.element([1, v]), 4, r"digit 1 is", NON_INTEGERS + ["foreign"]),
    "from_digits_arr-list": (lambda v: TW.from_digits_arr([[1, 0], [0, v]]), 4, r"digit at \[1, 1\] is",
                             ["True", "np.True_", "[3]"]),
    "vanishing_function-i": (lambda v: codes.vanishing_function(HERM, v), 64, r"point",
                             NON_INTEGERS + ["-1", "2**70", "foreign"]),
    "FieldTower-p": (lambda v: FieldTower(v, 2), None, r"base order p=",
                     ["2.7", "2.0", "'3'", "[3]", "foreign"]),
    "FieldTower-t": (lambda v: FieldTower(2, v), None, r"extension degree t=",
                     NON_INTEGERS + ["foreign"]),
    # linalg's matrices and vectors: a plain int64 cast reads 2.7, True and
    # '3' as 2, 1 and 3, and lets -1 and 16 wrap or fail with a bare
    # IndexError
    "rref": (lambda v: linalg.rref(TW, [[1, 2], [3, v]]), 16, r"matrix entry \[1, 1\] is ", ALL),
    "rank": (lambda v: linalg.rank(TW, [[v, 2]]), 16, r"matrix entry \[0, 0\] is ", ALL),
    "nullspace": (lambda v: linalg.nullspace(TW, [[1, v, 3]]), 16, r"matrix entry \[0, 1\] is ",
                  ALL),
    "solve-mat": (lambda v: linalg.solve(TW, [[1, 2], [v, 4]], [1, 2]), 16,
                  r"matrix entry \[1, 0\] is ", ALL),
    "solve-rhs": (lambda v: linalg.solve(TW, [[1, 2], [3, 4]], [1, v]), 16, r"rhs entry \[1\] is ",
                  ALL),
    "matmul-a": (lambda v: linalg.matmul(TW, [[v, 1]], [[1], [2]]), 16,
                 r"matrix a entry \[0, 0\] is ", ALL),
    "matmul-b": (lambda v: linalg.matmul(TW, [[1, 2]], [[1], [v]]), 16,
                 r"matrix b entry \[1, 0\] is ", ALL),
    "matvec-a": (lambda v: linalg.matvec(TW, [[1, 2], [v, 3]], [1, 2]), 16,
                 r"matrix a entry \[1, 0\] is ", ALL),
    "matvec-v": (lambda v: linalg.matvec(TW, [[1, 2]], [v, 2]), 16, r"vector v entry \[0\] is ", ALL),
}

CASES = [(entry, bad) for entry, (_, _, _, bads) in ENTRIES.items() for bad in bads]


@pytest.mark.parametrize("entry,bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_bad_inputs_are_value_errors_naming_the_argument(entry, bad):
    call, bound, named, _ = ENTRIES[entry]
    value = bound if bad == "bound" else BAD[bad]
    with pytest.raises(ValueError) as info:
        call(value)
    assert re.search(named, str(info.value)), str(info.value)


def test_tower_arguments_may_be_numpy_integers():
    tw = FieldTower(np.int64(2), np.int32(3))
    assert type(tw.p) is int and type(tw.t) is int
    assert tw == tower(2, 3) and tw.modulus == tower(2, 3).modulus


@pytest.mark.parametrize("p,t", [(3, 20000000), (100000000000031, 1), (2, 17), (257, 2)])
def test_tower_size_cap_comes_first_and_names_p_and_t(p, t):
    """Refused before p**t or a factorisation of p is computed: the first
    would run for seconds and then fail to print, the second is trial
    division up to sqrt(p)."""
    with pytest.raises(ValueError, match=rf"^field size p\*\*t with p={p}, t={t} exceeds the "
                                         rf"supported cap 65536$"):
        FieldTower(p, t)


@pytest.mark.parametrize("digits", [np.array([[1.9, 0.0]]), np.array([[True, False]]),
                                    np.array([["1", "0"]])], ids=["float", "bool", "str"])
def test_digit_arrays_of_another_dtype_are_refused(digits):
    with pytest.raises(ValueError, match=f"digit array dtype {digits.dtype}, not an integer dtype"):
        TW.from_digits_arr(digits)


# linalg entry point -> (call in a tower on a (1, 2) array, the argument's name)
LINALG_ARRAYS = {
    "rref": (lambda tw, m: linalg.rref(tw, m), "matrix"),
    "reduced_rows": (lambda tw, m: linalg.reduced_rows(tw, m), "matrix"),
    "rank": (lambda tw, m: linalg.rank(tw, m), "matrix"),
    "nullspace": (lambda tw, m: linalg.nullspace(tw, m), "matrix"),
    "solve-mat": (lambda tw, m: linalg.solve(tw, m, [1]), "matrix"),
    "solve-rhs": (lambda tw, m: linalg.solve(tw, [[1], [2]], m[0]), "rhs"),
    "matmul-a": (lambda tw, m: linalg.matmul(tw, m, [[1], [2]]), "matrix a"),
    "matmul-b": (lambda tw, m: linalg.matmul(tw, [[1]], m), "matrix b"),
    "matvec-a": (lambda tw, m: linalg.matvec(tw, m, [1, 2]), "matrix a"),
    "matvec-v": (lambda tw, m: linalg.matvec(tw, [[1, 2]], m[0]), "vector v"),
}


@pytest.mark.parametrize("entry", LINALG_ARRAYS)
@pytest.mark.parametrize("array", [np.array([[1.9, 2.0]]), np.array([[True, False]])],
                         ids=["float", "bool"])
def test_linalg_refuses_arrays_of_another_dtype(entry, array):
    """One dtype test per array: an int64 cast would truncate [[1.9, 2.0]]
    to [[1, 2]] and read [[True, False]] as [[1, 0]]."""
    call, name = LINALG_ARRAYS[entry]
    with pytest.raises(ValueError, match=f"^{name} dtype {array.dtype}, not an integer dtype$"):
        call(TW, array)


@pytest.mark.parametrize("entry", LINALG_ARRAYS)
@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64,
                                   np.dtype(">i8")], ids=str)
def test_linalg_range_check_on_integer_arrays(entry, dtype):
    """Integer arrays pass in range and are refused outside [0, q), by one
    max: unchecked, 16 wraps to 0 in GF(16)'s uint8 work copy or indexes
    past the field's tables."""
    call, name = LINALG_ARRAYS[entry]
    call(TW, np.array([[15, 0]], dtype=dtype))
    with pytest.raises(ValueError, match=rf"^{name} entry \[(0, )?1\] is 16, outside GF\(16\)$"):
        call(TW, np.array([[15, 16]], dtype=dtype))
    if np.dtype(dtype).kind == "i":
        with pytest.raises(ValueError, match=rf"^{name} entry \[(0, )?0\] is -1, outside GF\(16\)$"):
            call(TW, np.array([[-1, 1]], dtype=dtype))


# In a field of more than 128 elements, an int8 -1 read as uint8 is 255, a
# code of the field, and as an int64 index it picks the last table entry
# or column: each of these is refused, not read as 255 or as the last one.
TW256 = tower(16, 2)
RS256 = codes.rs_code(TW256, k=4, n=256)


@pytest.mark.parametrize("entry", LINALG_ARRAYS)
def test_linalg_refuses_negative_int8_entries_in_gf256(entry):
    call, name = LINALG_ARRAYS[entry]
    with pytest.raises(ValueError, match=rf"^{name} entry \[(0, )?0\] is -1, outside GF\(256\)$"):
        call(TW256, np.array([[-1, 1]], dtype=np.int8))


def test_encode_many_refuses_negative_int8_messages_in_gf256():
    with pytest.raises(ValueError, match=r"^message row 0, position 2 holds -1, outside GF\(256\)$"):
        codes.encode_many(RS256, np.array([[1, 2, -1, 3]], dtype=np.int8))


def test_erasure_decode_many_refuses_negative_int8_positions_in_gf256():
    positions = np.array([0, -1, 2, 3], dtype=np.int8)
    values = codes.encode_many(RS256, np.array([[1, 2, 3, 4]]))[:, [0, 255, 2, 3]]
    with pytest.raises(ValueError, match=r"^position -1 is outside \[0, 256\)"):
        codes.erasure_decode_many(RS256, positions, values)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64], ids=str)
def test_integers_refuses_negative_entries_whatever_the_bound(dtype):
    """-1 is refused even where the bound exceeds the dtype's largest entry."""
    bound = 1 << min(8 * np.dtype(dtype).itemsize, 62)
    with pytest.raises(ValueError, match=rf"^code \[1\] is -1, outside \[0, {bound}\)$"):
        integers(np.array([0, -1], dtype=dtype), bound, "code {index} is {0}, {1}")
