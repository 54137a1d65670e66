"""Differential tests: the column-major, table-driven `linalg.rref`
against the plain row-by-row elimination it replaced (on every input
layout and dtype), `matmul` (one `mul_outer` per inner index, over the
longer output side) against the plain `mul_arr`/`add_arr` product,
`matvec` (the one field dot product) against the one-column `matmul` it
replaced, `nullspace_of_columns` against `nullspace` of the column
restriction, a small field's product table against scalar exp/log
arithmetic, and `FieldTower.mul_outer` (the table's one reader, which
`rref` and `matmul` multiply through) against `mul_arr` over the outer
shape.

The reference below is the original kernel: full-row int64 updates with
`mul_arr`/`sub_arr`, one pivot at a time, same first-nonzero pivot rule.
`rref`, `rank`, `nullspace` and `solve` must agree with it byte for byte
(values, dtype and pivot list) and must never write to their input.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrepair import linalg
from agrepair.gf import PRODUCT_TABLE_MAX, tower

# (p, t): char 2 with q <= 256 (uint8 work array and a product table,
# GF(64)/GF(8) being the benchmarks' field) and q > 256 (uint16, exp/log);
# odd characteristic with a dense add table and a product table, and
# q = 2187 above gf._ADD_TABLE_MAX, where add_arr takes the Zech-logarithm
# path
TOWERS = [(2, 1), (2, 4), (8, 2), (16, 2), (32, 2), (3, 2), (9, 2), (3, 7)]

DETERMINISTIC = settings(derandomize=True, max_examples=80, deadline=None)


def _reference_rref(tw, mat):
    r = linalg.as_matrix(tw, mat).copy()
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = tw.mul_arr(r[row], tw.inv(int(r[row, col])))
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            factors = r[others, col][:, None]
            r[others] = tw.sub_arr(r[others], tw.mul_arr(factors, r[row][None, :]))
        pivots.append(col)
        row += 1
    return r, pivots


def _reference_nullspace(tw, mat):
    m = linalg.as_matrix(tw, mat)
    ncols = m.shape[1]
    if m.size == 0:
        return np.eye(ncols, dtype=np.int64)
    r, pivots = _reference_rref(tw, m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for row_idx, p in enumerate(pivots):
            basis[k, p] = tw.neg(int(r[row_idx, f]))
    return basis


def _reference_solve(tw, mat, rhs):
    m = linalg.as_matrix(tw, mat)
    b = np.asarray(rhs, dtype=np.int64)
    single = b.ndim == 1
    bm = b[:, None] if single else b
    r, pivots = _reference_rref(tw, np.concatenate([m, bm], axis=1))
    ncols = m.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, bm.shape[1]), dtype=np.int64)
    for row_idx, p in enumerate(pivots):
        x[p] = r[row_idx, ncols:]
    return x[:, 0] if single else x


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@st.composite
def matrices(draw, max_rows=20, max_cols=20):
    """A tower and a matrix: tall, wide, rank-deficient, sparse, all zero, or
    a column selection of a reduced matrix, where most pivots are already
    unit columns and `rref` skips their updates."""
    p, t = draw(st.sampled_from(TOWERS))
    tw = tower(p, t)
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    kind = draw(st.sampled_from(["dense", "low-rank", "sparse", "zero", "repeated", "reduced"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zero":
        m = np.zeros((nrows, ncols), dtype=np.int64)
    elif kind == "low-rank":
        k = int(rng.integers(0, min(nrows, ncols) + 1))
        left = rng.integers(0, tw.q, size=(nrows, k))
        right = rng.integers(0, tw.q, size=(k, ncols))
        m = (linalg.matmul(tw, left, right) if k else
             np.zeros((nrows, ncols), dtype=np.int64))
    elif kind == "reduced":
        full = _reference_rref(tw, rng.integers(0, tw.q, size=(nrows, ncols + 4)))[0]
        m = full[:, np.sort(rng.choice(ncols + 4, size=ncols, replace=False))]
    elif kind == "sparse":
        m = rng.integers(0, tw.q, size=(nrows, ncols))
        m[rng.random((nrows, ncols)) < 0.7] = 0
    else:
        m = rng.integers(0, tw.q, size=(nrows, ncols))
        if kind == "repeated" and nrows > 1:
            m[rng.integers(nrows)] = m[rng.integers(nrows)]
    return tw, np.ascontiguousarray(m, dtype=np.int64)


@DETERMINISTIC
@given(matrices())
def test_rref_matches_reference(case):
    tw, m = case
    before = m.copy()
    r, pivots = linalg.rref(tw, m)
    ref_r, ref_pivots = _reference_rref(tw, m)
    assert _same(r, ref_r)
    assert pivots == ref_pivots
    assert all(type(c) is int for c in pivots)
    assert np.array_equal(m, before)


@DETERMINISTIC
@given(matrices())
def test_rank_and_nullspace_match_reference(case):
    tw, m = case
    before = m.copy()
    expected_rank = len(_reference_rref(tw, m)[1]) if m.size else 0
    assert linalg.rank(tw, m) == expected_rank
    assert _same(linalg.nullspace(tw, m), _reference_nullspace(tw, m))
    assert np.array_equal(m, before)


@DETERMINISTIC
@given(matrices(), st.integers(1, 3), st.booleans(), st.booleans())
def test_solve_matches_reference(case, nrhs, single, consistent):
    tw, m = case
    rng = np.random.default_rng(m.shape[0] * 131 + m.shape[1])
    if consistent:
        rhs = linalg.matmul(tw, m, rng.integers(0, tw.q, size=(m.shape[1], nrhs)))
    else:
        rhs = rng.integers(0, tw.q, size=(m.shape[0], nrhs))
    if single:
        rhs = rhs[:, 0]
    before, rhs_before = m.copy(), rhs.copy()
    got = linalg.solve(tw, m, rhs)
    ref = _reference_solve(tw, m, rhs)
    if consistent:
        assert got is not None
    assert (got is None) == (ref is None)
    if got is not None:
        assert _same(got, ref)
    assert np.array_equal(m, before) and np.array_equal(rhs, rhs_before)


@pytest.mark.parametrize("p,t", TOWERS)
def test_table_path_on_tall_matrices(p, t):
    """Tall matrices.  Up to q = 256 the rows outnumber the field elements,
    so each update multiplies a short tail by more factors than the field
    has elements; the larger fields multiply through exp/log."""
    tw = tower(p, t)
    rng = np.random.default_rng(p * 100 + t)
    nrows = tw.q + 3 if tw.q <= 256 else 12
    m = rng.integers(0, tw.q, size=(nrows, 9))
    m[:, 4] = m[:, 1]
    r, pivots = linalg.rref(tw, m)
    ref_r, ref_pivots = _reference_rref(tw, m)
    assert _same(r, ref_r) and pivots == ref_pivots
    assert _same(linalg.nullspace(tw, m), _reference_nullspace(tw, m))


@pytest.mark.parametrize("p,t", TOWERS)
def test_table_path_on_wide_matrices(p, t):
    """Wide matrices.  Up to q = 256 the first tails are at least q long, so
    `mul_outer(tail, factors)` gathers the factors' table columns first and
    then copies whole rows of that q-row slice; the later, shorter tails
    take the other gather order."""
    tw = tower(p, t)
    rng = np.random.default_rng(p * 100 + t + 1)
    ncols = tw.q + 3 if tw.q <= 256 else 12
    m = rng.integers(0, tw.q, size=(9, ncols))
    m[4] = m[1]
    r, pivots = linalg.rref(tw, m)
    ref_r, ref_pivots = _reference_rref(tw, m)
    assert _same(r, ref_r) and pivots == ref_pivots
    assert _same(linalg.nullspace(tw, m), _reference_nullspace(tw, m))


def _layouts(m, q):
    """m (int64) as the inputs a caller may hand in: C and Fortran order, a
    transposed view, a strided view, and uint8/uint16 copies."""
    padded = np.zeros((2 * m.shape[0] + 1, 2 * m.shape[1] + 1), dtype=np.int64)
    padded[1::2, 1::2] = m
    yield "C", np.ascontiguousarray(m)
    yield "F", np.asfortranarray(m)
    yield "transposed", np.ascontiguousarray(m.T).T
    yield "strided", padded[1::2, 1::2]
    if q <= 256:
        yield "uint8", m.astype(np.uint8)
    yield "uint16", m.astype(np.uint16)


@pytest.mark.parametrize("p,t", [(3, 2), (8, 2), (2, 9)])  # GF(9), GF(64), GF(512)
@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (1, 1), (1, 5), (5, 1), (6, 7)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_rref_work_copy_never_aliases_its_input(p, t, shape):
    """`rref` transposes its input into a working copy it then writes to;
    np.ascontiguousarray(m.T) would hand back a view of a Fortran-ordered
    or one-row int64 m.  Every entry is at least 2, so a nonempty input
    always has a lead to normalise."""
    tw = tower(p, t)
    m = np.random.default_rng([p, t, *shape]).integers(2, tw.q, size=shape)
    ref_r, ref_pivots = _reference_rref(tw, m)
    for layout, given in _layouts(m, tw.q):
        before = given.copy()
        r, pivots = linalg.rref(tw, given)
        assert r.dtype == np.int64 and r.flags.c_contiguous, layout
        assert np.array_equal(r, ref_r) and pivots == ref_pivots, layout
        assert given.dtype == before.dtype and np.array_equal(given, before), layout


@pytest.mark.parametrize("shape", [(0, 5), (6, 1), (1, 6), (0, 1)])
def test_edge_shapes(shape):
    tw = tower(2, 4)
    m = np.arange(shape[0] * shape[1], dtype=np.int64).reshape(shape) % tw.q
    r, pivots = linalg.rref(tw, m)
    ref_r, ref_pivots = _reference_rref(tw, m)
    assert _same(r, ref_r) and pivots == ref_pivots
    assert _same(linalg.nullspace(tw, m), _reference_nullspace(tw, m))


def _reference_matmul(tw, a, b):
    """The row-by-row product: one `mul_arr`/`add_arr` pass per inner index."""
    a, b = linalg.as_matrix(tw, a), linalg.as_matrix(tw, b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = tw.add_arr(out, tw.mul_arr(a[:, k][:, None], b[k][None, :]))
    return out


# GF(16), GF(64) and GF(256) hold a product table, GF(512) multiplies
# through exp/log and GF(81) is odd; matmul's accumulator differs across them
MATMUL_FIELDS = [(4, 2), (8, 2), (16, 2), (2, 9), (9, 2)]

# output row counts, from empty and single rows to 64
ROWS = (0, 1, 8, 9, 16, 33, 48, 64)


@st.composite
def products(draw):
    """A tower and a pair of matrices to multiply.  The output row count is
    one of ROWS; the column count below, at or above it, so the row loop
    runs with and without its transpose.  Rows, columns and the inner
    width may each be 0 or 1."""
    p, t = draw(st.sampled_from(TOWERS + MATMUL_FIELDS))
    tw = tower(p, t)
    nrows = draw(st.sampled_from(ROWS))
    ncols = draw(st.sampled_from([0, 1, nrows // 2, nrows, nrows + 3, 2 * nrows + 1]))
    inner = draw(st.sampled_from([0, 1]) | st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, tw.q, size=(nrows, inner))
    if draw(st.booleans()):
        a[rng.random(a.shape) < 0.5] = 0
    return tw, a, rng.integers(0, tw.q, size=(inner, ncols))


@DETERMINISTIC
@given(products())
def test_matmul_matches_reference(case):
    tw, a, b = case
    before_a, before_b = a.copy(), b.copy()
    assert _same(linalg.matmul(tw, a, b), _reference_matmul(tw, a, b))
    assert np.array_equal(a, before_a) and np.array_equal(b, before_b)


@pytest.mark.parametrize("p,t", MATMUL_FIELDS)
def test_matmul_on_every_output_shape(p, t):
    """Fewer, as many and more output rows than columns; empty and single
    rows, columns and inner indices.  Output is C-ordered int64."""
    tw = tower(p, t)
    rng = np.random.default_rng(p * 10 + t)
    sides = (0, 1, 5, 33, 64, 80)
    for nrows in sides:
        for ncols in sides:
            for inner in (0, 1, 7):
                a = rng.integers(0, tw.q, size=(nrows, inner))
                b = rng.integers(0, tw.q, size=(inner, ncols))
                got = linalg.matmul(tw, a, b)
                assert _same(got, _reference_matmul(tw, a, b)) and got.flags.c_contiguous


@pytest.mark.parametrize("p,t,nrows", [(8, 2, 64), (16, 2, 64), (32, 2, 64), (32, 2, 65),
                                       (2, 9, 48), (2, 9, 49)])
def test_matmul_on_every_code(p, t, nrows):
    """Every code of the field in the left matrix, beside an all-max and
    an all-zero column, on square outputs: at GF(64) and GF(256), through
    the product table, and at GF(1024) and GF(512), through exp/log."""
    tw = tower(p, t)
    rng = np.random.default_rng(p + t)
    codes = np.resize(np.arange(tw.q), (nrows, -(-tw.q // nrows)))
    a = np.concatenate([codes, np.full((nrows, 1), tw.q - 1), np.zeros((nrows, 1), int)], axis=1)
    b = rng.integers(0, tw.q, size=(a.shape[1], nrows))
    assert _same(linalg.matmul(tw, a, b), _reference_matmul(tw, a, b))


@pytest.mark.parametrize("p,t,nrows,ncols", [
    (4, 2, 512, 256),   # GF(16): a 512-row output
    (8, 2, 271, 65),    # GF(64): planning's restriction product
    (8, 2, 256, 512),   # GF(64): the 256-stripe encode
    (8, 2, 64, 64),     # GF(64): square
    (16, 2, 64, 512),   # GF(256): wide
    (16, 2, 271, 65),
    (16, 2, 512, 256),
    (16, 2, 31, 512),   # GF(256): fewer rows than a byte's codes
    (2, 9, 48, 1),      # GF(512): exp/log, one column
    (2, 9, 47, 512),
    (9, 2, 512, 256),   # odd characteristic
])
def test_matmul_on_large_outputs(p, t, nrows, ncols):
    """Outputs of hundreds of rows or columns, the sizes of encoding and
    planning, against the reference, with sparse left rows, an all-max
    inner index and the inputs left unchanged."""
    tw = tower(p, t)
    rng = np.random.default_rng(nrows * ncols + tw.q)
    a = rng.integers(0, tw.q, size=(nrows, 9))
    a[rng.random(a.shape) < 0.3] = 0
    a[:, 4] = tw.q - 1
    b = rng.integers(0, tw.q, size=(9, ncols))
    before_a, before_b = a.copy(), b.copy()
    got = linalg.matmul(tw, a, b)
    assert _same(got, _reference_matmul(tw, a, b)) and got.flags.c_contiguous
    assert np.array_equal(a, before_a) and np.array_equal(b, before_b)


def _reference_matvec(tw, a, v):
    """The product `matvec` used to be: a one-column `matmul`."""
    return linalg.matmul(tw, a, np.asarray(v, dtype=np.int64)[:, None])[:, 0]


@pytest.mark.parametrize("p,t", TOWERS)
def test_matvec_matches_one_column_matmul(p, t):
    """The padded `add_arr` fold (characteristic 2 with and without a
    product table, odd, and q = 2187 on the Zech path) against the
    one-column product, on every row count of ROWS, zero rows and zero
    columns included, inner widths that are and are not powers of two,
    and sparse rows."""
    tw = tower(p, t)
    rng = np.random.default_rng(100 * p + t)
    for nrows in ROWS:
        for ncols in (0, 1, 2, 3, 5, 8, 17):
            a = rng.integers(0, tw.q, size=(nrows, ncols))
            a[rng.random(a.shape) < 0.3] = 0
            v = rng.integers(0, tw.q, size=ncols)
            before_a, before_v = a.copy(), v.copy()
            got = linalg.matvec(tw, a, v)
            assert _same(got, _reference_matvec(tw, a, v)) and got.shape == (nrows,)
            assert np.array_equal(a, before_a) and np.array_equal(v, before_v)


def test_matvec_refuses_vectors_of_another_shape():
    """v has exactly one entry per column of a 2-D matrix: a length-1 v is
    not broadcast over the row, and a column or scalar is refused, not
    reshaped."""
    tw = tower(8, 2)
    a = np.arange(12).reshape(3, 4)
    for v, shape in (([5], "(1,)"), ([1, 2, 3], "(3,)"), ([1, 2, 3, 4, 5], "(5,)"),
                     ([[1], [2], [3], [4]], "(4, 1)"), (7, "()")):
        with pytest.raises(ValueError, match=re.escape(
                f"vector has shape {shape}, expected (4,): one entry per matrix column")):
            linalg.matvec(tw, a, v)
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        linalg.matvec(tw, a[0], [1, 2, 3, 4])
    assert linalg.matvec(tw, a[:, :1], [5]).tolist() == [tw.mul(int(x), 5) for x in a[:, 0]]


def test_solve_refuses_rhs_of_another_shape():
    """rhs is a vector or a matrix of columns with one row per row of mat; a
    scalar or a 3-D block is refused by name, not left to a bare
    IndexError."""
    tw = tower(8, 2)
    m = np.arange(6).reshape(2, 3)
    for rhs, shape in ((7, "()"), (np.zeros((2, 1, 1), dtype=np.int64), "(2, 1, 1)")):
        with pytest.raises(ValueError, match=re.escape(
                f"rhs must be a vector or a matrix, got shape {shape}")):
            linalg.solve(tw, m, rhs)
    with pytest.raises(ValueError, match="rhs has wrong length"):
        linalg.solve(tw, m, [1, 2, 3])
    with pytest.raises(ValueError, match=re.escape("expected a 2-D matrix, got matrix of shape (3,)")):
        linalg.solve(tw, m[0], [1])


# towers of the planning paths: char 2 square fields and odd characteristic
COLUMN_TOWERS = [(2, 4), (4, 2), (8, 2), (3, 2), (9, 2)]


@st.composite
def column_restrictions(draw):
    """A tower, a matrix, its reduced form and a strictly increasing column
    set.

    The matrix is random, possibly rank-deficient, with zero rows.  Its
    reduced form is the pair `rref` returns (int64, zero rows kept, pivots
    as a list) or as planning caches it (the nonzero rows in the smallest
    unsigned dtype and the pivots as an int64 array, both read-only).
    Up to 24 rows and 30 columns, so the kept-row `matmul` runs with and
    without its transpose.  The column set is every column, none of the pivot
    columns, one column, no column, or a random subset."""
    p, t = draw(st.sampled_from(COLUMN_TOWERS))
    tw = tower(p, t)
    nrows, ncols = draw(st.integers(0, 24)), draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = int(rng.integers(0, min(nrows, ncols) + 1))
    m = linalg.matmul(tw, rng.integers(0, tw.q, size=(nrows, rank)),
                      rng.integers(0, tw.q, size=(rank, ncols)))
    if draw(st.booleans()):
        m[rng.random(m.shape) < 0.5] = 0
    reduced, pivots = _reference_rref(tw, m)
    if draw(st.booleans()):
        reduced = reduced[: len(pivots)].astype(np.min_scalar_type(tw.q - 1))
        pivots = np.asarray(pivots, dtype=np.int64)
        pivots.setflags(write=False)
    reduced.setflags(write=False)
    kind = draw(st.sampled_from(["all", "no pivots", "one", "none", "random"]))
    if kind == "all":
        cols = list(range(ncols))
    elif kind == "no pivots":
        cols = [c for c in range(ncols) if c not in pivots]
    elif kind == "one" and ncols:
        cols = [int(rng.integers(ncols))]
    elif kind == "random":
        cols = sorted(rng.choice(ncols, size=int(rng.integers(0, ncols + 1)), replace=False).tolist())
    else:
        cols = []
    return tw, m, (reduced, pivots), cols


@settings(derandomize=True, max_examples=300, deadline=None)
@given(column_restrictions())
def test_nullspace_of_columns_matches_restricted_nullspace(case):
    tw, m, reduced, cols = case
    before = reduced[0].copy()
    got = linalg.nullspace_of_columns(tw, reduced, cols)
    assert _same(got, linalg.nullspace(tw, m[:, cols]))
    assert _same(got, _reference_nullspace(tw, m[:, cols]))
    assert np.array_equal(reduced[0], before) and reduced[0].dtype == before.dtype


def test_nullspace_of_columns_refuses_bad_columns():
    tw = tower(2, 4)
    m = linalg.rref(tw, np.eye(3, 5, dtype=np.int64))
    for cols, why in (([0, 5], r"column 5 is outside \[0, 5\)"),
                      ([-1, 2], r"column -1 is outside \[0, 5\)"),
                      ([1, 1, 3], "strictly increasing: 1 follows 1"),
                      ([3, 2], "strictly increasing: 2 follows 3"),
                      ([[0, 1]], "1-D sequence of integer"),
                      ([0.0, 1.0], "1-D sequence of integer"),
                      (3, "1-D sequence of integer")):
        with pytest.raises(ValueError, match=why):
            linalg.nullspace_of_columns(tw, m, cols)
    for empty in ([], np.array([])):  # no columns, whatever the dtype
        assert linalg.nullspace_of_columns(tw, m, empty).shape[1] == 0



def _exp_log_trace(tw, a):
    """a + a**p + ... + a**(p**(t-1)), each power by exp/log."""
    acc = 0
    for u in range(tw.t):
        acc = tw.add(acc, tw.pow(a, tw.p ** u))
    return acc


@pytest.mark.parametrize("p,t", [(2, 1), (2, 4), (4, 2), (2, 6), (8, 2), (4, 3), (3, 2), (3, 3)])
def test_product_table_matches_scalar_mul_on_every_pair(p, t):
    tw = tower(p, t)
    assert tw.q <= 64 and tw.mul_table.shape == (tw.q, tw.q)
    for a in range(tw.q):
        assert tw.mul_table[a].tolist() == [tw.mul(a, b) for b in range(tw.q)]
        assert tw.trace(a) == _exp_log_trace(tw, a)
    assert all(type(f(tw.q - 1)) is int for f in (tw.inv, tw.trace, lambda a: tw.mul(a, a)))


@pytest.mark.parametrize("p,t", [(16, 2), (2, 8), (3, 5), (32, 2), (2, 9)])
def test_product_table_matches_scalar_mul_on_a_sample(p, t):
    """q = 256 and 243 hold a product table; 1024 and 512 have none."""
    tw = tower(p, t)
    assert (tw.mul_table is None) == (tw.q > PRODUCT_TABLE_MAX)
    rng = np.random.default_rng(tw.q)
    a, b = rng.integers(0, tw.q, size=(2, 3000))
    assert [tw.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == tw.mul_arr(a, b).tolist()
    assert [tw.trace(x) for x in a[:300].tolist()] == [_exp_log_trace(tw, x) for x in a[:300].tolist()]
    if tw.mul_table is not None:
        assert np.array_equal(tw.mul_table[a, b], tw.mul_arr(a, b))
        codes_ = np.arange(tw.q)
        assert np.array_equal(tw.mul_table, tw.mul_arr(codes_[:, None], codes_[None, :]))


@pytest.mark.parametrize("p,t", TOWERS)
def test_mul_outer_matches_mul_arr(p, t):
    """Both gathers of the product table (len a below q and from q on) and
    exp/log, in both characteristics, against mul_arr over the outer shape;
    codes arrive as int64, as rref's uint8/uint16 work arrays or as a list."""
    tw = tower(p, t)
    rng = np.random.default_rng(tw.q)
    work = np.uint8 if tw.q <= 256 else np.uint16
    for na in (0, 1, tw.q - 1, tw.q, tw.q + 5):
        for nb in (0, 1, 13):
            a, b = rng.integers(0, tw.q, size=na), rng.integers(0, tw.q, size=nb)
            expected = tw.mul_arr(a[:, None], b[None, :])
            for x, y in ((a, b), (a.astype(work), b.astype(work)), (a.tolist(), b)):
                got = tw.mul_outer(x, y)
                assert got.shape == (na, nb)
                assert got.dtype == (np.int64 if tw.mul_table is None else np.uint8)
                assert np.array_equal(got, expected)
