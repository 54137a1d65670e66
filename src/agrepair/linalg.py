"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy integer arrays of element codes for a FieldTower.
Every matrix and vector argument of `rref`, `reduced_rows`, `rank`,
`nullspace`, `solve`, `matmul` and `matvec` is read by `gf.integers`
against [0, q): an array costs one dtype test and one max, and an entry
that is no integer or lies outside the field is refused with a ValueError
naming it.  A narrow unsigned array, such as a stored generator in the
tower's code dtype, is checked the same way but never widened as a whole:
`matmul` reads one row or column of it per inner index, and `mul_outer`
widens only that vector where it indexes exp/log; `solve` builds its
augmented system directly in `rref`'s working dtype, so verifying an
n=4096 cluster holds no int64 copy of the 3584 x 3584 system.  Outputs
are int64, except `reduced_rows`: the nonzero rows of `rref`'s R in the
tower's code dtype, for a reduced form that is kept (planning caches one
per augmented generator), cut from the working copy without R's whole
int64 copy.  `_rref` (the in-place elimination `rref`, `reduced_rows` and
`solve` share) and `_matvec` (for trace reconstruction) are the same
computations on operands already checked where they entered the package.
Elimination is deterministic: pivots are found by a first-nonzero scan,
left to right and top to bottom, so reduced forms, ranks and nullspace
bases are reproducible byte for byte.  No floating point anywhere.

`rref` is the one elimination kernel: `rank`, `nullspace` and `solve`
read its output, and repair planning's index sets need no elimination (see
`repair`).  Per pivot one rank-1 update both normalises the pivot row and
clears the pivot column: every row adds the pivot row's tail (the columns
from the pivot on; everything to their left is already zero) times its
factor, inv - 1 for the pivot row itself (inv being the lead's inverse)
and -inv * (its entry in the pivot column) for every other row.  That is
an in-place XOR in characteristic 2 and `add_arr` otherwise, of one
`FieldTower.mul_outer` of the tail by the factors; with a product table
the factors are one table row, inv's, read at the pivot column.  The pivot
is the lead itself unless it is zero, so the first-nonzero scan runs only
then.  A pivot whose factors are all zero (a lead of 1 in an otherwise
zero column) triggers no update, so reducing an already-reduced matrix
costs one lead test and one factor row per column.  In characteristic 2
the working copy is in the tower's code dtype, uint8 (q <= 256) or
uint16, so the update moves bytes, not int64 words.

The working copy is column-major: `rref` transposes the input once, so
column j of the matrix is the contiguous row c[j].  The pivot test and the
factors then read one contiguous row, the products of the tail (a column
of c) by the factors come out of `mul_outer` in c's layout, and the update
adds them into the contiguous block c[col:] of the columns from the pivot
on.  On planning's low blocks (about 70 rows by 135 columns at GF(64))
most tails have at least q entries and q times the 70 factors is past
`mul_outer`'s whole-row rule (see its docstring), so most pivots gather
whole rows of the product table.  In row-major order the factors would be
a strided column read and the update a strided block.  That pays most on
small matrices such as planning's low blocks; on large ones the products,
not the layout, dominate.
The reduced row echelon form is unique, so the pivot rule and every output
are unchanged: R is transposed back and returned as a C-ordered int64
matrix.

`nullspace_of_columns(tw, reduced, cols)` returns `nullspace(tw, mat[:, cols])`
byte for byte without reducing the whole restriction, given the pair
`reduced = rref(tw, mat)`; `nullspace` is the case cols = every column, so
the basis is built in one place.  A row of the reduced form whose pivot
column is in cols keeps its unit column there, and the rows whose pivot is
dropped are zero on every kept pivot column.  So only those dropped-pivot rows are
reduced, over the columns of cols that are no kept pivot; each of their new
pivots is eliminated from the kept rows with one `matmul` on the free
columns; and the kept rows, the reduced dropped rows and the free columns
are the reduced form of the restriction, which is unique.  `_nullspace_parts`
returns that form before the basis is laid out (each basis row is a unit
at its free column and minus a column of the coefficients at the pivot
columns), so a caller that wants one row and the rows' weights, as
`codes.dual_support_vector` does, builds no basis.  Every operand is a set
of columns of the reduced form: given it column-major, as planning caches
it, each is a gather of whole rows of its transpose, and the kept rows'
product operand comes out in the column-major layout `matmul` reads.

`matmul` is one row loop for every field: it adds up one `mul_outer` per
inner index, in place by XOR in characteristic 2 (in uint8 where the
product table gives uint8 products) and with `add_arr` otherwise.  With a
product table it runs over the longer output side, transposing when a has
fewer rows than b has columns.  It copies its left operand column-major
once (no copy when it arrives so), so each inner index multiplies a
contiguous column of it by a row of the right operand.

`matvec` is the one field dot product: every combination sum_k c_k * x_k
(`repair.reconstruct`, and `gf`'s trace reconstruction, dual basis and
linearized-map kernel) is one call: one `mul_arr`, then one XOR reduction
in characteristic 2 and halving `add_arr` folds otherwise.
"""

from __future__ import annotations

import numpy as np

from .gf import integers


def _codes(tw, values, name: str) -> np.ndarray:
    """values as an array of tw's element codes, read by `gf.integers`
    against [0, q): an integer-dtype array or a (nested) list of integers.
    Anything else is a ValueError naming the entry and the reason.  An
    unsigned array narrower than 64 bits (a stored code array) passes one
    max and is returned as it is, never widened; everything else comes
    back int64."""
    if (isinstance(values, np.ndarray) and values.dtype.kind == "u"
            and values.dtype.itemsize < 8 and not (values.size and values.max() >= tw.q)):
        return values
    return integers(values, tw.q, name + " entry {index} is {0}, {1}", block=name,
                    domain=tw.name)


def as_matrix(tw, mat, name: str = "matrix") -> np.ndarray:
    """mat as a 2-D matrix of tw's element codes (see `_codes`)."""
    m = _codes(tw, mat, name)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {name} of shape {m.shape}")
    return m


def _work_dtype(tw):
    """The tower's code dtype in characteristic 2, where addition is XOR on
    the codes; int64 otherwise, where `add_arr` indexes tables."""
    return tw.code_dtype if tw.char == 2 else np.int64


def rref(tw, mat):
    """Reduced row echelon form.  Returns (R, pivot_columns), R a C-ordered
    int64 matrix.

    Works on a transposed copy c = mat.T (see the module docstring): the
    pivot column is the contiguous row c[col], and each update adds the
    tail's products by the factors into the contiguous block c[col:].
    """
    c, pivots = _reduce(tw, mat)
    return c.T.astype(np.int64, order="C"), pivots


def reduced_rows(tw, mat):
    """The nonzero rows of `rref`'s R, in the tower's code dtype, and the
    pivot columns: a reduced form to keep, without R's int64 copy."""
    c, pivots = _reduce(tw, mat)
    return c[:, : len(pivots)].T.astype(tw.code_dtype, order="C"), pivots


def _reduce(tw, mat):
    """The transposed working copy of mat, reduced by `_rref`, and its
    pivot columns."""
    c = as_matrix(tw, mat).T.astype(_work_dtype(tw), order="C")  # always a copy, never a view
    return c, _rref(tw, c)


def _rref(tw, c):
    """Reduce c, the transpose of a matrix of codes already checked, in
    place in `_work_dtype`; returns the pivot columns."""
    ncols, nrows = c.shape
    table = tw.mul_table
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        column = c[col]
        lead = int(column[row])
        if not lead:  # the pivot is the first nonzero entry from the row on
            nz = column[row:].nonzero()[0]
            if nz.size == 0:
                continue
            piv = row + int(nz[0])
            c[col:, [row, piv]] = c[col:, [piv, row]]
            lead = int(column[row])
        inv = tw.inv(lead)
        # one rank-1 update normalises the pivot row and clears the column:
        # row r adds the pivot row's tail times factors[r], which is inv - 1
        # for the pivot row and -inv * (its entry in the column) otherwise
        factors = tw.neg_arr(tw.mul_arr(inv, column) if table is None else table[inv].take(column))
        factors[row] = tw.sub(inv, 1)
        if np.count_nonzero(factors):
            multiples = tw.mul_outer(c[col:, row], factors)
            if tw.char == 2:
                c[col:] ^= multiples.astype(c.dtype, copy=False)
            else:
                c[col:] = tw.add_arr(c[col:], multiples)
        pivots.append(col)
        row += 1
    return pivots


def rank(tw, mat) -> int:
    return len(rref(tw, mat)[1])


def nullspace(tw, mat) -> np.ndarray:
    """Basis of the right nullspace, one vector per row (possibly empty)."""
    reduced = rref(tw, mat)
    return nullspace_of_columns(tw, reduced, np.arange(reduced[0].shape[1]))


def _column_indices(cols, ncols: int) -> np.ndarray:
    """cols as int64, refused unless strictly increasing inside [0, ncols)."""
    if isinstance(cols, np.ndarray) and cols.shape == (0,):
        return np.empty(0, dtype=np.int64)  # no columns, whatever the dtype
    idx = integers(cols, ncols,
                   "column {0} is {1}; columns must be a 1-D sequence of integer indices")
    if idx.ndim != 1:
        raise ValueError("columns must be a 1-D sequence of integer indices")
    unordered = np.flatnonzero(np.diff(idx) <= 0)
    if unordered.size:
        raise ValueError(f"columns must be strictly increasing: {idx[unordered[0] + 1]} "
                         f"follows {idx[unordered[0]]}")
    return idx


def nullspace_of_columns(tw, reduced, cols) -> np.ndarray:
    """nullspace(tw, mat[:, cols]), byte for byte, for strictly increasing
    column indices cols, given reduced = rref(tw, mat): the reduced form
    (zero rows past its pivots are ignored, any integer dtype, read fastest
    in column-major order) and its pivot columns.  Reduces only the rows
    whose pivot column cols leaves out (see the module docstring); the
    reduced form is not written to."""
    free, dependent, coefficients = _nullspace_parts(tw, reduced, cols)
    basis = np.zeros((free.size, len(cols)), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, dependent] = tw.neg_arr(coefficients.T)
    return basis


def _nullspace_parts(tw, reduced, cols):
    """`nullspace_of_columns` before it is laid out: (free, dependent,
    coefficients), where row f of the basis is 1 at position free[f] of
    cols, -coefficients[:, f] at the positions dependent and 0 elsewhere.
    A caller that needs one row, or only the rows' weights, reads them
    here without building the basis."""
    r, pivots = reduced
    mt = r[: len(pivots)].T  # column j of the reduced form is the row mt[j]
    pivots = np.asarray(pivots, dtype=np.int64)
    idx = _column_indices(cols, mt.shape[0])
    local = np.full(mt.shape[0], -1, dtype=np.int64)  # position in cols, or -1
    local[idx] = np.arange(idx.size)
    at = local[pivots]
    kept, dropped = np.flatnonzero(at >= 0), np.flatnonzero(at < 0)
    is_rest = np.ones(idx.size, dtype=bool)
    is_rest[at[kept]] = False
    rest = idx[is_rest]  # columns of cols that are no kept row's pivot
    low, low_pivots = rref(tw, mt[rest][:, dropped].T)
    low = low[: len(low_pivots)]
    is_free = np.ones(rest.size, dtype=bool)
    is_free[low_pivots] = False
    free = rest[is_free]
    low_free = low[:, is_free]
    top = tw.sub_arr(np.ascontiguousarray(mt[free][:, kept].T),  # in matmul's layout
                     matmul(tw, mt[rest[low_pivots]][:, kept].T, low_free))
    dependent = np.concatenate([at[kept], local[rest[low_pivots]]])
    return local[free], dependent, np.concatenate([top, low_free])


def solve(tw, mat, rhs):
    """One exact solution of mat @ x = rhs, or None when inconsistent.

    rhs may be a vector or a matrix of stacked right-hand-side columns; the
    returned solution has matching shape.  Free variables are set to zero.
    """
    m = as_matrix(tw, mat)
    b = _codes(tw, rhs, "rhs")
    if b.ndim not in (1, 2):
        raise ValueError(f"rhs must be a vector or a matrix, got shape {b.shape}")
    single = b.ndim == 1
    bm = b[:, None] if single else b
    if bm.shape[0] != m.shape[0]:
        raise ValueError("rhs has wrong length")
    ncols = m.shape[1]
    # the transposed augmented system [m | bm].T, built in the working dtype
    c = np.empty((ncols + bm.shape[1], m.shape[0]), dtype=_work_dtype(tw))
    c[:ncols] = m.T
    c[ncols:] = bm.T
    pivots = _rref(tw, c)
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, bm.shape[1]), dtype=np.int64)
    x[pivots] = c[ncols:, : len(pivots)].T
    return x[:, 0] if single else x


def matmul(tw, a, b):
    """Exact matrix product over the tower, as a C-ordered int64 matrix:
    one `mul_outer` per inner index, added up in place, computed as
    (b.T a.T).T when a has fewer rows than b has columns and the field has
    a product table (see the module docstring)."""
    a = as_matrix(tw, a, "matrix a")
    b = as_matrix(tw, b, "matrix b")
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    flip = tw.mul_table is not None and a.shape[0] < b.shape[1]
    left, right = (b.T, a.T) if flip else (a, b)
    xor = tw.char == 2
    out = np.zeros((left.shape[0], right.shape[1]),
                   dtype=np.uint8 if xor and tw.mul_table is not None else np.int64)
    columns = np.ascontiguousarray(left.T)  # column k of left is the row columns[k]
    for k in range(a.shape[1]):
        products = tw.mul_outer(columns[k], right[k])
        if xor:
            out ^= products
        else:
            out = tw.add_arr(out, products)
    return (out.T if flip else out).astype(np.int64, order="C")


def matvec(tw, a, v):
    """sum_k a[i, k] * v[k] for every row i, as int64: one `mul_arr`, then
    one XOR reduction in characteristic 2, and otherwise halving `add_arr`
    folds, padded with code 0 to a power of two.  v must be 1-D with one
    entry per column of a; a length-1 v is refused, not broadcast."""
    a = as_matrix(tw, a, "matrix a")
    v = _codes(tw, v, "vector v")
    if v.shape != a.shape[1:]:
        raise ValueError(f"vector has shape {v.shape}, expected ({a.shape[1]},): "
                         "one entry per matrix column")
    return _matvec(tw, a, v)


def _matvec(tw, a, v):
    """`matvec` of a 2-D and a matching 1-D integer array of codes already
    checked."""
    if tw.char == 2:  # the sum is XOR, one reduction
        return np.bitwise_xor.reduce(tw.mul_arr(a, v), axis=1)
    width = 1 << max(a.shape[1] - 1, 0).bit_length()
    terms = np.zeros((a.shape[0], width), dtype=np.int64)  # code 0 is the field's zero
    terms[:, :a.shape[1]] = tw.mul_arr(a, v)
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        terms = tw.add_arr(terms[:, :half], terms[:, half:])
    return terms[:, 0]


def rank_over_base(tw, codes) -> int:
    """GF(p)-dimension of the span of GF(q) elements.

    Flattens each element to its t base-p digits and row-reduces.  Digit
    codes live in the base subfield, which the tower's arithmetic keeps
    closed, so the generic elimination computes the subfield rank exactly.
    """
    return rank(tw, tw.digits_arr(np.asarray(list(codes), dtype=np.int64)))
