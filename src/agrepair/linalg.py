"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy int64 arrays of element codes for a FieldTower.
Every matrix and vector argument of `rref`, `rank`, `nullspace`, `solve`,
`matmul` and `matvec` is read by `gf.integers` against [0, q): an array
costs one dtype test and one max, and an entry that is no integer or lies
outside the field is refused with a ValueError naming it.  `_rref` (for
`solve`) and `_matvec` (for trace reconstruction) are the same
computations on operands already checked where they entered the package.
Elimination is deterministic: pivots are found by a first-nonzero scan,
left to right and top to bottom, so reduced forms, ranks and nullspace
bases are reproducible byte for byte.  No floating point anywhere.

`rref` is the one elimination kernel: `rank`, `nullspace` and `solve`
read its output, and repair planning's index sets need no elimination (see
`repair`).  Per pivot it normalises the pivot row's tail (the columns from
the pivot on; everything to their left is already zero) and adds to every
other row the tail's multiple by minus that row's factor: an in-place XOR
in characteristic 2, `add_arr` otherwise.
Both products are `FieldTower.mul_outer`, of the lead's inverse and of the
tail by the factors.  Steps that would change nothing are skipped: a
pivot row whose lead is already 1 is not normalised, and a pivot column
that is zero in every other row triggers no update, so reducing an
already-reduced matrix costs one nonzero scan per column.  In
characteristic 2 the working copy is uint8 (q <= 256) or uint16, so the
update moves bytes, not int64 words.

The working copy is column-major: `rref` transposes the input once, so
column j of the matrix is the contiguous row c[j].  The pivot scan then
reads one contiguous row, the products of the tail (a column of c) by the
factors (the row c[col]) come out of `mul_outer` in c's layout, its table
gather copying whole table rows, and the update adds them into the
contiguous block c[col:] of the columns from the pivot on.  In row-major
order the scan and the factors would be strided column reads and the
update a strided block.  That pays most on small matrices such as
planning's low blocks; on large ones the products, not the layout,
dominate.
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
are the reduced form of the restriction, which is unique.  Scheme planning
restricts a cached reduced generator this way to each helper set.

`matmul` is one row loop for every field: it adds up one `mul_outer` per
inner index, in place by XOR in characteristic 2 (in uint8 where the
product table gives uint8 products) and with `add_arr` otherwise.  With a
product table it runs over the longer output side, transposing when a has
fewer rows than b has columns, so each inner index gathers a q x short
slice of the table (long x short when long < q) and copies whole rows of
it.

`matvec` is the one field dot product: every combination sum_k c_k * x_k
(`repair.reconstruct`, and `gf`'s trace reconstruction, dual basis and
linearized-map kernel) is one call.
"""

from __future__ import annotations

import numpy as np

from .gf import integers


def _codes(tw, values, name: str) -> np.ndarray:
    """values as an int64 array of tw's element codes, read by `gf.integers`
    against [0, q): an integer-dtype array or a (nested) list of integers.
    Anything else is a ValueError naming the entry and the reason."""
    return integers(values, tw.q, name + " entry {index} is {0}, {1}", block=name,
                    domain=tw.name)


def as_matrix(tw, mat, name: str = "matrix") -> np.ndarray:
    """mat as a 2-D int64 matrix of tw's element codes (see `_codes`)."""
    m = _codes(tw, mat, name)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {name} of shape {m.shape}")
    return m


def _work_dtype(tw):
    """uint8 or uint16 in characteristic 2, where addition is XOR on the
    codes; int64 otherwise."""
    if tw.char == 2:
        return np.uint8 if tw.q <= 256 else np.uint16
    return np.int64


def rref(tw, mat):
    """Reduced row echelon form.  Returns (R, pivot_columns), R a C-ordered
    int64 matrix.

    Works on a transposed copy c = mat.T (see the module docstring): the
    pivot column is the contiguous row c[col], and each update adds the
    tail's products by the factors into the contiguous block c[col:].
    """
    return _rref(tw, as_matrix(tw, mat))


def _rref(tw, m):
    """`rref` of a 2-D integer array of codes already checked."""
    work = _work_dtype(tw)
    c = m.T.astype(work, order="C")  # always a copy, never a view
    ncols, nrows = c.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = c[col, row:].nonzero()[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            c[col:, [row, piv]] = c[col:, [piv, row]]
        tail = c[col:, row]
        if tail[0] != 1:
            tail = tw.mul_outer([tw.inv(int(tail[0]))], tail)[0]
            c[col:, row] = tail
        factors = tw.neg_arr(c[col].copy())  # each row adds -factor * tail
        factors[row] = 0
        if np.count_nonzero(factors):
            multiples = tw.mul_outer(tail, factors)
            if tw.char == 2:
                c[col:] ^= multiples.astype(work, copy=False)
            else:
                c[col:] = tw.add_arr(c[col:], multiples)
        pivots.append(col)
        row += 1
    return c.T.astype(np.int64, order="C"), pivots


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
    (zero rows past its pivots are ignored, any integer dtype) and its pivot
    columns.  Reduces only the rows whose pivot column cols leaves out (see
    the module docstring); the reduced form is not written to."""
    r, pivots = reduced
    m = r[: len(pivots)]
    pivots = np.asarray(pivots, dtype=np.int64)
    idx = _column_indices(cols, m.shape[1])
    local = np.full(m.shape[1], -1, dtype=np.int64)  # position in cols, or -1
    local[idx] = np.arange(idx.size)
    kept = local[pivots] >= 0
    is_rest = np.ones(idx.size, dtype=bool)
    is_rest[local[pivots[kept]]] = False
    rest = idx[is_rest]  # columns of cols that are no kept row's pivot
    low, low_pivots = rref(tw, m[~kept][:, rest])
    low = low[: len(low_pivots)]
    is_free = np.ones(rest.size, dtype=bool)
    is_free[low_pivots] = False
    free = rest[is_free]
    top = tw.sub_arr(m[kept][:, free],
                     matmul(tw, m[kept][:, rest[low_pivots]], low[:, is_free]))
    basis = np.zeros((free.size, idx.size), dtype=np.int64)
    basis[np.arange(free.size), local[free]] = 1
    basis[:, local[pivots[kept]]] = tw.neg_arr(top.T)
    basis[:, local[rest[low_pivots]]] = tw.neg_arr(low[:, is_free].T)
    return basis


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
    aug = np.concatenate([m, bm], axis=1)
    r, pivots = _rref(tw, aug)
    ncols = m.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = np.zeros((ncols, bm.shape[1]), dtype=np.int64)
    x[pivots] = r[: len(pivots), ncols:]
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
    for k in range(a.shape[1]):
        products = tw.mul_outer(left[:, k], right[k])
        if xor:
            out ^= products
        else:
            out = tw.add_arr(out, products)
    return (out.T if flip else out).astype(np.int64, order="C")


def matvec(tw, a, v):
    """sum_k a[i, k] * v[k] for every row i, as int64: one `mul_arr`, then
    halving `add_arr` folds, padded with code 0 to a power of two.  v must
    be 1-D with one entry per column of a; a length-1 v is refused, not
    broadcast."""
    a = as_matrix(tw, a, "matrix a")
    v = _codes(tw, v, "vector v")
    if v.shape != a.shape[1:]:
        raise ValueError(f"vector has shape {v.shape}, expected ({a.shape[1]},): "
                         "one entry per matrix column")
    return _matvec(tw, a, v)


def _matvec(tw, a, v):
    """`matvec` of a 2-D and a matching 1-D integer array of codes already
    checked."""
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
