"""Property tests of the repair protocol against the erasure-decoding oracle
and the closed-form bandwidth.

Each example samples a tower GF(p**t) with p in {2, 3, 4, 5, 7, 8, 9} and
2 <= t <= 4, q <= 81 (t = 1 admits only l = 0), an RS or (possibly
shortened) Hermitian code, a variant, `l`, a helper subset and a pole
degree s that `repair.check_precondition` accepts, then repairs a random
codeword.  The rebuilt symbol must equal what `codes.erasure_decode`
recovers from threshold other coordinates; the download must stay within
`repair.bound_symbols`, exactly len(active) * (t - l) for the strong
variants.  A plan refused with `DualVectorError` (no dual vector on that
helper set) is a refusal, not a failure; a wrong symbol is a failure.
The same sample checks each plan's index sets (`chosen_u`, `lam`, `start`)
against the greedy `rank`/`solve` loop of `test_repair`.

A second sample takes sub-helper sets on shortened GF(64)/GF(8) and
GF(81)/GF(9) Hermitian codes, d at least 20 above the pole degree s + rho
the dual vector must annihilate, where every plan prunes helpers, and
compares the download with the greedy reference's.

A third sample is differential: stored codes are narrow (uint8 up to
q = 256, uint16 above), so every kernel, `linalg` entry point, code,
repair and state-file round trip is fed the same codes as narrow and as
int64 arrays, at GF(256) and GF(512) in characteristic 2 and at GF(81)
and GF(2187) in odd characteristic.  Values must agree, and each output
must have its documented dtype.

A fourth sample checks the fast paths of a sub-helper repair against the
slow paths they replaced: `FieldTower.mul_outer` against a product table
filled by scalar `mul` on both sides of its gather rule and for uint8,
uint16 and int64 indices; `linalg._rref` against the elimination it
replaced, copied below verbatim; and `repair.helper_response` on plain
ints against its checked path, which must still refuse what it refused.
"""

import functools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from agrepair import codes, gf, linalg, repair, sim
from agrepair.gf import FieldElement, tower
from test_codes import _greedy_dual_support_vector
from test_repair import _reference_chosen, _reference_index_sets

MAX_Q = 81     # every p in the sample has a tower up to here
MAX_N = 128    # shortened Hermitian codes keep planning cheap
TOWERS = [(p, t) for p in (2, 3, 4, 5, 7, 8, 9) for t in range(2, 5) if p ** t <= MAX_Q]
HERMITIAN_TOWERS = [(p, t) for p, t in TOWERS if math.isqrt(p ** t) ** 2 == p ** t]


@functools.lru_cache(maxsize=None)
def _curve(p, t):
    return codes.hermitian_curve(tower(p, t))


@st.composite
def repair_cases(draw):
    """(code, variant, l, target, helpers) with check_precondition passing."""
    kind = draw(st.sampled_from(["rs", "hermitian"]), label="kind")
    p, t = draw(st.sampled_from(TOWERS if kind == "rs" else HERMITIAN_TOWERS), label="tower")
    tw = tower(p, t)
    if kind == "rs":
        variant, r, genus, complete = repair.VARIANT_RS, None, 0, tw.q
    else:
        variant = draw(st.sampled_from([repair.VARIANT_LINE, repair.VARIANT_WEAK]), label="variant")
        curve = _curve(p, t)
        r, genus, complete = curve.r, curve.genus, curve.r ** 3
    # lengths and helper counts counted down from the largest, which the
    # search favours, so that complete point sets and l > 0 come up often
    n = min(complete, MAX_N) - draw(st.integers(0, min(complete, MAX_N) - 2), label="shortened by")
    target = draw(st.integers(0, n - 1), label="target")
    others = [j for j in range(n) if j != target]
    d = n - 1 - draw(st.integers(0, n - 2), label="helpers left out")
    helpers = sorted(draw(st.permutations(others), label="order")[:d])

    def accepted(s, l):
        try:
            repair.check_precondition(variant, s, len(helpers), l, p, genus, r, n, complete)
        except repair.RepairPreconditionError:
            return False
        return True

    # the rule only tightens as s grows, and l = 0 always admits s = 0
    l = draw(st.sampled_from([l for l in range(t + 1) if accepted(0, l)]), label="l")
    # s <= n - 2 leaves threshold = s + 1 coordinates besides the target for the oracle
    s = draw(st.sampled_from([s for s in range(n - 1) if accepted(s, l)]), label="s")
    code = codes.rs_code(tw, s + 1, n=n) if kind == "rs" else codes.hermitian_code(_curve(p, t), s, n)
    return code, variant, l, target, helpers


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=repair_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_repair_matches_the_oracle_within_the_bound(case, seed):
    code, variant, l, target, helpers = case
    try:
        scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
    except codes.DualVectorError:
        event("refused: DualVectorError")
        return  # no dual vector on this helper set
    event(f"{variant}, l={l}{', pruned' if scheme.pruned else ''}")
    tw = code.tower
    word = codes.encode_many(code, np.random.default_rng(seed).integers(0, tw.q, (1, code.k)))[0]
    value, transcript = repair.run_repair(scheme, word)

    positions = [j for j in range(code.n) if j != target][:code.threshold]
    oracle = codes.erasure_decode(code, [(j, word[j]) for j in positions])
    assert value.code == oracle[target]

    assert transcript.total_symbols <= repair.bound_symbols(scheme)
    if variant != repair.VARIANT_WEAK:
        assert transcript.total_symbols == len(scheme.active) * (tw.t - l)

    repeated = positions + positions[:1]
    with pytest.raises(ValueError, match="duplicate positions"):
        codes.erasure_decode_many(code, repeated, word[None, repeated])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(case=repair_cases())
def test_index_sets_match_the_greedy_reference(case):
    """The index sets read off y^-1 V equal the greedy `rank`/`solve` loop:
    the same chosen rows, expansion and offsets, helper by helper."""
    code, variant, l, target, helpers = case
    try:
        scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
    except codes.DualVectorError:
        return
    event(f"{variant}, l={l}{', extra zeros' if scheme.extra_zeros else ''}")
    mu, expand, counts = _reference_index_sets(scheme)
    active = list(scheme.active)
    per_node = np.zeros(code.n, dtype=np.int64)
    per_node[active] = [counts[j] for j in active]
    chosen = [u for j in active for u in _reference_chosen(scheme, j, mu[j])]
    assert scheme.chosen_u.tolist() == chosen
    assert np.array_equal(scheme.lam, np.hstack([np.zeros((code.tower.t, 0), dtype=np.int64)]
                                                + [expand[j] for j in active]))
    assert np.array_equal(scheme.start, np.concatenate([[0], np.cumsum(per_node)]))


LARGE_TOWERS = [(8, 2), (9, 2)]  # GF(64)/GF(8) and GF(81)/GF(9)


@st.composite
def pruning_cases(draw):
    """(code, variant, l, rho, target, helpers) on a shortened Hermitian
    code over a large tower, with s + rho <= d - 20."""
    p, t = draw(st.sampled_from(LARGE_TOWERS), label="tower")
    curve = _curve(p, t)
    variant = draw(st.sampled_from([repair.VARIANT_LINE, repair.VARIANT_WEAK]), label="variant")
    l = draw(st.sampled_from([0, 1]), label="l")
    rho = (p ** l - 1) * repair.pole_order(variant, curve.genus, curve.r)
    n = draw(st.integers(rho + 60, min(rho + 160, 400)), label="n")
    d = draw(st.integers(rho + 40, n - 2), label="d")
    s = draw(st.integers(0, min(d - rho - 20, 60)), label="s")
    target = draw(st.integers(0, n - 1), label="target")
    others = [j for j in range(n) if j != target]
    helpers = sorted(draw(st.permutations(others), label="order")[:d])
    return codes.hermitian_code(curve, s, n), variant, l, rho, target, helpers


@settings(derandomize=True, max_examples=50, deadline=None)
@given(case=pruning_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_pruned_repairs_on_large_codes(case, seed):
    """The oracle's symbol within the bound; pruned helpers send nothing;
    at most rank(augmented generator) helpers stay active, since a reduced
    nullspace row is nonzero only on pivot columns and its own; a strong
    plan downloads t - l per active helper, no more than the greedily
    filled first row would."""
    code, variant, l, rho, target, helpers = case
    tw = code.tower
    scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
    word = codes.encode_many(code, np.random.default_rng(seed).integers(0, tw.q, (1, code.k)))[0]
    value, transcript = repair.run_repair(scheme, word)

    positions = [j for j in range(code.n) if j != target][:code.threshold]
    oracle = codes.erasure_decode(code, [(j, word[j]) for j in positions])
    assert value.code == oracle[target]
    assert transcript.total_bits <= repair.bound_symbols(scheme) * scheme.bits_per_symbol()

    assert sorted(scheme.active + scheme.pruned) == helpers
    assert set(transcript.responses) == set(transcript.symbol_counts) == set(scheme.active)
    assert len(scheme.active) <= len(codes._reduced_augmented(code, rho)[1])
    event(f"GF({tw.q}), {variant}, l={l}, {len(scheme.pruned) * 10 // len(helpers) * 10}%+ pruned")
    if variant == repair.VARIANT_LINE:
        assert transcript.total_symbols == len(scheme.active) * (tw.t - l)
        greedy = _greedy_dual_support_vector(codes.augmented_generator(code, rho), tw, target,
                                             helpers)
        assert transcript.total_symbols <= (np.count_nonzero(greedy) - 1) * (tw.t - l)


# (p, t) with q = 256 (uint8 codes), 512 (uint16 codes, digits whose
# weighted sum passes 255) and odd q = 81 (add table) and 2187 (Zech sums)
NARROW_TOWERS = [(2, 8), (16, 2), (2, 9), (8, 3), (9, 2), (3, 7)]


def _same(got, want, dtype=np.int64):
    assert got.dtype == dtype and got.shape == want.shape and np.array_equal(got, want)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pt=st.sampled_from(NARROW_TOWERS), seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(0,), (1,), (9,), (3, 4)]), k=st.integers(-3, 600))
def test_kernels_read_narrow_codes_as_int64_codes(pt, seed, shape, k):
    """mul/add/sub/trace/pow and the digit views on narrow codes equal
    their int64 results.  Every kernel returns int64, except that a sum or
    difference in characteristic 2 is XOR in numpy's common dtype of its
    inputs, which holds every code."""
    tw = tower(*pt)
    assert tw.code_dtype == (np.uint8 if tw.q <= 256 else np.uint16)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, tw.q, size=(2, *shape))
    a[a == 0] = 1  # a negative power needs nonzero codes
    na, nb = a.astype(tw.code_dtype), b.astype(tw.code_dtype)
    for f, xor in ((tw.mul_arr, False), (tw.add_arr, tw.char == 2), (tw.sub_arr, tw.char == 2)):
        want = f(a, b)
        for x, y in ((na, nb), (na, b), (a, nb)):
            _same(f(x, y), want, np.result_type(x, y) if xor else np.int64)
    for f in (tw.trace_arr, lambda x: tw.pow_arr(x, k), tw.digits_arr):
        _same(f(na), f(a))
    digits = tw.digits_arr(a)
    _same(tw.from_digits_arr(digits.astype(np.uint8)), a)


def test_narrow_digits_of_gf512_do_not_wrap():
    """Digit 1 at u = 8 of GF(512)/GF(2) weighs 256, and digit 7 at u = 2 of
    GF(512)/GF(8) weighs 448: a uint8 weighted sum would wrap."""
    for p, t in ((2, 9), (8, 3)):
        tw = tower(p, t)
        digits = np.zeros((2, t), dtype=np.uint8)
        digits[0, -1] = 1
        digits[1] = p - 1
        _same(tw.from_digits_arr(digits), np.array([p ** (t - 1), tw.q - 1]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(pt=st.sampled_from(NARROW_TOWERS), seed=st.integers(0, 2 ** 32 - 1),
       rows=st.integers(0, 10), cols=st.integers(1, 10), rank=st.integers(0, 10))
def test_linalg_reads_narrow_matrices_as_int64_matrices(pt, seed, rows, cols, rank):
    """rref, nullspace, solve, matmul and matvec give the same int64 output
    for a narrow matrix as for its int64 copy, and leave it unwritten;
    reduced_rows gives rref's nonzero rows in the code dtype from either."""
    tw = tower(*pt)
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    m = linalg.matmul(tw, rng.integers(0, tw.q, (rows, rank)), rng.integers(0, tw.q, (rank, cols)))
    nm = m.astype(tw.code_dtype)
    before = nm.copy()
    r, pivots = linalg.rref(tw, m)
    nr, npivots = linalg.rref(tw, nm)
    _same(nr, r)
    assert npivots == pivots
    for mat in (m, nm):  # the nonzero rows of R, kept narrow
        nonzero, rpivots = linalg.reduced_rows(tw, mat)
        _same(nonzero, r[: len(pivots)], tw.code_dtype)
        assert rpivots == pivots and nonzero.flags.c_contiguous
    _same(linalg.nullspace(tw, nm), linalg.nullspace(tw, m))
    x = rng.integers(0, tw.q, (cols, 2))
    for rhs in (linalg.matmul(tw, m, x), rng.integers(0, tw.q, (rows, 2))):  # solvable, random
        want = linalg.solve(tw, m, rhs)
        for got in (linalg.solve(tw, nm, rhs), linalg.solve(tw, nm, rhs.astype(tw.code_dtype)),
                    linalg.solve(tw, nm, rhs[:, 0].astype(tw.code_dtype))):
            if want is None:
                assert got is None
            else:
                _same(got, want if got.ndim == 2 else linalg.solve(tw, m, rhs[:, 0]))
    nx = x.astype(tw.code_dtype)
    _same(linalg.matmul(tw, nm, nx), linalg.matmul(tw, m, x))
    _same(linalg.matmul(tw, nx.T, nm.T), linalg.matmul(tw, x.T, m.T))
    _same(linalg.matvec(tw, nm, nx[:, 0]), linalg.matvec(tw, m, x[:, 0]))
    assert np.array_equal(nm, before)


@functools.lru_cache(maxsize=None)
def _narrow_code(name):
    if name == "hermitian-256":
        return codes.hermitian_code(codes.hermitian_curve(tower(2, 8)), 20, 60)
    p, t = {"rs-256": (2, 8), "rs-512": (2, 9), "rs-81": (3, 4), "rs-2187": (3, 7)}[name]
    return codes.rs_code(tower(p, t), 12, n=40)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(name=st.sampled_from(["rs-256", "rs-512", "rs-81", "rs-2187", "hermitian-256"]),
       seed=st.integers(0, 2 ** 32 - 1), target=st.integers(0, 39))
def test_codes_repair_and_state_files_on_narrow_codes(name, seed, target):
    """The generator and a cluster's arrays are stored narrow; encoding,
    erasure decoding and a repair from narrow codes equal those from
    int64 codes; a state saved from narrow arrays loads back narrow."""
    code = _narrow_code(name)
    tw = code.tower
    assert code.generator.dtype == tw.code_dtype
    assert np.array_equal(code.generator, np.array(
        [tw.pow_arr(code.points, e) for e in range(code.k)] if code.kind == "rs" else
        [tw.mul_arr(tw.pow_arr(code.points[:, 0], i), tw.pow_arr(code.points[:, 1], j))
         for i, j in code.monomials]))
    cl = sim.make_cluster(code, 3, seed % 1000)
    for arr in (cl.stripes, cl.nodes):
        assert arr.dtype == tw.code_dtype
    stripes = cl.stripes.astype(np.int64)
    nodes = codes.encode_many(code, stripes)
    _same(codes.encode_many(code, cl.stripes), nodes)
    assert np.array_equal(cl.nodes, nodes)
    positions = [j for j in range(code.n) if j != target][:code.threshold]
    _same(codes.erasure_decode_many(code, positions, cl.nodes[:, positions]),
          codes.erasure_decode_many(code, positions, nodes[:, positions]))
    scheme = repair.build_scheme(code, target)
    value, transcript = repair.run_repair(scheme, cl.nodes[0])
    assert (value, transcript) == repair.run_repair(scheme, nodes[0])
    assert value.code == nodes[0, target]
    sim.fail_node(cl, target)
    assert cl.withheld.dtype == tw.code_dtype
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        sim.save_cluster(path, cl)
        back = sim.load_cluster(path)
    for field in ("stripes", "nodes", "withheld"):
        got, sent = getattr(back, field), getattr(cl, field)
        assert got.dtype == tw.code_dtype and np.array_equal(got, sent)
    assert back.code.points.dtype == np.int64 and np.array_equal(back.code.points, code.points)


# ----------------------------------------------------------------------
# fast paths against the slow paths they replaced
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _scalar_products(p, t):
    tw = tower(p, t)
    return np.array([[tw.mul(a, b) for b in range(tw.q)] for a in range(tw.q)])


@settings(derandomize=True, max_examples=120, deadline=None)
@given(pt=st.sampled_from([(2, 2), (2, 4), (4, 2), (8, 2), (2, 8), (16, 2)]),
       seed=st.integers(0, 2 ** 32 - 1), la=st.integers(0, 2), lb=st.integers(0, 3),
       dtype=st.sampled_from([np.uint8, np.uint16, np.int64]))
def test_mul_outer_matches_a_scalar_product_table(pt, seed, la, lb, dtype):
    """Every route of `mul_outer` (a shorter or longer than q, len(b) on
    either side of the whole-row gather rule) gives the scalar products."""
    tw = tower(*pt)
    rule = -(-gf._ROW_GATHER_BYTES // tw.q)  # the least len(b) that gathers whole rows
    len_a = (1, tw.q - 1, tw.q + 7)[la]
    len_b = (1, rule - 1, rule, rule + 1)[lb]
    rng = np.random.default_rng(seed)
    a = rng.integers(0, tw.q, len_a).astype(dtype)
    b = rng.integers(0, tw.q, len_b).astype(dtype)
    got = tw.mul_outer(a, b)
    assert got.dtype == np.uint8 and got.shape == (len_a, len_b)
    assert np.array_equal(got, _scalar_products(*pt)[np.ix_(a, b)])


def _rref_before_fold(tw, c):
    """`linalg._rref` as it was before the pivot step was folded into one
    rank-1 update: verbatim."""
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
                c[col:] ^= multiples.astype(c.dtype, copy=False)
            else:
                c[col:] = tw.add_arr(c[col:], multiples)
        pivots.append(col)
        row += 1
    return pivots


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pt=st.sampled_from([(2, 6), (8, 2), (16, 2), (2, 9), (3, 2), (9, 2), (5, 2), (3, 7)]),
       seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(0, 40), cols=st.integers(0, 90),
       rank=st.integers(0, 40), zero_cols=st.integers(0, 3))
def test_rref_matches_the_kernel_it_replaced(pt, seed, rows, cols, rank, zero_cols):
    """Same pivots and the same reduced working copy, in characteristic 2
    (XOR on the code dtype, with and without a product table) and in odd
    characteristic (int64), on matrices of any rank with zero columns."""
    tw = tower(*pt)
    rng = np.random.default_rng(seed)
    rank = min(rank, rows, cols)
    m = linalg.matmul(tw, rng.integers(0, tw.q, (rows, rank)), rng.integers(0, tw.q, (rank, cols)))
    m[:, rng.integers(0, max(cols, 1), zero_cols if cols else 0)] = 0
    c = m.T.astype(linalg._work_dtype(tw), order="C")
    ref = c.copy()
    assert linalg._rref(tw, c) == _rref_before_fold(tw, ref)
    assert c.dtype == ref.dtype and np.array_equal(c, ref)


@functools.lru_cache(maxsize=None)
def _response_scheme(name):
    if name == "rs-16":
        code = codes.rs_code(tower(2, 4), 4, n=16)
        return repair.build_scheme(code, 0, helpers=[1, 3, 4, 5, 7, 9, 12, 13, 14, 15])
    if name == "rs-81":
        return repair.build_scheme(codes.rs_code(tower(3, 4), 20, n=81), 5, l=2)
    code = codes.hermitian_code(_curve(4, 2), 10)
    return repair.build_scheme(code, 3, variant=repair.VARIANT_WEAK)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(["rs-16", "rs-81", "hermitian-weak-16"]), data=st.data())
def test_helper_response_fast_path_matches_the_checked_path(name, data):
    """Plain ints in range take the fast path; a numpy j, a numpy or
    FieldElement symbol take the checked one, with the same replies; bool
    and out-of-range values are refused on either path, by name."""
    scheme = _response_scheme(name)
    tw = scheme.code.tower
    j = data.draw(st.sampled_from(scheme.helpers), label="helper")
    x = data.draw(st.integers(0, tw.q - 1), label="symbol")
    want = repair.helper_response(scheme, j, x)
    for jj, xx in ((np.int64(j), x), (np.uint16(j), np.uint8(x) if tw.q <= 256 else x),
                   (j, FieldElement(tw, x)), (np.int32(j), np.int64(x))):
        assert repair.helper_response(scheme, jj, xx) == want
    assert want == tuple(tw.trace_arr(tw.mul_arr(
        scheme.mu[scheme.start[j]:scheme.start[j + 1]], x)).tolist())
    for bad, shown in ((True, "True, not an integer"), (tw.q, f"{tw.q}, outside GF({tw.q})"),
                       (-1, f"-1, outside GF({tw.q})"), (np.int64(tw.q), f"{tw.q}, outside"),
                       (2.0, "2.0, not an integer"),
                       (FieldElement(tower(2, 2), 1), "<1 in GF(4)>, an element of a different")):
        with pytest.raises(ValueError, match=f"^node {j} stores {re.escape(shown)}"):
            repair.helper_response(scheme, j, bad)
    outsider = data.draw(st.sampled_from([scheme.target, -1, scheme.code.n]), label="outsider")
    for jj in (outsider, np.int64(outsider)):
        with pytest.raises(ValueError, match=f"^node {outsider} is not in the helper set$"):
            repair.helper_response(scheme, jj, x)
    with pytest.raises(ValueError, match="^node True is not in the helper set$"):
        repair.helper_response(scheme, True, x)
