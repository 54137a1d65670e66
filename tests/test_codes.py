import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrepair import codes, linalg
from agrepair.gf import tower


def dot(tw, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = tw.add(acc, tw.mul(int(a), int(b)))
    return acc


# ----------------------------------------------------------------------
# Hermitian curve
# ----------------------------------------------------------------------


def test_curve_r2_exhaustive():
    f4 = tower(2, 2)
    cv = codes.hermitian_curve(f4)
    oracle = sorted(
        (a, b)
        for a in range(4)
        for b in range(4)
        if f4.add(f4.pow(b, 2), b) == f4.pow(a, 3)
    )
    assert [tuple(p) for p in cv.points.tolist()] == oracle
    assert cv.points.shape[0] == 8
    assert cv.genus == 1
    # a=0 pairs with {0,1}; every nonzero a pairs with {g, g+1}
    assert [tuple(p) for p in cv.points[:2]] == [(0, 0), (0, 1)]
    for a in (1, 2, 3):
        fiber = sorted(int(b) for aa, b in cv.points if aa == a)
        assert fiber == [2, 3]


def test_curve_r3_exhaustive():
    f9 = tower(3, 2)
    cv = codes.hermitian_curve(f9)
    oracle = sorted(
        (a, b)
        for a in range(9)
        for b in range(9)
        if f9.add(f9.pow(b, 3), b) == f9.pow(a, 4)
    )
    assert [tuple(p) for p in cv.points.tolist()] == oracle
    assert cv.points.shape[0] == 27


@pytest.mark.parametrize("p,t,r", [(2, 2, 2), (3, 2, 3), (2, 4, 4), (8, 2, 8)])
def test_curve_point_counts(p, t, r):
    tw = tower(p, t)
    cv = codes.hermitian_curve(tw)
    assert cv.r == r
    assert cv.points.shape[0] == r ** 3
    eq = tw.add_arr(tw.pow_arr(cv.points[:, 1], r), cv.points[:, 1])
    assert np.array_equal(eq, tw.pow_arr(cv.points[:, 0], r + 1))
    # each x-coordinate carries exactly r points
    _, counts = np.unique(cv.points[:, 0], return_counts=True)
    assert (counts == r).all()


def test_curve_needs_square_field():
    with pytest.raises(ValueError):
        codes.hermitian_curve(tower(2, 3))


# ----------------------------------------------------------------------
# Riemann-Roch monomial basis
# ----------------------------------------------------------------------


def test_rr_basis_cases():
    assert codes.rr_basis(2, 0) == [(0, 0)]
    assert codes.rr_basis(2, 5) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
    assert len(codes.rr_basis(8, 475)) == 448
    with pytest.raises(ValueError):
        codes.rr_basis(2, -1)


@pytest.mark.parametrize("r", [2, 3, 4, 8])
def test_rr_basis_dimension_formula(r):
    genus = r * (r - 1) // 2
    for s in range(2 * genus - 1, 2 * genus + 40):
        assert len(codes.rr_basis(r, s)) == s - genus + 1
    # sorted by strictly increasing pole order
    orders = [i * r + j * (r + 1) for i, j in codes.rr_basis(r, 3 * genus + 5)]
    assert orders == sorted(orders) and len(set(orders)) == len(orders)


# ----------------------------------------------------------------------
# construction and encoding
# ----------------------------------------------------------------------


def test_rs_frozen_codeword():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    assert codes.encode(rs, [0, 2]).symbols.tolist() == [0, 2, 3, 1]  # f = g*x
    assert codes.encode(rs, [1, 0]).symbols.tolist() == [1, 1, 1, 1]
    assert codes.encode(rs, [0, 0]).symbols.tolist() == [0, 0, 0, 0]


def test_rs_validation():
    f4 = tower(2, 2)
    with pytest.raises(ValueError):
        codes.rs_code(f4, k=0, n=4)
    with pytest.raises(ValueError):
        codes.rs_code(f4, k=2, points=[0, 0, 1])
    with pytest.raises(ValueError):
        codes.rs_code(f4, k=5, n=4)
    with pytest.raises(ValueError):
        codes.rs_code(f4, k=2, n=5)


def test_encode_is_linear():
    f16 = tower(2, 4)
    rs = codes.rs_code(f16, k=5, n=12)
    rng = np.random.default_rng(0)
    m1, m2 = rng.integers(0, 16, size=(2, 5))
    lam = int(rng.integers(1, 16))
    lhs = codes.encode(rs, f16.add_arr(f16.mul_arr(np.int64(lam), m1), m2)).symbols
    rhs = f16.add_arr(
        f16.mul_arr(np.int64(lam), codes.encode(rs, m1).symbols),
        codes.encode(rs, m2).symbols,
    )
    assert np.array_equal(lhs, rhs)


def test_encode_rejects_codes_outside_the_field():
    rs = codes.rs_code(tower(2, 4), k=4, n=16)
    with pytest.raises(ValueError, match=r"message row 0, position 0 holds -1, outside GF\(16\)"):
        codes.encode(rs, [-1, 0, 0, 0])
    with pytest.raises(ValueError, match=r"message row 0, position 3 holds 16, outside GF\(16\)"):
        codes.encode(rs, [0, 0, 0, 16])
    block = np.zeros((8, 4), dtype=np.int64)
    for bad in (-1, 16, 2 ** 40):
        block[5, 2] = bad
        with pytest.raises(ValueError, match=rf"message row 5, position 2 holds {bad}, outside GF\(16\)"):
            codes.encode_many(rs, block)
    block[5, 2] = 0
    block[6] = -1
    with pytest.raises(ValueError, match="message row 6, position 0 holds -1"):
        codes.encode_many(rs, block)


def test_encode_rejects_non_integer_codes():
    rs = codes.rs_code(tower(2, 4), k=4, n=16)
    block = np.arange(32).reshape(8, 4) % 16
    for dtype in (np.float64, bool, object):
        with pytest.raises(ValueError, match=rf"message codes have dtype {np.dtype(dtype)}, not an integer dtype"):
            codes.encode_many(rs, block.astype(dtype))
    for message in ([1.9, 0, 0, 0], [True, False, False, True], [2 ** 70, 0, 0, 0]):
        with pytest.raises(ValueError, match="not an integer dtype"):
            codes.encode(rs, message)
    expected = codes.encode_many(rs, block)
    assert np.array_equal(codes.encode_many(rs, block.astype(np.uint8)), expected)
    for message, pos in (([True, 0, 0, 5], 0), ([1, 0, np.bool_(False), 5], 2),
                         ([1, 0, 0, 5.0], 3), ([1, "2", 0, 5], 1)):
        bad = re.escape(repr(message[pos]))
        with pytest.raises(ValueError, match=rf"position {pos} holds {bad}, not an integer"):
            codes.encode(rs, message)
    f16 = rs.tower
    assert codes.encode(rs, [f16.element(int(c)) for c in block[3]]).symbols.tolist() == expected[3].tolist()
    assert codes.encode(rs, block[3].tolist()).symbols.tolist() == expected[3].tolist()
    assert np.array_equal(codes.encode_many(rs, block.tolist()), expected)
    assert codes.encode(rs, iter(block[3].tolist())).symbols.tolist() == expected[3].tolist()


def test_encode_many_owns_the_message_width():
    """Rows of another width than k are refused by encode_many, and encode
    (its one-row wrapper) reports the same condition."""
    rs = codes.rs_code(tower(2, 4), k=16, n=16)
    for width in (17, 15):
        with pytest.raises(ValueError, match=f"message rows have {width} symbols, expected k=16"):
            codes.encode_many(rs, np.zeros((3, width), dtype=np.int64))
        with pytest.raises(ValueError, match=f"message rows have {width} symbols, expected k=16"):
            codes.encode(rs, [0] * width)
    with pytest.raises(ValueError, match=r"message rows have shape \(16,\), expected k=16"):
        codes.encode_many(rs, np.zeros(16, dtype=np.int64))


def test_hermitian_code_monomial_rows():
    f4 = tower(2, 2)
    cv = codes.hermitian_curve(f4)
    hc = codes.hermitian_code(cv, s=5)
    assert hc.k == 5 and hc.n == 8 and hc.threshold == 6
    msg = [0, 1, 0, 0, 0]  # the monomial x
    assert codes.encode(hc, msg).symbols.tolist() == cv.points[:, 0].tolist()
    assert codes.encode(hc, [1, 0, 0, 0, 0]).symbols.tolist() == [1] * 8
    with pytest.raises(ValueError):
        codes.hermitian_code(cv, s=8)  # s must stay below n


def _reference_hermitian_rows(tw, points, monomials):
    """One pow_arr pair and one product per monomial."""
    a, b = points[:, 0], points[:, 1]
    rows = [tw.mul_arr(tw.pow_arr(a, i), tw.pow_arr(b, j)) for i, j in monomials]
    return np.array(rows, dtype=np.int64).reshape(len(monomials), len(points))


@pytest.mark.parametrize("p,t,r", [(2, 2, 2), (3, 2, 3), (2, 4, 4), (4, 2, 4), (8, 2, 8)])
def test_hermitian_rows_match_per_monomial_reference(p, t, r):
    cv = codes.hermitian_curve(tower(p, t))
    rng = np.random.default_rng(r)
    shuffled = codes.rr_basis(r, 3 * r + 2)
    rng.shuffle(shuffled)
    for mons in (codes.rr_basis(r, 0), codes.rr_basis(r, 2 * r), codes.rr_basis(r, r ** 3 - 1),
                 shuffled, [(5, 1), (0, 0), (5, 1), (2, r - 1)], []):
        for pts in (cv.points, cv.points[: r + 1]):
            got = codes._hermitian_rows(cv.tower, pts, mons)
            want = _reference_hermitian_rows(cv.tower, pts, mons)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)


def test_hermitian_sub_support():
    f9 = tower(3, 2)
    cv = codes.hermitian_curve(f9)
    hc = codes.hermitian_code(cv, s=9, n=20)
    assert hc.n == 20
    assert np.array_equal(hc.points, cv.points[:20])


def test_hermitian_code_refuses_lengths_outside_the_point_count():
    cv = codes.hermitian_curve(tower(2, 2))  # 8 affine points
    for n in (-1, 0, 9, 100):
        with pytest.raises(ValueError, match=rf"length n={n} must be in 1\.\.8, the curve's affine point count"):
            codes.hermitian_code(cv, s=0, n=n)
    assert codes.hermitian_code(cv, s=0, n=1).n == 1
    assert codes.hermitian_code(cv, s=3, n=8).n == 8


# ----------------------------------------------------------------------
# erasure decoding
# ----------------------------------------------------------------------


def test_decode_identity_on_full_codeword():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    cw = codes.encode(rs, [1, 3])
    assert codes.erasure_decode(rs, list(enumerate(cw.symbols))) == cw


def test_rs_two_point_recovery():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    cw = codes.encode(rs, [0, 2])
    for i in range(4):
        for j in range(i + 1, 4):
            got = codes.erasure_decode(rs, [(i, cw.symbols[i]), (j, cw.symbols[j])])
            assert got == cw


def test_hermitian_threshold_recovery_random():
    f4 = tower(2, 2)
    hc = codes.hermitian_code(codes.hermitian_curve(f4), s=5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        msg = rng.integers(0, 4, size=hc.k)
        cw = codes.encode(hc, msg)
        sub = rng.choice(hc.n, size=6, replace=False)
        got = codes.erasure_decode(hc, [(int(p), int(cw.symbols[p])) for p in sub])
        assert got == cw


def test_decode_error_types():
    f4 = tower(2, 2)
    hc = codes.hermitian_code(codes.hermitian_curve(f4), s=5)
    cw = codes.encode(hc, [1, 2, 3, 0, 1])
    with pytest.raises(codes.UnderdeterminedError):
        codes.erasure_decode(hc, [(i, cw.symbols[i]) for i in range(5)])
    bad = [(i, int(cw.symbols[i])) for i in range(7)]
    bad[0] = (0, int(cw.symbols[0]) ^ 1)
    with pytest.raises(codes.InconsistentError):
        codes.erasure_decode(hc, bad)
    with pytest.raises(ValueError):
        codes.erasure_decode(hc, [(0, 1), (0, 1), (1, 0), (2, 0), (3, 0), (4, 0)])


def test_decode_refuses_values_that_are_not_field_codes():
    rs = codes.rs_code(tower(2, 4), k=2, n=16)
    cw = codes.encode(rs, [3, 7])
    known = [(0, int(cw.symbols[0])), (5, int(cw.symbols[5]))]
    for bad, why in ((2.7, r"position 5 holds 2.7, not an integer"),
                     (True, r"position 5 holds True, not an integer"),
                     ("3", r"position 5 holds '3', not an integer"),
                     (-1, r"value row 0, position 5 holds -1, outside GF\(16\)"),
                     (16, r"value row 0, position 5 holds 16, outside GF\(16\)")):
        with pytest.raises(ValueError, match=why):
            codes.erasure_decode(rs, [known[0], (5, bad)])
    assert codes.erasure_decode(rs, [known[0], (5, np.uint8(cw.symbols[5]))]) == cw
    assert codes.erasure_decode(rs, [known[0], (5, rs.tower.element(int(cw.symbols[5])))]) == cw
    rows = codes.encode_many(rs, np.array([[3, 7], [1, 2]]))[:, [0, 5]]
    for dtype in (np.float64, bool, object):
        with pytest.raises(ValueError, match=rf"value codes have dtype {np.dtype(dtype)}, not an integer dtype"):
            codes.erasure_decode_many(rs, [0, 5], rows.astype(dtype))
    rows[1, 1] = 16
    with pytest.raises(ValueError, match=r"value row 1, position 5 holds 16, outside GF\(16\)"):
        codes.erasure_decode_many(rs, [0, 5], rows)


def test_decode_many_refuses_repeated_positions():
    """Eleven copies of one position on a threshold-11 code pin nothing
    down: the batched oracle refuses them instead of decoding a wrong
    codeword, and the scalar call reports the same."""
    hc = codes.hermitian_code(codes.hermitian_curve(tower(2, 4)), s=10)
    assert hc.threshold == 11
    cw = codes.encode(hc, np.arange(hc.k) % 16)
    positions = [5] * hc.threshold
    with pytest.raises(ValueError, match="duplicate positions"):
        codes.erasure_decode_many(hc, positions, cw.symbols[None, positions])
    with pytest.raises(ValueError, match="duplicate positions"):
        codes.erasure_decode(hc, [(5, cw[5])] * hc.threshold)
    spread = list(range(hc.threshold)) + [3]
    with pytest.raises(ValueError, match="duplicate positions"):
        codes.erasure_decode_many(hc, spread, cw.symbols[None, spread])


def test_decode_many_refuses_a_positions_block():
    """Positions are a flat sequence: a 2-D block of twelve distinct
    positions, or one bare position, is refused naming the positions and
    their shape, as a list and as an array."""
    hc = codes.hermitian_code(codes.hermitian_curve(tower(2, 4)), s=10)
    cw = codes.encode(hc, np.arange(hc.k) % 16)
    block = np.reshape(range(12), (2, 6))
    for positions in (block, block.tolist()):
        with pytest.raises(ValueError, match=re.escape(
                "positions must be a flat sequence, got shape (2, 6)")):
            codes.erasure_decode_many(hc, positions, cw.symbols[None, :12])
    with pytest.raises(ValueError, match=re.escape("positions must be a flat sequence, got shape ()")):
        codes.erasure_decode_many(hc, 5, cw.symbols[None, :1])
    flat = block.ravel()
    assert np.array_equal(codes.erasure_decode_many(hc, flat, cw.symbols[None, flat])[0], cw.symbols)


def test_decode_many_value_rows_are_as_wide_as_the_positions():
    hc = codes.hermitian_code(codes.hermitian_curve(tower(2, 4)), s=10)
    cws = codes.encode_many(hc, np.arange(2 * hc.k).reshape(2, hc.k) % 16)
    positions = list(range(12))
    for cols in (range(11), range(13)):
        with pytest.raises(ValueError, match=f"value rows have {len(cols)} symbols, expected 12, "
                                             "one per position"):
            codes.erasure_decode_many(hc, positions, cws[:, list(cols)])
    with pytest.raises(ValueError, match=r"value rows have shape \(12,\), expected 12"):
        codes.erasure_decode_many(hc, positions, cws[0, positions])
    assert np.array_equal(codes.erasure_decode_many(hc, positions, cws[:, positions]), cws)


def test_rs_points_must_be_field_codes():
    f4 = tower(2, 2)
    for points in ([0, 1, 2, 4], [-1, 0, 1, 2]):
        with pytest.raises(ValueError, match=r"evaluation points must be codes in \[0, 4\)"):
            codes.rs_code(f4, k=2, points=points)


def test_rs_length_must_match_the_points_given():
    f16 = tower(2, 4)
    for n in (10, 2, 16):
        with pytest.raises(ValueError, match=f"length n={n} disagrees with the 3 points given"):
            codes.rs_code(f16, 2, points=[0, 1, 2], n=n)
    with pytest.raises(ValueError, match="length n=True is not an integer"):
        codes.rs_code(f16, 2, points=[0, 1, 2], n=True)
    assert codes.rs_code(f16, 2, points=[0, 1, 2], n=3).n == 3
    assert codes.rs_code(f16, 2, points=np.array([5, 1, 2]), n=3).points.tolist() == [5, 1, 2]


def test_decode_many_matches_single():
    f16 = tower(2, 4)
    hc = codes.hermitian_code(codes.hermitian_curve(f16), s=12)
    rng = np.random.default_rng(2)
    msgs = rng.integers(0, 16, size=(8, hc.k))
    cws = codes.encode_many(hc, msgs)
    positions = sorted(rng.choice(hc.n, size=hc.threshold + 3, replace=False).tolist())
    block = codes.erasure_decode_many(hc, positions, cws[:, positions])
    assert np.array_equal(block, cws)
    one = codes.erasure_decode(hc, [(p, int(cws[3, p])) for p in positions])
    assert np.array_equal(one.symbols, block[3])


def test_encode_decode_round_trip_all_kinds():
    rng = np.random.default_rng(3)
    f16 = tower(2, 4)
    configs = [
        codes.rs_code(f16, k=7, n=16),
        codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=9),
    ]
    for code in configs:
        for _ in range(20):
            msg = rng.integers(0, code.tower.q, size=code.k)
            cw = codes.encode(code, msg)
            sel = rng.choice(code.n, size=code.threshold, replace=False)
            got = codes.erasure_decode(code, [(int(p), int(cw.symbols[p])) for p in sel])
            assert got == cw


# ----------------------------------------------------------------------
# vanishing functions
# ----------------------------------------------------------------------


def test_vanishing_line_frozen_r2():
    f4 = tower(2, 2)
    cv = codes.hermitian_curve(f4)
    h = codes.vanishing_line(cv, (1, 2))  # P = (1, g)
    assert h.alpha == 1 and h.gamma == 3  # h = y + x + (g+1)
    vals = h.values(cv.points)
    assert cv.points[np.nonzero(vals == 0)[0]].tolist() == [[1, 2]]
    with pytest.raises(ValueError):
        codes.vanishing_line(cv, (1, 0))  # not on the curve


@pytest.mark.parametrize("p,t", [(2, 2), (3, 2)])
def test_vanishing_line_divisor_property(p, t):
    tw = tower(p, t)
    cv = codes.hermitian_curve(tw)
    for idx, (a, b) in enumerate(cv.points.tolist()):
        h = codes.vanishing_line(cv, (a, b))
        vals = h.values(cv.points)
        assert list(np.nonzero(vals == 0)[0]) == [idx]
        # gamma lands in the right root set: gamma^r + gamma = -alpha^(r+1)
        lhs = tw.add(tw.pow(h.gamma, cv.r), h.gamma)
        assert lhs == tw.neg(tw.pow(h.alpha, cv.r + 1))


def test_vanishing_function_r2_is_the_line_through_x():
    f4 = tower(2, 2)
    hc = codes.hermitian_code(codes.hermitian_curve(f4), s=5)
    for i in range(hc.n):
        vals, extra = codes.vanishing_function(hc, i)
        assert vals[i] == 0
        assert len(extra) == 1  # the other point sharing the x-coordinate
        a_i = hc.points[i, 0]
        assert hc.points[extra[0], 0] == a_i


@pytest.mark.parametrize("p,t", [(2, 2), (2, 4), (2, 6), (3, 2), (5, 2), (7, 2), (9, 2)])
def test_vanishing_function_is_x_minus_a_i(p, t):
    """The search over pole orders <= genus + 1 always finds x - a_i: the
    monomials run 1, x, ... and the one constraint pivots on 1.  Its extra
    zeros are the other points of the code on the same x, r - 1 at full
    length; pinned on full-length and shortened codes as the reference for
    a closed form."""
    tw = tower(p, t)
    cv = codes.hermitian_curve(tw)
    rng = np.random.default_rng(p * t)
    for n in (None, cv.points.shape[0] // 2 + 3):
        hc = codes.hermitian_code(cv, s=2, n=n)
        x = hc.points[:, 0]
        for i in sorted(rng.choice(hc.n, size=min(hc.n, 8), replace=False).tolist()):
            vals, extra = codes.vanishing_function(hc, i)
            assert np.array_equal(vals, tw.sub_arr(x, x[i]))
            assert extra == [j for j in np.flatnonzero(x == x[i]).tolist() if j != i]
            if n is None:
                assert len(extra) == cv.r - 1 <= cv.genus


@pytest.mark.parametrize("p,t", [(2, 2), (3, 2)])
def test_vanishing_function_zero_budget(p, t):
    tw = tower(p, t)
    cv = codes.hermitian_curve(tw)
    hc = codes.hermitian_code(cv, s=2 * cv.genus)
    for i in range(hc.n):
        vals, extra = codes.vanishing_function(hc, i)
        assert vals[i] == 0 and np.any(vals)
        assert len(extra) <= cv.genus


# ----------------------------------------------------------------------
# dual vectors with prescribed support
# ----------------------------------------------------------------------


def test_all_ones_is_dual_for_full_hermitian_support():
    for p, t in [(2, 2), (3, 2)]:
        tw = tower(p, t)
        cv = codes.hermitian_curve(tw)
        hc = codes.hermitian_code(cv, s=cv.genus + 2)
        aug = codes.augmented_generator(hc, hc.n + 2 * hc.genus - 2 - hc.s)
        ones = np.ones(hc.n, dtype=np.int64)
        for row in aug:
            assert dot(tw, row, ones) == 0


@pytest.mark.parametrize("p,t", [(2, 2), (3, 2)])
def test_global_residue_identity_random_functions(p, t):
    tw = tower(p, t)
    cv = codes.hermitian_curve(tw)
    n, genus = cv.points.shape[0], cv.genus
    mons = codes.rr_basis(cv.r, n + 2 * genus - 2)
    rows = np.stack(
        [tw.mul_arr(tw.pow_arr(cv.points[:, 0], i), tw.pow_arr(cv.points[:, 1], j)) for i, j in mons]
    )
    rng = np.random.default_rng(9)
    for _ in range(200):
        coeffs = rng.integers(0, tw.q, size=len(mons))
        vals = linalg.matvec(tw, rows.T, coeffs)
        acc = 0
        for v in vals:
            acc = tw.add(acc, int(v))
        assert acc == 0


def test_rs_classical_dual_vector():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=3, n=4)  # one dimension below the length
    w = codes.dual_support_vector(rs, 0, 0, [1, 2, 3])
    assert w[0] == 1
    for row in rs.generator:
        assert dot(f4, row, w) == 0
    assert (w != 0).all()  # classical multiplier vector has full support


def test_dual_support_zero_pattern_and_orthogonality():
    f16 = tower(2, 4)
    cv = codes.hermitian_curve(f16)
    hc = codes.hermitian_code(cv, s=8)
    aug = codes.augmented_generator(hc, 5)
    helpers = list(range(20, 34))
    w = codes.dual_support_vector(hc, 5, 2, helpers)
    assert w[2] == 1
    outside = [j for j in range(hc.n) if j != 2 and j not in helpers]
    assert not w[outside].any()
    for row in aug:
        assert dot(f16, row, w) == 0


def test_dual_support_vector_refuses_bad_helpers():
    f16 = tower(2, 4)
    hc = codes.hermitian_code(codes.hermitian_curve(f16), s=8)
    for i, helpers, why in ((2, [-1] + list(range(20, 33)), r"helper -1 is outside \[0, 64\)"),
                            (2, list(range(20, 33)) + [67], r"helper 67 is outside \[0, 64\)"),
                            (2, [21] + list(range(20, 33)), "helper 21 appears more than once"),
                            (2, [2] + list(range(20, 33)), "helper 2 is the target"),
                            (64, list(range(20, 34)), r"target 64 is outside \[0, 64\)"),
                            (-1, list(range(20, 34)), r"target -1 is outside \[0, 64\)")):
        with pytest.raises(ValueError, match=why):
            codes.dual_support_vector(hc, 5, i, helpers)


def test_dual_support_error_when_impossible():
    f4 = tower(2, 2)
    rs_full = codes.rs_code(f4, k=4, n=4)  # dual code is trivial
    with pytest.raises(codes.DualVectorError):
        codes.dual_support_vector(rs_full, 0, 0, [1, 2, 3])


def _reference_densify(tw, w, basis):
    """The scalar densify loop: one tw.div per common-support position."""
    for pos in range(len(w)):
        if w[pos] != 0:
            continue
        vec = next((row for row in basis if row[pos] != 0), None)
        if vec is None:
            continue
        forbidden = {0}
        nz = np.nonzero(w)[0]
        for k in nz[vec[nz] != 0]:
            forbidden.add(tw.neg(tw.div(int(w[k]), int(vec[k]))))
        c = next((c for c in range(1, tw.q) if c not in forbidden), None)
        if c is None:
            continue
        w = tw.add_arr(w, tw.mul_arr(np.int64(c), vec))
    return w


def _raw_basis(aug, tw, i, helpers):
    """The columns helpers + {i}, the place of i among them, and the raw
    nullspace of the augmented generator restricted to them."""
    cols = sorted(list(helpers) + [i])
    return cols, cols.index(i), linalg.nullspace(tw, aug[:, cols])


def _spread(tw, w, pos_i, cols, n):
    """w scaled to 1 at pos_i, placed at cols of a length-n vector."""
    out = np.zeros(n, dtype=np.int64)
    out[cols] = tw.mul_arr(w, tw.inv(int(w[pos_i])))
    return out


def _reference_dual_support_vector(aug, tw, i, helpers):
    """The lightest row, first on a tie, of the raw nullspace of the
    restriction that is nonzero at i, scaled to w_i = 1."""
    cols, pos_i, basis = _raw_basis(aug, tw, i, helpers)
    reach = [row for row in basis if row[pos_i] != 0]
    w = min(reach, key=np.count_nonzero)  # min keeps the first of equals
    return _spread(tw, w, pos_i, cols, aug.shape[1])


def _greedy_dual_support_vector(aug, tw, i, helpers):
    """The earlier rule, kept as the bandwidth reference: the first basis
    row nonzero at i with its zeros filled by `_reference_densify`."""
    cols, pos_i, basis = _raw_basis(aug, tw, i, helpers)
    w = next(row for row in basis if row[pos_i] != 0).copy()
    return _spread(tw, _reference_densify(tw, w, basis), pos_i, cols, aug.shape[1])


@pytest.fixture(scope="module")
def flagship_s300():
    return codes.hermitian_code(codes.hermitian_curve(tower(8, 2)), s=300)


@pytest.mark.parametrize("seed,rho,d,weights", [(1, 63, 400, (326, 332, 356)),
                                                (2, 63, 400, (329, 329, 359)),
                                                (3, 203, 505, (460, 460, 480))],
                         ids=["line-1", "line-2", "weak"])
def test_dual_support_vector_matches_reference_on_flagship(flagship_s300, seed, rho, d, weights):
    """Flagship sub-helper shapes (s = 300; line rho = 7 * 9, weak
    rho = 7 * 29).  The nonzeros of the lightest row, the first row and
    the greedily filled first row are pinned: each rule is at least as
    light as the next."""
    code = flagship_s300
    tw = code.tower
    aug = codes.augmented_generator(code, rho)
    rng = np.random.default_rng(seed)
    i = int(rng.integers(code.n))
    helpers = sorted(rng.choice(np.delete(np.arange(code.n), i), size=d, replace=False).tolist())
    _, pos_i, basis = _raw_basis(aug, tw, i, helpers)
    first = basis[np.flatnonzero(basis[:, pos_i])[0]]
    got = codes.dual_support_vector(code, rho, i, helpers)
    assert np.array_equal(got, _reference_dual_support_vector(aug, tw, i, helpers))
    greedy = _greedy_dual_support_vector(aug, tw, i, helpers)
    assert (np.count_nonzero(got), np.count_nonzero(first), np.count_nonzero(greedy)) == weights


def _sub_helper_cases():
    """(code, extra pole, target, helpers): RS over GF(16) and GF(64), one
    of them shortened, and Hermitian over GF(9) with rho = 8, which is
    (p - 1)(r + 1) for the line and (p - 1)(genus + 1) for the weak path."""
    rng = np.random.default_rng(9)
    herm9 = codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=6)
    for code, rho, d in ((codes.rs_code(tower(2, 4), k=4, n=16), 3, 10),
                         (codes.rs_code(tower(8, 2), k=20, n=64), 7, 40),
                         (codes.rs_code(tower(8, 2), k=20, n=50), 7, 27),
                         (herm9, 8, 14), (herm9, 8, 18), (herm9, 8, 25)):
        i = int(rng.integers(code.n))
        helpers = sorted(rng.choice(np.delete(np.arange(code.n), i), size=d, replace=False).tolist())
        yield code, rho, i, helpers


@pytest.mark.parametrize("case", list(_sub_helper_cases()),
                         ids=lambda c: f"{c[0].kind}-q{c[0].tower.q}-n{c[0].n}-d{len(c[3])}")
def test_dual_support_vector_matches_reference_on_rs_and_gf9(case):
    """Sub-helper sets on RS and GF(9) codes, against the nullspace of the
    raw augmented generator's restriction."""
    code, rho, i, helpers = case
    tw = code.tower
    want = _reference_dual_support_vector(codes.augmented_generator(code, rho), tw, i, helpers)
    assert np.array_equal(codes.dual_support_vector(code, rho, i, helpers), want)


# GF(4), GF(9), GF(16) twice, GF(64) twice and GF(81) twice; every q is a
# square, so each tower carries a Hermitian curve
_DIFF_TOWERS = [(2, 2), (3, 2), (2, 4), (4, 2), (2, 6), (8, 2), (3, 4), (9, 2)]


@functools.lru_cache(maxsize=None)
def _diff_curve(p, t):
    return codes.hermitian_curve(tower(p, t))


@functools.lru_cache(maxsize=None)
def _diff_code(kind, p, t, s, n):
    """One code object per shape, so its cached reduced generator is reused."""
    if kind == "rs":
        return codes.rs_code(tower(p, t), s + 1, n=n)
    return codes.hermitian_code(_diff_curve(p, t), s, n)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_dual_support_vector_is_the_lightest_basis_row(data):
    """Sub-helper sets on RS and (shortened) Hermitian codes, pole degree
    s + extra pole below d so a dual vector exists: the vector is
    orthogonal to the augmented generator, 1 at the target and zero off
    S + {i}; no basis row nonzero at i is lighter, and the greedily filled
    first row is never lighter."""
    kind = data.draw(st.sampled_from(["rs", "hermitian"]), label="kind")
    p, t = data.draw(st.sampled_from(_DIFF_TOWERS), label="tower")
    most = p ** t if kind == "rs" else min(_diff_curve(p, t).points.shape[0], 120)
    n = data.draw(st.integers(3, most), label="n")
    target = data.draw(st.integers(0, n - 1), label="target")
    d = data.draw(st.integers(2, n - 1), label="d")
    pole = data.draw(st.integers(0, d - 1), label="s + extra pole")
    s = data.draw(st.integers(0, pole), label="s")
    code = _diff_code(kind, p, t, s, n)
    others = [j for j in range(n) if j != target]
    helpers = sorted(data.draw(st.permutations(others), label="order")[:d])
    tw, aug = code.tower, codes.augmented_generator(code, pole - s)

    w = codes.dual_support_vector(code, pole - s, target, helpers)
    assert not linalg.matvec(tw, aug, w).any()
    assert w[target] == 1
    assert set(np.flatnonzero(w).tolist()) <= set(helpers) | {target}
    assert np.array_equal(w, _reference_dual_support_vector(aug, tw, target, helpers))
    _, pos_i, basis = _raw_basis(aug, tw, target, helpers)
    reach = basis[basis[:, pos_i] != 0]
    assert np.count_nonzero(w) == np.count_nonzero(reach, axis=1).min()
    greedy = _greedy_dual_support_vector(aug, tw, target, helpers)
    assert np.count_nonzero(w) <= np.count_nonzero(greedy)
