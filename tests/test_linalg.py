import numpy as np
import pytest

from agrepair import linalg
from agrepair.gf import LinearizedMap, tower


def scalar_rank(tw, mat):
    """Independent elimination oracle using only scalar field ops."""
    rows = [list(int(v) for v in r) for r in np.asarray(mat)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = tw.inv(rows[rank][col])
        rows[rank] = [tw.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [tw.sub(v, tw.mul(f, w)) for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_identity_has_empty_nullspace():
    f4 = tower(2, 2)
    assert linalg.nullspace(f4, np.eye(4, dtype=np.int64)).shape[0] == 0


def test_gf2_parity_nullspace():
    f2 = tower(2, 1)
    assert linalg.nullspace(f2, [[1, 1]]).tolist() == [[1, 1]]


@pytest.mark.parametrize("p,t", [(2, 2), (3, 2), (2, 4), (8, 2)])
def test_rank_nullity_random(p, t):
    tw = tower(p, t)
    rng = np.random.default_rng(p + t)
    for _ in range(15):
        m = rng.integers(0, tw.q, size=(5, 8))
        r = linalg.rank(tw, m)
        assert r == scalar_rank(tw, m)
        ns = linalg.nullspace(tw, m)
        assert ns.shape[0] == 8 - r
        for v in ns:
            assert not linalg.matvec(tw, m, v).any()
        assert linalg.rank(tw, ns) == ns.shape[0] if ns.size else True


def test_row_permutation_invariance():
    tw = tower(2, 4)
    rng = np.random.default_rng(3)
    m = rng.integers(0, 16, size=(6, 9))
    perm = rng.permutation(6)
    assert linalg.rank(tw, m) == linalg.rank(tw, m[perm])
    # permuted nullspaces span the same space: cross membership via rank
    n1 = linalg.nullspace(tw, m)
    n2 = linalg.nullspace(tw, m[perm])
    stacked = np.vstack([n1, n2])
    assert linalg.rank(tw, stacked) == n1.shape[0] == n2.shape[0]


def test_solve_consistent_and_inconsistent():
    tw = tower(2, 2)
    rng = np.random.default_rng(5)
    m = rng.integers(0, 4, size=(6, 4))
    x0 = rng.integers(0, 4, size=4)
    b = linalg.matvec(tw, m, x0)
    x = linalg.solve(tw, m, b)
    assert x is not None
    assert np.array_equal(linalg.matvec(tw, m, x), b)
    # overdetermined random rhs is almost surely inconsistent; build one
    bad = b.copy()
    bad[0] = tw.add(int(bad[0]), 1)
    bad[1] = tw.add(int(bad[1]), 1)
    if linalg.rank(tw, m) == 4:
        assert linalg.solve(tw, m, bad) is None or np.array_equal(
            linalg.matvec(tw, m, linalg.solve(tw, m, bad)), bad
        )


def test_solve_multi_rhs_matches_single():
    tw = tower(3, 2)
    rng = np.random.default_rng(6)
    m = rng.integers(0, 9, size=(5, 3))
    xs = rng.integers(0, 9, size=(3, 4))
    b = linalg.matmul(tw, m, xs)
    sol = linalg.solve(tw, m, b)
    assert sol is not None
    assert np.array_equal(linalg.matmul(tw, m, sol), b)
    for col in range(4):
        single = linalg.solve(tw, m, b[:, col])
        assert np.array_equal(single, sol[:, col])


def test_matmul_refuses_a_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        linalg.matmul(tower(2, 2), [[1, 2, 3]], [[1], [2]])


def test_rank_over_base_cases():
    f4 = tower(2, 2)
    assert linalg.rank_over_base(f4, [0, 0]) == 0
    assert linalg.rank_over_base(f4, [1, 2]) == 2
    assert linalg.rank_over_base(f4, [1, 1]) == 1
    assert linalg.rank_over_base(f4, []) == 0


@pytest.mark.parametrize("p,t,l", [(2, 4, 1), (2, 4, 2), (3, 2, 1), (8, 2, 1)])
def test_rank_over_base_linearized_image(p, t, l):
    """dim span { L(zeta_u) } equals t - l; oracle = image enumeration."""
    tw = tower(p, t)
    lin = LinearizedMap(tw, tw.theta[:l])
    vals = [lin(z) for z in tw.zeta]
    assert linalg.rank_over_base(tw, vals) == t - l
    assert len(lin.image()) == p ** (t - l)
