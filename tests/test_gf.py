import hashlib
import itertools
import re

import numpy as np
import pytest

from agrepair.gf import FieldTower, LinearizedMap, prime_power, tower, trace_reconstruct
from agrepair.linalg import rank_over_base, solve

SMALL_TOWERS = [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (4, 2), (8, 2), (2, 6)]


def brute_mul_table(p, t, modulus):
    """Independent GF(p^t) multiplication oracle: schoolbook polynomial
    arithmetic over GF(p) with explicit reduction (prime p only)."""
    q = p ** t

    def digs(c):
        return [(c // p ** i) % p for i in range(t)]

    def mul(a, b):
        da, db = digs(a), digs(b)
        prod = [0] * (2 * t - 1)
        for i in range(t):
            for j in range(t):
                prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
        for i in range(2 * t - 2, t - 1, -1):
            c = prod[i]
            if c:
                for k in range(t + 1):
                    prod[i - t + k] = (prod[i - t + k] - c * modulus[k]) % p
        return sum(prod[i] * p ** i for i in range(t))

    return [[mul(a, b) for b in range(q)] for a in range(q)]


@pytest.mark.parametrize("p,t", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2), (3, 3), (2, 5)])
def test_products_match_brute_force_table(p, t):
    tw = tower(p, t)
    table = brute_mul_table(p, t, tw.modulus)
    assert [[tw.mul(a, b) for b in range(tw.q)] for a in range(tw.q)] == table
    assert np.array_equal(tw.mul_outer(np.arange(tw.q), np.arange(tw.q)), table)


# (p, t, modulus, generator, the first 16 hex digits of the sha256 of
# _exp[:q - 1] as little-endian int64), computed with the scalar polynomial
# arithmetic that built the tables before they were built from arrays
CONSTRUCTION_PINS = [
    (2, 1, (0, 1), 1, "7c9fa136d4413fa6"),
    (3, 1, (0, 1), 2, "0c730b69905c5ef7"),
    (5, 1, (0, 1), 2, "92ebfe56a187e071"),
    (2053, 1, (0, 1), 2, "2c6e5769c20d5810"),
    (65521, 1, (0, 1), 17, "c041072e60fec759"),
    (4, 2, (2, 1, 1), 4, "7b810ea0982ceb03"),
    (8, 2, (1, 1, 1), 10, "e806996018ce7061"),
    (9, 2, (4, 0, 1), 10, "e9e2b86f606f6554"),
    (16, 2, (8, 1, 1), 18, "2dc7874864fdf341"),
    (27, 2, (1, 0, 1), 30, "ea20134a05103401"),
    (256, 2, (32, 1, 1), 264, "5e4e4aba60c98bbe"),
    (4, 3, (2, 0, 0, 1), 5, "2d3234f165d3d25c"),
    (2, 2, (1, 1, 1), 2, "e2e2033ae7e19d68"),
    (2, 5, (1, 0, 1, 0, 0, 1), 2, "baa8a706cb55e34d"),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1), 3, "11266a21c8268fe0"),
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2, "dfbf36bc9c4dc771"),
    (2, 16, (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,), 3, "a9c0b9735a82fc72"),
    (3, 2, (1, 0, 1), 4, "107beef16789fe21"),
    (3, 4, (2, 1, 0, 0, 1), 3, "6d1eb4f77b46bca3"),
    (3, 5, (1, 2, 0, 0, 0, 1), 3, "e9772cc891777b15"),
    (3, 10, (1, 0, 2) + (0,) * 7 + (1,), 34, "05e6eecc9abe2e8f"),
    (5, 3, (1, 1, 0, 1), 9, "3cd23adf3501f4d1"),
    (7, 2, (1, 0, 1), 9, "bfbb44080945d046"),
    (43, 2, (1, 0, 1), 45, "2ae5bcf01f1a6b08"),
]


@pytest.mark.parametrize("p,t,modulus,generator,exp_digest", CONSTRUCTION_PINS,
                         ids=[f"{p}^{t}" for p, t, *_ in CONSTRUCTION_PINS])
def test_construction_is_pinned(p, t, modulus, generator, exp_digest):
    """The modulus, generator and exp table fix every code, scheme and
    state file: t = 1, prime-power bases, characteristic 2 up to t = 16
    and odd characteristic."""
    tw = tower(p, t)
    assert tw.modulus == modulus and tw.generator == generator
    digest = hashlib.sha256(tw._exp[:tw.q - 1].astype("<i8").tobytes()).hexdigest()
    assert digest[:16] == exp_digest


def _schoolbook_product(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _monic(p, degree):
    """Every monic polynomial of the degree over GF(p), coefficients least
    significant first, in the order of the code of the lower ones."""
    return [tuple((lower // p ** i) % p for i in range(degree)) + (1,)
            for lower in range(p ** degree)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_modulus_is_the_least_irreducible(p):
    """An irreducibility oracle independent of roots: a monic polynomial
    is reducible exactly when it is a product of two monic ones of lower
    degree."""
    for t in range(1, 5):
        reducible = {_schoolbook_product(a, b, p)
                     for d in range(1, t) for a in _monic(p, d) for b in _monic(p, t - d)}
        least = next(f for f in _monic(p, t) if f not in reducible)
        assert tower(p, t).modulus == least, (p, t)


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_inverse_axiom(p, t):
    tw = tower(p, t)
    for a in range(1, tw.q):
        assert tw.mul(a, tw.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        tw.inv(0)


def test_frobenius_is_pth_power():
    f4 = tower(2, 2)
    assert f4.frob(2) == 3  # g^2 = g + 1
    f64 = tower(8, 2)
    for a in range(64):
        assert f64.frob(a) == f64.pow(a, 8)


def test_mismatched_towers_rejected():
    a = tower(2, 2).element(1)
    b = tower(2, 3).element(1)
    with pytest.raises(ValueError):
        a + b


def test_list_operand_is_a_digit_vector():
    tw = tower(4, 2)
    total = tw.element(1) + [1, 2]
    assert type(total.code) is int
    assert total == tw.element(1) + tw.element(tw.from_digits([1, 2]))


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_field_axioms_random(p, t):
    tw = tower(p, t)
    rng = np.random.default_rng(p * 100 + t)
    for _ in range(50):
        a, b, c = (int(x) for x in rng.integers(0, tw.q, size=3))
        assert tw.mul(a, tw.add(b, c)) == tw.add(tw.mul(a, b), tw.mul(a, c))
        assert tw.add(a, tw.neg(a)) == 0
        assert tw.sub(a, b) == tw.add(a, tw.neg(b))


def test_digits_round_trip_and_serial_order():
    f64 = tower(8, 2)
    assert f64.digits(34) == (2, 4)  # 34 = 2 + 4*8, least-significant first
    for c in range(64):
        assert f64.from_digits(f64.digits(c)) == c
    with pytest.raises(ValueError):
        f64.from_digits((8, 0))
    with pytest.raises(ValueError):
        f64.from_digits((0,))


@pytest.mark.parametrize("p,t", [(2, 4), (4, 2), (8, 2), (3, 2), (9, 2), (3, 7)])
def test_digit_arrays_match_scalar_digits(p, t):
    tw = tower(p, t)
    rng = np.random.default_rng(p * 10 + t)
    for vals in (np.zeros(0, dtype=np.int64), np.arange(tw.q),
                 rng.integers(0, tw.q, size=(50, 2), dtype=np.int64)):
        dig = tw.digits_arr(vals)
        assert dig.shape == vals.shape + (t,)
        flat = dig.reshape(-1, t).tolist()
        assert [tuple(d) for d in flat] == [tw.digits(int(v)) for v in vals.ravel()]
        back = tw.from_digits_arr(dig)
        assert back.shape == vals.shape and np.array_equal(back, vals)
        assert back.ravel().tolist() == [tw.from_digits(d) for d in flat]
    dig = tw.digits_arr(rng.integers(0, tw.q, size=(3, 2), dtype=np.int64))
    for bad in (p, -1):
        dig[1, 0, t - 1] = bad
        vec = dig[1, 0].tolist()
        with pytest.raises(ValueError, match=re.escape(f"invalid digit vector {vec} for GF({tw.q})")):
            tw.from_digits_arr(dig)
        with pytest.raises(ValueError, match=re.escape(f"digits must lie in [0, {p})")):
            tw.from_digits(vec)
    with pytest.raises(ValueError, match=f"expected {t} digits, got {t + 1}"):
        tw.from_digits_arr(np.zeros((2, t + 1), dtype=np.int64))


def test_modulus_determinism_and_validation():
    assert tower(2, 2).modulus == (1, 1, 1)
    assert tower(2, 3).modulus == (1, 1, 0, 1)
    assert tower(2, 4).modulus == (1, 1, 0, 0, 1)
    assert tower(3, 2).modulus == (1, 0, 1)
    assert tower(8, 2).modulus == (1, 1, 1)
    with pytest.raises(ValueError):
        FieldTower(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        FieldTower(2, 17)  # beyond the size cap


def _reference_prime_power(n):
    """The trial-division loop `prime_power` replaced: the least divisor
    p0 of n, then whether n is a power of it."""
    if n < 2:
        return None
    p0 = 2
    while p0 * p0 <= n:
        if n % p0 == 0:
            e = 0
            m = n
            while m % p0 == 0:
                m //= p0
                e += 1
            return (p0, e) if m == 1 else None
        p0 += 1
    return (n, 1)


@pytest.mark.parametrize("low", range(-500, 3000, 500))
def test_prime_power_matches_trial_division(low):
    """Below 2, primes, prime powers and composites, in blocks of 500."""
    for n in range(low, low + 500):
        assert prime_power(n) == _reference_prime_power(n), n


def test_nested_subfield_is_initial_segment():
    f8 = tower(2, 3)
    f64 = tower(8, 2)
    for a in range(8):
        for b in range(8):
            assert f64.mul(a, b) == f8.mul(a, b)
            assert f64.add(a, b) == f8.add(a, b)
    fixed = [a for a in range(64) if f64.frob(a) == a]
    assert fixed == list(range(8))


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_trace_against_frobenius_sum(p, t):
    tw = tower(p, t)
    for a in range(tw.q):
        acc = 0
        for i in range(t):
            acc = tw.add(acc, tw.pow(a, p ** i))
        assert tw.trace(a) == acc
        assert tw.trace(a) < p
        assert tw.trace_arr(np.array([a]))[0] == acc


def test_trace_basics():
    f4 = tower(2, 2)
    assert f4.trace(0) == 0
    assert f4.trace(2) == 1  # Tr(g) = g + g^2 = 1
    # linearity over the base subfield
    f64 = tower(8, 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        lam = int(rng.integers(8))
        a, b = (int(x) for x in rng.integers(0, 64, size=2))
        lhs = f64.trace(f64.add(f64.mul(lam, a), b))
        rhs = f64.add(f64.mul(lam, f64.trace(a)), f64.trace(b))
        assert lhs == rhs


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_trace_kernel_size(p, t):
    tw = tower(p, t)
    zeros = sum(1 for a in range(tw.q) if tw.trace(a) == 0)
    assert zeros == p ** (t - 1)  # trace is onto, fibers are equal


# ----------------------------------------------------------------------
# dual bases
# ----------------------------------------------------------------------


def test_gf4_dual_basis_brute_force():
    f4 = tower(2, 2)
    primal = (1, 2)
    # oracle: search every candidate pair for the duality identity
    matches = [
        (t1, t2)
        for t1 in range(4)
        for t2 in range(4)
        if f4.trace(f4.mul(primal[0], t1)) == 1
        and f4.trace(f4.mul(primal[0], t2)) == 0
        and f4.trace(f4.mul(primal[1], t1)) == 0
        and f4.trace(f4.mul(primal[1], t2)) == 1
    ]
    assert matches == [(3, 1)]
    assert f4.dual_basis(primal) == (3, 1)


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_dual_basis_identity_and_biduality(p, t):
    tw = tower(p, t)
    dual = tw.theta
    for i, zi in enumerate(tw.zeta):
        for j, tj in enumerate(dual):
            assert tw.trace(tw.mul(zi, tj)) == (1 if i == j else 0)
    assert tw.dual_basis(dual) == tw.zeta


def _reference_dual_basis(tw, primal):
    """The scalar loops `dual_basis` ran before `linalg.matvec`: the Gram
    matrix entry by entry, each dual element added up term by term."""
    t = tw.t
    gram = [[tw.trace(tw.mul(zi, zj)) for zj in primal] for zi in primal]
    inv = solve(tw, gram, np.eye(t, dtype=np.int64))
    dual = []
    for j in range(t):
        acc = 0
        for k in range(t):
            acc = tw.add(acc, tw.mul(int(inv[k][j]), primal[k]))
        dual.append(acc)
    return tuple(dual)


def _independent_sets(tw, size, count, seed):
    """`count` random sets of `size` codes independent over GF(p)."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        cand = [int(x) for x in rng.integers(1, tw.q, size=size)]
        if rank_over_base(tw, cand) == size:
            found.append(cand)
    return found


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_dual_basis_matches_scalar_loops(p, t):
    tw = tower(p, t)
    for primal in [list(tw.zeta)] + _independent_sets(tw, t, 10, p * t):
        dual = tw.dual_basis(primal)
        assert dual == _reference_dual_basis(tw, primal)
        assert all(type(x) is int for x in dual)


def test_dual_basis_rejects_dependent_input():
    f4 = tower(2, 2)
    with pytest.raises(ValueError):
        f4.dual_basis((1, 1))
    with pytest.raises(ValueError):
        f4.dual_basis((1,))


@pytest.mark.parametrize("p,t,primal", [(3, 2, (1, 2)), (2, 3, (1, 2, 3)), (4, 2, (3, 2))])
def test_dual_basis_dependent_input_message(p, t, primal):
    """Dependent primal sets give a singular Gram matrix: linalg.solve finds
    no inverse and dual_basis names the condition."""
    with pytest.raises(ValueError, match="linearly dependent"):
        tower(p, t).dual_basis(primal)


def test_self_dual_iff_gram_identity():
    tw = tower(2, 4)
    rng = np.random.default_rng(4)
    for _ in range(20):
        cand = [int(x) for x in rng.integers(1, 16, size=4)]
        if rank_over_base(tw, cand) != 4:
            continue
        gram_is_id = all(
            tw.trace(tw.mul(a, b)) == (1 if i == j else 0)
            for i, a in enumerate(cand)
            for j, b in enumerate(cand)
        )
        assert (tw.dual_basis(cand) == tuple(cand)) == gram_is_id


# ----------------------------------------------------------------------
# trace representation
# ----------------------------------------------------------------------


def test_trace_reconstruct_frozen_example():
    f4 = tower(2, 2)
    assert trace_reconstruct([0, 0], f4).code == 0
    # alpha = g: traces (Tr(g), Tr(g^2)) = (1, 1); 1*(g+1) + 1*1 = g
    assert trace_reconstruct([1, 1], f4).code == 2
    with pytest.raises(ValueError):
        trace_reconstruct([1], f4)
    with pytest.raises(ValueError):
        trace_reconstruct([2, 0], f4)  # value outside the base subfield


def test_trace_reconstruct_refuses_nested_values():
    """The t trace values are a flat sequence: a (t, 1) block, as lists,
    as length-1 arrays or as one array, is refused by its shape."""
    f4 = tower(2, 2)
    flat = "trace values must be a flat sequence, got shape (2, 1)"
    for traces in ([[1], [0]], [np.array([1]), np.array([0])], np.array([[1], [0]])):
        with pytest.raises(ValueError, match=re.escape(flat)):
            trace_reconstruct(traces, f4)


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_trace_representation_round_trip(p, t):
    """Every element, from its traces given as a list of ints and as an
    int64 array; the code comes back as an int."""
    tw = tower(p, t)
    for a in range(tw.q):
        traces = [tw.trace(tw.mul(a, z)) for z in tw.zeta]
        assert trace_reconstruct(traces, tw).code == a
        got = trace_reconstruct(np.array(traces, dtype=np.int64), tw).code
        assert got == a and type(got) is int


# ----------------------------------------------------------------------
# linearized maps
# ----------------------------------------------------------------------


def test_linearized_identity_for_trivial_subspace():
    f4 = tower(2, 2)
    lin = LinearizedMap(f4, [])
    assert lin.c == 1
    assert all(lin(x) == x for x in range(4))


def test_linearized_gf4_frozen():
    f4 = tower(2, 2)
    lin = LinearizedMap(f4, [1])  # V = GF(2): L(x) = x^2 + x
    assert lin(2) == 1
    assert lin.image() == [0, 1]
    assert lin.image_dim == 1


def test_linearized_normaliser_not_one():
    f8 = tower(2, 3)
    lin = LinearizedMap(f8, [1, 2])
    assert lin.c == 6
    assert lin.quotient(0) == lin.c


@pytest.mark.parametrize("p,t", [(2, 2), (2, 3), (2, 4), (3, 2), (2, 6), (4, 2)])
def test_linearized_kernel_image_dims(p, t):
    tw = tower(p, t)
    for l in range(0, min(t, 3) + 1):
        lin = LinearizedMap(tw, tw.theta[:l])
        kernel = [x for x in range(tw.q) if lin(x) == 0]
        assert tuple(kernel) == lin.kernel
        assert len(kernel) == p ** l
        assert len(lin.image()) == p ** (t - l)
        assert lin.image_dim + lin.l == t


def _reference_kernel(tw, v_basis):
    """The scalar loops `LinearizedMap` ran before `linalg.matvec`: every
    GF(p)-combination of v_basis, added up term by term."""
    kernel = []
    for coeffs in itertools.product(range(tw.p), repeat=len(v_basis)):
        acc = 0
        for c, v in zip(coeffs, v_basis):
            acc = tw.add(acc, tw.mul(c, v))
        kernel.append(acc)
    return tuple(sorted(kernel))


@pytest.mark.parametrize("p,t", SMALL_TOWERS)
def test_linearized_kernel_matches_scalar_loops(p, t):
    """Every l from 0 to t, on the dual basis and on random independent
    sets; the kernel holds Python ints."""
    tw = tower(p, t)
    for l in range(t + 1):
        for basis in [list(tw.theta[:l])] + _independent_sets(tw, l, 3, 10 * l + p):
            kernel = LinearizedMap(tw, basis).kernel
            assert kernel == _reference_kernel(tw, basis)
            assert all(type(v) is int for v in kernel)


@pytest.mark.parametrize("p,t", SMALL_TOWERS + [(3, 3)])
def test_linearized_scalar_calls_match_scalar_products(p, t):
    """c, quotient and the map itself against the products of -v and of
    (x - v) over the nonzero kernel elements, one scalar op at a time."""
    tw = tower(p, t)
    for l in range(t + 1):
        lin = LinearizedMap(tw, tw.theta[:l])
        c = 1
        for v in lin.kernel[1:]:  # sorted, so the zero code comes first
            c = tw.mul(c, tw.neg(v))
        assert lin.c == c and type(lin.c) is int
        for x in range(tw.q):
            want = 1
            for v in lin.kernel[1:]:
                want = tw.mul(want, tw.sub(x, v))
            assert lin.quotient(x) == want and type(lin.quotient(x)) is int
            assert lin(x) == tw.mul(x, want) and type(lin(x)) is int


def test_linearized_is_subfield_linear():
    tw = tower(8, 2)
    lin = LinearizedMap(tw, [tw.theta[0]])
    rng = np.random.default_rng(8)
    for _ in range(50):
        a, b = (int(x) for x in rng.integers(0, 8, size=2))  # base-subfield scalars
        x, y = (int(v) for v in rng.integers(0, 64, size=2))
        lhs = lin(tw.add(tw.mul(a, x), tw.mul(b, y)))
        rhs = tw.add(tw.mul(a, lin(x)), tw.mul(b, lin(y)))
        assert lhs == rhs


def test_linearized_rejects_dependent_basis():
    f4 = tower(2, 2)
    with pytest.raises(ValueError):
        LinearizedMap(f4, [1, 1])
    with pytest.raises(ValueError):
        LinearizedMap(f4, [0])


def test_span_dimension_scale_invariance():
    tw = tower(2, 4)
    rng = np.random.default_rng(12)
    for _ in range(20):
        vecs = [int(x) for x in rng.integers(0, 16, size=3)]
        lam = int(rng.integers(1, 16))
        scaled = [tw.mul(lam, v) for v in vecs]
        assert rank_over_base(tw, vecs) == rank_over_base(tw, scaled)


def test_field_element_operator_surface():
    f16 = tower(2, 4)
    a, b = f16.element(7), f16.element(9)
    assert (a + b).code == f16.add(7, 9)
    assert (a - b).code == f16.sub(7, 9)
    assert (a * b).code == f16.mul(7, 9)
    assert (a / b).code == f16.div(7, 9)
    assert (-a).code == f16.neg(7)
    assert (a ** 3).code == f16.pow(7, 3)
    assert a.inverse().code == f16.inv(7)
    assert a.frobenius().code == f16.frob(7)
    assert a.trace() == f16.trace(7)
    assert a.digits == f16.digits(7)
    assert bool(a) and not bool(f16.zero)
    assert (a * a.inverse()).code == 1
    with pytest.raises(ZeroDivisionError):
        a / f16.zero
    # ints coerce as codes
    assert (a + 1).code == f16.add(7, 1)
    with pytest.raises(ValueError):
        f16.element(16)


def test_pow_conventions():
    f9 = tower(3, 2)
    assert f9.pow(0, 0) == 1  # empty product, needed for monomial rows
    assert f9.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f9.pow(0, -1)
    for a in range(1, 9):
        assert f9.mul(f9.pow(a, -1), a) == 1
        assert f9.pow(a, 8) == 1


def _reference_pow(tw, a, k):
    """The list lookup scalar `pow` ran before it wrapped `pow_arr`."""
    if a == 0:
        if k == 0:
            return 1
        if k < 0:
            raise ZeroDivisionError("negative power of zero")
        return 0
    return tw._exp_list[(tw._log_list[a] * k) % tw._order]


@pytest.mark.parametrize("p,t", [(2, 4), (3, 2), (2, 9)])
def test_pow_arr_matches_pow(p, t):
    """pow_arr agrees with the list lookup on every code and exponent, and
    refuses a negative power of zero as it does, also when zero is one
    entry of many; a block without zeros takes any exponent.  The scalar
    pow that wraps it is checked on every code at the exponents around 0,
    p and the multiplicative order."""
    tw = tower(p, t)
    codes = np.arange(tw.q)
    scalar_ks = {-3, -1, 0, 1, 2, p, tw.q - 2, tw.q - 1, tw.q, 2 * tw.q - 1}
    for k in range(-3, 2 * tw.q):
        nonzero = k < 0
        if nonzero:
            with pytest.raises(ZeroDivisionError, match="negative power of zero"):
                tw.pow_arr(codes, k)
            with pytest.raises(ZeroDivisionError, match="negative power of zero"):
                tw.pow_arr(0, k)
            with pytest.raises(ZeroDivisionError, match="negative power of zero"):
                tw.pow(0, k)
        want = [_reference_pow(tw, a, k) for a in range(int(nonzero), tw.q)]
        assert tw.pow_arr(codes[int(nonzero):], k).tolist() == want
        if k in scalar_ks:
            assert [tw.pow(a, k) for a in range(int(nonzero), tw.q)] == want


@pytest.mark.parametrize("p,t", [(2, 10), (3, 6)])
def test_trace_round_trip_randomized_large_fields(p, t):
    tw = tower(p, t)
    rng = np.random.default_rng(p * t)
    for a in rng.integers(0, tw.q, size=200):
        a = int(a)
        traces = [tw.trace(tw.mul(a, z)) for z in tw.zeta]
        assert trace_reconstruct(traces, tw).code == a


def _reference_add(tw, a, b):
    """a + b digit by digit in base p0, the prime field under the tower: the
    sum `gf` computed in odd characteristic before Zech logarithms."""
    p0, e = prime_power(tw.q)
    pows = p0 ** np.arange(e, dtype=np.int64)
    da = (np.asarray(a)[..., None] // pows) % p0
    db = (np.asarray(b)[..., None] // pows) % p0
    return (((da + db) % p0) * pows).sum(axis=-1)


@pytest.mark.parametrize("p,t", [(3, 2), (9, 2), (3, 4), (5, 2), (27, 2), (3, 6),
                                 (3, 7), (3, 8), (9, 4), (5, 5), (2053, 1)])
def test_sums_and_negation_match_prime_digit_arithmetic(p, t):
    """Every pair up to q = 729 (the add table, which the Zech kernel fills);
    above it, sampled pairs with a = 0, b = 0 and b = -a forced (the Zech
    kernel itself).  Negation is checked as the reference's inverse and
    subtraction as undoing the sum; a prime field against integers mod p."""
    tw = tower(p, t)
    q, p0 = tw.q, tw.char
    rng = np.random.default_rng(q)
    if q <= 729:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        a, b = rng.integers(0, q, size=(2, 20000))
        a[:100] = b[100:200] = 0
        minus = a[200:300]  # -a = (p0 - 1) * a, summed by the reference
        for _ in range(p0 - 2):
            minus = _reference_add(tw, minus, a[200:300])
        b[200:300] = minus
    total = tw.add_arr(a, b)
    assert np.array_equal(total, _reference_add(tw, a, b))
    neg = tw.neg_arr(np.arange(q))
    assert not _reference_add(tw, np.arange(q), neg).any()
    assert np.array_equal(tw.sub_arr(total, b), a)
    if t == 1:
        assert np.array_equal(total, (a + b) % p) and np.array_equal(tw.neg_arr(a), (-a) % p)
    for i in np.r_[0:min(300, len(a)), rng.integers(0, len(a), 300)]:
        x, y = int(a[i]), int(b[i])
        assert tw.add(x, y) == total[i] and tw.sub(int(total[i]), y) == x
        assert tw.neg(x) == neg[x]
