"""Acceptance suite: one test per headline behavior the package must reproduce.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every assertion is exact (integer symbol counts, exact field
equality) unless a tolerance is stated inline.
"""

import collections
import math
from fractions import Fraction

import numpy as np
import pytest

from agrepair import bounds, codes, linalg, repair
from agrepair.gf import LinearizedMap, prime_power, tower, trace_reconstruct


def report(name):
    print(f"\n[acceptance] {name}: PASS")


# ----------------------------------------------------------------------
# 1. Hermitian flagship configuration: r=8, q=64, n=512, k=448, p=8, l=1
# ----------------------------------------------------------------------


def test_criterion_1_hermitian_flagship():
    tw = tower(8, 2)
    curve = codes.hermitian_curve(tw)
    code = codes.hermitian_code(curve, s=475)
    assert code.n == 512 and code.k == 448 and code.genus == 28
    assert Fraction(code.k, code.n) == Fraction(7, 8)

    rng = np.random.default_rng(2024)
    msg = rng.integers(0, 64, size=code.k)
    cw = codes.encode(code, msg)
    targets = rng.choice(code.n, size=20, replace=False)
    for i in targets:
        scheme = repair.build_scheme(code, int(i), l=1)
        value, transcript = repair.run_repair(scheme, cw.symbols)
        assert value.code == int(cw.symbols[i])          # exact field equality
        assert transcript.total_symbols == 511           # one GF(8) symbol per helper
        assert transcript.total_bits == 1533.0           # = 3 * (n - 1)
        assert set(transcript.symbol_counts.values()) == {1}
    report("criterion 1 (Hermitian r=8: 511 symbols = 1533 bits = 3(n-1), exact repair, 20 targets)")


# ----------------------------------------------------------------------
# 2. RS with n = q = 16, p = 2, l = 3, k <= 8: 15 bits per repair
# ----------------------------------------------------------------------


def test_criterion_2_rs_full_length():
    tw = tower(2, 4)
    for k in (8, 5):
        code = codes.rs_code(tw, k=k, n=16)
        rng = np.random.default_rng(k)
        cw = codes.encode(code, rng.integers(0, 16, size=k))
        for i in range(16):
            scheme = repair.build_scheme(code, i, l=3)
            value, transcript = repair.run_repair(scheme, cw.symbols)
            assert value.code == int(cw.symbols[i])
            assert transcript.total_symbols == 15
            assert transcript.total_bits == 15.0         # (n - 1) * log2 p
    report("criterion 2 (RS n=q=16, l=3: 15 bits per repair, all 16 targets)")


# ----------------------------------------------------------------------
# 3. sub-helper regime: r=4, q=16, s=8, d=14, l=1
# ----------------------------------------------------------------------


def test_criterion_3_sub_helper_regime():
    tw = tower(2, 4)
    code = codes.hermitian_code(codes.hermitian_curve(tw), s=8)
    p, l, d = 2, 1, 14
    assert code.s <= d - (p ** l - 1) * (code.curve.r + 1)
    per_helper_bits = math.log2(16) - l * math.log2(p)
    rng = np.random.default_rng(45)
    totals = collections.Counter()
    for _ in range(100):
        i = int(rng.integers(code.n))
        others = np.asarray([j for j in range(code.n) if j != i])
        helpers = sorted(rng.choice(others, size=d, replace=False).tolist())
        cw = codes.encode(code, rng.integers(0, 16, size=code.k))
        scheme = repair.build_scheme(code, i, helpers=helpers, l=l)
        value, transcript = repair.run_repair(scheme, cw.symbols)
        assert value.code == int(cw.symbols[i])
        assert sorted(scheme.active + scheme.pruned) == helpers
        assert transcript.total_symbols == len(scheme.active) * (tw.t - l) <= d * (tw.t - l)
        assert transcript.total_bits == pytest.approx(len(scheme.active) * per_helper_bits, abs=1e-9)
        totals[transcript.total_symbols] += 1
    # only helpers where the lightest dual row is nonzero download: 6 to 8 of the 14
    assert totals == {18: 13, 21: 52, 24: 35}
    report("criterion 3 (Hermitian r=4, d=14, l=1: bits = |active|(log q - l log p) "
           "<= d(log q - l log p) over 100 random (i, S))")


# ----------------------------------------------------------------------
# 4. weak repair path on r in {2, 3}
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p,t,s,d", [(2, 2, 4, 7), (3, 2, 9, 26)])
def test_criterion_4_weak_path(p, t, s, d):
    tw = tower(p, t)
    code = codes.hermitian_code(codes.hermitian_curve(tw), s=s)
    g, l = code.genus, 1
    bound_symbols = g * tw.t + (d - g) * (tw.t - l)  # gamma*log q + (d-gamma)(log q - l log p)
    rng = np.random.default_rng(p * 10 + t)
    for _ in range(60):
        i = int(rng.integers(code.n))
        others = np.asarray([j for j in range(code.n) if j != i])
        helpers = sorted(rng.choice(others, size=d, replace=False).tolist())
        scheme = repair.build_scheme(code, i, helpers=helpers, l=l, variant=repair.VARIANT_WEAK)
        assert len(scheme.extra_zeros) <= g               # |I_i| <= genus
        measured, _ = repair.bandwidth(scheme)
        assert measured <= bound_symbols                  # exact integer inequality
        cw = codes.encode(code, rng.integers(0, tw.q, size=code.k))
        value, _ = repair.run_repair(scheme, cw.symbols)
        assert value.code == int(cw.symbols[i])
    report(f"criterion 4 (weak path r={code.curve.r}: symbols <= {bound_symbols}, |I_i| <= {g})")


# ----------------------------------------------------------------------
# 5. oracle equivalence: protocol output == erasure decoding
# ----------------------------------------------------------------------


def _sample_helpers(rng, n, i, d):
    others = np.asarray([j for j in range(n) if j != i])
    return sorted(rng.choice(others, size=d, replace=False).tolist())


def test_criterion_5_oracle_equivalence_small_configs():
    cases = [
        ("rs16", codes.rs_code(tower(2, 4), k=8, n=16), 3, None, 15),
        ("herm4", codes.hermitian_code(codes.hermitian_curve(tower(2, 4)), s=8), 1, None, 14),
        ("herm2-weak", codes.hermitian_code(codes.hermitian_curve(tower(2, 2)), s=4), 1,
         repair.VARIANT_WEAK, 7),
        ("herm3-weak", codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=9), 1,
         repair.VARIANT_WEAK, 26),
    ]
    for name, code, l, variant, d in cases:
        tw = code.tower
        rng = np.random.default_rng(hash(name) % 2 ** 31)
        for _ in range(200):
            i = int(rng.integers(code.n))
            helpers = _sample_helpers(rng, code.n, i, d)
            cw = codes.encode(code, rng.integers(0, tw.q, size=code.k))
            scheme = repair.build_scheme(code, i, helpers=helpers, l=l, variant=variant)
            value, _ = repair.run_repair(scheme, cw.symbols)
            oracle = codes.erasure_decode(code, [(j, int(cw.symbols[j])) for j in helpers])
            assert value.code == int(oracle.symbols[i]) == int(cw.symbols[i])
    report("criterion 5a (reconstruct == erasure_decode, 200 random codewords x 4 configurations)")


def test_criterion_5_oracle_equivalence_flagship():
    tw = tower(8, 2)
    code = codes.hermitian_code(codes.hermitian_curve(tw), s=475)
    rng = np.random.default_rng(99)
    per_group = 50
    for group in range(4):  # 4 x 50 = 200 random codewords
        i = int(rng.integers(code.n))
        helpers = [j for j in range(code.n) if j != i]
        msgs = rng.integers(0, 64, size=(per_group, code.k))
        cws = codes.encode_many(code, msgs)
        decoded = codes.erasure_decode_many(code, helpers, cws[:, helpers])
        assert np.array_equal(decoded, cws)
        scheme = repair.build_scheme(code, i, l=1)
        for row in range(per_group):
            value, _ = repair.run_repair(scheme, cws[row])
            assert value.code == int(decoded[row, i])
    report("criterion 5b (flagship config: protocol == batched erasure decoding, 200 codewords)")


# ----------------------------------------------------------------------
# 6. algebraic invariant suite
# ----------------------------------------------------------------------


def test_criterion_6_dual_basis_identity():
    for p, t in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (5, 2), (8, 2), (2, 6)]:
        tw = tower(p, t)
        assert tw.q in {4, 8, 9, 16, 25, 64}
        for i, zi in enumerate(tw.zeta):
            for j, tj in enumerate(tw.theta):
                assert tw.trace(tw.mul(zi, tj)) == (1 if i == j else 0)
    report("criterion 6a (dual-basis identity, exhaustive over q in {4, 8, 9, 16, 25, 64})")


def test_criterion_6_trace_round_trip_all_small_fields():
    checked = 0
    for p in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        if prime_power(p) is None:
            continue
        t = 2
        while p ** t <= 256:
            tw = tower(p, t)
            for a in range(tw.q):
                traces = [tw.trace(tw.mul(a, z)) for z in tw.zeta]
                assert trace_reconstruct(traces, tw).code == a
            checked += 1
            t += 1
    assert checked >= 15
    report(f"criterion 6b (trace-representation round trip, exhaustive over {checked} towers, q <= 256)")


def test_criterion_6_linearized_dimensions():
    for p, t in [(2, 3), (2, 4), (2, 6), (3, 3), (4, 3), (2, 8)]:
        tw = tower(p, t)
        for l in range(0, min(3, t) + 1):
            lin = LinearizedMap(tw, tw.theta[:l])
            kernel = [x for x in range(tw.q) if lin(x) == 0]
            assert tuple(kernel) == lin.kernel and len(kernel) == p ** l
            assert len(lin.image()) == p ** (t - l)
    report("criterion 6c (linearized maps: kernel = V, image codimension l, for l <= 3)")


def test_criterion_6_hermitian_point_counts():
    for p, t, r in [(2, 2, 2), (3, 2, 3), (2, 4, 4), (8, 2, 8)]:
        curve = codes.hermitian_curve(tower(p, t))
        assert curve.r == r and curve.points.shape[0] == r ** 3
    report("criterion 6d (Hermitian point counts r**3 for r in {2, 3, 4, 8})")


def test_criterion_6_global_residue_identity():
    for p, t in [(2, 2), (3, 2)]:
        tw = tower(p, t)
        curve = codes.hermitian_curve(tw)
        n, genus = curve.points.shape[0], curve.genus
        mons = codes.rr_basis(curve.r, n + 2 * genus - 2)
        rows = np.stack([
            tw.mul_arr(tw.pow_arr(curve.points[:, 0], i), tw.pow_arr(curve.points[:, 1], j))
            for i, j in mons
        ])
        rng = np.random.default_rng(n)
        for _ in range(200):
            vals = linalg.matvec(tw, rows.T, rng.integers(0, tw.q, size=len(mons)))
            acc = 0
            for v in vals:
                acc = tw.add(acc, int(v))
            assert acc == 0
    report("criterion 6e (sum of g(P) over all points vanishes, 200 random g, r in {2, 3})")


# ----------------------------------------------------------------------
# 7. closed-form bound reproduction
# ----------------------------------------------------------------------


def test_criterion_7_params_reproduction():
    # fixed-alphabet comparison headline: (n-1)(log2 5 + 1/2) per repair
    cmp = bounds.rs_ag_comparison(25, 0.5)
    assert cmp["ag_bits_per_helper"] == pytest.approx(math.log2(5) + 0.5, rel=1e-3)

    # MSR-equivalent storage at rate 7/8 over GF(64): exactly 5.25 bits
    assert bounds.msr_storage(Fraction(7, 8), 64) == 5.25
    assert bounds.msr_storage(7 / 8, 64) == 5.25

    # strong d-helper row at d = n-1 coincides with the full-length row
    for q, p, l, n in [(64, 8, 1, 512), (16, 2, 1, 64), (16, 2, 2, 64),
                       (16, 4, 1, 64), (9, 3, 1, 27), (4, 2, 1, 8)]:
        values = bounds.bound_report(n=n, m=1, d=n - 1, q=q, p=p, l=l).values
        assert values["hermitian_strong"] == pytest.approx(values["hermitian_full"], abs=1e-9)
        assert values["hermitian_full"] == pytest.approx(
            (n - 1) * (math.log2(q) - l * math.log2(p)), abs=1e-9
        )
    report("criterion 7 (comparison value, 5.25-bit MSR storage, strong/full formula agreement)")


# ----------------------------------------------------------------------
# cross-cutting: measured bandwidth never exceeds the closed-form bound
# ----------------------------------------------------------------------


def test_measured_bandwidth_matches_formulas():
    cases = [
        ("rs16", codes.rs_code(tower(2, 4), k=8, n=16), 3, None, None),
        ("herm8", codes.hermitian_code(codes.hermitian_curve(tower(8, 2)), s=475), 1, None, None),
        ("herm4-sub", codes.hermitian_code(codes.hermitian_curve(tower(2, 4)), s=8), 1, None, 14),
        ("herm3-weak", codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=9), 1,
         repair.VARIANT_WEAK, 26),
    ]
    rng = np.random.default_rng(77)
    savings, downloads = {}, collections.defaultdict(list)
    for name, code, l, variant, d in cases:
        for _ in range(5):
            i = int(rng.integers(code.n))
            helpers = None if d is None else _sample_helpers(rng, code.n, i, d)
            scheme = repair.build_scheme(code, i, helpers=helpers, l=l, variant=variant)
            measured, _ = repair.bandwidth(scheme)
            assert measured <= repair.bound_symbols(scheme)
            assert sorted(scheme.active + scheme.pruned) == list(scheme.helpers)
            if variant != repair.VARIANT_WEAK:
                assert measured == len(scheme.active) * (scheme.t - l)
            if d is None:
                assert measured == repair.bound_symbols(scheme)
            downloads[name].append(measured)
            savings[name] = (measured, repair.trivial_symbols(scheme))
    # sub-helper plans download only where the lightest dual row is nonzero
    assert downloads["herm4-sub"] == [21, 18, 18, 21, 24]
    assert downloads["herm3-weak"] == [14, 14, 14, 14, 12]
    # the full-helper configurations beat shipping threshold whole symbols;
    # narrow helper sets need not (reported, not assumed)
    for name in ("rs16", "herm8"):
        assert savings[name][0] < savings[name][1]
    lines = ", ".join(f"{k}: {a}/{b}" for k, (a, b) in savings.items())
    report(f"cross-check (formula equality for full helper sets; measured/trivial symbols {lines})")
