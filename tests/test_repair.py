import collections
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agrepair import codes, linalg, repair
from agrepair.gf import FieldElement, tower
from test_codes import _reference_dual_support_vector


def herm_code(p, t, s, n=None):
    tw = tower(p, t)
    return codes.hermitian_code(codes.hermitian_curve(tw), s=s, n=n)


def per_helper(scheme, arr):
    """Each active helper's run of a flat per-sub-symbol array."""
    return {j: arr[..., scheme.start[j]:scheme.start[j + 1]] for j in scheme.active}


# ----------------------------------------------------------------------
# scheme structure
# ----------------------------------------------------------------------


def test_table_normalisation_at_target():
    f16 = tower(2, 4)
    rs = codes.rs_code(f16, k=6, n=16)
    for l in (1, 2, 3):
        scheme = repair.build_scheme(rs, 4, l=l)
        assert np.array_equal(scheme.table[:, 4], np.asarray(f16.zeta))


def test_strong_uniform_counts():
    f16 = tower(2, 4)
    rs = codes.rs_code(f16, k=6, n=16)
    scheme = repair.build_scheme(rs, 0, l=2)
    assert set(np.diff(scheme.start)[list(scheme.active)]) == {2}  # t - l
    hc = herm_code(2, 4, s=8)
    scheme = repair.build_scheme(hc, 7, l=1)
    assert set(np.diff(scheme.start)[list(scheme.active)]) == {3}


def test_weak_counts_full_at_extra_zeros():
    hc = herm_code(2, 2, s=4)
    scheme = repair.build_scheme(hc, 0, l=1, variant=repair.VARIANT_WEAK)
    assert len(scheme.extra_zeros) <= hc.genus
    for j in scheme.active:
        expect = 2 if j in scheme.extra_zeros else 1
        assert scheme.start[j + 1] - scheme.start[j] == expect


def test_rs_gf4_hand_checked_responses():
    """Responses must equal the raw trace formula computed from first principles."""
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    cw = codes.encode(rs, [1, 2])
    i = 2
    scheme = repair.build_scheme(rs, i, l=1)
    lin = scheme.lin
    for j in scheme.active:
        a_j, a_i = int(rs.points[j]), int(rs.points[i])
        h_ij = f4.sub(a_j, a_i)
        expected = []
        for u in scheme.chosen_u[scheme.start[j]:scheme.start[j + 1]]:
            zu = f4.zeta[u]
            # h_(i,u)(P_j) = L(zeta_u * h) / (c * h) evaluated directly
            val = f4.div(lin(f4.mul(zu, h_ij)), f4.mul(lin.c, h_ij))
            coeff = f4.mul(int(scheme.w[j]), val)
            expected.append(f4.trace(f4.mul(coeff, int(cw.symbols[j]))))
        assert list(repair.helper_response(scheme, j, int(cw.symbols[j]))) == expected


# ----------------------------------------------------------------------
# end-to-end correctness
# ----------------------------------------------------------------------


def test_rs_gf4_exhaustive():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    for m0 in range(4):
        for m1 in range(4):
            cw = codes.encode(rs, [m0, m1])
            for i in range(4):
                scheme = repair.build_scheme(rs, i, l=1)
                value, transcript = repair.run_repair(scheme, cw.symbols)
                assert value.code == cw.symbols[i]
                assert transcript.total_symbols == 3
                assert transcript.total_bits == 3.0


def test_rs_gf16_all_targets():
    f16 = tower(2, 4)
    rs = codes.rs_code(f16, k=8, n=16)
    rng = np.random.default_rng(1)
    cw = codes.encode(rs, rng.integers(0, 16, size=8))
    for i in range(16):
        scheme = repair.build_scheme(rs, i, l=3)
        value, transcript = repair.run_repair(scheme, cw.symbols)
        assert value.code == cw.symbols[i]
        assert transcript.total_symbols == 15


def test_rs_gf4096_full_length_repair():
    """A large field costs the scheme O(n * t) work and memory, not
    O(q) per sub-symbol: RS over GF(2**12), n = q = 4096."""
    f4096 = tower(2, 12)
    rs = codes.rs_code(f4096, k=101)
    rng = np.random.default_rng(4)
    cw = codes.encode(rs, rng.integers(0, f4096.q, size=101))
    scheme = repair.build_scheme(rs, 1234)
    value, transcript = repair.run_repair(scheme, cw.symbols)
    assert value.code == cw.symbols[1234]
    assert transcript.total_symbols == 4095 * 11


def test_rs_code_keeps_its_own_points():
    """rs_code copies an int64 point array, so the caller mutating it later
    moves neither the code's points nor its repairs."""
    f16 = tower(2, 4)
    pts = np.arange(12, dtype=np.int64)
    rs = codes.rs_code(f16, k=4, points=pts)
    pts[0] = pts[1] = 15
    assert rs.points.tolist() == list(range(12)) and codes.distinct(rs.points)
    cw = codes.encode(rs, [3, 1, 4, 1])
    value, _ = repair.run_repair(repair.build_scheme(rs, 0, l=1), cw.symbols)
    assert value.code == cw.symbols[0]


def test_zero_codeword_zero_responses():
    hc = herm_code(2, 2, s=5)
    scheme = repair.build_scheme(hc, 3, l=1)
    value, transcript = repair.run_repair(scheme, np.zeros(8, dtype=np.int64))
    assert value.code == 0
    assert all(not any(r) for r in transcript.responses.values())


@pytest.mark.parametrize(
    "p,t,s,l,variant",
    [
        (2, 2, 5, 1, repair.VARIANT_LINE),
        (2, 2, 4, 1, repair.VARIANT_WEAK),
        (3, 2, 9, 1, repair.VARIANT_WEAK),
        (2, 4, 20, 1, repair.VARIANT_LINE),
        (2, 4, 20, 2, repair.VARIANT_LINE),
    ],
)
def test_repair_matches_truth_and_decode_oracle(p, t, s, l, variant):
    code = herm_code(p, t, s=s)
    tw = code.tower
    rng = np.random.default_rng(p * t + s)
    for _ in range(40):
        msg = rng.integers(0, tw.q, size=code.k)
        cw = codes.encode(code, msg)
        i = int(rng.integers(code.n))
        scheme = repair.build_scheme(code, i, l=l, variant=variant)
        value, _ = repair.run_repair(scheme, cw.symbols)
        others = [j for j in range(code.n) if j != i]
        oracle = codes.erasure_decode(code, [(j, int(cw.symbols[j])) for j in others])
        assert value.code == cw.symbols[i] == oracle.symbols[i]


def test_sub_helper_regime_exact_bandwidth():
    code = herm_code(2, 4, s=8)
    rng = np.random.default_rng(7)
    seen = collections.Counter()
    for _ in range(30):
        i = int(rng.integers(code.n))
        others = np.asarray([j for j in range(code.n) if j != i])
        helpers = sorted(rng.choice(others, size=14, replace=False).tolist())
        cw = codes.encode(code, rng.integers(0, 16, size=code.k))
        scheme = repair.build_scheme(code, i, helpers=helpers, l=1)
        value, transcript = repair.run_repair(scheme, cw.symbols)
        assert value.code == cw.symbols[i]
        assert sorted(scheme.active + scheme.pruned) == helpers
        assert transcript.total_symbols == len(scheme.active) * 3 <= 14 * 3  # at most d * (t - l)
        seen[transcript.total_symbols, len(scheme.pruned)] += 1
    # (sub-symbols, pruned helpers) -> plans: the lightest dual row reaches 6 to 8 helpers
    assert seen == {(18, 8): 8, (21, 7): 13, (24, 6): 9}


def test_weak_bandwidth_bound():
    for p, t, s, d in [(2, 2, 4, 7), (3, 2, 9, 26)]:
        code = herm_code(p, t, s=s)
        tw = code.tower
        rng = np.random.default_rng(s)
        for _ in range(20):
            i = int(rng.integers(code.n))
            others = np.asarray([j for j in range(code.n) if j != i])
            helpers = sorted(rng.choice(others, size=d, replace=False).tolist())
            scheme = repair.build_scheme(code, i, helpers=helpers, l=1, variant=repair.VARIANT_WEAK)
            assert len(scheme.extra_zeros) <= code.genus
            measured, _ = repair.bandwidth(scheme)
            assert measured <= repair.bound_symbols(scheme)
            cw = codes.encode(code, rng.integers(0, tw.q, size=code.k))
            value, _ = repair.run_repair(scheme, cw.symbols)
            assert value.code == cw.symbols[i]


def test_full_length_shortcut_consistent_with_search():
    """The all-ones dual vector repairs, and the searched one is a dual
    vector of the same augmented code: zero against its generator,
    supported on S + {i}, with w_i = 1."""
    code = herm_code(2, 2, s=4)
    rng = np.random.default_rng(13)
    cw = codes.encode(code, rng.integers(0, 4, size=code.k))
    i = 5
    full = repair.build_scheme(code, i, l=1)  # s=4 <= n+2g-2-3=5: all-ones path
    assert (full.w == 1).all()
    assert repair.run_repair(full, cw.symbols)[0].code == cw.symbols[i]
    aug = codes.augmented_generator(code, 3)
    helpers = [j for j in range(8) if j != i]
    w = codes.dual_support_vector(code, 3, i, helpers)
    assert not linalg.matvec(code.tower, aug, w).any()
    assert set(np.flatnonzero(w)) <= set(helpers) | {i}
    assert w[i] == 1


def test_bandwidth_justifies_over_trivial_repair():
    """Sub-symbol download beats shipping threshold whole symbols."""
    configs = [
        repair.build_scheme(codes.rs_code(tower(2, 4), k=8, n=16), 0, l=3),
        repair.build_scheme(herm_code(8, 2, s=475), 0, l=1),
    ]
    for scheme in configs:
        measured, _ = repair.bandwidth(scheme)
        assert measured < repair.trivial_symbols(scheme)


def test_bandwidth_survey_full_and_sampled():
    code = herm_code(2, 2, s=5)
    full = [repair.bandwidth(repair.build_scheme(code, i, l=1, variant=repair.VARIANT_LINE))[0]
            for i in range(code.n)]
    assert max(full) == 7  # (n-1) * (t-l)
    sub = herm_code(2, 4, s=8)
    rng = np.random.default_rng(0)
    sampled = []
    for _ in range(10):
        i = int(rng.integers(sub.n))
        others = np.asarray([j for j in range(sub.n) if j != i])
        helpers = rng.choice(others, size=14, replace=False).tolist()
        scheme = repair.build_scheme(sub, i, helpers=helpers, l=1, variant=repair.VARIANT_LINE)
        measured = repair.bandwidth(scheme)[0]
        assert measured == len(scheme.active) * 3 <= 14 * 3  # at most d * (t - l)
        sampled.append(measured)
    assert sampled == [24, 24, 21, 24, 18, 24, 18, 21, 21, 21]


# ----------------------------------------------------------------------
# errors and edge cases
# ----------------------------------------------------------------------


def test_precondition_errors_name_the_inequality():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    with pytest.raises(repair.RepairPreconditionError, match=r"requires s <= d - p\*\*l: s=1, d=3"):
        repair.build_scheme(rs, 0, l=2)
    hc = herm_code(2, 4, s=8)
    with pytest.raises(repair.RepairPreconditionError, match=r"r \+ 1"):
        repair.build_scheme(hc, 0, helpers=list(range(1, 9)), l=1)
    with pytest.raises(repair.RepairPreconditionError, match="genus"):
        repair.build_scheme(hc, 0, helpers=list(range(1, 12)), l=1, variant=repair.VARIANT_WEAK)
    big = herm_code(2, 2, s=6)
    with pytest.raises(repair.RepairPreconditionError, match=r"n \+ 2\*genus"):
        repair.build_scheme(big, 0, l=1)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_rs_precondition_boundary(l):
    """Genus 0: s = d - p**l builds and repairs, one more is refused up front
    (the augmented code then fills all d + 1 coordinates)."""
    tw = tower(2, 4)
    rng = np.random.default_rng(l)
    for n, d in ((16, 15), (16, 11), (13, 12)):
        code = codes.rs_code(tw, k=d - 2 ** l + 1, n=n)
        cw = codes.encode(code, rng.integers(0, tw.q, size=code.k))
        helpers = list(range(1, d + 1))
        scheme = repair.build_scheme(code, 0, helpers=helpers, l=l)
        value, _ = repair.run_repair(scheme, cw.symbols)
        assert value.code == cw.symbols[0]
        over = codes.rs_code(tw, k=code.k + 1, n=n)
        with pytest.raises(repair.RepairPreconditionError, match=r"requires s <= d - p\*\*l"):
            repair.build_scheme(over, 0, helpers=helpers, l=l)


def test_l_outside_zero_to_t_names_l_and_t():
    rs = codes.rs_code(tower(2, 4), k=2, n=16)
    for l in (-1, 5):
        with pytest.raises(ValueError, match=rf"l={l} must satisfy 0 <= l <= t=4"):
            repair.build_scheme(rs, 0, l=l)


def test_variant_code_kind_mismatch():
    f4 = tower(2, 2)
    rs = codes.rs_code(f4, k=2, n=4)
    hc = herm_code(2, 2, s=5)
    with pytest.raises(ValueError):
        repair.build_scheme(rs, 0, l=1, variant=repair.VARIANT_LINE)
    with pytest.raises(ValueError):
        repair.build_scheme(hc, 0, l=1, variant=repair.VARIANT_RS)
    with pytest.raises(ValueError):
        repair.build_scheme(hc, 0, l=1, variant="bogus")


def test_helpers_may_be_any_iterable_of_integers():
    hc = herm_code(2, 2, s=2)
    want = repair.scheme_to_json(repair.build_scheme(hc, 0, helpers=[2, 3, 4, 5, 6], l=1))
    for helpers in ({6, 5, 4, 3, 2}, (j for j in range(2, 7)), range(2, 7),
                    np.arange(2, 7, dtype=np.uint8)):
        assert repair.scheme_to_json(repair.build_scheme(hc, 0, helpers=helpers, l=1)) == want


def test_helper_validation():
    hc = herm_code(2, 2, s=4)
    with pytest.raises(ValueError):
        repair.build_scheme(hc, 0, helpers=[0, 1, 2, 3, 4, 5, 6], l=1)
    with pytest.raises(ValueError):
        repair.build_scheme(hc, 0, helpers=[], l=1)
    with pytest.raises(ValueError):
        repair.build_scheme(hc, 9, l=1)


def test_helper_response_validation():
    hc = herm_code(2, 2, s=5)
    scheme = repair.build_scheme(hc, 2, l=1)
    for outside in (2, -1, hc.n):  # the target, and indices that would wrap on start
        with pytest.raises(ValueError, match=f"node {outside} is not in the helper set"):
            repair.helper_response(scheme, outside, 1)
    resp = {j: repair.helper_response(scheme, j, 0) for j in scheme.active}
    missing = dict(resp)
    missing.pop(scheme.active[0])
    with pytest.raises(ValueError, match="missing response"):
        repair.reconstruct(scheme, missing)
    short = dict(resp)
    short[scheme.active[0]] = resp[scheme.active[0]][:-1] + (0, 0)
    with pytest.raises(ValueError, match="sent"):
        repair.reconstruct(scheme, short)


def test_reconstruct_refuses_responses_that_are_not_sequences():
    """A dict would be read through its keys, and an int or None has no
    length: each is refused by name, as is a float or 2-D array.  Over
    GF(16)/GF(4) each helper sends one sub-symbol, the length a one-key
    dict has."""
    hc = herm_code(4, 2, s=3)
    scheme = repair.build_scheme(hc, 0)
    cw = codes.encode(hc, np.arange(hc.k))
    resp = {j: repair.helper_response(scheme, j, int(cw.symbols[j])) for j in scheme.active}
    assert repair.reconstruct(scheme, resp).code == cw[0]
    j = scheme.active[0]
    for bad, kind in (({0: 1}, "dict"), (1, "int"), (None, "NoneType"),
                      (np.zeros(len(resp[j])), "ndarray"), (np.zeros((1, len(resp[j])), int), "ndarray")):
        with pytest.raises(ValueError, match=f"helper {j} sent a {kind}, not a list, tuple or "
                                             "1-D integer array"):
            repair.reconstruct(scheme, {**resp, j: bad})
    as_arrays = {k: np.asarray(r, dtype=np.uint8) for k, r in resp.items()}
    assert repair.reconstruct(scheme, as_arrays).code == cw[0]
    assert repair.reconstruct(scheme, {k: list(r) for k, r in resp.items()}).code == cw[0]


def test_run_repair_refuses_codewords_of_another_shape():
    hc = herm_code(4, 2, s=3)
    scheme = repair.build_scheme(hc, 0)
    word = codes.encode(hc, np.arange(hc.k)).symbols
    with pytest.raises(ValueError, match="codeword has length 5, expected n=64"):
        repair.run_repair(scheme, word[:5])
    with pytest.raises(ValueError, match="codeword has length 65, expected n=64"):
        repair.run_repair(scheme, np.append(word, 0))
    with pytest.raises(ValueError, match=r"codeword has shape \(2, 64\), expected n=64"):
        repair.run_repair(scheme, np.stack([word, word]))
    with pytest.raises(ValueError, match=r"codeword has shape \(\), expected n=64"):
        repair.run_repair(scheme, 3)
    assert repair.run_repair(scheme, word.tolist())[0].code == word[0]


def test_scheme_and_transcript_serialize_to_json():
    import json

    code = herm_code(3, 2, s=9)
    scheme = repair.build_scheme(code, 4, l=1)
    blob = repair.scheme_to_json(scheme)
    json.dumps(blob)  # round-trippable plain data
    assert blob["target"] == 4 and blob["l"] == 1
    assert set(blob["value_table"]) == set(scheme.active)
    tw = code.tower
    for j in scheme.active:
        digs = blob["dual_vector"][j]
        assert tw.from_digits(digs) == int(scheme.w[j])
        count = scheme.start[j + 1] - scheme.start[j]
        assert len(blob["chosen_indices"][j]) == count == blob["per_helper_symbols"][j]
    rng = np.random.default_rng(0)
    cw = codes.encode(code, rng.integers(0, 9, size=code.k))
    _, transcript = repair.run_repair(scheme, cw.symbols)
    tr = repair.transcript_to_json(transcript)
    json.dumps(tr)
    assert tr["total_symbols"] == transcript.total_symbols
    assert all(v < tw.p for resp in tr["responses"].values() for v in resp)


# ----------------------------------------------------------------------
# the flat plan against the per-helper greedy and scalar references
# ----------------------------------------------------------------------


def _reference_index_sets(scheme):
    """The greedy selection build_scheme used before, as per-helper dicts:
    grow the chosen set row by row with `rank`, then `solve` each dependent
    row over it."""
    tw = scheme.code.tower
    t = tw.t
    mu, expand, counts = {}, {}, {}
    for j in scheme.active:
        digits = tw.digits_arr(scheme.table[:, j])
        chosen = []
        for u in range(t):
            if linalg.rank(tw, digits[chosen + [u]]) > len(chosen):
                chosen.append(u)
        basis = digits[chosen]
        lam = np.zeros((t, len(chosen)), dtype=np.int64)
        for u in range(t):
            if u in chosen:
                lam[u, chosen.index(u)] = 1
                continue
            sol = linalg.solve(tw, basis.T, digits[u])
            assert sol is not None
            lam[u] = sol
        mu[j] = np.asarray(
            [tw.mul(int(scheme.w[j]), int(scheme.table[v, j])) for v in chosen], dtype=np.int64
        )
        expand[j] = lam
        counts[j] = len(chosen)
    return mu, expand, counts


def _reference_chosen(scheme, j, mu_j):
    """Recover which u-indices helper j's coefficients came from, searching
    the value table backwards for each mu / w_j."""
    tw = scheme.code.tower
    out = []
    for m in mu_j:
        target = tw.div(int(m), int(scheme.w[j]))
        out.append(next(u for u in range(tw.t) if int(scheme.table[u, j]) == target))
    return out


def _index_set_cases():
    f16 = tower(2, 4)
    rs16 = codes.rs_code(f16, k=6, n=16)
    rs27 = codes.rs_code(tower(3, 3), k=10, n=27)
    hc = herm_code(2, 2, s=4)
    hc9 = herm_code(3, 2, s=9)
    rng = np.random.default_rng(7)
    sub = sorted(rng.choice([j for j in range(27) if j != 5], size=20, replace=False).tolist())
    rs64 = codes.rs_code(tower(8, 2), k=20, n=64)
    yield from ((rs16, 3, None, l, repair.VARIANT_RS) for l in (0, 1, 2, 3))
    yield rs64, 9, None, 1, repair.VARIANT_RS
    yield rs27, 5, sub, 2, repair.VARIANT_RS
    yield rs27, 0, None, 1, repair.VARIANT_RS
    yield hc, 0, None, 1, repair.VARIANT_LINE
    yield hc9, 4, None, 1, repair.VARIANT_LINE
    yield hc9, 11, [j for j in range(hc9.n) if j not in (11, 3, 20)], 1, repair.VARIANT_LINE
    yield hc, 0, None, 1, repair.VARIANT_WEAK
    yield hc9, 7, None, 1, repair.VARIANT_WEAK


@pytest.mark.parametrize("case", list(_index_set_cases()),
                         ids=lambda c: f"{c[4]}-q{c[0].tower.q}-i{c[1]}-l{c[3]}")
def test_index_sets_match_greedy_reference(case):
    code, target, helpers, l, variant = case
    scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
    mu, expand, counts = _reference_index_sets(scheme)
    chosen = {j: _reference_chosen(scheme, j, mu[j]) for j in scheme.active}
    for arr in (scheme.mu, scheme.chosen_u, scheme.lam, scheme.start):
        assert arr.dtype == np.int64
    assert scheme.start[-1] == len(scheme.mu) == scheme.lam.shape[1] == sum(counts.values())
    assert np.diff(scheme.start)[list(scheme.active)].tolist() == [counts[j] for j in scheme.active]
    assert not np.diff(scheme.start)[[j for j in range(code.n) if j not in scheme.active]].any()
    flat_mu = per_helper(scheme, scheme.mu)
    flat_u = per_helper(scheme, scheme.chosen_u)
    flat_lam = per_helper(scheme, scheme.lam)
    for j in scheme.active:
        assert np.array_equal(flat_mu[j], mu[j])
        assert flat_u[j].tolist() == chosen[j]
        assert np.array_equal(flat_lam[j], expand[j])
    ref = repair.scheme_to_json(scheme) | {
        "chosen_indices": {int(j): chosen[j] for j in scheme.active},
        "expansion": {int(j): expand[j].tolist() for j in scheme.active},
        "per_helper_symbols": {int(j): counts[j] for j in scheme.active},
    }
    assert repair.scheme_to_json(scheme) == ref


def _reference_reconstruct(scheme, responses):
    """The scalar reconstruction: one field multiply-add per (row u,
    sub-symbol), then the theta-combination of the t traces."""
    tw = scheme.code.tower
    traces = []
    for u in range(tw.t):
        acc = 0
        for j in scheme.active:
            lam = scheme.lam[u, scheme.start[j]:scheme.start[j + 1]]
            for v_idx, val in enumerate(responses[j]):
                if lam[v_idx]:
                    acc = tw.add(acc, tw.mul(int(lam[v_idx]), int(val)))
        traces.append(tw.neg(acc))
    out = 0
    for a_u, th in zip(traces, tw.theta):
        out = tw.add(out, tw.mul(a_u, th))
    return FieldElement(tw, out)


@pytest.mark.parametrize("code,variant", [
    (herm_code(2, 4, s=20), repair.VARIANT_LINE),
    (herm_code(3, 2, s=9), repair.VARIANT_WEAK),
    (codes.rs_code(tower(9, 2), k=20, n=81), repair.VARIANT_RS),
], ids=["char2-line-q16", "char3-weak-q9", "gf9-rs-q81"])
def test_reconstruct_matches_scalar_reference(code, variant):
    tw = code.tower
    rng = np.random.default_rng(tw.q)
    for trial in range(6):
        scheme = repair.build_scheme(code, int(rng.integers(code.n)), l=1, variant=variant)
        runs = np.diff(scheme.start)
        responses = {j: tuple(int(v) for v in rng.integers(0, tw.p, size=runs[j]))
                     for j in scheme.active}
        assert repair.reconstruct(scheme, responses).code == _reference_reconstruct(scheme, responses).code


def test_reconstruct_rejects_value_outside_base_field():
    hc = herm_code(2, 2, s=5)
    scheme = repair.build_scheme(hc, 2, l=1)
    p = hc.tower.p
    cw = codes.encode(hc, np.arange(hc.k) % hc.tower.q)
    resp = {j: repair.helper_response(scheme, j, int(cw.symbols[j])) for j in scheme.active}
    assert repair.reconstruct(scheme, resp).code == int(cw.symbols[2])
    j = scheme.active[1]
    for bad in (p, -1, 2 ** 70, np.int64(p)):
        corrupt = dict(resp)
        corrupt[j] = (bad,) + resp[j][1:]
        with pytest.raises(ValueError, match=rf"helper {j} sent {bad}, outside GF\({p}\)"):
            repair.reconstruct(scheme, corrupt)
    for bad in (0.9, "0", False, np.float64(1.0), np.bool_(True)):
        corrupt = dict(resp)
        corrupt[j] = resp[j][:-1] + (bad,)
        with pytest.raises(ValueError, match=rf"helper {j} sent {re.escape(repr(bad))}, not an integer"):
            repair.reconstruct(scheme, corrupt)
    numpy_ints = {k: tuple(np.uint8(v) for v in r) for k, r in resp.items()}
    assert repair.reconstruct(scheme, numpy_ints).code == int(cw.symbols[2])


def test_symbol_codes_outside_the_field_name_the_node():
    hc = herm_code(2, 2, s=5)
    q = hc.tower.q
    scheme = repair.build_scheme(hc, 2, l=1)
    cw = codes.encode(hc, np.arange(hc.k) % q)
    j = scheme.active[1]
    for bad in (-1, q):
        with pytest.raises(ValueError, match=rf"node {j} stores {bad}, outside GF\({q}\)"):
            repair.helper_response(scheme, j, bad)
        word = cw.symbols.copy()
        word[j] = bad
        with pytest.raises(ValueError, match=rf"node {j} stores {bad}, outside GF\({q}\)"):
            repair.run_repair(scheme, word)
    word = cw.symbols.copy()
    word[scheme.target] = -1  # the target coordinate is never read
    assert repair.run_repair(scheme, word)[0].code == int(cw.symbols[2])
    # non-integer symbols are refused, not truncated to a code
    for bad in (1.9, True, np.float64(2.0), np.bool_(True), "1", None):
        with pytest.raises(ValueError, match=rf"node {j} stores {re.escape(repr(bad))}, not an integer"):
            repair.helper_response(scheme, j, bad)
    for dtype in (np.float64, bool, object):
        with pytest.raises(ValueError, match=rf"codeword has dtype {np.dtype(dtype)}, not an integer dtype"):
            repair.run_repair(scheme, cw.symbols.astype(dtype))
    with pytest.raises(ValueError, match="codeword has dtype float64"):
        repair.run_repair(scheme, [v + 0.7 for v in cw.symbols.tolist()])
    expected = repair.run_repair(scheme, cw.symbols)
    for word in (cw.symbols.astype(np.uint8), cw.symbols.tolist()):
        value, transcript = repair.run_repair(scheme, word)
        assert value == expected[0] and transcript == expected[1]
    sym = int(cw.symbols[j])
    want = repair.helper_response(scheme, j, sym)
    for same in (np.uint8(sym), np.int64(sym), FieldElement(hc.tower, sym)):
        assert repair.helper_response(scheme, j, same) == want


# ----------------------------------------------------------------------
# helper replies against the Frobenius-sum trace formula
# ----------------------------------------------------------------------

_REPLY_CASES = [  # (p, t, kind, n, s, variant, l): every valid l in {1, 2} below t
    (2, 2, "rs", 4, 1, repair.VARIANT_RS, 1),
    (2, 2, "hermitian", 8, 3, repair.VARIANT_LINE, 1),
    (2, 2, "hermitian", 8, 3, repair.VARIANT_WEAK, 1),
    (2, 4, "rs", 16, 4, repair.VARIANT_RS, 1),
    (2, 4, "rs", 16, 4, repair.VARIANT_RS, 2),
    (2, 4, "hermitian", 64, 20, repair.VARIANT_LINE, 1),
    (2, 4, "hermitian", 64, 20, repair.VARIANT_LINE, 2),
    (2, 4, "hermitian", 64, 20, repair.VARIANT_WEAK, 1),
    (2, 4, "hermitian", 64, 20, repair.VARIANT_WEAK, 2),
    (3, 2, "rs", 9, 2, repair.VARIANT_RS, 1),
    (3, 2, "hermitian", 27, 9, repair.VARIANT_LINE, 1),
    (3, 2, "hermitian", 27, 9, repair.VARIANT_WEAK, 1),
    (3, 3, "rs", 27, 7, repair.VARIANT_RS, 1),
    (3, 3, "rs", 27, 7, repair.VARIANT_RS, 2),
    (4, 2, "rs", 16, 4, repair.VARIANT_RS, 1),
    (4, 2, "hermitian", 64, 20, repair.VARIANT_LINE, 1),
    (4, 2, "hermitian", 64, 20, repair.VARIANT_WEAK, 1),
    (8, 2, "rs", 64, 19, repair.VARIANT_RS, 1),
    (8, 2, "hermitian", 512, 40, repair.VARIANT_LINE, 1),
    (8, 2, "hermitian", 512, 40, repair.VARIANT_WEAK, 1),
    (9, 2, "rs", 81, 19, repair.VARIANT_RS, 1),
    (9, 2, "hermitian", 729, 40, repair.VARIANT_LINE, 1),
    (9, 2, "hermitian", 729, 40, repair.VARIANT_WEAK, 1),
]


@functools.lru_cache(maxsize=None)
def _reply_code(p, t, kind, n, s):
    if kind == "rs":
        return codes.rs_code(tower(p, t), k=s + 1, n=n)
    return herm_code(p, t, s=s, n=n)


def _scalar_replies(scheme, j, x):
    """Tr(mu[k] * x) for j's sub-symbols, each trace summed over the
    Frobenius powers rather than read off the tower's trace table."""
    tw = scheme.code.tower
    out = []
    for m in scheme.mu[scheme.start[j]:scheme.start[j + 1]].tolist():
        y = acc = tw.mul(m, x)
        for _ in range(tw.t - 1):
            y = tw.frob(y)
            acc = tw.add(acc, y)
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("case", _REPLY_CASES, ids=lambda c: "-".join(map(str, c)))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_helper_response_matches_scalar_trace_formula(case, data):
    p, t, kind, n, s, variant, l = case
    code = _reply_code(p, t, kind, n, s)
    tw = code.tower
    target = data.draw(st.integers(0, n - 1), label="target")
    scheme = repair.build_scheme(code, target, l=l, variant=variant)
    # every helper of the small codes; the large ones' end helpers and a sample
    sample = st.lists(st.sampled_from(scheme.helpers), max_size=6, unique=True)
    helpers = scheme.helpers if n <= 64 else (
        scheme.helpers[0], scheme.helpers[-1], *data.draw(sample, label="helpers"))
    for j in helpers:
        for x in range(tw.q):
            got = repair.helper_response(scheme, j, x)
            assert got == _scalar_replies(scheme, j, x)
            assert all(type(v) is int for v in got)


def _dual_cases():
    rng = np.random.default_rng(5)
    rs27 = codes.rs_code(tower(3, 3), k=10, n=27)
    rs16 = codes.rs_code(tower(2, 4), k=6, n=13)
    hc16 = herm_code(2, 4, s=8)
    hc9 = herm_code(3, 2, s=5, n=27)
    flagship = herm_code(8, 2, s=300)
    for code, variant, l, d in ((rs27, repair.VARIANT_RS, 1, 20), (rs27, repair.VARIANT_RS, 2, 22),
                                (rs16, repair.VARIANT_RS, 1, 10),
                                (hc16, repair.VARIANT_LINE, 1, 14), (hc16, repair.VARIANT_WEAK, 1, 30),
                                (hc9, repair.VARIANT_LINE, 1, 20), (hc9, repair.VARIANT_WEAK, 1, 22),
                                (flagship, repair.VARIANT_LINE, 1, 400),
                                (flagship, repair.VARIANT_WEAK, 1, 505)):
        target = int(rng.integers(code.n))
        others = [j for j in range(code.n) if j != target]
        helpers = sorted(rng.choice(others, size=d, replace=False).tolist())
        yield code, variant, l, target, helpers


@pytest.mark.parametrize("case", list(_dual_cases()),
                         ids=lambda c: f"{c[1]}-q{c[0].tower.q}-n{c[0].n}-l{c[2]}-d{len(c[4])}")
def test_scheme_dual_vector_matches_raw_augmented_generator(case):
    """Planning against the cached reduced generator gives the dual vector
    the nullspace of the raw augmented generator's restriction gives."""
    code, variant, l, target, helpers = case
    tw = code.tower
    r = None if code.curve is None else code.curve.r
    rho = (tw.p ** l - 1) * repair.pole_order(variant, code.genus, r)
    raw = codes.augmented_generator(code, rho)
    scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
    assert np.array_equal(scheme.w, _reference_dual_support_vector(raw, tw, target, helpers))
    reduced = codes._reduced_augmented(code, rho)
    assert codes._reduced_augmented(code, rho) is reduced
    rows, pivots = reduced
    assert not rows.flags.writeable and rows.dtype == np.min_scalar_type(tw.q - 1)
    assert not pivots.flags.writeable and pivots.dtype == np.int64
    want_rows, want_pivots = linalg.rref(tw, raw)
    assert np.array_equal(rows, want_rows[: len(want_pivots)]) and pivots.tolist() == want_pivots
    cols = sorted(helpers + [target])
    basis = linalg.nullspace(tw, raw[:, cols])
    assert np.array_equal(linalg.nullspace_of_columns(tw, reduced, cols), basis)


def _pinned_cases():
    rng = np.random.default_rng(8)
    rs16 = codes.rs_code(tower(2, 4), k=4, n=16)
    short = codes.rs_code(tower(2, 4), k=6, n=13)
    rs27 = codes.rs_code(tower(3, 3), k=10, n=27)
    hc16 = herm_code(2, 4, s=8)
    hc9 = herm_code(3, 2, s=5, n=27)
    flagship = herm_code(8, 2, s=300)
    grid = [(rs16, None, l, d) for l in (1, 2, 3) for d in (None, 12)]
    grid += [(short, None, 1, 10), (rs27, None, 1, 20), (rs27, None, 2, 22),
             (hc16, repair.VARIANT_LINE, 1, None), (hc16, repair.VARIANT_LINE, 1, 14),
             (hc16, repair.VARIANT_WEAK, 1, None), (hc16, repair.VARIANT_WEAK, 1, 30),
             (hc9, repair.VARIANT_LINE, 1, 20), (hc9, repair.VARIANT_WEAK, 1, 22),
             (flagship, repair.VARIANT_LINE, 1, 400), (flagship, repair.VARIANT_WEAK, 1, 505)]
    for code, variant, l, d in grid:
        target = int(rng.integers(code.n))
        others = [j for j in range(code.n) if j != target]
        helpers = None if d is None else sorted(rng.choice(others, size=d, replace=False).tolist())
        yield code, variant, l, target, helpers, rng.integers(0, code.tower.q, size=code.k)


def test_scheme_bytes_pinned():
    """Scheme and transcript JSON over a grid of every variant, full and
    sub-helper sets, hashed in two digests.  The all-ones plans (strong
    variants on every other node of a complete point set) hash to a digest
    recorded before build_scheme's variant rules were folded together and
    unchanged since.  The searched dual vectors, weak full sets included,
    hash to a digest recorded when the lightest nullspace row replaced the
    greedily filled first row."""
    import hashlib
    import json

    digests = {True: hashlib.sha256(), False: hashlib.sha256()}
    for code, variant, l, target, helpers, msg in _pinned_cases():
        scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
        _, transcript = repair.run_repair(scheme, codes.encode(code, msg).symbols)
        blob = [repair.scheme_to_json(scheme), repair.transcript_to_json(transcript)]
        all_ones = helpers is None and variant != repair.VARIANT_WEAK
        assert all_ones == (scheme.w == 1).all()
        digests[all_ones].update(json.dumps(blob, sort_keys=True).encode())
    assert digests[True].hexdigest() == \
        "8a6a278a026fc81552b8fbf96e8ccbd433d0cba10e0f39c5c7c7533980f31b5f"
    assert digests[False].hexdigest() == \
        "2a1082e447ff086e9478d6bac5a33760e5483f68a1430076e28417aa5a52af1a"


# ----------------------------------------------------------------------
# the per-helper views of a plan
# ----------------------------------------------------------------------

_VIEW_CASES = [  # (p, t, s, n, variant, d, seed): sub-helper plans
    (3, 2, 5, 27, repair.VARIANT_LINE, 20, 1),   # prunes helpers
    (3, 2, 5, 27, repair.VARIANT_WEAK, 22, 1),   # prunes helpers, extra zeros
    (4, 2, 20, None, repair.VARIANT_LINE, 40, 1),  # prunes helpers
    (2, 4, 8, None, repair.VARIANT_WEAK, 30, 1),   # extra zeros
    (2, 4, 8, None, repair.VARIANT_LINE, 14, 2),
]


@functools.lru_cache(maxsize=None)
def _view_schemes(case):
    """Four plans of the case, each from a seeded random helper set."""
    p, t, s, n, variant, d, seed = case
    code = herm_code(p, t, s=s, n=n)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(4):
        target = int(rng.integers(code.n))
        others = [j for j in range(code.n) if j != target]
        helpers = sorted(rng.choice(others, size=d, replace=False).tolist())
        out.append(repair.build_scheme(code, target, helpers=helpers, l=1, variant=variant))
    return tuple(out)


def test_view_cases_prune_helpers_and_hit_extra_zeros():
    schemes = [sc for case in _VIEW_CASES for sc in _view_schemes(case)]
    assert any(sc.pruned for sc in schemes)
    assert any(sc.extra_zeros for sc in schemes)
    assert any(sc.pruned and sc.extra_zeros for sc in schemes)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_helper_views_and_responses_follow_the_flat_plan(data):
    """`runs`, `active_counts` and `senders` are the mu/start slices; each
    active helper sends Tr(mu_k * symbol) for its run, a pruned one sends
    (), a non-helper is refused, and `reconstruct` rebuilds the symbol or
    names the first helper, in node order, whose response has the wrong
    length."""
    case = data.draw(st.sampled_from(_VIEW_CASES), label="case")
    scheme = data.draw(st.sampled_from(_view_schemes(case)), label="scheme")
    code, tw, start = scheme.code, scheme.code.tower, scheme.start
    assert set(scheme.runs) == set(scheme.helpers)
    for j in scheme.helpers:
        assert scheme.runs[j] == tuple(scheme.mu[start[j]:start[j + 1]].tolist())
        assert all(type(m) is int for m in scheme.runs[j])
    assert scheme.active_counts == [int(start[j + 1] - start[j]) for j in scheme.active]
    assert list(scheme.senders) == np.repeat(np.arange(code.n), np.diff(start)).tolist()
    assert all(not scheme.runs[j] for j in scheme.pruned)

    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    cw = codes.encode(code, rng.integers(0, tw.q, size=code.k)).symbols
    responses = {}
    for j in scheme.helpers:
        got = repair.helper_response(scheme, j, int(cw[j]))
        mu = scheme.mu[start[j]:start[j + 1]]
        assert got == tuple(tw.trace_arr(tw.mul_arr(mu, cw[j])).tolist())
        if j in scheme.pruned:
            assert got == ()
        else:
            responses[j] = got
    assert repair.reconstruct(scheme, responses).code == cw[scheme.target]

    helper_set = set(scheme.helpers)
    outsiders = [scheme.target, -1, code.n] + [j for j in range(code.n) if j not in helper_set][:3]
    for j in outsiders:
        with pytest.raises(ValueError, match=f"^node {j} is not in the helper set$"):
            repair.helper_response(scheme, j, 0)

    bad = sorted(data.draw(st.lists(st.sampled_from(scheme.active), min_size=1, max_size=3,
                                    unique=True), label="wrong lengths"))
    wrong = dict(responses)
    for j in bad:
        wrong[j] = responses[j] + (0,) if data.draw(st.booleans()) else responses[j][:-1]
    first = bad[0]
    with pytest.raises(ValueError, match=f"^helper {first} sent {len(wrong[first])} symbols, "
                                         f"expected {len(responses[first])}$"):
        repair.reconstruct(scheme, wrong)
