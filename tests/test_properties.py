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
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from agrepair import codes, repair
from agrepair.gf import tower
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
