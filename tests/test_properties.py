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
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from agrepair import codes, repair
from agrepair.gf import tower

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
