import math
import re

import numpy as np
import pytest

from agrepair import bounds, codes, repair
from agrepair.gf import tower

TOL = 1e-9


def test_cutset_bound():
    assert bounds.cutset_bound(10, 5, 6.0) == pytest.approx(10.0, abs=TOL)
    assert bounds.cutset_bound(7, 7, 3.0) == pytest.approx(21.0, abs=TOL)
    with pytest.raises(ValueError):
        bounds.cutset_bound(4, 5, 6.0)
    with pytest.raises(ValueError):
        bounds.cutset_bound(4, 0, 6.0)


def test_cutset_monotone_in_m():
    vals = [bounds.cutset_bound(20, m, 8.0) for m in range(1, 21)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_naive_bounds():
    privacy, recon = bounds.naive_bounds(16, 9, 2, 4.0)
    assert privacy == pytest.approx(4.0, abs=TOL)
    # MDS parameters: gap between the two bounds is bits - 1
    privacy, recon = bounds.naive_bounds(16, 9, 9, 4.0)
    assert recon == pytest.approx(8.0, abs=TOL)
    assert privacy - recon == pytest.approx(3.0, abs=TOL)
    # degenerate code: reconstruction clamps at zero
    assert bounds.naive_bounds(8, 9, 2, 2.0)[1] == 0.0
    with pytest.raises(ValueError):
        bounds.naive_bounds(8, 0, 2, 2.0)
    with pytest.raises(ValueError):
        bounds.naive_bounds(8, 2, 10, 2.0)


def test_linear_repair_lower_bounds():
    assert bounds.linear_repair_lb(16, 16) == pytest.approx(0.0, abs=TOL)
    assert bounds.linear_repair_lb(512, 65) == pytest.approx(511 * math.log2(511 / 64), abs=TOL)
    with pytest.raises(ValueError):
        bounds.linear_repair_lb(16, 1)
    # the AG form is the same bound with the designed dual distance
    n, k, genus = 512, 448, 28
    assert bounds.linear_repair_lb_ag(n, k, genus) == pytest.approx(
        bounds.linear_repair_lb(n, n - k + genus - 1), abs=TOL
    )
    with pytest.raises(ValueError, match="designed dual distance term must be >= 1"):
        bounds.linear_repair_lb_ag(16, 16, 1)  # n - k + genus - 2 = -1
    # asymptotic form in the tower rate regime
    got = bounds.linear_repair_lb_asymptotic(512, 64, 0.25)
    assert got == pytest.approx(511 * 0.25 * 6, abs=TOL)


def test_msr_storage_exact():
    assert bounds.msr_storage(7 / 8, 64) == 5.25
    assert bounds.msr_storage(1 / 2, 16) == pytest.approx((1 / 2) / (3 / 4) * 4, abs=TOL)
    with pytest.raises(ValueError):
        bounds.msr_storage(1 / 2, 8)


def test_fixed_alphabet_comparison_value():
    cmp = bounds.rs_ag_comparison(25, 0.5)
    assert cmp["ag_bits_per_helper"] == pytest.approx(math.log2(5) + 0.5, rel=1e-3)
    assert cmp["rs_bits_per_helper"] == pytest.approx(1.0, abs=TOL)
    assert cmp["ratio"] == pytest.approx(2.82, rel=1e-2)


def test_strong_row_at_full_helpers_is_the_full_length_row():
    for q, p, l, n in [(64, 8, 1, 512), (16, 2, 2, 64), (16, 4, 1, 64), (9, 3, 1, 27)]:
        values = bounds.bound_report(n=n, m=1, d=n - 1, q=q, p=p, l=l).values
        assert values["hermitian_strong"] == pytest.approx(values["hermitian_full"], abs=TOL)
        assert values["hermitian_full"] == pytest.approx(
            (n - 1) * (math.log2(q) - l * math.log2(p)), abs=TOL)


def test_rs_subfield_row():
    assert bounds.bound_report(n=16, m=8, q=16, p=2).values["rs_subfield"] == pytest.approx(
        15.0, abs=TOL)
    assert bounds.bound_report(n=512, m=1, q=512, p=8).values["rs_subfield"] == pytest.approx(
        3 * 511, abs=TOL)
    # m <= n*(1 - 1/p): the kernel of dimension t - 1 leaves s <= n - 1 - q/p
    assert "rs_subfield" in bounds.bound_report(n=16, m=9, q=16, p=2).inapplicable
    # no subfield GF(3) in GF(16), and not full length
    assert "power of p" in bounds.bound_report(n=16, m=1, q=16, p=3).inapplicable["rs_subfield"]
    assert "requires n = q" in bounds.bound_report(n=15, m=1, q=16, p=2).inapplicable["rs_subfield"]


def test_tower_row_and_interval():
    # genus term q**(e/2) with e=1 over q=64 is 8
    got = bounds.bound_report(m=16, d=100, q=64, p=2, l=1, e=1).values["tower"]
    assert got == pytest.approx(100 * 6 - 92 * 1, abs=TOL)
    assert "l <= log_p q" in bounds.bound_report(m=16, d=100, q=64, p=2, l=7, e=1).inapplicable["tower"]
    lo, hi = bounds.tower_full_interval(64, 2)
    assert lo == pytest.approx(2 / 7, abs=TOL)
    assert hi == pytest.approx(6 / 7, abs=TOL)
    # q=25 with p=5: empty validity interval
    lo, hi = bounds.tower_full_interval(25, 5)
    assert lo > hi
    with pytest.raises(ValueError):
        bounds.tower_full_interval(8, 2)
    # q=256 with p=2: eps=0.5 lies in (2/15, 14/15), so the report gives the row
    rep = bounds.bound_report(n=100, q=256, p=2, eps=0.5)
    assert rep.values["tower_full"] == bounds.tower_full_bandwidth(100, 256, 0.5)
    assert "outside the validity interval" in \
        bounds.bound_report(n=100, q=256, p=2, eps=0.1).inapplicable["tower_full"]


def test_tower_full_bandwidth_formula():
    got = bounds.tower_full_bandwidth(100, 64, 0.5)
    assert got == pytest.approx(99 * (3 + 1), abs=TOL)


def test_report_applicability():
    rep = bounds.bound_report(n=512, m=476, d=511, q=64, p=8, l=1, genus=28, rate=7 / 8)
    assert rep.values["hermitian_full"] == pytest.approx(1533.0, abs=TOL)
    assert rep.values["msr_storage_equiv"] == 5.25
    assert rep.values["cutset"] == pytest.approx(511 * 6 / 36, abs=TOL)
    # d = n - 1 on all r**3 points: the all-ones budget, as for hermitian_full
    assert rep.values["hermitian_strong"] == pytest.approx(1533.0, abs=TOL)
    rep = bounds.bound_report(n=512, m=476, d=510, q=64, p=8, l=1)
    assert "hermitian_strong" in rep.inapplicable  # m too large for d helpers
    assert "rs_subfield" in rep.inapplicable       # n != q
    assert "missing inputs" in rep.inapplicable["tower"]
    with pytest.raises(ValueError):
        bounds.bound_report(bogus=1)


def test_report_rows_need_room_for_the_helpers():
    """A variant row whose helper count or length no code has is inapplicable."""
    rep = bounds.bound_report(n=16, m=8, d=20, q=16, p=2, l=1)
    assert rep.inapplicable["rs_strong"] == "requires d <= n - 1: d=20, n=16"
    assert rep.inapplicable["hermitian_strong"] == "requires d <= n - 1: d=20, n=16"
    assert bounds.bound_report(m=8, d=20, q=16, p=2, l=1).inapplicable["rs_strong"] == \
        "requires d <= q - 1: d=20, q=16"
    rep = bounds.bound_report(n=600, m=476, d=511, q=64, p=8, l=1)
    for row in ("hermitian_full", "hermitian_strong"):
        assert rep.inapplicable[row] == "requires n <= r**3: n=600, r**3=512"
    assert rep.inapplicable["rs_strong"] == "requires n <= q: n=600, q=64"
    # at the limits the rows stand
    rep = bounds.bound_report(n=16, m=8, d=15, q=16, p=2, l=1)
    assert rep.values["rs_strong"] == pytest.approx(45.0, abs=TOL)
    rep = bounds.bound_report(n=512, m=476, d=511, q=64, p=8, l=1)
    assert rep.values["hermitian_full"] == pytest.approx(1533.0, abs=TOL)


def test_report_rows_and_json():
    rep = bounds.bound_report(n=16, m=8, d=15, q=16, p=2, l=3, genus=0)
    names = [r[0] for r in rep.rows()]
    assert names == sorted(names[: len(rep.values)]) + sorted(names[len(rep.values):])
    assert rep.values["rs_subfield"] == pytest.approx(15.0, abs=TOL)
    assert rep.values["rs_strong"] == pytest.approx(15.0, abs=TOL)
    d = rep.to_dict()
    assert set(d) == {"inputs", "values", "inapplicable"}


def test_report_tower_regime():
    # e=1, q=64: genus term 8, n = 8*7 = 56
    rep = bounds.bound_report(n=56, m=40, d=55, q=64, p=2, l=1, e=1)
    assert rep.values["tower"] == pytest.approx(55 * 6 - (55 - 8) * 1, abs=TOL)
    rep = bounds.bound_report(n=56, m=10, d=55, q=64, p=2, l=1, e=1)
    assert "tower" in rep.inapplicable  # m below 2*q**(e/2)


def _differential_cases():
    """(code, variant, l, d): every variant with l in {1, 2}, d at the
    smallest helper count its inequality allows (its budget), one below and
    one above, and d = n - 1; on RS over GF(16)/GF(2) and GF(27)/GF(3) and
    on the Hermitian code over GF(16)/GF(4) at full length and at n = 40."""
    curve = codes.hermitian_curve(tower(4, 2))
    rs = [codes.rs_code(tower(2, 4), k=s + 1) for s in (4, 8)]
    rs += [codes.rs_code(tower(3, 3), k=s + 1) for s in (5, 17, 18)]
    herm = [codes.hermitian_code(curve, s) for s in (8, 20, 40, 59, 60)]
    herm += [codes.hermitian_code(curve, s, n=40) for s in (8, 18, 24, 25, 30)]
    r = curve.r
    for code in rs + herm:
        variants = ((repair.VARIANT_RS, 1),) if code.kind == "rs" else \
            ((repair.VARIANT_LINE, r + 1), (repair.VARIANT_WEAK, code.genus + 1))
        for variant, pole in variants:
            for l in (1, 2):
                need = code.s + (code.tower.p ** l - 1) * pole + (code.genus == 0)
                for d in sorted({need - 1, need, need + 1, code.n - 1}):
                    if 1 <= d <= code.n - 1:
                        yield code, variant, l, d


@pytest.mark.parametrize("case", list(_differential_cases()), ids=lambda c: (
    f"{c[1]}-q{c[0].tower.q}-p{c[0].tower.p}-n{c[0].n}-s{c[0].s}-l{c[2]}-d{c[3]}"))
def test_report_rows_applicable_exactly_when_repair_plans(case):
    """Each variant's bound row, read with m = threshold, is applicable
    exactly when build_scheme plans the repair (weak_ag also needing
    2*genus <= m), and then equals the scheme's bound in bits."""
    code, variant, l, d = case
    tw = code.tower
    rng = np.random.default_rng(code.s * 1000 + d)
    target = int(rng.integers(code.n))
    others = [j for j in range(code.n) if j != target]
    helpers = sorted(rng.choice(others, size=d, replace=False).tolist())
    try:
        scheme = repair.build_scheme(code, target, helpers=helpers, l=l, variant=variant)
    except repair.RepairPreconditionError:
        scheme = None
    m = code.threshold
    rep = bounds.bound_report(n=code.n, m=m, d=d, q=tw.q, p=tw.p, l=l, genus=code.genus)
    rows = {repair.VARIANT_RS: ["rs_strong"], repair.VARIANT_LINE: ["hermitian_strong"],
            repair.VARIANT_WEAK: ["weak_ag"]}[variant]
    if d == code.n - 1 and variant == repair.VARIANT_LINE:
        rows.append("hermitian_full")
    if d == code.n - 1 and code.n == tw.q and l == tw.t - 1:
        rows.append("rs_subfield")
    accepts = scheme is not None and (variant != repair.VARIANT_WEAK or 2 * code.genus <= m)
    for row in rows:
        assert (row in rep.values) == accepts, (row, rep.inapplicable.get(row))
        if accepts:
            bits = repair.bound_symbols(scheme) * math.log2(tw.p)
            assert rep.values[row] == pytest.approx(bits, abs=TOL), row


@pytest.mark.parametrize("key,value,named", [
    ("q", "64", "parameter 'q' is '64', not an integer"),
    ("q", True, "parameter 'q' is True, not an integer"),
    ("n", 2.5, "parameter 'n' is 2.5, not an integer"),
    ("d", -1, "parameter 'd' is -1, below 0"),
    ("p", 1, "parameter 'p' is 1, below 2"),
    ("eps", "0.5", "parameter 'eps' must be a real number, got '0.5'"),
    ("rate", True, "parameter 'rate' must be a real number, got True"),
])
def test_report_inputs_are_checked(key, value, named):
    config = dict(n=512, m=476, d=511, q=64, p=8, l=1, genus=28, eps=0.5, rate=0.875)
    with pytest.raises(ValueError, match=re.escape(named)):
        bounds.bound_report(**dict(config, **{key: value}))
    config[key] = None  # a null key is missing, not refused
    assert key in str(bounds.bound_report(**config).inapplicable)
