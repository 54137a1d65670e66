"""Closed-form repair-bandwidth and storage bounds.

Every function evaluates one closed-form bound; `bound_report` evaluates all
of them for a parameter tuple, checking each formula's stated precondition
and marking it inapplicable (with the reason) instead of guessing outside
its range.  Rational sub-expressions are evaluated with Fraction before any
float enters, and logs are base-2 64-bit reals; callers comparing values
should allow 1e-9.

Symbols: n nodes, m the determination threshold s + 1 (k for RS: any m
coordinates rebuild a codeword), d the helper count, q the symbol alphabet,
p the subfield the downloads live in, l the dimension of the linearized
map's kernel, bits = log2(q) the stored bits per node.  A row a repair
variant achieves is applicable exactly when `repair.check_precondition`
accepts s = m - 1, at the pole order `repair.pole_order` gives the
variant; for the RS and Hermitian rows that rule also asks for
a code with room for the helpers (d <= n - 1, n <= q for RS and n <= r**3
on the curve over GF(r**2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .gf import integer
from .repair import (VARIANT_LINE, VARIANT_RS, VARIANT_WEAK, RepairPreconditionError,
                     check_precondition)


def cutset_bound(d: int, m: int, bits: float) -> float:
    """Flow bound for MSR-style repair: B >= d * bits / (d - m + 1)."""
    if m < 1 or d < m:
        raise ValueError(f"requires d >= m >= 1, got d={d}, m={m}")
    return float(Fraction(d, d - m + 1)) * bits


def naive_bounds(n: int, delta: int, delta_perp: int, bits: float) -> tuple[float, float]:
    """(privacy bound, reconstruction bound).

    Privacy: B >= delta_perp - 2 + bits; any fewer sub-symbol downloads leave
    the secret coordinate uniformly distributed.  Reconstruction:
    B >= n - delta + 1 (at least one bit per node that can matter), clamped
    at zero for degenerate codes.
    """
    if not (1 <= delta <= n + 1) or not (1 <= delta_perp <= n + 1):
        raise ValueError("distances must lie in [1, n+1]")
    return float(delta_perp - 2 + bits), float(max(0, n - delta + 1))


def linear_repair_lb(n: int, delta_perp: int) -> float:
    """Lower bound for any subfield-linear repair: (n-1) * log2((n-1)/(delta_perp-1))."""
    if delta_perp < 2:
        raise ValueError(f"requires dual distance >= 2, got {delta_perp}")
    return (n - 1) * math.log2(Fraction(n - 1, delta_perp - 1))


def linear_repair_lb_ag(n: int, k: int, genus: int) -> float:
    """The same bound with the designed dual distance n - k + genus - 2 plugged in."""
    dp = n - k + genus - 2
    if dp < 1:
        raise ValueError("designed dual distance term must be >= 1")
    return (n - 1) * math.log2(Fraction(n - 1, dp))


def linear_repair_lb_asymptotic(n: int, q: int, tau: float) -> float:
    """Asymptote of the linear-repair bound in the rate regime
    eps = 2**((tau - 1/2) * log2 q): B >~ (n-1) * (1/2 - tau) * log2 q."""
    return (n - 1) * (0.5 - tau) * math.log2(q)


def weak_ag_bandwidth(d: int, q: int, genus: int, l: int, p: int) -> float:
    """Weak repair over any curve: B = d*log2 q - (d - genus)*l*log2 p."""
    return d * math.log2(q) - (d - genus) * l * math.log2(p)


def _root(q: int) -> int:
    """sqrt(q), refusing a field size that is not a square."""
    root = math.isqrt(q)
    if root * root != q:
        raise ValueError(f"needs a square field size, got q={q}")
    return root


def msr_storage(rate: Fraction | float, q: int) -> float:
    """Per-node storage an MSR code of the same length and rate needs:
    rate / (rate + 1/sqrt(q)) * log2 q, for a square q."""
    root = _root(q)
    r = Fraction(rate).limit_denominator(10 ** 9) if not isinstance(rate, Fraction) else rate
    return float(r / (r + Fraction(1, root))) * math.log2(q)


def tower_full_bandwidth(n: int, q: int, eps: float) -> float:
    """Full-helper bandwidth of the rate-(1-eps) tower construction:
    (n-1) * (log2(q)/2 + log2(1/eps))."""
    return (n - 1) * (math.log2(q) / 2 + math.log2(1 / eps))


def tower_full_interval(q: int, p: int) -> tuple[float, float]:
    """Validity interval (p/(sqrt(q)-1), 1 - 1/(sqrt(q)-1)) for the rate gap eps.

    May be empty for small q; `bound_report` reports the formula as
    inapplicable in that case rather than extrapolating.
    """
    root = _root(q)
    return p / (root - 1), 1 - 1 / (root - 1)


def strong_bandwidth(d: int, q: int, l: int, p: int) -> float:
    """Strong repair (RS, or Hermitian from d helpers): B = d*(log2 q - l*log2 p)."""
    return d * (math.log2(q) - l * math.log2(p))


def rs_ag_comparison(q: int, eps: float) -> dict:
    """The fixed-rate comparison table: RS over a growing alphabet versus a
    tower code over the constant alphabet GF(q), both at rate 1 - eps.

    Per-helper bits: RS side log2(1/eps); AG side (log2 q + log2(1/eps))/2.
    Note the AG figure halves the whole sum, where `tower_full_bandwidth`
    halves only the alphabet term; this is the benchmark variant.
    """
    rs = math.log2(1 / eps)
    ag = (math.log2(q) + math.log2(1 / eps)) / 2
    return {
        "rs_bits_per_helper": rs,
        "ag_bits_per_helper": ag,
        "ratio": ag / rs,
    }


@dataclass
class BoundReport:
    """Named bound evaluations for one parameter tuple.

    values maps output name -> float; inapplicable maps output name ->
    human-readable reason (missing inputs or a violated precondition).
    """

    inputs: dict
    values: dict = dc_field(default_factory=dict)
    inapplicable: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "values": self.values,
            "inapplicable": self.inapplicable,
        }

    def rows(self):
        """(name, value, status, reason) rows with stable ordering."""
        out = []
        for name in sorted(self.values):
            out.append((name, self.values[name], "ok", ""))
        for name in sorted(self.inapplicable):
            out.append((name, "", "inapplicable", self.inapplicable[name]))
        return out


_REPORT_INPUTS = (
    "n", "m", "d", "q", "p", "l", "genus", "e",
    "delta", "delta_perp", "eps", "tau", "rate", "k",
)
_REAL_INPUTS = ("eps", "tau", "rate")


def bound_report(**config) -> BoundReport:
    """Evaluate every applicable bound for the given parameters.

    Accepted keys: n, m, d, q, p, l, genus, e, delta, delta_perp, eps, tau,
    rate, k.  Unknown keys are rejected, and so is a value that is not an
    integer passing `gf.integer` (p and q at least 2, the rest at least 0)
    or, for eps, tau and rate, an int, float or Fraction; None marks a key
    as missing.  Each output is computed when its inputs are present and
    its precondition holds.
    """
    unknown = set(config) - set(_REPORT_INPUTS)
    if unknown:
        raise ValueError(f"unknown parameters: {sorted(unknown)}")
    c = dict(config)
    for key, value in c.items():
        if value is None:
            continue
        if key not in _REAL_INPUTS:
            c[key] = integer(value, None, f"parameter {key!r} is {{0}}, {{1}}",
                             low=2 if key in ("p", "q") else 0)
        elif isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise ValueError(f"parameter {key!r} must be a real number, got {value!r}")
    report = BoundReport(inputs=c)

    def have(*keys):
        return all(c.get(k) is not None for k in keys)

    def emit(name, fn, *keys):
        """values[name] = fn() once every key is present; a violated
        precondition (fn raising) makes the reason inapplicable[name]."""
        if not have(*keys):
            report.inapplicable[name] = f"missing inputs: {[k for k in keys if c.get(k) is None]}"
            return
        try:
            report.values[name] = fn()
        except (ValueError, RepairPreconditionError) as exc:
            report.inapplicable[name] = str(exc)

    bits = math.log2(c["q"]) if c.get("q") else None

    emit("cutset", lambda: cutset_bound(c["d"], c["m"], bits), "d", "m", "q")
    emit(
        "privacy_naive",
        lambda: naive_bounds(c["n"], c["delta"], c["delta_perp"], bits)[0],
        "n", "delta", "delta_perp", "q",
    )
    emit(
        "reconstruction_naive",
        lambda: naive_bounds(c["n"], c["delta"], c["delta_perp"], bits)[1],
        "n", "delta", "delta_perp", "q",
    )
    emit("linear_repair", lambda: linear_repair_lb(c["n"], c["delta_perp"]), "n", "delta_perp")
    emit("linear_repair_ag", lambda: linear_repair_lb_ag(c["n"], c["k"], c["genus"]), "n", "k", "genus")
    emit(
        "linear_repair_asymptotic",
        lambda: linear_repair_lb_asymptotic(c["n"], c["q"], c["tau"]),
        "n", "q", "tau",
    )
    emit("msr_storage_equiv", lambda: msr_storage(c["rate"], c["q"]), "rate", "q")

    def tower_full():
        lo, hi = tower_full_interval(c["q"], c["p"])
        if not lo < c["eps"] < hi:
            raise ValueError(f"eps={c['eps']} outside the validity interval ({lo:.4g}, {hi:.4g})")
        return tower_full_bandwidth(c["n"], c["q"], c["eps"])

    emit("tower_full", tower_full, "n", "q", "eps", "p")

    # the rows a repair variant achieves: each asks the repair rule about s = m - 1
    def repairable(variant, d, l, genus, r=None, n=None, complete=None):
        check_precondition(variant, c["m"] - 1, d, l, c["p"], genus, r, n, complete)
        if variant == VARIANT_WEAK:
            return weak_ag_bandwidth(d, c["q"], genus, l, c["p"])
        return strong_bandwidth(d, c["q"], l, c["p"])

    def rs(d, l):
        return repairable(VARIANT_RS, d, l, 0, None, c.get("n"), c["q"])

    def rs_subfield():  # full-length RS with the largest proper kernel, l = log_p(q) - 1
        top = next((l for l in range(c["q"].bit_length()) if c["p"] ** (l + 1) == c["q"]), None)
        if c["n"] != c["q"] or top is None:
            raise ValueError(f"requires n = q, a power of p: n={c['n']}, q={c['q']}, p={c['p']}")
        return rs(c["n"] - 1, top)

    def hermitian(d, n):  # the vanishing line on the curve over GF(r**2), genus r*(r-1)/2
        r = _root(c["q"])
        return repairable(VARIANT_LINE, d, c["l"], r * (r - 1) // 2, r, n, r ** 3)

    def weak(genus, name):
        if 2 * genus > c["m"]:
            raise ValueError(f"requires 2*{name} <= m: m={c['m']}, {name}={genus}")
        return repairable(VARIANT_WEAK, c["d"], c["l"], genus)

    emit("rs_strong", lambda: rs(c["d"], c["l"]), "d", "q", "l", "p", "m")
    emit("rs_subfield", rs_subfield, "n", "p", "q", "m")
    emit("hermitian_strong", lambda: hermitian(c["d"], c.get("n")), "d", "q", "l", "p", "m")
    emit("hermitian_full", lambda: hermitian(c["n"] - 1, c["n"]), "n", "q", "l", "p", "m")
    emit("weak_ag", lambda: weak(c["genus"], "genus"), "d", "q", "genus", "l", "p", "m")

    def tower():  # the weak form on the recursive-tower codes, genus term q**(e/2)
        genus = _root(c["q"]) ** c["e"]
        if c["p"] ** c["l"] > c["q"]:
            raise ValueError(f"requires l <= log_p q: p**l={c['p'] ** c['l']}, q={c['q']}")
        return weak(genus, "q**(e/2)")

    emit("tower", tower, "d", "q", "e", "l", "p", "m")

    return report
