# Closed-form bandwidth and storage bounds, and the RS-vs-AG trade-off.

from fractions import Fraction

from agrepair import bounds

# every applicable formula for the flagship Hermitian configuration
report = bounds.bound_report(n=512, m=476, d=511, q=64, p=8, l=1, genus=28, rate=Fraction(7, 8))
print("flagship configuration (n=512, q=64, rate 7/8):")
for name, value, status, reason in report.rows():
    mark = f"{value:10.3f}" if status == "ok" else "       --- "
    print(f"  {name:26s} {mark}  {reason}")

# storage comparison: the code stores log2 q = 6 bits per node, an MSR code
# with the same length and rate would store
print("\nMSR-equivalent storage at rate 7/8 over GF(64):",
      bounds.msr_storage(Fraction(7, 8), 64), "bits (vs 6 stored)")

# fixed-rate comparison at rate 1/2: binary-subfield RS versus an AG code
# over the constant alphabet GF(25)
cmp = bounds.rs_ag_comparison(25, 0.5)
print("\nrate-1/2 comparison, per helper:")
print(f"  RS over a growing field : {cmp['rs_bits_per_helper']:.3f} bits")
print(f"  AG code over GF(25)     : {cmp['ag_bits_per_helper']:.3f} bits"
      f"  ({cmp['ratio']:.2f}x, but the alphabet never grows)")

# the strong d-helper row degenerates to the full-length one at d = n-1, and
# each row is applicable exactly when the repair rule accepts s = m - 1
for q, p, l, n, m in [(64, 8, 1, 512, 476), (16, 2, 2, 64, 40)]:
    rep = bounds.bound_report(n=n, m=m, d=n - 1, q=q, p=p, l=l)
    a, b = rep.values["hermitian_strong"], rep.values["hermitian_full"]
    print(f"\nq={q}, l={l}: d=(n-1) strong bound {a:g} == full-length bound {b:g}")
rep = bounds.bound_report(n=512, m=301, d=362, q=64, p=8, l=1)
print("s=300 from 362 helpers:", rep.inapplicable["hermitian_strong"])
