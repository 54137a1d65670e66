# The generic (weak) repair path on the Hermitian curve with r = 3.
#
# Instead of the vanishing line (pole order r+1), the scheme picks any
# nonzero function with pole order <= genus+1 vanishing at the failed
# point.  Such a function may vanish at up to `genus` other points; those
# helpers must ship their whole symbol, so only the total bandwidth is
# bounded: genus*log q + (d - genus)*(log q - l*log p).

import numpy as np

from agrepair import codes, repair
from agrepair.gf import tower

f9 = tower(3, 2)
curve = codes.hermitian_curve(f9)
code = codes.hermitian_code(curve, s=9)
print(f"r=3 curve: {curve.points.shape[0]} points, genus {curve.genus}; code k={code.k}")

rng = np.random.default_rng(33)
stored = codes.encode(code, rng.integers(0, 9, size=code.k))

failed = 11
d = 26
scheme = repair.build_scheme(code, failed, l=1, variant=repair.VARIANT_WEAK)
print("extra zeros of h_i (helpers that send full symbols):", scheme.extra_zeros)
print("per-helper symbol counts:", sorted(np.diff(scheme.start)[list(scheme.active)].tolist()))

value, transcript = repair.run_repair(scheme, stored.symbols)
assert value.code == stored.symbols[failed]

bound = code.genus * f9.t + (d - code.genus) * (f9.t - 1)
print(f"downloaded {transcript.total_symbols} GF(3) symbols; bound {bound}")
print(f"= {transcript.total_bits:.2f} bits vs bound {bound * np.log2(3):.2f} bits")

# strong repair via the vanishing line needs smaller dimension but downloads
# uniformly; compare on the same helper set where both apply
small = codes.hermitian_code(curve, s=9)
line_scheme = repair.build_scheme(small, failed, l=1, variant=repair.VARIANT_LINE)
_, line_tr = repair.run_repair(line_scheme, stored.symbols)
print(f"line variant on the same code: {line_tr.total_symbols} symbols, all helpers equal")
