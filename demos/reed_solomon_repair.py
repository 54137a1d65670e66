# Reed-Solomon node repair with sub-symbol downloads.
#
# A full-length RS code over GF(16) stores one symbol (4 bits) per node.
# Naive repair ships k = 8 whole symbols = 32 bits.  The trace scheme with
# l = 3 downloads a single bit from each of the 15 other nodes instead.

import numpy as np

from agrepair import codes, repair
from agrepair.gf import tower

f16 = tower(2, 4)
code = codes.rs_code(f16, k=8, n=16)
print(f"RS code: n={code.n}, k={code.k}, rate {code.k / code.n}")

rng = np.random.default_rng(1)
message = rng.integers(0, 16, size=code.k)
stored = codes.encode(code, message)
print("stored symbols:", stored.symbols.tolist())

failed = 6
scheme = repair.build_scheme(code, failed, l=3)
first = scheme.active[0]
print(f"repairing node {failed}: each helper sends "
      f"{scheme.start[first + 1] - scheme.start[first]} bit(s)")

value, transcript = repair.run_repair(scheme, stored.symbols)
print("downloaded bits:", transcript.total_bits, " (naive would ship",
      code.threshold * 4, "bits)")
print("responses:", {j: list(r) for j, r in sorted(transcript.responses.items())})
assert value.code == stored.symbols[failed]
print("rebuilt symbol", value.code, "== stored symbol", int(stored.symbols[failed]))

# the same protocol with fewer helpers: d = 12, l = 2
scheme = repair.build_scheme(code, failed, helpers=[j for j in range(12) if j != failed] + [13], l=2)
value, transcript = repair.run_repair(scheme, stored.symbols)
assert value.code == stored.symbols[failed]
print(f"d={len(scheme.helpers)}, l=2: {transcript.total_bits} bits "
      f"({transcript.total_symbols} bit-symbols, 2 per helper)")
