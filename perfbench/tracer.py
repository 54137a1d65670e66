"""Spans and counters around the public functions of each agrepair layer.

The benchmark wraps the package from outside: `install` replaces every
public function listed in TIMED (and the scalar field operations in
COUNTED) wherever the package looks it up, so the code under test is not
changed.  Each timed call records a span (name, start, end, parent span,
op id) and updates per-function totals; each counted call only bumps a
counter, because scalar field operations run millions of times per op.

Totals are kept per phase ("setup" or "loop") so that per-op metrics are
taken over the loop only.  Spans are kept in memory up to a cap and
written out at the end; the totals are exact whatever the cap.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer -> public names; "Class.method" is patched on the class
TIMED = {
    "gf": ("FieldTower.mul_arr", "FieldTower.add_arr", "FieldTower.sub_arr",
           "FieldTower.trace_arr", "FieldTower.pow_arr"),
    "linalg": ("rref", "rank", "nullspace", "solve", "matmul", "matvec"),
    "codes": ("hermitian_curve", "hermitian_code", "rs_code", "augmented_generator",
              "encode", "encode_many", "erasure_decode", "erasure_decode_many",
              "vanishing_line", "vanishing_function", "dual_support_vector"),
    "repair": ("build_scheme", "helper_response", "reconstruct", "run_repair",
               "scheme_to_json", "transcript_to_json"),
    "sim": ("make_cluster", "fail_node", "repair_failed", "verify_cluster",
            "save_cluster", "load_cluster"),
    "cli": ("cmd_encode", "cmd_fail", "cmd_repair", "cmd_verify"),
}
COUNTED = {
    "gf": ("FieldTower.mul", "FieldTower.add", "FieldTower.trace",
           "FieldTower.inv", "FieldTower.div"),
}


def key_of(layer: str, name: str) -> str:
    """Trace key of a wrapped name: its layer plus the bare function name."""
    return f"{layer}.{name.split('.')[-1]}"


GF_KERNELS = tuple(key_of("gf", n) for n in TIMED["gf"])
GF_SCALARS = tuple(key_of("gf", n) for n in COUNTED["gf"])


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self, max_spans: int = 50_000):
        self.active = True
        self.phase = "setup"
        self.op = 0
        self.calls: dict = {}      # (phase, key) -> [calls, total_s, self_s]
        self.counts: Counter = Counter()  # (phase, name) -> value
        self.spans: list = []      # (id, parent, op, key, start, end)
        self.max_spans = max_spans
        self.span_total = 0
        self._stack: list = []     # [child_seconds, span_id] per open span
        self._next_id = 1

    def count(self, name: str, value=1) -> None:
        self.counts[(self.phase, name)] += value

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def timed(self, key: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tracer._close(key, span_id, parent, start, end, dur - frame[0])
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[(tracer.phase, key)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, key, span_id, parent, start, end, self_s):
        entry = self.calls.get((self.phase, key))
        if entry is None:
            entry = self.calls[(self.phase, key)] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        self.span_total += 1
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, self.op, key, start, end))

    # -- totals ---------------------------------------------------------

    def fired(self) -> set:
        """Keys called at least once, timed or counted, in any phase."""
        out = {k for (_, k), e in self.calls.items() if e[0]}
        out.update(k for (_, k), v in self.counts.items() if v and k in GF_SCALARS)
        return out

    def totals(self, phases=("setup", "loop")) -> dict:
        out: dict = {}
        for (phase, key), (n, tot, own) in self.calls.items():
            if phase in phases:
                e = out.setdefault(key, [0, 0.0, 0.0])
                e[0] += n
                e[1] += tot
                e[2] += own
        return out

    def counter(self, name: str, phases=("loop",)) -> float:
        return sum(self.counts.get((p, name), 0) for p in phases)

    def to_json(self) -> dict:
        return {
            "calls": [[p, k, *e] for (p, k), e in self.calls.items()],
            "counts": [[p, k, v] for (p, k), v in self.counts.items()],
            "span_total": self.span_total,
            "spans": self.spans,
        }

    def merge(self, payload: dict, proc: str) -> None:
        """Fold in the totals and spans a traced child process wrote."""
        for phase, key, n, tot, own in payload["calls"]:
            e = self.calls.setdefault((phase, key), [0, 0.0, 0.0])
            e[0] += n
            e[1] += tot
            e[2] += own
        for phase, key, v in payload["counts"]:
            self.counts[(phase, key)] += v
        self.span_total += payload["span_total"]
        room = self.max_spans - len(self.spans)
        for sid, parent, op, key, start, end in payload["spans"][:max(room, 0)]:
            self.spans.append((f"{proc}:{sid}", None if parent is None else f"{proc}:{parent}",
                               op, key, start, end))


# -- counters fed from the results of wrapped calls ------------------------

def _kernel_elems(tr, args, result):
    tr.count("gf.kernel_elems", getattr(result, "size", 1))


def _rref_cells(tr, args, result):
    rows, cols = getattr(args[1], "shape", (0, 0))
    tr.count("linalg.rref_cells", rows * cols)


def _scheme_counts(tr, args, scheme):
    tr.count("repair.helpers_requested", len(scheme.helpers))
    tr.count("repair.helpers_active", len(scheme.active))
    tr.count("repair.helpers_pruned", len(scheme.pruned))
    tr.count("repair.extra_zeros", len(scheme.extra_zeros))


def _transcript_counts(repair_mod):
    def after(tr, args, result):
        scheme, transcript = args[0], result[1]
        tr.count("repair.subsymbols", transcript.total_symbols)
        tr.count("repair.bits", transcript.total_bits)
        tr.count("repair.bound_bits",
                 repair_mod.bound_symbols(scheme) * scheme.bits_per_symbol())
    return after


def _state_bytes(tr, args, result):
    tr.count("sim.state_bytes_written", os.path.getsize(args[0]))


def install(tracer: Tracer):
    """Wrap every name in TIMED and COUNTED; returns a function undoing it.

    A module-level function is replaced in every loaded agrepair module that
    binds it (``repair`` imports several ``codes`` functions by name), and a
    FieldTower method on the class.  A listed name that no longer exists, or
    a binding left unwrapped, raises instead of being skipped.
    """
    import agrepair.cli  # noqa: F401  (loads every layer module)
    from agrepair import gf, repair

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "agrepair" or name.startswith("agrepair.")]
    afters = {
        **{k: _kernel_elems for k in GF_KERNELS},
        "linalg.rref": _rref_cells,
        "repair.build_scheme": _scheme_counts,
        "repair.run_repair": _transcript_counts(repair),
        "sim.save_cluster": _state_bytes,
    }
    undo = []
    originals = []
    for table, timed in ((TIMED, True), (COUNTED, False)):
        for layer, names in table.items():
            for name in names:
                key = key_of(layer, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(gf, cls_name)
                    fn = cls.__dict__[meth]
                    wrapped = (tracer.timed(key, fn, afters.get(key)) if timed
                               else tracer.counted(key, fn))
                    setattr(cls, meth, wrapped)
                    undo.append((cls, meth, fn))
                    originals.append((fn, key))
                    continue
                home = sys.modules[f"agrepair.{layer}"]
                fn = getattr(home, name)
                wrapped = tracer.timed(key, fn, afters.get(key))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, fn))
                originals.append((fn, key))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    left = [key for fn, key in originals
            for mod in modules + [gf.FieldTower]
            if any(v is fn for v in vars(mod).values())]
    if left:
        uninstall()
        raise RuntimeError(f"tracing left unwrapped bindings: {sorted(set(left))}")
    return uninstall


def write_json(path, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
