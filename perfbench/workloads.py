"""The benchmark's four workloads, its closed loop and the exactness gate.

Every workload is a closed loop with one client: the next op starts when
the previous one ends, as for an operator repairing one failed node at a
time.  All inputs (cluster contents, failed nodes, helper sets, the variant
interleave) come from the run's seed.  Every op passes the exactness gate:
an op fails if it raises, exits non-zero, rebuilds a wrong symbol or
downloads a wrong number of sub-symbols, and failed ops are counted, not
fatal.  The gate and the transcript fingerprint run outside the timed part
of each op and are not traced.

CLI workloads run each command as a child process, one at a time, as users
do; traced runs start the children through `cli_child.py`, which installs
the same wrappers before calling `agrepair.cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "cli_child.py"
SETUP_REPEATS = 3        # at least this many set-ups per run ...
SETUP_MIN_S = 1.5        # ... and more, up to SETUP_MAX_REPEATS, until this much time
SETUP_MAX_REPEATS = 50
CHILD_TIMEOUT_S = 150
LINE, WEAK = "hermitian-line", "hermitian-weak"


@dataclass(frozen=True)
class Shape:
    """One Hermitian configuration: GF(p**t) over GF(p), length n, pole degree s."""

    p: int
    t: int
    n: int
    s: int
    stripes: int
    line_d: int = 0   # sub-helper ops: helpers per hermitian-line repair
    weak_d: int = 0   # sub-helper ops: helpers per hermitian-weak repair

    @property
    def full_symbols(self) -> int:
        """Sub-symbols of a full-helper-set repair with l = 1."""
        return (self.n - 1) * (self.t - 1)


SHAPES = {
    # GF(64)/GF(8), n = 512, rate 7/8: the paper's 1533-bit repair
    "flagship-stripes": Shape(8, 2, 512, 475, 256),
    "subhelper-plan": Shape(8, 2, 512, 300, 256, line_d=400, weak_d=505),
    "cli-flagship": Shape(8, 2, 512, 475, 64),
    # GF(256)/GF(16), n = 4096, rate 7/8: a generator larger than the L3 cache
    "cli-4096": Shape(16, 2, 4096, 3703, 8),
}

# wrapped names each workload must reach; a traced run fails if one never fires
_CORE = {
    "gf.mul_arr", "gf.add_arr", "gf.sub_arr", "gf.pow_arr",
    "gf.mul", "gf.add", "gf.trace", "gf.inv",
    "linalg.rref", "linalg.rank", "linalg.solve", "linalg.matmul",
    "codes.hermitian_curve", "codes.hermitian_code", "codes.encode_many",
    "repair.build_scheme", "repair.run_repair", "repair.helper_response",
    "repair.reconstruct",
}
_CLUSTER = {"codes.vanishing_line", "sim.make_cluster", "sim.fail_node", "sim.repair_failed"}
_CLI = _CLUSTER | {"cli.cmd_encode", "cli.cmd_fail", "cli.cmd_repair",
                   "sim.save_cluster", "sim.load_cluster", "repair.transcript_to_json"}
MUST_FIRE = {
    "flagship-stripes": _CORE | _CLUSTER,
    "subhelper-plan": _CORE | {
        "gf.div", "linalg.nullspace", "linalg.matvec", "codes.vanishing_line",
        "codes.vanishing_function", "codes.augmented_generator",
        "codes.dual_support_vector"},
    "cli-flagship": _CORE | _CLI | {
        "cli.cmd_verify", "sim.verify_cluster", "codes.erasure_decode_many"},
    "cli-4096": _CORE | _CLI,
}


def gate(rebuilt, withheld, symbols: int, bits: float, p: int,
         exact: int | None = None, at_most: int | None = None) -> list:
    """Reasons one repaired symbol fails the exactness gate (empty: passed)."""
    reasons = []
    if rebuilt != withheld:
        reasons.append(f"rebuilt symbol {rebuilt} != withheld {withheld}")
    if exact is not None and symbols != exact:
        reasons.append(f"downloaded {symbols} sub-symbols, expected {exact}")
    if at_most is not None and symbols > at_most:
        reasons.append(f"downloaded {symbols} sub-symbols, bound {at_most}")
    if bits != symbols * math.log2(p):
        reasons.append(f"reported {bits} bits for {symbols} sub-symbols over GF({p})")
    return reasons


@dataclass
class OpResult:
    seconds: float
    timed: bool = True        # False for warm-up ops
    stripes: int = 0          # stripes restored
    bits: float = 0.0         # downloaded bits, summed over repaired symbols
    repaired: int = 0         # repaired symbols
    reasons: list = field(default_factory=list)


class _Workload:
    block = 1      # the loop ends only on a multiple of this many ops
    warmup = 0     # ops run and checked before the clock starts
    exact_ops = 4  # leading ops (warm-up included) that define the fingerprint
                   # and repair_bits_mean, so both repeat exactly per seed;
                   # every run does at least this many

    def __init__(self, shape: Shape, seed: int, tracer, work: Path):
        self.shape = shape
        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.rng = np.random.default_rng([seed, 1])
        self.digest = hashlib.sha256()

    def quiet(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def fingerprint(self, payload) -> None:
        self.digest.update(json.dumps(payload).encode())

    def extra(self) -> dict:
        return {}


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------


class _Library(_Workload):
    # the first ops of a process allocate fresh memory and run up to 3x slower;
    # an operator's long-lived process pays that once, so it is not timed
    warmup = 1

    def setup(self) -> None:
        from agrepair import codes, gf, sim

        sh = self.shape
        gf.tower.cache_clear()  # each repeat pays for the tower, as a fresh process does
        curve = codes.hermitian_curve(gf.tower(sh.p, sh.t))
        self.code = codes.hermitian_code(curve, sh.s, sh.n)
        self.cluster = sim.make_cluster(self.code, sh.stripes, self.seed)
        self.truth = self.cluster.nodes.copy()

    def recover(self) -> None:
        self.cluster.nodes[:] = self.truth
        self.cluster.failed = None
        self.cluster.withheld = None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class FlagshipStripes(_Library):
    """Fail a seeded node, then `sim.repair_failed` over every stripe."""

    def op(self, i: int) -> OpResult:
        from agrepair import repair, sim

        sh = self.shape
        target = int(self.rng.integers(sh.n))
        t0 = time.perf_counter()
        sim.fail_node(self.cluster, target)
        records = sim.repair_failed(self.cluster, l=1)
        res = OpResult(time.perf_counter() - t0)
        with self.quiet():
            if len(records) != sh.stripes:
                res.reasons.append(f"{len(records)} records for {sh.stripes} stripes")
            restored = self.cluster.nodes[:, target]
            for rec in records:
                res.reasons += gate(int(restored[rec.stripe]), int(self.truth[rec.stripe, target]),
                                    rec.symbols, rec.bits, sh.p, exact=sh.full_symbols)
                res.bits += rec.bits
                if i < self.exact_ops:
                    self.fingerprint(repair.transcript_to_json(rec.transcript))
            res.repaired = len(records)
            res.stripes = 0 if res.reasons else len(records)
        return res


class SubhelperPlan(_Library):
    """One stripe per op from a random helper subset, three hermitian-line
    ops (d = line_d) to one hermitian-weak op (d = weak_d) in every block of
    four, the weak op at a seeded place in its block."""

    block = warmup = 4
    exact_ops = 32

    def op(self, i: int) -> OpResult:
        from agrepair import repair

        sh = self.shape
        if i % self.block == 0:
            self.weak_slot = int(self.rng.integers(self.block))
        weak = i % self.block == self.weak_slot
        variant, d = (WEAK, sh.weak_d) if weak else (LINE, sh.line_d)
        target = int(self.rng.integers(sh.n))
        others = np.delete(np.arange(sh.n), target)
        helpers = sorted(int(j) for j in self.rng.choice(others, size=d, replace=False))
        word = self.cluster.nodes[i % sh.stripes].copy()
        withheld = int(word[target])
        word[target] = 0
        t0 = time.perf_counter()
        scheme = repair.build_scheme(self.code, target, helpers=helpers, l=1, variant=variant)
        value, transcript = repair.run_repair(scheme, word)
        res = OpResult(time.perf_counter() - t0)
        with self.quiet():
            if weak:
                limit = {"at_most": repair.bound_symbols(scheme)}
            else:
                limit = {"exact": len(scheme.active) * (sh.t - 1)}
            res.reasons += gate(value.code, withheld, transcript.total_symbols,
                                transcript.total_bits, sh.p, **limit)
            res.bits, res.repaired = transcript.total_bits, 1
            res.stripes = 0 if res.reasons else 1
            if i < self.exact_ops:
                self.fingerprint(repair.scheme_to_json(scheme))
                self.fingerprint(repair.transcript_to_json(transcript))
        return res


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


class CliCycle(_Workload):
    """A cycle of `fail` -> `repair --report` [-> `verify`] on one state file."""

    verify = False

    def __init__(self, shape, seed, tracer, work):
        super().__init__(shape, seed, tracer, work)
        self.config = work / "cluster.json"
        self.state = work / "state.json"
        self.report = work / "report.json"
        r = math.isqrt(shape.p ** shape.t)
        self.config.write_text(json.dumps({
            "kind": "hermitian", "p": shape.p, "t": shape.t, "r": r, "s": shape.s,
            "n": shape.n, "l": 1, "seed": seed, "stripes": shape.stripes}))
        src = str(HERE.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env.pop("AGREPAIR_OUTPUT_DIR", None)
        self.env = env
        self.step_s = {"fail": [], "repair": [], "verify": []}
        self.children = 0

    def _run(self, args, op: int, phase: str):
        """Run one CLI command to completion; returns (exit code, seconds, stderr)."""
        self.children += 1
        if self.tracer:
            out = self.work / f"child-{self.children}.json"
            cmd = [sys.executable, str(CHILD), "--trace-out", str(out), "--op", str(op),
                   "--phase", phase, "--", *args]
        else:
            cmd = [sys.executable, "-m", "agrepair.cli", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if self.tracer and out.exists():
            with self.quiet():
                self.tracer.merge(json.loads(out.read_text()), proc=f"{op}-{args[0]}")
            out.unlink()
        return proc.returncode, dt, proc.stderr

    def setup(self) -> None:
        rc, _, err = self._run(["encode", "--config", str(self.config), "--state", str(self.state)],
                               op=0, phase="setup")
        if rc != 0:
            raise RuntimeError(f"encode exited {rc}: {err.strip()[-300:]}")
        self.truth = json.loads(self.state.read_text())["nodes"]

    recover = setup

    def op(self, i: int) -> OpResult:
        sh = self.shape
        target = int(self.rng.integers(sh.n))
        st = str(self.state)
        steps = [("fail", ["fail", "--state", st, "--node", str(target)]),
                 ("repair", ["repair", "--state", st, "--report", str(self.report)])]
        if self.verify:
            steps.append(("verify", ["verify", "--state", st]))
        res = OpResult(0.0)
        for name, args in steps:
            rc, dt, err = self._run(args, op=i + 1, phase="loop")
            res.seconds += dt
            self.step_s[name].append(dt)
            if rc != 0:
                res.reasons.append(f"{name} exited {rc}: {err.strip()[-300:]}")
                return res
        with self.quiet():
            self._check(i, target, res)
        return res

    def _check(self, i: int, target: int, res: OpResult) -> None:
        sh = self.shape
        payload = json.loads(self.report.read_text())
        state = json.loads(self.state.read_text())
        records = payload["records"]
        if len(records) != sh.stripes:
            res.reasons.append(f"{len(records)} records for {sh.stripes} stripes")
        if state["failed"] is not None:
            res.reasons.append(f"node {state['failed']} still failed after repair")
        rebuilt = state["nodes"][target]
        for rec in records:
            s = rec["stripe"]
            res.reasons += gate(rebuilt[s], self.truth[target][s], rec["symbols"],
                                rec["bits"], sh.p, exact=sh.full_symbols)
            if rec["equal"] is not True:
                res.reasons.append(f"stripe {s}: report says equal={rec['equal']}")
            res.bits += rec["bits"]
        for tr in payload["transcripts"]:
            if tr["total_symbols"] != sh.full_symbols:
                res.reasons.append(f"transcript of {tr['total_symbols']} sub-symbols")
        if state["nodes"] != self.truth:
            res.reasons.append("state file differs from the encoded cluster after repair")
        if i < self.exact_ops:
            self.fingerprint(payload["transcripts"])
        res.repaired = len(records)
        res.stripes = 0 if res.reasons else len(records)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def process_start_s(self) -> float:
        """Median wall time of a fresh interpreter importing agrepair.cli."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import agrepair.cli"], env=self.env,
                           check=True, timeout=CHILD_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def extra(self) -> dict:
        p50 = {k: statistics.median(v) * 1e3 for k, v in self.step_s.items() if v}
        return {"step_ms_p50": p50, **({"verify_ms_p50": p50["verify"]} if "verify" in p50 else {})}


class CliFlagship(CliCycle):
    verify = True


WORKLOADS = {
    "flagship-stripes": FlagshipStripes,
    "subhelper-plan": SubhelperPlan,
    "cli-flagship": CliFlagship,
    "cli-4096": CliCycle,
}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, shape: Shape | None = None) -> dict:
    """Set up `name` several times, warm up, then run ops for `seconds`.

    Returns the contract fields (correct, attempted, failed, metrics) plus a
    `report` dict with the per-run details the metrics leave out.
    """
    shape = shape or SHAPES[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir()
    tracer = tracing.Tracer() if trace else None
    uninstall = tracing.install(tracer) if tracer else None
    try:
        wl = WORKLOADS[name](shape, seed, tracer, work)
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or (
                sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)

        ops: list[OpResult] = []
        failures = []

        def run_op() -> None:
            i = len(ops)
            if tracer:
                tracer.phase, tracer.op = "loop", i + 1
            t0 = time.perf_counter()
            try:
                res = wl.op(i)
            except Exception as exc:  # a raising op is a failed op, not a crash
                res = OpResult(time.perf_counter() - t0, reasons=[f"raised {exc!r}"])
                with wl.quiet():
                    wl.recover()
            res.timed = i >= wl.warmup
            ops.append(res)
            if res.reasons:
                failures.append({"op": i, "reasons": res.reasons[:5]})

        while len(ops) < wl.warmup:
            run_op()
        start = time.perf_counter()
        while True:
            run_op()
            if (time.perf_counter() - start >= seconds and len(ops) >= wl.exact_ops
                    and len(ops) % wl.block == 0):
                break
        process_start_s = wl.process_start_s() if trace and isinstance(wl, CliCycle) else 0.0
        peak_rss_mb = wl.peak_rss_mb()
    finally:
        if uninstall:
            uninstall()
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in ops if r.reasons)
    timed = [r for r in ops if r.timed]
    # a failed op counts as missing every latency target: time passing ops only
    lat_ms = sorted(r.seconds * 1e3 for r in timed if not r.reasons) or \
        sorted(r.seconds * 1e3 for r in timed)
    exact = ops[:wl.exact_ops]
    repaired = sum(r.repaired for r in exact)
    stripes_per_s = sum(r.stripes for r in timed) / sum(r.seconds for r in timed)
    report = {
        "workload": name,
        "seed": seed,
        "ops": len(ops),
        "failed_frac": failed / len(ops),
        "failures": failures[:10],
        "fingerprint": wl.digest.hexdigest(),
        # too few samples for a percentile above the median with ten samples
        # beyond it, so the tail is the slowest op of the run
        "repair_ms_tail_pct": 100,
        "repair_samples": len(lat_ms),
        "repair_ms_min": lat_ms[0],
        "repair_ms_tail": lat_ms[-1],
        "stripes_per_s": stripes_per_s,
        "op_ms": [round(r.seconds * 1e3, 3) for r in ops],
        "setup_s_samples": setup_s,
        **wl.extra(),
    }
    correct = failed == 0
    if tracer:
        missing = sorted(MUST_FIRE[name] - tracer.fired())
        report["wrappers_missing"] = missing
        correct = correct and not missing
        metrics = layer_metrics(tracer, len(ops), process_start_s, statistics.median(lat_ms),
                                stripes_per_s)
        report["trace_file"] = str(out_dir / f"trace-{name}-{seed}.json")
        report["spans_recorded"] = tracer.span_total
        report["spans_kept"] = len(tracer.spans)
        report["layer_totals"] = {k: v for k, v in sorted(tracer.totals().items())}
        tracing.write_json(report["trace_file"], {"report": report, **tracer.to_json()})
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "repair_ms_p50": (statistics.median(lat_ms), "ms"),
            "repair_bits_mean": (sum(r.bits for r in exact) / repaired if repaired else 0.0, "bits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": report,
    }


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------

# name -> unit; "_s" metrics named after a function are seconds per call over
# the whole traced run (set-up included), layer `self_s`/`kernel_s` and
# counts are per op of the loop (warm-up ops included), ratios are ratios of
# loop totals
LAYER_UNITS = {
    "gf.kernel_calls": "count", "gf.kernel_elems": "count", "gf.kernel_s": "s",
    "gf.scalar_calls": "count",
    "linalg.rref_calls": "count", "linalg.rref_s": "s", "linalg.rref_cells": "count",
    "linalg.rank_calls": "count", "linalg.matmul_calls": "count", "linalg.matmul_s": "s",
    "linalg.self_s": "s",
    "codes.construct_s": "s", "codes.encode_many_s": "s", "codes.erasure_decode_many_s": "s",
    "codes.augmented_generator_s": "s", "codes.dual_support_vector_s": "s",
    "codes.vanishing_function_s": "s", "codes.self_s": "s",
    "repair.build_scheme_calls": "count", "repair.build_scheme_s": "s",
    "repair.helper_response_s": "s", "repair.reconstruct_s": "s",
    "repair.subsymbols": "count", "repair.helpers_requested": "count",
    "repair.helpers_active": "count", "repair.helpers_pruned": "count",
    "repair.active_ratio": "ratio", "repair.bits_over_bound": "ratio",
    "repair.extra_zeros": "count", "repair.self_s": "s",
    "sim.make_cluster_s": "s", "sim.repair_failed_s": "s", "sim.verify_s": "s",
    "sim.saves": "count", "sim.loads": "count", "sim.save_s": "s", "sim.load_s": "s",
    "sim.state_bytes_written": "bytes", "sim.self_s": "s",
    "cli.encode_s": "s", "cli.fail_s": "s", "cli.repair_s": "s", "cli.verify_s": "s",
    "cli.process_start_s": "s", "cli.self_s": "s",
    "trace.repair_ms_p50": "ms", "trace.stripes_per_s": "1/s", "trace.spans": "count",
}


def layer_metrics(tracer, ops: int, process_start_s: float, repair_ms_p50: float,
                  stripes_per_s: float) -> dict:
    loop = tracer.totals(("loop",))
    every = tracer.totals()
    zero = (0, 0.0, 0.0)

    def per_call(*keys, per=None):
        calls = sum(every.get(k, zero)[0] for k in (per or keys))
        return sum(every.get(k, zero)[1] for k in keys) / calls if calls else 0.0

    def calls_per_op(*keys):
        return sum(loop.get(k, zero)[0] for k in keys) / ops

    def self_per_op(layer):
        return sum(e[2] for k, e in loop.items() if k.startswith(layer + ".")) / ops

    def count(name):
        return tracer.counter(name) / ops

    def ratio(num, den):
        d = tracer.counter(den)
        return tracer.counter(num) / d if d else 0.0

    values = {
        "gf.kernel_calls": calls_per_op(*tracing.GF_KERNELS),
        "gf.kernel_elems": count("gf.kernel_elems"),
        "gf.kernel_s": self_per_op("gf"),
        "gf.scalar_calls": sum(tracer.counter(k) for k in tracing.GF_SCALARS) / ops,
        "linalg.rref_calls": calls_per_op("linalg.rref"),
        "linalg.rref_s": per_call("linalg.rref"),
        "linalg.rref_cells": count("linalg.rref_cells"),
        "linalg.rank_calls": calls_per_op("linalg.rank"),
        "linalg.matmul_calls": calls_per_op("linalg.matmul"),
        "linalg.matmul_s": per_call("linalg.matmul"),
        "codes.construct_s": per_call("codes.hermitian_curve", "codes.hermitian_code",
                                      "codes.rs_code",
                                      per=("codes.hermitian_code", "codes.rs_code")),
        "codes.encode_many_s": per_call("codes.encode_many"),
        "codes.erasure_decode_many_s": per_call("codes.erasure_decode_many"),
        "codes.augmented_generator_s": per_call("codes.augmented_generator"),
        "codes.dual_support_vector_s": per_call("codes.dual_support_vector"),
        "codes.vanishing_function_s": per_call("codes.vanishing_function"),
        "repair.build_scheme_calls": calls_per_op("repair.build_scheme"),
        "repair.build_scheme_s": per_call("repair.build_scheme"),
        "repair.helper_response_s": per_call("repair.helper_response"),
        "repair.reconstruct_s": per_call("repair.reconstruct"),
        "repair.subsymbols": count("repair.subsymbols"),
        "repair.helpers_requested": count("repair.helpers_requested"),
        "repair.helpers_active": count("repair.helpers_active"),
        "repair.helpers_pruned": count("repair.helpers_pruned"),
        "repair.active_ratio": ratio("repair.helpers_active", "repair.helpers_requested"),
        "repair.bits_over_bound": ratio("repair.bits", "repair.bound_bits"),
        "repair.extra_zeros": count("repair.extra_zeros"),
        "sim.make_cluster_s": per_call("sim.make_cluster"),
        "sim.repair_failed_s": per_call("sim.repair_failed"),
        "sim.verify_s": per_call("sim.verify_cluster"),
        "sim.saves": calls_per_op("sim.save_cluster"),
        "sim.loads": calls_per_op("sim.load_cluster"),
        "sim.save_s": per_call("sim.save_cluster"),
        "sim.load_s": per_call("sim.load_cluster"),
        "sim.state_bytes_written": count("sim.state_bytes_written"),
        "cli.encode_s": per_call("cli.cmd_encode"),
        "cli.fail_s": per_call("cli.cmd_fail"),
        "cli.repair_s": per_call("cli.cmd_repair"),
        "cli.verify_s": per_call("cli.cmd_verify"),
        "cli.process_start_s": process_start_s,
        "trace.repair_ms_p50": repair_ms_p50,
        "trace.stripes_per_s": stripes_per_s,
        "trace.spans": tracer.span_total,
    }
    for layer in ("linalg", "codes", "repair", "sim", "cli"):
        values[f"{layer}.self_s"] = self_per_op(layer)
    return {k: (values[k], u) for k, u in LAYER_UNITS.items()}
