"""Tests of the benchmark itself, on tiny shapes: Hermitian over GF(16), n = 64.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from agrepair import codes, repair  # noqa: E402
from agrepair.gf import FieldElement  # noqa: E402

Shape = workloads.Shape
TINY = {
    "flagship-stripes": Shape(4, 2, 64, 55, 8),
    "subhelper-plan": Shape(4, 2, 64, 20, 4, line_d=40, weak_d=50),
    "cli-flagship": Shape(4, 2, 64, 55, 4),
    "cli-4096": Shape(4, 2, 64, 55, 4),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(name, tmp_path, trace=False, seed=3, seconds=0):
    return workloads.run_workload(name, seed, seconds, trace, tmp_path, shape=TINY[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_every_metric(name, tmp_path):
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    plain = run_tiny(name, tmp_path)
    assert (plain["correct"], plain["failed"]) == (True, 0), plain["report"]["failures"]
    assert plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run_tiny(name, tmp_path, trace=True)
    assert traced["report"]["wrappers_missing"] == []
    assert traced["correct"], traced["report"]["failures"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert traced["report"]["fingerprint"] == plain["report"]["fingerprint"]
    assert list(tmp_path.glob("work-*")) == []


def test_full_repairs_download_exact_counts(tmp_path):
    res = run_tiny("flagship-stripes", tmp_path)
    shape = TINY["flagship-stripes"]
    assert shape.full_symbols == 63
    assert res["metrics"]["repair_bits_mean"]["value"] == 63 * 2


def test_same_seed_repeats_bits_and_fingerprint_at_any_run_length(tmp_path):
    a = run_tiny("subhelper-plan", tmp_path, seed=5)
    b = run_tiny("subhelper-plan", tmp_path, seed=5, seconds=1)
    c = run_tiny("subhelper-plan", tmp_path, seed=6)
    assert b["attempted"] > a["attempted"] == workloads.SubhelperPlan.exact_ops
    assert a["report"]["fingerprint"] == b["report"]["fingerprint"] != c["report"]["fingerprint"]
    assert a["metrics"]["repair_bits_mean"] == b["metrics"]["repair_bits_mean"]


def test_gate_rejects_wrong_symbol_and_count():
    assert workloads.gate(5, 5, 63, 126.0, 4, exact=63) == []
    assert workloads.gate(5, 5, 40, 80.0, 4, at_most=41) == []
    assert "rebuilt symbol 6 != withheld 5" in workloads.gate(6, 5, 63, 126.0, 4, exact=63)
    assert workloads.gate(5, 5, 64, 128.0, 4, exact=63) == [
        "downloaded 64 sub-symbols, expected 63"]
    assert workloads.gate(5, 5, 42, 84.0, 4, at_most=41) == ["downloaded 42 sub-symbols, bound 41"]
    assert workloads.gate(5, 5, 63, 127.0, 4, exact=63) == [
        "reported 127.0 bits for 63 sub-symbols over GF(4)"]


def _wrong_symbol(orig):
    def run_repair(scheme, symbols):
        value, transcript = orig(scheme, symbols)
        return FieldElement(value.tower, value.code ^ 1), transcript
    return run_repair


def _excess_subsymbols(orig):
    def run_repair(scheme, symbols):
        value, transcript = orig(scheme, symbols)
        n = transcript.total_symbols + len(scheme.helpers) * scheme.t  # over every bound
        return value, dataclasses.replace(
            transcript, total_symbols=n, total_bits=n * scheme.bits_per_symbol())
    return run_repair


@pytest.mark.parametrize("name", ["flagship-stripes", "subhelper-plan"])
@pytest.mark.parametrize("fault, reason", [(_wrong_symbol, "rebuilt symbol"),
                                           (_excess_subsymbols, "sub-symbols, ")])
def test_wrong_results_are_failed_ops_not_crashes(name, fault, reason, tmp_path, monkeypatch):
    monkeypatch.setattr(repair, "run_repair", fault(repair.run_repair))
    res = run_tiny(name, tmp_path)
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] >= 1
    assert res["report"]["failed_frac"] == 1.0
    assert reason in res["report"]["failures"][0]["reasons"][0]


def test_raising_op_is_a_failed_op(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise codes.DualVectorError("injected")

    monkeypatch.setattr(repair, "build_scheme", boom)
    res = run_tiny("subhelper-plan", tmp_path)
    assert res["failed"] == res["attempted"] == workloads.SubhelperPlan.exact_ops
    assert "injected" in res["report"]["failures"][0]["reasons"][0]


def test_install_wraps_every_binding_and_undoes_it():
    from agrepair import gf, linalg

    originals = (codes.dual_support_vector, repair.dual_support_vector,
                 linalg.rref, gf.FieldTower.mul_arr)
    assert codes.dual_support_vector is repair.dual_support_vector
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert repair.dual_support_vector is codes.dual_support_vector
        assert repair.dual_support_vector.__wrapped__ is originals[0]
        assert linalg.rref.__wrapped__ is originals[2]
        assert gf.FieldTower.mul_arr.__wrapped__ is originals[3]
    finally:
        uninstall()
    assert (codes.dual_support_vector, repair.dual_support_vector,
            linalg.rref, gf.FieldTower.mul_arr) == originals


def test_spans_nest_and_self_time_excludes_children():
    tr = tracing.Tracer()

    def inner():
        return 1

    inner_w = tr.timed("linalg.inner", inner)
    outer_w = tr.timed("codes.outer", lambda: inner_w() + inner_w())
    tr.phase, tr.op = "loop", 7
    assert outer_w() == 2
    (a, pa, opa, ka, *_), (b, pb, *_), (c, pc, opc, kc, *_) = tr.spans
    assert (ka, kc) == ("linalg.inner", "codes.outer")
    assert pa == pb == c and pc is None and opa == opc == 7
    calls, total, own = tr.totals()["codes.outer"]
    assert calls == 1 and own < total
    with tr.paused():
        outer_w()
    assert tr.span_total == 3
