import json
from pathlib import Path

import numpy as np
import pytest

from agrepair import codes, sim
from agrepair.gf import tower

DATA = Path(__file__).parent / "data"


def small_cluster(stripes=3, seed=7):
    rs = codes.rs_code(tower(2, 2), k=2, n=4)
    return sim.make_cluster(rs, stripes, seed=seed)


def test_cluster_nodes_are_codewords():
    cl = small_cluster()
    assert np.array_equal(codes.encode_many(cl.code, cl.stripes), cl.nodes)
    assert sim.verify_cluster(cl)


def test_save_load_round_trip(tmp_path):
    cl = small_cluster()
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    back = sim.load_cluster(path)
    assert np.array_equal(back.nodes, cl.nodes)
    assert np.array_equal(back.stripes, cl.stripes)
    assert back.seed == cl.seed and back.failed is None


def test_save_load_with_failure(tmp_path):
    cl = small_cluster()
    sim.fail_node(cl, 2)
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    back = sim.load_cluster(path)
    assert back.failed == 2
    assert np.array_equal(back.withheld, cl.withheld)
    assert (back.nodes[:, 2] == 0).all()


def test_save_is_atomic_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    sim.save_cluster(path, small_cluster())
    before = path.read_bytes()
    cl = small_cluster()
    sim.fail_node(cl, 2)

    def broken_dump(obj, fh, **kwargs):
        fh.write('{"schema_version": ')
        raise OSError("disk full")

    monkeypatch.setattr(sim.json, "dump", broken_dump)
    with pytest.raises(OSError, match="disk full"):
        sim.save_cluster(path, cl)
    monkeypatch.undo()
    assert path.read_bytes() == before
    back = sim.load_cluster(path)
    assert back.failed is None and np.array_equal(back.nodes, small_cluster().nodes)
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_fail_repair_verify_cycle():
    cl = small_cluster()
    original = cl.nodes.copy()
    sim.fail_node(cl, 1)
    with pytest.raises(ValueError):
        sim.fail_node(cl, 3)  # only one failure at a time
    records = sim.repair_failed(cl, l=1)
    assert all(r.equal for r in records)
    assert all(r.symbols == 3 and r.bits == 3.0 for r in records)
    assert np.array_equal(cl.nodes, original)
    assert cl.failed is None
    assert sim.verify_cluster(cl)


def test_repair_without_failure_is_an_error():
    cl = small_cluster()
    with pytest.raises(ValueError, match="nothing to repair"):
        sim.repair_failed(cl)


def test_hermitian_cluster_cycle():
    code = codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=9)
    cl = sim.make_cluster(code, 2, seed=5)
    sim.fail_node(cl, 13)
    records = sim.repair_failed(cl, l=1)
    assert all(r.equal for r in records)
    assert sim.verify_cluster(cl)


def test_golden_stripe_fixture():
    """Hand-written 4-node stripe for f = g*x over GF(4)."""
    cl = sim.load_cluster(DATA / "rs4_stripe.json")
    assert cl.code.kind == "rs" and cl.n == 4
    assert cl.stripes.tolist() == [[0, 2]]
    assert cl.nodes.tolist() == [[0, 2, 3, 1]]
    assert sim.verify_cluster(cl)
    decoded = codes.erasure_decode(cl.code, [(0, 0), (1, 2)])
    assert decoded.symbols.tolist() == [0, 2, 3, 1]


def test_golden_stripe_round_trip_is_stable(tmp_path):
    src = DATA / "rs4_stripe.json"
    cl = sim.load_cluster(src)
    out = tmp_path / "copy.json"
    sim.save_cluster(out, cl)
    assert json.loads(out.read_text()) == json.loads(src.read_text())


def test_corrupt_digit_rejected(tmp_path):
    cl = small_cluster(stripes=1)
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    state = json.loads(path.read_text())
    state["nodes"][0][0][0] = 5  # digit >= p
    path.write_text(json.dumps(state))
    with pytest.raises(sim.StateFormatError, match="digit"):
        sim.load_cluster(path)


def test_schema_version_mismatch(tmp_path):
    cl = small_cluster(stripes=1)
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    state = json.loads(path.read_text())
    state["schema_version"] = 99
    path.write_text(json.dumps(state))
    with pytest.raises(sim.StateFormatError, match="expected 1, got 99"):
        sim.load_cluster(path)


def test_non_codeword_state_rejected(tmp_path):
    cl = small_cluster(stripes=1)
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    state = json.loads(path.read_text())
    sym = state["nodes"][0][0]
    sym[0] = 1 - sym[0]
    path.write_text(json.dumps(state))
    with pytest.raises(sim.StateFormatError, match="codewords"):
        sim.load_cluster(path)


def test_download_accounting_matches_transcripts():
    """Reported bits are exactly sum over helpers of |response| * log2 p."""
    code = codes.hermitian_code(codes.hermitian_curve(tower(2, 4)), s=20)
    cl = sim.make_cluster(code, 1, seed=3)
    sim.fail_node(cl, 40)
    records = sim.repair_failed(cl, l=2)
    rec = records[0]
    assert rec.bits == rec.symbols * 1.0  # log2(2)
    assert rec.bits <= rec.bound_bits


def test_deterministic_for_fixed_seed():
    a = small_cluster(stripes=4, seed=123)
    b = small_cluster(stripes=4, seed=123)
    assert np.array_equal(a.nodes, b.nodes)
    c = small_cluster(stripes=4, seed=124)
    assert not np.array_equal(a.nodes, c.nodes)
