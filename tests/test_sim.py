import json
import os
import subprocess
import sys
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


def _failed(node, repaired=False):
    cl = small_cluster()
    sim.fail_node(cl, node)
    if repaired:
        sim.repair_failed(cl)
    return cl


LIBRARY_CALLS = {  # each builds a cluster, or is refused with a ValueError
    "fail-np.int64": lambda: _failed(np.int64(3)),
    "fail-np.int64-repaired": lambda: _failed(np.int64(3), repaired=True),
    "fail-True": lambda: _failed(True),
    "fail-np.True_": lambda: _failed(np.True_),
    "fail-1.0": lambda: _failed(1.0),
    "fail-list": lambda: _failed([1, 2]),
    "seed-np.int64": lambda: small_cluster(seed=np.int64(9)),
}


@pytest.mark.parametrize("call", LIBRARY_CALLS.values(), ids=LIBRARY_CALLS.keys())
def test_every_state_an_accepted_call_leaves_loads(tmp_path, call):
    try:
        cl = call()
    except ValueError:
        return  # refused: there is no state to save
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    back = sim.load_cluster(path)
    assert back.failed == cl.failed and back.seed == cl.seed
    assert np.array_equal(back.nodes, cl.nodes) and np.array_equal(back.stripes, cl.stripes)


def test_cluster_arrays_are_field_codes_held_narrow():
    """A Cluster keeps its arrays in the tower's code dtype; a code outside
    the field is refused by name, not wrapped (256 would be 0 as uint8)."""
    code = codes.rs_code(tower(2, 8), k=2, n=4)
    msgs = np.array([[1, 255]])
    cl = sim.Cluster(code, msgs, codes.encode_many(code, msgs), seed=0, withheld=np.array([7]))
    for arr in (cl.stripes, cl.nodes, cl.withheld):
        assert arr.dtype == np.uint8
    assert np.array_equal(cl.stripes, msgs)
    with pytest.raises(ValueError, match=r"^cluster stripes entry \[0, 1\] is 256, outside GF\(256\)$"):
        sim.Cluster(code, np.array([[1, 256]]), cl.nodes, seed=0)
    with pytest.raises(ValueError, match="^cluster nodes dtype float64, not an integer dtype$"):
        sim.Cluster(code, msgs, cl.nodes.astype(float), seed=0)


def test_save_is_atomic_when_the_write_fails(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    sim.save_cluster(path, small_cluster())
    before = path.read_bytes()
    cl = small_cluster()
    sim.fail_node(cl, 2)

    def broken_fsync(fd):  # the new bytes are already in the temporary file
        raise OSError("disk full")

    monkeypatch.setattr(sim.os, "fsync", broken_fsync)
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


@pytest.mark.parametrize("position", [0, 40, 41, 63])
def test_verify_reports_a_corrupted_hermitian_symbol_as_a_mismatch(position):
    """k < threshold on a Hermitian code, so a corrupted symbol among the
    first threshold live positions makes them match no codeword: that is a
    mismatch, as a corruption beyond them is, not an error."""
    code = codes.hermitian_code(codes.hermitian_curve(tower(4, 2)), s=40)
    cl = sim.make_cluster(code, 2, seed=3)
    assert sim.verify_cluster(cl)
    cl.nodes[1, position] ^= 1
    assert sim.verify_cluster(cl) is False


def test_golden_stripe_fixture():
    """Hand-written 4-node stripe for f = g*x over GF(4)."""
    cl = sim.load_cluster(DATA / "rs4_stripe.json")
    assert cl.code.kind == "rs" and cl.n == 4
    assert cl.stripes.tolist() == [[0, 2]]
    assert cl.nodes.tolist() == [[0, 2, 3, 1]]
    assert sim.verify_cluster(cl)
    decoded = codes.erasure_decode(cl.code, [(0, 0), (1, 2)])
    assert decoded.symbols.tolist() == [0, 2, 3, 1]


GOLDEN_BYTES = (
    b'{"code": {"kind": "rs", "monomials": [0, 1], "p": 2, "points": [[0, 0], [1, 0], [0, 1], '
    b'[1, 1]], "s": 1, "t": 2}, "failed": null, "nodes": [[[0, 0]], [[0, 1]], [[1, 1]], '
    b'[[1, 0]]], "schema_version": 1, "seed": 0, "stripes": [[[0, 0], [0, 1]]], '
    b'"withheld": null}\n'
)


def test_golden_stripe_round_trip_is_stable(tmp_path):
    src = DATA / "rs4_stripe.json"
    cl = sim.load_cluster(src)
    out = tmp_path / "copy.json"
    sim.save_cluster(out, cl)
    assert out.read_bytes() == GOLDEN_BYTES
    assert json.loads(out.read_text()) == json.loads(src.read_text())
    sim.save_cluster(out, sim.load_cluster(out))
    assert out.read_bytes() == GOLDEN_BYTES


def _reference_text(cl):
    """The state file text as save_cluster wrote it before the word table:
    the whole state as nested lists through one json.dumps."""
    tw = cl.code.tower
    state = {
        "schema_version": sim.SCHEMA_VERSION,
        "code": sim._code_payload(cl.code),
        "seed": cl.seed,
        "stripes": tw.digits_arr(cl.stripes).tolist(),
        "nodes": tw.digits_arr(cl.nodes.T).tolist(),
        "failed": cl.failed,
        "withheld": None if cl.withheld is None else tw.digits_arr(cl.withheld).tolist(),
    }
    return json.dumps(state, sort_keys=True) + "\n"


@pytest.mark.parametrize("failed", [None, 0, 5], ids=["live", "failed-0", "failed-5"])
@pytest.mark.parametrize("stripes", [0, 1, 6])
@pytest.mark.parametrize("code", [
    codes.rs_code(tower(2, 2), k=2, n=4),
    codes.rs_code(tower(3, 2), k=4),
    codes.rs_code(tower(2, 8), k=9, n=40),
    codes.hermitian_code(codes.hermitian_curve(tower(4, 2)), s=40),
    codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=9),
], ids=["rs-q4", "rs-q9", "rs-q256", "hermitian-q16", "hermitian-q9"])
def test_saved_bytes_match_json_dumps(tmp_path, code, stripes, failed):
    cl = sim.make_cluster(code, stripes, seed=11)
    if failed is not None:
        sim.fail_node(cl, failed % code.n)
    path = tmp_path / "state.json"
    sim.save_cluster(path, cl)
    assert path.read_bytes() == _reference_text(cl).encode()
    back = sim.load_cluster(path)
    sim.save_cluster(path, back)
    assert path.read_bytes() == _reference_text(cl).encode()
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def _set(state, path, value):
    obj = state
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


CORRUPTIONS = [  # (where, new value, expected message)
    (("nodes", 0, 0, 0), 5, r"nodes: invalid digit vector \[5, \d\] for GF\(4\)"),
    (("nodes", 0, 0, 0), -1, r"nodes: invalid digit vector \[-1, \d\] for GF\(4\)"),
    (("nodes", 0, 0, 0), "3", "nodes holds '3'; digits must be JSON integers"),
    (("nodes", 0, 0, 0), 2.0, "nodes holds 2.0; digits must be JSON integers"),
    (("nodes", 0, 0, 0), 1.5, "nodes holds 1.5; digits must be JSON integers"),
    (("nodes", 0, 0, 0), None, "nodes holds None; digits must be JSON integers"),
    (("nodes", 0, 0, 0), True, "nodes holds True; digits must be JSON integers"),
    (("nodes", 0, 0, 0), 2 ** 70, "nodes: .*too large"),
    (("stripes", 0), [[0], [1]], r"stripes must have shape \(None, 2, 2\), got \(1, 2, 1\)"),
    (("stripes", 0), [[0, 1]], r"stripes must have shape \(None, 2, 2\), got \(1, 1, 2\)"),
    (("nodes", 0, 0), [1], "nodes is a ragged array"),
    (("nodes", 1), [[0, 0], [0, 0]], "nodes is a ragged array"),
    (("code", "points", 2), [0, 1, 0], "code points is a ragged array"),
]


def test_corrupt_digit_rejected(tmp_path):
    path = tmp_path / "state.json"
    sim.save_cluster(path, small_cluster(stripes=1))
    good = path.read_text()
    for where, value, match in CORRUPTIONS:
        state = json.loads(good)
        _set(state, where, value)
        path.write_text(json.dumps(state))
        with pytest.raises(sim.StateFormatError, match=match):
            sim.load_cluster(path)


def _reference_state(cluster):
    """The per-symbol writer the state format was defined with."""
    code, tw = cluster.code, cluster.code.tower

    def dig(v):
        return list(tw.digits(int(v)))

    payload = {"kind": code.kind, "p": tw.p, "t": tw.t, "s": code.s,
               "monomials": [list(m) if isinstance(m, tuple) else m for m in code.monomials]}
    if code.kind == "rs":
        payload["points"] = [dig(v) for v in code.points]
    else:
        payload["r"] = code.curve.r
        payload["points"] = [[dig(a), dig(b)] for a, b in code.points]
    return {
        "schema_version": 1,
        "code": payload,
        "seed": cluster.seed,
        "stripes": [[dig(v) for v in row] for row in cluster.stripes],
        "nodes": [[dig(v) for v in row] for row in cluster.nodes.T],
        "failed": cluster.failed,
        "withheld": None if cluster.withheld is None else [dig(v) for v in cluster.withheld],
    }


def _reference_arrays(state):
    """The per-symbol reader: the stored code arrays, nodes stripe-major."""
    p, t = state["code"]["p"], state["code"]["t"]

    def undig(digits):
        assert len(digits) == t and all(type(d) is int and 0 <= d < p for d in digits)
        return sum(d * p ** i for i, d in enumerate(digits))

    def conv(value):
        return undig(value) if type(value[0]) is int else [conv(v) for v in value]

    return {
        "points": np.asarray(conv(state["code"]["points"]), dtype=np.int64),
        "stripes": np.asarray(conv(state["stripes"]), dtype=np.int64),
        "nodes": np.asarray(conv(state["nodes"]), dtype=np.int64).T,
        "withheld": np.asarray(conv(state["withheld"]), dtype=np.int64),
    }


@pytest.mark.parametrize("code,node", [
    (codes.rs_code(tower(3, 2), k=4), 5),
    (codes.hermitian_code(codes.hermitian_curve(tower(3, 2)), s=9), 13),
], ids=["rs", "hermitian"])
def test_array_codec_matches_per_symbol_reference(tmp_path, code, node):
    cl = sim.make_cluster(code, 5, seed=17)
    sim.fail_node(cl, node)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    sim.save_cluster(new, cl)
    reference = _reference_state(cl)
    old.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    assert json.loads(new.read_text()) == json.loads(old.read_text()) == reference
    for path in (new, old):
        back = sim.load_cluster(path)
        ref = _reference_arrays(json.loads(path.read_text()))
        assert np.array_equal(back.code.points, ref["points"])
        assert np.array_equal(back.code.points, cl.code.points)
        for name in ("stripes", "nodes", "withheld"):
            assert np.array_equal(getattr(back, name), ref[name])
            assert np.array_equal(getattr(back, name), getattr(cl, name))
        assert back.failed == node


def test_hermitian_points_must_prefix_the_canonical_enumeration(tmp_path):
    code = codes.hermitian_code(codes.hermitian_curve(tower(2, 2)), s=3)
    path = tmp_path / "state.json"
    sim.save_cluster(path, sim.make_cluster(code, 1, seed=3))
    good = json.loads(path.read_text())
    for points in (good["code"]["points"] + good["code"]["points"][:1],  # 9 of 8
                   [], good["code"]["points"][::-1]):
        state = json.loads(json.dumps(good))
        state["code"]["points"] = points
        path.write_text(json.dumps(state))
        with pytest.raises(sim.StateFormatError,
                           match="stored point list does not match the canonical enumeration"):
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


_RS_PATH_SCRIPT = """
import sys
from agrepair import codes, linalg, sim
from agrepair.gf import tower
code = codes.rs_code(tower(2, 4), k=8, n=16)
linalg.nullspace(code.tower, code.generator[:, :12])
codes.erasure_decode(code, [(j, 0) for j in range(8)])
sim.save_cluster(sys.argv[1], sim.make_cluster(code, 3, seed=1))
assert sim.verify_cluster(sim.load_cluster(sys.argv[1]))
print("numpy.ma" in sys.modules)
"""


def test_rs_path_does_not_import_numpy_ma(tmp_path):
    """numpy's set routines import numpy.ma on their first call, which a
    fresh CLI process pays; building an RS code, `nullspace`, erasure
    decoding and an RS state round trip avoid them."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _RS_PATH_SCRIPT, str(tmp_path / "s.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
