import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from agrepair import cli

RS_CONFIG = {
    "kind": "rs", "p": 2, "t": 4, "k": 8, "n": 16,
    "l": 3, "seed": 11, "stripes": 2, "trials": 4,
}
HERM_CONFIG = {
    "kind": "hermitian", "p": 2, "t": 4, "r": 4, "s": 8, "n": 64,
    "l": 1, "seed": 2, "trials": 6, "helpers": {"policy": "random", "d": 14},
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_params_json_and_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 16, "m": 8, "d": 15, "q": 16, "p": 2, "l": 3, "genus": 0})
    assert cli.main(["params", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"]["rs_subfield"] == 15.0
    out = tmp_path / "report.csv"
    assert cli.main(["params", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "name,value,status,reason"
    assert any(line.startswith("rs_subfield,15.0,ok") for line in rows)


@pytest.mark.parametrize("config,named", [
    ({"q": "64"}, "parameter 'q' is '64', not an integer"),
    ({"q": True, "d": 15, "m": 8}, "parameter 'q' is True, not an integer"),
    ({"n": 2.5}, "parameter 'n' is 2.5, not an integer"),
    ({"eps": "0.5"}, "parameter 'eps' must be a real number"),
])
def test_params_bad_values_exit_2(tmp_path, capsys, config, named):
    assert cli.main(["params", "--config", write_config(tmp_path, config)]) == 2
    assert named in capsys.readouterr().err


def test_encode_fail_repair_verify_flow(tmp_path, capsys):
    cfg = write_config(tmp_path, RS_CONFIG)
    state = str(tmp_path / "state.json")
    assert cli.main(["encode", "--config", cfg, "--state", state]) == 0
    assert cli.main(["repair", "--state", state, "--l", "3"]) == 2  # nothing failed yet
    assert "nothing to repair" in capsys.readouterr().err
    assert cli.main(["fail", "--state", state, "--node", "5"]) == 0
    report = str(tmp_path / "report.json")
    assert cli.main(["repair", "--state", state, "--l", "3", "--report", report]) == 0
    payload = json.loads(Path(report).read_text())
    assert payload["config"]["kind"] == "rs" and payload["config"]["n"] == 16
    assert all(r["equal"] and r["symbols"] == 15 for r in payload["records"])
    for tr in payload["transcripts"]:
        assert tr["total_symbols"] == 15
        assert all(len(resp) == 1 for resp in tr["responses"].values())
    assert cli.main(["verify", "--state", state]) == 0


def test_out_of_range_failed_node_is_a_state_error(tmp_path, capsys):
    cfg = write_config(tmp_path, RS_CONFIG)
    state = tmp_path / "state.json"
    assert cli.main(["encode", "--config", cfg, "--state", str(state)]) == 0
    payload = json.loads(state.read_text())
    for bad in (RS_CONFIG["n"], -1, True, "3", [1, 2]):
        state.write_text(json.dumps(dict(payload, failed=bad)))
        for cmd in (["verify"], ["repair", "--l", "3"]):
            assert cli.main([*cmd, "--state", str(state)]) == 2
            assert f"failed node {bad!r} out of range for n=16" in capsys.readouterr().err


DROP = object()


def nest(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def disagreeing_withheld(payload):
    """Node 5 failed, its withheld symbols each one digit off the stored ones."""
    return dict(payload, failed=5, withheld=[[1 - d[0], *d[1:]] for d in payload["nodes"][5]])


@pytest.mark.parametrize("config,where,value,named", [
    (RS_CONFIG, ("nodes",), DROP, "state has no 'nodes' field"),
    (RS_CONFIG, ("code",), DROP, "state has no 'code' field"),
    (RS_CONFIG, ("code", "p"), DROP, "code has no 'p' field"),
    (RS_CONFIG, (), [], "state must be a JSON object, got list"),
    (RS_CONFIG, ("nodes", 0, 0, 0), None, "nodes holds None"),
    (RS_CONFIG, ("nodes",), 5, "nodes must be an array, got int"),
    (RS_CONFIG, ("code", "kind"), "reed-solomon",
     "code kind must be 'rs' or 'hermitian', got 'reed-solomon'"),
    (RS_CONFIG, ("code", "s"), "7", "code field 's' must be an integer, got '7'"),
    (RS_CONFIG, ("seed",), None, "state field 'seed' must be an integer, got None"),
    (RS_CONFIG, ("seed",), [1, 2], "state field 'seed' must be an integer, got [1, 2]"),
    (RS_CONFIG, ("code", "monomials"), [5, 6], "code field 'monomials' disagrees with the code"),
    (RS_CONFIG, ("code", "monomials"), DROP, "code has no 'monomials' field"),
    (HERM_CONFIG, ("code", "r"), 3, "code field 'r' disagrees with the code"),
    (HERM_CONFIG, ("code", "monomials", 1), [0, 1], "code field 'monomials' disagrees"),
    (RS_CONFIG, ("code", "p"), 6,
     "code fields 'p' and 't': base order p=6 is not a prime power"),
    (RS_CONFIG, ("code", "s"), 40, "code field 's': k=41 exceeds length n=16"),
    (RS_CONFIG, ("code", "t"), 20000000,
     "code fields 'p' and 't': field size p**t with p=2, t=20000000 exceeds the supported "
     "cap 65536"),
    (RS_CONFIG, ("code", "p"), 100000000000031,
     "code fields 'p' and 't': field size p**t with p=100000000000031, t=4 exceeds the "
     "supported cap 65536"),
    (HERM_CONFIG, ("code", "t"), 3,
     "code fields 'p' and 't': Hermitian curve needs a square field size, got q=8"),
    (HERM_CONFIG, ("code", "s"), 64,
     "code field 's': pole degree s=64 must be below the length n=64"),
    (RS_CONFIG, ("code", "points", 1), [0, 0, 0, 0], "code points are not pairwise distinct"),
    (RS_CONFIG, ("withheld",), [[0, 0, 0, 0]] * 2,
     "state field 'withheld' must be null when no node has failed"),
    (RS_CONFIG, ("failed",), 5,
     "state field 'withheld' is absent or null, but node 5 has failed"),
    (RS_CONFIG, (), disagreeing_withheld, "withheld symbols disagree with the encoded stripes"),
    (RS_CONFIG, ("stripes",), nest(0, 100), "stripes must have shape (None, 8, 4), got (1, 1, "),
], ids=["no-nodes", "no-code", "no-code-p", "top-level-list", "null-digit", "nodes-int",
        "unknown-kind", "string-s", "null-seed", "list-seed", "wrong-monomials", "no-monomials",
        "wrong-r", "swapped-monomial", "p-not-prime-power", "s-too-large", "t-beyond-cap",
        "p-beyond-cap",
        "non-square-field", "pole-too-large", "repeated-point",
        "withheld-but-live", "failed-without-withheld", "withheld-disagrees",
        "stripes-nested-100-deep"])
def test_malformed_state_is_a_state_error(tmp_path, capsys, config, where, value, named):
    cfg = write_config(tmp_path, config)
    state = tmp_path / "state.json"
    assert cli.main(["encode", "--config", cfg, "--state", str(state)]) == 0
    payload = json.loads(state.read_text())
    if not where:
        payload = value(payload) if callable(value) else value
    else:
        obj = payload
        for key in where[:-1]:
            obj = obj[key]
        if value is DROP:
            del obj[where[-1]]
        else:
            obj[where[-1]] = value
    state.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["verify", "--state", str(state)]) == 2
    assert named in capsys.readouterr().err


def test_zero_stripe_state_cycle(tmp_path):
    cfg = write_config(tmp_path, dict(RS_CONFIG, stripes=0))
    state, report = str(tmp_path / "state.json"), tmp_path / "report.json"
    for cmd in (["encode", "--config", cfg], ["verify"], ["fail", "--node", "5"],
                ["repair", "--l", "3", "--report", str(report)], ["verify"]):
        assert cli.main([*cmd, "--state", state]) == 0, cmd
    assert json.loads(report.read_text())["records"] == []
    payload = json.loads(Path(state).read_text())
    assert payload["stripes"] == [] and payload["nodes"] == [[]] * RS_CONFIG["n"]


def test_bench_csv_schema(tmp_path):
    cfg = write_config(tmp_path, RS_CONFIG)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(cli.BENCH_COLUMNS)
    assert len(rows) == RS_CONFIG["trials"]
    for row in rows:
        assert row["equal"] == "True"
        assert row["symbols"] == "15"
        assert row["bits"] == "15.0" and row["bound_bits"] == "15.0"


def test_bench_random_helper_policy(tmp_path):
    cfg = write_config(tmp_path, HERM_CONFIG)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == HERM_CONFIG["trials"]
    for row in rows:
        assert row["d"] == "14" and row["equal"] == "True"
        assert row["bound_bits"] == "42.0"  # d * (t - l) bits at p = 2
        assert float(row["bits"]) == int(row["symbols"]) <= 42
    # t - l = 3 per helper where the lightest dual row is nonzero, 4 to 8 of the 14
    assert [row["symbols"] for row in rows] == ["24", "21", "12", "24", "18", "24"]


def test_bench_deterministic_per_seed(tmp_path):
    cfg = write_config(tmp_path, HERM_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["bench", "--config", cfg, "--out", str(out1)])
    cli.main(["bench", "--config", cfg, "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_output_dir_override(tmp_path, monkeypatch):
    outdir = tmp_path / "sandbox"
    outdir.mkdir()
    monkeypatch.setenv("AGREPAIR_OUTPUT_DIR", str(outdir))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, RS_CONFIG)
    assert cli.main(["encode", "--config", cfg, "--state", "state.json"]) == 0
    assert (outdir / "state.json").exists()


# each command exits 2 naming the file it could not read or write; {dir} is
# a directory holding deep.json (nested 100 000 arrays deep), bad.json (not
# UTF-8), rs.json (RS_CONFIG) and bounds.json (a params config)
FILE_ERRORS = {
    "fail-missing-state": ("fail --state {dir}/none.json --node 1",
                           "cannot read state {dir}/none.json: [Errno 2]"),
    "repair-missing-state": ("repair --state {dir}/none.json", "cannot read state {dir}/none.json"),
    "verify-missing-state": ("verify --state {dir}/none.json", "cannot read state {dir}/none.json"),
    "verify-directory-state": ("verify --state {dir}", "cannot read state {dir}: "),
    "verify-deep-state": ("verify --state {dir}/deep.json",
                          "cannot read state {dir}/deep.json: maximum recursion depth"),
    "verify-non-utf8-state": ("verify --state {dir}/bad.json",
                              "cannot read state {dir}/bad.json: 'utf-8' codec"),
    "encode-deep-config": ("encode --config {dir}/deep.json --state {dir}/s.json",
                           "cannot read config {dir}/deep.json: maximum recursion depth"),
    "bench-deep-config": ("bench --config {dir}/deep.json", "cannot read config {dir}/deep.json"),
    "params-deep-config": ("params --config {dir}/deep.json", "cannot read config {dir}/deep.json"),
    "encode-state-in-missing-dir": ("encode --config {dir}/rs.json --state {dir}/nodir/s.json",
                                    "cannot write {dir}/nodir/s.json: No such file or directory"),
    "params-out-in-missing-dir": ("params --config {dir}/bounds.json --out {dir}/nodir/p.json",
                                  "cannot write {dir}/nodir/p.json"),
    "bench-out-in-missing-dir": ("bench --config {dir}/rs.json --out {dir}/nodir/b.csv",
                                 "cannot write {dir}/nodir/b.csv"),
}


@pytest.mark.parametrize("argv,named", FILE_ERRORS.values(), ids=FILE_ERRORS.keys())
def test_unreadable_and_unwritable_files_exit_2_naming_the_path(tmp_path, capsys, argv, named):
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (tmp_path / "bad.json").write_bytes(b'{"schema_version": "\xff"}')
    write_config(tmp_path, dict(RS_CONFIG, trials=1), "rs.json")
    write_config(tmp_path, {"n": 16, "m": 8, "d": 15, "q": 16, "p": 2, "l": 3}, "bounds.json")
    assert cli.main([arg.format(dir=tmp_path) for arg in argv.split()]) == 2
    assert named.format(dir=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_unwritable_report_exits_2_after_the_state_is_repaired(tmp_path, capsys):
    cfg = write_config(tmp_path, RS_CONFIG)
    state = str(tmp_path / "state.json")
    assert cli.main(["encode", "--config", cfg, "--state", state]) == 0
    encoded = Path(state).read_bytes()
    assert cli.main(["fail", "--state", state, "--node", "5"]) == 0
    report = tmp_path / "nodir" / "r.json"
    assert cli.main(["repair", "--state", state, "--l", "3", "--report", str(report)]) == 2
    assert f"cannot write {report}: No such file or directory" in capsys.readouterr().err
    assert Path(state).read_bytes() == encoded


def test_bench_csv_is_the_same_bytes_in_a_file_and_on_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, RS_CONFIG)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["bench", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert out.read_bytes() == text.encode() and text.count("\r\n") == RS_CONFIG["trials"] + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.csv", "cfg.json"]


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["params", "--config", str(bad)]) == 2
    cfg = write_config(tmp_path, {"kind": "nope", "p": 2, "t": 2})
    assert cli.main(["encode", "--config", cfg, "--state", str(tmp_path / "s.json")]) == 2
    assert "kind" in capsys.readouterr().err
    cfg = write_config(tmp_path, dict(RS_CONFIG, k=None, s=None))
    assert cli.main(["encode", "--config", cfg, "--state", str(tmp_path / "s.json")]) == 2


def test_rs_config_k_must_be_s_plus_one(tmp_path, capsys):
    state = str(tmp_path / "s.json")
    cfg = write_config(tmp_path, {"kind": "rs", "p": 2, "t": 4, "k": 8, "s": 3})
    assert cli.main(["encode", "--config", cfg, "--state", state]) == 2
    assert "rs config gives k=8 and s=3, but k must be s + 1" in capsys.readouterr().err
    for fields in ({"k": 8, "s": 7}, {"k": 8}, {"s": 7}):
        cfg = write_config(tmp_path, {"kind": "rs", "p": 2, "t": 4, **fields})
        assert cli.main(["encode", "--config", cfg, "--state", state]) == 0
        assert json.loads(Path(state).read_text())["code"]["s"] == 7


@pytest.mark.parametrize("config,key,value", [
    (RS_CONFIG, "stripes", 2.9), (RS_CONFIG, "stripes", True), (RS_CONFIG, "seed", "11"),
    (RS_CONFIG, "k", 8.0), (RS_CONFIG, "n", 16.5), (RS_CONFIG, "p", 2.0), (RS_CONFIG, "t", "4"),
    (HERM_CONFIG, "s", 8.5), (HERM_CONFIG, "r", 4.0), (HERM_CONFIG, "trials", 6.0),
    (HERM_CONFIG, "l", True), (RS_CONFIG, "seed", [3]), (HERM_CONFIG, "trials", [3]),
])
def test_config_integer_fields_must_be_json_integers(tmp_path, capsys, config, key, value):
    cfg = write_config(tmp_path, dict(config, **{key: value}))
    cmd = ["bench", "--config", cfg] if key in ("trials", "l") else \
        ["encode", "--config", cfg, "--state", str(tmp_path / "s.json")]
    assert cli.main(cmd) == 2
    assert f"config field {key!r} must be an integer, got {value!r}" in capsys.readouterr().err


def test_config_helper_count_must_be_a_json_integer(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(HERM_CONFIG, helpers={"policy": "random", "d": 14.0}))
    assert cli.main(["bench", "--config", cfg]) == 2
    assert "config helpers field 'd' must be an integer, got 14.0" in capsys.readouterr().err


@pytest.mark.parametrize("command,config,named", [
    ("encode", dict(RS_CONFIG, stripe=64), "unknown config field 'stripe'"),
    ("bench", dict(HERM_CONFIG, Trials=2), "unknown config field 'Trials'"),
    ("bench", dict(HERM_CONFIG, helpers={"policy": "random", "d": 14, "seed": 1}),
     "unknown config helpers field 'seed'"),
])
def test_config_unknown_fields_are_refused(tmp_path, capsys, command, config, named):
    """A misspelt key is an error, not a default: {"stripe": 64} would
    otherwise encode one stripe."""
    state = tmp_path / "s.json"
    cmd = [command, "--config", write_config(tmp_path, config)]
    assert cli.main(cmd + (["--state", str(state)] if command == "encode" else [])) == 2
    assert named in capsys.readouterr().err
    assert not state.exists()


@pytest.mark.parametrize("command,config,named", [
    ("encode", dict(HERM_CONFIG, r=3), "r=3 does not square to q=16"),
    ("encode", {k: v for k, v in HERM_CONFIG.items() if k != "s"}, "hermitian config needs 's'"),
    ("bench", dict(HERM_CONFIG, helpers={"policy": "random", "d": 64}),
     "helper count d=64 exceeds n-1=63"),
    ("bench", dict(HERM_CONFIG, helpers="all"), "unknown helper policy 'all'"),
    ("encode", [RS_CONFIG], "config must be a JSON object, got list"),
    ("params", [RS_CONFIG], "config must be a JSON object, got list"),
    ("encode", dict(RS_CONFIG, stripes=10 ** 15), "config field 'stripes' asks for "
     "1000000000000000 stripes of n=16 symbols, above the cap of 1048576 stored symbols"),
    ("bench", dict(HERM_CONFIG, trials=10 ** 15),
     "config field 'trials' asks for 1000000000000000 trials, above the cap of 65536"),
], ids=["r-squared-not-q", "hermitian-without-s", "d-above-n-1", "unknown-policy",
        "encode-array", "params-array", "stripes-times-n-above-the-cap", "trials-above-the-cap"])
def test_config_refusals_name_the_condition(tmp_path, capsys, command, config, named):
    state = tmp_path / "s.json"
    cmd = [command, "--config", write_config(tmp_path, config)]
    assert cli.main(cmd + (["--state", str(state)] if command == "encode" else [])) == 2
    assert named in capsys.readouterr().err
    assert not state.exists()


@pytest.mark.parametrize("config,n,named", [
    (RS_CONFIG, 0, "config field 'n' must be at least 1, got 0"),
    (HERM_CONFIG, -1, "config field 'n' must be at least 1, got -1"),
    (HERM_CONFIG, 65, "config field 'n' exceeds the curve's 64 points, got 65"),
    (RS_CONFIG, 17, "cannot place 17 distinct points in GF(16)"),
])
def test_config_n_is_used_as_given(tmp_path, capsys, config, n, named):
    cfg = write_config(tmp_path, dict(config, n=n))
    assert cli.main(["encode", "--config", cfg, "--state", str(tmp_path / "s.json")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("p,t", [(3, 20000000), (100000000000031, 1)])
def test_config_field_beyond_the_cap_exits_2_naming_p_and_t(tmp_path, capsys, p, t):
    cfg = write_config(tmp_path, {"kind": "rs", "p": p, "t": t, "k": 4})
    assert cli.main(["encode", "--config", cfg, "--state", str(tmp_path / "s.json")]) == 2
    assert f"p={p}, t={t} exceeds the supported cap 65536" in capsys.readouterr().err


@pytest.mark.parametrize("config,where,value,named", [
    (RS_CONFIG, "stripes", -1, "config field 'stripes' must be at least 0, got -1"),
    (RS_CONFIG, "trials", -2, "config field 'trials' must be at least 0, got -2"),
    (RS_CONFIG, "seed", -1, "config field 'seed' must be at least 0, got -1"),
    (HERM_CONFIG, "d", -3, "config helpers field 'd' must be at least 1, got -3"),
    (HERM_CONFIG, "d", 0, "config helpers field 'd' must be at least 1, got 0"),
])
def test_config_counts_are_range_checked(tmp_path, capsys, config, where, value, named):
    config = (dict(config, helpers={"policy": "random", "d": value}) if where == "d"
              else dict(config, **{where: value}))
    cfg = write_config(tmp_path, config)
    cmd = (["encode", "--config", cfg, "--state", str(tmp_path / "s.json")] if where == "stripes"
           else ["bench", "--config", cfg])
    assert cli.main(cmd) == 2
    assert named in capsys.readouterr().err


def test_verify_with_fewer_live_nodes_than_the_threshold_exits_2(tmp_path, capsys):
    """k = n leaves no redundancy: with one node failed there is nothing to
    decode from, which is a usage error, not a mismatch."""
    cfg = write_config(tmp_path, dict(RS_CONFIG, k=16))
    state = str(tmp_path / "state.json")
    assert cli.main(["encode", "--config", cfg, "--state", state]) == 0
    assert cli.main(["verify", "--state", state]) == 0
    assert cli.main(["fail", "--state", state, "--node", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--state", state]) == 2
    captured = capsys.readouterr()
    assert "15 live nodes, fewer than the decoding threshold 16" in captured.err
    assert "MISMATCH" not in captured.out


def test_verify_of_a_corrupted_state_exits_2_at_load(tmp_path, capsys):
    """One changed digit of a stored symbol, wherever it sits (among the
    first threshold = 41 positions verify decodes from or past them, with
    or without a failed node), is refused when the state loads: verify
    exits 2 naming the re-encode check and never prints MISMATCH."""
    cfg = write_config(tmp_path, {"kind": "hermitian", "p": 4, "t": 2, "s": 40, "seed": 3,
                                  "stripes": 4})
    state = tmp_path / "state.json"
    assert cli.main(["encode", "--config", cfg, "--state", str(state)]) == 0
    encoded = state.read_text()
    for node, failed in ((0, None), (17, None), (63, None), (17, 5)):
        payload = json.loads(encoded)
        if failed is not None:
            state.write_text(encoded)
            assert cli.main(["fail", "--state", str(state), "--node", str(failed)]) == 0
            payload = json.loads(state.read_text())
        digits = payload["nodes"][node][2]
        digits[0] = (digits[0] + 1) % 4
        state.write_text(json.dumps(payload))
        capsys.readouterr()
        assert cli.main(["verify", "--state", str(state)]) == 2
        captured = capsys.readouterr()
        assert "stored node symbols are not codewords of the stripes" in captured.err
        assert "MISMATCH" not in captured.out


def test_repair_errors_name_l_and_the_genus_0_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(RS_CONFIG, k=15))
    state = str(tmp_path / "state.json")
    assert cli.main(["encode", "--config", cfg, "--state", state]) == 0
    assert cli.main(["fail", "--state", state, "--node", "3"]) == 0
    for l, named in (("5", "l=5 must satisfy 0 <= l <= t=4"),
                     ("-1", "l=-1 must satisfy 0 <= l <= t=4"),
                     ("1", "requires s <= d - p**l: s=14, d=15")):
        capsys.readouterr()
        assert cli.main(["repair", "--state", state, "--l", l]) == 2
        assert named in capsys.readouterr().err


def test_unsatisfiable_precondition_exits_nonzero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"kind": "hermitian", "p": 2, "t": 4, "s": 40, "l": 2, "seed": 0, "trials": 1,
         "helpers": {"policy": "random", "d": 20}},
    )
    assert cli.main(["bench", "--config", cfg]) == 2
    assert "requires s <=" in capsys.readouterr().err


@pytest.mark.parametrize("variant", [["rs"], "reed-solomon"])
def test_bench_unknown_variant_exits_2(tmp_path, capsys, variant):
    cfg = write_config(tmp_path, dict(RS_CONFIG, variant=variant))
    assert cli.main(["bench", "--config", cfg]) == 2
    assert f"unknown variant {variant!r}" in capsys.readouterr().err


def test_bench_flagship_hermitian(tmp_path):
    cfg = write_config(
        tmp_path,
        {"kind": "hermitian", "p": 8, "t": 2, "r": 8, "s": 475, "n": 512,
         "l": 1, "seed": 5, "trials": 20},
    )
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    for row in rows:
        assert row["symbols"] == "511"
        assert row["bits"] == "1533.0"
        assert row["bound_bits"] == "1533.0"
        assert row["equal"] == "True"


def test_cli_import_leaves_out_bounds_and_csv():
    """`fail`, `repair` and `verify` children never need the bound formulas
    (which import fractions) or csv, so importing the CLI loads neither."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = ("import sys, agrepair.cli; "
              "print(sorted(m for m in ('agrepair.bounds', 'fractions', 'csv') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
