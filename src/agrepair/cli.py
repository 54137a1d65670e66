"""Command-line front end.

Subcommands:
  params   evaluate the bound formulas for a parameter tuple -> JSON/CSV
  encode   build a code from a JSON config and materialise a cluster state
  fail     mark one node as failed in a state file
  repair   rebuild the failed node via the download protocol, report traffic
  verify   cross-check the cluster contents against erasure decoding
  bench    repeated repair trials with per-trial RNG streams -> CSV

Configs are JSON objects; see README for the schema.  Every config is read
by `sim.read_json`, and every state, report, params table and bench CSV is
written by `sim.write_atomic`.  A config may ask `encode` for at most
MAX_SYMBOLS stored symbols (stripes * n) and `bench` for at most
MAX_TRIALS trials; more is refused before any work.  The only environment
override is AGREPAIR_OUTPUT_DIR, which re-roots relative output paths.
Exit status: 0 success, 1 verification mismatch, 2 bad config/state/preconditions
(including too few live nodes left to verify against, a corrupted stored
symbol, which loading refuses wherever it sits: a state that loads verifies ok,
and a file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import codes, repair, sim
from .gf import tower

BENCH_COLUMNS = ("target", "d", "symbols", "bits", "bound_bits", "equal")
CONFIG_FIELDS = "kind p t k s r n l seed stripes trials variant helpers".split()
MAX_SYMBOLS = 1 << 20  # stripes * n that `encode` may store (the largest workload: 256 * 512)
MAX_TRIALS = 1 << 16   # `bench` trials, whose rows are all held until the CSV is written


class ConfigError(ValueError):
    noun = "config"  # what `sim.read_json` calls the file


def _out_path(path) -> Path:
    path = Path(path)
    base = os.environ.get("AGREPAIR_OUTPUT_DIR")
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _emit(out, text: str) -> None:
    """`text` into file `out` (under AGREPAIR_OUTPUT_DIR), or to stdout when `out` is None."""
    if out:
        sim.write_atomic(_out_path(out), text)
    else:
        sys.stdout.write(text)


def _int(cfg: dict, key: str, default=None, low=None):
    """Config field `key` as a JSON integer of at least `low`; `default` when absent or null."""
    if cfg.get(key) is None:
        return default
    return sim._field(cfg, key, "config", integer=True, low=low)


def code_from_config(cfg: dict) -> codes.EvalCode:
    helpers = cfg["helpers"] if isinstance(cfg.get("helpers"), dict) else {}
    unknown = [f"config field {key!r}" for key in cfg if key not in CONFIG_FIELDS]
    unknown += [f"config helpers field {key!r}" for key in helpers if key not in ("policy", "d")]
    if unknown:
        raise ConfigError(f"unknown {unknown[0]}")
    kind = cfg.get("kind")
    if kind not in ("rs", "hermitian"):
        raise ConfigError(f"kind must be 'rs' or 'hermitian', got {kind!r}")
    p, t = (sim._field(cfg, key, "config", integer=True) for key in ("p", "t"))
    tw = tower(p, t)
    k, s, r = (_int(cfg, key) for key in ("k", "s", "r"))
    n = _int(cfg, "n", low=1)
    if kind == "rs":
        if k is None and s is None:
            raise ConfigError("rs config needs 'k' (or 's')")
        if None not in (k, s) and k != s + 1:
            raise ConfigError(f"rs config gives k={k} and s={s}, but k must be s + 1")
        return codes.rs_code(tw, k=s + 1 if k is None else k, n=n)
    if r is not None and r ** 2 != tw.q:
        raise ConfigError(f"r={r} does not square to q={tw.q}")
    if s is None:
        raise ConfigError("hermitian config needs 's'")
    curve = codes.hermitian_curve(tw)
    if n is not None and n > len(curve.points):
        raise ConfigError(f"config field 'n' exceeds the curve's {len(curve.points)} points, got {n}")
    return codes.hermitian_code(curve, s=s, n=n)


def _helper_set(cfg: dict, code: codes.EvalCode, target: int, rng) -> list | None:
    policy = cfg.get("helpers", "full")
    if policy == "full":
        return None
    if isinstance(policy, dict) and policy.get("policy") == "random":
        d = sim._field(policy, "d", "config helpers", integer=True, low=1)
        others = np.asarray([j for j in range(code.n) if j != target])
        if d > others.size:
            raise ConfigError(f"helper count d={d} exceeds n-1={others.size}")
        return sorted(int(x) for x in rng.choice(others, size=d, replace=False))
    raise ConfigError(f"unknown helper policy {policy!r}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_params(args) -> int:
    from . import bounds  # imported here: fractions costs every other command's start-up

    report = bounds.bound_report(**sim.read_json(args.config, ConfigError))
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n"
    else:
        lines = ["name,value,status,reason"]
        for name, value, status, reason in report.rows():
            lines.append(f"{name},{value},{status},\"{reason}\"")
        text = "\n".join(lines) + "\n"
    _emit(args.out, text)
    return 0


def cmd_encode(args) -> int:
    cfg = sim.read_json(args.config, ConfigError)
    code = code_from_config(cfg)
    stripes = _int(cfg, "stripes", 1, low=0)
    if stripes * code.n > MAX_SYMBOLS:
        raise ConfigError(f"config field 'stripes' asks for {stripes} stripes of n={code.n} "
                          f"symbols, above the cap of {MAX_SYMBOLS} stored symbols")
    cluster = sim.make_cluster(code, stripes, _int(cfg, "seed", 0, low=0))
    sim.save_cluster(_out_path(args.state), cluster)
    print(f"encoded {cluster.num_stripes} stripe(s) across {cluster.n} nodes -> {args.state}")
    return 0


def cmd_fail(args) -> int:
    path = _out_path(args.state)
    cluster = sim.load_cluster(path)
    sim.fail_node(cluster, args.node)
    sim.save_cluster(path, cluster)
    print(f"node {args.node} failed; symbols withheld")
    return 0


def cmd_repair(args) -> int:
    path = _out_path(args.state)
    cluster = sim.load_cluster(path)
    records = sim.repair_failed(cluster, l=args.l, variant=args.variant)
    sim.save_cluster(path, cluster)
    all_ok = all(r.equal for r in records)
    for r in records:
        print(
            f"stripe {r.stripe}: target={r.target} helpers={r.helper_count} "
            f"symbols={r.symbols} bits={r.bits:g} bound_bits={r.bound_bits:g} equal={r.equal}"
        )
    if args.report:
        tw = cluster.code.tower
        payload = {
            "config": {
                "kind": cluster.code.kind,
                "p": tw.p,
                "t": tw.t,
                "s": cluster.code.s,
                "n": cluster.code.n,
                "l": args.l,
                "variant": args.variant,
            },
            "records": [r.summary() for r in records],
            "transcripts": [repair.transcript_to_json(r.transcript) for r in records],
        }
        sim.write_atomic(_out_path(args.report), json.dumps(payload, sort_keys=True) + "\n")
    return 0 if all_ok else 1


def cmd_verify(args) -> int:
    cluster = sim.load_cluster(_out_path(args.state))
    ok = sim.verify_cluster(cluster)
    print("verify:", "ok" if ok else "MISMATCH")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    import csv  # imported here, as bounds is in cmd_params

    cfg = sim.read_json(args.config, ConfigError)
    code = code_from_config(cfg)
    trials, seed = _int(cfg, "trials", 10, low=0), _int(cfg, "seed", 0, low=0)
    if trials > MAX_TRIALS:
        raise ConfigError(f"config field 'trials' asks for {trials} trials, above the cap of "
                          f"{MAX_TRIALS}")
    l = _int(cfg, "l", 1)
    variant = cfg.get("variant")
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng(np.random.PCG64([seed, trial]))
        target = int(rng.integers(code.n))
        helpers = _helper_set(cfg, code, target, rng)
        msgs = rng.integers(0, code.tower.q, size=(1, code.k), dtype=np.int64)
        cluster = sim.Cluster(code, msgs, codes.encode_many(code, msgs), seed)
        sim.fail_node(cluster, target)
        (rec,) = sim.repair_failed(cluster, l=l, variant=variant, helpers=helpers)
        rows.append({**rec.summary(), "d": rec.helper_count})
    buf = io.StringIO()  # csv's own \r\n line ends, kept by _emit
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    _emit(args.out, buf.getvalue())
    return 0 if all(r["equal"] for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agrepair",
        description="Trace repair for Reed-Solomon and Hermitian codes over a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="evaluate bound formulas")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("encode", help="encode stripes into a cluster state file")
    p.add_argument("--config", required=True)
    p.add_argument("--state", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("fail", help="fail one node")
    p.add_argument("--state", required=True)
    p.add_argument("--node", type=int, required=True)
    p.set_defaults(fn=cmd_fail)

    p = sub.add_parser("repair", help="repair the failed node")
    p.add_argument("--state", required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--variant", choices=(repair.VARIANT_RS, repair.VARIANT_LINE, repair.VARIANT_WEAK))
    p.add_argument("--report")
    p.set_defaults(fn=cmd_repair)

    p = sub.add_parser("verify", help="cross-check stored symbols against erasure decoding")
    p.add_argument("--state", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="repeated repair trials, CSV metrics")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, repair.RepairPreconditionError, codes.DualVectorError,
            codes.DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
