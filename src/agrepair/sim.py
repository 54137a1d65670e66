"""In-memory storage cluster: one GF(q) symbol per node per stripe.

A Cluster holds the code, the encoded stripes, and at most one failed node
whose symbols are withheld from the repair path but kept privately so the
outcome can be verified.  Its stripes, nodes and withheld arrays are held
in the tower's code dtype (uint8 up to q = 256, else uint16) however they
were built or loaded; codes are widened to int64 only inside the kernels
that read them (see `gf`), and a state file's bytes do not depend on it.
State round-trips through a versioned, compact JSON file in which every
field element appears as its base-p digit list (least-significant digit
first), so files are portable across runs.  Saving renders the JSON text
of each element once, for every code the cluster holds, and writes the
stripes, nodes and withheld arrays by joining those words, in sorted-key
order: the bytes are those of json.dumps(state, sort_keys=True) and a
newline.  Loading reads whole arrays through
FieldTower.from_digits_arr and checks every field's presence, shape,
JSON-integer digits and digit range, and that the stored monomials and r
match the code rebuilt from the other fields, raising StateFormatError with
the field's name, then re-encodes the stripes.  Every file the package
reads goes through `read_json`, and every file it writes through
`write_atomic`: the state here, and the CLI's configs, reports, parameter
tables and bench CSVs.

Helpers never see anything beyond (scheme, their index, their own symbol);
the download accounting in the transcripts is therefore the real traffic.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import codes, gf, repair
from .gf import FieldTower, tower

SCHEMA_VERSION = 1


class StateFormatError(ValueError):
    noun = "state"  # what `read_json` calls the file


@dataclass
class Cluster:
    """The code and its stored arrays.  Each array is read by `gf.integers`
    against [0, q), so an entry outside the field is refused by name, not
    wrapped, and kept in the tower's code dtype (uint8 up to q = 256, else
    uint16), whatever integer dtype it is given in."""

    code: codes.EvalCode
    stripes: np.ndarray        # (num_stripes, k) message codes
    nodes: np.ndarray          # (num_stripes, n) stored symbol codes
    seed: int
    failed: int | None = None
    withheld: np.ndarray | None = None  # (num_stripes,) codes of the failed node

    def __post_init__(self):
        tw = self.code.tower
        for name in ("stripes", "nodes", "withheld"):
            if getattr(self, name) is not None:
                block = f"cluster {name}"
                arr = gf.integers(getattr(self, name), tw.q, block + " entry {index} is {0}, {1}",
                                  block, domain=tw.name)
                setattr(self, name, arr.astype(tw.code_dtype))

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def num_stripes(self) -> int:
        return self.stripes.shape[0]


@dataclass
class ExperimentRecord:
    """Outcome of repairing one stripe's failed symbol."""

    stripe: int
    target: int
    helper_count: int
    symbols: int
    bits: float
    bound_bits: float
    equal: bool
    wall_time: float
    transcript: repair.RepairTranscript | None = None

    def summary(self) -> dict:
        """Every field but the transcript."""
        return {key: value for key, value in vars(self).items() if key != "transcript"}


def make_cluster(code: codes.EvalCode, num_stripes: int, seed: int) -> Cluster:
    num_stripes = gf.integer(num_stripes, None, "num_stripes={0} is {1}")
    seed = gf.integer(seed, None, "seed {0} is {1}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    msgs = rng.integers(0, code.tower.q, size=(num_stripes, code.k), dtype=np.int64)
    return Cluster(
        code=code,
        stripes=msgs,
        nodes=codes.encode_many(code, msgs),
        seed=seed,
    )


def fail_node(cluster: Cluster, node: int) -> None:
    if cluster.failed is not None:
        raise ValueError(f"node {cluster.failed} is already failed")
    node = gf.integer(node, cluster.n, "node {0} out of range")
    cluster.withheld = cluster.nodes[:, node].copy()
    cluster.nodes[:, node] = 0
    cluster.failed = node


def repair_failed(
    cluster: Cluster,
    l: int = 1,
    variant: str | None = None,
    helpers=None,
) -> list[ExperimentRecord]:
    """Run the repair protocol for every stripe, restore the node, report.

    The scheme only ever reads helper coordinates; the withheld symbols are
    used solely for the pass/fail comparison.
    """
    if cluster.failed is None:
        raise ValueError("nothing to repair: no node has failed")
    target = cluster.failed
    scheme = repair.build_scheme(cluster.code, target, helpers=helpers, l=l, variant=variant)
    bound_bits = repair.bound_symbols(scheme) * scheme.bits_per_symbol()
    records = []
    for sidx in range(cluster.num_stripes):
        t0 = time.perf_counter()
        value, transcript = repair.run_repair(scheme, cluster.nodes[sidx])
        wall = time.perf_counter() - t0
        truth = int(cluster.withheld[sidx])
        records.append(
            ExperimentRecord(
                stripe=sidx,
                target=target,
                helper_count=len(scheme.helpers),
                symbols=transcript.total_symbols,
                bits=transcript.total_bits,
                bound_bits=bound_bits,
                equal=value.code == truth,
                wall_time=wall,
                transcript=transcript,
            )
        )
        cluster.nodes[sidx, target] = value.code
    cluster.failed = None
    cluster.withheld = None
    return records


def verify_cluster(cluster: Cluster) -> bool:
    """Cross-check every stored stripe against erasure decoding.

    Decodes each stripe from the first threshold live coordinates (the
    failed node, if any, left out) and compares with what the nodes hold.
    False when they differ, or when those coordinates match no codeword,
    as a corrupted one may on a Hermitian code (k < threshold there).
    Raises UnderdeterminedError when fewer live nodes than the threshold
    remain, as then there is nothing to decode from.
    """
    live = [j for j in range(cluster.n) if j != cluster.failed]
    threshold = cluster.code.threshold
    if len(live) < threshold:
        raise codes.UnderdeterminedError(
            f"{len(live)} live nodes, fewer than the decoding threshold {threshold}")
    positions = live[:threshold]
    try:
        decoded = codes.erasure_decode_many(cluster.code, positions, cluster.nodes[:, positions])
    except codes.InconsistentError:
        return False
    return bool(np.array_equal(decoded[:, live], cluster.nodes[:, live]))


# ----------------------------------------------------------------------
# JSON state files
# ----------------------------------------------------------------------


def _derived_fields(code: codes.EvalCode) -> dict:
    """The code fields a state file stores but a load rebuilds."""
    fields = {"monomials": [list(m) if isinstance(m, tuple) else m for m in code.monomials]}
    if code.kind != "rs":
        fields["r"] = code.curve.r
    return fields


def _code_payload(code: codes.EvalCode) -> dict:
    tw = code.tower
    return {
        "kind": code.kind,
        "p": tw.p,
        "t": tw.t,
        "s": code.s,
        "points": tw.digits_arr(code.points).tolist(),
        **_derived_fields(code),
    }


def _field(obj, key: str, where: str, integer: bool = False, low=None):
    """obj[key]; with `integer`, a JSON integer of at least `low` (see `gf.integer`)."""
    if not isinstance(obj, dict) or key not in obj:
        raise StateFormatError(f"{where} has no {key!r} field")
    if not integer:
        return obj[key]
    with _naming():
        value = gf.integer(obj[key], None, f"{where} field {key!r} must be an integer, got {{0}}",
                           low=-float("inf"))
        if low is not None:
            gf.integer(value, None, f"{where} field {key!r} must be at least {low}, got {{0}}", low=low)
    return value


def _decode(tw: FieldTower, value, name: str, shape: tuple) -> np.ndarray:
    """A JSON array of digit vectors as an int64 code array of `shape`
    (None matches any length)."""
    want = (*shape, tw.t)
    if not isinstance(value, list):
        raise StateFormatError(f"{name} must be an array, got {type(value).__name__}")
    arr = np.array(value, dtype=object)
    if arr.size == 0:  # JSON keeps no axes inside an empty array
        arr = np.zeros(arr.shape + tuple(w or 0 for w in want[arr.ndim:]), dtype=object)
    kinds = set(map(type, arr.flat)) if arr.ndim <= len(want) else ()  # .flat stops at 32 axes
    if list in kinds:
        raise StateFormatError(f"{name} is a ragged array")
    if arr.ndim != len(want) or any(w not in (None, g) for g, w in zip(arr.shape, want)):
        raise StateFormatError(f"{name} must have shape {want}, got {arr.shape}")
    if kinds - {int}:
        bad = next(d for d in arr.flat if type(d) is not int)
        raise StateFormatError(f"{name} holds {bad!r}; digits must be JSON integers")
    try:
        return tw.from_digits_arr(arr.astype(np.int64))
    except (OverflowError, ValueError) as exc:
        raise StateFormatError(f"{name}: {exc}") from None


def _code_from_payload(payload) -> codes.EvalCode:
    kind = _field(payload, "kind", "code")
    if kind not in ("rs", "hermitian"):
        raise StateFormatError(f"code kind must be 'rs' or 'hermitian', got {kind!r}")
    p, t, s = (_field(payload, key, "code", integer=True) for key in ("p", "t", "s"))
    with _naming("code fields 'p' and 't': "):
        tw = tower(p, t)
        curve = codes.hermitian_curve(tw) if kind == "hermitian" else None
    pts = _decode(tw, _field(payload, "points", "code"), "code points",
                  (None,) if curve is None else (None, 2))
    if curve is None and not codes.distinct(pts):
        raise StateFormatError("code points are not pairwise distinct")
    if curve is not None and not (0 < len(pts) <= len(curve.points)
                                  and np.array_equal(curve.points[: len(pts)], pts)):
        raise StateFormatError("stored point list does not match the canonical enumeration")
    with _naming("code field 's': "):
        code = (codes.rs_code(tw, k=s + 1, points=pts) if curve is None
                else codes.hermitian_code(curve, s=s, n=len(pts)))
    for key, want in _derived_fields(code).items():
        if json.dumps(_field(payload, key, "code")) != json.dumps(want):
            raise StateFormatError(
                f"code field {key!r} disagrees with the code rebuilt from 'p', 't', 's' and 'points'"
            )
    return code


@contextmanager
def _naming(prefix: str = ""):
    """Re-raise a ValueError as a StateFormatError, its text after `prefix`
    (the state fields a constructor was built from)."""
    try:
        yield
    except ValueError as exc:
        raise StateFormatError(f"{prefix}{exc}") from None


def _json_codes(words: np.ndarray, a: np.ndarray) -> str:
    """JSON text of a code array as nested digit lists; words[c] is the
    text of code c's digit list."""
    if a.ndim == 1:
        return "[" + ", ".join(words[a].tolist()) + "]"
    return "[" + ", ".join(_json_codes(words, row) for row in a) + "]"


def read_json(path, error: type[ValueError]) -> dict:
    """The JSON object in file `path`.  A file that cannot be opened,
    decoded or parsed (nesting past the recursion limit included), or that
    holds anything but an object, raises `error` naming its `noun`."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {error.noun} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{error.noun} must be a JSON object, got {type(obj).__name__}")
    return obj


def write_atomic(path, text: str) -> None:
    """Write `text` to a sibling file and rename it over `path`, so a crash
    mid-write leaves the previous file whole.  Line ends are written as
    given; a failure is an OSError naming `path`."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        with suppress(OSError):  # gone once replaced, or never made
            tmp.unlink()


def save_cluster(path, cluster: Cluster) -> None:
    tw = cluster.code.tower
    arrays = {"stripes": cluster.stripes, "nodes": cluster.nodes.T}  # nodes node-major
    if cluster.withheld is not None:
        arrays["withheld"] = cluster.withheld
    # the digit-list text of every code the arrays hold, rendered once; codes
    # that do not occur are skipped, so a small state over a large field
    # costs no O(q) rendering
    used = np.flatnonzero(np.bincount(
        np.concatenate([a.ravel() for a in arrays.values()]), minlength=tw.q))
    words = np.empty(tw.q, dtype=object)
    words[used] = [json.dumps(d) for d in tw.digits_arr(used).tolist()]
    fields = {
        "schema_version": json.dumps(SCHEMA_VERSION),
        "code": json.dumps(_code_payload(cluster.code), sort_keys=True),
        "seed": json.dumps(cluster.seed),
        "failed": json.dumps(cluster.failed),
        "withheld": "null",
        **{name: _json_codes(words, a) for name, a in arrays.items()},
    }
    write_atomic(path, "{" + ", ".join(f"{json.dumps(k)}: {fields[k]}" for k in sorted(fields)) + "}\n")


def load_cluster(path) -> Cluster:
    state = read_json(path, StateFormatError)
    version = state.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StateFormatError(
            f"unsupported state schema: expected {SCHEMA_VERSION}, got {version}"
        )
    code = _code_from_payload(_field(state, "code", "state"))
    tw = code.tower
    stripes = _decode(tw, _field(state, "stripes", "state"), "stripes", (None, code.k))
    nodes = _decode(tw, _field(state, "nodes", "state"), "nodes", (code.n, len(stripes))).T
    failed = state.get("failed")
    if failed is not None:
        with _naming():
            failed = gf.integer(failed, code.n, f"failed node {{0}} out of range for n={code.n}")
    seed = _field(state, "seed", "state", integer=True) if "seed" in state else 0
    withheld = state.get("withheld")
    if (withheld is None) != (failed is None):
        raise StateFormatError(
            "state field 'withheld' must be null when no node has failed" if failed is None
            else f"state field 'withheld' is absent or null, but node {failed} has failed")
    if withheld is not None:
        withheld = _decode(tw, withheld, "withheld", (len(stripes),))
    cluster = Cluster(code, stripes, nodes, seed, failed, withheld)
    _check_consistency(cluster)
    return cluster


def _check_consistency(cluster: Cluster) -> None:
    expected = codes.encode_many(cluster.code, cluster.stripes)
    if cluster.failed is not None:
        expected = expected.copy()
        if not np.array_equal(cluster.withheld, expected[:, cluster.failed]):
            raise StateFormatError("withheld symbols disagree with the encoded stripes")
        expected[:, cluster.failed] = 0
    if not np.array_equal(expected, cluster.nodes):
        raise StateFormatError("stored node symbols are not codewords of the stripes")
