"""The sub-symbol repair protocol.

To repair coordinate i of a codeword from helper set S, the scheme fixes a
linearized map L with kernel V (dimension l over the base subfield GF(p))
and a function h_i vanishing at point i, and tabulates

    h_(i,u) = L(zeta_u * h_i) / (c * h_i)          u = 1..t

evaluated over the helpers, where c normalises h_(i,u)(P_i) = zeta_u exactly
(the raw quotient evaluates to c * zeta_u at zeros of h_i, c being the
product of -v over nonzero v in V; dividing by c is what makes the
reconstruction identity below hold verbatim).  Away from zeros of h_i the
values lie in a common scalar multiple of the image of L, so each helper's
value column spans only t - l dimensions over GF(p): helper j sends the traces

    Tr(w_j * h_(i,v)(P_j) * f(P_j))        v in J_j

for an independent index set J_j of size b_j = dim span{h_(i,u)(P_j)}_u,
where w is a dual-code vector supported on S + {i} scaled to w_i = 1.  The
remaining traces are GF(p)-combinations of the downloaded ones, and

    Tr(zeta_u * f(P_i)) = - sum_j Tr(w_j * h_(i,u)(P_j) * f(P_j))

rebuilds f(P_i) through its trace representation.  Helpers where w_j = 0
contribute nothing and are pruned when the scheme is built.

J_j depends on y = h_i(P_j) alone and needs no elimination.  For y != 0,
h_(i,u)(P_j) = L(zeta_u * y) / (c * y) with L GF(p)-linear and zeta_u the
element with the single base-p digit 1 at u, so sum_u x_u h_(i,u)(P_j) = 0
exactly when the element whose digits are x lies in y^-1 V.  Row u is thus
a GF(p)-combination of the rows before it exactly when some element of
y^-1 V has its top digit at u, and J_j is every other row.  The smallest
such element m_u has digit 1 at u and 0 at every other dependent row, so
row u is -m_u read at J_j.  At y = 0 (a weak extra zero) J_j is every row.
The values h_(i,u)(P_j) depend on y alone too, so both are tabulated over
the codes y once per (code, l), each y the first time a plan meets it
(`_HelperTables`), with the linearized map; a plan reads its n values and
its active helpers' index sets with one gather each.

A built scheme is one flat plan over the D downloaded sub-symbols, helper
by helper in ascending node order and ascending u within each helper:
mu[k] is the coefficient w_j * h_(i,u)(P_j) of sub-symbol k, chosen_u[k]
its u, and column k of lam (t, D) its GF(p) weight in every row u.  The
offsets start (n + 1,) delimit each node's run, so node j's sub-symbols are
start[j]:start[j+1], empty for pruned helpers and non-helpers alike.
The per-call protocol reads three Python views of that plan, derived from
mu and start once per scheme and kept on it: `runs` (each helper's run of
mu as a tuple), `active_counts` (each active helper's run length) and
`senders` (the node behind each flat sub-symbol).  They hold nothing the
flat plan does not, so they are no second plan representation.  Inputs
are checked once: `run_repair` reads the codeword's active symbols in one
pass and hands `helper_response` plain ints, on which it skips the input
rule; `reconstruct` finds a response from a node that is no active helper
by one length comparison, and looks for it only when that fails.

Variants differ only in h_i and so in its pole order (`pole_order`, read by
`check_precondition`):
  "rs"              h_i = x - a_i; every b_j = t - l (strong).
  "hermitian-line"  h_i = the vanishing line at P_i; strong.
  "hermitian-weak"  h_i = a generic vanishing function with pole budget
                    genus+1 (the search finds x - a_i); helpers at its
                    extra zeros send full symbols, so only the total
                    bandwidth is bounded (weak).
With every other node helping on the complete point set, the strong variants
use the all-ones dual vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from . import linalg
from .codes import (
    EvalCode,
    dual_support_vector,
    repair_set,
    vanishing_function,
    vanishing_line,
)
from .gf import FieldElement, LinearizedMap, from_traces, integer, integers

VARIANT_RS = "rs"
VARIANT_LINE = "hermitian-line"
VARIANT_WEAK = "hermitian-weak"


class RepairPreconditionError(Exception):
    """A degree inequality required by the chosen variant is violated."""


@dataclass(frozen=True, eq=False)
class RepairScheme:
    code: EvalCode
    target: int
    helpers: tuple           # requested helper set S
    variant: str
    lin: LinearizedMap
    w: np.ndarray            # dual vector over all n positions, w[target] = 1
    active: tuple            # helpers with nonzero dual weight, ascending
    pruned: tuple            # helpers with zero dual weight (download nothing)
    table: np.ndarray        # (t, n) values of h_(i,u) at every position
    mu: np.ndarray           # (D,) coefficient codes w_j * h_(i,u)(P_j), one per sub-symbol
    chosen_u: np.ndarray     # (D,) the u behind each sub-symbol, ascending within a helper
    lam: np.ndarray          # (t, D) GF(p) codes writing row u over its helper's chosen rows
    start: np.ndarray        # (n + 1,) node j's sub-symbols are start[j]:start[j+1]
    extra_zeros: tuple       # weak variant: helpers where h_i vanishes

    @property
    def t(self) -> int:
        return self.code.tower.t

    @property
    def l(self) -> int:
        return self.lin.l

    def bits_per_symbol(self) -> float:
        return math.log2(self.code.tower.p)

    @cached_property
    def runs(self) -> dict:
        """Helper j -> its run of mu, mu[start[j]:start[j+1]], as a tuple of
        ints; empty for a pruned helper, absent for any other node."""
        mu, start = self.mu.tolist(), self.start.tolist()
        return {j: tuple(mu[start[j]:start[j + 1]]) for j in self.helpers}

    @cached_property
    def active_counts(self) -> list:
        """The run length of each active helper, in `active` order."""
        return [len(self.runs[j]) for j in self.active]

    @cached_property
    def senders(self) -> np.ndarray:
        """The node that sends each flat sub-symbol k."""
        return np.repeat(np.arange(len(self.start) - 1), np.diff(self.start))


@dataclass(frozen=True)
class RepairTranscript:
    """What actually crossed the wire for one repair."""

    target: int
    responses: dict          # j -> tuple of downloaded GF(p) codes
    symbol_counts: dict      # j -> number of downloaded subfield symbols
    total_symbols: int
    total_bits: float


def pole_order(variant: str, genus: int, r: int | None = None) -> int:
    """Pole order of h_i, the pole degree each linearized factor adds: 1
    for x - a_i (RS), r + 1 for the vanishing line on the Hermitian curve
    over GF(r**2), genus + 1 for a generic vanishing function (weak)."""
    if variant == VARIANT_RS:
        return 1
    if variant == VARIANT_LINE:
        return r + 1
    return genus + 1


# the code kind each variant plans for, and its pole order as error messages name it
_CODE_KIND = {VARIANT_RS: "rs", VARIANT_LINE: "hermitian", VARIANT_WEAK: "hermitian"}
_POLE_NAME = {VARIANT_LINE: "(r + 1)", VARIANT_WEAK: "(genus + 1)"}
_POINTS_NAME = {VARIANT_RS: "q", VARIANT_LINE: "r**3", VARIANT_WEAK: "r**3"}


def check_precondition(variant: str, s: int, d: int, l: int, p: int, genus: int,
                       r: int | None = None, n: int | None = None,
                       complete: int | None = None) -> tuple[int, bool]:
    """The repair rule, in integers alone: `variant` repairs a point of a
    pole-degree-s code from d helpers with an l-dimensional kernel over
    GF(p) when s + rho <= budget, rho = (p**l - 1) * `pole_order(variant,
    genus, r)`.  Returns (rho, whether the all-ones dual vector serves);
    raises RepairPreconditionError otherwise.

    The all-ones vector serves a strong variant when every other node helps
    (d = n - 1) on a complete point set (n = complete: q points for RS,
    r**3 on the Hermitian curve).  The dual vector is orthogonal to the
    code of pole degree s + rho, on S + {i} or, for the all-ones vector, on
    every point.  The budget is d - 1 at genus 0 (pole degree d already
    fills all d + 1 coordinates), n + 2*genus - 2 for the all-ones vector
    (the residues of dx/(x**q - x)), and d otherwise.

    Given a complete point set, the code must fit it and the helpers the
    code: n <= complete and d <= n - 1, complete standing in for a missing
    n.
    """
    if complete is not None:
        points = _POINTS_NAME[variant]
        if n is not None and n > complete:
            raise RepairPreconditionError(f"requires n <= {points}: n={n}, {points}={complete}")
        size, name = (complete, points) if n is None else (n, "n")
        if d > size - 1:
            raise RepairPreconditionError(f"requires d <= {name} - 1: d={d}, {name}={size}")
    all_ones = variant != VARIANT_WEAK and d + 1 == n == complete
    rho = (p ** l - 1) * pole_order(variant, genus, r)
    if genus == 0:  # RS; with the full point set d - 1 = n + 2*genus - 2
        budget, rule = d - 1, "d - p**l"
    elif all_ones:
        budget = n + 2 * genus - 2
        rule = f"n + 2*genus - 2 - (p**l - 1)*{_POLE_NAME[variant]}"
    else:
        budget, rule = d, f"d - (p**l - 1)*{_POLE_NAME[variant]}"
    if s + rho > budget:
        raise RepairPreconditionError(
            f"requires s <= {rule}: s={s}, d={d}, rho={rho}, bound={budget - rho}")
    return rho, all_ones


def _index_sets(tw, lin, ys):
    """(chosen, rows), both (len(ys), t), for distinct codes ys of h_i's
    value (see the module docstring): chosen[a, u] says whether a helper
    where h_i = ys[a] sends row u, and rows[a, u] is zeta_u if so and -m_u
    if not, so that its digits at the chosen rows are row u of lam.  Holds
    one sorted len(ys) x p**l block of codes; `check_precondition` bounds
    p**l by n + 2*genus - 1.
    """
    inv = tw.inv_arr(np.maximum(ys, 1)) * (ys != 0)  # y = 0 scales V to {0}
    codes = tw.mul_arr(inv[:, None], np.asarray(lin.kernel)[None, :])
    codes.sort(axis=1)
    offset = tw.q * np.arange(len(ys))[:, None]
    codes += offset  # one sorted run, row after row
    # first[:, u] is where row codes reach p**u: bucket u runs to first[:, u + 1]
    first = np.searchsorted(codes.ravel(), offset + tw.p ** np.arange(tw.t + 1))
    dependent = first[:, :-1] < first[:, 1:]
    smallest = np.where(dependent, codes.ravel().take(first[:, :-1], mode="clip") - offset, 0)
    return ~dependent, np.where(dependent, tw.neg_arr(smallest), np.asarray(tw.zeta))


class _HelperTables:
    """What a plan reads at a helper j that depends on y = h_i(P_j) alone,
    for one tower and l: the values h_(i,u)(P_j) = zeta_u * Q(zeta_u * y) / c
    (Q = L(x)/x, `LinearizedMap.quotient_arr`) and the index set J_j with
    its rows (`_index_sets`).  One instance per (code, l), from
    `_helper_tables`, keeps the linearized map and q-row tables that
    `fill` completes for each y the first time a plan meets it; a later
    plan reads every helper with one gather.  A fill writes its rows before
    marking them known, and a row is a function of y alone, so threads may
    share an instance.
    """

    def __init__(self, tw, l: int):
        self.tower = tw
        self.lin = LinearizedMap(tw, tw.theta[:l])
        self.known = np.zeros(tw.q, dtype=bool)
        self.values = np.zeros((tw.t, tw.q), dtype=np.int64)  # column y: h_(i,u) where h_i = y
        self.chosen = np.zeros((tw.q, tw.t), dtype=bool)
        self.rows = np.zeros((tw.q, tw.t), dtype=np.int64)

    def fill(self, y) -> None:
        """Complete the tables at every code in y."""
        if self.known[y].all():
            return
        tw, lin = self.tower, self.lin
        new = np.zeros(tw.q, dtype=bool)
        new[y] = True
        ys = np.flatnonzero(new & ~self.known)
        zeta = np.array(tw.zeta)
        scale = np.array([[tw.div(zu, lin.c)] for zu in tw.zeta])
        self.values[:, ys] = tw.mul_arr(scale, lin.quotient_arr(tw.mul_arr(zeta[:, None], ys)))
        self.chosen[ys], self.rows[ys] = _index_sets(tw, lin, ys)
        self.known[ys] = True


@lru_cache(maxsize=8)
def _helper_tables(code: EvalCode, l: int) -> _HelperTables:
    """The `_HelperTables` of the code's tower and l, cached per (code, l)
    as `codes._reduced_augmented` caches per (code, extra pole): repeated
    plans against one code reuse them."""
    return _HelperTables(code.tower, l)


def build_scheme(
    code: EvalCode,
    target: int,
    helpers=None,
    l: int = 1,
    variant: str | None = None,
) -> RepairScheme:
    """Plan the repair of `target` from `helpers` (see `codes.repair_set`)."""
    tw = code.tower
    n = code.n
    target, helpers = repair_set(n, target, helpers)

    if variant is None:
        variant = VARIANT_RS if code.kind == "rs" else VARIANT_LINE
    if variant not in (VARIANT_RS, VARIANT_LINE, VARIANT_WEAK):  # not _CODE_KIND: a list is unhashable
        raise ValueError(f"unknown variant {variant!r}: expected one of {', '.join(_CODE_KIND)}")
    if _CODE_KIND[variant] != code.kind:
        raise ValueError(f"{variant!r} is not a variant for a {code.kind} code")
    l = integer(l, tw.t + 1, f"l={{0}} must satisfy 0 <= l <= t={tw.t}")
    tables = _helper_tables(code, l)

    # rs_code refuses repeated and out-of-field points, so n == q says the set is complete
    r = None if code.curve is None else code.curve.r
    complete = tw.q if r is None else r ** 3
    rho, all_ones = check_precondition(variant, code.s, len(helpers), l, tw.p, code.genus, r, n,
                                       complete)

    # h_i values at every position
    extra_zeros: tuple = ()
    if variant == VARIANT_RS:
        h_vals = tw.sub_arr(code.points, int(code.points[target]))
    elif variant == VARIANT_LINE:
        h_vals = vanishing_line(code.curve, code.points[target]).values(code.points)
    else:
        h_vals, zero_set = vanishing_function(code, target)
        extra_zeros = tuple(sorted(set(zero_set).intersection(helpers.tolist())))

    # value table of h_(i,u) = zeta_u * Q(zeta_u * h_i) / c over all positions
    tables.fill(h_vals)
    table = tables.values.take(h_vals, axis=1)
    if not np.array_equal(table[:, target], tw.zeta):
        raise AssertionError("normalisation failed: h_(i,u)(P_i) != zeta_u")

    # dual vector, w[target] = 1
    if all_ones:
        w = np.ones(n, dtype=np.int64)
    else:
        w = dual_support_vector(code, rho, target, helpers)

    weighted = w[helpers] != 0
    active = helpers[weighted]

    # per-helper independent index sets and expansions, laid out flat
    y = h_vals[active]
    chosen, rows = tables.chosen[y], tables.rows[y]
    per_node = np.zeros(n, dtype=np.int64)
    per_node[active] = chosen.sum(axis=1)
    start = np.concatenate([[0], np.cumsum(per_node)])
    helper_of = np.repeat(np.arange(n), per_node)
    owner, chosen_arr = np.nonzero(chosen)  # active helper and u of each sub-symbol

    return RepairScheme(
        code=code,
        target=target,
        helpers=tuple(helpers.tolist()),
        variant=variant,
        lin=tables.lin,
        w=w,
        active=tuple(active.tolist()),
        pruned=tuple(helpers[~weighted].tolist()),
        table=table,
        mu=tw.mul_arr(w[helper_of], table[chosen_arr, helper_of]),
        chosen_u=chosen_arr,
        lam=(rows[owner] // tw.p ** chosen_arr[:, None] % tw.p).T,  # digit chosen_u of each row
        start=start,
        extra_zeros=extra_zeros,
    )


def helper_response(scheme: RepairScheme, j: int, symbol) -> tuple:
    """The GF(p) sub-symbols node j sends for its stored symbol.

    Deterministic order (ascending chosen index): Tr(mu[k] * symbol) for
    each of j's sub-symbols k.  Pruned helpers are asked for nothing and return an empty tuple.
    Raises ValueError when j is not a helper; see "Library inputs" in the
    README for the symbols accepted.  A plain int j and a plain int symbol
    in [0, q), as `run_repair` passes them, skip the generic input rule,
    whose verdict on them is known.
    """
    if type(j) is not int:
        j = integer(j, None, "node {0} is not in the helper set")
    run = scheme.runs.get(j)
    if run is None:
        raise ValueError(f"node {j} is not in the helper set")
    tw = scheme.code.tower
    if not (type(symbol) is int and 0 <= symbol < tw.q):
        symbol = tw.code_of(symbol, "node {2} stores {0}, {1}", j)
    if len(run) == 1:  # t - l = 1, as on every quadratic tower with l = 1: no comprehension
        return (tw.trace(tw.mul(run[0], symbol)),)
    return tuple([tw.trace(tw.mul(m, symbol)) for m in run])


def _check_response(j, r) -> None:
    """Refuse a response that is not a list, tuple or 1-D integer array."""
    if not (isinstance(r, (list, tuple))
            or isinstance(r, np.ndarray) and r.ndim == 1 and r.dtype.kind in "iu"):
        raise ValueError(f"helper {j} sent a {type(r).__name__}, not a list, tuple or "
                         "1-D integer array")


def reconstruct(scheme: RepairScheme, responses) -> FieldElement:
    """Rebuild the lost symbol from the helpers' sub-symbol lists.

    Raises ValueError when an active helper's response is missing, is not
    a list, tuple or 1-D integer array, or has the wrong length, and when
    a response comes from a node that is no helper or a non-empty one from
    a pruned helper (an empty one, what `helper_response` returns there,
    is accepted); see "Library inputs" in the README for the values
    accepted, which lie in the base subfield GF(p).
    """
    tw = scheme.code.tower
    missing = [j for j in scheme.active if j not in responses]
    if missing:
        raise ValueError(f"missing response from helper {missing[0]}")
    if len(responses) != len(scheme.active):  # every active helper answered, and someone else
        for j, r in responses.items():
            run = scheme.runs.get(j)
            if run is None:
                raise ValueError(f"node {j} is not in the helper set: it sent a response")
            if not run:
                _check_response(j, r)
                if len(r):
                    raise ValueError(f"helper {j} is pruned: it sent {len(r)} symbols, "
                                     "expected 0")
    resps = [responses[j] for j in scheme.active]
    if not {list, tuple}.issuperset(map(type, resps)):  # arrays, subclasses or a bad response
        for j, r in zip(scheme.active, resps):
            _check_response(j, r)
    sent = [len(r) for r in resps]
    expected = scheme.active_counts
    if sent != expected:
        k = next(k for k, (a, b) in enumerate(zip(sent, expected)) if a != b)
        raise ValueError(
            f"helper {scheme.active[k]} sent {sent[k]} symbols, expected {expected[k]}")
    # the lengths match, so flat index k is sub-symbol k of the scheme
    vals = integers(list(chain.from_iterable(resps)), tw.p, "helper {2} sent {0}, {1}",
                    at=scheme.senders, domain=f"GF({tw.p})")
    # Tr(zeta_u * f(P_i)) = -sum_k lam[u, k] * response_k
    return from_traces(tw, tw.neg_arr(linalg._matvec(tw, scheme.lam, vals)))


def run_repair(scheme: RepairScheme, symbols) -> tuple[FieldElement, RepairTranscript]:
    """Execute the protocol against a stored codeword (symbol codes, length n).

    Each helper sees only its own coordinate; the target coordinate is never
    read.  Returns the rebuilt symbol and the download transcript.  See
    "Library inputs" in the README for the codewords accepted: 1-D of
    length n, only the active helpers' symbols being checked.
    """
    word = np.asarray(symbols)
    if word.shape != (scheme.code.n,):
        got = f"length {len(word)}" if word.ndim == 1 else f"shape {word.shape}"
        raise ValueError(f"codeword has {got}, expected n={scheme.code.n}")
    read = scheme.code.tower.codes_of(word[list(scheme.active)],
                                      "node {2} stores {0}, {1}", "codeword has", scheme.active)
    responses = {j: helper_response(scheme, j, x) for j, x in zip(scheme.active, read.tolist())}
    value = reconstruct(scheme, responses)
    counts = dict(zip(scheme.active, scheme.active_counts))  # the lengths reconstruct checked
    total = len(scheme.mu)
    transcript = RepairTranscript(
        target=scheme.target,
        responses=responses,
        symbol_counts=counts,
        total_symbols=total,
        total_bits=total * scheme.bits_per_symbol(),
    )
    return value, transcript


def bandwidth(scheme: RepairScheme) -> tuple[int, float]:
    """(total subfield symbols downloaded, total bits) for one repair."""
    symbols = len(scheme.mu)
    return symbols, symbols * scheme.bits_per_symbol()


def bound_symbols(scheme: RepairScheme) -> int:
    """The variant's bandwidth formula, in subfield symbols.

    Strong variants: d * (t - l) with d = |S|.  Weak variant:
    genus * t + (d - genus) * (t - l).
    """
    d = len(scheme.helpers)
    t, l = scheme.t, scheme.l
    if scheme.variant == VARIANT_WEAK:
        g = scheme.code.genus
        return g * t + (d - g) * (t - l)
    return d * (t - l)


def trivial_symbols(scheme: RepairScheme) -> int:
    """Subfield symbols a naive repair downloads: threshold whole symbols."""
    return scheme.code.threshold * scheme.t


def scheme_to_json(scheme: RepairScheme) -> dict:
    """JSON-ready view of a scheme: field elements as digit vectors
    (least-significant first), chosen index sets as plain lists."""
    tw = scheme.code.tower
    w = tw.digits_arr(scheme.w).tolist()
    table = tw.digits_arr(scheme.table.T).tolist()  # node -> u -> digits
    runs = {j: slice(scheme.start[j], scheme.start[j + 1]) for j in scheme.active}
    return {
        "variant": scheme.variant,
        "target": scheme.target,
        "helpers": list(scheme.helpers),
        "pruned": list(scheme.pruned),
        "l": scheme.l,
        "v_basis": tw.digits_arr(np.asarray(scheme.lin.v_basis, dtype=np.int64)).tolist(),
        "normaliser": tw.digits_arr(scheme.lin.c).tolist(),
        "dual_vector": {int(j): w[j] for j in scheme.active},
        "value_table": {int(j): table[j] for j in scheme.active},
        "chosen_indices": {int(j): scheme.chosen_u[runs[j]].tolist() for j in scheme.active},
        "expansion": {int(j): scheme.lam[:, runs[j]].tolist() for j in scheme.active},
        "per_helper_symbols": {int(j): len(scheme.mu[runs[j]]) for j in scheme.active},
    }


def transcript_to_json(transcript: RepairTranscript) -> dict:
    return {
        "target": transcript.target,
        "responses": {int(j): [int(v) for v in resp]
                      for j, resp in sorted(transcript.responses.items())},
        "symbol_counts": {int(j): c for j, c in sorted(transcript.symbol_counts.items())},
        "total_symbols": transcript.total_symbols,
        "total_bits": transcript.total_bits,
    }

