"""Reed-Solomon and Hermitian one-point evaluation codes.

Both families are handled through one EvalCode shape: a list of evaluation
points, a monomial basis of functions whose only pole sits at the common
point at infinity, and the generator matrix of their evaluations.  The pole
degree s plays the role the polynomial degree bound plays for Reed-Solomon
(s = k - 1 there); any s + 1 coordinates determine a codeword, which is what
`erasure_decode` exploits and what every repair path is checked against.

The Hermitian curve y**r + y = x**(r+1) over GF(r**2) contributes the two
special constructions the repair schemes need: `vanishing_line`, a function
whose divisor is (r+1)(P - Pinf) (it vanishes at one chosen affine point and
nowhere else), and `vanishing_function`, a function with pole order at most
genus+1 vanishing at a chosen point: always x - a_i, whose r - 1 extra zeros
are the price of the generic (weak) repair path.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .gf import FieldTower, integer, integers


class DecodeError(Exception):
    pass


class UnderdeterminedError(DecodeError):
    """Too few coordinates (or too little rank) to pin down the codeword."""


class InconsistentError(DecodeError):
    """The supplied coordinates do not agree with any codeword."""


class DualVectorError(Exception):
    """No dual vector with the required support/nonzero pattern exists."""


# ----------------------------------------------------------------------
# Hermitian curve
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HermitianCurve:
    """The curve y**r + y = x**(r+1) over GF(r**2) with its r**3 affine points.

    Points are sorted by (a, b) integer codes, so the enumeration is
    reproducible.  The point at infinity is never materialised; it only
    enters through pole orders.
    """

    tower: FieldTower
    r: int
    points: np.ndarray  # (r**3, 2) int64 codes
    genus: int

    def on_curve(self, a: int, b: int) -> bool:
        tw = self.tower
        lhs = tw.add(tw.pow(b, self.r), b)
        return lhs == tw.pow(a, self.r + 1)


def hermitian_curve(tw: FieldTower) -> HermitianCurve:
    q = tw.q
    r2 = round(q ** 0.5)
    if r2 * r2 != q:
        raise ValueError(f"Hermitian curve needs a square field size, got q={q}")
    r = r2
    codes = np.arange(q, dtype=np.int64)
    # bucket b by the value of b**r + b, then read fibers off a**(r+1)
    images = tw.add_arr(tw.pow_arr(codes, r), codes)
    buckets: dict[int, list[int]] = {}
    for b, z in zip(codes, images):
        buckets.setdefault(int(z), []).append(int(b))
    norms = tw.pow_arr(codes, r + 1).tolist()
    pts = [(a, b) for a, z in enumerate(norms) for b in sorted(buckets.get(z, ()))]
    points = np.array(pts, dtype=np.int64)
    if points.shape[0] != r ** 3:
        raise AssertionError(f"curve enumeration produced {points.shape[0]} points, expected {r ** 3}")
    return HermitianCurve(tower=tw, r=r, points=points, genus=r * (r - 1) // 2)


def rr_basis(r: int, s: int) -> list[tuple[int, int]]:
    """Monomials x**i y**j with pole order i*r + j*(r+1) <= s and j <= r-1.

    Sorted by pole order (ties by j; gcd(r, r+1) = 1 makes ties impossible
    within the j range).  For s >= 2*genus - 1 the count is s - genus + 1.
    """
    if s < 0:
        raise ValueError("pole degree must be >= 0")
    mons = [
        (i, j)
        for j in range(min(r, s // (r + 1) + 1))
        for i in range((s - j * (r + 1)) // r + 1)
    ]
    mons.sort(key=lambda ij: (ij[0] * r + ij[1] * (r + 1), ij[1]))
    return mons


# ----------------------------------------------------------------------
# evaluation codes
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EvalCode:
    """An evaluation code with one common pole.

    kind      "rs" or "hermitian"
    points    (n,) codes for RS, (n, 2) (a, b) codes for Hermitian
    s         pole degree bound of the function space (RS: k - 1)
    monomials exponents of the function basis: ints e for x**e (RS),
              pairs (i, j) for x**i y**j (Hermitian)
    generator k x n matrix of basis evaluations
    """

    tower: FieldTower
    kind: str
    points: np.ndarray
    s: int
    genus: int
    monomials: tuple
    generator: np.ndarray
    curve: HermitianCurve | None = field(default=None, compare=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def threshold(self) -> int:
        """Number of coordinates that always determines a codeword."""
        return self.s + 1


@dataclass(frozen=True)
class Codeword:
    code: EvalCode
    symbols: np.ndarray  # (n,) int64 codes

    def __eq__(self, other):
        return isinstance(other, Codeword) and np.array_equal(self.symbols, other.symbols)

    def __getitem__(self, i: int) -> int:
        return int(self.symbols[i])


def _rs_generator(tw: FieldTower, points: np.ndarray, k: int) -> np.ndarray:
    return np.stack([tw.pow_arr(points, e) for e in range(k)])


def _hermitian_rows(tw: FieldTower, points: np.ndarray, monomials) -> np.ndarray:
    """Rows x**i * y**j evaluated at the points, one per monomial (i, j).

    The powers of x come from one table, and the rows sharing a y-exponent
    j (there are at most r such groups) are multiplied in one call.
    """
    a, b = points[:, 0], points[:, 1]
    ij = np.asarray(monomials, dtype=np.int64).reshape(-1, 2)
    rows = np.empty((ij.shape[0], points.shape[0]), dtype=np.int64)
    if not ij.size:
        return rows
    a_pows = np.stack([tw.pow_arr(a, i) for i in range(ij[:, 0].max() + 1)])
    for j in set(ij[:, 1].tolist()):  # not np.unique: its first call imports numpy.ma
        group = np.flatnonzero(ij[:, 1] == j)
        rows[group] = tw.mul_arr(a_pows[ij[group, 0]], tw.pow_arr(b, j))
    return rows


def distinct(values) -> bool:
    """True when the entries of `values` are pairwise distinct.

    Sorts instead of calling np.unique: the first call of numpy's set
    routines in a process imports numpy.ma, which costs more than a sort.
    """
    ordered = np.sort(np.asarray(values), axis=None)
    return not (ordered[1:] == ordered[:-1]).any()


def rs_code(tw: FieldTower, k: int, points=None, n: int | None = None) -> EvalCode:
    """The dimension-k code on `points`, by default the first n codes (all
    q of them when n is None); with points, an n other than len(points) is
    refused.  The code keeps a copy of the points."""
    if n is not None:
        n = integer(n, None, "length n={0} is {1}", low=1)
        if points is not None and n != len(points):
            raise ValueError(f"length n={n} disagrees with the {len(points)} points given")
    if points is not None:
        n = len(points)
    elif n is None:
        n = tw.q
    if n > tw.q:
        raise ValueError(f"cannot place {n} distinct points in GF({tw.q})")
    points = integers(np.arange(n) if points is None else points, tw.q,
                      f"evaluation points must be codes in [0, {tw.q}), got {{0}}").copy()
    if not distinct(points):
        raise ValueError("evaluation points must be pairwise distinct")
    k = integer(k, None, "dimension k={0} is {1}", low=1)
    if k > n:
        raise ValueError(f"k={k} exceeds length n={n}")
    return EvalCode(
        tower=tw,
        kind="rs",
        points=points,
        s=k - 1,
        genus=0,
        monomials=tuple(range(k)),
        generator=_rs_generator(tw, points, k),
    )


def hermitian_code(curve: HermitianCurve, s: int, n: int | None = None) -> EvalCode:
    """The code of pole degree s on the first n affine points (default all
    r**3 of them); n outside 1..r**3 is refused."""
    total = curve.points.shape[0]
    label = f"length n={{0}} must be in 1..{total}, the curve's affine point count"
    pts = curve.points if n is None else curve.points[:integer(n, total + 1, label, low=1)]
    n = pts.shape[0]
    s = integer(s, None, "pole degree s={0} is {1}")
    if s >= n:
        raise ValueError(f"pole degree s={s} must be below the length n={n}")
    mons = rr_basis(curve.r, s)
    return EvalCode(
        tower=curve.tower,
        kind="hermitian",
        points=pts,
        s=s,
        genus=curve.genus,
        monomials=tuple(mons),
        generator=_hermitian_rows(curve.tower, pts, mons),
        curve=curve,
    )


def augmented_generator(code: EvalCode, extra_pole: int) -> np.ndarray:
    """Generator of the same-kind code with pole degree s + extra_pole.

    Used for dual-support searches; the row space may be the whole ambient
    space once the pole degree passes n, which is fine for that purpose.
    """
    s_aug = code.s + extra_pole
    if code.kind == "rs":
        return _rs_generator(code.tower, code.points, s_aug + 1)
    return _hermitian_rows(code.tower, code.points, rr_basis(code.curve.r, s_aug))


@functools.lru_cache(maxsize=8)
def _reduced_augmented(code: EvalCode, extra_pole: int) -> tuple[np.ndarray, np.ndarray]:
    """`linalg.rref` of `augmented_generator(code, extra_pole)`: its nonzero
    rows in the smallest unsigned dtype and its pivot columns, read-only.

    Every column restriction of the augmented generator has its nullspace
    read off this pair by `linalg.nullspace_of_columns`, which reduces only
    the rows whose pivot column a helper set drops: about 70 of 336 rows on
    the flagship's s=300, d=400 line plan and about 6 of 476 on its d=505
    weak plan.  Cached per (code, extra pole), as repeated repairs against
    one code reuse it.
    """
    tw = code.tower
    reduced, pivots = linalg.rref(tw, augmented_generator(code, extra_pole))
    rows = reduced[: len(pivots)].astype(np.min_scalar_type(tw.q - 1))
    pivots = np.asarray(pivots, dtype=np.int64)
    rows.setflags(write=False)
    pivots.setflags(write=False)
    return rows, pivots


def encode(code: EvalCode, message) -> Codeword:
    """`encode_many` of one message, its FieldElements unwrapped first."""
    msg = code.tower.codes_of(list(message), "message row 0, position {2} holds {0}, {1}",
                              "message codes have")
    return Codeword(code, encode_many(code, msg[None, :])[0])


def encode_many(code: EvalCode, messages: np.ndarray) -> np.ndarray:
    """(m, k) message block -> (m, n) codeword block; a block of another
    dtype or width is refused, not cast (see "Library inputs" in the README)."""
    messages = code.tower.codes_of(messages, "message row {2}, position {3} holds {0}, {1}",
                                   "message codes have")
    _check_width(messages, code.k, "message rows", f"k={code.k}")
    return linalg.matmul(code.tower, messages, code.generator)


def _check_width(block, width: int, rows: str, expected: str) -> None:
    """Refuse a block that is not 2-D with `width` columns, naming both."""
    shape = np.shape(block)
    if len(shape) != 2 or shape[1] != width:
        got = f"{shape[1]} symbols" if len(shape) == 2 else f"shape {shape}"
        raise ValueError(f"{rows} have {got}, expected {expected}")


def erasure_decode(code: EvalCode, known) -> Codeword:
    """`erasure_decode_many` of (position, value) pairs, its FieldElements
    unwrapped first."""
    known = list(known)
    positions = [p for p, _ in known]
    values = code.tower.codes_of([v for _, v in known], "value row 0, position {2} holds {0}, {1}",
                                 "value codes have", positions)
    return Codeword(code, erasure_decode_many(code, positions, values[None, :])[0])


def erasure_decode_many(code: EvalCode, positions, value_rows: np.ndarray) -> np.ndarray:
    """The (m, n) codewords agreeing with the (m, len(positions)) value rows
    at flat, pairwise distinct positions, from one elimination for the batch.

    Needs at least threshold = s + 1 positions, which always pin the
    message down: raises UnderdeterminedError below that and
    InconsistentError when a row matches no codeword.  Value rows are
    checked as `encode_many` checks messages; see "Library inputs" in the
    README.
    """
    positions = integers(positions, code.n, "position {0} is {1}")
    if positions.ndim != 1:
        raise ValueError(f"positions must be a flat sequence, got shape {positions.shape}")
    if not distinct(positions):
        raise ValueError("duplicate positions: each position may be given once")
    _check_width(value_rows, positions.size, "value rows", f"{positions.size}, one per position")
    if positions.size < code.threshold:
        raise UnderdeterminedError(
            f"{positions.size} coordinates given, {code.threshold} needed"
        )
    value_rows = code.tower.codes_of(value_rows, "value row {2}, position {3} holds {0}, {1}",
                                     "value codes have", positions)
    tw = code.tower
    mat = code.generator[:, positions].T
    msgs = linalg.solve(tw, mat, value_rows.T)
    if msgs is None:
        raise InconsistentError("coordinates match no codeword")
    return encode_many(code, msgs.T)


# ----------------------------------------------------------------------
# special functions on the Hermitian curve
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VanishingLine:
    """h = y + alpha*x - gamma with divisor (r+1)(P - Pinf)."""

    curve: HermitianCurve
    point: tuple[int, int]
    alpha: int
    gamma: int

    def values(self, points: np.ndarray) -> np.ndarray:
        tw = self.curve.tower
        a, b = points[:, 0], points[:, 1]
        return tw.sub_arr(tw.add_arr(b, tw.mul_arr(np.int64(self.alpha), a)), self.gamma)


def vanishing_line(curve: HermitianCurve, point) -> VanishingLine:
    """The line function vanishing (to order r+1) at one affine point only.

    alpha solves a = -alpha**r in closed form via the inverse Frobenius
    (alpha = (-a)**r), and gamma = b - alpha**(r+1); this works in every
    characteristic.
    """
    tw = curve.tower
    a, b = tw.codes_of(point, "point coordinate {0} is {1}").tolist()
    if not curve.on_curve(a, b):
        raise ValueError(f"({a}, {b}) is not on the curve")
    alpha = tw.pow(tw.neg(a), curve.r)
    gamma = tw.sub(b, tw.pow(alpha, curve.r + 1))
    return VanishingLine(curve=curve, point=(a, b), alpha=alpha, gamma=gamma)


def vanishing_function(code: EvalCode, i: int):
    """A nonzero function with pole order <= genus+1 vanishing at point i.

    Generic replacement for `vanishing_line` when only the weak repair
    guarantee is needed: returns (values at all code points, extra zero
    positions I_i).  The monomials run 1, x, ... (r <= genus+1), so the
    first nullspace vector of the constraint is x - a_i and I_i the other
    points with x = a_i: at most r - 1 <= genus.  The index i is checked
    against [0, n) by `integer`.
    """
    if code.kind != "hermitian":
        raise ValueError("generic vanishing functions are for Hermitian codes")
    i = integer(i, code.n, "point {0} is {1}")
    tw = code.tower
    mons = rr_basis(code.curve.r, code.genus + 1)
    rows = _hermitian_rows(tw, code.points, mons)
    constraint = rows[:, i][None, :]
    basis = linalg.nullspace(tw, constraint)
    values = linalg.matvec(tw, rows.T, basis[0])
    zero_set = [int(j) for j in np.nonzero(values == 0)[0] if j != i]
    return values, zero_set


# ----------------------------------------------------------------------
# dual vectors with prescribed support
# ----------------------------------------------------------------------


def repair_set(n: int, target, helpers) -> tuple[int, list]:
    """The target and its helpers (any iterable; default: every other node)
    as an int and a sorted list, checked against [0, n); a helper that is
    the target or appears twice, or no helpers, is a ValueError too."""
    target = integer(target, n, "target {0} is {1}")
    if helpers is None:
        helpers = [j for j in range(n) if j != target]
    idx = integers(list(helpers), n, "helper {0} is {1}")
    steps = np.diff(idx)
    if (steps <= 0).any():  # not strictly increasing: sort, then look again
        idx = np.sort(idx)
        steps = np.diff(idx)
    if not idx.size:
        raise ValueError("helper set is empty")
    if (idx == target).any():
        raise ValueError(f"helper {target} is the target: the target cannot be its own helper")
    if not steps.all():
        raise ValueError(f"helper {idx[np.argmin(steps != 0)]} appears more than once")
    return target, idx.tolist()


def dual_support_vector(code: EvalCode, extra_pole: int, i: int, helpers) -> np.ndarray:
    """A vector w orthogonal to the code of pole degree s + extra_pole
    (`augmented_generator(code, extra_pole)`) with w_i != 0 and support
    inside helpers + {i}, normalised to w_i = 1.

    Found as a nullspace vector of that generator restricted to the columns
    helpers + {i}: of the basis rows nonzero at i, the one with the fewest
    nonzeros (the first such row on a tie).  The basis is
    `linalg.nullspace_of_columns` of the generator's cached reduced form,
    byte for byte the nullspace of the restriction, which reduces only the
    rows whose pivot column the helper set drops.  Every helper where w is
    zero is pruned and downloads nothing, so the lightest row is the
    cheapest repair this basis offers.  It need not be the lightest dual
    vector: a combination of rows can cancel more positions.

    The target and helpers are checked by `repair_set`, extra_pole by
    `integer`.
    """
    i, helpers = repair_set(code.n, i, helpers)
    extra_pole = integer(extra_pole, None, "extra pole {0} is {1}")
    tw = code.tower
    pos_i = bisect.bisect_left(helpers, i)
    cols = helpers[:pos_i] + [i] + helpers[pos_i:]
    basis = linalg.nullspace_of_columns(tw, _reduced_augmented(code, extra_pole), cols)
    if basis.shape[0] == 0:
        raise DualVectorError("restricted dual code is trivial")
    reaches = np.flatnonzero(basis[:, pos_i])
    if not reaches.size:
        raise DualVectorError("no dual vector is nonzero at the repair position")
    weights = np.count_nonzero(basis[reaches], axis=1)
    pick = basis[reaches[weights.argmin()]]  # argmin takes the first row on a tie
    out = np.zeros(code.n, dtype=np.int64)
    out[cols] = tw.mul_arr(pick, tw.inv(int(pick[pos_i])))
    return out
