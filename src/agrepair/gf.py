"""Finite-field towers GF(p) <= GF(p**t) = GF(q) with trace, dual bases and
linearized maps.

An element of GF(q) is a plain integer in [0, q).  The integer is the base-p
expansion of the element's coordinate vector with respect to the polynomial
basis 1, x, ..., x**(t-1), least-significant digit first.  The base order p
may itself be a prime power; GF(p) is then built recursively the same way and
the encodings nest, so the copy of GF(p) inside GF(q) is exactly the set of
codes below p.  That makes digit lists, subfield membership and serialization
line up with no conversion tables.

A tower builds its tables from arrays over every code.  The modulus is the
least monic degree-t polynomial over GF(p), by the code of its lower
coefficients, with no root in `tower(p, d)` for any d <= t/2: exactly the
least irreducible one (Lidl and Niederreiter, Finite Fields, ch. 3).  Times x
is a map on all q codes, and the generator g is the least code whose map
(Horner in x) takes 1 through all q - 1 nonzero codes: that walk is exp.

Arithmetic is table-driven, with discrete log / antilog (exp/log) tables over
a fixed primitive element g as the one representation, and a trace table over
all q codes.  A sum is XOR in characteristic 2 and a Zech logarithm otherwise:
a + b = g**(la + zech[lb - la]), zech[k] being log(1 + g**k); up to
_ADD_TABLE_MAX = 2048 elements that kernel fills a q x q add table, and a
negation is g**(log a + (q - 1) / 2).  The hot scalar `mul`, `inv` and `trace`
read them as Python lists; scalar `pow`, and `add` in odd characteristic, wrap
`pow_arr` and `add_arr`.  The *_arr methods are vectorised counterparts on
numpy integer arrays, and every sum_k c_k * x_k here is one `linalg.matvec`.
A field of at most PRODUCT_TABLE_MAX = 256 elements also keeps its whole q x q
product table `mul_table`, one byte per entry (4 KB at GF(64), 64 KB at
GF(256)).  `mul_outer`, the products of two code vectors, is its only reader:
`linalg.rref` and `linalg.matmul` multiply through it and never look at the
table, and a larger field's `mul_outer` runs on exp/log instead.

Towers are immutable after construction and all operations are pure, so
instances can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_FIELD_SIZE = 1 << 16  # desk-scale cap; exp/log and trace tables are O(q)
PRODUCT_TABLE_MAX = 256   # q x q uint8 product table up to here (q**2 bytes)
_ADD_TABLE_MAX = 2048     # odd characteristic: dense q x q add table below this


def prime_power(n: int):
    """Return (p0, e) with n == p0**e and p0 prime, or None."""
    if n < 2:
        return None
    p0 = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)  # the least prime factor
    e = 0
    while n % p0 == 0:
        n //= p0
        e += 1
    return (p0, e) if n == 1 else None


def _integers_only(entries) -> bool:
    """Whether every entry is a Python int or a numpy integer (bool and
    np.bool_ are not integers)."""
    return all(k is int or issubclass(k, np.integer) for k in set(map(type, entries)))


def _not_integer(value) -> str:
    return f"not an integer: its type {type(value).__name__} is not an integer dtype"


def _outside(low, bound, domain) -> str:
    return f"outside {domain or f'[{low}, {bound})'}" if bound is not None else f"below {low}"


def integer(value, bound, what: str, where=None, low=0, domain=None) -> int:
    """The input rule for one index or element code: an integer in
    [low, bound) (no upper limit when bound is None), returned as an int.

    Anything else is a ValueError whose text is what.format(value, reason,
    where): the value as given (its repr when it is no integer), then
    "not an integer: ..." or "outside <domain>" (by default the range),
    then the caller's index.  Wording that leaves out the reason names
    both failures alike.
    """
    if type(value) is int or isinstance(value, np.integer):
        if low <= value and (bound is None or value < bound):
            return value if type(value) is int else int(value)
        raise ValueError(what.format(int(value), _outside(low, bound, domain), where))
    raise ValueError(what.format(repr(value), _not_integer(value), where))


def integers(values, bound, what: str, block=None, at=None, domain=None) -> np.ndarray:
    """The same rule for a block, as an int64 array: an integer-dtype array,
    or a list or tuple (nested for rows) of values `integer` accepts, their
    types checked first, as np.asarray([True, 0]) would silently be int64.

    An entry is named as `integer` names a value, the index fields being
    its row (in a 2-D block) and its column c, read as at[c] when given.
    A block of another dtype is refused as "<block> dtype <dtype>, not an
    integer dtype" (with `what` when no `block` is given).
    """
    if isinstance(values, (list, tuple)):
        if not _integers_only(values):  # the rows of a block, or a bad entry
            entries = np.array(values, dtype=object)
            if not _integers_only(entries.flat):
                index = next(i for i, v in np.ndenumerate(entries) if not _integers_only([v]))
                if entries.ndim == 1 and all(isinstance(v, (list, tuple, np.ndarray))
                                             for v in values):
                    np.array(values)  # ragged rows: numpy names the shape
                raise _entry_error(what, repr(entries[index]), _not_integer(entries[index]),
                                   index, at)
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:
            entries = np.array(values, dtype=object)
            index = next(i for i, v in np.ndenumerate(entries) if not -2 ** 63 <= v < 2 ** 63)
            reason = f"{_outside(0, bound, domain)}: beyond int64, not an integer dtype"
            raise _entry_error(what, entries[index], reason, index, at) from None
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        shown = f"dtype {values.dtype}"
        raise ValueError(f"{block} {shown}, not an integer dtype" if block
                         else what.format(shown, "not an integer dtype"))
    codes = values.astype(np.int64, copy=False)
    # one pass over the block: viewed as uint64, a negative entry (or a
    # uint64 one of 2**63 or more, which the cast wraps) is above any bound
    if codes.size and codes.view(np.uint64).max() >= bound:
        index = tuple(np.argwhere((values < 0) | (values >= bound))[0].tolist())
        raise _entry_error(what, int(values[index]), _outside(0, bound, domain), index, at)
    return codes


def _entry_error(what, shown, reason, index, at) -> ValueError:
    where = index if at is None or not index else index[:-1] + (at[index[-1]],)
    return ValueError(what.format(shown, reason, *where, index=list(where)))


class FieldTower:
    """GF(q) = GF(p**t) presented as a degree-t extension of GF(p).

    Parameters
    ----------
    p : base subfield order (prime or prime power)
    t : extension degree, >= 1, with p**t at most MAX_FIELD_SIZE

    `modulus` (t + 1 coefficient codes, least significant first) is the
    least monic degree-t irreducible over GF(p), by the code of its lower
    coefficients, and `generator` is the least code that generates GF(q)*;
    both are found by array passes over every code (see the module
    docstring), and they pin the representation across runs.
    """

    def __init__(self, p: int, t: int):
        p = integer(p, None, "base order p={0} is {1}", low=2)
        t = integer(t, None, "extension degree t={0} is {1}", low=1)
        # p >= 2 puts any t > 16 past the cap, so p**t is only taken when small
        if p > MAX_FIELD_SIZE or t > 16 or p ** t > MAX_FIELD_SIZE:
            raise ValueError(f"field size p**t with p={p}, t={t} exceeds the supported cap "
                             f"{MAX_FIELD_SIZE}")
        pp = prime_power(p)
        if pp is None:
            raise ValueError(f"base order p={p} is not a prime power")
        q = p ** t
        self.p = p
        self.t = t
        self.q = q
        self.name = f"GF({q})"
        self.char, base_deg = pp
        self.base = None if base_deg == 1 else tower(self.char, base_deg)

        self._build_tables()

        # polynomial basis 1, x, ..., x^(t-1) and its trace-dual
        self.zeta = tuple(p ** u for u in range(t))
        self.theta = self.dual_basis(self.zeta)
        self._theta_row = np.array([self.theta], dtype=np.int64)  # (1, t), for from_traces
        self._theta_row.setflags(write=False)

    # ------------------------------------------------------------------
    # table construction
    # ------------------------------------------------------------------
    def _generator_powers(self) -> np.ndarray:
        """Pick `modulus` and `generator`, and return the generator's powers
        1, g, ..., g**(q-2) as codes: the exp table."""
        p, t, q = self.p, self.t, self.q
        fields = [tower(p, d) for d in range(1, t // 2 + 1)]  # the modulus has no root there

        def has_root(f):  # the modulus at every code of f, by Horner
            xs = np.arange(f.q, dtype=np.int64)
            values = np.zeros_like(xs)
            for c in reversed(self.modulus):
                values = f.add_arr(f.mul_arr(values, xs), c)
            return not values.all()

        for lower in range(q):
            self.modulus = tuple(self.digits_arr(lower).tolist()) + (1,)
            if not any(map(has_root, fields)):
                break

        # sums and base multiples go digit by digit: t // 2 digits at a time in
        # GF(p**(t // 2)), or one in GF(p) when t = 1 (integers mod p for a prime p)
        part = fields[-1] if fields else self.base
        if part is None:
            size, add, mul = p, (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)
        else:
            size, add, mul = part.q, part.add_arr, part.mul_arr
        shifts = [size ** k for k in range(t) if size ** k < q]

        def plus(a, b):
            return sum(add(a // s % size, b // s % size) * s for s in shifts)

        def scale(c, a):  # c * a for base scalars c
            return sum(mul(c, a // s % size) * s for s in shifts)

        # x * v: the digits shift up, and the top one returns times
        # x**t = -(m_0 + ... + m_(t-1) x**(t-1)), the code (char - 1) * lower
        codes = np.arange(q, dtype=np.int64)
        times_x = plus(codes % (q // p) * p, scale(codes // (q // p), scale(self.char - 1, lower)))

        for gen in range(p if t > 1 else 1, q):  # below p, the subfield when t > 1, none generates
            times_g = np.zeros_like(codes)  # g * v by Horner in x
            for c in reversed(self.digits_arr(gen).tolist()):
                times_g = times_x[times_g]
                if c:
                    times_g = plus(times_g, scale(c, codes))
            walk, power = np.ones(1, dtype=np.int64), times_g  # walk[i] = g**i; power = g**len(walk)
            while len(walk) < q - 1:
                walk, power = np.concatenate([walk, power[walk]]), power[power]
            if not (walk[1:q - 1] == 1).any():
                self.generator = gen
                return walk[:q - 1]

    def _build_tables(self):
        q = self.q
        order = q - 1
        exp = np.zeros(4 * order + 2, dtype=np.int64)
        exp[:order] = self._generator_powers()
        exp[order:2 * order] = exp[:order]
        log = np.zeros(q, dtype=np.int64)
        log[exp[:order]] = np.arange(order)
        log[0] = 2 * order  # sentinel: any product involving 0 lands on a 0 entry
        self._exp = exp
        self._log = log
        self._order = order
        # row a of mul_table is a * every code, exp[log a + log b]: row log a of
        # a view whose row i is exp[i:i + 2q - 1], as bytes (no q x q index array)
        self.mul_table = (sliding_window_view(exp.astype(np.uint8), 2 * order + 1)[log]
                          .take(log, axis=1) if q <= PRODUCT_TABLE_MAX else None)
        self._exp_list = exp.tolist()  # the scalar ops read Python lists
        self._log_list = log.tolist()

        self._add_table = self._neg_table = None
        if self.char != 2:
            # g**zech[k] = 1 + g**k (0 at the sentinel); 1 + x adds 1 to x's lowest prime digit
            x, p0 = exp[:order], self.char
            self._zech = log[x - x % p0 + (x + 1) % p0]
            if q <= _ADD_TABLE_MAX:  # filled 128 rows at a time, to bound the temporaries
                rows, cols = np.ogrid[:q, :q]
                self._add_table = np.empty((q, q), dtype=np.int64)
                for r in range(0, q, 128):
                    self._add_table[r:r + 128] = self._zech_add(rows[r:r + 128], cols)
            self._neg_table = exp[log + order // 2]  # -1 = g**((q - 1) / 2)

        # Tr(a) = a + a**p + ... + a**(p**(t-1)) for every code, so that a
        # trace, scalar or array, is one lookup
        acc = x = np.arange(q, dtype=np.int64)
        for _ in range(self.t - 1):
            x = self.pow_arr(x, self.p)
            acc = self.add_arr(acc, x)
        self._trace_table = acc
        self._trace_list = acc.tolist()

    # ------------------------------------------------------------------
    # scalar arithmetic on integer codes
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        return a ^ b if self.char == 2 else int(self.add_arr(a, b))

    def neg(self, a: int) -> int:
        return a if self.char == 2 else int(self._neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self._exp_list[self._log_list[a] + self._log_list[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp_list[self._order - self._log_list[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        return int(self.pow_arr(a, k))

    def frob(self, a: int) -> int:
        """Frobenius relative to the base subfield: a -> a**p."""
        return self.pow(a, self.p)

    def trace(self, a: int) -> int:
        """Trace into GF(p): a + a**p + ... + a**(p**(t-1)).  Returns a code < p."""
        return self._trace_list[a]

    # ------------------------------------------------------------------
    # vectorised arithmetic on numpy arrays of codes
    # ------------------------------------------------------------------
    def add_arr(self, a, b):
        if self.char == 2:
            return np.bitwise_xor(a, b)
        if self._add_table is not None:
            return self._add_table[a, b]
        return self._zech_add(a, b)

    def _zech_add(self, a, b):
        """a + b in odd characteristic as g**la * (1 + g**(lb - la))."""
        a, b = np.asarray(a), np.asarray(b)
        la, lb = self._log[a], self._log[b]
        out = self._exp[la + self._zech[(lb - la) % self._order]]
        return np.where(a == 0, b, np.where(b == 0, a, out))

    def neg_arr(self, a):
        return a if self.char == 2 else self._neg_table[a]

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def mul_outer(self, a, b):
        """The (len a, len b) products a[i] * b[j] of two 1-D code vectors.

        With a product table this is two gathers of it, uint8: by b's
        columns first when a has at least q entries (a q-row table whose
        rows are then copied whole), by a's rows first otherwise.  Without
        one, exp/log over the outer shape, int64.
        """
        table = self.mul_table
        if table is None:
            return self._exp[self._log[a][:, None] + self._log[b][None, :]]
        if self.q <= len(a):
            return table.take(b, axis=1).take(a, axis=0)
        return table.take(a, axis=0).take(b, axis=1)

    def inv_arr(self, a):
        if np.any(np.asarray(a) == 0):
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._order - self._log[a]]

    def pow_arr(self, a, k: int):
        a = np.asarray(a)
        if k == 0:
            return np.ones_like(a)
        if k < 0 and (a == 0).any():
            raise ZeroDivisionError("negative power of zero")
        out = self._exp[(self._log[a] * (k % self._order)) % self._order]
        return np.where(a == 0, 0, out)

    def trace_arr(self, a):
        return self._trace_table[a]

    # ------------------------------------------------------------------
    # digit views and elements
    # ------------------------------------------------------------------
    def code_of(self, value, what: str, where=None) -> int:
        """`integer` against this field: an element code, or a FieldElement
        of this tower unwrapped to its code; one of another tower is refused
        as "an element of a different tower"."""
        if isinstance(value, FieldElement):
            if value.tower != self:
                raise ValueError(what.format(repr(value), "an element of a different tower", where))
            return value.code
        return integer(value, self.q, what, where, 0, self.name)

    def codes_of(self, values, what: str, block=None, at=None) -> np.ndarray:
        """`integers` against this field, a list's FieldElements read by `code_of`."""
        if isinstance(values, (list, tuple)) and any(isinstance(v, FieldElement) for v in values):
            values = [self.code_of(v, what, k if at is None else at[k])
                      if isinstance(v, FieldElement) else v for k, v in enumerate(values)]
        return integers(values, self.q, what, block, at, domain=self.name)

    def digits(self, code: int) -> tuple:
        """Base-p digit vector, least-significant first, length t."""
        return tuple(self.digits_arr(self.code_of(code, "code {0} is {1}")).tolist())

    def from_digits(self, digits) -> int:
        """The code of one digit vector, its digits read by `integers` (so
        1.9 or True is refused, not truncated) and in [0, p)."""
        return int(self.from_digits_arr(integers(
            list(digits), self.p, f"digit {{2}} is {{0}}, {{1}}; digits must lie in [0, {self.p})")))

    def digits_arr(self, a):
        """(..., t) array of base-p digit codes for an array of element codes."""
        return (np.asarray(a)[..., None] // (self.p ** np.arange(self.t, dtype=np.int64))) % self.p

    def from_digits_arr(self, dig):
        """Inverse of digits_arr: a (..., t) digit array -> (...) element codes.
        A list or tuple is read by `integers` (so True or 1.9 is refused by
        name); an array of another dtype than an integer one is refused, not
        cast."""
        if isinstance(dig, (list, tuple)):
            dig = integers(dig, self.p, "digit at {index} is {0}, {1}", domain=f"[0, {self.p})")
        dig = np.asarray(dig)
        if dig.dtype.kind not in "iu":
            raise ValueError(f"digit array dtype {dig.dtype}, not an integer dtype")
        dig = dig.astype(np.int64, copy=False)
        if dig.ndim == 0 or dig.shape[-1] != self.t:
            raise ValueError(f"expected {self.t} digits, got {dig.shape[-1] if dig.ndim else 0}")
        bad = ((dig < 0) | (dig >= self.p)).any(axis=-1)
        if bad.any():
            first = dig.reshape(-1, self.t)[np.argmax(bad.ravel())].tolist()
            raise ValueError(
                f"invalid digit vector {first} for GF({self.q}): digits must lie in [0, {self.p})"
            )
        return dig @ (self.p ** np.arange(self.t, dtype=np.int64))

    def element(self, value) -> "FieldElement":
        """The element of a code or a FieldElement (see `code_of`), or of a
        digit vector given as a list, tuple or array."""
        if isinstance(value, (list, tuple, np.ndarray)):
            return FieldElement(self, self.from_digits(value))
        return FieldElement(self, self.code_of(value, "code {0} is {1}"))

    @property
    def zero(self):
        return FieldElement(self, 0)

    # ------------------------------------------------------------------
    # dual bases and trace representation
    # ------------------------------------------------------------------
    def dual_basis(self, primal) -> tuple:
        """Basis theta with trace(zeta_i * theta_j) = [i == j].

        Computed by inverting the Gram matrix trace(zeta_i * zeta_j) over
        GF(p); raises ValueError when the input is linearly dependent (the
        trace form is non-degenerate, so dependence is the only failure).
        """
        from .linalg import matvec, solve

        primal = np.array([self.element(z).code for z in primal], dtype=np.int64)
        t = self.t
        if len(primal) != t:
            raise ValueError(f"primal basis must have {t} elements")
        gram = self.trace_arr(self.mul_outer(primal, primal))
        inv = solve(self, gram, np.eye(t, dtype=np.int64))
        if inv is None:
            raise ValueError("primal set is linearly dependent over the base subfield")
        return tuple(matvec(self, inv.T, primal).tolist())

    def __eq__(self, other):
        return isinstance(other, FieldTower) and (self.p, self.t) == (other.p, other.t)

    def __hash__(self):
        return hash((self.p, self.t))

    def __repr__(self):
        return f"FieldTower(p={self.p}, t={self.t}, q={self.q})"


@lru_cache(maxsize=None)
def tower(p: int, t: int) -> FieldTower:
    """Memoised FieldTower(p, t)."""
    return FieldTower(p, t)


@dataclass(frozen=True)
class FieldElement:
    """One element of a FieldTower, wrapping its integer code."""

    tower: FieldTower
    code: int

    @property
    def digits(self) -> tuple:
        return self.tower.digits(self.code)

    def _coerce(self, other) -> int:
        return self.tower.element(other).code

    def __add__(self, other):
        return FieldElement(self.tower, self.tower.add(self.code, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.tower, self.tower.sub(self.code, self._coerce(other)))

    def __rsub__(self, other):
        return FieldElement(self.tower, self.tower.sub(self._coerce(other), self.code))

    def __mul__(self, other):
        return FieldElement(self.tower, self.tower.mul(self.code, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.tower, self.tower.div(self.code, self._coerce(other)))

    def __rtruediv__(self, other):
        return FieldElement(self.tower, self.tower.div(self._coerce(other), self.code))

    def __neg__(self):
        return FieldElement(self.tower, self.tower.neg(self.code))

    def __pow__(self, k: int):
        return FieldElement(self.tower, self.tower.pow(self.code, k))

    def inverse(self):
        return FieldElement(self.tower, self.tower.inv(self.code))

    def frobenius(self):
        return FieldElement(self.tower, self.tower.frob(self.code))

    def trace(self) -> int:
        return self.tower.trace(self.code)

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        return f"<{self.code} in GF({self.tower.q})>"


def trace_reconstruct(traces, tw: FieldTower) -> FieldElement:
    """Rebuild alpha from its trace coordinates (trace(alpha * zeta_u))_u.

    Inverse of the trace representation: alpha = sum_u trace(alpha zeta_u) theta_u.
    """
    traces = list(traces)
    if len(traces) != tw.t:
        raise ValueError(f"expected {tw.t} trace values, got {len(traces)}")
    vals = integers(traces, tw.p, "trace value {0} {1}", domain="the base subfield")
    if vals.ndim != 1:
        raise ValueError(f"trace values must be a flat sequence, got shape {vals.shape}")
    return from_traces(tw, vals)


def from_traces(tw: FieldTower, vals) -> FieldElement:
    """`trace_reconstruct` of t trace values already known to be base
    subfield codes in a 1-D integer array, unchecked: what
    `repair.reconstruct` computes itself."""
    from .linalg import _matvec

    return FieldElement(tw, int(_matvec(tw, tw._theta_row, vals)[0]))


class LinearizedMap:
    """The GF(p)-linear map x -> prod_{v in V} (x - v) for a subspace V.

    `V` is spanned by `v_basis`, l elements independent over GF(p) (as
    `linalg.rank_over_base` checks); the kernel of the map is exactly V and
    the image has codimension l over GF(p).  The normalisation constant
    c = prod of -v over nonzero v in V equals the value of L(x)/x extended
    to x = 0, which is what `quotient` computes: evaluating L(z h)/h at
    zeros of h stays well defined through it.
    """

    def __init__(self, tw: FieldTower, v_basis):
        from .linalg import matvec, rank_over_base

        v_basis = tuple(tw.element(v).code for v in v_basis)
        l = len(v_basis)
        if rank_over_base(tw, v_basis) != l:  # also when l > t
            raise ValueError("v_basis is linearly dependent over the base subfield")
        self.tower = tw
        self.v_basis = v_basis
        self.l = l
        coeffs = tw.digits_arr(np.arange(tw.p ** l))[:, :l]
        kernel = matvec(tw, coeffs, v_basis).tolist()
        self.kernel = tuple(sorted(kernel))  # p**l distinct elements, v_basis being independent
        self.c = self.quotient(0)

    @property
    def image_dim(self) -> int:
        return self.tower.t - self.l

    def quotient(self, x: int) -> int:
        """prod over nonzero v in V of (x - v); equals L(x)/x away from 0 and c at 0."""
        return int(self.quotient_arr(x))

    def __call__(self, x) -> int:
        return int(self.eval_arr(self.tower.code_of(x, "x={0} is {1}")))

    def quotient_arr(self, xs):
        tw = self.tower
        acc = np.ones_like(np.asarray(xs))
        for v in self.kernel:
            if v:
                acc = tw.mul_arr(acc, tw.sub_arr(xs, v))
        return acc

    def eval_arr(self, xs):
        return self.tower.mul_arr(np.asarray(xs), self.quotient_arr(xs))

    def image(self):
        """All values of the map (used by tests; O(q))."""
        return sorted(set(int(v) for v in self.eval_arr(np.arange(self.tower.q))))
