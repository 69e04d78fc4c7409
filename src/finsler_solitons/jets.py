"""Truncated multivariate Taylor (jet) arithmetic.

Every curvature quantity downstream is a combination of partial derivatives
of scalar functions of the chart coordinates.  A Jet stores the Taylor
coefficients of such a function at one point up to a fixed total degree, and
arithmetic on Jets propagates those coefficients exactly, so derivatives come
out with no truncation error beyond float rounding.  A central-difference
fallback (`fd_derivative`) provides an independent cross-check.

A space holds a downward-closed set of monomials: total degree <= order,
and, when it bounds x_vars > 0 variables, degree <= X_ORDER in those first
variables (`flag_space` builds this bigraded set of F^2; `jet_space` the
plain one).  The monomials cut off form an ideal, so products and Taylor
composition are exact on the kept ones.  Orders run from 0 to MAX_ORDER,
the engine's working order (the spray's second derivatives read F^2 to
total degree 4 and x-degree 2); a space of any other order is refused.

Jets combine across spaces by prefix embedding: a jet over a space of k
variables is read as a jet over the first k variables of a larger space,
with vanishing coefficients on the others.  A space embeds into a larger
one when its padded monomials are exactly the larger space's monomials over
its variables, so (k, order) embeds into (m, order), and (n, 2) into the
flag space `flag_space(n, order)`; any other pair raises ValueError.  So a
field that depends on x only can be expanded in the n x-variables and meet
jets in all 2n flag coordinates.  Sums embed the smaller jet.  Products
never build the padded jet: they run the sub-table of the larger product
table whose pairs take their small-side coefficient from the embedded
positions, kept in the big table's order, and read the small jet in place
(`_mul_table`).  The result is exact: graded-lex order keeps the embedded
positions increasing, so every coefficient of a mixed product sums the same
nonzero products in the same order as the all-2n computation, bit for bit
(each pair left out multiplies a padded zero, which changes no finite sum).

Derivative tensors come from one place: d^m f is the coefficient of m times
m! (Griewank-Utke-Walther), so a tensor of k-th partials is one gather from
the positions `tensor_index` caches per index tuple (`derivative_tensors`).

A jet's coefficients may carry leading lane axes, shape (...lanes, nterms):
one jet per lane, the expansions of one function at a stack of points
(Taylor arithmetic vectorised over points, Griewank-Walther), so x-only work
at every sample point of a run is one pass of numpy calls.  Each lane is
bit-equal to the unlaned jet at its point, signs of zero included: sums,
differences and products or quotients by a scalar are elementwise, and a
scalar operand broadcasts as the constant jet it is unlaned; a product with
a laned jet is `mul_rows`, which runs the table an unlaned product runs
(the cross-space one across spaces) and sums each lane's pairs in table
order, one block of lanes at a time (`MUL_BLOCK`); and `_compose` takes
per-lane derivative arrays, which the derivative builders make with `math`
on each lane's float (`_per_lane`), not with numpy ufuncs, whose last bit
can differ.  `value` and `partial` of a laned jet are lane arrays, never
lane 0, and every guard checks all lanes and names the ones it refuses
(`refuse`).  An unlaned jet keeps the one-point code path.
Lanes reach the flag space: a stack of flags is one stage laned over their
x and flag variables laned over their y, so F^2 and its `YForms` are laned
jets over the flag space, one lane per flag; `lane` slices lanes out.
Floats have lanes the same way: an array of lane values through a `jets`
function (`sqrt`, `exp`, ..., `power`) maps each lane's float as the scalar
call does (`_on_floats`), and `scalar_value` passes it through.

The metric stages' forms in y, sum_ij r_ij y_i y_j and sum_i sum_k c_ik y_i,
come from one kernel, `YForms`.  When the y are the variables n..2n-1 of
their space and the coefficients x-jets (or floats, as constant jets), every
coefficient of a term (r_ij y_i) y_j is known: at x^a it is (r_a y0_i) y0_j,
at x^a dy_i r_a y0_j, at x^a dy_j r_a y0_i (twice that when i = j), at
x^a dy_i dy_j r_a, and at every other monomial zero; a term c_ik y_i has
c_a y0_i at x^a and c_a at x^a dy_i.  A plan cached per (x space, flag
space) (`_form_plan`) maps each of these slots to its position, or to a sink
for a monomial the space cuts off, and one `bincount` adds them.  For
finite coefficients this is bit-equal to the jet loop, signs of zero
included: each coefficient of a term's products sums one nonzero product
(two equal ones at x^a dy_i, i = j, whose sum doubles exactly) and zeros,
from +0.0; the loop then adds the terms to 0.0 in loop order, and the
`bincount`, fed term by term, adds each position's slots in the same order
from +0.0, while the zero slots it never sees change nothing (a sum that
starts at +0.0 is never -0.0).  Other y run the loop.
"""

from __future__ import annotations

import collections
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


MAX_ORDER = 4       # the largest jet order, that of F^2 for the spray's second derivatives
X_ORDER = 2         # the x-degree bound of a flag space, the most a spray formula reads


class EvaluationError(ArithmeticError):
    """A primitive was evaluated outside its domain (message names it)."""


class FdStepWarning(UserWarning):
    """Finite-difference step is too small for the coordinate magnitude."""


def _multis_of_degree(nvars, deg):
    if nvars == 1:
        yield (deg,)
        return
    for head in range(deg, -1, -1):
        for tail in _multis_of_degree(nvars - 1, deg - head):
            yield (head,) + tail


class JetSpace:
    """Multi-index bookkeeping shared by all jets of one monomial set.

    The set is every multi-index of total degree <= order (0..MAX_ORDER)
    whose degree in the first `x_vars` variables is <= X_ORDER (with the
    default x_vars = 0, or order <= X_ORDER, no such bound).
    Storage is dense: one coefficient per kept multi-index, graded by degree.
    The multiplication table (ia, ib, ic) lists, in the multi-indices'
    order, every coefficient pair whose product is kept.  The kept set is
    downward closed and a graded-lex subsequence of the plain (nvars,
    order) set, so a bigraded table is the plain one restricted to the
    pairs whose output is kept, and every kept coefficient sums the same
    products in the same order as in the plain space.
    """

    def __init__(self, nvars: int, order: int, x_vars: int = 0):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"jet order must be 0..{MAX_ORDER} (MAX_ORDER), got {order}")
        if not 0 <= x_vars <= nvars:
            raise ValueError("need 0 <= x_vars <= nvars")
        if order <= X_ORDER:
            x_vars = 0
        self.nvars = nvars
        self.order = order
        self.x_vars = x_vars
        self.multis = tuple(m for deg in range(order + 1) for m in _multis_of_degree(nvars, deg)
                            if sum(m[:x_vars]) <= X_ORDER)
        self.index = {m: i for i, m in enumerate(self.multis)}
        self.nterms = len(self.multis)
        self.factorials = np.array([math.prod(map(math.factorial, m)) for m in self.multis],
                                   float)
        ia, ib, ic = [], [], []
        degs = [sum(m) for m in self.multis]
        for i, ma in enumerate(self.multis):
            da = degs[i]
            for j, mb in enumerate(self.multis):
                if da + degs[j] > order:
                    continue
                k = self.index.get(tuple(a + b for a, b in zip(ma, mb)))
                if k is not None:
                    ia.append(i)
                    ib.append(j)
                    ic.append(k)
        self.mul_ia = np.asarray(ia, dtype=np.intp)
        self.mul_ib = np.asarray(ib, dtype=np.intp)
        self.mul_ic = np.asarray(ic, dtype=np.intp)

    def __repr__(self):
        bound = f", x_vars={self.x_vars}" if self.x_vars else ""
        return f"JetSpace(nvars={self.nvars}, order={self.order}{bound})"


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


@lru_cache(maxsize=None)
def flag_space(n: int, order: int) -> JetSpace:
    """The space of F^2 at a flag: 2n variables (x first, then y), total
    degree <= order and x-degree <= X_ORDER, the most any spray formula
    reads.  Up to order X_ORDER that is the plain (2n, order) space, the
    same cached object as `jet_space(2n, order)`."""
    if order <= X_ORDER:
        return jet_space(2 * n, order)
    return JetSpace(2 * n, order, x_vars=n)


@lru_cache(maxsize=None)
def _prefix_positions(small: JetSpace, big: JetSpace) -> np.ndarray:
    """Position in `big` of each multi-index of `small`, padded with zeros.

    `small` embeds into `big` when its padded multi-indices are exactly the
    multi-indices of `big` over its variables; any other pair raises.
    """
    pad = (0,) * (big.nvars - small.nvars)
    pos = [big.index.get(m + pad) for m in small.multis]
    over = sum(1 for m in big.multis if not any(m[small.nvars:]))
    if big.nvars < small.nvars or None in pos or over != small.nterms:
        raise ValueError(f"jets over {small} and {big} cannot be combined: "
                         "their orders differ")
    pos = np.array(pos, dtype=np.intp)
    pos.setflags(write=False)           # shared by every caller of the cache
    return pos


@lru_cache(maxsize=None)
def tensor_index(space: JetSpace, degree: int, n: int | None = None,
                 offsets: tuple = ()) -> np.ndarray:
    """pos[t1..tk] = position in `space` of the monomial x_t1 ... x_tk, k = degree.

    Axis a ranges over the variables offsets[a] ... offsets[a] + n - 1 (by
    default all variables).  Builds no space; the array is shared (read-only).
    """
    n = space.nvars if n is None else n
    offsets = offsets or (0,) * degree
    pos = np.empty((n,) * degree, dtype=np.intp)
    for t in itertools.product(range(n), repeat=degree):
        m = collections.Counter(off + k for off, k in zip(offsets, t))
        pos[t] = space.index[tuple(m[v] for v in range(space.nvars))]
    pos.setflags(write=False)
    return pos


def derivative_tensors(coeffs, space: JetSpace, order: int) -> list:
    """[values, d, ..., d^order] of coefficient rows coeffs[..., :] over `space`:
    d^k[..., t1..tk] = d^k / dx_t1 ... dx_tk, every array C-contiguous."""
    partials = coeffs * space.factorials
    return [coeffs[..., 0].copy()] + [
        np.ascontiguousarray(partials[..., tensor_index(space, k)])
        for k in range(1, order + 1)]


# Products per block of lanes of a laned product (`mul_rows`) or `YForms`
# scatter: past about 2^14 products, 128 KiB per float temporary, the arrays
# leave the allocator's reused memory and a product slows 2-4x per lane.
MUL_BLOCK = 16384


@lru_cache(maxsize=None)
def _mul_table(sa: JetSpace, sb: JetSpace):
    """(ia, ib, ic, space, block) of the product of a jet over `sa` with one
    over `sb`; `block` is the lanes a laned product runs at once (`MUL_BLOCK`).

    Pair p multiplies coefficient ia[p] of the `sa` jet with coefficient
    ib[p] of the `sb` jet into coefficient ic[p] of the product over
    `space`.  For one space this is its own table.  Across spaces it is the
    larger space's table, in its order, restricted to the pairs whose
    smaller-side position lies in the prefix embedding, with that position
    mapped back into the smaller space.
    """
    if sa is sb:
        table, big = (sa.mul_ia, sa.mul_ib, sa.mul_ic), sa
    else:
        big, small = (sa, sb) if sa.nvars >= sb.nvars else (sb, sa)
        back = np.full(big.nterms, -1, dtype=np.intp)
        back[_prefix_positions(small, big)] = np.arange(small.nterms)
        ia = back[big.mul_ia] if small is sa else big.mul_ia
        ib = back[big.mul_ib] if small is sb else big.mul_ib
        keep = (ia >= 0) & (ib >= 0)
        table = (ia[keep], ib[keep], big.mul_ic[keep])
        for arr in table:
            arr.setflags(write=False)   # shared by every caller of the cache
    return table + (big, max(1, MUL_BLOCK // table[0].size))


_LANED = {}         # key -> the laned bins of the most lanes asked for so far


def _laned(key, bins, size, lanes):
    """`bins` of `lanes` stacked rows of `size` bins each: lane j's bins
    offset by j * size, flattened lane-major.  Kept per key (a table, a
    scatter plan) at the most lanes asked for so far, so fewer lanes read
    its prefix (read-only)."""
    have = _LANED.get(key)
    if have is None or have.size < lanes * bins.size:
        have = _LANED[key] = (bins + size * np.arange(lanes, dtype=np.intp)[:, None]).ravel()
        have.setflags(write=False)
    return have[:lanes * bins.size]


def _in_blocks(fn, block, size, *args):
    """fn over blocks of at most `block` lanes, as one array lanes + (size,):
    each arg is (array, core), its last `core` axes one lane's data and its
    lane axes broadcast against the others'; fn takes each block's arrays,
    one flat lane axis first, and returns their rows of `size`."""
    lanes = np.broadcast_shapes(*(a.shape[:a.ndim - core] for a, core in args))
    flat = [np.broadcast_to(a, lanes + a.shape[a.ndim - core:]).reshape(
        (-1,) + a.shape[a.ndim - core:]) for a, core in args]
    out = np.empty((len(flat[0]), size))
    for k in range(0, len(out), block):
        out[k:k + block] = fn(*(a[k:k + block] for a in flat))
    return out.reshape(lanes + (size,))


def mul_rows(a, b, sa: JetSpace, sb: JetSpace) -> np.ndarray:
    """Lane-wise products of jets over `sa` and `sb` given as coefficient
    rows: out[..., :] is the product of a[..., :] with b[..., :] (the lane
    axes broadcast) over the larger space, by the table `_mul_table`, one
    `bincount` per block of lanes.  Lanes never share a bin and each bin
    sums its lane's pairs in table order, so every row is bit-equal to
    `Jet.__mul__` of the two rows.  The block test reads the lanes of the
    larger operand, one integer compare for a product that fits a block."""
    ia, ib, ic, space, block = _mul_table(sa, sb)
    if max(a.size // a.shape[-1], b.size // b.shape[-1]) > block:
        return _in_blocks(lambda a, b: mul_rows(a, b, sa, sb), block, space.nterms,
                          (a, 1), (b, 1))
    prod, other = a.take(ia, axis=-1), b.take(ib, axis=-1)
    if prod.shape == other.shape:
        prod *= other                   # in place: one temporary fewer
    else:
        prod = prod * other
    count = prod.size // ia.size
    out = np.bincount(_laned((sa, sb), ic, space.nterms, count), weights=prod.ravel(),
                      minlength=count * space.nterms)
    return out.reshape(prod.shape[:-1] + (space.nterms,))


def _common(a: "Jet", b: "Jet"):
    """(a, b) over one space: the jet over fewer variables is prefix-embedded."""
    if a.space is b.space:
        return a, b
    if a.space.nvars < b.space.nvars:
        return a.embedded(b.space), b
    return a, b.embedded(a.space)


def _is_scalar(v):
    return isinstance(v, (numbers.Real, np.floating, np.integer))


class Jet:
    """Taylor coefficients of a scalar function at a point, one per monomial
    of its space.

    The coefficient stored for multi-index m is the Taylor coefficient
    (1/m!) d^m f, so `partial` multiplies the factorial back in; `coeffs`
    has shape (nterms,), or (...lanes, nterms) for a laned jet (module
    notes).  Jets are immutable after construction, so the reciprocal is
    computed once per jet and kept (`_reciprocal`), and repeated division by
    one jet composes once.
    A product of jets over two spaces, one embedding in the other, runs the
    cross-space table of the module notes and lands in the larger space.
    """

    __slots__ = ("space", "coeffs", "_recip")

    def __init__(self, space: JetSpace, coeffs):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        self._recip = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value, space: JetSpace) -> "Jet":
        """The constant `value`: a float, or an array of lane values."""
        if not isinstance(value, np.ndarray):
            c = np.zeros(space.nterms)
            c[0] = value
            return Jet(space, c)
        c = np.zeros(value.shape + (space.nterms,))
        c[..., 0] = value
        return Jet(space, c)

    @staticmethod
    def variable(value, position: int, space: JetSpace) -> "Jet":
        """Variable `position` of `space` at `value`, a float or lane values."""
        jet = Jet.constant(value, space)
        jet.coeffs[..., tensor_index(space, 1)[position]] = 1.0
        return jet

    @staticmethod
    def variables(values, order: int) -> list["Jet"]:
        """One variable per entry of `values`: floats, or arrays of lane values."""
        space = jet_space(len(values), order)
        return [Jet.variable(v, k, space) for k, v in enumerate(values)]

    # -- inspection ---------------------------------------------------

    @property
    def value(self):
        """The value: a float, or the array of lane values of a laned jet."""
        return float(self.coeffs[0]) if self.coeffs.ndim == 1 else self.coeffs[..., 0]

    @property
    def dim(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    def partial(self, multi):
        """d^multi f at the expansion point (coefficient times multi!), per lane."""
        idx = self.space.index[tuple(multi)]
        d = self.coeffs[..., idx] * self.space.factorials[idx]
        return float(d) if self.coeffs.ndim == 1 else d

    def gradient(self) -> np.ndarray:
        return derivative_tensors(self.coeffs, self.space, 1)[1]

    def __repr__(self):
        return f"Jet(value={self.value!r}, nvars={self.dim}, order={self.order})"

    def embedded(self, space: JetSpace) -> "Jet":
        """This jet as a jet over the first `self.dim` variables of `space`."""
        if space is self.space:
            return self
        c = np.zeros(self.coeffs.shape[:-1] + (space.nterms,))
        c[..., _prefix_positions(self.space, space)] = self.coeffs
        return Jet(space, c)

    # -- ring operations ----------------------------------------------

    def _operands(self, other):
        """(self, other) as jets over one space, or None for a foreign type."""
        if isinstance(other, Jet):
            return _common(self, other)
        if _is_scalar(other):
            return self, Jet.constant(float(other), self.space)
        return None

    def __add__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        a, b = ops
        return Jet(a.space, a.coeffs + b.coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        a, b = ops
        return Jet(a.space, a.coeffs - b.coeffs)

    def __rsub__(self, other):
        ops = self._operands(other)
        if ops is None:
            return NotImplemented
        a, b = ops
        return Jet(a.space, b.coeffs - a.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            if self.coeffs.ndim > 1 or other.coeffs.ndim > 1:
                return Jet(_mul_table(self.space, other.space)[3],
                           mul_rows(self.coeffs, other.coeffs, self.space, other.space))
            ia, ib, ic, sp, _ = _mul_table(self.space, other.space)
            prod = self.coeffs[ia] * other.coeffs[ib]
            return Jet(sp, np.bincount(ic, weights=prod, minlength=sp.nterms))
        if _is_scalar(other):
            return Jet(self.space, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            if other == 0:
                raise EvaluationError("division by zero")
            return Jet(self.space, self.coeffs / float(other))
        if not isinstance(other, Jet):
            return NotImplemented
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        if not _is_scalar(other):
            return NotImplemented
        return self._reciprocal() * float(other)

    def __pow__(self, p):
        return power(self, p)

    # -- truncated composition -----------------------------------------

    def _compose(self, derivs):
        """Sum_k derivs[k]/k! * (self - value)^k over the jet order; `derivs`
        holds the order + 1 derivatives of the outer function (floats, or
        arrays of lane values, `_per_lane`).

        Horner's first product, of the constant derivs[order]/order! with du,
        is a scalar multiply.  For finite data it has the bits of the jet
        product: that product sums c du_k with terms that are all +-0, from
        +0.0, so each nonzero entry is exact and a zero one +0.0; the scalar
        product's -0.0 entries turn +0.0 in the sum with the next constant,
        whose zero entries are +0.0, except at the constant term, which is
        therefore set to +0.0 first."""
        order = self.space.order
        top = derivs[order] / math.factorial(order)
        if order == 0:
            return Jet.constant(top, self.space)
        du = Jet(self.space, self.coeffs.copy())
        du.coeffs[..., 0] = 0.0
        acc = Jet(self.space, du.coeffs * np.asarray(top)[..., None])
        acc.coeffs[..., 0] = 0.0
        acc = acc + Jet.constant(derivs[order - 1] / math.factorial(order - 1), self.space)
        for k in range(order - 2, -1, -1):
            acc = acc * du + Jet.constant(derivs[k] / math.factorial(k), self.space)
        return acc

    def _reciprocal(self):
        """1/self, composed on the first call and kept (jets are immutable)."""
        if self._recip is None:
            K = self.space.order

            def derivs(u0):
                if u0 == 0.0:
                    raise EvaluationError("division by a jet with zero value")
                return [((-1.0) ** k) * math.factorial(k) / u0 ** (k + 1) for k in range(K + 1)]

            self._recip = self._compose(_per_lane(derivs, self.value))
        return self._recip


def refuse(bad, error, message):
    """The one guard of a value or of its lanes: where the mask `bad` holds,
    raise error(message(k)), k the first refused lane (() for the 0-d mask
    of an unlaned value), followed for a laned one by ' at lane i' or ' at
    lanes i, j' naming every refused lane."""
    if not isinstance(bad, np.ndarray) or not bad.ndim:
        if bad:
            raise error(message(()))
        return
    if not bad.any():
        return
    where = np.argwhere(bad)
    lanes = [str(int(i[0]) if bad.ndim == 1 else tuple(map(int, i))) for i in where]
    raise error(f"{message(tuple(where[0]))} at lane{'s' if len(lanes) > 1 else ''} "
                f"{', '.join(lanes)}")


def _per_lane(build, u0):
    """The derivatives build(u0) at a float value u0.  At an array of lane
    values, each derivative as an array over the lanes, with build run on
    every lane's float, so each lane has the bits of its unlaned call; the
    lanes build refuses raise one EvaluationError (`refuse`), with the first
    one's message."""
    if isinstance(u0, float):
        return build(u0)
    rows, errors = [], []
    for u in np.ravel(u0).tolist():
        try:
            rows.append(build(u))
        except EvaluationError as exc:
            errors.append(exc)
            rows.append(None)
    if errors:
        refuse(np.array([row is None for row in rows]).reshape(np.shape(u0)), EvaluationError,
               lambda k: str(errors[0]))
    return list(np.array(rows).T.reshape((-1,) + np.shape(u0)))


def lane(v, k):
    """Lane k (an index, or a slice or index array that keeps the lane axis)
    of a laned jet, or of each laned jet in nested lists and tuples of them;
    an unlaned jet or a float, the same in every lane, passes through."""
    if isinstance(v, Jet) and v.coeffs.ndim > 1:
        return Jet(v.space, v.coeffs[k])
    if isinstance(v, (list, tuple)):
        return type(v)(lane(e, k) for e in v)
    return v


# -- elementary functions, dispatching on Jet vs plain scalar -----------


def _on_floats(fn, v):
    """fn(v) at a number v; at an array of lane values, the array of fn at
    each lane's float, so each lane has the bits of its float call (the lanes
    fn refuses raise one EvaluationError, `_per_lane`)."""
    if isinstance(v, np.ndarray) and v.ndim:
        return _per_lane(lambda u: [fn(u)], v)[0]
    return fn(float(v))


def _jet_fn(name, float_fn, deriv_builder):
    def at_float(u):
        try:
            return float_fn(u)
        except ValueError as exc:
            raise EvaluationError(f"{name} evaluated outside its domain: {exc}") from exc

    def fn(v):
        if isinstance(v, float):
            return at_float(v)
        if isinstance(v, Jet):
            order = v.space.order
            return v._compose(_per_lane(lambda u: deriv_builder(u, order, name), v.value))
        return _on_floats(at_float, v)

    fn.__name__ = name
    return fn


def _sqrt_derivs(u0, K, name):
    if u0 <= 0.0:
        raise EvaluationError(f"{name} of a non-positive value ({u0!r})")
    return _power_derivs(u0, 0.5, K)


def _power_derivs(u0, p, K):
    derivs = []
    coef = 1.0
    for k in range(K + 1):
        derivs.append(coef * u0 ** (p - k))
        coef *= p - k
    return derivs


def _log_derivs(u0, K, name):
    if u0 <= 0.0:
        raise EvaluationError(f"{name} of a non-positive value ({u0!r})")
    derivs = [math.log(u0)]
    for k in range(1, K + 1):
        derivs.append(((-1.0) ** (k - 1)) * math.factorial(k - 1) / u0 ** k)
    return derivs


def _exp_derivs(u0, K, name):
    e = math.exp(u0)
    return [e] * (K + 1)


def _sin_derivs(u0, K, name):
    s, c = math.sin(u0), math.cos(u0)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] for k in range(K + 1)]


def _cos_derivs(u0, K, name):
    s, c = math.sin(u0), math.cos(u0)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] for k in range(K + 1)]


def _tan_derivs(u0, K, name):
    c = math.cos(u0)
    if abs(c) < 1e-300:
        raise EvaluationError("tan at a pole of the tangent")
    t = math.tan(u0)
    return [t, 1 + t * t, 2 * t * (1 + t * t), 2 * (1 + t * t) * (1 + 3 * t * t),
            8 * t * (1 + t * t) * (2 + 3 * t * t)][: K + 1]


def _sinh_derivs(u0, K, name):
    s, c = math.sinh(u0), math.cosh(u0)
    return [s if k % 2 == 0 else c for k in range(K + 1)]


def _cosh_derivs(u0, K, name):
    s, c = math.sinh(u0), math.cosh(u0)
    return [c if k % 2 == 0 else s for k in range(K + 1)]


def _tanh_derivs(u0, K, name):
    t = math.tanh(u0)
    return [t, 1 - t * t, -2 * t * (1 - t * t), -2 * (1 - t * t) * (1 - 3 * t * t),
            8 * t * (1 - t * t) * (2 - 3 * t * t)][: K + 1]


def _arcsinh_derivs(u0, K, name):
    w = 1.0 + u0 * u0
    return [math.asinh(u0), w ** -0.5, -u0 * w ** -1.5, (2 * u0 * u0 - 1) * w ** -2.5,
            3 * u0 * (3 - 2 * u0 * u0) * w ** -3.5][: K + 1]


sqrt = _jet_fn("sqrt", math.sqrt, _sqrt_derivs)
exp = _jet_fn("exp", math.exp, _exp_derivs)
log = _jet_fn("log", math.log, _log_derivs)
sin = _jet_fn("sin", math.sin, _sin_derivs)
cos = _jet_fn("cos", math.cos, _cos_derivs)
tan = _jet_fn("tan", math.tan, _tan_derivs)
sinh = _jet_fn("sinh", math.sinh, _sinh_derivs)
cosh = _jet_fn("cosh", math.cosh, _cosh_derivs)
tanh = _jet_fn("tanh", math.tanh, _tanh_derivs)
arcsinh = _jet_fn("arcsinh", math.asinh, _arcsinh_derivs)


def power(v, p):
    """v**p for a real exponent p; integer exponents stay domain-free.  An
    array of lane values gives each lane its float's power (`_on_floats`)."""
    if isinstance(p, numbers.Integral) and not isinstance(p, bool):
        p = int(p)
        if isinstance(v, Jet):
            if p < 0:
                return 1.0 / power(v, -p)
            out = Jet.constant(1.0, v.space)
            base = v
            while p:
                if p & 1:
                    out = out * base
                base = base * base
                p >>= 1
            return out
        return _on_floats(lambda u: u ** p, v)

    def base(u):
        if u <= 0.0:
            raise EvaluationError(f"power with non-integer exponent at base {u!r}")
        return u

    if isinstance(v, Jet):
        return v._compose(_per_lane(lambda u: _power_derivs(base(u), float(p), v.space.order),
                                    v.value))
    return _on_floats(lambda u: base(u) ** float(p), v)


def scalar_value(v):
    """Value part of a Jet (its lane values if laned), or the number itself
    (an array of lane values stays that array)."""
    if isinstance(v, Jet):
        return v.value
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


# -- quadratic and linear forms in y ---------------------------------------


class YForms:
    """sum_ij quad[i][j] y_i y_j and sum_i sum_k lin[i][k] y_i (0.0 without
    `lin`) as a function of y, bit-equal to the loop that adds the terms
    (quad[i][j] * y_i) * y_j and lin[i][k] * y_i to 0.0 in loop order.

    The coefficients are a stage's x-only data, fixed once.  When the y are
    the variables n..2n-1 of their space and every coefficient is a float or
    a jet over one space of the n x-variables, the forms are one scatter of
    closed-form terms (see the module notes), whose coefficient rows are
    stacked on the first such call and kept; other y, such as floats or
    functions of all 2n variables, run the loop itself.
    """

    __slots__ = ("quad", "lin", "_rows")

    def __init__(self, quad, lin=None):
        self.quad = quad
        self.lin = [()] * len(quad) if lin is None else lin
        self._rows = None               # (x space, width, term rows), or False

    def __call__(self, y):
        flag = _flag_values(y, len(self.quad))
        if flag is not None:
            if self._rows is None:
                self._rows = _term_rows(self.quad, self.lin) or False
            if self._rows:
                return _scatter(*flag, *self._rows)
        n = len(y)
        q = l = 0.0
        for i in range(n):
            for k in range(len(self.lin[i])):
                l = l + self.lin[i][k] * y[i]
            for j in range(n):
                q = q + self.quad[i][j] * y[i] * y[j]
        return q, l


def _flag_values(y, n):
    """(values y_k, space) when y are the n variables n..2n-1 of one space;
    at laned variables the values of a lane are its row (lane axes first)."""
    space = getattr(y[0], "space", None) if n and len(y) == n else None
    if (space is None or space.nvars != 2 * n
            or not all(isinstance(v, Jet) and v.space is space for v in y)):
        return None
    coeffs = np.moveaxis(np.array([v.coeffs for v in y]), 0, -2)  # [lanes..., k, coefficient]
    coeffs[..., np.arange(n), tensor_index(space, 1)[n:]] -= 1.0
    if coeffs[..., 1:].any():                   # a unit other than 1, or a term more
        return None
    return coeffs[..., 0].copy(), space         # a copy frees the coefficients


def _term_rows(quad, lin):
    """(x space, width, rows) of the coefficients when they are floats (as
    constant rows) and jets over one space of n variables, in an n x n quad
    and an n x width lin: each term's row, in loop order, after the lane
    axes of laned coefficients (a float or unlaned jet is the same in every
    lane).  None otherwise; floats alone take the constant space
    `jet_space(n, 0)`."""
    n = len(quad)
    width = len(lin[0]) if n and len(lin) == n else -1
    if any(len(row) != n for row in quad) or any(len(row) != width for row in lin):
        return None
    entries = [e for row in quad for e in row] + [e for row in lin for e in row]
    jet_entries = [e for e in entries if isinstance(e, Jet)]
    if len({e.space for e in jet_entries}) > 1:
        return None
    space = jet_entries[0].space if jet_entries else jet_space(n, 0)
    if space.nvars != n:
        return None
    shapes = {e.coeffs.shape[:-1] for e in jet_entries}
    lanes = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    rows = np.zeros((len(entries),) + lanes + (space.nterms,))     # term first
    for k, e in enumerate(entries):
        if isinstance(e, Jet):
            rows[k] = e.coeffs
        elif _is_scalar(e):
            rows[k][..., 0] = float(e)
        else:
            return None
    return space, width, np.moveaxis(rows, 0, -2) if lanes else rows


@lru_cache(maxsize=None)
def _form_plan(xspace: JetSpace, flag: JetSpace, width: int):
    """(bins, u, v, terms) of the `YForms` scatter over `flag` of coefficient
    rows over `xspace`, `width` linear coefficients per y_i (read-only).

    With f = (1, 2, y0_0, ..., y0_{n-1}), the value of a slot at x^a is
    (r_a f[u]) f[v] (u and v one per slot), and the slots of the quadratic
    term (i, j) are

        x^a: (r_a y_i) y_j     x^a dy_i: r_a y_j (twice that when i = j)
        x^a dy_j: r_a y_i      x^a dy_i dy_j: r_a,

    those of the linear term (i, k) x^a: c_a y_i and x^a dy_i: c_a, offset
    by nterms + 1; terms in loop order, then slots, then a, and `terms` the
    term of each slot.  A monomial the
    flag space cuts off, and x^a dy_j when i = j, go to the sink bin nterms
    of its form.
    """
    if xspace.order:
        _prefix_positions(xspace, flag)         # raises where the products would
    n, sink = xspace.nvars, flag.nterms

    def at(*dy, offset=0):
        out = []
        for m in xspace.multis:
            key = list(m) + [0] * n
            for i in dy:
                key[n + i] += 1
            out.append(flag.index.get(tuple(key), sink) + offset)
        return out

    one, two, ys = 0, 1, range(2, n + 2)       # the positions of 1, 2 and y0 in f
    none = [sink] * xspace.nterms
    slots = []                                  # (bins over a, u, v)
    for i in range(n):
        for j in range(n):
            slots += [(at(), ys[i], ys[j]), (at(i), ys[j], two if i == j else one),
                      (at(j) if i != j else none, ys[i], one), (at(i, j), one, one)]
    for i in range(n):
        slots += [(at(offset=sink + 1), ys[i], one), (at(i, offset=sink + 1), one, one)] * width
    plan = (np.array([b for s in slots for b in s[0]], dtype=np.intp),
            np.array([s[1] for s in slots], dtype=np.intp)[:, None],
            np.array([s[2] for s in slots], dtype=np.intp)[:, None],
            np.repeat(np.arange(n * n + n * width), [4] * (n * n) + [2] * (n * width)))
    for arr in plan:
        arr.setflags(write=False)               # shared by every caller of the cache
    return plan


def _scatter(y0, flag, xspace, width, rows):
    """The forms of `YForms` from its term rows at flag variables of values
    y0; lanes of the rows or of y0 broadcast, each lane's scatter adding to
    bins of its own (`_laned`), in its slot order."""
    f = np.empty(y0.shape[:-1] + (y0.shape[-1] + 2,))
    f[..., 0] = 1.0
    f[..., 1] = 2.0
    f[..., 2:] = y0
    out = _form_bincount(rows, f, xspace, flag, width)
    sink = flag.nterms
    return Jet(flag, out[..., :sink]), Jet(flag, out[..., sink + 1:-1]) if width else 0.0


def _form_bincount(rows, f, xspace, flag, width):
    """The bins of the `YForms` scatter, 2 nterms + 2 per lane, from the term
    rows and f = (1, 2, y0) (`_form_plan`), one `bincount` per block of
    lanes, as `mul_rows` blocks them."""
    bins, u, v, terms = _form_plan(xspace, flag, width)
    size, block = 2 * flag.nterms + 2, max(1, MUL_BLOCK // bins.size)
    if max(rows.size // (rows.shape[-2] * rows.shape[-1]), f.size // f.shape[-1]) > block:
        return _in_blocks(lambda r, g: _form_bincount(r, g, xspace, flag, width),
                          block, size, (rows, 2), (f, 1))
    weights = rows.take(terms, axis=-2) * f.take(u, axis=-1)
    weights *= f.take(v, axis=-1)               # in place: one temporary of the slots
    count = weights.size // bins.size
    if count > 1:
        bins = _laned((xspace, flag, width), bins, size, count)
    return np.bincount(bins, weights=weights.ravel(), minlength=count * size).reshape(
        weights.shape[:-2] + (size,))


# -- flags ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FlagPoint:
    """A base point x with a nonzero tangent direction y in one chart.

    Finsler quantities live on the slit tangent bundle, so y = 0 is rejected.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have the same dimension")
        if not np.any(self.y):
            raise ValueError("flag direction y must be nonzero")

    @property
    def dim(self) -> int:
        return self.x.size


# -- lifting and finite differences ---------------------------------------


def lift(f, point, order: int) -> Jet:
    """Jet of the scalar map f at `point` in all its variables.

    f is called as f(*args) with one Jet argument per coordinate of `point`.
    The returned Jet's coefficient at multi-index m is (1/m!) d^m f.
    """
    if not 1 <= order <= 3:
        raise ValueError("lift supports orders 1 through 3")
    args = Jet.variables([float(p) for p in point], order)
    out = f(*args)
    if isinstance(out, Jet):
        return out
    return Jet.constant(float(out), args[0].space)


_CENTRAL_STENCILS = {
    0: ((0, 1.0),),
    1: ((1, 0.5), (-1, -0.5)),
    2: ((1, 1.0), (0, -2.0), (-1, 1.0)),
    3: ((2, 0.5), (1, -1.0), (-1, 1.0), (-2, -0.5)),
}


@lru_cache(maxsize=1024)
def _stencil_geometry(multi_index, h):
    """The central stencil of d^multi_index with step h, the per-variable
    stencils composed: its (offsets in steps, weight) terms in summation
    order.  It does not depend on the point, so it is built once per key;
    the cache is bounded, since the fd oracle scales h by the size of a
    point beyond the unit box (`finsler._fd_weights`)."""
    terms = {(0,) * len(multi_index): 1.0}
    for var, k in enumerate(multi_index):
        if k == 0:
            continue
        new = {}
        for offs, w in terms.items():
            for step, sw in _CENTRAL_STENCILS[k]:
                key = tuple(o + (step if i == var else 0) for i, o in enumerate(offs))
                new[key] = new.get(key, 0.0) + w * sw / h ** k
        terms = new
    return tuple(terms.items())


def _stencil_terms(point, multi_index, h):
    """The central stencil of d^multi_index at `point` with step h: its
    (shifted point, weight) terms in summation order (`_stencil_geometry`)."""
    return [([p + o * h for p, o in zip(point, offs)], w)
            for offs, w in _stencil_geometry(multi_index, h)]


def stencil_sum(weights, values):
    """The stencil estimate: sum of w * f(z) over a stencil's terms, in
    their order, from their weights and the values of f at their points
    (each a sequence over the terms; arrays of them sum entry by entry)."""
    total = 0.0
    for w, v in zip(weights, values, strict=True):
        total += w * v
    return total


def fd_derivative(f, point, multi_index, step: float) -> float:
    """Central-difference estimate of d^multi_index f at `point`.

    Composes per-variable central stencils (each with O(h^2) truncation) and
    applies one Richardson level, so the returned estimate is O(h^4) accurate
    in the step h.  Derivative order per variable and in total is capped at 3.
    f may return an array: the estimate is then taken entry by entry, each
    entry bit-equal to the estimate of that entry alone.
    """
    return fd_estimate(f, point, multi_index, step)[0]


FD_STEP_UNDERFLOW = "finite-difference step underflows the coordinate magnitude"


def fd_stencils(point, multi_index, step: float):
    """The two stencils `fd_estimate` combines, coarse (step h) and fine
    (h/2), each a list of (shifted point, weight) terms (`stencil_sum`);
    None for the zeroth derivative, which is f at `point`.  Checks the
    multi-index and the step, and warns (`FdStepWarning`) when the step
    underflows a coordinate it moves."""
    point = [float(p) for p in point]
    multi_index = tuple(int(k) for k in multi_index)
    if len(multi_index) != len(point):
        raise ValueError("multi_index length must match the point dimension")
    total = sum(multi_index)
    if total > 3 or any(k < 0 for k in multi_index):
        raise ValueError("fd_derivative supports total derivative order <= 3")
    h = float(step)
    if h <= 0:
        raise ValueError("step must be positive")
    involved = [p for p, k in zip(point, multi_index) if k > 0]
    if any(p + h == p for p in involved):
        warnings.warn(FD_STEP_UNDERFLOW, FdStepWarning, stacklevel=4)  # the caller of fd_derivative
    if total == 0:
        return None
    return _stencil_terms(point, multi_index, h), _stencil_terms(point, multi_index, h / 2.0)


def richardson(coarse, fine):
    """(value, error estimate) of one Richardson level from the coarse and
    fine stencil estimates: the value is fine + (fine - coarse)/3, and the
    error of the fine estimate is taken as |fine - coarse| (two estimates
    differ by at least the error of the better one), so the value's error
    is estimated as 4/3 |fine - coarse|."""
    return (4.0 * fine - coarse) / 3.0, np.abs(fine - coarse) * (4.0 / 3.0)


def fd_estimate(f, point, multi_index, step: float):
    """(`fd_derivative`, an estimate of its error) from the two stencil
    estimates of `fd_stencils` (`richardson`); 0 for the zeroth derivative."""
    stencils = fd_stencils(point, multi_index, step)
    if stencils is None:
        return f(*(float(p) for p in point)), 0.0
    return richardson(*(stencil_sum([w for _z, w in terms], [f(*z) for z, _w in terms])
                        for terms in stencils))
