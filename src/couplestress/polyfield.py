"""Exact trivariate polynomials on the unit box and polynomial tensor fields.

A Poly3 is a sparse coefficient dictionary keyed by exponent triples. All
arithmetic is exact up to float rounding of the coefficients themselves;
differentiation and integration over [0,1]^3 are closed-form. Vector and
matrix fields are numpy object arrays of Poly3, so the helpers in
`tensors` apply to them unchanged. For bulk linear algebra, a `FieldStack`
holds n fields of either scalar family as dense per-axis coefficient cubes
(stacked once, by `FieldStack.of`) and builds a field only when an item is
read. A `DenseBatch` holds one component of a stack as a scalar: the field
operators run on object arrays of batches unchanged and evaluate every
field of the stack in one pass, with diff as an index gather with weights
on one axis, read once per family and layout from the family's 1D
derivative matrix. On a batch of `DerivativeSymbol` cubes the same
operators give their own constant-coefficient symbols, from which
`symbol_grams` forms weighted sums of the Grams of their images over a
basis of separable scalars without forming the images.

Poly3 and `trig.TrigPoly` are the two exact scalar families. Both key their
dicts by per-axis dense index (for Poly3 the exponent) and share
`ScalarField`, which holds their sums, differences, negation, float
multiples and powers; `eval_fields` evaluates fields of either family.

Every polynomial carries a degree cap. Construction past the cap raises
DegreeCapError; sums take the larger cap, products add caps. The cap is a
tripwire against runaway degree growth in long operator chains, not a
truncation: no coefficient is ever dropped.

Arithmetic results skip the construction checks, which cannot fire on them
(negation, scaling, diff and restrict keep the cap and never raise the
degree); they only drop exact zeros. A product of at least
MUL_BINCOUNT_PAIRS term pairs runs from a plan: the structure that depends
only on the two key orders (which term pairs share an exponent sum, and the
order in which the sums first occur) is cached per pair of key orders, so
the product is one outer product of the values and one np.bincount, which
adds in the order of the dict double loop. Both paths give the same
coefficients in the same key order. The numpy steps give overflow, inf * 0
and NaN silently, as the loop does.

`ScalarField.dot` is the sum of products p0*q0 + p1*q1 + ... (optionally
weighted), formed left to right; `tensors.inner`, `inner_vec` and
`ten3_inner` and the `lift` pairings call it on scalar fields. Poly3 fuses
it once the products hold DOT_FUSED_PAIRS term pairs in all: one bincount
over every product's plan, then one sequential cumulative sum per key in
the chain's key order, bitwise the chain's result. Where the chain drops a
key (a running sum that cancels to 0.0, or a zero product coefficient that
would start the key) the key may come back at the end of the chain's order,
so those sums run the chain itself, as do smaller ones. Each kind of plan
is cached up to PLAN_PAIRS term pairs in all; a full cache starts over.
"""
from __future__ import annotations

import collections
import functools
import itertools
import operator

import numpy as np

from . import tensors as tn

DEFAULT_CAP = 8
MUL_BINCOUNT_PAIRS = 32  # term pairs from which a product is summed by its plan
DOT_FUSED_PAIRS = 64  # total term pairs from which a Poly3 dot is fused
PLAN_PAIRS = 1 << 20  # term pairs held by each plan cache (8 bytes a pair)
DOT_CHUNK_PAIRS = 8192  # term pairs a fused dot multiplies at once

_AXES = {0: 0, 1: 1, 2: 2, "x": 0, "y": 1, "z": 2, "x1": 0, "x2": 1, "x3": 2}


class DegreeCapError(ValueError):
    """Raised when a polynomial would exceed its degree cap."""


def _axis(axis):
    try:
        return _AXES[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}") from None


_REALS = (int, float, np.floating, np.integer)


class ScalarField:
    """Scalar field as a dict of separable terms keyed by per-axis dense index.

    The arithmetic that acts on the dicts alone is written here once, and
    so is `restrict`, which reads the family's 1D point values. A family
    adds its product of two fields (`_product`), its constants (`_const`),
    how a result is made from a dict (`_result`, given the second operand
    of a sum), its calculus and its 1D tables.
    """

    __slots__ = ("coef",)

    def max_abs_coeff(self):
        """Largest coefficient magnitude; NaN if any coefficient is NaN."""
        return float(np.max(np.abs(list(self.coef.values())), initial=0.0))

    def is_zero(self, tol=0.0):
        return self.max_abs_coeff() <= tol

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _REALS):
            return self._const(float(other))
        return None

    def __add__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        coef = dict(self.coef)
        get = coef.get
        for key, val in q.coef.items():
            coef[key] = get(key, 0.0) + val
        return self._result(coef, q)

    __radd__ = __add__

    def __sub__(self, other):
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        coef = dict(self.coef)
        get = coef.get
        for key, val in q.coef.items():
            coef[key] = get(key, 0.0) - val
        return self._result(coef, q)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._result({k: -v for k, v in self.coef.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        if isinstance(other, _REALS):
            s = float(other)
            return self._result({k: v * s for k, v in self.coef.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _REALS):
            return self * (1.0 / float(other))
        return NotImplemented

    @classmethod
    def dot(cls, ps, qs, weights=None):
        """Sum of p_m * q_m (times w_m), formed left to right by the chain
        p0*q0 + p1*q1 + ... (each term p*q*w); at least one term."""
        if weights is None:
            terms = map(operator.mul, ps, qs)
        else:
            terms = (p * q * w for p, q, w in zip(ps, qs, weights))
        return functools.reduce(operator.add, terms)

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self._const(1.0)
        for _ in range(int(n)):
            out = out * self
        return out

    def restrict(self, axis, value):
        """Substitute one variable by a constant: the trace moves to index 0."""
        ax = _axis(axis)
        vals = self._trace_values(dense_degree([self]) + 1, float(value))
        coef = {}
        for key, val in self.coef.items():
            new = key[:ax] + (0,) + key[ax + 1:]
            coef[new] = coef.get(new, 0.0) + val * vals[key[ax]]
        return self._result(coef)

    def _trace_values(self, D, value):
        """The 1D factors 0 .. D-1 at value, by the family's `dense_values`."""
        return self.dense_values(D, value).tolist()


class Poly3(ScalarField):
    """Polynomial in three variables with float coefficients."""

    __slots__ = ("cap",)

    def __init__(self, coef=None, cap=DEFAULT_CAP):
        clean = {}
        if coef:
            for key, val in coef.items():
                i, j, k = key
                if i < 0 or j < 0 or k < 0:
                    raise ValueError(f"negative exponent in {key}")
                v = float(val)
                if v == 0.0:
                    continue
                if i + j + k > cap:
                    raise DegreeCapError(
                        f"monomial {key} exceeds degree cap {cap}"
                    )
                clean[(int(i), int(j), int(k))] = v
        self.coef = clean
        self.cap = int(cap)

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, cap=DEFAULT_CAP):
        return cls({}, cap)

    @classmethod
    def const(cls, value, cap=DEFAULT_CAP):
        return cls({(0, 0, 0): float(value)}, cap)

    @classmethod
    def monomial(cls, exps, coeff=1.0, cap=None):
        if cap is None:
            cap = max(DEFAULT_CAP, sum(exps))
        return cls({tuple(exps): coeff}, cap)

    @classmethod
    def variable(cls, axis, cap=DEFAULT_CAP):
        e = [0, 0, 0]
        e[_axis(axis)] = 1
        return cls({tuple(e): 1.0}, cap)

    # --- dense layout (see dense_stack): the dense index is the exponent --

    @staticmethod
    def dense_moments(D):
        """1D moment matrix: the integral of x^i x^j over [0, 1]."""
        idx = np.arange(D)
        return 1.0 / (idx[:, None] + idx[None, :] + 1.0)

    @staticmethod
    def dense_diff(D):
        """1D derivative matrix R[out, in]: d/dx x^i = i x^(i-1)."""
        idx = np.arange(1, D)
        R = np.zeros((D, D))
        R[idx - 1, idx] = idx
        return R

    @staticmethod
    def dense_size(D):
        """Every layout is closed under d/dx."""
        return D

    @staticmethod
    def from_cube(cube, cap=DEFAULT_CAP):
        """The Poly3 of a dense cube, by `from_dense`."""
        return from_dense(cube, cap)

    @staticmethod
    def dense_values(D, t):
        """Values of x^0 .. x^(D-1) at coordinates t, on a new last axis (at least float64)."""
        t = np.asarray(t)
        V = np.ones(t.shape + (D,), dtype=np.result_type(t.dtype, float))
        for e in range(1, D):
            V[..., e] = V[..., e - 1] * t
        return V

    # --- queries --------------------------------------------------------

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.coef:
            return -1
        return max(i + j + k for (i, j, k) in self.coef)

    # --- arithmetic: sums take the larger cap, products add caps ---------

    def _result(self, coef, other=None):
        return _made(coef, self.cap if other is None else max(self.cap, other.cap))

    def _const(self, value):
        return Poly3.const(value, self.cap)

    def _product(self, other):
        cap = self.cap + other.cap
        pairs = len(self.coef) * len(other.coef)
        if pairs and pairs >= MUL_BINCOUNT_PAIRS:
            return _made(_plan_product(self.coef, other.coef), cap)
        coef = {}
        get = coef.get
        terms = other.coef.items()
        for (a, b, c), u in self.coef.items():
            for (d, e, f), v in terms:
                key = (a + d, b + e, c + f)
                coef[key] = get(key, 0.0) + u * v
        return _made(coef, cap)

    @classmethod
    def dot(cls, ps, qs, weights=None):
        """The chain's sum of products, by one fused bincount of at least
        DOT_FUSED_PAIRS term pairs; smaller sums, mixed entry types and the
        sums in which the chain drops a key run the chain itself."""
        ps, qs = list(ps), list(qs)
        if all(type(v) is Poly3 for v in itertools.chain(ps, qs)):
            pairs = sum(len(p.coef) * len(q.coef) for p, q in zip(ps, qs))
            coef = (_fused_dot(ps, qs, weights, pairs)
                    if pairs and pairs >= DOT_FUSED_PAIRS else None)
            if coef is not None:
                return _made(coef, max(p.cap + q.cap for p, q in zip(ps, qs)))
        return super().dot(ps, qs, weights)

    # --- calculus -------------------------------------------------------

    def diff(self, axis):
        # distinct keys go to distinct keys, so nothing accumulates
        ax = _axis(axis)
        items = self.coef.items()
        if ax == 0:
            coef = {(i - 1, j, k): i * v for (i, j, k), v in items if i}
        elif ax == 1:
            coef = {(i, j - 1, k): j * v for (i, j, k), v in items if j}
        else:
            coef = {(i, j, k - 1): k * v for (i, j, k), v in items if k}
        return _made(coef, self.cap)

    def integrate(self):
        """Exact integral over the unit box [0,1]^3."""
        acc = 0.0
        for (i, j, k), val in self.coef.items():
            acc += val / ((i + 1) * (j + 1) * (k + 1))
        return acc

    def _trace_values(self, D, value):
        return [value**e for e in range(D)]  # each power rounded once

    def eval(self, pts):
        """Evaluate on an (..., 3) array of points."""
        pts = np.asarray(pts, dtype=float)
        squeeze = pts.ndim == 1
        p = pts.reshape(-1, 3)
        out = np.zeros(p.shape[0])
        # per-axis powers p[:, a] ** e, formed once and multiplied in the order
        # val * x^i * y^j * z^k of the monomial
        D = dense_degree([self]) + 1
        xs, ys, zs = ([p[:, a] ** e for e in range(D)] for a in range(3))
        for (i, j, k), val in self.coef.items():
            out += val * xs[i] * ys[j] * zs[k]
        if squeeze:
            return float(out[0])
        return out.reshape(pts.shape[:-1])

    def __repr__(self):
        n = len(self.coef)
        return f"Poly3({n} terms, degree {self.degree()}, cap {self.cap})"


def _made(coef, cap):
    """Poly3 holding an arithmetic result: exact zeros dropped, no checks."""
    if 0.0 in coef.values():
        coef = {k: v for k, v in coef.items() if v != 0.0}
    p = object.__new__(Poly3)
    p.coef = coef
    p.cap = cap
    return p


# --- product plans ---------------------------------------------------------
#
# The structure of a product depends only on the key orders of its operands:
# which term pairs share an exponent sum, and in which order the sums first
# occur in the dict double loop. A plan holds it once per pair of key orders,
# so a product from a plan is one outer product of the values and one
# bincount into the result keys.


class _PlanCache:
    """Plans by key, holding PLAN_PAIRS term pairs at most: a cache that
    would pass it starts over, and a larger plan is formed but not kept."""

    def __init__(self):
        self.plans = {}
        self.pairs = 0  # term pairs of the plans held

    def get(self, key, form, pairs):
        """The plan of key, formed by form() on a miss; pairs is its size."""
        plan = self.plans.get(key)
        if plan is None:
            plan = form()
            if pairs <= PLAN_PAIRS:
                if self.pairs + pairs > PLAN_PAIRS:
                    self.plans.clear()
                    self.pairs = 0
                self.plans[key] = plan
                self.pairs += pairs
        return plan


_PLANS = _PlanCache()  # (p keys, q keys) -> product plan
_DOT_PLANS = _PlanCache()  # ((p keys, q keys), ...) -> fused-dot plan


def _form_plan(pk, qk):
    """(bins, keys) of the product of terms with keys pk and qk.

    Term pair (a, b) sits at a * len(qk) + b of the flattened outer product,
    the dict double loop's order; bins[pair] is the rank of its exponent sum
    among the sums in the order they first occur, and keys lists those sums.
    """
    B = max(map(max, pk)) + max(map(max, qk)) + 1
    BB = B * B
    codes = np.add.outer(
        np.array([i * BB + j * B + k for i, j, k in pk]),
        np.array([i * BB + j * B + k for i, j, k in qk]),
    ).ravel()
    sums, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    keys = [(c // BB, c // B % B, c % B) for c in sums[order].tolist()]
    return rank[inverse], keys


def _plan(pk, qk):
    return _PLANS.get((pk, qk), lambda: _form_plan(pk, qk), len(pk) * len(qk))


def _plan_product(pc, qc):
    """Coefficients of a product, as the dict double loop over pc, qc forms them.

    bincount adds the pair products of each key in flattened (pc, qc) order,
    which is the loop's order, starting from 0.0 as the loop does. Overflow
    and inf * 0 give inf and NaN silently, as they do in the loop.
    """
    bins, keys = _plan(tuple(pc), tuple(qc))
    with np.errstate(over="ignore", invalid="ignore"):
        prods = np.multiply.outer(
            np.fromiter(pc.values(), float, len(pc)),
            np.fromiter(qc.values(), float, len(qc)),
        ).ravel()
        sums = np.bincount(bins, prods, len(keys))
    return dict(zip(keys, sums.tolist()))


_DotPlan = collections.namedtuple(
    "_DotPlan", "reps qidx bins chunks wrep slots shape started keys p_terms q_terms")


def _form_dot_plan(pairs):
    """The `_DotPlan` of a fused sum of products over the key orders in pairs.

    The term pairs of every product, in the dict loop's order, are each p
    value repeated once per term of its q (reps) times the q values gathered
    by qidx; bins sends each pair to its (product, key) coefficient, in
    product order, and wrep each coefficient to its product's weight. The
    chain adds the products' keys in the order they first occur, so key g of
    product m lands at slot m * len(keys) + g of an (M, len(keys)) table.
    A key's running sum is 0.0 before its first product; `started` counts the
    slots from there on, where the chain keeps a nonzero sum. The products
    run in chunks of whole products of about DOT_CHUNK_PAIRS pairs, each a
    (p terms, pairs, coefficients) slice triple, with bins counted from the
    chunk's first coefficient.
    """
    plans = [_plan(pk, qk) if pk and qk else (np.empty(0, np.intp), []) for pk, qk in pairs]
    nq = sum(len(qk) for _, qk in pairs)
    npairs = sum(len(b) for b, _ in plans)
    # the per-pair indices, in the narrowest type that holds them
    qidx = np.empty(npairs, np.min_scalar_type(nq))
    bins = np.empty(npairs, np.min_scalar_type(sum(len(keys) for _, keys in plans)))
    index, gids, chunks = {}, [], []
    start = p0 = q0 = b0 = 0
    lo = (0, 0, 0)  # p term, pair and coefficient where the open chunk starts
    for (pk, qk), (b, keys) in zip(pairs, plans):
        end = start + len(b)
        if end - lo[1] > DOT_CHUNK_PAIRS and start > lo[1]:
            chunks.append((slice(lo[0], p0), slice(lo[1], start), slice(lo[2], b0)))
            lo = (p0, start, b0)
        if end > start:
            qidx[start:end].reshape(len(pk), len(qk))[:] = np.arange(q0, q0 + len(qk))
            bins[start:end] = b + (b0 - lo[2])
        gids.append([index.setdefault(key, len(index)) for key in keys])
        start, p0, q0, b0 = end, p0 + len(pk), q0 + len(qk), b0 + len(keys)
    chunks.append((slice(lo[0], p0), slice(lo[1], start), slice(lo[2], b0)))
    M, K = len(pairs), len(index)
    first = np.full(K, M)
    for m in reversed(range(M)):
        first[gids[m]] = m
    slots = np.concatenate([m * K + np.asarray(g, dtype=np.intp) for m, g in enumerate(gids)])
    reps = np.repeat([len(qk) for _, qk in pairs], [len(pk) for pk, _ in pairs])
    wrep = np.repeat(np.arange(M), [len(keys) for _, keys in plans])
    return _DotPlan(reps, qidx, bins, chunks, wrep, slots, (M, K), int(np.sum(M - first)),
                    list(index), p0, q0)


def _fused_dot(ps, qs, weights, npairs):
    """Coefficients of sum_m p_m q_m (w_m) as the chain forms them; None where
    the chain drops a key, which may move it to the end.

    A zero (or underflowed) coefficient adds 0.0 to its key's running sum,
    which changes nothing once the key has started; where it would start
    the key, the running sum reads 0.0 there, and the count of nonzero
    sums shows it.
    """
    pairs = tuple([(tuple(p.coef), tuple(q.coef)) for p, q in zip(ps, qs)])
    reps, qidx, bins, chunks, wrep, slots, shape, started, keys, p_terms, q_terms = (
        _DOT_PLANS.get(pairs, lambda: _form_dot_plan(pairs), npairs))
    pv = np.fromiter(itertools.chain.from_iterable([p.coef.values() for p in ps]), float, p_terms)
    qv = np.fromiter(itertools.chain.from_iterable([q.coef.values() for q in qs]), float, q_terms)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.empty(len(wrep))
        for p, s, b in chunks:
            prods = pv[p].repeat(reps[p])
            prods *= qv.take(qidx[s])
            terms[b] = np.bincount(bins[s], prods, b.stop - b.start)
        if weights is not None:
            if not terms.all():  # the chain drops these before weighting (0 * inf is NaN)
                return None
            terms *= np.asarray(weights, dtype=float)[wrep]
        table = np.zeros(shape[0] * shape[1])
        table[slots] = terms
        partial = np.cumsum(table.reshape(shape), axis=0)  # sequential down each key
    if np.count_nonzero(partial) != started:
        return None
    return dict(zip(keys, partial[-1].tolist()))


def integral_of_product(p, q):
    """Exact value of the box integral of p*q without forming the product."""
    acc = 0.0
    for (a, b, c), u in p.coef.items():
        for (d, e, f), v in q.coef.items():
            acc += u * v / ((a + d + 1) * (b + e + 1) * (c + f + 1))
    return acc


# --- dense coefficient cubes ---------------------------------------------
#
# A dense cube holds the coefficient of one separable term at its per-axis
# dense indices [i, j, k], the keys of the scalar's dict; D is one more than
# the largest index. Each scalar family gives the 1D integrals of products of
# its per-axis factors through `dense_moments`, the 1D derivative matrix
# through `dense_diff` and the 1D point values, for evaluation and face
# traces, through `dense_values`. Stacks of fields share one D so that they
# can be contracted against each other.


def dense_degree(polys):
    deg = 0
    for p in polys:
        for i, j, k in p.coef:
            deg = max(deg, i, j, k)
    return deg


def _dense_family(polys):
    """The one scalar type of polys; TypeError on mixed types."""
    types = {type(p) for p in polys}
    if len(types) != 1:
        names = sorted(t.__name__ for t in types)
        raise TypeError(f"dense pairing needs one scalar type, got {names}")
    return types.pop()


def dense_layout(polys):
    """Shared cube size D and 1D moment matrix of scalars of one type."""
    polys = list(polys)
    family = _dense_family(polys)
    D = dense_degree(polys) + 1
    return D, family.dense_moments(D)


def to_dense(p, D):
    out = np.zeros((D, D, D))
    for idx, v in p.coef.items():
        out[idx] = v
    return out


def from_dense(cube, cap=DEFAULT_CAP):
    """Poly3 from the nonzero entries of a dense cube."""
    idx = np.nonzero(cube)
    return Poly3(dict(zip(zip(*idx), cube[idx])), cap)


def dense_stack(rows, D=None):
    """Array of shape (n, m, D, D, D) from n rows of m scalar fields each.

    D defaults to the smallest size that holds every row.
    """
    if D is None:
        D = dense_degree(p for row in rows for p in row) + 1
    X = np.zeros((len(rows), len(rows[0]), D, D, D))
    for a, row in enumerate(rows):
        for q, p in enumerate(row):
            X[a, q] = to_dense(p, D)
    return X


GRAM_BLOCK = 32  # rows of X contracted at once by dense_gram


def dense_gram(X, M, Y=None):
    """Pairwise box integrals of stacked dense fields.

    X has shape (n, m, D, D, D) and M is the 1D moment matrix of its scalar
    type; the result is G[a, b] = sum_m of the integral of X[a, m] * Y[b, m]
    over the unit box. Each block of GRAM_BLOCK rows of X takes one moment
    contraction per axis and then one matrix product with the flattened Y,
    so the work space stays the size of one block.
    """
    if Y is None:
        Y = X
    n, m, D = X.shape[:3]
    Yf = Y.reshape(len(Y), -1)
    G = np.empty((n, len(Y)))
    for a in range(0, n, GRAM_BLOCK):
        T = X[a:a + GRAM_BLOCK] @ M
        T = M.T @ T
        T = M.T @ T.reshape(len(T), m, D, D * D)
        G[a:a + GRAM_BLOCK] = T.reshape(len(T), -1) @ Yf.T
    return G


class DenseBatch:
    """n scalar fields of one family as one (n, D, D, D) coefficient array.

    A batch stands in for a scalar inside the field operators (`jac`,
    `mat_curl`, the `tensors` algebra), so one call of an operator on an
    object array of batches evaluates it on every field of the stack at
    once. The family's 1D derivative matrix has at most one nonzero per
    row, so diff gathers each output slot from its one source slot times
    its weight (`_diff_gather`); sums, differences and float multiples act
    on the whole array. The only product of two batches is by a batch that
    is constant in space, which `tensors.identity_like` and `tensors.sph`
    need; any other raises TypeError. There is no __len__, __getitem__ or __array__, so numpy
    holds a batch as one object entry.
    """

    __slots__ = ("coef", "family")

    def __init__(self, coef, family):
        self.coef = coef
        self.family = family

    def _like(self, coef):
        return DenseBatch(coef, self.family)

    def _same(self, other):
        if not isinstance(other, DenseBatch):
            return False
        if other.family is not self.family or other.coef.shape != self.coef.shape:
            raise TypeError("batches of different families or layouts")
        return True

    def _constant(self):
        """Per-field constants, or None unless the batch is constant in space."""
        flat = self.coef.reshape(len(self.coef), -1)
        return None if np.any(flat[:, 1:]) else flat[:, 0]

    def __add__(self, other):
        if not self._same(other):
            return NotImplemented
        return self._like(self.coef + other.coef)

    def __sub__(self, other):
        if not self._same(other):
            return NotImplemented
        return self._like(self.coef - other.coef)

    def __neg__(self):
        return self._like(-self.coef)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self._like(self.coef * float(other))
        if not self._same(other):
            return NotImplemented
        for const, field in ((other._constant(), self), (self._constant(), other)):
            if const is not None:
                return self._like(field.coef * const[:, None, None, None])
        raise TypeError("product of two batches that are not constant in space")

    __rmul__ = __mul__

    def __pow__(self, n):
        if n != 0:
            raise TypeError("a batch has only the power 0")
        coef = np.zeros_like(self.coef)
        coef[:, 0, 0, 0] = 1.0  # index 0 is the constant in every family
        return self._like(coef)

    def diff(self, axis):
        """The family's R[out, in] as a gather: out takes its one source times its weight.

        A nonzero source whose out lies past the layout raises ValueError;
        an out with no source is zero, so a NaN stays in its own slot.
        """
        ax, D = _axis(axis), self.coef.shape[-1]
        out, src, w, past = _diff_gather(self.family, D)
        lead = (slice(None),) * (ax + 1)
        if past is not None and np.any(self.coef[lead + (past,)]):
            raise ValueError(f"a derivative leaves the {self.family.__name__} layout of size {D}")
        coef = np.zeros_like(self.coef)
        coef[lead + (out,)] = self.coef[lead + (src,)] * w.reshape((-1,) + (1,) * (2 - ax))
        return self._like(coef)

    def restrict(self, axis, value):
        """Substitute one variable by a constant: the trace moves to index 0."""
        ax = _axis(axis)
        vals = self.family.dense_values(self.coef.shape[-1], value)
        coef = np.zeros_like(self.coef)
        at = [slice(None)] * 4
        at[ax + 1] = 0
        coef[tuple(at)] = np.tensordot(self.coef, vals, (ax + 1, 0))
        return self._like(coef)


@functools.cache
def _diff_gather(family, D):
    """out, src, w and past of the family's R[out, in] on layout D, formed once.

    Every family's derivative has at most one nonzero per row, so row out
    of R reads the one source src with weight w. past holds the sources
    whose row lies past the layout (None if there are none); index runs
    with one step are slices.
    """
    R = family.dense_diff(D)
    out, src = np.nonzero(R)
    if len(np.unique(out)) != len(out):
        raise ValueError(f"the {family.__name__} derivative has a row with two sources")
    w = R[out, src]
    inside = out < D
    past = None if inside.all() else _as_slice(src[~inside])
    return _as_slice(out[inside]), _as_slice(src[inside]), w[inside], past


def _as_slice(idx):
    """An index run of one positive step as a slice; any other run as it is."""
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if len(idx) and step > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1, step)):
        return slice(int(idx[0]), int(idx[-1]) + 1, int(step))
    return idx


# --- derivative symbols and sum-factorized Grams ---------------------------
#
# A field operator built from derivatives with constant coefficients maps
# s e_d, for any scalar s, to a field whose component q is
# sum_alpha W[d, q, alpha] d^alpha s. Running the operator on the unit
# fields e_d of the symbol family below gives W, and over a basis of
# separable scalars s_n = phi_n0(x) phi_n1(y) phi_n2(z) every box integral
# of two such images factors into 1D integrals of the phi and their
# derivatives (sum factorization: Orszag, J. Comput. Phys. 37, 1980).

SYMBOL_SIZE = 3  # derivative counts 0, 1 and 2 on each axis


class DerivativeSymbol:
    """Derivative operators with constant coefficients as a family of dense cubes.

    Index [i, j, k] of a cube stands for d^i/dx^i d^j/dy^j d^k/dz^k, so
    `dense_diff` is the shift up by one on its axis and index 0 (no
    derivative) is the identity, the family's constant. The shift has one
    row past the layout, so that a derivative beyond the layout raises in
    `DenseBatch.diff` instead of being dropped.
    """

    @staticmethod
    def dense_diff(D):
        """Shift-up R[out, in] = 1 at out = in + 1, with out running to D."""
        R = np.zeros((D + 1, D))
        R[np.arange(1, D + 1), np.arange(D)] = 1.0
        return R


def unit_symbols():
    """The unit fields e_d as one symbol batch: entry q of field d is the identity iff q = d."""
    coef = np.zeros((3, 3) + (SYMBOL_SIZE,) * 3)
    coef[range(3), range(3), 0, 0, 0] = 1.0
    return as_vec([DenseBatch(coef[:, q], DerivativeSymbol) for q in range(3)])


def factor_moments(rows, family):
    """M[p, q, i, j] = integral over [0, 1] of phi_i^(p) phi_j^(q), for p, q < SYMBOL_SIZE.

    rows (n, D) hold the 1D factors phi_i on a layout of the family that is
    closed under d/dx; the derivative rows come from its `dense_diff`.
    """
    D = rows.shape[-1]
    Rt = family.dense_diff(D).T
    derivs = [rows]
    for _ in range(SYMBOL_SIZE - 1):
        derivs.append(derivs[-1] @ Rt)
    P = np.stack(derivs)
    return np.tensordot(P @ family.dense_moments(D), P, (2, 2)).transpose(0, 2, 1, 3)


def symbol_grams(terms, weights, M):
    """Weighted sums of the Grams of operator images over the basis s_n e_d.

    Each term is an operator applied to `unit_symbols()`, as one symbol
    batch or an array of them; M is the `factor_moments` of the basis
    factors phi, with n in range(len(phi))^3, n0 slowest and d fastest.
    With C_t[d, alpha, e, beta] = sum_q W[d, q, alpha] W[e, q, beta] for
    term t, Gram g is sum over alpha, beta of
    (sum_t weights[g, t] C_t)[d, alpha, e, beta] times the product over the
    axes of M[alpha_i, beta_i][n_i, m_i]: the sum is linear in C, so the
    weights enter before the one tensordot per axis and only one Gram per
    row of weights is formed. Each row is scaled by the power of two at
    its largest magnitude, and its Gram scaled back at the end (exact in
    binary), so no step overflows unless the weighted Gram does. Returns
    an array (len(weights), N, N), N = 3 len(phi)^3.
    """
    S = SYMBOL_SIZE
    Ws = [np.stack([p.coef for p in np.ravel(t)], axis=1).reshape(3, -1, S**3) for t in terms]
    C = np.stack([np.tensordot(W, W, (1, 1)) for W in Ws])
    weights = np.asarray(weights, dtype=float)
    _, e = np.frexp(np.max(np.abs(weights), axis=1))
    C = np.tensordot(np.ldexp(weights, -e[:, None]), C, (1, 0))
    C = C.reshape((len(weights), 3) + (S,) * 3 + (3,) + (S,) * 3)
    T = np.tensordot(C, M, ([2, 6], [0, 1]))  # (g, d, a1, a2, e, b1, b2, n0, m0)
    T = np.tensordot(T, M, ([2, 5], [0, 1]))  # (g, d, a2, e, b2, n0, m0, n1, m1)
    T = np.tensordot(T, M, ([2, 4], [0, 1]))  # (g, d, e, n0, m0, n1, m1, n2, m2)
    N = 3 * M.shape[-1] ** 3
    T = T.transpose(0, 3, 5, 7, 1, 4, 6, 8, 2).reshape(len(weights), N, N)
    return np.ldexp(T, e[:, None, None])


def batch_fields(fields):
    """Equally shaped fields of one family as one field of DenseBatch entries.

    Entry q of the result holds component q of every field, on the stack
    layout of `FieldStack.of`.
    """
    return FieldStack.of(fields).batch()


def batch_gram(rows, other=None):
    """Box integrals of batched fields, paired field by field.

    rows and other (which defaults to rows) each hold m DenseBatch of one
    family, as one batch or an array or list of them; entry [a, b] sums the
    integrals of field a of rows[q] times field b of other[q] over q, by
    `dense_gram` on the smallest layout that holds both.
    """
    rows = list(np.ravel(rows))
    other = None if other is None else list(np.ravel(other))
    batches = rows + (other or [])
    family = batches[0].family
    if any(p.family is not family for p in batches):
        raise TypeError("dense pairing needs one scalar family")
    D = max(p.coef.shape[-1] for p in batches)

    def stack(row):
        return np.stack([_padded(p.coef, D) for p in row], axis=1)

    Y = None if other is None else stack(other)
    return dense_gram(stack(rows), family.dense_moments(D), Y)


def box_gram(rows, other=None):
    """Box integrals of rows of scalars of one type, paired row by row.

    Entry [a, b] sums the integrals of rows[a][m] * other[b][m] over m
    (other defaults to rows): `batch_gram` over the rows as stacks.
    """
    return batch_gram(batch_fields(rows), None if other is None else batch_fields(other))


def _padded(cubes, D):
    """cubes (..., d, d, d) on the larger layout D, zero past index d."""
    d = cubes.shape[-1]
    if d == D:
        return cubes
    X = np.zeros(cubes.shape[:-3] + (D, D, D))
    X[..., :d, :d, :d] = cubes
    return X


class FieldStack:
    """n equally shaped fields of one family as one (n, *shape, D, D, D) cube array.

    Batches, contractions and Grams read the cubes. Item a is built as a
    field of the stack's family on access, with the cap of the stack (a
    family without caps ignores it); iteration ends at the IndexError past
    the last item.
    """

    __slots__ = ("cubes", "cap", "family")

    def __init__(self, cubes, cap=DEFAULT_CAP, family=Poly3):
        self.cubes, self.cap, self.family = cubes, int(cap), family

    @classmethod
    def of(cls, fields, X=None):
        """A stack as it is; else the fields' family, largest cap and dense stack X.

        X is stacked here, on the family's smallest layout that holds every
        field and is closed under d/dx, unless the caller gives it.
        """
        if isinstance(fields, cls):
            return fields
        flat = [np.ravel(F) for F in fields]
        scalars = [p for row in flat for p in row]
        family = _dense_family(scalars)
        if X is None:
            X = dense_stack(flat, family.dense_size(dense_degree(scalars) + 1))
        return cls(X.reshape((len(flat),) + np.shape(fields[0]) + X.shape[-3:]),
                   max(getattr(p, "cap", DEFAULT_CAP) for p in scalars), family)

    def __len__(self):
        return len(self.cubes)

    def __getitem__(self, a):
        cubes = self.cubes[a]
        F = np.empty(cubes.shape[:-3], dtype=object)
        for idx in np.ndindex(F.shape):
            F[idx] = self.family.from_cube(cubes[idx], self.cap)
        return F

    def batch(self, D=None):
        """The stack as one field of DenseBatch entries, on layout D or its own."""
        X = _padded(self.cubes, D or self.cubes.shape[-1])
        out = np.empty(X.shape[1:-3], dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = DenseBatch(X[(slice(None),) + idx], self.family)
        return out


def stack_batches(*stacks):
    """Equally long stacks, each as one field of DenseBatch entries, on one layout."""
    D = max(s.cubes.shape[-1] for s in stacks)
    return [s.batch(D) for s in stacks]


def product_batches(*stacks):
    """The product span of the stacks, one field of DenseBatch entries per slot.

    The fields of each stack in turn are the elements of the span, each in
    its stack's slot with zero in every other slot.
    """
    n, start, slots = sum(len(s) for s in stacks), 0, []
    for s in stacks:
        X = np.zeros((n,) + s.cubes.shape[1:])
        X[start:start + len(s)] = s.cubes
        slots.append(FieldStack(X, s.cap, s.family))
        start += len(s)
    return stack_batches(*slots)


def linear_combinations(fields, W, X=None):
    """The fields sum_a W[a, r] fields[a], one per column r of W, as a FieldStack.

    fields are a FieldStack or equally shaped arrays of one family. The sums
    are formed in coefficient space, by one contraction of W with the cubes of
    the fields (stacked here unless fields is a stack or the caller gives
    the dense stack X), so only the summation order differs from
    term-by-term field arithmetic. Like a sum, each result takes the
    largest cap among the fields.
    """
    stack = FieldStack.of(fields, X)
    return FieldStack(np.tensordot(W, stack.cubes, axes=(0, 0)), stack.cap, stack.family)


# --- field constructors -----------------------------------------------


def as_vec(components):
    out = np.empty(3, dtype=object)
    for i in range(3):
        out[i] = components[i]
    return out


def as_mat(rows):
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = rows[i][j]
    return out


def const_vec(values, cap=DEFAULT_CAP):
    return as_vec([Poly3.const(v, cap) for v in values])


def const_mat(values, cap=DEFAULT_CAP):
    return as_mat([[Poly3.const(values[i][j], cap) for j in range(3)] for i in range(3)])


def zero_vec(cap=DEFAULT_CAP):
    return const_vec([0.0, 0.0, 0.0], cap)


def zero_mat(cap=DEFAULT_CAP):
    return const_mat([[0.0] * 3 for _ in range(3)], cap)


# --- differential operators -------------------------------------------


def grad(p):
    """Gradient of a scalar field."""
    return as_vec([p.diff(0), p.diff(1), p.diff(2)])


def jac(u):
    """Jacobian of a vector field, J[i,j] = d u_i / d x_j."""
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            out[i, j] = u[i].diff(j)
    return out


def div(u):
    return u[0].diff(0) + u[1].diff(1) + u[2].diff(2)


def curl(u):
    return as_vec(
        [
            u[2].diff(1) - u[1].diff(2),
            u[0].diff(2) - u[2].diff(0),
            u[1].diff(0) - u[0].diff(1),
        ]
    )


def mat_grad(P):
    """Third-order gradient of a matrix field, G[i,j,k] = d P_ij / d x_k."""
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i, j, k] = P[i, j].diff(k)
    return out


def mat_curl(P):
    """Row-wise curl: row i of the result is curl of row i of P.

    Componentwise (Curl P)_ij = sum_lk EPS[j,l,k] d P_ik / d x_l.
    """
    out = np.empty((3, 3), dtype=object)
    for i in range(3):
        row = as_vec([P[i, 0], P[i, 1], P[i, 2]])
        c = curl(row)
        for j in range(3):
            out[i, j] = c[j]
    return out


def mat_div(P):
    """Row-wise divergence, (Div P)_i = sum_j d P_ij / d x_j."""
    return as_vec(
        [P[i, 0].diff(0) + P[i, 1].diff(1) + P[i, 2].diff(2) for i in range(3)]
    )


def second_gradient(u):
    """Second gradient of a vector field, T[k,i,j] = d^2 u_k / d x_i d x_j."""
    out = np.empty((3, 3, 3), dtype=object)
    for k in range(3):
        for i in range(3):
            d = u[k].diff(i)
            for j in range(3):
                out[k, i, j] = d.diff(j)
    return out


def strain_gradient(u):
    """Gradient of the symmetric strain, E[i,k,l] = d (sym grad u)_ik / d x_l."""
    eps = tn.sym(jac(u))
    out = np.empty((3, 3, 3), dtype=object)
    for i in range(3):
        for k in range(3):
            for l in range(3):
                out[i, k, l] = eps[i, k].diff(l)
    return out


# --- evaluation and integration helpers ---------------------------------


EVAL_BLOCK = 256  # points evaluated at once by eval_fields


def eval_fields(F, pts):
    """Values of an array of scalars of one family (or one scalar) at (..., 3) points.

    The entries are stacked on one dense layout by `FieldStack.of`, and
    with the family's per-axis value tables V_a[p, i] (x_a^i for Poly3, the
    sine and cosine factors for TrigPoly, from `dense_values`) the values
    are the contraction
    sum_ijk F[..., i, j, k] V_0[p, i] V_1[p, j] V_2[p, k], taken over (j, k)
    through one table of V_1 V_2 and then over i, for EVAL_BLOCK points at
    a time so that the tables stay small. The result has shape
    pts.shape[:-1] + F.shape, and its dtype is that of the points (float64
    for integer or lower-precision points), so np.longdouble points
    evaluate in extended precision.
    """
    F = np.asarray(F, dtype=object)
    family = _dense_family(F.flat)
    if not issubclass(family, ScalarField):
        raise TypeError(f"eval_fields evaluates scalar fields, got {family.__name__}")
    pts = np.asarray(pts)
    p = pts.reshape(-1, 3).astype(np.result_type(pts.dtype, float))
    X = FieldStack.of([F]).cubes.astype(p.dtype)
    D = X.shape[-1]
    X = X.reshape(F.size, D, D * D)
    out = np.empty((len(p), F.size), dtype=p.dtype)
    for a in range(0, len(p), EVAL_BLOCK):
        V = family.dense_values(D, p[a:a + EVAL_BLOCK])
        W = np.einsum("pj,pk->pjk", V[:, 1], V[:, 2]).reshape(len(V), D * D)
        T = np.einsum("pa,nia->pni", W, X)
        out[a:a + EVAL_BLOCK] = np.einsum("pni,pi->pn", T, V[:, 0])
    return out.reshape(pts.shape[:-1] + F.shape)


eval_vec = eval_mat = eval_fields


def integrate_inner_vec(u, v):
    return sum(integral_of_product(u[i], v[i]) for i in range(3))


def integrate_inner_mat(A, B):
    return sum(
        integral_of_product(A[i, j], B[i, j]) for i in range(3) for j in range(3)
    )


def max_abs_coeff(F):
    """Largest coefficient magnitude over the entries of F (or one scalar); NaN if any is NaN."""
    return float(np.max([p.max_abs_coeff() for p in np.ravel(F)]))


def max_abs_coeff_vec(u):
    return max_abs_coeff(u)


def max_abs_coeff_mat(A):
    return max_abs_coeff(A)


def max_abs_coeff_ten3(T):
    return max_abs_coeff(T)


# --- random fields -------------------------------------------------------


def random_poly(rng, degree, cap=None, scale=1.0):
    """Dense random polynomial with uniform(-scale, scale) coefficients."""
    if cap is None:
        cap = max(DEFAULT_CAP, degree)
    coef = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                coef[(i, j, k)] = rng.uniform(-scale, scale)
    return Poly3(coef, cap)


def random_vec_field(rng, degree, cap=None, scale=1.0):
    return as_vec([random_poly(rng, degree, cap, scale) for _ in range(3)])


def random_mat_field(rng, degree, cap=None, scale=1.0):
    return as_mat(
        [[random_poly(rng, degree, cap, scale) for _ in range(3)] for _ in range(3)]
    )


def random_sym_mat_field(rng, degree, cap=None, scale=1.0):
    return tn.sym(random_mat_field(rng, degree, cap, scale))


def random_skw_mat_field(rng, degree, cap=None, scale=1.0):
    return tn.anti(random_vec_field(rng, degree, cap, scale))


# --- face restriction ----------------------------------------------------


def face_integral(p, axis, value):
    """Exact integral of a polynomial over one box face."""
    return p.restrict(axis, value).integrate()
