"""Exact arithmetic on truncated Taylor expansions over a polarized chart.

A chart of complex dimension ``n`` carries ``2n`` formally independent
variables: ``n`` holomorphic offsets and ``n`` antiholomorphic ones.  A
:class:`Jet` stores the Taylor coefficients of a function around a base
point up to a prescribed total degree ``trunc``.  Every retained
coefficient is exact, so truncating first and operating afterwards gives
the same result as operating first and truncating afterwards.

Coefficients are addressed by flat keys of length ``2n`` (holomorphic
multi-index, then antiholomorphic) and stored as one dense complex vector
over the graded monomial basis: degree ascending, :func:`iter_multi_indices`
order within a degree.  The basis of order ``t`` is a prefix of every higher
one, so truncation is a prefix copy, and the index tables that products and
derivatives gather through are kept per ``n`` for the highest order seen.
Product pairs are sorted by output, then left factor, so a coefficient is summed
in the same order whatever order the tables have (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008, ch. 13).
:meth:`Jet.polynomial` writes the jet of a polynomial around a base point by
one Taylor shift of its term table: one row per term and output it reaches, read
from a position list kept per clipped power pattern, with no jet product or addition.

A jet *tensor* is one complex array with the coefficient axis first and one
axis per component index after it.  :func:`contract` is the one product of
jet tensors: it gathers the product pairs along the coefficient axis, runs
:func:`numpy.einsum` over the component indices and sums each output's pairs;
:meth:`Jet.__mul__` multiplies through the same pair routine.  At truncation 0,
where the base-point operators live, the one pair is the product of the ``[0]``
slices, so :func:`contract` runs one einsum over C-order copies of them: the copies
are laid out as the pair routine's gathers are, so einsum sums the component
indices in the same order and the result is the same bit for bit.
:func:`gradient` differentiates a tensor along every variable of one kind,
a gather on the coefficient axis; :func:`derivative_values` reads the
base-point partial derivatives of a tensor as one array.
:func:`solve_linear_system` solves a ``[coeff, a, b]`` matrix tensor against
a ``[coeff, b, ...]`` right-hand side degree by degree, one column at a time: the
part of a degree that the lower ones already fix is one :func:`contract` of the
matrix with the solution so far; :func:`jet_matrix_inverse` is that solve with an
identity right-hand side.  :meth:`Jet.reciprocal`, :meth:`Jet.log` and
:meth:`Jet.exp` sum one power series each, through the same loop.
The product table has ``C(trunc + 4n, 4n)`` pairs; rings that need more than
:data:`MAX_PRODUCT_PAIRS` are refused.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "MultiIndex",
    "Jet",
    "MAX_PRODUCT_PAIRS",
    "iter_multi_indices",
    "iter_multi_indices_upto",
    "unit_index",
    "multi_factorial",
    "solve_linear_system",
    "jet_matrix_inverse",
    "contract",
    "gradient",
    "derivative_values",
]

MultiIndex = tuple[int, ...]

_SCALARS = (int, float, complex)

#: largest product table built, about 60 MB while it is built; dimension 3 at
#: order 10 needs 646 646 pairs, dimension 4 at order 10 would need 5 311 735
MAX_PRODUCT_PAIRS = 1_000_000


def iter_multi_indices(n: int, order: int) -> Iterator[MultiIndex]:
    """Yield every length-``n`` multi-index of total order ``order``.

    The order of iteration is deterministic (ascending first entry).
    """
    if n == 0:
        if order == 0:
            yield ()
        return
    if n == 1:
        yield (order,)
        return
    for head in range(order + 1):
        for tail in iter_multi_indices(n - 1, order - head):
            yield (head,) + tail


def iter_multi_indices_upto(n: int, max_order: int) -> Iterator[MultiIndex]:
    """Yield every length-``n`` multi-index of total order ``<= max_order``."""
    for order in range(max_order + 1):
        yield from iter_multi_indices(n, order)


def unit_index(n: int, *axes: int) -> MultiIndex:
    """Length-``n`` multi-index with one unit added per entry of ``axes``."""
    v = [0] * n
    for axis in axes:
        v[axis] += 1
    return tuple(v)


def multi_factorial(mi: Sequence[int]) -> int:
    return math.prod(math.factorial(e) for e in mi)


class _Tables:
    """Index tables of the graded basis in ``2n`` variables up to degree ``order``: degree
    ``d`` starts at ``deg_start[d]``, the product pairs of output ``k`` at ``seg[k]``."""

    def __init__(self, n: int, order: int) -> None:
        width = 2 * n
        pairs = math.comb(order + 2 * width, 2 * width)
        if pairs > MAX_PRODUCT_PAIRS:
            raise ValueError(
                f"jets of dimension {n} and order {order} need {pairs} product pairs, "
                f"more than the supported {MAX_PRODUCT_PAIRS}; lower the dimension or order"
            )
        if (order + 1) ** width > np.iinfo(np.int64).max:
            raise ValueError(f"jets of dimension {n} and order {order} overflow the monomial codes")
        self.order = order
        self.keys = list(iter_multi_indices_upto(width, order))
        self.index = {key: i for i, key in enumerate(self.keys)}
        size = len(self.keys)
        exps = np.array(self.keys, dtype=np.intp).reshape(size, width)
        self.exps = exps
        deg = exps.sum(axis=1)
        self.deg_start = [int(i) for i in np.searchsorted(deg, np.arange(order + 2))]
        # base-(order+1) digits encode a monomial; a product's code is the sum of codes
        radix = (order + 1) ** np.arange(width, dtype=np.int64)
        code = exps @ radix
        by_code, sorted_code = np.argsort(code), np.sort(code)  # codes are distinct

        def position(codes):  # basis positions of the monomials with codes ``codes``
            return by_code[np.searchsorted(sorted_code, codes)]

        # every pair (i, j) with deg i + deg j <= order, then sorted by (k, i)
        counts = np.array(self.deg_start, dtype=np.intp)[order + 1 - deg]
        pair_i = np.repeat(np.arange(size, dtype=np.intp), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        pair_j = np.arange(len(pair_i), dtype=np.intp) - starts
        pair_k = position(code[pair_i] + code[pair_j])
        perm = np.argsort(pair_k, kind="stable")  # keeps i ascending within each k
        self.pair_i, self.pair_j = pair_i[perm], pair_j[perm]
        self.seg = np.concatenate(([0], np.cumsum(np.bincount(pair_k, minlength=size))))
        # pair_end[s] counts the pairs of all outputs of degree <= s
        self.pair_end = [int(self.seg[self.deg_start[s + 1]]) for s in range(order + 1)]
        # row pos of deriv_src/deriv_fac gathers the derivative along flat variable pos
        lower = exps[: self.deg_start[order]]
        self.deriv_src = np.array(
            [position(lower @ radix + radix[pos]) for pos in range(width)], dtype=np.intp
        ).reshape(width, len(lower))
        self.deriv_fac = (lower.T + 1).astype(float)
        self.derivative_gathers: dict = {}  # (hol, anti) -> derivative_values' positions, factors
        self._reach: dict = {}  # (trunc, clipped powers) -> positions, see reach

    def reach(self, trunc: int, clipped: MultiIndex) -> np.ndarray:
        """Ascending, read-only positions of the exponents ``e <= clipped`` of degree
        ``<= trunc``: the outputs of a term of powers ``p`` with ``min(p, trunc) == clipped``."""
        pos = self._reach.get((trunc, clipped))
        if pos is None:
            pos = self._reach[trunc, clipped] = np.flatnonzero(
                (self.exps[: self.deg_start[trunc + 1]] <= clipped).all(axis=1))
            pos.flags.writeable = False
        return pos


_TABLES: dict[int, _Tables] = {}


def _tables(n: int, trunc: int) -> _Tables:
    """Tables for dimension ``n`` of order ``trunc`` or higher."""
    tables = _TABLES.get(n)
    if tables is None or tables.order < trunc:
        tables = _TABLES[n] = _Tables(n, trunc)
    return tables


def _zeros(n: int, trunc: int) -> np.ndarray:
    return np.zeros(_tables(n, trunc).deg_start[trunc + 1], dtype=complex)


def _convolve(tables: _Tables, s: int, a: np.ndarray, b: np.ndarray, spec: str | None = None):
    """Coefficients of degree ``<= s`` of the product of ``a`` and ``b`` along the
    coefficient axis: gather each product pair, multiply (or contract the component
    indices by the einsum ``spec``, pair axis last) and sum the pairs of each output.

    The pairs are gathered onto the last axis, so that einsum's inner loop runs along
    them rather than along a component axis of length ``n`` (5-6x faster at n=2 with
    hundreds of pairs); the result is a coefficient-first view of a component-major array.
    """
    pairs = tables.pair_end[s]
    left = a.transpose((*range(1, a.ndim), 0)).take(tables.pair_i[:pairs], axis=-1)
    right = b.transpose((*range(1, b.ndim), 0)).take(tables.pair_j[:pairs], axis=-1)
    if spec is None:
        left *= right
        terms = left
    else:
        terms = np.einsum(spec, left, right)
    sums = np.add.reduceat(terms, tables.seg[: tables.deg_start[s + 1]], axis=-1)
    return sums.transpose((sums.ndim - 1, *range(sums.ndim - 1)))


def contract(spec: str, a: np.ndarray, b: np.ndarray, n: int, trunc: int) -> np.ndarray:
    """Truncated product of two jet tensors of dimension ``n``, contracted over their
    component indices by the einsum ``spec`` (component indices only, as in
    ``"lk,lq->kq"``): the coefficients of degree ``<= trunc`` of ``sum a * b``, read from
    the operands' coefficient prefixes, so either operand may be of higher order.

    Each coefficient sums the same product pairs in the same order whatever ``trunc``,
    but einsum sums the component indices: with one pair left (``trunc == 0``) it may
    sum several contracted indices in another order, so the result is not always
    bitwise the prefix of the same contraction at a higher ``trunc``.

    At ``trunc == 0`` the one pair is the base-point values ``a[0] * b[0]``: one einsum
    over them, a trailing unit axis standing in for the pair axis, with no gather or
    pair sum.  The slices are copied because einsum's summation order follows the
    memory layout: C-order copies are laid out as :func:`_convolve`'s gathers are, so
    the result is the same bit for bit (plain views of a transposed tensor may not be)."""
    tables = _tables(n, trunc)
    if min(len(a), len(b)) < tables.deg_start[trunc + 1]:
        raise ValueError("cannot extend a jet to a higher truncation order")
    inputs, output = spec.split("->")
    left, right = inputs.split(",")
    full = f"{left}...,{right}...->{output}..."
    if trunc == 0:
        return np.einsum(full, a[0].copy()[..., None], b[0].copy()[..., None])[None, ..., 0]
    return _convolve(tables, trunc, a, b, full)


def gradient(a: np.ndarray, n: int, trunc: int, barred: bool = False) -> np.ndarray:
    """Partial derivatives of a jet tensor of order ``trunc`` along the ``n`` holomorphic
    (or antiholomorphic) variables: a tensor of order ``trunc - 1`` whose last index is
    the variable, gathered along the coefficient axis."""
    if trunc < 1:
        raise ValueError("cannot differentiate a jet of truncation order 0")
    tables = _tables(n, trunc)
    size, first = tables.deg_start[trunc], n if barred else 0
    factor = tables.deriv_fac[first : first + n, :size].T
    out = a.take(tables.deriv_src[first : first + n, :size].T, axis=0)
    out *= factor.reshape(factor.shape + (1,) * (a.ndim - 1))
    return out.transpose((0, *range(2, out.ndim), 1))


def derivative_values(a: np.ndarray, n: int, hol: int, anti: int) -> np.ndarray:
    """Base-point partial derivatives ``∂_{k1..k_hol} ∂̄_{l1..l_anti}`` of a jet tensor of
    dimension ``n``: an array of its component axes followed by the ``hol + anti``
    derivative axes, each ``alpha! beta!`` times a coefficient as in :meth:`Jet.derivative_at`."""
    tables = _tables(n, hol + anti)
    if (hol, anti) not in tables.derivative_gathers:
        pos, fac = [], []
        for axes in itertools.product(range(n), repeat=hol + anti):
            alpha, beta = unit_index(n, *axes[:hol]), unit_index(n, *axes[hol:])
            pos.append(tables.index[alpha + beta])
            fac.append(multi_factorial(alpha) * multi_factorial(beta))
        tables.derivative_gathers[hol, anti] = np.array(pos, dtype=np.intp), np.array(fac, dtype=float)
    pos, fac = tables.derivative_gathers[hol, anti]
    values = a[pos].transpose((*range(1, a.ndim), 0)) * fac
    return values.reshape(a.shape[1:] + (n,) * (hol + anti))


class Jet:
    """Truncated Taylor expansion at a base point.

    ``Jet(n, trunc, coeffs)`` builds a jet from a mapping of flat keys
    (holomorphic part followed by antiholomorphic part) to complex Taylor
    coefficients; :attr:`coeffs` reads the nonzero ones back.  The
    represented germ is ``sum(c[key] * dz**key_hol * dzb**key_anti)``.  Jets
    are immutable; arithmetic between two jets requires equal ``n`` and
    ``trunc``.
    """

    __slots__ = ("n", "trunc", "_vec")

    def __init__(self, n: int, trunc: int, coeffs: dict | None = None) -> None:
        if n < 0:
            raise ValueError("chart dimension must be non-negative")
        if trunc < 0:
            raise ValueError("truncation order must be non-negative")
        width = 2 * n
        index, vec = _tables(n, trunc).index, _zeros(n, trunc)
        for key, val in (coeffs or {}).items():
            if len(key) != width:
                raise ValueError(f"coefficient key {key!r} does not have length {width}")
            if any(e < 0 for e in key):
                raise ValueError(f"coefficient key {key!r} has a negative entry")
            if sum(key) > trunc:
                raise ValueError(
                    f"coefficient key {key!r} exceeds truncation order {trunc}"
                )
            vec[index[tuple(key)]] = val
        self.n, self.trunc, self._vec = n, trunc, vec

    @classmethod
    def _of(cls, n: int, trunc: int, vec: np.ndarray) -> Jet:
        """Unchecked jet around ``vec``."""
        jet = object.__new__(cls)
        jet.n, jet.trunc, jet._vec = n, trunc, vec
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, n: int, trunc: int) -> Jet:
        vec = _zeros(n, trunc)
        vec[0] = value
        return cls._of(n, trunc, vec)

    @classmethod
    def zero(cls, n: int, trunc: int) -> Jet:
        return cls._of(n, trunc, _zeros(n, trunc))

    @classmethod
    def polynomial(cls, n: int, trunc: int, terms: dict, base) -> Jet:
        """Jet of ``sum coeff * prod_v x_v**powers[v]`` over the term table
        ``{powers: coeff}`` around ``base``, both over the ``2n`` flat variables.

        The classical Taylor shift: a term of powers ``p`` reaches exactly the outputs
        ``e <= min(p, trunc)`` (componentwise) of degree ``<= trunc``, with the coefficient
        ``coeff * prod_v C(p_v, e_v) * base_v**(p_v - e_v)``.  Those outputs are the kept
        list of the clipped pattern ``min(p, trunc)`` (:meth:`_Tables.reach`), so a high
        power costs no dense grid and a coefficient no term reaches is exactly 0.  Each
        row's coefficient is one product over its factors, then rows are summed into the
        graded basis in term order: a lower order is a bitwise prefix.
        """
        width = 2 * n
        shaped = len(base) == width and set(map(len, terms)) <= {width}
        powers = np.fromiter(itertools.chain.from_iterable(terms if shaped else ()), np.intp)
        if not shaped or (powers < 0).any():
            raise ValueError(f"a monomial needs {width} non-negative powers and base values")
        powers = powers.reshape(len(terms), width)
        tables, vec = _tables(n, trunc), _zeros(n, trunc)
        # rows pair a term with an output it reaches, term-major (see _Tables.reach)
        clipped = np.minimum(powers, trunc)
        reach = [tables.reach(trunc, q) for q in map(tuple, clipped.tolist())]
        pos = np.concatenate(reach or [np.empty(0, dtype=np.intp)])
        src = np.repeat(np.arange(len(terms)), [len(r) for r in reach])
        # C(p, e) * x_v**(p - e), e <= min(p, trunc): one run per (v, p) that occurs
        distinct = np.array(sorted(set(powers.ravel().tolist())), dtype=np.intp)
        rank = np.searchsorted(distinct, powers)
        runs = np.zeros((width, len(distinct)), dtype=np.intp)
        runs[np.arange(width), rank] = clipped + 1
        var, which = runs.nonzero()
        table = np.array([math.comb(p, e) * base[v] ** (p - e)
                          for v, p in zip(var.tolist(), distinct[which].tolist())
                          for e in range(min(p, trunc) + 1)], dtype=complex)
        slot = (runs.cumsum() - runs.ravel()).reshape(runs.shape)[np.arange(width), rank]
        factors = np.empty((len(src), width + 1), dtype=complex)
        factors[:, 0] = np.array(list(terms.values()), dtype=complex)[src]
        factors[:, 1:] = table[slot[src] + tables.exps[pos]]
        # one reduction per row, the same whatever the number of rows (a length-1
        # elementwise product may round differently from a longer one)
        values = factors.prod(axis=1)
        vec.real = np.bincount(pos, values.real, minlength=len(vec))
        vec.imag = np.bincount(pos, values.imag, minlength=len(vec))
        return cls._of(n, trunc, vec)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict[MultiIndex, complex]:
        """The nonzero coefficients, keyed by flat multi-index."""
        keys = _tables(self.n, self.trunc).keys
        return {keys[i]: complex(self._vec[i]) for i in np.flatnonzero(self._vec)}

    def value(self) -> complex:
        """Function value at the base point."""
        return complex(self._vec[0])

    def coeff(self, alpha: Sequence[int], beta: Sequence[int]) -> complex:
        """Taylor coefficient on ``dz**alpha * dzb**beta``."""
        return complex(self._vec[self._position(alpha, beta)])

    def derivative_at(self, alpha: Sequence[int], beta: Sequence[int]) -> complex:
        """Value of the mixed partial derivative at the base point.

        Equals ``alpha! * beta!`` times the corresponding coefficient.
        """
        return self.coeff(alpha, beta) * multi_factorial(alpha) * multi_factorial(beta)

    def _position(self, alpha: Sequence[int], beta: Sequence[int]) -> int:
        if len(alpha) != self.n or len(beta) != self.n:
            raise ValueError("multi-indices must have length equal to the chart dimension")
        if any(e < 0 for e in alpha) or any(e < 0 for e in beta):
            raise ValueError("multi-index entries must be non-negative")
        if sum(alpha) + sum(beta) > self.trunc:
            raise ValueError("requested order exceeds the truncation order")
        return _tables(self.n, self.trunc).index[tuple(alpha) + tuple(beta)]

    def max_abs(self) -> float:
        """Largest coefficient magnitude: zero for the zero jet, ``inf`` if one is not finite."""
        mag = float(np.abs(self._vec).max())
        return mag if math.isfinite(mag) else math.inf

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        same_ring = (self.n, self.trunc) == (other.n, other.trunc)
        return same_ring and np.array_equal(self._vec, other._vec)

    # -- structural operations ---------------------------------------------

    def truncated(self, trunc: int) -> Jet:
        """Forget all coefficients of total degree above ``trunc``."""
        if trunc > self.trunc:
            raise ValueError("cannot extend a jet to a higher truncation order")
        if trunc < 0:
            raise ValueError("truncation order must be non-negative")
        if trunc == self.trunc:
            return self
        size = _tables(self.n, self.trunc).deg_start[trunc + 1]
        return Jet._of(self.n, trunc, self._vec[:size].copy())

    # -- ring operations -----------------------------------------------------

    def _require_compatible(self, other: Jet) -> None:
        if self.n != other.n or self.trunc != other.trunc:
            raise ValueError(
                f"incompatible jets: (n={self.n}, trunc={self.trunc}) vs "
                f"(n={other.n}, trunc={other.trunc})"
            )

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            vec = self._vec.copy()
            vec[0] += other
            return Jet._of(self.n, self.trunc, vec)
        if not isinstance(other, Jet):
            return NotImplemented
        self._require_compatible(other)
        return Jet._of(self.n, self.trunc, self._vec + other._vec)

    __radd__ = __add__

    def __neg__(self) -> Jet:
        return Jet._of(self.n, self.trunc, -self._vec)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = Jet.constant(other, self.n, self.trunc)
        if not isinstance(other, Jet):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Jet.constant(other, self.n, self.trunc).__sub__(self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Jet._of(self.n, self.trunc, self._vec * other)
        if not isinstance(other, Jet):
            return NotImplemented
        self._require_compatible(other)
        tables = _tables(self.n, self.trunc)
        return Jet._of(self.n, self.trunc, _convolve(tables, self.trunc, self._vec, other._vec))

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(1.0 / other)
        if isinstance(other, Jet):
            return self.__mul__(other.reciprocal())
        return NotImplemented

    def __pow__(self, exponent: int) -> Jet:
        if not isinstance(exponent, int):
            raise TypeError("jet exponents must be integers")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        result = Jet.constant(1.0, self.n, self.trunc)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- analytic operations -------------------------------------------------

    def _series(self, coefficient) -> Jet:
        """``sum coefficient(m) * self**m`` for ``m = 0..trunc``, one power at a time."""
        acc = Jet.constant(coefficient(0), self.n, self.trunc)
        pw = Jet.constant(1.0, self.n, self.trunc)
        for m in range(1, self.trunc + 1):
            pw = pw * self
            acc = acc + pw * coefficient(m)
        return acc

    def reciprocal(self) -> Jet:
        """Multiplicative inverse, a geometric series in ``self / c0 - 1``; needs a
        nonzero value ``c0``."""
        c0 = self.value()
        if c0 == 0:
            raise ArithmeticError("reciprocal of a jet with zero constant term")
        return (self / c0 - 1.0)._series(lambda m: (-1.0) ** m) / c0

    def log(self) -> Jet:
        """Principal-branch logarithm; the value must stay off ``(-inf, 0]``."""
        c0 = self.value()
        if c0.imag == 0 and c0.real <= 0:
            raise ArithmeticError(
                "log of a jet whose value lies on the branch cut (-inf, 0]"
            )
        return (self / c0 - 1.0)._series(lambda m: (-1.0) ** (m + 1) / m if m else cmath.log(c0))

    def exp(self) -> Jet:
        series = (self - self.value())._series(lambda m: 1.0 / math.factorial(m))
        return series * cmath.exp(self.value())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Jet(n={self.n}, trunc={self.trunc}, terms={len(self.coeffs)})"


def solve_linear_system(matrix: np.ndarray, rhs: np.ndarray, n: int, trunc: int) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` over the jet ring of dimension ``n``, degree by degree.

    ``matrix`` is a ``[coeff, a, b]`` jet tensor and ``rhs`` a ``[coeff, b, ...]`` one;
    their coefficients of degree ``<= trunc`` are read.  The constant-term matrix must be
    numerically invertible.  Each column of ``rhs`` is solved on its own, with the same
    arithmetic whatever the number of columns; the result is exact up to ``trunc``.
    """
    if matrix.ndim != 3 or rhs.ndim < 2 or matrix.shape[1:] != (rhs.shape[1],) * 2:
        raise ValueError("system matrix must be square and match the right-hand side")
    size, tables = rhs.shape[1], _tables(n, trunc)
    length = tables.deg_start[trunc + 1]
    if min(len(matrix), len(rhs)) < length:
        raise ValueError("cannot extend a jet to a higher truncation order")
    try:
        m0_inv = np.linalg.inv(matrix[0])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("constant term of the system matrix is singular") from exc

    columns = rhs[:length].reshape(length, size, -1).transpose(2, 1, 0)
    out = np.zeros((size, len(columns), length), dtype=complex)
    for c, column in enumerate(columns):
        for degree in range(trunc + 1):
            lo, hi = tables.deg_start[degree], tables.deg_start[degree + 1]
            # the solution's block of this degree is still zero: known is what the
            # lower blocks contribute through the matrix
            known = contract("ab,b->a", matrix, out[:, c].T, n, degree)[lo:hi]
            out[:, c, lo:hi] = m0_inv @ (column[:, lo:hi] - known.T)
    out = out.reshape(size, *rhs.shape[2:], length)
    return out.transpose(out.ndim - 1, *range(out.ndim - 1))


def jet_matrix_inverse(matrix: np.ndarray, n: int, trunc: int) -> np.ndarray:
    """Inverse of a square ``[coeff, a, b]`` jet tensor, exact up to ``trunc``: the
    :func:`solve_linear_system` of an identity right-hand side."""
    size = matrix.shape[1]
    unit = np.zeros((_tables(n, trunc).deg_start[trunc + 1], size, size), dtype=complex)
    unit[0] = np.eye(size)
    return solve_linear_system(matrix, unit, n, trunc)
