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
one, so truncation is a prefix copy, and the index tables that products,
derivatives and the linear solver gather through are kept per ``n`` for the
highest order seen.  Product pairs are sorted by output, then left factor, so
a coefficient is summed in the same order whatever order the tables have
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).
The product table has ``C(trunc + 4n, 4n)`` pairs; rings that need more than
:data:`MAX_PRODUCT_PAIRS` are refused.
"""

from __future__ import annotations

import cmath
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
    "multi_binomial",
    "solve_linear_system",
    "jet_matrix_inverse",
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


def multi_binomial(a: Sequence[int], b: Sequence[int]) -> int:
    """Product of componentwise binomial coefficients ``C(a_i, b_i)``."""
    return math.prod(math.comb(x, y) for x, y in zip(a, b))


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
        self.deg = exps.sum(axis=1)
        self.deg_start = [int(i) for i in np.searchsorted(self.deg, np.arange(order + 2))]
        # base-(order+1) digits encode a monomial; a product's code is the sum of codes
        radix = (order + 1) ** np.arange(width, dtype=np.int64)
        code = exps @ radix
        by_code = np.argsort(code)

        def position(c: np.ndarray) -> np.ndarray:
            return by_code[np.searchsorted(code[by_code], c)]

        # every pair (i, j) with deg i + deg j <= order, then sorted by (k, i)
        counts = np.array(self.deg_start, dtype=np.intp)[order + 1 - self.deg]
        pair_i = np.repeat(np.arange(size, dtype=np.intp), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        pair_j = np.arange(len(pair_i), dtype=np.intp) - starts
        pair_k = position(code[pair_i] + code[pair_j])
        perm = np.argsort(pair_k, kind="stable")  # keeps i ascending within each k
        self.pair_i, self.pair_j = pair_i[perm], pair_j[perm]
        self.seg = np.concatenate(([0], np.cumsum(np.bincount(pair_k, minlength=size))))
        # pair_end[s] counts the pairs of all outputs of degree <= s
        self.pair_end = [int(self.seg[self.deg_start[s + 1]]) for s in range(order + 1)]
        # deriv[pos] gathers the derivative along flat variable pos
        lower = exps[: self.deg_start[order]]
        self.deriv = [
            (position(lower @ radix + radix[pos]), (lower[:, pos] + 1).astype(float))
            for pos in range(width)
        ]


_TABLES: dict[int, _Tables] = {}


def _tables(n: int, trunc: int) -> _Tables:
    """Tables for dimension ``n`` of order ``trunc`` or higher."""
    tables = _TABLES.get(n)
    if tables is None or tables.order < trunc:
        tables = _TABLES[n] = _Tables(n, trunc)
    return tables


def _zeros(n: int, trunc: int) -> np.ndarray:
    return np.zeros(_tables(n, trunc).deg_start[trunc + 1], dtype=complex)


class Jet:
    """Truncated Taylor expansion at a base point.

    ``Jet(n, trunc, coeffs)`` builds a jet from a mapping of flat keys
    (holomorphic part followed by antiholomorphic part) to complex Taylor
    coefficients; :attr:`coeffs` reads the nonzero ones back.  The
    represented germ is ``sum(c[key] * dz**key_hol * dzb**key_anti)``.  Jets
    are immutable; arithmetic between two jets requires equal ``n`` and
    ``trunc``.
    """

    __slots__ = ("n", "trunc", "_vec", "_degree_cache")

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
        self.n, self.trunc, self._vec, self._degree_cache = n, trunc, vec, None

    @classmethod
    def _of(cls, n: int, trunc: int, vec: np.ndarray, degree: int | None = None) -> Jet:
        """Unchecked jet around ``vec``; ``degree``, if known, is its :meth:`_degree`."""
        jet = object.__new__(cls)
        jet.n, jet.trunc, jet._vec, jet._degree_cache = n, trunc, vec, degree
        return jet

    def _degree(self) -> int:
        """Highest degree with a nonzero coefficient; ``-1`` for the zero jet."""
        if self._degree_cache is None:
            nonzero = self._vec.nonzero()[0]
            deg = _tables(self.n, self.trunc).deg
            self._degree_cache = int(deg[nonzero[-1]]) if nonzero.size else -1
        return self._degree_cache

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, n: int, trunc: int) -> Jet:
        vec = _zeros(n, trunc)
        vec[0] = value
        return cls._of(n, trunc, vec, 0 if value != 0 else -1)

    @classmethod
    def zero(cls, n: int, trunc: int) -> Jet:
        return cls._of(n, trunc, _zeros(n, trunc), -1)

    @classmethod
    def coordinate(cls, n: int, trunc: int, axis: int, base: complex, barred: bool = False) -> Jet:
        """Jet of the coordinate function ``z_axis`` (or ``zb_axis``) shifted to ``base``."""
        if not 0 <= axis < n:
            raise ValueError(f"axis {axis} out of range for dimension {n}")
        vec = _zeros(n, trunc)
        vec[0] = base
        if trunc >= 1:
            unit = [0] * (2 * n)
            unit[axis + (n if barred else 0)] = 1
            vec[_tables(n, trunc).index[tuple(unit)]] = 1.0
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

    def deriv(self, axis: int) -> Jet:
        """Holomorphic partial derivative; the result loses one degree."""
        return self._deriv(axis, barred=False)

    def deriv_bar(self, axis: int) -> Jet:
        """Antiholomorphic partial derivative; the result loses one degree."""
        return self._deriv(axis, barred=True)

    def _deriv(self, axis: int, barred: bool) -> Jet:
        if not 0 <= axis < self.n:
            raise ValueError(f"axis {axis} out of range for dimension {self.n}")
        if self.trunc == 0:
            raise ValueError("cannot differentiate a jet of truncation order 0")
        tables = _tables(self.n, self.trunc)
        source, factor = tables.deriv[axis + (self.n if barred else 0)]
        size = tables.deg_start[self.trunc]
        return Jet._of(self.n, self.trunc - 1, self._vec.take(source[:size]) * factor[:size])

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
        out = np.zeros(len(self._vec), dtype=complex)
        top_a, top_b = self._degree(), other._degree()
        top = top_a + top_b if top_a >= 0 and top_b >= 0 else -1
        if top >= 0:
            # outputs above degree top_a + top_b are zero: visit only the pairs below
            s = min(top, self.trunc)
            size, pairs = tables.deg_start[s + 1], tables.pair_end[s]
            terms = self._vec.take(tables.pair_i[:pairs])
            terms *= other._vec.take(tables.pair_j[:pairs])
            out[:size] = np.add.reduceat(terms, tables.seg[:size])
        # the product's lex-leading top coefficient is a single term, so a top
        # within the truncation is the exact degree (a bound if that underflows)
        return Jet._of(self.n, self.trunc, out, top if top <= self.trunc else None)

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

    def reciprocal(self) -> Jet:
        """Multiplicative inverse, solved order by order; needs a nonzero value."""
        c0 = self.value()
        if c0 == 0:
            raise ArithmeticError("reciprocal of a jet with zero constant term")
        neg_u = -(self / c0 - 1.0)
        acc = Jet.constant(1.0, self.n, self.trunc)
        pw = acc
        for _ in range(self.trunc):
            pw = pw * neg_u
            acc = acc + pw
        return acc / c0

    def log(self) -> Jet:
        """Principal-branch logarithm; the value must stay off ``(-inf, 0]``."""
        c0 = self.value()
        if c0.imag == 0 and c0.real <= 0:
            raise ArithmeticError(
                "log of a jet whose value lies on the branch cut (-inf, 0]"
            )
        u = self / c0 - 1.0
        acc = Jet.constant(cmath.log(c0), self.n, self.trunc)
        pw = Jet.constant(1.0, self.n, self.trunc)
        for m in range(1, self.trunc + 1):
            pw = pw * u
            acc = acc + pw * ((-1.0) ** (m + 1) / m)
        return acc

    def exp(self) -> Jet:
        u = self - self.value()
        acc = Jet.constant(1.0, self.n, self.trunc)
        pw = acc
        for m in range(1, self.trunc + 1):
            pw = pw * u
            acc = acc + pw * (1.0 / math.factorial(m))
        return acc * cmath.exp(self.value())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Jet(n={self.n}, trunc={self.trunc}, terms={len(self.coeffs)})"


def solve_linear_system(matrix: Sequence[Sequence[Jet]], rhs: Sequence[Jet]) -> list[Jet]:
    """Solve ``matrix @ x = rhs`` over the jet ring, degree by degree.

    All entries must share ``n`` and ``trunc``; the constant-term matrix
    must be numerically invertible.  The solution is exact up to the shared
    truncation order.
    """
    size = len(rhs)
    if len(matrix) != size or any(len(row) != size for row in matrix):
        raise ValueError("system matrix must be square and match the right-hand side")
    first = rhs[0]
    n, trunc = first.n, first.trunc
    for entry in (*[e for row in matrix for e in row], *rhs):
        if entry.n != n or entry.trunc != trunc:
            raise ValueError("all system entries must share chart dimension and truncation")

    mat = np.array([[entry._vec for entry in row] for row in matrix])
    try:
        m0_inv = np.linalg.inv(mat[:, :, 0])
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("constant term of the system matrix is singular") from exc

    tables = _tables(n, trunc)
    x = np.zeros((size, tables.deg_start[trunc + 1]), dtype=complex)
    for degree in range(trunc + 1):
        lo, hi = tables.deg_start[degree], tables.deg_start[degree + 1]
        # pairs through the constant matrix term meet the still-zero block of x
        seg = tables.seg[lo : hi + 1]
        i, j = tables.pair_i[seg[0] : seg[-1]], tables.pair_j[seg[0] : seg[-1]]
        terms = np.einsum("abp,bp->ap", mat[:, :, i], x[:, j])
        residual = np.array([entry._vec[lo:hi] for entry in rhs])
        residual -= np.add.reduceat(terms, seg[:-1] - seg[0], axis=1)
        x[:, lo:hi] = m0_inv @ residual
    return [Jet._of(n, trunc, x[k].copy()) for k in range(size)]


def jet_matrix_inverse(matrix: Sequence[Sequence[Jet]]) -> list[list[Jet]]:
    """Inverse of a square jet matrix, exact up to the shared truncation."""
    size = len(matrix)
    sample = matrix[0][0]
    columns = []
    for m in range(size):
        unit = [
            Jet.constant(1.0 if k == m else 0.0, sample.n, sample.trunc)
            for k in range(size)
        ]
        columns.append(solve_linear_system(matrix, unit))
    return [[columns[m][l] for m in range(size)] for l in range(size)]
