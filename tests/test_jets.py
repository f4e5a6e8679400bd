"""Jet ring and analytic-operation tests."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerstar import jets as jets_module
from kahlerstar.geometry import CHART_DEGREE, _r1_jets, build_chart, chart_tensors, curvature_jets
from kahlerstar.jets import (
    Jet,
    contract,
    derivative_values,
    gradient,
    iter_multi_indices_upto,
    jet_matrix_inverse,
    solve_linear_system,
    unit_index,
)
from kahlerstar.operators import _q_jet, r_operator_jet


def _binomial(a, b):
    """Product of componentwise binomial coefficients ``C(a_i, b_i)``."""
    return math.prod(math.comb(x, y) for x, y in zip(a, b))


def jet_of(n, trunc, entries):
    return Jet(n, trunc, {tuple(k): v for k, v in entries.items()})


def test_product_of_linear_factors():
    # (1 + z) * (1 + zb) at n=1, J=2
    a = jet_of(1, 2, {(0, 0): 1, (1, 0): 1})
    b = jet_of(1, 2, {(0, 0): 1, (0, 1): 1})
    p = a * b
    assert p.coeff((0,), (0,)) == 1
    assert p.coeff((1,), (0,)) == 1
    assert p.coeff((0,), (1,)) == 1
    assert p.coeff((1,), (1,)) == 1


def test_multiplicative_identity():
    rng = random.Random(7)
    a = _random_jet(rng, n=2, trunc=3)
    one = Jet.constant(1.0, 2, 3)
    assert (a * one - a).max_abs() == 0.0


def test_truncation_forces_zero():
    # (z*zb) * (z*zb) at J=3 drops the degree-4 term entirely
    zzb = jet_of(1, 3, {(1, 1): 1})
    assert (zzb * zzb).coeffs == {}


def test_incompatible_jets_raise():
    a = Jet.constant(1.0, 1, 3)
    b = Jet.constant(1.0, 1, 4)
    c = Jet.constant(1.0, 2, 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a * c
    with pytest.raises(ValueError):
        a + b


def test_reciprocal_geometric_series():
    a = jet_of(1, 4, {(0, 0): 1, (1, 1): 1})  # 1 + z*zb
    r = a.reciprocal()
    assert r.coeff((0,), (0,)) == pytest.approx(1)
    assert r.coeff((1,), (1,)) == pytest.approx(-1)
    assert r.coeff((2,), (2,)) == pytest.approx(1)


def test_reciprocal_of_constant():
    assert Jet.constant(2.0, 1, 5).reciprocal().value() == pytest.approx(0.5)


def test_reciprocal_defining_property():
    rng = random.Random(3)
    for _ in range(10):
        a = _random_jet(rng, n=1, trunc=5, unit_constant=True)
        prod = a * a.reciprocal()
        assert (prod - 1.0).max_abs() < 1e-12


def test_reciprocal_requires_nonzero_value():
    with pytest.raises(ArithmeticError):
        jet_of(1, 3, {(1, 0): 1}).reciprocal()


def test_log_series():
    a = jet_of(1, 6, {(0, 0): 1, (1, 1): 1})  # 1 + z*zb
    lg = a.log()
    assert lg.coeff((1,), (1,)) == pytest.approx(1)
    assert lg.coeff((2,), (2,)) == pytest.approx(-0.5)
    assert lg.coeff((3,), (3,)) == pytest.approx(1 / 3)


def test_exp_series():
    z = Jet.polynomial(1, 3, {(1, 0): 1.0}, (0j, 0j))
    e = z.exp()
    assert e.coeff((3,), (0,)) == pytest.approx(1 / 6)


def test_exp_log_roundtrip():
    rng = random.Random(11)
    for _ in range(10):
        a = _random_jet(rng, n=2, trunc=4, unit_constant=True)
        back = a.log().exp()
        assert (back - a).max_abs() < 1e-12


def test_log_branch_cut_rejected():
    with pytest.raises(ArithmeticError):
        Jet.constant(-1.0, 1, 3).log()
    with pytest.raises(ArithmeticError):
        Jet.constant(0.0, 1, 3).log()


def test_derivative_extraction():
    # jet of z^2 * zb
    a = jet_of(1, 4, {(2, 1): 1})
    assert a.derivative_at((2,), (1,)) == pytest.approx(2.0)  # 2! * 1! * 1
    assert a.derivative_at((0,), (0,)) == 0.0

    lg = jet_of(1, 6, {(0, 0): 1, (1, 1): 1}).log()
    assert lg.derivative_at((2,), (2,)) == pytest.approx(-2.0)


def test_derivative_extraction_order_limit():
    a = Jet.constant(1.0, 1, 2)
    with pytest.raises(ValueError):
        a.derivative_at((2,), (1,))


def test_integer_powers():
    a = jet_of(1, 4, {(0, 0): 2, (1, 0): 1})  # 2 + z
    assert ((a**3) - a * a * a).max_abs() < 1e-12
    assert ((a**-2) * a * a - 1.0).max_abs() < 1e-13
    assert (a**0 - 1.0).max_abs() == 0.0


# -- ring axioms (property-based) -------------------------------------------


def _coeff_dict(n, trunc, values):
    keys = list(iter_multi_indices_upto(2 * n, trunc))
    keys = [k for k in keys if len(k) == 2 * n]
    return {k: v for k, v in zip(keys, values)}


@st.composite
def jets(draw, n=1, trunc=3):
    keys = [k for k in iter_multi_indices_upto(2 * n, trunc)]
    values = draw(
        st.lists(
            st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    return Jet(n, trunc, dict(zip(keys, values)))


@settings(max_examples=60, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    scale = max(a.max_abs(), b.max_abs(), c.max_abs(), 1.0)
    tol = 1e-10 * scale**3
    assert ((a * b) - (b * a)).max_abs() <= tol
    assert ((a * b) * c - a * (b * c)).max_abs() <= tol
    assert (a * (b + c) - (a * b + a * c)).max_abs() <= tol


@settings(max_examples=40, deadline=None)
@given(jets(n=2, trunc=2), jets(n=2, trunc=2))
def test_leibniz_convolution(a, b):
    prod = a * b
    n, trunc = a.n, a.trunc
    for alpha in iter_multi_indices_upto(n, trunc):
        for beta in iter_multi_indices_upto(n, trunc - sum(alpha)):
            expected = 0j
            for a1 in iter_multi_indices_upto(n, sum(alpha)):
                if any(x > y for x, y in zip(a1, alpha)):
                    continue
                a2 = tuple(x - y for x, y in zip(alpha, a1))
                for b1 in iter_multi_indices_upto(n, sum(beta)):
                    if any(x > y for x, y in zip(b1, beta)):
                        continue
                    b2 = tuple(x - y for x, y in zip(beta, b1))
                    expected += (
                        _binomial(alpha, a1)
                        * _binomial(beta, b1)
                        * a.derivative_at(a1, b1)
                        * b.derivative_at(a2, b2)
                    )
            got = prod.derivative_at(alpha, beta)
            scale = max(1.0, abs(expected))
            assert abs(got - expected) <= 1e-9 * scale


def _random_jet(rng, n, trunc, unit_constant=False):
    coeffs = {}
    for key in iter_multi_indices_upto(2 * n, trunc):
        if len(key) != 2 * n:
            continue
        coeffs[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.4
    if unit_constant:
        coeffs[(0,) * (2 * n)] = 1.0 + 0j
    return Jet(n, trunc, coeffs)


def test_truncation_coherence():
    rng = random.Random(5)
    for _ in range(5):
        a = _random_jet(rng, n=2, trunc=4, unit_constant=True)
        b = _random_jet(rng, n=2, trunc=4)
        al, bl = a.truncated(3), b.truncated(3)
        assert (a * b).truncated(3) == al * bl
        assert a.reciprocal().truncated(3) == al.reciprocal()
        assert a.log().truncated(3) == al.log()
        assert b.exp().truncated(3) == bl.exp()


# -- linear solver -----------------------------------------------------------


def _jet_matrix(rows):
    """``[coeff, a, b]`` jet tensor of a nested list of jets."""
    return np.array([[jet._vec for jet in row] for row in rows]).transpose(2, 0, 1)


def test_solve_linear_system_roundtrip():
    rng = random.Random(13)
    n, trunc = 2, 4
    matrix = [[_random_jet(rng, n, trunc) for _ in range(2)] for _ in range(2)]
    # keep the constant term well-conditioned
    matrix[0][0] = matrix[0][0] + 3.0
    matrix[1][1] = matrix[1][1] + 3.0
    rhs = np.array([_random_jet(rng, n, trunc)._vec for _ in range(2)]).T
    x = solve_linear_system(_jet_matrix(matrix), rhs, n, trunc)
    assert x.shape == rhs.shape
    lhs = contract("ab,b->a", _jet_matrix(matrix), x, n, trunc)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_jet_matrix_inverse():
    rng = random.Random(17)
    n, trunc = 2, 4
    matrix = [[_random_jet(rng, n, trunc) for _ in range(2)] for _ in range(2)]
    matrix[0][0] = matrix[0][0] + 2.0
    matrix[1][1] = matrix[1][1] + 2.0
    inv = jet_matrix_inverse(_jet_matrix(matrix), n, trunc)
    prod = contract("ab,bm->am", _jet_matrix(matrix), inv, n, trunc)
    prod[0] -= np.eye(2)
    assert np.abs(prod).max() < 1e-11


def test_singular_system_rejected():
    one = Jet.constant(1.0, 1, 2)._vec
    with pytest.raises(ArithmeticError):
        solve_linear_system(np.zeros((len(one), 2, 2)), np.stack([one, one], axis=1), 1, 2)


# -- dense kernel against a reference convolution ----------------------------


def _reference_product(a, b):
    """The truncated product as a double loop over the nonzero coefficients."""
    out = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if sum(key) <= a.trunc:
                out[key] = out.get(key, 0j) + va * vb
    return out


def _operands(rng, n, trunc):
    """Dense, sparse, zero and low-top-degree jets of one ring."""
    dense = _random_jet(rng, n, trunc)
    keys = list(iter_multi_indices_upto(2 * n, trunc))
    picked = rng.sample(keys, min(4, len(keys)))
    sparse = Jet(n, trunc, {k: complex(rng.uniform(-1, 1), 0.3) for k in picked})
    low_keys = [k for k in keys if sum(k) <= 2]
    low = Jet(n, trunc, {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in low_keys})
    top_only = Jet(n, trunc, {k: 1.5 - 0.5j for k in keys if sum(k) == trunc})
    return [dense, sparse, low, top_only, Jet.zero(n, trunc), Jet.constant(2.0 - 1.0j, n, trunc)]


@pytest.mark.parametrize(
    "n, trunc", [(1, 0), (1, 3), (1, 8), (2, 1), (2, 4), (2, 6), (3, 2), (3, 4)]
)
def test_product_matches_reference_convolution(n, trunc):
    rng = random.Random(100 * n + trunc)
    operands = _operands(rng, n, trunc)
    for a in operands:
        for b in operands:
            got = (a * b).coeffs
            expected = _reference_product(a, b)
            scale = max(1.0, a.max_abs() * b.max_abs())
            for key in set(got) | set(expected):
                assert abs(got.get(key, 0j) - expected.get(key, 0j)) <= 1e-12 * scale


def test_chained_products_match_reference():
    # a product's cached degree feeds the next product: exact when the degrees
    # fit the truncation, recomputed from the vector when they do not
    rng = random.Random(31)
    for a, b in [
        (Jet.polynomial(2, 5, {(1, 0, 0, 0): 1.0}, (0j,) * 4),
         Jet.polynomial(2, 5, {(0, 0, 0, 1): 1.0}, (0j,) * 4)),
        (Jet(2, 5, {(1, 1, 1, 0): 0.5, (0, 0, 0, 1): 2.0}), Jet(2, 5, {(0, 1, 0, 2): 1.5j})),
        (_random_jet(rng, 2, 5), _random_jet(rng, 2, 5)),
    ]:
        ab = a * b
        for c in _operands(rng, 2, 5):
            expected = _reference_product(Jet(2, 5, ab.coeffs), c)
            got = (ab * c).coeffs
            scale = max(1.0, ab.max_abs() * c.max_abs())
            for key in set(got) | set(expected):
                assert abs(got.get(key, 0j) - expected.get(key, 0j)) <= 1e-12 * scale


def test_product_independent_of_table_history():
    rng = random.Random(23)
    a = _random_jet(rng, n=2, trunc=4, unit_constant=True)
    b = _random_jet(rng, n=2, trunc=4)
    jets_module._TABLES.clear()
    before = a * b  # on tables built for order 4
    high_a, high_b = _random_jet(rng, n=2, trunc=7), _random_jet(rng, n=2, trunc=7)
    _ = high_a * high_b  # replaces them by the order-7 tables
    assert jets_module._tables(2, 4).order == 7
    after = Jet(2, 4, a.coeffs) * Jet(2, 4, b.coeffs)
    assert before == after
    assert np.array_equal(before._vec, after._vec)


def test_derivatives_match_reference():
    rng = random.Random(29)
    a = _random_jet(rng, n=2, trunc=4)
    for barred in (False, True):
        d = gradient(a._vec, 2, 4, barred)
        assert d.shape == (len(Jet.zero(2, 3)._vec), 2)
        for axis in range(2):
            pos = axis + (2 if barred else 0)
            expected = {}
            for key, val in a.coeffs.items():
                if key[pos]:
                    down = key[:pos] + (key[pos] - 1,) + key[pos + 1 :]
                    expected[down] = val * key[pos]
            assert Jet._of(2, 3, d[:, axis]).coeffs == expected


# -- public constructor validation --------------------------------------------


@pytest.mark.parametrize(
    "key",
    [(1,), (0, 0, 0), (-1, 1), (1, -1), (2, 2), (0, 4)],
    ids=["short", "long", "negative-hol", "negative-anti", "above-trunc", "above-trunc-anti"],
)
def test_constructor_rejects_bad_keys(key):
    with pytest.raises(ValueError):
        Jet(1, 3, {key: 1.0})


def test_constructor_rejects_negative_sizes():
    with pytest.raises(ValueError):
        Jet(-1, 3, {})
    with pytest.raises(ValueError):
        Jet(1, -1, {})


def test_constructor_round_trips_coefficients():
    entries = {(0, 0, 0, 0): 1.0, (1, 0, 0, 2): 2.5j, (0, 1, 1, 0): -3.0, (0, 0, 1, 0): 0.0}
    jet = Jet(2, 3, entries)
    assert jet.coeffs == {k: complex(v) for k, v in entries.items() if v != 0}
    assert jet.coeff((1, 0), (0, 2)) == 2.5j


def test_oversized_rings_are_refused():
    # dimension 3 at order 10 is the largest verify can run on
    assert math.comb(10 + 12, 12) <= jets_module.MAX_PRODUCT_PAIRS < math.comb(11 + 12, 12)
    assert Jet.zero(3, 10).max_abs() == 0.0
    with pytest.raises(ValueError, match="product pairs"):
        Jet.zero(3, 11)
    with pytest.raises(ValueError, match="product pairs"):
        Jet(4, 10, {})
    with pytest.raises(ValueError, match="overflow"):
        Jet.constant(1.0, 40, 1)  # few pairs, but 2**80 monomial codes


# -- non-finite coefficients --------------------------------------------------


def test_nonfinite_product_is_not_small():
    # the dense product multiplies structural zeros: inf * 0 gives NaN, and
    # max_abs must report that as inf rather than drop it
    a = jet_of(1, 2, {(0, 0): 1, (1, 0): math.inf})
    b = jet_of(1, 2, {(0, 0): 1, (1, 0): 1})
    with np.errstate(invalid="ignore"):
        prod = a * b
    assert any(math.isnan(abs(v)) for v in prod.coeffs.values())
    assert prod.max_abs() == math.inf
    assert jet_of(1, 2, {(0, 1): math.nan}).max_abs() == math.inf


# -- monomials in closed form -------------------------------------------------


def _monomial_by_products(n, trunc, coeff, powers, base):
    """``coeff * prod_v x_v**p_v`` as repeated products of degree-1 jets."""
    zero = (0,) * (2 * n)
    result = Jet(n, trunc, {zero: coeff})
    for v, (p, x) in enumerate(zip(powers, base)):
        entries = {zero: x}
        if trunc >= 1:
            entries[tuple(int(w == v) for w in range(2 * n))] = 1.0
        linear = Jet(n, trunc, entries)
        for _ in range(p):
            result = result * linear
    return result


def _monomial_cases(rng, n, trunc):
    """Powers that are 0, below the truncation and above it, at base 0 and off it."""
    shapes = [
        [0] * (2 * n),
        [rng.randint(0, max(trunc - 1, 0)) for _ in range(2 * n)],
        [rng.choice([0, 1, trunc + 1, trunc + 2]) for _ in range(2 * n)],
    ]
    bases = [
        [0j] * (2 * n),
        [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(2 * n)],
    ]
    coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return [(coeff, powers, base) for powers in shapes for base in bases]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_matches_repeated_products(n):
    rng = random.Random(61 + n)
    for trunc in range(9):
        for coeff, powers, base in _monomial_cases(rng, n, trunc):
            got = Jet.polynomial(n, trunc, {tuple(powers): coeff}, base)
            expected = _monomial_by_products(n, trunc, coeff, powers, base)
            scale = max(1.0, expected.max_abs())
            assert (got - expected).max_abs() <= 1e-12 * scale, (trunc, powers, base)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_truncation_is_a_prefix(n):
    rng = random.Random(67 + n)
    for coeff, powers, base in _monomial_cases(rng, n, 6):
        high = Jet.polynomial(n, 8, {tuple(powers): coeff}, base)
        for trunc in range(9):
            low = Jet.polynomial(n, trunc, {tuple(powers): coeff}, base)
            assert np.array_equal(low._vec, high.truncated(trunc)._vec)


def _polynomial_cases(rng, n):
    """Term tables with shared powers (rows that merge), a zero coefficient and a sparse
    high power (``x_1^40 * x_2n^2``), at base 0, at a real base and at a complex one."""
    width = 2 * n

    def coeff():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    terms = {tuple(rng.randint(0, 3) for _ in range(width)): coeff() for _ in range(6)}
    terms[(2,) + (0,) * (width - 1)] = coeff()
    terms[(3,) + (0,) * (width - 1)] = coeff()
    terms[(1,) * width] = 0j
    terms[(0,) * width] = coeff()
    terms[(40,) + (0,) * (width - 2) + (2,)] = coeff()
    bases = [
        [0j] * width,
        [rng.uniform(-0.9, 0.9) + 0j for _ in range(width)],
        [complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)) for _ in range(width)],
    ]
    return [(terms, base) for base in bases]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomial_matches_sums_of_repeated_products(n):
    rng = random.Random(73 + n)
    cases = _polynomial_cases(rng, n)
    for trunc in range(9):
        for terms, base in cases:
            got = Jet.polynomial(n, trunc, terms, base)
            expected = Jet.zero(n, trunc)
            for powers, coeff in terms.items():
                expected = expected + _monomial_by_products(n, trunc, coeff, powers, base)
            scale = max(1.0, expected.max_abs())
            assert (got - expected).max_abs() <= 1e-12 * scale, (trunc, base)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unreached_polynomial_coefficients_are_positive_zeros(n):
    rng, seen = random.Random(79 + n), 0
    for trunc in range(9):
        for terms, base in _polynomial_cases(rng, n):
            vec = Jet.polynomial(n, trunc, terms, base)._vec
            keys = jets_module._tables(n, trunc).keys[: len(vec)]
            reached = [
                any(all(e <= p for e, p in zip(key, powers)) for powers in terms) for key in keys
            ]
            unreached = vec[~np.array(reached)]
            assert not unreached.any()
            assert not np.signbit(unreached.real).any() and not np.signbit(unreached.imag).any()
            seen += unreached.size
    assert seen


def test_polynomial_independent_of_table_history():
    rng = random.Random(83)
    cases = _polynomial_cases(rng, 2)
    jets_module._TABLES.clear()
    before = [Jet.polynomial(2, 4, terms, base) for terms, base in cases]  # order-4 tables
    _ = Jet.zero(2, 7)  # replaces them by the order-7 tables
    assert jets_module._tables(2, 4).order == 7
    after = [Jet.polynomial(2, 4, terms, base) for terms, base in cases]
    assert [bytes(j._vec) for j in before] == [bytes(j._vec) for j in after]


def test_reach_lists_are_the_reached_outputs_and_read_only():
    rng = random.Random(89)
    for trunc in (0, 3, 6):
        for terms, base in _polynomial_cases(rng, 2):
            Jet.polynomial(2, trunc, terms, base)
    tables = jets_module._tables(2, 6)
    assert len(tables._reach) > 10
    for (trunc, clipped), pos in tables._reach.items():
        expected = [
            i for i, key in enumerate(tables.keys)
            if sum(key) <= trunc and all(e <= q for e, q in zip(key, clipped))
        ]
        assert pos.tolist() == expected
        assert not pos.flags.writeable
        with pytest.raises(ValueError):
            pos[0] = 0


def test_monomial_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Jet.polynomial(1, 3, {(1,): 1.0}, (0j, 0j))
    with pytest.raises(ValueError):
        Jet.polynomial(1, 3, {(1, 1): 1.0}, (0j,))
    with pytest.raises(ValueError):
        Jet.polynomial(1, 3, {(1, -1): 1.0}, (0j, 0j))


# -- contraction of jet tensors -------------------------------------------------


def _reference_contract(spec, a, b, n, trunc):
    """``contract`` as a nested loop of jet products over every index assignment."""
    inputs, output = spec.split("->")
    left, right = inputs.split(",")
    letters = sorted(set(left + right))
    size = len(Jet.zero(n, trunc)._vec)

    def component(tensor, index):
        return Jet._of(n, trunc, tensor[(slice(None), *index)][:size].copy())

    out = {}
    for values in itertools.product(range(n), repeat=len(letters)):
        at = dict(zip(letters, values))
        key = tuple(at[c] for c in output)
        term = component(a, [at[c] for c in left]) * component(b, [at[c] for c in right])
        out[key] = out.get(key, Jet.zero(n, trunc)) + term
    return out


def _tensor(rng, n, trunc, rank):
    """Random jet tensor with exact zeros: whole zero components and zero coefficients."""
    size = len(Jet.zero(n, trunc)._vec)
    shape = (size,) + (n,) * rank
    values = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(math.prod(shape))])
    values[[rng.random() < 0.2 for _ in range(values.size)]] = 0.0
    tensor = values.reshape(shape)
    if rank and n > 1:
        tensor[(slice(None),) + (0,) * rank] = 0.0
    return tensor


CONTRACT_SPECS = (
    ",->",
    ",abc->abc",
    "k,l->kl",
    "k,k->",
    "lk,l->k",
    "lk,lqt->kqt",
    "lkqp,lq->kp",
    "abcde,e->abcd",
    "nlpq,qkpn->lk",
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_contract_matches_nested_jet_products(n):
    rng = random.Random(71 + n)
    for trunc in range(5):
        for spec in CONTRACT_SPECS:
            left, right = spec.split("->")[0].split(",")
            # operands of a higher order than the result: contract reads their prefixes
            a = _tensor(rng, n, trunc + 1, len(left))
            b = _tensor(rng, n, trunc + 2, len(right))
            got = contract(spec, a, b, n, trunc)
            expected = _reference_contract(spec, a, b, n, trunc)
            assert got.shape == (len(Jet.zero(n, trunc)._vec),) + (n,) * len(spec.split("->")[1])
            scale = max(1.0, max(jet.max_abs() for jet in expected.values()))
            for index, jet in expected.items():
                gap = np.abs(got[(slice(None), *index)] - jet._vec).max()
                assert gap <= 1e-12 * scale, (spec, trunc, index)


def test_contract_refuses_short_operands():
    a = np.ones((len(Jet.zero(2, 2)._vec), 2), dtype=complex)
    with pytest.raises(ValueError):
        contract("k,k->", a, a, 2, 3)


def test_flat_curvature_terms_are_exact_zeros():
    ctx = build_chart("z1*zb1+z2*zb2", (0.4 - 0.3j, 0.2 + 0.5j), order=10)
    f, g = "zb1^3*z2 + zb2^2*zb1 + z1", "z1^2*z2^2 + z2*zb1 + zb2"
    r_up, r_raised = curvature_jets(ctx)
    tensors = [r_up, r_raised, _r1_jets(ctx)]
    tensors += [op(f, g, ctx)._vec for op in (_q_jet, r_operator_jet)]
    for tensor in tensors:
        assert np.all(tensor == 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_values_match_derivative_at(n):
    potential = "+".join(f"z{k}*zb{k}" for k in range(1, n + 1))
    potential += f"+0.3*z1^2*zb{n}^2*z{n}+(0.2-0.1i)*zb1*z{n}^3*zb{n}+0.1i*z1*zb1^3"
    ctx = build_chart(potential, [0.2 - 0.1j * k for k in range(n)], order=6)
    for hol, anti in itertools.product(range(3), repeat=2):
        on_phi = derivative_values(ctx.phi._vec, n, hol, anti)
        assert on_phi.shape == (n,) * (hol + anti)
        for axes in itertools.product(range(n), repeat=hol + anti):
            alpha, beta = unit_index(n, *axes[:hol]), unit_index(n, *axes[hol:])
            assert on_phi[axes] == ctx.phi.derivative_at(alpha, beta)
        if hol + anti > CHART_DEGREE:  # the chart holds g_up to degree 2
            continue
        on_g_up = derivative_values(chart_tensors(ctx).g_up, n, hol, anti)
        assert on_g_up.shape == (n,) * (2 + hol + anti)
        for axes in itertools.product(range(n), repeat=hol + anti):
            alpha, beta = unit_index(n, *axes[:hol]), unit_index(n, *axes[hol:])
            for l, k in itertools.product(range(n), repeat=2):
                assert on_g_up[(l, k, *axes)] == ctx.g_up[l][k].derivative_at(alpha, beta)
