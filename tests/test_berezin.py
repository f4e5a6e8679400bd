"""The product at the origin of CP^n and of the ball against Berezin's closed form.

For the potential ``sign * log(1 + sign * Σ z_k zb_k)`` (``sign = +1`` is the
Fubini–Study potential of CP^n, ``-1`` the ball's) the standard product with
separation of variables at the origin is

    (f * g)(0) = Σ_α ∂̄^α f(0) ∂^α g(0) / α! · ν^|α| / Π_{j<|α|} (1 - sign·j·ν)

(F. A. Berezin, Math. USSR Izv. 9 (1975); Cahen, Gutt and Rawnsley, Trans. AMS
337 (1993)).  So ``zb^α * z^β`` is ``α! ν^|α| / Π_{j<|α|} (1 - sign·j·ν)`` when
``α = β`` and 0 otherwise.  On both spaces the curvature-square operator is
``R = 2(n+1) C1``, so the modified product has ``C3~ = C3 + (n+1)/6 C1``.
"""

import math
import random

import pytest

from kahlerstar.geometry import build_chart
from kahlerstar.jets import iter_multi_indices_upto
from kahlerstar.operators import StarVariant, c1, r_operator, star_product
from kahlerstar.verify import random_polynomial

SPACES = {1: "fubini-study", -1: "ball"}


def _chart(sign: int, n: int):
    norm = "+".join(f"z{k}*zb{k}" for k in range(1, n + 1))
    potential = f"log(1+{norm})" if sign == 1 else f"-log(1-({norm}))"
    return build_chart(potential, (0j,) * n, order=6)


def _monomial(powers, barred: bool) -> str:
    name = "zb" if barred else "z"
    return "*".join(f"{name}{k + 1}^{p}" for k, p in enumerate(powers) if p) or "1"


def _series(alpha, sign: int) -> list:
    """Coefficients of ν^0..ν^3 of ``α! ν^|α| / Π_{j<|α|} (1 - sign·j·ν)``."""
    coeffs = [0.0] * 4
    if sum(alpha) <= 3:
        coeffs[sum(alpha)] = float(math.prod(math.factorial(a) for a in alpha))
    for j in range(1, sum(alpha)):
        # times 1/(1 - sign·j·ν) = Σ_m (sign·j·ν)^m, truncated at ν^3
        coeffs = [sum(coeffs[r - m] * (sign * j) ** m for m in range(r + 1)) for r in range(4)]
    return coeffs


def _pairs(n: int):
    """(α, β) with |α|, |β| <= 3: all of them at n = 1; at n = 2 and 3, to keep the
    module fast, each α against itself and against the next index of the enumeration."""
    indices = list(iter_multi_indices_upto(n, 3))
    if n == 1:
        return [(a, b) for a in indices for b in indices]
    return [(a, b) for i, a in enumerate(indices) for b in indices[i : i + 2]]


@pytest.mark.parametrize("sign", sorted(SPACES), ids=SPACES.get)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_product_of_monomials_at_the_origin_is_berezins(sign, n):
    ctx = _chart(sign, n)
    for alpha, beta in _pairs(n):
        f, g = _monomial(alpha, barred=True), _monomial(beta, barred=False)
        want = _series(alpha, sign) if alpha == beta else [0.0] * 4
        standard = star_product(f, g, ctx, StarVariant.STANDARD)
        modified = star_product(f, g, ctx, StarVariant.MODIFIED)
        want_modified = want[:3] + [want[3] + (n + 1) / 6.0 * want[1]]
        for got, expected in ((standard, want), (modified, want_modified)):
            for r in range(4):
                assert abs(got[r] - expected[r]) <= 1e-13 * max(1.0, abs(expected[r])), (
                    alpha, beta, r, got[r], expected[r]
                )


@pytest.mark.parametrize("sign", sorted(SPACES), ids=SPACES.get)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_square_operator_is_a_multiple_of_c1(sign, n):
    ctx = _chart(sign, n)
    rng = random.Random(f"berezin:{sign}:{n}")
    for _ in range(2):
        f, g = random_polynomial(rng, n, degree=2), random_polynomial(rng, n, degree=2)
        r, first = r_operator(f, g, ctx), c1(f, g, ctx)
        assert first != 0
        assert abs(r - 2 * (n + 1) * first) <= 1e-13 * abs(r)
