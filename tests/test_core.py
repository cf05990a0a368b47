"""Potentials, references, and smoothness metadata."""

import math

import numpy as np
import pytest
from scipy import stats

from forsample.core import (AssumptionCase, CATALOG, GaussianReference,
                            HuberReference, Potential, PowerReference, as_rows,
                            as_vector, holder_spot_check,
                            make_aniso_gaussian_potential,
                            make_gaussian_potential, make_huber_potential,
                            make_power_potential, potential_from_config)
from forsample.errors import DimensionError
from forsample.verify import equal_mass_edges


# ---------------------------------------------------------------------------
# vector validation
# ---------------------------------------------------------------------------

def test_as_vector_accepts_scalar_and_lists():
    assert as_vector(2.0).shape == (1,)
    np.testing.assert_array_equal(as_vector([1.0, 2.0]), [1.0, 2.0])


def test_as_vector_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(DimensionError):
        as_vector([1.0, np.nan])
    with pytest.raises(DimensionError):
        as_vector([np.inf])


def test_as_rows_rejects_bad_shapes():
    ok = as_rows(np.zeros((4, 2)), dim=2)
    assert ok.shape == (4, 2)
    with pytest.raises(DimensionError):
        as_rows(np.zeros(4))
    with pytest.raises(DimensionError):
        as_rows(np.zeros((4, 2)), dim=3)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DimensionError):
            as_rows(np.full((2, 2), bad))


# ---------------------------------------------------------------------------
# catalog potentials: frozen point values
# ---------------------------------------------------------------------------

def test_gaussian_point_values():
    pot = make_gaussian_potential([0.0], precision=1.0)
    assert pot.value_at_rows([[1.0]])[0] == pytest.approx(0.5)
    assert pot.grad_at_rows([[1.0]])[0, 0] == pytest.approx(1.0)


def test_gaussian_shifted_mean_gradient():
    # gradient of the half-quadratic centered at 0.3 is x - 0.3
    pot = make_gaussian_potential([0.3], precision=1.0)
    for x in (-1.0, 0.0, 0.3, 2.5):
        assert pot.grad_at_rows([[x]])[0, 0] == pytest.approx(x - 0.3)


def test_gaussian_precision_two_in_2d():
    pot = make_gaussian_potential([0.0, 0.0], precision=2.0)
    assert pot.value_at_rows([[1.0, 1.0]])[0] == pytest.approx(2.0)
    np.testing.assert_allclose(pot.grad_at_rows([[1.0, 1.0]])[0], [2.0, 2.0])


def test_gaussian_metadata():
    pot = make_gaussian_potential([0.0], precision=2.0)
    assert pot.holder_s == 1.0
    assert pot.holder_beta == 2.0
    # C_LSI = C_PI = the variance 1/precision
    assert pot.reference.variances.tolist() == [0.5]
    assert pot.m_s == pytest.approx(math.sqrt(2.0))


def test_aniso_gaussian_metadata_uses_extremes():
    pot = make_aniso_gaussian_potential([0.0, 0.0], [1.0, 4.0])
    assert pot.holder_beta == 4.0
    # C_LSI = C_PI = the largest variance, 1 / the smallest precision
    assert pot.reference.variances.max() == 1.0
    np.testing.assert_allclose(pot.grad_at_rows([[1.0, 1.0]])[0], [1.0, 4.0])


@pytest.mark.parametrize("mean", [[0.3], [0.1, -0.2, 2.0]], ids=["d1", "d3"])
def test_gaussian_is_the_equal_precision_aniso_gaussian(mean):
    iso = make_gaussian_potential(mean, precision=3.0)
    aniso = make_aniso_gaussian_potential(mean, [3.0] * len(mean))
    xs = np.random.default_rng(5).standard_normal((50, len(mean)))
    np.testing.assert_array_equal(iso.value_at_rows(xs), aniso.value_at_rows(xs))
    np.testing.assert_array_equal(iso.grad_at_rows(xs), aniso.grad_at_rows(xs))
    assert (iso.dim, iso.holder_s, iso.holder_beta) == (aniso.dim, aniso.holder_s,
                                                        aniso.holder_beta)
    np.testing.assert_array_equal(iso.reference.mean, aniso.reference.mean)
    np.testing.assert_array_equal(iso.reference.variances, aniso.reference.variances)
    assert (iso.name, aniso.name) == ("gaussian", "aniso_gaussian")


def test_catalog_keys_and_config_lookup():
    assert set(CATALOG) == {"gaussian", "aniso_gaussian", "huber", "power"}
    pot = potential_from_config("huber", {"threshold": 0.5})
    assert pot.name == "huber"
    with pytest.raises(ValueError, match="unknown potential"):
        potential_from_config("bogus", {})


def test_potential_validation_errors():
    pot = make_gaussian_potential([0.0])
    with pytest.raises(ValueError):
        make_gaussian_potential([0.0], precision=-1.0)
    with pytest.raises(DimensionError):
        pot.grad_at_rows([[1.0, 2.0]])


# closed forms at hand-picked rows: (factory, kwargs, rows, values, gradients)
_CLOSED_FORMS = [
    # the Huber core, the kink at c = 0.5, and tails on both sides
    (make_huber_potential, {"threshold": 0.5, "dim": 2},
     [[0.3, -0.2], [0.5, -0.7], [0.49, 0.51], [1.5, -2.0]],
     [0.065, 0.35, 0.25005, 1.5],
     [[0.3, -0.2], [0.5, -0.5], [0.49, 0.5], [0.5, -0.5]]),
    # |t|^1.5 / 1.5 near 0 and in a tail
    (make_power_potential, {"p": 1.5, "dim": 2},
     [[0.0, 0.25], [1e-8, -4.0]],
     [0.125 / 1.5, (1e-12 + 8.0) / 1.5],
     [[0.0, 0.5], [1e-4, -2.0]]),
    # per-axis weights 1 and 3 around the mean (0.5, -0.5)
    (make_aniso_gaussian_potential, {"mean": [0.5, -0.5], "precisions": [1.0, 3.0]},
     [[1.5, 0.5], [0.5, -1.5], [0.5, -0.5]],
     [2.0, 1.5, 0.0],
     [[1.0, 3.0], [0.0, -3.0], [0.0, 0.0]]),
    (make_gaussian_potential, {"mean": [0.1, -0.2], "precision": 1.5},
     [[1.1, 0.8], [0.1, -0.2]],
     [1.5, 0.0],
     [[1.5, 1.5], [0.0, 0.0]]),
]
_CLOSED_FORM_IDS = ["huber", "power", "aniso_gaussian", "gaussian"]


@pytest.mark.parametrize("factory,kwargs,rows,values,grads", _CLOSED_FORMS,
                         ids=_CLOSED_FORM_IDS)
def test_rows_match_closed_forms(factory, kwargs, rows, values, grads):
    pot = factory(**kwargs)
    np.testing.assert_allclose(pot.value_at_rows(np.array(rows)), values,
                               rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(pot.grad_at_rows(np.array(rows)), grads,
                               rtol=1e-12, atol=1e-15)


def test_potential_takes_only_row_formulas_by_keyword():
    rows = {"value_rows": lambda xs: np.zeros(len(xs)), "grad_rows": np.zeros_like}
    pot = Potential(dim=1, holder_s=1.0, holder_beta=1.0, **rows)
    assert pot.value_at_rows([[0.4]])[0] == 0.0
    with pytest.raises(TypeError):
        # the scalar value/grad fields are gone
        Potential(dim=1, value=lambda x: 0.0, grad=lambda x: np.zeros(1),
                  holder_s=1.0, holder_beta=1.0)
    with pytest.raises(TypeError):
        Potential(1, rows["value_rows"], rows["grad_rows"], 1.0, 1.0)


# ---------------------------------------------------------------------------
# gradients vs centered finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory,kwargs", [
    (make_gaussian_potential, {"mean": [0.0, 0.0], "precision": 1.3}),
    (make_aniso_gaussian_potential, {"mean": [0.5, -0.5], "precisions": [1.0, 3.0]}),
    (make_huber_potential, {"threshold": 0.5, "dim": 2}),
    (make_power_potential, {"p": 1.5, "dim": 2}),
])
def test_gradient_matches_finite_differences(factory, kwargs):
    pot = factory(**kwargs)
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(100):
        x = rng.standard_normal(pot.dim)
        g = pot.grad_at_rows([x])[0]
        fd = np.empty(pot.dim)
        for i in range(pot.dim):
            e = np.zeros(pot.dim)
            e[i] = h
            plus, minus = pot.value_at_rows([x + e, x - e])
            fd[i] = (plus - minus) / (2 * h)
        denom = max(float(np.linalg.norm(g)), 1.0)
        assert np.linalg.norm(fd - g) / denom <= 1e-5


# ---------------------------------------------------------------------------
# Hölder metadata spot checks
# ---------------------------------------------------------------------------

def test_holder_ratio_exact_for_quadratic():
    pot = make_gaussian_potential([0.0], precision=1.0)
    assert holder_spot_check(pot, pairs=200) == pytest.approx(1.0, abs=1e-12)


def test_holder_ratio_halved_by_doubling_beta():
    from dataclasses import replace
    pot = replace(make_gaussian_potential([0.0], 1.0), holder_beta=2.0)
    assert holder_spot_check(pot, pairs=200) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("pot", [make_huber_potential(0.5, dim=1),
                                 make_huber_potential(0.5, dim=3),
                                 make_power_potential(1.5, dim=1),
                                 make_power_potential(1.2, dim=2)])
def test_declared_holder_constants_are_valid(pot):
    assert holder_spot_check(pot, pairs=10_000) <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# analytic references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ref", [GaussianReference([0.3], [0.7]),
                                 HuberReference(0.5),
                                 PowerReference(1.5)])
def test_reference_density_normalizes_and_inverts(ref):
    # a Gaussian reference's density is scipy's; the others carry their own
    pdf = (stats.norm(ref.mean[0], math.sqrt(ref.variances[0])).pdf
           if isinstance(ref, GaussianReference) else ref.pdf)
    # window wide enough that even the exponential Huber tails are < 1e-9
    grid = np.linspace(-60, 60, 120_001)
    mass = np.trapezoid(pdf(grid), grid)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # cdf consistent with the integrated pdf
    left = np.linspace(-60, 0.8, 60_001)
    mid = np.trapezoid(pdf(left), left)
    assert float(ref.cdf(0.8)) == pytest.approx(mid, abs=1e-6)
    # ppf inverts cdf
    for q in (0.05, 0.3, 0.5, 0.77, 0.99):
        assert float(ref.cdf(ref.ppf(q))) == pytest.approx(q, abs=1e-9)


def test_gaussian_reference_matches_scipy():
    ref = GaussianReference([1.0], [4.0])
    assert ref.cdf(2.0) == pytest.approx(stats.norm(1.0, 2.0).cdf(2.0))


def test_power_reference_variance_matches_quadrature():
    ref = PowerReference(1.5)
    grid = np.linspace(-30, 30, 60_001)
    second = np.trapezoid(grid ** 2 * ref.pdf(grid), grid)
    assert ref.variance() == pytest.approx(second, rel=1e-6)


def _brentq_ppf(cdf, q, lo, hi):
    # the quantile as the references computed it with scipy.optimize.brentq
    from scipy import optimize
    while cdf(lo) > q:
        lo = lo * 2 if lo < 0 else lo - max(1.0, abs(lo))
    while cdf(hi) < q:
        hi = hi * 2 if hi > 0 else hi + max(1.0, abs(hi))
    return optimize.brentq(lambda t: cdf(t) - q, lo, hi, xtol=1e-12)


@pytest.mark.parametrize("ref, bracket", [(HuberReference(0.5), 10.0),
                                          (HuberReference(2.0), 10.0),
                                          (PowerReference(1.5), 20.0),
                                          (PowerReference(1.1), 20.0)],
                         ids=["huber0.5", "huber2", "power1.5", "power1.1"])
def test_bisection_quantiles_invert_the_cdf(ref, bracket):
    # ppf(cdf(t)) round-trips in the bulk (further out, a cdf step of one ulp
    # moves t by more than 1e-10); the 49 edges of a 50-bin TV estimate stay
    # at brentq's values
    for t in np.linspace(-5.0, 5.0, 81):
        assert ref.ppf(float(ref.cdf(t))) == pytest.approx(t, abs=1e-10)
    edges = equal_mass_edges(ref, 50)
    old = [_brentq_ppf(lambda s: float(ref.cdf(s)), i / 50, -bracket, bracket)
           for i in range(1, 50)]
    assert np.max(np.abs(edges - old)) <= 1e-11


@pytest.mark.parametrize("ref, one_d", [(HuberReference(0.5, dim=2), HuberReference(0.5)),
                                        (PowerReference(1.5, dim=3), PowerReference(1.5))],
                         ids=["huber", "power"])
def test_product_reference_marginals(ref, one_d):
    from dataclasses import replace
    # the potential is a sum over coordinates: each marginal is the 1-D law
    assert [ref.marginal(i) for i in range(ref.dim)] == [one_d] * ref.dim
    assert one_d.marginal(0) == one_d
    with pytest.raises(DimensionError):
        ref.cdf(0.0)
    with pytest.raises(DimensionError):
        ref.ppf(0.3)
    with pytest.raises(DimensionError):
        ref.marginal(ref.dim)
    with pytest.raises(ValueError, match="dim"):
        replace(one_d, dim=0)


def test_catalog_potentials_carry_their_product_reference():
    assert make_huber_potential(0.5, dim=2).reference == HuberReference(0.5, dim=2)
    assert make_power_potential(1.5, dim=2).reference == PowerReference(1.5, dim=2)
    assert make_power_potential(1.5).reference == PowerReference(1.5)


def test_gaussian_reference_marginal_and_validation():
    ref = GaussianReference([0.0, 1.0], [1.0, 2.0])
    m = ref.marginal(1)
    assert m.mean[0] == 1.0 and m.variances[0] == 2.0
    with pytest.raises(DimensionError):
        ref.cdf(0.0)   # 1-D operation on a 2-D reference
    with pytest.raises(DimensionError):
        ref.ppf(0.3)
    for i in (2, 5, -1):   # no coordinate, not an empty reference
        with pytest.raises(DimensionError):
            ref.marginal(i)
    with pytest.raises(ValueError):
        GaussianReference([0.0], [-1.0])
    with pytest.raises(ValueError, match="dim"):
        GaussianReference([], [])


_QUANTILE_ENDS = """
import math
from forsample.core import GaussianReference, HuberReference, PowerReference
for ref in (GaussianReference([0.3], [0.7]), HuberReference(0.5), HuberReference(2.0),
            PowerReference(1.5)):
    got = [float(ref.ppf(q)) for q in (0.0, 1.0, -0.1, 1.5, math.nan)]
    print(repr(got[:2]), all(math.isnan(v) for v in got[2:]))
# 1 - 2**-53 lies above the Huber(2) cdf's rounded limit, 1 - 2**-52
print(HuberReference(2.0).ppf(1 - 2 ** -53))
"""


def test_quantile_ends_are_those_of_ndtri():
    # -inf at 0, inf at 1, nan off [0, 1], for every reference; in a
    # subprocess with a timeout, since a bracket that never closes hangs
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-W", "error", "-c", _QUANTILE_ENDS],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True,
                         timeout=30, check=True).stdout
    assert out.splitlines() == ["[-inf, inf] True"] * 4 + ["inf"]


# ---------------------------------------------------------------------------
# assumption cases
# ---------------------------------------------------------------------------

def test_assumption_case_validation():
    AssumptionCase("LSI", constant=1.0)
    AssumptionCase("PI", constant=2.0, warm_start_delta=4.0)
    AssumptionCase("LC", w2_bound=3.0)
    with pytest.raises(ValueError):
        AssumptionCase("LSI")               # missing constant
    with pytest.raises(ValueError):
        AssumptionCase("LC", constant=1.0)  # missing w2_bound
    with pytest.raises(ValueError):
        AssumptionCase("XX", constant=1.0)
    with pytest.raises(ValueError):
        AssumptionCase("LSI", constant=1.0, warm_start_delta=-1.0)
