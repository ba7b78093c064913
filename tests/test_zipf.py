"""Zipf model: zeta accuracy, pmf values, sampling, and MLE recovery.

Frozen constants were computed independently with mpmath at 30 decimal
digits; scipy.special.zeta serves as the online oracle for the zeta grid.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpatterns.errors import DegenerateDataError, NoFiniteMLEError
from gridpatterns.rng import substream
from gridpatterns.zipf import ZipfModel, fit_mle, fit_report, log_likelihood, zeta

# mpmath, 30 digits
ZETA_REFERENCE = {
    1.5: 2.612375348685488,
    2.0: 1.6449340668482264,
    2.5: 1.341487257250917,
    3.0: 1.2020569031595942,
    4.0: 1.0823232337111381,
    4.09: 1.076376142248987,
    6.0: 1.0173430619844492,
    10.0: 1.000994575127818,
    20.0: 1.0000009539620338,
}

PMF_409 = (0.9290432598, 0.0545535799, 0.0103898674, 0.0032033956,
           0.0012860227, 0.0006100948, 0.0003247768)
PMF_417 = (0.9332779187, 0.0518460780, 0.0095590638, 0.0028801879,
           0.0011358110, 0.0005310315, 0.0002792236)

# Five-decimal tabulated rows are reproduced exactly at these unrounded
# exponents (the rows were computed before the exponents were rounded to
# two decimals for reporting).
ROW_A = (0.92911, 0.05451, 0.01038, 0.00320, 0.00128, 0.00061, 0.00032)
S_STAR_A = 4.091221411912549
ROW_B = (0.93336, 0.05179, 0.00954, 0.00287, 0.00113, 0.00053, 0.00028)
S_STAR_B = 4.171603020135842

P_LARGE_41 = 0.0059213928310783
P_LARGE_38 = 0.0094190754760665


def test_zeta_matches_scipy_on_grid():
    grid = np.concatenate([np.array([1.0001, 1.001, 1.01]), np.linspace(1.1, 20.0, 380)])
    for s in grid:
        expected = float(scipy.special.zeta(s, 1))
        assert abs(zeta(float(s)) - expected) <= 1e-12 * expected


def test_zeta_closed_forms_and_reference_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-13)
    for s, value in ZETA_REFERENCE.items():
        assert zeta(s) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0])
def test_zeta_rejects_divergent_exponents(bad):
    with pytest.raises(ValueError):
        zeta(bad)


def test_pmf_frozen_values():
    for s, row in [(4.09, PMF_409), (4.17, PMF_417)]:
        model = ZipfModel(s)
        for k, expected in enumerate(row, start=1):
            assert model.pmf(k) == pytest.approx(expected, abs=1e-9)


def test_reference_rows_at_unrounded_exponents():
    # the tabulated five-decimal rows correspond to the unrounded fitted
    # exponents, not to the two-decimal exponents printed beside them
    for s_star, row in [(S_STAR_A, ROW_A), (S_STAR_B, ROW_B)]:
        model = ZipfModel(s_star)
        for k, expected in enumerate(row, start=1):
            assert abs(model.pmf(k) - expected) <= 5e-6


@pytest.mark.parametrize("s", [2.5, 3.0, 4.09, 6.0])
def test_pmf_sums_to_one_with_tail_bounds(s):
    # partial sum plus integral sandwich for the tail, so the check does not
    # reuse the Euler-Maclaurin machinery being tested
    n = 5000
    model = ZipfModel(s)
    partial = float(model.pmf(np.arange(1, n + 1)).sum())
    tail_low = (n + 1) ** (1.0 - s) / (s - 1.0) / model.zeta_s
    tail_high = n ** (1.0 - s) / (s - 1.0) / model.zeta_s
    assert tail_high - tail_low < 1e-9
    assert partial + tail_low <= 1.0 + 1e-12
    assert partial + tail_high >= 1.0 - 1e-12


@pytest.mark.parametrize("s", [2.5, 4.09])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_pmf_log_linearity(s, k):
    model = ZipfModel(s)
    assert math.log2(model.pmf(k) / model.pmf(2 * k)) == pytest.approx(s, abs=1e-9)


@given(s=st.floats(min_value=1.1, max_value=10.0), k=st.integers(min_value=1, max_value=100))
@settings(max_examples=200, deadline=None)
def test_pmf_strictly_decreasing(s, k):
    model = ZipfModel(s)
    assert model.pmf(k) > model.pmf(k + 1)


def test_pmf_input_validation():
    model = ZipfModel(3.0)
    with pytest.raises(ValueError):
        model.pmf(0)
    with pytest.raises(ValueError):
        model.pmf(-3)
    with pytest.raises(ValueError):
        model.pmf(1.5)
    out = model.pmf(np.array([1, 2, 3]))
    assert out.shape == (3,)
    assert isinstance(model.pmf(2), float)


def test_zeta_is_finite_for_every_finite_exponent():
    # (s + 1)(s + 2) of the Euler-Maclaurin term overflows from s ~ 1.4e154
    for s in (64.0, 64.5, 1e3, 1e154, 1.5e154, 1e200, 1.7e308):
        assert zeta(s) == 1.0
    assert zeta(54.0) == 1.0
    assert 1.0 < zeta(50.0) < 1.0 + 1e-15


def test_model_rejects_bad_exponent():
    with pytest.raises(ValueError):
        ZipfModel(1.0)
    with pytest.raises(ValueError):
        ZipfModel(0.3)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ZipfModel(bad)


def test_model_computes_its_normalizer():
    # zeta_s is derived from s, so passing one raises instead of being ignored
    assert ZipfModel(4.1).zeta_s == zeta(4.1)
    with pytest.raises(TypeError):
        ZipfModel(4.1, zeta_s=1.0)


def test_p_large_frozen_values():
    assert ZipfModel(4.1).p_large(4) == pytest.approx(P_LARGE_41, abs=1e-12)
    assert ZipfModel(3.8).p_large(4) == pytest.approx(P_LARGE_38, abs=1e-12)
    # published working values
    assert ZipfModel(4.1).p_large(4) == pytest.approx(0.0059, abs=1e-4)
    assert ZipfModel(3.8).p_large(4) == pytest.approx(0.0094, abs=1e-4)


def test_p_large_edges_and_monotonicity():
    model = ZipfModel(4.1)
    assert model.p_large(1) == 1.0
    assert model.p_large(2) == pytest.approx(1.0 - model.pmf(1), abs=1e-12)
    with pytest.raises(ValueError):
        model.p_large(0)
    # steeper exponent, thinner tail
    assert ZipfModel(4.1).p_large(4) < ZipfModel(3.8).p_large(4)
    # tail shrinks as the cutoff moves out
    values = [model.p_large(c) for c in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


class _FixedUniform:
    """Minimal rng stand-in producing prescribed uniforms."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, count=None):
        if count is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(count)])


def test_sample_size_inverse_transform_cases():
    model = ZipfModel(4.09)
    draw = lambda u, k_max: model.sample_sizes(_FixedUniform([u]), k_max, 1)[0]
    # pmf(1) ~= 0.929: u below it gives 1, just above gives 2
    assert draw(0.5, 100) == 1
    assert draw(0.95, 100) == 2
    # truncation collapses the far tail onto k_max
    assert draw(0.9999, 3) == 3
    assert draw(0.0, 100) == 1
    # k_max 1 forces single-line patterns for any draw
    assert draw(0.999999, 1) == 1
    with pytest.raises(ValueError):
        draw(0.5, 0)


def test_sample_sizes_vectorized_matches_scalar_path():
    model = ZipfModel(4.09)
    batch = model.sample_sizes(substream(3), 50, 64)
    rng = substream(3)
    singles = [int(model._sizes(rng.random(), 50)) for _ in range(64)]
    assert batch.tolist() == singles


def test_sample_distribution_head_frequency():
    model = ZipfModel(4.09)
    sizes = model.sample_sizes(substream(17), 1000, 1_000_000)
    freq1 = float(np.mean(sizes == 1))
    assert freq1 == pytest.approx(model.pmf(1), abs=2e-3)
    assert sizes.min() >= 1
    assert sizes.max() <= 1000


def test_fit_recovers_known_exponent():
    model = ZipfModel(4.09)
    sizes = model.sample_sizes(substream(5), 10_000, 20_000)
    fitted = fit_mle(sizes)
    assert abs(fitted.s - 4.09) < 0.1


def test_fit_permutation_invariant():
    model = ZipfModel(3.0)
    sizes = model.sample_sizes(substream(8), 500, 5000).tolist()
    shuffled = list(reversed(sizes))
    assert fit_mle(sizes).s == fit_mle(shuffled).s


def test_fit_error_shrinks_with_sample_size():
    model = ZipfModel(4.09)
    small = model.sample_sizes(substream(21), 10_000, 1_000)
    large = model.sample_sizes(substream(21), 10_000, 100_000)
    err_small = abs(fit_mle(small).s - 4.09)
    err_large = abs(fit_mle(large).s - 4.09)
    assert err_large < err_small


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        fit_mle([])
    with pytest.raises(DegenerateDataError):
        fit_mle([3])
    with pytest.raises(NoFiniteMLEError):
        fit_mle([1, 1, 1, 1])
    with pytest.raises(ValueError):
        fit_mle([0, 2])
    with pytest.raises(ValueError):
        fit_mle([1.5, 2.5])


def test_fit_stays_inside_bracket():
    # almost all ones pushes the maximizer toward the upper bracket edge
    fitted = fit_mle([1] * 999 + [2])
    assert 1.0 < fitted.s <= 20.0


def test_log_likelihood_matches_direct_formula():
    model = ZipfModel(2.7)
    sizes = [1, 1, 2, 3, 5]
    direct = sum(math.log(model.pmf(k)) for k in sizes)
    assert log_likelihood(model, sizes) == pytest.approx(direct, rel=1e-12)


def test_fit_report_fields():
    model = ZipfModel(4.09)
    text = fit_report(model, [1, 1, 1, 2, 3])
    assert "exponent_s: 4.0900" in text
    assert "propagation_slope_index: 4.0900" in text
    assert "sample_size: 5" in text
    assert "log_likelihood:" in text
    assert "pmf_7:" in text


def test_pepsi_is_the_exponent():
    assert ZipfModel(4.09).pepsi == 4.09
