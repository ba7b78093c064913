"""Zipf (discrete power law) model of pattern sizes.

The number of lines in a pattern is modeled as P[Z = k] = k**(-s) / zeta(s)
for k = 1, 2, 3, ...  The exponent s is fit by maximum likelihood and doubles
as a propagation slope index: larger s means faster decay of the size
distribution, hence less propagation past the initial outage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, NoFiniteMLEError

# Euler-Maclaurin evaluation of zeta: direct sum below _ZETA_CUTOFF plus the
# integral, half-term, and Bernoulli corrections through B8 at the cutoff.
# With cutoff 32 the first omitted term is below 1e-17 relative for all
# s > 1, comfortably inside the 1e-12 accuracy target.
_ZETA_CUTOFF = 32
# fit_mle brackets the exponent in [_S_LOW, _S_HIGH] to within _S_TOL
_S_LOW, _S_HIGH, _S_TOL = 1.0001, 20.0, 1e-4


def zeta(s: float) -> float:
    """Riemann zeta function for real s > 1.

    Computed as a direct partial sum plus an Euler-Maclaurin tail, accurate
    to better than 1e-12 in relative terms over s in (1, 20], and 1.0 for
    s > 64, where the terms past the first sum to under half an ulp of 1.

    Raises ValueError for s <= 1 where the series diverges.
    """
    s = float(s)
    if not s > 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    if s > 64.0:
        # also keeps the rising factorials below from overflowing near s = 1.4e154
        return 1.0
    n = _ZETA_CUTOFF
    head = 0.0
    for k in range(1, n):
        head += k ** -s
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    # Bernoulli corrections: B2/2! = 1/12, B4/4! = -1/720,
    # B6/6! = 1/30240, B8/8! = -1/1209600, each with the rising
    # factorial of s from the odd derivatives of x**(-s).
    term = s * n ** (-s - 1.0)
    tail += term / 12.0
    term *= (s + 1.0) * (s + 2.0) / (n * n)
    tail -= term / 720.0
    term *= (s + 3.0) * (s + 4.0) / (n * n)
    tail += term / 30240.0
    term *= (s + 5.0) * (s + 6.0) / (n * n)
    tail -= term / 1209600.0
    return head + tail


@dataclass(frozen=True)
class ZipfModel:
    """Zipf size distribution with exponent ``s``.

    The normalizing constant is computed once at construction.
    """

    s: float
    zeta_s: float = field(init=False)

    def __post_init__(self):
        if not (self.s > 1.0 and math.isfinite(self.s)):
            raise ValueError(f"Zipf exponent must be finite and exceed 1, got {self.s}")
        object.__setattr__(self, "zeta_s", zeta(self.s))

    def pmf(self, k):
        """P[Z = k] for integer k >= 1; accepts scalars or arrays."""
        arr = np.asarray(k)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("pattern sizes must be integers")
        if np.any(arr < 1):
            raise ValueError("pattern sizes start at 1")
        out = arr.astype(float) ** (-self.s) / self.zeta_s
        return float(out) if np.isscalar(k) or arr.ndim == 0 else out

    @property
    def pepsi(self) -> float:
        """Propagation slope index, the fitted exponent itself."""
        return self.s

    def p_large(self, cutoff: int = 4) -> float:
        """P[Z >= cutoff], the chance of a pattern at least ``cutoff`` lines."""
        cutoff = int(cutoff)
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if cutoff == 1:
            return 1.0
        head = sum(self.pmf(k) for k in range(1, cutoff))
        return 1.0 - head

    def sample_sizes(self, rng: np.random.Generator, k_max: int, count: int) -> np.ndarray:
        """Draw ``count`` sizes by inverse transform of ``rng.random(count)``, truncating at ``k_max``.

        The tail mass beyond k_max collapses onto k_max itself, which keeps
        draws usable as target sizes on a finite network.
        """
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        return self._sizes(rng.random(count), int(k_max))

    def _sizes(self, u: np.ndarray, k_max: int) -> np.ndarray:
        """Sizes by inverse transform of uniform doubles ``u``: the least k with cdf(k) >= u, capped at ``k_max >= 1``."""
        idx = np.searchsorted(_size_cdf(self.s, k_max), u, side="left")
        return np.minimum(idx + 1, k_max).astype(np.int64)


@lru_cache(maxsize=64)
def _size_cdf(s: float, k_max: int) -> np.ndarray:
    k = np.arange(1, k_max + 1, dtype=float)
    return np.cumsum(k ** -s / zeta(s))


def log_likelihood(model: ZipfModel, sizes: Sequence[int]) -> float:
    """Log-likelihood of observed sizes under the model."""
    arr = _checked_sizes(sizes)
    return float(-arr.size * math.log(model.zeta_s) - model.s * np.log(arr).sum())


def _checked_sizes(sizes: Sequence[int]) -> np.ndarray:
    arr = np.asarray(sizes)
    if arr.size == 0:
        raise DegenerateDataError("no pattern sizes to fit")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("pattern sizes must be integers")
    if np.any(arr < 1):
        raise ValueError("pattern sizes start at 1")
    return arr.astype(np.int64)


def fit_mle(sizes: Sequence[int]) -> ZipfModel:
    """Maximum-likelihood Zipf exponent for observed pattern sizes.

    The log-likelihood n*(-log zeta(s)) - s*sum(log k_i) is unimodal in s,
    so a golden-section search on [1.0001, 20] brackets the maximizer to
    within 1e-4.

    Raises
    ------
    DegenerateDataError
        If fewer than two sizes are given.
    NoFiniteMLEError
        If every size equals 1; the likelihood then increases without bound
        in s and no finite exponent fits.
    """
    arr = _checked_sizes(sizes)
    if arr.size < 2:
        raise DegenerateDataError("need at least two pattern sizes to fit an exponent")
    if int(arr.max()) == 1:
        raise NoFiniteMLEError("all pattern sizes equal 1; no finite exponent maximizes the likelihood")
    # Sorting makes the floating-point log sum independent of input order.
    log_sum = float(np.log(np.sort(arr)).sum())
    n = arr.size

    def neg_loglik(s: float) -> float:
        return n * math.log(zeta(s)) + s * log_sum

    s_hat = _golden_min(neg_loglik, _S_LOW, _S_HIGH, _S_TOL)
    return ZipfModel(s_hat)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimization of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_report(model: ZipfModel, sizes: Sequence[int], pmf_terms: int = 7) -> str:
    """Human-readable fit summary: exponent, sample size, likelihood, pmf head."""
    lines = [
        f"exponent_s: {model.s:.4f}",
        f"propagation_slope_index: {model.pepsi:.4f}",
        f"sample_size: {len(sizes)}",
        f"log_likelihood: {log_likelihood(model, sizes):.4f}",
        f"p_large_4: {model.p_large(4):.6f}",
    ]
    for k in range(1, pmf_terms + 1):
        lines.append(f"pmf_{k}: {model.pmf(k):.5f}")
    return "\n".join(lines) + "\n"
