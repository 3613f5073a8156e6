"""Closed-form references for the benchmark's correctness checks.

Nothing here imports `spatial_coalescent`: a faster production path must
never be able to grade itself.  A measure is described by a tuple of
components, each either

    ("atom", location, mass)
    ("beta", alpha, lo, hi)   Beta(2 - alpha, alpha) density restricted to [lo, hi]

Lebesgue measure is ("beta", 1.0, 0.0, 1.0).  For a Beta piece,

    lambda_{b,k} = B(k - alpha, b - k + alpha) / B(2 - alpha, alpha)
                   * (I_hi - I_lo)(k - alpha, b - k + alpha),

with I the regularized incomplete Beta function; totals are log-sum-exp
sums of C(b,k) lambda_{b,k} over k.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaln, gammaln, i0e, logsumexp

KINGMAN = (("atom", 0.0, 1.0),)


def beta(alpha: float) -> tuple:
    return (("beta", float(alpha), 0.0, 1.0),)


LEBESGUE = beta(1.0)


def _log_binom(b: int, ks: np.ndarray) -> np.ndarray:
    return gammaln(b + 1) - gammaln(ks + 1) - gammaln(b - ks + 1)


def _log_component(comp, b: int, ks: np.ndarray) -> np.ndarray:
    kind = comp[0]
    if kind == "atom":
        _, loc, m = comp
        if loc == 0.0:
            return np.where(ks == 2, math.log(m), -np.inf)
        if loc == 1.0:
            return np.where(ks == b, math.log(m), -np.inf)
        return math.log(m) + (ks - 2) * math.log(loc) + (b - ks) * math.log1p(-loc)
    if kind == "beta":
        _, alpha, lo, hi = comp
        p, q = ks - alpha, b - ks + alpha
        out = betaln(p, q) - betaln(2.0 - alpha, alpha)
        if lo == 0.0 and hi == 1.0:
            return out
        share = betainc(p, q, hi) - (betainc(p, q, lo) if lo > 0.0 else 0.0)
        with np.errstate(divide="ignore"):
            return out + np.log(share)
    raise ValueError(f"unknown measure component {kind!r}")


def log_lambda_bk(spec, b: int) -> np.ndarray:
    """log lambda_{b,k} for k = 2..b (-inf where the rate is 0)."""
    ks = np.arange(2, b + 1, dtype=float)
    out = np.full(ks.shape, -np.inf)
    for comp in spec:
        out = np.logaddexp(out, _log_component(comp, b, ks))
    return out


def lambda_bk_row(spec, b: int) -> np.ndarray:
    return np.exp(log_lambda_bk(spec, b))


def lambda_total(spec, b: int) -> float:
    """lambda_b = sum_k C(b,k) lambda_{b,k}."""
    ks = np.arange(2, b + 1, dtype=float)
    return float(np.exp(logsumexp(_log_binom(b, ks) + log_lambda_bk(spec, b))))


def gamma_total(spec, b: int) -> float:
    """gamma_b = sum_k C(b,k) (k-1) lambda_{b,k}."""
    ks = np.arange(2, b + 1, dtype=float)
    return float(np.exp(logsumexp(_log_binom(b, ks) + np.log(ks - 1.0)
                                  + log_lambda_bk(spec, b))))


def merge_size_law(spec, b: int) -> np.ndarray:
    """P(merge size = k), k = 2..b, given a merger among b blocks."""
    ks = np.arange(2, b + 1, dtype=float)
    logw = _log_binom(b, ks) + log_lambda_bk(spec, b)
    return np.exp(logw - logsumexp(logw))


def merge_size_cumulative(spec, b: int) -> np.ndarray:
    return np.cumsum(merge_size_law(spec, b))


def absorption_mean(spec, n: int) -> float:
    """Exact E[T_n], the time for n blocks at one site to merge into one:
    E[T_b] = 1/lambda_b + sum_k p_{b,k} E[T_{b-k+1}], E[T_1] = 0."""
    mean = [0.0, 0.0]
    for b in range(2, n + 1):
        p = merge_size_law(spec, b)
        after = np.array([mean[b - k + 1] for k in range(2, b + 1)])
        mean.append(1.0 / lambda_total(spec, b) + float(p @ after))
    return mean[n]


def green_simple_walk(d: int) -> float:
    """Expected visits to the origin of the simple walk on Z^d (d >= 3):
    the integral over t >= 0 of (e^(-t/d) I_0(t/d))^d."""
    val, _ = integrate.quad(lambda t: i0e(t / d) ** d, 0.0, np.inf,
                            epsabs=1e-14, epsrel=1e-13, limit=500)
    return val


def rel_err(value, reference) -> float:
    """Worst entrywise |value - reference| / |reference| (0/0 counts as 0)."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        return math.inf
    diff = np.abs(value - reference)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(diff == 0.0, 0.0, diff / np.abs(reference))
    return float(np.max(err)) if err.size else 0.0
