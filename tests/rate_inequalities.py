"""Numerical checks of the rate inequalities of the spatial theory.

The spatial sandwich bounds gamma and lambda of a site configuration by
those of its pooled and evenly spread counts, and the deterministic chain
bound controls the time to shed blocks along any decrement sequence.  The
simulator never uses them; criterion 2 of the acceptance gate and the rate
tests check them on `RateKernel` tables.
"""

from __future__ import annotations

import math

import numpy as np

from spatial_coalescent.rates import RateKernel


def estimate_rho(kernel: RateKernel, b_max: int = 2000, samples: int = 400,
                 seed: int = 0, margin: float = 0.5) -> float:
    """Empirical exponent rho with lambda_b <= m^rho lambda_{ceil(b/m)}.

    Existential in the theory; estimated as the max sampled value of
    log(lambda_b / lambda_{ceil(b/m)}) / log m plus a safety margin.
    Diagnostics only, never used by the simulator.
    """
    rng = np.random.default_rng(seed)
    kernel.ensure_b(b_max)
    best = 1.0
    for _ in range(samples):
        b = int(rng.integers(4, b_max + 1))
        m = int(rng.integers(2, max(b // 2, 3)))
        if b / m < 2:
            continue
        num = kernel.lambda_total(b)
        den = kernel.lambda_total(math.ceil(b / m))
        if num > 0 and den > 0:
            best = max(best, math.log(num / den) / math.log(m))
    return best + margin


def spatial_rate_bounds_check(kernel: RateKernel, site_counts, rho_hat: float) -> dict:
    """Check the spatial rate sandwich for one site configuration.

    gamma_{sum b_i} >= sum_i gamma_{b_i} >= upsilon * gamma_{floor(sum/upsilon)}
    upsilon^(1+rho) lambda_{ceil(sum/upsilon)} >= sum_i lambda_{b_i}
                                               >= lambda_{ceil(sum/upsilon)}
    """
    counts = [int(b) for b in site_counts]
    upsilon = len(counts)
    total = sum(counts)
    if total <= upsilon:
        raise ValueError("need sum of site counts > number of sites")
    kernel.ensure_b(total)
    gamma_sum = kernel.gamma_total(total)
    gamma_sites = sum(kernel.gamma_total(b) for b in counts)
    gamma_floor = upsilon * kernel.gamma_total(total // upsilon)
    lam_sites = sum(kernel.lambda_total(b) for b in counts)
    lam_ceil = kernel.lambda_total(math.ceil(total / upsilon))
    lam_upper = upsilon ** (1.0 + rho_hat) * lam_ceil
    tol = 1e-9 * max(1.0, gamma_sum, lam_upper)
    return {
        "gamma_upper_ok": gamma_sum >= gamma_sites - tol,
        "gamma_lower_ok": gamma_sites >= gamma_floor - tol,
        "lambda_upper_ok": lam_upper >= lam_sites - tol,
        "lambda_lower_ok": lam_sites >= lam_ceil - tol,
        "gamma_margins": (gamma_sum - gamma_sites, gamma_sites - gamma_floor),
        "lambda_margins": (lam_upper - lam_sites, lam_sites - lam_ceil),
    }


def deterministic_chain_bound(kernel: RateKernel, m: int, upsilon: int,
                              j_seq) -> tuple[float, float]:
    """Left and right sides of the deterministic block-decrement inequality.

    Hypotheses: m in [n*upsilon, (n+1)*upsilon) for some n >= 2, j_i >= 1,
    partial sums below m - 2*upsilon until the last, full sum in
    [m - 2*upsilon, m - 1].  Returns (lhs, rhs) with lhs <= rhs expected.
    """
    n = m // upsilon
    if n < 2:
        raise ValueError("need m >= 2 * upsilon")
    js = [int(j) for j in j_seq]
    if any(j < 1 for j in js):
        raise ValueError("decrements must be >= 1")
    partial = sum(js[:-1])
    total = sum(js)
    if not (partial < m - 2 * upsilon and m - 2 * upsilon <= total <= m - 1):
        raise ValueError("decrement sequence violates the hypothesis")
    kernel.ensure_b(max(n, 2))
    lhs, consumed = 0.0, 0
    for j in js:
        remaining = m - consumed
        lhs += j / kernel.gamma_total(remaining // upsilon)
        consumed += j
    return lhs, _chain_rhs(kernel, m, upsilon)


def _chain_rhs(kernel: RateKernel, m: int, upsilon: int) -> float:
    n = m // upsilon
    return ((m - n * upsilon) / kernel.gamma_total(n)
            + sum(upsilon / kernel.gamma_total(b) for b in range(2, n))
            + 2 * upsilon / kernel.gamma_total(2))


def max_chain_bound(kernel: RateKernel, m: int,
                    upsilon: int) -> tuple[float, float]:
    """The largest left side of `deterministic_chain_bound` over every valid
    decrement sequence of (m, upsilon), and the right side, or None if no
    sequence is valid.

    Each term j / gamma_{(m - c) // upsilon} depends only on the count c
    consumed before it, so the largest left side is a longest path over c:
    best[c] is the largest sum of a valid prefix that has consumed c, with
    the terms added left to right as `deterministic_chain_bound` adds them
    (rounding is monotone, so the largest rounded prefix makes the largest
    rounded extension), and a sequence ends with the largest last
    decrement, m - 1 - c.  O(m^2) operations, against about 2^(m - 2
    upsilon) sequences.
    """
    cap = m - 2 * upsilon
    if cap <= 0 or m // upsilon < 2:
        return None
    kernel.ensure_b(max(m // upsilon, 2))
    best = np.full(cap, -np.inf)
    best[0] = 0.0
    lhs = -np.inf
    for c in range(cap):
        g = kernel.gamma_total((m - c) // upsilon)
        # prefixes that stay below cap, then the largest closing decrement
        best[c + 1:] = np.maximum(best[c + 1:],
                                  best[c] + np.arange(1, cap - c) / g)
        lhs = max(lhs, best[c] + (m - 1 - c) / g)
    return float(lhs), _chain_rhs(kernel, m, upsilon)


def valid_decrement_sequences(m: int, upsilon: int):
    """Yield every decrement sequence satisfying the hypothesis above.

    Exhaustive; intended for small m and upsilon only.
    """
    cap = m - 2 * upsilon
    if cap <= 0 or m // upsilon < 2:
        return

    def rec(prefix, partial):
        # close the sequence with one final decrement
        for last in range(max(1, cap - partial), m - partial):
            yield prefix + [last]
        for j in range(1, cap - partial):
            yield from rec(prefix + [j], partial + j)

    yield from rec([], 0)
