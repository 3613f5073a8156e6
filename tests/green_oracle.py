"""Monte Carlo oracle for the Green function, and kappa checked against it.

`green_monte_carlo` counts the visits to 0 of independent walks started at
0 over a finite horizon and estimates the visits after it from the
late-window visits: the return probability at step k decays like k^(-d/2),
so the amplitude cancels in a ratio of Hurwitz zeta sums (`tail_ratio`).  It
takes any walk, symmetric or not, and is independent of the exact routes
of `geometry.green_function` (BESSEL and CUBATURE), which the tests check
against it.

The draws are those of the first form of the route: per chunk of 256
steps, `Generator.choice(len(p), size=(replicas, steps), p=p)`, which
draws `Generator.random` in that shape and picks the index j of each
uniform u as the number of cdf entries <= u, with cdf = p.cumsum() /
p.cumsum()[-1].  Here the uniforms are drawn in the same order, a slice of
replicas at a time, and each step is turned into one packed int64: a
signed bit field of width 63 // d per coordinate, so that a position is the
running sum of its packed steps and is back at 0 exactly when it is 0.
The fields hold any position the horizon can reach, or the oracle raises
SizeOverflow.

`torus_kappa` is `experiments.torus_kappa`, the exact kappa of the torus
experiments, with its Green value checked against this oracle at about a
95 % level, under the keys the acceptance gate reads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta

from spatial_coalescent import experiments
from spatial_coalescent.errors import SizeOverflow, TruncationUnstable
from spatial_coalescent.geometry import WalkSpec

# steps per chunk, as the first form drew them, and replicas per slice of a
# chunk: a slice's uniforms, steps and positions stay in cache
_CHUNK_STEPS = 256
_SLICE_REPLICAS = 256


def green_monte_carlo(walk: WalkSpec, replicas: int = 20_000,
                      horizon: int = 4_000, seed: int = 0):
    """(estimate, error_bound) of the expected visits to 0 of the discrete-
    time walk started at 0, from `replicas` walks of `horizon` steps.  The
    bound is 1.96 standard errors plus 10 % of the estimated tail."""
    d = walk.dimension
    offsets = walk.offsets_array.astype(np.int64)
    width = 63 // d
    reach = horizon * int(np.abs(offsets).max())
    if reach >= 1 << (width - 1):
        raise SizeOverflow(f"{horizon} steps reach {reach}, past the "
                           f"{width}-bit fields of a packed position",
                           size=reach, budget=(1 << (width - 1)) - 1)
    packed = offsets @ (np.int64(1) << (width * np.arange(d, dtype=np.int64)))
    cdf = walk.probs_array.cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    pos = np.zeros((replicas, 1), dtype=np.int64)
    visits = np.ones(replicas, dtype=np.int64)     # the visit at step 0
    window = np.zeros(replicas, dtype=np.int64)    # visits in (half, horizon]
    half = horizon // 2
    for start in range(0, horizon, _CHUNK_STEPS):
        steps = min(_CHUNK_STEPS, horizon - start)
        late = min(max(start + steps - half, 0), steps)
        for lo in range(0, replicas, _SLICE_REPLICAS):
            rows = slice(lo, min(lo + _SLICE_REPLICAS, replicas))
            u = rng.random((rows.stop - lo, steps))
            idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cdf)))
            for c in cdf[:-1]:
                idx += u >= c
            path = packed[idx]
            np.cumsum(path, axis=1, out=path)
            path += pos[rows]
            at0 = path == 0
            visits[rows] += np.count_nonzero(at0, axis=1)
            if late:
                window[rows] += np.count_nonzero(at0[:, steps - late:], axis=1)
            pos[rows] = path[:, -1:]
    ratio = tail_ratio(d / 2.0, half, horizon)
    window_mean = float(window.mean())
    estimate = float(visits.mean()) + window_mean * ratio
    se_visits = float(visits.std(ddof=1)) / math.sqrt(replicas)
    se_window = float(window.std(ddof=1)) / math.sqrt(replicas)
    err = 1.96 * (se_visits + se_window * ratio) + 0.1 * window_mean * ratio
    return estimate, err


def tail_ratio(s: float, half: int, horizon: int) -> float:
    """sum_{k > horizon} k^(-s) / sum_{half < k <= horizon} k^(-s), by the
    Hurwitz zeta function zeta(s, q) = sum_{k >= 0} (k + q)^(-s)."""
    tail = zeta(s, horizon + 1)
    return float(tail / (zeta(s, half + 1) - tail))


def torus_kappa(walk: WalkSpec, kernel, require_agreement: bool = True,
                seed: int = 0) -> dict:
    """experiments.torus_kappa with its Green value checked against
    green_monte_carlo of the symmetrized walk.  G_lattice and G_lattice_err
    are the exact route's value and bound.  The routes agree when
    |G_lattice - G_monte_carlo| is within the sum of their bounds, about a
    95 % interval; require_agreement raises TruncationUnstable when they do
    not, and methods_agree reports the outcome either way."""
    info = experiments.torus_kappa(walk, kernel)
    g_mc, e_mc = green_monte_carlo(walk.symmetrized(), seed=seed)
    g, err = info["G"], info["G_err"]
    agree = bool(abs(g - g_mc) <= (err + e_mc))
    if require_agreement and not agree:
        raise TruncationUnstable(
            f"Green estimates disagree: {g}+-{err} vs {g_mc}+-{e_mc}")
    return {
        "G_lattice": g, "G_lattice_err": err, "G_method": info["G_method"],
        "G_monte_carlo": g_mc, "G_monte_carlo_err": e_mc,
        "methods_agree": agree,
        "lambda22": info["lambda22"],
        "kappa": info["kappa"],
    }
