"""Monte Carlo experiments: hitting-time bounds, dichotomy trends, and the
large-torus scaling limits.

Every estimator reports a standard error; acceptance thresholds are stated
as multiples of the standard error or as fixed statistical levels, never as
raw equality.  Reproducibility contract: a master seed is expanded into
per-replica streams via numpy's SeedSequence spawn mechanism, so reports
are deterministic functions of (config, seed).

Every experiment entry point returns one plain dict, its report, ready for
JSON (a bound that is not finite is None).  Two keys are reserved, and the
CLI pops them before it writes report.json: `stats`, the run's counters
and phase seconds, which go to the manifest, and `table`, a (header, rows)
pair with one row per replica (estimate_Tnk, pairwise_torus_experiment,
block_count_limit_experiment), which goes to a CSV.  The `kappa`
experiment reports the torus_kappa record, which has neither key.  Each
entry point first checks its replica count, its other counts and its kappa
(_check_run), so that a value the CLI's config check rejects raises
ValueError here too, not a TypeError or a silent result.

Both few-block torus studies, the first coalescence of two blocks and the
partition structure of n blocks, run on one sampler that is exact in law
but orders of magnitude faster than the general engine:
few_block_torus_sample advances replicas whose blocks are apart by chunks
of pure migration cut at the first co-location, and the others one
jump-chain event at a time.  It holds a site as one packed int64, a bit
field per coordinate, and runs as one C loop in the engine's compiled
library (engine._loop) on its own PCG64, seeded from numpy's public
PCG64 state, making the draws of the numpy sampler kept as its reference
in tests/torus_oracle.py.  A chunk jumps past the words of the cells after
a replica's first co-location instead of drawing them, so that a replica
pays only for the steps it takes and for its alive blocks.  It logs a merge's
participants as slot indices, each the least start index of its group, and
returns counters of its chunks and lockstep events.  It and the
block-count study first check that the walk connects the torus
(geometry.check_torus_walk).

kappa is about the difference of two blocks' positions, so it takes G of
the symmetrized walk (geometry.WalkSpec.symmetrized).  Without a given
kappa, the torus experiments take it from torus_kappa, the one exact
route: the Green route that geometry picks for that walk, BESSEL for an
axis walk and CUBATURE otherwise.  The `kappa` experiment reports the same
record.  The Monte Carlo Green estimate is a test oracle
(tests/green_oracle.py) and no experiment runs it.

The block-count study's references, the Kingman entrance law from dust and
its two-time law, are Tavare's series summed exactly in decimal.

The goodness-of-fit p-values are computed here on scipy.special, so that
no run imports scipy.stats (about half a second of start-up): Pearson's
chi-square and the KS statistic take scipy.stats' arithmetic to the bit,
and the two-sided KS p-value is exact (_kolmogorov_sf).  A statistic that
cannot be tested (one pair of blocks, one replica) is None.
"""

from __future__ import annotations

import ctypes
import math
import time
from collections import Counter
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np
from scipy import special

from . import engine as engine_mod
from .engine import SimulationConfig, simulate, singletons_per_site
from .errors import (BudgetExceeded, SizeOverflow, TruncationUnstable,
                     check_count)
from .geometry import (WalkSpec, build_torus, check_torus_walk, green_function,
                       green_method, kappa)
from .rates import RateKernel, cdi_classify, tn_uniform_bound

__all__ = [
    "spawn_seeds",
    "estimate_Tnk",
    "stay_infinite_trend",
    "kingman_entrance_reference",
    "kingman_entrance_joint_law",
    "pairwise_torus_experiment",
    "block_count_limit_experiment",
    "partition_structure_experiment",
    "class_coupling_check",
    "block_decay_shape",
    "few_block_torus_sample",
    "torus_kappa",
]


def _check_run(replicas, kappa_value=None, **counts) -> None:
    """Raise ValueError unless replicas is an integer >= 1, kappa_value, if
    given, is finite and positive, and each of `counts`, a name mapped to a
    (value, least value) pair, is an integer of at least that value (each
    check fails on NaN)."""
    for name, (value, least) in {"replicas": (replicas, 1), **counts}.items():
        check_count(name, value, least)
    if kappa_value is not None and not 0.0 < kappa_value < math.inf:
        raise ValueError(f"kappa_value must be finite and positive, "
                         f"got {kappa_value!r}")


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Per-replica seeds from one master seed (splittable, documented)."""
    check_count("count", count, 0)
    seq = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(count)]


def _add_engine_stats(stats: dict, rec) -> None:
    """Add one simulate record's engine counters to `stats`: the events by
    tag and the thinning rejections summed, and the largest
    `max_site_blocks` and `lambda_table_size`."""
    events = stats.setdefault("events", {})
    for tag, n in rec.stats["events"].items():
        events[tag] = events.get(tag, 0) + n
    stats["thinning_rejections"] = (stats.get("thinning_rejections", 0)
                                    + rec.stats["thinning_rejections"])
    for key in ("max_site_blocks", "lambda_table_size"):
        stats[key] = max(stats.get(key, 0), rec.stats[key])


def _replica_runs(init, geography, kernel: RateKernel, seed: int,
                  replicas: int, stats: dict, **stops):
    """One counts-only simulate record per replica seed of `seed`; `stops`
    are further SimulationConfig fields (horizon, probes, stop rules).
    Each record's engine counters are added to `stats` (see
    `_add_engine_stats`)."""
    for s in spawn_seeds(seed, replicas):
        rec = simulate(init, SimulationConfig(
            kernel=kernel, geography=geography, seed=s,
            record_events=False, track_elements=False, **stops))
        _add_engine_stats(stats, rec)
        yield rec


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ----------------------------------------------------------------------
# goodness-of-fit p-values
# ----------------------------------------------------------------------

# observed and expected totals of a chi-square test may differ by this much,
# relative to the smaller (scipy.stats.chisquare's tolerance)
_CHI2_SUM_RTOL = np.finfo(np.float64).eps ** 0.5


def _chisquare_p(obs, exp=None) -> float:
    """p-value of Pearson's chi-square test of the counts `obs` against the
    expected counts `exp` (equal cells if None), on len(obs) - 1 degrees of
    freedom: the arithmetic of scipy.stats.chisquare, term for term."""
    obs = np.asarray(obs, dtype=np.float64)
    if exp is None:
        exp = obs.mean()
    else:
        exp = np.asarray(exp, dtype=np.float64)
        o_sum, e_sum = obs.sum(), exp.sum()
        if abs(o_sum - e_sum) / min(o_sum, e_sum) > _CHI2_SUM_RTOL:
            raise ValueError(f"observed total {o_sum} and expected total "
                             f"{e_sum} differ by more than {_CHI2_SUM_RTOL} "
                             "relative")
    stat = ((obs - exp) ** 2 / exp).sum()
    return float(special.chdtrc(obs.size - 1, stat))


def _ks_expon(vals, scale: float) -> tuple[float, float]:
    """Two-sided one-sample KS statistic of `vals` against the exponential
    law of mean `scale`, and its exact p-value (_kolmogorov_sf).  The
    statistic is scipy.stats.kstest's, bit for bit."""
    x = np.sort(np.asarray(vals, dtype=np.float64))
    n = x.size
    cdf = -special.expm1(-(x / scale))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, _kolmogorov_sf(n, d)


# Durbin's matrix power is rescaled by 2^-_RESCALE_BITS whenever its central
# entry passes 2^_RESCALE_BITS (Marsaglia, Tsang & Wang 2003)
_RESCALE_BITS = 128


def _kolmogorov_sf(n: int, x: float) -> float:
    """P(D_n >= x) for the two-sided KS statistic D_n of n samples, exact.

    For x >= 1/2 it is 2 smirnov(n, x), the one-sided tail doubled (the two
    sides cannot both be crossed); so it is for n x^2 > 4, where the
    double-crossing term is below e^-24 of it (Simard & L'Ecuyer 2011).
    Elsewhere it is 1 - (n!/n^n) (H^n)_kk, with Durbin's m x m matrix H for
    n x = k - h, 0 <= h < 1, m = 2k - 1 (Marsaglia, Tsang & Wang 2003):
    H^n by repeated squaring, with power-of-two rescaling, and n!/n^n from
    exact integers.  Taking 1 - cdf in floats, its relative error grows like
    n eps / P(D_n >= x): about 1e-12 at n = 20, x = 2/sqrt(n)."""
    t = n * x
    if t <= 0.5:
        return 1.0
    if x >= 1.0:
        return 0.0
    if x >= 0.5 or t * x > 4.0:
        return 2.0 * float(special.smirnov(n, x))
    k = math.ceil(t)
    h = k - t
    m = 2 * k - 1
    # H[i, j] = 1/(i - j + 1)! on and below the superdiagonal; the first
    # column and the last row carry the boundary terms in h
    inv_fact = np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1, m + 1))))
    lag = np.arange(m)[:, None] - np.arange(m)[None, :] + 1
    H = np.where(lag >= 0, inv_fact[np.maximum(lag, 0)], 0.0)
    edge = (1.0 - h ** np.arange(1, m + 1)) * inv_fact[1:]
    H[:, 0] = edge
    H[-1, :] = edge[::-1]
    H[-1, 0] = ((1.0 - 2.0 * h ** m + max(2.0 * h - 1.0, 0.0) ** m)
                * inv_fact[m])

    # H^n = power 2^scale, from squares H^(2^i) = H 2^square_scale
    big = math.ldexp(1.0, _RESCALE_BITS)
    power, scale, square_scale, e = None, 0, 0, n
    while True:
        if e & 1:
            power = H if power is None else power @ H
            scale += square_scale
            if power[k - 1, k - 1] > big:
                power = power / big
                scale += _RESCALE_BITS
        e >>= 1
        if not e:
            break
        H = H @ H
        square_scale *= 2
        if H[k - 1, k - 1] > big:
            H = H / big
            square_scale += _RESCALE_BITS
    # n!/n^n as q 2^-shift, q a 64-bit integer
    num, den = math.factorial(n), n ** n
    shift = den.bit_length() - num.bit_length() + 64
    q = (num << shift) // den
    return 1.0 - math.ldexp(float(power[k - 1, k - 1]) * q, scale - shift)


# ----------------------------------------------------------------------
# hitting times T_n^(k)
# ----------------------------------------------------------------------

# the level of estimate_Tnk's normal confidence interval
_CONFIDENCE = 0.95


def estimate_Tnk(n: int, k: int, geography, kernel: RateKernel,
                 replicas: int = 400, seed: int = 0) -> dict:
    """Mean time until at most k blocks per site remain, starting from n
    singletons per site, with its standard error and normal confidence
    interval `ci`; compared against the uniform upper bound, None where no
    finite bound exists.  `table` holds each replica's time, `stats` the
    engine counters of _replica_runs."""
    _check_run(replicas, n=(n, 2), k=(k, 2))
    stats = {}
    times = [rec.final_time for rec in _replica_runs(
        singletons_per_site(geography, n), geography, kernel, seed, replicas,
        stats, stop_blocks_at_most=k * geography.size)]
    arr = np.asarray(times)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1)) / math.sqrt(replicas) if replicas > 1 else 0.0
    z = float(special.ndtri(0.5 + _CONFIDENCE / 2.0))
    bound = tn_uniform_bound(kernel, k=k, b_max=10_000)
    verdict = cdi_classify(kernel, b_max=1000)
    extras = {"uniform_bound": None if bound == math.inf else bound,
              "verdict": verdict.verdict}
    if verdict.verdict != "COMES_DOWN":
        extras["warning"] = "STAYS_INFINITE_WARNING"
    return {"point_estimate": mean, "std_error": se, "replicas": replicas,
            "confidence": _CONFIDENCE, "ci": [mean - z * se, mean + z * se],
            "extras": extras, "stats": stats,
            "table": (["replica", "time"], list(enumerate(times)))}


def stay_infinite_trend(kernel: RateKernel, geography, n_grid, t_probe,
                        replicas: int = 200, seed: int = 0,
                        killing: bool = False) -> dict:
    """E[#blocks(t_probe)] against n for diverging-count diagnosis: `per_n`
    maps each n of n_grid (2 or more distinct sizes) to {probe time:
    (mean, standard error)}, the error None from one replica.  `stats`
    holds the engine counters of _replica_runs over every n."""
    _check_run(replicas, **{f"n_grid[{i}]": (n, 1)
                            for i, n in enumerate(n_grid)})
    if len(set(n_grid)) < 2:
        raise ValueError(f"n_grid must hold 2 or more distinct sizes, "
                         f"got {n_grid!r}")
    probes = tuple(t_probe) if hasattr(t_probe, "__iter__") else (t_probe,)
    horizon = max(probes)
    results, stats = {}, {}
    for n in n_grid:
        counts = {p: [] for p in probes}
        # coupled across n via shared seeds
        for rec in _replica_runs(singletons_per_site(geography, n), geography,
                                 kernel, seed, replicas, stats,
                                 killing=killing, horizon=horizon,
                                 probe_times=probes):
            for p, c in rec.probes:
                counts[p].append(c)
        # one replica has no standard error
        results[n] = {p: (float(np.mean(v)),
                          float(np.std(v, ddof=1)) / math.sqrt(replicas)
                          if replicas > 1 else None)
                      for p, v in counts.items()}
    # growth exponent of the mean at the largest probe time
    p_last = probes[-1]
    ns = np.array(sorted(results))
    means = np.array([results[n][p_last][0] for n in ns])
    if np.all(means > 0):
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
    else:
        slope = 0.0
    return {"per_n": results, "growth_exponent": float(slope),
            "probes": probes, "stats": stats}


# ----------------------------------------------------------------------
# Kingman entrance law (Tavare 1984), exact
# ----------------------------------------------------------------------

# Decimal digits kept below the largest series term; a term below
# _NEGLIGIBLE ends a series, a probability below it counts as zero, and a
# law whose mass is off 1 by more than _MASS_TOL raises.  The series cut at
# one index for all k has mass 1 exactly, so the mass checks the digits.
_GUARD_DIGITS = 40
_NEGLIGIBLE = 1e-25
_MASS_TOL = 1e-12


class _DecimalSeries:
    """Weights w_i = e^(-i(i-1)t/2) (2i-1), i < top, of Tavare's series at
    time t, whose terms are w_i c(i, k) / k with c(i, k) = C(i+k-2, k-1)
    C(i-1, k-1), times a ratio <= 1 in the finite-start law.  At i = top
    every term is below _NEGLIGIBLE and, for each k, falls in i from there
    on (consecutive terms differ by a factor below e^(-it) (2i+1) < 1), so
    each alternating sum stops within _NEGLIGIBLE and P(k) < _NEGLIGIBLE
    for k >= top.  The decimal context keeps _GUARD_DIGITS digits below the
    largest term, sized from gammaln."""

    def __init__(self, t: float):
        if not t > 0:
            raise ValueError("need t > 0")
        top, peak = 1, -math.inf
        while True:
            k = np.arange(1, top + 1)
            log_c = (special.gammaln(top + k - 1) - special.gammaln(k)
                     - special.gammaln(k + 1) - special.gammaln(top - k + 1))
            largest = (float(log_c.max()) - top * (top - 1) * t / 2
                       + math.log(2 * top - 1))
            peak = max(peak, largest)
            if largest < math.log(_NEGLIGIBLE) and math.exp(-top * t) * (2 * top + 1) < 1:
                break
            top += 1
        self.top = top
        self.ctx = Context(prec=max(0, math.ceil(peak / math.log(10)))
                           + _GUARD_DIGITS, Emin=MIN_EMIN, Emax=MAX_EMAX)
        with localcontext(self.ctx):
            self.w = [None] + [(Decimal(-t) * (i * (i - 1)) / 2).exp()
                               * (2 * i - 1) for i in range(1, top)]

    def alternating(self, k: int, last: int, ratio=None) -> Decimal:
        """sum_{i=k}^{last} (-1)^(i-k) w_i c(i, k) / k, each term times
        ratio[i] when given."""
        with localcontext(self.ctx):
            total, c = Decimal(0), Decimal(math.comb(2 * k - 2, k - 1))
            for i in range(k, min(last, self.top - 1) + 1):
                term = self.w[i] * c if ratio is None else self.w[i] * c * ratio[i]
                total += term if (i - k) % 2 == 0 else -term
                c = c * (i + k - 1) / (i - k + 1)
            return total / k


def _exact_law(probs: dict, what: str, t: float) -> dict:
    mass = float(sum(probs.values()))
    if not abs(mass - 1.0) <= _MASS_TOL:
        raise TruncationUnstable(f"{what} at t={t} has mass {mass!r}", t=t)
    return {key: float(p) for key, p in probs.items() if p > _NEGLIGIBLE}


def kingman_entrance_reference(t: float) -> dict:
    """Law {k: P(A_t = k)} of the Kingman block count at time t from dust
    (infinitely many singletons), from Tavare's series

        P(A_t = k) = sum_{i>=k} (-1)^(i-k) e^(-i(i-1)t/2) (2i-1)
                     C(i+k-2, k-1) C(i-1, k-1) / k

    summed exactly in decimal.  Terms and digits both grow as t falls: on
    one core, about 2 ms at t = 0.3, 0.7 s at t = 0.01, 7 s at t = 0.004."""
    series = _DecimalSeries(t)
    return _exact_law({k: series.alternating(k, series.top)
                       for k in range(1, series.top)}, "entrance law", t)


def kingman_entrance_joint_law(first: dict, gap: float) -> dict:
    """Law {(i, j): P(A_t1 = i, A_t2 = j)} of the Kingman block counts from
    dust at times t1 < t2, given the entrance law `first` at t1 (from
    kingman_entrance_reference) and the gap t2 - t1 > 0:
    P(A_t1 = i) g_ij(t2 - t1), with Tavare's finite-start transition law

        g_ij(s) = sum_{k=j}^{i} (-1)^(k-j) e^(-k(k-1)s/2) (2k-1)
                  C(k+j-2, j-1) C(k-1, j-1) / j * i_[k] / i_(k)

    (falling and rising factorials i_[k], i_(k)), summed like the entrance
    law."""
    step, probs = _DecimalSeries(gap), {}
    with localcontext(step.ctx):
        for i, p_i in first.items():
            ratio = [Decimal(1)]            # i_[k] / i_(k) for k = 0..i
            for k in range(i):
                ratio.append(ratio[-1] * (i - k) / (i + k))
            for j in range(1, min(i, step.top - 1) + 1):
                probs[i, j] = Decimal(p_i) * step.alternating(j, i, ratio)
    return _exact_law(probs, "two-time entrance law", gap)


def _counts_to_dist(counts: np.ndarray) -> dict:
    vals, freq = np.unique(counts, return_counts=True)
    total = counts.shape[0]
    return {int(v): f / total for v, f in zip(vals, freq)}


# ----------------------------------------------------------------------
# torus constants
# ----------------------------------------------------------------------

def torus_kappa(walk: WalkSpec, kernel: RateKernel) -> dict:
    """kappa for the torus experiments, from the exact Green route of the
    symmetrized walk (geometry.green_method): BESSEL for an axis walk,
    CUBATURE for any other.  Returns G, its bound G_err, the route
    G_method, lambda22 and kappa; `pairwise` reports the record whole."""
    sym = walk.symmetrized()
    method = green_method(sym)
    g, err = green_function(sym, method)
    lam22 = kernel.lambda_bk(2, 2)
    return {"G": g, "G_err": err, "G_method": method, "lambda22": lam22,
            "kappa": kappa(g, lam22)}


# ----------------------------------------------------------------------
# pairwise scaling limit
# ----------------------------------------------------------------------

def pairwise_torus_experiment(N: int, walk: WalkSpec, kernel: RateKernel,
                              replicas: int = 2000, seed: int = 0,
                              separation=None,
                              kappa_value: float | None = None) -> dict:
    """Rescaled first-coalescence time of two blocks, at the origin and at
    `separation` (default N e_1), vs Exp(kappa): the KS statistic and its
    p-value.  The times are the first merges of few_block_torus_sample with
    two blocks; `table` holds each replica's, `stats` the sampler's
    counters."""
    _check_run(replicas, kappa_value, N=(N, 1))
    d = walk.dimension
    kappa_info = None
    if kappa_value is None:
        kappa_info = torus_kappa(walk, kernel)
        kappa_value = kappa_info["kappa"]
    if separation is None:
        separation = [N] + [0] * (d - 1)
    logs, stats = few_block_torus_sample(N, walk, kernel,
                                         [[0] * d, separation], replicas, seed)
    times = np.array([log[0][0] for log in logs])
    rescaled = times / (2 * N + 1) ** d
    ks_stat, ks_p = _ks_expon(rescaled, 1.0 / kappa_value)
    mean = float(np.mean(rescaled))
    # the pairwise report and each block-count comparison share one layout,
    # so empirical, reference and tv_distance are empty here
    return {"empirical": {}, "reference": {}, "ks_stat": ks_stat,
            "tv_distance": None, "ks_pvalue": ks_p, "sample_size": replicas,
            "extras": {"kappa": kappa_value, "fitted_rate": 1.0 / mean,
                       "mean_rescaled_time": mean,
                       "kappa_info": kappa_info or {}},
            "stats": stats,
            "table": (["replica", "rescaled_time"],
                      list(enumerate(rescaled.tolist())))}


# ----------------------------------------------------------------------
# block-count limit on the torus
# ----------------------------------------------------------------------

def block_count_limit_experiment(N: int, walk: WalkSpec, kernel: RateKernel,
                                 n_per_site: int, times, replicas: int = 500,
                                 seed: int = 0,
                                 kappa_value: float | None = None,
                                 event_budget: int | None = None) -> dict:
    """Empirical law of the block count at rescaled times vs the exact
    Kingman entrance law at kappa*t, by total variation (`per_time`); plus
    a two-time joint comparison against the exact two-time law.  `table`
    holds each replica's counts, `stats` the wall time of each phase and
    the engine counters of _replica_runs."""
    _check_run(replicas, kappa_value, N=(N, 1), n_per_site=(n_per_site, 1))
    check_torus_walk(N, walk)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must increase")
    d = walk.dimension
    vol = (2 * N + 1) ** d
    t0 = time.perf_counter()
    if kappa_value is None:
        kappa_value = torus_kappa(walk, kernel)["kappa"]
    t1 = time.perf_counter()
    geo = build_torus(N, walk)
    probe_times = tuple(float(t) * vol for t in times)
    engine_stats = {}
    runs = _replica_runs(singletons_per_site(geo, n_per_site), geo, kernel,
                         seed, replicas, engine_stats,
                         horizon=max(probe_times), probe_times=probe_times)
    samples = np.empty((replicas, len(probe_times)), dtype=np.int64)
    for i, rec in enumerate(runs):
        if i == 0 and event_budget is not None:
            # every replica is projected to cost what the first one did
            projected = sum(rec.stats["events"].values()) * replicas
            if projected > event_budget:
                raise BudgetExceeded(
                    f"projected {projected} events exceeds budget {event_budget}",
                    projected=projected, budget=event_budget)
        for j, (_pt, c) in enumerate(rec.probes):
            samples[i, j] = c
    t2 = time.perf_counter()

    # in the layout of the pairwise report, with no KS test
    comparisons = []
    for j, t in enumerate(times):
        ref = kingman_entrance_reference(kappa_value * float(t))
        emp = _counts_to_dist(samples[:, j])
        comparisons.append({"empirical": emp, "reference": ref,
                            "ks_stat": None, "tv_distance": _tv(emp, ref),
                            "ks_pvalue": None, "sample_size": replicas,
                            "extras": {"t": float(t)}})

    joint_p = None
    if len(times) >= 2:
        gap = kappa_value * float(times[1]) - kappa_value * float(times[0])
        joint = kingman_entrance_joint_law(comparisons[0]["reference"], gap)
        joint_p = _joint_chi2(samples[:, :2], joint)
    t3 = time.perf_counter()

    return {
        "kappa": kappa_value,
        "per_time": comparisons,
        "joint_chi2_pvalue": joint_p,
        "stats": {"kappa_s": t1 - t0, "sampling_s": t2 - t1,
                  "reference_s": t3 - t2, **engine_stats},
        "table": (["replica"] + [f"count_t{j}" for j in range(len(times))],
                  [[i, *row] for i, row in enumerate(samples.tolist())]),
    }


def _joint_chi2(pairs: np.ndarray, law: dict, min_expected: float = 5.0) -> float:
    """One-sample chi-square of observed integer pairs against their exact
    law, with the cells of expected count below min_expected pooled."""
    n = len(pairs)
    observed = Counter(map(tuple, pairs.tolist()))
    obs, exp = [], []
    pool_obs, pool_exp = 0, 0.0
    for key in sorted(set(law) | set(observed)):
        o, e = observed.get(key, 0), n * law.get(key, 0.0)
        if e < min_expected:
            pool_obs += o
            pool_exp += e
        else:
            obs.append(o)
            exp.append(e)
    if pool_obs or pool_exp:
        obs.append(pool_obs)
        exp.append(pool_exp)
    if len(obs) < 2:
        return 1.0
    return _chisquare_p(obs, exp)


# ----------------------------------------------------------------------
# few-block partition structure on the torus (the compiled sampler)
# ----------------------------------------------------------------------

# A chunk of free migration in few_block_torus_sample takes at most
# _MAX_CHUNK_STEPS steps, fewer where a packed field could not hold them.
_MAX_CHUNK_STEPS = 4096


class _TorusWalk:
    """The walk on the torus [-N, N]^d, whose sites are packed int64s that
    hold each coordinate, (x_i + N) mod side, in its own bit field, in the
    form that the compiled few-block sampler (`sc_few_block` in _engine.c)
    reads: the step law's cumulative sums `cuts` without the last one, and
    each step packed with its coordinates taken mod side (`mod_steps`).

    A step adds its packed residues, which leaves each field in
    [0, 2 side - 1), and wraps the fields that reached side with one add
    and mask.  `steps`, the longest chunk of free migration, is
    _MAX_CHUNK_STEPS unless a field of 62 // d bits cannot hold
    2 (side - 1 + steps * reach), and the fields are that wide, wider than
    2 side as the wrap needs.  The chunk lengths, and so the draws, follow
    from this rule.
    """

    def __init__(self, N: int, walk: WalkSpec):
        d = walk.dimension
        self.side = 2 * N + 1
        offsets = walk.offsets_array
        # a uniform u selects step #{cuts <= u}; the last cumulative
        # probability (1 up to rounding) is left out so u cannot overrun
        self.cuts = np.cumsum(walk.probs_array)[:-1]
        reach = int(np.max(np.abs(offsets)))
        field_max = (1 << (62 // d)) - 1
        self.steps = min(_MAX_CHUNK_STEPS,
                         (field_max - 2 * (self.side - 1)) // (2 * reach))
        if self.steps < 1:
            raise SizeOverflow(f"a {d}-dimensional torus of side {self.side} "
                               "does not fit the packed chunk coordinates")
        self.width = (2 * (self.side - 1 + self.steps * reach)).bit_length()
        self.shifts = self.width * np.arange(d, dtype=np.int64)
        self.mod_steps = ((offsets % self.side) << self.shifts).sum(axis=1)

    def pack(self, coords) -> np.ndarray:
        return ((np.asarray(coords) % self.side) << self.shifts).sum(axis=-1)


def few_block_torus_sample(N: int, walk: WalkSpec, kernel: RateKernel,
                           start_positions, replicas: int, seed: int):
    """Jump-chain simulation of n separated blocks on the torus, exact in
    law.  Returns per-replica merge logs [(time, participants, merge_size),
    ...] and the sampler's counters.  A block keeps its slot, the index of
    its start position, and a merge keeps its smallest slot, so the
    participants, a sorted tuple of slots, are each the least start index
    of their group.

    The sampler is one C loop (`sc_few_block` in the engine's library,
    engine._loop) on a PCG64 of its own, seeded from the public state of
    numpy's PCG64(SeedSequence(seed)), the bit generator of
    default_rng(seed), whose draws it makes to the bit.  The first call of
    a process loads the library and builds it if it is missing.  It runs
    all replicas pass by pass.  While no two alive blocks of a replica
    share a site, its chain is pure migration (Exp(m_alive) holding times,
    a uniform alive block, a step from the walk), and a pass advances it by
    a chunk of steps up to its first co-location, with one Gamma time for
    the steps taken.  A chunk's
    uniforms, the movers' of all its cells and then the steps', are the
    generator's next words; the loop computes them inline on two chains
    that jump ahead in the generator's LCG, one per replica and kind, so
    the cells past a replica's co-location are skipped, not drawn, and the
    generator ends where drawing them all would leave it.  Replicas
    with co-located blocks advance one event at a time, all in lockstep:
    coalescence at rate sum_sites lambda_b against migration at rate
    m_alive, the site by lambda_b, the merge size from the kernel's law and
    a uniform k-subset (Generator.choice).  Each draw is the one the numpy
    sampler kept as the reference in tests/torus_oracle.py makes, in its
    order, so the logs and counters are that sampler's to the bit.  Sites
    are the packed sites of _TorusWalk.  Ctrl-C stops a sample: the loop
    hands control back once per pass and every 2^16 chunk steps.  Raises
    ValueError if the walk does not connect the torus, and
    EngineBuildFailed if the library cannot be built.

    The counters: chunk_calls (chunks run, each over a slice of replicas),
    chunk_replicas (replica chunks), chunk_cells (the cells of the chunks,
    the sum of replicas x chunk length, whose words the generator passes),
    chunk_steps (jump-chain steps taken in them, the cells computed; the
    cells past a co-location are skipped),
    chunk_cuts (replica chunks ended by a co-location, on their last
    step too),
    lockstep_events (events taken one at a time) and lockstep_skipped
    (passes with no co-located replica).
    """
    _check_run(replicas, N=(N, 1))
    check_torus_walk(N, walk)
    start = np.asarray(start_positions)
    if not (start.ndim == 2 and start.shape[0] >= 1
            and start.shape[1] == walk.dimension and start.dtype.kind in "iu"):
        raise ValueError(f"start_positions must be n >= 1 rows of "
                         f"{walk.dimension} integer coordinates, got "
                         f"{start_positions!r}")
    n = start.shape[0]
    lam = kernel.lambda_table(n)
    merge_cums = [kernel.merge_size_cumulative(b) for b in range(2, n + 1)]
    rows = np.zeros(n + 1, dtype=np.uintp)
    rows[2:] = [engine_mod._addr(cum) for cum in merge_cums]
    torus = _TorusWalk(N, walk)
    packed = torus.pack(start.astype(np.int64) + N)
    # a merge of k slots leaves k - 1 fewer alive, so a replica logs at most
    # n - 1 merges of at most 2 (n - 1) slots in all
    merges = replicas * (n - 1)
    log_ints = np.empty(4 * merges, dtype=np.int64)
    log_time = np.empty(merges)
    addr = engine_mod._addr
    errors: list = []
    seeded = np.random.PCG64(np.random.SeedSequence(seed)).state
    sample = engine_mod._Sample(
        rng=engine_mod._Pcg64.of(seeded), replicas=replicas, n=n,
        start=addr(packed), lam=addr(lam), rows=addr(rows),
        cuts=addr(torus.cuts), n_cuts=torus.cuts.size,
        steps=addr(torus.mod_steps), d=walk.dimension, side=torus.side,
        width=torus.width, max_steps=torus.steps,
        call=engine_mod._callback(errors),
        log_replica=addr(log_ints), log_k=addr(log_ints) + 8 * merges,
        log_slots=addr(log_ints) + 16 * merges, log_time=addr(log_time))
    status = engine_mod._loop().sc_few_block(ctypes.byref(sample))
    engine_mod._raise_status(status, errors)

    logs: list[list] = [[] for _ in range(replicas)]
    slots = log_ints[2 * merges:2 * merges + sample.n_slots].tolist()
    at = 0
    for r, tm, k in zip(log_ints[:sample.n_merges].tolist(),
                        log_time[:sample.n_merges].tolist(),
                        log_ints[merges:merges + sample.n_merges].tolist()):
        logs[r].append((tm, tuple(slots[at:at + k]), k))
        at += k
    return logs, {name: getattr(sample, name) for name in (
        "chunk_calls", "chunk_replicas", "chunk_cells", "chunk_steps",
        "chunk_cuts", "lockstep_events", "lockstep_skipped")}


def partition_structure_experiment(N: int, walk: WalkSpec, kernel: RateKernel,
                                   n_blocks: int, replicas: int = 3000,
                                   seed: int = 0,
                                   kappa_value: float | None = None) -> dict:
    """Three marginals of the few-block limit: inter-coalescence times,
    uniformity of the merging pair, and the binary-merge fraction.  `stats`
    holds the counters of few_block_torus_sample."""
    _check_run(replicas, kappa_value, N=(N, 1), n_blocks=(n_blocks, 2))
    d = walk.dimension
    vol = (2 * N + 1) ** d
    if kappa_value is None:
        kappa_value = torus_kappa(walk, kernel)["kappa"]
    # mutually separated starts on the scale a_N = N^(3/4)
    gap = max(int(math.ceil(N ** 0.75)), 1)
    starts = np.zeros((n_blocks, d), dtype=np.int64)
    for j in range(1, n_blocks):
        starts[j, j % d] = gap if j < d else -gap
    logs, stats = few_block_torus_sample(N, walk, kernel, starts, replicas, seed)

    # (a) inter-coalescence times per stage; a log has at most n - 1 merges
    stage_times = [[] for _ in range(n_blocks - 1)]
    for log in logs:
        prev = 0.0
        for stage, (tm, _parts, _k) in enumerate(log):
            stage_times[stage].append((tm - prev) / vol)
            prev = tm
    sizes = [k for log in logs for _tm, _parts, k in log]
    first_pair_counts = Counter(log[0][1] for log in logs if log)

    stage_reports = []
    for stage, vals in enumerate(stage_times):
        if not vals:
            continue
        remaining = n_blocks - stage
        rate = kappa_value * remaining * (remaining - 1) / 2.0
        ks_stat, ks_p = _ks_expon(vals, 1.0 / rate)
        stage_reports.append({
            "stage": stage + 1, "reference_rate": rate,
            "ks_stat": ks_stat, "ks_pvalue": ks_p,
            "mean": float(np.mean(vals)), "count": len(vals),
        })

    # (b) chi-square of the first merging pair against uniform; untestable
    # with a single pair or without a merge
    pairs = sorted({(i, j) for i in range(n_blocks) for j in range(n_blocks)
                    if i < j})
    observed = np.array([first_pair_counts.get(p, 0) for p in pairs])
    chi2_p = (_chisquare_p(observed)
              if len(pairs) > 1 and observed.sum() else None)

    return {
        "kappa": kappa_value,
        "stages": stage_reports,
        "first_pair_counts": {str(p): int(c)
                              for p, c in sorted(first_pair_counts.items())},
        "pair_uniformity_pvalue": chi2_p,
        "multi_merge_fraction": sum(k > 2 for k in sizes) / max(len(sizes), 1),
        "merges_total": len(sizes),
        "replicas": replicas,
        "stats": stats,
    }


# ----------------------------------------------------------------------
# class-split coupling and decay shape
# ----------------------------------------------------------------------

def class_coupling_check(geography, kernel: RateKernel, class_split, t: float,
                         replicas: int = 100, seed: int = 0) -> dict:
    """Pathwise domination #full(t) <= sum_j #class_j(t) at all event times,
    via the shared-stream coupled simulation.  `stats` holds the engine
    counters of every replica's full trajectory (see `_add_engine_stats`)."""
    _check_run(replicas)
    upsilon = geography.size
    # the full initial state; classes are element subsets of it
    all_elems = sorted(set().union(*[set(c) for c in class_split]))
    n = len(all_elems)
    if all_elems != list(range(1, n + 1)):
        raise ValueError("class split must cover 1..n")
    full = engine_mod.singletons_at([e % upsilon for e in range(n)])
    variants = [full] + [full.restrict_to(set(c)) for c in class_split]
    seeds = spawn_seeds(seed, replicas)
    violations, stats = 0, {}
    for s in seeds:
        outs = engine_mod.coupled_simulate(variants, SimulationConfig(
            kernel=kernel, geography=geography, horizon=t, seed=s))
        _add_engine_stats(stats, outs[0][0])
        full_series = outs[0][1]
        class_series = [o[1] for o in outs[1:]]
        for step in range(len(full_series)):
            lhs = full_series[step][1].block_count()
            rhs = sum(cs[step][1].block_count() for cs in class_series)
            if lhs > rhs:
                violations += 1
                break
    return {"replicas": replicas, "violations": violations,
            "domination_fraction": 1.0 - violations / replicas,
            "stats": stats}


def block_decay_shape(kernel: RateKernel, walk: WalkSpec, N_values, t_grid,
                      replicas: int = 50, seed: int = 0) -> dict:
    """sup over a (t, N) grid of E[#blocks(t)] * t / #blocks(0); bounded for
    coalescents that come down uniformly.  `stats` holds the engine
    counters of _replica_runs over every N."""
    _check_run(replicas, **{f"N_values[{i}]": (N, 1)
                            for i, N in enumerate(N_values)})
    cells, stats = {}, {}
    probes = tuple(t_grid)
    for N in N_values:
        geo = build_torus(N, walk)
        sums = {p: 0.0 for p in probes}
        for rec in _replica_runs(singletons_per_site(geo, 1), geo, kernel,
                                 seed, replicas, stats, horizon=max(probes),
                                 probe_times=probes):
            for p, c in rec.probes:
                sums[p] += c
        for p in probes:   # one singleton per site: #blocks(0) = geo.size
            cells[(N, p)] = sums[p] / replicas * p / geo.size
    return {"per_cell": {f"N={N},t={p}": v for (N, p), v in cells.items()},
            "sup_statistic": max(cells.values()), "stats": stats}
