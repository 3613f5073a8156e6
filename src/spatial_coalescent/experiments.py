"""Monte Carlo experiments: hitting-time bounds, dichotomy trends, and the
large-torus scaling limits.

Every estimator reports a standard error; acceptance thresholds are stated
as multiples of the standard error or as fixed statistical levels, never as
raw equality.  Reproducibility contract: a master seed is expanded into
per-replica streams via numpy's SeedSequence spawn mechanism, so reports
are deterministic functions of (config, seed).

Two experiment families get dedicated vectorized samplers that are exact in
law but orders of magnitude faster than the general engine:

* the two-block torus experiment tracks the relative walk of the blocks
  (jump rate 2, coalescence clock lambda_{2,2} while at the origin);
* the few-block partition-structure experiment advances replicas whose
  blocks are apart by chunks of pure migration cut at the first
  co-location, and the others one jump-chain event at a time.

Without a given kappa, the torus experiments take it from the exact BESSEL
Green value for axis walks (see geometry.WalkSpec.axis_rates), and from the
cross-checked lattice and Monte Carlo routes of torus_kappa otherwise.

The block-count study's references, the Kingman entrance law from dust and
its two-time law, are Tavare's series summed exactly in decimal.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

import numpy as np
from scipy import stats as sp_stats
from scipy.special import gammaln

from . import engine as engine_mod
from .engine import SimulationConfig, simulate, singletons_per_site
from .errors import BudgetExceeded, SizeOverflow, TruncationUnstable
from .geometry import WalkSpec, build_torus, green_function, kappa
from .rates import RateKernel, cdi_classify, tn_uniform_bound

__all__ = [
    "EstimateReport",
    "DistributionComparison",
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
    "pairwise_first_coalescence_times",
    "torus_kappa",
]


def spawn_seeds(master_seed: int, count: int) -> list[int]:
    """Per-replica seeds from one master seed (splittable, documented)."""
    seq = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1)[0]) for child in seq.spawn(count)]


@dataclass
class EstimateReport:
    point_estimate: float
    std_error: float
    replicas: int
    confidence: float = 0.95
    extras: dict = field(default_factory=dict)
    per_replica: list = field(default_factory=list)

    def confidence_interval(self):
        z = sp_stats.norm.ppf(0.5 + self.confidence / 2.0)
        return (self.point_estimate - z * self.std_error,
                self.point_estimate + z * self.std_error)

    def to_dict(self):
        lo, hi = self.confidence_interval()
        return {
            "point_estimate": self.point_estimate,
            "std_error": self.std_error,
            "replicas": self.replicas,
            "confidence": self.confidence,
            "ci": [lo, hi],
            "extras": _jsonable(self.extras),
        }


@dataclass
class DistributionComparison:
    empirical: dict
    reference: dict
    ks_stat: float | None
    tv_distance: float | None
    chi2_pvalue: float | None
    sample_size: int
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "empirical": {str(k): v for k, v in self.empirical.items()},
            "reference": {str(k): v for k, v in self.reference.items()},
            "ks_stat": self.ks_stat,
            "tv_distance": self.tv_distance,
            "chi2_pvalue": self.chi2_pvalue,
            "sample_size": self.sample_size,
            "extras": _jsonable(self.extras),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _tv(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ----------------------------------------------------------------------
# hitting times T_n^(k)
# ----------------------------------------------------------------------

def estimate_Tnk(n: int, k: int, geography, kernel: RateKernel,
                 replicas: int = 400, seed: int = 0) -> EstimateReport:
    """Mean time until at most k blocks per site remain, starting from n
    singletons per site; compared against the uniform upper bound."""
    if n < 2 or k < 2:
        raise ValueError("need n, k >= 2")
    upsilon = geography.size
    seeds = spawn_seeds(seed, replicas)
    init = singletons_per_site(geography, n)
    times = []
    for s in seeds:
        rec = simulate(init, SimulationConfig(
            kernel=kernel, geography=geography,
            stop_blocks_at_most=k * upsilon, seed=s,
            record_events=False, track_elements=False))
        times.append(rec.final_time)
    arr = np.asarray(times)
    se = float(arr.std(ddof=1)) / math.sqrt(replicas) if replicas > 1 else 0.0
    verdict = cdi_classify(kernel, b_max=1000)
    extras = {
        "uniform_bound": tn_uniform_bound(kernel, k=k, b_max=10_000),
        "verdict": verdict.verdict,
    }
    if verdict.verdict != "COMES_DOWN":
        extras["warning"] = "STAYS_INFINITE_WARNING"
    return EstimateReport(float(arr.mean()), se, replicas, extras=extras,
                          per_replica=times)


def stay_infinite_trend(kernel: RateKernel, geography, n_grid, t_probe,
                        replicas: int = 200, seed: int = 0,
                        killing: bool = False) -> dict:
    """E[#blocks(t_probe)] against n for diverging-count diagnosis."""
    probes = tuple(t_probe) if hasattr(t_probe, "__iter__") else (t_probe,)
    horizon = max(probes)
    results = {}
    for n in n_grid:
        seeds = spawn_seeds(seed, replicas)  # coupled across n via shared seeds
        counts = {p: [] for p in probes}
        init = singletons_per_site(geography, n)
        for s in seeds:
            rec = simulate(init, SimulationConfig(
                kernel=kernel, geography=geography, killing=killing,
                horizon=horizon, seed=s, record_events=False,
                track_elements=False, probe_times=probes))
            for p, c in rec.probes:
                counts[p].append(c)
        results[n] = {p: (float(np.mean(v)),
                          float(np.std(v, ddof=1)) / math.sqrt(replicas))
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
            "probes": probes}


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
            log_c = (gammaln(top + k - 1) - gammaln(k) - gammaln(k + 1)
                     - gammaln(top - k + 1))
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

def torus_kappa(walk: WalkSpec, kernel: RateKernel,
                require_agreement: bool = True, seed: int = 0) -> dict:
    """kappa from the two independent Green-function routes."""
    g_lat, e_lat = green_function(walk, "LATTICE_SUM")
    g_mc, e_mc = green_function(walk, "MONTE_CARLO", seed=seed)
    agree = abs(g_lat - g_mc) <= (e_lat + e_mc)
    if require_agreement and not agree:
        raise TruncationUnstable(
            f"Green estimates disagree: {g_lat}+-{e_lat} vs {g_mc}+-{e_mc}")
    lam22 = kernel.lambda_bk(2, 2)
    return {
        "G_lattice": g_lat, "G_lattice_err": e_lat,
        "G_monte_carlo": g_mc, "G_monte_carlo_err": e_mc,
        "methods_agree": agree,
        "lambda22": lam22,
        "kappa": kappa(g_lat, lam22),
    }


def _kappa_info(walk: WalkSpec, kernel: RateKernel, seed: int) -> dict:
    """kappa for the torus experiments: from the exact BESSEL Green value
    for an axis walk, else from the cross-checked routes of torus_kappa."""
    if walk.axis_rates is None:
        return torus_kappa(walk, kernel, seed=seed)
    g, err = green_function(walk, "BESSEL")
    lam22 = kernel.lambda_bk(2, 2)
    return {"G_bessel": g, "G_bessel_err": err, "lambda22": lam22,
            "kappa": kappa(g, lam22)}


# ----------------------------------------------------------------------
# pairwise scaling limit (vectorized relative-walk sampler)
# ----------------------------------------------------------------------

def _relative_step_table(walk: WalkSpec):
    offs = walk.offsets_array
    probs = walk.probs_array
    rel_offs = np.concatenate([offs, -offs])
    rel_probs = np.concatenate([probs, probs]) / 2.0
    return rel_offs, np.cumsum(rel_probs)


def pairwise_first_coalescence_times(N: int, walk: WalkSpec, lambda22: float,
                                     replicas: int, seed: int,
                                     separation=None) -> np.ndarray:
    """First-coalescence times of two blocks on the torus, exact in law.

    Simulates the relative displacement (a rate-2 walk with the symmetrized
    step law) plus a rate-lambda22 coalescence clock active at the origin.
    """
    d = walk.dimension
    side = 2 * N + 1
    if separation is None:
        separation = [N] + [0] * (d - 1)
    rel_offs, rel_cum = _relative_step_table(walk)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    y = np.tile(np.asarray(separation, dtype=np.int64), (replicas, 1))
    t = np.zeros(replicas)
    out = np.empty(replicas)
    idx = np.arange(replicas)
    while idx.size:
        at0 = ~np.any(y, axis=1)
        rate = 2.0 + lambda22 * at0
        t += rng.exponential(1.0, size=idx.size) / rate
        u = rng.random(idx.size) * rate
        coal = at0 & (u < lambda22)
        if np.any(coal):
            out[idx[coal]] = t[coal]
            keep = ~coal
            idx, y, t = idx[keep], y[keep], t[keep]
            if not idx.size:
                break
        step = np.searchsorted(rel_cum, rng.random(idx.size), side="right")
        step = np.minimum(step, len(rel_offs) - 1)
        y = (y + rel_offs[step] + N) % side - N
    return out


def pairwise_torus_experiment(N: int, walk: WalkSpec, kernel: RateKernel,
                              replicas: int = 2000, seed: int = 0,
                              separation=None,
                              kappa_value: float | None = None) -> DistributionComparison:
    """Rescaled first-coalescence time of two separated blocks vs Exp(kappa)."""
    d = walk.dimension
    lam22 = kernel.lambda_bk(2, 2)
    kappa_info = None
    if kappa_value is None:
        kappa_info = _kappa_info(walk, kernel, seed + 1)
        kappa_value = kappa_info["kappa"]
    times = pairwise_first_coalescence_times(N, walk, lam22, replicas, seed,
                                             separation)
    rescaled = times / (2 * N + 1) ** d
    ks = sp_stats.kstest(rescaled, "expon", args=(0.0, 1.0 / kappa_value))
    return DistributionComparison(
        empirical={}, reference={}, ks_stat=float(ks.statistic),
        tv_distance=None, chi2_pvalue=float(ks.pvalue), sample_size=replicas,
        extras={
            "kappa": kappa_value,
            "fitted_rate": 1.0 / float(np.mean(rescaled)),
            "mean_rescaled_time": float(np.mean(rescaled)),
            "kappa_info": kappa_info or {},
            "rescaled_times": rescaled,
        })


# ----------------------------------------------------------------------
# block-count limit on the torus
# ----------------------------------------------------------------------

def block_count_limit_experiment(N: int, walk: WalkSpec, kernel: RateKernel,
                                 n_per_site: int, times, replicas: int = 500,
                                 seed: int = 0,
                                 kappa_value: float | None = None,
                                 event_budget: int | None = None) -> dict:
    """Empirical law of the block count at rescaled times vs the exact
    Kingman entrance law at kappa*t; plus a two-time joint comparison
    against the exact two-time law.  `stats` holds the wall time of each
    phase."""
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must increase")
    d = walk.dimension
    vol = (2 * N + 1) ** d
    t0 = time.perf_counter()
    if kappa_value is None:
        kappa_value = _kappa_info(walk, kernel, seed + 1)["kappa"]
    t1 = time.perf_counter()
    geo = build_torus(N, walk)
    probe_times = tuple(float(t) * vol for t in times)
    seeds = spawn_seeds(seed, replicas)
    init = singletons_per_site(geo, n_per_site)

    if event_budget is not None:
        pilot = simulate(init, SimulationConfig(
            kernel=kernel, geography=geo, horizon=max(probe_times),
            seed=seeds[0], record_events=True, track_elements=False,
            probe_times=probe_times))
        projected = len(pilot.events) * replicas
        if projected > event_budget:
            raise BudgetExceeded(
                f"projected {projected} events exceeds budget {event_budget}",
                projected=projected, budget=event_budget)

    samples = np.empty((replicas, len(probe_times)), dtype=np.int64)
    for i, s in enumerate(seeds):
        rec = simulate(init, SimulationConfig(
            kernel=kernel, geography=geo, horizon=max(probe_times), seed=s,
            record_events=False, track_elements=False,
            probe_times=probe_times))
        for j, (_pt, c) in enumerate(rec.probes):
            samples[i, j] = c
    t2 = time.perf_counter()

    comparisons = []
    for j, t in enumerate(times):
        ref = kingman_entrance_reference(kappa_value * float(t))
        emp = _counts_to_dist(samples[:, j])
        comparisons.append(DistributionComparison(
            empirical=emp, reference=ref, ks_stat=None,
            tv_distance=_tv(emp, ref), chi2_pvalue=None,
            sample_size=replicas, extras={"t": float(t)}))

    joint_p = None
    if len(times) >= 2:
        gap = kappa_value * float(times[1]) - kappa_value * float(times[0])
        joint = kingman_entrance_joint_law(comparisons[0].reference, gap)
        joint_p = _joint_chi2(samples[:, :2], joint)
    t3 = time.perf_counter()

    return {
        "kappa": kappa_value,
        "per_time": comparisons,
        "joint_chi2_pvalue": joint_p,
        "samples": samples,
        "stats": {"kappa_s": t1 - t0, "sampling_s": t2 - t1,
                  "reference_s": t3 - t2},
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
    return float(sp_stats.chisquare(obs, exp).pvalue)


# ----------------------------------------------------------------------
# few-block partition structure on the torus (vectorized sampler)
# ----------------------------------------------------------------------

# Free migration in few_block_torus_sample: steps drawn per replica at once,
# and the most cells one (replicas x steps) array may hold; replicas are
# sliced to fit, and 2^15 int64 cells (256 KB) keep a slice's arrays in cache.
_CHUNK_STEPS = 256
_CHUNK_CELLS = 1 << 15


class _TorusWalk:
    """The walk on the torus [-N, N]^d, whose sites are integer keys
    sum_i ((x_i + N) mod side) side^i: one step at a time, or a chunk of free
    migration at once.

    A chunk keeps each coordinate, shifted by `bias`, in its own bit field
    of a packed int64, so that a block's path is one cumulative sum of packed
    steps; a chunk is short enough that no field leaves [0, 2^width).
    """

    def __init__(self, N: int, walk: WalkSpec):
        d = walk.dimension
        self.side = 2 * N + 1
        self.pows = self.side ** np.arange(d, dtype=np.int64)
        self.offsets = walk.offsets_array
        if np.any(np.all(self.offsets % self.side == 0, axis=1)):
            raise ValueError("a walk step wraps onto the same site; torus too small")
        # a uniform u selects step #{cuts <= u}; the last cumulative
        # probability (1 up to rounding) is left out so u cannot overrun
        self.cuts = np.cumsum(walk.probs_array)[:-1]
        reach = int(np.max(np.abs(self.offsets)))
        self.steps = min(_CHUNK_STEPS,
                         ((1 << (62 // d)) - self.side) // (2 * reach))
        if self.steps < 1:
            raise SizeOverflow(f"a {d}-dimensional torus of side {self.side} "
                               "does not fit the packed chunk coordinates")
        self.bias = self.steps * reach
        width = (self.side + 2 * self.bias - 1).bit_length()
        self.shifts = width * np.arange(d, dtype=np.int64)
        self.field = (1 << width) - 1
        self.packed_steps = (self.offsets << self.shifts).sum(axis=1)
        # packed field value -> that coordinate's share of the site key
        wrapped = (np.arange(1 << width) - self.bias) % self.side
        self.unpack = [wrapped * p for p in self.pows]

    def site_of(self, coords) -> np.ndarray:
        return ((np.asarray(coords) % self.side) * self.pows).sum(axis=-1)

    def draw_steps(self, rng, shape) -> np.ndarray:
        u = rng.random(shape)
        step = np.zeros(shape, dtype=np.intp)
        for cut in self.cuts:
            step += u >= cut
        return step

    def move(self, sites, steps) -> np.ndarray:
        coords = sites[:, None] // self.pows % self.side
        return self.site_of(coords + self.offsets[steps])

    def walk_apart(self, rng, sites, alive, t, rows) -> None:
        """Advance replicas `rows`, none of which has two alive blocks on one
        site, by pure migration up to each one's first co-location, or by
        `steps` steps if there is none.  Updates sites and t in place."""
        per_slice = max(1, _CHUNK_CELLS // self.steps)
        for lo in range(0, rows.size, per_slice):
            self._chunk(rng, sites, alive, t, rows[lo:lo + per_slice])

    def _chunk(self, rng, sites, alive, t, rows) -> None:
        r, K = rows.size, self.steps
        live = alive[rows]
        m = live.sum(axis=1)
        # slot s of a replica is its s-th alive block; dead slots never move
        order = np.argsort(~live, axis=1, kind="stable")
        start = sites[rows[:, None], order][:, :, None] // self.pows % self.side
        packed = ((start + self.bias) << self.shifts).sum(axis=2)
        mover = (rng.random((r, K)) * m[:, None]).astype(np.intp)
        moves = self.packed_steps[self.draw_steps(rng, (r, K))]
        paths = []                            # site key of each slot per step
        lands = np.zeros((r, K), dtype=np.int64)   # site key of the mover
        for s in range(int(m.max())):
            moved = mover == s
            path = moves * moved
            np.cumsum(path, axis=1, out=path)
            path += packed[:, s, None]
            key = self.unpack[0][path & self.field]
            for shift, unpack in zip(self.shifts[1:], self.unpack[1:]):
                key += unpack[(path >> shift) & self.field]
            lands += key * moved
            paths.append(key)
        # blocks on the mover's new site, the mover included; only the
        # mover can create the first co-location
        count = np.zeros((r, K), dtype=np.int8)
        for s, key in enumerate(paths):
            same = key == lands
            if s >= m.min():
                same &= (s < m)[:, None]
            count += same
        met = count > 1
        taken = np.where(met.any(axis=1), met.argmax(axis=1) + 1, K)
        last = (np.arange(r), taken - 1)
        for s, key in enumerate(paths):
            sites[rows, order[:, s]] = key[last]
        # holding times are Exp(m) and independent of the jump chain, so the
        # time of `taken` steps is one Gamma(taken, 1/m) draw
        t[rows] += rng.gamma(taken, 1.0 / m)


def few_block_torus_sample(N: int, walk: WalkSpec, kernel: RateKernel,
                           start_positions, replicas: int, seed: int):
    """Jump-chain simulation of n separated blocks on the torus, exact in
    law.  Returns per-replica merge logs [(time, participants, merge_size),
    ...]; participants are frozensets of original block indices.

    While no two alive blocks of a replica share a site, its chain is pure
    migration (Exp(m_alive) holding times, a uniform alive block, a step
    from the walk), and it advances a chunk of steps at once up to its first
    co-location.  Replicas with co-located blocks advance one event at a
    time, all in lockstep.
    """
    start = np.asarray(start_positions, dtype=np.int64)
    n = start.shape[0]
    kernel.ensure_b(n)
    lam_tab = kernel.lambda_table(n)
    merge_cums = {b: kernel.merge_size_cumulative(b) for b in range(2, n + 1)}
    torus = _TorusWalk(N, walk)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sites = np.tile(torus.site_of(start + N), (replicas, 1))   # (R, n)
    alivemask = np.ones((replicas, n), dtype=bool)
    groups = [[frozenset([j]) for j in range(n)] for _ in range(replicas)]
    t = np.zeros(replicas)
    logs: list[list] = [[] for _ in range(replicas)]
    idx = np.arange(replicas)
    # dead blocks get unique negative keys so they never collide
    dead_key = -(np.arange(n) + 1)

    while idx.size:
        key = np.where(alivemask, sites, dead_key)
        eq = key[:, :, None] == key[:, None, :]
        cnt = eq.sum(axis=2)
        crowded = (cnt > 1).any(axis=1)
        torus.walk_apart(rng, sites, alivemask, t, np.flatnonzero(~crowded))

        rows = np.flatnonzero(crowded)
        live = alivemask[rows]
        lam_per_block = np.where(live, lam_tab[cnt[rows]] / cnt[rows], 0.0)
        coal_rate = lam_per_block.sum(axis=1)
        m_alive = live.sum(axis=1)
        total = coal_rate + m_alive
        t[rows] += rng.exponential(1.0, size=rows.size) / total
        u = rng.random(rows.size) * total
        coal = u < coal_rate

        for j in np.nonzero(coal)[0]:
            r = rows[j]
            gi = int(idx[r])
            # block selection with weight lam(b)/b picks its site with
            # weight lam(b); then merge k of the b co-located blocks
            pick = np.searchsorted(np.cumsum(lam_per_block[j]), u[j], side="right")
            pick = min(int(pick), n - 1)
            members = np.nonzero(eq[r, pick] & alivemask[r])[0]
            b = len(members)
            k = 2 + int(np.searchsorted(merge_cums[b], rng.random(), side="right"))
            k = min(k, b)
            chosen = rng.choice(members, size=k, replace=False)
            chosen = sorted(int(c) for c in chosen)
            survivor = chosen[0]
            parts = frozenset().union(*(groups[gi][c] for c in chosen))
            logs[gi].append((float(t[r]),
                             tuple(groups[gi][c] for c in chosen), k))
            groups[gi][survivor] = parts
            for c in chosen[1:]:
                alivemask[r, c] = False

        mig = ~coal
        if np.any(mig):
            movers = rows[mig]
            # uniform alive block per migrating replica
            target = np.floor(u[mig] - coal_rate[mig]).astype(np.int64) + 1
            target = np.clip(target, 1, m_alive[mig])
            cs = np.cumsum(live[mig], axis=1)
            blocksel = (cs >= target[:, None]).argmax(axis=1)
            steps = torus.draw_steps(rng, movers.size)
            sites[movers, blocksel] = torus.move(sites[movers, blocksel], steps)

        done = alivemask.sum(axis=1) <= 1
        if np.any(done):
            keep = ~done
            idx, sites, alivemask, t = idx[keep], sites[keep], alivemask[keep], t[keep]
    return logs


def partition_structure_experiment(N: int, walk: WalkSpec, kernel: RateKernel,
                                   n_blocks: int, replicas: int = 3000,
                                   seed: int = 0,
                                   kappa_value: float | None = None) -> dict:
    """Three marginals of the few-block limit: inter-coalescence times,
    uniformity of the merging pair, and the binary-merge fraction."""
    d = walk.dimension
    vol = (2 * N + 1) ** d
    if kappa_value is None:
        kappa_value = _kappa_info(walk, kernel, seed + 1)["kappa"]
    # mutually separated starts on the scale a_N = N^(3/4)
    gap = max(int(math.ceil(N ** 0.75)), 1)
    starts = []
    for j in range(n_blocks):
        p = [0] * d
        p[j % d] = gap if j < d else -gap
        if j == 0:
            p = [0] * d
        starts.append(p)
    logs = few_block_torus_sample(N, walk, kernel, starts, replicas, seed)

    # (a) inter-coalescence times per stage
    stage_times = [[] for _ in range(n_blocks - 1)]
    first_pair_counts: dict = {}
    merges_total = 0
    merges_multi = 0
    for log in logs:
        prev = 0.0
        for stage, (tm, parts, k) in enumerate(log):
            if stage < n_blocks - 1:
                stage_times[stage].append((tm - prev) / vol)
            prev = tm
            merges_total += 1
            if k > 2:
                merges_multi += 1
        if log:
            _t0, parts0, _k0 = log[0]
            pair = tuple(sorted(min(p) for p in parts0))
            first_pair_counts[pair] = first_pair_counts.get(pair, 0) + 1

    stage_reports = []
    for stage, vals in enumerate(stage_times):
        if not vals:
            continue
        remaining = n_blocks - stage
        rate = kappa_value * remaining * (remaining - 1) / 2.0
        ks = sp_stats.kstest(np.asarray(vals), "expon", args=(0.0, 1.0 / rate))
        stage_reports.append({
            "stage": stage + 1, "reference_rate": rate,
            "ks_stat": float(ks.statistic), "ks_pvalue": float(ks.pvalue),
            "mean": float(np.mean(vals)), "count": len(vals),
        })

    # (b) chi-square of the first merging pair against uniform
    pairs = sorted({(i, j) for i in range(n_blocks) for j in range(n_blocks)
                    if i < j})
    observed = np.array([first_pair_counts.get(p, 0) for p in pairs])
    total_first = int(observed.sum())
    chi2_p = float(sp_stats.chisquare(observed).pvalue) if total_first else None

    return {
        "kappa": kappa_value,
        "stages": stage_reports,
        "first_pair_counts": {str(p): int(c)
                              for p, c in sorted(first_pair_counts.items())},
        "pair_uniformity_pvalue": chi2_p,
        "multi_merge_fraction": merges_multi / max(merges_total, 1),
        "merges_total": merges_total,
        "replicas": replicas,
    }


# ----------------------------------------------------------------------
# class-split coupling and decay shape
# ----------------------------------------------------------------------

def class_coupling_check(geography, kernel: RateKernel, class_split, t: float,
                         replicas: int = 100, seed: int = 0) -> dict:
    """Pathwise domination #full(t) <= sum_j #class_j(t) at all event times,
    via the shared-stream coupled simulation."""
    upsilon = geography.size
    # the full initial state; classes are element subsets of it
    all_elems = sorted(set().union(*[set(c) for c in class_split]))
    n = len(all_elems)
    if all_elems != list(range(1, n + 1)):
        raise ValueError("class split must cover 1..n")
    full = engine_mod.singletons_at([e % upsilon for e in range(n)])
    variants = [full] + [full.restrict_to(set(c)) for c in class_split]
    seeds = spawn_seeds(seed, replicas)
    violations = 0
    for s in seeds:
        outs = engine_mod.coupled_simulate(variants, SimulationConfig(
            kernel=kernel, geography=geography, horizon=t, seed=s))
        full_series = outs[0][1]
        class_series = [o[1] for o in outs[1:]]
        for step in range(len(full_series)):
            lhs = full_series[step][1].block_count()
            rhs = sum(cs[step][1].block_count() for cs in class_series)
            if lhs > rhs:
                violations += 1
                break
    return {"replicas": replicas, "violations": violations,
            "domination_fraction": 1.0 - violations / replicas}


def block_decay_shape(kernel: RateKernel, walk: WalkSpec, N_values, t_grid,
                      replicas: int = 50, seed: int = 0) -> dict:
    """sup over a (t, N) grid of E[#blocks(t)] * t / #blocks(0); bounded for
    coalescents that come down uniformly."""
    stats = {}
    sup_stat = 0.0
    for N in N_values:
        geo = build_torus(N, walk)
        n0 = geo.size  # one singleton per site
        probes = tuple(t_grid)
        seeds = spawn_seeds(seed, replicas)
        sums = {p: 0.0 for p in probes}
        init = singletons_per_site(geo, 1)
        for s in seeds:
            rec = simulate(init, SimulationConfig(
                kernel=kernel, geography=geo, horizon=max(probes), seed=s,
                record_events=False, track_elements=False, probe_times=probes))
            for p, c in rec.probes:
                sums[p] += c
        for p in probes:
            mean = sums[p] / replicas
            stat = mean * p / n0
            stats[(N, p)] = stat
            sup_stat = max(sup_stat, stat)
    return {"per_cell": {f"N={N},t={p}": v for (N, p), v in stats.items()},
            "sup_statistic": sup_stat}
