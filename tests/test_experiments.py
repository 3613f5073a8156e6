import ctypes
import math
import os
import signal
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from scipy import stats as sp_stats

from spatial_coalescent import engine, experiments
from spatial_coalescent.errors import BudgetExceeded, TruncationUnstable
from spatial_coalescent.experiments import (
    block_count_limit_experiment,
    block_decay_shape,
    class_coupling_check,
    estimate_Tnk,
    few_block_torus_sample,
    kingman_entrance_joint_law,
    kingman_entrance_reference,
    pairwise_torus_experiment,
    partition_structure_experiment,
    spawn_seeds,
    stay_infinite_trend,
)
from spatial_coalescent.geometry import (
    WalkSpec,
    complete_graph,
    green_function,
    kappa,
    simple_walk,
    single_site,
)
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel
import green_oracle
import torus_oracle
from conftest import run_python
from torus_oracle import (BiasedPaths, ReferenceWalk,
                          pairwise_first_coalescence_times)

KAPPA_D3_UNIT = 0.5687658867  # 2 / (G + 2) for the nearest-neighbor walk

# an axis walk with drift along e_1; its symmetrization is the axis walk
# with +-e_1 0.2 each
DRIFTED = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                       (0, 0, 1), (0, 0, -1)),
                   (0.3, 0.1, 0.15, 0.15, 0.15, 0.15))
# the simple walk with a self-loop of 1/2
LAZY = WalkSpec(3, ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)), (0.5,) + (1 / 12,) * 6)
DIAGONAL = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1), (1, 1, 0), (-1, -1, 0)),
                    (0.125,) * 8)


@pytest.fixture(scope="module")
def kingman():
    return RateKernel(LambdaMeasure.unit_atom(0.0))


# ---------------------------------------------------------------- seeding

def test_spawn_seeds_deterministic():
    assert spawn_seeds(42, 5) == spawn_seeds(42, 5)
    assert spawn_seeds(42, 5) != spawn_seeds(43, 5)
    assert len(set(spawn_seeds(0, 100))) == 100


# ---------------------------------------------------------------- p-values

def _durbin_sf_exact(n: int, x: float) -> Fraction:
    """P(D_n >= x) from Durbin's matrix in exact rationals: 1 - (n!/n^n)
    (H^n)_kk for n x = k - h, the entries of H over one common integer
    denominator q^m m! (h = p/q), (H^n)_kk by n vector products."""
    x = Fraction(x)
    t = n * x
    if t <= Fraction(1, 2):
        return Fraction(1)
    k = math.ceil(t)
    h = k - t
    p, q = h.numerator, h.denominator
    m = 2 * k - 1
    m_fact = math.factorial(m)

    def entry(i, j):   # the entry times q^m m!
        lag = i - j + 1
        if lag < 0:
            return 0
        if (i, j) == (m - 1, 0):
            return q ** m - 2 * p ** m + max(2 * p - q, 0) ** m
        if j == 0 or i == m - 1:
            return ((q ** lag - p ** lag) * q ** (m - lag)
                    * (m_fact // math.factorial(lag)))
        return q ** m * (m_fact // math.factorial(lag))

    H = [[entry(i, j) for j in range(m)] for i in range(m)]
    row = [int(j == k - 1) for j in range(m)]
    for _ in range(n):
        row = [sum(row[i] * H[i][j] for i in range(m)) for j in range(m)]
    return 1 - Fraction(row[k - 1] * math.factorial(n),
                        (q ** m * m_fact) ** n * n ** n)


def _branch_points(n: int) -> list[float]:
    """x in each branch of _kolmogorov_sf: n x <= 1/2, n x <= 1, n x^2 <= 4
    (Durbin's matrix), n x^2 > 4 and x >= 1/2 (2 smirnov), where they lie
    in (0, 1)."""
    xs = [0.4 / n, 0.8 / n, math.sqrt(0.5 / n), math.sqrt(2.0 / n),
          math.sqrt(3.5 / n), math.sqrt(4.5 / n), math.sqrt(6.0 / n), 0.5, 0.7]
    return sorted({x for x in xs if 0.0 < x < 1.0})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 10, 13, 17, 20, 25])
def test_kolmogorov_sf_matches_exact_durbin_matrix(n):
    for x in _branch_points(n):
        ref = _durbin_sf_exact(n, x)
        got = experiments._kolmogorov_sf(n, x)
        assert abs(Fraction(got) - ref) <= 1e-12 * ref, (n, x, got, float(ref))


@pytest.mark.parametrize("n", [17, 20, 23, 25])
def test_kolmogorov_sf_at_durbin_edge_within_float_error(n):
    # at n x^2 = 4, the last point of Durbin's matrix, P is near 3e-4 and
    # 1 - cdf loses digits: the error stays within n eps / P relative
    x = 2.0 / math.sqrt(n)
    ref = _durbin_sf_exact(n, x)
    got = experiments._kolmogorov_sf(n, x)
    assert abs(Fraction(got) - ref) <= n * np.finfo(float).eps, (n, got)


def test_kolmogorov_sf_matches_kstwo():
    for n in range(1, 141):
        for x in _branch_points(n):
            assert experiments._kolmogorov_sf(n, x) == pytest.approx(
                sp_stats.kstwo.sf(x, n), rel=1e-10, abs=0.0), (n, x)
    # above n = 140 kstwo takes the Pelz-Good approximation in places
    for n in (141, 1000, 3000):
        for x in _branch_points(n) + [0.9 / math.sqrt(n), 1.3 / math.sqrt(n)]:
            assert experiments._kolmogorov_sf(n, x) == pytest.approx(
                sp_stats.kstwo.sf(x, n), rel=5e-5, abs=0.0), (n, x)


def test_kolmogorov_sf_limits():
    assert experiments._kolmogorov_sf(10, 0.0) == 1.0
    assert experiments._kolmogorov_sf(10, 0.05) == 1.0     # n x = 1/2
    assert experiments._kolmogorov_sf(10, 1.0) == 0.0
    # D_1 = max(U, 1 - U) >= x with probability 2 (1 - x) for x >= 1/2
    assert experiments._kolmogorov_sf(1, 0.75) == 0.5


@pytest.mark.parametrize("n", [30, 100, 3000])
def test_ks_expon_statistic_is_kstest(n):
    rng = np.random.default_rng(n)
    vals = rng.exponential(0.8, size=n)
    stat, p = experiments._ks_expon(vals, 0.75)
    ref = sp_stats.kstest(vals, "expon", args=(0.0, 0.75))
    assert stat == ref.statistic
    assert p == pytest.approx(ref.pvalue, rel=5e-5 if n > 140 else 1e-10)


def test_chisquare_p_is_scipy_chisquare():
    obs = np.array([16, 18, 16, 14, 12, 12, 0, 3])
    assert experiments._chisquare_p(obs) == sp_stats.chisquare(obs).pvalue
    exp = [15.5, 17.25, 16, 14, 12.25, 12, 1.0, 3.0]
    assert (experiments._chisquare_p(obs, exp)
            == sp_stats.chisquare(obs, exp).pvalue)
    with pytest.raises(ValueError, match="differ"):
        experiments._chisquare_p(obs, [x + 0.5 for x in exp])


def test_confidence_quantile_is_norm_ppf(kingman):
    for conf in (0.5, 0.9, 0.95, 0.99):
        assert special.ndtri(0.5 + conf / 2.0) == sp_stats.norm.ppf(
            0.5 + conf / 2.0)
    rep = estimate_Tnk(3, 2, single_site(), kingman, replicas=10, seed=1)
    mean, se = rep["point_estimate"], rep["std_error"]
    assert se > 0.0 and rep["confidence"] == 0.95
    z = sp_stats.norm.ppf(0.975)
    assert rep["ci"] == [mean - z * se, mean + z * se]


def test_stay_infinite_trend_one_replica_has_no_std_error(kingman):
    res = stay_infinite_trend(kingman, complete_graph(2), [4, 8], 0.5,
                              replicas=1, seed=1)
    assert all(se is None for per_t in res["per_n"].values()
               for _mean, se in per_t.values())


# every experiment entry point and its small valid arguments besides the
# kernel and the seed; `bad` replaces the argument under test
_ENTRY_POINTS = {
    "tnk": (estimate_Tnk, dict(n=2, k=2, geography=complete_graph(2))),
    "trend": (stay_infinite_trend, dict(geography=complete_graph(2),
                                        n_grid=[2, 4], t_probe=0.5)),
    "pairwise": (pairwise_torus_experiment, dict(N=2, walk=simple_walk(3))),
    "block-count": (block_count_limit_experiment,
                    dict(N=1, walk=simple_walk(3), n_per_site=1, times=[0.5])),
    "structure": (partition_structure_experiment,
                  dict(N=2, walk=simple_walk(3), n_blocks=3)),
    "few-block": (few_block_torus_sample,
                  dict(N=2, walk=simple_walk(3),
                       start_positions=[[0, 0, 0], [2, 0, 0]], replicas=2)),
    "coupling": (class_coupling_check,
                 dict(geography=single_site(), class_split=[[1, 2]], t=1.0)),
    "decay": (block_decay_shape,
              dict(walk=simple_walk(3), N_values=[1], t_grid=[0.5])),
}
_KAPPA_TAKERS = ("pairwise", "block-count", "structure")


@pytest.mark.parametrize("entry, bad", [
    *((e, {"replicas": r}) for e in _ENTRY_POINTS
      for r in (0, math.nan, 2.5)),
    *((e, {"kappa_value": kv}) for e in _KAPPA_TAKERS
      for kv in (-1.0, 0.0, math.inf, math.nan)),
    # the counts the CLI's config check holds to integers of a least value
    *(("tnk", {name: v}) for name in ("n", "k") for v in (1, 2.5, math.nan)),
    ("trend", {"n_grid": [0, 4]}),
    ("trend", {"n_grid": [2, 2.5]}),
    ("trend", {"n_grid": [4, 4]}),
    ("block-count", {"n_per_site": 0}),
    ("block-count", {"n_per_site": 2.5}),
    ("structure", {"n_blocks": 1}),
    ("structure", {"n_blocks": 2.5}),
    *((e, {"N": v}) for e in _KAPPA_TAKERS for v in (0, 2.5)),
    ("decay", {"N_values": [1, 2.5]}),
    *(("few-block", {"N": v}) for v in (0, 2.5)),
    # n >= 1 rows of d integer coordinates
    *(("few-block", {"start_positions": v})
      for v in ([], [0, 0, 0], [[0, 0], [2, 0]], [[0, 0, 0.5]])),
], ids=lambda v: (v if isinstance(v, str)
                  else "-".join(f"{k}={x}" for k, x in v.items())))
def test_experiments_reject_bad_replicas_and_kappa(kingman, entry, bad):
    # unchecked, kappa -1 gives a KS statistic of 4173.6, kappa 0 a
    # ZeroDivisionError, kappa inf a KS statistic of 1.0, a NaN replica
    # count or n a TypeError, n_grid [0, 4] a growth exponent of 0.0 and
    # n_per_site 0 an empirical law of {0: 1.0}
    fn, args = _ENTRY_POINTS[entry]
    name = next(iter(bad))
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        fn(kernel=kingman, seed=1, **{**args, **bad})


def test_structure_two_blocks_has_no_pair_uniformity(kingman):
    res = partition_structure_experiment(3, simple_walk(3), kingman, 2,
                                         replicas=20, seed=1,
                                         kappa_value=KAPPA_D3_UNIT)
    assert res["first_pair_counts"] == {"(0, 1)": 20}
    assert res["pair_uniformity_pvalue"] is None


# ---------------------------------------------------------------- T_n^(k)

def test_hitting_time_zero_when_already_there(kingman):
    rep = estimate_Tnk(2, 2, complete_graph(3), kingman, replicas=10, seed=1)
    assert rep["point_estimate"] == 0.0
    assert rep["std_error"] == 0.0


def test_hitting_time_single_site_oracle(kingman):
    # from 100 singletons to 2 blocks: sum_{b=3}^{100} 2/(b(b-1)) = 0.98
    rep = estimate_Tnk(100, 2, single_site(), kingman, replicas=1500, seed=3)
    oracle = 2 * (1 / 2 - 1 / 100)
    assert abs(rep["point_estimate"] - oracle) <= 3 * rep["std_error"]
    lo, hi = rep["ci"]
    assert lo <= rep["point_estimate"] <= hi
    assert rep["extras"]["uniform_bound"] == pytest.approx(4.0, abs=1e-3)


def test_hitting_time_warns_when_staying_infinite():
    leb = RateKernel(LambdaMeasure.lebesgue())
    rep = estimate_Tnk(5, 2, single_site(), leb, replicas=20, seed=2)
    assert rep["extras"].get("warning") == "STAYS_INFINITE_WARNING"
    # no finite bound exists, and report.json holds no infinity
    assert rep["extras"]["uniform_bound"] is None


def test_stay_infinite_trend_lebesgue_grows():
    leb = RateKernel(LambdaMeasure.lebesgue())
    res = stay_infinite_trend(leb, single_site(), [50, 200, 800], 0.2,
                              replicas=120, seed=5)
    means = [res["per_n"][n][0.2][0] for n in (50, 200, 800)]
    assert means[0] < means[1] < means[2]
    assert res["growth_exponent"] > 0.2


def test_stay_infinite_trend_kingman_saturates(kingman):
    res = stay_infinite_trend(kingman, single_site(), [100, 800], 0.5,
                              replicas=150, seed=6)
    m1, se1 = res["per_n"][100][0.5]
    m2, se2 = res["per_n"][800][0.5]
    assert abs(m1 - m2) <= 3 * math.sqrt(se1 ** 2 + se2 ** 2) + 0.5


# ---------------------------------------------------------------- entrance law

def _death_chain_counts(taus, n0: int, replicas: int, seed: int) -> np.ndarray:
    """Monte Carlo oracle: block counts of the unit-rate pairwise coalescent
    started from n0 singletons, sampled at each time in taus.  Returns
    (replicas, len(taus))."""
    rng = np.random.default_rng(seed)
    taus = np.asarray(taus, dtype=float)
    out = np.empty((replicas, len(taus)), dtype=np.int64)
    bs = np.arange(n0, 1, -1)
    rates = bs * (bs - 1) / 2.0
    chunk = max(1, int(4e6 // max(n0, 1)))
    row = 0
    while row < replicas:
        m = min(chunk, replicas - row)
        waits = rng.exponential(1.0, size=(m, n0 - 1)) / rates
        cum = np.cumsum(waits, axis=1)
        for j, tau in enumerate(taus):
            drops = (cum <= tau).sum(axis=1)
            out[row:row + m, j] = n0 - drops
        row += m
    return out


# criterion 8's reference times kappa/2 and kappa for the unit simple walk
ORACLE_TIMES = (0.284, 0.569)


@pytest.fixture(scope="module")
def death_chain_sample():
    # a start of 10,000 lags dust by about 1e-3 in total variation at these
    # times, well under the sampling noise of 60,000 replicas
    return _death_chain_counts(ORACLE_TIMES, 10_000, 60_000, seed=3)


def test_entrance_law_collapses_for_large_t():
    ref = kingman_entrance_reference(20.0)
    assert ref.get(1, 0.0) > 0.99


def test_entrance_law_small_t_mean():
    t = 0.01
    ref = kingman_entrance_reference(t)
    mean = sum(k * p for k, p in ref.items())
    assert mean == pytest.approx(2.0 / t, rel=0.05)


def test_entrance_law_tail_monotone_in_t():
    r1 = kingman_entrance_reference(0.5)
    r2 = kingman_entrance_reference(1.0)
    for k in (2, 3, 4, 6):
        tail1 = sum(p for c, p in r1.items() if c >= k)
        tail2 = sum(p for c, p in r2.items() if c >= k)
        assert tail2 <= tail1 + 0.01


def test_entrance_series_matches_simulation(death_chain_sample):
    # the exact law against the death-chain oracle: the total variation of
    # an empirical law from its own law has mean about 0.4 of the summed
    # per-cell standard deviations, which is the bound
    replicas = len(death_chain_sample)
    for j, t in enumerate(ORACLE_TIMES):
        exact = kingman_entrance_reference(t)
        sim = experiments._counts_to_dist(death_chain_sample[:, j])
        tv = 0.5 * sum(abs(exact.get(k, 0.0) - sim.get(k, 0.0))
                       for k in set(exact) | set(sim))
        noise = sum(math.sqrt(p * (1.0 - p) / replicas) for p in exact.values())
        assert tv <= noise, (t, tv, noise)


def test_entrance_joint_law_matches_death_chain_oracle(death_chain_sample):
    t1, t2 = ORACLE_TIMES
    joint = kingman_entrance_joint_law(kingman_entrance_reference(t1), t2 - t1)
    assert experiments._joint_chi2(death_chain_sample, joint) > 1e-3


@pytest.mark.parametrize("t", [0.01, 0.05, 0.284, 0.569, 20.0])
def test_entrance_law_mass_is_one(t):
    assert abs(sum(kingman_entrance_reference(t).values()) - 1.0) <= 1e-12


def test_entrance_joint_law_marginals_are_entrance_laws():
    t1, t2 = ORACLE_TIMES
    joint = kingman_entrance_joint_law(kingman_entrance_reference(t1), t2 - t1)
    for axis, t in enumerate((t1, t2)):
        marginal = {}
        for pair, p in joint.items():
            marginal[pair[axis]] = marginal.get(pair[axis], 0.0) + p
        exact = kingman_entrance_reference(t)
        for k in set(marginal) | set(exact):
            assert marginal.get(k, 0.0) == pytest.approx(exact.get(k, 0.0),
                                                         rel=0.0, abs=1e-12)
    assert all(j <= i for i, j in joint)


def test_entrance_law_raises_when_digits_run_out(monkeypatch):
    # five guard digits lose about 1e-6 of the mass to cancellation; the
    # law reports it instead of rescaling to 1
    monkeypatch.setattr(experiments, "_GUARD_DIGITS", 5)
    with pytest.raises(TruncationUnstable, match="mass"):
        kingman_entrance_reference(0.05)


# ---------------------------------------------------------------- pairwise

def test_pairwise_same_site_start_is_faster(kingman):
    w = simple_walk(3)
    sep, same = (pairwise_torus_experiment(4, w, kingman, replicas=600,
                                           seed=11, separation=start,
                                           kappa_value=KAPPA_D3_UNIT)
                 for start in ([4, 0, 0], [0, 0, 0]))
    assert (same["extras"]["mean_rescaled_time"]
            < sep["extras"]["mean_rescaled_time"])


def test_pairwise_rate_increases_with_pair_mass():
    w = simple_walk(3)
    doubled = RateKernel(LambdaMeasure.unit_atom(0.0, 2.0))
    single = RateKernel(LambdaMeasure.unit_atom(0.0))
    c1 = pairwise_torus_experiment(4, w, single, replicas=600, seed=13,
                                   kappa_value=KAPPA_D3_UNIT)
    c2 = pairwise_torus_experiment(4, w, doubled, replicas=600, seed=13,
                                   kappa_value=KAPPA_D3_UNIT)
    assert c2["extras"]["fitted_rate"] > c1["extras"]["fitted_rate"]


def test_pairwise_ks_reasonable_at_small_n(kingman):
    comp = pairwise_torus_experiment(4, simple_walk(3), kingman,
                                     replicas=800, seed=17,
                                     kappa_value=KAPPA_D3_UNIT)
    assert comp["ks_stat"] < 0.08
    assert comp["sample_size"] == 800


@pytest.fixture()
def green_routes(monkeypatch):
    """The Green routes the experiments take, in call order."""
    routes = []

    def recording(walk, method=None):
        routes.append(method)
        return green_function(walk, method)
    monkeypatch.setattr(experiments, "green_function", recording)
    return routes


def test_torus_experiments_take_kappa_from_bessel_for_axis_walks(kingman,
                                                                  green_routes):
    comp = pairwise_torus_experiment(2, simple_walk(3), kingman,
                                     replicas=20, seed=1)
    res = partition_structure_experiment(2, simple_walk(3), kingman, 2,
                                         replicas=20, seed=1)
    assert green_routes == ["BESSEL", "BESSEL"]
    exact = kappa(1.5163860591519809, 1.0)
    assert comp["extras"]["kappa"] == pytest.approx(exact, rel=1e-13)
    assert comp["extras"]["kappa_info"]["G_method"] == "BESSEL"
    assert comp["extras"]["kappa_info"]["G"] == pytest.approx(
        1.5163860591519809, rel=1e-13)
    assert res["kappa"] == comp["extras"]["kappa"]


def test_torus_experiments_take_kappa_from_lattice_sum_for_other_walks(
        kingman, green_routes):
    g, _err = green_function(DIAGONAL, "CUBATURE")
    exact = kappa(g, kingman.lambda_bk(2, 2))
    comp = pairwise_torus_experiment(2, DIAGONAL, kingman, replicas=20, seed=1)
    assert comp["extras"]["kappa_info"]["G_method"] == "CUBATURE"
    assert comp["extras"]["kappa"] == exact
    res = partition_structure_experiment(2, DIAGONAL, kingman, 2,
                                         replicas=20, seed=1)
    assert res["kappa"] == exact
    res = block_count_limit_experiment(1, DIAGONAL, kingman, 2, [0.5],
                                       replicas=5, seed=1)
    assert res["kappa"] == exact
    assert green_routes == ["CUBATURE"] * 3


def test_drifted_walk_takes_kappa_from_its_symmetrization(kingman,
                                                         green_routes):
    # kappa is about the difference of the two blocks, whose steps follow
    # the symmetrized law: an axis walk here, so BESSEL decides it
    comp = pairwise_torus_experiment(2, DRIFTED, kingman, replicas=20, seed=1)
    assert green_routes == ["BESSEL"]
    g, _err = green_function(DRIFTED.symmetrized(), "BESSEL")
    assert comp["extras"]["kappa"] == kappa(g, kingman.lambda_bk(2, 2))
    assert comp["extras"]["kappa"] == pytest.approx(0.5672, abs=1e-4)


def test_torus_kappa_takes_green_of_symmetrized_walk(kingman, monkeypatch):
    walks = []

    def fake_green(walk, method):
        walks.append(walk)
        return 1.5, 0.01
    monkeypatch.setattr(experiments, "green_function", fake_green)
    info = experiments.torus_kappa(DRIFTED, kingman)
    assert walks == [DRIFTED.symmetrized()]
    # the whole record: `pairwise` reports it, so it holds no timings
    assert info == {"G": 1.5, "G_err": 0.01, "G_method": "BESSEL",
                    "lambda22": 1.0, "kappa": kappa(1.5, 1.0)}


SKEW = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                    (0, 0, -1), (1, 1, 0), (-1, -1, 0), (0, 0, 0)),
                (0.15, 0.15) + (0.1,) * 7)
# the Monte Carlo oracle's (G, bound) for SKEW at seeds 0-2, as its first
# form gave them
SKEW_MONTE_CARLO = [(1.6322114345487617, 0.018909651214647438),
                    (1.6362591090762906, 0.019211535365436027),
                    (1.6309662794782327, 0.017987419931061028)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_torus_kappa_lattice_and_monte_carlo_agree_on_skew_walk(kingman, seed):
    # an aperiodic walk that is not an axis walk: its returns at odd steps
    # are part of the tail
    info = green_oracle.torus_kappa(SKEW, kingman, seed=seed)
    assert (info["G_monte_carlo"], info["G_monte_carlo_err"]) == \
        SKEW_MONTE_CARLO[seed]
    assert info["methods_agree"] is True
    assert info["G_method"] == "CUBATURE"
    assert 0.0 < info["G_lattice_err"] <= 1e-10
    assert info["kappa"] == experiments.torus_kappa(SKEW, kingman)["kappa"]


# ---------------------------------------------------------------- block count

def test_block_count_budget_guard(kingman):
    with pytest.raises(BudgetExceeded):
        block_count_limit_experiment(2, simple_walk(3), kingman, 10,
                                     [0.5], replicas=100, seed=1,
                                     kappa_value=KAPPA_D3_UNIT,
                                     event_budget=100)


def test_block_count_budget_projected_from_first_replica(kingman, monkeypatch):
    calls = []
    engine_simulate = experiments.simulate
    monkeypatch.setattr(experiments, "simulate",
                        lambda *a, **kw: calls.append(1) or engine_simulate(*a, **kw))
    args = (2, simple_walk(3), kingman, 10, [0.5])
    # one simulation per replica: the first replica is the budget's pilot
    block_count_limit_experiment(*args, replicas=4, seed=1,
                                 kappa_value=KAPPA_D3_UNIT, event_budget=10**9)
    assert len(calls) == 4
    calls.clear()
    with pytest.raises(BudgetExceeded) as info:
        block_count_limit_experiment(*args, replicas=100, seed=1,
                                     kappa_value=KAPPA_D3_UNIT,
                                     event_budget=100)
    assert len(calls) == 1
    assert info.value.context["budget"] == 100
    assert info.value.context["projected"] % 100 == 0


def test_block_count_small_torus(kingman, monkeypatch):
    built = []
    series = experiments._DecimalSeries
    monkeypatch.setattr(experiments, "_DecimalSeries",
                        lambda t: built.append(t) or series(t))
    res = block_count_limit_experiment(1, simple_walk(3), kingman, 3,
                                       [0.8, 1.6], replicas=150, seed=2,
                                       kappa_value=KAPPA_D3_UNIT)
    # one series per time and one for the gap: the law at the first time
    # is built once and reused by the two-time law
    assert len(built) == 3
    for comp in res["per_time"]:
        assert 0.0 <= comp["tv_distance"] <= 1.0
        assert sum(comp["empirical"].values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(comp["reference"].values()) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= res["joint_chi2_pvalue"] <= 1.0


# ---------------------------------------------------------------- structure

def test_structure_small_case(kingman):
    res = partition_structure_experiment(4, simple_walk(3), kingman, 3,
                                         replicas=250, seed=3,
                                         kappa_value=KAPPA_D3_UNIT)
    assert res["multi_merge_fraction"] == 0.0  # pairwise-only measure
    assert res["merges_total"] == 250 * 2
    assert len(res["stages"]) == 2
    assert res["pair_uniformity_pvalue"] > 1e-4


@pytest.fixture(scope="module")
def relative_times():
    # the relative-walk sampler's first-coalescence times of two blocks 4
    # sites apart on the N = 4 torus, computed once per walk for the tests
    # that compare the few-block sampler with them
    cache = {}

    def times(w):
        if w not in cache:
            cache[w] = pairwise_first_coalescence_times(
                4, w, 1.0, 4000, seed=32, separation=[4, 0, 0])
        return cache[w]
    return times


@pytest.mark.parametrize("w", [simple_walk(3), DRIFTED, LAZY],
                         ids=["simple", "drifted", "lazy"])
def test_few_block_first_coalescence_matches_pairwise_sampler(
        kingman, relative_times, w):
    # distributional check of the chunked few-block sampler, the path of
    # pairwise_torus_experiment: with two blocks its first merge time has
    # the law of the independent relative-walk sampler's first-coalescence
    # time
    logs, _ = few_block_torus_sample(4, w, kingman, [[0, 0, 0], [4, 0, 0]],
                                     replicas=4000, seed=31)
    chunked = np.array([log[0][0] for log in logs])
    assert all(len(log) == 1 and log[0][2] == 2 for log in logs)
    relative = relative_times(w)
    assert sp_stats.ks_2samp(chunked, relative).pvalue > 1e-3


@pytest.mark.parametrize("w", [simple_walk(3), LAZY], ids=["simple", "lazy"])
def test_few_block_long_chunks_match_pairwise_sampler(kingman, relative_times,
                                                      w):
    # calls of fewer than 128 replicas, whose every pass takes chunks of
    # more than 256 steps: pooled, their first merge times have the law of
    # the relative-walk sampler's first-coalescence time
    chunked = [log[0][0] for seed in range(100, 140)
               for log in few_block_torus_sample(
                   4, w, kingman, [[0, 0, 0], [4, 0, 0]], replicas=100,
                   seed=seed)[0]]
    relative = relative_times(w)
    assert sp_stats.ks_2samp(chunked, relative).pvalue > 1e-3


@pytest.mark.parametrize("N, d, apart, calls", [
    (8, 3, 300, [(128, 256), (128, 256), (44, 256)]),
    (8, 3, 128, [(128, 256)]),
    (8, 3, 127, [(127, 258)]),
    (8, 3, 20, [(20, 1638)]),
    (8, 3, 3, [(3, 4096)]),
    (8, 3, 0, []),
    # 10-bit fields hold chunks of at most 505 steps
    (3, 6, 300, [(128, 256), (128, 256), (44, 256)]),
    (3, 6, 3, [(3, 505)]),
])
def test_walk_apart_chunk_length_rule(monkeypatch, N, d, apart, calls):
    # the reference sampler's rule, which the C loop follows (the logs-equal
    # tests compare their chunk counters): a pass of at least 128 apart
    # replicas is sliced into 256-step chunks of 128 replicas; a smaller one
    # is one chunk of about 2^15 cells, up to what the bit fields hold
    torus = ReferenceWalk(N, simple_walk(d))
    seen = []
    monkeypatch.setattr(torus, "chunk", lambda rng, sites, alive, t, rows, K:
                        seen.append((rows.size, K)))
    torus.walk_apart(None, None, None, None, np.arange(apart))
    assert seen == calls


def test_few_block_sample_merges_co_located_starts(kingman):
    # blocks that start on one site take the event-by-event path first
    logs, stats = few_block_torus_sample(3, simple_walk(3), kingman,
                                         [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
                                         replicas=200, seed=4)
    for log in logs:
        assert len(log) == 2
        assert log[0][0] < log[1][0]
        # participants are slots; a merge keeps its smallest slot
        assert set(log[0][1]) | set(log[1][1]) == {0, 1, 2}
    # the pair that starts together merges first more often than the 1/3
    # of a uniform pair (about 60 % here)
    first_pairs = [frozenset(log[0][1]) for log in logs]
    assert first_pairs.count(frozenset({0, 1})) > 90
    # every replica starts crowded, so the first pass has nothing to chunk
    assert stats["lockstep_events"] >= 200
    assert 0 < stats["chunk_cuts"] <= stats["chunk_replicas"]
    assert stats["chunk_steps"] <= (stats["chunk_replicas"]
                                    * experiments._MAX_CHUNK_STEPS)


# a non-axis walk of reach 2 in d = 3 and d = 4
REACH_2 = WalkSpec(3, ((2, 1, 0), (-2, -1, 0), (1, 0, 0), (-1, 0, 0),
                       (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
                   (0.15, 0.15) + (0.7 / 6,) * 6)
REACH_2_D4 = WalkSpec(4, ((0, 1, 2, 0), (0, -1, -2, 0), (1, 0, 0, 0),
                          (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                          (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1),
                          (0, 0, 0, -1)), (0.1, 0.1) + (0.1,) * 8)
# an axis walk whose +-e_1 steps, 5e-4 each, put the cuts 0.4, 0.4005 and
# 0.401 into one 1/256 bucket of the step uniform, which the sampler's step
# table leaves to the cut-by-cut count
RARE_E1 = WalkSpec(3, ((0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0),
                       (0, 0, 1), (0, 0, -1)),
                   (0.2, 0.2, 5e-4, 5e-4, 0.2995, 0.2995))


@pytest.mark.parametrize("N, walk, steps", [
    (3, simple_walk(3), 4096),
    (4, LAZY, 4096),
    (3, REACH_2, 4096),
    # 10-bit fields hold chunks of at most 505 steps
    (3, simple_walk(6), 505),
], ids=["simple-d3", "lazy-d3", "reach2-d3", "simple-d6"])
def test_lockstep_move_equals_biased_path_oracle(N, walk, steps):
    # the reference's lockstep pass wraps a step by the add and mask of the
    # C loop; the oracle wraps a biased path by one table per field: every
    # site after every step must agree
    torus = ReferenceWalk(N, walk)
    assert torus.steps == steps
    d, side = walk.dimension, 2 * N + 1
    coords = np.indices((side,) * d).reshape(d, -1).T
    sites = np.repeat(torus.pack(coords), len(walk.offsets))
    step = np.tile(np.arange(len(walk.offsets)), side ** d)
    moved = torus.move(sites, step)
    assert np.array_equal(moved, BiasedPaths(torus).move(sites, step))
    # and both land where the step takes the coordinates
    ends = coords.repeat(len(walk.offsets), axis=0) + walk.offsets_array[step]
    assert np.array_equal(moved, torus.pack(ends))


def _separated_starts(N, n, d):
    # the starts of partition_structure_experiment
    gap = max(math.ceil(N ** 0.75), 1)
    starts = [[0] * d for _ in range(n)]
    for j in range(1, n):
        starts[j][j % d] = gap if j < d else -gap
    return starts


@pytest.mark.parametrize("N, walk, measure, starts, replicas", [
    (8, simple_walk(3), "kingman", _separated_starts(8, 3, 3), 100),
    (4, LAZY, "beta", _separated_starts(4, 4, 3), 60),
    (3, DRIFTED.symmetrized(), "kingman", _separated_starts(3, 6, 3), 40),
    (4, REACH_2, "beta", _separated_starts(4, 2, 3), 80),
    (3, simple_walk(4), "beta", _separated_starts(3, 3, 4), 40),
    (3, REACH_2_D4, "kingman", _separated_starts(3, 4, 4), 40),
    (4, DRIFTED.symmetrized(), "beta", _separated_starts(4, 2, 3), 80),
    (3, simple_walk(3), "beta",
     [[0, 0, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 2, 2], [0, 0, 0]], 60),
    (4, simple_walk(3), "kingman", [[0, 0, 0]], 30),
    (4, simple_walk(3), "kingman", _separated_starts(4, 2, 3), 300),
    (6, simple_walk(3), "beta", _separated_starts(6, 12, 3), 20),
    (4, RARE_E1, "kingman", _separated_starts(4, 3, 3), 60),
], ids=["simple-N8-n3", "lazy-N4-n4", "drifted-N3-n6", "reach2-N4-n2",
        "simple-d4-N3-n3", "reach2-d4-N3-n4", "drifted-N4-n2",
        "co-located-n6", "one-block", "simple-N4-n2-256-step",
        "simple-N6-n12", "rare-e1-N4-n3"])
def test_few_block_sample_logs_equal_per_block_wrap_oracle(
        N, walk, measure, starts, replicas):
    # the C loop makes the numpy reference's draws in its order, with
    # per_block_wrap_chunk for its chunks, so the logs and counters agree
    # to the bit: the 256-step case starts with passes of 256-step chunks,
    # the others take longer ones throughout; the n = 12 case sums its
    # lambda weights in numpy's pairwise order
    kernel = RateKernel(LambdaMeasure.unit_atom(0.0) if measure == "kingman"
                        else LambdaMeasure.beta(1.5))
    logs, stats = few_block_torus_sample(N, walk, kernel, starts, replicas,
                                         seed=11)
    oracle, oracle_stats = torus_oracle.few_block_torus_sample(
        N, walk, kernel, starts, replicas, seed=11)
    assert logs == oracle
    assert stats == oracle_stats
    assert all(sum(k - 1 for _t, _p, k in log) == len(starts) - 1
               for log in logs)
    assert all(type(v) is int for v in stats.values())   # JSON-ready
    if len(starts) == 1:
        assert logs == [[]] * replicas
        assert stats["lockstep_skipped"] == 1 and stats["lockstep_events"] == 0


def _box_starts(d, n, box, seed=1):
    # n distinct sites of a box of side `box` around the origin, so that
    # some blocks meet in the first chunks
    cells = np.random.default_rng(seed).choice(box ** d, n, replace=False)
    return np.array(np.unravel_index(cells, (box,) * d)).T - box // 2


@pytest.mark.parametrize("N, d, K, n, box, measure, replicas", [
    (8, 3, 256, 3, 4, "kingman", 128),
    (8, 3, 1638, 3, 4, "kingman", 20),
    (8, 3, 4096, 3, 5, "beta", 8),
    (8, 3, 256, 6, 5, "beta", 128),
    (8, 3, 1638, 6, 5, "kingman", 20),
    (8, 3, 4096, 6, 6, "beta", 8),
    # 10-bit fields hold chunks of at most 505 steps
    (3, 6, 505, 3, 2, "kingman", 4),
    (3, 6, 505, 6, 2, "beta", 4),
    # more alive blocks than an int8 mover index holds
    (3, 3, 4096, 130, 7, "beta", 2),
], ids=["d3-K256-m2..3", "d3-K1638-m2..3", "d3-K4096-m2..3",
        "d3-K256-m2..6", "d3-K1638-m2..6", "d3-K4096-m2..6",
        "d6-K505-m2..3", "d6-K505-m2..6", "d3-K4096-m130"])
def test_chunk_equals_per_block_wrap_oracle(monkeypatch, N, d, K, n, box,
                                            measure, replicas):
    # the C loop against the reference, whose chunks are
    # per_block_wrap_chunk, from n blocks at distinct sites of a box, with
    # as many replicas as make the first pass one chunk of K steps: the
    # logs and counters agree to the bit, so the loop's chunks made the
    # oracle's draws in its order and ended where its chunks end, over
    # passes that mix replicas of every alive count from 2 to n
    kernel = RateKernel(LambdaMeasure.unit_atom(0.0) if measure == "kingman"
                        else LambdaMeasure.beta(1.5))
    starts = _box_starts(d, n, box)
    logs, stats = few_block_torus_sample(N, simple_walk(d), kernel, starts,
                                         replicas, seed=5)
    chunks, alive_counts = [], set()
    chunk = ReferenceWalk.chunk

    def counted(torus, rng, sites, alive, t, rows, K):
        chunks.append((rows.size, K))
        alive_counts.update(alive[rows].sum(axis=1).tolist())
        chunk(torus, rng, sites, alive, t, rows, K)

    monkeypatch.setattr(ReferenceWalk, "chunk", counted)
    oracle, oracle_stats = torus_oracle.few_block_torus_sample(
        N, simple_walk(d), kernel, starts, replicas, seed=5)
    assert chunks[0] == (replicas, K)
    assert min(alive_counts) == 2 and max(alive_counts) == n
    assert logs == oracle
    assert stats == oracle_stats
    assert stats["chunk_cuts"] > 0


class _ScriptedDraws:
    """A chunk's draws, scripted: one uniform for every mover, one for every
    step, and the Gamma counts it asks for (it returns 0 times)."""

    def __init__(self, u_mover, u_step):
        self.uniforms = [u_mover, u_step]
        self.taken = None

    def random(self, shape):
        return np.full(shape, self.uniforms.pop(0))

    def gamma(self, taken, scale):
        self.taken = taken.tolist()
        return np.zeros_like(scale)


def test_chunk_cuts_at_a_meeting_on_its_last_step():
    # the reference's chunk, whose counters the C loop's equal in the
    # logs-equal tests (whose runs at seed 11 hold such cuts): block 0 steps +e_1 at every step towards block 1,
    # `gap` sites ahead, so they meet at step gap - 1 (from 0): in a chunk
    # of K = 4 steps the gap-4 replica meets on the last step, a cut of K
    # steps, and the gap-5 one never meets
    torus = ReferenceWalk(4, simple_walk(3))
    gaps, K = [2, 3, 4, 5], 4
    rows = np.arange(len(gaps))
    sites = torus.pack([[[0, 0, 0], [g, 0, 0]] for g in gaps])
    alive = np.ones(sites.shape, dtype=bool)
    # u = 0 moves the first alive block; 0.2 takes step 1 of simple_walk,
    # +e_1
    draws = _ScriptedDraws(0.0, 0.2)
    torus.chunk(draws, sites, alive, np.zeros(len(gaps)), rows, K)
    assert draws.taken == [2, 3, 4, 4]
    assert sites.tolist() == torus.pack(
        [[[g, 0, 0], [g, 0, 0]] for g in (2, 3, 4)]
        + [[[4, 0, 0], [5, 0, 0]]]).tolist()
    assert torus.stats["chunk_cuts"] == 3
    assert torus.stats["chunk_steps"] == 13
    assert torus.stats["chunk_cells"] == 16


def test_few_block_sample_chunk_calls_fall_with_replicas_left(kingman):
    # the benchmark's structure case: its passes hold fewer than 128 apart
    # replicas; 256-step chunks in every pass take 431 calls at this seed
    _, stats = few_block_torus_sample(8, simple_walk(3), kingman,
                                      _separated_starts(8, 3, 3), 100, seed=11)
    assert stats["chunk_calls"] < 431 / 2


def _bitgen(rng):
    return rng.bit_generator.ctypes.bit_generator


def _warmed(seed, warm):
    # a fresh Generator, or one whose bit generator holds a buffered 32-bit
    # half after `warm` bounded draws
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, size=warm)
    return rng


@pytest.mark.parametrize("pop", range(2, 13))
def test_c_choice_equals_generator_choice(pop):
    # the sampler's k-subset is Generator.choice(b, k, replace=False),
    # Floyd's algorithm and a shuffle on numpy's bounded draws: the same
    # indices in the same order for every k, and the bit generator left in
    # the same state
    loop = engine._loop()
    idx, work = np.empty(pop, dtype=np.int64), np.empty(pop, dtype=np.int64)
    for k in range(1, pop + 1):
        for seed in range(3):
            for warm in (0, 1):
                ours, numpys = _warmed(seed, warm), _warmed(seed, warm)
                loop.sc_choice(_bitgen(ours), pop, k, engine._addr(idx),
                               engine._addr(work))
                assert idx[:k].tolist() == numpys.choice(
                    pop, k, replace=False).tolist()
                assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("k", [2, 200, 201, 5000, 10007],
                         ids=["floyd-2", "floyd-200", "tail-201", "tail-5000",
                              "tail-all"])
def test_c_choice_takes_the_tail_shuffle_of_a_large_population(k):
    # over 10,000 blocks, taking more than a fiftieth of them, choice
    # shuffles the tail of the whole population instead
    loop = engine._loop()
    pop = 10007
    idx, work = np.empty(pop, dtype=np.int64), np.empty(pop, dtype=np.int64)
    ours, numpys = _warmed(4, 1), _warmed(4, 1)
    loop.sc_choice(_bitgen(ours), pop, k, engine._addr(idx),
                   engine._addr(work))
    assert idx[:k].tolist() == numpys.choice(pop, k, replace=False).tolist()
    assert ours.bit_generator.state == numpys.bit_generator.state


def _numpy_draw(name, *argtypes):
    # numpy's distribution function `name`, as the library links it
    draw = getattr(ctypes.CDLL(engine._loop()._name), name)
    draw.argtypes = [ctypes.c_void_p, *argtypes]
    draw.restype = ctypes.c_double
    return draw


def test_linked_gamma_equals_generator_gamma():
    # a chunk's holding time is (1.0 / m) * random_standard_gamma(taken),
    # which must be rng.gamma(taken, 1.0 / m), including the shape-1
    # exponential branch and the large shapes of long chunks
    gamma = _numpy_draw("random_standard_gamma", ctypes.c_double)
    taken = np.array([1, 2, 3, 7, 255, 256, 4095, 4096] * 40)
    m = np.resize(np.arange(1, 14), taken.size)
    ours, numpys = np.random.default_rng(8), np.random.default_rng(8)
    got = [1.0 / mi * gamma(_bitgen(ours), float(x))
           for x, mi in zip(taken.tolist(), m.tolist())]
    assert got == numpys.gamma(taken, 1.0 / m).tolist()
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_linked_exponential_equals_generator_exponential():
    # a lockstep event's holding time is random_standard_exponential, which
    # must be rng.exponential(1.0), the ziggurat's rare tail included
    exponential = _numpy_draw("random_standard_exponential")
    ours, numpys = np.random.default_rng(9), np.random.default_rng(9)
    got = [exponential(_bitgen(ours)) for _ in range(5000)]
    assert got == numpys.exponential(1.0, size=5000).tolist()
    assert ours.bit_generator.state == numpys.bit_generator.state


class _Bitgen(ctypes.Structure):
    """numpy's `bitgen_t`, as sc_pcg64 fills it."""
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
        ("next_uint32", ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)),
        ("next_double", ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)),
        ("next_raw", ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)),
    ]


def _ours(numpys):
    # the sampler's generator at the state of numpy's bit generator
    # `numpys`, wrapped as a bitgen_t; the generator is kept on the wrapper
    rng = engine._Pcg64.of(numpys.state)
    bg = _Bitgen()
    engine._loop().sc_pcg64(ctypes.byref(rng), 0, ctypes.byref(bg))
    bg.rng = rng
    return bg


def _same_state(bg, numpys):
    theirs = engine._Pcg64.of(numpys.state)
    return all(getattr(bg.rng, name)[:] == getattr(theirs, name)[:]
               for name in ("state", "inc")) and (
        (bg.rng.has_uint32, bg.rng.uinteger)
        == (theirs.has_uint32, theirs.uinteger))


@pytest.mark.parametrize("seed", [0, 11, 2 ** 70 + 5])
def test_sampler_pcg64_draws_equal_numpys(seed):
    # the few-block sampler's own PCG64, seeded from PCG64.state, makes
    # numpy's PCG64 draws: its raw words, its doubles (Generator.random),
    # and its 32-bit draws, whose high halves are buffered, also from a
    # state that holds a buffered half
    numpys = np.random.PCG64(np.random.SeedSequence(seed))
    ours = _ours(numpys)
    assert [ours.next_raw(ours.state) for _ in range(1000)] \
        == numpys.random_raw(1000).tolist()
    assert [ours.next_uint64(ours.state) for _ in range(10)] \
        == numpys.random_raw(10).tolist()
    assert _same_state(ours, numpys)
    doubles = np.random.Generator(numpys).random(1001).tolist()
    assert [ours.next_double(ours.state) for _ in range(1001)] == doubles
    assert _same_state(ours, numpys)
    draw32 = numpys.ctypes.next_uint32
    for buffered in (0, 1):
        numpys.state = {**numpys.state, "has_uint32": buffered,
                        "uinteger": 0xDEADBEEF}
        ours = _ours(numpys)
        assert [ours.next_uint32(ours.state) for _ in range(1001)] \
            == [draw32(numpys.ctypes.state_address) for _ in range(1001)]
        assert _same_state(ours, numpys)
        assert ours.rng.has_uint32 == 1 - buffered


def _chunk_words():
    # the words r K of every chunk that the chunk rule makes on the tori of
    # the logs-equal tests (at most 4096 steps) and of the d = 6 walks (at
    # most 505), for up to 300 apart replicas
    words = set()
    for torus in (ReferenceWalk(8, simple_walk(3)),
                  ReferenceWalk(3, simple_walk(6))):
        torus.chunk = lambda rng, sites, alive, t, rows, K: words.add(
            rows.size * K)
        for apart in range(1, 301):
            torus.walk_apart(None, None, None, None, np.arange(apart))
    return sorted(words)


def test_sampler_pcg64_jumps_equal_numpys_advance():
    # a chunk jumps its two chains of words ahead; a jump of delta words
    # lands where PCG64.advance(delta) does, for every chunk's r K, and
    # keeps the buffered 32-bit half, as delta draws of a double would
    loop = engine._loop()
    deltas = [0, 1, 255, 256, 2 ** 20 + 3, *_chunk_words()]
    assert 32768 in deltas and 4096 in deltas and 505 in deltas
    for seed, delta in enumerate(deltas):
        numpys = np.random.PCG64(np.random.SeedSequence(seed))
        numpys.state = {**numpys.state, "has_uint32": 1, "uinteger": 7}
        rng = engine._Pcg64.of(numpys.state)
        loop.sc_pcg64(ctypes.byref(rng), delta, None)
        numpys.advance(delta)
        assert rng.state[:] == engine._Pcg64.of(numpys.state).state[:]
        assert (rng.has_uint32, rng.uinteger) == (1, 7)


def test_sampler_pcg64_distributions_equal_generators():
    # Generator.choice, the gamma and the exponential, run on the sampler's
    # generator, equal numpy's Generator on numpy's PCG64 to the bit
    loop = engine._loop()
    gamma = _numpy_draw("random_standard_gamma", ctypes.c_double)
    exponential = _numpy_draw("random_standard_exponential")
    numpys = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    numpys.integers(0, 10)
    assert numpys.bit_generator.state["has_uint32"] == 1
    ours = _ours(numpys.bit_generator)
    idx, work = np.empty(13, dtype=np.int64), np.empty(13, dtype=np.int64)
    for pop in range(2, 14):
        for k in range(1, pop + 1):
            loop.sc_choice(ctypes.byref(ours), pop, k, engine._addr(idx),
                           engine._addr(work))
            assert idx[:k].tolist() == numpys.choice(
                pop, k, replace=False).tolist()
    taken = np.array([1, 2, 3, 7, 255, 256, 4095, 4096] * 20)
    assert [gamma(ctypes.byref(ours), float(x)) for x in taken.tolist()] \
        == numpys.standard_gamma(taken.astype(float)).tolist()
    assert [exponential(ctypes.byref(ours)) for _ in range(3000)] \
        == numpys.exponential(1.0, size=3000).tolist()
    assert _same_state(ours, numpys.bit_generator)


def test_ctrl_c_stops_a_long_sample(kingman):
    # 2000 pairs of blocks 40 sites apart on the N = 40 torus (about a
    # minute): the loop hands control back once per pass and every 2^16
    # chunk steps, so a SIGINT sent 50 ms in raises KeyboardInterrupt out of
    # few_block_torus_sample at once
    engine._loop()  # built and loaded before the clock starts
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    timer = threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGINT))
    start = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt):
            timer.start()
            few_block_torus_sample(40, simple_walk(3), kingman,
                                   [[0, 0, 0], [40, 0, 0]], replicas=2000,
                                   seed=1)
    finally:
        timer.cancel()
        signal.signal(signal.SIGINT, previous)
    assert time.perf_counter() - start < 3.0


# +-3 e_1 (0.1 each), +-e_2 and +-e_3 (0.2 each): on the side-3 torus the
# e_1 steps wrap onto their own site, so blocks in different e_1 residue
# classes never meet
STRIDE_3 = WalkSpec(3, ((3, 0, 0), (-3, 0, 0), (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1)),
                    (0.1, 0.1, 0.2, 0.2, 0.2, 0.2))


def test_pairwise_rejects_walk_that_does_not_connect_the_torus():
    # in a child interpreter, so that a sampler waiting for blocks that
    # never meet fails the test instead of hanging it
    code = f"""
from spatial_coalescent.experiments import pairwise_torus_experiment
from spatial_coalescent.geometry import WalkSpec
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel
kernel = RateKernel(LambdaMeasure.unit_atom(0.0))
try:
    pairwise_torus_experiment(1, {STRIDE_3!r}, kernel, replicas=20, seed=1,
                              kappa_value=0.5)
except ValueError as e:
    print(e)
"""
    r = run_python("-c", code, timeout=60)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "does not connect" in r.stdout


def test_block_count_rejects_walk_that_does_not_connect_the_torus(kingman):
    with pytest.raises(ValueError, match="does not connect"):
        block_count_limit_experiment(1, STRIDE_3, kingman, 2, [0.5],
                                     replicas=5, seed=1, kappa_value=0.5)


# ---------------------------------------------------------------- coupling

def test_class_coupling_trivial_split(kingman):
    rep = class_coupling_check(single_site(), kingman, [[1, 2, 3, 4]],
                               t=2.0, replicas=40, seed=4)
    assert rep["domination_fraction"] == 1.0


def test_class_coupling_two_classes(kingman):
    rep = class_coupling_check(complete_graph(2), kingman,
                               [[1, 2, 3], [4, 5, 6]], t=2.0,
                               replicas=60, seed=5)
    assert rep["violations"] == 0


def test_block_decay_shape_bounded(kingman):
    res = block_decay_shape(kingman, simple_walk(3), [1, 2], [0.5, 2.0, 8.0],
                            replicas=25, seed=6)
    assert 0.0 < res["sup_statistic"] < 10.0
