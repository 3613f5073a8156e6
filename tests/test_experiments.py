import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from spatial_coalescent import experiments
from spatial_coalescent.errors import BudgetExceeded, TruncationUnstable
from spatial_coalescent.experiments import (
    block_count_limit_experiment,
    block_decay_shape,
    class_coupling_check,
    estimate_Tnk,
    few_block_torus_sample,
    kingman_entrance_joint_law,
    kingman_entrance_reference,
    pairwise_first_coalescence_times,
    pairwise_torus_experiment,
    partition_structure_experiment,
    spawn_seeds,
    stay_infinite_trend,
)
from spatial_coalescent.geometry import (
    WalkSpec,
    complete_graph,
    kappa,
    simple_walk,
    single_site,
)
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel

KAPPA_D3_UNIT = 0.5687658867  # 2 / (G + 2) for the nearest-neighbor walk


@pytest.fixture(scope="module")
def kingman():
    return RateKernel(LambdaMeasure.unit_atom(0.0))


# ---------------------------------------------------------------- seeding

def test_spawn_seeds_deterministic():
    assert spawn_seeds(42, 5) == spawn_seeds(42, 5)
    assert spawn_seeds(42, 5) != spawn_seeds(43, 5)
    assert len(set(spawn_seeds(0, 100))) == 100


# ---------------------------------------------------------------- T_n^(k)

def test_hitting_time_zero_when_already_there(kingman):
    rep = estimate_Tnk(2, 2, complete_graph(3), kingman, replicas=10, seed=1)
    assert rep.point_estimate == 0.0
    assert rep.std_error == 0.0


def test_hitting_time_single_site_oracle(kingman):
    # from 100 singletons to 2 blocks: sum_{b=3}^{100} 2/(b(b-1)) = 0.98
    rep = estimate_Tnk(100, 2, single_site(), kingman, replicas=1500, seed=3)
    oracle = 2 * (1 / 2 - 1 / 100)
    assert abs(rep.point_estimate - oracle) <= 3 * rep.std_error
    lo, hi = rep.confidence_interval()
    assert lo <= rep.point_estimate <= hi
    assert rep.extras["uniform_bound"] == pytest.approx(4.0, abs=1e-3)


def test_hitting_time_warns_when_staying_infinite():
    leb = RateKernel(LambdaMeasure.lebesgue())
    rep = estimate_Tnk(5, 2, single_site(), leb, replicas=20, seed=2)
    assert rep.extras.get("warning") == "STAYS_INFINITE_WARNING"
    assert rep.extras["uniform_bound"] == math.inf


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
    sep = pairwise_first_coalescence_times(4, w, 1.0, 600, seed=11,
                                           separation=[4, 0, 0])
    same = pairwise_first_coalescence_times(4, w, 1.0, 600, seed=11,
                                            separation=[0, 0, 0])
    assert np.mean(same) < np.mean(sep)


def test_pairwise_rate_increases_with_pair_mass():
    w = simple_walk(3)
    doubled = RateKernel(LambdaMeasure.unit_atom(0.0, 2.0))
    single = RateKernel(LambdaMeasure.unit_atom(0.0))
    c1 = pairwise_torus_experiment(4, w, single, replicas=600, seed=13,
                                   kappa_value=KAPPA_D3_UNIT)
    c2 = pairwise_torus_experiment(4, w, doubled, replicas=600, seed=13,
                                   kappa_value=KAPPA_D3_UNIT)
    assert c2.extras["fitted_rate"] > c1.extras["fitted_rate"]


def test_pairwise_ks_reasonable_at_small_n(kingman):
    comp = pairwise_torus_experiment(4, simple_walk(3), kingman,
                                     replicas=800, seed=17,
                                     kappa_value=KAPPA_D3_UNIT)
    assert comp.ks_stat < 0.08
    assert comp.sample_size == 800


def test_torus_experiments_take_kappa_from_bessel_for_axis_walks(kingman,
                                                                  monkeypatch):
    def no_cross_check(*args, **kwargs):
        raise AssertionError("axis walks need no lattice/Monte Carlo kappa")
    monkeypatch.setattr(experiments, "torus_kappa", no_cross_check)
    comp = pairwise_torus_experiment(2, simple_walk(3), kingman,
                                     replicas=20, seed=1)
    res = partition_structure_experiment(2, simple_walk(3), kingman, 2,
                                         replicas=20, seed=1)
    exact = kappa(1.5163860591519809, 1.0)
    assert comp.extras["kappa"] == pytest.approx(exact, rel=1e-13)
    assert comp.extras["kappa_info"]["G_bessel"] == pytest.approx(
        1.5163860591519809, rel=1e-13)
    assert res["kappa"] == comp.extras["kappa"]


def test_torus_experiments_cross_check_kappa_for_other_walks(kingman,
                                                             monkeypatch):
    calls = []

    def fake_torus_kappa(walk, kernel, seed=0):
        calls.append(walk)
        return {"kappa": 0.25}
    monkeypatch.setattr(experiments, "torus_kappa", fake_torus_kappa)
    diagonal = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                            (0, 0, 1), (0, 0, -1), (1, 1, 0), (-1, -1, 0)),
                        (0.125,) * 8)
    comp = pairwise_torus_experiment(2, diagonal, kingman, replicas=20, seed=1)
    assert comp.extras["kappa"] == 0.25
    assert calls == [diagonal]


# ---------------------------------------------------------------- block count

def test_block_count_budget_guard(kingman):
    with pytest.raises(BudgetExceeded):
        block_count_limit_experiment(2, simple_walk(3), kingman, 10,
                                     [0.5], replicas=100, seed=1,
                                     kappa_value=KAPPA_D3_UNIT,
                                     event_budget=100)


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
        assert 0.0 <= comp.tv_distance <= 1.0
        assert sum(comp.empirical.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(comp.reference.values()) == pytest.approx(1.0, abs=1e-9)
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


def test_few_block_first_coalescence_matches_pairwise_sampler(kingman):
    # distributional check of the chunked few-block sampler: with two blocks
    # its first merge time has the law of the independent relative-walk
    # sampler's first-coalescence time
    w = simple_walk(3)
    logs = few_block_torus_sample(4, w, kingman, [[0, 0, 0], [4, 0, 0]],
                                  replicas=4000, seed=31)
    chunked = np.array([log[0][0] for log in logs])
    assert all(len(log) == 1 and log[0][2] == 2 for log in logs)
    relative = pairwise_first_coalescence_times(4, w, 1.0, 4000, seed=32,
                                                separation=[4, 0, 0])
    assert sp_stats.ks_2samp(chunked, relative).pvalue > 1e-3


def test_few_block_sample_merges_co_located_starts(kingman):
    # blocks that start on one site take the event-by-event path first
    logs = few_block_torus_sample(3, simple_walk(3), kingman,
                                  [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
                                  replicas=200, seed=4)
    for log in logs:
        assert len(log) == 2
        assert log[0][0] < log[1][0]
        assert frozenset().union(*log[-1][1]) == {0, 1, 2}
    # the pair that starts together merges first more often than the 1/3
    # of a uniform pair (about 60 % here)
    first_pairs = [frozenset().union(*log[0][1]) for log in logs]
    assert first_pairs.count(frozenset({0, 1})) > 90


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
