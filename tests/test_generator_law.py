"""The law of `simulate` and of the few-block sampler against the exact law
from the chain's generator.

Each `simulate` case runs 4000 replicas to a horizon t, with seeds fixed
once (`spawn_seeds(case, 4000)`), and compares the counts of
`final_partition` with the law at t (`generator_oracle.law_at`) by
Pearson's chi-square over the cells of expected count >= 5, the other cells
pooled into one.  Each few-block case draws 20,000 first-merge times of two
blocks on a torus, with its seed fixed once, and compares them with the CDF
of the pair's difference chain (`generator_oracle.first_merge_cdf`) by a
Kolmogorov-Smirnov test.  Unlike the pinned streams, these judge the law,
so they hold for any stream that is exact in law.

Two oracles that other tests judge by are pinned here against `expm`:
the first-merge CDF at N = 4, for the walks of the few-block and engine
pair tests, and the Laplace-inverted Kingman count law
(`generator_oracle.kingman_count_law`) from 2..12 blocks.
"""

import functools

import numpy as np
import pytest
from scipy import stats as sp_stats

from scipy import linalg

from spatial_coalescent.engine import SimulationConfig, simulate, singletons_at
from spatial_coalescent.experiments import few_block_torus_sample, spawn_seeds
from spatial_coalescent.geometry import (WalkSpec, generic_graph, simple_walk,
                                         single_site)
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel
from generator_oracle import (first_merge_cdf, kingman_count_law, law_at,
                              pair_difference_generator, torus_pair_cdf)
from test_experiments import DRIFTED, LAZY as HALF_LAZY

REPLICAS = 4000
# three sites with self-loops and unequal move rates (thinned migration)
K3 = [[.5, .3, .2], [.1, .7, .2], [.4, .4, .2]]

# case: (measure, start sites, kernel matrix, t, killing)
CASES = {
    1: (LambdaMeasure.beta(1.5), (0, 0, 1, 2), K3, 0.7, False),
    2: (LambdaMeasure(atoms=[(0.0, 1.0), (0.5, 0.8)]), (0, 0, 0, 1), K3,
        0.5, True),
    3: (LambdaMeasure.beta(0.5), (0, 0, 0, 1, 1), [[.3, .7], [.6, .4]], 0.4,
        False),
    4: (LambdaMeasure.unit_atom(1.0), (0, 0, 0, 0), [[1.0]], 0.3, False),
}


@functools.cache
def _final_states(case: int) -> list:
    measure, sites, K, t, killing = CASES[case]
    kernel = RateKernel(measure)
    geo = single_site() if len(K) == 1 else generic_graph(np.array(K))
    start = singletons_at(sites)
    return [simulate(start, SimulationConfig(
        kernel=kernel, geography=geo, killing=killing, horizon=t, seed=s,
        record_events=False)).final_partition.as_pairs()
            for s in spawn_seeds(case, REPLICAS)]


def _chisquare_p(samples: list, law: dict) -> float:
    """Pearson's p-value of `samples` against `law`, the cells of expected
    count below 5 pooled."""
    observed = dict.fromkeys(law, 0)
    for state in samples:
        observed[state] += 1
    kept = [s for s in law if REPLICAS * law[s] >= 5]
    pooled = [s for s in law if REPLICAS * law[s] < 5]
    obs = [observed[s] for s in kept]
    exp = [REPLICAS * law[s] for s in kept]
    if pooled:
        obs.append(sum(observed[s] for s in pooled))
        exp.append(REPLICAS * sum(law[s] for s in pooled))
    exp = np.array(exp) * (REPLICAS / sum(exp))  # the law sums to 1 - O(eps)
    return float(sp_stats.chisquare(obs, exp).pvalue)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_final_partition_follows_the_generator(case):
    measure, sites, K, t, killing = CASES[case]
    law = law_at(RateKernel(measure), K, sites, t, killing)
    samples = _final_states(case)
    assert set(samples) <= set(law), "a state the chain cannot reach"
    p = _chisquare_p(samples, law)
    assert p > 0.001, p


def test_law_test_rejects_faster_migration():
    # power: case 1's samples against the law with migration 20 % fast
    measure, sites, K, t, killing = CASES[1]
    law = law_at(RateKernel(measure), 1.2 * np.array(K), sites, t, killing)
    assert _chisquare_p(_final_states(1), law) < 0.001


# ---- the few-block sampler: the first merge of two blocks on a torus

PAIR_REPLICAS = 20_000
# 0.4 on step 0, a self-jump, and 0.1 on each +-e_i
LAZY = WalkSpec(3, ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)), (0.4,) + (0.1,) * 6)
# case: (N, walk, second start, the first being 0, seed)
PAIR_CASES = {
    "N1-simple": (1, simple_walk(3), (1, 0, 0), 3),
    "N1-lazy": (1, LAZY, (1, 0, 0), 3),
    "N2-simple": (2, simple_walk(3), (2, 0, 0), 1),
}
PAIR_KERNEL = RateKernel(LambdaMeasure.unit_atom(0.0))


@functools.cache
def _first_merge_times(case: str) -> np.ndarray:
    N, walk, start, seed = PAIR_CASES[case]
    logs, _stats = few_block_torus_sample(N, walk, PAIR_KERNEL,
                                          [(0, 0, 0), start], PAIR_REPLICAS,
                                          seed)
    assert all(len(log) == 1 and log[0][1:] == ((0, 1), 2) for log in logs)
    return np.array([log[0][0] for log in logs])


def _pair_chain(case: str, merge_rate: float):
    """(Q, start state) of the case's difference chain, merging at
    `merge_rate`: the difference of the block at 0 and the other."""
    N, walk, start, _seed = PAIR_CASES[case]
    Q, index = pair_difference_generator(N, walk, merge_rate)
    return Q, index[tuple(-x % (2 * N + 1) for x in start)]


def _first_merge_p(case: str, merge_rate: float) -> float:
    """The KS p-value of the case's first-merge times against the difference
    chain merging at `merge_rate`."""
    cdf = first_merge_cdf(*_pair_chain(case, merge_rate))
    return float(sp_stats.kstest(_first_merge_times(case), cdf).pvalue)


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_few_block_first_merge_follows_the_generator(case):
    rate = PAIR_KERNEL.lambda_bk(2, 2)
    # the CDF is the start's row of expm(Q t), at the merged state
    Q, first = _pair_chain(case, rate)
    times = np.quantile(_first_merge_times(case), [0.01, 0.5, 0.99])
    assert np.allclose(first_merge_cdf(Q, first)(times),
                       [linalg.expm(Q * t)[first, -1] for t in times],
                       rtol=0.0, atol=1e-12)
    p = _first_merge_p(case, rate)
    assert p > 0.001, p


@pytest.mark.parametrize("case", sorted(PAIR_CASES))
def test_few_block_law_test_rejects_faster_merging(case):
    # power: the samples against the chain whose merge rate is 20 % fast
    assert _first_merge_p(case, 1.2 * PAIR_KERNEL.lambda_bk(2, 2)) < 1e-6


@pytest.mark.parametrize("walk", [simple_walk(3), DRIFTED, HALF_LAZY],
                         ids=["simple", "drifted", "lazy"])
def test_first_merge_cdf_at_n4_follows_expm(walk):
    # from the difference -(4, 0, 0): the start's row of expm(100 Q) to the
    # power k is that of expm(100 k Q)
    Q, index = pair_difference_generator(4, walk, 1.0)
    step, row = linalg.expm(100.0 * Q), np.zeros(len(Q))
    row[index[(5, 0, 0)]] = 1.0
    cdf = torus_pair_cdf(4, walk, 1.0, (4, 0, 0))
    for k in range(1, 31):
        row = row @ step
        if k in (1, 3, 10, 30):
            assert abs(cdf(100.0 * k) - row[-1]) <= 1e-12, k


# criterion 8's times, which the entrance tests use, and two beyond them
@pytest.mark.parametrize("t", [0.05, 0.284, 0.569, 2.0])
def test_kingman_count_law_follows_the_death_chain(t):
    # from i blocks, the count law by Laplace inversion against expm of the
    # pure-death generator with rates C(b, 2) on counts 0..i
    for i in range(2, 13):
        b = np.arange(i + 1)
        Q = np.diag(b[1:] * (b[1:] - 1) / 2.0, k=-1)
        Q -= np.diag(Q.sum(axis=1))
        assert np.allclose(list(kingman_count_law(t, i, start=i).values()),
                           linalg.expm(Q * t)[i, 1:], rtol=0.0, atol=1e-8), i
