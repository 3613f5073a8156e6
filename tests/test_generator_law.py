"""The law of `simulate` against the exact law from the chain's generator.

Each case runs 4000 replicas to a horizon t, with seeds fixed once
(`spawn_seeds(case, 4000)`), and compares the counts of `final_partition`
with the law at t (`generator_oracle.law_at`) by Pearson's chi-square over
the cells of expected count >= 5, the other cells pooled into one.  Unlike
the pinned streams, this judges the law, so it holds for any stream that
is exact in law.
"""

import functools

import numpy as np
import pytest
from scipy import stats as sp_stats

from spatial_coalescent.engine import SimulationConfig, simulate, singletons_at
from spatial_coalescent.experiments import spawn_seeds
from spatial_coalescent.geometry import generic_graph, single_site
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel
from generator_oracle import law_at

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
