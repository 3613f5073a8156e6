"""The exact law of the labeled-partition chain at time t, from its generator.

The process of the source paper is a finite Markov chain on labeled
partitions of [n]: each block sits at a site, or at the cemetery once
killed.  From a state,
  - at each site holding b blocks, each k-subset of them merges into one
    block at that site at rate lambda_{b,k} (Pitman 1999);
  - each alive block at s moves to s' != s at rate K[s, s'];
  - with killing, each alive block goes to the cemetery at rate 1.

`generator` builds the Q matrix over the states reachable from a start by
a breadth-first search, and `law_at` takes its row of expm(Q t)
(`scipy.linalg.expm`, scaling and squaring; Al-Mohy & Higham 2009).  A
state is written as `LabeledPartition.as_pairs` writes it, so a record's
`final_partition` is looked up directly.  Nothing here reads the engine's
tables: rates come from `RateKernel.lambda_bk` and the kernel matrix K.

Two blocks on the torus [-N, N]^d, as the few-block sampler or `simulate`
runs them, are a smaller chain: their difference, a walk with the
symmetrized step law at twice the rate, plus one absorbing "merged" state
(`pair_difference_generator`).  The law of the first merge time is its
CDF, [expm(Q t)]_{start, merged} (`first_merge_cdf`).

The Kingman block count, from dust or from i blocks, is a pure-death chain;
`kingman_count_law` inverts the closed-form Laplace transform of its CDF
on a fixed Talbot contour (Abate & Whitt 2006), sharing nothing with the
decimal series of `experiments.kingman_entrance_reference`.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy import linalg, special

from spatial_coalescent.engine import CEMETERY


def _state(blocks, labels) -> tuple:
    """The canonical form of a state: (sorted block, label) pairs in
    least-element order."""
    return tuple(sorted(zip(map(tuple, map(sorted, blocks)), labels)))


def _moves(state: tuple, kernel, K: np.ndarray, killing: bool):
    """The (rate, next state) pairs of every transition out of `state`."""
    blocks = [set(b) for b, _lab in state]
    labels = [lab for _b, lab in state]
    at_site: dict = {}
    for i, lab in enumerate(labels):
        if lab != CEMETERY:
            at_site.setdefault(lab, []).append(i)
    for s, members in at_site.items():
        b = len(members)
        for k in range(2, b + 1):
            rate = kernel.lambda_bk(b, k)
            if rate == 0.0:
                continue
            for chosen in combinations(members, k):
                kept = [i for i in range(len(blocks)) if i not in chosen]
                merged = set().union(*(blocks[i] for i in chosen))
                yield rate, _state([blocks[i] for i in kept] + [merged],
                                   [labels[i] for i in kept] + [s])
    for i, lab in enumerate(labels):
        if lab == CEMETERY:
            continue
        for dest in range(K.shape[0]):
            if dest != lab and K[lab, dest] > 0.0:
                yield K[lab, dest], _state(
                    blocks, labels[:i] + [dest] + labels[i + 1:])
        if killing:
            yield 1.0, _state(blocks, labels[:i] + [CEMETERY] + labels[i + 1:])


def generator(kernel, K, start_sites, killing: bool = False):
    """(states, Q): the states reachable from singletons {i + 1} at
    `start_sites[i]`, the start first, and the generator over them, for
    the `RateKernel` `kernel` and the migration rate matrix `K` (its
    diagonal is ignored)."""
    K = np.asarray(K, dtype=float)
    start = _state([{e + 1} for e in range(len(start_sites))],
                   list(start_sites))
    index = {start: 0}
    states, rows = [start], []
    for state in states:  # grows as the search reaches new states
        row: dict = {}
        for rate, nxt in _moves(state, kernel, K, killing):
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            row[index[nxt]] = row.get(index[nxt], 0.0) + rate
        rows.append(row)
    Q = np.zeros((len(states), len(states)))
    for i, row in enumerate(rows):
        for j, rate in row.items():
            Q[i, j] += rate
        Q[i, i] -= sum(row.values())
    return states, Q


def law_at(kernel, K, start_sites, t: float, killing: bool = False) -> dict:
    """The law at time t of the chain from `start_sites` (see `generator`):
    {state: probability}, every reachable state listed."""
    states, Q = generator(kernel, K, start_sites, killing)
    probs = linalg.expm(Q * t)[0]
    return dict(zip(states, probs.tolist()))


def pair_difference_generator(N: int, walk, merge_rate: float):
    """(Q, index): the generator of the difference X - Y of two blocks on the
    torus [-N, N]^d, each stepping by s at rate p_s of the `WalkSpec` walk,
    and merging at rate `merge_rate` (lambda_{2,2}) while on one site.  So
    the difference steps by +s and by -s at rate p_s each; a step that
    wraps onto its own site is dropped.  `index` maps a difference, its
    coordinates mod 2N + 1, to its state; the merged state is the last."""
    side = 2 * N + 1
    diffs = list(product(range(side), repeat=walk.dimension))
    index = {x: i for i, x in enumerate(diffs)}
    merged = len(diffs)
    Q = np.zeros((merged + 1, merged + 1))
    for x, i in index.items():
        for off, p in zip(walk.offsets_array.tolist(), walk.probs_array):
            for sign in (1, -1):
                y = tuple((a + sign * o) % side for a, o in zip(x, off))
                if y != x:
                    Q[i, index[y]] += p
    Q[index[(0,) * walk.dimension], merged] += merge_rate
    Q[np.diag_indices_from(Q)] -= Q.sum(axis=1)
    return Q, index


def first_merge_cdf(Q: np.ndarray, start: int):
    """t -> [expm(Q t)]_{start, merged} for the generator Q of
    `pair_difference_generator`, vectorized over an array t.  The transient
    block of Q is symmetric (a step of +s and one of -s have the same rate),
    so it is read off that block's eigendecomposition:
    1 - sum_k V[start, k] (V^T 1)_k exp(mu_k t)."""
    block = Q[:-1, :-1]
    assert np.array_equal(block, block.T)
    mu, V = np.linalg.eigh(block)
    weight = V[start] * V.sum(axis=0)
    return lambda t: 1.0 - np.exp(np.multiply.outer(t, mu)) @ weight


def torus_pair_cdf(N: int, walk, merge_rate: float, start):
    """`first_merge_cdf` of two blocks on the torus, one at 0 and one at the
    coordinates `start`, stepping by `walk` and merging at `merge_rate`."""
    Q, index = pair_difference_generator(N, walk, merge_rate)
    return first_merge_cdf(Q, index[tuple(-x % (2 * N + 1) for x in start)])


# Nodes of the fixed Talbot contour.  In double precision its terms reach
# e^(2M/5) / M: at M = 48 rounding puts the laws below off by up to 1e-7
# per cell, at M = 32 by at most 1e-9 where they hold.
TALBOT_NODES = 32


def _talbot(log_transform, t: float) -> np.ndarray:
    """f(t) from the log of its Laplace transform on the contour nodes s,
    one column per function, by the fixed Talbot rule with r = 2M / (5t)."""
    M = TALBOT_NODES
    theta = np.pi * np.arange(1, M) / M
    cot = 1.0 / np.tan(theta)
    r = 2 * M / (5 * t)
    s = np.concatenate([[r + 0j], r * theta * (cot + 1j)])
    ds = np.concatenate([[0.5 + 0j], 1 + 1j * (theta + (theta * cot - 1) * cot)])
    terms = np.exp(t * s[:, None] + log_transform(s)) * ds[:, None]
    return r / M * terms.real.sum(axis=0)


def kingman_count_law(t: float, top: int, start: int | None = None) -> dict:
    """{k: P(A_t = k)}, k = 1..top, for the Kingman block count from dust
    (`start` None) or from `start` >= top blocks.

    A_t <= j when T_j, the sum of independent Exp(C(b, 2)) over b > j, is at
    most t.  From dust, log E e^(-s T_j) is
        g(j) = log Gamma(j + 1 - a) Gamma(j + 1 - c) / (Gamma(j + 1) Gamma(j))
    with a, c = (1 +- sqrt(1 - 8s)) / 2, and from i blocks it is g(j) - g(i).
    Inverted (`_talbot`), the law holds to 1e-9 per cell from i <= 12
    blocks at t in [0.01, 2] (against expm) and from dust at t >= 0.15 (up
    to t = 40 and top = 64, against the decimal series).  From dust it fails
    below t of about 0.1, where some hundred counts carry mass: at t = 0.05
    it is off by 3e-3."""
    def log_transform(s):
        root = np.sqrt(1 - 8 * s)[:, None]
        a, c = (1 + root) / 2, (1 - root) / 2

        def g(j):
            return (special.loggamma(j + 1 - a) + special.loggamma(j + 1 - c)
                    - special.gammaln(j + 1) - special.gammaln(j))
        out = g(np.arange(1, top + 1)) - np.log(s)[:, None]
        return out if start is None else out - g(start)
    cdf = _talbot(log_transform, t)
    return dict(enumerate(np.diff(cdf, prepend=0.0).tolist(), start=1))
