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
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import linalg

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
