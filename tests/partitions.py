"""Restriction of labeled partitions to [m], and the ultrametric

    d(pi, pi') = 2^(-m*),  m* the first m at which the restrictions differ,

on labeled partitions of one ground set.  The tests check with them that
`engine.coupled_simulate` keeps restrictions consistent.
"""

from __future__ import annotations

from spatial_coalescent.engine import LabeledPartition
from spatial_coalescent.errors import CoalescentError


class GroundSetMismatch(CoalescentError):
    code = "GROUND_SET_MISMATCH"


def restrict_partition(pi: LabeledPartition, m: int) -> LabeledPartition:
    """Intersect every block with [m], drop empties, reorder by least element."""
    if not 1 <= m <= pi.n:
        raise ValueError(f"need 1 <= m <= {pi.n}")
    return pi.restrict_to(range(1, m + 1))


def partition_distance(pi: LabeledPartition, pi2: LabeledPartition) -> float:
    """2^(-m*) where m* is the first level at which labeled restrictions
    differ; 0 for identical partitions."""
    if pi.n != pi2.n or pi.ground != pi2.ground:
        raise GroundSetMismatch("partitions live on different ground sets")
    for m in range(1, pi.n + 1):
        if restrict_partition(pi, m) != restrict_partition(pi2, m):
            return 2.0 ** (-m)
    return 0.0
