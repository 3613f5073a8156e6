"""Geographical spaces: finite graphs, tori, Green function, limit constant.

A geography is a finite site set with a row-stochastic migration kernel;
blocks jump at rate 1 according to the kernel.  Tori T^N = [-N,N]^d cap Z^d
wrap a base random-walk step distribution modulo the side length 2N+1 and
are stored as neighbor tables (dense matrices only for generic graphs).

The Green function G of the base walk (expected visits to the origin,
discrete time) and the constant kappa = 2 / (G + 2/lambda_{2,2}) drive the
large-torus scaling limits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import i0e

from .errors import DimensionTooLow, SizeOverflow, TruncationUnstable

__all__ = [
    "WalkSpec",
    "GeographySpec",
    "simple_walk",
    "build_torus",
    "complete_graph",
    "single_site",
    "green_function",
    "kappa",
]


@dataclass(frozen=True)
class WalkSpec:
    """Step distribution on Z^d with finite support."""

    dimension: int
    offsets: tuple        # tuple of d-tuples
    probabilities: tuple  # matching probabilities, summing to 1

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        probs = np.asarray(self.probabilities, dtype=float)
        if abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0):
            raise ValueError("step probabilities must be a distribution")
        offs = np.asarray(self.offsets, dtype=int)
        if offs.shape != (len(probs), self.dimension):
            raise ValueError("offsets/probabilities shape mismatch")
        # purely d-dimensional: support must span all coordinates
        if len(offs) and np.linalg.matrix_rank(offs) < self.dimension:
            raise ValueError("step support does not span Z^d")

    @property
    def offsets_array(self) -> np.ndarray:
        return np.asarray(self.offsets, dtype=int)

    @property
    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probabilities, dtype=float)

    @property
    def axis_rates(self) -> np.ndarray | None:
        """Per-coordinate jump rates (p_1, ..., p_d) if this is an axis walk
        (every step is +-e_i, with P(+e_i) = P(-e_i) = p_i / 2 > 0), else
        None.  The coordinates of an axis walk in continuous time are
        independent rate-p_i simple walks."""
        d = self.dimension
        up = np.zeros(d)
        down = np.zeros(d)
        for off, p in zip(self.offsets_array, self.probs_array):
            if p == 0.0:
                continue
            nonzero = np.flatnonzero(off)
            if len(nonzero) != 1 or abs(off[nonzero[0]]) != 1:
                return None
            axis = nonzero[0]
            (up if off[axis] > 0 else down)[axis] += p
        if np.any(up != down) or np.any(up == 0.0):
            return None
        return up + down


def simple_walk(d: int) -> WalkSpec:
    """Simple symmetric nearest-neighbor walk on Z^d."""
    offsets = []
    for axis in range(d):
        for sign in (-1, 1):
            off = [0] * d
            off[axis] = sign
            offsets.append(tuple(off))
    p = 1.0 / (2 * d)
    return WalkSpec(d, tuple(offsets), tuple([p] * len(offsets)))


class GeographySpec:
    """Finite site set plus migration kernel; immutable after build.

    Torus geographies keep the kernel as a neighbor table (one row of step
    destinations per site); generic graphs keep the dense matrix.  In both
    representations self-jumps are split out: a site's move rate is the
    probability of leaving it, and `sample_move` draws only real moves (a
    jump to the same site does not change state).
    """

    def __init__(self, sites, *, neighbors=None, step_probs=None,
                 dense_kernel=None):
        self.sites = sites
        self.size = len(sites)
        self._neighbors = neighbors
        self._step_probs = step_probs
        self._dense = dense_kernel
        if neighbors is not None:
            self_mask = neighbors == np.arange(self.size)[:, None]
            self._move_rates = 1.0 - self_mask @ step_probs
            dests = neighbors
            probs = np.where(self_mask, 0.0, step_probs[None, :])
        else:
            self._move_rates = 1.0 - np.diag(dense_kernel)
            dests = np.broadcast_to(np.arange(self.size), dense_kernel.shape)
            probs = dense_kernel.copy()
            np.fill_diagonal(probs, 0.0)
        self._move_cum, self._move_dest = _move_tables(dests, probs)

    # -- kernel access --------------------------------------------------

    def kernel_row(self, i: int) -> np.ndarray:
        if self._dense is not None:
            return self._dense[i].copy()
        row = np.zeros(self.size)
        np.add.at(row, self._neighbors[i], self._step_probs)
        return row

    def move_rate(self, i: int) -> float:
        """Rate at which a block at site i actually changes site (<= 1)."""
        return float(self._move_rates[i])

    @property
    def move_rates(self) -> np.ndarray:
        return self._move_rates

    def sample_move(self, i: int, u: float) -> int:
        """Destination != i for a migrating block, from uniform u in [0,1)."""
        return self._move_dest[i][bisect.bisect_right(self._move_cum[i], u)]


def _move_tables(dests: np.ndarray, probs: np.ndarray):
    """Per-site sampling lists for `GeographySpec.sample_move`.

    Row i of `probs` weighs the destinations in row i of `dests`, self-jumps
    already zeroed.  For each site keep the destinations of positive weight
    and their cumulative conditional probabilities, the last set to exactly
    1.0 so that bisecting any u in [0, 1) lands in the row.  Equal
    cumulative rows (every site of a torus without self-jumps) are shared.
    """
    cum_rows, dest_rows = [], []
    shared: dict[tuple, list] = {}
    for dest_row, prob_row in zip(dests.tolist(), probs.tolist()):
        kept = [(d, p) for d, p in zip(dest_row, prob_row) if p > 0.0]
        total = sum(p for _d, p in kept)
        acc = 0.0
        cum = []
        for _d, p in kept:
            acc += p
            cum.append(acc / total)
        if cum:
            cum[-1] = 1.0
        cum_rows.append(shared.setdefault(tuple(cum), cum))
        dest_rows.append([d for d, _p in kept])
    return cum_rows, dest_rows


def build_torus(N: int, walk: WalkSpec, site_budget: int = 1_000_000) -> GeographySpec:
    """Torus [-N,N]^d with the wrapped base walk; sites in lexicographic order."""
    if N < 1:
        raise ValueError("need N >= 1")
    d = walk.dimension
    side = 2 * N + 1
    size = side**d
    if size > site_budget:
        raise SizeOverflow(f"torus has {size} sites, budget {site_budget}",
                           size=size, budget=site_budget)
    axes = [np.arange(-N, N + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)  # lexicographic
    sites = [tuple(int(c) for c in row) for row in coords]
    offsets = walk.offsets_array
    probs = walk.probs_array
    neighbors = np.empty((size, len(offsets)), dtype=np.int64)
    for j, off in enumerate(offsets):
        wrapped = (coords + off + N) % side  # digits in [0, side)
        idx = np.zeros(size, dtype=np.int64)
        for axis in range(d):
            idx = idx * side + wrapped[:, axis]
        neighbors[:, j] = idx
    return GeographySpec(sites, neighbors=neighbors, step_probs=probs)


def complete_graph(n_sites: int) -> GeographySpec:
    """Uniform jumps to any other site."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    kern = np.full((n_sites, n_sites), 1.0 / (n_sites - 1))
    np.fill_diagonal(kern, 0.0)
    return generic_graph(kern)


def single_site() -> GeographySpec:
    """One site with a self-loop kernel: migration is a no-op."""
    return GeographySpec([0], dense_kernel=np.array([[1.0]]))


def generic_graph(kernel: np.ndarray) -> GeographySpec:
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError("kernel must be square")
    bad = np.where(np.abs(kernel.sum(axis=1) - 1.0) > 1e-12)[0]
    if len(bad):
        raise ValueError(f"kernel rows {bad.tolist()} do not sum to 1")
    if np.any(kernel < 0):
        raise ValueError("kernel entries must be nonnegative")
    return GeographySpec(list(range(kernel.shape[0])), dense_kernel=kernel)


# ----------------------------------------------------------------------
# Green function of the base walk on Z^d
# ----------------------------------------------------------------------

def _power_tail(partial_even_terms: np.ndarray, first_j: int, d: float) -> float:
    """Tail of sum_j A j^(-d/2) fitted on observed even-step returns.

    partial_even_terms[i] is the return probability after 2*(first_j+i)
    steps.  The amplitude A (with a first-order 1/j correction) is fitted on
    the data; the remaining tail is summed exactly.
    """
    js = np.arange(first_j, first_j + len(partial_even_terms), dtype=float)
    y = partial_even_terms * js ** (d / 2.0)
    # A(j) ~ A + c/j: linear fit in 1/j
    X = np.column_stack([np.ones_like(js), 1.0 / js])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    A, c = float(coef[0]), float(coef[1])
    j_from = first_j + len(partial_even_terms)
    jj = np.arange(j_from, j_from + 2_000_000, dtype=float)
    tail = float(np.sum(A * jj ** (-d / 2.0) + c * jj ** (-d / 2.0 - 1.0)))
    # remainder beyond the explicit sum, via the integral comparison
    jmax = jj[-1] + 1.0
    tail += A * jmax ** (1.0 - d / 2.0) / (d / 2.0 - 1.0)
    return tail


def green_function(walk: WalkSpec, method: str = "LATTICE_SUM", *,
                   k_max: int | None = None, replicas: int = 20_000,
                   horizon: int = 4_000, seed: int = 0):
    """Expected visits to 0 of the discrete-time walk started at 0.

    BESSEL, for axis walks only (see WalkSpec.axis_rates), integrates the
    continuous-time return probability prod_i e^(-p_i t) I_0(p_i t) over
    t >= 0 (Watson's integral; Montroll 1956); it is the production route.
    LATTICE_SUM iterates the step convolution on a truncated box and adds a
    power-law tail (returns decay like k^(-d/2)); MONTE_CARLO counts visits
    over a finite horizon and estimates the tail from late-window visits.
    These two work for any walk and serve as independent cross-checks.
    Returns (estimate, error_bound).
    """
    d = walk.dimension
    if d < 3:
        raise DimensionTooLow(f"walk is recurrent for d={d} < 3", d=d)
    if method == "BESSEL":
        return _green_bessel(walk)
    if method == "LATTICE_SUM":
        return _green_lattice(walk, k_max)
    if method == "MONTE_CARLO":
        return _green_monte_carlo(walk, replicas, horizon, seed)
    raise ValueError(f"unknown method {method!r}")


# largest quadrature error bound the BESSEL route accepts
_BESSEL_MAX_ERROR = 1e-10


def _green_bessel(walk: WalkSpec):
    rates = walk.axis_rates
    if rates is None:
        raise ValueError("the BESSEL Green route needs an axis walk: every "
                         "step +-e_i with P(+e_i) = P(-e_i) > 0")
    # i0e(x) = e^(-x) I_0(x): a rate-p coordinate is back at 0 at time t
    # with probability i0e(p t)
    est, err, _info, *trouble = integrate.quad(
        lambda t: float(np.prod(i0e(rates * t))), 0.0, np.inf,
        epsabs=1e-14, epsrel=1e-13, limit=500, full_output=1)
    if trouble or not err <= _BESSEL_MAX_ERROR:
        raise TruncationUnstable(
            f"Bessel Green integral error bound {err:.2e} (limit "
            f"{_BESSEL_MAX_ERROR:.0e}){': ' + trouble[0] if trouble else ''}",
            error=err)
    return est, err


def _green_lattice(walk: WalkSpec, k_max: int | None):
    d = walk.dimension
    if k_max is None:
        # keep the box small in low dimension (speed); in d >= 5 a larger
        # box is needed just to accumulate enough even-step return terms
        cell_target = 3e6 if d <= 4 else 1.5e7
        k_max = 2
        while (2 * (k_max + 1) * int(np.max(np.abs(walk.offsets_array))) + 1) ** d <= cell_target:
            k_max += 1
    reach = int(np.max(np.abs(walk.offsets_array)))
    radius = k_max * reach
    shape = (2 * radius + 1,) * d
    if math.prod(shape) > 5e7:
        raise SizeOverflow("lattice-sum box too large; lower k_max")
    dist = np.zeros(shape)
    origin = (radius,) * d
    dist[origin] = 1.0
    offsets = walk.offsets_array
    probs = walk.probs_array
    total = 1.0  # k = 0 term
    returns = []
    for k in range(1, k_max + 1):
        new = np.zeros_like(dist)
        for off, p in zip(offsets, probs):
            shifted = dist
            for axis, o in enumerate(off):
                shifted = np.roll(shifted, int(o), axis=axis)
            new += p * shifted
        dist = new
        r = float(dist[origin])
        total += r
        returns.append(r)
    # amplitude fit on the last 10% of even steps
    even = np.array(returns[1::2])  # index i -> 2*(i+1) steps
    if len(even) < 3:
        raise ValueError("k_max too small for a tail fit; increase it")
    n_fit = min(len(even), max(5, len(even) // 10))
    tail = _power_tail(even[-n_fit:], len(even) - n_fit + 1, float(d))
    # error bound: fit residual scale on the window
    err = 0.05 * tail + 1e-12
    return total + tail, err


def _green_monte_carlo(walk: WalkSpec, replicas: int, horizon: int, seed: int):
    d = walk.dimension
    rng = np.random.default_rng(seed)
    offsets = walk.offsets_array
    probs = walk.probs_array
    pos = np.zeros((replicas, d), dtype=np.int64)
    visits = np.ones(replicas)          # k = 0 visit
    window = np.zeros(replicas)         # visits in (horizon/2, horizon]
    half = horizon // 2
    chunk = 256
    for start in range(0, horizon, chunk):
        steps = min(chunk, horizon - start)
        idx = rng.choice(len(probs), size=(replicas, steps), p=probs)
        for s in range(steps):
            pos += offsets[idx[:, s]]
            at0 = ~np.any(pos, axis=1)
            visits += at0
            if start + s + 1 > half:
                window += at0
    # tail beyond the horizon from the late-window visit mass: the amplitude
    # cancels in the ratio of power-law sums
    ks = np.arange(half + 1, horizon + 1, dtype=float)
    window_ref = float(np.sum(ks ** (-d / 2.0)))
    kk = np.arange(horizon + 1, horizon * 2_000, dtype=float)
    tail_ref = float(np.sum(kk ** (-d / 2.0)))
    tail_ref += (kk[-1] + 1.0) ** (1.0 - d / 2.0) / (d / 2.0 - 1.0)
    ratio = tail_ref / window_ref
    window_mean = float(window.mean())
    estimate = float(visits.mean()) + window_mean * ratio
    se_visits = float(visits.std(ddof=1)) / math.sqrt(replicas)
    se_window = float(window.std(ddof=1)) / math.sqrt(replicas)
    err = 1.96 * (se_visits + se_window * ratio) + 0.1 * window_mean * ratio
    return estimate, err


def kappa(G: float, lambda22: float) -> float:
    """Pairwise limit constant 2 / (G + 2/lambda_{2,2})."""
    if G < 1.0 or lambda22 <= 0.0:
        raise ValueError("need G >= 1 and lambda22 > 0")
    return 2.0 / (G + 2.0 / lambda22)
