"""Geographical spaces: finite graphs, tori, Green function, limit constant.

A geography is a finite site set with a row-stochastic migration kernel;
blocks jump at rate 1 according to the kernel.  Tori T^N = [-N,N]^d cap Z^d
wrap a base random-walk step distribution modulo the side length 2N+1 and
are stored as neighbor tables (dense matrices only for generic graphs).

The Green function G of a walk (expected visits to the origin, discrete
time) and the constant kappa = 2 / (G + 2/lambda_{2,2}) drive the
large-torus scaling limits; there G is that of the symmetrized walk
(WalkSpec.symmetrized), the jump law of the difference of two blocks.
Each symmetric walk has one exact Green route, which green_method names:
BESSEL for an axis walk, LATTICE_SUM for any other.  The Monte Carlo route
takes any walk and serves as the oracle.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import i0e, zeta

from .errors import DimensionTooLow, SizeOverflow, TruncationUnstable

__all__ = [
    "WalkSpec",
    "GeographySpec",
    "simple_walk",
    "build_torus",
    "check_torus_walk",
    "complete_graph",
    "single_site",
    "green_function",
    "green_method",
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
        (every step other than 0 is +-e_i, with P(+e_i) = P(-e_i) = p_i / 2
        > 0), else None.  The coordinates of an axis walk in continuous time
        are independent rate-p_i simple walks; a step 0 moves none of them."""
        d = self.dimension
        up = np.zeros(d)
        down = np.zeros(d)
        for off, p in zip(self.offsets_array, self.probs_array):
            if p == 0.0 or not off.any():
                continue
            nonzero = np.flatnonzero(off)
            if len(nonzero) != 1 or abs(off[nonzero[0]]) != 1:
                return None
            axis = nonzero[0]
            (up if off[axis] > 0 else down)[axis] += p
        if np.any(up != down) or np.any(up == 0.0):
            return None
        return up + down

    def symmetrized(self) -> WalkSpec:
        """The step law (mu(x) + mu(-x)) / 2: the jump law of the difference
        of two independent copies of the walk.  Duplicate offsets are merged;
        the offsets keep their order, with the mirrors that were missing
        appended, so a symmetric walk gives a walk equal to itself."""
        law: dict[tuple, float] = {}
        for off, p in zip(self.offsets, self.probabilities):
            off = tuple(int(c) for c in off)
            law[off] = law.get(off, 0.0) + float(p)
        mirrors = [tuple(-c for c in off) for off in law]
        offsets = list(law) + [m for m in mirrors if m not in law]
        probs = [(law.get(x, 0.0) + law.get(tuple(-c for c in x), 0.0)) / 2
                 for x in offsets]
        return WalkSpec(self.dimension, tuple(offsets), tuple(probs))


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

    Torus geographies give the kernel as a neighbor table (one row of step
    destinations per site), generic graphs as a dense matrix; both are kept
    only as per-site move rates and sampling tables.  Self-jumps are split
    out: a site's move rate is the probability of leaving it, and
    `sample_move` draws only real moves (a jump to the same site does not
    change state).
    """

    def __init__(self, sites, *, neighbors=None, step_probs=None,
                 dense_kernel=None):
        self.sites = sites
        self.size = len(sites)
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


_TORUS_SITE_BUDGET = 1_000_000


def build_torus(N: int, walk: WalkSpec) -> GeographySpec:
    """Torus [-N,N]^d with the wrapped base walk; sites in lexicographic order."""
    if N < 1:
        raise ValueError("need N >= 1")
    d = walk.dimension
    side = 2 * N + 1
    size = side**d
    if size > _TORUS_SITE_BUDGET:
        raise SizeOverflow(f"torus has {size} sites, budget {_TORUS_SITE_BUDGET}",
                           size=size, budget=_TORUS_SITE_BUDGET)
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


def check_torus_walk(N: int, walk: WalkSpec) -> None:
    """Raise ValueError unless the walk, wrapped onto the torus [-N,N]^d,
    reaches every site from every site.

    The steps of positive probability reach every site iff they generate
    the group Z_side^d, side = 2N+1, that is iff the index of the lattice
    they span in Z^d (the gcd of their d x d minors) is coprime to side.
    A step that wraps onto its own site is a self-jump.
    """
    side = 2 * N + 1
    index = _lattice_index(walk.offsets_array[walk.probs_array > 0],
                           walk.dimension)
    if math.gcd(index, side) != 1:
        raise ValueError(f"the walk does not connect the torus of side {side}: "
                         f"its steps span a lattice of index {index} in Z^d")


def _lattice_index(vectors: np.ndarray, d: int) -> int:
    """Index in Z^d of the lattice spanned by the integer rows of `vectors`
    (0 if they do not span R^d), by integer row reduction: per column,
    Euclid's algorithm leaves one row with a nonzero entry, the pivot, and
    the index is the product of the pivots."""
    rows = [[int(c) for c in v] for v in vectors]
    index = 1
    for col in range(d):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[col]]
        if not live:
            return 0
        index *= abs(live[0][col])
        rows.remove(live[0])
    return index


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

def green_function(walk: WalkSpec, method: str | None = None, *,
                   replicas: int = 20_000, horizon: int = 4_000, seed: int = 0):
    """Expected visits to 0 of the discrete-time walk started at 0.

    Without a `method`, the exact route that green_method(walk) names:
    BESSEL for axis walks, LATTICE_SUM for every other symmetric walk.
    BESSEL, for axis walks only (see WalkSpec.axis_rates), integrates the
    continuous-time return probability prod_i e^(-p_i t) I_0(p_i t) over
    t >= 0 (Watson's integral; Montroll 1956).  LATTICE_SUM, for symmetric
    walks only, sums the return probabilities exactly on a Fourier grid and
    adds the local-CLT tail in closed form.  MONTE_CARLO counts visits over
    a finite horizon and estimates the tail from late-window visits; it
    takes any walk and serves as the independent oracle.
    Returns (estimate, error_bound).
    """
    d = walk.dimension
    if d < 3:
        raise DimensionTooLow(f"walk is recurrent for d={d} < 3", d=d)
    method = method or green_method(walk)
    if method == "BESSEL":
        return _green_bessel(walk)
    if method == "LATTICE_SUM":
        return _green_lattice_sum(walk)
    if method == "MONTE_CARLO":
        return _green_monte_carlo(walk, replicas, horizon, seed)
    raise ValueError(f"unknown method {method!r}")


def green_method(walk: WalkSpec) -> str:
    """The exact Green route of `walk`: BESSEL for an axis walk, else
    LATTICE_SUM."""
    return "BESSEL" if walk.axis_rates is not None else "LATTICE_SUM"


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


# Fourier grid cells that LATTICE_SUM may use, and the number of last exact
# returns on which the 1/k correction of its tail is fitted
_GRID_CELLS = 2_000_000
_FIT_RETURNS = 10


def _green_lattice_sum(walk: WalkSpec):
    """Exact partial sum of the returns p_k(0), k <= K, plus the local-CLT
    tail in closed form.

    p_k(0) is the mean of phi^k, phi the characteristic function of the
    step, over the grid (2 pi / M) Z_M^d.  With M = K reach + 1 no nonzero
    multiple of M lies within k reach of 0, so the mean is exact for k <= K;
    M comes from the budget of _GRID_CELLS cells.  Past K,
    p_k(0) = a_(k mod 2) C k^(-d/2) (1 + c/k + O(k^-2)), where
    C = (2 pi)^(-d/2) det(Sigma)^(-1/2) for the step covariance Sigma
    (Lawler & Limic 2010, Thm 2.1.1), a_0 = n+ + n- and a_1 = n+ - n-: n+ is
    the index of the lattice the steps span, and n- = n+ if the two-step
    sums span index 2 n+ (the walk is bipartite there), else 0.  Only c is
    fitted, on the last _FIT_RETURNS returns.  The error bound is the size
    of the 1/k correction plus the fit residual times the leading tail.
    """
    d = walk.dimension
    keep = walk.probs_array > 0
    offsets, probs = walk.offsets_array[keep], walk.probs_array[keep]
    reach = int(np.max(np.abs(offsets)))
    K = (int(_GRID_CELLS ** (1.0 / d)) - 1) // reach
    if K < _FIT_RETURNS:
        raise TruncationUnstable(
            f"{_GRID_CELLS} grid cells sum only {K} steps exactly (reach "
            f"{reach}, d = {d}); the tail fit needs {_FIT_RETURNS}", K=K)
    side = K * reach + 1
    law = np.zeros((side,) * d)
    np.add.at(law, tuple((offsets % side).T), probs)
    phi = np.fft.fftn(law)
    if np.max(np.abs(phi.imag)) > 1e-12:
        raise ValueError("the LATTICE_SUM Green route needs a symmetric walk, "
                         "P(x) = P(-x); see WalkSpec.symmetrized")
    phi = phi.real
    returns = np.empty(K + 1)
    power = np.ones_like(phi)
    for k in range(K + 1):
        returns[k] = power.mean()
        power *= phi

    s = d / 2.0
    sigma = (offsets.T * probs) @ offsets
    C = (2.0 * np.pi) ** -s / math.sqrt(np.linalg.det(sigma))
    n_plus = _lattice_index(offsets, d)
    # the sums x + offsets[0] span every two-step sum x + y
    n_minus = n_plus if _lattice_index(offsets + offsets[0], d) == 2 * n_plus else 0
    amplitude = C * np.array([n_plus + n_minus, n_plus - n_minus])
    ks = np.arange(K - _FIT_RETURNS + 1, K + 1)
    ks = ks[amplitude[ks % 2] > 0]
    rel = returns[ks] / (amplitude[ks % 2] * ks ** -s) - 1.0
    c = float((rel / ks).sum() / (1.0 / ks ** 2).sum())
    residual = float(np.max(np.abs(rel - c / ks)))
    # the sum of k^(-t) over k = k0, k0 + 2, ... is 2^(-t) zeta(t, k0 / 2)
    first = [K + 1 + (K + 1 - r) % 2 for r in (0, 1)]
    lead = sum(a * 2 ** -s * zeta(s, k0 / 2) for a, k0 in zip(amplitude, first))
    correction = c * sum(a * 2 ** -(s + 1) * zeta(s + 1, k0 / 2)
                         for a, k0 in zip(amplitude, first))
    return (float(returns.sum() + lead + correction),
            float(abs(correction) + residual * lead + 1e-12))


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
    ratio = _tail_ratio(d / 2.0, half, horizon)
    window_mean = float(window.mean())
    estimate = float(visits.mean()) + window_mean * ratio
    se_visits = float(visits.std(ddof=1)) / math.sqrt(replicas)
    se_window = float(window.std(ddof=1)) / math.sqrt(replicas)
    err = 1.96 * (se_visits + se_window * ratio) + 0.1 * window_mean * ratio
    return estimate, err


def _tail_ratio(s: float, half: int, horizon: int) -> float:
    """sum_{k > horizon} k^(-s) / sum_{half < k <= horizon} k^(-s), by the
    Hurwitz zeta function zeta(s, q) = sum_{k >= 0} (k + q)^(-s)."""
    tail = zeta(s, horizon + 1)
    return float(tail / (zeta(s, half + 1) - tail))


def kappa(G: float, lambda22: float) -> float:
    """Pairwise limit constant 2 / (G + 2/lambda_{2,2})."""
    if G < 1.0 or lambda22 <= 0.0:
        raise ValueError("need G >= 1 and lambda22 > 0")
    return 2.0 / (G + 2.0 / lambda22)
