"""Geographical spaces: finite graphs, tori, Green function, limit constant.

A geography is a finite site set with a row-stochastic migration kernel;
blocks jump at rate 1 according to the kernel.  Tori T^N = [-N,N]^d cap Z^d
wrap a base random-walk step distribution modulo the side length 2N+1, their
sites numbered in the lexicographic order of the coordinates.  Every
geography keeps its kernel in one form, the flat move table that the
engine's compiled loop reads (GeographySpec.move_table).

The Green function G of a walk (expected visits to the origin, discrete
time) and the constant kappa = 2 / (G + 2/lambda_{2,2}) drive the
large-torus scaling limits; there G is that of the symmetrized walk
(WalkSpec.symmetrized), the jump law of the difference of two blocks.
Each symmetric walk has one exact Green route, which green_method names:
BESSEL for an axis walk, and for any other CUBATURE, a Gauss-Legendre
cubature of the Fourier integral of G on Duffy pyramids, after the steps
are written in a basis of the lattice they span.  A Monte Carlo estimate,
which takes any walk, is the oracle of the tests (tests/green_oracle.py).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from .errors import (DimensionTooLow, SizeOverflow, TruncationUnstable,
                     check_count)

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
        check_count("dimension", self.dimension, 1)
        probs = np.asarray(self.probabilities, dtype=float)
        if (not np.all(np.isfinite(probs)) or abs(probs.sum() - 1.0) > 1e-12
                or np.any(probs < 0)):
            raise ValueError("step probabilities must be a distribution")
        offs = np.asarray(self.offsets, dtype=int)
        if offs.shape != (len(probs), self.dimension):
            raise ValueError("offsets/probabilities shape mismatch")
        # purely d-dimensional: the support, the steps of positive
        # probability, must span all coordinates
        if np.linalg.matrix_rank(offs[probs > 0]) < self.dimension:
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
        law = self._law()
        mirrors = [tuple(-c for c in off) for off in law]
        offsets = list(law) + [m for m in mirrors if m not in law]
        probs = [(law[x] + law[tuple(-c for c in x)]) / 2 for x in offsets]
        return WalkSpec(self.dimension, tuple(offsets), tuple(probs))

    def _law(self) -> Counter:
        """P(x) per distinct offset x, duplicates merged, in the order of
        first appearance; 0 for an offset not listed."""
        law = Counter()
        for off, p in zip(self.offsets_array.tolist(), self.probabilities):
            law[tuple(off)] += float(p)
        return law


def simple_walk(d: int) -> WalkSpec:
    """Simple symmetric nearest-neighbor walk on Z^d."""
    check_count("d", d, 1)
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

    A torus gives the kernel as a neighbor table, one row of step
    destinations per site, a generic graph as a dense matrix.  It is kept
    only as `move_table`, flat arrays that the engine's compiled loop reads
    and `sample_move` bisects: (rates, starts, cum, dest), the move rate of
    each site (float64) and the table of site i, cum[starts[i]:starts[i + 1]]
    (float64) and dest[starts[i]:starts[i + 1]] (int32), empty for a site
    that never moves.  Self-jumps are split out: a site's move rate is the
    probability of leaving it, and `sample_move` draws only real moves (a
    jump to the same site does not change state).
    """

    def __init__(self, size: int, *, neighbors=None, step_probs=None,
                 dense_kernel=None):
        self.size = size
        if neighbors is not None:
            self_mask = neighbors == np.arange(size)[:, None]
            self.move_rates = 1.0 - self_mask @ step_probs
            dests = neighbors
            probs = np.where(self_mask, 0.0, step_probs[None, :])
        else:
            self.move_rates = 1.0 - np.diag(dense_kernel)
            dests = np.broadcast_to(np.arange(size), dense_kernel.shape)
            probs = dense_kernel.copy()
            np.fill_diagonal(probs, 0.0)
        # row i of `probs` weighs the destinations in row i of `dests`, self-
        # jumps zeroed.  Site i's table keeps the destinations of positive
        # weight and their cumulative conditional probabilities, summed left
        # to right and divided by the row's last partial sum, so the last is
        # that sum over itself, exactly 1.0, and bisecting any u in [0, 1)
        # lands in the row.
        kept = probs > 0.0
        cum = np.cumsum(probs, axis=1)
        lengths = kept.sum(axis=1)
        starts = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        self.move_table = (self.move_rates, starts,
                           cum[kept] / np.repeat(cum[:, -1], lengths),
                           dests[kept].astype(np.int32))

    def sample_move(self, i: int, u: float) -> int:
        """Destination != i for a migrating block, from uniform u in [0,1)."""
        _rates, starts, cum, dest = self.move_table
        return int(dest[bisect_right(cum, u, starts[i], starts[i + 1])])


_TORUS_SITE_BUDGET = 1_000_000


def build_torus(N: int, walk: WalkSpec) -> GeographySpec:
    """Torus [-N,N]^d with the wrapped base walk; sites in lexicographic order."""
    check_count("N", N, 1)
    d = walk.dimension
    side = 2 * N + 1
    size = side**d
    if size > _TORUS_SITE_BUDGET:
        raise SizeOverflow(f"torus has {size} sites, budget {_TORUS_SITE_BUDGET}",
                           size=size, budget=_TORUS_SITE_BUDGET)
    axes = [np.arange(-N, N + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)  # lexicographic
    offsets = walk.offsets_array
    probs = walk.probs_array
    neighbors = np.empty((size, len(offsets)), dtype=np.int64)
    for j, off in enumerate(offsets):
        wrapped = (coords + off + N) % side  # digits in [0, side)
        idx = np.zeros(size, dtype=np.int64)
        for axis in range(d):
            idx = idx * side + wrapped[:, axis]
        neighbors[:, j] = idx
    return GeographySpec(size, neighbors=neighbors, step_probs=probs)


def check_torus_walk(N: int, walk: WalkSpec) -> None:
    """Raise ValueError unless the walk, wrapped onto the torus [-N,N]^d,
    reaches every site from every site.

    The steps of positive probability reach every site iff they generate
    the group Z_side^d, side = 2N+1, that is iff the index of the lattice
    they span in Z^d (the gcd of their d x d minors) is coprime to side.
    A step that wraps onto its own site is a self-jump.
    """
    side = 2 * N + 1
    basis = _lattice_basis(walk.offsets_array[walk.probs_array > 0], walk.dimension)
    index = round(abs(np.linalg.det(basis)))
    if math.gcd(index, side) != 1:
        raise ValueError(f"the walk does not connect the torus of side {side}: "
                         f"its steps span a lattice of index {index} in Z^d")


def _lattice_basis(vectors, d: int) -> np.ndarray:
    """A basis of the lattice spanned by the integer rows of `vectors`, as
    the rows of an upper triangular integer d x d matrix, by integer row
    reduction: per column, Euclid's algorithm leaves one row with a nonzero
    entry, the pivot.  Its |det|, the product of the pivots, is the index of
    the lattice in Z^d; a column without a pivot gets a zero row, so the
    det is 0 when the rows do not span R^d."""
    rows = [[int(c) for c in v] for v in vectors]
    basis = []
    for col in range(d):
        live = [r for r in rows if r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r[:] = [a - q * b for a, b in zip(r, pivot)]
            live = [r for r in live if r[col]]
        if live:
            rows.remove(live[0])
        basis.append(live[0] if live else [0] * d)
    return np.array(basis, dtype=np.int64)


def complete_graph(n_sites: int) -> GeographySpec:
    """Uniform jumps to any other site."""
    check_count("n_sites", n_sites, 2)
    kern = np.full((n_sites, n_sites), 1.0 / (n_sites - 1))
    np.fill_diagonal(kern, 0.0)
    return generic_graph(kern)


def single_site() -> GeographySpec:
    """One site with a self-loop kernel: migration is a no-op."""
    return GeographySpec(1, dense_kernel=np.array([[1.0]]))


def generic_graph(kernel: np.ndarray) -> GeographySpec:
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise ValueError("kernel must be square")
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel entries must be finite")
    bad = np.where(np.abs(kernel.sum(axis=1) - 1.0) > 1e-12)[0]
    if len(bad):
        raise ValueError(f"kernel rows {bad.tolist()} do not sum to 1")
    if np.any(kernel < 0):
        raise ValueError("kernel entries must be nonnegative")
    return GeographySpec(kernel.shape[0], dense_kernel=kernel)


# ----------------------------------------------------------------------
# Green function of the base walk on Z^d
# ----------------------------------------------------------------------

def green_function(walk: WalkSpec, method: str | None = None):
    """Expected visits to 0 of the discrete-time walk started at 0.

    Without a `method`, the exact route that green_method(walk) names:
    BESSEL for axis walks, CUBATURE for every other symmetric walk.
    BESSEL, for axis walks only (see WalkSpec.axis_rates), integrates the
    continuous-time return probability prod_i e^(-p_i t) I_0(p_i t) over
    t >= 0 (Watson's integral; Montroll 1956) by a fixed exp-sinh rule;
    its bound is the distance of the rule at twice the step.  CUBATURE, for
    symmetric walks only, integrates 1 / (1 - phi) over the Fourier cube,
    phi the characteristic function of the step, by a Gauss-Legendre rule
    on Duffy pyramids; its bound is the distance of a coarser rule.  Both raise
    TruncationUnstable when their bound is above a fixed limit.  Returns
    (estimate, error_bound).
    """
    d = walk.dimension
    if d < 3:
        raise DimensionTooLow(f"walk is recurrent for d={d} < 3", d=d)
    method = method or green_method(walk)
    if method == "BESSEL":
        return _green_bessel(walk)
    if method == "CUBATURE":
        return _green_cubature(walk)
    raise ValueError(f"unknown method {method!r}")


def green_method(walk: WalkSpec) -> str:
    """The exact Green route of `walk`: BESSEL for an axis walk, else
    CUBATURE."""
    return "BESSEL" if walk.axis_rates is not None else "CUBATURE"


# largest error bound the BESSEL route accepts
_BESSEL_MAX_ERROR = 1e-10

# the exp-sinh rule of the BESSEL route (Takahasi & Mori 1974): t =
# exp((pi/2) sinh s), the trapezoid rule in s on [-5, 5] at step 1/64, with
# weights dt/ds = (pi/2) cosh(s) t; every other node gives the rule at 1/32
_BESSEL_STEP = 1 / 64
_BESSEL_S = np.arange(-320, 321) * _BESSEL_STEP
_BESSEL_T = np.exp(np.pi / 2 * np.sinh(_BESSEL_S))
_BESSEL_W = np.pi / 2 * np.cosh(_BESSEL_S) * _BESSEL_T


def _green_bessel(walk: WalkSpec):
    """G = integral over t >= 0 of prod_i i0e(p_i t) dt (Watson's integral),
    by the exp-sinh rule above.  The bound is the distance between the rules
    at steps 1/32 and 1/64, plus the rounding of the sums and the mass past
    the cut ends: below t_lo at most t_lo, since the integrand is at most 1,
    and above t_hi at most that of prod_i (2 pi p_i t)^(-1/2), since
    sqrt(x) i0e(x) increases to (2 pi)^(-1/2)."""
    rates = walk.axis_rates
    if rates is None:
        raise ValueError("the BESSEL Green route needs an axis walk: every "
                         "step +-e_i with P(+e_i) = P(-e_i) > 0")
    # i0e(x) = e^(-x) I_0(x): a rate-p coordinate is back at 0 at time t
    # with probability i0e(p t)
    terms = np.prod(i0e(np.outer(_BESSEL_T, rates)), axis=1) * _BESSEL_W
    fine = _BESSEL_STEP * terms.sum()
    coarse = 2 * _BESSEL_STEP * terms[::2].sum()
    half_d = len(rates) / 2
    t_lo, t_hi = _BESSEL_T[0], _BESSEL_T[-1]
    cut = t_lo + (t_hi ** (1 - half_d) / (half_d - 1)
                  / math.sqrt(np.prod(2 * np.pi * rates)))
    err = abs(fine - coarse) + 1e-14 * fine + cut
    if not err <= _BESSEL_MAX_ERROR:
        raise TruncationUnstable(f"Bessel Green integral error bound {err:.2e} "
                                 f"(limit {_BESSEL_MAX_ERROR:.0e})", error=err)
    return float(fine), float(err)


# Gauss-Legendre nodes per axis of the fine CUBATURE rule: at most
# _CUBATURE_NODES, and at most _CUBATURE_CELLS nodes in each pyramid; the
# coarse rule, whose distance from the fine one bounds the error, has 3/4 as
# many.  The route raises above _CUBATURE_MAX_ERROR.
_CUBATURE_NODES = 32
_CUBATURE_CELLS = 2 ** 20
_CUBATURE_MAX_ERROR = 1e-6


def _green_cubature(walk: WalkSpec):
    """G = (2 pi)^(-d) times the integral over [-pi, pi]^d of 1 / (1 - phi),
    phi(theta) = sum_x p_x cos(x . theta) (Montroll 1956), by a tensor
    Gauss-Legendre rule on the 2d pyramids with apex 0 (Duffy 1982).

    On the pyramid over the face +e_a, theta = r (e_a + sum_(j != a) u_j e_j)
    with r in [0, pi] and u in [-1, 1]^(d-1); the Jacobian r^(d-1) cancels
    the 1 / r^2 of 1 - phi at 0, so the integrand is smooth for d >= 3.  phi
    is even, so the pyramid over -e_a equals that over +e_a.  The steps are
    first written in a basis of the lattice they span, which leaves G as it
    is; there they span Z^d, and 1 - phi = sum_x 2 p_x sin^2(x . theta / 2)
    vanishes on the cube only at 0.
    """
    d = walk.dimension
    law = walk._law()
    if any(abs(p - law[tuple(-c for c in x)]) > 1e-12 for x, p in law.items()):
        raise ValueError("the CUBATURE Green route needs a symmetric walk, "
                         "P(x) = P(-x); see WalkSpec.symmetrized")
    # one step x of each pair +-x in the support: the pair adds
    # 4 p_x sin^2(x . theta / 2) to 1 - phi
    half = [x for x, p in law.items() if p > 0 and x > tuple(-c for c in x)]
    steps = np.linalg.solve(_lattice_basis(half, d).T, np.transpose(half)).T.round()
    coefs = 4.0 * np.array([law[x] for x in half])
    nodes = [n for n in range(4, _CUBATURE_NODES + 1) if n ** d <= _CUBATURE_CELLS]
    if not nodes:
        raise TruncationUnstable(f"d = {d} leaves fewer than 4 cubature nodes per axis")
    fine = _duffy_rule(steps, coefs, nodes[-1])
    # the distance of the coarse rule, plus the rounding of the sums
    err = abs(fine - _duffy_rule(steps, coefs, 3 * nodes[-1] // 4)) + 1e-14 * fine
    if not err <= _CUBATURE_MAX_ERROR:
        raise TruncationUnstable(f"Green cubature error bound {err:.2e} (limit "
                                 f"{_CUBATURE_MAX_ERROR:.0e})", error=err)
    return fine, err


def _duffy_rule(steps: np.ndarray, coefs: np.ndarray, n: int) -> float:
    """The integral of _green_cubature by the n-node Gauss-Legendre rule in
    r and in each u_j, for 1 - phi = sum_k coefs_k sin^2(steps_k . theta / 2)."""
    d = steps.shape[1]
    t, w = np.polynomial.legendre.leggauss(n)
    r = np.pi / 2 * (t + 1.0)
    w_r = np.pi / 2 * w * r ** (d - 1)
    u = np.stack(np.meshgrid(*[t] * (d - 1), indexing="ij"), -1).reshape(-1, d - 1)
    w_u = np.prod(np.meshgrid(*[w] * (d - 1), indexing="ij"), axis=0).ravel()
    total = 0.0
    for a in range(d):
        half_phase = np.insert(u, a, 1.0, axis=1) @ steps.T / 2.0
        for r_k, w_k in zip(r, w_r):
            total += w_k * (w_u @ (1.0 / (np.sin(r_k * half_phase) ** 2 @ coefs)))
    return 2.0 * total / (2.0 * np.pi) ** d


def kappa(G: float, lambda22: float) -> float:
    """Pairwise limit constant 2 / (G + 2/lambda_{2,2})."""
    if not (G >= 1.0 and lambda22 > 0.0):
        raise ValueError(f"need G >= 1 and lambda22 > 0, got G = {G!r} and "
                         f"lambda22 = {lambda22!r}")
    return 2.0 / (G + 2.0 / lambda22)
