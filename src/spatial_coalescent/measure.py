"""Finite measures on [0,1]: atoms plus density pieces, with integration.

A measure is a list of point atoms and a list of density pieces, of
positive, finite total mass (the zero measure, and a mass that is
infinite or NaN, are rejected on construction).
Supported density families: constant, beta(2-a, a) for a in (0,2), power
x^p (1-x)^q, and user-supplied polynomials.  Atoms on the boundary of an
interval count as inside (closed-interval convention), which makes
mass([0,1]) exactly the total mass.

The production route for every integral against a measure is the closed
form of its moments M(m, n) = integral x^m (1-x)^n dL(x): atoms are summed
exactly with 0^0 = 1, and every density piece is a sum of terms
c x^p (1-x)^q on [lo, hi], which integrate to Beta functions times
regularized incomplete Beta probabilities.  The terms are summed in log
space (`log_moments`), so moments far below the smallest float, such as
the rates of a large merger, keep their relative accuracy.  `mass` and the
total mass use the same closed form.

Adaptive quadrature (`integrate_vector`) is the independent oracle route
for arbitrary integrands; no production path calls it, and it imports
scipy.integrate only when it runs.  Densities with an integrable endpoint
singularity x^e, e in (-1,0), are tamed by the substitution u = x^(1+e)
so the quadrature only ever sees a bounded integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaln, xlog1py, xlogy
from scipy.special import gamma as _gamma_fn

from .errors import ToleranceNotMet

__all__ = [
    "QuadratureConfig",
    "DensityPiece",
    "LambdaMeasure",
    "integrate_vector",
    "log_moments",
    "mass",
    "moments",
]


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 100_000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()

_SUPPORTED_TAGS = ("constant", "beta", "power", "polynomial")


def _negative_somewhere(coefficients, a: float, b: float) -> bool:
    """Whether c0 + c1 x + c2 x^2 + ... dips below zero on [a, b].

    Its minimum there is attained at an endpoint or at a real root of the
    derivative; the real part of every derivative root inside (a, b) is
    tried, so that rounding of a multiple root cannot hide it.  Dips within
    rounding of zero (relative to the sum of |c_i|) do not count."""
    poly = np.polynomial.polynomial
    coeffs = np.asarray(coefficients, dtype=float)
    points = [a, b]
    if len(coeffs) > 2:
        roots = poly.polyroots(poly.polyder(coeffs)).real
        points.extend(roots[(roots > a) & (roots < b)])
    low = np.min(poly.polyval(np.asarray(points), coeffs))
    return bool(low < -1e-12 * np.sum(np.abs(coeffs)))


@dataclass(frozen=True)
class DensityPiece:
    """A density on a subinterval [a,b] of [0,1]."""

    interval: tuple[float, float]
    tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        a, b = self.interval
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"bad piece interval {self.interval}")
        if self.tag not in _SUPPORTED_TAGS:
            raise ValueError(f"unknown density tag {self.tag!r}")
        if self.tag == "beta":
            alpha = self.params["alpha"]
            if not (0.0 < alpha < 2.0):
                raise ValueError("beta family needs alpha in (0,2)")
        # each check is a comparison that NaN fails
        if self.tag == "power":
            if not (-1.0 < self.params["p"] < math.inf
                    and -1.0 < self.params["q"] < math.inf):
                raise ValueError("power exponents must be finite and exceed -1")
            if not 0.0 <= self.params.get("coeff", 1.0) < math.inf:
                raise ValueError("power coeff must be finite and nonnegative")
        if (self.tag == "constant"
                and not 0.0 <= self.params.get("level", 1.0) < math.inf):
            raise ValueError("constant level must be finite and nonnegative")
        if self.tag == "polynomial" and _negative_somewhere(
                self.params["coefficients"], a, b):
            raise ValueError(f"polynomial density is negative on {self.interval}")

    def terms(self) -> list[tuple[float, float, float]]:
        """The density as a sum of terms c x^p (1-x)^q, as (c, p, q)."""
        if self.tag == "constant":
            return [(float(self.params.get("level", 1.0)), 0.0, 0.0)]
        if self.tag == "beta":
            alpha = self.params["alpha"]
            return [(math.exp(-betaln(2.0 - alpha, alpha)), 1.0 - alpha, alpha - 1.0)]
        if self.tag == "power":
            return [(float(self.params.get("coeff", 1.0)),
                     float(self.params["p"]), float(self.params["q"]))]
        # polynomial: coefficients c0 + c1 x + c2 x^2 + ...
        return [(float(c), float(i), 0.0)
                for i, c in enumerate(self.params["coefficients"])]

    def density(self, x):
        # evaluated tag by tag, independently of terms(), so that quadrature
        # of the density stays an independent check of the closed forms
        x = np.asarray(x, dtype=float)
        if self.tag == "constant":
            return np.full_like(x, float(self.params.get("level", 1.0)))
        if self.tag == "beta":
            alpha = self.params["alpha"]
            norm = _gamma_fn(2.0) / (_gamma_fn(2.0 - alpha) * _gamma_fn(alpha))
            with np.errstate(divide="ignore", over="ignore"):
                return norm * x ** (1.0 - alpha) * (1.0 - x) ** (alpha - 1.0)
        if self.tag == "power":
            p, q = self.params["p"], self.params["q"]
            coeff = float(self.params.get("coeff", 1.0))
            with np.errstate(divide="ignore", over="ignore"):
                return coeff * x**p * (1.0 - x) ** q
        # polynomial: coefficients c0 + c1 x + c2 x^2 + ...
        coeffs = self.params["coefficients"]
        return np.polynomial.polynomial.polyval(x, np.asarray(coeffs, dtype=float))

    # Exponent of the (x - 0) factor if this piece touches 0 with a
    # singular density there; 0.0 means regular.  Same for the right end.
    def singular_exponent_left(self) -> float:
        if self.interval[0] == 0.0:
            if self.tag == "beta" and self.params["alpha"] > 1.0:
                return 1.0 - self.params["alpha"]
            if self.tag == "power" and self.params["p"] < 0.0:
                return float(self.params["p"])
        return 0.0

    def singular_exponent_right(self) -> float:
        if self.interval[1] == 1.0:
            if self.tag == "beta" and self.params["alpha"] < 1.0:
                return self.params["alpha"] - 1.0
            if self.tag == "power" and self.params["q"] < 0.0:
                return float(self.params["q"])
        return 0.0

    def clipped(self, lo: float, hi: float) -> "DensityPiece | None":
        a, b = self.interval
        lo, hi = max(a, lo), min(b, hi)
        if lo >= hi:
            return None
        return DensityPiece((lo, hi), self.tag, dict(self.params))

    @staticmethod
    def from_dict(d: dict) -> "DensityPiece":
        return DensityPiece(tuple(d["interval"]), d["tag"], dict(d.get("params", {})))


class LambdaMeasure:
    """Finite measure on [0,1]: atoms + density pieces, of positive and
    finite total mass (a NaN anywhere makes it NaN, and is rejected too)."""

    def __init__(self, atoms=(), pieces=()):
        atoms = [(float(loc), float(m)) for loc, m in atoms]
        for loc, m in atoms:
            if not (0.0 <= loc <= 1.0):
                raise ValueError(f"atom location {loc} outside [0,1]")
            if m <= 0.0:
                raise ValueError("atom masses must be positive")
        locs = [loc for loc, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        self.atoms = sorted(atoms)
        self.pieces = list(pieces)
        piece_mass = 0.0
        for piece in self.pieces:
            val = _piece_mass(piece)
            if val < 0:
                raise ValueError("density pieces must have nonnegative mass")
            piece_mass += val
        self.total_mass = sum(m for _, m in self.atoms) + piece_mass
        if not 0.0 < self.total_mass < math.inf:
            raise ValueError("total mass on [0,1] must be positive and "
                             f"finite, got {self.total_mass}")
        self.has_atom_at_one = any(loc == 1.0 for loc, _ in self.atoms)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def unit_atom(location: float, mass_: float = 1.0) -> "LambdaMeasure":
        return LambdaMeasure(atoms=[(location, mass_)])

    @staticmethod
    def lebesgue(level: float = 1.0) -> "LambdaMeasure":
        return LambdaMeasure(pieces=[DensityPiece((0.0, 1.0), "constant", {"level": level})])

    @staticmethod
    def beta(alpha: float) -> "LambdaMeasure":
        """Beta(2-alpha, alpha) probability measure, alpha in (0,2)."""
        if alpha == 1.0:
            return LambdaMeasure.lebesgue()
        return LambdaMeasure(pieces=[DensityPiece((0.0, 1.0), "beta", {"alpha": alpha})])

    # -- deserialization (the config's measure section) -----------------

    @staticmethod
    def from_dict(d: dict) -> "LambdaMeasure":
        return LambdaMeasure(
            atoms=[tuple(a) for a in d.get("atoms", [])],
            pieces=[DensityPiece.from_dict(p) for p in d.get("pieces", [])],
        )

    def atom_mass_at(self, location: float) -> float:
        for loc, m in self.atoms:
            if loc == location:
                return m
        return 0.0

    def __repr__(self):
        return f"LambdaMeasure(atoms={self.atoms!r}, pieces={len(self.pieces)} pieces, total_mass={self.total_mass})"


# ----------------------------------------------------------------------
# quadrature internals
# ----------------------------------------------------------------------

def _quad_vector(g, lo, hi, cfg: QuadratureConfig):
    # imported here, so that only a process that runs the quadrature
    # oracle pays for loading it
    from scipy import integrate

    val, err = integrate.quad_vec(
        g, lo, hi, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol,
        limit=min(cfg.max_subdivisions, 10_000), norm="max",
    )
    if err > max(cfg.abs_tol, cfg.rel_tol * float(np.max(np.abs(val)))) * 50:
        raise ToleranceNotMet(
            f"vector quadrature error {err:.3e} on [{lo},{hi}] exceeds tolerance",
            error=err)
    return val, err


def _integrate_one_piece(f, piece: DensityPiece, cfg: QuadratureConfig):
    """Integrate f(x) * piece.density(x) over the piece's interval.

    Splits at the midpoint when an endpoint is singular and substitutes
    u = (distance to endpoint)^(1+e) there, which cancels the singular
    factor exactly (the transformed integrand is bounded).
    """
    a, b = piece.interval
    e_left = piece.singular_exponent_left()
    e_right = piece.singular_exponent_right()
    mid = 0.5 * (a + b)

    segments = []
    if e_left < 0.0 and e_right < 0.0:
        segments = [(a, mid, e_left, "left"), (mid, b, e_right, "right")]
    elif e_left < 0.0:
        segments = [(a, b, e_left, "left")]
    elif e_right < 0.0:
        segments = [(a, b, e_right, "right")]
    else:
        segments = [(a, b, 0.0, "none")]

    total, total_err = None, 0.0
    for lo, hi, e, side in segments:
        if side == "none":
            val, err = _quad_vector(lambda x: f(x) * piece.density(x), lo, hi, cfg)
        elif side == "left":
            s = 1.0 + e          # in (0,1)
            u_hi = (hi - lo) ** s

            def g(u, lo=lo, s=s):
                x = lo + u ** (1.0 / s)
                jac = (1.0 / s) * u ** (1.0 / s - 1.0)
                return f(x) * piece.density(x) * jac

            val, err = _quad_vector(g, 0.0, u_hi, cfg)
        else:
            s = 1.0 + e
            u_hi = (hi - lo) ** s

            def g(u, hi=hi, s=s):
                x = hi - u ** (1.0 / s)
                jac = (1.0 / s) * u ** (1.0 / s - 1.0)
                return f(x) * piece.density(x) * jac

            val, err = _quad_vector(g, 0.0, u_hi, cfg)
        total = val if total is None else total + val
        total_err += err
    return total, total_err


def _integrate_pieces(f, pieces, cfg: QuadratureConfig):
    total, total_err = (None, 0.0)
    for piece in pieces:
        val, err = _integrate_one_piece(f, piece, cfg)
        total = val if total is None else total + val
        total_err += err
    if total is None:
        total = 0.0
    return total, total_err


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def integrate_vector(integrand, measure_: LambdaMeasure,
                     config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integral of a bounded vector integrand against the measure.

    The integrand receives a scalar x and must return a numpy array of a
    fixed shape.  Returns (values, error_bound).  Atoms are summed exactly;
    density pieces go through adaptive quadrature.  The integrand must be
    finite at every atom location (with 0^0 = 1 conventions applied by the
    integrand where relevant).
    """
    atom_part = None
    for loc, m in measure_.atoms:
        v = np.asarray(integrand(loc), dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"integrand not finite at atom location {loc}")
        atom_part = m * v if atom_part is None else atom_part + m * v
    piece_part, err = _integrate_pieces(integrand, measure_.pieces, config)
    if atom_part is None and np.isscalar(piece_part):
        raise ValueError("vector integrand produced scalar output")
    total = piece_part if atom_part is None else atom_part + piece_part
    return np.asarray(total, dtype=float), err


def _beta_share(a, b, lo: float, hi: float):
    """Beta(a, b) probability of [lo, hi], taken from the lower tail, or
    from the upper tail (I_{1-x}(b, a)) when both ends lie above the median
    and the lower-tail difference would cancel.  Tails known to be 0 or 1
    (at lo = 0 or hi = 1) are not evaluated."""
    if lo == 0.0:
        return 1.0 if hi == 1.0 else betainc(a, b, hi)
    below_lo, above_lo = betainc(a, b, lo), betainc(b, a, 1.0 - lo)
    if hi == 1.0:
        return np.where(below_lo > 0.5, above_lo, 1.0 - below_lo)
    below_hi, above_hi = betainc(a, b, hi), betainc(b, a, 1.0 - hi)
    return np.where(below_lo > 0.5, above_lo - above_hi, below_hi - below_lo)


def _piece_log_terms(piece: DensityPiece, m, n):
    """(log |value|, sign) of each term's integral of x^m (1-x)^n c x^p (1-x)^q
    over the piece: log |c| + log B(a, b) + log of the Beta(a, b) share."""
    lo, hi = piece.interval
    out = []
    for c, p, q in piece.terms():
        a, b = m + p + 1.0, n + q + 1.0
        with np.errstate(divide="ignore"):
            log_share = np.log(np.maximum(_beta_share(a, b, lo, hi), 0.0))
            out.append((np.log(abs(c)) + betaln(a, b) + log_share, np.sign(c)))
    return out


def _sum_log_terms(terms, shape):
    """(log |sum|, sign of sum) of signed terms given as (log |t|, sign t)."""
    if not terms:
        return np.full(shape, -np.inf), np.zeros(shape)
    if len(terms) == 1:     # an atom or a one-term piece: its own sum
        log_t, sign = terms[0]
        return np.broadcast_to(log_t, shape), np.broadcast_to(sign, shape)
    logs = np.stack([np.broadcast_to(t, shape) for t, _ in terms])
    signs = np.stack([np.broadcast_to(s, shape) for _, s in terms])
    top = np.max(logs, axis=0)
    top = np.where(np.isfinite(top), top, 0.0)
    total = np.sum(signs * np.exp(logs - top), axis=0)
    with np.errstate(divide="ignore"):
        return top + np.log(np.abs(total)), np.sign(total)


def _piece_mass(piece: DensityPiece) -> float:
    log_abs, sign = _sum_log_terms(_piece_log_terms(piece, 0.0, 0.0), ())
    return float(sign * np.exp(log_abs))


def _signed_log_moments(measure_: LambdaMeasure, m, n):
    m, n = np.asarray(m, dtype=float), np.asarray(n, dtype=float)
    # atoms: log w + m log(loc) + n log(1 - loc), with 0 log 0 = 0
    terms = [(math.log(w) + xlogy(m, loc) + xlog1py(n, -loc), 1.0)
             for loc, w in measure_.atoms]
    for piece in measure_.pieces:
        terms += _piece_log_terms(piece, m, n)
    return _sum_log_terms(terms, np.broadcast(m, n).shape)


def log_moments(measure_: LambdaMeasure, m, n):
    """log M(m, n), summed in log space, so moments far below the smallest
    float keep their relative accuracy.  That holds exactly for atoms and
    for pieces on all of [0, 1]; a piece on a sub-interval drops a term
    whose Beta probability of the sub-interval underflows (< ~1e-308).
    -inf where M = 0, nan where M < 0 (a density that is negative
    somewhere).  Broadcasts like moments.
    """
    log_abs, sign = _signed_log_moments(measure_, m, n)
    out = np.where(sign < 0, np.nan, log_abs)
    return out if out.ndim else float(out)


def moments(measure_: LambdaMeasure, m, n):
    """M(m, n) = integral x^m (1-x)^n dL(x) in closed form, 0^0 = 1.

    m and n are nonnegative and broadcast against each other; the result is
    a float for scalar m and n, else an array.  Atoms contribute
    w loc^m (1-loc)^n and each density term c x^p (1-x)^q on [lo, hi]
    contributes c B(m+p+1, n+q+1) times the Beta(m+p+1, n+q+1) probability
    of [lo, hi].  The terms are summed in log space (see log_moments); the
    result underflows to 0 where M is below about the smallest normal float.
    """
    log_abs, sign = _signed_log_moments(measure_, m, n)
    out = sign * np.exp(log_abs)
    return out if out.ndim else float(out)


def mass(measure_: LambdaMeasure, interval) -> float:
    """Measure of a closed subinterval of [0,1]; boundary atoms count."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError(f"bad interval {interval}")
    total = sum(m for loc, m in measure_.atoms if lo <= loc <= hi)
    if hi > lo:
        for piece in measure_.pieces:
            clipped = piece.clipped(lo, hi)
            if clipped is not None:
                total += _piece_mass(clipped)
    return total

