"""Coalescence rate tables and derived quantities.

For a finite measure L on [0,1], the merger rate of a fixed k-set out of b
blocks is the moment

    lambda_{b,k} = M(k-2, b-k),   M(m, n) = integral x^m (1-x)^n dL(x),

for 2 <= k <= b, with 0^0 = 1 at the endpoints (Pitman 1999).  The totals

    lambda_b = sum_k C(b,k) lambda_{b,k}
    gamma_b  = sum_k C(b,k) (k-1) lambda_{b,k}
    eta_b    = sum_k C(b,k) k lambda_{b,k}

are cumulative sums of the single vector M(0, j), j = 0, 1, ...:

    lambda_{b+1} - lambda_b = b M(0, b-1)
    gamma_{b+1}  - gamma_b  = sum_{j<b} M(0, j)
    eta_b                   = b sum_{j<=b-2} M(0, j)

so every table entry is a sum of positive terms.  All moments come from the
closed form `measure.moments`; the merge-size law C(b,k) lambda_{b,k} /
lambda_b is normalized from `measure.log_moments`, since lambda_{b,k}
underflows long before C(b,k) lambda_{b,k} is negligible.  The binomial
sums and the quadrature routes serve as checks in the test suite.  Convention: lambda_b = gamma_b = 0 for
b in {0, 1}.

The module also houses the block-count classifier (comes down from infinity
iff sum_b 1/gamma_b < infinity; Schweinsberg 2000), the uniform hitting-time
bound sum_{b>=k} 1/gamma_b + k/gamma_k, and numerical checks of the rate
inequalities used by the spatial theory.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls
from scipy.special import gammaln

from . import measure as measure_mod
from .errors import ZeroRate, ZeroTotalRate
from .measure import LambdaMeasure, QuadratureConfig

__all__ = [
    "RateKernel",
    "CdiVerdict",
    "ClassifierConfig",
    "cdi_classify",
    "tn_uniform_bound",
    "spatial_rate_bounds_check",
    "estimate_rho",
    "deterministic_chain_bound",
    "valid_decrement_sequences",
]

# tolerances of the quadrature oracle behind the increment integrals
_ORACLE_QUADRATURE = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12)


class RateKernel:
    """Memoized rate tables for one measure.

    Totals (lambda_b, gamma_b, eta_b) are grown lazily in dyadic b-blocks as
    cumulative sums of M(0, j) (see the module docstring); a block continues
    the running sums, so every entry is the same whatever the growth history.
    Per-(b,k) rows M(k-2, b-k) and merge-size laws are computed on demand.
    All growth is guarded by a lock, so a prepopulated kernel is safe to
    share across workers and every query behaves as a pure function.
    """

    def __init__(self, measure_: LambdaMeasure, b_max: int = 256):
        if measure_.total_mass <= 0.0:
            raise ZeroTotalRate("measure has zero total mass")
        self.measure = measure_
        self._lock = threading.RLock()
        # index b -> value; entries 0 and 1 are 0 by convention
        self._lam = [0.0, 0.0]
        self._gam = [0.0, 0.0]
        self._eta = [0.0, 0.0]
        self._m0_sum = 0.0      # sum_{j <= b_max - 2} M(0, j)
        self._bk_rows: dict[int, np.ndarray] = {}
        self._merge_rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._merge_cum_lists: dict[int, list] = {}
        self.ensure_b(b_max)

    @property
    def b_max(self) -> int:
        return len(self._lam) - 1

    @property
    def quadrature_error(self) -> float:
        """Always 0.0: the tables come from closed forms, not quadrature."""
        return 0.0

    def ensure_b(self, b: int) -> None:
        if b < len(self._lam):
            return
        with self._lock:
            while len(self._lam) <= b:
                lo = len(self._lam)
                hi = min(max(2 * lo, 4), max(b + 1, 4))
                bs = np.arange(lo, hi)
                m0 = measure_mod.moments(self.measure, 0, bs - 2)
                # running sums continued from the last entry (np.cumsum adds
                # left to right, so a block reproduces one long cumsum)
                sums = np.cumsum(np.concatenate(([self._m0_sum], m0)))[1:]
                lam = np.cumsum(np.concatenate(([self._lam[-1]], (bs - 1) * m0)))[1:]
                gam = np.cumsum(np.concatenate(([self._gam[-1]], sums)))[1:]
                self._lam.extend(lam.tolist())
                self._gam.extend(gam.tolist())
                self._eta.extend((bs * sums).tolist())
                self._m0_sum = float(sums[-1])

    # -- totals ---------------------------------------------------------

    def lambda_total(self, b: int) -> float:
        if b < 2:
            return 0.0
        self.ensure_b(b)
        return self._lam[b]

    def gamma_total(self, b: int) -> float:
        if b < 2:
            return 0.0
        self.ensure_b(b)
        return self._gam[b]

    def eta_total(self, b: int) -> float:
        if b < 2:
            return 0.0
        self.ensure_b(b)
        return self._eta[b]

    def lambda_table(self, b_hi: int) -> np.ndarray:
        """lambda_b for b = 0..b_hi as one array."""
        self.ensure_b(b_hi)
        return np.asarray(self._lam[:b_hi + 1])

    def gamma_table(self, b_hi: int) -> np.ndarray:
        self.ensure_b(b_hi)
        return np.asarray(self._gam[:b_hi + 1])

    # -- per-(b,k) rates ------------------------------------------------

    def lambda_bk_row(self, b: int) -> np.ndarray:
        """Array of lambda_{b,k} = M(k-2, b-k) for k = 2..b."""
        if b < 2:
            raise ValueError("need b >= 2")
        with self._lock:
            row = self._bk_rows.get(b)
            if row is None:
                ks = np.arange(2, b + 1)
                row = measure_mod.moments(self.measure, ks - 2, b - ks)
                self._bk_rows[b] = row
        return row

    def lambda_bk(self, b: int, k: int) -> float:
        if not 2 <= k <= b:
            raise ValueError(f"need 2 <= k <= b, got k={k}, b={b}")
        return float(self.lambda_bk_row(b)[k - 2])

    # -- merge-size law -------------------------------------------------

    def merge_size_distribution(self, b: int) -> np.ndarray:
        """P(merge size = k) for k = 2..b, i.e. C(b,k) lambda_{b,k} / lambda_b."""
        probs, _ = self._merge_row(b)
        return probs

    def merge_size_cumulative(self, b: int) -> np.ndarray:
        return self._merge_row(b)[1]

    def merge_size_cumulative_list(self, b: int) -> list:
        """`merge_size_cumulative(b)` as a memoized Python list, for samplers
        that bisect it once per draw (bisecting an array indexes numpy
        scalars)."""
        cum = self._merge_cum_lists.get(b)
        if cum is None:
            cum = self.merge_size_cumulative(b).tolist()
            with self._lock:
                cum = self._merge_cum_lists.setdefault(b, cum)
        return cum

    def _merge_row(self, b: int):
        if b < 2:
            raise ValueError("need b >= 2")
        with self._lock:
            cached = self._merge_rows.get(b)
            if cached is None:
                ks = np.arange(2, b + 1)
                # in log space: C(b,k) overflows and lambda_{b,k} underflows
                # long before their product is negligible
                log_w = (gammaln(b + 1) - gammaln(ks + 1) - gammaln(b - ks + 1)
                         + measure_mod.log_moments(self.measure, ks - 2, b - ks))
                top = np.max(log_w)
                if top == -np.inf:
                    raise ZeroTotalRate(f"lambda_{b} = 0", b=b)
                probs = np.exp(log_w - top)
                probs /= probs.sum()
                cached = (probs, np.cumsum(probs))
                self._merge_rows[b] = cached
        return cached

    # -- auxiliary integrals used by the inequality checks --------------

    def lambda_increment_integral(self, b: int) -> float:
        """integral b (1-x)^(b-1) dL(x) (equals lambda_{b+1} - lambda_b),
        by quadrature, independently of the tables."""
        def f(x):
            if x == 1.0:
                return 0.0 if b > 1 else float(b)
            return b * math.exp((b - 1) * math.log1p(-x))
        val, _ = measure_mod.integrate(f, self.measure, _ORACLE_QUADRATURE)
        return val

    def gamma_increment_integral(self, b: int) -> float:
        """integral (1 - (1-x)^b) / x dL(x) (equals gamma_{b+1} - gamma_b),
        by quadrature, independently of the tables."""
        def f(x):
            if x == 0.0:
                return float(b)
            return -math.expm1(b * math.log1p(-x)) / x
        val, _ = measure_mod.integrate(f, self.measure, _ORACLE_QUADRATURE)
        return val


# ----------------------------------------------------------------------
# classification: does the block count come down from infinity?
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierConfig:
    fit_points: int = 24            # sample points across the last decade of b
    extrapolate_decades: int = 12   # how far beyond b_max to extend the fit
    grid_per_decade: int = 16
    boundary_band: float = 0.10     # INCONCLUSIVE when this close to divergence


@dataclass(frozen=True)
class CdiVerdict:
    verdict: str                    # COMES_DOWN | STAYS_INFINITE | INCONCLUSIVE
    partial_sum: float
    tail_estimate: float
    note: str
    complete_collapse: bool = False
    fit_coefficients: tuple = field(default=())


def cdi_classify(kernel: RateKernel, b_max: int = 1000,
                 config: ClassifierConfig | None = None) -> CdiVerdict:
    """Classify the coalescent via summability of 1/gamma_b.

    Computes the partial sum up to b_max, then fits gamma_b against the
    asymptotic shape c1 * b^2 L[0,1/b] + c2 * b over the last decade of the
    table and extrapolates the tail on a log grid.  Decade contributions of
    the extrapolated sum decide summability: geometric decay with margin
    means COMES_DOWN, flat or growing contributions mean the sum diverges
    (gamma_b = Theta(b) when integral (1/x) dL is finite).
    """
    if b_max < 100:
        raise ValueError("classification needs b_max >= 100")
    cfg = config or ClassifierConfig()
    meas = kernel.measure

    if meas.has_atom_at_one:
        # an atom at 1 collapses everything to one block at a positive rate
        gam = kernel.gamma_table(b_max)[2:]
        partial = float(np.sum(1.0 / gam))
        return CdiVerdict("COMES_DOWN", partial, 0.0,
                          "atom at 1: complete collapse in finite time",
                          complete_collapse=True)

    gam = kernel.gamma_table(b_max)
    partial = float(np.sum(1.0 / gam[2:]))

    # fit gamma_b ~ c1 * b^2 L[0,1/b] + c2 * b over the last decade
    lo = max(2, b_max // 10)
    bs_fit = np.unique(np.round(np.geomspace(lo, b_max, cfg.fit_points)).astype(int))
    f1 = np.array([b * b * measure_mod.mass(meas, (0.0, 1.0 / b)) for b in bs_fit])
    f2 = bs_fit.astype(float)
    targets = np.array([gam[b] for b in bs_fit])
    scale = np.maximum(targets, 1e-300)
    design = np.column_stack([f1 / scale, f2 / scale])
    coef, _ = nnls(design, targets / scale)
    c1, c2 = float(coef[0]), float(coef[1])

    def gamma_hat(b: float) -> float:
        return c1 * b * b * measure_mod.mass(meas, (0.0, 1.0 / b)) + c2 * b

    # decade-by-decade contributions of sum 1/gamma_hat beyond b_max
    decade_sums = []
    prev_b = float(b_max)
    for dec in range(cfg.extrapolate_decades):
        grid = np.geomspace(prev_b, prev_b * 10.0, cfg.grid_per_decade + 1)
        vals = np.array([1.0 / gamma_hat(b) for b in grid])
        decade_sums.append(float(np.trapezoid(vals, grid)))
        prev_b *= 10.0
    ratios = [decade_sums[i + 1] / decade_sums[i]
              for i in range(len(decade_sums) - 1) if decade_sums[i] > 0]
    ratio = ratios[-1] if ratios else 0.0

    # does gamma_b / b converge?  compare the fitted slope across decades
    slope_a = gamma_hat(prev_b / 10.0) / (prev_b / 10.0)
    slope_b = gamma_hat(prev_b) / prev_b
    linear = slope_a > 0 and abs(slope_b / slope_a - 1.0) < 0.05

    if ratio < 1.0 - cfg.boundary_band:
        tail = sum(decade_sums) + decade_sums[-1] * ratio / max(1.0 - ratio, 1e-12)
        note = (f"tail decade ratio {ratio:.3f} < {1 - cfg.boundary_band:.2f}: "
                f"sum 1/gamma_b converges")
        return CdiVerdict("COMES_DOWN", partial, tail, note,
                          fit_coefficients=(c1, c2))
    if linear or ratio >= 1.0:
        note = (f"gamma_b / b converges (fitted slope stable)" if linear
                else f"tail decade ratio {ratio:.3f} >= 1: sum diverges")
        return CdiVerdict("STAYS_INFINITE", partial, math.inf, note,
                          fit_coefficients=(c1, c2))
    note = f"tail decade ratio {ratio:.3f} within boundary band"
    return CdiVerdict("INCONCLUSIVE", partial, math.nan, note,
                      fit_coefficients=(c1, c2))


def tn_uniform_bound(kernel: RateKernel, k: int = 2, b_max: int = 10_000) -> float:
    """Upper bound sum_{b>=k} 1/gamma_b + k/gamma_k on the uniform mean
    hitting time of k-blocks-per-site; +inf when the sum diverges."""
    if k < 2:
        raise ValueError("need k >= 2")
    gam_k = kernel.gamma_total(k)
    if gam_k <= 0.0:
        raise ZeroRate(f"gamma_{k} = 0", k=k)
    verdict = cdi_classify(kernel, b_max=max(b_max, 100))
    if verdict.verdict != "COMES_DOWN":
        return math.inf
    gam = kernel.gamma_table(b_max)
    head = float(np.sum(1.0 / gam[k:]))
    return head + verdict.tail_estimate + k / gam_k


# ----------------------------------------------------------------------
# inequality checks
# ----------------------------------------------------------------------

def estimate_rho(kernel: RateKernel, b_max: int = 2000, samples: int = 400,
                 seed: int = 0, margin: float = 0.5) -> float:
    """Empirical exponent rho with lambda_b <= m^rho lambda_{ceil(b/m)}.

    Existential in the theory; estimated as the max sampled value of
    log(lambda_b / lambda_{ceil(b/m)}) / log m plus a safety margin.
    Diagnostics only, never used by the simulator.
    """
    rng = np.random.default_rng(seed)
    kernel.ensure_b(b_max)
    best = 1.0
    for _ in range(samples):
        b = int(rng.integers(4, b_max + 1))
        m = int(rng.integers(2, max(b // 2, 3)))
        if b / m < 2:
            continue
        num = kernel.lambda_total(b)
        den = kernel.lambda_total(math.ceil(b / m))
        if num > 0 and den > 0:
            best = max(best, math.log(num / den) / math.log(m))
    return best + margin


def spatial_rate_bounds_check(kernel: RateKernel, site_counts, rho_hat: float) -> dict:
    """Check the spatial rate sandwich for one site configuration.

    gamma_{sum b_i} >= sum_i gamma_{b_i} >= upsilon * gamma_{floor(sum/upsilon)}
    upsilon^(1+rho) lambda_{ceil(sum/upsilon)} >= sum_i lambda_{b_i}
                                               >= lambda_{ceil(sum/upsilon)}
    """
    counts = [int(b) for b in site_counts]
    upsilon = len(counts)
    total = sum(counts)
    if total <= upsilon:
        raise ValueError("need sum of site counts > number of sites")
    kernel.ensure_b(total)
    gamma_sum = kernel.gamma_total(total)
    gamma_sites = sum(kernel.gamma_total(b) for b in counts)
    gamma_floor = upsilon * kernel.gamma_total(total // upsilon)
    lam_sites = sum(kernel.lambda_total(b) for b in counts)
    lam_ceil = kernel.lambda_total(math.ceil(total / upsilon))
    lam_upper = upsilon ** (1.0 + rho_hat) * lam_ceil
    tol = 1e-9 * max(1.0, gamma_sum, lam_upper)
    return {
        "gamma_upper_ok": gamma_sum >= gamma_sites - tol,
        "gamma_lower_ok": gamma_sites >= gamma_floor - tol,
        "lambda_upper_ok": lam_upper >= lam_sites - tol,
        "lambda_lower_ok": lam_sites >= lam_ceil - tol,
        "gamma_margins": (gamma_sum - gamma_sites, gamma_sites - gamma_floor),
        "lambda_margins": (lam_upper - lam_sites, lam_sites - lam_ceil),
    }


def deterministic_chain_bound(kernel: RateKernel, m: int, upsilon: int,
                              j_seq) -> tuple[float, float]:
    """Left and right sides of the deterministic block-decrement inequality.

    Hypotheses: m in [n*upsilon, (n+1)*upsilon) for some n >= 2, j_i >= 1,
    partial sums below m - 2*upsilon until the last, full sum in
    [m - 2*upsilon, m - 1].  Returns (lhs, rhs) with lhs <= rhs expected.
    """
    n = m // upsilon
    if n < 2:
        raise ValueError("need m >= 2 * upsilon")
    js = [int(j) for j in j_seq]
    if any(j < 1 for j in js):
        raise ValueError("decrements must be >= 1")
    partial = sum(js[:-1])
    total = sum(js)
    if not (partial < m - 2 * upsilon and m - 2 * upsilon <= total <= m - 1):
        raise ValueError("decrement sequence violates the hypothesis")
    kernel.ensure_b(max(n, 2))
    lhs, consumed = 0.0, 0
    for j in js:
        remaining = m - consumed
        lhs += j / kernel.gamma_total(remaining // upsilon)
        consumed += j
    rhs = ((m - n * upsilon) / kernel.gamma_total(n)
           + sum(upsilon / kernel.gamma_total(b) for b in range(2, n))
           + 2 * upsilon / kernel.gamma_total(2))
    return lhs, rhs


def valid_decrement_sequences(m: int, upsilon: int):
    """Yield every decrement sequence satisfying the hypothesis above.

    Exhaustive; intended for small m and upsilon only.
    """
    cap = m - 2 * upsilon
    if cap <= 0 or m // upsilon < 2:
        return

    def rec(prefix, partial):
        # close the sequence with one final decrement
        for last in range(max(1, cap - partial), m - partial):
            yield prefix + [last]
        for j in range(1, cap - partial):
            yield from rec(prefix + [j], partial + j)

    yield from rec([], 0)
