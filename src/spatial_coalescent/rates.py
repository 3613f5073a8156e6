"""Coalescence rate tables and derived quantities.

For a finite measure L on [0,1], the merger rate of a fixed k-set out of b
blocks is the moment

    lambda_{b,k} = M(k-2, b-k),   M(m, n) = integral x^m (1-x)^n dL(x),

for 2 <= k <= b, with 0^0 = 1 at the endpoints (Pitman 1999).  The totals

    lambda_b = sum_k C(b,k) lambda_{b,k}
    gamma_b  = sum_k C(b,k) (k-1) lambda_{b,k}

are cumulative sums of the single vector M(0, j), j = 0, 1, ...:

    lambda_{b+1} - lambda_b = b M(0, b-1)
    gamma_{b+1}  - gamma_b  = sum_{j<b} M(0, j)

so every table entry is a sum of positive terms.  A request past the table
grows it in one pass, to at least twice its length.  All moments come from
the closed form `measure.moments`; the merge-size law C(b,k) lambda_{b,k} /
lambda_b is normalized from `measure.log_moments`, since lambda_{b,k}
underflows long before C(b,k) lambda_{b,k} is negligible.  The laws are
built a run of rows at a time: the first request for a row builds every row
of its run (a slice of the dyadic block [2^j, 2^(j+1)) holding it) in one
`log_moments` call over the flattened triangle of (k, b) cells.  Nothing
here integrates numerically; the binomial sums and the quadrature oracle
of the test suite check the tables.
Convention: lambda_b = gamma_b = 0 for b in {0, 1}.

The module also houses the block-count classifier, the uniform hitting-time
bound sum_{b>=k} 1/gamma_b + k/gamma_k, and numerical checks of the rate
inequalities used by the spatial theory.  The coalescent comes down from
infinity iff sum_b 1/gamma_b < infinity (Schweinsberg 2000), or it has an
atom at 1.  For a measure a delta_0 + atoms + pieces sum c x^p (1-x)^q the
classifier decides this exactly: COMES_DOWN iff a > 0 or some term with
c > 0 on a piece starting at 0 has p < 0, else STAYS_INFINITE.  Its
tail_bound is a proved upper bound on sum_{b > b_max} 1/gamma_b, taken from
the lower bounds on gamma_b that those parts give.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import measure as measure_mod
from .errors import ZeroRate, ZeroTotalRate
from .measure import LambdaMeasure

__all__ = [
    "RateKernel",
    "CdiVerdict",
    "cdi_classify",
    "tn_uniform_bound",
    "spatial_rate_bounds_check",
    "estimate_rho",
    "deterministic_chain_bound",
    "valid_decrement_sequences",
]

# most (k, b) cells in one merge-law build; a dyadic block of rows is cut
# into runs of equal length under it
_MERGE_RUN_CELLS = 1 << 16


class RateKernel:
    """Memoized rate tables for one measure.

    Totals (lambda_b, gamma_b) are grown lazily as cumulative sums of
    M(0, j) (see the module docstring), each growth in one pass to at least
    twice the table's length; it continues the running sums, so every entry
    is the same whatever the growth history.  Per-(b,k) rows M(k-2, b-k)
    are computed on demand.  Merge-size laws are built a run of rows at a
    time (the first request for b builds every row of b's run of its dyadic
    block), and every row is normalized on its own, so a law does not depend
    on which rows were asked for before it.  Cached arrays are read-only.
    All growth is guarded by a lock, so a prepopulated kernel is safe to
    share across workers and every query behaves as a pure function.
    """

    def __init__(self, measure_: LambdaMeasure, b_max: int = 256):
        self.measure = measure_
        self._lock = threading.RLock()
        # index b -> value; entries 0 and 1 are 0 by convention
        self._lam = [0.0, 0.0]
        self._gam = [0.0, 0.0]
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
        """Always 0.0: the tables come from closed forms, not quadrature.
        Kept only because the benchmark reads it as a gauge."""
        return 0.0

    @property
    def binary_merges(self) -> bool:
        """True when the measure is a delta_0 alone (Kingman): every merge
        then joins exactly two blocks, whatever b."""
        return not self.measure.pieces and all(
            loc == 0.0 for loc, _ in self.measure.atoms)

    def ensure_b(self, b: int) -> None:
        if b < len(self._lam):
            return
        with self._lock:
            lo = len(self._lam)
            if b < lo:
                return
            bs = np.arange(lo, max(2 * lo, b + 1))
            m0 = measure_mod.moments(self.measure, 0, bs - 2)
            # running sums continued from the last entry (np.cumsum adds
            # left to right, so a growth reproduces one long cumsum)
            sums = np.cumsum(np.concatenate(([self._m0_sum], m0)))[1:]
            lam = np.cumsum(np.concatenate(([self._lam[-1]], (bs - 1) * m0)))[1:]
            gam = np.cumsum(np.concatenate(([self._gam[-1]], sums)))[1:]
            self._lam.extend(lam.tolist())
            self._gam.extend(gam.tolist())
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
                row.flags.writeable = False
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
                self._build_merge_run(b)
                cached = self._merge_rows.get(b)
                if cached is None:
                    raise ZeroTotalRate(f"lambda_{b} = 0", b=b)
        return cached

    def _build_merge_run(self, b: int) -> None:
        """Build the merge-size law of every uncached row in b's run.

        The dyadic block [2^j, 2^(j+1)) holding b is cut into runs of equal
        length, each under _MERGE_RUN_CELLS cells.  The weights
        C(r,k) lambda_{r,k} of all rows r of the run are taken in log space
        (C(r,k) overflows and lambda_{r,k} underflows long before their
        product is negligible) in one log_moments call over the flattened
        cells, then each row is normalized by its own segment max and sum.
        A row whose weights are all 0 is left uncached.
        """
        first = 1 << (b.bit_length() - 1)
        per_run = max(1, _MERGE_RUN_CELLS // (2 * first - 1))
        start = first + (b - first) // per_run * per_run
        rows = np.array([r for r in range(start, min(start + per_run, 2 * first))
                         if r not in self._merge_rows])
        sizes = rows - 1
        ends = np.cumsum(sizes)
        starts = ends - sizes
        row_of = np.repeat(rows, sizes)
        ks = np.arange(int(ends[-1])) - np.repeat(starts, sizes) + 2
        log_fact = gammaln(np.arange(rows[-1] + 1) + 1.0)    # log n!
        log_w = (log_fact[row_of] - log_fact[ks] - log_fact[row_of - ks]
                 + measure_mod.log_moments(self.measure, ks - 2, row_of - ks))
        top = np.maximum.reduceat(log_w, starts)
        with np.errstate(invalid="ignore"):     # rows of zeros become nan
            probs = np.exp(log_w - np.repeat(top, sizes))
            probs /= np.repeat(np.add.reduceat(probs, starts), sizes)
        for r, s, e, t in zip(rows.tolist(), starts.tolist(), ends.tolist(),
                              top.tolist()):
            if t == -math.inf:
                continue
            row = probs[s:e]
            cum = np.cumsum(row)
            row.flags.writeable = False
            cum.flags.writeable = False
            self._merge_rows[r] = (row, cum)


# ----------------------------------------------------------------------
# classification: does the block count come down from infinity?
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CdiVerdict:
    verdict: str                    # COMES_DOWN | STAYS_INFINITE
    partial_sum: float              # sum of 1/gamma_b for 2 <= b <= b_max
    tail_bound: float               # proved bound on sum_{b > b_max} 1/gamma_b
    note: str
    decided_by: str                 # the part of the measure behind the verdict
    complete_collapse: bool = False


def _term_tail_bound(b_max: int, gamma_next: float, c: float, s: float,
                     q: float, hi: float) -> float:
    """Bound on sum_{b > b_max} 1/gamma_b from one density term
    c x^(-s) (1-x)^q on [0, hi] with s > 0; gamma_next = gamma_{b_max+1}.

    With h = min(hi, 1/2) and w = (1-h)^q (1 for q <= 0), the density is at
    least c w x^(-s) on [0, h].  For x >= 2/b, bx - 1 + (1-x)^b >= bx/2, so
    for b >= 4/h

        gamma_b >= c w (b/2) integral_{2/b}^{h} x^(-1-s) dx >= K b^(1+s),
        K = c w (1 - 2^-s) / (2^(1+s) s).

    Past S = max(b_max, ceil(4/h)) the sum is at most S^-s / (K s); the
    S - b_max terms before it are each at most 1/gamma_next, since gamma_b
    increases.
    """
    h = min(hi, 0.5)
    w = (1.0 - h) ** q if q > 0.0 else 1.0
    K = c * w * (1.0 - 2.0 ** -s) / (2.0 ** (1.0 + s) * s)
    S = max(b_max, math.ceil(4.0 / h))
    return (S - b_max) / gamma_next + S ** -s / (K * s)


def _tail_bounds(meas: LambdaMeasure, b_max: int,
                 gamma_next: float) -> list[tuple[float, str]]:
    """(bound on sum_{b > b_max} 1/gamma_b, part) for every part of the
    measure that makes sum_b 1/gamma_b finite."""
    out = []
    a = meas.atom_mass_at(0.0)
    if a > 0.0:
        # gamma_b >= a C(b, 2), and sum_{b > B} 2 / (b (b-1)) = 2 / B
        out.append((2.0 / (a * b_max), f"kingman a={a:g}"))
    for piece in meas.pieces:
        lo, hi = piece.interval
        if lo > 0.0:
            continue
        # only the single-term families (beta, power) have p < 0, so the
        # piece's density is the term itself
        for c, p, q in piece.terms():
            if c > 0.0 and p < 0.0:
                out.append((_term_tail_bound(b_max, gamma_next, c, -p, q, hi),
                            f"{piece.tag} term p={p:g} on [{lo:g}, {hi:g}]"))
    return out


def cdi_classify(kernel: RateKernel, b_max: int = 1000) -> CdiVerdict:
    """Does the block count come down from infinity?  Exact verdict from the
    measure's parts (Schweinsberg 2000: iff sum_b 1/gamma_b < infinity).

    Every supported measure is a delta_0 + atoms in (0, 1] + density pieces
    sum c x^p (1-x)^q on [lo, hi].  A Kingman part (a > 0) gives
    gamma_b >= a C(b, 2), and a term with c > 0 and p < 0 on a piece with
    lo = 0 gives gamma_b >= K b^(1-p): either makes the sum finite.  Every
    other part has integral x^-1 dL < infinity (gamma_b = O(b)) or p = 0
    (gamma_b = O(b log b)), so without such a part the sum diverges.  An
    atom at 1 collapses all blocks at once at a positive rate.

    partial_sum is the sum up to b_max; tail_bound is the smallest of the
    parts' proved bounds on the rest (+inf if no part bounds it).
    """
    if b_max < 2:
        raise ValueError("classification needs b_max >= 2")
    gam = kernel.gamma_table(b_max + 1)
    partial = float(np.sum(1.0 / gam[2:b_max + 1]))
    bounds = _tail_bounds(kernel.measure, b_max, float(gam[b_max + 1]))
    tail, part = min(bounds) if bounds else (math.inf, "")

    if kernel.measure.has_atom_at_one:
        return CdiVerdict("COMES_DOWN", partial, tail,
                          "atom at 1: complete collapse in finite time",
                          "atom at 1", complete_collapse=True)
    if bounds:
        return CdiVerdict("COMES_DOWN", partial, tail,
                          f"{part}: sum 1/gamma_b converges", part)
    part = "no Kingman part and no term x^p with p < 0 at 0"
    return CdiVerdict("STAYS_INFINITE", partial, math.inf,
                      f"{part}: sum 1/gamma_b diverges", part)


def tn_uniform_bound(kernel: RateKernel, k: int = 2, b_max: int = 10_000) -> float:
    """Upper bound sum_{b>=k} 1/gamma_b + k/gamma_k on the uniform mean
    hitting time of k-blocks-per-site; +inf when the sum diverges.  The
    terms past b_max are the classifier's proved tail bound."""
    if k < 2:
        raise ValueError("need k >= 2")
    gam_k = kernel.gamma_total(k)
    if gam_k <= 0.0:
        raise ZeroRate(f"gamma_{k} = 0", k=k)
    verdict = cdi_classify(kernel, b_max=b_max)
    if not math.isfinite(verdict.tail_bound):
        return math.inf
    gam = kernel.gamma_table(b_max)
    head = float(np.sum(1.0 / gam[k:]))
    return head + verdict.tail_bound + k / gam_k


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
