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

so every table entry is a sum of positive terms.  The totals are two
float64 arrays; a request past them grows both in one pass, to at least
twice their length.  All moments come from the closed form
`measure.moments`.  The merge-size law C(b,k) lambda_{b,k} / lambda_b is
built a dyadic block [2^j, 2^(j+1)) of rows at a time: the top row from one
`measure.log_moments` call (lambda_{b,k} underflows long before
C(b,k) lambda_{b,k} is negligible), every lower row from it by the
consistency relation lambda_{b,k} = lambda_{b+1,k} + lambda_{b+1,k+1}, a
sum of positive terms.  Each row is one array, summed and normalized in
place once the row below it is built, so only its cumulative form, which
the engine bisects, is kept.  Nothing here integrates numerically; the
binomial sums and the quadrature oracle of the test suite check the tables.
Convention: lambda_b = gamma_b = 0 for b in {0, 1}.

The module also houses the block-count classifier and the uniform
hitting-time bound sum_{b>=k} 1/gamma_b + k/gamma_k.  The coalescent comes
down from infinity iff sum_b 1/gamma_b < infinity (Schweinsberg 2000), or
it has an atom at 1.  For a measure a delta_0 + atoms + pieces sum c x^p (1-x)^q the
classifier decides this exactly: COMES_DOWN iff a > 0 or some term with
c > 0 on a piece starting at 0 has p < 0, else STAYS_INFINITE.  Its
tail_bound is a proved upper bound on sum_{b > b_max} 1/gamma_b, taken from
the lower bounds on gamma_b that those parts give.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import measure as measure_mod
from .errors import ZeroRate, ZeroTotalRate, check_count
from .measure import LambdaMeasure

__all__ = [
    "RateKernel",
    "CdiVerdict",
    "cdi_classify",
    "tn_uniform_bound",
]

class RateKernel:
    """Memoized rate tables for one measure.

    Totals (lambda_b, gamma_b) are two float64 arrays, grown lazily as
    cumulative sums of M(0, j) (see the module docstring), each growth in
    one pass to at least twice the table's length; it continues the running
    sums, so every entry is the same whatever the growth history.  Per-(b,k)
    rows M(k-2, b-k) are computed on demand.  Merge-size laws are built a
    dyadic block [2^j, 2^(j+1)) at a time (past b = 4095, a segment of one):
    the first request for b takes the top row of b's block from one
    log_moments call and every lower row from the Pascal recursion (see
    `_merge_weights`), and sums and normalizes each row in place once the
    row below is built from it (see `_merge_block`), so every cumulative
    law is one array of its own.  Each row is a fixed function of its
    block's top row, so a law is bit-identical whatever was asked for
    before it.  Cached arrays, and the tables the totals return, are
    read-only.
    """

    def __init__(self, measure_: LambdaMeasure, b_max: int = 256):
        check_count("b_max", b_max, 2)
        self.measure = measure_
        # index b -> value; entries 0 and 1 are 0 by convention
        self._lam = self._gam = np.zeros(2)
        self._lam.flags.writeable = False
        self._m0_sum = 0.0      # sum_{j <= b_max - 2} M(0, j)
        self._bk_rows: dict[int, np.ndarray] = {}
        # b -> cumulative law, None where lambda_b = 0
        self._merge_rows: dict[int, np.ndarray | None] = {}
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
        lo = len(self._lam)
        if b < lo:
            return
        bs = np.arange(lo, max(2 * lo, b + 1))
        m0 = measure_mod.moments(self.measure, 0, bs - 2)
        # running sums continued from the last entry, in place over the
        # appended terms (np.cumsum adds left to right, so a growth
        # reproduces one long cumsum)
        sums = np.cumsum(np.concatenate(([self._m0_sum], m0)))[1:]
        lam = np.concatenate((self._lam, (bs - 1) * m0))
        np.cumsum(lam[lo - 1:], out=lam[lo - 1:])
        gam = np.concatenate((self._gam, sums))
        np.cumsum(gam[lo - 1:], out=gam[lo - 1:])
        lam.flags.writeable = gam.flags.writeable = False
        self._lam, self._gam = lam, gam
        self._m0_sum = float(sums[-1])

    # -- totals ---------------------------------------------------------

    def lambda_total(self, b: int) -> float:
        if b < 2:
            return 0.0
        self.ensure_b(b)
        return float(self._lam[b])

    def gamma_total(self, b: int) -> float:
        if b < 2:
            return 0.0
        self.ensure_b(b)
        return float(self._gam[b])

    def lambda_table(self, b_hi: int) -> np.ndarray:
        """lambda_b for b = 0..b_hi, a read-only view of the table."""
        self.ensure_b(b_hi)
        return self._lam[:b_hi + 1]

    def gamma_table(self, b_hi: int) -> np.ndarray:
        """gamma_b for b = 0..b_hi, a read-only view of the table."""
        self.ensure_b(b_hi)
        return self._gam[:b_hi + 1]

    # -- per-(b,k) rates ------------------------------------------------

    def lambda_bk_row(self, b: int) -> np.ndarray:
        """Array of lambda_{b,k} = M(k-2, b-k) for k = 2..b."""
        check_count("b", b, 2)
        row = self._bk_rows.get(b)
        if row is None:
            ks = np.arange(2, b + 1)
            row = measure_mod.moments(self.measure, ks - 2, b - ks)
            row.flags.writeable = False
            self._bk_rows[b] = row
        return row

    def lambda_bk(self, b: int, k: int) -> float:
        check_count("k", k, 2)
        if k > b:
            raise ValueError(f"need 2 <= k <= b, got k={k}, b={b}")
        return float(self.lambda_bk_row(b)[k - 2])

    # -- merge-size law -------------------------------------------------

    def merge_size_cumulative(self, b: int) -> np.ndarray:
        """P(merge size <= k) for k = 2..b, the law being
        C(b,k) lambda_{b,k} / lambda_b."""
        check_count("b", b, 2)
        if b not in self._merge_rows:
            self._merge_rows.update(_merge_block(self.measure, *_merge_segment(b)))
        cached = self._merge_rows[b]
        if cached is None:
            raise ZeroTotalRate(f"lambda_{b} = 0", b=b)
        return cached


# a dyadic block [2^j, 2^(j+1)) of merge laws is built whole up to j = 11;
# past it the block is cut into segments of max(2, _SEGMENT_AREA / 2^j)
# rows, so that no segment holds many more cells than [2048, 4096) (6.3e6)
_SEGMENT_AREA = 1 << 22


def _merge_segment(b: int) -> tuple[int, int]:
    """(first row, number of rows) of the block or segment holding row b."""
    first = 1 << (b.bit_length() - 1)
    rows = max(2, min(first, _SEGMENT_AREA // first))
    return b - b % rows, rows


def _merge_weights(meas: LambdaMeasure, lo: int,
                   rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (b, q_b) for every row b of the block [lo, lo + rows), top row
    first, q_b the scaled weights q_{b,k} = C(b,k) lambda_{b,k} in k order,
    each its own array; nothing if every weight is 0.  Row b - 1 is built
    from row b before row b is yielded, so a consumer may overwrite it.

    The weights of the top row t come from one log_moments call (C(b,k)
    overflows and lambda_{b,k} underflows long before q_{b,k} is
    negligible) and are scaled by their largest.  Pitman's consistency
    relation lambda_{b,k} = lambda_{b+1,k} + lambda_{b+1,k+1} gives each
    lower row as

        q_{b,k} = ((b+1-k) q_{b+1,k} + (k+1) q_{b+1,k+1}) / (b+1),

    a sum of positive terms, so nothing cancels and the rounding error grows
    at most linearly down the block.  Since sum_k q_{b,k} = lambda_b and
    lambda_t < 4 lambda_b within a dyadic block, no scaled weight overflows,
    and a weight of law above 1e-250 stays far above the top-row weights
    lost to underflow.
    """
    top = lo + rows - 1
    m = np.arange(top - 1.0)                        # k - 2 for k = 2..t
    log_fact = gammaln(np.arange(1.0, top + 2))     # log n!, n = 0..t
    log_top = (log_fact[top] - log_fact[2:] - log_fact[top - 2::-1]
               + measure_mod.log_moments(meas, m, m[::-1]))
    shift = log_top.max()
    if not shift > -math.inf:
        return
    # the weights are divided by the geometric mean c of b + 1 over the
    # block, not by b + 1 itself: a row's scale then drifts by at most
    # e^(rows / 10) and comes back, and it drops out when the row is normalized
    c = math.exp(np.log(np.arange(lo + 1, top + 1)).mean())
    w = np.arange(top + 2) / c
    row = np.exp(log_top - shift)
    for b in range(top, lo, -1):
        nxt = row[:-1] * w[b - 2:0:-1] + row[1:] * w[3:b + 1]
        yield b, row
        row = nxt
    yield lo, row


def _merge_block(meas: LambdaMeasure, lo: int, rows: int) -> dict:
    """{b: cumulative law} for every row b of the block [lo, lo + rows), each
    a read-only array of its own; None where every weight is 0."""
    laws = dict.fromkeys(range(lo, lo + rows))
    for b, row in _merge_weights(meas, lo, rows):
        # np.cumsum's own sum, without its wrapper's cost on short rows
        np.add.accumulate(row, out=row)
        row /= row[-1]
        row.flags.writeable = False
        laws[b] = row
    return laws


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
    check_count("b_max", b_max, 2)
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
    check_count("k", k, 2)
    gam_k = kernel.gamma_total(k)
    if gam_k <= 0.0:
        raise ZeroRate(f"gamma_{k} = 0", k=k)
    verdict = cdi_classify(kernel, b_max=b_max)
    if not math.isfinite(verdict.tail_bound):
        return math.inf
    gam = kernel.gamma_table(b_max)
    head = float(np.sum(1.0 / gam[k:]))
    return head + verdict.tail_bound + k / gam_k
