import bisect
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc, betaln, gammaln, logsumexp
from scipy.stats import binom

from quadrature_oracle import gamma_increment_integral, lambda_increment_integral
from rate_inequalities import (
    deterministic_chain_bound,
    estimate_rho,
    spatial_rate_bounds_check,
    valid_decrement_sequences,
)
from spatial_coalescent import measure as measure_mod
from spatial_coalescent.errors import ZeroRate, ZeroTotalRate
from spatial_coalescent.measure import (
    DensityPiece,
    LambdaMeasure,
    _beta_share,
    log_moments,
)
from spatial_coalescent.rates import (
    RateKernel,
    _merge_segment,
    _merge_weights,
    cdi_classify,
    tn_uniform_bound,
)


def merge_law(kernel: RateKernel, b: int) -> np.ndarray:
    """P(merge size = k) for k = 2..b: row b of the Pascal recursion behind
    `kernel.merge_size_cumulative(b)`, normalized here.  Raises
    ZeroTotalRate where the kernel does."""
    kernel.merge_size_cumulative(b)
    lo, rows = _merge_segment(b)
    weights = dict(_merge_weights(kernel.measure, lo, rows))[b]
    return weights / weights.sum()


# ----------------------------------------------------------- per-merge rates

def test_pairwise_only_for_atom_at_zero(kingman_kernel):
    for b in (2, 3, 5, 8):
        assert kingman_kernel.lambda_bk(b, 2) == pytest.approx(1.0, abs=1e-12)
        for k in range(3, b + 1):
            assert kingman_kernel.lambda_bk(b, k) == pytest.approx(0.0, abs=1e-12)


def test_lebesgue_rates_b3(lebesgue_kernel):
    # closed-form (k-2)!(b-k)!/(b-1)!
    assert lebesgue_kernel.lambda_bk(3, 2) == pytest.approx(0.5, rel=1e-10)
    assert lebesgue_kernel.lambda_bk(3, 3) == pytest.approx(0.5, rel=1e-10)


def test_total_merge_only_for_atom_at_one(one_atom_kernel):
    assert one_atom_kernel.lambda_bk(4, 4) == pytest.approx(1.0, abs=1e-12)
    assert one_atom_kernel.lambda_bk(4, 2) == pytest.approx(0.0, abs=1e-12)
    assert one_atom_kernel.lambda_bk(4, 3) == pytest.approx(0.0, abs=1e-12)


def test_lambda_bk_closed_form_beta_integral(lebesgue_kernel):
    for b in range(2, 12):
        for k in range(2, b + 1):
            oracle = (math.factorial(k - 2) * math.factorial(b - k)
                      / math.factorial(b - 1))
            # abs=0.0: the oracle goes down to 7.9e-4, where pytest's
            # default abs=1e-12 would void rel=1e-10
            assert lebesgue_kernel.lambda_bk(b, k) == pytest.approx(
                oracle, rel=1e-10, abs=0.0)


def test_lambda_bk_row_mixture_sub_interval_beta():
    # atom at 0.3 plus Beta(2 - a, a) on [0, 0.6]: x^(k-2) (1-x)^(b-k) at
    # the atom plus B(k-a, b-k+a) / B(2-a, a) * I_0.6(k-a, b-k+a)
    a, b = 1.5, 1000
    kern = RateKernel(LambdaMeasure(
        atoms=[(0.3, 1.0)],
        pieces=[DensityPiece((0.0, 0.6), "beta", {"alpha": a})]))
    row = kern.lambda_bk_row(b)
    for k in (2, 500, 1000):
        atom = math.exp((k - 2) * math.log(0.3) + (b - k) * math.log(0.7))
        dens = math.exp(betaln(k - a, b - k + a) - betaln(2 - a, a)
                        + math.log(betainc(k - a, b - k + a, 0.6)))
        assert row[k - 2] == pytest.approx(atom + dens, rel=1e-9, abs=0.0), k


def test_merge_size_law_atom_large_b_is_conditioned_binomial():
    # an atom at x gives C(b,k) x^(k-2) (1-x)^(b-k), i.e. Binomial(b, x)
    # given k >= 2; at b = 2000 the rates near k = 600 are ~1e-529, far
    # below the smallest float, while the law there is ~0.02
    b = 2000
    ks = np.arange(2, b + 1)
    law = merge_law(RateKernel(LambdaMeasure.unit_atom(0.3)), b)
    oracle = binom.pmf(ks, b, 0.3) / binom.sf(1, b, 0.3)
    big = oracle > 1e-250
    np.testing.assert_allclose(law[big], oracle[big], rtol=1e-9, atol=0.0)
    assert np.all(law[~big] < 1e-240)
    assert float(ks @ law) == pytest.approx(600.0, rel=1e-9)


def test_merge_size_law_beta_large_b_matches_log_space_formula():
    # Beta(2 - a, a): C(b,k) B(k-a, b-k+a) / B(2-a, a), normalized
    a, b = 0.5, 2000
    ks = np.arange(2, b + 1)
    log_w = (gammaln(b + 1) - gammaln(ks + 1) - gammaln(b - ks + 1)
             + betaln(ks - a, b - ks + a))
    oracle = np.exp(log_w - logsumexp(log_w))
    law = merge_law(RateKernel(LambdaMeasure.beta(a)), b)
    np.testing.assert_allclose(law, oracle, rtol=1e-9, atol=0.0)


# ----------------------------------------------------------- totals

def test_kingman_totals(kingman_kernel):
    assert kingman_kernel.lambda_total(5) == pytest.approx(10.0, rel=1e-12)
    assert kingman_kernel.gamma_total(6) == pytest.approx(15.0, rel=1e-12)


def test_lebesgue_totals(lebesgue_kernel):
    assert lebesgue_kernel.lambda_total(3) == pytest.approx(2.0, rel=1e-10)
    assert lebesgue_kernel.gamma_total(3) == pytest.approx(2.5, rel=1e-10)


def test_degenerate_b_convention(kingman_kernel, lebesgue_kernel):
    for k in (kingman_kernel, lebesgue_kernel):
        assert k.lambda_total(0) == 0.0
        assert k.lambda_total(1) == 0.0
        assert k.gamma_total(0) == 0.0
        assert k.gamma_total(1) == 0.0


def test_tables_independent_of_growth_history():
    measure = LambdaMeasure.beta(1.5)
    stepped = RateKernel(measure, b_max=2)
    for b in (3, 7, 100, 101, 3000):
        stepped.ensure_b(b)
    direct = RateKernel(measure, b_max=3000)
    for b in range(3001):
        assert stepped.lambda_total(b) == direct.lambda_total(b)
        assert stepped.gamma_total(b) == direct.gamma_total(b)


def test_sum_vs_integral_agreement(lebesgue_kernel, beta_heavy_kernel):
    for kern in (lebesgue_kernel, beta_heavy_kernel):
        for b in (5, 17, 50):
            row = kern.lambda_bk_row(b)
            ks = np.arange(2, b + 1)
            binom = np.array([math.comb(b, int(k)) for k in ks])
            lam_sum = float(binom @ row)
            gam_sum = float((binom * (ks - 1)) @ row)
            assert kern.lambda_total(b) == pytest.approx(lam_sum, rel=1e-10)
            assert kern.gamma_total(b) == pytest.approx(gam_sum, rel=1e-10)


# ----------------------------------------------------------- merge-size law

def test_merge_size_degenerate_pair(kingman_kernel):
    dist = merge_law(kingman_kernel, 5)
    assert dist[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist[1:] == pytest.approx(0.0, abs=1e-12))


def test_merge_size_lebesgue_b3(lebesgue_kernel):
    dist = merge_law(lebesgue_kernel, 3)
    assert dist[0] == pytest.approx(0.75, rel=1e-10)
    assert dist[1] == pytest.approx(0.25, rel=1e-10)


def test_merge_size_total_collapse(one_atom_kernel):
    dist = merge_law(one_atom_kernel, 4)
    assert dist[-1] == pytest.approx(1.0, abs=1e-12)


def test_merge_size_sums_to_one(beta_heavy_kernel):
    for b in (2, 7, 40, 300):
        assert merge_law(beta_heavy_kernel, b).sum() == \
            pytest.approx(1.0, abs=1e-12)


def _history_measures():
    """The five benchmark measures plus power pieces away from 0 and 1."""
    return {
        "kingman": LambdaMeasure.unit_atom(0.0),
        "lebesgue": LambdaMeasure.lebesgue(),
        "beta05": LambdaMeasure.beta(0.5),
        "beta15": LambdaMeasure.beta(1.5),
        "mixture": LambdaMeasure(
            atoms=[(0.3, 1.0)],
            pieces=[DensityPiece((0.0, 0.6), "beta", {"alpha": 1.5})]),
        "power_02_1": LambdaMeasure(pieces=[
            DensityPiece((0.2, 1.0), "power", {"p": -0.5, "q": 0.5})]),
        "power_01_05": LambdaMeasure(pieces=[
            DensityPiece((0.1, 0.5), "power", {"p": 1.0, "q": -0.3})]),
    }


def _merge_law_one_row(measure, b):
    """The law of one row on its own, straight from log_moments: log weights
    normalized by their max and their sum."""
    ks = np.arange(2, b + 1)
    log_w = (gammaln(b + 1) - gammaln(ks + 1) - gammaln(b - ks + 1)
             + log_moments(measure, ks - 2, b - ks))
    probs = np.exp(log_w - np.max(log_w))
    return probs / probs.sum()


@pytest.mark.parametrize("name", list(_history_measures()))
def test_pascal_laws_match_direct_log_moments(name):
    measure = _history_measures()[name]
    kern = RateKernel(measure)
    edges = {e for j in range(2, 13) for e in ((1 << j) - 1, 1 << j)} - {4096}
    for b in sorted(set(range(2, 301)) | edges):
        law, ref = merge_law(kern, b), _merge_law_one_row(measure, b)
        seen = ref > 1e-250
        np.testing.assert_allclose(law[seen], ref[seen], rtol=1e-10, atol=0.0)
        assert np.all(law[~seen] < 1e-240)


@pytest.mark.parametrize("name", list(_history_measures()))
def test_merge_laws_independent_of_request_history(name):
    measure = _history_measures()[name]
    sweep = range(2, 301)
    singles = (2, 3, 64, 65, 1000, 2000)
    ascending, descending = RateKernel(measure), RateKernel(measure)
    for b in sweep:
        ascending.merge_size_cumulative(b)
    for b in reversed(sweep):
        descending.merge_size_cumulative(b)
    for b in list(sweep) + list(singles):
        assert (merge_law(descending, b).tobytes()
                == merge_law(ascending, b).tobytes())
        assert (descending.merge_size_cumulative(b).tobytes()
                == ascending.merge_size_cumulative(b).tobytes())
    for b in singles:
        single = RateKernel(measure)
        assert (merge_law(single, b).tobytes()
                == merge_law(ascending, b).tobytes())
        assert (single.merge_size_cumulative(b).tobytes()
                == ascending.merge_size_cumulative(b).tobytes())


# SHA-256 (first 16 hex digits) of lambda_b and gamma_b for b <= 10^4, and
# of every cumulative merge row for b <= 4095, in row order
_TABLE_DIGESTS = {
    "kingman": ("ca40355ce8ea5e42", "aed563f2146526e8"),
    "lebesgue": ("ed3aa5f9eeaae707", "4adbc0f20880bf85"),
    "beta05": ("579b82c6cc481421", "cc37620405a53675"),
    "beta15": ("eeadd9fdd60da496", "2dfb1d3f1bd60752"),
    "mixture": ("14bdd03cfdd5ea9d", "9d98e326c47d538a"),
    "power_02_1": ("885d03522044e99c", "a9288cacd7cbfeaa"),
    "power_01_05": ("9013f7bd477b7a3e", "2bc5987045d97adb"),
}


def _table_digests(kern: RateKernel) -> tuple[str, str]:
    totals = hashlib.sha256(kern.lambda_table(10**4).tobytes())
    totals.update(kern.gamma_table(10**4).tobytes())
    rows = hashlib.sha256()
    for b in range(2, 4096):
        rows.update(kern.merge_size_cumulative(b).tobytes())
    return totals.hexdigest()[:16], rows.hexdigest()[:16]


@pytest.mark.parametrize("name", list(_history_measures()))
def test_tables_pinned_to_the_bit(name):
    # the totals and the cumulative rows are fixed sums of fixed moments, so
    # a change of storage or of summation order must leave every bit
    assert _table_digests(RateKernel(_history_measures()[name])) == \
        _TABLE_DIGESTS[name]


def _log_moments_cells(monkeypatch) -> list:
    """The cell count of every later log_moments call, appended as made."""
    real, cells = measure_mod.log_moments, []

    def counted(meas, m, n):
        cells.append(np.size(m))
        return real(meas, m, n)

    monkeypatch.setattr(measure_mod, "log_moments", counted)
    return cells


def test_one_log_moments_call_per_block(monkeypatch):
    cells = _log_moments_cells(monkeypatch)
    kern = RateKernel(LambdaMeasure.beta(1.5))
    for b in range(2, 128):
        kern.merge_size_cumulative(b)
    assert cells == [(2 << j) - 2 for j in range(1, 7)]


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-9), (0.0, 0.3), (0.0, 0.6),
                                    (0.0, 1.0 - 1e-9), (1e-9, 1.0),
                                    (0.4, 1.0), (0.5, 1.0), (0.9, 1.0)])
def test_beta_share_skipped_tails_bit_identical(lo, hi):
    # against the four-betainc form, where I_0 = 0 and I_1 = 1 are evaluated
    vals = np.concatenate([np.linspace(0.01, 3.0, 40), np.geomspace(3.0, 1e5, 40)])
    a, b = (g.ravel() for g in np.meshgrid(vals, vals))
    below_lo, below_hi = betainc(a, b, lo), betainc(a, b, hi)
    above_lo, above_hi = betainc(b, a, 1.0 - lo), betainc(b, a, 1.0 - hi)
    four = np.where(below_lo > 0.5, above_lo - above_hi, below_hi - below_lo)
    share = np.asarray(_beta_share(a, b, lo, hi), dtype=float)
    assert share.tobytes() == four.tobytes()


@pytest.mark.parametrize("b", [3, 7, 64, 300])
def test_merge_size_cumulative_array_bisects_like_the_row(beta_heavy_kernel, b):
    # the engine bisects the memoryview; it is the cached row itself, so
    # every draw picks the index that searchsorted picks on the row
    row = beta_heavy_kernel.merge_size_cumulative(b)
    table = beta_heavy_kernel.merge_size_cumulative_array(b)
    assert table.readonly and table.tobytes() == row.tobytes()
    assert np.shares_memory(np.asarray(table), row)
    u = np.concatenate([np.random.default_rng(b).random(2000), row])
    assert [bisect.bisect_right(table, x) for x in u] == \
        np.searchsorted(row, u, side="right").tolist()


def test_cached_rows_read_only():
    kern = RateKernel(LambdaMeasure.beta(1.5))
    for row in (kern.merge_size_cumulative(9), kern.lambda_bk_row(9),
                kern.lambda_table(9), kern.gamma_table(9)):
        with pytest.raises(ValueError):
            row[0] = 0.5
    assert kern.merge_size_cumulative(9)[-1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("lo", [4, 64, 2048])
def test_cached_rows_own_contiguous_memory(lo):
    # the engine bisects a memoryview of each row: every row of a block,
    # from its lower and its upper half, is its own array with unit stride
    kern = RateKernel(LambdaMeasure.beta(1.5))
    for b in range(lo, 2 * lo):
        row = kern.merge_size_cumulative(b)
        assert row.flags.c_contiguous and row.base is None
        assert memoryview(row).strides == (8,)


def test_large_blocks_are_built_in_segments(monkeypatch):
    cells = _log_moments_cells(monkeypatch)
    measure = LambdaMeasure.beta(1.5)
    kern = RateKernel(measure)
    # [4096, 8192) is cut into four segments of 1024 rows, each from its
    # own top row; one law at b = 10^5 builds a segment of 64 rows
    for b in (4096, 5119, 5120, 8191):
        kern.merge_size_cumulative(b)
    assert kern.merge_size_cumulative(100_000)[-1] == 1.0
    assert cells == [5118, 6142, 8190, 100_030]
    for b in (4096, 5119, 5120, 8191):
        np.testing.assert_allclose(merge_law(kern, b),
                                   _merge_law_one_row(measure, b), rtol=1e-10)


def test_zero_merge_block_raises_and_spares_the_others(monkeypatch):
    real = measure_mod.log_moments
    # every weight of row 7, the top row of the block [4, 8), is zero
    monkeypatch.setattr(measure_mod, "log_moments", lambda meas, m, n: np.where(
        m + n == 5, -np.inf, real(meas, m, n)))
    kern = RateKernel(LambdaMeasure.lebesgue())
    for b in range(4, 8):
        with pytest.raises(ZeroTotalRate):
            merge_law(kern, b)
    for b in (2, 3, *range(8, 16)):
        assert merge_law(kern, b).sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ZeroTotalRate):
        kern.merge_size_cumulative(5)


def test_binary_merges_only_for_kingman():
    assert RateKernel(LambdaMeasure.unit_atom(0.0, 2.0)).binary_merges
    for measure in (LambdaMeasure.unit_atom(0.3), LambdaMeasure.lebesgue(),
                    LambdaMeasure(atoms=[(0.0, 1.0), (1.0, 0.1)])):
        assert not RateKernel(measure).binary_merges


def test_totals_grow_in_one_pass(monkeypatch):
    calls = []
    real = measure_mod.moments
    monkeypatch.setattr(measure_mod, "moments",
                        lambda *args: calls.append(1) or real(*args))
    kern = RateKernel(LambdaMeasure.beta(1.5))
    kern.ensure_b(10_000)
    assert len(calls) == 2
    assert kern.b_max == 10_000


# ----------------------------------------------------------- identities

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(2, 60))
def test_pascal_consistency_lebesgue(b, k):
    kern = _SHARED["lebesgue"]
    if k > b:
        b, k = k, b
    if k > b:
        return
    lhs = kern.lambda_bk(b, k)
    rhs = kern.lambda_bk(b + 1, k) + kern.lambda_bk(b + 1, k + 1)
    # entries go down to ~1e-19 (b = 61, k = 31)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=0.0)


def test_increment_identities(beta_heavy_kernel):
    measure = beta_heavy_kernel.measure
    for b in (2, 10, 63, 100):
        assert (beta_heavy_kernel.lambda_total(b + 1)
                - beta_heavy_kernel.lambda_total(b)) == pytest.approx(
            lambda_increment_integral(measure, b), rel=1e-9, abs=1e-11)
        assert (beta_heavy_kernel.gamma_total(b + 1)
                - beta_heavy_kernel.gamma_total(b)) == pytest.approx(
            gamma_increment_integral(measure, b), rel=1e-9, abs=1e-11)


def test_sandwich_and_monotonicity(beta_light_kernel):
    lam = beta_light_kernel.lambda_table(2000)
    gam = beta_light_kernel.gamma_table(2000)
    for b in range(2, 2000):
        assert lam[b] <= lam[b + 1] * (1 + 1e-12)
        assert lam[b + 1] <= 3 * lam[b] * (1 + 1e-12)
        assert gam[b] <= gam[b + 1] * (1 + 1e-12)


def test_ratio_tends_to_one_when_rates_diverge(beta_heavy_kernel):
    eps = []
    for b_max in (100, 1000, 10_000):
        lam_ratio = (beta_heavy_kernel.lambda_total(b_max + 1)
                     / beta_heavy_kernel.lambda_total(b_max))
        gam_ratio = (beta_heavy_kernel.gamma_total(b_max + 1)
                     / beta_heavy_kernel.gamma_total(b_max))
        eps.append(max(abs(lam_ratio - 1.0), abs(gam_ratio - 1.0)))
    assert eps[0] > eps[1] > eps[2]


def test_restricted_rate_ratio_bounded(lebesgue_kernel):
    # Lebesgue measure restricted to [0, 1/2]
    restricted = RateKernel(LambdaMeasure(
        pieces=[DensityPiece((0.0, 0.5), "constant", {"level": 1.0})]))
    ratios = [lebesgue_kernel.lambda_total(b) / restricted.lambda_total(b)
              for b in range(64, 513, 64)]
    assert max(ratios) < 10.0
    assert all(r >= 1.0 - 1e-12 for r in ratios)


def test_gamma_over_b_limit_half_atom(half_atom_kernel):
    # gamma_b / b converges to the integral of 1/x, here 2
    assert half_atom_kernel.gamma_total(10_000) / 10_000 == pytest.approx(
        2.0, rel=0.01)


def test_gamma_over_b_diverges_beta_heavy(beta_heavy_kernel):
    r1 = beta_heavy_kernel.gamma_total(1000) / 1000
    r2 = beta_heavy_kernel.gamma_total(10_000) / 10_000
    assert r2 > 1.5 * r1


# ----------------------------------------------------------- classification


@pytest.mark.parametrize("call, name", [
    (lambda k: cdi_classify(k, b_max=2.5), "b_max"),
    (lambda k: cdi_classify(k, b_max=math.nan), "b_max"),
    (lambda k: cdi_classify(k, b_max=1), "b_max"),
    (lambda k: tn_uniform_bound(k, k=2.5), "k"),
    (lambda k: tn_uniform_bound(k, k=1), "k"),
], ids=["classify-2.5", "classify-nan", "classify-1", "bound-k-2.5",
        "bound-k-1"])
def test_rate_counts_must_be_integers(kingman_kernel, call, name):
    # unchecked, b_max 2.5 or NaN raised TypeError and k 2.5 IndexError
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        call(kingman_kernel)


def test_cdi_kingman(kingman_kernel):
    v = cdi_classify(kingman_kernel, b_max=1000)
    assert v.verdict == "COMES_DOWN"


def test_cdi_lebesgue(lebesgue_kernel):
    assert cdi_classify(lebesgue_kernel, b_max=1000).verdict == "STAYS_INFINITE"


def test_cdi_beta_heavy(beta_heavy_kernel):
    assert cdi_classify(beta_heavy_kernel, b_max=1000).verdict == "COMES_DOWN"


def test_cdi_complete_collapse_flag(one_atom_kernel):
    v = cdi_classify(one_atom_kernel, b_max=1000)
    assert v.verdict == "COMES_DOWN"
    assert v.complete_collapse


def test_cdi_partial_sum_monotone(beta_heavy_kernel):
    v1 = cdi_classify(beta_heavy_kernel, b_max=500)
    v2 = cdi_classify(beta_heavy_kernel, b_max=1000)
    assert 0.0 <= v1.partial_sum <= v2.partial_sum


def _power(p, interval):
    return LambdaMeasure(pieces=[DensityPiece(interval, "power",
                                              {"p": p, "q": 0.0})])


VERDICT_TABLE = [
    ("beta 0.98", LambdaMeasure.beta(0.98), "STAYS_INFINITE"),
    ("beta 1.02", LambdaMeasure.beta(1.02), "COMES_DOWN"),
    ("beta 1.05", LambdaMeasure.beta(1.05), "COMES_DOWN"),
    ("power -0.05 on [0, 0.1]", _power(-0.05, (0.0, 0.1)), "COMES_DOWN"),
    ("power -0.5 on [0.2, 1]", _power(-0.5, (0.2, 1.0)), "STAYS_INFINITE"),
    ("polynomial x", LambdaMeasure(pieces=[DensityPiece(
        (0.0, 1.0), "polynomial", {"coefficients": [0.0, 1.0]})]),
     "STAYS_INFINITE"),
    ("beta 0.5 + 1e-3 at 0", LambdaMeasure(
        atoms=[(0.0, 1e-3)],
        pieces=[DensityPiece((0.0, 1.0), "beta", {"alpha": 0.5})]),
     "COMES_DOWN"),
]


@pytest.mark.parametrize("measure, expected",
                         [case[1:] for case in VERDICT_TABLE],
                         ids=[case[0] for case in VERDICT_TABLE])
def test_cdi_verdict_table_and_tail_bound(measure, expected):
    # the verdict is exact; the numeric oracle is the partial sum of
    # 1/gamma_b to 10^6, which the proved bound at b_max = 1000 must cover
    kern = RateKernel(measure)
    v = cdi_classify(kern, b_max=1000)
    assert v.verdict == expected, v.note
    if expected == "STAYS_INFINITE":
        assert v.tail_bound == math.inf
        return
    gam = kern.gamma_table(10**6)
    oracle = float(np.sum(1.0 / gam[2:]))
    assert v.partial_sum == pytest.approx(float(np.sum(1.0 / gam[2:1001])),
                                          rel=1e-12)
    assert oracle <= v.partial_sum + v.tail_bound


def test_cdi_kingman_tail_bound_exact(kingman_kernel):
    # gamma_b = C(b, 2), so sum_{b > B} 1/gamma_b = 2/B with equality
    v = cdi_classify(kingman_kernel, b_max=1000)
    assert v.tail_bound == pytest.approx(2.0 / 1000, rel=1e-12)
    assert v.decided_by == "kingman a=1"


def test_cdi_smallest_bound_decides():
    # Kingman part and a beta(1.5) term: the smaller tail bound is reported
    meas = LambdaMeasure(atoms=[(0.0, 1.0)],
                         pieces=[DensityPiece((0.0, 1.0), "beta", {"alpha": 1.5})])
    v = cdi_classify(RateKernel(meas), b_max=1000)
    alone = [cdi_classify(RateKernel(m), b_max=1000).tail_bound
             for m in (LambdaMeasure.unit_atom(0.0), LambdaMeasure.beta(1.5))]
    assert v.verdict == "COMES_DOWN"
    assert v.tail_bound <= min(alone)


def test_cdi_complete_collapse_alone_has_no_tail_bound(one_atom_kernel):
    # gamma_b = b - 1 for an atom at 1: the sum diverges, yet all blocks
    # merge at rate 1, so the verdict holds with an infinite bound
    v = cdi_classify(one_atom_kernel, b_max=1000)
    assert v.complete_collapse
    assert v.tail_bound == math.inf


# ----------------------------------------------------------- uniform bound

def test_uniform_bound_kingman_pairs(kingman_kernel):
    assert tn_uniform_bound(kingman_kernel, k=2, b_max=10_000) == \
        pytest.approx(4.0, abs=1e-3)


def test_uniform_bound_kingman_k4(kingman_kernel):
    assert tn_uniform_bound(kingman_kernel, k=4, b_max=10_000) == \
        pytest.approx(4.0 / 3.0, abs=1e-3)


def test_uniform_bound_infinite_for_lebesgue(lebesgue_kernel):
    assert tn_uniform_bound(lebesgue_kernel, k=2, b_max=2000) == math.inf


def test_uniform_bound_zero_rate(one_atom_kernel):
    # gamma_2 > 0 here, so use a kernel argument check instead: k below 2
    with pytest.raises((ZeroRate, ValueError)):
        tn_uniform_bound(one_atom_kernel, k=1, b_max=1000)


# ----------------------------------------------------------- inequalities

def test_spatial_bounds_kingman_3_3(kingman_kernel):
    rep = spatial_rate_bounds_check(kingman_kernel, [3, 3], rho_hat=2.5)
    assert all(rep[k] for k in rep if k.endswith("_ok"))
    # direct oracle: gamma_6 = 15 >= gamma_3 + gamma_3 = 6 >= 2*gamma_3 = 6
    assert kingman_kernel.gamma_total(6) == pytest.approx(15.0)
    assert 2 * kingman_kernel.gamma_total(3) == pytest.approx(6.0)


def test_spatial_bounds_lebesgue_4_2(lebesgue_kernel):
    rep = spatial_rate_bounds_check(lebesgue_kernel, [4, 2], rho_hat=2.5)
    assert all(rep[k] for k in rep if k.endswith("_ok"))


def test_spatial_bounds_degenerate_site(beta_heavy_kernel):
    rep = spatial_rate_bounds_check(beta_heavy_kernel, [9, 0], rho_hat=2.5)
    assert all(rep[k] for k in rep if k.endswith("_ok"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=2, max_size=5))
def test_spatial_bounds_random_vectors(counts):
    if sum(counts) <= len(counts):
        return
    kern = _SHARED["beta_heavy"]
    rep = spatial_rate_bounds_check(kern, counts, rho_hat=3.0)
    assert all(rep[k] for k in rep if k.endswith("_ok"))


def test_chain_bound_exhaustive_small(kingman_kernel):
    checked = 0
    for m in range(5, 21):
        for upsilon in (1, 2):
            for seq in valid_decrement_sequences(m, upsilon):
                lhs, rhs = deterministic_chain_bound(
                    kingman_kernel, m, upsilon, seq)
                assert lhs <= rhs * (1 + 1e-12)
                checked += 1
    assert checked > 50


def test_rho_estimate_sane(kingman_kernel):
    rho = estimate_rho(kingman_kernel, b_max=512)
    assert 0.5 < rho < 4.0


_SHARED = {}


@pytest.fixture(scope="module", autouse=True)
def _populate_shared(lebesgue_kernel, beta_heavy_kernel):
    _SHARED["lebesgue"] = lebesgue_kernel
    _SHARED["beta_heavy"] = beta_heavy_kernel
