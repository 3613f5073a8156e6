"""End-to-end acceptance gate.

Each test covers one of the ten headline claims, prints a single PASS/FAIL
line on the live terminal, and asserts the stated tolerance.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.special import comb

from conftest import BODY_ERROR, CHECK_FAILURES, coalsim
from green_oracle import torus_kappa
from partitions import restrict_partition
from quadrature_oracle import gamma_increment_integral, lambda_increment_integral
from rate_inequalities import (
    deterministic_chain_bound,
    estimate_rho,
    spatial_rate_bounds_check,
    valid_decrement_sequences,
)
from spatial_coalescent.engine import (
    SimulationConfig,
    coupled_simulate,
    simulate,
    singletons_at,
    singletons_per_site,
)
from spatial_coalescent.experiments import (
    block_count_limit_experiment,
    class_coupling_check,
    estimate_Tnk,
    pairwise_torus_experiment,
    partition_structure_experiment,
)
from spatial_coalescent.geometry import build_torus, complete_graph, simple_walk, single_site
from spatial_coalescent.measure import LambdaMeasure
from spatial_coalescent.rates import RateKernel, cdi_classify

G_LATTICE_ORACLE = 1.5163860  # simple-walk d=3 expected visits to the origin


@pytest.fixture(scope="module")
def kernels():
    return {
        "kingman": RateKernel(LambdaMeasure.unit_atom(0.0)),
        "lebesgue": RateKernel(LambdaMeasure.lebesgue()),
        "beta_heavy": RateKernel(LambdaMeasure.beta(1.5)),
        "beta_light": RateKernel(LambdaMeasure.beta(0.5)),
        "half_atom": RateKernel(LambdaMeasure.unit_atom(0.5)),
    }


@pytest.fixture(scope="module")
def kingman():
    return RateKernel(LambdaMeasure.unit_atom(0.0))


@pytest.fixture(scope="module")
def kappa_info(kingman):
    # criterion 7 requires the two Green-function routes to agree; computed
    # once here and reused by criteria 7-9
    return torus_kappa(simple_walk(3), kingman, require_agreement=True, seed=7)


@pytest.fixture()
def verdict_line(request, capsys):
    """Yields a recorder; prints one live PASS/FAIL line per criterion, built
    from the recorded checks and the real outcome of the test body.  Failed
    checks fail the test's call phase (see conftest)."""
    failures = []
    request.node.stash[CHECK_FAILURES] = failures

    def check(ok, detail=""):
        if not ok:
            failures.append(detail)
        return ok

    yield check
    label = request.node.name.replace("test_", "")
    body_error = request.node.stash.get(BODY_ERROR, "test body did not run")
    shown = failures + ([body_error] if body_error else [])
    status = "FAIL" if shown else "PASS"
    with capsys.disabled():
        print(f"[{status}] {label}" + (f"  ({'; '.join(shown)})" if shown else ""))


# ----------------------------------------------------------------------
# 1. rate identities: summed per-(b,k) rates vs single-integral totals
# ----------------------------------------------------------------------

def test_criterion_01_rate_identities(kernels, verdict_line):
    for name, kern in kernels.items():
        rows = {b: kern.lambda_bk_row(b) for b in range(2, 202)}
        for b in range(2, 201):
            ks = np.arange(2, b + 1)
            weights = comb(b, ks)
            lam_sum = float(np.sum(weights * rows[b]))
            gam_sum = float(np.sum((ks - 1) * weights * rows[b]))
            verdict_line(
                abs(lam_sum - kern.lambda_total(b)) <= 1e-10 * max(lam_sum, 1e-300),
                f"{name}: lambda sum vs integral at b={b}")
            verdict_line(
                abs(gam_sum - kern.gamma_total(b)) <= 1e-10 * max(gam_sum, 1e-300),
                f"{name}: gamma sum vs integral at b={b}")
        for b in range(2, 101):
            lhs = rows[b]
            rhs = rows[b + 1][:-1] + rows[b + 1][1:]
            scale = np.maximum(np.abs(lhs), 1e-300)
            if not verdict_line(np.all(np.abs(lhs - rhs) <= 1e-10 * scale),
                                f"{name}: Pascal recursion at b={b}"):
                break


# ----------------------------------------------------------------------
# 2. rate inequalities: sandwich, monotonicity, spatial and chain bounds
# ----------------------------------------------------------------------

def _random_decrement_sequence(rng, m, upsilon):
    cap = m - 2 * upsilon
    seq, partial = [], 0
    while True:
        lo = max(1, cap - partial)
        hi = m - 1 - partial
        if partial + max(1, cap // 4) >= cap or rng.random() < 0.2:
            seq.append(int(rng.integers(lo, hi + 1)))
            return seq
        j = int(rng.integers(1, max(2, cap // 4)))
        j = min(j, cap - partial - 1)
        if j < 1:
            seq.append(int(rng.integers(lo, hi + 1)))
            return seq
        seq.append(j)
        partial += j


def test_criterion_02_rate_inequalities(kernels, verdict_line):
    b_hi = 10_000
    for name, kern in kernels.items():
        lam = kern.lambda_table(b_hi + 1)[2:]
        gam = kern.gamma_table(b_hi + 1)[2:]
        tol = 1e-9 * np.maximum(lam[:-1], 1.0)
        verdict_line(np.all(lam[1:] >= lam[:-1] - tol), f"{name}: lambda monotone")
        verdict_line(np.all(lam[1:] <= 3 * lam[:-1] + tol),
                     f"{name}: lambda_b+1 <= 3 lambda_b")
        verdict_line(np.all(gam[1:] >= gam[:-1] - 1e-9 * np.maximum(gam[:-1], 1.0)),
                     f"{name}: gamma monotone")
        # increment identity at sampled b: the dedicated single integrals
        # reproduce the table differences
        for b in (2, 5, 20, 100, 1000, 9999):
            inc_l = lambda_increment_integral(kern.measure, b)
            inc_g = gamma_increment_integral(kern.measure, b)
            dl = kern.lambda_total(b + 1) - kern.lambda_total(b)
            dg = kern.gamma_total(b + 1) - kern.gamma_total(b)
            verdict_line(abs(inc_l - dl) <= 1e-8 + 1e-6 * abs(inc_l),
                         f"{name}: lambda increment identity at b={b}")
            verdict_line(abs(inc_g - dg) <= 1e-8 + 1e-6 * abs(inc_g),
                         f"{name}: gamma increment identity at b={b}")

    # ratio lambda_{b+1}/lambda_b -> 1 where the total rate diverges
    for name in ("kingman", "lebesgue", "beta_heavy", "beta_light"):
        kern = kernels[name]
        ratio = kern.lambda_total(10_001) / kern.lambda_total(10_000)
        verdict_line(abs(ratio - 1.0) < 0.01, f"{name}: rate ratio at b=1e4")

    # spatial sandwich on 1000 random site-count vectors
    kern = kernels["beta_heavy"]
    rho = estimate_rho(kern, b_max=2000, seed=3)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        upsilon = int(rng.integers(2, 7))
        counts = rng.integers(0, 51, size=upsilon)
        if counts.sum() <= upsilon:
            continue
        rep = spatial_rate_bounds_check(kern, counts, rho_hat=rho)
        if not verdict_line(all(rep[k] for k in rep if k.endswith("_ok")),
                            f"spatial sandwich fails on {counts.tolist()}"):
            break

    # deterministic chain bound: exhaustive for small decrement budgets,
    # random sequences across and beyond that range (full enumeration at
    # m=40 would need ~2^31 sequences)
    kern = kernels["kingman"]
    checked = 0
    for upsilon in (1, 2, 3, 4):
        for m in range(2 * upsilon + 1, 41):
            if m // upsilon < 2 or m - 2 * upsilon > 12:
                continue
            for seq in valid_decrement_sequences(m, upsilon):
                lhs, rhs = deterministic_chain_bound(kern, m, upsilon, seq)
                checked += 1
                if lhs > rhs * (1 + 1e-12):
                    verdict_line(False, f"chain bound m={m} ups={upsilon} seq={seq}")
                    break
    verdict_line(checked > 10_000, "exhaustive chain-bound coverage")
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        upsilon = int(rng.integers(1, 9))
        m = int(rng.integers(max(2 * upsilon + 1, 2 * upsilon + 1), 201))
        if m // upsilon < 2 or m - 2 * upsilon < 1:
            continue
        seq = _random_decrement_sequence(rng, m, upsilon)
        lhs, rhs = deterministic_chain_bound(kern, m, upsilon, seq)
        if not verdict_line(lhs <= rhs * (1 + 1e-12),
                            f"chain bound m={m} ups={upsilon} seq={seq}"):
            break


# ----------------------------------------------------------------------
# 3. dichotomy classification across the one-parameter family
# ----------------------------------------------------------------------

def test_criterion_03_classification(kernels, verdict_line):
    for alpha in (0.5, 0.75, 1.0, 1.25, 1.5, 1.75):
        kern = RateKernel(LambdaMeasure.beta(alpha))
        expected = "STAYS_INFINITE" if alpha <= 1.0 else "COMES_DOWN"
        got = cdi_classify(kern, b_max=1000).verdict
        verdict_line(got == expected, f"alpha={alpha}: {got} != {expected}")
    verdict_line(cdi_classify(kernels["kingman"], b_max=1000).verdict == "COMES_DOWN",
                 "pure pairwise case must come down")


# ----------------------------------------------------------------------
# 4. nonspatial absorption time from 10 singletons
# ----------------------------------------------------------------------

def test_criterion_04_absorption_mean(kingman, verdict_line):
    n, reps = 10, 10_000
    geo = single_site()
    times = np.empty(reps)
    for seed in range(reps):
        rec = simulate(singletons_at([0] * n), SimulationConfig(
            kernel=kingman, geography=geo, seed=seed, stop_when_absorbed=True,
            record_events=False, track_elements=False))
        times[seed] = rec.final_time
    mean = times.mean()
    se = times.std(ddof=1) / math.sqrt(reps)
    target = 2 * (1 - 1 / n)
    verdict_line(abs(mean - target) <= 3 * se,
                 f"mean {mean:.4f} vs {target} (3se={3 * se:.4f})")


# ----------------------------------------------------------------------
# 5. uniform hitting-time bound on two geographies
# ----------------------------------------------------------------------

def test_criterion_05_hitting_time_bound(kingman, verdict_line):
    bound = 4.0
    cases = [(complete_graph(4), "complete-4", 300),
             (build_torus(1, simple_walk(3)), "torus-27", 150)]
    for geo, label, reps in cases:
        for n in (10, 50, 200):
            rep = estimate_Tnk(n, 2, geo, kingman, replicas=reps, seed=11)
            _lo, hi = rep["ci"]
            verdict_line(rep["extras"]["uniform_bound"] == pytest.approx(bound, abs=1e-3),
                         f"{label} n={n}: bound {rep['extras']['uniform_bound']}")
            verdict_line(hi < bound,
                         f"{label} n={n}: upper CI {hi:.3f} not below {bound}")


# ----------------------------------------------------------------------
# 6. pathwise consistency and class-split domination
# ----------------------------------------------------------------------

def test_criterion_06_consistency_and_domination(kingman, verdict_line):
    geo = complete_graph(2)
    full = singletons_at([0, 1, 0, 1, 0, 1])
    for seed in range(100):
        outs = coupled_simulate([full, restrict_partition(full, 3)],
                                SimulationConfig(kernel=kingman, geography=geo,
                                                 seed=seed, horizon=3.0))
        full_series, sub_series = outs[0][1], outs[1][1]
        ok = all(t1 == t2 and restrict_partition(pf, 3) == ps
                 for (t1, pf), (t2, ps) in zip(full_series, sub_series))
        if not verdict_line(ok, f"restriction consistency broken at seed {seed}"):
            break
    rep = class_coupling_check(complete_graph(2), kingman,
                               [[1, 2, 3], [4, 5, 6]], t=3.0,
                               replicas=100, seed=1)
    verdict_line(rep["violations"] == 0,
                 f"{rep['violations']} domination violations")


# ----------------------------------------------------------------------
# 7. pairwise scaling limit on the 3d torus
# ----------------------------------------------------------------------

def test_criterion_07_pairwise_scaling(kingman, kappa_info, verdict_line):
    err = kappa_info["G_lattice_err"] + 1e-4
    verdict_line(kappa_info["methods_agree"], "Green-function routes disagree")
    verdict_line(abs(kappa_info["G_lattice"] - G_LATTICE_ORACLE) <= err,
                 f"lattice Green {kappa_info['G_lattice']:.6f} vs oracle")
    ks = {}
    for N in (4, 6, 8):
        comp = pairwise_torus_experiment(N, simple_walk(3), kingman,
                                         replicas=2000, seed=42,
                                         kappa_value=kappa_info["kappa"])
        ks[N] = comp["ks_stat"]
    verdict_line(ks[8] <= 0.05, f"KS at N=8 is {ks[8]:.4f}")
    verdict_line(ks[4] > ks[6] > ks[8],
                 f"KS not decreasing: {ks[4]:.4f}, {ks[6]:.4f}, {ks[8]:.4f}")


# ----------------------------------------------------------------------
# 8. block-count marginals vs the pure-pairwise entrance reference
# ----------------------------------------------------------------------

def test_criterion_08_block_count_limit(kingman, kappa_info, verdict_line):
    tvs = {}
    joint_p = None
    for N in (2, 3, 4):
        res = block_count_limit_experiment(N, simple_walk(3), kingman, 10,
                                           [0.5, 1.0], replicas=500, seed=42,
                                           kappa_value=kappa_info["kappa"])
        tvs[N] = [c["tv_distance"] for c in res["per_time"]]
        if N == 4:
            joint_p = res["joint_chi2_pvalue"]
    for j, t in enumerate((0.5, 1.0)):
        verdict_line(tvs[4][j] <= 0.1, f"TV at N=4 t={t}: {tvs[4][j]:.4f}")
        verdict_line(tvs[2][j] > tvs[3][j] > tvs[4][j],
                     f"TV not decreasing at t={t}: "
                     f"{tvs[2][j]:.4f}, {tvs[3][j]:.4f}, {tvs[4][j]:.4f}")
    verdict_line(joint_p is not None and joint_p > 0.01,
                 f"two-time joint chi-square p={joint_p}")


# ----------------------------------------------------------------------
# 9. uniform merging pair and binary-merge structure
# ----------------------------------------------------------------------

def test_criterion_09_pair_structure(kingman, kappa_info, verdict_line):
    for n in (3, 4):
        res = partition_structure_experiment(8, simple_walk(3), kingman, n,
                                             replicas=3000, seed=20 + n,
                                             kappa_value=kappa_info["kappa"])
        verdict_line(res["pair_uniformity_pvalue"] > 0.01,
                     f"n={n}: pair uniformity p={res['pair_uniformity_pvalue']:.4f}")
        verdict_line(res["multi_merge_fraction"] <= 0.02,
                     f"n={n}: multi-merge fraction {res['multi_merge_fraction']}")
    # heavy-dust measure: the multi-merge fraction stays under the cap and
    # does not grow with the torus (strict decrease is unobservable because
    # three-block co-location is ~1/volume at these scales)
    beta = RateKernel(LambdaMeasure.beta(1.5))
    fracs = []
    for N in (4, 6, 8):
        res = partition_structure_experiment(N, simple_walk(3), beta, 4,
                                             replicas=3000, seed=23,
                                             kappa_value=kappa_info["kappa"])
        fracs.append(res["multi_merge_fraction"])
    verdict_line(all(f <= 0.02 for f in fracs), f"multi-merge fractions {fracs}")
    verdict_line(fracs[0] >= fracs[1] >= fracs[2],
                 f"multi-merge fraction grows with N: {fracs}")


# ----------------------------------------------------------------------
# 10. rerun determinism of the experiment pipeline
# ----------------------------------------------------------------------

def _tail(text, chars=300):
    text = text.strip()
    return text if len(text) <= chars else "..." + text[-chars:]


def test_criterion_10_determinism(tmp_path, verdict_line):
    cfg = {"seed": 9, "measure": {"atoms": [[0.0, 1.0]]},
           "geography": {"topology": "complete", "sites": 3},
           "experiment": {"name": "hitting_time", "params": {"n": 8, "k": 2}},
           "replicas": 30}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    hashes = []
    for name in ("first", "second"):
        out = tmp_path / name
        r = coalsim("experiment", "--config", path, "--out", out)
        if not verdict_line(r.returncode == 0,
                            f"run {name} exited {r.returncode}: "
                            f"{_tail(r.stdout + r.stderr)}"):
            return
        hashes.append(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
    verdict_line(hashes[0] == hashes[1], "report hashes differ between reruns")
