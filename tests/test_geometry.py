import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import i0e

from spatial_coalescent.errors import DimensionTooLow, SizeOverflow, TruncationUnstable
from spatial_coalescent.geometry import (
    WalkSpec,
    _green_bessel,
    _green_cubature,
    _lattice_basis,
    build_torus,
    check_torus_walk,
    complete_graph,
    generic_graph,
    green_function,
    green_method,
    kappa,
    simple_walk,
    single_site,
)
from green_oracle import green_monte_carlo, tail_ratio


# ---------------------------------------------------------------- walks

def test_walk_distribution_validated():
    with pytest.raises(ValueError):
        WalkSpec(1, ((1,), (-1,)), (0.7, 0.7))


@pytest.mark.parametrize("probs", [(math.nan, 1.0), (math.inf, -math.inf)])
def test_walk_non_finite_probability_rejected(probs):
    # a comparison with NaN is false, so range checks alone pass a NaN
    with pytest.raises(ValueError, match="distribution"):
        WalkSpec(1, ((1,), (-1,)), probs)


def test_walk_must_span_all_coordinates():
    with pytest.raises(ValueError):
        WalkSpec(2, ((1, 0), (-1, 0)), (0.5, 0.5))
    # steps of probability 0 are not in the support, which here spans only
    # a plane: the walk would be recurrent
    with pytest.raises(ValueError, match="span"):
        WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                     (0, 0, 1), (0, 0, -1)), (0.25,) * 4 + (0.0,) * 2)


def test_simple_walk_shape():
    w = simple_walk(3)
    assert w.offsets_array.shape == (6, 3)
    assert np.allclose(w.probs_array, 1.0 / 6.0)


@pytest.mark.parametrize("build, name", [
    (lambda: simple_walk(0), "d"),
    (lambda: simple_walk(2.5), "d"),
    (lambda: simple_walk(math.nan), "d"),
    (lambda: complete_graph(1), "n_sites"),
    (lambda: complete_graph(2.5), "n_sites"),
    (lambda: build_torus(0, simple_walk(3)), "N"),
    (lambda: build_torus(2.5, simple_walk(3)), "N"),
    (lambda: build_torus(math.nan, simple_walk(3)), "N"),
    (lambda: WalkSpec(math.nan, ((1,), (-1,)), (0.5, 0.5)), "dimension"),
    (lambda: WalkSpec(0, ((1,), (-1,)), (0.5, 0.5)), "dimension"),
], ids=["walk-0", "walk-2.5", "walk-nan", "complete-1", "complete-2.5",
        "torus-0", "torus-2.5", "torus-nan", "walk-spec-nan", "walk-spec-0"])
def test_geometry_counts_must_be_integers(build, name):
    # unchecked, simple_walk(0) raised ZeroDivisionError, a count of 2.5
    # a TypeError, and WalkSpec's NaN dimension passed its range check (the
    # shape check caught it)
    with pytest.raises(ValueError, match=rf"integer {name} >= "):
        build()


DIAGONAL = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1), (1, 1, 0), (-1, -1, 0)),
                    (0.125,) * 8)
# +-3 e_1 (0.1 each), +-e_2 and +-e_3 (0.2 each): its steps span the lattice
# 3Z x Z x Z, of index 3
STRIDE_3 = WalkSpec(3, ((3, 0, 0), (-3, 0, 0), (0, 1, 0), (0, -1, 0),
                        (0, 0, 1), (0, 0, -1)),
                    (0.1, 0.1, 0.2, 0.2, 0.2, 0.2))
# the simple walk with a self-loop of 1/2
LAZY = WalkSpec(3, ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)), (0.5,) + (1 / 12,) * 6)


@pytest.mark.parametrize("walk", [
    simple_walk(3), DIAGONAL, STRIDE_3,
    # mirrors apart, and a self-loop
    WalkSpec(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0), (-1, 0, 0),
                 (0, -1, 0), (0, 0, -1)), (0.1, 0.1, 0.1, 0.4, 0.1, 0.1, 0.1)),
], ids=["simple", "diagonal", "stride3", "lazy"])
def test_symmetrized_symmetric_walk_is_unchanged(walk):
    assert walk.symmetrized() == walk


def test_symmetrized_averages_mirrors_and_merges_duplicates():
    drifted = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)),
                       (0.3, 0.1, 0.15, 0.15, 0.15, 0.15))
    sym = drifted.symmetrized()
    assert sym.offsets == drifted.offsets
    assert sym.probabilities == pytest.approx((0.2, 0.2) + (0.15,) * 4,
                                              abs=1e-15)
    assert drifted.axis_rates is None
    assert sym.axis_rates == pytest.approx([0.4, 0.3, 0.3])
    # a duplicate offset is merged, a missing mirror appended
    skew = WalkSpec(3, ((1, 0, 0), (0, 1, 0), (1, 0, 0), (0, 0, 1)),
                    (0.25, 0.25, 0.25, 0.25))
    sym = skew.symmetrized()
    assert sym.offsets == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0),
                           (0, -1, 0), (0, 0, -1))
    assert sym.probabilities == (0.25, 0.125, 0.125, 0.25, 0.125, 0.125)


# ---------------------------------------------------------------- torus

def _kernel_row(geo, i):
    """Row i of the migration kernel, rebuilt from the move table that the
    engine reads and sample_move bisects: the move rate, and the
    destinations with their cumulative conditional probabilities; the rest
    of the row stays on site i."""
    rates, starts, cum, dest = geo.move_table
    row = np.zeros(geo.size)
    lo, hi = starts[i], starts[i + 1]
    np.add.at(row, dest[lo:hi], rates[i] * np.diff(cum[lo:hi], prepend=0.0))
    row[i] += 1.0 - rates[i]
    return row


def test_torus_n1_d3_neighbor_structure():
    geo = build_torus(1, simple_walk(3))
    assert geo.size == 27
    for i in range(27):
        row = _kernel_row(geo, i)
        nz = np.nonzero(row)[0]
        assert len(nz) == 6
        assert np.allclose(row[nz], 1.0 / 6.0)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_torus_n1_d1_is_three_cycle():
    w = simple_walk(1)
    geo = build_torus(1, w)
    assert geo.size == 3
    for i in range(3):
        row = _kernel_row(geo, i)
        assert row[i] == 0.0
        assert sorted(row) == pytest.approx([0.0, 0.5, 0.5])


def test_torus_rows_and_columns_stochastic():
    geo = build_torus(2, simple_walk(3))
    mat = np.vstack([_kernel_row(geo, i) for i in range(geo.size)])
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
    # translation invariance makes the kernel doubly stochastic
    assert np.allclose(mat.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("walk, N", [
    (simple_walk(3), 1), (simple_walk(3), 4), (DIAGONAL, 2), (STRIDE_3, 2),
    (STRIDE_3, 5),
    # a self-jump is a step like any other
    (WalkSpec(3, ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                  (0, 0, 1), (0, 0, -1)), (0.4,) + (0.1,) * 6), 3),
])
def test_check_torus_walk_accepts_connecting_walks(walk, N):
    check_torus_walk(N, walk)


@pytest.mark.parametrize("walk, N, needle", [
    # +-3 e_1 wraps onto its own site on the side-3 torus, so no step
    # changes the e_1 residue
    (STRIDE_3, 1, "does not connect"),
    # on the side-9 torus it reaches a third of the e_1 residues
    (STRIDE_3, 4, "does not connect"),
    (WalkSpec(3, ((1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
                  (0, 0, 5), (0, 0, -5)), (1 / 6,) * 6), 2,
     "does not connect"),
])
def test_check_torus_walk_rejects(walk, N, needle):
    with pytest.raises(ValueError, match=needle):
        check_torus_walk(N, walk)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                min_size=3, max_size=6))
def test_lattice_index_is_gcd_of_maximal_minors(vectors):
    minors = [round(np.linalg.det(np.array(rows, dtype=float)))
              for rows in itertools.combinations(vectors, 3)]
    basis = _lattice_basis(np.array(vectors), 3)
    assert round(abs(np.linalg.det(basis))) == math.gcd(*minors)


def test_torus_site_budget_overflow():
    # 101^3 sites exceed the 10^6 cap; it raises before allocating
    with pytest.raises(SizeOverflow):
        build_torus(50, simple_walk(3))


def test_generic_graph_names_bad_row():
    mat = np.array([[0.5, 0.5], [0.6, 0.6]])
    with pytest.raises(ValueError, match=r"rows \[1\]"):
        generic_graph(mat)


@pytest.mark.parametrize("mat", [[[math.nan]], [[0.5, math.nan], [0.5, 0.5]],
                                 [[math.inf, -math.inf], [0.5, 0.5]]])
def test_generic_graph_non_finite_kernel_rejected(mat):
    with pytest.raises(ValueError, match="finite"):
        generic_graph(np.array(mat))


def test_complete_graph_and_single_site():
    g = complete_graph(4)
    row = _kernel_row(g, 0)
    assert row[0] == 0.0
    assert np.allclose(row[1:], 1.0 / 3.0)
    s = single_site()
    assert s.size == 1
    assert s.move_rates[0] == 0.0


# sites 0, 1 and 3 move at rates 0.5, 0.2 and 0.75, and site 2 never moves
_ABSORBING = np.array([[0.5, 0.3, 0.2, 0.0], [0.1, 0.8, 0.1, 0.0],
                       [0.0, 0.0, 1.0, 0.0], [0.25, 0.25, 0.25, 0.25]])


def _random_dense_kernel(n, seed):
    rng = np.random.default_rng(seed)
    kern = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
    kern[np.arange(n), rng.integers(n, size=n)] += 0.1  # no empty row
    return kern / kern.sum(axis=1, keepdims=True)


_DENSE_50 = _random_dense_kernel(50, 7)


@pytest.mark.parametrize("geo, kern", [
    (generic_graph(_ABSORBING), _ABSORBING),
    (build_torus(2, LAZY), None),
    (generic_graph(_DENSE_50), _DENSE_50),
], ids=["absorbing-site", "lazy-torus", "random-dense-50"])
def test_move_table_is_the_kernel(geo, kern):
    rates, starts, cum, dest = geo.move_table
    assert (rates.dtype, starts.dtype, cum.dtype, dest.dtype) == (
        np.float64, np.int64, np.float64, np.int32)
    assert starts[0] == 0 and starts[-1] == cum.size == dest.size
    sizes = np.diff(starts)
    site = np.repeat(np.arange(geo.size), sizes)
    # every nonempty row ends in exactly 1.0, and no move is a self-jump
    assert np.all(cum[starts[1:][sizes > 0] - 1] == 1.0)
    assert not np.any(dest == site)
    assert np.all(sizes[rates == 0.0] == 0) and np.all(sizes[rates > 0.0] > 0)
    if kern is None:
        # the lazy walk stays with probability 1/2; every other step is a
        # move to a distinct neighbor with probability 1/12
        assert np.all(rates == 0.5) and np.all(sizes == 6)
        for i in range(geo.size):
            row = _kernel_row(geo, i)
            assert row[i] == 0.5
            assert np.allclose(np.delete(row, i)[np.delete(row, i) > 0],
                               1 / 12)
    else:
        assert np.array_equal(sizes == 0, np.diag(kern) == 1.0)
        mat = np.vstack([_kernel_row(geo, i) for i in range(geo.size)])
        assert np.allclose(mat, kern, rtol=0.0, atol=1e-15)


def test_sample_move_draws_only_real_moves():
    # site 1 is lazy; site 2's self-jump is its last column, where rounding
    # of the cumulative row could otherwise hand back the site itself
    kern = np.array([[0.0, 0.5, 0.5], [0.2, 0.5, 0.3], [0.1, 0.9, 0.0]])
    geo = generic_graph(kern)
    us = (np.arange(10_000) + 0.5) / 10_000
    for i in range(3):
        law = np.where(np.arange(3) == i, 0.0, kern[i])
        draws = [geo.sample_move(i, u) for u in us]
        freq = np.bincount(draws, minlength=3) / len(us)
        assert freq == pytest.approx(law / law.sum(), abs=1e-4)
        assert geo.sample_move(i, np.nextafter(1.0, 0.0)) != i


# ---------------------------------------------------------------- Green

WATSON_D3 = 1.5163860591519809  # Watson's integral: simple walk, d = 3


def _axis_walk(p):
    """Axis walk on Z^3 with P(+-e_i) = p_i / 2."""
    offsets = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    return WalkSpec(3, offsets, tuple(q / 2 for q in p for _ in (0, 1)))


SKEW = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                    (0, 0, -1), (1, 1, 0), (-1, -1, 0), (0, 0, 0)),
                (0.15, 0.15) + (0.1,) * 7)
# +-2 e_1, +-e_2, +-e_3: the simple walk on the lattice 2Z x Z x Z
LONG_STEPS = WalkSpec(3, ((2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0),
                          (0, 0, 1), (0, 0, -1)), (1 / 6,) * 6)
DRIFT = WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                     (0, 0, 1), (0, 0, -1)),
                 (0.3, 0.1, 0.15, 0.15, 0.15, 0.15))


@pytest.fixture(scope="module")
def lattice_d3():
    # the route the walk gets: BESSEL
    return green_function(simple_walk(3))


def test_green_lattice_d3_matches_reference(lattice_d3):
    est, err = lattice_d3
    assert est == pytest.approx(1.5163860, abs=max(err, 1e-3))
    assert est >= 1.0
    assert 0.0 < err <= 1e-3


def test_green_bessel_d3_is_watson_value(lattice_d3):
    est, err = _green_bessel(simple_walk(3))
    assert est == pytest.approx(WATSON_D3, rel=0.0, abs=1e-12)
    assert err <= 1e-10
    g_lat, e_lat = lattice_d3
    assert abs(g_lat - WATSON_D3) <= e_lat


# the simple walk with a self-loop of 0.001: nearly bipartite
SELF_LOOP = WalkSpec(3, ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                         (0, -1, 0), (0, 0, 1), (0, 0, -1)),
                     (0.001,) + (0.999 / 6,) * 6)


@pytest.mark.parametrize("walk, tol", [
    (simple_walk(4), 1e-10), (simple_walk(5), 1e-6), (simple_walk(3), 1e-10),
    (SELF_LOOP, 1e-10), (_axis_walk((0.2, 0.3, 0.5)), 1e-10),
], ids=["4", "5", "3", "self-loop", "anisotropic"])
def test_green_bessel_agrees_with_lattice(walk, tol):
    # the cubature's bound covers BESSEL, and it is within tol of it
    g_bes, _ = _green_bessel(walk)
    g_cub, e_cub = _green_cubature(walk)
    assert 0.0 < e_cub <= 1e-6
    assert abs(g_bes - g_cub) <= min(e_cub, tol)


def test_green_lazy_walk_takes_bessel_at_twice_the_simple_value():
    # a self-loop of 1/2 doubles the time spent at each visited site
    assert LAZY.axis_rates == pytest.approx([1 / 6] * 3)
    assert green_method(LAZY) == "BESSEL"
    g_bes, _ = _green_bessel(LAZY)
    assert g_bes == pytest.approx(2 * WATSON_D3, rel=0.0, abs=1e-12)
    g_cub, e_cub = _green_cubature(LAZY)
    assert 0.0 < e_cub <= 1e-10
    assert abs(g_cub - g_bes) <= e_cub


@pytest.mark.parametrize("walk, axis_twin", [
    (LONG_STEPS, simple_walk(3)), (SKEW, None), (DIAGONAL, None),
    # in the basis 3 e_1, e_2, e_3 of its lattice, the axis walk with rates
    # (0.2, 0.4, 0.4)
    (STRIDE_3, _axis_walk((0.2, 0.4, 0.4))),
], ids=["long-steps", "skew", "diagonal", "stride3"])
def test_green_lattice_bound_positive_and_covers_exact_value(walk, axis_twin):
    # a walk whose steps span a lattice of index > 1 is rewritten in a basis
    # of that lattice, where it is its axis twin; without that the cubature
    # misses by about 1e-2
    g, err = _green_cubature(walk)
    assert 0.0 < err <= 1e-10
    if axis_twin is not None:
        exact, _ = _green_bessel(axis_twin)
        assert abs(g - exact) <= err


def test_green_method_is_exact_route_of_the_walk():
    assert green_method(simple_walk(3)) == "BESSEL"
    assert green_method(DRIFT.symmetrized()) == "BESSEL"
    for walk in (SKEW, DIAGONAL, LONG_STEPS, DRIFT):
        assert green_method(walk) == "CUBATURE"
    assert green_function(simple_walk(3)) == _green_bessel(simple_walk(3))


def test_green_bessel_anisotropic_agrees_with_monte_carlo():
    walk = _axis_walk((0.2, 0.3, 0.5))
    g_bes, _ = _green_bessel(walk)
    g_mc, e_mc = green_monte_carlo(walk, seed=5)
    assert (g_mc, e_mc) == (1.5866284887941735, 0.01749222280073514)
    assert abs(g_bes - g_mc) <= e_mc
    # the anisotropic walk returns more often than the simple one
    assert g_bes > WATSON_D3


@pytest.mark.parametrize("walk", [
    WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                 (0, 0, -1), (1, 1, 0), (-1, -1, 0)), (0.125,) * 8),
    WalkSpec(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                 (0, 0, -1)), (0.2, 0.1, 0.2, 0.1, 0.2, 0.2)),
    WalkSpec(3, ((2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                 (0, 0, -1)), (1 / 6,) * 6),
], ids=["diagonal-steps", "drift", "long-steps"])
def test_green_bessel_rejects_non_axis_walk(walk):
    assert walk.axis_rates is None
    with pytest.raises(ValueError, match="axis walk"):
        _green_bessel(walk)


def test_green_bessel_raises_when_quadrature_cannot_bound_error():
    # nearly one-dimensional: the integrand decays like t^(-1/2) up to
    # t of about 1e7, and the exp-sinh rules at steps 1/32 and 1/64 differ
    # by 4.2e-6, far above the route's 1e-10 limit
    with pytest.raises(TruncationUnstable, match="4.2"):
        _green_bessel(_axis_walk((1e-7, 1e-7, 1 - 2e-7)))


def _watson_quad(walk) -> float:
    """Watson's integral by adaptive quadrature (`scipy.integrate.quad`),
    the oracle of the BESSEL route's fixed exp-sinh rule."""
    rates = walk.axis_rates
    est, _err = integrate.quad(lambda t: float(np.prod(i0e(rates * t))),
                               0.0, np.inf, epsabs=1e-14, epsrel=1e-13,
                               limit=500)
    return est


@pytest.mark.parametrize("walk", [
    simple_walk(3), simple_walk(4), simple_walk(6), simple_walk(8), LAZY,
    _axis_walk((0.2, 0.3, 0.5)), _axis_walk((0.05, 0.05, 0.9)),
    _axis_walk((1e-4, 1e-4, 1 - 2e-4)),
], ids=["3", "4", "6", "8", "lazy", "anisotropic", "flat", "nearly-1d"])
def test_green_bessel_exp_sinh_rule_matches_quad(walk):
    g, err = _green_bessel(walk)
    assert abs(g - _watson_quad(walk)) <= 1e-12
    assert 0.0 < err <= 1e-10


def test_green_cubature_raises_when_its_rules_disagree():
    # nearly one-dimensional: 1 - phi is small near two planes, and the
    # coarse and fine rules differ by about 5
    with pytest.raises(TruncationUnstable, match="cubature"):
        _green_cubature(_axis_walk((1e-4, 1e-4, 1 - 2e-4)))


def test_green_decreases_with_dimension(lattice_d3):
    g3, _ = lattice_d3
    g5, _ = green_function(simple_walk(5))
    assert 1.0 <= g5 < g3


def test_green_monte_carlo_agrees_with_lattice():
    # the oracle of the cubature on a walk that BESSEL cannot take
    g_cub, e_cub = _green_cubature(DIAGONAL)
    g_mc, e_mc = green_monte_carlo(DIAGONAL, seed=3)
    assert (g_mc, e_mc) == (1.4510381786531152, 0.014757501892758753)
    assert abs(g_cub - g_mc) <= e_cub + e_mc


@pytest.mark.parametrize("d", [3, 4, 5])
def test_monte_carlo_tail_ratio_matches_explicit_sums(d):
    # the tail summed to 10^6 terms, plus the Euler-Maclaurin remainder
    # from there on, over the window summed term by term
    s, half, horizon, last = d / 2.0, 200, 400, 1_000_000
    window = np.sum(np.arange(half + 1, horizon + 1, dtype=float) ** -s)
    tail = np.sum(np.arange(horizon + 1, last, dtype=float) ** -s)
    tail += last ** (1 - s) / (s - 1) + last ** -s / 2 + s * last ** (-s - 1) / 12
    assert tail_ratio(s, half, horizon) == pytest.approx(tail / window, rel=1e-12)


ORACLE_WALKS = {
    "simple": simple_walk(3),
    "lazy": WalkSpec(3, ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                         (0, -1, 0), (0, 0, 1), (0, 0, -1)),
                     (0.5,) + (1 / 12,) * 6),
    "skew": SKEW,
    "drifted-symmetrized": DRIFT.symmetrized(),
}
# (G, bound) of the Monte Carlo oracle with 500 replicas of 600 steps, as
# its first form (Generator.choice per 256-step chunk, a position per
# coordinate, float visit counts) gave them at seeds 0-3: three chunks,
# the last one short, and a late window that starts inside the second
MONTE_CARLO_PINS = {
    "simple": [(1.645694200469564, 0.14436367588377888),
               (1.4496706000670805, 0.07654783171060571),
               (1.4828353000335404, 0.08345009899871328),
               (1.542353000335403, 0.11442266898605019)],
    "lazy": [(3.256706000670806, 0.33384826855494754),
             (3.046858900436024, 0.2845086387955581),
             (2.936200100570185, 0.28845657566782257),
             (3.155541300704346, 0.32317602520648125)],
    "skew": [(1.626505900100621, 0.10169162007607321),
             (1.6515177003018626, 0.12437940489640513),
             (1.638505900100621, 0.11690664698685509),
             (1.6990118002012418, 0.12684833390586522)],
    "drifted-symmetrized": [(1.5068353000335404, 0.08220764259468658),
                            (1.5041765001677014, 0.10149091815608664),
                            (1.4981765001677014, 0.1019469248264412),
                            (1.5221765001677015, 0.10321063676445462)],
}


@pytest.mark.parametrize("name", list(ORACLE_WALKS))
def test_monte_carlo_oracle_keeps_its_stream(name):
    got = [green_monte_carlo(ORACLE_WALKS[name], replicas=500, horizon=600,
                             seed=seed)
           for seed in range(4)]
    assert got == MONTE_CARLO_PINS[name]


@pytest.mark.parametrize("walk", [
    *ORACLE_WALKS.values(), _axis_walk((0.2, 0.3, 0.5)),
    _axis_walk((0.05, 0.05, 0.9)),
], ids=[*ORACLE_WALKS, "anisotropic", "flat"])
def test_green_function_takes_the_walks_own_route(walk):
    # BESSEL exactly when the walk is an axis walk, bit for bit
    route = _green_bessel if walk.axis_rates is not None else _green_cubature
    assert green_function(walk) == route(walk)
    assert green_method(walk) == ("BESSEL" if route is _green_bessel
                                  else "CUBATURE")


def test_monte_carlo_oracle_raises_where_packed_fields_overflow():
    # d = 5 packs 12-bit fields: a coordinate reaches at most 2047
    green_monte_carlo(simple_walk(5), replicas=2, horizon=2047)
    with pytest.raises(SizeOverflow):
        green_monte_carlo(simple_walk(5), replicas=2, horizon=2048)
    # a step of length 2 reaches twice as far
    with pytest.raises(SizeOverflow):
        green_monte_carlo(LONG_STEPS, replicas=2, horizon=2 ** 19)


def test_green_lattice_error_bound_positive_with_drift():
    # a walk with drift has no cubature; kappa passes its symmetrization
    with pytest.raises(ValueError, match="symmetric"):
        _green_cubature(DRIFT)
    with pytest.raises(ValueError, match="symmetric"):
        green_function(DRIFT)
    g, err = _green_cubature(DRIFT.symmetrized())
    g_bes, _ = _green_bessel(DRIFT.symmetrized())
    assert 0.0 < err and abs(g - g_bes) <= min(err, 1e-10)


def test_green_rejects_low_dimension():
    with pytest.raises(DimensionTooLow):
        green_function(simple_walk(2))


# ---------------------------------------------------------------- kappa

def test_kappa_arithmetic():
    assert kappa(3.0, 2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("G, lambda22", [
    (math.nan, 1.0), (2.0, math.nan), (0.5, 1.0), (2.0, 0.0), (2.0, -1.0),
], ids=["G-nan", "lambda22-nan", "G-below-1", "lambda22-0", "lambda22-negative"])
def test_kappa_rejects_bad_arguments(G, lambda22):
    # unchecked, a NaN G or lambda22 gave kappa = nan
    with pytest.raises(ValueError, match="need G >= 1 and lambda22 > 0"):
        kappa(G, lambda22)


def test_kappa_kingman_reference_value():
    assert kappa(1.5163860, 1.0) == pytest.approx(0.5687658867, abs=1e-6)


def test_kappa_saturates_for_large_pair_rate():
    assert kappa(2.0, 1e6) == pytest.approx(1.0, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 50.0), st.floats(0.01, 50.0), st.floats(0.01, 1.0))
def test_kappa_monotonicity(G, lam, bump):
    assert kappa(G, lam + bump) > kappa(G, lam)
    assert kappa(G + bump, lam) < kappa(G, lam)
