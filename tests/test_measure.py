import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sp_stats

from quadrature_oracle import integrate_scalar
from spatial_coalescent.errors import ToleranceNotMet
from spatial_coalescent.measure import (
    DensityPiece,
    LambdaMeasure,
    QuadratureConfig,
    mass,
    moments,
)

QC = QuadratureConfig()
# tight enough that the oracle is relative-accurate on moments near 1e-13
QC_ORACLE = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-12)


# ---------------------------------------------------------------- mass

def test_mass_single_atom_full_interval():
    m = LambdaMeasure.unit_atom(1.0)
    assert mass(m, (0.0, 1.0)) == 1.0


def test_mass_lebesgue_prefix():
    m = LambdaMeasure.lebesgue()
    assert mass(m, (0.0, 0.25)) == pytest.approx(0.25, abs=1e-10)


def test_mass_beta_normalized():
    m = LambdaMeasure.beta(1.5)
    assert mass(m, (0.0, 1.0)) == pytest.approx(1.0, rel=1e-9)


def test_mass_beta_prefix_matches_cdf():
    m = LambdaMeasure.beta(1.5)
    assert mass(m, (0.0, 0.9)) == pytest.approx(
        sp_stats.beta.cdf(0.9, 0.5, 1.5), rel=1e-8)


def test_closed_interval_atom_convention():
    m = LambdaMeasure(atoms=[(0.5, 2.0)])
    assert mass(m, (0.0, 0.5)) == 2.0
    assert mass(m, (0.5, 1.0)) == 2.0
    assert m.total_mass == 2.0


# ---------------------------------------------------------------- integrate

def test_integrate_constant_against_lebesgue():
    val, err = integrate_scalar(lambda x: 1.0, LambdaMeasure.lebesgue(), QC)
    assert val == pytest.approx(1.0, abs=1e-10)
    assert err >= 0.0


def test_integrate_atom_at_zero():
    val, _ = integrate_scalar(lambda x: x, LambdaMeasure.unit_atom(0.0), QC)
    assert val == 0.0


def test_integrate_linear_closed_form():
    val, _ = integrate_scalar(lambda x: 1.0 - x, LambdaMeasure.lebesgue(), QC)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_integrate_beta_moment_closed_form():
    # E[X] of Beta(0.5, 1.5) is 0.5/2 = 0.25
    val, _ = integrate_scalar(lambda x: x, LambdaMeasure.beta(1.5), QC)
    assert val == pytest.approx(0.25, rel=1e-9)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_tolerance_not_met_raises():
    tight = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-300, max_subdivisions=3)
    with pytest.raises(ToleranceNotMet):
        integrate_scalar(lambda x: math.sin(37.0 * x) ** 2 + x ** 0.1,
                  LambdaMeasure.beta(1.5), tight)


@pytest.mark.parametrize("field, value, match", [
    ("abs_tol", math.nan, "tolerances"), ("rel_tol", math.nan, "tolerances"),
    ("abs_tol", 0.0, "tolerances"), ("rel_tol", -1e-10, "tolerances"),
    ("abs_tol", math.inf, "tolerances"),
    ("max_subdivisions", math.nan, "integer max_subdivisions"),
    ("max_subdivisions", 0, "integer max_subdivisions"),
    ("max_subdivisions", 2.5, "integer max_subdivisions"),
    ("max_subdivisions", math.inf, "integer max_subdivisions"),
])
def test_quadrature_config_rejects_bad_values(field, value, match):
    # `abs_tol <= 0` is false for NaN, and so was `max_subdivisions < 1`:
    # both were accepted
    with pytest.raises(ValueError, match=match):
        QuadratureConfig(**{field: value})


# ---------------------------------------------------------------- moments

@pytest.mark.parametrize("piece", [
    DensityPiece((0.2, 0.7), "constant", {"level": 2.0}),
    DensityPiece((0.1, 0.6), "beta", {"alpha": 1.5}),
    DensityPiece((0.3, 1.0), "beta", {"alpha": 0.5}),
    DensityPiece((0.0, 1.0), "power", {"p": -0.5, "q": 0.5}),
    DensityPiece((0.0, 1.0), "polynomial", {"coefficients": [1.0, 1.0]}),
    DensityPiece((0.0, 1.0), "polynomial", {"coefficients": [2.0, -1.0]}),
], ids=lambda p: f"{p.tag}{p.interval}{p.params.get('coefficients', '')}")
def test_moments_match_quadrature_oracle(piece):
    m = LambdaMeasure(pieces=[piece])
    for i in (0, 1, 5, 20):
        for j in (0, 1, 5, 20):
            oracle, _ = integrate_scalar(lambda x: x**i * (1.0 - x) ** j, m, QC_ORACLE)
            assert moments(m, i, j) == pytest.approx(oracle, rel=1e-9, abs=0.0), (i, j)


def test_moments_atoms_exact_with_zero_power_convention():
    m = LambdaMeasure(atoms=[(0.0, 2.0), (0.5, 1.0), (1.0, 3.0)])
    assert moments(m, 0, 0) == 6.0
    assert moments(m, 0, 3) == 2.0 + 0.125
    assert moments(m, 2, 0) == 0.25 + 3.0
    assert list(moments(m, [0, 1], 1)) == [2.5, 0.25]


# ---------------------------------------------------------------- properties

@st.composite
def measures(draw):
    atoms = []
    n_atoms = draw(st.integers(0, 2))
    locs = draw(st.lists(st.floats(0.0, 1.0), min_size=n_atoms,
                         max_size=n_atoms, unique=True))
    for loc in locs:
        atoms.append((loc, draw(st.floats(0.1, 3.0))))
    pieces = []
    if draw(st.booleans()) or not atoms:
        pieces.append(DensityPiece((0.0, 1.0), "constant",
                                   {"level": draw(st.floats(0.1, 2.0))}))
    return LambdaMeasure(atoms=atoms, pieces=pieces)


@settings(max_examples=30, deadline=None)
@given(measures(), st.floats(0.01, 0.99))
def test_mass_additivity(m, c):
    # closed-interval convention double counts exactly the atom at c
    left = mass(m, (0.0, c))
    right = mass(m, (c, 1.0))
    assert left + right - m.atom_mass_at(c) == pytest.approx(
        m.total_mass, abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(measures())
def test_integrate_linearity(m):
    f = lambda x: x * x
    g = lambda x: 1.0 - x
    vf, _ = integrate_scalar(f, m, QC)
    vg, _ = integrate_scalar(g, m, QC)
    vfg, _ = integrate_scalar(lambda x: f(x) + g(x), m, QC)
    assert vfg == pytest.approx(vf + vg, abs=1e-8)


def _canonical(m: LambdaMeasure) -> dict:
    """The config form of a measure: sorted atoms, then pieces in order."""
    return {"atoms": [[loc, w] for loc, w in m.atoms],
            "pieces": [{"interval": list(p.interval), "tag": p.tag,
                        "params": dict(p.params)} for p in m.pieces]}


def test_serialization_round_trip():
    m = LambdaMeasure(atoms=[(0.0, 1.0), (0.5, 0.25)],
                      pieces=[DensityPiece((0.0, 1.0), "beta", {"alpha": 1.5})])
    d = _canonical(m)
    m2 = LambdaMeasure.from_dict(d)
    assert _canonical(m2) == d
    assert m2.total_mass == pytest.approx(m.total_mass, rel=1e-12)


@pytest.mark.parametrize("interval, tag, params", [
    # mass 0.25 >= 0, but negative on (2/3, 1]: built lambda_{8,7} < 0 and
    # an all-nan merge law before it was rejected
    ((0, 1), "polynomial", {"coefficients": [1, -1.5]}),
    # positive at both ends, negative around x = 1/sqrt(3)
    ((0, 1), "polynomial", {"coefficients": [0.3, -1.0, 0.0, 1.0]}),
    ((0, 1), "constant", {"level": -0.5}),
    ((0, 1), "power", {"p": 0.0, "q": 1.0, "coeff": -2.0}),
])
def test_negative_density_rejected(interval, tag, params):
    with pytest.raises(ValueError, match="negative"):
        DensityPiece(interval, tag, params)


@pytest.mark.parametrize("interval, coefficients", [
    ((0, 1), [0.25, -1.0, 1.0]),        # (x - 1/2)^2 touches zero
    ((0, 1), [2.0, -1.0]),
    ((0.2, 1), [-0.01, 0.0, 1.0]),      # negative only left of the piece
])
def test_nonnegative_polynomial_accepted(interval, coefficients):
    DensityPiece(interval, "polynomial", {"coefficients": coefficients})


def test_zero_mass_rejected_on_direct_construction():
    with pytest.raises(ValueError):
        LambdaMeasure(atoms=[], pieces=[])


@pytest.mark.parametrize("atoms, pieces", [
    ([(0.0, math.inf)], []),
    ([(0.0, math.nan)], []),
    ([(0.0, 1e308), (0.5, 1e308)], []),     # each finite, the sum is not
    ([], [((0, 1), "power", {"p": math.nan, "q": 0.5})]),
    ([], [((0, 1), "power", {"p": 0.5, "q": 0.5, "coeff": math.nan})]),
    ([], [((0, 1), "constant", {"level": math.inf})]),
    ([], [((0, 1), "power", {"p": 0.5, "q": math.nan})]),
    ([], [((0, 1), "power", {"p": math.inf, "q": 0.5})]),
    ([], [((0, 1), "power", {"p": 0.5, "q": 0.5, "coeff": math.inf})]),
    ([], [((0, 1), "constant", {"level": math.nan})]),
], ids=["inf-atom", "nan-atom", "overflowing-atoms", "nan-p", "nan-coeff",
        "inf-level", "nan-q", "inf-p", "inf-coeff", "nan-level"])
def test_infinite_or_nan_mass_rejected(atoms, pieces):
    # such a measure would give inf or nan rates, with a RuntimeWarning
    # only; a piece with a NaN or infinite parameter is rejected as it is
    # built (unchecked, NaN p, q, coeff and level and an infinite level
    # were accepted)
    with pytest.raises(ValueError, match="finite"):
        LambdaMeasure(atoms=atoms, pieces=[DensityPiece(*piece)
                                           for piece in pieces])


def test_atom_flags():
    assert LambdaMeasure.unit_atom(1.0).has_atom_at_one
    assert not LambdaMeasure.unit_atom(0.0).has_atom_at_one
    assert not LambdaMeasure.lebesgue().has_atom_at_one
