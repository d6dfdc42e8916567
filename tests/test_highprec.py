import mpmath as mp
import numpy as np
import pytest

from gaussqi import highprec
from gaussqi.divergence import q_s_general
from gaussqi.target import TargetConfig, make_pair, pair_moments
from gaussqi.transmitters import TransmitterSpec

MODERATE = [
    ("coherent", 0.5, 1.0, 0.3),
    ("vacuum", 0.0, 2.0, 0.2),
    ("smsv", 0.7, 3.0, 0.25),
    ("tmss", 0.8, 2.5, 0.15),
    # N_S == N_B: degenerate symplectic spectrum of rho0 (and of rho1 as kappa -> 0)
    ("tmss", 1e-3, 1e-3, 1e-2),
    ("tmss", 1.0, 1.0, 0.1),
]


@pytest.mark.parametrize("kind,n_s,n_b,kappa", MODERATE)
@pytest.mark.parametrize("model", ["agnostic", "legacy"])
def test_matches_float64_at_moderate_parameters(kind, n_s, n_b, kappa, model):
    pair = make_pair(TransmitterSpec(kind, n_s), TargetConfig(kappa=kappa, n_b=n_b, model=model))
    for s in (0.35, 0.5, 0.65):
        f64 = np.log(q_s_general(pair.rho0, pair.rho1, s))
        hp = float(highprec.log_q_s(kind, n_s, n_b, kappa, s, model=model))
        assert abs(f64 - hp) < 1e-11


def test_deficit_consistent_with_log():
    val = highprec.q_half_deficit("coherent", 1.0, 100.0, 1e-2)
    log = float(highprec.log_q_half("coherent", 1.0, 100.0, 1e-2))
    assert val == pytest.approx(-np.expm1(log), rel=1e-12)


def test_resolves_exponents_below_float_precision():
    # at kappa = 1e-10 the deficit is ~1e-21; the float64 route cannot see it
    deficit = highprec.q_half_deficit("coherent", 1e-4, 1e4, 1e-10)
    assert 0.0 < deficit < 1e-18


def test_exponent_ratio_limit_points():
    legacy = highprec.exponent_ratio(1e-4, 1e4, 1e-6, model="legacy")
    assert 3.9 <= legacy <= 4.0
    agnostic = highprec.exponent_ratio(1e-4, 1e4, 1e-10)
    assert 3.8 <= agnostic < 4.0
    ns_first = highprec.exponent_ratio(1e-10, 1e4, 1e-3)
    assert abs(ns_first - 1.0) <= 0.02


def test_rejects_unknown_model():
    # a misspelt model used to fall through to the agnostic moments
    message = r"unknown model 'legcy'; expected one of \('agnostic', 'legacy'\)"
    with pytest.raises(ValueError, match=message):
        highprec.log_q_half("coherent", 1, 1, 0.1, model="legcy")


@pytest.mark.parametrize(
    "kind,n_s,n_b,kappa", [MODERATE[3], MODERATE[4], ("coherent", 0.5, 1.0, 0.3)]
)
def test_cached_geometry_is_bit_identical(kind, n_s, n_b, kappa):
    highprec._pair_geometry.cache_clear()
    fresh = [highprec.log_q_s(kind, n_s, n_b, kappa, s) for s in (0.3, 0.5, 0.7)]
    assert highprec._pair_geometry.cache_info().misses == 1
    again = [highprec.log_q_s(kind, n_s, n_b, kappa, s) for s in (0.3, 0.5, 0.7)]
    with mp.workdps(highprec.DPS):
        moments = pair_moments(kind, mp.mpf(n_s), mp.mpf(n_b), mp.mpf(kappa), "agnostic")
        geometry = highprec._geometry(*moments)
        uncached = [highprec._log_q_at(geometry, mp.mpf(s)) for s in (0.3, 0.5, 0.7)]
    assert fresh == again == uncached
    with pytest.raises(ValueError, match="unknown model"):
        highprec.log_q_s(kind, n_s, n_b, kappa, 0.5, model="legcy")


@pytest.mark.parametrize("s", [0, 1, 1.5, -0.2, float("nan")])
def test_log_q_s_rejects_s_outside_unit_interval(s):
    # s = 1.5 used to return a complex mpc, s = 0 to divide by zero
    with pytest.raises(ValueError, match=r"s must lie in \(0, 1\), got "):
        highprec.log_q_s("coherent", 1.0, 1.0, 0.1, s)
