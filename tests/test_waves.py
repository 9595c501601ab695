import math

import numpy as np
import pytest

from oxidefv import (
    ExponentialProfile,
    ModelParams,
    RegimeKind,
    TravellingWave,
    classify,
    uniform_mesh,
    wave_profile_on_mesh,
)


def _params(a, b, a0, b0, a1, b1, R):
    return ModelParams(a=a, b=b, alpha0=a0, beta0=b0, alpha1=a1, beta1=b1, R=R,
                       L0=1.0, u_init=ExponentialProfile(0.0, 0.0, 1.0))


class TestClassify:
    def test_testcase1_unique_wave(self, tc1):
        regime = classify(tc1)
        assert regime.kind is RegimeKind.UNIQUE_WAVE
        wave = regime.wave
        assert wave.c_hat == 0.25
        expected_L = -2.0 * math.log(0.1875)
        assert abs(wave.L_hat - expected_L) <= 1e-12 * expected_L
        assert wave.u_left == 1.0

    def test_testcase2_no_wave(self, tc2):
        assert classify(tc2).kind is RegimeKind.NO_WAVE

    def test_testcase3_no_wave(self, tc3):
        assert classify(tc3).kind is RegimeKind.NO_WAVE

    def test_equilibrium_continuum(self):
        regime = classify(_params(1, 1, 1, 1, 1, 1, 2))
        assert regime.kind is RegimeKind.EQUILIBRIUM_CONTINUUM
        assert regime.level == 1.0

    def test_reversed_chain_negative_speed(self):
        # mixed ratio 5.5 > a/b = 2 > alpha0/beta0 = 1
        regime = classify(_params(2, 1, 1, 1, 10, 1, 1))
        assert regime.kind is RegimeKind.UNIQUE_WAVE
        assert regime.wave.c_hat == -1.0
        assert abs(regime.wave.L_hat - math.log(4.5)) <= 1e-14

    def test_zero_speed_without_triple_equality_is_no_wave(self):
        # a/b = alpha0/beta0 exactly but alpha1/beta1 differs
        regime = classify(_params(1.5, 1, 1.5, 1, 0.5, 4, 2))
        assert regime.kind is RegimeKind.NO_WAVE

    def test_right_trace_consistency(self):
        # -alpha1 + beta1 u(L_hat) = c_hat on every admissible wave
        rng = np.random.default_rng(11)
        found = 0
        while found < 25:
            vals = rng.uniform(0.2, 5.0, 7)
            p = _params(*vals)
            regime = classify(p)
            if regime.kind is not RegimeKind.UNIQUE_WAVE:
                continue
            found += 1
            w = regime.wave
            resid = -p.alpha1 + p.beta1 * float(w.profile(w.L_hat)) - w.c_hat
            assert abs(resid) <= 1e-12 * max(1.0, abs(w.c_hat))
            # forward chain has positive speed, reversed negative; width always positive
            assert w.L_hat > 0.0

    def test_scale_consistency(self, tc1):
        base = classify(tc1).wave
        for kappa in (3.0, 0.125, 7.7):
            scaled = ModelParams(
                a=kappa * tc1.a, b=kappa * tc1.b, alpha0=tc1.alpha0, beta0=tc1.beta0,
                alpha1=tc1.alpha1, beta1=tc1.beta1, R=tc1.R, L0=tc1.L0, u_init=tc1.u_init,
            )
            regime = classify(scaled)
            assert regime.kind is RegimeKind.UNIQUE_WAVE
            assert abs(regime.wave.c_hat - base.c_hat) <= 1e-12 * abs(base.c_hat)
            assert abs(regime.wave.L_hat - base.L_hat) <= 1e-12 * base.L_hat


class TestProfileOnMesh:
    def test_left_value_is_rate_ratio(self, tc1):
        wave = classify(tc1).wave
        u = wave_profile_on_mesh(wave, uniform_mesh(10))
        assert u[0] == tc1.a / tc1.b

    def test_right_value_matches_closed_form(self, tc1):
        # u(1) after rescaling equals (b/(beta1 a)) (alpha1 + c)
        wave = classify(tc1).wave
        u = wave_profile_on_mesh(wave, uniform_mesh(10))
        assert abs(u[-1] - 0.1875) <= 1e-12

    def test_zero_speed_profile_is_constant(self):
        wave = TravellingWave(c_hat=0.0, L_hat=2.0, u_left=1.25, decay=0.0)
        u = wave_profile_on_mesh(wave, uniform_mesh(6))
        assert np.all(u == 1.25)

    def test_monotone_for_positive_speed(self, tc1):
        wave = classify(tc1).wave
        u = wave_profile_on_mesh(wave, uniform_mesh(50))
        assert np.all(np.diff(u) < 0.0)


class TestWaveType:
    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            TravellingWave(c_hat=0.1, L_hat=-1.0, u_left=1.0, decay=0.2)

    @pytest.mark.parametrize("field", ["c_hat", "L_hat", "u_left", "decay"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, value):
        fields = dict(c_hat=0.1, L_hat=1.0, u_left=1.0, decay=0.2)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TravellingWave(**fields)

    def test_speed_and_decay_may_be_negative(self):
        wave = TravellingWave(c_hat=-0.1, L_hat=1.0, u_left=1.0, decay=-0.2)
        assert wave.profile(1.0) > wave.profile(0.0)

    @pytest.mark.parametrize("u_left", [0.0, -0.0, -1.0])
    def test_non_positive_left_value_rejected(self, u_left):
        with pytest.raises(ValueError, match="u_left must be strictly positive"):
            TravellingWave(c_hat=0.1, L_hat=1.0, u_left=u_left, decay=0.2)
