"""Tests for the scalar comparison-principle module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns.gronwall_comparator import (
    ComparisonParams,
    envelope_excess,
    h_minus,
    verify_trap,
)


class TestLowerRoot:
    def test_zero_forcing(self):
        assert h_minus(2.0, 1.0, 0.0) == 0.0

    def test_reference_value(self):
        # (1 - sqrt(0.6)) / 2
        assert h_minus(1.0, 1.0, 0.1) == pytest.approx(0.1127016653792583, abs=1e-15)

    def test_matches_polynomial_root_oracle(self):
        for b, c, d in [(1.0, 1.0, 0.1), (2.0, 0.7, 0.5), (1.5, 2.0, 0.2)]:
            roots = np.roots([1.0, -b, c * d])
            oracle = float(np.min(roots))
            assert h_minus(b, c, d) == pytest.approx(oracle, rel=1e-12)

    def test_negative_discriminant(self):
        with pytest.raises(ValueError):
            h_minus(1.0, 1.0, 0.3)

    def test_monotone_in_forcing(self):
        deltas = np.linspace(0.0, 0.24, 40)
        values = [h_minus(1.0, 1.0, d) for d in deltas]
        assert all(b > a for a, b in zip(values, values[1:]) if b != a)
        assert np.all(np.diff(values) >= 0.0)

    @given(
        b=st.floats(min_value=0.5, max_value=5.0),
        c=st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_delta_exact(self, b, c):
        assert h_minus(b, c, 0.0) == 0.0


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComparisonParams(B=-1.0, C=1.0, delta=0.0)
        with pytest.raises(ValueError):
            ComparisonParams(B=1.0, C=1.0, delta=0.5)
        params = ComparisonParams(B=1.0, C=1.0, delta=0.1)
        assert params.h_minus == pytest.approx(0.1127016653792583)


class TestTrap:
    def test_zero_start_zero_forcing_is_equilibrium(self):
        params = ComparisonParams(B=1.0, C=1.0, delta=0.0, h0=0.0)
        with pytest.raises(ValueError):
            verify_trap(params)  # h_- = 0, not in (0, 1): nothing to trap

    def test_reference_trap(self):
        hm = h_minus(1.0, 1.0, 0.1)
        params = ComparisonParams(B=1.0, C=1.0, delta=0.1, h0=0.99 * hm)
        result = verify_trap(params, tau_max=50.0, dt=1e-3)
        assert result.trapped
        assert result.max_excess <= 1e-9

    def test_start_at_root_rejected_but_sign_is_nonpositive(self):
        # at the quadratic root the true right side is h^5 - h^2 <= 0: the
        # trajectory cannot increase through it
        b, c, d = 1.0, 1.0, 0.1
        hm = h_minus(b, c, d)
        assert c * d - b * hm + hm**5 <= 0.0
        with pytest.raises(ValueError):
            verify_trap(ComparisonParams(B=b, C=c, delta=d, h0=hm))

    def test_seeded_draws_all_trap(self):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 8:
            b = rng.uniform(0.5, 2.0)
            c = rng.uniform(0.5, 2.0)
            d = rng.uniform(0.0, b * b / (4.0 * c)) * 0.95
            hm = h_minus(b, c, d)
            if not 0.0 < hm < 1.0:
                continue
            params = ComparisonParams(B=b, C=c, delta=d, h0=rng.uniform(0.0, 0.9) * hm)
            result = verify_trap(params, tau_max=20.0, dt=1e-3)
            assert result.trapped, (b, c, d)
            done += 1

    def test_rk4_order_under_dt_halving(self):
        params = ComparisonParams(B=1.0, C=1.0, delta=0.1, h0=0.0)

        def endpoint(dt):
            hm = params.h_minus
            # integrate over a short transient where the solution still moves
            steps = int(round(2.0 / dt))
            h = params.h0
            for _ in range(steps):
                k1 = params.C * params.delta - params.B * h + h**5
                h2 = h + 0.5 * dt * k1
                k2 = params.C * params.delta - params.B * h2 + h2**5
                h3 = h + 0.5 * dt * k2
                k3 = params.C * params.delta - params.B * h3 + h3**5
                h4 = h + dt * k3
                k4 = params.C * params.delta - params.B * h4 + h4**5
                h = h + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            return h

        ref = endpoint(0.2 / 16)
        err_coarse = abs(endpoint(0.2) - ref)
        err_fine = abs(endpoint(0.1) - ref)
        assert 8.0 <= err_coarse / err_fine <= 32.0

    def test_unstable_dt_rejected(self):
        params = ComparisonParams(B=1.0, C=1.0, delta=0.1, h0=0.0)
        with pytest.raises(ValueError):
            verify_trap(params, dt=0.5)


class TestEnvelope:
    def test_exact_decay(self):
        tau = np.linspace(0.0, 10.0, 200)
        e = 3.0 * np.exp(-0.5 * tau)
        assert np.max(envelope_excess(tau, e, rate=0.5, offset=0.0)) <= 1e-12

    def test_constant_fixed_point(self):
        tau = np.linspace(0.0, 10.0, 100)
        e0 = 2.0
        rate = 0.7
        violation = np.max(envelope_excess(tau, np.full_like(tau, e0), rate, offset=rate * e0))
        assert abs(violation) <= 1e-12

    def test_subrate_series_fires(self):
        tau = np.linspace(0.0, 10.0, 200)
        e = np.exp(-0.25 * tau)
        assert np.max(envelope_excess(tau, e, rate=0.5, offset=0.0)) > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            envelope_excess(np.array([]), np.array([]), rate=0.5, offset=0.0)
        with pytest.raises(ValueError):
            envelope_excess(np.array([0.0, 1.0]), np.array([1.0, 1.0]), rate=0.0, offset=0.0)
