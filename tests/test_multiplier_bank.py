"""Tests for the radial multiplier bank, its constants, and sign certificates."""

import math

import numpy as np
import pytest

import torusns as tn
from torusns.multiplier_bank import (
    MultiplierSet,
    apply,
    check_bernstein,
    evaluate_on_grid,
    phi,
)

ALPHAS = (1.0 / 32.0, 1.0 / 16.0, 3.0 / 32.0, 0.124)


class TestLowPassProfile:
    def test_plateau_values(self):
        assert phi(0.5) == 1.0
        assert phi(1.0) == 1.0
        assert phi(2.0) == 0.0
        assert phi(2.5) == 0.0

    def test_dense_monotonicity(self):
        r = np.linspace(0.0, 3.0, 10_001)
        assert np.all(np.diff(phi(r)) <= 0.0)

    def test_bounded_in_unit_interval(self):
        vals = phi(np.linspace(0.0, 4.0, 5000))
        assert vals.min() >= 0.0 and vals.max() <= 1.0


class TestWeightedLowPass:
    def test_branch_continuity_at_knee(self):
        alpha = 1.0 / 16.0
        mults = MultiplierSet(alpha)
        knee = 0.5 + alpha
        left = knee ** (0.5 + 2 * alpha) * phi(knee)
        assert mults.profiles(knee).chi == pytest.approx(float(left), abs=1e-14)
        eps = 1e-9
        assert mults.profiles(knee - eps).chi == pytest.approx(
            float(mults.profiles(knee + eps).chi), abs=1e-8
        )

    def test_zero_at_origin(self):
        assert MultiplierSet(1.0 / 16.0).profiles(0.0).chi == 0.0

    def test_alpha_range_open(self):
        for bad in (0.125, 0.0, -0.01, 0.2):
            with pytest.raises(ValueError):
                MultiplierSet(bad)

    def test_domination_identity(self):
        # chi(r) equals r^(1/2+2a) phi(r) min(1, (knee/r)^(1/2+2a)) pointwise
        alpha = 3.0 / 32.0
        r = np.linspace(1e-6, 3.0, 7001)
        prof = MultiplierSet(alpha).profiles(r)
        expo = 0.5 + 2 * alpha
        knee = 0.5 + alpha
        rhs = r**expo * prof.phi * np.minimum(1.0, (knee / r) ** expo)
        assert np.max(np.abs(prof.chi - rhs)) < 1e-13


class TestOperatorIdentities:
    def test_completeness_pointwise(self):
        prof = MultiplierSet(1.0 / 16.0).profiles(np.linspace(0.0, 3.0, 10_001))
        assert np.max(np.abs(prof.phi + prof.one_minus_phi - 1.0)) < 1e-15
        split = prof.phi**2 + prof.sqrt_one_minus_phi_sq**2
        assert np.max(np.abs(split - 1.0)) < 1e-14
        # the split-energy weight, so E <= ||w||^2
        assert np.max(prof.chi**2 + prof.sqrt_one_minus_phi_sq**2) <= 1.0 + 1e-13

    def test_low_pass_identity_on_low_field(self, grid16, rng, random_field_factory):
        mults = MultiplierSet(1.0 / 16.0)
        f = random_field_factory(grid16, rng, k_max=1.0)
        low = apply(mults, "phi", f)
        assert np.max(np.abs(low.data - f.data)) < 1e-15
        high = apply(mults, "one_minus_phi", f)
        assert np.max(np.abs(high.data)) < 1e-15

    def test_energy_split(self, grid16, rng, random_field_factory):
        mults = MultiplierSet(1.0 / 16.0)
        for _ in range(20):
            f = random_field_factory(grid16, rng)
            total = tn.norms(f).l2_sq
            low = tn.norms(apply(mults, "phi", f)).l2_sq
            high = tn.norms(apply(mults, "sqrt_one_minus_phi_sq", f)).l2_sq
            assert low + high == pytest.approx(total, rel=1e-12)

    def test_grid_cache_consistency(self, grid16):
        mults = MultiplierSet(1.0 / 16.0)
        a = evaluate_on_grid(mults, "chi", grid16)
        b = evaluate_on_grid(mults, "chi", grid16)
        assert a is b  # cache hit
        assert np.array_equal(a, mults.profiles(grid16.k_mag).chi)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("s", [1.0, 0.25, 0.01])
    def test_profiles_on_shells_match_lattice(self, n, s):
        # the profiles on the distinct |k| values of the dealias band,
        # gathered, equal the profiles evaluated on the band value for value
        grid = tn.make_grid(n)
        mults = MultiplierSet(1.0 / 16.0)
        root = math.sqrt(s)
        shells, index = grid.band.shells, grid.band.shell_index
        assert shells.size < index.size
        on_shells = mults.profiles(root * shells)
        on_band = mults.profiles(root * np.sqrt(grid.band.k_sq))
        for name in on_band._fields:
            assert np.array_equal(getattr(on_shells, name)[index], getattr(on_band, name)), name

    def test_profile_cache_flat_in_row_count(self):
        # ledger rows evaluate the rescaled profiles on the u-lattice and
        # leave the cache alone, however many rows a run logs
        from torusns.multiplier_bank import _profile_cache

        _profile_cache.clear()
        sizes = []
        for horizon in (0.03, 0.09):
            ledger = tn.run(tn.SimulationConfig(n=16, delta=0.01, horizon=horizon, stride=1))
            sizes.append((len(ledger), len(_profile_cache)))
        (rows_short, entries_short), (rows_long, entries_long) = sizes
        assert rows_long > 2 * rows_short
        assert entries_short == entries_long == 0


class TestQuadratureConstant:
    def test_closed_form_infinity(self):
        # 4 pi * int_0^2 r^(1-4a) dr = 4 pi 2^(2-4a)/(2-4a); exponent 1/2
        alpha = 1.0 / 16.0
        closed = (2 * math.pi) ** 3 * math.sqrt(4 * math.pi * 2**1.75 / 1.75)
        value = tn.hausdorff_young_constant(alpha, math.inf)
        assert value == pytest.approx(closed, rel=1e-10)
        assert value == pytest.approx(1.2190647089846348e3, rel=1e-12)

    def test_closed_form_l4(self):
        alpha = 1.0 / 16.0
        p = 2.0 + 8.0 * alpha
        closed = (2 * math.pi) ** (9.0 / 4.0) * (4 * math.pi * 2 ** (3 - p) / (3 - p)) ** 0.25
        assert tn.hausdorff_young_constant(alpha, 4) == pytest.approx(closed, rel=1e-10)

    def test_radial_exponent_integrable(self):
        # m=4 gives p = 2 + 8a which stays below 3 on the whole alpha range
        for alpha in ALPHAS:
            assert 2.0 + 8.0 * alpha < 3.0
            assert tn.hausdorff_young_constant(alpha, 4) > 0.0

    def test_positive_and_finite(self):
        for alpha in ALPHAS:
            for m in (4, 6, math.inf):
                value = tn.hausdorff_young_constant(alpha, m)
                assert math.isfinite(value) and value > 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tn.hausdorff_young_constant(0.2, 4)
        with pytest.raises(ValueError):
            tn.hausdorff_young_constant(1.0 / 16.0, 2)


class TestLowNormBound:
    def test_random_fields_never_violate(self, grid16, rng, random_field_factory):
        alpha = 1.0 / 16.0
        mults = MultiplierSet(alpha)
        c4 = tn.hausdorff_young_constant(alpha, 4)
        cinf = tn.hausdorff_young_constant(alpha, math.inf)
        for _ in range(20):
            f = random_field_factory(grid16, rng)
            low = tn.norms(apply(mults, "phi", f))
            chi_l2 = math.sqrt(tn.norms(apply(mults, "chi", f)).l2_sq)
            assert low.l4 <= c4 * chi_l2
            assert low.sup <= cinf * chi_l2


class TestBernsteinMargin:
    def test_high_band_equality(self, grid16, rng, random_field_factory):
        mults = MultiplierSet(1.0 / 16.0)
        f = random_field_factory(grid16, rng, k_min=2.0)
        margin = check_bernstein(mults, f, (0, 0, 0))
        scale = tn.norms(f).l2_sq
        assert abs(margin) <= 1e-12 * scale

    def test_low_band_both_zero(self, grid16, rng, random_field_factory):
        mults = MultiplierSet(1.0 / 16.0)
        f = random_field_factory(grid16, rng, k_max=1.0)
        assert check_bernstein(mults, f, (1, 0, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_margin_nonnegative_all_orders(self, grid16, rng, random_field_factory):
        mults = MultiplierSet(1.0 / 16.0)
        betas = [
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        ]
        for _ in range(5):
            f = random_field_factory(grid16, rng)
            scale = tn.norms(f).h2_sq + tn.norms(f).l2_sq
            for beta in betas:
                assert check_bernstein(mults, f, beta) >= -1e-12 * scale

    def test_order_cap(self, grid16, rng, random_field_factory):
        mults = MultiplierSet(1.0 / 16.0)
        with pytest.raises(ValueError):
            check_bernstein(mults, random_field_factory(grid16, rng), (2, 1, 0))


class TestSignCertificates:
    def test_power_branch_closed_form(self):
        # below the knee the bracket collapses to -r^(3+4a) exactly
        alpha = 1.0 / 16.0
        knee = 0.5 + alpha
        r = np.linspace(0.0, knee * 0.999, 2001)
        chi_sq = MultiplierSet(alpha).profiles(r).chi ** 2
        d_chi_sq = (1 + 4 * alpha) * r ** (4 * alpha)
        bracket = -0.25 * r * d_chi_sq + (0.25 + alpha - r**2) * chi_sq
        assert np.max(np.abs(bracket - (-(r ** (3 + 4 * alpha))))) < 1e-13

    def test_constant_branch_value(self):
        alpha = 1.0 / 16.0
        expected = (9.0 / 16.0) ** 1.25 * (0.25 + alpha - 0.81)
        r = np.array([0.9])
        chi_sq = float(MultiplierSet(alpha).profiles(r).chi[0] ** 2)
        bracket = (0.25 + alpha - 0.81) * chi_sq  # derivative term vanishes
        assert bracket == pytest.approx(expected, rel=1e-12)
        assert bracket < 0.0

    def test_low_range_origin(self):
        alpha = 1.0 / 16.0
        grid = np.array([0.0])
        assert tn.sign_certificate_A(alpha, grid) == pytest.approx(0.0, abs=1e-15)

    def test_transition_range_endpoints(self):
        alpha = 1.0 / 16.0
        assert tn.sign_certificate_B(alpha, np.array([2.0])) == pytest.approx(0.0, abs=1e-14)
        at_one = tn.sign_certificate_B(alpha, np.array([1.0]))
        assert at_one < 0.0

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_dense_scan_nonpositive(self, alpha):
        assert tn.sign_certificate_A(alpha) <= 1e-12
        assert tn.sign_certificate_B(alpha) <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            tn.sign_certificate_A(1.0 / 16.0, np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            tn.sign_certificate_B(1.0 / 16.0, np.array([0.5]))
