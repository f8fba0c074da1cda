"""Tests for the spectral discretization layer."""

import numpy as np
import pytest

import torusns as tn
from torusns import spectral_core
from torusns.spectral_core import (
    PHYSICAL,
    SPECTRAL,
    RepresentationError,
    VectorField,
    advective_laplacian_form,
    convective_product,
    divergence_ratio,
    hermitian_defect,
    inner_l2,
    quadrature_l2_sq,
    trilinear_form,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def embed_scalar(grid, values):
    """Scalar test function as component 0 of a vector field."""
    data = np.zeros((3, grid.n, grid.n, grid.n))
    data[0] = values
    return VectorField(grid, data, PHYSICAL)


class TestMakeGrid:
    def test_unit_mode_present(self):
        grid = tn.make_grid(8, TWO_PI)
        k1 = np.unique(np.round(grid.k[0].ravel(), 12))
        assert 1.0 in k1

    def test_max_axis_wavenumber(self):
        grid = tn.make_grid(32, TWO_PI)
        assert np.max(np.abs(grid.k[0])) == pytest.approx(16.0)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            tn.make_grid(7, TWO_PI)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            tn.make_grid(4, TWO_PI)

    def test_nonpositive_box_rejected(self):
        with pytest.raises(ValueError):
            tn.make_grid(16, 0.0)

    def test_mode_lattice_complete(self):
        grid = tn.make_grid(16, TWO_PI)
        modes = sorted(int(m) for m in grid.k[2].ravel())  # k = m on a 2*pi box
        assert modes == list(range(-8, 8))

    def test_zero_mode_once(self):
        grid = tn.make_grid(8, 1.0)
        assert int(np.sum(grid.k_mag == 0.0)) == 1

    def test_magnitude_bound(self):
        grid = tn.make_grid(16, 3.7)
        assert np.max(grid.k_mag) <= np.sqrt(3.0) * np.pi * 16 / 3.7 + 1e-12


class TestTransforms:
    def test_constant_field_is_mean_mode(self, grid16):
        f = embed_scalar(grid16, np.full((16, 16, 16), 2.5))
        spec = tn.to_spectral(f)
        assert spec.data[0, 0, 0, 0] == pytest.approx(2.5)
        off = spec.data.copy()
        off[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_sine_has_two_modes(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        spec = tn.to_spectral(f)
        nonzero = np.abs(spec.data[0]) > 1e-13
        assert int(np.sum(nonzero)) == 2
        assert abs(spec.data[0, 1, 0, 0]) == pytest.approx(0.5, abs=1e-13)
        assert abs(spec.data[0, -1, 0, 0]) == pytest.approx(0.5, abs=1e-13)

    def test_roundtrip(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        phys = tn.to_physical(f)
        back = tn.to_physical(tn.to_spectral(phys))
        scale = np.max(np.abs(phys.data))
        assert np.max(np.abs(back.data - phys.data)) <= 1e-12 * scale

    def test_parseval_two_routes(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        plancherel = tn.norms(f).l2_sq
        quadrature = quadrature_l2_sq(f)
        assert quadrature == pytest.approx(plancherel, rel=1e-12)

    def test_representation_mismatch(self, grid16, rng, random_field_factory):
        f = zero_field(grid16, SPECTRAL)
        with pytest.raises(RepresentationError):
            tn.to_spectral(f)
        with pytest.raises(RepresentationError):
            tn.to_physical(tn.to_physical(f))
        # every function that needs samples transforms explicitly, so none
        # accepts a physical field in place of a spectral one
        spec = random_field_factory(grid16, rng)
        phys = tn.to_physical(spec)
        takes_spectral = {
            "norms": tn.norms,
            "quadrature_l2_sq": quadrature_l2_sq,
            "inner_l2 (first)": lambda p: inner_l2(p, spec),
            "inner_l2 (second)": lambda p: inner_l2(spec, p),
            "divergence_ratio": divergence_ratio,
            "hermitian_defect": hermitian_defect,
            "trilinear_form": trilinear_form,
            "advective_laplacian_form": advective_laplacian_form,
            "convective_product": convective_product,
            "nonlinear_rhs": tn.nonlinear_rhs,
        }
        for name, call in takes_spectral.items():
            try:
                call(phys)
            except RepresentationError:
                continue
            pytest.fail(f"{name} accepted a physical field")


class TestHalfSpectrum:
    def test_transforms_match_full_spectrum(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        phys = tn.to_physical(f).data
        half = tn.spectral_core.half_to_spectral(phys)
        assert half.shape == (3, 16, 16, 9)
        assert np.max(np.abs(half - f.data[..., :9])) <= 1e-14 * np.max(np.abs(f.data))
        back = tn.spectral_core.half_to_physical(half, 16)
        assert np.max(np.abs(back - phys)) <= 1e-13 * np.max(np.abs(phys))

    def test_full_spectrum_is_exactly_hermitian(self, rng):
        for n in (16, 24, 32):
            grid = tn.make_grid(n)
            band = spectral_core.band_to_spectral(rng.standard_normal((3, n, n, n)))
            # and a band whose m3 = 0 plane is not Hermitian
            noisy = band + 1e-3 * (rng.standard_normal(band.shape) + 1j)
            for coef in (band, noisy):
                full = spectral_core.full_spectrum(coef, n)
                assert hermitian_defect(VectorField(grid, full, SPECTRAL)) == 0.0
                samples = VectorField(grid, spectral_core.band_to_physical(coef, n), PHYSICAL)
                expected = tn.to_spectral(samples).data
                assert np.max(np.abs(full - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestDealiasBand:
    @pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
    def test_pruned_pair_matches_half_spectrum_pair(self, n, rng):
        grid = tn.make_grid(n)
        band = grid.band
        shape = (3,) + band.k_sq.shape
        coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        half = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
        half[band.positions] = coef
        samples = spectral_core.half_to_physical(half, n)
        assert np.array_equal(spectral_core.band_to_physical(coef, n), samples)
        for values in (samples, rng.standard_normal((3, n, n, n))):
            expected = spectral_core.half_to_spectral(values)[band.positions]
            assert np.array_equal(spectral_core.band_to_spectral(values), expected)

    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    def test_band_is_the_dealias_mask(self, n):
        grid = tn.make_grid(n)
        c = spectral_core.band_cutoff(n)
        assert 3 * c < n <= 3 * (c + 1)
        kept = np.zeros((n, n, n // 2 + 1), dtype=bool)
        kept[grid.band.positions] = True
        assert np.array_equal(kept, grid.dealias_mask[..., : n // 2 + 1])
        assert np.array_equal(grid.band.k_sq, grid.k_sq[grid.band.positions])

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_mask_unchanged_where_3_does_not_divide_n(self, n):
        m = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        kept = m <= n / 3.0
        expected = kept[:, None, None] & kept[None, :, None] & kept[None, None, :]
        assert np.array_equal(tn.make_grid(n).dealias_mask, expected)

    def test_dealiased_triple_products_are_exact_at_n24(self, rng, random_field_factory):
        # 3 divides 24: keeping m = 8 would alias 8 + 8 = 16 onto -8, and the
        # triple-product quadrature would reach mode 24 = 0
        grid = tn.make_grid(24)
        for _ in range(3):
            field = tn.dealias(
                random_field_factory(grid, rng, k_max=np.inf, divergence_free=True)
            )
            terms = spectral_core.band_terms(field)
            gradient = spectral_core.nonlinear_integrals(*terms, grid.volume)
            coef, u, _ = terms
            lam = spectral_core.rotational_product(u, coef, grid.band.k)
            rotational = spectral_core.rotational_integrals(coef, lam, grid.band.k, grid.volume)
            for (a, scale_a), (b, scale_b) in zip(gradient, rotational):
                assert abs(a - b) <= 1e-15 * max(scale_a, scale_b)


class TestLerayProjection:
    def test_matches_componentwise_reference(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        k, coef = grid16.k, f.data
        k_sq = np.where(grid16.k_sq == 0.0, 1.0, grid16.k_sq)
        k_dot = k[0] * coef[0] + k[1] * coef[1] + k[2] * coef[2]
        expected = np.stack([coef[j] - k[j] * k_dot / k_sq for j in range(3)])
        projected = tn.leray_project(f).data
        assert np.max(np.abs(projected - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_gradient_field_annihilated(self, grid16, rng):
        # coefficients parallel to k are pure gradient
        scalar = rng.standard_normal((16, 16, 16)) + 1j * rng.standard_normal((16, 16, 16))
        data = np.stack([1j * grid16.k[j] * scalar for j in range(3)])
        projected = tn.leray_project(VectorField(grid16, data, SPECTRAL))
        assert np.max(np.abs(projected.data)) < 1e-12 * np.max(np.abs(data))

    def test_divergence_free_unchanged(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng, divergence_free=True)
        again = tn.leray_project(f)
        assert np.max(np.abs(again.data - f.data)) <= 1e-14 * np.max(np.abs(f.data))

    def test_divergence_ratio_small(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        assert tn.divergence_ratio(tn.leray_project(f)) <= 1e-12

    def test_matches_permode_projector_matrix(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        projected = tn.leray_project(f)
        idx = [(1, 2, 3), (5, 0, 14), (9, 9, 1)]
        for i, j, l in idx:
            k = np.array([grid16.k[0][i, 0, 0], grid16.k[1][0, j, 0], grid16.k[2][0, 0, l]])
            mat = np.eye(3) - np.outer(k, k) / np.dot(k, k)
            expected = mat @ f.data[:, i, j, l]
            assert np.max(np.abs(projected.data[:, i, j, l] - expected)) < 1e-13

    def test_self_adjoint(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        g = random_field_factory(grid16, np.random.default_rng(77))
        lhs = inner_l2(tn.leray_project(f), g)
        rhs = inner_l2(f, tn.leray_project(g))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_commutes_with_derivative(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        beta = (1, 1, 0)
        a = tn.spectral_derivative(tn.leray_project(f), beta)
        b = tn.leray_project(tn.spectral_derivative(f, beta))
        scale = np.max(np.abs(a.data)) + 1e-300
        assert np.max(np.abs(a.data - b.data)) <= 1e-12 * scale


class TestSpectralDerivative:
    def test_sine_to_cosine(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        df = tn.to_physical(tn.spectral_derivative(tn.to_spectral(f), (1, 0, 0)))
        expected = np.broadcast_to(np.cos(x1), (16, 16, 16))
        assert np.max(np.abs(df.data[0] - expected)) < 1e-12

    def test_zero_multi_index_is_identity(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        assert np.array_equal(tn.spectral_derivative(f, (0, 0, 0)).data, f.data)

    def test_second_derivative(self, grid16):
        _, x2, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(2 * x2), (16, 16, 16)).copy())
        d2 = tn.to_physical(tn.spectral_derivative(tn.to_spectral(f), (0, 2, 0)))
        expected = -4.0 * np.broadcast_to(np.sin(2 * x2), (16, 16, 16))
        assert np.max(np.abs(d2.data[0] - expected)) < 1e-11

    def test_order_cap(self, grid16):
        f = zero_field(grid16, SPECTRAL)
        with pytest.raises(ValueError):
            tn.spectral_derivative(f, (2, 2, 0))


class TestDealias:
    def test_low_modes_untouched(self, grid32, rng, random_field_factory):
        f = random_field_factory(grid32, rng, k_max=10.0)
        assert np.array_equal(tn.dealias(f).data, f.data)

    def test_high_mode_zeroed(self, grid32):
        f = zero_field(grid32, SPECTRAL)
        f.data[0, 12, 0, 0] = 1.0
        assert np.max(np.abs(tn.dealias(f).data)) == 0.0

    def test_energy_nonincreasing(self, grid32, rng, random_field_factory):
        f = random_field_factory(grid32, rng, k_max=15.0)
        assert tn.norms(tn.dealias(f)).l2_sq <= tn.norms(f).l2_sq


class TestNorms:
    def test_sine_l2(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        assert tn.norms(tn.to_spectral(f)).l2_sq == pytest.approx(TWO_PI**3 / 2.0, rel=1e-13)

    def test_sine_h1(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        assert tn.norms(tn.to_spectral(f)).h1_sq == pytest.approx(TWO_PI**3 / 2.0, rel=1e-13)

    def test_lm_dispatch(self, grid16, rng, random_field_factory):
        ns = tn.norms(random_field_factory(grid16, rng))
        assert ns.lm(4) == ns.l4
        assert ns.lm(np.inf) == ns.sup
        with pytest.raises(ValueError):
            ns.lm(3)

    def test_hermitian_defect_zero_for_real(self, grid16, rng, random_field_factory):
        assert hermitian_defect(random_field_factory(grid16, rng)) < 1e-13


def _triad_field(grid):
    """Cosine modes with several closing triads and analytic gradients.

    The wavevectors admit triad interactions (e.g. (1,0,0)+(0,1,0)+(-1,-1,0)
    sums to zero), so the gradient triple product is genuinely nonzero; the
    transverse parts and phases are frozen values that realize that.
    """
    ks = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([-1.0, -1.0, 0.0]),
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 1.0, -1.0]),
    ]
    vs = [
        np.array([-0.80193143, -1.324359, -0.24836162]),
        np.array([0.42044524, 1.13604653, 0.1097064]),
        np.array([-0.55264732, -0.78478036, 0.74874577]),
        np.array([1.63478304, 0.27276878, -1.23332866]),
        np.array([-0.95826521, 1.60001909, 0.20288244]),
    ]
    amps = [1.34423104, 0.89240466, 0.99302302, 1.17668935, 0.56080271]
    phases = [0.22238447, -0.91419358, 1.51860469, -1.74314225, 0.71672613]
    x = grid.coordinates()
    u = np.zeros((3, grid.n, grid.n, grid.n))
    grads = np.zeros((3, 3, grid.n, grid.n, grid.n))  # grads[j, c] = d_j u_c
    for k, v, a, p in zip(ks, vs, amps, phases):
        v = v - np.dot(v, k) * k / np.dot(k, k)  # transverse: divergence-free
        phase = k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + p
        cos, sin = np.cos(phase), np.sin(phase)
        for c in range(3):
            u[c] += a * v[c] * cos
            for j in range(3):
                grads[j, c] += -a * v[c] * k[j] * sin
    return u, grads, ks, vs, amps, phases


class TestNonlinearFunctionals:
    def test_trilinear_against_analytic_gradients(self, grid16):
        u, grads, *_ = _triad_field(grid16)
        expected = 0.0
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    expected += np.sum(grads[j, k] * grads[j, l] * grads[l, k])
        expected *= grid16.cell_volume
        field = tn.to_spectral(VectorField(grid16, u, PHYSICAL))
        value = trilinear_form(field)
        assert abs(expected) > 1e-6  # the triad really interacts
        assert value == pytest.approx(expected, rel=1e-11)

    def test_laplacian_coupling_against_analytic_oracle(self, grid16):
        # int (Lap u).Lap((u.grad)u) dx == int (Lap^2 u).(u.grad)u dx on the
        # torus; the right side needs no transforms: Lap^2 scales each cosine
        # mode by |k|^4 and the advection product comes from analytic parts.
        u, grads, ks, vs, amps, phases = _triad_field(grid16)
        x = grid16.coordinates()
        bilap = np.zeros_like(u)
        for k, v, a, p in zip(ks, vs, amps, phases):
            v = v - np.dot(v, k) * k / np.dot(k, k)
            phase = k[0] * x[0] + k[1] * x[1] + k[2] * x[2] + p
            for c in range(3):
                bilap[c] += a * v[c] * np.dot(k, k) ** 2 * np.cos(phase)
        conv = np.zeros_like(u)
        for c in range(3):
            for j in range(3):
                conv[c] += u[j] * grads[j, c]
        expected = np.sum(bilap * conv) * grid16.cell_volume
        value = advective_laplacian_form(tn.to_spectral(VectorField(grid16, u, PHYSICAL)))
        assert abs(expected) > 1e-6
        assert value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_rotational_integrals_match_gradient_quadrature(self, n, rng, random_field_factory):
        # divergence-free fields on the ball |m| <= n/3, where the collocation
        # quadrature of a triple product is exact; at n = 24 the ball holds
        # m = 8, which lies outside the band (c = 7), so the field is dealiased
        grid = tn.make_grid(n)
        for _ in range(2):
            field = tn.dealias(random_field_factory(grid, rng, divergence_free=True))
            terms = spectral_core.band_terms(field)
            gradient = spectral_core.nonlinear_integrals(*terms, grid.volume)
            coef, u, _ = terms
            lam = spectral_core.rotational_product(u, coef, grid.band.k)
            rotational = spectral_core.rotational_integrals(coef, lam, grid.band.k, grid.volume)
            for (a, scale_a), (b, scale_b) in zip(gradient, rotational):
                assert abs(a) > 1e-6 * scale_a  # not a roundoff-level cancellation
                assert abs(a - b) <= 1e-12 * max(scale_a, scale_b)
