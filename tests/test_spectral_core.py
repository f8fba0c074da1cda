"""Tests for the spectral discretization layer."""

import numpy as np
import pytest

import torusns as tn
from conftest import assert_roundoff_close
from torusns import spectral_core
from torusns.spectral_core import (
    VectorField,
    hermitian_defect,
    inner_l2,
    quadrature_l2_sq,
    zero_field,
)

TWO_PI = 2.0 * np.pi


def embed_scalar(grid, values):
    """Scalar test function as component 0 of the samples of a vector field."""
    data = np.zeros((3, grid.n, grid.n, grid.n))
    data[0] = values
    return data


def kept_by_dealias(grid):
    """The zero pattern of `dealias` on a field of ones: True where it keeps a mode."""
    ones = VectorField(grid, np.ones((3, grid.n, grid.n, grid.n), dtype=complex))
    kept = tn.dealias(ones).data != 0.0
    assert (kept == kept[0]).all()
    return kept[0]


def grid_arrays(value, name="grid"):
    """(name, array) for every array that `value` holds, through its
    attributes, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from grid_arrays(item, f"{name}[{i}]")
    elif hasattr(value, "__dict__"):
        for attr, item in vars(value).items():
            yield from grid_arrays(item, f"{name}.{attr}")


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
        assert int(np.sum(np.sqrt(grid.k_sq) == 0.0)) == 1

    def test_magnitude_bound(self):
        grid = tn.make_grid(16, 3.7)
        assert np.max(np.sqrt(grid.k_sq)) <= np.sqrt(3.0) * np.pi * 16 / 3.7 + 1e-12

    @pytest.mark.parametrize("n", [8, 32])
    def test_k_sq_is_the_only_lattice_array(self, n):
        # also after the readers that derive |k|, the stacked wavevectors and
        # the dealias mask have run: none of them is kept on the grid
        grid = tn.make_grid(n)
        config = tn.SimulationConfig(n=n, init_k_max=2.0)
        field = tn.make_initial_data(config, grid).u_hat
        tn.dealias(tn.leray_project(field))
        tn.multiplier_bank.evaluate_on_grid(tn.MultiplierSet(0.0625), "phi", grid)
        large = [name for name, array in grid_arrays(grid) if array.size >= n**3]
        assert large == ["grid.k_sq"]


class TestTransforms:
    def test_constant_field_is_mean_mode(self, grid16):
        f = embed_scalar(grid16, np.full((16, 16, 16), 2.5))
        spec = tn.to_spectral(f, grid16)
        assert spec.data[0, 0, 0, 0] == pytest.approx(2.5)
        off = spec.data.copy()
        off[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(off)) < 1e-14

    def test_sine_has_two_modes(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        spec = tn.to_spectral(f, grid16)
        nonzero = np.abs(spec.data[0]) > 1e-13
        assert int(np.sum(nonzero)) == 2
        assert abs(spec.data[0, 1, 0, 0]) == pytest.approx(0.5, abs=1e-13)
        assert abs(spec.data[0, -1, 0, 0]) == pytest.approx(0.5, abs=1e-13)

    def test_roundtrip(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        phys = tn.to_physical(f)
        back = tn.to_physical(tn.to_spectral(phys, grid16))
        scale = np.max(np.abs(phys))
        assert np.max(np.abs(back - phys)) <= 1e-12 * scale

    def test_parseval_two_routes(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        plancherel = tn.norms(f).l2_sq
        quadrature = quadrature_l2_sq(f)
        assert quadrature == pytest.approx(plancherel, rel=1e-12)

    def test_vector_field_rejects_samples_and_wrong_shape(self, grid16, rng, random_field_factory):
        # a VectorField is a full spectrum, so samples cannot pass as one
        samples = tn.to_physical(random_field_factory(grid16, rng))
        with pytest.raises(ValueError, match="complex coefficients"):
            VectorField(grid16, samples)
        with pytest.raises(ValueError, match="expected data shape"):
            VectorField(grid16, np.zeros((3, 16, 16, 9), dtype=complex))
        with pytest.raises(ValueError, match="expected data shape"):
            VectorField(grid16, np.zeros((3, 8, 8, 8), dtype=complex))


class TestHalfSpectrum:
    def test_transforms_match_full_spectrum(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        phys = tn.to_physical(f)
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
                assert hermitian_defect(VectorField(grid, full)) == 0.0
                samples = spectral_core.band_to_physical(coef, n)
                expected = tn.to_spectral(samples, grid).data
                assert np.max(np.abs(full - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestDealiasBand:
    @pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
    def test_pruned_pair_matches_half_spectrum_pair(self, n, rng):
        # the real-axis pass is a matrix product, not pocketfft's real
        # transform, so the pair agrees with the reference to roundoff
        grid = tn.make_grid(n)
        band = grid.band
        shape = (3,) + band.k_sq.shape
        coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        half = np.zeros((3, n, n, n // 2 + 1), dtype=complex)
        half[band.positions] = coef
        samples = spectral_core.half_to_physical(half, n)
        assert_roundoff_close(spectral_core.band_to_physical(coef, n), samples, n)
        for values in (samples, rng.standard_normal((3, n, n, n))):
            expected = spectral_core.half_to_spectral(values)[band.positions]
            assert_roundoff_close(spectral_core.band_to_spectral(values), expected, n)

    def test_real_axis_matrices_are_read_only_and_shared(self):
        # built once per n: two grids of the same n transform with the same
        # matrices, which no caller can write to
        grids = [tn.make_grid(16), tn.make_grid(16, box_length=3.0)]
        coef = np.zeros((3,) + grids[0].band.k_sq.shape, dtype=complex)
        coef[0, 1, 0, 1] = 1.0
        matrices = []
        for grid in grids:
            spectral_core.band_to_physical(coef, grid.n)
            spectral_core.band_to_spectral(np.ones((3, grid.n, grid.n, grid.n)))
            matrices.append(spectral_core._real_axis_matrices(grid.n))
        c = spectral_core.band_cutoff(16)
        assert [m.shape for m in matrices[0]] == [(2 * (c + 1), 16), (16, 2 * (c + 1))]
        for first, second in zip(*matrices):
            assert first is second
            assert not first.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[0, 0] = 1.0
        assert spectral_core._real_axis_matrices(32)[0] is not matrices[0][0]

    @pytest.mark.parametrize("n", [48, 64])
    def test_slab_pair_matches_whole_pair(self, n, rng, monkeypatch):
        # at every slab width, down to one x1-plane, the slab pair gives the
        # samples and the band of the whole-lattice transforms bit for bit
        shape = (3,) + tn.make_grid(n).band.k_sq.shape
        groups = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
        values = rng.standard_normal((3, n, n, n))
        whole = [spectral_core.band_to_physical(coef, n) for coef in groups]
        plane = 3 * len(groups) * n * n * np.dtype(np.float64).itemsize
        default = spectral_core._SLAB_BYTES // plane
        for width in (default, 1, 5, n // 2):
            monkeypatch.setattr(spectral_core, "_SLAB_BYTES", width * plane)
            samples = [np.empty((3, n, n, n)) for _ in groups]
            widths = []
            product = spectral_core._BandAccumulator(n)
            for slab, each in spectral_core._physical_slabs(n, len(groups), iter(groups)):
                widths.append(slab.stop - slab.start)
                for out, part in zip(samples, each):
                    out[:, slab] = part
                product.add(slab, values[:, slab])
            assert max(widths) == width < n and sum(widths) == n
            for got, expected in zip(samples, whole):
                assert np.array_equal(got, expected)
            assert np.array_equal(product.band(), spectral_core.band_to_spectral(values))

    @pytest.mark.parametrize("n", [16, 24, 32, 48])
    def test_band_is_the_dealias_mask(self, n):
        grid = tn.make_grid(n)
        c = spectral_core.band_cutoff(n)
        assert 3 * c < n <= 3 * (c + 1)
        kept = np.zeros((n, n, n // 2 + 1), dtype=bool)
        kept[grid.band.positions] = True
        assert np.array_equal(kept, kept_by_dealias(grid)[..., : n // 2 + 1])
        assert np.array_equal(grid.band.k_sq, grid.k_sq[grid.band.positions])

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_mask_unchanged_where_3_does_not_divide_n(self, n):
        m = np.abs(np.fft.fftfreq(n, d=1.0 / n))
        kept = m <= n / 3.0
        expected = kept[:, None, None] & kept[None, :, None] & kept[None, None, :]
        assert np.array_equal(kept_by_dealias(tn.make_grid(n)), expected)

    @pytest.mark.parametrize("n", [16, 24, 32, 48, 64])
    def test_stress_form_projects_to_the_rotational_form(self, n, rng, monkeypatch):
        # for a divergence-free band field the two alias-free products
        # -div(u (x) u - u2^2 I) and u x curl u differ by a gradient, which
        # the projection removes; at n >= 48 the slab product is the
        # whole-lattice one bit for bit
        grid = tn.make_grid(n)
        band = grid.band
        shape = (3,) + band.k_sq.shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coef = spectral_core.hermitian_band(
            spectral_core.project_coefficients(raw, band.wavevectors, band.k_sq)
        )
        u = spectral_core.band_to_physical(coef, n)
        curl = spectral_core.band_to_physical(spectral_core.curl_coefficients(coef, band.k), n)
        rotational = spectral_core.band_to_spectral(spectral_core._cross(u, curl))
        stress = spectral_core.stress_product(coef, band.k, n, u)
        assert np.array_equal(stress, spectral_core.stress_product(coef, band.k, n))

        def project(lam):
            return spectral_core.project_coefficients(lam, band.wavevectors, band.k_sq)

        assert_roundoff_close(project(stress), project(rotational), n)
        assert np.max(np.abs(stress - rotational)) > 1e-3 * np.max(np.abs(rotational))
        monkeypatch.setattr(spectral_core, "_SLAB_BYTES", 9 * n**3 * 8)  # one slab covers the box
        assert np.array_equal(spectral_core.stress_product(coef, band.k, n, u), stress)

    def test_dealiased_triple_products_are_exact_at_n24(self, rng, random_field_factory):
        # 3 divides 24: keeping m = 8 would alias 8 + 8 = 16 onto -8, and the
        # triple-product quadrature would reach mode 24 = 0
        grid = tn.make_grid(24)
        for _ in range(3):
            field = tn.dealias(
                random_field_factory(grid, rng, k_max=np.inf, divergence_free=True)
            )
            coef = spectral_core.gather_band(field)
            u = spectral_core.band_to_physical(coef, grid.n)
            kvec = grid.band.wavevectors
            gradient = spectral_core.nonlinear_integrals(coef, u, kvec, grid.volume)
            lam = spectral_core.stress_product(coef, grid.band.k, grid.n, u)
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
        projected = tn.leray_project(VectorField(grid16, data))
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
        df = tn.to_physical(tn.spectral_derivative(tn.to_spectral(f, grid16), (1, 0, 0)))
        expected = np.broadcast_to(np.cos(x1), (16, 16, 16))
        assert np.max(np.abs(df[0] - expected)) < 1e-12

    def test_zero_multi_index_is_identity(self, grid16, rng, random_field_factory):
        f = random_field_factory(grid16, rng)
        assert np.array_equal(tn.spectral_derivative(f, (0, 0, 0)).data, f.data)

    def test_second_derivative(self, grid16):
        _, x2, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(2 * x2), (16, 16, 16)).copy())
        d2 = tn.to_physical(tn.spectral_derivative(tn.to_spectral(f, grid16), (0, 2, 0)))
        expected = -4.0 * np.broadcast_to(np.sin(2 * x2), (16, 16, 16))
        assert np.max(np.abs(d2[0] - expected)) < 1e-11

    def test_order_cap(self, grid16):
        f = zero_field(grid16)
        with pytest.raises(ValueError):
            tn.spectral_derivative(f, (2, 2, 0))


class TestDealias:
    def test_low_modes_untouched(self, grid32, rng, random_field_factory):
        f = random_field_factory(grid32, rng, k_max=10.0)
        assert np.array_equal(tn.dealias(f).data, f.data)

    def test_high_mode_zeroed(self, grid32):
        f = zero_field(grid32)
        f.data[0, 12, 0, 0] = 1.0
        assert np.max(np.abs(tn.dealias(f).data)) == 0.0

    def test_energy_nonincreasing(self, grid32, rng, random_field_factory):
        f = random_field_factory(grid32, rng, k_max=15.0)
        assert tn.norms(tn.dealias(f)).l2_sq <= tn.norms(f).l2_sq


class TestNorms:
    def test_sine_l2(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        suite = tn.norms(tn.to_spectral(f, grid16))
        assert suite.l2_sq == pytest.approx(TWO_PI**3 / 2.0, rel=1e-13)

    def test_sine_h1(self, grid16):
        x1, _, _ = grid16.coordinates()
        f = embed_scalar(grid16, np.broadcast_to(np.sin(x1), (16, 16, 16)).copy())
        suite = tn.norms(tn.to_spectral(f, grid16))
        assert suite.h1_sq == pytest.approx(TWO_PI**3 / 2.0, rel=1e-13)

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
    def test_slab_sums_match_whole_tensor(self, rng, monkeypatch):
        # at n = 48 the contraction runs over x1-slabs: its two quadratures,
        # summed slab by slab, agree with those of the whole gradient tensor
        # (one slab) to roundoff, and the coupling, from the same band of
        # (f . grad) f, is the same bit for bit
        n = 48
        grid = tn.make_grid(n)
        shape = (3,) + grid.band.k_sq.shape
        coef = spectral_core.hermitian_band(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        terms = coef, spectral_core.band_to_physical(coef, n), grid.band.wavevectors, grid.volume
        default = spectral_core._SLAB_BYTES
        monkeypatch.setattr(spectral_core, "_SLAB_BYTES", 9 * n**3 * 8)
        (triple, majorant), coupling = spectral_core.nonlinear_integrals(*terms)
        for budget in (default, 1):
            monkeypatch.setattr(spectral_core, "_SLAB_BYTES", budget)
            (tri, tri_scale), slab_coupling = spectral_core.nonlinear_integrals(*terms)
            assert abs(tri - triple) <= 1e-13 * majorant
            assert tri_scale == pytest.approx(majorant, rel=1e-13)
            assert slab_coupling == coupling

    def test_trilinear_against_analytic_gradients(self, grid16):
        u, grads, *_ = _triad_field(grid16)
        expected = 0.0
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    expected += np.sum(grads[j, k] * grads[j, l] * grads[l, k])
        expected *= grid16.cell_volume
        coef = spectral_core.gather_band(tn.to_spectral(u, grid16))
        samples = spectral_core.band_to_physical(coef, 16)
        (value, _), _ = spectral_core.nonlinear_integrals(
            coef, samples, grid16.band.wavevectors, grid16.volume
        )
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
        coef = spectral_core.gather_band(tn.to_spectral(u, grid16))
        samples = spectral_core.band_to_physical(coef, 16)
        _, (value, _) = spectral_core.nonlinear_integrals(
            coef, samples, grid16.band.wavevectors, grid16.volume
        )
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
            coef = spectral_core.gather_band(field)
            u = spectral_core.band_to_physical(coef, grid.n)
            kvec = grid.band.wavevectors
            gradient = spectral_core.nonlinear_integrals(coef, u, kvec, grid.volume)
            lam = spectral_core.stress_product(coef, grid.band.k, grid.n, u)
            rotational = spectral_core.rotational_integrals(coef, lam, grid.band.k, grid.volume)
            for (a, scale_a), (b, scale_b) in zip(gradient, rotational):
                assert abs(a) > 1e-6 * scale_a  # not a roundoff-level cancellation
                assert abs(a - b) <= 1e-12 * max(scale_a, scale_b)
