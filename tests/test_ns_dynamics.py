"""Tests for the pseudo-spectral integrator and its invariants."""

import math
import tracemalloc

import numpy as np
import pytest

import torusns as tn
from conftest import assert_roundoff_close
from torusns import spectral_core
from torusns.inequality_lab import CSV_COLUMNS, EnergyLedger
from torusns.multiplier_bank import MultiplierSet
from torusns.ns_dynamics import (
    U_COLUMNS,
    NumericalBlowupError,
    TrajectoryState,
    _ledger_row,
    _rhs_band,
)
from torusns.spectral_core import (
    VectorField,
    dealias,
    divergence_ratio,
    gather_band,
    hermitian_defect,
    inner_l2,
    zero_field,
)


def single_mode_field(grid, k_index=(1, 0, 0), amplitude=1.0):
    """Divergence-free single cosine mode; its self-advection vanishes."""
    data = np.zeros((3, grid.n, grid.n, grid.n), dtype=complex)
    v = np.array([0.0, 1.0, 0.5])  # orthogonal to k = (k1, 0, 0)
    i, j, l = k_index
    data[:, i, j, l] = 0.5 * amplitude * v
    data[:, -i, -j, -l] = 0.5 * amplitude * v
    return VectorField(grid, data)


def single_mode_state(grid, k_index=(1, 0, 0), amplitude=1.0):
    band = gather_band(single_mode_field(grid, k_index, amplitude))
    return TrajectoryState(grid, band, 0.0, 0, 0.0)


def rest_state(grid):
    return TrajectoryState(grid, gather_band(zero_field(grid)), 0.0, 0, 0.0)


def _band_state(grid, value):
    """The single-mode state with `value` written on its band at mode (1, 0, 0)."""
    band = single_mode_state(grid).band.copy()
    band[0, 1, 0, 0] = value
    return TrajectoryState(grid, band, 0.0, 0, 0.0)


def full_lattice_initial_data(config, grid):
    """Reference `random_low_mode` initial data, built on the full lattice:
    both Gaussian draws kept whole, symmetrized through a flipped copy,
    projected and dealiased there.  No computation uses it: it is what
    `make_initial_data` is tested against."""
    rng = np.random.default_rng(config.seed)
    shape = (3, grid.n, grid.n, grid.n)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k_mag = np.sqrt(grid.k_sq)
    raw *= (k_mag <= config.init_k_max) & (k_mag > 0.0)
    flipped = np.roll(raw[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))
    sym = 0.5 * (raw + np.conj(flipped))
    coef = dealias(tn.leray_project(VectorField(grid, sym))).data
    coef[:, 0, 0, 0] = 0.0
    current = math.sqrt(grid.volume * float(np.sum(np.abs(coef) ** 2)))
    return coef * (config.delta / current) if current > 0.0 else coef * 0.0


def half_spectrum_step(state, dt):
    """Reference RK4 step with every stage on the half spectrum
    (3, n, n, n//2 + 1), through the unpruned real transforms, dealiased by
    masking; returns the new coefficients."""
    grid = state.u_hat.grid
    h = grid.n // 2 + 1
    ik = [1j * grid.k[0], 1j * grid.k[1], 1j * grid.k[2][..., :h]]
    kvec = np.stack(np.broadcast_arrays(grid.k[0], grid.k[1], grid.k[2][..., :h]))
    m = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n))
    kept = 3 * m < grid.n  # the two-thirds rule, independent of the band
    mask = (kept[:, None, None] & kept[:, None] & kept)[..., :h]

    def rhs(coef):
        u = spectral_core.half_to_physical(coef, grid.n)
        omega = spectral_core.half_to_physical(spectral_core._cross(ik, coef), grid.n)
        lamb = spectral_core.half_to_spectral(spectral_core._cross(u, omega))
        lamb *= mask
        out = spectral_core.project_coefficients(lamb, kvec, grid.k_sq[..., :h])
        out[:, 0, 0, 0] = 0.0
        return out

    u0 = state.u_hat.data[..., :h]
    e_half = np.exp(-grid.k_sq[..., :h] * (0.5 * dt))
    e_full = e_half * e_half
    ka = dt * rhs(u0)
    kb = dt * rhs(e_half * (u0 + 0.5 * ka))
    kc = dt * rhs(e_half * u0 + 0.5 * kb)
    kd = dt * rhs(e_full * u0 + e_half * kc)
    u1 = e_full * u0 + (e_full * ka + 2.0 * e_half * (kb + kc) + kd) / 6.0
    return spectral_core.full_spectrum(u1[grid.band.positions], grid.n)


class TestInitialData:
    def test_taylor_green_divergence_free(self, grid16):
        # written from its modes: exactly divergence-free, and nothing but
        # the eight modes (+-1, +-1, +-1) holds a coefficient
        config = tn.SimulationConfig(n=16, initial_kind="taylor_green", delta=0.5)
        u0 = tn.make_initial_data(config, grid16).u_hat
        assert divergence_ratio(u0) == 0.0
        nonzero = {tuple(m) for m in np.argwhere(np.any(u0.data != 0.0, axis=0))}
        assert nonzero == {(i, j, l) for i in (1, 15) for j in (1, 15) for l in (1, 15)}

    def test_exact_norm_target(self, grid16):
        for delta in (0.01, 0.3):
            config = tn.SimulationConfig(n=16, delta=delta)
            u0 = tn.make_initial_data(config, grid16).u_hat
            assert math.sqrt(tn.norms(u0).l2_sq) == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("kind", ["random_low_mode", "taylor_green"])
    def test_zero_target_rejected(self, kind):
        # data of norm 0 are the zero field, whose every check holds trivially
        with pytest.raises(ValueError, match="would certify the zero field"):
            tn.SimulationConfig(n=16, delta=0.0, initial_kind=kind)

    def test_seed_determinism(self, grid16):
        config = tn.SimulationConfig(n=16, seed=7)
        a = tn.make_initial_data(config, grid16).u_hat
        b = tn.make_initial_data(config, grid16).u_hat
        assert np.array_equal(a.data, b.data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            tn.SimulationConfig(n=16, initial_kind="vortex_ring")

    def test_random_field_structure(self, grid16):
        config = tn.SimulationConfig(n=16, delta=0.1, seed=3)
        u0 = tn.make_initial_data(config, grid16).u_hat
        assert hermitian_defect(u0) < 1e-13
        assert divergence_ratio(u0) < 1e-13
        assert u0.data[0, 0, 0, 0] == 0.0
        outside = np.abs(u0.data) * (np.sqrt(grid16.k_sq) > config.init_k_max)
        assert np.max(outside) == 0.0

    @pytest.mark.parametrize("n", [16, 24, 32])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_full_lattice_reference(self, n, seed):
        config = tn.SimulationConfig(n=n, delta=0.3, seed=seed)
        grid = tn.make_grid(n)
        u0 = tn.make_initial_data(config, grid).u_hat
        assert np.array_equal(u0.data, full_lattice_initial_data(config, grid))

    def test_builds_no_full_lattice_copies(self):
        # the data are built on the band: random_low_mode holds the real
        # draw buffer, half a complex lattice, and taylor_green no lattice;
        # the full-lattice reference peaks near six complex lattices
        lattice = 3 * 32**3 * np.dtype(np.complex128).itemsize
        for kind in ("random_low_mode", "taylor_green"):
            config = tn.SimulationConfig(n=32, delta=0.01, seed=3, initial_kind=kind)
            grid = tn.make_grid(32)
            tracemalloc.start()
            try:
                tn.make_initial_data(config, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= lattice, kind

    def test_band_must_survive_dealiasing(self):
        with pytest.raises(ValueError):
            tn.SimulationConfig(n=16, init_k_max=6.0)

    @pytest.mark.parametrize(
        "n, box_length, below",
        [(16, 2.0 * math.pi, 5.99), (32, 2.0 * math.pi, 10.7), (16, 3.0, None), (32, 3.0, None)],
    )
    def test_init_k_max_below_the_band_edge(self, n, box_length, below):
        # the smallest wavenumber outside the band is (2 pi / L)(c + 1): any
        # init_k_max below it seeds band modes only, and the edge itself is
        # rejected; `below` None is the float just under the edge
        grid = tn.make_grid(n, box_length)
        edge = float(grid.k[0].ravel()[spectral_core.band_cutoff(n) + 1])
        below = np.nextafter(edge, 0.0) if below is None else below
        config = tn.SimulationConfig(n=n, box_length=box_length, init_k_max=below, delta=0.3)
        u0 = tn.make_initial_data(config, grid).u_hat
        assert np.array_equal(u0.data, full_lattice_initial_data(config, grid))
        with pytest.raises(ValueError, match="outside the dealias band"):
            tn.SimulationConfig(n=n, box_length=box_length, init_k_max=edge)

    def test_band_must_survive_dealiasing_when_3_divides_n(self):
        # the two-thirds rule keeps |m| <= 7 at n = 24, not 8
        tn.SimulationConfig(n=24, init_k_max=7.0)
        with pytest.raises(ValueError):
            tn.SimulationConfig(n=24, init_k_max=8.0)


class TestNonlinearTerm:
    def test_zero_field(self, grid16):
        rhs = _rhs_band(np.zeros((3,) + grid16.band.k_sq.shape, dtype=complex), grid16)
        assert np.max(np.abs(rhs)) == 0.0

    def test_single_mode_shear_has_no_self_advection(self, grid16):
        _, x2, _ = grid16.coordinates()
        data = np.zeros((3, 16, 16, 16))
        data[0] = 2.0 * np.broadcast_to(np.sin(x2), (16, 16, 16))
        u = tn.to_spectral(data, grid16)
        rhs = _rhs_band(gather_band(u), grid16)
        assert np.max(np.abs(rhs)) < 1e-14

    def test_matches_convective_form_oracle(self, grid16, rng, random_field_factory):
        # -P[(u . grad) u] and P[-div(u (x) u - u2^2 I)] differ by the
        # gradient of u2^2; (u . grad) u is taken from complex transforms of
        # the full spectrum
        for _ in range(5):
            u = random_field_factory(grid16, rng, divergence_free=True)
            u = VectorField(grid16, u.data / tn.norms(u).sup)  # max|u| = 1
            samples = tn.to_physical(u)
            conv = sum(
                samples[j] * tn.to_physical(tn.spectral_derivative(u, beta))
                for j, beta in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
            )
            conv_hat = tn.to_spectral(conv, grid16)
            oracle = -tn.leray_project(dealias(conv_hat)).data[grid16.band.positions]
            oracle[:, 0, 0, 0] = 0.0
            rhs = _rhs_band(gather_band(u), grid16)
            assert np.max(np.abs(rhs - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_exactly_hermitian(self, grid16, rng, random_field_factory):
        u = random_field_factory(grid16, rng, divergence_free=True)
        rhs = spectral_core.full_spectrum(_rhs_band(gather_band(u), grid16), 16)
        assert hermitian_defect(VectorField(grid16, rhs)) == 0.0

    def test_energy_neutrality(self, grid16, rng, random_field_factory):
        for _ in range(5):
            u = random_field_factory(grid16, rng, divergence_free=True, k_max=4.0)
            rhs = spectral_core.full_spectrum(_rhs_band(gather_band(u), grid16), 16)
            rhs = VectorField(grid16, rhs)
            coupling = inner_l2(u, rhs)
            scale = math.sqrt(tn.norms(u).l2_sq * tn.norms(rhs).l2_sq)
            assert abs(coupling) <= 1e-10 * scale


class TestStep:
    def test_zero_field_fixed_point(self, grid16):
        state = rest_state(grid16)
        out = tn.step(state, 1e-3)
        assert np.max(np.abs(out.u_hat.data)) == 0.0

    def test_heat_kernel_single_mode(self, grid16):
        state = single_mode_state(grid16)
        dt = 2e-3
        out = tn.step(state, dt)
        expected = state.u_hat.data * math.exp(-dt)  # |k|^2 = 1
        assert np.max(np.abs(out.u_hat.data - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_one_step_richardson_order(self, grid16):
        config = tn.SimulationConfig(n=16, initial_kind="taylor_green", delta=1.0)
        u0 = tn.make_initial_data(config, grid16)

        def advance(dt, substeps):
            st = u0
            for _ in range(substeps):
                st = tn.step(st, dt / substeps)
            return st.u_hat.data

        dt = 0.04
        diff_coarse = np.max(np.abs(advance(dt, 1) - advance(dt, 2)))
        diff_fine = np.max(np.abs(advance(dt / 2, 1) - advance(dt / 2, 2)))
        ratio = diff_coarse / diff_fine
        assert 20.0 <= ratio <= 48.0  # fifth-order local error halves as 2^5

    def test_global_fourth_order(self, grid16):
        config = tn.SimulationConfig(n=16, initial_kind="taylor_green", delta=1.0)
        u0 = tn.make_initial_data(config, grid16)

        def integrate(dt, t_end=0.2):
            st = u0
            while st.t < t_end - 1e-12:
                st = tn.step(st, min(dt, t_end - st.t))
            return st.u_hat.data

        ref = integrate(0.02 / 8)
        err_coarse = np.max(np.abs(integrate(0.02) - ref))
        err_fine = np.max(np.abs(integrate(0.01) - ref))
        assert 10.0 <= err_coarse / err_fine <= 24.0

    def test_dt_validation(self, grid16):
        state = single_mode_state(grid16, amplitude=100.0)
        with pytest.raises(ValueError):
            tn.step(state, 0.0)
        with pytest.raises(ValueError):
            tn.step(state, 100.0 * tn.cfl_dt(state))  # far past the advective limit

    def test_divergence_and_symmetry_preserved(self, grid16):
        config = tn.SimulationConfig(n=16, delta=0.3, seed=2)
        state = tn.make_initial_data(config, grid16)
        dt = tn.cfl_dt(state, 0.9)
        for _ in range(500):
            state = tn.step(state, dt)
        assert divergence_ratio(state.u_hat) <= 1e-11
        assert hermitian_defect(state.u_hat) <= 1e-11

    def test_state_stays_exactly_hermitian(self, grid16):
        for kind, delta in (("random_low_mode", 0.3), ("taylor_green", 1.0)):
            config = tn.SimulationConfig(n=16, initial_kind=kind, delta=delta, seed=5)
            state = tn.make_initial_data(config, grid16)
            for _ in range(3):
                state = tn.step(state, tn.cfl_dt(state))
                assert hermitian_defect(state.u_hat) == 0.0

    def test_step_reuses_the_rows_product(self, monkeypatch):
        # a logged state's row takes its product -div(u (x) u - u2^2 I), and
        # the first stage of its step projects it: the step makes the other
        # three
        config = tn.SimulationConfig(n=16, delta=0.3, seed=2)
        grid = tn.make_grid(16)
        state = tn.make_initial_data(config, grid)
        state = tn.step(state, tn.cfl_dt(state))
        reference = tn.step(TrajectoryState(grid, state.band, state.t, 1, 0.0), 1e-3)
        _ledger_row(state, config, MultiplierSet(config.alpha))
        calls = []
        stress = spectral_core.stress_product

        def counted(*args):
            calls.append(args)
            return stress(*args)

        monkeypatch.setattr(spectral_core, "stress_product", counted)
        out = tn.step(state, 1e-3)
        assert len(calls) == 3
        assert np.array_equal(out.band, reference.band)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # max_speed alone reports it
    def test_non_finite_state_gets_no_step(self, grid16, value):
        # max|u| of a non-finite state is not finite: it neither falls back
        # to the viscous bound nor steps into a non-finite band
        with pytest.raises(NumericalBlowupError, match="non-finite velocity"):
            tn.cfl_dt(_band_state(grid16, value))
        with pytest.raises(NumericalBlowupError, match="non-finite velocity"):
            tn.step(_band_state(grid16, value), 1e-3)

    def test_route_gap_on_step64_config(self):
        # e_high is ~1e-49 of the energy here: any non-Hermitian roundoff in
        # the state shows up as a gap between the two routes
        config = tn.SimulationConfig(n=64, delta=0.01, horizon=0.0019, seed=51, stride=2)
        state = tn.make_initial_data(config, tn.make_grid(config.n))
        for _ in range(2):
            state = tn.step(state, tn.cfl_dt(state, config.c_cfl))
        row = _ledger_row(state, config, MultiplierSet(config.alpha))
        assert row[CSV_COLUMNS.index("route_gap")] <= 1e-10

    def test_discrete_energy_law(self, grid16):
        config = tn.SimulationConfig(n=16, initial_kind="taylor_green", delta=1.0)
        state = tn.make_initial_data(config, grid16)
        dt = 2e-3
        for _ in range(20):
            before = tn.norms(state.u_hat)
            state = tn.step(state, dt)
            after = tn.norms(state.u_hat)
            change_rate = (after.l2_sq - before.l2_sq) / dt
            dissipation = before.h1_sq + after.h1_sq  # midpoint of 2 ||grad u||^2
            assert change_rate < 0.0
            assert change_rate + dissipation == pytest.approx(
                0.0, abs=50.0 * dt**2 * before.h2_sq
            )


class TestDealiasBandStages:
    @pytest.mark.parametrize("n", [16, 32])
    def test_step_matches_half_spectrum_reference(self, n):
        # the band transforms' real-axis pass is a matrix product, so the
        # step agrees with the unpruned reference to roundoff
        config = tn.SimulationConfig(n=n, delta=2.0, seed=11)
        state = tn.make_initial_data(config, tn.make_grid(n))
        for _ in range(3):
            dt = tn.cfl_dt(state)
            expected = half_spectrum_step(state, dt)
            state = tn.step(state, dt)
            assert_roundoff_close(state.u_hat.data, expected, n)

    @pytest.mark.parametrize("index", [(6, 0, 0), (1, 10, 0), (0, 0, 8), (2, 3, 10)])
    def test_coefficient_outside_band_rejected(self, grid16, index):
        # the band of n = 16 keeps |m| <= 5 on every axis; a state is its
        # band, so the field is rejected where it would become one
        for amplitude in (1.0, 0.0):
            field = single_mode_field(grid16, amplitude=amplitude)
            field.data[(0,) + index] = 1e-3
            with pytest.raises(ValueError, match="outside the dealias band"):
                gather_band(field)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_outside_band_named(self, grid16, value):
        # a blow-up, not a layout error: the message names the value
        field = single_mode_field(grid16)
        field.data[0, 6, 0, 0] = value
        with pytest.raises(ValueError, match="non-finite coefficient"):
            gather_band(field)

    @pytest.mark.parametrize("roundoff", [0.0, 1e-20])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coefficient_inside_band_named(self, grid16, value, roundoff):
        # the band is checked first, so roundoff outside it is not compared
        # against a non-finite scale: the non-finite value is named
        field = single_mode_field(grid16)
        field.data[0, 1, 0, 0] = value
        field.data[0, 6, 0, 0] = roundoff
        with pytest.raises(ValueError, match="non-finite coefficient lies inside"):
            gather_band(field)

    def test_state_keeps_no_full_lattice(self):
        config = tn.SimulationConfig(n=16, delta=2.0, seed=11)
        state = tn.make_initial_data(config, tn.make_grid(16))
        for _ in range(2):
            state = tn.step(state, tn.cfl_dt(state))
            full = state.u_hat
            assert full is not state.u_hat
            assert np.array_equal(state.band, gather_band(full))
            assert not any(
                np.iscomplexobj(v) and np.shape(v) == (3, 16, 16, 16) for v in vars(state).values()
            )

    @pytest.mark.parametrize("n", [16, 32])
    def test_eight_inverse_transforms_per_step(self, monkeypatch, n):
        # a step's eight band transforms are four inverse and four forward:
        # cfl_dt, the first stage and both routes of a row share the state's
        # band, samples and product -div(u (x) u - u2^2 I), which takes no
        # inverse transform of its own; each later stage makes one inverse
        # and one forward; the initial data are built on the band, so no
        # band is gathered, a step hands back a band, a row
        # adds 7 inverse and 1 forward band transforms and writes no full
        # lattice, and only the last state's samples and product are taken
        # for its row alone; the run writes one full lattice and makes one
        # complex transform, for the audit of its first row's u columns; at
        # n <= 32 one x1-slab covers the box, so every band transform is a
        # whole-lattice one
        counts = {"gather": 0, "full": 0, "complex": 0, "inverse": 0, "forward": 0, "half": 0}

        def counted(name, key):
            transform = getattr(spectral_core, name)

            def wrapper(*args):
                counts[key] += 1
                return transform(*args)

            monkeypatch.setattr(spectral_core, name, wrapper)

        counted("gather_band", "gather")
        counted("full_spectrum", "full")
        counted("to_physical", "complex")
        counted("band_to_physical", "inverse")
        counted("band_to_spectral", "forward")
        counted("half_to_physical", "half")
        counted("half_to_spectral", "half")
        ledger = tn.run(tn.SimulationConfig(n=n, delta=0.01, horizon=0.05, stride=4))
        steps, rows = ledger.meta["steps"], len(ledger)
        assert steps > 1 and rows > 2
        assert counts == {
            "gather": 0,
            "full": 1,
            "complex": 1,
            "inverse": 4 * steps + 7 * rows + 1,
            "forward": 4 * steps + rows + 1,
            "half": 0,
        }

    def test_slab_products_match_whole_lattice_at_n64(self, rng, monkeypatch):
        # the stages and the state's product run over x1-slabs at n = 64;
        # at the default width and at one x1-plane they give the
        # whole-lattice stress divergence bit for bit
        n = 64
        grid = tn.make_grid(n)
        shape = (3,) + grid.band.k_sq.shape
        coef = spectral_core.hermitian_band(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        u = spectral_core.band_to_physical(coef, n)
        t = spectral_core.band_to_spectral(spectral_core._stress(u))
        k = grid.band.k
        whole = np.stack(
            [
                -1j * (k[0] * t[0] + k[1] * t[2] + k[2] * t[3]),
                -1j * (k[0] * t[2] + k[1] * t[1] + k[2] * t[4]),
                -1j * (k[0] * t[3] + k[1] * t[4]),
            ]
        )
        rhs = spectral_core.project_coefficients(whole, grid.band.wavevectors, grid.band.k_sq)
        rhs[:, 0, 0, 0] = 0.0
        for budget in (spectral_core._SLAB_BYTES, 1):
            monkeypatch.setattr(spectral_core, "_SLAB_BYTES", budget)
            assert np.array_equal(spectral_core.stress_product(coef, k, n, u), whole)
            assert np.array_equal(spectral_core.stress_product(coef, k, n), whole)
            assert np.array_equal(_rhs_band(coef, grid), rhs)

    def test_row_is_no_bigger_than_a_step_at_n64(self):
        # at n = 64 the band products run over x1-slabs: a ledger row
        # allocates at most what the step after it does, and the gradient
        # contraction less than one (3, 3, n, n, n) tensor
        config = tn.SimulationConfig(n=64, delta=0.01, horizon=0.0019, seed=51, stride=2)
        grid = tn.make_grid(config.n)
        state = tn.make_initial_data(config, grid)
        state = tn.step(state, tn.cfl_dt(state, config.c_cfl))
        dt = tn.cfl_dt(state, config.c_cfl)  # takes the samples, as run does before the row

        def peak(compute):
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                compute()
                return tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()

        tensor = 9 * config.n**3 * np.dtype(np.float64).itemsize
        contraction = peak(
            lambda: spectral_core.nonlinear_integrals(
                state.band, state.samples, grid.band.wavevectors, grid.volume
            )
        )
        row = peak(lambda: _ledger_row(state, config, MultiplierSet(config.alpha)))
        step = peak(lambda: tn.step(state, dt))
        assert contraction < tensor
        assert row <= step


class TestUColumnAudit:
    @pytest.mark.parametrize("n", [16, 32])
    def test_u_columns_match_norms(self, n):
        # a row's u columns are the scaling route's band sums and max|u|, and
        # equal the full-lattice norms of the full-spectrum field
        config = tn.SimulationConfig(n=n, delta=0.3, seed=4)
        mults = MultiplierSet(config.alpha)
        state = tn.make_initial_data(config, tn.make_grid(n))
        for _ in range(3):
            state = tn.step(state, tn.cfl_dt(state))
            row = _ledger_row(state, config, mults)
            ref = tn.norms(state.u_hat)
            columns = [row[CSV_COLUMNS.index(name)] for name in U_COLUMNS]
            assert columns == pytest.approx([ref.l2_sq, ref.h1_sq, ref.h2_sq, ref.sup], rel=1e-14)


class TestCflBound:
    def test_rest_field_uses_viscous_bound(self, grid16):
        state = rest_state(grid16)
        expected = 1.0 / grid16.max_wavenumber**2
        assert tn.cfl_dt(state) == pytest.approx(expected, rel=1e-14)
        assert tn.cfl_dt(state, 0.5) == pytest.approx(0.5 * expected, rel=1e-14)

    def test_doubling_velocity_halves_advective_bound(self, grid16):
        fast = single_mode_state(grid16, amplitude=500.0)
        faster = single_mode_state(grid16, amplitude=1000.0)
        assert tn.cfl_dt(faster) == pytest.approx(0.5 * tn.cfl_dt(fast), rel=1e-12)

    def test_resolution_halves_advective_bound(self, grid16, grid32):
        coarse = single_mode_state(grid16, amplitude=2000.0)
        fine = single_mode_state(grid32, amplitude=2000.0)
        assert tn.cfl_dt(fine) == pytest.approx(0.5 * tn.cfl_dt(coarse), rel=1e-12)


class TestRun:
    def test_zero_data(self, monkeypatch):
        # delta = 0 is a config error, so the zero field comes in as initial
        # data: it stays zero, and its first row's audit reads 0 against 0
        monkeypatch.setattr(tn.ns_dynamics, "make_initial_data", lambda _, grid: rest_state(grid))
        ledger = tn.run(tn.SimulationConfig(n=16, delta=0.01, stride=32))
        for name in ("u_l2sq", "w_l2sq", "E_low", "E_high", "trilinear_w"):
            assert np.max(np.abs(ledger.column(name))) == 0.0
        audit = {"row": 0, "t": 0.0, "worst_gap": 0.0, "column": None}
        assert ledger.meta["u_column_audit"] == audit

    def test_strict_determinism(self):
        config = tn.SimulationConfig(n=16, delta=0.01, stride=16)
        a = tn.run(config).to_csv_text()
        b = tn.run(config).to_csv_text()
        assert a == b

    def test_monotone_energy(self, small_ledger):
        u2 = small_ledger.column("u_l2sq")
        assert np.all(np.diff(u2) <= 0.0)

    def test_stride_recording(self):
        config = tn.SimulationConfig(n=16, delta=0.01, stride=50)
        ledger = tn.run(config)
        assert len(ledger) == math.ceil(ledger.meta["steps"] / 50) + 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # max_speed alone reports it
    def test_numerical_abort(self, grid16, monkeypatch):
        def bad_initial(config, grid=None):
            band = np.zeros((3,) + grid16.band.k_sq.shape, dtype=complex)
            band[0, 1, 0, 0] = np.inf
            return TrajectoryState(grid16, band, 0.0, 0, 0.0)

        monkeypatch.setattr(tn.ns_dynamics, "make_initial_data", bad_initial)
        with pytest.raises(NumericalBlowupError):
            tn.run(tn.SimulationConfig(n=16, delta=0.01))

    def test_heat_kernel_ledger_matches_closed_form(self, grid16):
        # single mode: the advection term vanishes so the run is exactly the
        # heat kernel; check a w-side column against the scaling of the
        # analytic u-side decay
        from torusns.multiplier_bank import MultiplierSet

        config = tn.SimulationConfig(n=16, delta=0.05, horizon=1.0, stride=1)
        mults = MultiplierSet(config.alpha)
        state = single_mode_state(grid16, amplitude=1.0)
        norm0 = math.sqrt(tn.norms(state.u_hat).l2_sq)
        state = TrajectoryState(grid16, state.band * (config.delta / norm0), 0.0, 0, 0.0)
        rows = [_ledger_row(state, config, mults)]
        dt = 5e-3
        for _ in range(60):
            state = tn.step(state, dt)
            rows.append(_ledger_row(state, config, mults))
        ledger = EnergyLedger(rows)
        t = ledger.column("t")
        s = config.horizon - t
        expected = s**1.5 * ledger.column("u_h2sq")[0] * np.exp(-2.0 * t)  # |k|^2 = 1
        assert ledger.column("w_h2sq") == pytest.approx(expected, rel=1e-9)
        assert np.max(np.abs(ledger.column("trilinear_w"))) <= 1e-20
        assert np.max(np.abs(ledger.column("lap_coupling"))) <= 1e-20
