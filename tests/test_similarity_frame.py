"""Tests for the self-similar change of variables and the two routes."""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusns as tn
from torusns import multiplier_bank, ns_dynamics, spectral_core
from torusns.multiplier_bank import MultiplierSet, apply
from torusns.ns_dynamics import TrajectoryState
from torusns.similarity_frame import (
    SCALING_EXPONENTS,
    SimilarityClock,
    WFunctionals,
    route_gap,
    scale_factor,
    w_functionals_multiplier_route,
    w_functionals_scaling_route,
)
from torusns.spectral_core import (
    SpectralGrid,
    VectorField,
    gather_band,
    hermitian_defect,
    make_grid,
    quadrature_l2_sq,
    spectral_derivative,
)

UNIT = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def band_state(u):
    """The state the routes read of a full-spectrum field: its band, samples,
    max|u| and product -div(u (x) u - u2^2 I)."""
    return TrajectoryState(u.grid, gather_band(u), 0.0, 0, 0.0)


def both_routes(state, clock, mults):
    """The two routes of a row: the multiplier route reads the scaling
    route's low part."""
    wa = w_functionals_scaling_route(state, clock, mults)
    return wa, w_functionals_multiplier_route(state, clock, mults, wa.low_mag_sq)


def reference_functionals(u, clock, mults):
    """Every w-functional on the explicit w-field, from full-spectrum complex
    transforms: norms, multiplier application, quadrature, the 27-term
    triple-product loop and the convective product taken from the gradients."""
    root = math.sqrt(clock.remaining)  # w lives on a box of side L / sqrt(s)
    g = make_grid(u.grid.n, u.grid.box_length / root)
    w = VectorField(g, root * u.data)
    ns_w = tn.norms(w)
    low_mag_sq = np.sum(tn.to_physical(apply(mults, "phi", w)) ** 2, axis=0)
    high = apply(mults, "one_minus_phi", w)
    grads = np.stack([tn.to_physical(spectral_derivative(w, b)) for b in UNIT])
    trilinear = 0.0
    for j in range(3):
        for k in range(3):
            for l in range(3):
                trilinear += float(np.sum(grads[j, k] * grads[j, l] * grads[l, k]))
    w_phys = tn.to_physical(w)
    conv = sum(w_phys[j] * grads[j] for j in range(3))
    conv_hat = tn.to_spectral(conv, g).data
    w4 = g.k_sq**2
    lap_f = g.volume * float(np.sum(w4 * np.abs(w.data) ** 2))
    lap_c = g.volume * float(np.sum(w4 * np.abs(conv_hat) ** 2))
    return WFunctionals(
        w_l2_sq=ns_w.l2_sq,
        w_h1_sq=ns_w.h1_sq,
        w_h2_sq=ns_w.h2_sq,
        w_sup=ns_w.sup,
        low_l2_sq=float(np.sum(low_mag_sq)) * g.cell_volume,
        e_low=quadrature_l2_sq(apply(mults, "chi", w)),
        e_high=quadrature_l2_sq(apply(mults, "sqrt_one_minus_phi_sq", w)),
        low_l4=float((np.sum(low_mag_sq**2) * g.cell_volume) ** 0.25),
        low_sup=float(np.sqrt(np.max(low_mag_sq))),
        grad_high_sq=sum(quadrature_l2_sq(spectral_derivative(high, b)) for b in UNIT),
        trilinear=trilinear * g.cell_volume,
        lap_coupling=g.volume * float(np.real(np.sum(w4 * w.data * np.conj(conv_hat)))),
        trilinear_scale=float(np.sum(np.sum(grads**2, axis=(0, 1)) ** 1.5)) * g.cell_volume,
        lap_scale=math.sqrt(lap_f * lap_c),
    )


class TestClock:
    def test_reference_values(self):
        assert tn.tau_of_t(0.0, 1.0) == 0.0
        assert tn.tau_of_t(1.0 - math.exp(-1.0), 1.0) == pytest.approx(1.0, abs=1e-14)
        assert tn.tau_of_t(0.0, 2.0) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_horizon_rejected(self):
        with pytest.raises(ValueError):
            tn.tau_of_t(1.0, 1.0)
        with pytest.raises(ValueError):
            SimilarityClock(horizon=1.0, t=1.5)

    @given(
        t=st.floats(min_value=0.0, max_value=0.999),
        horizon=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, t, horizon):
        t = t * horizon
        back = horizon - math.exp(-tn.tau_of_t(t, horizon))  # t = T - e^-tau
        assert back == pytest.approx(t, abs=1e-14 * horizon)

    @given(
        t1=st.floats(min_value=0.0, max_value=0.8),
        gap=st.floats(min_value=1e-6, max_value=0.19),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, t1, gap):
        assert tn.tau_of_t(t1 + gap, 1.0) > tn.tau_of_t(t1, 1.0)


class TestExponentTableOracle:
    """The normative table re-derived two independent ways."""

    def test_power_counting_oracle(self):
        # Under y = x/sqrt(s), w = sqrt(s) u: each field factor contributes
        # s^(1/2), each derivative s^(1/2), the volume element s^(-3/2).
        sympy = pytest.importorskip("sympy")
        half = sympy.Rational(1, 2)
        cases = {
            # name: (field factors, derivatives, integrated, root)
            "l2_sq": (2, 0, True, 1),
            "h1_sq": (2, 2, True, 1),
            "h2_sq": (2, 4, True, 1),
            "h3_sq": (2, 6, True, 1),
            "sup": (1, 0, False, 1),
            "l4": (4, 0, True, 4),
            "trilinear": (3, 3, True, 1),
            "lap_coupling": (3, 5, True, 1),
        }
        for name, (factors, derivs, integrated, root) in cases.items():
            power = factors * half + derivs * half
            if integrated:
                power -= sympy.Rational(3, 2)
            power = power / root
            expected = SCALING_EXPONENTS[name]
            assert Fraction(int(power.p), int(power.q)) == expected, name

    def test_symbolic_single_mode_integrals(self):
        sympy = pytest.importorskip("sympy")
        y, s = sympy.symbols("y s", positive=True)
        L = 2 * sympy.pi
        # u(x) = sin(x1) as one component; w(y) = sqrt(s) sin(sqrt(s) y1)
        w = sympy.sqrt(s) * sympy.sin(sympy.sqrt(s) * y)
        period = L / sympy.sqrt(s)
        cross_section = period**2  # trivial integrals over y2, y3
        u_l2 = L**3 / 2
        u_h1 = L**3 / 2
        u_h2 = L**3 / 2
        w_l2 = sympy.integrate(w**2, (y, 0, period)) * cross_section
        assert sympy.simplify(w_l2 - u_l2 * s ** sympy.Rational(-1, 2)) == 0
        w_h1 = sympy.integrate(sympy.diff(w, y) ** 2, (y, 0, period)) * cross_section
        assert sympy.simplify(w_h1 - u_h1 * s ** sympy.Rational(1, 2)) == 0
        w_h2 = sympy.integrate(sympy.diff(w, y, 2) ** 2, (y, 0, period)) * cross_section
        assert sympy.simplify(w_h2 - u_h2 * s ** sympy.Rational(3, 2)) == 0

    def test_numeric_change_of_variables(self, grid16, rng, random_field_factory):
        # Construct w explicitly on its own grid and compare every u-side
        # functional against the table; exercises the real machinery.
        def integrals(f):
            coef = gather_band(f)
            samples = spectral_core.band_to_physical(coef, f.grid.n)
            (tri, _), (lap, _) = spectral_core.nonlinear_integrals(
                coef, samples, f.grid.band.wavevectors, f.grid.volume
            )
            return tri, lap

        u = random_field_factory(grid16, rng, divergence_free=True, k_max=4.0)
        clock = SimilarityClock(horizon=1.0, t=0.63)
        s = clock.remaining
        w_grid = make_grid(16, grid16.box_length / math.sqrt(s))
        w = VectorField(w_grid, math.sqrt(s) * u.data)

        u_norms = tn.norms(u)
        w_norms = tn.norms(w)
        assert w_norms.l2_sq == pytest.approx(s ** -0.5 * u_norms.l2_sq, rel=1e-12)
        assert w_norms.h1_sq == pytest.approx(s ** 0.5 * u_norms.h1_sq, rel=1e-12)
        assert w_norms.h2_sq == pytest.approx(s ** 1.5 * u_norms.h2_sq, rel=1e-12)
        assert w_norms.sup == pytest.approx(s ** 0.5 * u_norms.sup, rel=1e-12)
        assert w_norms.l4 == pytest.approx(s ** 0.125 * u_norms.l4, rel=1e-12)
        (tri_u, lap_u), (tri_w, lap_w) = integrals(u), integrals(w)
        assert tri_w == pytest.approx(s ** 1.5 * tri_u, rel=1e-10, abs=1e-18)
        assert lap_w == pytest.approx(s ** 2.5 * lap_u, rel=1e-10, abs=1e-18)
        # third derivatives scale with s^(5/2)
        grad_u = [spectral_derivative(u, b) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        grad_w = [spectral_derivative(w, b) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        h3_u = sum(tn.norms(g).h2_sq for g in grad_u)
        h3_w = sum(tn.norms(g).h2_sq for g in grad_w)
        assert h3_w == pytest.approx(s ** 2.5 * h3_u, rel=1e-12)

    def test_scale_factor_reference_values(self):
        assert scale_factor("l2_sq", 0.25) * 4.0 == pytest.approx(8.0, rel=1e-14)
        assert scale_factor("sup", 0.01) * 10.0 == pytest.approx(1.0, rel=1e-14)


class TestTwoRoutes:
    def test_unit_remaining_matches_u(self, grid16, rng, random_field_factory):
        u = random_field_factory(grid16, rng, divergence_free=True, k_max=4.0)
        mults = MultiplierSet(1.0 / 16.0)
        clock = SimilarityClock(horizon=2.0, t=1.0)  # s = 1
        wa, wb = both_routes(band_state(u), clock, mults)
        ns = tn.norms(u)
        assert wa.w_l2_sq == pytest.approx(ns.l2_sq, rel=1e-14)
        assert wa.w_h1_sq == pytest.approx(ns.h1_sq, rel=1e-14)
        assert wa.w_sup == pytest.approx(ns.sup, rel=1e-14)
        assert route_gap(wa, wb) <= 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.75, 0.95])
    def test_route_agreement(self, t, grid16, rng, random_field_factory):
        u = random_field_factory(grid16, rng, divergence_free=True, k_max=4.0)
        mults = MultiplierSet(1.0 / 16.0)
        clock = SimilarityClock(horizon=1.0, t=t)
        wa, wb = both_routes(band_state(u), clock, mults)
        assert route_gap(wa, wb) <= 1e-10

    @pytest.mark.parametrize("s", [1.0, 0.25, 0.01])
    def test_routes_match_full_spectrum_reference(self, s, grid16, rng, random_field_factory):
        # route_gap measures the signed integrals against their majorants
        mults = MultiplierSet(1.0 / 16.0)
        clock = SimilarityClock(horizon=1.0, t=1.0 - s)
        for _ in range(3):
            u = random_field_factory(grid16, rng, divergence_free=True)
            ref = reference_functionals(u, clock, mults)
            routes = both_routes(band_state(u), clock, mults)
            for route, w in zip(("scaling", "multiplier"), routes):
                assert route_gap(w, ref) <= 1e-12, route

    def test_ledger_row_transforms(self, monkeypatch):
        # a row of an exactly Hermitian state runs on real transforms of the
        # dealias band: it calls no norms, makes no complex transform and
        # builds no w-grid
        config = tn.SimulationConfig(n=16, delta=0.01, horizon=0.03)
        state = tn.make_initial_data(config, tn.make_grid(config.n))
        state = ns_dynamics.step(state, ns_dynamics.cfl_dt(state))
        assert hermitian_defect(state.u_hat) == 0.0
        counts = {"norms": 0, "complex_transforms": 0, "grids": 0}
        inside_norms = []
        norms = spectral_core.norms

        def counted_norms(field):
            counts["norms"] += 1
            inside_norms.append(True)
            try:
                return norms(field)
            finally:
                inside_norms.pop()

        def counted(transform):
            def wrapper(field):
                counts["complex_transforms"] += not inside_norms
                return transform(field)

            return wrapper

        grid_init = SpectralGrid.__post_init__

        def counted_grid(grid):
            counts["grids"] += 1
            grid_init(grid)

        monkeypatch.setattr(spectral_core, "norms", counted_norms)
        for name in ("to_physical", "to_spectral"):
            monkeypatch.setattr(spectral_core, name, counted(getattr(spectral_core, name)))
        monkeypatch.setattr(SpectralGrid, "__post_init__", counted_grid)
        ns_dynamics._ledger_row(state, config, MultiplierSet(config.alpha))
        assert counts == {"norms": 0, "complex_transforms": 0, "grids": 0}

    @staticmethod
    def _solver_state(n=16):
        config = tn.SimulationConfig(n=n, delta=0.01, horizon=0.03)
        state = tn.make_initial_data(config, tn.make_grid(config.n))
        return ns_dynamics.step(state, ns_dynamics.cfl_dt(state)), config

    def test_audit_sees_a_wrong_contraction(self, monkeypatch):
        # the routes take the triple product with different algebra, so a
        # scaling route contracting tr(G G G) instead of tr(G^T G G) shows
        # as a route gap
        state, config = self._solver_state()
        clock = SimilarityClock(horizon=config.horizon, t=state.t)
        mults = MultiplierSet(config.alpha)
        assert route_gap(*both_routes(state, clock, mults)) <= 1e-12
        original = spectral_core.nonlinear_integrals

        def wrong_contraction(coef, u, kvec, volume):
            (_, tri_scale), coupling = original(coef, u, kvec, volume)
            n = u.shape[-1]
            grads = np.stack([spectral_core.band_to_physical(1j * k * coef, n) for k in kvec])
            triple = float(np.einsum("jkxyz,klxyz,ljxyz->", grads, grads, grads))
            return (triple * volume / n**3, tri_scale), coupling

        monkeypatch.setattr(spectral_core, "nonlinear_integrals", wrong_contraction)
        assert route_gap(*both_routes(state, clock, mults)) > 1e-6

    def test_audit_sees_a_wrong_product(self):
        # the multiplier route takes its signed integrals from the state's
        # product -div(u (x) u - u2^2 I), which the step shares; handed the
        # next state's product, it disagrees with the scaling route's
        # gradient tensor
        state, config = self._solver_state()
        clock = SimilarityClock(horizon=config.horizon, t=state.t)
        mults = MultiplierSet(config.alpha)
        assert route_gap(*both_routes(state, clock, mults)) <= 1e-12
        following = ns_dynamics.step(state, ns_dynamics.cfl_dt(state))
        wrong = SimpleNamespace(
            grid=state.grid,
            band=state.band,
            samples=state.samples,
            max_speed=state.max_speed,
            product=following.product,
        )
        assert route_gap(*both_routes(wrong, clock, mults)) > 1e-6

    def test_multiplier_route_makes_no_band_transform(self, monkeypatch):
        # a row's 7 inverse and 1 forward band transforms all run in its
        # scaling route; the multiplier route reads the state's samples and
        # product, which the step takes as well, and the scaling route's
        # low part
        state, config = self._solver_state()
        clock = SimilarityClock(horizon=config.horizon, t=state.t)
        mults = MultiplierSet(config.alpha)
        state.product  # the state's own transforms, which its step shares
        counts = {"inverse": 0, "forward": 0}
        for name, key in (("band_to_physical", "inverse"), ("band_to_spectral", "forward")):
            transform = getattr(spectral_core, name)

            def counted(*args, transform=transform, key=key):
                counts[key] += 1
                return transform(*args)

            monkeypatch.setattr(spectral_core, name, counted)
        wa = w_functionals_scaling_route(state, clock, mults)
        assert counts == {"inverse": 7, "forward": 1}
        w_functionals_multiplier_route(state, clock, mults, wa.low_mag_sq)
        assert counts == {"inverse": 7, "forward": 1}

    def test_audit_sees_a_divergent_state(self):
        # the taylor_green data built from their samples, through a complex
        # transform and the two-thirds mask, hold unprojected roundoff on
        # every high mode of the band: |curl h|^2 and |k|^2 |h|^2 differ for
        # a divergent high part h, so the grad_high_sq gap fires
        grid = tn.make_grid(16)
        x1, x2, x3 = grid.coordinates()
        samples = np.stack(
            [
                np.sin(x1) * np.cos(x2) * np.cos(x3),
                -np.cos(x1) * np.sin(x2) * np.cos(x3),
                np.zeros((16, 16, 16)),
            ]
        )
        coef = tn.dealias(tn.to_spectral(samples, grid)).data
        coef[:, 0, 0, 0] = 0.0
        clock = SimilarityClock(horizon=0.05, t=0.0)
        mults = MultiplierSet(1.0 / 16.0)

        def gaps(data):
            wa, wb = both_routes(band_state(VectorField(grid, data)), clock, mults)
            each = {
                name: route_gap(wa, replace(wa, **{name: getattr(wb, name)}))
                for name in WFunctionals.COMPARED
            }
            return route_gap(wa, wb), each

        gap, each = gaps(coef)
        assert gap > 1e-10
        assert max(each, key=each.get) == "grad_high_sq"
        kvec = np.stack(np.broadcast_arrays(*grid.k))
        projected = spectral_core.project_coefficients(coef, kvec, grid.k_sq)
        assert gaps(projected)[0] <= 1e-12

    def test_one_profile_evaluation_and_one_rotational_kernel(self, monkeypatch):
        # each route evaluates phi once, on the |k| shells; the multiplier
        # route and the step share the state's one spectral_core.stress_product
        state, config = self._solver_state()
        clock = SimilarityClock(horizon=config.horizon, t=state.t)
        mults = MultiplierSet(config.alpha)
        calls = {"phi": 0, "rotational": 0}
        smoothstep, stress = multiplier_bank._smoothstep, spectral_core.stress_product

        def counted_smoothstep(x):
            calls["phi"] += 1
            return smoothstep(x)

        def counted_rotational(*args):
            calls["rotational"] += 1
            return stress(*args)

        monkeypatch.setattr(multiplier_bank, "_smoothstep", counted_smoothstep)
        monkeypatch.setattr(spectral_core, "stress_product", counted_rotational)
        wa = w_functionals_scaling_route(state, clock, mults)
        assert calls == {"phi": 1, "rotational": 0}
        w_functionals_multiplier_route(state, clock, mults, wa.low_mag_sq)
        assert calls == {"phi": 2, "rotational": 1}
        w_functionals_multiplier_route(state, clock, mults, wa.low_mag_sq)
        assert calls == {"phi": 3, "rotational": 1}
        ns_dynamics._rhs_band(state.band, state.grid)
        assert calls == {"phi": 3, "rotational": 2}

    def test_split_identity(self, grid16, rng, random_field_factory):
        u = random_field_factory(grid16, rng, divergence_free=True)
        mults = MultiplierSet(1.0 / 16.0)
        clock = SimilarityClock(horizon=1.0, t=0.5)
        for w in both_routes(band_state(u), clock, mults):
            w.validate()
            assert w.low_l2_sq + w.e_high == pytest.approx(w.w_l2_sq, rel=1e-12)


class TestInitialEnergy:
    """The split energy E(0) = e_low + e_high of the rescaled initial data is
    at most ||w(0)||^2 = T^(-1/2) ||u0||^2, by the pointwise weight bound
    chi^2 + 1 - phi^2 <= 1."""

    @staticmethod
    def _initial_functionals(u0, horizon):
        clock = SimilarityClock(horizon=horizon, t=0.0)
        return both_routes(band_state(u0), clock, MultiplierSet(1.0 / 16.0))[1]

    def test_zero_field(self, grid16):
        u0 = VectorField(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
        w = self._initial_functionals(u0, 1.0)
        assert w.e_low + w.e_high == 0.0 and w.w_l2_sq == 0.0

    def test_bounded_by_initial_norm(self, grid16, rng, random_field_factory):
        for horizon in (1.0, 2.0):
            u0 = random_field_factory(grid16, rng, divergence_free=True)
            w = self._initial_functionals(u0, horizon)
            assert w.w_l2_sq == pytest.approx(horizon**-0.5 * tn.norms(u0).l2_sq, rel=1e-12)
            assert w.e_low + w.e_high <= w.w_l2_sq * (1.0 + 1e-12)

    def test_high_band_saturates_bound(self, grid16, rng, random_field_factory):
        # supported where the low-pass profile vanishes: the split energy is
        # the whole energy
        u0 = random_field_factory(grid16, rng, k_min=2.01, k_max=5.0)
        w = self._initial_functionals(u0, 1.0)
        assert w.e_low + w.e_high == pytest.approx(w.w_l2_sq, rel=1e-12)
        assert w.w_l2_sq == pytest.approx(tn.norms(u0).l2_sq, rel=1e-12)
