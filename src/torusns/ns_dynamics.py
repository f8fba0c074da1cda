"""Pseudo-spectral time integration of incompressible flow on the periodic box.

The state is the spectral velocity; the viscous term (unit viscosity) is
integrated exactly through the heat-kernel factor exp(-|k|^2 dt) while the
dealiased, projected advection term is advanced with classical RK4.  The mean
mode is pinned to zero and the field stays real, divergence-free, and
band-limited for the whole run.

The velocity is held on the dealias band (3, K, K, c + 1) of `spectral_core`:
the modes |m_j| <= c, 3c < n, with m3 >= 0, which are the only ones a state
carries.  `make_initial_data` builds the initial state there, from the modes
of the data, so a run holds no full lattice before its first ledger row.  A
caller holding a full-spectrum field gathers its band through
`spectral_core.gather_band`, which rejects a field with a coefficient outside
it.  The advection term is evaluated in stress-divergence form,
P[-div(u (x) u - u2^2 I)] (`spectral_core.stress_product`): for a
divergence-free band field it equals -P[(u . grad) u] and the rotational
form P[u x curl u] exactly, since it differs from both only by a gradient,
which the projection removes.  It needs the samples of u alone, so each RK4
stage costs one inverse pruned real 3-vector transform and one forward
transform of the stress's five components, and the forward transform of
the band is already dealiased.  The stages and the state's product run over
x1-slabs of the lattice, so at n >= 48 a stage holds no lattice-sized
temporary; at n <= 32 one slab covers the box.  The first stage projects
the state's product (`TrajectoryState.product`), which is taken from the
state's samples (`TrajectoryState.samples`) with no inverse transform of
its own, so a step of `run` takes 4 inverse and 4 forward band transforms,
each whole or over x1-slabs.  A state computes each of its own quantities
once, on first use: the samples, the product and max|u|
(`TrajectoryState.max_speed`).  `cfl_dt`, the first stage and both routes
of the state's ledger row read them, and whichever comes first takes them:
in `run`, the samples and max|u| inside `cfl_dt`, and the product inside
the row's multiplier route, which rescales it to the w-field, or inside
`step` for a state that is not logged.  A row thus adds 7 inverse and 1
forward band transform, all in its scaling route, and a run of S steps and
R rows takes 4 S + 7 R + 1 inverse and 4 S + R + 1 forward ones: the last
state's samples and product serve its row alone.

A state is its band plus the samples of it, and no state keeps a full
lattice: `step` hands back a band whose plane m3 = 0 is exactly Hermitian,
and a full-spectrum field, exactly Hermitian, is written from the band by
`spectral_core.full_spectrum` only on request (`TrajectoryState.u_hat`).  A
ledger row writes none: its u columns are the u-side Plancherel sums of its
scaling route and the state's max|u|.  Once per run, on the row at step 0,
`run` checks those four values against `spectral_core.norms` of the
full-spectrum field (`_audit_u_columns`), an independent full-lattice
reference; that check is a run's one full lattice and its one complex
transform (`spectral_core.to_physical`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import spectral_core
from .inequality_lab import EnergyLedger, LedgerError
from .multiplier_bank import MultiplierSet, check_alpha
from .similarity_frame import (
    SimilarityClock,
    route_gap,
    w_functionals_multiplier_route,
    w_functionals_scaling_route,
)
from .spectral_core import SPECTRAL, SpectralGrid, VectorField, make_grid

INITIAL_KINDS = ("taylor_green", "random_low_mode")

#: The ledger columns that `_audit_u_columns` checks, and its relative limit.
U_COLUMNS = ("u_l2sq", "u_h1sq", "u_h2sq", "u_sup")
U_AUDIT_LIMIT = 1e-12


class NumericalBlowupError(RuntimeError):
    """The integrator produced a non-finite value, or a step size bound that
    underflows to 0 (limits of the numerics, not a statement about the
    underlying flow)."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce one trajectory and its ledger."""

    n: int = 32
    box_length: float = 2.0 * math.pi
    horizon: float = 1.0
    alpha: float = 0.0625
    delta: float = 0.01
    initial_kind: str = "random_low_mode"
    seed: int = 0
    init_k_max: float = 4.0
    c_cfl: float = 1.0
    t_min: float = float("nan")  # filled with horizon * e^-6 when unset
    stride: int = 2

    def __post_init__(self) -> None:
        if math.isnan(self.t_min):
            object.__setattr__(self, "t_min", self.horizon * math.exp(-6.0))
        spectral_core.check_grid_size(self.n)
        spectral_core.check_box_length(self.n, self.box_length)
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        check_alpha(self.alpha)
        if not 0.0 < self.delta < math.inf:
            raise ValueError(
                f"delta target must be positive and finite, got {self.delta}"
                " (data of norm 0 would certify the zero field)"
            )
        if self.initial_kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial data kind {self.initial_kind!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # taylor_green reads no init_k_max: its modes are +-1, which every n >= 8 keeps
        k = spectral_core.wavenumbers(self.n, self.box_length)
        k_min, k_out = float(k[1]), float(k[spectral_core.band_cutoff(self.n) + 1])
        if self.initial_kind == "random_low_mode" and not k_min <= self.init_k_max < k_out:
            raise ValueError(
                f"init_k_max {self.init_k_max} must lie in [2 pi / L, the smallest wavenumber"
                f" outside the dealias band) = [{k_min!r}, {k_out!r})"
            )
        if not 0.0 < self.c_cfl <= 1.0:
            raise ValueError(f"CFL safety factor must lie in (0, 1], got {self.c_cfl}")
        if not 0.0 < self.t_min < self.horizon:
            raise ValueError(f"t_min must lie in (0, horizon), got {self.t_min}")
        if not self.horizon - self.t_min < self.horizon:
            raise ValueError(
                f"t_min {self.t_min!r} is below the resolution of horizon {self.horizon!r}:"
                " horizon - t_min rounds to horizon"
            )
        if self.stride < 1:
            raise ValueError("output stride must be >= 1")


@dataclass
class TrajectoryState:
    """A velocity on the clock, held as its dealias band `band` (3, K, K, c + 1)
    of `grid`.  The state is not modified once built: `samples`, `product`,
    `max_speed` and `advective_limit` are computed from the band on first
    use and kept, and `u_hat`, the full-spectrum field, is written on each
    access and never kept."""

    grid: SpectralGrid
    band: np.ndarray
    t: float
    step_index: int
    last_dt: float

    @property
    def u_hat(self) -> VectorField:
        """The exactly Hermitian full-spectrum velocity, written from the band."""
        return VectorField(self.grid, spectral_core.full_spectrum(self.band, self.grid.n), SPECTRAL)

    @cached_property
    def samples(self) -> np.ndarray:
        """The physical velocity: the state's one inverse band transform of
        its band, which gives `max_speed`, `product` and the u samples of
        the scaling route of the state's ledger row."""
        return spectral_core.band_to_physical(self.band, self.grid.n)

    @cached_property
    def product(self) -> np.ndarray:
        """The unprojected band coefficients of -div(u (x) u - u2^2 I)
        (`spectral_core.stress_product`), taken from `samples`: the first
        RK4 stage of `step` projects them, and the multiplier route of the
        state's ledger row rescales them to the w-field."""
        grid = self.grid
        return spectral_core.stress_product(self.band, grid.band.k, grid.n, self.samples)

    @cached_property
    def max_speed(self) -> float:
        """max|u| over the samples, read by `advective_limit` and by both
        routes of the state's ledger row.  Raises NumericalBlowupError if it
        is not finite, so a non-finite state gets no step size."""
        with np.errstate(over="ignore"):  # an overflow is the non-finite case below
            vmax = float(np.sqrt(np.max(spectral_core._component_power(self.samples))))
        if not math.isfinite(vmax):
            raise NumericalBlowupError(
                f"non-finite velocity at t={self.t} (step {self.step_index})"
            )
        return vmax

    @cached_property
    def advective_limit(self) -> float:
        """dx / max|u|, read by `cfl_dt` and checked by `step`."""
        vmax = self.max_speed
        return self.grid.dx / vmax if vmax > 0.0 else math.inf


def make_initial_data(config: SimulationConfig, grid: SpectralGrid) -> TrajectoryState:
    """The initial state (t = 0): a divergence-free, mean-free velocity
    scaled exactly to the requested L2 norm `config.delta`, built on the
    dealias band of `grid`.

    `taylor_green` is the classical single-mode vortex
    (sin x1 cos x2 cos x3, -cos x1 sin x2 cos x3, 0) at wavenumber 2 pi / L,
    written from its eight modes (+-1, +-1, +-1): the band holds the four
    with m3 = 1, and their mirrors follow.  Its coefficients are exactly
    divergence-free.  `random_low_mode` seeds every mode with
    |k| <= init_k_max with standard Gaussian coefficients and projects out
    the gradient part.  Either shape is built at unit scale and then
    rescaled to `delta`, so `delta` alone sets the size of the data.
    """
    band = np.zeros((3,) + grid.band.k_sq.shape, dtype=np.complex128)
    if config.initial_kind == "taylor_green":
        for m1 in (1, -1):
            for m2 in (1, -1):
                band[0, m1, m2, 1] = -1j * m1 / 8
                band[1, m1, m2, 1] = 1j * m2 / 8
        sum_sq = spectral_core.band_sum(np.sum(np.abs(band) ** 2, axis=0))
    else:
        sum_sq = _random_low_modes(config, grid, band)
    current = math.sqrt(grid.volume * sum_sq)
    band *= config.delta / current if current > 0.0 else 0.0
    return TrajectoryState(grid, band, t=0.0, step_index=0, last_dt=0.0)


def _random_low_modes(config: SimulationConfig, grid: SpectralGrid, band: np.ndarray) -> float:
    """Write the unscaled `random_low_mode` coefficients into the zeroed
    `band` and return the sum of their |coef|^2 over the full lattice.

    The real and then the imaginary parts are drawn as standard Gaussians
    on the whole (3, n, n, n) lattice, so the seed fixes every mode, but only
    the modes 0 < |k| <= init_k_max are kept.  Each is averaged with the
    conjugate of its mirror -k, so the field is real, and projected onto
    divergence-free fields.  `SimulationConfig` checks that the modes lie
    inside the dealias band; those with m3 >= 0 are written into it.  The
    draw buffer, zeroed, then holds |coef|^2 of every mode, so the sum
    rounds as the full-lattice sum of the norm.
    """
    n = grid.n
    k_mag = np.sqrt(grid.k_sq)
    seeded = np.nonzero((k_mag <= config.init_k_max) & (k_mag > 0.0))
    flat = np.ravel_multi_index(seeded, (n, n, n))
    mirror = np.searchsorted(flat, np.ravel_multi_index(tuple(-i % n for i in seeded), (n, n, n)))
    rng = np.random.default_rng(config.seed)
    draw = np.empty((3, n, n, n))
    raw = rng.standard_normal(out=draw)[(slice(None),) + seeded].astype(np.complex128)
    raw.imag = rng.standard_normal(out=draw)[(slice(None),) + seeded]
    sym = 0.5 * (raw + np.conj(raw[:, mirror]))
    kvec = np.stack([grid.k[j].ravel()[seeded[j]] for j in range(3)])
    modes = spectral_core.project_coefficients(sym, kvec, grid.k_sq[seeded])
    draw.fill(0.0)
    draw[(slice(None),) + seeded] = np.abs(modes) ** 2
    sum_sq = float(np.sum(draw))
    del draw
    m1, m2, m3 = (np.where(i < n // 2, i, i - n) for i in seeded)
    kept = m3 >= 0
    band[:, m1[kept], m2[kept], m3[kept]] = modes[:, kept]
    return sum_sq


def _project_band(lamb: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """P[lamb] with the mean mode zeroed, for band coefficients `lamb`; a new array."""
    band = grid.band
    out = spectral_core.project_coefficients(lamb, band.wavevectors, band.k_sq)
    out[:, 0, 0, 0] = 0.0
    return out


def _rhs_band(coef: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """The projected, dealiased advection term P[-div(u (x) u - u2^2 I)] on
    the dealias band, for band coefficients `coef`."""
    return _project_band(spectral_core.stress_product(coef, grid.band.k, grid.n), grid)


def cfl_dt(state: TrajectoryState, c_cfl: float = 1.0) -> float:
    """Step-size bound c_cfl * min(dx / max|u|, 1 / k_max^2).

    The viscous bound is informational (the integrating factor is exact) but
    it is what limits dt for small data; the advective bound takes over for
    energetic fields.  max|u| is the state's `max_speed`, which raises
    NumericalBlowupError for a non-finite state; so does a bound that
    underflows to 0, which no step could advance the clock by.
    """
    viscous = 1.0 / state.grid.max_wavenumber**2
    dt = c_cfl * min(state.advective_limit, viscous)
    if not dt > 0.0:
        raise NumericalBlowupError(
            f"step size bound underflows to {dt} at t={state.t} (step {state.step_index})"
        )
    return dt


def step(state: TrajectoryState, dt: float) -> TrajectoryState:
    """One RK4 step with the exact viscous integrating factor.

    With the advection term zeroed this reduces to the heat kernel
    exp(-|k|^2 dt) exactly; with it, the scheme is classical fourth order.
    The stages run on the dealias band; the first projects the state's
    `product`, which its ledger row may already have taken.  The
    returned state's band has its plane m3 = 0 made exactly Hermitian
    (`spectral_core.hermitian_band`), so it is the band of its own
    full-spectrum field.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    u0 = state.band
    # Only advection limits stability: the viscous part is integrated exactly.
    limit = state.advective_limit
    if dt > limit * (1.0 + 1e-9):
        raise ValueError(f"dt={dt} exceeds the advective stability bound {limit}")
    e_half = np.exp(-grid.band.k_sq * (0.5 * dt))
    e_full = e_half * e_half

    ka = dt * _project_band(state.product, grid)
    kb = dt * _rhs_band(e_half * (u0 + 0.5 * ka), grid)
    kc = dt * _rhs_band(e_half * u0 + 0.5 * kb, grid)
    kd = dt * _rhs_band(e_full * u0 + e_half * kc, grid)
    u1 = e_full * u0 + (e_full * ka + 2.0 * e_half * (kb + kc) + kd) / 6.0
    return TrajectoryState(
        grid=grid,
        band=spectral_core.hermitian_band(u1),
        t=state.t + dt,
        step_index=state.step_index + 1,
        last_dt=dt,
    )


def _audit_u_columns(
    reference: spectral_core.NormSuite, u_columns: tuple[float, ...], t: float
) -> tuple[float, str | None]:
    """The worst relative gap of the u columns `u_columns` (in `U_COLUMNS`
    order) of the row at time `t` from `reference`, the `spectral_core.norms`
    of the state's full-spectrum field, and the column that sets it (None
    when every gap is 0).

    `norms` sums the power over the full lattice and takes the sup norm from
    a complex transform of it, so it checks the band sums and max|u|
    independently.  Equal values, 0 against 0 included, have gap 0.  Raises
    LedgerError naming the first column whose gap exceeds U_AUDIT_LIMIT or
    is not a number.
    """
    expected_columns = (reference.l2_sq, reference.h1_sq, reference.h2_sq, reference.sup)
    worst, worst_column = 0.0, None
    for name, value, expected in zip(U_COLUMNS, u_columns, expected_columns):
        gap = 0.0 if value == expected else abs(value - expected) / max(abs(value), abs(expected))
        if not gap <= U_AUDIT_LIMIT:
            raise LedgerError(
                f"row at t={t!r}: column {name} is {value!r}, but norms of the"
                f" full-spectrum field gives {expected!r} (relative gap {gap:.3g})"
            )
        if gap > worst:
            worst, worst_column = gap, name
    return worst, worst_column


def _ledger_row(
    state: TrajectoryState,
    config: SimulationConfig,
    mults: MultiplierSet,
    audit: dict | None = None,
) -> tuple[float, ...]:
    """One ledger row, its values in `inequality_lab.CSV_COLUMNS` order.

    Both routes take the state and read its samples and max|u|, which
    `cfl_dt` reads as well; the multiplier route reads its product, which
    the next step projects, and the scaling route's low part.  Every
    transform runs inside a route, and the row writes no full lattice: its
    u columns are the scaling route's u-side Plancherel sums
    (`WFunctionals.u_l2_sq`, `u_h1_sq`, `u_h2_sq`) and the state's max|u|.
    Given a dict `audit`, the row checks those columns with
    `_audit_u_columns`, before its own checks, and records in `audit` the
    state's t, the worst relative gap (`worst_gap`) and its `column`.  The
    reference norms are taken before the routes, so their full lattice is
    freed before the routes allocate, as when every row took them.
    """
    clock = SimilarityClock(horizon=config.horizon, t=state.t)
    with np.errstate(over="ignore", invalid="ignore"):  # validate and the audit reject it
        reference = None if audit is None else spectral_core.norms(state.u_hat)
        wa = w_functionals_scaling_route(state, clock, mults)
        wb = w_functionals_multiplier_route(state, clock, mults, wa.low_mag_sq)
        u_columns = (wa.u_l2_sq, wa.u_h1_sq, wa.u_h2_sq, state.max_speed)
        if reference is not None:
            worst_gap, column = _audit_u_columns(reference, u_columns, state.t)
            audit.update(t=state.t, worst_gap=worst_gap, column=column)
    try:
        wa.validate()
        wb.validate()
    except ValueError as exc:
        raise LedgerError(f"row at t={state.t!r}: {exc}") from exc
    return (
        state.t,
        clock.tau,
        state.last_dt,
        *u_columns,
        wa.w_l2_sq,
        wa.w_h1_sq,
        wa.w_h2_sq,
        wa.w_sup,
        wa.e_low,
        wa.e_high,
        wa.low_l4,
        wa.low_sup,
        wa.grad_high_sq,
        wa.trilinear,
        wa.lap_coupling,
        route_gap(wa, wb),
    )


def run(config: SimulationConfig) -> EnergyLedger:
    """Integrate from t = 0 to horizon - t_min, recording ledger rows.

    The run starts from the state of `make_initial_data`, on the band, and
    holds no full lattice before its first row.  Rows are emitted at step 0,
    every `stride` steps, and at the final step.  A state's step size is
    taken before its row, so the state's samples are transformed inside
    `cfl_dt`, except for the final state, whose row takes them; a logged
    state's product is taken inside its row's multiplier route.  A
    non-finite band, the initial one included, aborts with
    NumericalBlowupError from the state's `max_speed`, which `cfl_dt` reads
    before every step and both routes read in every row; so does a step
    size bound that underflows to 0.  A ledger that fails its invariants,
    or a first row whose u columns fail `_audit_u_columns`, raises
    LedgerError.  The metadata is every field of `config`, the number of
    steps taken and the audit (`u_column_audit`: its row, t, worst relative
    gap and column).
    """
    grid = make_grid(config.n, config.box_length)
    mults = MultiplierSet(config.alpha)
    state = make_initial_data(config, grid)
    t_end = config.horizon - config.t_min
    rows = []
    audit = {"row": 0}
    while True:
        done = state.t >= t_end * (1.0 - 1e-12)
        if not done:
            dt = min(cfl_dt(state, config.c_cfl), t_end - state.t)
        if done or state.step_index % config.stride == 0:
            # The audit runs on the first row, not the last: freeing its full
            # lattice early raises glibc's dynamic mmap threshold, so the
            # later lattice-sized temporaries stay in the heap instead of
            # being mapped and faulted in anew each time.
            rows.append(_ledger_row(state, config, mults, None if rows else audit))
        if done:
            meta = {**asdict(config), "steps": state.step_index, "u_column_audit": audit}
            return EnergyLedger(rows, meta=meta)
        state = step(state, dt)
