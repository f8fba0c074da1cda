"""Exact change of variables into self-similar coordinates.

For a horizon T the rescaling is

    y = x / sqrt(T - t),    tau = -ln(T - t),    w(y, tau) = sqrt(T - t) u(x, t)

and every functional of w is obtained from the u-state without ever
time-stepping the rescaled system.  The w-field is the u-lattice relabelled:
box side L/sqrt(s), coefficients sqrt(s) * u_hat, wavevectors sqrt(s) * k,
so a radial profile acts on it as profile(sqrt(s) |k_u|) and no grid is built
per row.  Two computation routes are provided and audited against each other:

* the *scaling route* multiplies u-side integrals by exact powers of
  s = T - t (the normative exponent table below) and evaluates the
  frequency-split functionals on the w-field via physical-space quadrature;
* the *multiplier route* evaluates the rescaled symbols against the
  u-coefficients in spectral sums, and the signed integrals on the w-field.

Both take a state on the dealias band of `spectral_core` (`BandState`, such
as `ns_dynamics.TrajectoryState`): its grid, its band coefficients
(3, K, K, c + 1), their physical values (the samples), max|u| and the band
coefficients of the advection term -div(u (x) u - u2^2 I) (the product).
The state computes each of these once, so the step, `cfl_dt` and both
routes share them; a caller holding a full-spectrum field builds the state
from `spectral_core.gather_band` of it.
Every inverse transform is `band_to_physical`, or, for the gradient
tensor, its x1-slab form inside `nonlinear_integrals`, which also takes the
product F[(u . grad) u] slab by slab; every spectral sum is a `band_sum`
over the band's modes.  Each route evaluates the radial profiles
once, on the distinct |k| values of the band (`DealiasBand.shells`).  The
scaling route makes all 7 inverse and 1 forward transforms of a row, and
hands back the u-side Plancherel sums it rescales (`WFunctionals.u_l2_sq`,
`u_h1_sq`, `u_h2_sq`), which the row records as its u columns beside
max|u|, so a row takes no norm of a full-spectrum field.  The
multiplier route makes none: it takes the w-side product as s^(3/2) times
the state's (w = sqrt(s) u with wavevectors sqrt(s) k), and the low part
from the samples that the scaling route took (`WFunctionals.low_mag_sq`),
on which it applies its own scale factors.
The signed integrals use different algebra in the two routes: the scaling
route takes the gradient-tensor quadrature tr(G^T G G) and the convective
coupling of `spectral_core.nonlinear_integrals`, the multiplier route the
rotational form -sum |k|^2 Re(conj(w) . F[w x curl w]) (and |k|^4) of
`spectral_core.rotational_integrals`, with its own lattice factors.  In
place of F[w x curl w] it pairs the product that the step's advection term
projects: the two differ by a gradient, whose pairing with the
divergence-free w is zero, so the integrals are the same (their majorants,
which take the product's magnitude, are not).  So the gap on those columns
audits the integration by parts, the stress form and the contraction as
well as the exponent table, and the low_l4 and low_sup gaps audit the
table's `l4` and `sup` exponents.  Likewise `grad_high_sq` is
|curl h|^2 by quadrature in the scaling route and sum |k|^2 |h|^2 in the
multiplier route; the two agree because h is divergence-free, so a divergent
state shows as a route gap.  The routes agree in exact arithmetic; the
ledger records their maximum relative gap per time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import ClassVar, Protocol

import numpy as np

from . import spectral_core
from .multiplier_bank import MultiplierSet
from .spectral_core import SpectralGrid, band_sum

#: Normative scaling exponents: functional(w) = s**power * functional(u).
#: Squared integral quantities unless noted; `sup` and `l4` are plain norms.
SCALING_EXPONENTS: dict[str, Fraction] = {
    "l2_sq": Fraction(-1, 2),
    "h1_sq": Fraction(1, 2),
    "h2_sq": Fraction(3, 2),
    "h3_sq": Fraction(5, 2),
    "sup": Fraction(1, 2),
    "l4": Fraction(1, 8),
    "trilinear": Fraction(3, 2),
    "lap_coupling": Fraction(5, 2),
}


def scale_factor(name: str, remaining: float) -> float:
    """The power of s = T - t mapping a u-side functional to its w-side value;
    inf where it overflows a float."""
    return _power(float(remaining), float(SCALING_EXPONENTS[name]))


def _power(base: float, exponent: float) -> float:
    """base ** exponent for base > 0, or inf where that overflows a float:
    Python's float power raises OverflowError instead, and a row holding the
    inf then fails `WFunctionals.validate` as a non-finite functional."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


class BandState(Protocol):
    """What a route reads of a velocity state (`ns_dynamics.TrajectoryState`):
    its `grid`, band coefficients `band`, their `samples`, `max_speed`
    (max|u| over the samples) and `product`, the band coefficients of
    -div(u (x) u - u2^2 I) (`spectral_core.stress_product`)."""

    grid: SpectralGrid
    band: np.ndarray
    samples: np.ndarray
    max_speed: float
    product: np.ndarray


@dataclass(frozen=True)
class SimilarityClock:
    """Physical time t within [0, T) together with the slow time tau."""

    horizon: float
    t: float

    def __post_init__(self) -> None:
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.t < self.horizon:
            raise ValueError(f"time {self.t} outside [0, {self.horizon})")
        object.__setattr__(self, "tau", tau_of_t(self.t, self.horizon))

    @property
    def remaining(self) -> float:
        return self.horizon - self.t


def tau_of_t(t: float, horizon: float) -> float:
    """Slow time tau = -ln(T - t); rejects t >= T."""
    if t >= horizon:
        raise ValueError(f"time {t} reached or passed the horizon {horizon}")
    return -math.log(horizon - t)


@dataclass(frozen=True)
class WFunctionals:
    """Functionals of the rescaled field at one instant.

    `e_low` is the chi-weighted low-frequency energy, `e_high` the
    energy-split high part; `low_l2_sq + e_high` recovers `w_l2_sq` exactly
    (the pointwise identity phi^2 + (1 - phi^2) = 1).  `trilinear_scale` and
    `lap_scale` are magnitude majorants of the two signed integrals, kept so
    that route agreement can be judged even where the integrals cancel.
    `low_mag_sq` is not a functional: the scaling route keeps there the
    squared magnitude |w_low|^2 of the samples of the phi-filtered w-field,
    which the multiplier route reads instead of transforming them again.
    Nor are `u_l2_sq`, `u_h1_sq` and `u_h2_sq`: the scaling route keeps
    there the u-side Plancherel sums that it rescales, which a ledger row
    records as its u columns; the multiplier route leaves them 0.
    """

    w_l2_sq: float
    w_h1_sq: float
    w_h2_sq: float
    w_sup: float
    low_l2_sq: float
    e_low: float
    e_high: float
    low_l4: float
    low_sup: float
    grad_high_sq: float
    trilinear: float
    lap_coupling: float
    trilinear_scale: float = 0.0
    lap_scale: float = 0.0
    low_mag_sq: np.ndarray | None = field(default=None, repr=False, compare=False)
    u_l2_sq: float = field(default=0.0, compare=False)
    u_h1_sq: float = field(default=0.0, compare=False)
    u_h2_sq: float = field(default=0.0, compare=False)

    COMPARED: ClassVar[tuple[str, ...]] = (
        "w_l2_sq",
        "w_h1_sq",
        "w_h2_sq",
        "w_sup",
        "low_l2_sq",
        "e_low",
        "e_high",
        "low_l4",
        "low_sup",
        "grad_high_sq",
        "trilinear",
        "lap_coupling",
    )

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite functional {f.name}")
        split = self.low_l2_sq + self.e_high
        gap = abs(split - self.w_l2_sq)
        if gap > 1e-12 * max(self.w_l2_sq, split, 1e-300):
            raise ValueError(
                f"energy split violated: low+high={split!r} vs total={self.w_l2_sq!r}"
            )
        for name in ("w_l2_sq", "w_h1_sq", "w_h2_sq", "low_l2_sq", "e_low", "e_high"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"negative squared norm {name}")


def route_gap(a: WFunctionals, b: WFunctionals) -> float:
    """Maximum relative disagreement between the two computation routes.

    The signed integrals are measured against their magnitude majorants so a
    benign cancellation near zero does not masquerade as route divergence.
    """
    worst = 0.0
    for name in WFunctionals.COMPARED:
        va, vb = getattr(a, name), getattr(b, name)
        if va == vb:
            continue
        floor = 1e-300
        if name == "trilinear":
            floor = max(a.trilinear_scale, b.trilinear_scale, floor)
        elif name == "lap_coupling":
            floor = max(a.lap_scale, b.lap_scale, floor)
        worst = max(worst, abs(va - vb) / max(abs(va), abs(vb), floor))
    return worst


def w_functionals_scaling_route(
    state: BandState, clock: SimilarityClock, mults: MultiplierSet
) -> WFunctionals:
    """w-functionals from u-side integrals and the exponent table.

    The Plancherel norms, the sup norm and the two signed integrals (the
    gradient-tensor quadrature of `nonlinear_integrals`) are taken on the
    u-lattice and multiplied by exact powers of s.  The frequency-split
    quantities are evaluated on the w-field by physical-space quadrature of
    its real inverse transforms; `grad_high_sq` integrates |curl h|^2, equal
    to |grad h|^2 for the divergence-free high part h.  The squared
    magnitude of the low part's samples is kept in `low_mag_sq`, and the
    u-side Plancherel sums in `u_l2_sq`, `u_h1_sq` and `u_h2_sq`.  Reads the
    state's `grid`, `band`, `samples` and `max_speed`.
    """
    s = clock.remaining
    root = math.sqrt(s)
    grid, coef, samples = state.grid, state.band, state.samples
    band = grid.band
    (tri_u, tri_scale_u), (lap_u, lap_scale_u) = spectral_core.nonlinear_integrals(
        coef, samples, band.wavevectors, grid.volume
    )
    power = np.sum(np.abs(coef) ** 2, axis=0)
    l2_u, h1_u, h2_u = (grid.volume * band_sum(band.k_sq**p * power) for p in (0, 1, 2))
    sup_u = state.max_speed

    prof = mults.profiles(root * band.shells)
    index = band.shell_index
    cell_w = _power(grid.box_length / root / grid.n, 3)
    w_coef = root * coef

    def physical(weight: np.ndarray) -> np.ndarray:
        return spectral_core.band_to_physical(w_coef * weight[index], grid.n)

    def quadrature(samples: np.ndarray) -> float:
        # squared in place and summed at once, so no samples are held
        # through the next transforms
        return float(np.sum(np.square(samples, out=samples)) * cell_w)

    low_mag_sq = spectral_core._component_power(physical(prof.phi))
    high = w_coef * prof.one_minus_phi[index]
    curl_high = spectral_core.curl_coefficients(high, [root * k for k in band.k])
    grad_high_sq = quadrature(spectral_core.band_to_physical(curl_high, grid.n))

    return WFunctionals(
        w_l2_sq=scale_factor("l2_sq", s) * l2_u,
        w_h1_sq=scale_factor("h1_sq", s) * h1_u,
        w_h2_sq=scale_factor("h2_sq", s) * h2_u,
        w_sup=scale_factor("sup", s) * sup_u,
        low_l2_sq=float(np.sum(low_mag_sq)) * cell_w,
        e_low=quadrature(physical(prof.chi)),
        e_high=quadrature(physical(prof.sqrt_one_minus_phi_sq)),
        low_l4=float((np.sum(low_mag_sq**2) * cell_w) ** 0.25),
        low_sup=float(np.sqrt(np.max(low_mag_sq))),
        grad_high_sq=grad_high_sq,
        trilinear=scale_factor("trilinear", s) * tri_u,
        lap_coupling=scale_factor("lap_coupling", s) * lap_u,
        trilinear_scale=scale_factor("trilinear", s) * tri_scale_u,
        lap_scale=scale_factor("lap_coupling", s) * lap_scale_u,
        low_mag_sq=low_mag_sq,
        u_l2_sq=l2_u,
        u_h1_sq=h1_u,
        u_h2_sq=h2_u,
    )


def w_functionals_multiplier_route(
    state: BandState, clock: SimilarityClock, mults: MultiplierSet, low_mag_sq: np.ndarray
) -> WFunctionals:
    """w-functionals via rescaled radial symbols applied to the u-coefficients.

    Every quadratic functional is a sum over the band with weights evaluated
    at xi = sqrt(s) |k|.  The sup and L4 quantities read the u-side samples:
    max|u| of the state, and the low part |u_low|^2 = |w_low|^2 / s from
    `low_mag_sq`, the scaling route's `WFunctionals.low_mag_sq`; they are
    rescaled by the exponent table on the u-lattice.  The two signed
    integrals are taken on the w-field itself, on the box of side L/sqrt(s),
    in the rotational form of `spectral_core.rotational_integrals`, with the
    product s^(3/2) times the state's `product`: -div(w (x) w - w2^2 I), in
    the w-variables, is s^(3/2) times that of u on the relabelled lattice.
    It differs from F[w x curl w] by a gradient, which pairs to zero with
    the divergence-free w, so the integrals are unchanged.  No transform
    runs here, except the state's product when it is not yet taken.  Reads
    the state's `grid`, `band`, `max_speed` and `product`.
    """
    s = clock.remaining
    root = math.sqrt(s)
    grid, coef = state.grid, state.band
    band = grid.band
    power = np.sum(np.abs(coef) ** 2, axis=0)
    prof = mults.profiles(root * band.shells)
    index = band.shell_index
    phi_xi = prof.phi[index]
    xi_sq = s * band.k_sq
    pref = scale_factor("l2_sq", s) * grid.volume

    low_u_sq = low_mag_sq / s
    (trilinear, tri_scale), (lap_coupling, lap_scale) = spectral_core.rotational_integrals(
        root * coef,
        (s * root) * state.product,
        [root * k for k in band.k],
        _power(grid.box_length / root, 3),
    )

    return WFunctionals(
        w_l2_sq=pref * band_sum(power),
        w_h1_sq=pref * band_sum(xi_sq * power),
        w_h2_sq=pref * band_sum(xi_sq**2 * power),
        w_sup=root * state.max_speed,
        low_l2_sq=pref * band_sum(phi_xi**2 * power),
        e_low=pref * band_sum((prof.chi**2)[index] * power),
        e_high=pref * band_sum((prof.sqrt_one_minus_phi_sq**2)[index] * power),
        low_l4=scale_factor("l4", s) * float((np.sum(low_u_sq**2) * grid.cell_volume) ** 0.25),
        low_sup=root * float(np.sqrt(np.max(low_u_sq))),
        grad_high_sq=pref * band_sum(xi_sq * (prof.one_minus_phi**2)[index] * power),
        trilinear=trilinear,
        lap_coupling=lap_coupling,
        trilinear_scale=tri_scale,
        lap_scale=lap_scale,
    )
