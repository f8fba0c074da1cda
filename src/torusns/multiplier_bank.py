"""Radial Fourier multipliers and the frequency-split operators built on them.

One smooth low-pass profile `phi` (identically 1 inside radius 1, identically
0 outside radius 2, nonincreasing) generates the whole bank:

* ``phi``                    -- low-pass cut (operator: low part of a field),
* ``one_minus_phi``          -- the complementary high-pass cut,
* ``sqrt_one_minus_phi_sq``  -- the energy-split high weight, so that
  phi^2 + (sqrt(1-phi^2))^2 = 1 pointwise and the two parts split the L2
  energy exactly,
* ``chi``                    -- a weighted low-pass: r^(1/2+2a) * phi(r) below
  the knee r = 1/2 + a and (1/2+a)^(1/2+2a) * phi(r) above it, for a weight
  exponent a in (0, 1/8).

The module also provides the quadrature constant bounding L^m norms of the
low part by the chi-weighted L2 norm, a Bernstein-type margin check, and the
two pointwise sign certificates used by the energy-decay argument.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .spectral_core import SPECTRAL, VectorField, spectral_derivative

_FD_STEP = 1e-5  # central-difference step for profile derivatives, error O(h^2)

_cache_lock = threading.Lock()
_profile_cache: dict[tuple, np.ndarray] = {}


def _bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) continued by 0 for s <= 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        out[pos] = np.exp(-1.0 / s[pos])
    return out


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """The standard C-infinity step b(s)/(b(s)+b(1-s)): 0 for s<=0, 1 for s>=1."""
    s = np.asarray(s, dtype=float)
    num = _bump(s)
    den = num + _bump(1.0 - s)
    out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class RadialMultiplier:
    """A radial symbol r >= 0 -> [0, C]; `fn` must accept numpy arrays.

    A profile derived from `phi` carries its formula as `of_phi(r, phi(r))`,
    and `fn` applies it to its own evaluation of `phi`.
    """

    label: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    alpha: float | None = None
    sharpness: float = 1.0
    of_phi: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )

    def __call__(self, r: np.ndarray | float) -> np.ndarray:
        return self.fn(np.asarray(r, dtype=float))

    def sq(self, r: np.ndarray | float) -> np.ndarray:
        return self(r) ** 2

    def d_sq_dr(self, r: np.ndarray | float) -> np.ndarray:
        """Central-difference derivative of the squared profile (O(h^2))."""
        r = np.asarray(r, dtype=float)
        h = _FD_STEP
        return (self.sq(r + h) - self.sq(np.maximum(r - h, 0.0))) / (
            (r + h) - np.maximum(r - h, 0.0)
        )


def _from_phi(phi: RadialMultiplier, label: str, of_phi, alpha=None) -> RadialMultiplier:
    """The profile r -> of_phi(r, phi(r))."""

    def fn(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return of_phi(r, phi(r))

    return RadialMultiplier(
        label=label, fn=fn, alpha=alpha, sharpness=phi.sharpness, of_phi=of_phi
    )


def build_phi(transition_sharpness: float = 1.0) -> RadialMultiplier:
    """Smooth low-pass profile: 1 on r <= 1, 0 on r >= 2, nonincreasing.

    `transition_sharpness` in (0, 1] is the fraction of [1, 2] used for the
    transition (measured from r = 2 backwards); values above 1 would erode the
    inner plateau and are rejected.
    """
    w = float(transition_sharpness)
    if not 0.0 < w <= 1.0:
        raise ValueError(f"transition sharpness must lie in (0, 1], got {w}")

    def fn(r: np.ndarray) -> np.ndarray:
        return _smoothstep((2.0 - np.asarray(r, dtype=float)) / w)

    return RadialMultiplier(label="phi", fn=fn, sharpness=w)


def check_alpha(alpha: float) -> float:
    """The weight exponent as a float; ValueError unless 0 < alpha < 1/8."""
    a = float(alpha)
    if not 0.0 < a < 0.125:
        raise ValueError(f"alpha must lie in (0, 1/8), got {a}")
    return a


def build_chi(phi: RadialMultiplier, alpha: float) -> RadialMultiplier:
    """Weighted low-pass profile with knee at r = 1/2 + alpha.

    Equals r^(1/2+2a)*phi(r) below the knee and (1/2+a)^(1/2+2a)*phi(r) above
    it; the two branches match continuously at the knee.
    """
    a = check_alpha(alpha)
    knee = 0.5 + a
    exponent = 0.5 + 2.0 * a

    def of_phi(r: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.minimum(r, knee) ** exponent * p

    return _from_phi(phi, "chi", of_phi, alpha=a)


def _one_minus(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    return 1.0 - p


def _sqrt_one_minus_sq(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    # (1-phi)(1+phi) is better conditioned near phi = 1 than 1 - phi^2.
    return np.sqrt(np.clip((1.0 - p) * (1.0 + p), 0.0, None))


class Profiles(NamedTuple):
    """The four profiles of a MultiplierSet evaluated at the same radii."""

    phi: np.ndarray
    chi: np.ndarray
    one_minus_phi: np.ndarray
    sqrt_one_minus_phi_sq: np.ndarray


@dataclass(frozen=True)
class MultiplierSet:
    """The four profiles of the bank for one weight exponent alpha."""

    alpha: float
    phi: RadialMultiplier
    chi: RadialMultiplier
    one_minus_phi: RadialMultiplier
    sqrt_one_minus_phi_sq: RadialMultiplier

    @classmethod
    def build(cls, alpha: float, transition_sharpness: float = 1.0) -> "MultiplierSet":
        phi = build_phi(transition_sharpness)
        return cls(
            alpha=float(alpha),
            phi=phi,
            chi=build_chi(phi, alpha),
            one_minus_phi=_from_phi(phi, "one_minus_phi", _one_minus),
            sqrt_one_minus_phi_sq=_from_phi(phi, "sqrt_one_minus_phi_sq", _sqrt_one_minus_sq),
        )

    def profiles(self, r: np.ndarray) -> Profiles:
        """All four profiles at the radii `r`, from one evaluation of `phi`.

        Each value equals the profile's own evaluation at the same radius.
        """
        r = np.asarray(r, dtype=float)
        p = self.phi(r)
        return Profiles(
            phi=p,
            chi=self.chi.of_phi(r, p),
            one_minus_phi=self.one_minus_phi.of_phi(r, p),
            sqrt_one_minus_phi_sq=self.sqrt_one_minus_phi_sq.of_phi(r, p),
        )


def evaluate_on_grid(mult: RadialMultiplier, grid) -> np.ndarray:
    """Profile evaluated at |k| over the grid lattice.

    Values are cached for the most recent lattice (n, L) only, so fields on a
    sequence of boxes (such as `similarity_frame.build_w_field` makes) keep
    the cache bounded.
    """
    lattice = (grid.n, grid.box_length)
    key = lattice + (mult.label, mult.alpha, mult.sharpness)
    with _cache_lock:
        hit = _profile_cache.get(key)
    if hit is not None:
        return hit
    values = mult(grid.k_mag)
    with _cache_lock:
        if any(cached[:2] != lattice for cached in _profile_cache):
            _profile_cache.clear()
        _profile_cache[key] = values
    return values


def apply(mult: RadialMultiplier, field: VectorField) -> VectorField:
    """Multiply the coefficients by profile(|k|)."""
    field.require(SPECTRAL)
    weights = evaluate_on_grid(mult, field.grid)
    return VectorField(field.grid, field.data * weights, SPECTRAL)


def hausdorff_young_constant(alpha: float, m: float) -> float:
    """Quadrature constant C(alpha, m) with ||low f||_m <= C ||chi-low f||_2.

    C = (2 pi)^(3/m') * ( int_{|xi|<=2} |xi|^(-(1/2+2a)*2m'/(2-m')) dxi )^((2-m')/(2m'))
    with the conjugate exponent 1/m + 1/m' = 1; for m = inf take m' = 1.  The
    volume integral reduces to 4 pi * int_0^2 r^(2-p) dr, evaluated here with
    adaptive quadrature (scipy.integrate, imported on first use so that a run
    never loads it).
    """
    from scipy.integrate import quad

    a = check_alpha(alpha)
    if m != math.inf and m < 4:
        raise ValueError(f"norm order must satisfy m >= 4, got {m}")
    m_conj = 1.0 if m == math.inf else m / (m - 1.0)
    q = 2.0 * m_conj / (2.0 - m_conj)
    p = (0.5 + 2.0 * a) * q
    if p >= 3.0:
        raise ValueError(f"radial exponent p={p} is not integrable in 3-d")
    radial, _ = quad(lambda r: r ** (2.0 - p), 0.0, 2.0, limit=200)
    integral = 4.0 * np.pi * radial
    exponent = (2.0 - m_conj) / (2.0 * m_conj)
    return float((2.0 * np.pi) ** (3.0 / m_conj) * integral**exponent)


def check_bernstein(mults: MultiplierSet, field: VectorField, beta: tuple[int, int, int]) -> float:
    """Margin ||D^b split-high f||^2 - ||D^b high f||^2 (must be >= -1e-12 scale).

    Pointwise (1-phi)^2 <= 1-phi^2, so the margin is nonnegative up to
    roundoff for every derivative multi-index with |beta| <= 2.
    """
    if sum(beta) > 2:
        raise ValueError(f"margin check supports |beta| <= 2, got {beta}")
    deriv = spectral_derivative(field, beta)
    g = field.grid
    power = np.sum(np.abs(deriv.data) ** 2, axis=0)
    w_high = evaluate_on_grid(mults.one_minus_phi, g) ** 2
    w_split = evaluate_on_grid(mults.sqrt_one_minus_phi_sq, g) ** 2
    return g.volume * float(np.sum((w_split - w_high) * power))


def _chi_sq_derivative(mults: MultiplierSet, r: np.ndarray) -> np.ndarray:
    """d(chi^2)/dr on [0, 1], where phi == 1 so both branches are closed-form."""
    a = mults.alpha
    knee = 0.5 + a
    return np.where(r < knee, (1.0 + 4.0 * a) * np.maximum(r, 0.0) ** (4.0 * a), 0.0)


def sign_certificate_A(alpha: float, r_grid: np.ndarray | None = None) -> float:
    """Max over r in [0,1] of the low-range bracket; certified <= 0.

    bracket(r) = (1/4) r d(-chi^2)/dr - r^2 chi^2 + (1/4 + alpha) chi^2.
    On the power branch the algebra collapses to -r^(3+4a) exactly.
    """
    mults = MultiplierSet.build(alpha)
    if r_grid is None:
        r_grid = np.linspace(0.0, 1.0, 10_001)
    r = np.asarray(r_grid, dtype=float)
    if r.min() < 0.0 or r.max() > 1.0:
        raise ValueError("the low-range certificate is defined on r in [0, 1]")
    chi_sq = mults.chi.sq(r)
    bracket = -0.25 * r * _chi_sq_derivative(mults, r) + (0.25 + alpha - r**2) * chi_sq
    return float(np.max(bracket))


def sign_certificate_B(alpha: float, r_grid: np.ndarray | None = None) -> float:
    """Max over r in [1,2] of the transition-range bracket; certified <= 0.

    bracket(r) = (1/4)(1 - c) r d(phi^2)/dr - (r^2 - (1/4 + alpha)) c phi^2
    with c = (1/2 + alpha)^(1 + 4 alpha).  Both terms are nonpositive: the
    profile is nonincreasing and r^2 >= 1 > 1/4 + alpha.
    """
    mults = MultiplierSet.build(alpha)
    if r_grid is None:
        r_grid = np.linspace(1.0, 2.0, 10_001)
    r = np.asarray(r_grid, dtype=float)
    if r.min() < 1.0 or r.max() > 2.0:
        raise ValueError("the transition-range certificate is defined on r in [1, 2]")
    c = (0.5 + alpha) ** (1.0 + 4.0 * alpha)
    dphi_sq = mults.phi.d_sq_dr(r)
    bracket = 0.25 * (1.0 - c) * r * dphi_sq - (r**2 - (0.25 + alpha)) * c * mults.phi.sq(r)
    return float(np.max(bracket))
