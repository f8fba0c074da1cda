"""Radial Fourier multipliers and the frequency-split operators built on them.

One smooth low-pass profile `phi` (identically 1 inside radius 1, identically
0 outside radius 2, nonincreasing) generates the whole bank.  The profiles
are the fields of `Profiles`, and `MultiplierSet.profiles` is the one place
that evaluates them, from a single evaluation of `phi`:

* ``phi``                    -- low-pass cut (operator: low part of a field),
* ``one_minus_phi``          -- the complementary high-pass cut,
* ``sqrt_one_minus_phi_sq``  -- the energy-split high weight, so that
  phi^2 + (sqrt(1-phi^2))^2 = 1 pointwise and the two parts split the L2
  energy exactly,
* ``chi``                    -- a weighted low-pass: r^(1/2+2a) * phi(r) below
  the knee r = 1/2 + a and (1/2+a)^(1/2+2a) * phi(r) above it, for the weight
  exponent a in (0, 1/8) that a `MultiplierSet` holds.

`evaluate_on_grid` and `apply` take a profile by its field name.  The module
also provides the quadrature constant bounding L^m norms of the low part by
the chi-weighted L2 norm, a Bernstein-type margin check, and the two
pointwise sign certificates used by the energy-decay argument.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral_core import VectorField, spectral_derivative

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


def phi(r: np.ndarray | float) -> np.ndarray:
    """Smooth low-pass profile: 1 on r <= 1, 0 on r >= 2, nonincreasing."""
    return _smoothstep(2.0 - np.asarray(r, dtype=float))


def check_alpha(alpha: float) -> float:
    """The weight exponent as a float; ValueError unless 0 < alpha < 1/8."""
    a = float(alpha)
    if not 0.0 < a < 0.125:
        raise ValueError(f"alpha must lie in (0, 1/8), got {a}")
    return a


class Profiles(NamedTuple):
    """The four profiles of a MultiplierSet evaluated at the same radii."""

    phi: np.ndarray
    chi: np.ndarray
    one_minus_phi: np.ndarray
    sqrt_one_minus_phi_sq: np.ndarray


@dataclass(frozen=True)
class MultiplierSet:
    """The profile bank for one weight exponent alpha, checked when built
    (ValueError unless 0 < alpha < 1/8)."""

    alpha: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", check_alpha(self.alpha))

    def profiles(self, r: np.ndarray | float) -> Profiles:
        """All four profiles at the radii `r`, from one evaluation of `phi`.

        `chi` has its knee at r = 1/2 + alpha: r^(1/2+2a)*phi(r) below it and
        (1/2+a)^(1/2+2a)*phi(r) above it, the branches matching at the knee.
        """
        r = np.asarray(r, dtype=float)
        p = phi(r)
        knee = 0.5 + self.alpha
        return Profiles(
            phi=p,
            chi=np.minimum(r, knee) ** (0.5 + 2.0 * self.alpha) * p,
            one_minus_phi=1.0 - p,
            # (1-phi)(1+phi) is better conditioned near phi = 1 than 1 - phi^2.
            sqrt_one_minus_phi_sq=np.sqrt(np.clip((1.0 - p) * (1.0 + p), 0.0, None)),
        )


def evaluate_on_grid(mults: MultiplierSet, name: str, grid) -> np.ndarray:
    """The profile `name` (a field of Profiles) at |k| over the grid lattice.

    Values are cached for the most recent lattice (n, L) only, so the cache
    stays bounded.  No ledger row calls it (rows evaluate the profiles on the
    band's shells); the cache is kept because the benchmark's traced runs
    read `_profile_cache`.
    """
    lattice = (grid.n, grid.box_length)
    key = lattice + (name, mults.alpha)
    with _cache_lock:
        hit = _profile_cache.get(key)
    if hit is not None:
        return hit
    values = getattr(mults.profiles(np.sqrt(grid.k_sq)), name)
    with _cache_lock:
        if any(cached[:2] != lattice for cached in _profile_cache):
            _profile_cache.clear()
        _profile_cache[key] = values
    return values


def apply(mults: MultiplierSet, name: str, field: VectorField) -> VectorField:
    """Multiply the coefficients by the profile `name` at |k|."""
    weights = evaluate_on_grid(mults, name, field.grid)
    return VectorField(field.grid, field.data * weights)


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
    w_high = evaluate_on_grid(mults, "one_minus_phi", g) ** 2
    w_split = evaluate_on_grid(mults, "sqrt_one_minus_phi_sq", g) ** 2
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
    mults = MultiplierSet(alpha)
    if r_grid is None:
        r_grid = np.linspace(0.0, 1.0, 10_001)
    r = np.asarray(r_grid, dtype=float)
    if r.min() < 0.0 or r.max() > 1.0:
        raise ValueError("the low-range certificate is defined on r in [0, 1]")
    chi_sq = mults.profiles(r).chi ** 2
    bracket = -0.25 * r * _chi_sq_derivative(mults, r) + (0.25 + alpha - r**2) * chi_sq
    return float(np.max(bracket))


def sign_certificate_B(alpha: float, r_grid: np.ndarray | None = None) -> float:
    """Max over r in [1,2] of the transition-range bracket; certified <= 0.

    bracket(r) = (1/4)(1 - c) r d(phi^2)/dr - (r^2 - (1/4 + alpha)) c phi^2
    with c = (1/2 + alpha)^(1 + 4 alpha).  Both terms are nonpositive: the
    profile is nonincreasing and r^2 >= 1 > 1/4 + alpha.
    """
    check_alpha(alpha)
    if r_grid is None:
        r_grid = np.linspace(1.0, 2.0, 10_001)
    r = np.asarray(r_grid, dtype=float)
    if r.min() < 1.0 or r.max() > 2.0:
        raise ValueError("the transition-range certificate is defined on r in [1, 2]")
    c = (0.5 + alpha) ** (1.0 + 4.0 * alpha)
    h = _FD_STEP
    dphi_sq = (phi(r + h) ** 2 - phi(np.maximum(r - h, 0.0)) ** 2) / (
        (r + h) - np.maximum(r - h, 0.0)
    )
    bracket = 0.25 * (1.0 - c) * r * dphi_sq - (r**2 - (0.25 + alpha)) * c * phi(r) ** 2
    return float(np.max(bracket))
