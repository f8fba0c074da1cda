"""Spectral discretization of a periodic box: transforms, differentiation,
dealiasing, divergence-free projection, norms, and the nonlinear integrals.

Conventions
-----------
The box is [0, L)^3 sampled on an n^3 collocation lattice.  Wavenumbers are
k = (2*pi/L) * m with integer mode m in [-n/2, n/2) per axis.  Spectral
coefficients are normalized so that a field expands as

    f(x) = sum_k fhat(k) * exp(i k.x)

which makes the Parseval identity read

    integral |f|^2 dx = L^3 * sum_k |fhat(k)|^2

and derivatives act as fhat(k) -> (i k_j) fhat(k).  Physical-space integrals
use the trapezoidal (here: exact for band-limited fields) quadrature weight
(L/n)^3.

Every function of a VectorField takes it in one representation, spectral
except for `to_spectral`, and raises RepresentationError on the other.
Nothing transforms implicitly: a function that needs physical samples says
so and calls `to_physical` or `band_to_physical` itself.

Besides the full lattice (3, n, n, n) of a VectorField, the coefficients of
a real field have one layout, the dealias band (..., K, K, c + 1): the modes
with m3 >= 0 that the two-thirds rule keeps, |m_j| <= c on every axis, with
c the largest integer such that 3c < n and K = 2c + 1.  Along the first two
axes the kept modes sit in FFT order 0..c, -c..-1.  `gather_band` takes the
band from a full-spectrum field and rejects a field with a coefficient
outside it; `full_spectrum` rebuilds the exactly Hermitian full lattice.
`band_to_physical` and `band_to_spectral` move the band with the
one-dimensional transforms of the half-spectrum pair `half_to_physical` and
`half_to_spectral`, skipping the columns that are zero outside the band, and
agree with that pair bit for bit; the half-spectrum pair is kept only as
that reference.

The RK4 step of `ns_dynamics` runs on the band: 8 inverse and 4 forward band
transforms per step, among them the state's samples and its product
u x omega (`rotational_product`), which the first stage projects.  So do
both routes of a `similarity_frame` ledger row: 7 inverse transforms (the
gradient tensor as three 3-vector batches, the phi, chi and sqrt(1 - phi^2)
filtered fields and the curl of the high part) and 1 forward one
(F[(u . grad) u]) per row, all in the scaling route.  The multiplier route
reads the state's samples, its product and the scaling route's low part,
and transforms nothing itself.  The analytic oracles `convective_product`,
`trilinear_form` and `advective_laplacian_form` gather the band of their
field and run the same kernels, so they check what a run computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

PHYSICAL = "physical"
SPECTRAL = "spectral"


class RepresentationError(ValueError):
    """A field was passed in the wrong representation (physical vs spectral)."""


def band_cutoff(n: int) -> int:
    """The largest mode c with 3c < n: the two-thirds rule keeps |m| <= c on each axis."""
    return (n - 1) // 3


def _band_positions(n: int) -> tuple:
    """Index of the band in the modes m3 >= 0 of a full-spectrum array."""
    c = band_cutoff(n)
    kept = np.concatenate((np.arange(c + 1), np.arange(n - c, n)))
    return (Ellipsis, kept[:, None], kept, slice(0, c + 1))


@dataclass(frozen=True, eq=False)
class DealiasBand:
    """The lattice geometry of the dealias band layout (see the module docstring).

    `coef[positions]` gathers the band from a full-spectrum array, and
    `full[positions] = band` scatters it back.  `k` holds the three
    wavevector components as broadcastable axes of the band, `wavevectors`
    stacks them to (3, K, K, c + 1), and `k_sq` is |k|^2 there.  `shells`
    holds the distinct values of |k| on the band and `shell_index` the
    position of each band mode's value in it, so a radial profile evaluated
    on `shells` and gathered through `shell_index` matches its evaluation on
    the band |k| value for value.
    """

    positions: tuple
    k: tuple[np.ndarray, np.ndarray, np.ndarray]
    wavevectors: np.ndarray
    k_sq: np.ndarray
    shells: np.ndarray
    shell_index: np.ndarray


def check_grid_size(n: int) -> None:
    """ValueError unless n, the collocation points per dimension, is even and >= 8."""
    if n % 2 != 0 or n < 8:
        raise ValueError(f"grid size must be even and >= 8, got n={n}")


@dataclass(frozen=True)
class SpectralGrid:
    """
    Pre-computed spectral quantities for a cubic periodic domain.

    Parameters
    ----------
    n : int
        Collocation points per dimension.  Must be even and at least 8.
    box_length : float
        Physical side length L of the box.
    """

    n: int
    box_length: float

    def __post_init__(self) -> None:
        check_grid_size(self.n)
        if not self.box_length > 0:
            raise ValueError(f"box length must be positive, got {self.box_length}")

        n, L = self.n, float(self.box_length)
        m1 = np.fft.fftfreq(n, d=1.0 / n)  # integer modes 0..n/2-1, -n/2..-1
        k1 = (2.0 * np.pi / L) * m1
        shapes = [(n, 1, 1), (1, n, 1), (1, 1, n)]
        modes = [m1.reshape(s) for s in shapes]
        k = [k1.reshape(s) for s in shapes]
        k_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        mask = (3 * np.abs(modes[0]) < n) & (3 * np.abs(modes[1]) < n) & (3 * np.abs(modes[2]) < n)
        # Built here rather than on first use: arrays that live as long as
        # the grid, allocated before the first field, stay out of the way of
        # the step's temporaries in the heap (peak RSS).
        positions = _band_positions(n)
        _, _, kept, planes = positions
        band_k = (k[0][kept], k[1][:, kept], k[2][..., planes])
        band_k_sq = k_sq[positions]
        shells, shell_index = np.unique(np.sqrt(band_k_sq), return_inverse=True)
        band = DealiasBand(
            positions=positions,
            k=band_k,
            wavevectors=np.stack(np.broadcast_arrays(*band_k)),
            k_sq=band_k_sq,
            shells=shells,
            shell_index=shell_index.reshape(band_k_sq.shape),
        )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k_sq", k_sq)
        object.__setattr__(self, "k_mag", np.sqrt(k_sq))
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "dx", L / n)
        object.__setattr__(self, "cell_volume", (L / n) ** 3)
        object.__setattr__(self, "volume", L**3)

    @property
    def num_modes(self) -> int:
        return self.n**3

    @cached_property
    def wavevectors(self) -> np.ndarray:
        """The three wavevector components stacked into one (3, n, n, n) array."""
        return np.stack(np.broadcast_arrays(*self.k))

    @property
    def max_wavenumber(self) -> float:
        """Largest wavenumber magnitude on the lattice, sqrt(3)*pi*n/L."""
        return float(np.sqrt(3.0) * np.pi * self.n / self.box_length)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collocation coordinates as broadcastable 1-axis arrays."""
        x1 = np.arange(self.n) * self.dx
        return x1.reshape(-1, 1, 1), x1.reshape(1, -1, 1), x1.reshape(1, 1, -1)


def make_grid(n: int, box_length: float = 2.0 * np.pi) -> SpectralGrid:
    """Build the spectral grid for an n^3 periodic box of side `box_length`."""
    return SpectralGrid(n=int(n), box_length=float(box_length))


@dataclass
class VectorField:
    """A 3-component field with a physical or spectral representation tag.

    `data` has shape (3, n, n, n): float64 samples when physical, complex128
    coefficients (in the normalization of the module docstring) when spectral.
    """

    grid: SpectralGrid
    data: np.ndarray
    representation: str

    def __post_init__(self) -> None:
        n = self.grid.n
        if self.data.shape != (3, n, n, n):
            raise ValueError(f"expected data shape (3, {n}, {n}, {n}), got {self.data.shape}")
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.representation == PHYSICAL and np.iscomplexobj(self.data):
            raise ValueError("physical fields must hold real data")
        if self.representation == SPECTRAL and not np.iscomplexobj(self.data):
            raise ValueError("spectral fields must hold complex data")

    def require(self, representation: str) -> None:
        """Raise RepresentationError unless the field is in `representation`."""
        if self.representation != representation:
            raise RepresentationError(
                f"expected a {representation} field, got a {self.representation} one"
            )

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.data.copy(), self.representation)


def zero_field(grid: SpectralGrid, representation: str = SPECTRAL) -> VectorField:
    dtype = np.complex128 if representation == SPECTRAL else np.float64
    return VectorField(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=dtype), representation)


def to_spectral(field: VectorField) -> VectorField:
    """Forward transform of a physical field; fhat(k) = DFT[f]/n^3."""
    field.require(PHYSICAL)
    coef = scipy.fft.fftn(field.data, axes=(1, 2, 3)) / field.grid.num_modes
    return VectorField(field.grid, coef, SPECTRAL)


def to_physical(field: VectorField) -> VectorField:
    """Inverse transform; discards the roundoff-level imaginary part."""
    field.require(SPECTRAL)
    vals = scipy.fft.ifftn(field.data, axes=(1, 2, 3))
    vals *= field.grid.num_modes
    return VectorField(field.grid, np.ascontiguousarray(vals.real), PHYSICAL)


def half_to_spectral(values: np.ndarray) -> np.ndarray:
    """Forward real transform of (..., n, n, n) samples to the half spectrum.

    The result has shape (..., n, n, n//2 + 1): the modes with m3 >= 0 of the
    module normalization; the others follow from coef(-k) = conj(coef(k)).
    Leading axes (vector and tensor components) are transformed as a batch.
    No computation uses it: it is the unpruned reference that
    `band_to_spectral` is tested against bit for bit.
    """
    return scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")


def half_to_physical(coef: np.ndarray, n: int) -> np.ndarray:
    """Inverse real transform of half-spectrum coefficients to (..., n, n, n) samples.

    No computation uses it: it is the unpruned reference that
    `band_to_physical` is tested against bit for bit.
    """
    return scipy.fft.irfftn(coef, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def band_to_physical(coef: np.ndarray, n: int) -> np.ndarray:
    """Inverse real transform of dealias-band coefficients (..., K, K, c + 1)
    to (..., n, n, n) samples.

    The one-dimensional transforms of `half_to_physical` in its order: along
    axis -3 on the band's (m2, m3) columns only, along -2 on its m3 columns
    only, in place in the half-spectrum rows, whose columns past c are zero,
    then the real transform along -1, which thus pads nothing itself.  The
    result equals `half_to_physical` of the same modes bit for bit.
    """
    c = band_cutoff(n)
    lead = coef.shape[:-3]
    cols = np.empty(lead + (n, 2 * c + 1, c + 1), dtype=np.complex128)
    cols[..., : c + 1, :, :] = coef[..., : c + 1, :, :]
    cols[..., c + 1 : n - c, :, :] = 0.0
    cols[..., n - c :, :, :] = coef[..., c + 1 :, :, :]
    cols = scipy.fft.ifft(cols, axis=-3, norm="forward", overwrite_x=True)
    rows = np.empty(lead + (n, n, n // 2 + 1), dtype=np.complex128)
    head = rows[..., : c + 1]
    head[..., : c + 1, :] = cols[..., : c + 1, :]
    head[..., c + 1 : n - c, :] = 0.0
    head[..., n - c :, :] = cols[..., c + 1 :, :]
    rows[..., c + 1 :] = 0.0
    del cols
    done = scipy.fft.ifft(head, axis=-2, norm="forward", overwrite_x=True)
    if not np.may_share_memory(done, rows):  # a scipy.fft backend need not work in place
        head[...] = done
    return scipy.fft.irfft(rows, n=n, axis=-1, norm="forward")


def band_to_spectral(values: np.ndarray) -> np.ndarray:
    """Forward real transform of (..., n, n, n) samples to the dealias band.

    The one-dimensional transforms of `half_to_spectral` in its order: the
    real transform along -1, scaled once by 1/n^3 on the band's m3 columns,
    then along -3 on those columns, keeping the band rows, then along -2,
    keeping the band.  The result equals `half_to_spectral` restricted to
    the band bit for bit; it is also the dealiased transform.
    """
    n = values.shape[-1]
    c = band_cutoff(n)
    cols = scipy.fft.rfft(values, axis=-1)[..., : c + 1] * (1.0 / n**3)
    cols = scipy.fft.fft(cols, axis=-3, overwrite_x=True)
    rows = np.concatenate((cols[..., : c + 1, :, :], cols[..., n - c :, :, :]), axis=-3)
    rows = scipy.fft.fft(rows, axis=-2, overwrite_x=True)
    return np.concatenate((rows[..., : c + 1, :], rows[..., n - c :, :]), axis=-2)


_OUTSIDE_BAND_ROUNDOFF = 1e-12


def gather_band(field: VectorField) -> np.ndarray:
    """The coefficients of a spectral field on the dealias band, in the band layout.

    Raises ValueError if a coefficient inside the band is non-finite, and
    if a coefficient outside the band is nonzero: a computation on the band
    would otherwise drop it, or advect it with aliased content.  The message
    says when that coefficient is non-finite.  Roundoff below 1e-12 of the
    largest band coefficient, such as `to_spectral` leaves on the samples of
    a band-limited field, is dropped.
    """
    field.require(SPECTRAL)
    grid = field.grid
    n, c = grid.n, band_cutoff(grid.n)
    coef = field.data[grid.band.positions]
    if not np.isfinite(coef).all():
        raise ValueError(
            f"a non-finite coefficient lies inside the dealias band |m| <= {c} of n={n}"
        )
    data = field.data
    for outside in (data[:, c + 1 : n - c], data[:, :, c + 1 : n - c], data[..., c + 1 : n - c]):
        if outside.any():
            largest = float(np.max(np.abs(outside)))
            if not largest <= _OUTSIDE_BAND_ROUNDOFF * float(np.max(np.abs(coef))):
                if np.isfinite(largest):
                    what = f"coefficient of size {largest:.3g}"
                else:
                    what = f"non-finite coefficient ({largest})"
                raise ValueError(f"a {what} lies outside the dealias band |m| <= {c} of n={n}")
    return coef


def _reflect_modes(planes: np.ndarray) -> np.ndarray:
    """planes[:, -m1, -m2, ...]: index -m lives at position n-m, 0 stays at 0."""
    return np.roll(planes[:, ::-1, ::-1], 1, axis=(1, 2))


def hermitian_band(band: np.ndarray) -> np.ndarray:
    """A copy of the dealias-band coefficients `band` whose plane m3 = 0, its
    own mirror image, is made exactly Hermitian: 0.5 * (P + conj(P[-m1, -m2])).

    It is the band of `full_spectrum(band, n)` bit for bit, and a band that
    is already Hermitian comes back unchanged.
    """
    herm = band.copy()
    herm[..., 0] = 0.5 * (band[..., 0] + np.conj(_reflect_modes(band[..., 0])))
    return herm


def full_spectrum(band: np.ndarray, n: int) -> np.ndarray:
    """The (3, n, n, n) coefficients of the real field with dealias-band
    coefficients `band`; every mode outside the band and its mirror is zero.

    The band is first made exactly Hermitian (`hermitian_band`); the modes
    m3 < 0 are then written as conj(coef(-k)).  The result satisfies
    coef(-k) = conj(coef(k)) bitwise, so `hermitian_defect` reads 0.0.
    """
    positions = _band_positions(n)
    c = band_cutoff(n)
    herm = hermitian_band(band)
    out = np.zeros(band.shape[:1] + (n, n, n), dtype=np.complex128)
    out[positions] = herm
    out[positions[:3] + (slice(n - c, n),)] = np.conj(_reflect_modes(herm[..., c:0:-1]))
    return out


def project_coefficients(coef: np.ndarray, kvec: np.ndarray, k_sq: np.ndarray) -> np.ndarray:
    """Array form of the Leray projection: coef - kvec (kvec . coef) / |k|^2.

    `coef` is (3, ...) and `kvec` stacks the three wavevector components on
    the same lattice, full spectrum or band alike.  The k=0 mode is
    left unchanged.
    """
    k_dot = kvec[0] * coef[0] + kvec[1] * coef[1] + kvec[2] * coef[2]
    k_dot /= np.where(k_sq == 0.0, 1.0, k_sq)
    return coef - kvec * k_dot


def leray_project(field: VectorField) -> VectorField:
    """Project onto divergence-free fields: coef -> (I - k k^T/|k|^2) coef.

    The k=0 mode is left unchanged.  The projection removes any gradient
    component, which is how the pressure term is eliminated.
    """
    field.require(SPECTRAL)
    g = field.grid
    return VectorField(g, project_coefficients(field.data, g.wavevectors, g.k_sq), SPECTRAL)


def spectral_derivative(field: VectorField, beta: tuple[int, int, int]) -> VectorField:
    """Apply the derivative symbol (i k_1)^b1 (i k_2)^b2 (i k_3)^b3.

    Orders up to |beta| <= 3 are supported; the harness never needs more.
    """
    field.require(SPECTRAL)
    if len(beta) != 3 or any(b < 0 for b in beta):
        raise ValueError(f"beta must be three nonnegative integers, got {beta}")
    if sum(beta) > 3:
        raise ValueError(f"derivative order {sum(beta)} exceeds the supported maximum 3")
    g = field.grid
    symbol = np.ones((), dtype=np.complex128)
    for j, b in enumerate(beta):
        if b:
            symbol = symbol * (1j * g.k[j]) ** b
    return VectorField(g, field.data * symbol, SPECTRAL)


def dealias(field: VectorField) -> VectorField:
    """Zero every mode with any axis index 3|m| >= n (two-thirds rule)."""
    field.require(SPECTRAL)
    return VectorField(field.grid, field.data * field.grid.dealias_mask, SPECTRAL)


@dataclass(frozen=True)
class NormSuite:
    """Norm bundle for one field: L2/H1/H2 squared seminorms, sup, and L4."""

    l2_sq: float
    h1_sq: float
    h2_sq: float
    sup: float
    l4: float

    def lm(self, m: float) -> float:
        """The L^m norm for the supported orders m in {4, inf}."""
        if m == 4:
            return self.l4
        if m == np.inf:
            return self.sup
        raise ValueError(f"unsupported norm order m={m}")


def norms(field: VectorField) -> NormSuite:
    """Compute the norm suite of a spectral field.

    L2/H1/H2 come from Plancherel sums over the coefficients; the sup and L4
    norms are evaluated on the collocation grid (no over-sampling), which
    costs one `to_physical`.
    """
    field.require(SPECTRAL)
    phys = to_physical(field)
    g = field.grid
    power = np.sum(np.abs(field.data) ** 2, axis=0)
    l2_sq = g.volume * float(np.sum(power))
    h1_sq = g.volume * float(np.sum(g.k_sq * power))
    h2_sq = g.volume * float(np.sum(g.k_sq**2 * power))
    mag_sq = np.sum(phys.data**2, axis=0)
    sup = float(np.sqrt(np.max(mag_sq)))
    l4 = float((np.sum(mag_sq**2) * g.cell_volume) ** 0.25)
    return NormSuite(l2_sq=l2_sq, h1_sq=h1_sq, h2_sq=h2_sq, sup=sup, l4=l4)


def quadrature_l2_sq(field: VectorField) -> float:
    """L2 norm squared of a spectral field by quadrature of its `to_physical`
    samples (independent of Plancherel)."""
    phys = to_physical(field)
    return float(np.sum(phys.data**2) * field.grid.cell_volume)


def inner_l2(f: VectorField, g: VectorField) -> float:
    """Discrete L2 inner product <f, g> via the spectral coefficients."""
    f.require(SPECTRAL)
    g.require(SPECTRAL)
    return f.grid.volume * float(np.real(np.sum(f.data * np.conj(g.data))))


def divergence_ratio(field: VectorField) -> float:
    """Dimensionless divergence measure: ||k . coef||_2 / ||  |k| coef ||_2.

    Zero for exactly divergence-free fields; ~1 for a pure gradient.  Returns
    0 for the zero field.
    """
    field.require(SPECTRAL)
    g = field.grid
    div = g.k[0] * field.data[0] + g.k[1] * field.data[1] + g.k[2] * field.data[2]
    num = np.sqrt(np.sum(np.abs(div) ** 2))
    den = np.sqrt(np.sum(g.k_sq * np.sum(np.abs(field.data) ** 2, axis=0)))
    if den == 0.0:
        return 0.0
    return float(num / den)


def hermitian_defect(field: VectorField) -> float:
    """Relative deviation from coef(-k) = conj(coef(k)) for a real field."""
    field.require(SPECTRAL)
    flipped = field.data[:, ::-1, ::-1, ::-1]
    # index -m lives at position n-m; rolling by one aligns 0 with 0.
    flipped = np.roll(flipped, 1, axis=(1, 2, 3))
    defect = np.max(np.abs(field.data - np.conj(flipped)))
    scale = np.max(np.abs(field.data))
    if scale == 0.0:
        return 0.0
    return float(defect / scale)


def gradient_tensor(coef: np.ndarray, kvec: np.ndarray, n: int) -> np.ndarray:
    """Samples grads[j, c] = d_j f_c of the real field with band coefficients `coef`.

    `kvec` stacks the three wavevector components on the band of the field's
    box.  Each row j takes one inverse band 3-vector transform into one
    preallocated array: a single 9-component batch would hold three times
    the transforms' staging buffers at once.
    """
    grads = np.empty((3, 3, n, n, n))
    for j in range(3):
        grads[j] = band_to_physical(1j * kvec[j] * coef, n)
    return grads


def _cross(a, b) -> np.ndarray:
    """Componentwise a x b of two 3-vectors; `a` may be three broadcastable arrays."""
    first = a[1] * b[2] - a[2] * b[1]
    out = np.empty((3,) + first.shape, dtype=first.dtype)
    out[0] = first
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def curl_coefficients(coef: np.ndarray, k) -> np.ndarray:
    """The coefficients i k x coef of curl f, on the layout of `coef`; `k` holds
    the three wavevector components there, stacked or as broadcastable axes."""
    return _cross([1j * k[0], 1j * k[1], 1j * k[2]], coef)


def rotational_product(u: np.ndarray, coef: np.ndarray, k) -> np.ndarray:
    """Band coefficients of u x omega, omega = curl u, for the real field with
    samples `u` and band coefficients `coef` on the band wavevectors `k` (as
    in `curl_coefficients`).

    One inverse and one forward band 3-vector transform.  The result is the
    band of the product, which is also its dealiased transform.
    """
    n = u.shape[-1]
    return band_to_spectral(_cross(u, band_to_physical(curl_coefficients(coef, k), n)))


def _advect(u: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """(u . grad) u from the samples of u and of its gradient tensor."""
    return u[0] * grads[0] + u[1] * grads[1] + u[2] * grads[2]


def band_sum(values: np.ndarray) -> float:
    """The full-spectrum sum of a real, even function of k given on the band.

    Every mode with m3 > 0 stands for itself and its mirror -k; the plane
    m3 = 0 is its own mirror image and counts once.
    """
    return float(np.sum(values[..., 0]) + 2.0 * np.sum(values[..., 1:]))


def nonlinear_integrals(
    coef: np.ndarray, u: np.ndarray, kvec: np.ndarray, volume: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The gradient triple product and the Laplacian coupling, each with its majorant.

    `coef` holds the band coefficients of a real field f, `u` its samples and
    `kvec` the band wavevectors of a box of volume `volume`.  With
    G[j, c] = d_j f_c, the triple product sum_{j,k,l} int d_j f_k d_j f_l d_l f_k dx
    is the contraction int tr(G^T G G) dx, bounded by int |G|^3 dx; collocation
    quadrature is exact for it while 3 * max_mode < n.  The coupling
    int (Lap f) . Lap((f . grad) f) dx pairs |k|^4 under Plancherel and is
    bounded by Cauchy-Schwarz over the band.  Returns
    ((triple, majorant), (coupling, majorant)).
    """
    n = u.shape[-1]
    cell = volume / n**3
    grads = gradient_tensor(coef, kvec, n)
    triple = float(np.einsum("jkxyz,jlxyz,lkxyz->", grads, grads, grads)) * cell
    mag_cubed = np.einsum("jkxyz,jkxyz->xyz", grads, grads) ** 1.5
    conv_hat = band_to_spectral(_advect(u, grads))
    w4 = np.sum(kvec**2, axis=0) ** 2
    coupling = volume * band_sum(w4 * np.sum(np.real(coef * np.conj(conv_hat)), axis=0))
    lap_f = volume * band_sum(w4 * np.sum(np.abs(coef) ** 2, axis=0))
    lap_c = volume * band_sum(w4 * np.sum(np.abs(conv_hat) ** 2, axis=0))
    return (triple, float(np.sum(mag_cubed)) * cell), (coupling, float(np.sqrt(lap_f * lap_c)))


def rotational_integrals(
    coef: np.ndarray, lam: np.ndarray, k, volume: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two integrals of `nonlinear_integrals`, in rotational form.

    For a divergence-free f, integration by parts turns the triple product
    into -int ((f . grad) f) . Lap f dx, and (f . grad) f = grad(|f|^2 / 2)
    - f x curl f, whose gradient part pairs to zero with any divergence-free
    field.  With lam = F[f x curl f], the band coefficients that
    `rotational_product` gives, both integrals are Plancherel sums:

        triple = -V sum |k|^2 Re(conj(coef) . lam),
        coupling = -V sum |k|^4 Re(conj(coef) . lam),

    each bounded by Cauchy-Schwarz over the band.  No transform: `lam` is
    an argument, so a caller that already holds the product passes it.
    `coef`, `volume` as in `nonlinear_integrals`; `k` holds the band
    wavevectors, stacked or as three broadcastable axes.  Returns
    ((triple, majorant), (coupling, majorant)).
    """
    k_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    pair = np.sum(np.real(np.conj(coef) * lam), axis=0)
    lam_power = np.sum(np.abs(lam) ** 2, axis=0)
    lap_f = volume * band_sum(k_sq**2 * np.sum(np.abs(coef) ** 2, axis=0))
    triple = -volume * band_sum(k_sq * pair)
    coupling = -volume * band_sum(k_sq**2 * pair)
    tri_scale = float(np.sqrt(lap_f * volume * band_sum(lam_power)))
    lap_scale = float(np.sqrt(lap_f * volume * band_sum(k_sq**2 * lam_power)))
    return (triple, tri_scale), (coupling, lap_scale)


def band_terms(field: VectorField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band coefficients (`gather_band`), samples and band wavevectors of a
    real spectral field.  Raises ValueError for a coefficient outside the band."""
    coef = gather_band(field)
    g = field.grid
    return coef, band_to_physical(coef, g.n), g.band.wavevectors


def convective_product(field: VectorField) -> VectorField:
    """Pointwise advection product (u . grad) u of a real spectral field, in physical space."""
    coef, u, kvec = band_terms(field)
    return VectorField(field.grid, _advect(u, gradient_tensor(coef, kvec, field.grid.n)), PHYSICAL)


def trilinear_form(field: VectorField) -> float:
    """The gradient triple product of a real spectral field; see `nonlinear_integrals`."""
    return nonlinear_integrals(*band_terms(field), field.grid.volume)[0][0]


def advective_laplacian_form(field: VectorField) -> float:
    """The coupling integral int (Lap f) . Lap((f . grad) f) dx of a real spectral field."""
    return nonlinear_integrals(*band_terms(field), field.grid.volume)[1][0]
