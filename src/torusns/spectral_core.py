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
`half_to_spectral`, skipping the columns that are zero outside the band.
The complex passes along axes -3 and -2 are pocketfft's; the real pass along
-1 touches only the band's c + 1 of the n//2 + 1 columns, so it is one
matrix product with a real DFT matrix of those columns
(`_real_axis_matrices`), which numpy hands to BLAS.  The pair agrees with
the half-spectrum pair to roundoff, not bit for bit; the half-spectrum pair
is kept only as that reference.

The band products, the advection term -div(u (x) u - u2^2 I)
(`stress_product`) and the gradient contraction with F[(u . grad) u]
(`nonlinear_integrals`), run over x1-slabs of the lattice:
`_physical_slabs` runs the -3 pass of `band_to_physical` on the band
columns of every field first, then the -2 and -1 passes slab by slab, and
`_BandAccumulator` runs the -1 and -2 passes of `band_to_spectral` slab by
slab, then the -3 pass; `band_to_spectral` itself runs them in the same
order.  A slab holds at most `_SLAB_BYTES` of samples, and both products
size their slabs for nine live components, so at n >= 48 no product holds
a lattice-sized temporary; at n <= 32 one slab covers the box, and the pair
is `band_to_physical` and `band_to_spectral`, called in the same order and
freeing their buffers in the same order as whole-lattice code.  Either way
the samples and bands are the same bit for bit; only the quadrature sums of
`nonlinear_integrals`, taken slab by slab, round differently at n >= 48.

A band transform below is one call of the band pair, whole or over slabs,
of a 3-vector or of the stress's five components.  The advection term is
taken in stress-divergence form: for a divergence-free band field under
the two-thirds rule, P[-div(u (x) u - u2^2 I)] equals P[u x curl u]
exactly, since both products are alias-free and they differ by a gradient.
It needs the samples of u alone, so the RK4 step of `ns_dynamics` makes 4
inverse and 4 forward band transforms: the state's samples and its
product, which the first stage projects, and one of each per later stage.
Both routes of a `similarity_frame` ledger row make 7 inverse transforms
(the three rows of the gradient tensor, the phi, chi and sqrt(1 - phi^2)
filtered fields and the curl of the high part) and 1 forward one
(F[(u . grad) u]) per row, all in the scaling route.  The multiplier route
reads the state's samples, its product and the scaling route's low part,
and transforms nothing itself.  A row makes no complex transform and writes
no full lattice: its u columns are band sums and max|u|.  `norms` of the
full-spectrum field, with its one `to_physical`, is the reference that
`ns_dynamics.run` checks the u columns of a run's first row against.  The
band kernels are the module's only
nonlinear computation: a caller holding a full-spectrum field takes its band
with `gather_band` and calls them itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat

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


def check_box_length(n: int, box_length: float) -> None:
    """ValueError unless the volume, cell volume and max_wavenumber**2 of an
    n^3 box of side `box_length`, computed as `SpectralGrid` and `cfl_dt` of
    `ns_dynamics` compute them, are positive finite floats."""
    L = float(box_length)
    try:
        sizes = (L**3, (L / n) ** 3, (math.sqrt(3.0) * math.pi * n / L) ** 2)
    except (OverflowError, ZeroDivisionError):
        sizes = (math.inf,)
    if not all(0.0 < size < math.inf for size in sizes):
        raise ValueError(
            f"box length {box_length!r} at n={n} gives a volume, cell volume or"
            " max_wavenumber**2 that is not a positive finite float"
        )


def wavenumbers(n: int, box_length: float) -> np.ndarray:
    """The wavenumbers (2 pi / L) m of one axis of the n^3 lattice, in FFT order."""
    m1 = np.fft.fftfreq(n, d=1.0 / n)  # integer modes 0..n/2-1, -n/2..-1
    return (2.0 * np.pi / float(box_length)) * m1


@dataclass(frozen=True)
class SpectralGrid:
    """
    Pre-computed spectral quantities for a cubic periodic domain.

    Parameters
    ----------
    n : int
        Collocation points per dimension.  Must be even and at least 8.
    box_length : float
        Physical side length L of the box; `check_box_length` must pass.

    The grid holds the wavevector components `k` as three broadcastable
    axes, |k|^2 on the full lattice as `k_sq`, its one n^3 array, and the
    dealias band's geometry `band`.  A reader that needs |k|, the stacked
    wavevectors or the dealias mask derives them where it needs them.
    """

    n: int
    box_length: float

    def __post_init__(self) -> None:
        check_grid_size(self.n)
        check_box_length(self.n, self.box_length)

        n, L = self.n, float(self.box_length)
        k1 = wavenumbers(n, L)
        shapes = [(n, 1, 1), (1, n, 1), (1, 1, n)]
        k = [k1.reshape(s) for s in shapes]
        k_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
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
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "dx", L / n)
        object.__setattr__(self, "cell_volume", (L / n) ** 3)
        object.__setattr__(self, "volume", L**3)

    @property
    def num_modes(self) -> int:
        return self.n**3

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


def zero_field(grid: SpectralGrid, representation: str = SPECTRAL) -> VectorField:
    dtype = np.complex128 if representation == SPECTRAL else np.float64
    return VectorField(grid, np.zeros((3, grid.n, grid.n, grid.n), dtype=dtype), representation)


def to_spectral(field: VectorField) -> VectorField:
    """Forward transform of a physical field; fhat(k) = DFT[f]/n^3."""
    field.require(PHYSICAL)
    coef = scipy.fft.fftn(field.data, axes=(1, 2, 3)) / field.grid.num_modes
    return VectorField(field.grid, coef, SPECTRAL)


def to_physical(field: VectorField) -> VectorField:
    """Inverse transform, one component at a time, so it holds one complex
    component beside its result; discards the roundoff-level imaginary part."""
    field.require(SPECTRAL)
    out = np.empty(field.data.shape)
    for component, coef in zip(out, field.data):
        vals = scipy.fft.ifftn(coef)
        vals *= field.grid.num_modes
        component[...] = vals.real
        del vals  # so the next component's transform can take its memory
    return VectorField(field.grid, out, PHYSICAL)


def half_to_spectral(values: np.ndarray) -> np.ndarray:
    """Forward real transform of (..., n, n, n) samples to the half spectrum.

    The result has shape (..., n, n, n//2 + 1): the modes with m3 >= 0 of the
    module normalization; the others follow from coef(-k) = conj(coef(k)).
    Leading axes (vector and tensor components) are transformed as a batch.
    No computation uses it: it is the unpruned reference that
    `band_to_spectral` is tested against, to roundoff.
    """
    return scipy.fft.rfftn(values, axes=(-3, -2, -1), norm="forward")


def half_to_physical(coef: np.ndarray, n: int) -> np.ndarray:
    """Inverse real transform of half-spectrum coefficients to (..., n, n, n) samples.

    No computation uses it: it is the unpruned reference that
    `band_to_physical` is tested against, to roundoff.
    """
    return scipy.fft.irfftn(coef, s=(n, n, n), axes=(-3, -2, -1), norm="forward")


def band_to_physical(coef: np.ndarray, n: int) -> np.ndarray:
    """Inverse real transform of dealias-band coefficients (..., K, K, c + 1)
    to (..., n, n, n) samples.

    The one-dimensional transforms of `half_to_physical` in its order: along
    axis -3 on the band's (m2, m3) columns only, along -2 on its m3 columns
    only, then the real transform along -1 of those c + 1 columns as one
    `matmul`, which pads nothing.  The result equals
    `half_to_physical` of the same modes to roundoff.
    """
    return _inverse_planes(_inverse_columns(coef, n), n)


def _inverse_columns(coef: np.ndarray, n: int) -> np.ndarray:
    """The pass along axis -3 of `band_to_physical`: the (..., n, K, c + 1)
    band columns, each a function of x1."""
    c = band_cutoff(n)
    lead = coef.shape[:-3]
    cols = np.empty(lead + (n, 2 * c + 1, c + 1), dtype=np.complex128)
    cols[..., : c + 1, :, :] = coef[..., : c + 1, :, :]
    cols[..., c + 1 : n - c, :, :] = 0.0
    cols[..., n - c :, :, :] = coef[..., c + 1 :, :, :]
    return scipy.fft.ifft(cols, axis=-3, norm="forward", overwrite_x=True)


def _inverse_planes(cols: np.ndarray, n: int) -> np.ndarray:
    """The passes along -2 and -1 of `band_to_physical`, on the x1-planes
    of the columns `cols` (..., w, K, c + 1): their (..., w, n, n) samples.
    The pass along -2 runs on the c + 1 columns alone, and the one along -1
    is the product of their real and imaginary parts with the inverse
    matrix of `_real_axis_matrices`.  Drops the caller's columns before
    transforming, when it passed the only reference."""
    c = band_cutoff(n)
    head = np.empty(cols.shape[:-2] + (n, c + 1), dtype=np.complex128)
    head[..., : c + 1, :] = cols[..., : c + 1, :]
    head[..., c + 1 : n - c, :] = 0.0
    head[..., n - c :, :] = cols[..., c + 1 :, :]
    del cols
    head = scipy.fft.ifft(head, axis=-2, norm="forward", overwrite_x=True)
    return _real_axis_product(head.view(np.float64), _real_axis_matrices(n)[0])


def band_to_spectral(values: np.ndarray) -> np.ndarray:
    """Forward real transform of (..., n, n, n) samples to the dealias band.

    The one-dimensional transforms of `half_to_spectral`, in the order
    -1, -2, -3: the real transform along -1 to the band's m3 columns only,
    scaled by 1/n^3, as one `matmul`, then along -2 on those columns,
    keeping the band rows, then along -3, keeping the band.  The result
    equals `half_to_spectral` restricted to the band to roundoff; it is also
    the dealiased transform.
    """
    return _forward_columns(_forward_planes(values))


def _forward_planes(values: np.ndarray) -> np.ndarray:
    """The passes along -1 and -2 of `band_to_spectral`, on the x1-planes
    of `values` (..., w, n, n): their (..., w, K, c + 1) band columns.  The
    pass along -1, with its 1/n^3 scale, is the product with the forward
    matrix of `_real_axis_matrices`, read as complex numbers; the pass
    along -2 runs on its c + 1 columns and keeps the band rows."""
    n = values.shape[-1]
    c = band_cutoff(n)
    head = _real_axis_product(values, _real_axis_matrices(n)[1]).view(np.complex128)
    head = scipy.fft.fft(head, axis=-2, overwrite_x=True)
    return np.concatenate((head[..., : c + 1, :], head[..., n - c :, :]), axis=-2)


@functools.lru_cache(maxsize=8)
def _real_axis_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The real DFT matrices of the band's m3 columns 0..c of an n^3 box, read-only.

    `inverse` (2(c + 1), n) maps the interleaved real and imaginary parts
    of the columns to samples along axis -1, as `irfft` with
    norm="forward" does on a half spectrum that is zero past c: weight 1 on
    m3 = 0, whose imaginary part it drops, and 2 above it.  `forward`
    (n, 2(c + 1)) maps samples to those parts of `rfft` scaled by 1/n^3.
    """
    c = band_cutoff(n)
    # (m j) mod n keeps every angle in [0, 2 pi): no large argument loses digits
    angle = (2.0 * np.pi / n) * (np.outer(np.arange(c + 1), np.arange(n)) % n)
    parts = np.empty((c + 1, 2, n))
    parts[:, 0] = np.cos(angle)
    parts[:, 1] = -np.sin(angle)
    forward = np.ascontiguousarray(parts.reshape(2 * (c + 1), n).T * (1.0 / n**3))
    parts[1:] *= 2.0
    parts[0, 1] = 0.0
    inverse = parts.reshape(2 * (c + 1), n)
    for matrix in (inverse, forward):
        matrix.flags.writeable = False
    return inverse, forward


def _real_axis_product(values: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """values @ matrix, which numpy runs as one BLAS product per x1-plane
    of `values`; at n >= 32 that measured faster than one product over all
    planes (OpenBLAS, one thread).  `TrajectoryState.max_speed` reports a
    non-finite state, so the product does not warn of one."""
    with np.errstate(invalid="ignore", over="ignore"):
        return values @ matrix


def _forward_columns(cols: np.ndarray) -> np.ndarray:
    """The pass along -3 of `band_to_spectral`, on the band columns `cols`
    (..., n, K, c + 1) of every x1-plane, which it overwrites: the band."""
    n = cols.shape[-3]
    c = band_cutoff(n)
    cols = scipy.fft.fft(cols, axis=-3, overwrite_x=True)
    return np.concatenate((cols[..., : c + 1, :, :], cols[..., n - c :, :, :]), axis=-3)


#: The bytes of real samples that one x1-slab of `_physical_slabs` holds at
#: most.  At n <= 32 one slab covers the box for up to nine components, so
#: those runs transform whole lattices; at n = 64 a slab of nine components,
#: the size both band products ask for, holds 8 x1-planes.
_SLAB_BYTES = 5 * 2**19


def _physical_slabs(n: int, count: int, groups):
    """The samples of band 3-vector fields (3, K, K, c + 1) of an n^3 box,
    x1-slab by x1-slab, in slabs sized for `count` 3-vectors of samples.

    `groups` yields the fields, at most `count` of them and possibly none;
    each is taken only when its transform runs and dropped after it.
    Yields (slab, samples) for consecutive slices `slab` of the lattice's
    first axis, each as wide as `_SLAB_BYTES` allows for 3 * count
    components; `samples` is an iterator that transforms
    the groups in turn to their (3, w, n, n) samples on the slab, so a
    caller that drops each group's samples after use holds one at a time.
    When one slab covers the box, each group goes through `band_to_physical`
    whole; otherwise the -3 pass of every group runs first and each slab
    runs the -2 and -1 passes of its planes.  Either way the samples are
    those of `band_to_physical`, bit for bit.
    """
    width = max(1, _SLAB_BYTES // (3 * count * n * n * np.dtype(np.float64).itemsize))
    if width >= n:
        yield slice(0, n), map(band_to_physical, groups, repeat(n))
        return
    columns = list(map(_inverse_columns, groups, repeat(n)))
    for start in range(0, n, width):
        slab = slice(start, min(start + width, n))
        yield slab, (_inverse_planes(cols[..., slab, :, :], n) for cols in columns)
    columns.clear()  # the last slab's iterator holds the list, not the columns


class _BandAccumulator:
    """The dealias band of a field of n^3 samples that arrive x1-slab by
    x1-slab, as `_physical_slabs` yields them.

    `add(slab, values)` runs the -1 and -2 passes of `band_to_spectral` on
    the slab's samples `values` (..., w, n, n) and keeps their (..., w, K,
    c + 1) band columns; `band()` then runs the -3 pass.  Samples that
    cover the box go through `band_to_spectral` whole.  Either way the band
    is that of `band_to_spectral` of all the samples, bit for bit.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.columns = None
        self.whole = None

    def add(self, slab: slice, values: np.ndarray) -> None:
        n = self.n
        if values.shape[-3] == n:
            self.whole = band_to_spectral(values)
            return
        planes = _forward_planes(values)
        if self.columns is None:
            shape = values.shape[:-3] + (n,) + planes.shape[-2:]
            self.columns = np.empty(shape, dtype=np.complex128)
        self.columns[..., slab, :, :] = planes

    def band(self) -> np.ndarray:
        if self.whole is not None:
            return self.whole
        return _forward_columns(self.columns)


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
    kvec = np.stack(np.broadcast_arrays(*g.k))
    return VectorField(g, project_coefficients(field.data, kvec, g.k_sq), SPECTRAL)


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
    """Zero every mode outside the dealias band: |m| > band_cutoff(n) on any axis."""
    field.require(SPECTRAL)
    n, c = field.grid.n, band_cutoff(field.grid.n)
    kept = np.ones(n, dtype=bool)
    kept[c + 1 : n - c] = False
    mask = kept[:, None, None] & kept[:, None] & kept
    return VectorField(field.grid, field.data * mask, SPECTRAL)


@dataclass(frozen=True)
class NormSuite:
    """Norm bundle for one field: L2/H1/H2 squared seminorms, sup, and L4."""

    l2_sq: float
    h1_sq: float
    h2_sq: float
    sup: float
    l4: float


def norms(field: VectorField) -> NormSuite:
    """Compute the norm suite of a spectral field.

    L2/H1/H2 come from Plancherel sums over the coefficients; the sup and L4
    norms are evaluated on the collocation grid (no over-sampling), which
    costs one `to_physical`.  A run calls it once, on its first ledger row,
    as the full-lattice reference for the row's u columns.  The power
    |coef|^2 and the squared magnitude of the samples are each summed one
    component at a time (`_component_power`).
    """
    field.require(SPECTRAL)
    g = field.grid
    mag_sq = _component_power(to_physical(field).data)
    sup = float(np.sqrt(np.max(mag_sq)))
    l4 = float((np.sum(mag_sq**2) * g.cell_volume) ** 0.25)
    power = _component_power(field.data)
    l2_sq = g.volume * float(np.sum(power))
    h1_sq = g.volume * float(np.sum(g.k_sq * power))
    h2_sq = g.volume * float(np.sum(g.k_sq**2 * power))
    return NormSuite(l2_sq=l2_sq, h1_sq=h1_sq, h2_sq=h2_sq, sup=sup, l4=l4)


def _component_power(values: np.ndarray) -> np.ndarray:
    """np.sum(np.abs(values) ** 2, axis=0) bit for bit, accumulated one
    component of `values` at a time, in the order of that sum, so it holds
    one component's temporaries instead of all of them."""
    power = np.abs(values[0]) ** 2
    for component in values[1:]:
        power += np.abs(component) ** 2
    return power


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


#: The stress tensor T = u (x) u - u2^2 I as its five free components, in the
#: order `_stress` stores them (T22 = 0), and row i of T as indices into them.
_STRESS_ROWS = ((0, 2, 3), (2, 1, 4), (3, 4))


def _stress(u: np.ndarray) -> np.ndarray:
    """The five components (u0^2 - u2^2, u1^2 - u2^2, u0 u1, u0 u2, u1 u2) of
    the stress T = u (x) u - u2^2 I from the samples `u` (3, ...)."""
    t = np.empty((5,) + u.shape[1:])
    np.multiply(u[2], u[2], out=t[4])  # u2^2, until the last product
    for i in (0, 1):
        np.multiply(u[i], u[i], out=t[i])
        t[i] -= t[4]
    np.multiply(u[0], u[1], out=t[2])
    np.multiply(u[0], u[2], out=t[3])
    np.multiply(u[1], u[2], out=t[4])
    return t


def stress_product(coef: np.ndarray, k, n: int, u: np.ndarray | None = None) -> np.ndarray:
    """Band coefficients of -div(T), T = u (x) u - u2^2 I, for the real field
    with band coefficients `coef` of an n^3 box on the band wavevectors `k`
    (as in `curl_coefficients`); `u` holds its samples, when the caller has
    them.

    For a divergence-free u, div(u (x) u) = (u . grad) u, so the result is
    the band of -(u . grad) u + grad(u2^2) and of u x curl u - grad(|u|^2 / 2
    - u2^2): it differs from the rotational form only by a gradient, which
    the projection removes.  Both products are alias-free under the
    two-thirds rule.  T is formed from the samples slab by slab, and its
    five components take one forward band transform; lam_i = -i k_j T_ij
    then runs on the band.  Without `u`, one inverse band 3-vector
    transform comes first.  Slabs are sized for about nine live components
    (`_physical_slabs` with count 3: u, T and the forward pass's columns;
    8 x1-planes at n = 64), so at n >= 48 it
    holds no lattice-sized temporary, and the result is the same bit for
    bit at every slab width.
    """
    stress = _BandAccumulator(n)
    for slab, samples in _physical_slabs(n, 3, [coef] if u is None else []):
        stress.add(slab, _stress(next(samples) if u is None else u[:, slab]))
    t = stress.band()
    minus_ik = [-1j * component for component in k]
    lam = np.empty((3,) + t.shape[1:], dtype=np.complex128)
    for out, row in zip(lam, _STRESS_ROWS):
        np.multiply(minus_ik[0], t[row[0]], out=out)
        for ik, m in zip(minus_ik[1:], row[1:]):
            out += ik * t[m]
    return lam


def _advect(u: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """(u . grad) u from the samples of u and of its gradient tensor, summed
    in place in the order u[0] * grads[0] + u[1] * grads[1] + u[2] * grads[2]."""
    out = u[0] * grads[0]
    out += u[1] * grads[1]
    out += u[2] * grads[2]
    return out


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

    Three inverse band 3-vector transforms, the rows of G, and one forward
    one, F[(f . grad) f], run x1-slab by x1-slab through `_physical_slabs`
    and `_BandAccumulator`.  Each slab holds all nine components of G, since
    tr(G^T G G) needs every one of them at each point; the triple product
    and its majorant are summed slab by slab, and (f . grad) f goes into the
    accumulator.  So at n >= 48 no (3, 3, n, n, n) tensor is built, and the
    two sums round differently from sums over the whole tensor; at n <= 32
    one slab covers the box and they are the whole tensor's.
    """
    n = u.shape[-1]
    cell = volume / n**3
    triple = magnitude = 0.0
    advection = _BandAccumulator(n)
    for slab, rows in _physical_slabs(n, 3, (1j * k * coef for k in kvec)):
        grads = np.empty((3, 3, slab.stop - slab.start, n, n))
        for j in range(3):
            grads[j] = next(rows)
        triple += float(np.einsum("jkxyz,jlxyz,lkxyz->", grads, grads, grads))
        magnitude += float(np.sum(np.einsum("jkxyz,jkxyz->xyz", grads, grads) ** 1.5))
        advection.add(slab, _advect(u[:, slab], grads))
    conv_hat = advection.band()
    w4 = np.sum(kvec**2, axis=0) ** 2
    coupling = volume * band_sum(w4 * np.sum(np.real(coef * np.conj(conv_hat)), axis=0))
    lap_f = volume * band_sum(w4 * np.sum(np.abs(coef) ** 2, axis=0))
    lap_c = volume * band_sum(w4 * np.sum(np.abs(conv_hat) ** 2, axis=0))
    return (triple * cell, magnitude * cell), (coupling, float(np.sqrt(lap_f * lap_c)))


def rotational_integrals(
    coef: np.ndarray, lam: np.ndarray, k, volume: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two integrals of `nonlinear_integrals`, in rotational form.

    For a divergence-free f, integration by parts turns the triple product
    into -int ((f . grad) f) . Lap f dx, and (f . grad) f = grad(|f|^2 / 2)
    - f x curl f, whose gradient part pairs to zero with any divergence-free
    field.  So with lam the band coefficients of f x curl f, or of any
    field that differs from it by a gradient, both integrals are Plancherel
    sums:

        triple = -V sum |k|^2 Re(conj(coef) . lam),
        coupling = -V sum |k|^4 Re(conj(coef) . lam),

    each bounded by Cauchy-Schwarz over the band.  The lam of
    `stress_product`, -div(f (x) f - f2^2 I), is such a field: it is
    f x curl f - grad(|f|^2 / 2 - f2^2).  The pairing does not see the
    gradient; the majorants, which take |lam|, do.  No transform: `lam` is
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

