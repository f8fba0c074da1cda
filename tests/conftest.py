"""Shared fixtures: random-field factories and the expensive session runs."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import torusns as tn
from torusns.spectral_core import VectorField


def make_random_spectral_field(
    grid,
    rng: np.random.Generator,
    k_min: float = 0.5,
    k_max: float | None = None,
    divergence_free: bool = False,
) -> VectorField:
    """Random real band-limited field: Hermitian coefficients supported on
    k_min < |k| <= k_max, mean-free."""
    if k_max is None:
        k_max = grid.n / 3.0 * 2.0 * np.pi / grid.box_length
    shape = (3, grid.n, grid.n, grid.n)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k_mag = np.sqrt(grid.k_sq)
    mask = (k_mag > k_min) & (k_mag <= k_max)
    raw *= mask
    flipped = np.roll(raw[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3))
    sym = 0.5 * (raw + np.conj(flipped))
    field = VectorField(grid, sym)
    if divergence_free:
        field = tn.leray_project(field)
    return field


def assert_roundoff_close(got: np.ndarray, reference: np.ndarray, n: int) -> None:
    """`got` agrees with `reference` to roundoff of an n-point transform:
    max|got - reference| <= 4 n eps max|reference|, a bound fixed from float64
    eps and n, not from the errors measured."""
    bound = 4 * n * np.finfo(np.float64).eps * float(np.max(np.abs(reference)))
    assert got.shape == reference.shape
    assert float(np.max(np.abs(got - reference))) <= bound


@pytest.fixture(scope="session")
def grid16():
    return tn.make_grid(16)


@pytest.fixture(scope="session")
def grid32():
    return tn.make_grid(32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def random_field_factory():
    return make_random_spectral_field


@pytest.fixture(scope="session")
def small_ledger():
    """Quick full-pipeline ledger: n=16, every step logged."""
    config = tn.SimulationConfig(n=16, delta=0.01, stride=1, horizon=1.0, seed=0)
    return tn.run(config)


@pytest.fixture(scope="session")
def standard_run():
    """The standard acceptance run (n=32, delta=0.01), logged at stride 1 so
    coarser strides can be derived by subsampling.  Returns (ledger, config,
    wall_seconds)."""
    config = tn.SimulationConfig(n=32, delta=0.01, stride=1, horizon=1.0, seed=0)
    started = time.perf_counter()
    ledger = tn.run(config)
    wall = time.perf_counter() - started
    return ledger, config, wall


@pytest.fixture(scope="session")
def flip_fixture_run():
    """Ledger sized so the gradient-ladder detector can see the trilinear
    term: larger amplitude, finer dt, short horizon."""
    config = tn.SimulationConfig(
        n=16,
        delta=2.0,
        c_cfl=0.1,
        t_min=math.exp(-1.2),
        stride=1,
        horizon=1.0,
        seed=0,
    )
    return tn.run(config)


@pytest.fixture(scope="session")
def h1_envelope_only_ledger():
    """A ledger whose only h1 failure is the envelope: on the n=32, seed-5
    ledger of a 0.03 horizon, the gradient energy grows like
    e^{(tau - tau0)/2}, the curvature energy is 0 and the trilinear term -10,
    so the raw inequality holds on every row while the fitted offset's
    envelope is exceeded."""
    config = tn.SimulationConfig(n=32, delta=0.01, horizon=0.03, stride=1, seed=5)
    ledger = tn.run(config)
    table = ledger.table.copy()
    column = tn.inequality_lab.CSV_COLUMNS.index
    tau = table[:, column("tau")]
    table[:, column("w_h1sq")] = np.exp(0.5 * (tau - tau[0]))
    table[:, column("w_h2sq")] = 0.0
    table[:, column("trilinear_w")] = -10.0
    return tn.EnergyLedger(table, meta=ledger.meta)
