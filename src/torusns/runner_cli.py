"""Configuration, orchestration, and serialization for the harness.

Config files are line-oriented ``key = value`` text with ``#`` comments and
no nesting.  Ledgers go to CSV with a fixed header; verdict bundles go to
strict JSON (no NaN or Infinity) with an integer ``schema`` field.  Exit
codes are a stable contract:

    0  every check holds (with or without certificate)
    1  configuration or usage error, or an invalid ledger given to verify
    2  some check was violated or inconclusive, or a run produced a ledger
       that fails its invariants (such as a route gap above 1e-10)
    3  the integrator aborted on non-finite values, or on a step size
       bound that underflows to 0
    4  output files could not be written
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import scipy.fft

from . import __version__, inequality_lab, multiplier_bank, ns_dynamics
from .inequality_lab import (
    HOLDS,
    HOLDS_WITH_CERTIFICATE,
    CertificateConstant,
    EnergyLedger,
    LedgerError,
    verify_all,
)
from .ns_dynamics import NumericalBlowupError, SimulationConfig

SCHEMA_VERSION = 1

class ConfigError(ValueError):
    """Bad configuration text: unknown key, syntax error, or range violation."""


class UsageError(ValueError):
    """A command line the parser rejects: unknown flag, missing command or bad value."""


@dataclass(frozen=True)
class ReportBundle:
    """Everything one run publishes: metadata, verdicts, certificates.

    `report.json` is `dataclasses.asdict` of the bundle, so the fields here
    and in InequalityReport and CertificateConstant are its schema.
    `u_column_audit` is the run's check of its first row's u columns against
    the full-spectrum norms (`ns_dynamics._audit_u_columns`): the row, its
    t, the worst relative gap and the column that set it (None when every
    gap is 0).
    """

    config_text: str
    config_hash: str
    versions: dict
    wall_time_s: float
    peak_rss_mb: float
    reports: tuple
    certificates: tuple
    u_column_audit: dict
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        ids = [r.inequality_id for r in self.reports]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate inequality report in bundle")


@dataclass(frozen=True)
class RunConfig(SimulationConfig):
    """Full harness configuration: the simulation fields plus the harness
    keys below; defaults reproduce the standard run."""

    epsilon: float = 0.1
    decay_tol: float = 0.05
    out_dir: str = "out"
    inject_corruption: str = "none"
    threads: int = 1
    sweep_alpha: tuple[float, ...] = ()
    sweep_delta: tuple[float, ...] = ()
    sweep_n: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
            simulation = {f.name: getattr(self, f.name) for f in fields(SimulationConfig)}
            for a, d, n in _sweep_points(self):
                SimulationConfig(**{**simulation, "alpha": a, "delta": d, "n": n})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for axis in ("sweep_alpha", "sweep_delta", "sweep_n"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ConfigError(f"{axis} repeats a value: {_format_value(values)}")
        if self.inject_corruption not in ("none",) + inequality_lab.CORRUPTION_KINDS:
            raise ConfigError(f"unknown corruption kind {self.inject_corruption!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        for key in ("epsilon", "decay_tol"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be nonnegative and finite")

    def as_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            lines.append(f"{f.name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def _parse_value(name: str, raw: str, kind, line_no: int):
    raw = raw.strip()
    try:
        if get_origin(kind) is tuple:  # sweep axes
            elem = get_args(kind)[0]
            return tuple(elem(part.strip()) for part in raw.split(",")) if raw else ()
        if kind in (int, float, str):
            return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"line {line_no}: bad value for {name}: {raw!r}") from exc
    raise ConfigError(f"line {line_no}: unhandled option type for {name}")


_FIELD_TYPES = get_type_hints(RunConfig)


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` configuration text; unknown and repeated keys
    are errors."""
    values: dict = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown option {key!r}")
        if key in values:
            raise ConfigError(f"line {line_no}: repeated option {key!r}")
        values[key] = _parse_value(key, raw_value, _FIELD_TYPES[key], line_no)
        if key == "t_min" and math.isnan(values[key]):
            # NaN is SimulationConfig's "unset" value: a file leaves the key out instead
            raise ConfigError(f"line {line_no}: t_min must lie in (0, horizon), got nan")
    return RunConfig(**values)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def _exit_from_reports(reports) -> int:
    ok = all(r.status in (HOLDS, HOLDS_WITH_CERTIFICATE) for r in reports)
    return 0 if ok else 2


def _report_lines(reports) -> list[str]:
    lines = []
    for r in reports:
        extra = f", certificate={r.certificate:.6g}" if r.certificate is not None else ""
        lines.append(
            f"[torusns] {r.inequality_id}: {r.status}"
            f" (residual={r.max_residual:.6g}, tol={r.tolerance:.6g}{extra})"
        )
    return lines


def _bundle(config: RunConfig, ledger: EnergyLedger, reports, wall_time: float) -> ReportBundle:
    """The run's bundle; `peak_rss_mb` is the process's resident high-water
    mark so far, which in a sweep covers the points before this one too."""
    text = config.as_text()
    certificates = tuple(
        CertificateConstant(r.inequality_id, r.certificate, config.n, config.delta)
        for r in reports
        if r.certificate is not None
    )
    return ReportBundle(
        config_text=text,
        config_hash=hashlib.sha256(text.encode()).hexdigest(),
        versions={
            "torusns": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        wall_time_s=wall_time,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        reports=tuple(reports),
        certificates=certificates,
        u_column_audit=ledger.meta["u_column_audit"],
    )


def _write_outputs(out_dir: Path, ledger: EnergyLedger, bundle: ReportBundle) -> None:
    text = json.dumps(asdict(bundle), indent=2, sort_keys=True, allow_nan=False)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger.write_csv(out_dir / "ledger.csv")
    (out_dir / "report.json").write_text(text + "\n", encoding="utf-8")


def _verify(ledger: EnergyLedger, config: RunConfig) -> list:
    """The six checks over `ledger`, in `verify_all` order."""
    return verify_all(ledger, alpha=config.alpha, epsilon=config.epsilon, decay_tol=config.decay_tol)


def cmd_run(config: RunConfig) -> int:
    """Integrate, verify, serialize into `config.out_dir`; returns the contract exit code."""
    return _run_point(config)[0]


def _run_point(config: RunConfig) -> tuple[int, ReportBundle | None]:
    """`cmd_run`'s exit code, with the run's report bundle (None if it
    produced no ledger)."""
    started = time.perf_counter()
    try:
        with scipy.fft.set_workers(config.threads):
            ledger = ns_dynamics.run(config)
    except NumericalBlowupError as exc:
        print(f"[torusns] numerical abort: {exc}", file=sys.stderr)
        return 3, None
    except LedgerError as exc:
        print(f"[torusns] invalid ledger: {exc}", file=sys.stderr)
        return 2, None
    if config.inject_corruption != "none":
        ledger = inequality_lab.corrupt_ledger(ledger, config.inject_corruption)
    reports = _verify(ledger, config)
    bundle = _bundle(config, ledger, reports, time.perf_counter() - started)
    try:
        _write_outputs(Path(config.out_dir), ledger, bundle)
    except OSError as exc:
        print(f"[torusns] cannot write outputs: {exc}", file=sys.stderr)
        return 4, bundle
    for line in _report_lines(reports):
        print(line)
    return _exit_from_reports(reports), bundle


def cmd_verify(ledger_path: str, config: RunConfig) -> int:
    """Re-run the checks on an existing ledger CSV."""
    try:
        ledger = EnergyLedger.read_csv(ledger_path, meta={"alpha": config.alpha})
    except OSError as exc:
        print(f"[torusns] cannot read ledger: {exc}", file=sys.stderr)
        return 4
    except LedgerError as exc:
        print(f"[torusns] invalid ledger: {exc}", file=sys.stderr)
        return 1
    reports = _verify(ledger, config)
    for line in _report_lines(reports):
        print(line)
    return _exit_from_reports(reports)


def cmd_signcheck(alphas: list[float]) -> int:
    """Dense-grid maxima of the two sign-certificate brackets; 0 iff all <= 1e-12."""
    worst = -math.inf
    for a in alphas:
        try:
            multiplier_bank.check_alpha(a)
        except ValueError as exc:
            print(f"[torusns] {exc}", file=sys.stderr)
            return 1
        max_a = multiplier_bank.sign_certificate_A(a)
        max_b = multiplier_bank.sign_certificate_B(a)
        worst = max(worst, max_a, max_b)
        print(f"[torusns] alpha={a:.6g}: low-range max={max_a:.3e}, transition max={max_b:.3e}")
    return 0 if worst <= 1e-12 else 2


def cmd_constants(alphas: list[float]) -> int:
    """Print the quadrature constants C(alpha, m) for m in {4, inf}."""
    print(f"{'alpha':>10} {'C(alpha,4)':>14} {'C(alpha,inf)':>14}")
    for a in alphas:
        try:
            multiplier_bank.check_alpha(a)
        except ValueError as exc:
            print(f"[torusns] {exc}", file=sys.stderr)
            return 1
        c4 = multiplier_bank.hausdorff_young_constant(a, 4)
        ci = multiplier_bank.hausdorff_young_constant(a, math.inf)
        print(f"{a:>10.6g} {c4:>14.6g} {ci:>14.6g}")
    return 0


def _sweep_points(config: RunConfig):
    alphas = config.sweep_alpha or (config.alpha,)
    deltas = config.sweep_delta or (config.delta,)
    sizes = config.sweep_n or (config.n,)
    for a in alphas:
        for d in deltas:
            for n in sizes:
                yield a, d, n


def cmd_sweep(config: RunConfig) -> int:
    """Cross-product of the sweep axes; one bundle per point, in its own directory
    under `config.out_dir`, and a certificate table.  The exit code is the worst."""
    if not (config.sweep_alpha or config.sweep_delta or config.sweep_n):
        print("[torusns] sweep requires at least one nonempty axis", file=sys.stderr)
        return 1
    base = Path(config.out_dir)
    worst = 0
    table: list[dict] = []
    for a, d, n in _sweep_points(config):
        point = replace(config, alpha=a, delta=d, n=n, sweep_alpha=(), sweep_delta=(), sweep_n=())
        tag = f"alpha{a!r}_delta{d!r}_n{n}"
        print(f"[torusns] sweep point {tag}")
        code, bundle = _run_point(replace(point, out_dir=str(base / tag)))
        worst = max(worst, code)
        if bundle is not None:
            table.extend({**asdict(cert), "alpha": a} for cert in bundle.certificates)
    try:
        base.mkdir(parents=True, exist_ok=True)
        lines = ["inequality_id,alpha,delta,n,value"]
        for row in table:
            lines.append(
                f"{row['inequality_id']},{row['alpha']:.17g},{row['delta']:.17g},"
                f"{row['n']},{row['value']:.17g}"
            )
        (base / "certificates.csv").write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        print(f"[torusns] cannot write sweep table: {exc}", file=sys.stderr)
        return 4
    return worst


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises UsageError on a bad command line, where
    argparse would exit 2: the exit-code contract reserves 2 for verdicts.
    Subparsers are built from the same class."""

    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torusns",
        description="periodic-box flow simulator with a rescaled-energy verification harness",
    )
    parser.add_argument("--config", metavar="PATH", help="configuration file")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--strict", action="store_true", help="one FFT worker: sets threads = 1")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="integrate and verify one configuration")
    sub.add_parser("sweep", help="run the configured sweep axes")
    p_sign = sub.add_parser("signcheck", help="evaluate the sign-certificate brackets")
    p_sign.add_argument("alphas", nargs="*", type=float, default=None)
    p_const = sub.add_parser("constants", help="print the quadrature constant table")
    p_const.add_argument("alphas", nargs="*", type=float, default=None)
    p_verify = sub.add_parser("verify", help="re-check an existing ledger CSV")
    p_verify.add_argument("ledger", help="path to a ledger.csv")
    return parser


DEFAULT_ALPHAS = (1.0 / 32.0, 1.0 / 16.0, 3.0 / 32.0, 0.124)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"[torusns] usage error: {exc}", file=sys.stderr)
        return 1
    try:
        config = load_config(args.config)
        overrides = {"threads": 1 if args.strict else None, "out_dir": args.out}
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"[torusns] config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"[torusns] cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "run":
        return cmd_run(config)
    if args.command == "sweep":
        return cmd_sweep(config)
    if args.command == "verify":
        return cmd_verify(args.ledger, config)
    alphas = args.alphas or list(DEFAULT_ALPHAS)
    if args.command == "signcheck":
        return cmd_signcheck(alphas)
    return cmd_constants(alphas)


if __name__ == "__main__":
    sys.exit(main())
