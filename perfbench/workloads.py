"""The benchmark's workloads: config text and the verdicts each must produce.

Every workload keeps the harness defaults (alpha = 1/16, all six checks on,
c_cfl = 1) unless it says otherwise; FFT workers are pinned to 1 by
``--strict``.  The initial-data seed is the benchmark's ``--seed``.  The
expected verdicts were recorded at the commit that introduced the benchmark
and hold for every seed tried (see README.md here); a run whose exit code or
verdicts differ counts as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Order in which report.json lists the six checks.
CHECKS = (
    "l2_energy",
    "h1_gradient",
    "h2_laplacian",
    "split_energy_decay",
    "supnorm_rate_monitor",
    "two_route_audit",
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    exit_code: int
    statuses: tuple[str, ...]

    def config_text(self, seed: int) -> str:
        lines = [f"{key} = {value}" for key, value in self.config.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        # The standard acceptance config (n = 32, stride 1) on a shorter
        # clock: a ledger row after every step, 1.5 MB vector fields.  A 0.03
        # span cannot show the 10x tail decay that split_energy_decay asks
        # for, so that check is violated (exit 2) for every seed.
        Workload(
            name="ledger32",
            config={"n": 32, "delta": 0.01, "horizon": 0.03, "stride": 1},
            exit_code=2,
            statuses=("holds", "holds", "holds_with_certificate", "violated", "holds", "holds"),
        ),
        # Step-heavy: 12.6 MB complex fields, a row every 2 steps.  4 rows
        # are the fewest that keep the differenced checks meaningful; the
        # short span again violates split_energy_decay (exit 2).
        Workload(
            name="step64",
            config={"n": 64, "delta": 0.01, "horizon": 0.0019, "stride": 2},
            exit_code=2,
            statuses=("holds", "holds", "holds_with_certificate", "violated", "holds", "holds"),
        ),
        # The detector fixture (large data, 196 KB fields) with t_min raised
        # from e^-1.2 to 0.7 and a row every 2 steps: per-call Python
        # overhead dominates.  Outside the
        # smallness regime, so h2_laplacian is inconclusive and
        # split_energy_decay violated (exit 2).
        Workload(
            name="advect16",
            config={
                "n": 16,
                "delta": 2.0,
                "c_cfl": 0.1,
                "t_min": 0.7,
                "stride": 2,
            },
            exit_code=2,
            statuses=("holds", "holds", "inconclusive", "violated", "holds", "holds"),
        ),
    )
}
