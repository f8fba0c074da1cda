"""torusns benchmark: run one workload through the public CLI and report metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ledger32 --seed 3 --seconds 40 --trace 0

Each workload run is ``torusns --config <cfg> --out <dir> --strict run``,
driven through ``runner_cli.main`` in a fresh single-threaded process
(perfbench/child.py).  Runs go one at a time until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics (medians over the runs).  Run
time is reported as ``wall_probes``: wall time in units of a fixed probe
work timed on the run's own thread while it runs (perfbench/probe.py), which
takes the shared host's changing speed out of the figure.
``--trace 1`` alternates untraced and traced runs; the traced ones wrap every
public torusns function from outside (perfbench/spans.py) and give the
per-layer metrics, with the untraced runs' wall time in seconds.  Metric
names and units come from BENCHMARK.json.

Every run is checked: exit code and six verdicts as recorded in
perfbench/workloads.py, route gap <= 1e-10, and a ledger.csv that re-reads and
validates through ``EnergyLedger.read_csv``.  Runs of one invocation must
write byte-identical ledgers, traced or not, and traced runs must repeat
every count exactly.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CHECKS, WORKLOADS  # noqa: E402

ROUTE_GAP_LIMIT = 1e-10
DEADLINE_S = 150.0  # every invocation must end well inside 180 s
MB = 1024.0 * 1024.0

#: Per-layer metrics that must repeat exactly across traced runs.
EXACT = {
    "spectral_core.to_physical.calls",
    "spectral_core.to_spectral.calls",
    "spectral_core.transforms_per_step",
    "spectral_core.transforms_per_row",
    "spectral_core.bytes_per_transform",
    "ns_dynamics.step.calls",
    "ns_dynamics.nonlinear_rhs.calls",
    "ns_dynamics.steps_viscous_limited",
    "ns_dynamics.steps_advective_limited",
    "similarity_frame.rows",
    "similarity_frame.build_w_field.calls",
    "multiplier_bank.evaluate_on_grid.calls",
    "multiplier_bank.profile_cache_entries",
    "multiplier_bank.profile_cache_mb",
    "inequality_lab.ledger_bytes",
}

NO_BANDWIDTH_CLAIM = (
    "no bandwidth ratio is claimed: the 12.6 MB fields of step64 fit in a 105 MB L3, "
    "and spectral_core.bytes_per_transform is computed from array shapes, not measured"
)


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "TORUSNS_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_once(workload, seed: int, run_dir: Path, traced: bool, timeout: float) -> dict:
    """One fresh-process run; returns the child's result plus run.py's checks."""
    run_dir.mkdir(parents=True)
    config = run_dir / "run.cfg"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    out_dir = run_dir / "out"
    result_path = run_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), str(config), str(out_dir),
           str(result_path)] + (["--trace"] if traced else [])
    started = time.monotonic()
    with open(run_dir / "log.txt", "w", encoding="utf-8") as log:
        try:
            subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(),
                           cwd=ROOT, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            result = {"error": f"run exceeded {timeout:.0f} s and was killed"}
        else:
            try:
                result = json.loads(result_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                result = {"error": f"no result from the run: {exc}"}
    result["duration_s"] = time.monotonic() - started
    result["traced"] = traced
    result["ledger_sha256"] = _sha256(out_dir / "ledger.csv")
    result["problems"] = problems(result, workload)
    return result


def problems(result: dict, workload) -> list[str]:
    """The run-failure rules: any entry means the run failed."""
    if "error" in result:
        return [result["error"].strip().splitlines()[-1]]
    found = []
    if result["exit_code"] != workload.exit_code:
        found.append(f"exit code {result['exit_code']} != {workload.exit_code}")
    statuses = tuple(result["statuses"])
    if statuses != workload.statuses:
        got = dict(zip(CHECKS, statuses))
        found.append(f"verdicts {got} != {dict(zip(CHECKS, workload.statuses))}")
    if "ledger_error" in result:
        found.append(f"ledger.csv does not validate: {result['ledger_error']}")
    elif not result["max_route_gap"] <= ROUTE_GAP_LIMIT:
        found.append(f"route gap {result['max_route_gap']} > {ROUTE_GAP_LIMIT}")
    if result["setup_s"] is None:
        found.append("ns_dynamics.step was never called")
    return found


def layer_metrics(result: dict) -> dict:
    """Per-layer metrics of one traced run (trace.overhead is added by main)."""
    t = result["trace"]
    calls, total, own = t["calls"], t["total_s"], t["self_s"]
    steps = calls.get("ns_dynamics.step", 0)
    transforms = calls.get("spectral_core.to_physical", 0) + calls.get("spectral_core.to_spectral", 0)
    return {
        "spectral_core.to_physical.calls": calls.get("spectral_core.to_physical", 0),
        "spectral_core.to_physical.self_s": own.get("spectral_core.to_physical", 0.0),
        "spectral_core.to_spectral.calls": calls.get("spectral_core.to_spectral", 0),
        "spectral_core.to_spectral.self_s": own.get("spectral_core.to_spectral", 0.0),
        "spectral_core.leray_project.self_s": own.get("spectral_core.leray_project", 0.0),
        "spectral_core.convective_product.self_s": own.get("spectral_core.convective_product", 0.0),
        "spectral_core.norms.self_s": own.get("spectral_core.norms", 0.0),
        "spectral_core.transforms_per_step": sum(t["transforms"]["step"].values()) / steps,
        "spectral_core.transforms_per_row": sum(t["transforms"]["row"].values()) / t["rows"],
        "spectral_core.bytes_per_transform": t["transform_bytes"] / transforms,
        "ns_dynamics.step.calls": steps,
        "ns_dynamics.step.ms_per_call": 1e3 * total.get("ns_dynamics.step", 0.0) / steps,
        "ns_dynamics.nonlinear_rhs.calls": calls.get("ns_dynamics.nonlinear_rhs", 0),
        "ns_dynamics.nonlinear_rhs.self_s": own.get("ns_dynamics.nonlinear_rhs", 0.0),
        "ns_dynamics.cfl_dt.self_s": own.get("ns_dynamics.cfl_dt", 0.0),
        "ns_dynamics.steps_viscous_limited": t["viscous_limited"],
        "ns_dynamics.steps_advective_limited": t["advective_limited"],
        "ns_dynamics.make_initial_data.s": total.get("ns_dynamics.make_initial_data", 0.0),
        "similarity_frame.rows": t["rows"],
        "similarity_frame.row_ms": 1e3 * t["row_s"] / t["rows"],
        "similarity_frame.scaling_route.s": total.get("similarity_frame.w_functionals_scaling_route", 0.0),
        "similarity_frame.multiplier_route.s": total.get("similarity_frame.w_functionals_multiplier_route", 0.0),
        "similarity_frame.build_w_field.calls": calls.get("similarity_frame.build_w_field", 0),
        "multiplier_bank.evaluate_on_grid.calls": calls.get("multiplier_bank.evaluate_on_grid", 0),
        "multiplier_bank.evaluate_on_grid.self_s": own.get("multiplier_bank.evaluate_on_grid", 0.0),
        "multiplier_bank.apply.self_s": own.get("multiplier_bank.apply", 0.0),
        "multiplier_bank.profile_cache_entries": t["profile_cache_entries"],
        "multiplier_bank.profile_cache_mb": t["profile_cache_bytes"] / MB,
        "inequality_lab.verify_all.s": total.get("inequality_lab.verify_all", 0.0),
        "inequality_lab.write_csv.s": total.get("inequality_lab.write_csv", 0.0),
        "inequality_lab.ledger_bytes": result["ledger_bytes"],
        "gronwall_comparator.gronwall_envelope.s": total.get("gronwall_comparator.gronwall_envelope", 0.0),
        "runner_cli.parse_config.s": total.get("runner_cli.parse_config", 0.0),
        "runner_cli.cmd_run.self_s": own.get("runner_cli.cmd_run", 0.0),
        "runner_cli.report_bytes": result["report_bytes"],
        "trace.coverage": t["coverage"],
    }


def machine() -> dict:
    """nproc, CPU model and cache sizes (read-only, from /proc and /sys)."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def _median(values):
    return statistics.median(values) if values else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    package = ROOT / "src" / "torusns"
    if not (package / "__init__.py").is_file():
        print(f"torusns sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not compileall.compile_dir(str(package), quiet=1):
        print("byte-compiling torusns failed", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_runs" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    started = time.monotonic()
    deadline = started + args.seconds
    # Untraced runs only; or untraced, traced, traced (two traced runs so
    # their counts can be compared) and then alternating.
    if args.trace:
        kinds, minimum = itertools.chain([False, True, True], itertools.cycle([False, True])), 3
    else:
        kinds, minimum = itertools.repeat(False), 1
    runs: list[dict] = []
    for index, traced in enumerate(kinds):
        if index >= minimum:
            same = [r["duration_s"] for r in runs if r["traced"] == traced]
            if time.monotonic() + _median(same) > deadline:
                break
        timeout = DEADLINE_S - (time.monotonic() - started)
        if timeout < 1.0:
            break
        run_dir = work / f"{index:03d}-{'traced' if traced else 'plain'}"
        runs.append(run_once(workload, args.seed, run_dir, traced, timeout))
        if "error" in runs[-1]:
            break

    failed = sum(1 for r in runs if r["problems"])
    notes = [f"{i}: {p}" for i, r in enumerate(runs) for p in r["problems"]]
    hashes = {r["ledger_sha256"] for r in runs if not r["problems"]}
    if len(hashes) > 1:
        notes.append("ledger.csv differs between runs of one invocation")
    plain = [r for r in runs if not r["traced"] and "error" not in r]
    traced_runs = [r for r in runs if r["traced"] and "error" not in r]
    if not plain or (args.trace and not traced_runs):
        print("no run finished; problems:\n" + "\n".join(notes), file=sys.stderr)
        return 1

    if args.trace:
        per_run = [layer_metrics(r) for r in traced_runs]
        for name in EXACT:
            if len({m[name] for m in per_run}) > 1:
                notes.append(f"count {name} differs between traced runs: "
                             f"{[m[name] for m in per_run]}")
        values = {name: _median([m[name] for m in per_run]) for name in per_run[0]}
        values["run.wall_s"] = _median([r["wall_s"] for r in plain])
        values["run.probe_ms"] = _median([r["probe_ms"] for r in plain])
        values["trace.overhead"] = (
            _median([r["wall_probes"] for r in traced_runs])
            / _median([r["wall_probes"] for r in plain]) - 1.0
        )
        declared = spec["per_layer"]
    else:
        values = {
            "wall_probes": _median([r["wall_probes"] for r in plain]),
            "setup_s": _median([r["setup_s"] for r in plain if r["setup_s"] is not None]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "pass_share": 1.0 - failed / len(runs),
        }
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    versions = next((r["versions"] for r in runs if "versions" in r), {})
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "config_text": workload.config_text(args.seed),
        "runs": len(runs),
        "traced_runs": len(traced_runs),
        "machine": machine(),
        "versions": versions,
        "note": NO_BANDWIDTH_CLAIM,
    }
    (work / "provenance.json").write_text(json.dumps(provenance, indent=2) + "\n", encoding="utf-8")

    print(f"# workload {workload.name}, seed {args.seed}: {len(runs)} runs "
          f"({len(traced_runs)} traced), strict, 1 thread, one at a time")
    print(f"# machine {json.dumps(provenance['machine'])}")
    print(f"# versions {json.dumps(versions)}")
    for line in workload.config_text(args.seed).splitlines():
        print(f"# config  {line}")
    print(f"# {NO_BANDWIDTH_CLAIM}")
    for note in notes:
        print(f"# FAILED {note}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not notes,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
