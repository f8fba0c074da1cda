"""One workload run in a fresh process: the body that run.py times.

Usage: python3 child.py ROOT CONFIG OUT_DIR RESULT_JSON [--trace]

Runs ``torusns run`` through ``runner_cli.main`` with ``--strict``, takes the
clock before ``import torusns`` and when the first ``ns_dynamics.step`` call
begins, then (outside the timed region) re-reads the outputs and writes a
result JSON for run.py to check.  From just after the import until
``runner_cli.main`` returns, a speed probe (probe.py) samples the host's
speed on this thread; its own time is taken out of ``wall_s`` and
``setup_s``.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    root, config, out_dir, result_path = (Path(a) for a in sys.argv[1:5])
    traced = sys.argv[5:] == ["--trace"]
    sys.path.insert(0, str(root / "src"))
    result = {"traced": traced}
    try:
        if traced:
            from spans import Tracer
        t0 = time.perf_counter()
        import torusns
        from torusns import ns_dynamics, runner_cli
        from probe import SpeedProbe

        probe = SpeedProbe()
        probe.start()
        if traced:
            tracer = Tracer()
            tracer.install(torusns)
        else:
            original_step = ns_dynamics.step
            marks = {}

            def first_step(state, dt):
                marks["first_step"] = time.perf_counter()
                ns_dynamics.step = original_step
                return original_step(state, dt)

            ns_dynamics.step = first_step

        argv = ["--config", str(config), "--out", str(out_dir), "--strict", "run"]
        try:
            result["exit_code"] = runner_cli.main(argv)
            t_end = time.perf_counter()
        finally:
            probe.stop()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = tracer.first_step if traced else marks.get("first_step")
        result["wall_s"] = t_end - t0 - probe.spent
        result["setup_s"] = None if first is None else first - t0 - probe.spent_before(first)
        result["probe_ms"] = 1e3 * probe.mean_s
        result["wall_probes"] = result["wall_s"] / probe.mean_s
        result.update(_check_outputs(torusns, out_dir))
        if traced:
            cache = torusns.multiplier_bank._profile_cache
            result["trace"] = tracer.summary(t0, t_end)
            result["trace"]["profile_cache_entries"] = len(cache)
            result["trace"]["profile_cache_bytes"] = sum(a.nbytes for a in cache.values())
            tracer.dump(out_dir / "spans.csv")
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        }
    except Exception:
        result["error"] = traceback.format_exc()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _check_outputs(torusns, out_dir: Path) -> dict:
    """Re-read ledger.csv through the package and collect the verdicts."""
    ledger_path = out_dir / "ledger.csv"
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    checked = {
        "statuses": [r["status"] for r in report["reports"]],
        "ledger_bytes": ledger_path.stat().st_size,
        "report_bytes": (out_dir / "report.json").stat().st_size,
    }
    try:
        ledger = torusns.EnergyLedger.read_csv(ledger_path)
        ledger.validate()
    except ValueError as exc:
        checked["ledger_error"] = f"{type(exc).__name__}: {exc}"
        return checked
    checked["rows"] = len(ledger)
    checked["max_route_gap"] = float(ledger.column("route_gap").max())
    return checked


if __name__ == "__main__":
    sys.exit(main())
