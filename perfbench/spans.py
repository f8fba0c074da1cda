"""In-memory span recorder that wraps torusns functions from outside.

Every public function of each torusns module is replaced, in every torusns
namespace that binds it (``ns_dynamics`` imports ``route_gap`` by name, so
that binding is patched too), by a wrapper that records a span: name,
parent span, start, end and the time covered by child spans.  Nothing in the
package changes; the wrappers only time and count.  Spans stay in memory and
are written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import time

#: Modules whose public functions are traced, in dependency order.
MODULES = (
    "spectral_core",
    "multiplier_bank",
    "similarity_frame",
    "gronwall_comparator",
    "inequality_lab",
    "ns_dynamics",
    "runner_cli",
)

STEP_NAMES = ("ns_dynamics.cfl_dt", "ns_dynamics.step")
ROW_NAMES = (
    "spectral_core.norms",
    "similarity_frame.w_functionals_scaling_route",
    "similarity_frame.w_functionals_multiplier_route",
    "similarity_frame.route_gap",
)
TRANSFORMS = ("spectral_core.to_physical", "spectral_core.to_spectral")


class Tracer:
    """Span arrays indexed by span id; a parent id of -1 means no parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_time: list[float] = []
        self._stack = [-1]
        self.transform_bytes = 0
        self.viscous_limited = 0
        self.advective_limited = 0

    def wrap(self, name: str, fn, observe=None):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child_time, stack, clock = self.child_time, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            parent = stack[-1]
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            child_time.append(0.0)
            stack.append(sid)
            begin = clock()
            starts.append(begin)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                end = clock()
                ends[sid] = end
                stack.pop()
                if parent >= 0:
                    child_time[parent] += end - begin

        return wrapper

    # observers ---------------------------------------------------------

    def _count_bytes(self, args, result) -> None:
        self.transform_bytes += args[0].data.nbytes + result.data.nbytes

    def _classify_dt(self, args, result) -> None:
        state = args[0]
        c_cfl = args[1] if len(args) > 1 else 1.0
        viscous = c_cfl * (1.0 / state.u_hat.grid.max_wavenumber**2)
        if result == viscous:
            self.viscous_limited += 1
        else:
            self.advective_limited += 1

    def install(self, package) -> None:
        """Wrap each public function of MODULES under every name it is bound to."""
        modules = [getattr(package, m) for m in MODULES]
        namespaces = [package] + modules
        observers = {
            "spectral_core.to_physical": self._count_bytes,
            "spectral_core.to_spectral": self._count_bytes,
            "ns_dynamics.cfl_dt": self._classify_dt,
        }
        for short, module in zip(MODULES, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapper = self.wrap(name, obj, observers.get(name))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, bound, wrapper)
        ledger_cls = package.inequality_lab.EnergyLedger
        ledger_cls.write_csv = self.wrap("inequality_lab.write_csv", ledger_cls.write_csv)

    # analysis ----------------------------------------------------------

    @property
    def first_step(self) -> float | None:
        """Start of the first ns_dynamics.step span, or None if none ran."""
        try:
            return self.starts[self.names.index("ns_dynamics.step")]
        except ValueError:
            return None

    def dump(self, path) -> None:
        """Write every span as one CSV line: id, parent, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, name in enumerate(self.names):
                fh.write(
                    f"{sid},{self.parents[sid]},{name},"
                    f"{self.starts[sid]!r},{self.ends[sid]!r}\n"
                )

    def summary(self, t0: float, t_end: float) -> dict:
        """Aggregate spans into per-name totals, phase counts and coverage."""
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        names, parents = self.names, self.parents
        runs = {sid for sid, name in enumerate(names) if name == "ns_dynamics.run"}
        # phase of each span: the loop part (step or row) of its ancestor
        # directly under ns_dynamics.run; parents always precede children.
        phase: list[str | None] = []
        top: list[tuple[float, float]] = []
        counts = {
            "step": {t: 0 for t in TRANSFORMS},
            "row": {t: 0 for t in TRANSFORMS},
        }
        rows, row_s = 0, 0.0
        for sid, name in enumerate(names):
            duration = self.ends[sid] - self.starts[sid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - self.child_time[sid]
            parent = parents[sid]
            if parent in runs:
                kind = "step" if name in STEP_NAMES else "row" if name in ROW_NAMES else None
                if kind is not None:
                    top.append((self.starts[sid], self.ends[sid]))
                if kind == "row":
                    row_s += duration
                    rows += name == "similarity_frame.route_gap"
            else:
                kind = phase[parent] if parent >= 0 else None
            phase.append(kind)
            if kind is not None and name in TRANSFORMS:
                counts[kind][name] += 1
            if name in ("inequality_lab.verify_all", "inequality_lab.write_csv"):
                top.append((self.starts[sid], self.ends[sid]))
        if self.first_step is not None:
            top.append((t0, self.first_step))
        return {
            "calls": calls,
            "total_s": total,
            "self_s": self_time,
            "rows": rows,
            "row_s": row_s,
            "transforms": counts,
            "transform_bytes": self.transform_bytes,
            "viscous_limited": self.viscous_limited,
            "advective_limited": self.advective_limited,
            "coverage": _union_length(top) / (t_end - t0),
        }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered
