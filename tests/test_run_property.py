"""Property test of the `run` exit-code contract on drawn config text.

Each example writes config text over the keys of `RunConfig`, with values
drawn from 0, tiny, huge, negative, nan, inf and typical ones, and runs
``torusns --strict run`` through `main`.  Whatever the text, `run` returns
one of the contract's exit codes 0-4, raises nothing, prints no numpy
warning, writes to stderr nothing or exactly one ``[torusns] ...`` line, and
a `report.json` it writes parses as strict JSON.

Every example is cheap by construction, because the config does not refuse
costly work up front:
- a typical n is 8, 10, 12 or 16; `n`, `horizon` and `init_k_max` are always
  given (the default horizon 1 asks for hundreds of steps, and the default
  init_k_max 4 fails the config at n <= 12);
- a typical horizon is at most 0.05, and a huge one overflows the first row;
- a typical box is at most 10, so that the viscous bound 1/max_wavenumber**2
  stays below 0.06 and `c_cfl = 5e-324` underflows the step size to 0 (a
  box of 0.001 asks for 10^8 steps);
- `c_cfl` draws no tiny value that does not underflow (1e-300 asks for
  about 10^300 steps);
- `threads` is 1, since a large value asks the OS for that many threads;
- `out_dir` is not drawn: `--out` overrides it.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from torusns.inequality_lab import CORRUPTION_KINDS
from torusns.runner_cli import main

SPECIAL = ["0", "5e-324", "1e-300", "1e300", "-1", "nan", "inf"]

#: Typical values of each key, and the values outside them that it draws.
KEYS = {
    "n": (["8", "10", "12", "16"], ["0", "7", "-8", "nan"]),
    "horizon": (["0.05", "0.01"], SPECIAL),
    "box_length": (["6.283185307179586", "3.0", "10.0"], SPECIAL),
    "alpha": (["0.0625", "0.03125", "0.124"], SPECIAL),
    "delta": (["0.01", "0.5"], SPECIAL),
    "initial_kind": (["random_low_mode", "taylor_green"], ["vortex_ring", ""]),
    "seed": (["0", "5", str(2**64)], ["-1", "nan"]),
    "init_k_max": (["1.0", "2.0", "2.5"], SPECIAL),
    "c_cfl": (["0.5", "1.0"], ["0", "5e-324", "1e300", "-1", "nan", "inf", "2.0"]),
    "t_min": (["0.001", "0.04"], SPECIAL),
    "stride": (["1", "2", "3", "1000000"], ["0", "-1", "nan"]),
    "epsilon": (["0.1", "0.01"], SPECIAL),
    "decay_tol": (["0.05", "0.5"], SPECIAL),
    "inject_corruption": (["none", *CORRUPTION_KINDS], ["bogus"]),
    "threads": (["1"], []),
    "sweep_alpha": (["", "0.0625"], ["0.0625, 0.0625", "nan"]),
    "sweep_delta": (["", "0.01"], ["-1", "inf"]),
    "sweep_n": (["", "8"], ["7", "8, 8"]),
}
REQUIRED = ("n", "horizon", "init_k_max")

#: A config of typical values, some keys left out, with at most two values
#: from outside them written over it, so that most examples get past the
#: config and run.
TYPICAL = st.fixed_dictionaries(
    {key: st.sampled_from(KEYS[key][0]) for key in REQUIRED},
    optional={key: st.sampled_from(KEYS[key][0]) for key in KEYS if key not in REQUIRED},
)
OUTSIDE = st.lists(
    st.sampled_from([key for key, (_, outside) in KEYS.items() if outside]).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(KEYS[key][1]))
    ),
    max_size=2,
)


def _strict_constant(name: str):
    raise ValueError(f"report.json holds {name}, which strict JSON does not allow")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning fails the example
@settings(
    max_examples=600, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(typical=TYPICAL, outside=OUTSIDE)
def test_run_keeps_its_exit_contract(capsys, typical, outside):
    config = {**typical, **dict(outside)}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        capsys.readouterr()
        code = main(["--config", str(cfg_path), "--out", str(out), "--strict", "run"])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2, 3, 4)
        assert err == [] or (len(err) == 1 and err[0].startswith("[torusns] "))
        report = out / "report.json"
        if report.exists():
            json.loads(report.read_text(encoding="utf-8"), parse_constant=_strict_constant)
