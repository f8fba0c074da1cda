"""Property test of the `verify` exit-code contract on mutated ledger text.

One valid n=16 ledger is written once; each example rescales columns, writes
special values into entries, or drops, repeats or swaps rows, and runs
``torusns verify`` through `main`.  Whatever the text, `verify` returns one
of the contract's exit codes 0-4, raises nothing, prints no numpy warning,
and writes to stderr nothing or exactly one ``[torusns] ...`` line.
"""

from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import torusns as tn
from torusns.inequality_lab import CSV_COLUMNS
from torusns.runner_cli import main

ROWS = 6  # rows of the n=16, horizon=0.05 ledger below
COLUMN = st.integers(0, len(CSV_COLUMNS) - 1)
ROW = st.integers(0, ROWS - 1)

MUTATION = st.one_of(
    st.tuples(st.just("scale"), COLUMN, st.integers(-320, 320)),
    st.tuples(st.just("set"), COLUMN, st.lists(ROW, min_size=1, max_size=ROWS),
              st.sampled_from(["nan", "inf", "-1", "0"])),
    st.tuples(st.just("drop"), ROW),
    st.tuples(st.just("repeat"), ROW),
    st.tuples(st.just("swap"), ROW, ROW),
)


@pytest.fixture(scope="module")
def ledger_rows():
    ledger = tn.run(tn.SimulationConfig(n=16, horizon=0.05))
    lines = ledger.to_csv_text().splitlines()
    assert len(lines) == ROWS + 1
    return [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def ledger_path(tmp_path_factory):
    return tmp_path_factory.mktemp("verify") / "ledger.csv"


def mutate(rows: list[list[str]], mutation: tuple) -> list[list[str]]:
    """A copy of the ledger's rows with one mutation applied; a row index
    past the end of a shortened ledger wraps around."""
    rows = [list(row) for row in rows]
    kind, *args = mutation
    if not rows:
        return rows
    if kind == "scale":
        column, power = args
        for row in rows:
            row[column] = repr(float(Decimal(row[column]).scaleb(power)))
    elif kind == "set":
        column, targets, value = args
        for i in targets:
            rows[i % len(rows)][column] = value
    elif kind == "drop":
        del rows[args[0] % len(rows)]
    elif kind == "repeat":
        i = args[0] % len(rows)
        rows.insert(i, list(rows[i]))
    else:
        i, j = (a % len(rows) for a in args)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning fails the example
@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_verify_keeps_its_exit_contract(ledger_rows, ledger_path, capsys, mutations):
    rows = ledger_rows
    for mutation in mutations:
        rows = mutate(rows, mutation)
    lines = [",".join(CSV_COLUMNS)] + [",".join(row) for row in rows]
    ledger_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    capsys.readouterr()
    code = main(["verify", str(ledger_path)])
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3, 4)
    assert err == [] or (len(err) == 1 and err[0].startswith("[torusns] "))
