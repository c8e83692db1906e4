"""The command-line front end: exit codes and one-line messages, no tracebacks."""

import io
import json

import pytest

from ramid.cli import EXIT_OK, EXIT_USAGE, main

NOTEBOOK = {"t": "2", "A": "3", "x": "7", "y": "11", "z": "19"}


def render(monkeypatch, line: str) -> int:
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    return main(["render", "--format", "json"])


def test_render_round_trips_a_tuple(monkeypatch, capsys):
    assert render(monkeypatch, json.dumps(NOTEBOOK)) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {**NOTEBOOK, "class": "prime"}


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({k: v for k, v in NOTEBOOK.items() if k != "z"}),  # missing key
        json.dumps({**NOTEBOOK, "t": 2}),  # numeric field
        "[1, 2]",  # not an object
        '{"radicand": ["3", "7"], "rhs": [["7"]]}',  # rhs entry of length 1
        '{"radicand": ["3", "7"], "rhs": [7]}',  # rhs entry not a pair
        '{"radicand": ["3", "7"], "rhs": 7}',  # rhs not a list
        '{"radicand": ["3", "7"], "rhs": ["7+"]}',  # a string is not a pair
        '{"radicand": ["3", "7"], "rhs": [["7", "x"]]}',  # sign not + or -
    ],
    ids=["no-z", "int-t", "list", "rhs-1", "rhs-item-int", "rhs-int", "rhs-str", "rhs-sign"],
)
def test_render_reports_malformed_records(monkeypatch, capsys, line):
    assert render(monkeypatch, line) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("ramid: not an identity record") and "Traceback" not in err


def test_enumerate_super_perfect(capsys):
    assert main(["enumerate", "--primes-only"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and all('"class": "prime"' in line for line in out)
