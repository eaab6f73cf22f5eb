"""Byte-for-byte replay of the CLI's output against `golden_cli.json`.

The golden file holds [exit code, stdout] for `verify`, `verify --strict`
and every `table`/`cycles`/`identify`/`solve` run, text and json, plus the
`verify --json-out` report without its `generated_at` stamp.  Regenerate
it only when an output change is intended:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from cptgroup.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

RUNS = [["verify"], ["verify", "--strict"]] + [
    [cmd, "--group", group, "--format", fmt]
    for cmd in ("table", "cycles", "identify")
    for group in ("g1", "g2", "gtheta") for fmt in ("text", "json")
] + [
    ["solve", "--symmetry", sym, "--rep", rep, "--format", fmt]
    for sym in ("p", "c", "t") for rep in ("dp", "weyl", "majorana")
    for fmt in ("text", "json")
]


def replay(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]


def json_report() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "report.json"
        replay(["verify", "--json-out", str(path)])
        report = json.loads(path.read_text())
    del report["generated_at"]
    return report


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_cli_output_is_unchanged(golden, argv):
    assert replay(argv) == golden["runs"][" ".join(argv)]


def test_json_report_is_unchanged(golden):
    assert json_report() == golden["report"]


if __name__ == "__main__":
    payload = {"runs": {" ".join(argv): replay(argv) for argv in RUNS},
               "report": json_report()}
    GOLDEN.write_text(json.dumps(payload, indent=1, ensure_ascii=False)
                      + "\n")
