"""Command-line interface: exit codes, report schema, and subcommand
output shapes."""

import json

import pytest

from cptgroup import groups, matrix_groups, scalars
from cptgroup.cli import main


def test_verify_exits_zero_and_prints_claim_lines(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("overall: pass")
    assert any(line.startswith("PASS") for line in lines)
    assert sum(line.startswith("MISMATCH") for line in lines) == 2


def test_verify_strict_fails_on_documented_mismatches(capsys):
    assert main(["verify", "--strict"]) == 1
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].startswith("overall: fail")


def test_verify_json_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["verify", "--json-out", str(path)]) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["schema"] == "cptgroup-report/1"
    assert payload["overall"] == "pass"
    assert payload["strict"] is False
    assert "generated_at" in payload
    statuses = {s["status"] for s in payload["sections"]}
    assert statuses == {"pass", "mismatch"}
    ids = [s["claim_id"] for s in payload["sections"]]
    assert len(ids) == len(set(ids))
    mismatched = {s["claim_id"] for s in payload["sections"]
                  if s["status"] == "mismatch"}
    assert mismatched == {"iso-55-annotations", "transform-77-det"}


def test_verify_json_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["verify", "--json-out", str(a)])
    main(["verify", "--json-out", str(b)])
    capsys.readouterr()
    pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
    pa.pop("generated_at"), pb.pop("generated_at")
    assert pa == pb


def test_usage_errors_exit_two(tmp_path, capsys):
    for argv in (["table", "--group", "nope"], [],
                 ["verify", "--json-out",
                  str(tmp_path / "missing" / "report.json")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        # rejected before any work: no claim lines were printed
        assert capsys.readouterr().out == ""


def test_table_text_and_json(capsys):
    assert main(["table", "--group", "g2"]) == 0
    text = capsys.readouterr().out
    assert main(["table", "--group", "g2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["group"] == "g2"
    names = payload["row_labels"]
    table = payload["table"]
    assert len(table) == 7 and all(len(row) == 7 for row in table)
    # row C, column T of the second group's table is CT
    assert table[names.index("C")][names.index("T")] == "CT"
    assert "CT" in text


def test_table_gtheta_uses_star_labels(capsys):
    assert main(["table", "--group", "gtheta", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "C*P" in payload["row_labels"]
    assert "Θ" in payload["row_labels"]


def test_solve_weyl_parity(capsys):
    assert main(["solve", "--symmetry", "p", "--rep", "weyl",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["symmetry"] == "parity"
    assert payload["dimension"] == 1
    assert payload["closed_form_name"] == "g0"
    basis = payload["basis"][0]
    # g0 in this presentation is off-diagonal with unit 2x2 blocks
    assert basis[0][2] == ["1", "0", "0", "0"]
    assert basis[0][0] == ["0", "0", "0", "0"]


def test_solve_all_combinations_run(capsys):
    for sym in ("p", "c", "t"):
        for rep in ("dp", "weyl", "majorana"):
            assert main(["solve", "--symmetry", sym, "--rep", rep]) == 0
            out = capsys.readouterr().out
            assert "dimension 1" in out


def test_cycles_gtheta_includes_s10(capsys):
    assert main(["cycles", "--group", "gtheta", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cycles"]) == 16
    first = payload["cycles"][0]
    assert first["element"] == "1" and first["s16"] == "()"
    assert all("s10" in row for row in payload["cycles"])
    assert main(["cycles", "--group", "g1"]) == 0
    out = capsys.readouterr().out
    assert "S10" not in out


def test_identify_reports_isomorphism_matches(capsys):
    assert main(["identify", "--group", "gtheta", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    found = {c["target"]: c["found"]
             for c in payload["isomorphisms_checked"]}
    assert found == {"dh8xz2": False, "16e": False,
                     "dc8xz2": True, "qxs0": True}
    assert payload["order"] == 16
    assert payload["profile"] == {"1": 1, "2": 3, "4": 12}

    assert main(["identify", "--group", "g1"]) == 0
    out = capsys.readouterr().out
    assert "dh8xz2: isomorphic" in out
    assert "16e: not isomorphic" in out


def test_group_queries_recompute_nothing_once_warm(monkeypatch, capsys):
    queries = [[sub, "--group", g] for sub in ("identify", "cycles", "table")
               for g in ("g1", "g2", "gtheta")]
    for argv in queries:
        main(argv)
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(groups, "_closure",
                        counting("_closure", groups._closure))
    monkeypatch.setattr(groups.FiniteGroup, "closure_of",
                        counting("closure_of", groups.FiniteGroup.closure_of))
    monkeypatch.setattr(groups.Permutation, "cycles",
                        counting("cycles", groups.Permutation.cycles))
    for argv in queries:
        assert main(argv) == 0
    capsys.readouterr()
    assert calls == []


def test_warm_solve_builds_no_fraction(monkeypatch, capsys):
    queries = [["solve", "--symmetry", "c", "--rep", "dp", "--format", f]
               for f in ("text", "json")]
    for argv in queries:
        main(argv)
    built = []

    class CountingFraction(scalars.Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(scalars, "Fraction", CountingFraction)
    for argv in queries:
        assert main(argv) == 0
    assert "dimension 1" in capsys.readouterr().out
    assert built == []


def test_warm_identify_text_builds_no_table(monkeypatch, capsys):
    argv = ["identify", "--group", "g1", "--format", "text"]
    main(argv)
    calls = []
    monkeypatch.setattr(matrix_groups, "basic_table",
                        lambda group: calls.append(group))
    assert main(argv) == 0
    assert "dh8xz2: isomorphic" in capsys.readouterr().out
    assert calls == []
