"""Fault tests for the benchmark's own oracles and tracer.

Run from the root of the repository:

    python -m pytest benchmarks/test_oracle.py -q

A corrupted output must count as a failed operation and raise the error
rate above 0; a correct one must not.
"""

import contextlib
import copy
import io
import json

import pytest

import run  # puts the checkout's src on sys.path
import oracles
import tracer
import workloads
from cptgroup import cli, solver

ROOT = run.ROOT


def _error_rate(wl, items_and_outputs):
    ops = [{"index": i, "item": item, "out": out, "error": None}
           for i, (item, out) in enumerate(items_and_outputs)]
    return run.error_rate(len(ops), run.check_ops(wl, ops))


def _verify_output(statuses):
    report = {"schema": "cptgroup-report/1", "overall": "pass",
              "strict": False,
              "sections": [{"claim_id": c, "status": s, "details": {}}
                           for c, s in statuses]}
    return {"rc": 0, "stdout": f"PASS     x\n{oracles.OVERALL_LINE}\n",
            "report": json.dumps(report)}


def test_verify_oracle_counts_one_flipped_status(tmp_path):
    wl = workloads.VerifyCold(ROOT, 0, 1, tmp_path)
    good = _verify_output(oracles.PINNED_STATUSES)
    assert _error_rate(wl, [(None, good)] * 3) == 0
    flipped = list(oracles.PINNED_STATUSES)
    flipped[4] = (flipped[4][0], "fail")
    bad = _verify_output(flipped)
    assert wl.check(None, bad) is not None
    assert _error_rate(wl, [(None, good), (None, bad), (None, good)]) > 0


def _query(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return {"rc": rc, "stdout": buf.getvalue()}


@pytest.mark.parametrize("argv, old, new", [
    (("table", "--group", "g1", "--format", "json"), '"PT"', '"-PT"'),
    (("table", "--group", "gtheta", "--format", "text"), "C*P", "P*C"),
    (("cycles", "--group", "g2", "--format", "text"), "(1 16)", "(1 15)"),
    (("cycles", "--group", "gtheta", "--format", "json"), "(9 10)", "(8 10)"),
    (("identify", "--group", "g2", "--format", "text"),
     "16e: isomorphic", "16e: not isomorphic"),
    (("identify", "--group", "gtheta", "--format", "json"),
     '"order": 16', '"order": 8'),
    (("solve", "--symmetry", "t", "--rep", "weyl", "--format", "text"),
     "dimension 1", "dimension 2"),
])
def test_query_oracle_counts_one_corrupted_output(tmp_path, argv, old, new):
    wl = workloads.QueryMix(ROOT, 0, 1, tmp_path)
    good = _query(argv)
    assert wl.check(argv, good) is None
    assert old in good["stdout"]
    bad = dict(good, stdout=good["stdout"].replace(old, new, 1))
    assert wl.check(argv, bad) is not None
    assert _error_rate(wl, [(argv, good), (argv, bad)]) > 0


def test_dense_oracle_counts_wrong_results(tmp_path):
    wl = workloads.DenseAlgebra(ROOT, 7, 0.1, tmp_path)
    item = next(it for it in wl.items if len(it[3].relations) == 2)
    good = wl.run(item)
    assert wl.check(item, good) is None
    da, db, dab = good["dets"]
    wrong_det = dict(good, dets=(da, db, dab + 1))
    basis = good["space"].basis
    short = dict(good, space=solver.SolutionSpace(basis[:-1]))
    doubled = dict(good, space=solver.SolutionSpace(basis[:-1] + basis[:1]))
    for bad in (wrong_det, short, doubled):
        assert wl.check(item, bad) is not None
    assert _error_rate(wl, [(item, good), (item, short)]) > 0


def test_tracer_restores_every_binding():
    from cptgroup import verify
    before = (solver.solve_system, verify.solve_system,
              verify.Context.__init__, cli.cmd_verify)
    t = tracer.Tracer().install()
    assert verify.solve_system is not before[1]
    t.uninstall()
    after = (solver.solve_system, verify.solve_system,
             verify.Context.__init__, cli.cmd_verify)
    assert after == before and not t.missing


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    stats = tracer.span_stats([spans])
    assert stats["a"] == [1, 10.0, 6.0]
    assert stats["b"] == [2, 4.0, 3.0]
    assert stats["c"] == [1, 1.0, 1.0]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = tracer.layer_metrics(tracer.merge([tracer.Tracer().dump()]), 1)
    layer["trace.overhead_s"] = 0.0
    assert {m["name"] for m in spec["per_layer"]} <= set(layer)
    op = {"wall_s": 1.0, "cpu_s": 1.0, "cal_s": 1.0}
    e2e, _ = run.end_to_end([copy.copy(op)], [], [op], 1024)
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
