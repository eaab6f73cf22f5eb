"""The CI workflow parses, runs on every supported Python, and its steps
run the claims (once with warnings as errors), the tier-1 suite and the
benchmark's oracle tests, record the source lines, count each CLI
command, the constraint solver and the splitting search and time every
verify stage in traced runs."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


def _workflow():
    return yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tier1.yml").read_text())


def test_tier1_workflow_runs_verify_the_tier1_suite_and_the_oracle_tests():
    workflow = _workflow()
    # YAML 1.1 reads the bare key `on` as the boolean true
    assert set(workflow[True]) == {"push", "pull_request"}
    runs = [step.get("run", "") for job in workflow["jobs"].values()
            for step in job["steps"]]
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    for command in ("cptgroup verify", tier1, "benchmarks/test_oracle.py"):
        assert any(command in run for run in runs), command


def test_tier1_workflow_runs_on_every_supported_python():
    matrix = _workflow()["jobs"]["tests"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.11", "3.12", "3.13"]


def test_tier1_workflow_verifies_with_warnings_as_errors():
    # the package uses only the stdlib, so any warning comes from its code
    runs = [step.get("run", "") for job in _workflow()["jobs"].values()
            for step in job["steps"]]
    assert "python -X dev -W error -m cptgroup.cli verify" in runs


def test_tier1_workflow_bounds_the_job_run_time():
    # a hang, such as a closure that never ends, would otherwise hold a
    # runner for GitHub's 6-hour default
    assert _workflow()["jobs"]["tests"]["timeout-minutes"] == 20


def test_tier1_workflow_records_the_lines_of_each_module():
    runs = {step.get("name"): step.get("run", "")
            for job in _workflow()["jobs"].values() for step in job["steps"]}
    step = runs["Source line count"]
    assert "wc -l src/cptgroup/*.py" in step
    assert '>> "$GITHUB_STEP_SUMMARY"' in step


def test_tier1_workflow_counts_every_query_command_in_a_traced_run():
    # the tracer wraps `cli.cmd_*` on the module: a CLI that bound them
    # elsewhere would run its commands uncounted
    runs = [step.get("run", "") for job in _workflow()["jobs"].values()
            for step in job["steps"]]
    step = next(run for run in runs if "--workload query-mix" in run
                and "--trace 1" in run)
    assert 'out["correct"]' in step
    assert 'f"cli.{c}.calls"' in step and "> 0" in step
    for command in ("table", "solve", "cycles", "identify"):
        assert f'"{command}"' in step


def test_tier1_workflow_counts_the_solver_in_a_traced_dense_run():
    # dense-algebra's traced run shows the solver's per-layer numbers on
    # random unit-word systems, which `solve_system` solves by its
    # union-find, as it does `verify`'s kernels (neither reaches
    # `row_reduce`); the tracer wraps `classify` by name, so the run must
    # still count it
    runs = [step.get("run", "") for job in _workflow()["jobs"].values()
            for step in job["steps"]]
    step = next(run for run in runs if "--workload dense-algebra" in run
                and "--trace 1" in run)
    assert 'out["correct"]' in step and "> 0" in step
    for metric in ("solver.solve_system.calls",
                   "matrices.GammaRep.basis_expand.calls",
                   "matrices.classify.calls"):
        assert f'"{metric}"' in step


def test_tier1_workflow_times_every_verify_stage_in_a_traced_run():
    # each claim's check runs inside `report.add`, called from its stage:
    # the tracer must still time each of the stages it wraps
    runs = [step.get("run", "") for job in _workflow()["jobs"].values()
            for step in job["steps"]]
    step = next(run for run in runs if "--workload verify-cold" in run
                and "--trace 1" in run)
    assert 'out["correct"]' in step and "> 0" in step
    assert "from tracer import STAGES" in step
    assert 'f"verify.stage.{s}.total_s"' in step
    # the tracer counts the operator group's build under this name only,
    # `kernel` solves each named system through `solve_system`, the
    # isomorphism search backtracks over the images of `generators`, and
    # the exhaustive splitting search runs only for the non-split (74), (75)
    assert '"operator_group.build_operator_group.calls"' in step
    assert '"solver.solve_system.calls"' in step
    assert '"groups.find_isomorphism.found"' in step
    assert '"groups.ShortExactSequence.sections.calls"' in step
