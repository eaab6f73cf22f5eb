"""The verification pipeline's report object and claim inventory."""

import json

import pytest

from cptgroup import claims, cli, solver, verify
from cptgroup.groups import FiniteGroup, Permutation
from cptgroup.matrices import Mat4, RepTag, get_rep
from cptgroup.scalars import I
from cptgroup.verify import ClaimResult, VerificationReport


def test_pipeline_claim_inventory(pipeline):
    _, report = pipeline
    ids = [s.claim_id for s in report.sections]
    assert len(ids) == len(set(ids))
    assert len(ids) == 73
    by_status = {}
    for s in report.sections:
        by_status.setdefault(s.status, []).append(s.claim_id)
    assert sorted(by_status) == ["mismatch", "pass"]
    assert sorted(by_status["mismatch"]) == ["iso-55-annotations",
                                             "transform-77-det"]


def test_overall_strict_semantics(pipeline):
    _, report = pipeline
    assert report.overall(strict=False) == "pass"
    assert report.overall(strict=True) == "fail"


def test_report_json_shape(pipeline):
    _, report = pipeline
    payload = report.to_json(strict=False)
    assert payload["schema"] == "cptgroup-report/1"
    assert payload["overall"] == "pass"
    assert {"claim_id", "status", "details"} <= set(payload["sections"][0])
    strict_payload = report.to_json(strict=True)
    assert strict_payload["overall"] == "fail" and strict_payload["strict"]


def test_report_accumulation():
    report = VerificationReport()
    report.add("x", True)
    report.add("y", False, {"why": "test"})
    report.add("z", False, mismatch=True)
    assert report.status_of("x") == "pass"
    assert report.status_of("z") == "mismatch"
    assert report.overall(strict=False) == "fail"
    assert isinstance(report.sections[0], ClaimResult)


def test_context_accessors(pipeline):
    ctx, _ = pipeline
    # representations are built once and shared
    assert ctx.dp is get_rep(RepTag.DIRAC_PAULI)
    assert get_rep(RepTag.WEYL) is get_rep(RepTag.WEYL)
    assert get_rep(RepTag.WEYL).tag is RepTag.WEYL
    for key in ("g1", "g2", "gtheta"):
        assert getattr(ctx, key).order == 16


def _cell(table, i, j, value):
    out = [list(row) for row in table]
    out[i][j] = value
    return out


def _entry(items, k, value):
    out = list(items)
    out[k] = value
    return out


def _iso_55_with(label, word=None, cycles=None):
    return lambda rows: [
        (lbl, word if lbl == label and word else w, eqs,
         cycles if lbl == label and cycles else cyc)
        for lbl, w, eqs, cyc in rows]


# (dataset in `claims`, corruption of one datum, stage that reads it,
# claim that must then fail)
MUTATIONS = [
    ("TABLE_43", lambda t: _cell(t, 0, 0, "-1"), "matrix_groups", "table-43"),
    ("TABLE_44", lambda t: _cell(t, 0, 0, "1"), "matrix_groups", "table-44"),
    ("TABLE_71", lambda t: _cell(t, 0, 0, "-1"), "operator_group",
     "table-71"),
    ("CYCLES_45", lambda c: {**c, "C": c["T"]}, "matrix_groups", "cycles-45"),
    ("CYCLES_46", lambda c: {**c, "C": c["P"]}, "matrix_groups", "cycles-46"),
    ("ORDER2_G1", lambda xs: xs[1:], "matrix_groups", "profile-g1"),
    ("ORDER4_G1", lambda xs: xs[1:], "matrix_groups", "profile-g1"),
    ("ORDER2_G2", lambda xs: xs[1:], "matrix_groups", "profile-g2"),
    ("ORDER4_G2", lambda xs: xs[1:], "matrix_groups", "profile-g2"),
    ("ORDER2_GT", lambda xs: xs[1:], "operator_group", "profile-gtheta"),
    ("ORDER4_GT", lambda xs: xs[1:], "operator_group", "profile-gtheta"),
    ("DH8_ELEMENTS", lambda xs: _entry(xs, 1, "(1 2 4 3)"), "isomorphisms",
     "elements-50"),
    ("ISO_53", lambda m: {**m, "C": m["-C"]}, "isomorphisms", "iso-53"),
    ("ISO_55", _iso_55_with("C", word="d"), "map_55", "iso-55"),
    # only the documented "-C" annotation typo may read as a mismatch; a
    # wrong printed cycle listing is a real failure
    ("ISO_55", _iso_55_with("CP", cycles="(1 2)"), "map_55",
     "iso-55-annotations"),
    ("SES_56_SECTIONS", lambda xs: _entry(xs, 1, "d"), "extensions",
     "ses-56"),
    ("SES_61_SECTIONS", lambda xs: _entry(xs, 1, "d"), "extensions",
     "ses-61"),
    ("ISO_59", lambda rows: _entry(rows, 3, (rows[3][0], "ad")), "extensions",
     "iso-59"),
    ("ISO_60", lambda m: {**m, "C": m["-C"]}, "extensions", "iso-60"),
    ("ISO_63", lambda rows: _entry(rows, 5, (rows[5][0], "n")), "extensions",
     "iso-63"),
    ("CHAIN_73", lambda rows: _entry(rows, 2, (*rows[2][:3], "(1 2 3 4)",
                                               rows[2][4])),
     "operator_group", "chain-73"),
    ("S_W_UNSCALED", lambda m: -m, "representations", "transform-77"),
    ("S_M_UNSCALED", lambda m: -m, "representations", "transform-77a"),
    ("WEYL_78", lambda d: {**d, "C": d["C"].scale(I)}, "representations",
     "matrices-78"),
    ("MAJORANA_78A", lambda d: {**d, "C": d["C"].scale(I)}, "representations",
     "matrices-78a"),
    ("SECOND_FAMILY_FACTORS", lambda f: {**f, "C": (1, 0)}, "representations",
     "matrices-79"),
    ("MAJORANA_80", lambda ms: _entry(ms, 0, -ms[0]), "representations",
     "majorana-80"),
]


@pytest.mark.parametrize("dataset, corrupt, stage, claim_id", MUTATIONS,
                         ids=[f"{m[0]}-{m[3]}" for m in MUTATIONS])
def test_corrupted_reference_datum_fails(ctx, monkeypatch, dataset, corrupt,
                                         stage, claim_id):
    # the verifier must fail on wrong reference data, not only pass on
    # good data: one corrupted datum flips the claim of the stage reading it
    original = getattr(claims, dataset)
    corrupted = corrupt(original)
    assert corrupted != original
    monkeypatch.setattr(claims, dataset, corrupted)
    report = VerificationReport()
    getattr(verify, f"_check_{stage}")(ctx, report)
    assert report.status_of(claim_id) == "fail"


def test_run_all_solves_each_kernel_once(monkeypatch):
    # one solve per (symmetry, representation): p/c/t x dp/weyl/majorana
    solver.kernel.cache_clear()
    calls = []
    solve = solver.solve_system

    def counting(system, rep):
        calls.append((system, rep.tag))
        return solve(system, rep)

    monkeypatch.setattr(solver, "solve_system", counting)
    verify.run_all()
    assert len(calls) == 9 and len(set(calls)) == 9
    assert {tag for _, tag in calls} == set(RepTag)


def test_trivial_regular_representation_fails(ctx, monkeypatch):
    # the map sending every element to the identity moves no point and is
    # a homomorphism: only faithfulness rejects it
    monkeypatch.setattr(FiniteGroup, "regular_representation",
                        lambda self: [Permutation.identity(self.order)]
                        * self.order)
    report = verify.VerificationReport()
    verify._check_matrix_groups(ctx, report)
    assert report.status_of("regular-representation") == "fail"


def test_a_raising_stage_hides_no_other_claim(ctx, pipeline, monkeypatch,
                                              tmp_path, capsys):
    _, good = pipeline
    extensions = VerificationReport()
    verify._check_extensions(ctx, extensions)
    in_stage = {s.claim_id for s in extensions.sections}
    # an unknown letter in a printed word raises inside `extensions`
    monkeypatch.setattr(claims, "ISO_60", {**claims.ISO_60, "C": ("q", "1")})
    _, broken = verify.run_all()
    error = ClaimResult("extensions-error", "fail",
                        {"error": "KeyError: 'q'"})
    assert broken.sections.count(error) == 1
    # the other ten stages report as before, and the claims `extensions`
    # added before it raised keep their statuses
    assert [s for s in broken.sections
            if s.claim_id not in in_stage and s != error] == \
        [s for s in good.sections if s.claim_id not in in_stage]
    assert all(s.status == good.status_of(s.claim_id)
               for s in broken.sections if s.claim_id in in_stage)

    path = tmp_path / "report.json"
    assert cli.main(["verify", "--json-out", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL     extensions-error" in captured.out
    assert captured.err.startswith("Traceback")
    sections = json.loads(path.read_text())["sections"]
    assert error.to_json() in sections


@pytest.mark.parametrize("dataset, word, claim_id",
                         [("SES_56_SECTIONS", "n", "ses-56"),
                          ("SES_61_SECTIONS", "dd", "ses-61")])
def test_section_word_inside_the_kernel_fails(ctx, monkeypatch, dataset,
                                              word, claim_id):
    # an involution of the kernel N is a homomorphic image of the
    # two-element quotient, but no section: it projects to N, not to -1
    monkeypatch.setattr(claims, dataset, [getattr(claims, dataset)[0], word])
    report = VerificationReport()
    verify._check_extensions(ctx, report)
    assert report.status_of(claim_id) == "fail"


def test_zero_transported_solution_fails_kernel_claims(ctx, monkeypatch):
    # a zero matrix is a multiple of every kernel basis, but not a nonzero
    # one: the transported line must be spanned, not merely contain zero
    zero = Mat4.zero()
    monkeypatch.setattr(verify, "transform_constraint_solutions",
                        lambda sol, *args: solver.CptSolutionSet(
                            sol.variant, C=zero, P=zero, T=zero))
    report = VerificationReport()
    verify._check_kernels(ctx, report)
    assert report.status_of("kernel-weyl") == "fail"
    assert report.status_of("kernel-majorana") == "fail"
