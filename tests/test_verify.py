"""The verification pipeline's report object and claim inventory."""

from cptgroup import claims, verify
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
    from cptgroup.matrices import RepTag
    assert ctx.rep(RepTag.WEYL).tag is RepTag.WEYL
    for key in ("g1", "g2", "gtheta"):
        assert ctx.group(key).order == 16


def test_corrupted_iso_55_cycles_fail(ctx, monkeypatch):
    # only the documented "-C" annotation typo may read as a mismatch; a
    # wrong printed cycle listing is a real failure
    corrupted = [(label, word, eqs, "(1 2)" if label == "CP" else cycles)
                 for label, word, eqs, cycles in claims.ISO_55]
    monkeypatch.setattr(claims, "ISO_55", corrupted)
    report = VerificationReport()
    verify._check_map_55(ctx, report)
    assert report.status_of("iso-55-annotations") == "fail"
