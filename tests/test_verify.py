"""The verification pipeline's report object and claim inventory."""

import json

import pytest
from conftest import status_of

from cptgroup import claims, cli, matrices, solver, verify
from cptgroup.groups import FiniteGroup, Permutation
from cptgroup.matrices import Mat4, RepTag, get_rep, monomial_code
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
    # on good data no check raises
    assert not [s.claim_id for s in report.sections if "error" in s.details]


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


def test_report_accumulation(capsys):
    # a check returns ok, (ok, details) or (ok, details, mismatch); one that
    # raises fails its own claim with the error as its details
    report = VerificationReport()
    report.add("x", lambda: True)
    report.add("y", lambda: (False, {"why": "test"}))
    report.add("z", lambda: (False, {}, True))
    report.add("w", lambda: (True, {"n": 1}, True))
    report.add("v", lambda: 1 / 0)
    assert report.sections == [
        ClaimResult("x", "pass", {}), ClaimResult("y", "fail", {"why": "test"}),
        ClaimResult("z", "mismatch", {}), ClaimResult("w", "pass", {"n": 1}),
        ClaimResult("v", "fail",
                    {"error": "ZeroDivisionError: division by zero"})]
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "ZeroDivisionError" in err
    assert report.overall(strict=False) == "fail"
    assert report.to_json()["sections"][1] == {
        "claim_id": "y", "status": "fail", "details": {"why": "test"}}


def test_context_accessors(pipeline):
    ctx, _ = pipeline
    # representations are built once and shared
    assert ctx.dp is get_rep(RepTag.DIRAC_PAULI)
    assert get_rep(RepTag.WEYL) is get_rep(RepTag.WEYL)
    assert len({get_rep(tag).s for tag in RepTag}) == 3
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
    ("RELATIONS_67_68", lambda rs: [("TP", "PT") if r == ("TP", "-PT")
                                    else r for r in rs], "operator_group",
     "relations-67-68"),
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
# listings that do not parse: `Permutation.from_cycles` raises ValueError
# inside the claim's check.  A listing that repeats its first cycle is
# malformed, not the same permutation; its id names the corruption, as its
# dataset and claim repeat an earlier row's
MALFORMED = [
    ("CYCLES_45", lambda c: {**c, "C": c["C"][:c["C"].index(")") + 1]
                             + c["C"]}, "matrix_groups", "cycles-45"),
    ("DH8_ELEMENTS", lambda xs: _entry(xs, 0, "(1 2"), "isomorphisms",
     "elements-50"),
    ("ISO_53", lambda m: {**m, "C": "(1 2"}, "isomorphisms", "iso-53")]
MUTATION_IDS = [f"{m[0]}-{m[3]}" for m in MUTATIONS] + [
    "CYCLES_45-repeated-cycle-cycles-45",
    "DH8_ELEMENTS-malformed-listing-elements-50",
    "ISO_53-malformed-listing-iso-53"]


def _details(report, claim_id: str) -> dict:
    return next(s.details for s in report.sections if s.claim_id == claim_id)


@pytest.mark.parametrize(
    "dataset, corrupt, stage, claim_id, malformed",
    [(*m, False) for m in MUTATIONS] + [(*m, True) for m in MALFORMED],
    ids=MUTATION_IDS)
def test_corrupted_reference_datum_fails(ctx, monkeypatch, capsys, dataset,
                                         corrupt, stage, claim_id, malformed):
    # the verifier must fail on wrong reference data, not only pass on
    # good data: one corrupted datum flips the claim of the stage reading it
    original = getattr(claims, dataset)
    corrupted = corrupt(original)
    assert corrupted != original
    monkeypatch.setattr(claims, dataset, corrupted)
    report = VerificationReport()
    getattr(verify, f"_check_{stage}")(ctx, report)
    assert status_of(report, claim_id) == "fail"
    # a wrong datum fails by comparison; a malformed listing by its error
    details = _details(report, claim_id)
    if malformed:
        assert list(details) == ["error"]
        assert details["error"].startswith("ValueError: ")
        assert "ValueError" in capsys.readouterr().err
    else:
        assert "error" not in details


def test_run_all_solves_each_kernel_once(monkeypatch):
    # one kernel per (symmetry, representation): p/c/t x dp/weyl/majorana,
    # each solved once by the union-find on the word product table, which
    # is built once; no system reaches elimination.  The wrapper calls the
    # real solver, so `kernel`'s cache keeps real kernels for later tests
    solver.kernel.cache_clear()
    matrices.word_table.cache_clear()
    solve, calls, reduced = solver.solve_system, [], []

    def counting(system, rep):
        calls.append(next((sym, rep) for sym in solver.SYSTEMS
                          if solver.constraint_system(sym, rep) == system))
        return solve(system, rep)

    monkeypatch.setattr(solver, "solve_system", counting)
    monkeypatch.setattr(solver, "row_reduce",
                        lambda *args: reduced.append(args))
    verify.run_all()
    assert len(calls) == 9
    assert set(calls) == {(sym, get_rep(tag)) for sym in "pct"
                          for tag in RepTag}
    assert solver.kernel.cache_info().misses == 9
    assert matrices.word_table.cache_info().misses == 1
    assert reduced == []


def test_run_all_transports_each_set_once(monkeypatch):
    # every set is carried as units times its kernel lines' carries, each
    # found once per (line, S, law): the transports of 34 distinct sets and
    # the 4 conjugations of a run meet 11 keys.  The 12 of 3 lines over 4
    # directed pairs share 3, as S_W and S_M are hermitian, so a pair and
    # its reverse use one S, and S_W is real, so its two laws agree;
    # conjugating by S_M adds the C and T lines under S†
    solver._line_carry.cache_clear()
    keys, carry = set(), solver._carry

    def recording(x, s, right):
        code = monomial_code(x)
        keys.add((code[0], tuple((e - code[1][0]) % 4 for e in code[1]),
                  s, right))
        return carry(x, s, right)

    monkeypatch.setattr(solver, "_carry", recording)
    verify.run_all()
    assert solver._line_carry.cache_info().misses == len(keys) == 11


def test_run_all_classifies_each_matrix_once(monkeypatch):
    # `classes-41/42` and the property checks each classify the four
    # matrices of each canonical set, once per reader; one C-P sweep per
    # presentation serves the enumeration and `parity-square-rejection`
    for cached in (solver.kernel, solver._line_carry,
                   solver.compatible_pairs):
        cached.cache_clear()
    calls = {"classify": 0, "check_cp_compatibility": 0, "__init__": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (matrices.classify, solver.check_cp_compatibility):
        for module in (matrices, solver, verify):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    monkeypatch.setattr(FiniteGroup, "__init__",
                        counting(FiniteGroup.__init__))
    verify.run_all()
    assert calls["classify"] == 16
    assert calls["check_cp_compatibility"] <= 59
    assert calls["__init__"] <= 34


def test_positive_parity_square_fails_rejection(ctx, monkeypatch):
    # P = g0 squares to +1: a sweep that let it through must be caught
    pairs = solver.compatible_pairs(ctx.dp)
    monkeypatch.setattr(verify, "compatible_pairs",
                        lambda rep: (*pairs, (ctx.dp.gamma[0], pairs[0][1])))
    report = VerificationReport()
    verify._check_compatibility(ctx, report)
    assert status_of(report, "parity-square-rejection") == "fail"


def test_run_all_builds_no_matrix_through_the_checking_constructor(
        monkeypatch):
    # products, sums, transposes and inverses of Mat4s take their rows as
    # they are; only matrices built from outside re-check their entries
    solver.kernel.cache_clear()
    calls = []
    init = Mat4.__init__

    def counting(self, rows):
        calls.append(None)
        init(self, rows)

    monkeypatch.setattr(Mat4, "__init__", counting)
    verify.run_all()
    assert len(calls) == 0


def test_trivial_regular_representation_fails(ctx, monkeypatch):
    # the map sending every element to the identity moves no point and is
    # a homomorphism: only faithfulness rejects it
    monkeypatch.setattr(FiniteGroup, "regular_representation",
                        lambda self: [Permutation.identity(self.order)]
                        * self.order)
    report = verify.VerificationReport()
    verify._check_matrix_groups(ctx, report)
    assert status_of(report, "regular-representation") == "fail"


# the readers of each dataset beyond its own claim in the mutation table
# the first printed section generates the γ(Z2) of (57) and of (62)
OTHER_READERS = {"ISO_55": {"iso-60"}, "ISO_59": {"iso-60"},
                 "SES_56_SECTIONS": {"semidirect-57", "iso-59", "iso-60"},
                 "SES_61_SECTIONS": {"semidirect-62", "iso-63"},
                 "WEYL_78": {"matrices-79"}, "MAJORANA_78A": {"matrices-79a"},
                 "SECOND_FAMILY_FACTORS": {"matrices-79a"}}
DATASETS = [name for name in vars(claims) if name.isupper()]


def _broken_claims(good, broken) -> set[str]:
    """The claims of `broken` that differ from `good`, which must list the
    same ids in the same order; each of them must fail."""
    assert [s.claim_id for s in broken.sections] == \
        [s.claim_id for s in good.sections]
    differ = {b.claim_id for g, b in zip(good.sections, broken.sections)
              if g != b}
    assert all(status_of(broken, c) == "fail" for c in differ)
    return differ


@pytest.mark.parametrize("dataset", DATASETS)
def test_each_dataset_fails_only_its_readers(pipeline, monkeypatch, dataset):
    # with a dataset unreadable, every claim that reads it fails with an
    # error and every other claim reports as on good data
    _, good = pipeline
    readers = {m[3] for m in MUTATIONS + MALFORMED if m[0] == dataset}
    readers |= OTHER_READERS.get(dataset, set())
    monkeypatch.setattr(claims, dataset, None)
    _, broken = verify.run_all()
    assert _broken_claims(good, broken) == readers
    assert all("error" in _details(broken, c) for c in readers)


def test_claims_cover_every_dataset():
    assert len(DATASETS) == 27
    assert {m[0] for m in MUTATIONS} == set(DATASETS)


# for each printed word list, a corruption that puts the unknown letter "q"
# in one word, and the claims that read the list
UNKNOWN_LETTER = {
    "ISO_60": (lambda m: {**m, "C": ("q", "1")}, {"iso-60"}),
    "ISO_55": (_iso_55_with("C", word="q"),
               {"iso-55", "iso-55-annotations", "iso-60"}),
    "ISO_59": (lambda rows: _entry(rows, 3, (rows[3][0], "q")),
               {"iso-59", "iso-60"}),
    "ISO_63": (lambda rows: _entry(rows, 5, (rows[5][0], "q")), {"iso-63"}),
    "SES_56_SECTIONS": (lambda xs: _entry(xs, 1, "q"), {"ses-56"}),
    "SES_61_SECTIONS": (lambda xs: _entry(xs, 1, "q"), {"ses-61"}),
    "CHAIN_73": (lambda rows: _entry(rows, 2, (rows[2][0], "xq",
                                               *rows[2][2:])), {"chain-73"}),
    "RELATIONS_67_68": (lambda rs: _entry(rs, 0, ("Pq", "-")),
                        {"relations-67-68"}),
}


@pytest.mark.parametrize("dataset", UNKNOWN_LETTER)
def test_unknown_letter_fails_exactly_its_readers(pipeline, monkeypatch,
                                                  capsys, dataset):
    # "q" is a letter of no printed alphabet: each check that evaluates the
    # word raises, so exactly the claims that read it fail, with the error
    _, good = pipeline
    corrupt, readers = UNKNOWN_LETTER[dataset]
    monkeypatch.setattr(claims, dataset, corrupt(getattr(claims, dataset)))
    _, broken = verify.run_all()
    assert _broken_claims(good, broken) == readers
    assert all(_details(broken, c) == {"error": "KeyError: 'q'"}
               for c in readers)
    assert capsys.readouterr().err.count("Traceback") == len(readers)


def test_a_raising_stage_hides_no_other_claim(monkeypatch, tmp_path, capsys):
    # an unknown letter in a printed word of (60) raises inside its check:
    # the CLI reports that one claim as failed, with its traceback, and
    # writes all 73
    monkeypatch.setattr(claims, "ISO_60", {**claims.ISO_60, "C": ("q", "1")})
    path = tmp_path / "report.json"
    assert cli.main(["verify", "--json-out", str(path)]) == 1
    captured = capsys.readouterr()
    assert "FAIL     iso-60\n" in captured.out
    assert captured.err.startswith("Traceback")
    sections = json.loads(path.read_text())["sections"]
    assert len(sections) == 73
    assert [s["claim_id"] for s in sections if s["status"] == "fail"] == \
        ["iso-60"]
    assert ClaimResult("iso-60", "fail", {"error": "KeyError: 'q'"}) \
        ._asdict() in sections


def test_a_raising_shared_value_fails_only_its_readers(pipeline, monkeypatch,
                                                       capsys):
    # the consistent sets are computed once, by the first claim that reads
    # them; if that raises, each of the three claims reading them fails
    _, good = pipeline

    def raising(rep):
        raise RuntimeError("no sets")

    monkeypatch.setattr(verify, "enumerate_consistent_sets", raising)
    _, broken = verify.run_all()
    assert _broken_claims(good, broken) == {
        "families-36-37", "families-rep-invariance", "theta-39-40"}
    assert capsys.readouterr().err.count("RuntimeError: no sets") == 3


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
    assert status_of(report, claim_id) == "fail"


@pytest.mark.parametrize("dataset, claim_id",
                         [("SES_56_SECTIONS", "ses-56"),
                          ("SES_61_SECTIONS", "ses-61")])
def test_no_printed_section_fails(ctx, monkeypatch, dataset, claim_id):
    # a split claim needs a witness: an empty list is none
    monkeypatch.setattr(claims, dataset, [])
    report = VerificationReport()
    verify._check_extensions(ctx, report)
    assert status_of(report, claim_id) == "fail"


def test_first_section_word_generates_the_semidirect_factor(pipeline,
                                                           monkeypatch):
    # d lies in the kernel: no section, and ⟨d⟩ is no γ2(Z2), so the
    # product DH8 x_Φ ⟨d⟩ has 32 elements and lacks the printed pairs
    _, good = pipeline
    monkeypatch.setattr(claims, "SES_56_SECTIONS",
                        ["d", *claims.SES_56_SECTIONS[1:]])
    _, broken = verify.run_all()
    assert _broken_claims(good, broken) == {"ses-56", "semidirect-57",
                                            "iso-59", "iso-60"}


def test_a_quotient_sequence_includes_its_members_in_index_order(ctx):
    # the kernel group lists its members sorted: an inclusion taken from
    # the members as given would not be a homomorphism
    g = ctx.dh8xz2
    members = sorted(g.closure_of(map(g.word, "dn")), reverse=True)
    ses = verify._quotient_ses(g, members)
    assert ses.inclusion.images == sorted(members) and ses.verify()


def test_zero_transported_solution_fails_kernel_claims(ctx, monkeypatch):
    # a zero matrix is a multiple of every kernel basis, but not a nonzero
    # one: the transported line must be spanned, not merely contain zero
    zero = Mat4.zero()
    monkeypatch.setattr(verify, "transport",
                        lambda sol, *args: solver.CptSolutionSet(
                            sol.variant, C=zero, P=zero, T=zero))
    report = VerificationReport()
    verify._check_kernels(ctx, report)
    assert status_of(report, "kernel-weyl") == "fail"
    assert status_of(report, "kernel-majorana") == "fail"


def test_unknown_letter_in_a_chain_word_fails_only_its_claim(monkeypatch,
                                                           capsys):
    # "q" names no permutation of S10: evaluating the word raises, which
    # fails the chain claim with the error, and the stage's later claims
    # are still reported
    rows = list(claims.CHAIN_73)
    label, _, pair, s10, s16 = rows[2]
    rows[2] = (label, "xq", pair, s10, s16)
    monkeypatch.setattr(claims, "CHAIN_73", rows)
    _, report = verify.run_all()
    assert len(report.sections) == 73
    chain = next(s for s in report.sections if s.claim_id == "chain-73")
    assert chain == ClaimResult("chain-73", "fail",
                                {"error": "KeyError: 'q'"})
    assert status_of(report, "selection-69") == "pass"
    assert "KeyError: 'q'" in capsys.readouterr().err
