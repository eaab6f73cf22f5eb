"""Verification pipeline: recompute every claim and diff it against the
transcribed reference data.

Each claim gets a stable identifier and one of three statuses:

  pass      computed value agrees with the reference
  fail      computed value disagrees (an arithmetic or logic error), or
            the claim's check raised: its details then hold the error
  mismatch  a printed annotation disagrees with the otherwise-verified
            computation — a documented typo in the source text

Each claim is checked on its own.  A stage only registers checks with
`VerificationReport.add`, which runs each at once; everything that can
raise, reading the reference data included, happens inside a check, so a
check that raises fails its own claim and no other.  A value that several
checks read is computed by the first of them and kept.

The overall run passes when no claim fails; in strict mode, mismatches
fail too.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, NamedTuple

from . import claims
from .groups import (FiniteGroup, GroupError, GroupMap, Permutation,
                     ShortExactSequence, dicyclic_8, dicyclic_8_x_z2,
                     dihedral_8, dihedral_8_x_z2, extend_generator_images,
                     find_isomorphism, klein_four, quaternion_group,
                     quaternion_x_sign, semidirect_product, sixteen_e)
from .matrices import Grade, Mat4, RepTag, classify, get_rep
from .scalars import I, INV_SQRT2, UNITS, Scalar, ZERO
from .solver import (CLASSES, SQUARE_SIGNATURES, SYSTEMS, SolutionSpace,
                     canonical_sets, check_cp_compatibility,
                     check_ct_compatibility, compatible_pairs,
                     conjugate_group_matrices, constraint_system,
                     enumerate_consistent_sets, kernel,
                     solve_system,  # unused, but benchmarks/tracer.py wraps it
                     transport, verify_solution_properties)
from . import matrix_groups, operator_group


class ClaimResult(NamedTuple):
    claim_id: str
    status: str                      # pass | fail | mismatch
    details: dict


class VerificationReport:
    def __init__(self) -> None:
        self.sections: list[ClaimResult] = []

    def add(self, claim_id: str, check: Callable[[], object]) -> None:
        """Run `check` now: it returns ok, (ok, details) or (ok, details,
        mismatch).  If it raises, the claim fails with {"error": "<Type>:
        <message>"} as its details and the traceback goes to stderr."""
        try:
            out = check()
        except Exception as exc:
            # imported only here: it would add ~3 ms to every start
            import traceback
            traceback.print_exc()
            out = False, {"error": f"{type(exc).__name__}: {exc}"}
        ok, details, mismatch = ((*out, False)[:3] if isinstance(out, tuple)
                                 else (out, {}, False))
        status = "pass" if ok else ("mismatch" if mismatch else "fail")
        self.sections.append(ClaimResult(claim_id, status, details))

    def overall(self, strict: bool = False) -> str:
        bad = {"fail", "mismatch"} if strict else {"fail"}
        return "fail" if any(s.status in bad for s in self.sections) else "pass"

    def to_json(self, strict: bool = False) -> dict:
        return {
            "schema": "cptgroup-report/1",
            "overall": self.overall(strict),
            "strict": strict,
            "sections": [s._asdict() for s in self.sections],
        }


# -- shared constructions -----------------------------------------------------------


class Context:
    """Everything the pipeline and the CLI need.  Each group is built once
    per process, on first use by any Context, and then shared."""

    def __init__(self) -> None:
        self.dp = get_rep(RepTag.DIRAC_PAULI)
        self.solutions = canonical_sets()

    g1 = property(
        lambda self: matrix_groups.build_matrix_group(self.solutions[1]))
    g2 = property(
        lambda self: matrix_groups.build_matrix_group(self.solutions[2]))
    gtheta = property(lambda self: operator_group.build_operator_group())
    dh8 = property(lambda self: dihedral_8())
    dh8xz2 = property(lambda self: dihedral_8_x_z2())
    e16 = property(lambda self: sixteen_e())
    dc8 = property(lambda self: dicyclic_8())
    dc8xz2 = property(lambda self: dicyclic_8_x_z2())
    q = property(lambda self: quaternion_group())
    qxs0 = property(lambda self: quaternion_x_sign())


def _perm_matches(p: Permutation, printed: str) -> bool:
    """Whether `printed` lists p's cycles (ValueError if malformed)."""
    return p == Permutation.from_cycles(printed, p.degree)


def _table_claim(group: FiniteGroup, printed: list[list[str]]):
    """The entries where the group's basic table differs from `printed`."""
    got = matrix_groups.basic_table(group)
    names = matrix_groups.base_labels(group)
    diffs = [{"row": names[i], "col": names[j], "printed": printed[i][j],
              "computed": got[i][j]}
             for i in range(7) for j in range(7) if got[i][j] != printed[i][j]]
    return not diffs, {"diffs": diffs}


def _all_hold(checks: dict[str, bool]):
    """A claim made of named checks, which lists those that fail."""
    failed = sorted(k for k, v in checks.items() if not v)
    return not failed, {"failed": failed}


def _iso(g: FiniteGroup, h: FiniteGroup) -> bool:
    return find_isomorphism(g, h) is not None


def _profile_claim(group: FiniteGroup, order2: list[str], order4: list[str]):
    """The printed elements of orders 2 and 4, and the order profile they
    make with the identity."""
    of_order = {k: {group.labels[i] for i in range(group.order)
                    if group.element_order(i) == k} for k in (2, 4)}
    ok = (group.order_profile() == {1: 1, 2: len(order2), 4: len(order4)}
          and of_order[2] == set(order2) and of_order[4] == set(order4))
    return ok, {"profile": group.order_profile()}


# -- pipeline stages ------------------------------------------------------------

# the presentations other than the standard one, Weyl (77) and Majorana (77a)
_CONJUGATES = (RepTag.WEYL, RepTag.MAJORANA)


def _check_clifford(ctx: Context, report: VerificationReport) -> None:
    def clifford(tag: RepTag) -> bool:
        rep, two = get_rep(tag), Scalar(2)
        g, eta = rep.gamma, (two, -two, -two, -two)
        ok = all(g[mu] * g[nu] + g[nu] * g[mu]
                 == (Mat4.identity().scale(eta[mu]) if mu == nu
                     else Mat4.zero())
                 for mu in range(4) for nu in range(4))
        return ok and rep.gamma5 == (g[0] * g[1] * g[2] * g[3]).scale(-I)

    for tag in RepTag:
        report.add(f"clifford-{tag.value}", lambda: clifford(tag))
    g = ctx.dp.gamma
    report.add("identity-15a", lambda: all(
        g[0] * g[mu].conj() * g[0] == g[mu].transpose() for mu in range(4)))


def _multiple(space: SolutionSpace, m: Mat4) -> Scalar | None:
    """The nonzero r with m = r·b, for the one basis matrix b of a
    one-dimensional `space`; None if there is none."""
    if space.dimension != 1:
        return None
    b = space.basis[0]
    i, j = next((i, j) for i in range(4) for j in range(4)
                if b.rows[i][j] is not ZERO)
    r = m.rows[i][j] / b.rows[i][j]
    return r if r is not ZERO and m == b.scale(r) else None


def _check_kernels(ctx: Context, report: VerificationReport) -> None:
    dp, sol = ctx.dp, ctx.solutions[2]

    def closed_form(sym: str):
        # the closed form must be a unit multiple of the normalized kernel
        # basis, which must satisfy the system by substitution
        space = kernel(sym, dp)
        return (_multiple(space, getattr(sol, sym.upper())) in UNITS
                and constraint_system(sym, dp).satisfied_by(space.basis[0]),
                {"dimension": space.dimension})

    def transported(tag: RepTag) -> bool:
        # other representations: dimension 1, spanning the transported line
        rep = get_rep(tag)
        moved = transport(sol, dp, rep)
        return all(_multiple(kernel(sym, rep), getattr(moved, sym.upper()))
                   is not None for sym in SYSTEMS)

    for sym, claim_id in zip("pct", ("kernel-7", "kernel-18", "kernel-27")):
        report.add(claim_id, lambda: closed_form(sym))
    # extra printed facts about the closed forms
    c, t, g0 = sol.C, sol.T, dp.gamma[0]
    report.add("claim-17-commutes-g5",
               lambda: c * dp.gamma5 == dp.gamma5 * c)
    report.add("claim-27-trace", lambda: (t * g0 == g0 * t)
               and t.trace() == Scalar(0) and t.det() == Scalar(1))
    for tag in _CONJUGATES:
        report.add(f"kernel-{tag.value}", lambda: transported(tag))


def _check_compatibility(ctx: Context, report: VerificationReport) -> None:
    s1, s2 = ctx.solutions[1], ctx.solutions[2]
    report.add("compat-24", lambda:
               (not check_cp_compatibility(s1.C, ctx.dp.gamma[0]))
               and check_cp_compatibility(s1.C, s1.P)
               and check_cp_compatibility(s2.C, -s2.P))
    report.add("compat-31", lambda: check_ct_compatibility(s1.C, s1.T)
               and check_ct_compatibility(s2.C, s2.T)
               and not check_ct_compatibility(s1.C, s2.T))
    sets = cache(lambda: enumerate_consistent_sets(ctx.dp))

    def families():
        n1, n2 = (sum(s.variant == v for s in sets()) for v in (1, 2))
        return (len(sets()) == 16 and n1 == n2 == 8
                and all(s.squares() == SQUARE_SIGNATURES[s.variant]
                        for s in sets()),
                {"total": len(sets()), "variant1": n1, "variant2": n2})

    def theta() -> bool:
        # θ facts across every consistent triple
        g = ctx.dp.gamma
        chi = g[1] * g[2] * g[3]
        return all(th in (chi, -chi) and th * th == Mat4.identity()
                   and th.dagger() == th and th.inverse() == th
                   and th.det() == Scalar(1) and th.trace() == Scalar(0)
                   for th in (s.theta for s in sets()))

    report.add("families-36-37", families)
    # no P with P² = +1 admits a compatible C
    report.add("parity-square-rejection", lambda: all(
        p * p != Mat4.identity() for p, _ in compatible_pairs(ctx.dp)))
    # the enumeration is representation-independent: transporting the
    # non-DP solutions back to DP reproduces the same set of triples
    report.add("families-rep-invariance", lambda: all(
        set(sets()) == {transport(sol, rep, ctx.dp)
                        for sol in enumerate_consistent_sets(rep)}
        for rep in map(get_rep, _CONJUGATES)))
    report.add("theta-39-40", theta)


def _check_solution_properties(ctx: Context,
                               report: VerificationReport) -> None:
    def classes(variant: int) -> bool:
        # each matrix in its class: its conjugate sign makes its entries
        # real where it is +1 and imaginary where it is -1
        named = ctx.solutions[variant].named()
        return all(classify(named[name]).in_class(kind)
                   for name, kind in CLASSES[variant].items())

    for variant in (1, 2):
        report.add(f"properties-variant{variant}", lambda: _all_hold(
            verify_solution_properties(ctx.solutions[variant])))
    report.add("classes-41", lambda: classes(1))
    report.add("classes-42", lambda: classes(2))


def _check_matrix_groups(ctx: Context, report: VerificationReport) -> None:
    def cycles(group: FiniteGroup, printed: dict[str, str]):
        diffs = [{"element": label, "printed": printed[label],
                  "computed": perm.cycle_string()}
                 for label, perm in zip(group.labels,
                                        group.regular_representation())
                 if not _perm_matches(perm, printed[label])]
        return not diffs, {"diffs": diffs}

    def regular(group: FiniteGroup) -> bool:
        perms = group.regular_representation()
        return (all(p.is_identity() or p.moves_every_point() for p in perms)
                and all(perms[group.table[i][j]] == perms[i] * perms[j]
                        for i in range(16) for j in range(16))
                and sum(p.is_identity() for p in perms) == 1)

    report.add("group-order-g1", lambda: ctx.g1.order == 16)
    report.add("group-order-g2", lambda: ctx.g2.order == 16)
    report.add("table-43", lambda: _table_claim(ctx.g1, claims.TABLE_43))
    report.add("table-44", lambda: _table_claim(ctx.g2, claims.TABLE_44))
    report.add("profile-g1", lambda: _profile_claim(
        ctx.g1, claims.ORDER2_G1, claims.ORDER4_G1))
    report.add("profile-g2", lambda: _profile_claim(
        ctx.g2, claims.ORDER2_G2, claims.ORDER4_G2))
    report.add("cycles-45", lambda: cycles(ctx.g1, claims.CYCLES_45))
    report.add("cycles-46", lambda: cycles(ctx.g2, claims.CYCLES_46))
    report.add("regular-representation", lambda: all(
        map(regular, (ctx.g1, ctx.g2, ctx.gtheta))))


def _check_grading(ctx: Context, report: VerificationReport) -> None:
    def grading(group: FiniteGroup) -> bool:
        grades = [ctx.dp.parity_grade(m) for m in group.elements]
        return (set(grades) == {Grade.EVEN, Grade.ODD}
                and all(ctx.dp.preserves_gamma_span(m)
                        for m in group.elements))

    report.add("grading-g1", lambda: grading(ctx.g1))
    report.add("grading-g2", lambda: grading(ctx.g2))


def _check_isomorphisms(ctx: Context, report: VerificationReport) -> None:
    report.add("iso-49-g1", lambda: _iso(ctx.g1, ctx.dh8xz2))
    report.add("iso-49-g2", lambda: _iso(ctx.g2, ctx.e16))
    report.add("noniso-g1-g2", lambda: not _iso(ctx.g1, ctx.g2))
    report.add("iso-dc8-q", lambda: _iso(ctx.dc8, ctx.q))
    # printed element list of DH8
    report.add("elements-50", lambda: set(ctx.dh8.elements) == {
        Permutation.from_cycles(s, 4) for s in claims.DH8_ELEMENTS})
    # printed map (53): matrix group one onto DH8 x Z2
    report.add("iso-53", lambda: GroupMap(ctx.g1, ctx.dh8xz2, [
        ctx.dh8xz2.index[Permutation.from_cycles(claims.ISO_53[label], 6)]
        for label in ctx.g1.labels]).is_isomorphism())


def _psi2(ctx: Context) -> GroupMap:
    """ψ⁽²⁾, the printed map (55) from matrix group two onto 16E, read
    from its words."""
    images = {label: ctx.e16.word(w) for label, w, _, _ in claims.ISO_55}
    return GroupMap(ctx.g2, ctx.e16, [images[lbl] for lbl in ctx.g2.labels])


def _check_map_55(ctx: Context, report: VerificationReport) -> None:
    def annotations():
        e16, ev = ctx.e16, ctx.e16.word
        mismatches = []
        for label, word, equalities, printed_cycles in claims.ISO_55:
            idx = ev(word)
            if printed_cycles is not None:
                perm = e16.elements[idx]
                if not _perm_matches(perm, printed_cycles):
                    mismatches.append({"element": label, "kind": "cycles",
                                       "printed": printed_cycles,
                                       "computed": perm.cycle_string()})
            for sign, other in equalities:
                rhs = ev("-" + other if sign == -1 else other)
                if rhs != idx:
                    mismatches.append({
                        "element": label, "kind": "annotation",
                        "printed":
                            f"{word} = {'-' if sign < 0 else ''}{other}",
                        "computed": e16.elements[idx].cycle_string(),
                        "annotation_value": e16.elements[rhs].cycle_string()})
        # the "-C" annotation (see `claims.ISO_55`) is the one documented
        # typo; any other disagreement, in a cycle listing too, fails
        typo_only = [(e["element"], e["kind"], e["printed"])
                     for e in mismatches] == [("-C", "annotation", "aaa = -an")]
        return not mismatches, {"entries": mismatches}, typo_only

    report.add("iso-55", lambda: _psi2(ctx).is_isomorphism())
    report.add("iso-55-annotations", annotations)


def _quotient_ses(middle: FiniteGroup,
                  members: Iterable[int]) -> ShortExactSequence:
    """N -> G -> G/N for the normal subgroup N of G with these members,
    included in index order as `subgroup` lists them, projecting each
    element to its coset; N is coset 0, so a section of G/N lists the
    image of N first."""
    members = sorted(members)
    kernel = middle.subgroup(members)
    quotient = middle.quotient(frozenset(members))
    if quotient.identity != 0:
        raise GroupError("the quotient's identity is not its first coset")
    coset_of = {m: k for k, coset in enumerate(quotient.elements)
                for m in coset}
    return ShortExactSequence(
        kernel, middle, quotient, GroupMap(kernel, middle, members),
        GroupMap(middle, quotient, [coset_of[i] for i in range(middle.order)]))


def _splits(ses: ShortExactSequence, images) -> bool:
    """Whether `ses` is exact and sending the generator of its two-element
    quotient to each of `images`, at least one, is a section: a
    homomorphism that the projection takes back to the generator."""
    g, images = ses.middle_group, list(images)
    return ses.verify() and bool(images) and all(
        GroupMap(ses.quotient_group, g, [g.identity, image]).is_homomorphism()
        and ses.projection.images[image] == 1 for image in images)


def _printed_semidirect_map(semi: FiniteGroup, target: FiniteGroup,
                            printed) -> GroupMap:
    """The printed map from `semi`, built inside `target`, to `target`: a
    row ((n, h), value) sends (n, h) there, each word an element of
    `target`; others go to None."""
    ev = target.word
    images = [None] * semi.order
    for (gw, hw), out_w in printed:
        images[semi.index[ev(gw), ev(hw)]] = ev(out_w)
    return GroupMap(semi, target, images)


def _is_product_map(gm: GroupMap) -> bool:
    """Whether `gm` is an isomorphism that sends each (n, h) to n·h."""
    return all(m == gm.target.table[n][h] for m, (n, h)
               in zip(gm.images, gm.source.elements)) and gm.is_isomorphism()


def _check_extensions(ctx: Context, report: VerificationReport) -> None:
    # the subgroup ⟨d, n⟩ of 16E, which keeps the letters 1, -, d, n
    dn_members = cache(lambda: ctx.e16.closure_of(map(ctx.e16.word, "dn")))
    dh8_dn = cache(lambda: ctx.e16.subgroup(dn_members()))

    def subgroup_dn() -> bool:
        # order 8, dihedral (by the printed d -> (1234), n -> (24)) and
        # normal; the generator images and the isomorphism reject another order
        full = extend_generator_images(dh8_dn(), ctx.dh8,
                                       list(map(dh8_dn().word, "dn")),
                                       list(map(ctx.dh8.word, "dn")))
        return (full is not None
                and GroupMap(dh8_dn(), ctx.dh8, full).is_isomorphism()
                and ctx.e16.is_normal(dn_members()))

    def ses_54() -> bool:
        # sequence (54): DH8 -> DH8 x Z2 -> Z2, split by h -> (1, h)
        g = ctx.dh8xz2
        ses = _quotient_ses(g, g.closure_of(map(g.word, "dn")))
        return _splits(ses, [g.word("z")])

    # sequences (56): DH8<d,n> -> 16E -> Z2, split by -1 -> adn (or and),
    # and (61): Z4 -> DH8<d,n> -> Z2, split by -1 -> n (or dn)
    ses56 = cache(lambda: _quotient_ses(ctx.e16, dn_members()))
    ses61 = cache(lambda: _quotient_ses(
        dh8_dn(), dh8_dn().closure_of({dh8_dn().word("d")})))
    # the semidirect reconstructions inside each sequence's middle group,
    # (57): DH8 x_Φ γ2(Z2) ≅ 16E and (62): Z4 x_Φ γ(Z2) ≅ DH8<d,n>, with
    # γ(Z2) generated by the first printed section's image, and the
    # printed map (59): ψ2(g, γ2(h)) = g·γ2(h), entry by entry
    semi57 = cache(lambda: semidirect_product(
        ctx.e16, ses56().inclusion.images, ctx.e16.closure_of(
            {ctx.e16.word(claims.SES_56_SECTIONS[0])})))
    semi62 = cache(lambda: semidirect_product(
        dh8_dn(), ses61().inclusion.images, dh8_dn().closure_of(
            {dh8_dn().word(claims.SES_61_SECTIONS[0])})))
    gm59 = cache(lambda: _printed_semidirect_map(semi57(), ctx.e16,
                                                 claims.ISO_59))

    def iso_60() -> bool:
        # printed map (60), into the semidirect product; it is defined as
        # ψ2⁻¹ ∘ ψ⁽²⁾, so rebuild ψ⁽²⁾ and compare
        semi = semi57()
        gm60 = GroupMap(ctx.g2, semi, [
            semi.index[tuple(map(ctx.e16.word, claims.ISO_60[label]))]
            for label in ctx.g2.labels])
        composed = gm59().inverse_map().compose(_psi2(ctx))
        return gm60.is_isomorphism() and composed.images == gm60.images

    # sequences (74)/(75): DC8 over ⟨x⟩ and over ⟨x²⟩, exact but provably
    # non-split
    dc8_over = cache(lambda word: _quotient_ses(
        ctx.dc8, ctx.dc8.closure_of({ctx.dc8.word(word)})))

    def ses_75() -> bool:
        # with the printed isomorphism ρ of the quotient with the Klein group
        dc8, ses, v = ctx.dc8, dc8_over("xx"), klein_four()
        rho = [None] * 4
        for word, pair in (("1", (0, 0)), ("x", (0, 1)), ("y", (1, 0)),
                           ("xy", (1, 1))):
            rho[ses.projection.images[dc8.word(word)]] = v.index[pair]
        return (ses.verify()
                and GroupMap(ses.quotient_group, v, rho).is_isomorphism()
                and not ses.sections())

    report.add("subgroup-dn-dh8", subgroup_dn)
    report.add("ses-54", ses_54)
    report.add("ses-56", lambda: _splits(
        ses56(), map(ctx.e16.word, claims.SES_56_SECTIONS)))
    report.add("ses-61", lambda: ses61().kernel_group.order == 4
               and _splits(ses61(),
                           map(dh8_dn().word, claims.SES_61_SECTIONS)))
    report.add("semidirect-57", lambda: _iso(semi57(), ctx.e16))
    report.add("iso-59", lambda: _is_product_map(gm59()))
    report.add("iso-60", iso_60)
    report.add("semidirect-62", lambda: _iso(semi62(), ctx.dh8))
    report.add("iso-63", lambda: _is_product_map(_printed_semidirect_map(
        semi62(), dh8_dn(), claims.ISO_63)))
    # DH8 facts: center and the quotient structure used in (61)
    report.add("center-dh8", lambda: sorted(
        map(ctx.dh8.element_order, ctx.dh8.center())) == [1, 2])
    report.add("ses-74-no-split", lambda: dc8_over("x").verify()
               and not dc8_over("x").sections())
    report.add("ses-75-no-split", ses_75)
    # every subgroup of the dicyclic group is normal: every subgroup is
    # the union of its cyclic subgroups, so it is enough that those are
    report.add("hamiltonian-dc8", lambda: all(
        ctx.dc8.is_normal(ctx.dc8.closure_of({g}))
        for g in range(ctx.dc8.order)))
    report.add("quotient-dc8-klein", lambda: _iso(
        dc8_over("xx").quotient_group, klein_four()))


def _check_operator_group(ctx: Context, report: VerificationReport) -> None:
    def chain():
        # the printed chain (73), column by column
        gt, s10_group, q = ctx.gtheta, ctx.dc8xz2, ctx.qxs0
        regular = dict(zip(gt.labels, gt.regular_representation()))
        images = dict(zip(gt.labels, operator_group.to_s10()))
        pairs = dict(zip(gt.labels, operator_group.isomorphism_from_cpt(
            q, ("(1,-1)", "(i,1)", "(j,1)"), q.labels.index)))
        diffs = []
        for label, word, (qs, qu, eps), s10, s16 in claims.CHAIN_73:
            printed = f"({'-' if qs < 0 else ''}{qu},{eps})"
            if q.labels[pairs[label]] != printed:
                diffs.append({"element": label, "kind": "quaternion-pair"})
            perm = s10_group.elements[s10_group.word(word)]
            if not _perm_matches(perm, s10):
                diffs.append({"element": label, "kind": "word-vs-s10",
                              "printed": s10, "computed": perm.cycle_string()})
            if not _perm_matches(images[label], s10):
                diffs.append({"element": label, "kind": "realization-vs-s10"})
            if not _perm_matches(regular[label], s16):
                diffs.append({"element": label, "kind": "s16",
                              "printed": s16,
                              "computed": regular[label].cycle_string()})
        return not diffs, {"diffs": diffs}

    def selection():
        sel = operator_group.select_matrix_group(ctx.solutions)
        t1, t2 = ctx.solutions[1].T, ctx.solutions[2].T
        return (sel == 2 and t2.conj() == t2 and t1.conj() == -t1,
                {"selected_variant": sel})

    report.add("relations-67-68", lambda: _all_hold({
        f"{lhs} = {rhs}": ctx.gtheta.word(lhs) == ctx.gtheta.word(rhs)
        for lhs, rhs in claims.RELATIONS_67_68}))
    report.add("group-order-gtheta", lambda: ctx.gtheta.order == 16)
    report.add("table-71", lambda: _table_claim(ctx.gtheta, claims.TABLE_71))
    report.add("profile-gtheta", lambda: _profile_claim(
        ctx.gtheta, claims.ORDER2_GT, claims.ORDER4_GT))
    report.add("iso-72", lambda: _iso(ctx.gtheta, ctx.dc8xz2))
    report.add("iso-gtheta-qxs0", lambda: _iso(ctx.gtheta, ctx.qxs0))
    report.add("noniso-gtheta-g1", lambda: not _iso(ctx.gtheta, ctx.g1))
    report.add("noniso-gtheta-g2", lambda: not _iso(ctx.gtheta, ctx.g2))
    report.add("chain-73", chain)
    report.add("selection-69", selection)


def _check_representations(ctx: Context,
                           report: VerificationReport) -> None:
    weyl, majorana = _CONJUGATES
    def involution(tag: RepTag, unscaled: Mat4) -> bool:
        s = get_rep(tag).s
        return (s == unscaled.scale(INV_SQRT2) and s == s.dagger()
                and s * s == Mat4.identity() and s.trace() == Scalar(0))

    def weyl_det():
        # the printed "det = -1" holds for the 2x2 block display but not
        # for the full 4x4 matrix, whose determinant is +1; any other value
        # is a real failure, not this typo
        block_det = (Scalar(1) * Scalar(-1) - Scalar(1) * Scalar(1)) \
            * INV_SQRT2 * INV_SQRT2
        det = get_rep(weyl).s.det()
        return det == -1, {"printed": "-1", "computed": str(det),
                           "block_2x2_determinant": str(block_det)}, det == 1

    # the two standard sets, each conjugated by S_W and by S_M
    moved = cache(lambda: {
        (tag, v): conjugate_group_matrices(ctx.solutions[v], get_rep(tag).s)
        for tag in _CONJUGATES for v in (1, 2)})

    def family(tag: RepTag, variant: int, printed: dict[str, Mat4]):
        # the first family as printed; the second by its relations
        # C(2)=iC(1), P(2)=P(1), T(2)=iT(1), θ(2)=-θ(1), checked on the
        # printed forms; each up to sign
        named = moved()[tag, variant].named()
        factor = claims.SECOND_FAMILY_FACTORS
        want = {name: m if variant == 1 else m.scale(Scalar(*factor[name]))
                for name, m in printed.items()}
        diffs = [{"matrix": name, "family": variant}
                 for name, m in want.items() if named[name] not in (m, -m)]
        return not diffs, {"diffs": diffs}

    report.add("transform-77", lambda: involution(weyl, claims.S_W_UNSCALED))
    report.add("transform-77-det", weyl_det)
    report.add("transform-77a", lambda: involution(
        majorana, claims.S_M_UNSCALED) and get_rep(majorana).s.det() == 1)
    report.add("majorana-80", lambda:
               get_rep(majorana).gamma == tuple(claims.MAJORANA_80)
               and all(m.conj() == -m for m in claims.MAJORANA_80))
    report.add("matrices-78", lambda: family(weyl, 1, claims.WEYL_78))
    report.add("matrices-79", lambda: family(weyl, 2, claims.WEYL_78))
    report.add("matrices-78a",
               lambda: family(majorana, 1, claims.MAJORANA_78A))
    report.add("matrices-79a",
               lambda: family(majorana, 2, claims.MAJORANA_78A))
    # conjugation preserves the group structure: the transported groups
    # have identical basic tables
    report.add("tables-preserved-under-conjugation", lambda: all(
        matrix_groups.build_matrix_group(sol).table
        == (ctx.g1 if v == 1 else ctx.g2).table
        for (_, v), sol in moved().items()))


# the pipeline stages, in report order; stage S is `_check_S`
STAGES = ("clifford", "kernels", "compatibility", "solution_properties",
          "matrix_groups", "grading", "isomorphisms", "map_55", "extensions",
          "operator_group", "representations")


def run_all() -> tuple[Context, VerificationReport]:
    """Run every stage in report order.  A claim whose check raises fails
    with the error in its details, and every other claim is still checked."""
    ctx, report = Context(), VerificationReport()
    for stage in STAGES:
        # looked up at call time, so a wrapper set on the module is used
        globals()[f"_check_{stage}"](ctx, report)
    return ctx, report
