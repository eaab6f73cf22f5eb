"""Verification pipeline: recompute every claim and diff it against the
transcribed reference data.

Each claim gets a stable identifier and one of three statuses:

  pass      computed value agrees with the reference
  fail      computed value disagrees (an arithmetic or logic error)
  mismatch  a printed annotation disagrees with the otherwise-verified
            computation — a documented typo in the source text

The overall run passes when no claim fails; in strict mode, mismatches
fail too.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import claims
from .groups import (DICYCLIC_GENERATORS, DIHEDRAL_GENERATORS,
                     SIXTEEN_E_GENERATORS, FiniteGroup, GroupError, GroupMap,
                     Permutation, ShortExactSequence, dicyclic_8,
                     dicyclic_8_x_z2, dihedral_8, dihedral_8_x_z2,
                     conjugation_action, extend_generator_images,
                     find_isomorphism, klein_four, quaternion_group,
                     quaternion_x_sign, semidirect_product, sixteen_e)
from .matrices import CLASS_SIGNS, Grade, Mat4, RepTag, classify, get_rep
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

    def to_json(self) -> dict:
        return {"claim_id": self.claim_id, "status": self.status,
                "details": self.details}


class VerificationReport:
    def __init__(self) -> None:
        self.sections: list[ClaimResult] = []

    def add(self, claim_id: str, ok: bool, details: dict | None = None,
            mismatch: bool = False) -> None:
        status = "pass" if ok else ("mismatch" if mismatch else "fail")
        self.sections.append(ClaimResult(claim_id, status, details or {}))

    def overall(self, strict: bool = False) -> str:
        bad = {"fail", "mismatch"} if strict else {"fail"}
        return "fail" if any(s.status in bad for s in self.sections) else "pass"

    def to_json(self, strict: bool = False) -> dict:
        return {
            "schema": "cptgroup-report/1",
            "overall": self.overall(strict),
            "strict": strict,
            "sections": [s.to_json() for s in self.sections],
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

    @cached_property
    def e16_letters(self) -> dict[str, int]:
        """The letters of the printed words in 16E: its generators a, d, n,
        the central -1 = aa and the identity 1."""
        e16 = self.e16
        letters = {ch: e16.index[Permutation.from_cycles(g, 8)]
                   for ch, g in zip("adn", SIXTEEN_E_GENERATORS)}
        letters["-"] = e16.table[letters["a"]][letters["a"]]
        letters["1"] = e16.identity
        return letters

    def e16_word(self, word: str) -> int:
        """The index of the element of 16E that a printed word like "-adn"
        or "1" names: the product of its `e16_letters`, left to right."""
        idx = self.e16.identity
        for ch in word:
            idx = self.e16.table[idx][self.e16_letters[ch]]
        return idx


def _listed(printed: str, degree: int) -> Permutation | None:
    """The permutation a printed cycle listing names, or None if the
    listing is malformed: then it matches no permutation."""
    try:
        return Permutation.from_cycles(printed, degree)
    except ValueError:
        return None


def _perm_matches(p: Permutation, printed: str) -> bool:
    """Whether `printed` lists p's cycles."""
    return p == _listed(printed, p.degree)


def _table_diffs(group: FiniteGroup, printed: list[list[str]]) -> list[dict]:
    """The entries where the group's basic table differs from `printed`."""
    got = matrix_groups.basic_table(group)
    names = matrix_groups.base_labels(group)
    return [{"row": names[i], "col": names[j], "printed": printed[i][j],
             "computed": got[i][j]}
            for i in range(7) for j in range(7) if got[i][j] != printed[i][j]]


def _profile_ok(group: FiniteGroup, order2: list[str],
                order4: list[str]) -> bool:
    """The printed elements of orders 2 and 4, and the order profile they
    make with the identity."""
    of_order = {k: {group.labels[i] for i in range(group.order)
                    if group.element_order(i) == k} for k in (2, 4)}
    return (group.order_profile() == {1: 1, 2: len(order2), 4: len(order4)}
            and of_order[2] == set(order2) and of_order[4] == set(order4))


# -- pipeline stages ------------------------------------------------------------

# the presentations other than the standard one, Weyl (77) and Majorana (77a)
_CONJUGATES = (RepTag.WEYL, RepTag.MAJORANA)


def _check_clifford(ctx: Context, report: VerificationReport) -> None:
    two = Scalar(2)
    eta = (two, -two, -two, -two)
    ident = Mat4.identity()
    for tag in RepTag:
        rep = get_rep(tag)
        g = rep.gamma
        ok = all(g[mu] * g[nu] + g[nu] * g[mu]
                 == (ident.scale(eta[mu]) if mu == nu else Mat4.zero())
                 for mu in range(4) for nu in range(4))
        g5 = (g[0] * g[1] * g[2] * g[3]).scale(-I)
        report.add(f"clifford-{tag.value}", ok and rep.gamma5 == g5)
    g = ctx.dp.gamma
    ok = all(g[0] * g[mu].conj() * g[0] == g[mu].transpose()
             for mu in range(4))
    report.add("identity-15a", ok)


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
    dp = ctx.dp
    sol = ctx.solutions[2]
    for sym, claim_id in (("p", "kernel-7"), ("c", "kernel-18"),
                          ("t", "kernel-27")):
        space = kernel(sym, dp)
        # the closed form must be a unit multiple of the normalized kernel
        # basis, which must satisfy the system by substitution
        ok = (_multiple(space, getattr(sol, sym.upper())) in UNITS
              and constraint_system(sym, dp).satisfied_by(space.basis[0]))
        report.add(claim_id, ok, {"dimension": space.dimension})
    # extra printed facts about the closed forms
    c, t, g0 = sol.C, sol.T, dp.gamma[0]
    report.add("claim-17-commutes-g5", c * dp.gamma5 == dp.gamma5 * c)
    report.add("claim-27-trace", (t * g0 == g0 * t)
               and t.trace() == Scalar(0) and t.det() == Scalar(1))
    # other representations: dimension 1, spanning the transported line
    for rep in map(get_rep, _CONJUGATES):
        moved = transport(sol, dp, rep)
        report.add(f"kernel-{rep.tag.value}",
                   all(_multiple(kernel(sym, rep), getattr(moved, sym.upper()))
                       is not None for sym in SYSTEMS))


def _check_compatibility(ctx: Context, report: VerificationReport) -> None:
    s1, s2 = ctx.solutions[1], ctx.solutions[2]
    report.add("compat-24",
               (not check_cp_compatibility(s1.C, ctx.dp.gamma[0]))
               and check_cp_compatibility(s1.C, s1.P)
               and check_cp_compatibility(s2.C, -s2.P))
    report.add("compat-31", check_ct_compatibility(s1.C, s1.T)
               and check_ct_compatibility(s2.C, s2.T)
               and not check_ct_compatibility(s1.C, s2.T))
    sets = enumerate_consistent_sets(ctx.dp)
    by_variant = {1: [], 2: []}
    for s in sets:
        by_variant[s.variant].append(s)
    ok = (len(sets) == 16 and len(by_variant[1]) == 8
          and len(by_variant[2]) == 8
          and all(s.squares() == SQUARE_SIGNATURES[s.variant] for s in sets))
    report.add("families-36-37", ok,
               {"total": len(sets), "variant1": len(by_variant[1]),
                "variant2": len(by_variant[2])})
    # no P with P² = +1 admits a compatible C
    report.add("parity-square-rejection",
               all(p * p != Mat4.identity()
                   for p, _ in compatible_pairs(ctx.dp)))
    # the enumeration is representation-independent: transporting the
    # non-DP solutions back to DP reproduces the same set of triples
    ok = True
    for rep in map(get_rep, _CONJUGATES):
        ok = ok and set(sets) == {transport(sol, rep, ctx.dp)
                                  for sol in enumerate_consistent_sets(rep)}
    report.add("families-rep-invariance", ok)
    # θ facts across every consistent triple
    gp = ctx.dp.gamma
    chi = gp[1] * gp[2] * gp[3]
    ident = Mat4.identity()
    ok = all(s.theta in (chi, -chi) and s.theta * s.theta == ident
             and s.theta.dagger() == s.theta
             and s.theta.inverse() == s.theta
             and s.theta.det() == Scalar(1)
             and s.theta.trace() == Scalar(0) for s in sets)
    report.add("theta-39-40", ok)


def _check_solution_properties(ctx: Context,
                               report: VerificationReport) -> None:
    for variant in (1, 2):
        checks = verify_solution_properties(ctx.solutions[variant])
        failed = sorted(k for k, v in checks.items() if not v)
        report.add(f"properties-variant{variant}", not failed,
                   {"failed": failed})
    # each matrix in its class, with real entries where the class makes
    # it equal to its conjugate and imaginary ones where it is minus it
    for variant, claim_id in ((1, "classes-41"), (2, "classes-42")):
        named = ctx.solutions[variant].named()
        ok = True
        for name, kind in CLASSES[variant].items():
            membership = classify(named[name])
            ok = ok and membership.in_class(kind) and (
                membership.real_entries if CLASS_SIGNS[kind][3] == 1
                else membership.imaginary_entries)
        report.add(claim_id, ok)


def _check_matrix_groups(ctx: Context, report: VerificationReport) -> None:
    report.add("group-order-g1", ctx.g1.order == 16)
    report.add("group-order-g2", ctx.g2.order == 16)
    for key, group, printed in (("43", ctx.g1, claims.TABLE_43),
                                ("44", ctx.g2, claims.TABLE_44)):
        diffs = _table_diffs(group, printed)
        report.add(f"table-{key}", not diffs, {"diffs": diffs})
    for key, group, o2, o4 in (
            ("g1", ctx.g1, claims.ORDER2_G1, claims.ORDER4_G1),
            ("g2", ctx.g2, claims.ORDER2_G2, claims.ORDER4_G2)):
        report.add(f"profile-{key}", _profile_ok(group, o2, o4),
                   {"profile": group.order_profile()})
    for key, printed in (("45", claims.CYCLES_45), ("46", claims.CYCLES_46)):
        group = ctx.g1 if key == "45" else ctx.g2
        diffs = []
        for label, perm in zip(group.labels,
                               group.regular_representation()):
            if not _perm_matches(perm, printed[label]):
                diffs.append({"element": label, "printed": printed[label],
                              "computed": perm.cycle_string()})
        report.add(f"cycles-{key}", not diffs, {"diffs": diffs})
    ok = True
    for group in (ctx.g1, ctx.g2, ctx.gtheta):
        perms = group.regular_representation()
        ok = ok and all(p.is_identity() or p.moves_every_point()
                        for p in perms)
        ok = ok and all(perms[group.table[i][j]] == perms[i] * perms[j]
                        for i in range(16) for j in range(16))
        ok = ok and sum(p.is_identity() for p in perms) == 1
    report.add("regular-representation", ok)


def _check_grading(ctx: Context, report: VerificationReport) -> None:
    for key, group in (("g1", ctx.g1), ("g2", ctx.g2)):
        grades = [ctx.dp.parity_grade(m) for m in group.elements]
        ok = (all(g in (Grade.EVEN, Grade.ODD) for g in grades)
              and any(g == Grade.ODD for g in grades)
              and any(g == Grade.EVEN for g in grades)
              and all(ctx.dp.preserves_gamma_span(m)
                      for m in group.elements))
        report.add(f"grading-{key}", ok)


def _check_isomorphisms(ctx: Context, report: VerificationReport) -> None:
    report.add("iso-49-g1",
               find_isomorphism(ctx.g1, ctx.dh8xz2) is not None)
    report.add("iso-49-g2", find_isomorphism(ctx.g2, ctx.e16) is not None)
    report.add("noniso-g1-g2", find_isomorphism(ctx.g1, ctx.g2) is None)
    report.add("iso-dc8-q", find_isomorphism(ctx.dc8, ctx.q) is not None)
    # printed element list of DH8
    report.add("elements-50", set(ctx.dh8.elements) ==
               {_listed(s, 4) for s in claims.DH8_ELEMENTS})
    # printed map (53): matrix group one onto DH8 x Z2
    images = [ctx.dh8xz2.index.get(_listed(claims.ISO_53[label], 6))
              for label in ctx.g1.labels]
    report.add("iso-53", None not in images and GroupMap(
        ctx.g1, ctx.dh8xz2, images).is_isomorphism())


def _psi2(ctx: Context) -> GroupMap:
    """ψ⁽²⁾, the printed map (55) from matrix group two onto 16E, read
    from its words."""
    images = {label: ctx.e16_word(w) for label, w, _, _ in claims.ISO_55}
    return GroupMap(ctx.g2, ctx.e16, [images[lbl] for lbl in ctx.g2.labels])


def _check_map_55(ctx: Context, report: VerificationReport) -> None:
    e16, ev = ctx.e16, ctx.e16_word
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
                    "printed": f"{word} = {'-' if sign < 0 else ''}{other}",
                    "computed": e16.elements[idx].cycle_string(),
                    "annotation_value": e16.elements[rhs].cycle_string()})
    report.add("iso-55", _psi2(ctx).is_isomorphism())
    # the "-C" annotation (see `claims.ISO_55`) is the one documented typo;
    # any other disagreement, a printed cycle listing included, fails
    typo_only = [(e["element"], e["kind"], e["printed"])
                 for e in mismatches] == [("-C", "annotation", "aaa = -an")]
    report.add("iso-55-annotations", not mismatches,
               {"entries": mismatches}, mismatch=typo_only)


def _quotient_ses(middle: FiniteGroup,
                  members: list[int]) -> ShortExactSequence:
    """N -> G -> G/N for the normal subgroup N of G with these (sorted)
    members, projecting each element to its coset; N is coset 0, so a
    section of G/N lists the image of N first."""
    kernel = middle.subgroup(members)
    quotient = middle.quotient(frozenset(members))
    if quotient.identity != 0:
        raise GroupError("the quotient's identity is not its first coset")
    coset_of = {m: k for k, coset in enumerate(quotient.elements)
                for m in coset}
    return ShortExactSequence(
        kernel, middle, quotient, GroupMap(kernel, middle, list(members)),
        GroupMap(middle, quotient,
                 [coset_of[i] for i in range(middle.order)]))


def _splits_by(ses: ShortExactSequence, image: int) -> bool:
    """Whether sending the generator of the two-element quotient to
    `image` is a section: a homomorphism that the projection takes back
    to the generator."""
    section = GroupMap(ses.quotient_group, ses.middle_group,
                       [ses.middle_group.identity, image])
    return section.is_homomorphism() and ses.projection.images[image] == 1


def _semidirect(ses: ShortExactSequence,
                section: list[int]) -> tuple[FiniteGroup, dict]:
    """N x_Φ H for the kernel N of `ses` and H = `section`, acting on N by
    conjugation in the middle group G; also the position of each pair
    (n, h) of G-indices in the product."""
    g, members = ses.middle_group, ses.inclusion.images
    h = sorted(section)
    semi = semidirect_product(ses.kernel_group, g.subgroup(h),
                              conjugation_action(g, members, h))
    index = {(members[a], h[b]): k for k, (a, b) in enumerate(semi.elements)}
    return semi, index


def _printed_semidirect_map(semi: FiniteGroup, index: dict,
                            target: FiniteGroup, printed,
                            ev) -> GroupMap | None:
    """The printed map (n, h) -> n·h from `semi` onto `target`, its words
    evaluated by `ev`; None unless every printed product holds in `target`
    and the whole assignment is an isomorphism."""
    images = [None] * semi.order
    for (gw, hw), out_w in printed:
        g_idx, h_idx, out_idx = ev(gw), ev(hw), ev(out_w)
        if target.table[g_idx][h_idx] != out_idx:
            return None
        images[index[(g_idx, h_idx)]] = out_idx
    if None in images:
        return None
    gm = GroupMap(semi, target, images)
    return gm if gm.is_isomorphism() else None


def _check_extensions(ctx: Context, report: VerificationReport) -> None:
    e16, ev = ctx.e16, ctx.e16_word

    # the subgroup generated by d and n: order 8, dihedral, normal; the
    # generator images and the isomorphism check both reject another order
    members = sorted(e16.closure_of({ev("d"), ev("n")}))
    dh8_dn = e16.subgroup(members)
    pos = {m: k for k, m in enumerate(members)}
    # printed generator correspondence d -> (1234), n -> (24)
    dh8_gens = [ctx.dh8.index[Permutation.from_cycles(g, 4)]
                for g in DIHEDRAL_GENERATORS]
    full = extend_generator_images(
        dh8_dn, ctx.dh8, [pos[ev("d")], pos[ev("n")]], dh8_gens)
    ok = (full is not None
          and GroupMap(dh8_dn, ctx.dh8, full).is_isomorphism()
          and e16.is_normal(frozenset(members)))
    report.add("subgroup-dn-dh8", ok)

    # sequence (54): DH8 -> DH8 x Z2 -> Z2, split by h -> (1, h)
    middle = ctx.dh8xz2
    ses54 = _quotient_ses(middle, sorted(middle.closure_of(
        middle.index[Permutation.from_cycles(g, 6)]
        for g in DIHEDRAL_GENERATORS)))
    z2 = middle.index[Permutation.from_cycles("(5 6)", 6)]
    report.add("ses-54", ses54.verify() and _splits_by(ses54, z2)
               and bool(ses54.sections()))

    # sequence (56): DH8<d,n> -> 16E -> Z2, split by -1 -> adn (or and)
    ses56 = _quotient_ses(e16, members)
    ok = (ses56.verify()
          and all(_splits_by(ses56, ev(w)) for w in claims.SES_56_SECTIONS))
    report.add("ses-56", ok and bool(ses56.sections()))

    # sequence (61): Z4 -> DH8<d,n> -> Z2, split by -1 -> n (or dn)
    z4_members = sorted(dh8_dn.closure_of({pos[ev("d")]}))
    ses61 = _quotient_ses(dh8_dn, z4_members)
    ok = (ses61.verify() and len(z4_members) == 4
          and all(_splits_by(ses61, pos[ev(w)])
                  for w in claims.SES_61_SECTIONS))
    report.add("ses-61", ok and bool(ses61.sections()))

    # semidirect reconstruction (57)/(59): DH8 x_Φ γ2(Z2) ≅ 16E, and the
    # printed map (59): ψ2(g, γ2(h)) = g·γ2(h), entry by entry
    semi, semi_index = _semidirect(ses56, [e16.identity, ev("adn")])
    report.add("semidirect-57", find_isomorphism(semi, e16) is not None)
    gm59 = _printed_semidirect_map(semi, semi_index, e16, claims.ISO_59, ev)
    report.add("iso-59", gm59 is not None)

    # printed map (60): the composition into the semidirect product
    if gm59 is not None:
        images60 = [semi_index[tuple(map(ev, claims.ISO_60[label]))]
                    for label in ctx.g2.labels]
        gm60 = GroupMap(ctx.g2, semi, images60)
        # (60) is defined as ψ2⁻¹ ∘ ψ⁽²⁾; rebuild ψ⁽²⁾ and compare
        composed = gm59.inverse_map().compose(_psi2(ctx))
        report.add("iso-60", gm60.is_isomorphism()
                   and composed.images == gm60.images)
    else:
        report.add("iso-60", False)

    # semidirect reconstruction (62)/(63): Z4 x_Φ γ(Z2) ≅ DH8<d,n>
    semi62, semi62_index = _semidirect(
        ses61, [dh8_dn.identity, pos[ev("n")]])
    report.add("semidirect-62",
               find_isomorphism(semi62, ctx.dh8) is not None)
    report.add("iso-63", _printed_semidirect_map(
        semi62, semi62_index, dh8_dn, claims.ISO_63,
        lambda w: pos[ev(w)]) is not None)

    # DH8 facts: center and the quotient structure used in (61)
    center = ctx.dh8.center()
    report.add("center-dh8", len(center) == 2
               and ctx.dh8.element_order(
                   max(center - {ctx.dh8.identity})) == 2)

    # sequences (74)/(75): exact but provably non-split
    dc8 = ctx.dc8
    x, y = (dc8.index[Permutation.from_cycles(g, 8)]
            for g in DICYCLIC_GENERATORS)
    ses74 = _quotient_ses(dc8, sorted(dc8.closure_of({x})))
    report.add("ses-74-no-split", ses74.verify() and not ses74.sections())

    ses75 = _quotient_ses(dc8, sorted(dc8.closure_of({dc8.table[x][x]})))
    # printed isomorphism ρ of the quotient with the Klein group
    v = klein_four()
    rho_data = {dc8.identity: (0, 0), x: (0, 1), y: (1, 0),
                dc8.table[x][y]: (1, 1)}
    rho = [None] * 4
    for rep_idx, pair in rho_data.items():
        rho[ses75.projection.images[rep_idx]] = v.index[pair]
    rho_map = GroupMap(ses75.quotient_group, v, rho)
    report.add("ses-75-no-split",
               ses75.verify() and rho_map.is_isomorphism()
               and not ses75.sections())

    # every subgroup of the dicyclic group is normal
    report.add("hamiltonian-dc8",
               all(dc8.is_normal(h) for h in dc8.subgroups()))
    report.add("quotient-dc8-klein",
               find_isomorphism(ses75.quotient_group, v) is not None)


def _check_operator_group(ctx: Context, report: VerificationReport) -> None:
    checks = operator_group.presentation_checks()
    report.add("relations-67-68", all(checks.values()),
               {"failed": sorted(k for k, v in checks.items() if not v)})
    gt = ctx.gtheta
    report.add("group-order-gtheta", gt.order == 16)
    diffs = _table_diffs(gt, claims.TABLE_71)
    report.add("table-71", not diffs, {"diffs": diffs})
    report.add("profile-gtheta",
               _profile_ok(gt, claims.ORDER2_GT, claims.ORDER4_GT),
               {"profile": gt.order_profile()})
    report.add("iso-72", find_isomorphism(gt, ctx.dc8xz2) is not None)
    report.add("iso-gtheta-qxs0",
               find_isomorphism(gt, ctx.qxs0) is not None)
    report.add("noniso-gtheta-g1", find_isomorphism(gt, ctx.g1) is None)
    report.add("noniso-gtheta-g2", find_isomorphism(gt, ctx.g2) is None)

    # the printed chain (73), column by column
    named = dict(zip(gt.labels, gt.elements))
    regular = dict(zip(gt.labels, gt.regular_representation()))
    diffs = []
    for label, word, (qs, qu, eps), s10, s16 in claims.CHAIN_73:
        e = named[label]
        if e != ((qs, qu), eps):
            diffs.append({"element": label, "kind": "quaternion-pair"})
        perm = operator_group.s10_word(word)
        if perm is None or not _perm_matches(perm, s10):
            diffs.append({"element": label, "kind": "word-vs-s10",
                          "printed": s10,
                          "computed": perm and perm.cycle_string()})
        if not _perm_matches(operator_group.to_s10(e), s10):
            diffs.append({"element": label, "kind": "realization-vs-s10"})
        if not _perm_matches(regular[label], s16):
            diffs.append({"element": label, "kind": "s16",
                          "printed": s16,
                          "computed": regular[label].cycle_string()})
    report.add("chain-73", not diffs, {"diffs": diffs})

    sel = operator_group.select_matrix_group(ctx.solutions)
    t1, t2 = ctx.solutions[1].T, ctx.solutions[2].T
    report.add("selection-69", sel == 2
               and t2.conj() == t2 and t1.conj() == -t1,
               {"selected_variant": sel})


def _check_representations(ctx: Context,
                           report: VerificationReport) -> None:
    s_w, s_m = (get_rep(tag).s for tag in _CONJUGATES)
    ok = (s_w == claims.S_W_UNSCALED.scale(INV_SQRT2)
          and s_w == s_w.dagger() and s_w * s_w == Mat4.identity()
          and s_w.trace() == Scalar(0))
    report.add("transform-77", ok)
    # the printed "det = -1" holds for the 2x2 block display but not
    # for the full 4x4 matrix, whose determinant is +1; any other value
    # is a real failure, not this typo
    block_det = (Scalar(1) * Scalar(-1) - Scalar(1) * Scalar(1)) \
        * INV_SQRT2 * INV_SQRT2
    det = s_w.det()
    report.add("transform-77-det", det == Scalar(-1),
               {"printed": "-1", "computed": str(det),
                "block_2x2_determinant": str(block_det)},
               mismatch=det == Scalar(1))
    ok = (s_m == claims.S_M_UNSCALED.scale(INV_SQRT2)
          and s_m == s_m.dagger() and s_m * s_m == Mat4.identity()
          and s_m.det() == Scalar(1) and s_m.trace() == Scalar(0))
    report.add("transform-77a", ok)

    report.add("majorana-80",
               get_rep(RepTag.MAJORANA).gamma == tuple(claims.MAJORANA_80)
               and all(e.is_imaginary() for m in claims.MAJORANA_80
                       for row in m.rows for e in row))

    factor = {name: Scalar(p, q)
              for name, (p, q) in claims.SECOND_FAMILY_FACTORS.items()}
    # the two standard sets, each conjugated by S_W and by S_M
    moved = {(s_mat, v): conjugate_group_matrices(ctx.solutions[v], s_mat)
             for s_mat in (s_w, s_m) for v in (1, 2)}
    for tag, s_mat, printed in (("78", s_w, claims.WEYL_78),
                                ("78a", s_m, claims.MAJORANA_78A)):
        named1, named2 = (moved[s_mat, v].named() for v in (1, 2))
        diffs = [{"matrix": name, "family": 1}
                 for name, want in printed.items()
                 if named1[name] not in (want, -want)]
        report.add(f"matrices-{tag}", not diffs, {"diffs": diffs})
        # second-family relations C(2)=iC(1), P(2)=P(1), T(2)=iT(1),
        # θ(2)=-θ(1), as printed — checked on the printed forms
        diffs = [name for name in printed
                 if named2[name] not in
                 (printed[name].scale(factor[name]),
                  -(printed[name].scale(factor[name])))]
        report.add(f"matrices-{'79' if tag == '78' else '79a'}",
                   not diffs, {"diffs": diffs})

    # conjugation preserves the group structure: the transported groups
    # have identical basic tables
    ok = all(matrix_groups.build_matrix_group(sol).table
             == (ctx.g1 if v == 1 else ctx.g2).table
             for (_, v), sol in moved.items())
    report.add("tables-preserved-under-conjugation", ok)


# the pipeline stages, in report order; stage S is `_check_S`
STAGES = ("clifford", "kernels", "compatibility", "solution_properties",
          "matrix_groups", "grading", "isomorphisms", "map_55", "extensions",
          "operator_group", "representations")


def run_all() -> tuple[Context, VerificationReport]:
    """Run every stage.  A stage that raises keeps the claims it added,
    gains a failing `<stage>-error` claim and prints its traceback to
    stderr, and the later stages still run."""
    ctx = Context()
    report = VerificationReport()
    for stage in STAGES:
        # looked up at call time, so a wrapper set on the module is used
        check = globals()[f"_check_{stage}"]
        try:
            check(ctx, report)
        except Exception as exc:
            # imported only here: it would add ~3 ms to every start
            import traceback
            traceback.print_exc()
            report.add(f"{stage}-error", False,
                       {"error": f"{type(exc).__name__}: {exc}"})
    return ctx, report
