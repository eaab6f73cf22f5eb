"""Correctness oracles, one per workload, run outside the timed region.

Each check returns None when an output is right and a one-line reason
when it is wrong.  Expected values come from the transcribed reference
data in `cptgroup.claims`, from the claim list pinned below, or from
arithmetic done here, never from the code path under test.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction

from cptgroup import claims

# -- verify-cold --------------------------------------------------------------

CLAIM_IDS = (
    "clifford-dp", "clifford-weyl", "clifford-majorana", "identity-15a",
    "kernel-7", "kernel-18", "kernel-27", "claim-17-commutes-g5",
    "claim-27-trace", "kernel-weyl", "kernel-majorana", "compat-24",
    "compat-31", "families-36-37", "parity-square-rejection",
    "families-rep-invariance", "theta-39-40", "properties-variant1",
    "properties-variant2", "classes-41", "classes-42", "group-order-g1",
    "group-order-g2", "table-43", "table-44", "profile-g1", "profile-g2",
    "cycles-45", "cycles-46", "regular-representation", "grading-g1",
    "grading-g2", "iso-49-g1", "iso-49-g2", "noniso-g1-g2", "iso-dc8-q",
    "elements-50", "iso-53", "iso-55", "iso-55-annotations",
    "subgroup-dn-dh8", "ses-54", "ses-56", "ses-61", "semidirect-57",
    "iso-59", "iso-60", "semidirect-62", "iso-63", "center-dh8",
    "ses-74-no-split", "ses-75-no-split", "hamiltonian-dc8",
    "quotient-dc8-klein", "relations-67-68", "group-order-gtheta",
    "table-71", "profile-gtheta", "iso-72", "iso-gtheta-qxs0",
    "noniso-gtheta-g1", "noniso-gtheta-g2", "chain-73", "selection-69",
    "transform-77", "transform-77-det", "transform-77a", "majorana-80",
    "matrices-78", "matrices-79", "matrices-78a", "matrices-79a",
    "tables-preserved-under-conjugation",
)
# the two documented typos in the source text; every other claim passes
MISMATCHES = {"iso-55-annotations", "transform-77-det"}
PINNED_STATUSES = [(c, "mismatch" if c in MISMATCHES else "pass")
                   for c in CLAIM_IDS]
OVERALL_LINE = f"overall: pass ({len(CLAIM_IDS)} claims)"


def check_verify(rc: int, stdout: str, report: str | None) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.strip().splitlines()
    if not lines or lines[-1] != OVERALL_LINE:
        return f"last line {lines[-1] if lines else ''!r}"
    if report is None:
        return "no JSON report written"
    data = json.loads(report)
    if (data.get("schema"), data.get("overall")) != ("cptgroup-report/1",
                                                      "pass"):
        return "report header differs"
    got = [(s["claim_id"], s["status"]) for s in data["sections"]]
    if got != PINNED_STATUSES:
        diff = [f"{c}:{s}" for c, s in got if (c, s) not in PINNED_STATUSES]
        return f"claim statuses differ from the pinned list: {diff[:5]}"
    return None


# -- query-mix ----------------------------------------------------------------

G_NAMES = ("C", "P", "T", "CP", "CT", "PT", "θ")
GT_NAMES = ("C", "P", "T", "C*P", "C*T", "P*T", "Θ")
TABLES = {"g1": claims.TABLE_43, "g2": claims.TABLE_44,
          "gtheta": claims.TABLE_71}
NAMES = {"g1": G_NAMES, "g2": G_NAMES, "gtheta": GT_NAMES}
CYCLES = {"g1": claims.CYCLES_45, "g2": claims.CYCLES_46,
          "gtheta": {row[0]: row[4] for row in claims.CHAIN_73}}
S10 = {row[0]: row[3] for row in claims.CHAIN_73}
PROFILES = {
    key: {"1": 1, "2": len(o2), "4": len(o4)}
    for key, o2, o4 in (("g1", claims.ORDER2_G1, claims.ORDER4_G1),
                        ("g2", claims.ORDER2_G2, claims.ORDER4_G2),
                        ("gtheta", claims.ORDER2_GT, claims.ORDER4_GT))}
# which candidate each group is isomorphic to, as the verify report
# asserts it: iso-49-g1, iso-49-g2 and noniso-g1-g2 for the matrix
# groups; iso-72, iso-gtheta-qxs0 and noniso-gtheta-g1/g2 for the
# operator group (every other pair is ruled out by these through a
# third group)
ISOMORPHIC = {"g1": {"dh8xz2"}, "g2": {"16e"}, "gtheta": {"dc8xz2", "qxs0"}}
TARGETS = ("dh8xz2", "16e", "dc8xz2", "qxs0")
SYMMETRIES = {"p": "parity", "c": "charge-conjugation", "t": "time-reversal"}


def cycle_set(text: str) -> frozenset:
    """A cycle listing as a set of cycles, each rotated to start at its
    smallest point, with fixed points dropped."""
    out = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        pts = tuple(int(x) for x in body.split())
        if len(pts) > 1:
            k = pts.index(min(pts))
            out.add(pts[k:] + pts[:k])
    return frozenset(out)


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def check_query(argv, rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    fmt = _option(argv, "--format")
    sub = argv[0]
    if sub == "solve":
        return _check_solve(argv, fmt, stdout)
    group = _option(argv, "--group")
    return {"table": _check_table, "cycles": _check_cycles,
            "identify": _check_identify}[sub](group, fmt, stdout)


def _check_table(group, fmt, stdout):
    want, names = TABLES[group], list(NAMES[group])
    if fmt == "json":
        data = json.loads(stdout)
        ok = (data["group"] == group and data["row_labels"] == names
              and data["table"] == want)
    else:
        rows = [line.split() for line in stdout.strip().splitlines()]
        ok = rows == [names] + [[n] + r for n, r in zip(names, want)]
    return None if ok else f"table {group} differs from the reference"


def _check_cycles(group, fmt, stdout):
    if fmt == "json":
        data = json.loads(stdout)
        rows = [(r["element"], r["s16"], r.get("s10"))
                for r in data["cycles"]]
    else:
        rows = []
        for line in stdout.strip().splitlines():
            m = re.fullmatch(r"\s*(\S+)\s+(\(.*?\))(?:\s+\[S10: (.*)\])?",
                             line)
            if m is None:
                return f"unparsed cycles line {line!r}"
            rows.append(m.groups())
    want = CYCLES[group]
    if sorted(r[0] for r in rows) != sorted(want):
        return f"cycles {group}: element labels differ"
    for label, s16, s10 in rows:
        if cycle_set(s16) != cycle_set(want[label]):
            return f"cycles {group}: {label} differs"
        if (s10 is not None) != (group == "gtheta") or (
                s10 is not None and cycle_set(s10) != cycle_set(S10[label])):
            return f"cycles {group}: S10 image of {label} differs"
    return None


def _check_identify(group, fmt, stdout):
    want = {t: t in ISOMORPHIC[group] for t in TARGETS}
    if fmt == "json":
        data = json.loads(stdout)
        order, profile = data["order"], data["profile"]
        found = {c["target"]: c["found"] for c in data["isomorphisms_checked"]}
        if data["table"] != TABLES[group]:
            return f"identify {group}: table differs"
    else:
        lines = stdout.strip().splitlines()
        m = re.fullmatch(rf"group {group}: order (\d+), profile (\{{.*\}})",
                         lines[0])
        if m is None:
            return f"identify {group}: unparsed header {lines[0]!r}"
        order, profile = int(m[1]), ast.literal_eval(m[2])
        found = {}
        for line in lines[1:]:
            target, verdict = line.strip().split(": ")
            found[target] = verdict == "isomorphic"
    if order != 16 or profile != PROFILES[group]:
        return f"identify {group}: order or profile differs"
    if found != want:
        return f"identify {group}: isomorphism verdicts {found}"
    return None


def _check_solve(argv, fmt, stdout):
    sym, rep = _option(argv, "--symmetry"), _option(argv, "--rep")
    if fmt == "json":
        data = json.loads(stdout)
        ok = (data["symmetry"] == SYMMETRIES[sym]
              and data["representation"] == rep and data["dimension"] == 1
              and len(data["basis"]) == 1)
    else:
        ok = stdout.startswith(f"{SYMMETRIES[sym]} in {rep}: dimension 1\n")
    return None if ok else f"solve {sym} {rep}: not a one-dimensional line"


# -- dense-algebra ------------------------------------------------------------
#
# Field elements are (p, q, r, s) for p + q i + r √2 + s i √2, multiplied
# here from the definitions, independently of `cptgroup.scalars`.

ZERO = (Fraction(0),) * 4
ONE = (Fraction(1),) + ZERO[1:]


def k_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f + 2 * c * g - 2 * d * h,
            a * f + b * e + 2 * c * h + 2 * d * g,
            a * g - b * h + c * e - d * f,
            a * h + b * g + c * f + d * e)


def k_add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def k_block(x):
    """Rational 4x4 matrix of multiplication by x on (p, q, r, s)."""
    a, b, c, d = x
    return ((a, -b, 2 * c, -2 * d), (b, a, 2 * d, 2 * c),
            (c, -d, a, -b), (d, c, b, a))


def as_k(m) -> list[list[tuple]]:
    """A Mat4 as a 4x4 list of field 4-tuples."""
    return [[(x.p, x.q, x.r, x.s) for x in row] for row in m.rows]


def mat_mul(x, y):
    out = [[ZERO] * 4 for _ in range(4)]
    for i in range(4):
        for k in range(4):
            if x[i][k] == ZERO:      # the relations' matrices are monomial
                continue
            for j in range(4):
                if y[k][j] != ZERO:
                    out[i][j] = k_add(out[i][j], k_mul(x[i][k], y[k][j]))
    return out


def identity_k():
    return [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]


def relation_map(rel) -> list[list[tuple]]:
    """The 16x16 matrix over the field of X -> X R - s L X, with X
    flattened row-major."""
    r, l, s = as_k(rel.right), as_k(rel.left), Fraction(rel.sign)
    a = [[ZERO] * 16 for _ in range(16)]
    for i in range(4):
        for j in range(4):
            for k in range(4):
                a[4 * i + j][4 * i + k] = k_add(a[4 * i + j][4 * i + k],
                                                r[k][j])
                a[4 * i + j][4 * k + j] = k_add(
                    a[4 * i + j][4 * k + j], tuple(-s * v for v in l[i][k]))
    return a


def rational_rank(rows_k: list[list[tuple]]) -> int:
    """Rank over the field, from the rank over Q of the matrix with each
    entry replaced by its 4x4 multiplication block (exactly 4x larger).
    sympy is imported here only, so it never runs in a timed region."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not rows_k:
        return 0
    big = {}                                  # sparse: most blocks are 0
    for r, row in enumerate(rows_k):
        for c, x in enumerate(row):
            if x == ZERO:
                continue
            for t, block_row in enumerate(k_block(x)):
                for u, v in enumerate(block_row):
                    if v:
                        big.setdefault(4 * r + t, {})[4 * c + u] = \
                            QQ(v.numerator, v.denominator)
    rank = DomainMatrix(big, (4 * len(rows_k), 4 * len(rows_k[0])),
                        QQ).rank()
    if rank % 4:
        raise AssertionError("realified rank is not a multiple of 4")
    return rank // 4


def check_dense(item, out) -> str | None:
    a, b, _rep, system = item
    ka, kb = as_k(a), as_k(b)
    if as_k(out["ab"]) != mat_mul(ka, kb):
        return "product differs"
    da, db, dab = ((x.p, x.q, x.r, x.s) for x in out["dets"])
    if dab != k_mul(da, db):
        return "det(ab) != det(a) det(b)"
    if mat_mul(ka, as_k(out["inv"])) != identity_k():
        return "a * a^-1 != 1"
    if as_k(out["back"]) != ka:
        return "recombine(basis_expand(a)) != a"
    basis = [as_k(x) for x in out["space"].basis]
    for x in basis:
        for rel in system.relations:
            lhs = mat_mul(x, as_k(rel.right))
            rhs = mat_mul(as_k(rel.left), x)
            if any(k_add(lhs[i][j], tuple(-rel.sign * v for v in rhs[i][j]))
                   != ZERO for i in range(4) for j in range(4)):
                return "kernel element violates a relation"
    stacked = [row for rel in system.relations for row in relation_map(rel)]
    want = 16 - rational_rank(stacked)
    if len(basis) != want:
        return f"kernel dimension {len(basis)}, independent rank gives {want}"
    if rational_rank([[e for row in x for e in row] for x in basis]) != want:
        return "kernel basis is linearly dependent"
    return None
