"""Command-line front end.

Subcommands:

  verify    run the full verification pipeline; exit 0 on pass
  table     print a group's 7x7 basic multiplication table
  solve     print a symmetry constraint's exact solution space
  cycles    print regular-representation cycle listings
  identify  report a group's order, profile, and isomorphism matches

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import matrix_groups, operator_group
from .groups import find_isomorphism
from .matrices import BASIS_NAMES, RepTag, get_rep
from .solver import SYSTEMS, kernel
from .verify import Context, run_all

GROUP_CHOICES = ("g1", "g2", "gtheta")


def cmd_verify(args) -> int:
    _, report = run_all()
    for s in report.sections:
        print(f"{s.status.upper():8s} {s.claim_id}")
        if s.status != "pass" and s.details:
            print(f"         {json.dumps(s.details, sort_keys=True)}")
    overall = report.overall(strict=args.strict)
    print(f"overall: {overall} ({len(report.sections)} claims"
          + (", strict)" if args.strict else ")"))
    if args.json_out:
        payload = report.to_json(strict=args.strict)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
        with args.json_out as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if overall == "pass" else 1


def cmd_table(args) -> int:
    group = getattr(Context(), args.group)
    if args.format == "json":
        print(json.dumps({"group": args.group,
                          "row_labels": matrix_groups.base_labels(group),
                          "table": matrix_groups.basic_table(group)},
                         indent=2))
    else:
        print(matrix_groups.render_table(group))
    return 0


def cmd_solve(args) -> int:
    rep = get_rep(RepTag(args.rep))
    space = kernel(args.symmetry, rep)
    names = []
    for b in space.basis:
        coeffs = rep.basis_expand(b)
        terms = [f"({coef})·{word}" if str(coef) != "1" else word
                 for coef, word in zip(coeffs, BASIS_NAMES)
                 if not coef.is_zero()]
        names.append(" + ".join(terms))
    payload = {
        "symmetry": SYSTEMS[args.symmetry][0],
        "representation": args.rep,
        "dimension": space.dimension,
        "basis": [b.to_json() for b in space.basis],
        "closed_form_name": names[0] if len(names) == 1 else names,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{payload['symmetry']} in {args.rep}: "
              f"dimension {space.dimension}")
        for b, name in zip(space.basis, names):
            print(f"  basis: {name}")
            for row in b.rows:
                print("    [" + ", ".join(str(e) for e in row) + "]")
    return 0


def cmd_cycles(args) -> int:
    group = getattr(Context(), args.group)
    rows = []
    for label, op, perm in zip(group.labels, group.elements,
                               group.regular_representation()):
        entry = {"element": label, "s16": perm.cycle_string()}
        if args.group == "gtheta":
            entry["s10"] = operator_group.to_s10(op).cycle_string()
        rows.append(entry)
    if args.format == "json":
        print(json.dumps({"group": args.group, "cycles": rows}, indent=2))
    else:
        for entry in rows:
            extra = f"   [S10: {entry['s10']}]" if "s10" in entry else ""
            print(f"{entry['element']:>5s}  {entry['s16']}{extra}")
    return 0


def cmd_identify(args) -> int:
    ctx = Context()
    group = getattr(ctx, args.group)
    candidates = [("dh8xz2", ctx.dh8xz2), ("16e", ctx.e16),
                  ("dc8xz2", ctx.dc8xz2), ("qxs0", ctx.qxs0)]
    checked = []
    for name, target in candidates:
        gm = find_isomorphism(group, target)
        item = {"target": name, "found": gm is not None}
        if gm is not None:
            item["map"] = {group.labels[i]: target.labels[m]
                           for i, m in enumerate(gm.images)}
        checked.append(item)
    payload = {
        "group": args.group,
        "order": group.order,
        "profile": {str(k): v
                    for k, v in sorted(group.order_profile().items())},
        "table": matrix_groups.basic_table(group),
        "cycles": {lbl: p.cycle_string()
                   for lbl, p in zip(group.labels,
                                     group.regular_representation())},
        "isomorphisms_checked": checked,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"group {args.group}: order {group.order}, "
              f"profile {payload['profile']}")
        for item in checked:
            print(f"  {item['target']}: "
                  f"{'isomorphic' if item['found'] else 'not isomorphic'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cptgroup",
        description="Exact derivation and verification of the CPT groups "
                    "of the Dirac field.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full verification pipeline")
    # opened while parsing, so a bad path is a usage error before the run
    p.add_argument("--json-out", metavar="PATH", type=argparse.FileType("w"),
                   help="write the machine-readable report here")
    p.add_argument("--strict", action="store_true",
                   help="treat documented-typo mismatches as failures")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="print a basic multiplication table")
    p.add_argument("--group", choices=GROUP_CHOICES, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("solve", help="solve a symmetry constraint system")
    p.add_argument("--symmetry", choices=tuple(SYSTEMS), required=True)
    p.add_argument("--rep", choices=[t.value for t in RepTag], required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("cycles", help="print regular-representation cycles")
    p.add_argument("--group", choices=GROUP_CHOICES, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("identify", help="identify a group up to isomorphism")
    p.add_argument("--group", choices=GROUP_CHOICES, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_identify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
