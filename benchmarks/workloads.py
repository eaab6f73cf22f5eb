"""The benchmark's three workloads.

Each workload generates its inputs from a seed before timing starts,
runs one operation per input in `run`, and checks an operation's output
in `check`, which the runner calls outside the timed region.

The package is imported from the checkout's `src`, as the tier-1 suite
does; `run.py` puts it on `sys.path` before importing this module.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cptgroup import cli, matrices, solver
from cptgroup.matrices import Mat4, RepTag
from cptgroup.scalars import Scalar

import calibration
import oracles

BENCH_DIR = Path(__file__).resolve().parent


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class VerifyCold:
    """One operation is a fresh `python -m cptgroup.cli verify`.

    The child is paused for a few milliseconds every quarter second to
    time the calibration kernel; the pauses are left out of its time.
    """

    name = "verify-cold"
    spawns = True

    def __init__(self, root: Path, seed: int, seconds: int,
                 out_dir: Path) -> None:
        self.root, self.env = root, child_env(root)
        self.report = out_dir / "verify-report.json"
        self.stdout = out_dir / "verify-stdout.txt"
        self.trace = out_dir / "verify-trace.json"
        self.items = [None]          # no generated input

    def warm_up(self) -> None:
        pass                         # every operation starts cold

    def run(self, _item, traced: bool = False) -> dict:
        self.report.unlink(missing_ok=True)
        args = ["verify", "--json-out", str(self.report)]
        cmd = ([sys.executable, str(BENCH_DIR / "traced_cli.py"),
                str(self.trace)] if traced
               else [sys.executable, "-m", "cptgroup.cli"]) + args
        with open(self.stdout, "wb") as out:
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    cwd=self.root, env=self.env)
            try:
                usage, paused, samples = calibration.wait_sampled(proc)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        return {
            "rc": proc.returncode,
            "stdout": self.stdout.read_text(),
            "report": (self.report.read_text() if self.report.exists()
                       else None),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "paused_s": paused,
            "cal_samples": samples,
            "trace": json.loads(self.trace.read_text()) if traced else None,
        }

    def check(self, _item, out: dict) -> str | None:
        return oracles.check_verify(out["rc"], out["stdout"], out["report"])


class QueryMix:
    """One long-lived interpreter answering CLI queries in turn.

    Every command rebuilds `Context()`, so this workload repeats identical
    work inside one process: set-up, caching, `groups` and `cli` changes
    show here, and the kernel hot path only in the `solve` quarter.
    """

    name = "query-mix"
    spawns = False
    SUBCOMMANDS = ("table", "cycles", "identify", "solve")

    def __init__(self, root: Path, seed: int, seconds: int,
                 out_dir: Path) -> None:
        rng = random.Random(seed)
        self.items: list[tuple[str, ...]] = []
        # far more than a run can use at today's speed
        while len(self.items) < 200 * seconds:
            # each round holds every subcommand once, so any prefix of
            # the sequence is spread evenly over the four
            for sub in rng.sample(self.SUBCOMMANDS, 4):
                if sub == "solve":
                    argv = ["solve", "--symmetry", rng.choice("pct"),
                            "--rep", rng.choice(("dp", "weyl", "majorana"))]
                else:
                    argv = [sub, "--group",
                            rng.choice(("g1", "g2", "gtheta"))]
                self.items.append(
                    tuple(argv + ["--format", rng.choice(("text", "json"))]))

    def warm_up(self) -> None:
        for sub in self.SUBCOMMANDS:
            self.run(next(a for a in self.items if a[0] == sub))

    def run(self, argv, traced: bool = False) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:    # argparse rejected the arguments
                rc = exc.code
        return {"rc": rc, "stdout": buf.getvalue()}

    def check(self, argv, out: dict) -> str | None:
        return oracles.check_query(argv, out["rc"], out["stdout"])


class DenseAlgebra:
    """General, dense inputs for the exact algebra, with no `Context`.

    The paper's matrices are monomial with unit entries, so a shortcut for
    those would look free on verify-cold; here most entries of each matrix
    are dense elements of Q(i, √2) and the shortcut cannot apply.
    """

    name = "dense-algebra"
    spawns = False
    TRANSFORMS = (lambda m: m, Mat4.transpose, Mat4.conj)

    def __init__(self, root: Path, seed: int, seconds: int,
                 out_dir: Path) -> None:
        rng = random.Random(seed)
        self.reps = [matrices.get_rep(tag) for tag in RepTag]
        self.signed = [{b.scale(s): (k, s) for k, b in enumerate(rep.basis)
                        for s in (1, -1)} for rep in self.reps]
        # an operation's time grows with its number of relations, so each
        # round of five items holds the counts 1, 2, 3, 3, 4 in random
        # order: any prefix has the same mix, and the median falls inside
        # the three-relation group rather than on the edge between two
        # groups.  7x what a run uses at today's speed, fixed per run
        # length so that the memory the inputs take does not depend on it
        self.items = [self._item(rng, n) for _ in range(int(10 * seconds))
                      for n in rng.sample((1, 2, 3, 3, 4), 5)]
        self.warm = [self._item(rng, n) for n in (1, 2, 3)]

    def _scalar(self, rng) -> Scalar:
        return Scalar(*[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 9))
                        if rng.random() < 0.6 else 0 for _ in range(4)])

    def _dense(self, rng, invertible: bool) -> Mat4:
        while True:
            m = Mat4([[self._scalar(rng) for _ in range(4)]
                      for _ in range(4)])
            if not invertible or abs(_float_det(m)) > 1e-6:
                return m

    def _item(self, rng, relations: int):
        a, b = self._dense(rng, True), self._dense(rng, False)
        r = rng.randrange(3)
        rep, signed = self.reps[r], self.signed[r]
        # every relation X f(B_j) = s B_k X is chosen to hold for one
        # fixed basis word X0, so each kernel is at least one-dimensional
        x0 = rep.basis[rng.randrange(16)]
        x0_inv = x0 if x0 * x0 == Mat4.identity() else -x0
        rels = []
        for _ in range(relations):
            right = rng.choice(self.TRANSFORMS)(rep.basis[rng.randrange(16)])
            k, s = signed[x0 * right * x0_inv]
            rels.append(solver.Relation(right, rep.basis[k], s))
        return a, b, rep, solver.ConstraintSystem(tuple(rels))

    def warm_up(self) -> None:
        for item in self.warm:
            self.run(item)

    def run(self, item, traced: bool = False) -> dict:
        a, b, rep, system = item
        ab = a * b
        return {"ab": ab, "dets": (a.det(), b.det(), ab.det()),
                "inv": a.inverse(),
                "back": rep.recombine(rep.basis_expand(a)),
                "class": matrices.classify(a),
                "space": solver.solve_system(system, rep)}

    def check(self, item, out: dict) -> str | None:
        return oracles.check_dense(item, out)


def _float_det(m: Mat4) -> complex:
    """Floating-point determinant, used only to skip near-singular draws."""
    r2 = 2 ** 0.5
    a = [[complex(float(x.p) + r2 * float(x.r), float(x.q) + r2 * float(x.s))
          for x in row] for row in m.rows]
    det = 1 + 0j
    for c in range(4):
        p = max(range(c, 4), key=lambda r: abs(a[r][c]))
        if abs(a[p][c]) == 0:
            return 0j
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, 4):
            f = a[r][c] / a[c][c]
            a[r] = [u - f * v for u, v in zip(a[r], a[c])]
    return det


WORKLOADS = {w.name: w for w in (VerifyCold, QueryMix, DenseAlgebra)}
