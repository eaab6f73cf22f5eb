"""No source or test module imports a name it never reads, and the
command line starts without the modules it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/cptgroup/*.py"), *ROOT.glob("tests/*.py")])

# (file, name) -> why the file imports the name without reading it
ALLOWED = {
    ("src/cptgroup/verify.py", "solve_system"):
        "benchmarks/test_oracle.py reads verify.solve_system; the two go "
        "together in the next change to the benchmark",
}


def unread_imports(tree: ast.Module) -> set[str]:
    """The names `tree` binds by import and never reads; a name listed in
    `__all__` counts as read."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_every_imported_name_is_read():
    found = {(str(path.relative_to(ROOT)), name)
             for path in FILES
             for name in unread_imports(ast.parse(path.read_text()))}
    assert found == set(ALLOWED)


def test_importing_the_cli_skips_dataclasses_and_inspect():
    # importing them costs every cold `cptgroup verify` several ms
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cptgroup.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
