"""The README's example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_what_its_comments_say():
    code = re.search(r"```python\n(.*?)```", README.read_text(),
                     re.S).group(1)
    # each `print(...)  # text` line states the line it prints
    want = [line.split("#", 1)[1].strip() for line in code.splitlines()
            if line.startswith("print(")]
    assert want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
