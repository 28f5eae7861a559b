import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_what_its_comments_say():
    # the first python block under "## Library"; each commented print line
    # states what it prints
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    expected = [
        line.split("  # ", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(") and "  # " in line
    ]
    assert expected, "the example has no commented print line"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
