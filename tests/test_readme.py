"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(example, f"{README}#library", "exec"), {})
