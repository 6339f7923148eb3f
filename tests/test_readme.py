"""The README's library example runs against the installed API."""

import re
from pathlib import Path

import ellid

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    ns: dict = {}
    exec(compile(_library_block(), str(README), "exec"), ns)
    assert ns["report"].all_passed
    assert ns["lhs"] == ns["rhs"]


def test_public_names_resolve():
    for name in ellid.__all__:
        assert hasattr(ellid, name), name
