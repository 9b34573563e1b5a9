import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the README's Library block is the public API's one worked example;
    # running it catches a renamed or removed name
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None, "no python block under ## Library"
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})
