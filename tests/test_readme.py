"""The README's "Library use" block runs as documented.

Lines without a comment run as statements; each ``expr  # result`` line
evaluates ``expr`` and compares it with the literal ``result``, so the
documented API cannot drift from the code.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under Library use"
    return block.group(1).splitlines()


def test_library_use_snippet_results():
    namespace: dict = {}
    checked = 0
    for line in library_use_block():
        expr, _, result = line.partition("#")
        if not result:
            exec(line, namespace)
            continue
        assert eval(expr, namespace) == ast.literal_eval(result.strip()), line
        checked += 1
    assert checked >= 4
