"""The README's examples run as documented.

In the "Library use" block, lines without a comment run as statements;
each ``expr  # result`` line evaluates ``expr`` and compares it with the
literal ``result``, so the documented API cannot drift from the code, and
the names its paragraph lists are ``ls_ledger.__all__``.
Each command of the "Try it without any data" block runs in a fresh
directory and must succeed.
"""

from __future__ import annotations

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def block_after(heading: str, language: str) -> list[str]:
    """The lines of the first ``language`` code block after ``heading``."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    block = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert block, f"no {language} block under {heading}"
    return block.group(1).splitlines()


def test_library_use_snippet_results():
    namespace: dict = {}
    checked = 0
    for line in block_after("## Library use", "python"):
        expr, _, result = line.partition("#")
        if not result:
            exec(line, namespace)
            continue
        assert eval(expr, namespace) == ast.literal_eval(result.strip()), line
        checked += 1
    assert checked >= 4


def test_library_use_names_are_the_package_all():
    import ls_ledger

    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    listed = r"The names, all from `ls_ledger\.stream_core`,\s+are (.*?)\.\n"
    names = re.search(listed, section, re.S)
    assert names, "no name list under ## Library use"
    assert re.findall(r"`(\w+)`", names.group(1)) == ls_ledger.__all__


def test_try_it_without_data_commands_run(tmp_path):
    # the installed script and ``python`` are this interpreter, on src/
    programs = {"python": [sys.executable], "ls-ledger": [sys.executable, "-m", "ls_ledger.cli"]}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    commands = [line.partition("#")[0] for line in block_after("Try it without any data:", "sh")]
    commands = [shlex.split(c) for c in commands if c.strip()]
    assert [c[0] for c in commands] == ["python", "python", "ls-ledger", "ls-ledger"]
    for program, *args in commands:
        proc = subprocess.run(
            [*programs[program], *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, (args, proc.stderr)
    for k in (2, 3):
        for name in ("", "_txmm"):
            assert (tmp_path / "demo_out" / f"closures_k{k}{name}.csv").is_file()
