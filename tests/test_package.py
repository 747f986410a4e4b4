"""The package as a reader meets it: README's library tour runs as written,
and only the command line prints."""

import ast
import re
from pathlib import Path

import mmsim

PACKAGE = Path(mmsim.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def test_readme_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    code, = re.findall(r"^```python\n(.*?)^```", tour[:tour.index("\n## ", 1)],
                       re.DOTALL | re.MULTILINE)
    exec(compile(code, f"{README}:library tour", "exec"), {"__name__": "__readme__"})
    assert capsys.readouterr().out


def test_only_the_cli_prints():
    """Library code logs through ``logging``; only ``cli.py`` writes to stdout."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert calls == []
