"""Every ``from repro... import ...`` line the docs show still imports.

README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` quote imports
in code blocks and in inline snippets.  Each such statement (a
parenthesised one joined across its lines) runs in a fresh namespace,
so a doc cannot name an import path or a name that has gone.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

_IMPORT = re.compile(r"^\s*(from repro(?:\.\w+)* import .*)$", re.MULTILINE)


def _doc_imports() -> List[Tuple[str, str]]:
    """``(file:line, statement)`` of each import the docs show."""
    found = []
    for pattern in DOCS:
        for path in sorted(ROOT.glob(pattern)):
            text = path.read_text()
            for match in _IMPORT.finditer(text):
                statement = match.group(1).strip()
                if statement.endswith("("):
                    close = text.index(")", match.end())
                    statement += text[match.end():close + 1]
                line = text.count("\n", 0, match.start()) + 1
                where = f"{path.relative_to(ROOT)}:{line}"
                found.append((where, statement))
    return found


def test_every_doc_import_runs():
    imports = _doc_imports()
    assert imports, "no doc shows a repro import: is DOCS still right?"
    broken = []
    for where, statement in imports:
        try:
            exec(statement, {})
        except ImportError as exc:
            broken.append(f"{where}: {statement}  ({exc})")
    assert not broken, "doc imports that fail:\n  " + "\n  ".join(broken)
