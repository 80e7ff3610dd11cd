"""Guards: every definition in ``src`` is read by the program itself,
and every name a module of ``src`` imports is read by that module.

A top-level function or class of ``src/repro``, or a non-dunder method
of one of its top-level classes, must be read somewhere in ``src``,
``examples``, ``benchmarks`` or ``bench``.  A definition that only
tests read is a test oracle or dead API: it belongs in ``tests/`` or
nowhere.

A read is a name or attribute load anywhere in those trees.  Imports,
``__all__`` strings and the definition itself do not count.  The check
goes by bare name, so a method that shares its name with any call in
those trees (``get``, ``keys``) passes unseen.

An import is read when its module loads the name it binds, in code or
in an annotation, quoted or not.  Package ``__init__`` modules import
to re-export and ``__future__`` imports set compiler flags, so neither
is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "examples", "benchmarks", "bench")

EXEMPT = {
    # http.server dispatches a request to do_<METHOD> by name.
    "repro.service.http_api:TrustServiceHandler.do_GET",
    "repro.service.http_api:TrustServiceHandler.do_POST",
    "repro.service.http_api:TrustServiceHandler.do_PUT",
    "repro.service.http_api:TrustServiceHandler.do_DELETE",
    # RadioChannel.broadcast reads it as getattr(message, "named", ()).
    "repro.network.messages:ChDecisionAnnouncement.named",
    # Rewind the process-global id streams so fixtures that build many
    # runs in one process (tests/golden/builders.py) number each alike.
    "repro.network.messages:reset_message_ids",
    "repro.clusterctl.head:reset_decision_ids",
    "repro.core.concurrent:reset_circle_ids",
}


def _python_files(top: str) -> List[Path]:
    return sorted((ROOT / top).rglob("*.py"))


def _definitions(path: Path) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of each checked definition."""
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}:{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            yield f"{module}:{node.name}", node.name
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}:{node.name}.{item.name}", item.name


def _reads() -> Set[str]:
    """Every name and attribute loaded anywhere in the reading trees."""
    names: Set[str] = set()
    for top in READERS:
        for path in _python_files(top):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    names.add(node.attr)
    return names


def _loads(tree: ast.AST) -> Set[str]:
    """Names loaded in ``tree``, quoted annotations included."""
    names = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                try:
                    names |= _loads(ast.parse(part.value, mode="eval"))
                except SyntaxError:  # a Literal string, not a name
                    pass
    return names


def test_every_src_import_is_read_by_its_module():
    unused = []
    for path in _python_files("src"):
        if path.name == "__init__.py":
            continue
        module = ".".join(
            path.relative_to(ROOT / "src").with_suffix("").parts
        )
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = _loads(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in loaded:
                    unused.append(f"{module}:{node.lineno}: {bound}")
    assert not unused, "imported but never read:\n  " + "\n  ".join(unused)


def test_every_src_definition_is_read_by_the_program():
    reads = _reads()
    defined = {
        qualified: name
        for path in _python_files("src")
        for qualified, name in _definitions(path)
    }
    assert EXEMPT <= defined.keys(), sorted(EXEMPT - defined.keys())
    unread = sorted(
        qualified
        for qualified, name in defined.items()
        if name not in reads and qualified not in EXEMPT
    )
    assert not unread, (
        "defined in src but read only by tests (move an oracle to "
        "tests/oracles/, delete the rest):\n  " + "\n  ".join(unread)
    )
