"""Guards: every definition in ``src`` is read by the program itself,
every name a module of ``src`` imports is read by that module, every
name an annotation in ``src`` loads is bound, and every package
``__init__`` below ``repro`` is its docstring alone.

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
in an annotation, quoted or not.  ``__future__`` imports set compiler
flags, so they are not checked.

A public attribute that a top-level class of ``src/repro`` stores on
``self`` (``self.x = ...``, ``self.x += ...``, ``self.x: T = ...``)
must be loaded somewhere in the same four trees, again by bare name.
An augmented assignment stores; it is not a read.  A counter that only
tests read is state the program keeps for nobody.

A name an annotation loads, quoted or not, must be bound somewhere in
its module (imported, defined or assigned) or be a builtin: under
``from __future__ import annotations`` nothing evaluates an annotation
until ``typing.get_type_hints`` does, and then an unbound name raises
``NameError``.

A package ``__init__`` below ``src/repro`` holds its docstring and
nothing else: a re-export gives a name a second import path, and
importing any module of the package would load everything the
``__init__`` imports.
"""

from __future__ import annotations

import ast
import builtins
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
}


def _python_files(top: str) -> List[Path]:
    return sorted((ROOT / top).rglob("*.py"))


def _module(path: Path) -> str:
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


def _definitions(path: Path) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of each checked definition."""
    module = _module(path)
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


def _assigned(target: ast.expr) -> Iterator[ast.expr]:
    """The targets an assignment stores to, tuple unpacking flattened."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned(target.value)
    else:
        yield target


def _stored_attributes(path: Path) -> Iterator[Tuple[str, str]]:
    """``(module:Class.name, name)`` of each public attribute a
    top-level class stores on ``self``."""
    module = _module(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        stored: Set[str] = set()
        for item in ast.walk(node):
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, (ast.AugAssign, ast.AnnAssign)):
                targets = [item.target]
            else:
                continue
            for target in targets:
                for part in _assigned(target):
                    if (
                        isinstance(part, ast.Attribute)
                        and isinstance(part.value, ast.Name)
                        and part.value.id == "self"
                        and not part.attr.startswith("_")
                    ):
                        stored.add(part.attr)
        for name in sorted(stored):
            yield f"{module}:{node.name}.{name}", name


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


def _names(expression: ast.AST) -> Iterator[str]:
    """Names an annotation expression loads, inside quotes included."""
    for part in ast.walk(expression):
        if isinstance(part, ast.Name):
            yield part.id
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                yield from _names(ast.parse(part.value, mode="eval"))
            except SyntaxError:  # a Literal string, not a name
                pass


def _annotation_names(tree: ast.AST) -> Set[str]:
    """Names the annotations in ``tree`` load, quoted or not."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if annotation is not None:
            names.update(_names(annotation))
    return names


def _loads(tree: ast.AST) -> Set[str]:
    """Names loaded in ``tree``, quoted annotations included."""
    return _annotation_names(tree) | {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _bound(tree: ast.AST) -> Set[str]:
    """Names a module binds anywhere: imports, definitions, stores."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_every_src_import_is_read_by_its_module():
    unused = []
    for path in _python_files("src"):
        module = _module(path)
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


def test_every_annotation_name_is_bound():
    builtin = set(dir(builtins))
    unbound = []
    for path in _python_files("src"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in sorted(_annotation_names(tree) - _bound(tree) - builtin):
            unbound.append(f"{_module(path)}: {name}")
    assert not unbound, (
        "annotated with a name the module never binds (typing.get_type_hints "
        "raises NameError):\n  " + "\n  ".join(unbound)
    )


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


def test_every_stored_public_attribute_is_read_by_the_program():
    reads = _reads()
    unread = sorted(
        qualified
        for path in _python_files("src")
        for qualified, name in _stored_attributes(path)
        if name not in reads
    )
    assert not unread, (
        "stored on self in src but loaded nowhere by the program (delete "
        "it, or read it):\n  " + "\n  ".join(unread)
    )


def test_every_package_init_is_only_its_docstring():
    packages = ROOT / "src" / "repro"
    holding = []
    for path in sorted(packages.glob("*/**/__init__.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        body = tree.body
        if ast.get_docstring(tree) is not None:
            body = body[1:]
        if body:
            holding.append(str(path.relative_to(ROOT)))
    assert not holding, (
        "package __init__ holding more than its docstring (import each "
        "name from its defining module):\n  " + "\n  ".join(holding)
    )
