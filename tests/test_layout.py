"""The package holds only what the program runs.

Every module-level function, class and constant of ``src/ensmbo`` and
every public method of its classes must be used somewhere under ``src/``
or ``bench/`` outside its own definition.  Code that only the tests call
(oracles, reference implementations, readers of what the program writes)
lives under ``tests/``.  The one exemption is an entry point named in
``pyproject.toml``'s ``[project.scripts]``.  Every name that a module under
``src/``, ``tests/`` or ``tools/`` imports is read in that module.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ensmbo"


def _docstrings(tree):
    """The docstring nodes of a module and of its functions and classes."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                yield body[0].value


def _uses(node, skip=frozenset()):
    """Every identifier ``node`` reads: a loaded name, an attribute, an
    imported name, or a word of a string that is not a docstring (code
    run by name, such as a worker's ``-c`` source or a patched attribute)."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in skip:
            used.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return used


def _definitions(tree):
    """(qualified name, bare name, node) of each module-level function,
    class and constant, and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for meth in node.body:
                    if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)) and not meth.name.startswith("_"):
                        yield f"{node.name}.{meth.name}", meth.name, meth
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, node


def _entry_points():
    """(module, name) of every ``[project.scripts]`` target (a regex, as
    ``tomllib`` needs Python 3.11 and the package supports 3.10)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return set(re.findall(r'^\w[\w-]*\s*=\s*"([\w.]+):(\w+)"', section, re.M))


def test_every_package_name_is_used_by_the_program():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))}
    skips = {path: frozenset(map(id, _docstrings(tree))) for path, tree in trees.items()}
    live = sum((_uses(tree, skips[path]) for path, tree in trees.items()), Counter())
    entry_points = _entry_points()
    defs = {f"{path.stem}.{qualified}": (name, _uses(node, skips[path]))
            for path in sorted(PACKAGE.glob("*.py"))
            for qualified, name, node in _definitions(trees[path])
            if (f"ensmbo.{path.stem}", name) not in entry_points}
    unused = []
    while True:  # what only unused code reads is unused too
        found = [q for q, (name, own) in defs.items() if q not in unused and live[name] - own[name] <= 0]
        if not found:
            break
        unused += found
        for q in found:
            if "." not in q.split(".", 1)[1]:  # a method's reads are part of its class's
                live -= defs[q][1]
    assert unused == [], f"used by no code under src/ or bench/ (move them to tests/): {unused}"


def _imported_names(tree):
    """(line, bound name) of each import of a module but ``__future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".", 1)[0]


def test_every_import_is_read():
    """A name is read where it is loaded, or where it is a parameter name
    (a pytest fixture imported by name)."""
    unread = []
    for path in sorted(p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        read |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
        unread += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in read]
    assert unread == [], f"imported but never read: {unread}"
