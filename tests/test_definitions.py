"""Every definition in the package has a reader.

A function, class, method or module-level name defined in
``src/legalassign`` (dunders aside) must appear as a whole word somewhere in
``src/``, ``tests/`` or ``perfbench/`` other than on its own definition
line.  Whole words, not parsed references, so that names patched by string
(perfbench's patch table) count as used.
"""
import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "legalassign"
SEARCHED = ("src", "tests", "perfbench")


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every function, class and method, and of every name
    bound by a module-level assignment."""
    found = [(node.name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        found += [(t.id, t.lineno) for target in targets for t in ast.walk(target)
                  if isinstance(t, ast.Name)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def _word_sites() -> dict[str, set[tuple[Path, int]]]:
    """Word -> the (file, line) pairs it appears on, over every searched file."""
    sites = defaultdict(set)
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                for word in re.findall(r"\w+", line):
                    sites[word].add((path.resolve(), lineno))
    return sites


def test_every_definition_is_referenced():
    sites = _word_sites()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _definitions(tree):
            if not sites[name] - {(path.resolve(), line)}:
                unused.append(f"{path.name}:{line} {name}")
    assert not unused, "defined but never referenced: " + ", ".join(unused)
