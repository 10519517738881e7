"""Fail when a module-level private name in a directory is never read.

A private name (one leading underscore, not a dunder) that a module of a
directory defines at its top level, by `def`, `class` or assignment, must
be loaded somewhere in that directory, as a bare name or as an attribute.
One that is never loaded is dead code left behind by a change.

Run it from the root of the repository, with the directories to check as
arguments (src/pathhopf when none is given); each directory is checked on
its own.  It exits 1 and lists each unread name with its file and line.
"""

import ast
import sys
from pathlib import Path


def defined(tree):
    """(name, line) of each private name bound by a top-level statement."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def loaded(tree):
    """Every name read in `tree`, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def main(package):
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(Path(package).glob("*.py"))}
    reads = {name for tree in trees.values() for name in loaded(tree)}
    unread = [(path, line, name) for path, tree in trees.items() for name, line in defined(tree) if name not in reads]
    for path, line, name in unread:
        print(f"{path}:{line}: private name {name} is never read in {package}")
    print(f"{len(trees)} modules, {len(unread)} unread private names")
    return 1 if unread or not trees else 0


if __name__ == "__main__":
    sys.exit(max(main(package) for package in sys.argv[1:] or ["src/pathhopf"]))
