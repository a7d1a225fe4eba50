"""No dead code in the package: every top-level function or class of a
quivercount module, and every public method, is read by name somewhere in
src/ outside its own definition.  An export from __init__ is no reader, and
neither is a test: a helper that only tests call belongs in tests/.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivercount"

# definitions that only the benchmark reads, each with where it reads them
BENCH_PINNED = {
    "bruteforce.moment_theta_basis": "bench/workloads.py builds its ask families with it",
    "localring.OMatrix.is_invertible": "bench/tracing.py METHODS traces it",
    "qpolynomial.RationalFunction.taylor_coefficients": "bench/tracing.py METHODS traces it",
    "quiver.Quiver.save": "bench/workloads.py writes its quiver files with it",
    "series.TruncatedSeries.truncate": "bench/tracing.py METHODS traces it",
}


def _reads(node) -> Counter:
    """Names read in a subtree: bare names and attribute names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of the top-level functions and classes and of
    the public methods of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _unread():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for qualname, node in _definitions(tree):
            if reads[node.name] == _reads(node)[node.name]:
                unread.append(f"{module[:-3]}.{qualname}")
    return unread


def test_every_definition_is_read_in_src():
    assert [name for name in _unread() if name not in BENCH_PINNED] == []


def test_the_allowlist_is_still_needed():
    # a pinned name that src/ reads again, or that has left src/, leaves the list
    assert set(_unread()) >= BENCH_PINNED.keys()
