"""Every name a package module imports is used in that module, and every
module-level function, class or constant it defines is used somewhere in
the package: a private one always, a public one unless ``__all__`` exports
it or ``ALLOWED_UNUSED`` says why it stays.  Every public method of a
package class is called somewhere in the package or the bench, unless
``ALLOWED_UNREAD_METHODS`` says why it stays.

``__init__.py`` is exempt from the import check (its imports are
re-exports), and so is ``from __future__``.  A quoted annotation counts as
a use of the names it spells.  A definition's uses inside its own body
(recursion) do not count.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Iterable

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "moocteams"
BENCH = PACKAGE.parents[1] / "bench"

#: Public names that no module reads and ``__all__`` leaves out, with why
#: each stays in the package.
ALLOWED_UNUSED = {
    "read_skills_json": "reads back skills.json, which write_skills_json writes",
    "read_trace_csv": "reads back trace.csv, which write_trace_csv writes",
    "write_opinions_jsonl": "writes the opinions file that report --opinions reads",
    "replicate_once": "runs one diffusion replication and returns its token "
                      "routes, the hook for route audits",
}

#: Public methods that neither the package nor the bench calls, with why
#: each stays.
ALLOWED_UNREAD_METHODS = {
    "SocialGraph.weight": "looks up one edge's weight by student id, which "
                          "the dense test oracles are written with",
    "SocialGraph.ties": "gives one student's symmetrized ties by id, the "
                        "neighbourhood constraint and effective size sum over",
    "BrokerageCounts.total": "adds a broker's five role counts, the sum the "
                             "brokerage conservation criterion checks",
    "_Parser.error": "overrides ArgumentParser.error, which argparse calls "
                     "on a usage error",
}


def read_names(tree: ast.AST) -> set[str]:
    """Every bare name in ``tree``, including those in quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = read_names(tree)
    return [name for name in imported if name not in used]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_definitions(sources: dict[str, str], wanted) -> list[str]:
    """``module:name`` for each module-level function, class or constant
    whose name passes ``wanted`` and that no other top-level statement of any
    module reads, by bare name, attribute name or ``from ... import``."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    reads = [read_names(stmt)
             | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
             | {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
                for a in n.names}
             for _, stmt in statements]
    unused = []
    for k, (module, stmt) in enumerate(statements):
        for name in filter(wanted, _defined_names(stmt)):
            if not any(name in r for j, r in enumerate(reads) if j != k):
                unused.append(f"{module}:{name}")
    return unused


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    return unread_definitions(sources, _is_private)


def unused_public_definitions(sources: dict[str, str],
                              allowed: Iterable[str]) -> list[str]:
    """:func:`unread_definitions` for the public names that are neither in
    the ``__all__`` of ``__init__.py`` nor ``allowed``."""
    exported = set()
    for stmt in ast.parse(sources.get("__init__.py", "")).body:
        if "__all__" in _defined_names(stmt):
            exported = set(ast.literal_eval(stmt.value))
    exempt = exported | set(allowed)
    return unread_definitions(
        sources, lambda name: not name.startswith("_") and name not in exempt)


def _called(tree: ast.AST) -> Counter:
    """How often each name is called as an attribute, ``x.name(...)``."""
    return Counter(node.func.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute))


def _read(tree: ast.AST) -> Counter:
    """How often each name is read as an attribute, ``x.name``."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def _public_methods(tree: ast.AST):
    """(class name, method definition) for each public method, dunders
    excluded, of each class in ``tree``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("_")):
                    yield cls.name, stmt


def unread_methods(sources: dict[str, str], bench: dict[str, str]) -> list[str]:
    """``Class.method`` for each public method of a class in ``sources``
    that no statement of ``sources`` or ``bench`` uses outside the method's
    own body: a method must be called as ``x.method(...)``, a property read
    as ``x.method``.  A call in ``bench`` of a name that a ``bench`` class
    defines as a method is taken as a call of the bench's own method."""
    trees = [ast.parse(source) for source in sources.values()]
    bench_trees = [ast.parse(source) for source in bench.values()]
    bench_methods = {m.name for tree in bench_trees for _, m in _public_methods(tree)}
    calls, reads = Counter(), Counter()
    for tree in trees:
        calls += _called(tree)
    for tree in bench_trees:
        calls += Counter({name: n for name, n in _called(tree).items()
                          if name not in bench_methods})
    for tree in trees + bench_trees:
        reads += _read(tree)
    unread = []
    for tree in trees:
        for cls, method in _public_methods(tree):
            if any(isinstance(d, ast.Name) and d.id == "property"
                   for d in method.decorator_list):
                uses, own = reads, _read(method)
            else:
                uses, own = calls, _called(method)
            if uses[method.name] == own[method.name]:
                unread.append(f"{cls}.{method.name}")
    return unread


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from typing import Iterator, Sequence as Seq\n"
              "def f(x: 'Seq[int]') -> None:\n    return os.sep\n")
    assert unused_imports(source) == ["Iterator"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_the_check_finds_an_unused_private_definition():
    sources = {"a.py": ("_LIMIT = 3\n_unused = 4\n"
                        "def _recurse(n):\n    return _recurse(n - 1)\n"
                        "class _Box:\n    pass\n"
                        "def _shared():\n    return _LIMIT\n"),
               "b.py": "from .a import _shared\ndef f(x: '_Box'):\n    return _shared()\n"}
    assert unused_private_definitions(sources) == ["a.py:_unused", "a.py:_recurse"]


def test_no_module_defines_a_private_name_the_package_never_uses():
    assert unused_private_definitions(_package_sources()) == []


def test_the_check_finds_an_unused_public_helper():
    sources = {"__init__.py": "__all__ = ['exported']\n",
               "a.py": ("LIMIT = 3\ndef exported():\n    return LIMIT\n"
                        "def helper(n):\n    return helper(n - 1)\n"
                        "def audit():\n    pass\n"
                        "class Shared:\n    pass\n"),
               "b.py": "from .a import Shared\n"}
    assert unused_public_definitions(sources, ["audit"]) == ["a.py:helper"]
    assert unused_public_definitions(sources, []) == ["a.py:helper", "a.py:audit"]


def test_no_module_defines_a_public_name_the_package_never_uses():
    sources = _package_sources()
    assert unused_public_definitions(sources, ALLOWED_UNUSED) == []
    # every allowed name is still defined and still unread
    assert sorted(name.split(":")[1] for name in
                  unused_public_definitions(sources, [])) == sorted(ALLOWED_UNUSED)


def test_the_check_finds_an_unread_public_method():
    sources = {"a.py": ("class Graph:\n"
                        "    @property\n    def size(self):\n        return 1\n"
                        "    def called(self):\n        return self.size\n"
                        "    def recurse(self):\n        return self.recurse()\n"
                        "    def referenced(self):\n        pass\n"
                        "    def total(self):\n        pass\n"
                        "    def __len__(self):\n        return 0\n"),
               "b.py": ("def f(g):\n    g.called()\n"
                        "    return g.referenced, g.size\n")}
    bench = {"spans.py": ("class Tracer:\n    def total(self):\n        pass\n"
                          "def g(tracer):\n    return tracer.total()\n")}
    assert unread_methods(sources, bench) == [
        "Graph.recurse", "Graph.referenced", "Graph.total"]
    assert unread_methods(sources, {"run.py": "def g(x):\n    return x.total()\n"}) == [
        "Graph.recurse", "Graph.referenced"]


def test_no_package_class_has_a_public_method_nothing_calls():
    bench = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(BENCH.glob("*.py"))}
    assert sorted(unread_methods(_package_sources(), bench)) == sorted(ALLOWED_UNREAD_METHODS)
