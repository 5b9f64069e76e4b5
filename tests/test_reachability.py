"""Every top-level name of ``src/fracldp`` is reached from what the package ships.

The scan parses the package with ``ast``; it imports nothing. The roots are:

* the module-level statements that bind no name, such as the ``__main__`` guard;
* the names in ``fracldp.__all__``;
* every name ``tests/test_acceptance.py`` references;
* ``KEPT``.

A top-level function or class is the body of its name, and a module-level
assignment the body of the names it binds. A name is reached when a reached
body references it as a ``Name`` or an ``Attribute``. Names match across
modules by their bare name, and an import alias stands for the name it
imports, so ``_forward_states`` in ``rate`` references ``forward_states``.
"""

import ast
import pathlib

import fracldp

REPO = pathlib.Path(__file__).resolve().parents[1]

# Reached only from unit tests, each for the reason given.
KEPT = (
    "dz_bounds_experiment",  # the Dembo-Zeitouni probe and the rate of its
    "constrained_rate_minimum",  # path sets, until mc-ldp runs them
    "check_gradient",  # the adjoint's finite-difference oracle
    "read_ndjson",  # the record format's readers
    "read_manifest",
)


def _references(node, aliases):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(aliases.get(sub.id, sub.id))
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _scan(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {a.asname: a.name for sub in ast.walk(tree) if isinstance(sub, ast.ImportFrom)
               for a in sub.names if a.asname}
    return tree, aliases


def _graph():
    """(refs, roots): the names each top-level name's body references, and the
    names the module-level statements that bind none reference."""
    refs, roots = {}, set()
    for path in sorted((REPO / "src" / "fracldp").glob("*.py")):
        tree, aliases = _scan(path)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                bound = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                bound = []
            for name in bound:
                refs.setdefault(name, set()).update(_references(stmt, aliases))
            if not bound:
                roots |= _references(stmt, aliases)
    tree, aliases = _scan(REPO / "tests" / "test_acceptance.py")
    # ``__all__`` itself is read by ``from fracldp import *``
    roots |= _references(tree, aliases) | set(fracldp.__all__) | {"__all__"}
    return refs, roots


def _reached(refs, roots):
    seen, todo = set(), [n for n in roots if n in refs]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(n for n in refs[name] if n in refs)
    return seen


def test_every_top_level_name_is_reached():
    refs, roots = _graph()
    unreached = sorted(set(refs) - _reached(refs, roots | set(KEPT)))
    assert unreached == [], f"unreached top-level names: {unreached}"


def test_each_kept_name_is_needed():
    # a name that the roots or another kept name reach leaves KEPT
    refs, roots = _graph()
    assert set(KEPT) <= set(refs)
    redundant = [name for name in KEPT if name in _reached(refs, roots | set(KEPT) - {name})]
    assert redundant == []
