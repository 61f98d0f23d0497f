"""Rules on the package source, checked on its syntax tree.

The package holds one X-state path per layer. Independent eigensolvers and
contractions (``np.linalg``, ``np.einsum``) belong to the oracles in
``tests/oracles.py`` and ``bench/checks.py``, not to ``src/boostcoh``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boostcoh"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def forbidden_calls(source: str) -> list[str]:
    """Each call in ``source`` to ``numpy.einsum`` or into ``numpy.linalg``, as ``line: name``.

    Names bound by ``import numpy as np``, ``from numpy import linalg`` or
    ``from numpy.linalg import eigvalsh`` are resolved to their numpy path.
    """
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # a plain import binds its own root name
            aliases.update({a.asname: a.name for a in node.names if a.asname})
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or (name := _dotted(node.func)) is None:
            continue
        root, _, rest = name.partition(".")
        path = ".".join(filter(None, [aliases.get(root, root), rest]))
        if path == "numpy.einsum" or path.startswith("numpy.linalg."):
            found.append(f"{node.lineno}: {path}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_general_eigensolver_or_contraction(path):
    assert forbidden_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("import numpy as np\nnp.linalg.eigvalsh(a)", ["2: numpy.linalg.eigvalsh"]),
    ("import numpy\nnumpy.einsum('ii', a)", ["2: numpy.einsum"]),
    ("from numpy.linalg import eigvalsh as ev\nev(a)", ["2: numpy.linalg.eigvalsh"]),
    ("from numpy import linalg, einsum\nlinalg.norm(a)\neinsum('ii', a)",
     ["2: numpy.linalg.norm", "3: numpy.einsum"]),
    ("import numpy as np\ntry:\n    np.sum(a)\nexcept np.linalg.LinAlgError:\n    pass", []),
])
def test_the_rule_sees_each_spelling(source, want):
    assert sorted(forbidden_calls(source)) == want
