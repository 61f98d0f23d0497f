"""Rules on the package source, checked on its syntax tree.

The package holds one X-state path per layer. Independent eigensolvers and
contractions (``np.linalg``, ``np.einsum``) belong to the oracles in
``tests/oracles.py`` and ``bench/checks.py``, not to ``src/boostcoh``.

Every state it holds is a real X-state, kept as its two real 2x2 blocks, so
no complex number appears in it: not the name ``complex``, an imaginary
literal, nor the ``.conj`` or ``.imag`` of an array.

It also has one calling convention: columns in, columns out. The one-value
wrappers ``MomentIntegrals``, ``PerturbativeFactor``, ``Spectrum``,
``WavePacket`` and ``WignerTrig`` and the ``lone`` flag of the one-value
branches are gone, and no name may bring them back.
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


COMPLEX_ATTRIBUTES = {"conj", "conjugate", "imag"}


def complex_uses(source: str) -> list[str]:
    """Each use of complex arithmetic in ``source``, as ``line: what``.

    That is the name ``complex``, an imaginary literal such as ``1j``, and
    the attributes ``conj``, ``conjugate`` and ``imag``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "complex":
            found.append(f"{node.lineno}: complex")
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append(f"{node.lineno}: {node.value!r}")
        elif isinstance(node, ast.Attribute) and node.attr in COMPLEX_ATTRIBUTES:
            found.append(f"{node.lineno}: .{node.attr}")
    return found


ONE_VALUE_TYPES = {"MomentIntegrals", "PerturbativeFactor", "Spectrum", "WavePacket", "WignerTrig"}


def one_value_names(source: str) -> list[str]:
    """Each name in ``source`` that a one-value path would bind, as ``line: name``.

    That is a class, function, assignment, import or argument named after a
    one-value type, and any use of the name ``lone``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id] if node.id == "lone" or isinstance(node.ctx, ast.Store) else []
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
            names += [a.name for a in node.names if isinstance(node, ast.ImportFrom)]
        else:
            continue
        found += [f"{node.lineno}: {n}" for n in dict.fromkeys(names)
                  if n in ONE_VALUE_TYPES or n == "lone"]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_general_eigensolver_or_contraction(path):
    assert forbidden_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_complex_arithmetic(path):
    assert complex_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_calling_convention(path):
    assert one_value_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("a = np.zeros((4, 4), dtype=complex)", ["1: complex"]),
    ("z = complex(x, y)", ["1: complex"]),
    ("b = a * 1j", ["1: 1j"]),
    ("b = a + 0.5J", ["1: 0.5j"]),
    ("b = a.conj().T", ["1: .conj"]),
    ("b = np.conjugate(a)", ["1: .conjugate"]),
    ("phase.real, phase.imag = x, y", ["1: .imag"]),
    ("b = a.real + 0.0", []),
    ("# complex pivots, a.imag and 1j in a comment\nb = 'complex'", []),
    ("is_real = not np.iscomplexobj(a)", []),
])
def test_the_complex_rule_sees_each_spelling(source, want):
    assert complex_uses(source) == want


@pytest.mark.parametrize("source, want", [
    ("class Spectrum:\n    pass", ["1: Spectrum"]),
    ("@dataclass\nclass MomentIntegrals:\n    i1: float", ["2: MomentIntegrals"]),
    ("PerturbativeFactor = float", ["1: PerturbativeFactor"]),
    ("from .integrals import PerturbativeFactor as F", ["1: PerturbativeFactor"]),
    ("from .coherence import Spectrum", ["1: Spectrum"]),
    ("lone = x.ndim == 0", ["1: lone"]),
    ("def f(lone=False):\n    return lone", ["1: lone", "2: lone"]),
    ("values = spectrum(x)\nalone = values[:1]", []),
    ("# a lone 1-D row\nrow = 1", []),
    ("from .core import BoostParams, WavePacket\nclass WignerTrig(tuple):\n    pass",
     ["1: WavePacket", "2: WignerTrig"]),
])
def test_the_convention_rule_sees_each_spelling(source, want):
    assert one_value_names(source) == want


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
