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

It counts the boosted particles one way: a beta configuration is a tuple of
one or two betas, and the n bounds take its length. No ``Scenario`` type or
``_beta_tuple`` converter comes back, and the strings ``"single_boost"`` and
``"dual_boost"`` appear only in the n-bound error message, whose text the CLI
transcript pins.

Its check tolerances live in one table in ``core``, each derived from the
checks upstream of it, so the float literals 1e-10 and 1e-12 appear nowhere
else. The one exception is ``integrals.RTOL``, the adaptive quadrature's
stopping rule, which is not a check and stays beside its loop.
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


def _bound_names(node: ast.AST) -> list[str]:
    """The names ``node`` binds: a class, function, assignment target, import or argument."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id] if isinstance(node.ctx, ast.Store) else []
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [a.asname or a.name.split(".")[0] for a in node.names]
        return names + [a.name for a in node.names if isinstance(node, ast.ImportFrom)]
    return []


def one_value_names(source: str) -> list[str]:
    """Each name in ``source`` that a one-value path would bind, as ``line: name``.

    That is a class, function, assignment, import or argument named after a
    one-value type, and any use of the name ``lone``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        names = _bound_names(node)
        if isinstance(node, ast.Name) and node.id == "lone":
            names = ["lone"]
        found += [f"{node.lineno}: {n}" for n in dict.fromkeys(names)
                  if n in ONE_VALUE_TYPES or n == "lone"]
    return found


SCENARIO_NAMES = {"Scenario", "_beta_tuple"}
SCENARIO_STRINGS = {"single_boost", "dual_boost"}
N_BOUND_MESSAGE = "outside the allowed range"


def scenario_forms(source: str) -> list[str]:
    """Each second form of the boosted-particle count in ``source``, as ``line: what``.

    That is a class, function, assignment, import or argument named
    ``Scenario`` or ``_beta_tuple``, and the string ``"single_boost"`` or
    ``"dual_boost"`` outside the f-string of the n-bound message.
    """
    tree = ast.parse(source)
    message = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) and any(
            isinstance(v, ast.Constant) and N_BOUND_MESSAGE in v.value for v in node.values
        ):
            message.update(map(id, ast.walk(node)))
    found = []
    for node in ast.walk(tree):
        names = [n for n in _bound_names(node) if n in SCENARIO_NAMES]
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in SCENARIO_STRINGS and id(node) not in message):
            names.append(repr(node.value))
        found += [f"{node.lineno}: {n}" for n in dict.fromkeys(names)]
    return found


TOLERANCE_LITERALS = {1e-10, 1e-12}
# Per module, the module-level names whose value may hold such a literal.
TOLERANCE_TABLES = {"core.py": {"NORM_TOL", "MOMENT_TOL", "PSD_TOL"}, "integrals.py": {"RTOL"}}


def tolerance_literals(source: str, table=frozenset()) -> list[str]:
    """Each float literal 1e-10 or 1e-12 in ``source``, as ``line: value``.

    A literal in the value of a module-level assignment to a name in
    ``table`` is left out.
    """
    tree = ast.parse(source)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and all(
            isinstance(t, ast.Name) and t.id in table for t in node.targets
        ):
            allowed.update(map(id, ast.walk(node.value)))
    return [
        f"{node.lineno}: {node.value!r}" for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and node.value in TOLERANCE_LITERALS and id(node) not in allowed
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_tolerances_come_from_the_table(path):
    table = TOLERANCE_TABLES.get(path.name, frozenset())
    assert tolerance_literals(path.read_text(encoding="utf-8"), table) == []


@pytest.mark.parametrize("source, want", [
    ("tol = 1e-10", ["1: 1e-10"]),
    ("tol = 1E-10", ["1: 1e-10"]),
    ("tol = 1.0e-10", ["1: 1e-10"]),
    ("tol = 0.0000000001", ["1: 1e-10"]),
    ("tol = 10e-11", ["1: 1e-10"]),
    ("tol = 1_0e-13", ["1: 1e-12"]),
    ("lo, hi = -1e-12, 1.0 + 1e-12", ["1: 1e-12", "1: 1e-12"]),
    ("ok = abs(x - 1.0) <= 1e-10", ["1: 1e-10"]),
    ("f(x, tol=1e-12)", ["1: 1e-12"]),
    ("def f():\n    NORM_TOL = 1e-10", ["2: 1e-10"]),
    ("NORM_TOL = OTHER = 1e-10", ["1: 1e-10"]),
    ("NORM_TOL = 1e-10\nPSD_TOL = 2 * 1e-10", []),
    ("tol = 2e-10\nsmall = 1e-13\nu = 2.0**-53", []),
    ("# 1e-10 in a comment\nmessage = 'within 1e-10'", []),
])
def test_the_tolerance_rule_sees_each_spelling(source, want):
    assert tolerance_literals(source, {"NORM_TOL", "PSD_TOL"}) == want


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_form_of_the_boost_count(path):
    assert scenario_forms(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ('Scenario = Literal["single_boost", "dual_boost"]',
     ["1: Scenario", "1: 'single_boost'", "1: 'dual_boost'"]),
    ("from .integrals import Scenario, n_bounds", ["1: Scenario"]),
    ("def _beta_tuple(cfg):\n    return cfg", ["1: _beta_tuple"]),
    ("def f(_beta_tuple=None):\n    pass", ["1: _beta_tuple"]),
    ('kind = "single_boost" if single else "dual_boost"', ["1: 'single_boost'", "1: 'dual_boost'"]),
    ('error = f"n = {n} outside the allowed range (-0.5, {u}] "\\\n'
     '    f"for {\'single_boost\' if single else \'dual_boost\'}"', []),
    ('note = f"not the message: {\'dual_boost\'}"', ["1: 'dual_boost'"]),
    ('# single_boost in a comment\nname = "spectrum_single_boost"\nboosted = len(cfg)', []),
])
def test_the_boost_count_rule_sees_each_spelling(source, want):
    assert scenario_forms(source) == want


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
