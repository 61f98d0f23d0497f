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

On the command line a beta configuration is spelled one way, ``b`` or
``b1:b2``: ``cli`` binds no ``_forbid`` or ``_pair_list`` and registers no
``--beta1`` or ``--beta2``.  ``--scenario`` and ``--beta-pairs``, the old
spellings the benchmark's workload argv still use, are registered on the
``sweep`` parser alone.

Its check tolerances live in one table in ``core``, each derived from the
checks upstream of it, so the float literals 1e-10 and 1e-12 appear nowhere
else. The one exception is ``integrals.RTOL``, the quadrature's stopping
rule, which is not a check and stays beside its loop.

The quadrature picks its own order by one convergence rule, so no caller
chooses one: no name ``quad_order``, ``quad_max_order``, ``max_order`` or
``adaptive`` comes back, and no string spells a ``--quad-`` flag.

Argparse only reads each input, by its exact name, and the library checks
it: every ``ArgumentParser(...)`` and ``.add_parser(...)`` call passes
``allow_abbrev=False``, no ``_nonneg_int`` or ``_float_list`` checker comes
back, and nothing reads argparse's private ``_option_string_actions``.
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


GONE_BETA_NAMES = {"_forbid", "_pair_list"}
GONE_BETA_FLAGS = {"--beta1", "--beta2"}
SWEEP_ONLY_FLAGS = {"--scenario", "--beta-pairs"}


def beta_spellings(source: str) -> list[str]:
    """Each second spelling of a beta configuration in ``source``, as ``line: what``.

    That is a class, function, assignment, import or argument named
    ``_forbid`` or ``_pair_list``, an ``add_argument`` of ``--beta1`` or
    ``--beta2``, and an ``add_argument`` of ``--scenario`` or
    ``--beta-pairs`` on anything but the sweep parser.  The sweep parser is
    the name bound to ``command("sweep", ...)``, and any name bound to a call
    on it or with it as the first argument, such as an argument group.
    """
    tree = ast.parse(source)
    sweep = set()
    assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
    for node in sorted(assigns, key=lambda n: n.lineno):  # a name is bound before its use
        if not isinstance(call := node.value, ast.Call):
            continue
        first = call.args[0] if call.args else None
        receiver = call.func.value if isinstance(call.func, ast.Attribute) else None
        if (_dotted(call.func) == "command" and isinstance(first, ast.Constant)
                and first.value == "sweep") or any(
                    isinstance(n, ast.Name) and n.id in sweep for n in (first, receiver)):
            sweep.update(t.id for t in node.targets if isinstance(t, ast.Name))
    found = []
    for node in ast.walk(tree):
        names = [n for n in _bound_names(node) if n in GONE_BETA_NAMES]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            on_sweep = _dotted(node.func.value) in sweep
            names += [arg.value for arg in node.args if isinstance(arg, ast.Constant) and (
                arg.value in GONE_BETA_FLAGS or arg.value in SWEEP_ONLY_FLAGS and not on_sweep)]
        found += [f"{node.lineno}: {n}" for n in dict.fromkeys(names)]
    return found


def test_one_spelling_of_a_beta_configuration():
    assert beta_spellings((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("def _forbid(args, scenario, *names):\n    pass", ["1: _forbid"]),
    ("_pair_list = _beta_list", ["1: _pair_list"]),
    ("p_coh.add_argument('--beta1', type=float)", ["1: --beta1"]),
    ("p = command('sweep', cmd_sweep, 's')\np.add_argument('--beta2')", ["2: --beta2"]),
    ("p_coh = command('coherence', f, 's')\np_coh.add_argument('--scenario')", ["2: --scenario"]),
    ("def add(p):\n    p.add_argument('--beta-pairs')", ["2: --beta-pairs"]),
    ("p = command('sweep', f, 's')\np.add_argument('--scenario')\n"
     "g = add_grid(p, f, 'h')\ng.add_argument('--beta-pairs')", []),
    ("p = command('sweep', f, 's')\ng = p.add_mutually_exclusive_group()\n"
     "g.add_argument('--beta-pairs')", []),
    ("q = command('figure', f, 's')\ng = add_grid(q, f, 'h')\ng.add_argument('--beta-pairs')",
     ["3: --beta-pairs"]),
    ("# --beta1 and _forbid in a comment\nhelp = 'b1:b2, not --beta1'\np.add_argument('--beta')",
     []),
])
def test_the_beta_spelling_rule_sees_each_spelling(source, want):
    assert beta_spellings(source) == want


PARSER_CALLS = {"ArgumentParser", "add_parser"}
GONE_PARSE_NAMES = {"_nonneg_int", "_float_list"}
PRIVATE_OPTIONS = "_option_string_actions"


def parser_checks(source: str) -> list[str]:
    """Each place where argparse in ``source`` guesses or checks an input, as ``line: what``.

    That is an ``ArgumentParser(...)`` or ``.add_parser(...)`` call without
    the keyword ``allow_abbrev=False``, a class, function, assignment,
    import or argument named ``_nonneg_int`` or ``_float_list``, and any
    use of the attribute ``_option_string_actions``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        names = [n for n in _bound_names(node) if n in GONE_PARSE_NAMES]
        if isinstance(node, ast.Attribute) and node.attr == PRIVATE_OPTIONS:
            names.append(f".{node.attr}")
        if isinstance(node, ast.Call) and (_dotted(node.func) or "").split(".")[-1] in PARSER_CALLS:
            if not any(k.arg == "allow_abbrev" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in node.keywords):
                names.append(f"{_dotted(node.func)}() without allow_abbrev=False")
        found += [f"{node.lineno}: {n}" for n in dict.fromkeys(names)]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_argparse_reads_exact_names_only(path):
    assert parser_checks(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("parser = argparse.ArgumentParser(prog='boostcoh', allow_abbrev=False)", []),
    ("p = sub.add_parser(name, help=summary, allow_abbrev=False)", []),
    ("parser = argparse.ArgumentParser(\n    prog='boostcoh',\n)",
     ["1: argparse.ArgumentParser() without allow_abbrev=False"]),
    ("from argparse import ArgumentParser\nparser = ArgumentParser(allow_abbrev=True)",
     ["2: ArgumentParser() without allow_abbrev=False"]),
    ("p = sub.add_parser(name, help=summary)", ["1: sub.add_parser() without allow_abbrev=False"]),
    ("p = sub.add_parser(name, **options)", ["1: sub.add_parser() without allow_abbrev=False"]),
    ("def _nonneg_int(text: str) -> int:\n    return int(text)", ["1: _nonneg_int"]),
    ("_float_list = _beta_list", ["1: _float_list"]),
    ("p.set_defaults(func=func, options=p._option_string_actions)",
     ["1: ._option_string_actions"]),
    ("# _nonneg_int and p._option_string_actions in a comment\nhelp = 'add_parser()'", []),
])
def test_the_parser_rule_sees_each_spelling(source, want):
    assert parser_checks(source) == want


ORDER_NAMES = {"quad_order", "quad_max_order", "max_order", "adaptive"}
ORDER_FLAG = "--quad-"


def order_settings(source: str) -> list[str]:
    """Each setting of a caller-chosen quadrature order in ``source``, as ``line: what``.

    That is a name, argument, keyword argument or attribute named
    ``quad_order``, ``quad_max_order``, ``max_order`` or ``adaptive``, bound
    or read, and a string, f-string parts included, that spells a
    ``--quad-`` flag.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        names = _bound_names(node)
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.keyword) and node.arg:
            names = [node.arg]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        names = [n for n in names if n in ORDER_NAMES]
        if isinstance(node, ast.Constant) and ORDER_FLAG in str(node.value):
            names.append(repr(node.value))
        found += [f"{node.lineno}: {n}" for n in dict.fromkeys(names)]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_caller_chosen_order(path):
    assert order_settings(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("def f(n, order, *, max_order=256, adaptive=True):\n    pass",
     ["1: max_order", "1: adaptive"]),
    ("values = moments_quadrature(n, b, eps, 16, max_order=quad_max_order)",
     ["1: max_order", "1: quad_max_order"]),
    ("adaptive = True", ["1: adaptive"]),
    ("write_sweep_csv(spec, path, args.quad_order)", ["1: quad_order"]),
    ("from .integrals import check_orders as adaptive", ["1: adaptive"]),
    ("p.add_argument('--quad-order', type=int)", ["1: '--quad-order'"]),
    ('raise ValueError(f"--quad-max-order {m}: too low")', ["1: '--quad-max-order '"]),
    ('"""From DEFAULT_ORDER; see --quad-order."""', ["1: 'From DEFAULT_ORDER; see --quad-order.'"]),
    ("# --quad-order and max_order in a comment\norder = DEFAULT_ORDER\nrule = 'quad order'", []),
])
def test_the_order_rule_sees_each_spelling(source, want):
    assert order_settings(source) == want


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
