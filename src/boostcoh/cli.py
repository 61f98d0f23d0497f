"""Command-line front end: single evaluations, sweeps, figure-data presets.

Subcommands
-----------
wigner      print the perpendicular-geometry half-angle quantities
coherence   evaluate both coherence measures for one parameter point
sweep       write a CSV of coherence values over a sigma grid
figure      run the fig1/fig2 preset sweeps (neutron mass, n = 2)

A beta configuration is ``b`` when one particle is boosted and ``b1:b2``
when both are: ``coherence --beta 0.95:0.8`` takes one, ``sweep --betas
0.3:0.95,0.8:0.8`` a list of one form, and ``figure --betas 0.3,0.8`` a
list of ``b`` items, since the preset sets the boost count.

Exit codes: 0 success, 2 usage or domain error, 3 quadrature not converged
by its largest order.  Argparse only reads each input, by its exact long
name, and the library (``core``'s checks, :class:`SweepSpec`) checks it.
Every subcommand accepts ``--config FILE`` with ``key = value`` lines, a key
being a long flag's exact name, with dashes or underscores.  Each line is
parsed as ``--key=value`` by the subcommand's own parser; a key it does not
have (a prefix of a flag, say), a key given twice and a ``config`` key exit
2.  Flags on the command line win over the file.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

# OpenBLAS reads its thread count once, when numpy loads it, and starts its
# threads then.  A fresh ``import numpy`` took 0.06-0.09 s with one thread
# and 0.13-0.16 s with the default (7 processes each, 2 cores, numpy 2.4.6),
# and a CLI run is mostly start-up, so a process that loads numpy from here
# uses one thread.  A thread count the user set wins, and a process that
# already loaded numpy is left as it is.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .coherence import (
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    hermitian_eigenvalues,
    spectrum_dual_boost,
    spectrum_single_boost,
)
from .core import (
    BoostParams, boost_from_beta, check_beta, check_nonneg_int, check_positive_finite, check_theta,
)
from .density import (
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)
from .integrals import (
    N_LOWER,
    QuadratureToleranceError,
    check_factor_sum,
    check_n_in_bounds,
    f_factor,
    moments_quadrature,
    n_bounds,
)
from .wigner import half_angle_perp

__all__ = ["SweepSpec", "build_parser", "main", "entry_point"]

METHODS = ("perturbative", "exact-eig", "quadrature")
CSV_HEADER = [
    "sigma_mev",
    "beta1",
    "beta2",
    "n",
    "theta",
    "c_l1",
    "c_f_perturbative",
    "c_f_exact_eig",
    "c_f_quadrature",
    "f1",
    "f2",
]

FIGURE_BETAS = (0.0, 0.3, 0.8, 0.95)
FIGURE_MASS_MEV = 939.36  # neutron rest mass
FIGURE_N = 2
FIGURE_STEPS = 256
FIGURE_SIGMA_FRACTION = 0.3  # sweep sigma/m over (0, 0.3]
# Sigma points per moments_quadrature call and per density-matrix stack in a
# sweep.  It bounds the (points x nodes) arrays: a 32768-step quadrature
# sweep peaked at 171 MiB as one block, 37.6 MiB in blocks of 256 and
# 34.5 MiB point by point.
BLOCK = 256


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one CSV sweep.

    ``betas`` holds one tuple per beta configuration: ``(beta,)`` when one
    particle is boosted, ``(beta1, beta2)`` when both are, the same length
    for all.
    """

    theta: float
    n: int
    mass: float
    sigma_grid: tuple[float, float, int]  # (min, max, steps)
    betas: tuple[tuple[float, ...], ...]
    methods: tuple[str, ...]

    def __post_init__(self) -> None:
        check_theta(self.theta)
        check_nonneg_int(self.n, "n")
        check_positive_finite(self.mass, "mass")
        lo, hi, steps = self.sigma_grid
        if steps < 2:  # first: figure_spec derives its default sigma_min from steps
            raise ValueError(f"sigma grid needs steps >= 2, got {steps}")
        check_positive_finite(lo, "sigma_min")
        check_positive_finite(hi, "sigma_max")
        if hi < lo:
            raise ValueError(f"sigma grid needs sigma_min <= sigma_max, got {lo!r} > {hi!r}")
        if not self.betas:
            raise ValueError("at least one beta configuration is required")
        if {len(cfg) if isinstance(cfg, tuple) else 0 for cfg in self.betas} not in ({1}, {2}):
            raise ValueError(f"betas must be all b or all b1:b2 items, got {_items(self.betas)}")
        for cfg in self.betas:
            for b in cfg:
                check_beta(b)
        if not self.methods or set(self.methods) - set(METHODS):
            raise ValueError(f"methods must be a nonempty subset of {','.join(METHODS)}, "
                             f"got {','.join(map(str, self.methods))!r}")

    def sigmas(self, start: int, stop: int) -> list[float]:
        """The grid's sigma values with indices in [start, stop), clipped to the grid.

        Only these values are built, so a long grid costs no memory.
        """
        lo, hi, steps = self.sigma_grid
        return [lo + (hi - lo) * i / (steps - 1) for i in range(start, min(stop, steps))]


def _block_values(
    theta: float,
    configs: Sequence[Sequence[BoostParams]],
    n: int,
    eps: np.ndarray,
    methods: Sequence[str],
) -> tuple[list, np.ndarray, tuple | None]:
    """Every beta configuration over a block of sigma/m values, as columns.

    Each configuration holds one boost when a single particle is boosted
    and two when both are, the same number for all.  A row is a (point,
    configuration) pair, and rows are in row order: by point, then by
    configuration.  Returns ``(columns, spectra, failure)``.  ``columns``
    holds the CSV columns c_l1 to f2 as arrays, one value per row (None for
    a method not asked for, and for f2 with one boost).  ``spectra`` holds
    each row's spectrum: Jacobi's with quadrature, else the closed form
    when exact-eig is asked for, else None.
    ``failure`` is None, or ``(k, error)`` for the first row k that fails a
    check, with the error of the first check it fails.

    Every value and check is computed once for the whole block: F with one
    :func:`f_factor` call per distinct boost, the domain gates (sigma/m in
    (0, 1), the n bounds, then F1 + F2 < 1/2) as masks, the quadrature
    moments with one :func:`moments_quadrature` call per distinct boost
    over the points some configuration using it has gated (a point's bits
    do not depend on the points evaluated with it), the density matrices
    as one stack, and the spectra and coherences as columns.  A row's
    checks are, in order: the gates, then the convergence of its first
    boost's moments, then of its second's, each failing with the point's
    :class:`QuadratureToleranceError`.  The tolerances of :mod:`boostcoh.core`
    compose, so the states of the rows that pass them pass the
    :class:`DensityMatrix` checks, and their spectra the spectrum checks.
    Only plain values are returned, so no stack outlives the call.
    """
    quadrature = "quadrature" in methods
    boosted = len(configs[0])  # boosted particles
    single = boosted == 1
    boosts = list(dict.fromkeys(b for cfg in configs for b in cfg))
    slot = np.array([[boosts.index(b) for b in cfg] for cfg in configs])  # configs x particles
    inside = check_n_in_bounds(n, eps, boosted)
    gated_eps = np.where(inside, eps, np.nan)
    per_boost = np.array([f_factor(n, b, gated_eps) for b in boosts])
    factors = [per_boost[s].T for s in slot.T]  # per particle, points x configs
    gated = inside[:, None] & check_factor_sum(*factors)

    passed = gated
    if quadrature:
        moments = np.empty((len(boosts), len(eps), 2))
        errors = np.full((len(boosts), len(eps)), None, dtype=object)  # None or a point's error
        for j, b in enumerate(boosts):
            need = np.flatnonzero(gated[:, (slot == j).any(axis=1)].any(axis=1))
            if need.size:
                moments[j, need], errors[j, need] = moments_quadrature(n, b, eps[need])
        failed = errors.astype(bool)
        passed = gated & ~failed[slot].any(axis=1).T
    ok = passed.ravel()
    points, cfgs = np.nonzero(passed)
    l1 = np.full(passed.size, np.nan)
    eigs = np.full((passed.size, 4), np.nan)
    if points.size:
        if quadrature:
            build = rho_single_boost_general if single else rho_dual_boost_general
            rho = build(theta, *(moments[s[cfgs], points] for s in slot.T))
        else:
            build = rho_single_boost_perturbative if single else rho_dual_boost_perturbative
            rho = build(theta, *(f[passed] for f in factors))
        l1[ok] = c_l1(rho)
        if quadrature:
            eigs[ok] = hermitian_eigenvalues(rho)

    f_rows = [f.ravel() for f in factors]
    cf_pert = None
    if "perturbative" in methods:
        # the F columns fix the values; the first configuration, the number of boosts
        cf_pert = c_frobenius_perturbative(n, configs[0], np.repeat(eps, len(configs)), f_rows)
    closed = cf_exact = None
    if "exact-eig" in methods:
        closed = (spectrum_single_boost if single else spectrum_dual_boost)(theta, *f_rows)
        cf_exact = c_frobenius(closed)
    spectra = eigs if quadrature else closed
    cf_quad = c_frobenius(eigs) if quadrature else None
    columns = [l1, cf_pert, cf_exact, cf_quad, f_rows[0], None if single else f_rows[1]]
    if ok.all():
        return columns, spectra, None

    # The first failing row's error: that of the first check whose mask it
    # fails, with the row's values.
    k = int(np.argmin(ok))
    p, c = divmod(k, len(configs))
    if not (0.0 < eps[p] < 1.0):
        error = ValueError(f"sigma/m must lie in (0, 1), got {eps[p].item()}")
    elif not inside[p]:
        upper = n_bounds(eps[p:p + 1], boosted).item()
        error = ValueError(
            f"n = {n} outside the allowed range ({N_LOWER}, {upper:.6g}] for "
            f"{'single_boost' if single else 'dual_boost'} at sigma/m = {eps[p].item():.6g}"
        )
    elif not gated[p, c]:
        error = ValueError(f"F1 + F2 must be < 1/2, got {sum(f[p, c].item() for f in factors)}")
    else:  # only a quadrature error is left, so quadrature ran
        error = next(errors[j, p] for j in slot[c] if failed[j, p])
    return columns, spectra, (k, error)


def run_sweep(spec: SweepSpec):
    """Yield the sweep's CSV lines (without the newline), sorted by sigma, then beta configuration.

    The sigma grid is walked in blocks of :data:`BLOCK` points, and each
    block's sigma values are built when it is reached.  Per block, sigma/m
    is one array division, every beta configuration's values are one set
    of columns (see :func:`_block_values`), and each column's text is one
    ``map(repr, ...)``.  Each sigma is formatted once for every
    configuration, f2 reuses f1's text on rows where the two hold the same
    bits (a symmetric pair), and beta1, beta2, n and theta are formatted
    once per configuration.  A column not asked for is empty.  Lines are
    still yielded one per row.  The first failing row's error is raised after
    every row before it.
    """
    configs = [tuple(boost_from_beta(b) for b in cfg) for cfg in sorted(spec.betas)]
    heads = [
        f"{cfg[0].beta!r},{repr(cfg[1].beta) if len(cfg) == 2 else ''},{spec.n},{spec.theta!r}"
        for cfg in configs
    ]
    for start in range(0, spec.sigma_grid[2], BLOCK):
        sigma = np.array(spec.sigmas(start, start + BLOCK))
        columns, _, failure = _block_values(
            spec.theta, configs, spec.n, sigma / spec.mass, spec.methods
        )
        rows = len(sigma) * len(configs) if failure is None else failure[0]

        def text(column) -> list[str]:
            return [""] * rows if column is None else list(map(repr, column[:rows].tolist()))

        *values, f1, f2 = columns
        f1_text = text(f1)
        f2_text = text(None)
        if f2 is not None:  # a symmetric pair's F columns hold the same bits: reuse f1's text
            same = (f1.view(np.uint64) == f2.view(np.uint64))[:rows].tolist()
            f2_text = [t if s else repr(v) for t, v, s in zip(f1_text, f2[:rows].tolist(), same)]
        sigma_text = [t for t in map(repr, sigma.tolist()) for _ in configs]
        fields = zip(sigma_text, heads * len(sigma), *map(text, values), f1_text, f2_text)
        yield from map(",".join, fields)
        if failure is not None:
            raise failure[1]


def write_sweep_csv(spec: SweepSpec, out_path) -> int:
    """Write the sweep to ``out_path``, replacing it only when every row succeeded.

    A new or regular target (symlinks resolved) is written as a temporary
    file beside it and renamed onto it, so a failed sweep leaves no partial
    file and an existing file intact.  Anything else that exists, such as
    a device, a FIFO or ``/dev/stdout`` on a pipe, is written through at
    the path as given: resolving ``/dev/stdout`` would name the pipe as
    ``/proc/<pid>/fd/pipe:[N]``, which cannot be opened.

    No field can hold a comma, a quote or a line break, so each line of
    :func:`run_sweep` is the row as ``csv.writer`` would write it.
    """
    path = Path(out_path)
    direct = path.exists() and not path.is_file()
    if not direct:
        path = path.resolve()
    tmp = path if direct else path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "w" if direct else "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the path the user gave, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(out_path)) from None
    try:
        with fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            count = 0
            for line in run_sweep(spec):
                fh.write(line + "\n")
                count += 1
        if not direct:
            if path.exists():
                shutil.copymode(path, tmp)
            os.replace(tmp, path)
    except BaseException:
        if not direct:
            tmp.unlink(missing_ok=True)
        raise
    return count


def figure_spec(
    name: Literal["fig1", "fig2"], *, theta: float = math.pi / 4, n: int = FIGURE_N,
    mass: float = FIGURE_MASS_MEV, sigma_min: float | None = None, sigma_max: float | None = None,
    steps: int = FIGURE_STEPS, betas: Sequence[float] = FIGURE_BETAS,
) -> SweepSpec:
    """Preset sweeps behind the two published coherence-decay figures.

    fig1: one boosted particle, fig2: both boosted with beta1 = beta2; both
    use the neutron mass, n = 2, theta = pi/4, and a sigma grid covering
    sigma/m in (0, 0.3] (the sigma axis range is a preset choice, not a
    published number; override with the sweep flags if needed).  An
    unknown keyword raises ``TypeError``.
    """
    if name not in ("fig1", "fig2"):
        raise ValueError(f"figure name must be 'fig1' or 'fig2', got {name!r}")
    if sigma_max is None:
        sigma_max = FIGURE_SIGMA_FRACTION * mass
    if sigma_min is None:  # the grid is sigma_max * k / steps, k = 1..steps
        sigma_min = sigma_max / steps if steps else sigma_max  # SweepSpec rejects steps < 2
    return SweepSpec(
        theta=theta, n=n, mass=mass, sigma_grid=(sigma_min, sigma_max, steps),
        betas=tuple((b,) if name == "fig1" else (b, b) for b in betas),
        methods=("perturbative", "exact-eig"),
    )


# ---------------------------------------------------------------------------
# argument parsing

def _beta_config(text: str) -> tuple[float, ...]:
    """One beta configuration: ``b`` when one particle is boosted, ``b1:b2`` when both are."""
    try:
        config = tuple(float(part) for part in text.split(":"))
    except ValueError:
        config = ()
    if len(config) not in (1, 2):
        raise argparse.ArgumentTypeError(f"a beta configuration is b or b1:b2, got {text!r}")
    return config


def _beta_list(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_beta_config(part) for part in text.split(",") if part.strip())


def _items(betas) -> str:
    """Beta configurations as ``--betas`` spells them: ``b`` or ``b1:b2`` items."""
    return ",".join(":".join(map(str, c)) if isinstance(c, tuple) else str(c) for c in betas)


def _beta_pairs(text: str) -> tuple[tuple[float, ...], ...]:
    """``sweep --betas`` under its old name, which takes b1:b2 items only."""
    for part in text.split(","):
        if part.strip() and ":" not in part:
            raise argparse.ArgumentTypeError(f"beta pairs use the form b1:b2, got {part!r}")
    return _beta_list(text)


def _method_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def load_config(path) -> list[str]:
    """Turn a ``key = value`` file into ``--key=value`` arguments.

    '#' starts a comment and blank lines are skipped.  Underscores in a key
    become dashes, so ``p_over_m`` and ``p-over-m`` both name ``--p-over-m``.
    A key names a flag by its exact name; the parser rejects any other.  Two
    keys that name one flag, and a ``config`` key, raise ``ValueError``
    rather than let one value silently win.
    """
    args = []
    seen = {}  # each key, as the flag it names, and the line that set it
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        flag = key.replace("_", "-")
        if flag == "config":
            raise ValueError(f"{path}:{lineno}: key {key!r} cannot name another config file")
        if flag in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line {seen[flag]}")
        seen[flag] = lineno
        args.append(f"--{flag}={value.strip()}")
    return args


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = ["--" + n.replace("_", "-") for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join(missing)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcoh",
        description="Spin coherence of entangled pairs under Lorentz boosts",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="key = value file of long flags; flags given here win")
        p.set_defaults(func=func)
        return p

    # Flag groups shared by several subcommands; the figure presets live in
    # figure_spec, so its flags default to None.
    def add_packet(p: argparse.ArgumentParser, theta=None, n=None) -> None:
        p.add_argument("--theta", type=float, default=theta, help="entanglement angle (radians)")
        p.add_argument("--n", type=int, default=n, help="wave-packet generalization exponent")
        p.add_argument("--mass", type=float, help="particle rest mass (MeV)")

    def add_grid(p: argparse.ArgumentParser, betas, betas_help: str):
        """Add the sigma grid, --betas and --out; return the group that holds --betas."""
        p.add_argument("--sigma-min", type=float)
        p.add_argument("--sigma-max", type=float)
        p.add_argument("--steps", type=int)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--betas", type=betas, help=betas_help)
        p.add_argument("--out", help="CSV output path")
        return group

    p_wig = command("wigner", cmd_wigner, "half-angle quantities for e_hat perpendicular to f_hat")
    p_wig.add_argument("--beta", type=float, help="boost speed fraction v/c")
    p_wig.add_argument("--p-over-m", type=float, help="particle momentum over mass")

    p_coh = command("coherence", cmd_coherence, "coherence measures at one parameter point")
    add_packet(p_coh, theta=math.pi / 4, n=2)
    p_coh.add_argument("--beta", type=_beta_config, help="b (one boosted particle) or b1:b2 (both)")
    p_coh.add_argument("--sigma", type=float, help="Gaussian width (MeV)")
    p_coh.add_argument("--method", choices=METHODS, default="perturbative")

    p_sweep = command("sweep", cmd_sweep, "CSV sweep over a sigma grid")
    # --scenario and --beta-pairs remain only because the benchmark's workload
    # argv (bench/workloads.py) still spell them; they go once that argv is
    # written with --betas items alone.
    p_sweep.add_argument("--scenario", choices=("single", "dual"),
                         help="optional; must match the form of the --betas items")
    add_packet(p_sweep, theta=math.pi / 4)
    betas = add_grid(p_sweep, _beta_list, "comma-separated beta configurations, all b (one "
                     "boosted particle) or all b1:b2 (both), e.g. 0.3:0.95,0.8:0.8")
    betas.add_argument("--beta-pairs", type=_beta_pairs, dest="betas", metavar="BETA_PAIRS",
                       help="old name of --betas, for b1:b2 items only")
    p_sweep.add_argument("--methods", type=_method_list, default="perturbative,exact-eig",
                         help=f"comma-separated subset of {METHODS}")

    p_fig = command("figure", cmd_figure, "preset sweeps for the two coherence-decay figures")
    p_fig.add_argument("name", choices=("fig1", "fig2"))
    add_packet(p_fig)
    add_grid(p_fig, _beta_list, "comma-separated b items, e.g. 0.0,0.3,0.95")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it unchanged."""
    return build_parser()


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_wigner(args: argparse.Namespace) -> int:
    _require(args, "beta", "p_over_m")
    row = half_angle_perp(boost_from_beta(args.beta), np.array([args.p_over_m]))[0]
    cos2, sin2, sincos = row.tolist()
    cos_half = math.sqrt(cos2)
    sin_half = sincos / cos_half if cos_half > 0 else math.sqrt(sin2)
    phi = 2.0 * math.atan2(sin_half, cos_half)
    print(f"cos2_half    {cos2!r}")
    print(f"sin2_half    {sin2!r}")
    print(f"sincos_half  {sincos!r}")
    print(f"phi_rad      {phi!r}")
    return 0


def cmd_coherence(args: argparse.Namespace) -> int:
    _require(args, "sigma", "mass", "beta")
    check_theta(args.theta)
    check_nonneg_int(args.n, "n")
    check_positive_finite(args.sigma, "sigma")
    check_positive_finite(args.mass, "mass")
    boosts = tuple(boost_from_beta(b) for b in args.beta)
    sigma_over_m = args.sigma / args.mass
    # exact-eig gives the closed spectrum that the perturbative method prints
    columns, spectra, failure = _block_values(
        args.theta, [boosts], args.n, np.array([sigma_over_m]), (args.method, "exact-eig")
    )
    if failure is not None:
        raise failure[1]
    l1, cf_pert, cf_exact, cf_quad, f1, f2 = (
        None if column is None else column[0].item() for column in columns
    )

    print(f"scenario      {'single' if len(boosts) == 1 else 'dual'}")
    print(f"method        {args.method}")
    print(f"theta_rad     {args.theta!r}")
    for i, b in enumerate(boosts, start=1):
        print(f"beta{i}         {b.beta!r}   (alpha={b.alpha!r})")
    print(f"sigma_mev     {args.sigma!r}")
    print(f"mass_mev      {args.mass!r}")
    print(f"sigma_over_m  {sigma_over_m!r}")
    print(f"n             {args.n}")
    print(f"F1            {f1!r}")
    if f2 is not None:
        print(f"F2            {f2!r}")
    print(f"spectrum      {spectra[0].tolist()!r}")
    print(f"c_l1          {l1!r}")
    cf = {"perturbative": cf_pert, "exact-eig": cf_exact, "quadrature": cf_quad}[args.method]
    print(f"c_F           {cf!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "out", "n", "mass", "sigma_min", "sigma_max", "steps", "betas")
    boosted = {"single": 1, "dual": 2}.get(args.scenario)
    if boosted and any(len(cfg) != boosted for cfg in args.betas):
        form = "b" if boosted == 1 else "b1:b2"
        raise ValueError(f"--scenario {args.scenario} needs every --betas item in the form {form}")
    spec = SweepSpec(
        theta=args.theta,
        n=args.n,
        mass=args.mass,
        sigma_grid=(args.sigma_min, args.sigma_max, args.steps),
        betas=args.betas,
        methods=args.methods,
    )
    count = write_sweep_csv(spec, args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _require(args, "out")
    if pairs := [cfg for cfg in args.betas or () if len(cfg) != 1]:
        raise ValueError(f"figure --betas items have the form b, since {args.name} sets the "
                         f"boost count; got {_items(pairs)}")
    overrides = {
        key: value
        for key in ("theta", "n", "mass", "sigma_min", "sigma_max", "steps")
        if (value := getattr(args, key)) is not None
    }
    if args.betas is not None:
        overrides["betas"] = [cfg[0] for cfg in args.betas]
    spec = figure_spec(args.name, **overrides)
    count = write_sweep_csv(spec, args.out)
    print(f"wrote {count} rows to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the subcommand; config arguments go ahead of the
            # command line's, and argparse keeps a flag's last occurrence.
            args = parser.parse_args(argv[:1] + load_config(args.config) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except QuadratureToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
