"""Command-line front end: single evaluations, sweeps, figure-data presets.

Subcommands
-----------
wigner      print the perpendicular-geometry half-angle quantities
coherence   evaluate both coherence measures for one parameter point
sweep       write a CSV of coherence values over a sigma grid
figure      run the fig1/fig2 preset sweeps (neutron mass, n = 2)

Exit codes: 0 success, 2 usage or domain error, 3 quadrature tolerance not
met.  Every subcommand accepts ``--config FILE`` with ``key = value`` lines.
A key is one of the subcommand's long flags, written with dashes or
underscores.  Each line is parsed as ``--key=value`` by the subcommand's own
parser, so it is checked with the same types and choices (and argparse's
unique-prefix rule); a key the subcommand does not have exits 2.  Flags on
the command line win over the file.
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
from typing import Iterator, Literal, Sequence

import numpy as np

from .coherence import (
    Spectrum,
    c_frobenius,
    c_frobenius_perturbative,
    c_l1,
    hermitian_eigenvalues,
    spectrum_dual_boost,
    spectrum_single_boost,
)
from .core import (
    BoostParams, WavePacket, boost_from_beta,
    check_beta, check_nonneg_int, check_positive_finite, check_theta,
)
from .density import (
    rho_dual_boost_general,
    rho_dual_boost_perturbative,
    rho_single_boost_general,
    rho_single_boost_perturbative,
)
from .integrals import (
    DEFAULT_ORDER,
    MAX_ORDER,
    PerturbativeFactor,
    QuadratureToleranceError,
    check_factor_sum,
    check_n_in_bounds,
    check_orders,
    f_factor,
    moments_quadrature,
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


def _beta_tuple(cfg) -> tuple:
    """A sweep's beta configuration as a tuple: a single sweep's float becomes (beta,)."""
    return cfg if isinstance(cfg, tuple) else (cfg,)


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one CSV sweep."""

    scenario: Literal["single", "dual"]
    theta: float
    n: int
    mass: float
    sigma_grid: tuple[float, float, int]  # (min, max, steps)
    betas: tuple  # floats (single) or (beta1, beta2) pairs (dual)
    methods: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.scenario not in ("single", "dual"):
            raise ValueError(f"scenario must be 'single' or 'dual', got {self.scenario!r}")
        check_theta(self.theta)
        check_nonneg_int(self.n, "n")
        check_positive_finite(self.mass, "mass")
        lo, hi, steps = self.sigma_grid
        check_positive_finite(lo, "sigma_min")
        check_positive_finite(hi, "sigma_max")
        if hi < lo or steps < 2:
            raise ValueError(f"sigma grid needs min <= max and steps >= 2, got {self.sigma_grid}")
        if not self.betas:
            raise ValueError("at least one beta configuration is required")
        for cfg in self.betas:
            values = _beta_tuple(cfg)
            expected = 2 if self.scenario == "dual" else 1
            if len(values) != expected:
                raise ValueError(f"{self.scenario} sweep needs {expected} beta value(s) per entry")
            for b in values:
                check_beta(b)
        unknown = set(self.methods) - set(METHODS)
        if unknown or not self.methods:
            raise ValueError(f"methods must be a nonempty subset of {METHODS}")

    def sigmas(self) -> list[float]:
        lo, hi, steps = self.sigma_grid
        return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _block_values(
    single: bool,
    theta: float,
    boosts: Sequence[BoostParams],
    n: int,
    eps: np.ndarray,
    methods: Sequence[str],
    quad_order: int,
    quad_max_order: int,
) -> tuple[list, np.ndarray, tuple | None]:
    """One beta configuration over a block of sigma/m values, as columns.

    Returns ``(columns, spectra, failure)``.  ``columns`` holds the CSV
    columns c_l1 to f2 as arrays, one value per point (None for a method
    not asked for, and for f2 with one boost).  ``spectra`` holds each
    point's spectrum: Jacobi's on quadrature rows, else the closed form.
    ``failure`` is None, or ``(k, error)`` for the first point k that fails
    a check, with the error it raises when checked alone.

    Every value and check is computed once for the whole block: the domain
    gates (n bounds, then F1 + F2 < 1/2) as masks, the quadrature moments
    of the points that passed them with one call per boost, the density
    matrices as one stack, and the spectra and coherences as columns.  A
    point keeps the first failure it meets, in that order.  Only plain
    values are returned, so no stack outlives the call.
    """
    quadrature = "quadrature" in methods
    scenario = "single_boost" if single else "dual_boost"
    count = len(eps)
    inside = check_n_in_bounds(n, eps, scenario)
    factors = [f_factor(n, b, np.where(inside, eps, np.nan)) for b in boosts]
    passed = inside & check_factor_sum(*factors)

    # Per point, None or its first quadrature or validation error; an
    # exception is truthy, so ``errors.astype(bool)`` marks the failures.
    errors = np.full(count, None, dtype=object)
    stacked = np.flatnonzero(passed)
    if quadrature and stacked.size:  # one call per boost covers the gated points
        moments = []
        for b in boosts:
            values, errs = moments_quadrature(
                (n, eps[stacked]), b, quad_order, max_order=quad_max_order
            )
            moments.append(values)
            errors[stacked] = np.where(errors[stacked].astype(bool), errors[stacked], errs)
        converged = ~errors[stacked].astype(bool)
        stacked, moments = stacked[converged], [m[converged] for m in moments]
    l1 = np.full(count, np.nan)
    eigs = np.full((count, 4), np.nan)
    if stacked.size:
        if quadrature:
            build = rho_single_boost_general if single else rho_dual_boost_general
            rho = build(theta, *moments)
        else:
            build = rho_single_boost_perturbative if single else rho_dual_boost_perturbative
            rho = build(theta, *(f[stacked] for f in factors))
        l1[stacked] = c_l1(rho)
        if any(rho.errors):
            errors[stacked] = rho.errors
        if quadrature:
            eigs[stacked] = hermitian_eigenvalues(rho)
    passed &= ~errors.astype(bool)

    cf_pert = cf_exact = cf_quad = None
    if "perturbative" in methods:
        cf_pert = c_frobenius_perturbative(n, boosts, eps, factors)
    closed = "exact-eig" in methods or not quadrature
    if closed:
        spectra = (spectrum_single_boost if single else spectrum_dual_boost)(theta, *factors)
        passed &= ~np.isnan(spectra[:, 0])
        if "exact-eig" in methods:
            cf_exact = c_frobenius(spectra, 4)
    if quadrature:
        spectra = eigs
        cf_quad = c_frobenius(eigs, 4)
        passed &= ~np.isnan(cf_quad)
    f1, f2 = (factors[0], None) if single else factors
    columns = [l1, cf_pert, cf_exact, cf_quad, f1, f2]
    if passed.all():
        return columns, spectra, None

    # The first failing point, checked alone, raises its own error.
    k = int(np.argmin(passed))
    try:
        check_n_in_bounds(n, eps[k].item(), scenario)
        point_factors = [PerturbativeFactor(f[k].item()) for f in factors]
        check_factor_sum(*point_factors)
        if errors[k] is not None:
            raise errors[k]
        if closed:
            (spectrum_single_boost if single else spectrum_dual_boost)(theta, *point_factors)
        if quadrature:
            Spectrum(eigs[k].tolist())
    except (ValueError, QuadratureToleranceError) as exc:
        return columns, spectra, (k, exc)
    raise AssertionError(f"point {k} failed a block check but passes alone")


def _config_lines(
    spec: SweepSpec,
    boosts: Sequence[BoostParams],
    sigma_text: Sequence[str],
    eps: np.ndarray,
    quad_order: int,
    quad_max_order: int,
) -> Iterator[str]:
    """Yield the CSV lines of one beta configuration over a block.

    The block's values are computed as columns (see :func:`_block_values`)
    when the first line is asked for, and its text is built by column:
    each value column goes through one ``map(repr, ...)``, f2 shares f1's
    text when the two F columns hold the same bits (a symmetric pair), and
    a column not asked for is empty.  A failing point's own error is raised
    when its line is reached.
    """
    columns, _, failure = _block_values(
        spec.scenario == "single", spec.theta, boosts, spec.n, eps, spec.methods,
        quad_order, quad_max_order,
    )
    count = len(sigma_text) if failure is None else failure[0]

    def text(column) -> list[str]:
        return [""] * count if column is None else list(map(repr, column[:count].tolist()))

    *values, f1, f2 = columns
    f1_text = text(f1)
    # a symmetric pair has the same F columns: format them once
    f2_text = f1_text if f2 is not None and f2.tobytes() == f1.tobytes() else text(f2)
    beta2 = repr(boosts[1].beta) if len(boosts) == 2 else ""
    head = [f"{boosts[0].beta!r},{beta2},{spec.n},{spec.theta!r}"] * count
    yield from map(",".join, zip(sigma_text, head, *map(text, values), f1_text, f2_text))
    if failure is not None:
        raise failure[1]


def run_sweep(spec: SweepSpec, quad_order: int = DEFAULT_ORDER, quad_max_order: int = MAX_ORDER):
    """Yield the sweep's CSV lines (without the newline), sorted by sigma, then beta configuration.

    The sigma grid is walked in blocks of :data:`BLOCK` points.  Per block,
    sigma/m is one array division and each sigma is formatted once for
    every beta configuration.  Per block and configuration, the values and
    their text are columns (see :func:`_config_lines`), built when the
    first line of the block is asked for.  Lines are still yielded one per
    row.
    """
    boosts_by_cfg = [
        tuple(boost_from_beta(b) for b in cfg) for cfg in sorted(map(_beta_tuple, spec.betas))
    ]
    sigmas = spec.sigmas()
    for start in range(0, len(sigmas), BLOCK):
        sigma = sigmas[start:start + BLOCK]
        eps = np.array(sigma) / spec.mass
        sigma_text = list(map(repr, sigma))
        configs = [_config_lines(spec, boosts, sigma_text, eps, quad_order, quad_max_order)
                   for boosts in boosts_by_cfg]
        for _ in sigma:
            for lines in configs:
                yield next(lines)


def write_sweep_csv(
    spec: SweepSpec, out_path, quad_order: int = DEFAULT_ORDER, quad_max_order: int = MAX_ORDER
) -> int:
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
    fh = open(tmp, "w" if direct else "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            count = 0
            for line in run_sweep(spec, quad_order, quad_max_order):
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


def figure_spec(name: Literal["fig1", "fig2"], **overrides) -> SweepSpec:
    """Preset sweeps behind the two published coherence-decay figures.

    fig1: one boosted particle, fig2: both boosted with beta1 = beta2; both
    use the neutron mass, n = 2, theta = pi/4, and a sigma grid covering
    sigma/m in (0, 0.3] (the sigma axis range is a preset choice, not a
    published number; override with the sweep flags if needed).
    """
    if name not in ("fig1", "fig2"):
        raise ValueError(f"figure name must be 'fig1' or 'fig2', got {name!r}")
    mass = overrides.get("mass", FIGURE_MASS_MEV)
    steps = overrides.get("steps", FIGURE_STEPS)
    sigma_max = overrides.get("sigma_max", FIGURE_SIGMA_FRACTION * mass)
    sigma_min = overrides.get("sigma_min", sigma_max / steps)
    betas = overrides.get("betas", FIGURE_BETAS)
    scenario = "single" if name == "fig1" else "dual"
    beta_cfgs = tuple(betas) if scenario == "single" else tuple((b, b) for b in betas)
    return SweepSpec(
        scenario=scenario,
        theta=overrides.get("theta", math.pi / 4),
        n=overrides.get("n", FIGURE_N),
        mass=mass,
        sigma_grid=(sigma_min, sigma_max, steps),
        betas=beta_cfgs,
        methods=("perturbative", "exact-eig"),
    )


# ---------------------------------------------------------------------------
# argument parsing

def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"n must be a nonnegative integer (the coherence bound requires n > -1/2), got {value}"
        )
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _pair_list(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for part in text.split(","):
        if not part.strip():
            continue
        left, _, right = part.partition(":")
        if not right:
            raise argparse.ArgumentTypeError(
                f"beta pairs use the form b1:b2, got {part!r}"
            )
        pairs.append((float(left), float(right)))
    return tuple(pairs)


def _method_list(text: str) -> tuple[str, ...]:
    methods = tuple(part.strip() for part in text.split(",") if part.strip())
    if not methods or set(methods) - set(METHODS):
        raise argparse.ArgumentTypeError(
            f"expected a nonempty comma-separated subset of {METHODS}, got {text!r}"
        )
    return methods


def load_config(path) -> list[str]:
    """Turn a ``key = value`` file into ``--key=value`` arguments.

    '#' starts a comment and blank lines are skipped.  Underscores in a key
    become dashes, so ``p_over_m`` and ``p-over-m`` both name ``--p-over-m``.
    """
    args = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        args.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return args


def _flags(names: Sequence[str]) -> str:
    return ", ".join("--" + n.replace("_", "-") for n in names)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ValueError(f"missing required option(s): {_flags(missing)}")


def _check_quad_flags(args: argparse.Namespace) -> None:
    """Reject quadrature orders :func:`check_orders` refuses, naming both flags."""
    try:
        check_orders(args.quad_order, args.quad_max_order)
    except ValueError as exc:
        raise ValueError(
            f"--quad-order {args.quad_order}, --quad-max-order {args.quad_max_order}: {exc}"
        ) from None


def _forbid(args: argparse.Namespace, scenario: str, *names: str) -> None:
    """Reject the other scenario's beta flags rather than ignore them."""
    given = [n for n in names if getattr(args, n, None) is not None]
    if given:
        raise ValueError(f"{_flags(given)} cannot be used with --scenario {scenario}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcoh",
        description="Spin coherence of entangled pairs under Lorentz boosts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="key = value file of long flags; flags given here win")
        p.set_defaults(func=func)
        return p

    # Flag groups shared by several subcommands; the figure presets live in
    # figure_spec, so its flags default to None.
    def add_packet(p: argparse.ArgumentParser, theta=None, n=None) -> None:
        p.add_argument("--theta", type=float, default=theta, help="entanglement angle (radians)")
        p.add_argument("--n", type=_nonneg_int, default=n, help="wave-packet generalization exponent")
        p.add_argument("--mass", type=float, help="particle rest mass (MeV)")

    def add_route(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", choices=("single", "dual"), default="single")
        p.add_argument("--quad-order", type=int, default=DEFAULT_ORDER)
        p.add_argument("--quad-max-order", type=int, default=MAX_ORDER)

    def add_grid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sigma-min", type=float)
        p.add_argument("--sigma-max", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--betas", type=_float_list,
                       help="comma-separated list, e.g. 0.0,0.3,0.95 (single scenario)")
        p.add_argument("--out", help="CSV output path")

    p_wig = command("wigner", cmd_wigner, "half-angle quantities for e_hat perpendicular to f_hat")
    p_wig.add_argument("--beta", type=float, help="boost speed fraction v/c")
    p_wig.add_argument("--p-over-m", type=float, help="particle momentum over mass")

    p_coh = command("coherence", cmd_coherence, "coherence measures at one parameter point")
    add_route(p_coh)
    add_packet(p_coh, theta=math.pi / 4, n=2)
    p_coh.add_argument("--beta", type=float, help="boost for the single scenario")
    p_coh.add_argument("--beta1", type=float, help="first boost for the dual scenario")
    p_coh.add_argument("--beta2", type=float, help="second boost for the dual scenario")
    p_coh.add_argument("--sigma", type=float, help="Gaussian width (MeV)")
    p_coh.add_argument("--method", choices=METHODS, default="perturbative")

    p_sweep = command("sweep", cmd_sweep, "CSV sweep over a sigma grid")
    add_route(p_sweep)
    add_packet(p_sweep, theta=math.pi / 4)
    add_grid(p_sweep)
    p_sweep.add_argument("--beta-pairs", type=_pair_list,
                         help="comma-separated b1:b2 pairs (dual scenario)")
    p_sweep.add_argument("--methods", type=_method_list, default="perturbative,exact-eig",
                         help=f"comma-separated subset of {METHODS}")

    p_fig = command("figure", cmd_figure, "preset sweeps for the two coherence-decay figures")
    p_fig.add_argument("name", choices=("fig1", "fig2"))
    add_packet(p_fig)
    add_grid(p_fig)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it unchanged."""
    return build_parser()


# ---------------------------------------------------------------------------
# subcommand bodies

def cmd_wigner(args: argparse.Namespace) -> int:
    _require(args, "beta", "p_over_m")
    trig = half_angle_perp(boost_from_beta(args.beta), args.p_over_m)
    cos_half = math.sqrt(trig.cos2_half)
    sin_half = trig.sincos_half / cos_half if cos_half > 0 else math.sqrt(trig.sin2_half)
    phi = 2.0 * math.atan2(sin_half, cos_half)
    print(f"cos2_half    {trig.cos2_half!r}")
    print(f"sin2_half    {trig.sin2_half!r}")
    print(f"sincos_half  {trig.sincos_half!r}")
    print(f"phi_rad      {phi!r}")
    return 0


def cmd_coherence(args: argparse.Namespace) -> int:
    _require(args, "sigma", "mass")
    if args.scenario == "single":
        _require(args, "beta")
        _forbid(args, "single", "beta1", "beta2")
        betas = (args.beta,)
    else:
        _require(args, "beta1", "beta2")
        _forbid(args, "dual", "beta")
        betas = (args.beta1, args.beta2)
    check_theta(args.theta)

    pkt = WavePacket(args.n, args.sigma, args.mass)
    if args.method == "quadrature":
        _check_quad_flags(args)
    boosts = tuple(boost_from_beta(b) for b in betas)
    columns, spectra, failure = _block_values(
        args.scenario == "single", args.theta, boosts, pkt.n, np.array([pkt.sigma_over_m]),
        (args.method,), args.quad_order, args.quad_max_order,
    )
    if failure is not None:
        raise failure[1]
    l1, cf_pert, cf_exact, cf_quad, f1, f2 = (
        None if column is None else column[0].item() for column in columns
    )

    print(f"scenario      {args.scenario}")
    print(f"method        {args.method}")
    print(f"theta_rad     {args.theta!r}")
    for i, b in enumerate(boosts, start=1):
        print(f"beta{i}         {b.beta!r}   (alpha={b.alpha!r})")
    print(f"sigma_mev     {pkt.sigma!r}")
    print(f"mass_mev      {pkt.mass!r}")
    print(f"sigma_over_m  {pkt.sigma_over_m!r}")
    print(f"n             {pkt.n}")
    print(f"F1            {f1!r}")
    if f2 is not None:
        print(f"F2            {f2!r}")
    print(f"spectrum      {spectra[0].tolist()!r}")
    print(f"c_l1          {l1!r}")
    cf = {"perturbative": cf_pert, "exact-eig": cf_exact, "quadrature": cf_quad}[args.method]
    print(f"c_F           {cf!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    beta_key, other_key = "betas", "beta_pairs"
    if args.scenario == "dual":
        beta_key, other_key = other_key, beta_key
    _require(args, "out", "n", "mass", "sigma_min", "sigma_max", "steps", beta_key)
    _forbid(args, args.scenario, other_key)
    spec = SweepSpec(
        scenario=args.scenario,
        theta=args.theta,
        n=args.n,
        mass=args.mass,
        sigma_grid=(args.sigma_min, args.sigma_max, args.steps),
        betas=getattr(args, beta_key),
        methods=args.methods,
    )
    if "quadrature" in spec.methods:
        _check_quad_flags(args)
    count = write_sweep_csv(spec, args.out, args.quad_order, args.quad_max_order)
    print(f"wrote {count} rows to {args.out}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _require(args, "out")
    overrides = {
        key: value
        for key in ("theta", "n", "mass", "sigma_min", "sigma_max", "steps", "betas")
        if (value := getattr(args, key, None)) is not None
    }
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
