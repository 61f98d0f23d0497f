"""Command-line front end: single evaluations, sweeps, figure-data presets.

Subcommands
-----------
wigner      print the perpendicular-geometry half-angle quantities
coherence   evaluate both coherence measures for one parameter point
sweep       write a CSV of coherence values over a sigma grid
figure      run the fig1/fig2 preset sweeps (neutron mass, n = 2)

Exit codes: 0 success, 2 usage or domain error, 3 quadrature tolerance not
met.  Every subcommand accepts ``--config FILE`` with ``key = value`` lines
mirroring the long flags; explicit flags win on conflict.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence

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
    BoostParams, EntangledPairConfig, WavePacket, boost_from_beta,
    check_beta, check_nonneg_int, check_positive_finite,
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
    QuadratureToleranceError,
    check_n_in_bounds,
    f_factor,
    moments_quadrature,
)
from .wigner import half_angle_perp

__all__ = ["SweepSpec", "SweepRow", "build_parser", "main", "entry_point"]

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
        EntangledPairConfig(self.theta)
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
            values = cfg if isinstance(cfg, tuple) else (cfg,)
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


@dataclass(frozen=True)
class SweepRow:
    """One CSV row; ``spectrum`` is kept in memory only."""

    sigma: float
    beta1: float
    beta2: float | None
    n: int
    theta: float
    c_l1: float
    c_f_perturbative: float | None
    c_f_exact_eig: float | None
    c_f_quadrature: float | None
    f1: float
    f2: float | None
    spectrum: Spectrum | None = None

    def csv_fields(self) -> list[str]:
        def fmt(value) -> str:
            return "" if value is None else repr(value)

        return [
            repr(self.sigma),
            repr(self.beta1),
            fmt(self.beta2),
            str(self.n),
            repr(self.theta),
            repr(self.c_l1),
            fmt(self.c_f_perturbative),
            fmt(self.c_f_exact_eig),
            fmt(self.c_f_quadrature),
            repr(self.f1),
            fmt(self.f2),
        ]


def _evaluate_point(
    scenario: str,
    theta: float,
    boosts: Sequence[BoostParams],
    pkt: WavePacket,
    methods: Sequence[str],
    quad_order: int,
    quad_max_order: int,
) -> SweepRow:
    single = scenario == "single"
    eps = pkt.sigma_over_m
    check_n_in_bounds(pkt.n, eps, "single_boost" if single else "dual_boost")
    factors = [f_factor(pkt.n, b, eps) for b in boosts]
    # Computed for every method: it is the printed spectrum and the F range
    # gate of the closed forms.
    spectrum = (spectrum_single_boost if single else spectrum_dual_boost)(theta, *factors)

    cf_pert = cf_exact = cf_quad = None
    if "perturbative" in methods:
        cf_pert = c_frobenius_perturbative(pkt.n, tuple(boosts), eps)
    if "exact-eig" in methods:
        cf_exact = c_frobenius(spectrum, 4)

    if "quadrature" in methods:
        moments = [
            moments_quadrature(pkt, b, quad_order, max_order=quad_max_order)
            for b in boosts
        ]
        rho = (rho_single_boost_general if single else rho_dual_boost_general)(theta, *moments)
        spectrum = hermitian_eigenvalues(rho)
        cf_quad = c_frobenius(spectrum, 4)
    else:
        rho = (rho_single_boost_perturbative if single else rho_dual_boost_perturbative)(
            theta, *factors
        )

    return SweepRow(
        sigma=pkt.sigma,
        beta1=boosts[0].beta,
        beta2=boosts[1].beta if len(boosts) == 2 else None,
        n=pkt.n,
        theta=theta,
        c_l1=c_l1(rho),
        c_f_perturbative=cf_pert,
        c_f_exact_eig=cf_exact,
        c_f_quadrature=cf_quad,
        f1=factors[0].f,
        f2=factors[1].f if len(factors) == 2 else None,
        spectrum=spectrum,
    )


def run_sweep(spec: SweepSpec, quad_order: int = DEFAULT_ORDER, quad_max_order: int = MAX_ORDER):
    """Yield SweepRows sorted by sigma, then beta configuration."""
    beta_configs = sorted(
        spec.betas, key=lambda cfg: cfg if isinstance(cfg, tuple) else (cfg,)
    )
    boosts_by_cfg = [
        tuple(boost_from_beta(b) for b in (cfg if isinstance(cfg, tuple) else (cfg,)))
        for cfg in beta_configs
    ]
    for sigma in spec.sigmas():
        pkt = WavePacket(spec.n, sigma, spec.mass)
        for boosts in boosts_by_cfg:
            yield _evaluate_point(
                spec.scenario, spec.theta, boosts, pkt,
                spec.methods, quad_order, quad_max_order,
            )


def write_sweep_csv(
    spec: SweepSpec, out_path, quad_order: int = DEFAULT_ORDER, quad_max_order: int = MAX_ORDER
) -> int:
    """Write the sweep to ``out_path``, replacing it only when every row succeeded.

    A new or regular target (symlinks resolved) is written as a temporary
    file beside it and renamed onto it, so a failed sweep leaves no partial
    file and an existing file intact.  A device or FIFO is written through.
    """
    path = Path(out_path).resolve()
    direct = path.exists() and not path.is_file()
    tmp = path if direct else path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "w" if direct else "x", encoding="utf-8", newline="")
    try:
        with fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            count = 0
            for row in run_sweep(spec, quad_order, quad_max_order):
                writer.writerow(row.csv_fields())
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
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {m!r}; choose from {METHODS}")
    return methods


# fields that may come from a config file, with their converters
_CONFIG_FIELDS = {
    "beta": float,
    "beta1": float,
    "beta2": float,
    "p_over_m": float,
    "theta": float,
    "sigma": float,
    "mass": float,
    "n": _nonneg_int,
    "method": str,
    "methods": _method_list,
    "scenario": str,
    "sigma_min": float,
    "sigma_max": float,
    "steps": int,
    "betas": _float_list,
    "beta_pairs": _pair_list,
    "out": str,
    "quad_order": int,
    "quad_max_order": int,
}


def load_config(path) -> dict[str, str]:
    """Parse a ``key = value`` file; '#' starts a comment, blanks ignored."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    raw = load_config(args.config)
    for key, text in raw.items():
        conv = _CONFIG_FIELDS.get(key)
        if conv is None:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, conv(text))


def _quad_orders(args: argparse.Namespace) -> tuple[int, int]:
    order = DEFAULT_ORDER if args.quad_order is None else args.quad_order
    max_order = MAX_ORDER if args.quad_max_order is None else args.quad_max_order
    return order, max_order


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcoh",
        description="Spin coherence of entangled pairs under Lorentz boosts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value file mirroring the flags")

    p_wig = sub.add_parser("wigner", help="half-angle quantities for e_hat perpendicular to f_hat")
    p_wig.add_argument("--beta", type=float, default=None, help="boost speed fraction v/c")
    p_wig.add_argument("--p-over-m", dest="p_over_m", type=float, default=None,
                       help="particle momentum over mass")
    add_common(p_wig)
    p_wig.set_defaults(func=cmd_wigner)

    p_coh = sub.add_parser("coherence", help="coherence measures at one parameter point")
    p_coh.add_argument("--scenario", choices=("single", "dual"), default=None)
    p_coh.add_argument("--theta", type=float, default=None, help="entanglement angle (radians, default pi/4)")
    p_coh.add_argument("--beta", type=float, default=None, help="boost for the single scenario")
    p_coh.add_argument("--beta1", type=float, default=None, help="first boost for the dual scenario")
    p_coh.add_argument("--beta2", type=float, default=None, help="second boost for the dual scenario")
    p_coh.add_argument("--sigma", type=float, default=None, help="Gaussian width (MeV)")
    p_coh.add_argument("--mass", type=float, default=None, help="particle rest mass (MeV)")
    p_coh.add_argument("--n", type=_nonneg_int, default=None, help="wave-packet generalization exponent")
    p_coh.add_argument("--method", choices=METHODS, default=None)
    p_coh.add_argument("--quad-order", dest="quad_order", type=int, default=None)
    p_coh.add_argument("--quad-max-order", dest="quad_max_order", type=int, default=None)
    add_common(p_coh)
    p_coh.set_defaults(func=cmd_coherence)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a sigma grid")
    p_sweep.add_argument("--scenario", choices=("single", "dual"), default=None)
    p_sweep.add_argument("--theta", type=float, default=None)
    p_sweep.add_argument("--n", type=_nonneg_int, default=None)
    p_sweep.add_argument("--mass", type=float, default=None)
    p_sweep.add_argument("--sigma-min", dest="sigma_min", type=float, default=None)
    p_sweep.add_argument("--sigma-max", dest="sigma_max", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--betas", type=_float_list, default=None,
                         help="comma-separated list, e.g. 0.0,0.3,0.95 (single scenario)")
    p_sweep.add_argument("--beta-pairs", dest="beta_pairs", type=_pair_list, default=None,
                         help="comma-separated b1:b2 pairs (dual scenario)")
    p_sweep.add_argument("--methods", type=_method_list, default=None,
                         help=f"comma-separated subset of {METHODS}")
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.add_argument("--quad-order", dest="quad_order", type=int, default=None)
    p_sweep.add_argument("--quad-max-order", dest="quad_max_order", type=int, default=None)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="preset sweeps for the two coherence-decay figures")
    p_fig.add_argument("name", choices=("fig1", "fig2"))
    p_fig.add_argument("--out", default=None, help="CSV output path")
    p_fig.add_argument("--theta", type=float, default=None)
    p_fig.add_argument("--n", type=_nonneg_int, default=None)
    p_fig.add_argument("--mass", type=float, default=None)
    p_fig.add_argument("--sigma-min", dest="sigma_min", type=float, default=None)
    p_fig.add_argument("--sigma-max", dest="sigma_max", type=float, default=None)
    p_fig.add_argument("--steps", type=int, default=None)
    p_fig.add_argument("--betas", type=_float_list, default=None)
    add_common(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    return parser


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
    if args.scenario is None:
        args.scenario = "single"
    if args.theta is None:
        args.theta = math.pi / 4
    if args.n is None:
        args.n = 2
    if args.method is None:
        args.method = "perturbative"
    _require(args, "sigma", "mass")
    if args.scenario == "single":
        _require(args, "beta")
        betas = (args.beta,)
    else:
        _require(args, "beta1", "beta2")
        betas = (args.beta1, args.beta2)
    EntangledPairConfig(args.theta)

    pkt = WavePacket(args.n, args.sigma, args.mass)
    boosts = tuple(boost_from_beta(b) for b in betas)
    row = _evaluate_point(
        args.scenario, args.theta, boosts, pkt, (args.method,), *_quad_orders(args)
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
    print(f"F1            {row.f1!r}")
    if row.f2 is not None:
        print(f"F2            {row.f2!r}")
    print(f"spectrum      {list(row.spectrum.eigenvalues)!r}")
    print(f"c_l1          {row.c_l1!r}")
    cf = {"perturbative": row.c_f_perturbative,
          "exact-eig": row.c_f_exact_eig,
          "quadrature": row.c_f_quadrature}[args.method]
    print(f"c_F           {cf!r}")
    return 0


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    if args.scenario is None:
        args.scenario = "single"
    if args.theta is None:
        args.theta = math.pi / 4
    _require(args, "n", "mass", "sigma_min", "sigma_max", "steps")
    if args.scenario == "single":
        _require(args, "betas")
        beta_cfgs = args.betas
    else:
        _require(args, "beta_pairs")
        beta_cfgs = args.beta_pairs
    methods = args.methods or ("perturbative", "exact-eig")
    return SweepSpec(
        scenario=args.scenario,
        theta=args.theta,
        n=args.n,
        mass=args.mass,
        sigma_grid=(args.sigma_min, args.sigma_max, args.steps),
        betas=tuple(beta_cfgs),
        methods=methods,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "out")
    spec = _sweep_spec_from_args(args)
    count = write_sweep_csv(spec, args.out, *_quad_orders(args))
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(args)
        return args.func(args)
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
