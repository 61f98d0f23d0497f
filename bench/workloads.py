"""Seeded workloads: each is a list of ``boostcoh`` CLI invocations.

A workload seed picks beta configurations and sigma-grid endpoints inside
the workload's regime.  The row count is fixed per workload and the
quadrature depth moves by a few percent between seeds, so every seed asks
for about the same amount of work.  Every generated input stays
inside the CLI's domain gates (sigma/m < 1, the n bounds, F < 1/2), so no
invocation is expected to fail.

The benchmark passes the generated argv to the program and nothing else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

MASS_MEV = 939.36  # the figure presets' neutron mass
FIGURE_STEPS = 1024  # the figure preset's 256, raised
NARROW_STEPS = 256
WIDE_STEPS = 256


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the sweep it asks for, as the output check needs it."""

    name: str  # used for the CSV file name
    argv: tuple[str, ...]  # without --out
    scenario: str  # "single" or "dual"
    theta: float
    n: int
    mass: float
    sigma_min: float
    sigma_max: float
    steps: int
    betas: tuple  # floats (single) or (beta1, beta2) pairs (dual)
    methods: tuple[str, ...]

    @property
    def rows(self) -> int:
        return self.steps * len(self.betas)


def _stratified(rng: random.Random, bins) -> list[float]:
    return [rng.uniform(lo, hi) for lo, hi in bins]


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


def figure_closed(seed: int) -> list[Invocation]:
    """fig1 and fig2 at 1024 steps: perturbative and exact-eig methods only."""
    rng = random.Random(f"figure-closed/{seed}")
    betas = (0.0, *_stratified(rng, [(0.1, 0.5), (0.5, 0.9), (0.9, 0.99)]))
    sigma_max = rng.uniform(0.25, 0.35) * MASS_MEV
    sigma_min = sigma_max / FIGURE_STEPS  # the preset's default lower end
    common = ("--steps", str(FIGURE_STEPS), "--sigma-max", repr(sigma_max),
              "--betas", _csv(betas))
    return [
        Invocation(
            name=fig, argv=("figure", fig, *common),
            scenario="single" if fig == "fig1" else "dual",
            theta=math.pi / 4, n=2, mass=MASS_MEV,
            sigma_min=sigma_min, sigma_max=sigma_max, steps=FIGURE_STEPS,
            betas=betas if fig == "fig1" else tuple((b, b) for b in betas),
            methods=("perturbative", "exact-eig"),
        )
        for fig in ("fig1", "fig2")
    ]


def quad_narrow(seed: int) -> list[Invocation]:
    """Dual sweep with all three methods, n = 2, sigma/m <= 0.3.

    Three symmetric beta pairs and one asymmetric pair.  The adaptive
    doubling stops at order 32 on at least 98% of the points and at 64
    on the rest, so node construction is negligible.
    """
    rng = random.Random(f"quad-narrow/{seed}")
    sym = _stratified(rng, [(0.05, 0.4), (0.4, 0.8), (0.8, 0.95)])
    asym = tuple(_stratified(rng, [(0.1, 0.5), (0.6, 0.95)]))
    pairs = tuple((b, b) for b in sym) + (asym,)
    theta = rng.uniform(0.2, 1.3)
    lo = rng.uniform(0.005, 0.02) * MASS_MEV
    hi = rng.uniform(0.25, 0.3) * MASS_MEV
    methods = ("perturbative", "exact-eig", "quadrature")
    argv = (
        "sweep", "--scenario", "dual", "--theta", repr(theta), "--n", "2",
        "--mass", repr(MASS_MEV), "--sigma-min", repr(lo), "--sigma-max", repr(hi),
        "--steps", str(NARROW_STEPS),
        "--beta-pairs", ",".join(f"{b1!r}:{b2!r}" for b1, b2 in pairs),
        "--methods", ",".join(methods),
    )
    return [Invocation(
        name="narrow", argv=argv, scenario="dual", theta=theta, n=2, mass=MASS_MEV,
        sigma_min=lo, sigma_max=hi, steps=NARROW_STEPS, betas=pairs, methods=methods,
    )]


def quad_wide(seed: int) -> list[Invocation]:
    """Single-boost quadrature-only sweep, n = 1, sigma/m ~0.01 to ~0.95.

    Betas reach 0.999, so the adaptive doubling goes to orders 128 and 256.
    """
    rng = random.Random(f"quad-wide/{seed}")
    betas = tuple(_stratified(rng, [(0.3, 0.5), (0.7, 0.85), (0.93, 0.97), (0.995, 0.999)]))
    theta = rng.uniform(0.2, 1.3)
    lo = rng.uniform(0.008, 0.012) * MASS_MEV
    hi = rng.uniform(0.945, 0.95) * MASS_MEV
    methods = ("quadrature",)
    argv = (
        "sweep", "--scenario", "single", "--theta", repr(theta), "--n", "1",
        "--mass", repr(MASS_MEV), "--sigma-min", repr(lo), "--sigma-max", repr(hi),
        "--steps", str(WIDE_STEPS), "--betas", _csv(betas), "--methods", ",".join(methods),
    )
    return [Invocation(
        name="wide", argv=argv, scenario="single", theta=theta, n=1, mass=MASS_MEV,
        sigma_min=lo, sigma_max=hi, steps=WIDE_STEPS, betas=betas, methods=methods,
    )]


WORKLOADS = {
    "figure-closed": figure_closed,
    "quad-narrow": quad_narrow,
    "quad-wide": quad_wide,
}
