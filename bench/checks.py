"""Output check for every CSV the benchmark makes the program write.

Each CSV goes through three steps:

1. invariants that hold on any seed: the header is the schema in README.md
   (``boostcoh.cli.CSV_HEADER`` at the commit that recorded the
   references), the row count is steps x beta configurations, and every row
   has ``c_l1 = sin 2 theta``;
2. when the seed has a recorded reference, its SHA-256 must equal the one
   recorded in ``reference.json``; equal bytes mean a deviation of 0;
3. otherwise, and on a hash mismatch, every numeric field is compared with an
   independent numpy recomputation (:func:`expected_fields`) and its
   relative deviation must stay within ``REL_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import Invocation

HEADER = [
    "sigma_mev", "beta1", "beta2", "n", "theta", "c_l1",
    "c_f_perturbative", "c_f_exact_eig", "c_f_quadrature", "f1", "f2",
]
REL_TOL = 1e-9  # per-field relative deviation allowed on a hash mismatch
ABS_FLOOR = 1e-12  # smallest denominator of a relative deviation
L1_TOL = 1e-12  # |c_l1 - sin 2 theta|; 2.1e-15 measured

# Trapezoid rule over kappa = p / sigma in [-12, 12] with step h = 0.02.  The
# integrands are analytic within 1 / (sigma/m) > 1 of the real axis, so the
# error is below exp(-2 pi / h) ~ 1e-136; the end points carry exp(-144), so
# the rule is a plain weighted sum.
KAPPA = np.linspace(-12.0, 12.0, 1201)

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class CsvCheck:
    """Checks CSVs, verifying each distinct content once per run."""

    def __init__(self, references: dict[str, str]) -> None:
        self.references = references  # invocation name -> SHA-256 hex
        self._seen: dict[str, tuple[bool, float, str]] = {}
        self.max_rel_dev = 0.0

    def check(self, path: Path, inv: Invocation) -> tuple[bool, str]:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self._seen:
            self._seen[digest] = self._verify(data, digest, inv)
        ok, dev, message = self._seen[digest]
        self.max_rel_dev = max(self.max_rel_dev, dev)
        return ok, message

    def _verify(self, data: bytes, digest: str, inv: Invocation) -> tuple[bool, float, str]:
        try:
            rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        except UnicodeDecodeError as exc:
            return False, math.inf, f"{inv.name}: not UTF-8: {exc}"
        if not rows or rows[0] != HEADER:
            return False, math.inf, f"{inv.name}: header {rows[:1]} != {HEADER}"
        body = rows[1:]
        if len(body) != inv.rows or any(len(r) != len(HEADER) for r in body):
            return False, math.inf, f"{inv.name}: expected {inv.rows} rows of {len(HEADER)} fields"
        try:
            l1_dev = max(abs(float(r[5]) - math.sin(2.0 * float(r[4]))) for r in body)
        except ValueError as exc:
            return False, math.inf, f"{inv.name}: {exc}"
        if not l1_dev <= L1_TOL:
            return False, math.inf, f"{inv.name}: |c_l1 - sin 2 theta| = {l1_dev:.3e}"
        if self.references.get(inv.name) == digest:
            return True, 0.0, ""
        dev, message = field_deviation(body, inv)
        return dev <= REL_TOL, dev, message


def field_deviation(body: list[list[str]], inv: Invocation) -> tuple[float, str]:
    """Largest relative deviation of any numeric field from the recomputation."""
    expected = expected_fields(inv)
    worst, where = 0.0, ""
    for col, name in enumerate(HEADER):
        want = expected[name]
        cells = [r[col] for r in body]
        if want is None:
            if any(cells):
                return math.inf, f"{inv.name}: column {name} should be empty"
            continue
        try:
            got = np.array([float(c) for c in cells])
        except ValueError:
            return math.inf, f"{inv.name}: column {name} is not numeric"
        dev = np.abs(got - want) / np.maximum(np.abs(want), ABS_FLOOR)
        if not np.all(np.isfinite(dev)):
            return math.inf, f"{inv.name}: column {name} is not finite"
        if dev.max() > worst:
            row = int(dev.argmax())
            worst, where = float(dev.max()), f"{inv.name}: {name} row {row}: {float(got[row])!r} vs {float(want[row])!r}"
    if worst > REL_TOL:
        return worst, f"relative deviation {worst:.3e} > {REL_TOL:.0e} at {where}"
    return worst, ""


def expected_fields(inv: Invocation) -> dict[str, np.ndarray | None]:
    """Every CSV column recomputed from the paper's formulas, row by row.

    Rows run over sigma, then over beta configurations in sorted order.
    Spectra come from ``numpy.linalg.eigvalsh`` and moments from
    :data:`KAPPA`'s trapezoid rule, so nothing is shared with the program's
    closed-form spectra, Jacobi solver or Gauss-Hermite nodes.
    """
    dual = inv.scenario == "dual"
    configs = sorted(tuple(c) if dual else (c,) for c in inv.betas)
    sigmas = np.linspace(inv.sigma_min, inv.sigma_max, inv.steps)
    n_cfg = len(configs)
    sigma = np.repeat(sigmas, n_cfg)
    betas = np.tile(np.array(configs), (inv.steps, 1))  # (rows, 1 or 2)
    eps = sigma / inv.mass
    st, ct = math.sin(inv.theta), math.cos(inv.theta)

    gamma = 1.0 / np.sqrt(1.0 - betas**2)
    f = (2 * inv.n + 1) / 8.0 * (gamma - 1.0) / (gamma + 1.0) * eps[:, None] ** 2

    out: dict[str, np.ndarray | None] = dict.fromkeys(HEADER)
    out.update(
        sigma_mev=sigma, beta1=betas[:, 0], n=np.full(len(sigma), float(inv.n)),
        theta=np.full(len(sigma), inv.theta), c_l1=np.full(len(sigma), abs(math.sin(2 * inv.theta))),
        f1=f[:, 0],
    )
    if dual:
        out.update(beta2=betas[:, 1], f2=f[:, 1])
    if "perturbative" in inv.methods:
        out["c_f_perturbative"] = 1.0 - 4.0 / 3.0 * f.sum(axis=1)
    if "exact-eig" in inv.methods:
        if dual:
            rho = _x_state(f[:, 0], f[:, 1], st, ct)
        else:
            rho = _state([np.stack([1.0 - f[:, 0], 0.0 * f[:, 0], f[:, 0]], axis=1)], st, ct)
        out["c_f_exact_eig"] = _frobenius(rho)
    if "quadrature" in inv.methods:
        moments = [_moments(inv.n, betas[:, i], eps) for i in range(betas.shape[1])]
        out["c_f_quadrature"] = _frobenius(_state(moments, st, ct))
    return out


def _moments(n: int, beta: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(I1, I2, I3) per row: |psi|^2-weighted half-angle terms, by trapezoid."""
    out = np.empty((len(beta), 3))
    step = KAPPA[1] - KAPPA[0]
    weight = KAPPA ** (2 * n) * np.exp(-KAPPA**2) / math.gamma(n + 0.5) * step
    for lo in range(0, len(beta), 64):  # keeps each temporary under 1 MB
        b = 1.0 / np.sqrt(1.0 - beta[lo:lo + 64, None] ** 2)  # cosh alpha
        a = beta[lo:lo + 64, None] * b  # sinh alpha
        x = eps[lo:lo + 64, None] * KAPPA
        root = np.sqrt(1.0 + x * x)
        den = 2.0 * (1.0 + b * root)
        out[lo:lo + 64, 0] = ((1.0 + b) * (1.0 + root) / den) @ weight
        out[lo:lo + 64, 1] = (a * x / den) @ weight
        out[lo:lo + 64, 2] = ((1.0 - b) * (1.0 - root) / den) @ weight
    return out


def _state(moments: list[np.ndarray], st: float, ct: float) -> np.ndarray:
    """Reduced 4x4 states, one per row, from per-particle moment triples.

    The pair state is sin(theta)|01> + cos(theta)|10>.  A boost sends a
    particle's |0> to c|0> - s|1> and |1> to s|0> + c|1>, with (c, s) the
    cosine and sine of half its Wigner angle; averaging the outer product
    over independent momenta turns c^2, cs, s^2 into I1, I2, I3.  With one
    triple, the other particle stays at rest.
    """
    if len(moments) == 1:
        moments = [np.tile([1.0, 0.0, 0.0], (len(moments[0]), 1)), moments[0]]
    rot = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]])  # R = c rot[0] + s rot[1]
    pair = np.array([[0.0, st], [ct, 0.0]])
    # amplitude of |jk> = sum_{u,v} pair[u, v] R1[j, u] R2[k, v], bilinear in (c1, s1), (c2, s2)
    coef = np.einsum("uv,pju,qkv->jkpq", pair, rot, rot).reshape(4, 2, 2)
    m1, m2 = (np.array([[m[:, 0], m[:, 1]], [m[:, 1], m[:, 2]]]) for m in moments)
    return np.einsum("apq,bst,psr,qtr->rab", coef, coef, m1, m2)


def _x_state(f1: np.ndarray, f2: np.ndarray, st: float, ct: float) -> np.ndarray:
    """The paper's first-order dual-boost X state, one per row."""
    rho = np.zeros((len(f1), 4, 4))
    rest = 1.0 - f1 - f2
    rho[:, 0, 0] = st * st * f1 + ct * ct * f2
    rho[:, 3, 3] = st * st * f2 + ct * ct * f1
    rho[:, 0, 3] = rho[:, 3, 0] = -st * ct * (f1 + f2)
    rho[:, 1, 1] = st * st * rest
    rho[:, 2, 2] = ct * ct * rest
    rho[:, 1, 2] = rho[:, 2, 1] = st * ct * rest
    return rho


def _frobenius(rho: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(rho)
    return np.sqrt(4.0 / 3.0 * np.sum((lam - 0.25) ** 2, axis=1))
