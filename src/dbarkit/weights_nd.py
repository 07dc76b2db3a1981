"""Plurisubharmonic weight transforms and hypothesis checks on C^n.

For a weight p: C^n -> R the two derived quantities of interest are the
conjugate

    p*(w) = sup { Re<z, w> - p(z) : z in C^n }

and the shifted supremum p~(z) = sup { p(z + zeta) : |zeta| <= 1 }.  A weight
qualifies for the Hilbert-Schmidt conclusion in several variables when p* is
finite, p grows superlinearly, p~/p -> 1 at infinity, and exp((tau-sigma) p)
is integrable for tau < sigma.  :func:`check_hilbert_schmidt_hypotheses` probes all
four *numerically*: a grid search can only ever report "consistent with",
never "proven", and the report says so.

Suprema are computed by a coarse grid over a ball plus local zoom rounds.
The grid has ``grid`` points per real dimension, so the cost is
grid^(2 dimension); dimensions above 3 are rejected outright and even
dimension 2 wants a much smaller ``grid`` than the 1-D default of 64.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InconclusiveSupremumError, ParameterDomainError
from .quadrature import unbounded_radial_quad

_DEFAULT_RADII = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)
_MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class PshWeight:
    """A weight p on C^n given as a pointwise evaluation rule.

    ``p`` receives one point as a complex ndarray of shape (dimension,) and
    must return a finite float.  It may *additionally* accept a batch of
    shape (N, dimension) and return shape (N,); the grid searches detect this
    and run orders of magnitude faster on such weights.  ``sample_radii`` is
    the increasing ladder of radii used by the asymptotic checks.
    """

    dimension: int
    p: Callable = field(compare=False)
    sample_radii: tuple = _DEFAULT_RADII

    def __post_init__(self):
        if not (isinstance(self.dimension, int) and 1 <= self.dimension <= 3):
            raise ParameterDomainError(
                f"dimension must be an integer in [1, 3], got {self.dimension!r}")
        radii = tuple(float(r) for r in self.sample_radii)
        if len(radii) < 2 or any(r <= 0 for r in radii) or \
                any(b <= a for a, b in zip(radii, radii[1:])):
            raise ParameterDomainError(
                "sample_radii must be a strictly increasing list of positive reals")
        object.__setattr__(self, "sample_radii", radii)

    def evaluate(self, z) -> float:
        val = float(self.p(np.asarray(z, dtype=complex).reshape(self.dimension)))
        if not math.isfinite(val):
            raise ParameterDomainError(f"weight returned non-finite value at {z!r}")
        return val

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        """p on an (N, dimension) array, via the batch fast path if p has one."""
        try:
            vals = np.asarray(self.p(pts), dtype=float)
            if vals.shape != (pts.shape[0],):
                raise ValueError
        except ParameterDomainError:
            raise
        except Exception:
            vals = np.array([self.evaluate(pt) for pt in pts])
        if not np.all(np.isfinite(vals)):
            raise ParameterDomainError("weight returned non-finite values")
        return vals


def _check_grid(grid: int, dim: int) -> None:
    if grid < 4:
        raise ParameterDomainError(f"grid must be at least 4, got {grid!r}")
    if grid ** (2 * dim) > _MAX_GRID_POINTS:
        raise ParameterDomainError(
            f"grid={grid} in dimension {dim} means {grid ** (2 * dim)} points; "
            "pass a smaller grid")


def _axis_grid(center: np.ndarray, halfwidth: float, grid: int, dim: int):
    """Cartesian product grid of complex points around ``center``."""
    axes = [np.linspace(-halfwidth, halfwidth, grid)] * (2 * dim)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)  # (N, 2 dim) real
    zs = pts[:, 0::2] + 1j * pts[:, 1::2]
    return zs + center[None, :]


def _refine(fun_batch, center, cell, dim, rounds, clamp=None):
    # np.argmax takes the first maximizer, i.e. the lexicographically
    # smallest grid index, so ties break deterministically
    best_pt = center
    best_val = float(fun_batch(center[None, :])[0])
    width = cell
    for _ in range(rounds):
        pts = _axis_grid(best_pt, width, 17, dim)
        if clamp is not None:
            pts = clamp(pts)
        vals = fun_batch(pts)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_pt = pts[i]
        width /= 8.0
    return best_pt, best_val


def conjugate_transform(weight: PshWeight, w, search_radius: float | None = None,
                        grid: int = 64, refine_rounds: int = 2) -> float:
    """Numerical p*(w) = sup over |z| <= search_radius of Re<z,w> - p(z).

    The supremand must peak strictly inside the search ball; a maximum within
    one cell of the boundary raises :class:`InconclusiveSupremumError` (the
    radius was too small to witness the supremum).
    """
    dim = weight.dimension
    wv = np.asarray(w, dtype=complex).reshape(dim)
    if search_radius is None:
        search_radius = 8.0 * (1.0 + float(np.linalg.norm(wv)))
    if not search_radius > 0.0:
        raise ParameterDomainError(f"search_radius must be positive, got {search_radius!r}")
    _check_grid(grid, dim)

    def supremand(pts) -> np.ndarray:
        return np.real(pts @ np.conj(wv)) - weight.evaluate_batch(pts)

    pts = _axis_grid(np.zeros(dim, dtype=complex), search_radius, grid, dim)
    norms = np.linalg.norm(pts, axis=1)
    inside = norms <= search_radius
    pts = pts[inside]
    norms = norms[inside]
    idx = int(np.argmax(supremand(pts)))
    cell = 2.0 * search_radius / (grid - 1)
    if norms[idx] >= search_radius - math.sqrt(2.0 * dim) * cell:
        raise InconclusiveSupremumError(
            f"supremand peaks within one cell of |z| = {search_radius}; "
            "enlarge search_radius")
    _, best = _refine(supremand, pts[idx], cell, dim, refine_rounds)
    return best


def sup_shift(weight: PshWeight, z, grid: int = 64, refine_rounds: int = 2) -> float:
    """Numerical p~(z) = sup of p over the closed unit ball around z.

    Grid points outside the ball are projected radially onto the sphere, so
    boundary maxima (the generic case for growing weights) are reachable.
    """
    dim = weight.dimension
    zv = np.asarray(z, dtype=complex).reshape(dim)
    _check_grid(grid, dim)

    def project(pts):
        offs = pts - zv[None, :]
        norms = np.linalg.norm(offs, axis=1)
        scale = np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-300), 1.0)
        return zv[None, :] + offs * scale[:, None]

    pts = project(_axis_grid(zv, 1.0, grid, dim))
    idx = int(np.argmax(weight.evaluate_batch(pts)))
    cell = 2.0 / (grid - 1)
    _, best = _refine(weight.evaluate_batch, pts[idx], cell, dim,
                      refine_rounds, clamp=project)
    return best


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class HypothesisReport:
    """Per-hypothesis verdicts; a full pass certifies the hypotheses only."""

    tau: float
    sigma: float
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> HypothesisCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:  # pragma: no cover
        lines = [f"hypothesis report (tau={self.tau:g}, sigma={self.sigma:g}):"]
        for c in self.checks:
            lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        return "\n".join(lines)


def _probe_directions(dim: int) -> list[np.ndarray]:
    dirs = [np.eye(dim, dtype=complex)[j] for j in range(dim)]
    if dim > 1:
        dirs.append(np.ones(dim, dtype=complex) / math.sqrt(dim))
    else:
        dirs.append(np.array([(1.0 + 1.0j) / math.sqrt(2.0)]))
    return dirs


def check_hilbert_schmidt_hypotheses(weight: PshWeight, tau: float, sigma: float,
                              grid: int = 64, growth_threshold: float = 10.0,
                              ratio_tol: float = 1e-2) -> HypothesisReport:
    """Numerically probe the four weight hypotheses at tau < sigma.

    (a) the conjugate p* is finite at probe points;
    (b) p(z)/|z| increases along ``sample_radii`` and ends above
        ``growth_threshold`` (consistent with superlinear growth);
    (c) p~/p approaches 1 monotonically, within ``ratio_tol`` at the largest
        radius;
    (d) the radial estimate of int exp((tau - sigma) p) is finite.

    A full pass certifies the *hypotheses* only; the Hilbert-Schmidt
    conclusion for the solution operator is quoted from the theory, not
    computed here.
    """
    if not (0.0 < tau < sigma):
        raise ParameterDomainError(
            f"requires 0 < tau < sigma, got tau={tau!r}, sigma={sigma!r}")
    dim = weight.dimension
    dirs = _probe_directions(dim)
    radii = weight.sample_radii
    checks = []

    # (a) conjugate finite at probe points
    try:
        probes = [0.5 * d for d in dirs]
        vals = [conjugate_transform(weight, pr, grid=grid) for pr in probes]
        finite = all(math.isfinite(v) for v in vals)
        detail = ("p* at probe points: "
                  + ", ".join(f"{v:.6g}" for v in vals))
        checks.append(HypothesisCheck("conjugate_finite", finite, detail))
    except InconclusiveSupremumError as exc:
        checks.append(HypothesisCheck("conjugate_finite", False, str(exc)))

    # (b) superlinear growth: p/|z| increasing, final value above threshold
    slack = 1e-9
    grow_ok = True
    final_min = math.inf
    for d in dirs:
        vals = [weight.evaluate(r * d) / r for r in radii]
        if any(b < a - slack * max(1.0, abs(a)) for a, b in zip(vals, vals[1:])):
            grow_ok = False
        final_min = min(final_min, vals[-1])
    grow_ok = grow_ok and final_min >= growth_threshold
    checks.append(HypothesisCheck(
        "superlinear_growth", grow_ok,
        f"p/|z| at largest radius >= {final_min:.6g} "
        f"(threshold {growth_threshold:g}); consistent with p/|z| -> inf"
        if grow_ok else
        f"p/|z| fails to increase to the threshold (last value {final_min:.6g})"))

    # (c) p~/p -> 1 along the radii
    ratio_ok = True
    last_dev = 0.0
    for d in dirs:
        devs = []
        for r in radii:
            z = r * d
            base = weight.evaluate(z)
            if base <= 0.0:
                ratio_ok = False
                break
            devs.append(abs(sup_shift(weight, z, grid=grid) / base - 1.0))
        else:
            if any(b > a + slack for a, b in zip(devs, devs[1:])):
                ratio_ok = False
            last_dev = max(last_dev, devs[-1])
            continue
        break
    ratio_ok = ratio_ok and last_dev <= ratio_tol
    checks.append(HypothesisCheck(
        "shift_ratio_to_one", ratio_ok,
        f"|p~/p - 1| = {last_dev:.3e} at radius {radii[-1]:g}; "
        "consistent with the limit 1" if ratio_ok else
        "p~/p does not settle to 1 over the sampled radii"))

    # (d) integrability of exp((tau - sigma) p)
    diff = tau - sigma
    try:
        estimates = []
        for d in dirs:
            def radial(rs):
                rs = np.asarray(rs, dtype=float)
                out = np.empty_like(rs)
                for i, r in enumerate(rs):
                    out[i] = math.exp(diff * weight.evaluate(r * d)) \
                        * r ** (2 * dim - 1)
                return out

            value, _ = unbounded_radial_quad(radial, rel_tol=1e-8, initial=16)
            estimates.append(2.0 * math.pi ** dim / math.factorial(dim - 1)
                             * float(np.real(value)))
        finite = all(math.isfinite(v) for v in estimates)
        checks.append(HypothesisCheck(
            "integrability", finite,
            "radial estimate of int exp((tau-sigma)p): "
            + ", ".join(f"{v:.6g}" for v in estimates)))
    except Exception as exc:  # quadrature failure means no finite estimate
        checks.append(HypothesisCheck("integrability", False, str(exc)))

    return HypothesisReport(tau=float(tau), sigma=float(sigma),
                            checks=tuple(checks))
