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

Every value of p comes from :meth:`PshWeight.evaluate` on an array of points.
The asymptotic checks read p once on the rays r d, r in ``SAMPLE_RADII`` and
d in a few unit directions, and judge it against the fixed thresholds
``GROWTH_THRESHOLD`` and ``RATIO_TOL``.

Suprema are computed by a coarse grid plus local zoom rounds, with ``grid``
points per real dimension of a ball for p*, grid^(2 dimension) points, and per
angle of the sphere |zeta| = 1 for p~, grid^(2 dimension - 1) points, and a
zoom round has 17 points per axis.  Dimensions above 3 are rejected outright,
dimension 3 supports ``sup_shift`` only (a zoom round of p* would take 17^6
points), and dimension 2 wants a much smaller ``grid`` than the default 64.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DbarKitError, InconclusiveSupremumError, ParameterDomainError,
                     check_index, check_point, float_or_array)
from .weights import _radial_quad, _scaled

#: Increasing radii 1, 2, 4, ..., 1024 along which the asymptotic checks sample p.
SAMPLE_RADII = 2.0 ** np.arange(11)
#: p(z)/|z| at the largest sample radius must reach this (superlinear growth).
GROWTH_THRESHOLD = 10.0
#: |p~/p - 1| at the largest sample radius must be within this.
RATIO_TOL = 1e-2
_MAX_GRID_POINTS = 2_000_000
_ZOOM = 17  # points per axis of a zoom round


@dataclass(frozen=True)
class PshWeight:
    """A weight p on C^n given as a pointwise evaluation rule.

    ``p`` receives one point as a complex ndarray of shape (dimension,) and
    must return a finite float.  It may *additionally* accept a batch of
    shape (N, dimension) and return shape (N,); :meth:`evaluate` tries the
    batch first, so such weights run orders of magnitude faster.  A batch of
    exactly ``dimension`` points goes point by point: there a scalar-only p,
    indexing rows for coordinates, would answer in the batch's shape too.
    """

    dimension: int
    p: Callable = field(compare=False)

    def __post_init__(self):
        if not (isinstance(self.dimension, int) and 1 <= self.dimension <= 3):
            raise ParameterDomainError(
                f"dimension must be an integer in [1, 3], got {self.dimension!r}")

    def evaluate(self, z):
        """p at the points ``z`` of shape (..., dimension): a float for one
        point, else an ndarray of shape ``z.shape[:-1]``."""
        z = np.asarray(z, dtype=complex)
        pts = z.reshape(-1, self.dimension)
        try:
            if len(pts) == self.dimension:
                raise ValueError
            vals = np.asarray(self.p(pts), dtype=float)
            if vals.shape != (len(pts),):
                raise ValueError
        except Exception:
            vals = np.array([self.p(pt) for pt in pts], dtype=float)
            if vals.shape != (len(pts),):
                raise ParameterDomainError(f"p must return a float for one point, "
                                           f"not shape {vals.shape[1:]}") from None
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ParameterDomainError(
                f"weight returned non-finite value at {pts[bad][0]!r}")
        return float_or_array(vals.reshape(z.shape[:-1]))


def _check_grid(grid: int, rounds: int, axes: int) -> None:
    check_index(grid, "grid", lo=4)
    side = max(grid, _ZOOM if check_index(rounds, "refine_rounds") else 0)
    if side ** axes > _MAX_GRID_POINTS:
        raise ParameterDomainError(f"grid={grid} and {_ZOOM}-point zoom rounds on {axes} "
                                   f"axes mean {side ** axes} points, over {_MAX_GRID_POINTS}")


def _axis_grid(center: np.ndarray, halfwidth: float, grid: int, frame: np.ndarray):
    """Complex product grid around ``center`` along the rows of ``frame``."""
    axes = [np.linspace(-halfwidth, halfwidth, grid)] * len(frame)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1) @ frame  # (N, 2 dim) real
    zs = pts[:, 0::2] + 1j * pts[:, 1::2]
    return zs + center[None, :]


def _sphere_grid(grid: int, dim: int) -> np.ndarray:
    """grid^(2 dim - 1) distinct points of the unit sphere of C^dim: dim phases
    in [0, 2 pi), dim - 1 Hopf angles at cell midpoints, so no modulus is 0."""
    mesh = [m.ravel() for m in np.meshgrid(
        *[(np.arange(grid) + 0.5) * (0.5 * math.pi / grid)] * (dim - 1),
        *[np.arange(grid) * (2.0 * math.pi / grid)] * dim, indexing="ij")]
    moduli = np.ones((len(mesh[0]), dim))
    for k, eta in enumerate(mesh[:dim - 1]):
        moduli[:, k] *= np.cos(eta)
        moduli[:, k + 1:] *= np.sin(eta)[:, None]
    return moduli * np.exp(1j * np.stack(mesh[dim - 1:], axis=-1))


def _refine(fun, center, cell, rounds, frame, clamp=None) -> float:
    """Zoom on grids of ``_ZOOM`` points along each row of ``frame(best point)``."""
    # np.argmax takes the first maximizer, i.e. the lexicographically
    # smallest grid index, so ties break deterministically
    best_pt = center
    best_val = float(fun(center[None, :])[0])
    width = cell
    for _ in range(rounds):
        pts = _axis_grid(best_pt, width, _ZOOM, frame(best_pt))
        if clamp is not None:
            pts = clamp(pts)
        vals = fun(pts)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_pt = pts[i]
        width /= 8.0
    return best_val


def conjugate_transform(weight: PshWeight, w, search_radius: float | None = None,
                        grid: int = 64, refine_rounds: int = 2) -> float:
    """Numerical p*(w) = sup over |z| <= search_radius of Re<z,w> - p(z).

    The supremand must peak strictly inside the search ball; a maximum within
    one cell of the boundary raises :class:`InconclusiveSupremumError` (the
    radius was too small to witness the supremum).
    """
    dim = weight.dimension
    wv = check_point(w, dim)
    if search_radius is None:
        search_radius = 8.0 * (1.0 + float(np.linalg.norm(wv)))
    if not 0.0 < search_radius < math.inf:
        raise ParameterDomainError(
            f"search_radius must be positive and finite, got {search_radius!r}")
    _check_grid(grid, refine_rounds, 2 * dim)

    def supremand(pts) -> np.ndarray:
        return np.real(pts @ np.conj(wv)) - weight.evaluate(pts)

    identity = np.eye(2 * dim)
    pts = _axis_grid(np.zeros(dim, dtype=complex), search_radius, grid, identity)
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
    return _refine(supremand, pts[idx], cell, refine_rounds, lambda pt: identity)


def sup_shift(weight: PshWeight, z, grid: int = 64, refine_rounds: int = 4) -> float:
    """Numerical p~(z) = sup of p over the closed unit ball around z.

    Only the sphere |zeta| = 1 is searched, ``grid`` points per Hopf angle and
    zoom rounds in its tangent space.  A psh p is subharmonic on complex lines,
    so its maximum lies on the sphere and the result is p~(z) up to the grid
    resolution; for any other p it is a lower bound of p~(z).
    """
    dim = weight.dimension
    zv = check_point(z, dim)
    _check_grid(grid, refine_rounds, 2 * dim - 1)

    def tangent_frame(pt):  # rows 2, 3, ... of V^T span the real complement of u
        u = pt - zv
        return np.linalg.svd(np.stack([u.real, u.imag], axis=-1).reshape(1, -1))[2][1:]

    def onto_sphere(pts):
        offs = pts - zv[None, :]
        return zv[None, :] + offs / np.linalg.norm(offs, axis=1, keepdims=True)

    pts = zv[None, :] + _sphere_grid(grid, dim)
    idx = int(np.argmax(weight.evaluate(pts)))
    return _refine(weight.evaluate, pts[idx], 2.0 * math.pi / grid, refine_rounds,
                   tangent_frame, clamp=onto_sphere)


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


def _probe_directions(dim: int) -> np.ndarray:
    """The coordinate axes and one diagonal, as the rows of a (dim+1, dim) array."""
    diagonal = (np.ones(dim, dtype=complex) / math.sqrt(dim) if dim > 1
                else np.array([(1.0 + 1.0j) / math.sqrt(2.0)]))
    return np.vstack([np.eye(dim, dtype=complex), diagonal])


def check_hilbert_schmidt_hypotheses(weight: PshWeight, tau: float, sigma: float,
                                     grid: int = 64) -> HypothesisReport:
    """Numerically probe the four weight hypotheses at tau < sigma.

    (a) the conjugate p* is finite at probe points;
    (b) p(z)/|z| increases along ``SAMPLE_RADII`` and ends above
        ``GROWTH_THRESHOLD`` (consistent with superlinear growth);
    (c) p~/p approaches 1 monotonically, within ``RATIO_TOL`` at the largest
        radius;
    (d) the radial estimate of int exp((tau - sigma) p) is finite.

    A full pass certifies the *hypotheses* only; the Hilbert-Schmidt
    conclusion for the solution operator is quoted from the theory, not
    computed here.  A typed failure of (d) is reported as a failed check;
    any other exception raised by p propagates.
    """
    if not (0.0 < tau < sigma):
        raise ParameterDomainError(
            f"requires 0 < tau < sigma, got tau={tau!r}, sigma={sigma!r}")
    dim = weight.dimension
    dirs = _probe_directions(dim)
    checks = []

    # (a) conjugate finite at probe points
    try:
        vals = [conjugate_transform(weight, pr, grid=grid) for pr in 0.5 * dirs]
        finite = all(math.isfinite(v) for v in vals)
        detail = ("p* at probe points: "
                  + ", ".join(f"{v:.6g}" for v in vals))
        checks.append(HypothesisCheck("conjugate_finite", finite, detail))
    except InconclusiveSupremumError as exc:
        checks.append(HypothesisCheck("conjugate_finite", False, str(exc)))

    # p on the rays r d: rows are radii, columns directions
    rays = SAMPLE_RADII[:, None, None] * dirs[None, :, :]
    p_rays = weight.evaluate(rays)

    # (b) superlinear growth: p/|z| increasing, final value above threshold
    slack = 1e-9
    g = p_rays / SAMPLE_RADII[:, None]
    final_min = float(g[-1].min())
    grow_ok = (not np.any(g[1:] < g[:-1] - slack * np.maximum(1.0, np.abs(g[:-1])))
               and final_min >= GROWTH_THRESHOLD)
    checks.append(HypothesisCheck(
        "superlinear_growth", grow_ok,
        f"p/|z| at largest radius >= {final_min:.6g} "
        f"(threshold {GROWTH_THRESHOLD:g}); consistent with p/|z| -> inf"
        if grow_ok else
        f"p/|z| fails to increase to the threshold (last value {final_min:.6g})"))

    # (c) p~/p -> 1 along the radii, for a weight positive on the rays
    ratio_ok = bool(np.all(p_rays > 0.0))
    last_dev = 0.0
    if ratio_ok:
        shifted = [sup_shift(weight, z, grid=grid) for z in rays.reshape(-1, dim)]
        devs = np.abs(np.reshape(shifted, p_rays.shape) / p_rays - 1.0)
        last_dev = float(devs[-1].max())
        ratio_ok = not np.any(devs[1:] > devs[:-1] + slack) and last_dev <= RATIO_TOL
    checks.append(HypothesisCheck(
        "shift_ratio_to_one", ratio_ok,
        f"|p~/p - 1| = {last_dev:.3e} at radius {SAMPLE_RADII[-1]:g}; "
        "consistent with the limit 1" if ratio_ok else
        "p~/p does not settle to 1 over the sampled radii"))

    # (d) integrability of exp((tau - sigma) p) along each ray, tail probe included
    try:
        estimates = []
        for d in dirs:
            (value,), (shift,) = _radial_quad(
                lambda r, d=d: (tau - sigma) * weight.evaluate(np.multiply.outer(r, d)),
                math.inf, 1e-8, orders=dim - 1)
            estimates.append(math.pi ** (dim - 1) / math.factorial(dim - 1)
                             * _scaled(value, shift))
        finite = all(math.isfinite(v) for v in estimates)
        checks.append(HypothesisCheck(
            "integrability", finite,
            "radial estimate of int exp((tau-sigma)p): "
            + ", ".join(f"{v:.6g}" for v in estimates)))
    except DbarKitError as exc:  # a typed failure means no finite estimate
        checks.append(HypothesisCheck("integrability", False, str(exc)))

    return HypothesisReport(tau=float(tau), sigma=float(sigma),
                            checks=tuple(checks))
