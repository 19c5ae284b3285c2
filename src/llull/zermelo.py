"""Maximum-likelihood strengths for pairwise scores (Zermelo's method).

Each option gets a positive strength phi, a match between x and y is
won by x with probability phi_x/(phi_x + phi_y), and the observed
scores are explained by maximizing the resulting log-likelihood

    log F(phi) = sum over pairs of
        v_xy log phi_x + v_yx log phi_y - t_xy log(phi_x + phi_y).

For an irreducible matrix the maximizer is unique on the simplex and
is found by the classical fixed-point sweep.  Reducible matrices are
handled through their top dominant component: strengths vanish
elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MaxIterExceededError,
    NonPositiveStrengthError,
    NoTopDominantComponentError,
    NotIrreducibleError,
)
from .matrix import LlullMatrix, restrict
from .options import OptionSet
from .structure import components

LIKELIHOOD_DECREASE_TOL = 1e-13


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 100000
    record_trace: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Strengths:
    """Normalized strength vector; support lists the options with phi > 0."""

    option_set: OptionSet
    phi: np.ndarray
    support: tuple[str, ...]

    def __post_init__(self):
        phi = np.array(self.phi, dtype=float)
        if phi.shape != (self.option_set.n,):
            raise ValueError("strength vector length does not match the option set")
        if phi.min(initial=0.0) < 0.0:
            raise ValueError("strengths must be non-negative")
        if abs(phi.sum() - 1.0) > 1e-12:
            raise ValueError(f"strengths must sum to 1, got {phi.sum()!r}")
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)

    def value(self, label: str) -> float:
        return float(self.phi[self.option_set.index(label)])


@dataclass(frozen=True)
class SolveDiagnostics:
    """likelihood_monotone reports on the recorded trace only; it stays
    True when no trace was requested."""

    iterations: int
    residual: float
    likelihood: float
    hessian_definite: bool | None = None
    likelihood_monotone: bool = True
    trace: tuple[tuple[int, float, float], ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "residual": self.residual,
            "likelihood": self.likelihood,
            "hessian_definite": self.hessian_definite,
            "likelihood_monotone": self.likelihood_monotone,
        }

    def trace_csv(self) -> str:
        lines = ["iteration,residual,likelihood"]
        lines += [f"{i},{r!r},{ll!r}" for i, r, ll in self.trace]
        return "\n".join(lines) + "\n"


def _phi_array(M: LlullMatrix, phi) -> np.ndarray:
    p = phi.phi if isinstance(phi, Strengths) else np.asarray(phi, dtype=float)
    if p.shape != (M.n,):
        raise ValueError("strength vector length does not match the matrix")
    if p.min(initial=np.inf) <= 0.0:
        raise NonPositiveStrengthError("strengths must be strictly positive here")
    return p


def log_likelihood(M: LlullMatrix, phi) -> float:
    """log F(phi); invariant under rescaling phi by a positive constant."""
    p = _phi_array(M, phi)
    v = M.scores
    t = v + v.T
    S = p[:, None] + p[None, :]
    return float(v.sum(axis=1) @ np.log(p) - 0.5 * (t * np.log(S)).sum())


def log_likelihood_gradient(M: LlullMatrix, phi) -> np.ndarray:
    """Component x: sum over y of v_xy/phi_x - t_xy/(phi_x + phi_y)."""
    p = _phi_array(M, phi)
    v = M.scores
    t = v + v.T
    S = p[:, None] + p[None, :]
    return v.sum(axis=1) / p - (t / S).sum(axis=1)


def log_likelihood_hessian(M: LlullMatrix, phi) -> np.ndarray:
    """Off-diagonal t_xy/(phi_x+phi_y)^2, matching diagonal; symmetric."""
    p = _phi_array(M, phi)
    v = M.scores
    t = v + v.T
    R = t / (p[:, None] + p[None, :]) ** 2
    H = R.copy()
    np.fill_diagonal(H, -v.sum(axis=1) / p**2 + R.sum(axis=1))
    return H


def tangent_hessian_max_eigenvalue(H: np.ndarray) -> float:
    """Largest eigenvalue of H restricted to the zero-sum tangent space."""
    n = H.shape[0]
    if n == 1:
        return float("-inf")
    _, _, vt = np.linalg.svd(np.ones((1, n)))
    B = vt[1:].T
    return float(np.linalg.eigvalsh(B.T @ H @ B).max())


def residual_vector(M: LlullMatrix, phi) -> np.ndarray:
    """Stationarity defect per option: phi_x * sum t_xy/(phi_x+phi_y) - sum v_xy."""
    p = _phi_array(M, phi)
    v = M.scores
    t = v + v.T
    S = p[:, None] + p[None, :]
    return p * (t / S).sum(axis=1) - v.sum(axis=1)


def subset_defect(M: LlullMatrix, phi, W) -> float:
    """Stationarity defect summed over a subset of options.

    Within-subset terms cancel exactly, so the sum reduces to the
    cross-pair expression sum over x in W, y outside of
    t_xy phi_x/(phi_x+phi_y) - v_xy; at a solution it vanishes for
    every W.
    """
    p = _phi_array(M, phi)
    inside = np.zeros(M.n, dtype=bool)
    inside[M.option_set.indices(W)] = True
    v = M.scores
    t = v + v.T
    S = p[:, None] + p[None, :]
    cross = inside[:, None] & ~inside[None, :]
    return float((t * p[:, None] / S - v)[cross].sum())


def solve_irreducible(
    M: LlullMatrix, cfg: SolverConfig | None = None
) -> tuple[Strengths, SolveDiagnostics]:
    """Fixed-point solve on an irreducible matrix.

    Iterates phi_x <- (sum_y v_xy) / (sum_y t_xy/(phi_x+phi_y)) from
    the uniform start, renormalizing each sweep; stops when the
    stationarity residual drops to cfg.tol.
    """
    cfg = cfg or SolverConfig()
    if M.n == 1:
        return (
            Strengths(M.option_set, np.array([1.0]), M.labels),
            SolveDiagnostics(0, 0.0, 0.0),
        )
    structure = components(M)
    if not structure.irreducible:
        raise NotIrreducibleError(
            f"matrix splits into {len(structure.components)} components"
        )
    return _fixed_point(M, cfg)


def _fixed_point(M: LlullMatrix, cfg: SolverConfig) -> tuple[Strengths, SolveDiagnostics]:
    """The sweep alone; solve calls it on a component, irreducible by construction."""
    v = M.scores
    t = v + v.T
    W = v.sum(axis=1)
    p = np.full(M.n, 1.0 / M.n)
    iterations = 0
    monotone = True
    last_ll = None
    trace: list[tuple[int, float, float]] = []
    while True:
        S = p[:, None] + p[None, :]
        denom = (t / S).sum(axis=1)
        residual = float(np.abs(p * denom - W).max())
        if cfg.record_trace:
            ll = log_likelihood(M, p)
            if last_ll is not None and ll < last_ll - LIKELIHOOD_DECREASE_TOL:
                monotone = False
            last_ll = ll
            trace.append((iterations, residual, ll))
        if residual <= cfg.tol:
            break
        if iterations >= cfg.max_iter:
            ll = last_ll if last_ll is not None else log_likelihood(M, p)
            diagnostics = SolveDiagnostics(
                iterations, residual, ll, None, monotone, tuple(trace)
            )
            raise MaxIterExceededError(
                residual, Strengths(M.option_set, p, M.labels), diagnostics
            )
        p = W / denom
        p /= p.sum()
        iterations += 1
    ll = last_ll if last_ll is not None else log_likelihood(M, p)
    hess_max = tangent_hessian_max_eigenvalue(log_likelihood_hessian(M, p))
    diagnostics = SolveDiagnostics(
        iterations, residual, ll, hess_max < 0.0, monotone, tuple(trace)
    )
    return Strengths(M.option_set, p, M.labels), diagnostics


def solve(M: LlullMatrix, cfg: SolverConfig | None = None) -> tuple[Strengths, SolveDiagnostics]:
    """Solve through the top dominant component; strengths vanish elsewhere."""
    cfg = cfg or SolverConfig()
    structure = components(M)
    if structure.top_dominant is None:
        raise NoTopDominantComponentError(
            "no component dominates all others; project the matrix first"
        )
    X = structure.components[structure.top_dominant]
    phi = np.zeros(M.n)
    if len(X) == 1:
        phi[M.option_set.index(X[0])] = 1.0
        return Strengths(M.option_set, phi, X), SolveDiagnostics(0, 0.0, 0.0)
    inner, diagnostics = _fixed_point(restrict(M, X), cfg)
    for label, value in zip(X, inner.phi):
        phi[M.option_set.index(label)] = value
    return Strengths(M.option_set, phi, X), diagnostics
