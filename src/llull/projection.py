"""Projection of an arbitrary Llull matrix onto one with CLC structure.

The construction works on the widest-path closure of the input:

1. order the options so that indirect dominance (sigma_xy > sigma_yx)
   is respected, breaking ties by mean preference score and then label;
2. give each consecutive pair the margin min over crossing pairs of
   the indirect-score differences (never negative for this order);
3. give each consecutive pair the input's turnout, lifted to at least
   every later margin and repaired so that turnouts never increase
   along the order (C2) and each chain link overlaps the next
   (C1: t_k <= t_{k+1} + m_k + m_{k+1});
4. generate the full matrix from the consecutive pairs by the chain
   rules: upper scores compose by max, lower scores by min.

Steps 2-4 reproduce a matrix that already has CLC structure, which
makes the projection idempotent.  Every output is passed through
check_clc, and a non-vanishing one certifies its top dominant
component from its own chain, before being returned; a failure
raises instead of returning a bad matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProjectionPostconditionViolatedError
from .matrix import LlullMatrix, mean_preference_scores
from .structure import (
    STRUCT_TOL,
    AdmissibleOrder,
    check_clc,
    components,
    indirect_scores,
    topological_order,
)

FIXED_POINT_TOL = 1e-12
COUPLING_NOISE = 1e-11


@dataclass(frozen=True)
class ProjectionResult:
    matrix: LlullMatrix
    order: AdmissibleOrder
    fixed_point: bool


@dataclass(frozen=True)
class ProjectionChecks:
    ok: bool
    issues: tuple[str, ...]


def _chain_generate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full matrix from consecutive pair scores, by running max/min.

    Pure selections: no arithmetic happens here, so chain identities
    hold exactly in floating point.
    """
    n = len(a) + 1
    out = np.zeros((n, n))
    for i in range(n - 1):
        out[i, i + 1 :] = np.maximum.accumulate(a[i:])
        out[i + 1 :, i] = np.minimum.accumulate(b[i:])
    return out


def _margins(D: np.ndarray) -> np.ndarray:
    """margins[k] = max(0, min D[:k+1, k+1:]), by pure selections in O(n^2).

    Suffix minima along each row, then prefix minima down each column,
    leave min D[:i+1, j:] at (i, j); a -0.0 minimum gives +0.0.
    """
    block = np.minimum.accumulate(np.minimum.accumulate(D[:, ::-1], axis=1)[:, ::-1], axis=0)
    least = np.diagonal(block, 1)
    return np.where(least > 0.0, least, 0.0)


def _repaired(turnouts: np.ndarray, margins: np.ndarray) -> np.ndarray:
    """Turnouts meeting C1 (t_k <= t_{k+1} + m_k + m_{k+1}) and C2 (non-increasing).

    One C1 pass from the right, then C2 as a running minimum, which keeps
    C1: where it keeps t_{k+1} it can only lower t_k, elsewhere it sets
    t_{k+1} = t_k.  So a second pass would change nothing.
    """
    for k in range(len(turnouts) - 2, -1, -1):
        turnouts[k] = min(turnouts[k], turnouts[k + 1] + margins[k] + margins[k + 1])
    return np.minimum.accumulate(turnouts)


def _top_run(P: np.ndarray) -> int:
    """Size of the top dominant component of a non-vanishing matrix in chain order.

    That component is the leading run of positive lower links.  The check
    proves it in O(n^2): run rows positive off the diagonal reach everyone,
    and zeros against the run in every later row keep everyone else out.
    """
    zero = np.flatnonzero(np.diagonal(P, -1) <= 0.0)
    r = int(zero[0]) + 1 if zero.size else len(P)
    top = P[:r] > 0.0
    top[np.arange(r), np.arange(r)] = True
    if not top.all() or (P[r:, :r] > 0.0).any():
        raise ProjectionPostconditionViolatedError("top run is not a positive dominant component")
    return r


def clc_project(M: LlullMatrix, tol: float = STRUCT_TOL) -> ProjectionResult:
    n = M.n
    if n == 1:
        return ProjectionResult(M, AdmissibleOrder(M.labels), True)
    sigma = indirect_scores(M).sigma
    rho = M.scores.sum(axis=1) / (n - 1)
    # Widest-path dominance is transitive; ties go by mean score, then index.
    perm = topological_order(sigma > sigma.T, -rho)
    D = sigma[np.ix_(perm, perm)]
    D = D - D.T
    margins = _margins(D)
    ordered = M.scores[np.ix_(perm, perm)]
    raw = np.diagonal(ordered, 1) + np.diagonal(ordered, -1)
    suffix = np.maximum.accumulate(margins[::-1])[::-1]
    turnouts = _repaired(np.minimum(1.0, np.maximum(raw, suffix)), margins)
    a = (turnouts + margins) / 2.0
    b = (turnouts - margins) / 2.0
    chained = _chain_generate(a, b)
    scores = np.zeros((n, n))
    scores[np.ix_(perm, perm)] = chained
    matrix = LlullMatrix(M.option_set, scores)
    order = AdmissibleOrder(tuple(M.labels[i] for i in perm))
    verdict = check_clc(matrix, order, tol)
    if not verdict.ok:
        witness = verdict.witnesses[0] if verdict.witnesses else None
        raise ProjectionPostconditionViolatedError(
            f"constructed matrix failed check_clc: {witness}"
        )
    if not matrix.is_vanishing():
        _top_run(matrix.scores[np.ix_(perm, perm)])
    fixed_point = bool(np.abs(matrix.scores - M.scores).max(initial=0.0) <= FIXED_POINT_TOL)
    return ProjectionResult(matrix, order, fixed_point)


def verify_projection(
    M: LlullMatrix, R: ProjectionResult, tol: float = STRUCT_TOL
) -> ProjectionChecks:
    """Consistency checks on a projection result.

    Flags only decisive contradictions: mean-score gaps and margins of
    a CLC matrix bound each other within a factor N-1, so a violation
    of either bound beyond rounding noise is a genuine defect, while
    sub-tolerance discrepancies are not.
    """
    issues: list[str] = []
    out = R.matrix
    n = out.n
    verdict = check_clc(out, R.order, tol)
    if not verdict.ok:
        bad = [c for c, passed in verdict.conditions.items() if not passed]
        issues.append(f"check_clc failed: {', '.join(bad)}")
    rho = mean_preference_scores(out).values if n > 1 else np.array([1.0])
    idx = out.option_set.indices(R.order.labels)
    ordered_rho = rho[idx]
    for k in np.flatnonzero(ordered_rho[1:] > ordered_rho[:-1] + tol):
        issues.append(f"order not sorted by mean score at {R.order.labels[k]!r}")
    P = out.scores[np.ix_(idx, idx)]
    gap = ordered_rho[:, None] - ordered_rho[None, :]
    margin = P - P.T
    no_margin = gap > (n - 1) * margin + COUPLING_NOISE
    no_gap = margin > (n - 1) * gap + COUPLING_NOISE
    for i, j in zip(*np.nonzero(np.triu(no_margin | no_gap, 1))):
        pair = f"({R.order.labels[i]}, {R.order.labels[j]})"
        if no_margin[i, j]:
            issues.append(f"mean-score gap without margin: {pair}")
        else:
            issues.append(f"margin without mean-score gap: {pair}")
    sigma = indirect_scores(out).sigma
    drift = float(np.abs(sigma - out.scores).max(initial=0.0))
    if drift > FIXED_POINT_TOL:
        issues.append(f"indirect scores drift from the matrix by {drift!r}")
    if not out.is_vanishing():
        report = components(out)
        if report.top_dominant is None:
            issues.append("no top dominant component")
        else:
            members = out.option_set.indices(report.components[report.top_dominant])
            outside = np.delete(rho, members)
            if outside.size and rho[members].min() < outside.max() - tol:
                issues.append("top component mean scores not above the rest")
    return ProjectionChecks(not issues, tuple(issues))
