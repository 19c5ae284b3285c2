"""Fraction-like rates and the social-choice checks built on them.

The rating pipeline projects the tallied matrix onto CLC structure and
then solves for maximum-likelihood strengths on the projection.  The
result is a probability-style distribution over the options.  The
check_* operations are executable forms of the compatibility, majority,
monotonicity, clone-consistency, and decomposition properties that the
pipeline is expected to satisfy; they flag only decisive violations,
never discrepancies inside rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ballots import BallotSet, aggregate, contract, restrict_ballots
from .errors import (
    EmptySubsetError,
    HypothesisNotSatisfiedError,
    NotAnImprovementError,
    PowerIterationDivergedError,
    UnknownOptionError,
)
from .matrix import LlullMatrix, RateVector, mean_preference_scores, mean_ranks
from .projection import ProjectionResult, clc_project
from .zermelo import SolveDiagnostics, SolverConfig, Strengths, solve

RATE_NOISE = 1e-11
ZERO_RATE = 1e-11
RANK_NOISE = 1e-9
GAP_TOL = 1e-9


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    issues: tuple[str, ...] = ()


@dataclass(frozen=True)
class RateReport:
    fraction: RateVector
    rank_like: RateVector
    projection: ProjectionResult
    diagnostics: SolveDiagnostics
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "options": list(self.fraction.option_set.labels),
            "fraction": [float(x) for x in self.fraction.values],
            "rank_like": [float(x) for x in self.rank_like.values],
            "projected": self.projection.matrix.to_json_dict(),
            "order": list(self.projection.order.labels),
            "fixed_point": self.projection.fixed_point,
            "diagnostics": self.diagnostics.to_json_dict(),
            "warnings": list(self.warnings),
        }

    def to_csv(self) -> str:
        lines = ["option,fraction,rank_like"]
        for label in self.fraction.option_set:
            lines.append(
                f"{label},{self.fraction.value(label)!r},{self.rank_like.value(label)!r}"
            )
        return "\n".join(lines) + "\n"


def fraction_like_rates(M: LlullMatrix, cfg: SolverConfig | None = None) -> RateReport:
    """Project, then solve strengths on the projection.

    A vanishing matrix carries no information; by convention it rates
    everything uniformly, with a warning instead of an error.
    """
    cfg = cfg or SolverConfig()
    result = clc_project(M)
    projected = result.matrix
    warnings: tuple[str, ...] = ()
    if projected.is_vanishing():
        strengths = Strengths(M.option_set, np.full(M.n, 1.0 / M.n), M.labels)
        diagnostics = SolveDiagnostics(0, 0.0, 0.0)
        warnings = ("NoInformation: all scores are zero; rates are uniform",)
    else:
        strengths, diagnostics = solve(projected, cfg)
    fraction = RateVector(M.option_set, strengths.phi, "fraction")
    if M.n == 1:
        rank_like = RateVector(M.option_set, np.array([1.0]), "mean_rank")
    else:
        rank_like = mean_ranks(projected)
    return RateReport(fraction, rank_like, result, diagnostics, warnings)


def eigenvector_rates(
    M: LlullMatrix, tol: float = 1e-12, max_iter: int = 10**6
) -> RateVector:
    """Principal eigenvector of the scores with 1/2 on the diagonal.

    Power iteration under L1 normalization; the positive diagonal
    makes the iteration aperiodic.  Refuses vanishing matrices, whose
    eigenvector is meaningless.
    """
    if M.is_vanishing():
        raise ValueError("eigenvector rates need a non-vanishing matrix")
    A = M.scores + 0.5 * np.eye(M.n)
    x = np.full(M.n, 1.0 / M.n)
    for _ in range(max_iter):
        y = A @ x
        y /= y.sum()
        if float(np.abs(y - x).max()) <= tol:
            return RateVector(M.option_set, y, "eigen")
        x = y
    raise PowerIterationDivergedError(f"no convergence after {max_iter} iterations")


def check_strength_score_compatibility(
    P: ProjectionResult, phi: Strengths, tol: float = GAP_TOL
) -> CheckReport:
    """Strengths and mean scores of a projected matrix must sort alike.

    Flagged violations: a decisive strength gap against a decisive
    opposite mean-score gap, in either direction.  A strength gap is
    exempt when both strengths vanish.
    """
    rho = mean_preference_scores(P.matrix).values if P.matrix.n > 1 else np.array([1.0])
    f = phi.phi
    labels = P.matrix.labels
    df, drho = f[:, None] - f[None, :], rho[:, None] - rho[None, :]
    stronger = (df > RATE_NOISE) & (drho.T > tol)
    higher = (drho > tol) & (df.T > RATE_NOISE)
    issues: list[str] = []
    for i, j in zip(*np.nonzero(stronger | higher)):
        pair = f"({labels[i]}, {labels[j]})"
        if stronger[i, j]:
            issues.append(f"strength gap with reversed mean scores: {pair}")
        if higher[i, j]:
            issues.append(f"mean-score gap with reversed strengths: {pair}")
    return CheckReport(not issues, tuple(issues))


def _checked_members(M: LlullMatrix, X) -> list[str]:
    members = list(X)
    if not members:
        raise EmptySubsetError("option subset is empty")
    for label in members:
        if label not in M.option_set:
            raise UnknownOptionError(label)
    return members


def check_majority(M: LlullMatrix, report: RateReport, X) -> bool:
    """Majority principle: a set preferred by more than half beats the rest.

    Requires v_xy > 1/2 for every x in X, y outside (else
    HypothesisNotSatisfiedError).  True iff every inside rate
    decisively exceeds every outside rate or both vanish.
    """
    members = _checked_members(M, X)
    inside = set(members)
    outsiders = [y for y in M.labels if y not in inside]
    for x in members:
        for y in outsiders:
            if not M.entry(x, y) > 0.5:
                raise HypothesisNotSatisfiedError(
                    f"v[{x},{y}] = {M.entry(x, y)!r} is not above 1/2"
                )
    f = report.fraction
    for x in members:
        for y in outsiders:
            fx, fy = f.value(x), f.value(y)
            if fy - fx > RATE_NOISE:
                return False
            if abs(fx - fy) <= RATE_NOISE and max(fx, fy) > GAP_TOL:
                return False
    return True


def check_monotonicity(
    M: LlullMatrix, M2: LlullMatrix, a: str, cfg: SolverConfig | None = None
) -> CheckReport:
    """Improving a's scores must not drop a below anyone it beat before."""
    if M.labels != M2.labels:
        raise NotAnImprovementError("matrices must share the option set")
    i = M.option_set.index(a)
    v, w = M.scores, M2.scores
    slack = 1e-15
    if (w[i] < v[i] - slack).any():
        raise NotAnImprovementError(f"scores of {a!r} decreased")
    if (w[:, i] > v[:, i] + slack).any():
        raise NotAnImprovementError(f"scores against {a!r} increased")
    others = np.arange(M.n) != i
    if np.abs(w[np.ix_(others, others)] - v[np.ix_(others, others)]).max(initial=0.0) > slack:
        raise NotAnImprovementError("scores between other options changed")
    f1 = fraction_like_rates(M, cfg).fraction.values
    f2 = fraction_like_rates(M2, cfg).fraction.values
    issues: list[str] = []
    for j in range(M.n):
        if j == i:
            continue
        if f1[i] - f1[j] > GAP_TOL and f2[j] - f2[i] > GAP_TOL:
            issues.append(
                f"{a!r} decisively beat {M.labels[j]!r} before the improvement but not after"
            )
    return CheckReport(not issues, tuple(issues))


def _compare(f: RateVector, r: RateVector, x: str, y: str) -> int:
    """Weak-order comparison: fraction first, mean rank among zero rates."""
    fx, fy = f.value(x), f.value(y)
    if fx <= ZERO_RATE and fy <= ZERO_RATE:
        rx, ry = r.value(x), r.value(y)
        if rx < ry - RANK_NOISE:
            return 1
        if ry < rx - RANK_NOISE:
            return -1
        return 0
    if fx - fy > RATE_NOISE:
        return 1
    if fy - fx > RATE_NOISE:
        return -1
    return 0


def check_clone_consistency(
    ballots: BallotSet, C, rep: str, cfg: SolverConfig | None = None
) -> CheckReport:
    """Contracting an autonomous set must not disturb the outside ranking.

    Requires the support hypothesis: the set lies inside the rated
    support or covers its complement (else HypothesisNotSatisfiedError,
    which callers treat as a skip).
    """
    M = aggregate(ballots)
    members = set(_checked_members(M, C))
    base = fraction_like_rates(M, cfg)
    labels = ballots.option_set.labels
    support = {x for x in labels if base.fraction.value(x) > 0.0}
    complement = set(labels) - support
    if not (members <= support or complement <= members):
        raise HypothesisNotSatisfiedError(
            "the set neither lies inside the support nor covers its complement"
        )
    contracted = contract(ballots, C, rep)
    after = fraction_like_rates(aggregate(contracted), cfg)
    outsiders = [x for x in labels if x not in members]
    issues: list[str] = []
    ordered_members = [x for x in labels if x in members]
    for z in outsiders:
        above = any(_compare(base.fraction, base.rank_like, c, z) > 0 for c in ordered_members)
        below = any(_compare(base.fraction, base.rank_like, c, z) < 0 for c in ordered_members)
        if above and below:
            issues.append(f"{z!r} splits the set in the rate ordering")
    for p in outsiders:
        for q in outsiders:
            before = _compare(base.fraction, base.rank_like, p, q)
            afterward = _compare(after.fraction, after.rank_like, p, q)
            if before * afterward < 0:
                issues.append(f"order of ({p!r}, {q!r}) flipped under contraction")
    for z in outsiders:
        rels = [_compare(base.fraction, base.rank_like, c, z) for c in ordered_members]
        rep_rel = _compare(after.fraction, after.rank_like, rep, z)
        if all(r > 0 for r in rels) and rep_rel < 0:
            issues.append(f"set was above {z!r} but its contraction is below")
        if all(r < 0 for r in rels) and rep_rel > 0:
            issues.append(f"set was below {z!r} but its contraction is above")
    return CheckReport(not issues, tuple(issues))


def unanimous_sets(M: LlullMatrix) -> tuple[tuple[str, ...], ...]:
    """Proper subsets whose members score 1 against every outsider.

    Members of such a set hold strictly higher mean scores than
    outsiders, so every candidate is a prefix of the mean-score sort;
    the family is nested, smallest first.
    """
    n = M.n
    if n < 2:
        return ()
    rho = M.scores.sum(axis=1)
    order = sorted(range(n), key=lambda i: (-rho[i], i))
    found: list[tuple[str, ...]] = []
    for k in range(1, n):
        block = M.scores[np.ix_(order[:k], order[k:])]
        if (block == 1.0).all():
            found.append(tuple(M.labels[i] for i in sorted(order[:k])))
    return tuple(found)


def _is_complete_profile(ballots: BallotSet) -> bool:
    return bool((ballots.ranks < ballots.option_set.n).all())


def check_decomposition(
    ballots: BallotSet, report: RateReport | None = None, cfg: SolverConfig | None = None
) -> CheckReport:
    """Unanimously preferred sets must absorb all the rate mass.

    For every unanimously preferred X the rates vanish outside X; for
    the minimal X they coincide with a fresh tally of the ballots
    restricted to X.  On complete profiles the converse holds too:
    if the rates decompose at a prefix X, then X is unanimously
    preferred.
    """
    M = aggregate(ballots)
    if report is None:
        report = fraction_like_rates(M, cfg)
    f = report.fraction
    issues: list[str] = []
    unanimous = unanimous_sets(M)
    for X in unanimous:
        inside = set(X)
        leak = [y for y in M.labels if y not in inside and f.value(y) > 1e-12]
        if leak:
            issues.append(f"rates leak outside the unanimous set {X!r}: {leak!r}")
    if unanimous:
        minimal = unanimous[0]
        sub = fraction_like_rates(aggregate(restrict_ballots(ballots, minimal)), cfg)
        for label in minimal:
            if abs(sub.fraction.value(label) - f.value(label)) > 1e-9:
                issues.append(f"restricted re-tally disagrees at {label!r}")
    if _is_complete_profile(ballots):
        n = M.n
        rho = M.scores.sum(axis=1)
        order = sorted(range(n), key=lambda i: (-rho[i], i))
        unanimous_set = set(unanimous)
        for k in range(1, n):
            X = tuple(M.labels[i] for i in sorted(order[:k]))
            if any(f.value(y) > 1e-12 for y in M.labels if y not in set(X)):
                continue
            sub = fraction_like_rates(aggregate(restrict_ballots(ballots, X)), cfg)
            if all(abs(sub.fraction.value(x) - f.value(x)) <= 1e-9 for x in X):
                if X not in unanimous_set:
                    issues.append(
                        f"rates decompose at {X!r} yet the set is not unanimously preferred"
                    )
    return CheckReport(not issues, tuple(issues))
