"""Qualitative structure of a Llull matrix.

Indirect scores (widest-path values), mutual-reachability components
and the dominance order between them, and the chain-like-consensus
check: a total order under which scores compose by max/min along the
chain and turnouts step down no faster than the margins allow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalError,
    NotAPermutationError,
    NotCLCError,
    TieGroupTooLargeError,
)
from .matrix import LlullMatrix, mean_preference_scores
from .options import OptionSet

STRUCT_TOL = 1e-9
TIE_GROUP_CAP = 8
ORDER_SEARCH_CAP = math.factorial(TIE_GROUP_CAP)

CLC_CONDITIONS = ("pairwise", "upper_chain", "lower_chain", "turnout_step", "monotone")


@dataclass(frozen=True)
class IndirectScores:
    """Widest-path closure of the score matrix."""

    option_set: OptionSet
    sigma: np.ndarray

    def value(self, x: str, y: str) -> float:
        return float(self.sigma[self.option_set.index(x), self.option_set.index(y)])


@dataclass(frozen=True)
class AdmissibleOrder:
    """A total order under which the matrix passes check_clc."""

    labels: tuple[str, ...]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ClcWitness:
    condition: str
    where: tuple[str, ...]
    value: float


@dataclass(frozen=True)
class ClcVerdict:
    ok: bool
    order: tuple[str, ...]
    conditions: dict[str, bool]
    witnesses: tuple[ClcWitness, ...]
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "order": list(self.order),
            "conditions": dict(self.conditions),
            "witnesses": [
                {"condition": w.condition, "where": list(w.where), "value": w.value}
                for w in self.witnesses
            ],
            "tol": self.tol,
        }


@dataclass(frozen=True)
class StructureReport:
    """Components, dominance between them, and (optionally) the CLC verdict."""

    option_set: OptionSet
    components: tuple[tuple[str, ...], ...]
    dominance: tuple[tuple[int, int], ...]
    top_dominant: int | None
    irreducible: bool
    order: AdmissibleOrder | None = None
    clc: ClcVerdict | None = None

    def to_json_dict(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "dominance": [list(e) for e in self.dominance],
            "top_dominant": self.top_dominant,
            "irreducible": self.irreducible,
            "order": list(self.order.labels) if self.order is not None else None,
            "clc": self.clc.to_json_dict() if self.clc is not None else None,
        }


def indirect_scores(M: LlullMatrix) -> IndirectScores:
    """Best over paths x -> y of the weakest link, by max-min closure.

    The in-place update is sound for this semiring: routing through an
    already-relaxed intermediate can only repeat earlier intermediates,
    which never improves a max-min value.
    """
    sigma = M.scores.copy()
    for k in range(M.n):
        np.maximum(sigma, np.minimum(sigma[:, k, None], sigma[None, k, :]), out=sigma)
    np.fill_diagonal(sigma, 0.0)
    sigma.setflags(write=False)
    return IndirectScores(M.option_set, sigma)


def topological_order(beats: np.ndarray, priority: np.ndarray) -> list[int]:
    """Repeatedly pick the unbeaten remaining item of lowest priority.

    beats[a, b] says a comes before b; equal priorities go to the lower
    index.  Remaining beaters are counted, so this takes O(n) numpy steps.
    """
    n = len(priority)
    beaters = beats.sum(axis=0)
    done = np.zeros(n, dtype=bool)
    order: list[int] = []
    for _ in range(n):
        ready = np.flatnonzero((beaters == 0) & ~done)
        if not ready.size:
            raise InternalError("dominance relation is not acyclic")
        pick = int(ready[np.argmin(priority[ready])])
        order.append(pick)
        done[pick] = True
        beaters -= beats[pick]
    return order


def components(M: LlullMatrix) -> StructureReport:
    """Mutual-reachability components and the dominance order between them.

    x and y share a component iff both indirect scores are positive;
    one component dominates another iff reachability holds one way only.
    Components are listed in a topological order of dominance
    (dominating first), ties broken by smallest member index.
    """
    n = M.n
    labels = M.labels
    reach = indirect_scores(M).sigma > 0.0
    np.fill_diagonal(reach, True)
    mutual = reach & reach.T
    comp_of = np.full(n, -1, dtype=int)
    raw: list[list[int]] = []
    for i in range(n):
        if comp_of[i] < 0:
            members = np.nonzero(mutual[i])[0]
            comp_of[members] = len(raw)
            raw.append(list(members))
    k = len(raw)
    reps = [c[0] for c in raw]
    between = reach[reps][:, reps]
    dominates = between & ~between.T
    # Components are numbered by smallest member, so index breaks ties.
    topo = topological_order(dominates, np.zeros(k))
    position = np.argsort(topo)
    comps = tuple(tuple(labels[i] for i in raw[old]) for old in topo)
    a, b = np.nonzero(dominates)
    edges = tuple(sorted(zip(position[a].tolist(), position[b].tolist())))
    top = 0 if k >= 1 and dominates[topo[0], topo[1:]].all() else None
    return StructureReport(
        option_set=M.option_set,
        components=comps,
        dominance=edges,
        top_dominant=top,
        irreducible=(k == 1),
    )


def _as_permutation(M: LlullMatrix, order) -> tuple[str, ...]:
    labels = tuple(order.labels) if isinstance(order, AdmissibleOrder) else tuple(order)
    if sorted(labels) != sorted(M.labels):
        raise NotAPermutationError(f"{labels!r} is not a permutation of the option set")
    return labels


def check_clc(M: LlullMatrix, order, tol: float = STRUCT_TOL, max_witnesses: int = 5) -> ClcVerdict:
    """Verify the CLC conditions relative to a total order.

    pairwise      v_xy >= v_yx for x before y
    upper_chain   v_xz = max(v_xy, v_yz) for x before y before z
    lower_chain   v_zx = min(v_zy, v_yx) for x before y before z
    turnout_step  0 <= t_xz - t_x'z <= m_xx' for consecutive x, x'
    monotone      row/column/turnout monotonicity along the order,
                  implied by the others; kept as a redundant guard

    Conditions are boolean masks, at most one per first index: O(n)
    Python steps and O(n^2) memory.  Witnesses are the first
    max_witnesses hits per condition, by first index, then the later
    ones (the chain conditions count the middle index as first).
    """
    labels = _as_permutation(M, order)
    perm = M.option_set.indices(labels)
    P = M.scores[perm][:, perm]
    T = P + P.T
    n = M.n
    idx = np.arange(n)
    witnesses: dict[str, list[ClcWitness]] = {c: [] for c in CLC_CONDITIONS}
    failed = {c: False for c in CLC_CONDITIONS}

    def note(condition: str, hits: np.ndarray, witness) -> None:
        """Record a mask of hits; witness(r, c) gives (indices, value) of one."""
        if not hits.any():
            return
        failed[condition] = True
        found = witnesses[condition]
        room = max_witnesses - len(found)
        if room > 0:
            rows, cols = np.nonzero(hits)
            for r, c in zip(rows[:room].tolist(), cols[:room].tolist()):
                where, value = witness(r, c)
                found.append(ClcWitness(condition, tuple(labels[i] for i in where), float(value)))

    below, above, T_below = P - tol, P + tol, T - tol
    pairwise = (P < below.T) & (idx[:, None] < idx)
    note("pairwise", pairwise, lambda i, j: ((i, j), P[i, j] - P[j, i]))
    for j in range(1, n - 1):
        up = np.abs(P[:j, j + 1 :] - np.maximum(P[:j, j, None], P[None, j, j + 1 :]))
        note("upper_chain", up > tol, lambda a, b: ((a, j, j + 1 + b), up[a, b]))
        lo = np.abs(P[j + 1 :, :j] - np.minimum(P[j + 1 :, j, None], P[None, j, :j]))
        note("lower_chain", lo > tol, lambda a, b: ((b, j, j + 1 + a), lo[a, b]))
    # Row k: consecutive pair (k, k+1) against every third option z.
    step = T[:-1] - T[1:]
    margin = np.diagonal(P, 1) - np.diagonal(P, -1)
    bad = (step < -tol) | (step > margin[:, None] + tol)
    bad[idx[:-1], idx[:-1]] = bad[idx[:-1], idx[1:]] = False
    note("turnout_step", bad, lambda k, z: ((k, k + 1, z), step[k, z]))
    # Per first index i: row a is j = i+1+a, column z; drop z == i and z == j.
    distinct = idx[:, None] != idx
    for i in range(n - 1):
        bad = (P[i] < below[i + 1 :]) | (P[:, i] > above[:, i + 1 :].T)
        bad |= T[i] < T_below[i + 1 :]
        bad &= distinct[i + 1 :]
        bad[:, i] = False
        note("monotone", bad, lambda a, z: ((i, i + 1 + a, z), P[i, z] - P[i + 1 + a, z]))
    ok = not any(failed.values())
    flat = tuple(w for c in CLC_CONDITIONS for w in witnesses[c])
    return ClcVerdict(ok, labels, {c: not failed[c] for c in CLC_CONDITIONS}, flat, tol)


def _tie_groups(ordered: list[int], rho: np.ndarray, tol: float) -> list[list[int]]:
    groups: list[list[int]] = [[ordered[0]]]
    for prev, cur in zip(ordered, ordered[1:]):
        if abs(rho[prev] - rho[cur]) <= tol:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    return groups


def find_admissible_order(M: LlullMatrix, tol: float = STRUCT_TOL) -> AdmissibleOrder | None:
    """Search for an order passing check_clc.

    Candidates are sorted by mean preference score descending; inside
    groups of tied scores (gap <= tol) all permutations are tried, in a
    deterministic label-index order.  Groups larger than 8 options, or
    search spaces beyond 8!, are refused rather than enumerated.
    """
    if M.n == 1:
        return AdmissibleOrder(M.labels)
    rho = mean_preference_scores(M).values
    ordered = sorted(range(M.n), key=lambda i: (-rho[i], i))
    groups = _tie_groups(ordered, rho, tol)
    total = 1
    for group in groups:
        if len(group) > TIE_GROUP_CAP:
            raise TieGroupTooLargeError(len(group), TIE_GROUP_CAP)
        total *= math.factorial(len(group))
        if total > ORDER_SEARCH_CAP:
            raise TieGroupTooLargeError(len(group), TIE_GROUP_CAP)
    labels = M.labels
    for arrangement in itertools.product(*[itertools.permutations(g) for g in groups]):
        candidate = tuple(labels[i] for g in arrangement for i in g)
        if check_clc(M, candidate, tol).ok:
            return AdmissibleOrder(candidate)
    return None


def zero_turnout_split(
    M: LlullMatrix, tol: float = STRUCT_TOL
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split off the tail Y that nobody scored against anyone.

    Along an admissible order, consecutive turnouts are non-increasing;
    from the first exactly-zero consecutive turnout onward the matrix
    carries no information at all (v_yx = 0 both ways).  Returns (X, Y)
    with Y possibly empty.
    """
    order = find_admissible_order(M, tol)
    if order is None:
        raise NotCLCError("zero_turnout_split needs a matrix with CLC structure")
    labels = order.labels
    for k in range(M.n - 1):
        if M.entry(labels[k], labels[k + 1]) + M.entry(labels[k + 1], labels[k]) == 0.0:
            return labels[: k + 1], labels[k + 1 :]
    return labels, ()


def analyze_structure(M: LlullMatrix, tol: float = STRUCT_TOL) -> StructureReport:
    """Full report: components, dominance, and the CLC verdict if any order passes."""
    report = components(M)
    order = find_admissible_order(M, tol)
    verdict = check_clc(M, order, tol) if order is not None else None
    return StructureReport(
        option_set=report.option_set,
        components=report.components,
        dominance=report.dominance,
        top_dominant=report.top_dominant,
        irreducible=report.irreducible,
        order=order,
        clc=verdict,
    )
