"""Shared generators and independent oracles for the test suite.

The oracles deliberately use different algorithms than the library:
widest paths by exhaustive path enumeration, components by BFS
reachability, gradients by central differences, the CLC check,
dominance order and chain generation by explicit scalar loops,
ballot ingestion by the column-tracking parser on every line and a
per-ballot tally, the profile operations (restriction, contraction,
autonomy) one Ballot at a time, the projection's margins and turnout
repair, verify_projection's pair checks, the strength/score
compatibility check and selfcheck's sigma-rho check by scalar loops,
and the solver's traced likelihoods by the sweep with its own formula.
"""

from __future__ import annotations

import itertools
import re
import string

import numpy as np

from llull import (
    CLC_CONDITIONS,
    BadRepresentativeError,
    Ballot,
    BallotSet,
    ClcVerdict,
    ClcWitness,
    EmptyProfileError,
    EmptySubsetError,
    LlullMatrix,
    NotAutonomousError,
    OptionSet,
    TiePolicy,
    UnknownOptionError,
    WeightOverflowError,
    ProjectionChecks,
    aggregate,
    check_clc,
    components,
    indirect_scores,
    mean_preference_scores,
)
from llull.ballots import RESERVED_CHARS, _parse_ballot_line, _parse_header


def letters(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


def random_matrix(rng, n, *, t_lo=0.0, t_hi=1.0, u_lo=0.0, u_hi=1.0, zero_prob=0.0):
    """Random valid matrix: each pair splits a turnout t into two scores."""
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.uniform(t_lo, t_hi)
            u = rng.uniform(u_lo, u_hi)
            a, b = t * u, t * (1.0 - u)
            if zero_prob and rng.random() < zero_prob:
                a = 0.0
            if zero_prob and rng.random() < zero_prob:
                b = 0.0
            scores[i, j], scores[j, i] = a, b
    return LlullMatrix(OptionSet(letters(n)), scores)


def tied_matrix(rng, n):
    """Random valid matrix on a coarse dyadic grid, so scores and sums tie."""
    t = rng.integers(0, 3, size=(n, n)) / 2.0
    u = rng.integers(0, 5, size=(n, n)) / 4.0
    scores = np.triu(t * u, 1) + np.triu(t * (1.0 - u), 1).T
    return LlullMatrix(OptionSet(letters(n)), scores)


def random_complete_scores(rng, n) -> np.ndarray:
    """Raw score array with every pair sum exactly 1."""
    q = rng.uniform(0.0, 1.0, size=(n, n))
    scores = np.triu(q, 1)
    scores = scores + np.triu(1.0 - q, 1).T
    return scores


def cyclic_matrix(rng, n):
    """Ring tournament: every option beats the next few around the circle."""
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            winner, loser = (i, j) if (j - i) <= n // 2 else (j, i)
            hi = rng.uniform(0.55, 0.95)
            scores[winner, loser] = hi
            scores[loser, winner] = rng.uniform(0.05, 1.0 - hi)
    return LlullMatrix(OptionSet(letters(n)), scores)


def _random_tiers(rng, items, tie_prob):
    if not items:
        return []
    tiers, current = [], [items[0]]
    for item in items[1:]:
        if rng.random() < tie_prob:
            current.append(item)
        else:
            tiers.append(tuple(current))
            current = [item]
    tiers.append(tuple(current))
    return tiers


def random_profile(rng, n, *, n_ballots=None, tie_prob=0.3, truncate_prob=0.4):
    opts = letters(n)
    ballots = []
    for _ in range(n_ballots or int(rng.integers(2, 9))):
        size = int(rng.integers(1, n + 1)) if rng.random() < truncate_prob else n
        chosen = [opts[i] for i in rng.permutation(n)[:size]]
        tiers = _random_tiers(rng, chosen, tie_prob)
        ballots.append(Ballot(tuple(tiers), int(rng.integers(1, 4))))
    return BallotSet(OptionSet(opts), tuple(ballots))


def single_choice_profile(rng, n):
    """Every voter picks exactly one option; returns the vote fractions too."""
    opts = letters(n)
    weights = [int(w) for w in rng.integers(0, 10, size=n)]
    if sum(weights) == 0:
        weights[int(rng.integers(0, n))] = 1
    ballots = tuple(Ballot(((opts[i],),), w) for i, w in enumerate(weights) if w > 0)
    fractions = np.array(weights, dtype=float) / sum(weights)
    return BallotSet(OptionSet(opts), ballots), fractions


def planted_unanimity_profile(rng):
    """Profile where every ballot ranks all of X above anything else.

    Every ballot ranks every member of X, so all X scores against
    outsiders are exactly 1.  Returns (profile, members_of_X).
    """
    n = int(rng.integers(3, 8))
    k = int(rng.integers(1, n))
    opts = letters(n)
    inside = [opts[i] for i in sorted(rng.permutation(n)[:k].tolist())]
    outside = [x for x in opts if x not in inside]
    ballots = []
    for _ in range(int(rng.integers(3, 9))):
        members = inside.copy()
        rng.shuffle(members)
        tiers = _random_tiers(rng, members, tie_prob=0.25)
        ranked_out = [z for z in outside if rng.random() < 0.6]
        rng.shuffle(ranked_out)
        tiers += _random_tiers(rng, ranked_out, tie_prob=0.25)
        ballots.append(Ballot(tuple(tiers), int(rng.integers(1, 4))))
    return BallotSet(OptionSet(opts), tuple(ballots)), tuple(inside)


def planted_autonomous_profile(rng):
    """Profile treating a block of options as a unit; returns (profile, block).

    The block occupies consecutive tiers of its own in every ballot, so
    each outsider relates uniformly to all members.
    """
    n_out = int(rng.integers(2, 5))
    block = int(rng.integers(2, 4))
    members = tuple(f"c{i}" for i in range(1, block + 1))
    outsiders = [f"z{i}" for i in range(1, n_out + 1)]
    labels = members + tuple(outsiders)
    ballots = []
    while len(ballots) < int(rng.integers(4, 10)):
        ranked_out = [z for z in outsiders if rng.random() < 0.75]
        rng.shuffle(ranked_out)
        out_tiers = _random_tiers(rng, ranked_out, tie_prob=0.25)
        tiers = out_tiers
        if rng.random() < 0.85:
            sub = list(members)
            rng.shuffle(sub)
            block_tiers = _random_tiers(rng, sub, tie_prob=0.25)
            pos = 0 if rng.random() < 0.6 else int(rng.integers(0, len(out_tiers) + 1))
            tiers = out_tiers[:pos] + block_tiers + out_tiers[pos:]
        if tiers:
            ballots.append(Ballot(tuple(tiers), int(rng.integers(1, 3))))
    return BallotSet(OptionSet(labels), tuple(ballots)), members


def majority_instance(rng):
    """Matrix where every member of a planted X scores above 1/2 cross-pair."""
    n = int(rng.integers(2, 8))
    k = int(rng.integers(1, n))
    M = random_matrix(rng, n, t_lo=0.3, t_hi=1.0)
    scores = M.scores.copy()
    members = sorted(rng.permutation(n)[:k].tolist())
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    for i in members:
        for j in range(n):
            if not inside[j]:
                hi = rng.uniform(0.52, 0.95)
                scores[i, j] = hi
                scores[j, i] = rng.uniform(0.0, 1.0 - hi)
    return LlullMatrix(M.option_set, scores), [M.labels[i] for i in members]


def improvement_pair(rng):
    """A matrix and a copy where one option's scores only got better."""
    n = int(rng.integers(2, 8))
    M = random_matrix(rng, n, t_lo=0.2, t_hi=1.0)
    i = int(rng.integers(0, n))
    w = M.scores.copy()
    changed = False
    for j in range(n):
        if j == i:
            continue
        if rng.random() < 0.6:
            room = 1.0 - w[i, j] - w[j, i]
            w[i, j] += rng.uniform(0.0, room * 0.95)
            changed = True
        if rng.random() < 0.6:
            w[j, i] -= rng.uniform(0.0, w[j, i])
            changed = True
    if not changed:
        j = (i + 1) % n
        w[j, i] *= 0.5
    return M, LlullMatrix(M.option_set, w), M.labels[i]


def mixed_corpus(rng, count, n_lo=2, n_hi=8):
    """Complete, ballot-generated, and cyclic matrices in rotation."""
    out = []
    while len(out) < count:
        n = int(rng.integers(max(n_lo, 2), n_hi + 1))
        style = len(out) % 3
        if style == 0:
            out.append(random_matrix(rng, n, t_lo=1.0, t_hi=1.0))
        elif style == 1:
            out.append(aggregate(random_profile(rng, n)))
        else:
            out.append(cyclic_matrix(rng, max(n, 3)))
    return out


def tie_free_corpus(rng, count, n_lo=3, n_hi=6, gap=0.02):
    """Matrices whose indirect scores are decisive for every pair."""
    out = []
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        M = random_matrix(rng, n, t_lo=0.6, t_hi=1.0, u_lo=0.1, u_hi=0.9)
        sigma = indirect_scores(M).sigma
        gaps = np.abs(sigma - sigma.T)[np.triu_indices(n, 1)]
        if (gaps >= gap).all():
            out.append(M)
    return out


_PATH_CACHE: dict[tuple[int, int, int], list[tuple[int, ...]]] = {}


def _simple_paths(n, x, y):
    key = (n, x, y)
    if key not in _PATH_CACHE:
        others = [k for k in range(n) if k not in (x, y)]
        paths = []
        for r in range(len(others) + 1):
            for mid in itertools.permutations(others, r):
                paths.append((x, *mid, y))
        _PATH_CACHE[key] = paths
    return _PATH_CACHE[key]


def oracle_widest_paths(scores: np.ndarray) -> np.ndarray:
    """Max over simple paths of the minimum edge, by full enumeration."""
    n = scores.shape[0]
    out = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            best = 0.0
            for path in _simple_paths(n, x, y):
                width = min(scores[a, b] for a, b in zip(path, path[1:]))
                if width > best:
                    best = width
            out[x, y] = best
    return out


def oracle_component_structure(scores: np.ndarray):
    """BFS reachability; returns (classes, dominance, top) as index frozensets."""
    n = scores.shape[0]
    adj = scores > 0.0
    reach = []
    for s in range(n):
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in range(n):
                    if adj[u, v] and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reach.append(seen)
    classes = []
    assigned: set[int] = set()
    for i in range(n):
        if i in assigned:
            continue
        cls = frozenset(j for j in range(n) if j in reach[i] and i in reach[j])
        classes.append(cls)
        assigned |= cls
    dominance = set()
    for A in classes:
        for B in classes:
            if A is not B:
                a, b = next(iter(A)), next(iter(B))
                if b in reach[a] and a not in reach[b]:
                    dominance.add((A, B))
    top = None
    for A in classes:
        if all((A, B) in dominance for B in classes if B is not A):
            top = A
            break
    return set(classes), dominance, top


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient."""
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def chain_matrix(rng, n):
    """Random matrix built directly from the chain construction.

    Margins m_k >= 0 and turnouts satisfying t_k >= t_{k+1} and
    t_k <= t_{k+1} + m_k + m_{k+1} make the result CLC by construction.
    """
    m = rng.uniform(0.0, 0.5, size=n - 1)
    t = np.empty(n - 1)
    t[-1] = rng.uniform(m[-1], 1.0)
    for k in range(n - 3, -1, -1):
        lo = max(m[k], t[k + 1])
        hi = min(1.0, t[k + 1] + m[k] + m[k + 1])
        t[k] = rng.uniform(lo, hi) if lo < hi else lo
    a, b = (t + m) / 2.0, (t - m) / 2.0
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            scores[i, j] = a[i:j].max()
            scores[j, i] = b[i:j].min()
    return LlullMatrix(OptionSet(letters(n)), scores)


def oracle_check_clc(M, order, tol=1e-9, max_witnesses=5):
    """The CLC check as explicit loops over pairs and triples."""
    labels = tuple(order)
    perm = M.option_set.indices(labels)
    P = M.scores[np.ix_(perm, perm)]
    T = P + P.T
    n = M.n
    witnesses = {c: [] for c in CLC_CONDITIONS}
    failed = {c: False for c in CLC_CONDITIONS}

    def note(condition, where, value):
        failed[condition] = True
        if len(witnesses[condition]) < max_witnesses:
            witnesses[condition].append(
                ClcWitness(condition, tuple(labels[i] for i in where), float(value))
            )

    iu, ju = np.triu_indices(n, 1)
    for i, j in zip(iu, ju):
        if P[i, j] < P[j, i] - tol:
            note("pairwise", (i, j), P[i, j] - P[j, i])
    for j in range(1, n - 1):
        up = np.abs(P[:j, j + 1 :] - np.maximum(P[:j, j, None], P[None, j, j + 1 :]))
        for a, b in zip(*np.nonzero(up > tol)):
            note("upper_chain", (a, j, j + 1 + b), up[a, b])
        lo = np.abs(P[j + 1 :, :j] - np.minimum(P[j + 1 :, j, None], P[None, j, :j]))
        for a, b in zip(*np.nonzero(lo > tol)):
            note("lower_chain", (b, j, j + 1 + a), lo[a, b])
    for k in range(n - 1):
        step = T[k] - T[k + 1]
        margin = P[k, k + 1] - P[k + 1, k]
        for z in range(n):
            if z in (k, k + 1):
                continue
            if step[z] < -tol or step[z] > margin + tol:
                note("turnout_step", (k, k + 1, z), step[z])
    for i, j in zip(iu, ju):
        for z in range(n):
            if z in (i, j):
                continue
            if P[i, z] < P[j, z] - tol or P[z, i] > P[z, j] + tol or T[i, z] < T[j, z] - tol:
                note("monotone", (i, j, z), P[i, z] - P[j, z])
    ok = not any(failed.values())
    flat = tuple(w for c in CLC_CONDITIONS for w in witnesses[c])
    return ClcVerdict(ok, labels, {c: not failed[c] for c in CLC_CONDITIONS}, flat, tol)


def oracle_dominance_order(sigma, rho):
    """Topological selection by rescanning every remaining pair each step."""
    n = len(rho)
    beats = sigma > sigma.T
    remaining = list(range(n))
    order = []
    while remaining:
        unbeaten = [i for i in remaining if not any(beats[j, i] for j in remaining)]
        pick = min(unbeaten, key=lambda i: (-rho[i], i))
        order.append(pick)
        remaining.remove(pick)
    return order


def oracle_chain_generate(a, b):
    """Chain matrix by scalar running max/min over each row."""
    n = len(a) + 1
    out = np.zeros((n, n))
    for i in range(n - 1):
        hi = a[i]
        lo = b[i]
        out[i, i + 1] = hi
        out[i + 1, i] = lo
        for j in range(i + 2, n):
            hi = max(hi, a[j - 1])
            lo = min(lo, b[j - 1])
            out[i, j] = hi
            out[j, i] = lo
    return out


def oracle_parse_ballots(text):
    """Every line through the column-tracking parser: (OptionSet, Ballots in file order)."""
    option_set = None
    ballots = []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        cut = raw.find("#")
        line = raw if cut < 0 else raw[:cut]
        if not line.strip():
            continue
        if option_set is None:
            option_set = _parse_header(line, lineno)
        else:
            ballots.append(_parse_ballot_line(line, lineno, option_set))
    if option_set is None or not ballots:
        raise EmptyProfileError("document contains no ballots")
    return option_set, ballots


def oracle_aggregate(option_set, ballots, ties=TiePolicy.HALF):
    """Scores tallied one Ballot at a time, in int64 units of half a vote."""
    voters = sum(ballot.weight for ballot in ballots)
    if 2 * voters > np.iinfo(np.int64).max:
        raise WeightOverflowError(f"{voters} voters overflow the exact int64 count")
    n = option_set.n
    units = np.zeros((n, n), dtype=np.int64)
    for ballot in ballots:
        r = np.full(n, np.inf)
        for tier_index, tier in enumerate(ballot.tiers):
            for label in tier:
                r[option_set.index(label)] = tier_index
        units += (2 * ballot.weight) * (r[:, None] < r[None, :])
        if ties is TiePolicy.HALF:
            tied = np.isfinite(r)[:, None] & (r[:, None] == r[None, :])
            np.fill_diagonal(tied, False)
            units += ballot.weight * tied
    return units / (2 * voters)


def in_declaration_order(option_set, ballot):
    """The Ballot with each tier's labels in option-set order, as BallotSet returns them."""
    tiers = tuple(tuple(sorted(tier, key=option_set.index)) for tier in ballot.tiers)
    return Ballot(tiers, ballot.weight)


def _relation(ranks, z, c):
    """How a ballot compares z against c: above, below, tied, or not at all."""
    rz, rc = ranks.get(z), ranks.get(c)
    if rz is None and rc is None:
        return "none"
    if rc is None or (rz is not None and rz < rc):
        return "above"
    if rz is None or rz > rc:
        return "below"
    return "tied"


def _checked_labels(option_set, C):
    members = list(C)
    if not members:
        raise EmptySubsetError("option subset is empty")
    for label in members:
        if label not in option_set:
            raise UnknownOptionError(label)
    return set(members)


def oracle_is_autonomous(ballots, C):
    """Compare each outside option with every member, one Ballot at a time."""
    members = _checked_labels(ballots.option_set, C)
    outside = [x for x in ballots.option_set if x not in members]
    ordered = [x for x in ballots.option_set if x in members]
    for ballot in ballots.ballots:
        ranks = ballot.ranks()
        for z in outside:
            first = _relation(ranks, z, ordered[0])
            if any(_relation(ranks, z, c) != first for c in ordered[1:]):
                return False
    return True


def oracle_contract(ballots, C, rep):
    """Rewrite each Ballot's tiers: the first member met becomes rep, the rest go."""
    members = _checked_labels(ballots.option_set, C)
    if not oracle_is_autonomous(ballots, C):
        raise NotAutonomousError(f"{sorted(members)} is not autonomous in this profile")
    if rep in ballots.option_set and rep not in members:
        raise BadRepresentativeError(f"{rep!r} already names an option outside the set")
    if any(c in rep for c in RESERVED_CHARS) or any(c.isspace() for c in rep) or not rep:
        raise BadRepresentativeError(f"{rep!r} is not a usable option label")
    labels = []
    for label in ballots.option_set:
        if label in members:
            if rep not in labels:
                labels.append(rep)
        else:
            labels.append(label)
    contracted = []
    for ballot in ballots.ballots:
        placed = False
        tiers = []
        for tier in ballot.tiers:
            kept = []
            for label in tier:
                if label in members:
                    if not placed:
                        kept.append(rep)
                        placed = True
                else:
                    kept.append(label)
            if kept:
                tiers.append(tuple(kept))
        contracted.append(Ballot(tuple(tiers), ballot.weight))
    return BallotSet(OptionSet(tuple(labels)), tuple(contracted))


def oracle_restrict_ballots(ballots, X):
    """Filter each Ballot's tiers to X, dropping empty tiers and empty ballots."""
    members = _checked_labels(ballots.option_set, X)
    labels = tuple(label for label in ballots.option_set if label in members)
    kept = []
    for ballot in ballots.ballots:
        tiers = tuple(tuple(label for label in tier if label in members) for tier in ballot.tiers)
        tiers = tuple(tier for tier in tiers if tier)
        if tiers:
            kept.append(Ballot(tiers, ballot.weight))
    if not kept:
        raise EmptyProfileError("no ballot ranks any option of the subset")
    return BallotSet(OptionSet(labels), tuple(kept))


def oracle_margins(D):
    """margins[k] = max(0, min over the block D[:k+1, k+1:]), one block at a time."""
    n = D.shape[0]
    margins = np.empty(n - 1)
    for k in range(n - 1):
        margins[k] = max(0.0, float(D[: k + 1, k + 1 :].min()))
    return margins


def oracle_repaired(turnouts, margins, cap=100):
    """Alternate C1 (right to left) and C2 (left to right) sweeps until neither changes."""
    turnouts = turnouts.copy()
    n = len(turnouts) + 1
    for _ in range(cap):
        changed = False
        for k in range(n - 3, -1, -1):
            bound = turnouts[k + 1] + margins[k] + margins[k + 1]
            if turnouts[k] > bound:
                turnouts[k] = bound
                changed = True
        for k in range(n - 2):
            if turnouts[k + 1] > turnouts[k]:
                turnouts[k + 1] = turnouts[k]
                changed = True
        if not changed:
            break
    return turnouts


def oracle_verify_projection(M, R, tol=1e-9, coupling_noise=1e-11, fixed_point_tol=1e-12):
    """verify_projection with the order and gap/margin checks as scalar loops."""
    issues = []
    out = R.matrix
    n = out.n
    verdict = check_clc(out, R.order, tol)
    if not verdict.ok:
        bad = [c for c, passed in verdict.conditions.items() if not passed]
        issues.append(f"check_clc failed: {', '.join(bad)}")
    rho = mean_preference_scores(out).values if n > 1 else np.array([1.0])
    idx = out.option_set.indices(R.order.labels)
    ordered_rho = rho[idx]
    for k in range(n - 1):
        if ordered_rho[k + 1] > ordered_rho[k] + tol:
            issues.append(f"order not sorted by mean score at {R.order.labels[k]!r}")
    P = out.scores[np.ix_(idx, idx)]
    for i in range(n):
        for j in range(i + 1, n):
            gap = ordered_rho[i] - ordered_rho[j]
            margin = P[i, j] - P[j, i]
            if gap > (n - 1) * margin + coupling_noise:
                issues.append(
                    f"mean-score gap without margin: ({R.order.labels[i]}, {R.order.labels[j]})"
                )
            elif margin > (n - 1) * gap + coupling_noise:
                issues.append(
                    f"margin without mean-score gap: ({R.order.labels[i]}, {R.order.labels[j]})"
                )
    sigma = indirect_scores(out).sigma
    drift = float(np.abs(sigma - out.scores).max(initial=0.0))
    if drift > fixed_point_tol:
        issues.append(f"indirect scores drift from the matrix by {drift!r}")
    if not out.is_vanishing():
        report = components(out)
        if report.top_dominant is None:
            issues.append("no top dominant component")
        else:
            members = set(report.components[report.top_dominant])
            inside = [rho[out.option_set.index(x)] for x in members]
            outside = [rho[out.option_set.index(x)] for x in out.labels if x not in members]
            if outside and min(inside) < max(outside) - tol:
                issues.append("top component mean scores not above the rest")
    return ProjectionChecks(not issues, tuple(issues))


def oracle_strength_score_issues(rho, f, labels, tol=1e-9, rate_noise=1e-11):
    """Issues of check_strength_score_compatibility, pair by pair."""
    issues = []
    for i in range(len(labels)):
        for j in range(len(labels)):
            if i == j:
                continue
            if f[i] - f[j] > rate_noise and rho[j] - rho[i] > tol:
                issues.append(f"strength gap with reversed mean scores: ({labels[i]}, {labels[j]})")
            if rho[i] - rho[j] > tol and f[j] - f[i] > rate_noise:
                issues.append(f"mean-score gap with reversed strengths: ({labels[i]}, {labels[j]})")
    return tuple(issues)


def oracle_sigma_rho_reversed(rho, sigma):
    """selfcheck's sigma-rho-order violation, pair by pair."""
    n = len(rho)
    return any(
        rho[i] - rho[j] > 1e-9 and sigma[j] - sigma[i] > 1e-9 for i in range(n) for j in range(n)
    )


def oracle_sweep_trace(M, tol, max_iter):
    """(iteration, residual, likelihood) per sweep, the likelihood by its own formula."""
    v = M.scores
    t = v + v.T
    W = v.sum(axis=1)
    p = np.full(M.n, 1.0 / M.n)
    trace = []
    for iteration in range(max_iter + 1):
        S = p[:, None] + p[None, :]
        denom = (t / S).sum(axis=1)
        residual = float(np.abs(p * denom - W).max())
        trace.append((iteration, residual, float(W @ np.log(p) - 0.5 * (t * np.log(S)).sum())))
        if residual <= tol:
            break
        p = W / denom
        p /= p.sum()
    return trace
