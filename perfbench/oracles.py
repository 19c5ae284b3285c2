"""Checks on the program's outputs, run after the timed passes.

check() returns None when an op's outcome is accepted and a one-line
reason when it is not.  Every rejection counts the op as failed.  A
rejection is also a wrong answer (see is_documented_failure) unless
the program exited with code 3 and a one-line classified error, the
documented response to a domain failure.
"""

from __future__ import annotations

import json

import numpy as np

DEFAULT_TOL = 1e-12  # the CLI's solver tolerance; LLULL_TOL is cleared
SUM_TOL = 1e-10
# The package's own selfcheck allows 10 x tol on recomputed stationarity.
STATIONARITY_FACTOR = 10.0


def check_tally(payload: dict, units: np.ndarray | None, voters: int, matrix) -> str | None:
    fraction = np.array(payload["fraction"], dtype=float)
    if len(fraction) != len(payload["options"]):
        return "fraction vector does not match the options"
    if (fraction < 0.0).any():
        return "negative fraction"
    if abs(fraction.sum() - 1.0) > SUM_TOL:
        return f"fractions sum to {fraction.sum()!r}"
    residual = payload["diagnostics"]["residual"]
    if not residual <= DEFAULT_TOL:
        return f"reported residual {residual!r} above tolerance"
    support = np.nonzero(fraction > 0.0)[0]
    if len(support) > 1:
        v = np.array(payload["projected"]["scores"], dtype=float)[np.ix_(support, support)]
        t = v + v.T
        phi = fraction[support]
        stationarity = phi * (t / (phi[:, None] + phi[None, :])).sum(axis=1) - v.sum(axis=1)
        worst = float(np.abs(stationarity).max())
        if worst > STATIONARITY_FACTOR * DEFAULT_TOL:
            return f"recomputed stationarity residual {worst!r}"
    if units is not None:
        if matrix is None:
            return "aggregated matrix was not captured"
        # Scores are half-vote counts over 2V; one unit off is an error of 1.
        scaled = np.array(matrix, dtype=float) * (2 * voters)
        if np.abs(scaled - units).max() > 1e-6:
            return "aggregated matrix differs from the exact pairwise count"
    return None


def check_analyze(payload: dict) -> str | None:
    if len(payload["components"]) != 1:
        return f"{len(payload['components'])} components, expected 1"
    if payload["order"] is not None:
        return "an admissible order was reported for a Latin-square profile"
    return None


def check(op, outcome: dict) -> str | None:
    """Reason to reject one op's outcome, or None if it is accepted."""
    if outcome["code"] != 0:
        first = outcome["stderr"].strip().splitlines()[:1]
        return f"exit {outcome['code']}: {first[0] if first else ''}"
    try:
        payload = json.loads(outcome["stdout"])
        if op.kind == "tally":
            return check_tally(payload, op.expected_units, op.voters, outcome["matrix"])
        return check_analyze(payload)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def is_documented_failure(outcome: dict) -> bool:
    """Exit 3 with one classified `error:` line: a domain failure, not a wrong answer."""
    lines = outcome["stderr"].strip().splitlines()
    return outcome["code"] == 3 and len(lines) == 1 and lines[0].startswith("error: ")
