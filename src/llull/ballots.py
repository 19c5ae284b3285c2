"""Ballot files, individual votes, and their aggregation into a Llull matrix.

Ballot file grammar (UTF-8, line oriented):

    options: a, b, c      # declares the option universe, once
    2: a>b>c              # weight 2, strict ranking
    1: b=c>a              # b and c tied, both above a
    1: b                  # truncated: a and c left unranked

Header labels may be separated by commas or by plain whitespace
(`options: a b c`); commas win when both appear.

`#` starts a comment, blank lines are ignored.  A ranked option counts
as preferred to every unranked one; two unranked options are simply
not compared by that ballot.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRepresentativeError,
    BallotSyntaxError,
    EmptyProfileError,
    EmptySubsetError,
    NotAutonomousError,
    UnknownOptionError,
    WeightOverflowError,
)
from .matrix import LlullMatrix
from .options import OptionSet

RESERVED_CHARS = ">=:,#"


class TiePolicy(enum.Enum):
    """How an explicit tie between two ranked options is scored."""

    HALF = "half"
    ABSTAIN = "abstain"


@dataclass(frozen=True)
class Ballot:
    """One vote: tiers of tied options, most preferred first, with a multiplicity."""

    tiers: tuple[tuple[str, ...], ...]
    weight: int = 1

    def __post_init__(self):
        if not self.tiers:
            raise ValueError("a ballot needs at least one tier")
        if any(not tier for tier in self.tiers):
            raise ValueError("ballot tiers must be non-empty")
        ranked = [x for tier in self.tiers for x in tier]
        if len(set(ranked)) != len(ranked):
            raise ValueError("an option may appear in at most one tier")
        if self.weight < 1:
            raise ValueError("ballot weight must be a positive integer")

    def ranks(self) -> dict[str, int]:
        """Tier index per ranked option (0 = most preferred)."""
        return {x: k for k, tier in enumerate(self.tiers) for x in tier}


@dataclass(frozen=True)
class BallotSet:
    """A profile: the option universe plus all ballots cast."""

    option_set: OptionSet
    ballots: tuple[Ballot, ...]

    def __post_init__(self):
        if not self.ballots:
            raise EmptyProfileError("profile contains no ballots")
        for ballot in self.ballots:
            for tier in ballot.tiers:
                for label in tier:
                    if label not in self.option_set:
                        raise UnknownOptionError(label)

    @property
    def voters(self) -> int:
        return sum(ballot.weight for ballot in self.ballots)


def _segments(text: str, base: int, sep: str):
    """Segments of text split on sep, with start offsets shifted by base."""
    i = 0
    while True:
        j = text.find(sep, i)
        if j < 0:
            yield text[i:], base + i
            return
        yield text[i:j], base + i
        i = j + 1


def _check_label(token: str, lineno: int, col: int) -> None:
    bad = [c for c in token if c in RESERVED_CHARS]
    if bad:
        raise BallotSyntaxError(f"label contains reserved character {bad[0]!r}", lineno, col)


def _parse_header(line: str, lineno: int) -> OptionSet:
    indent = len(line) - len(line.lstrip())
    if not line.lstrip().startswith("options:"):
        raise BallotSyntaxError("expected an 'options:' header", lineno, indent + 1)
    body_start = indent + len("options:")
    if not line[body_start:].strip():
        raise BallotSyntaxError("options header lists no options", lineno, len(line) + 1)
    body = line[body_start:]
    if "," in body:
        pieces = []
        for seg, seg_start in _segments(body, body_start, ","):
            token = seg.strip()
            col = seg_start + (len(seg) - len(seg.lstrip())) + 1
            if not token:
                raise BallotSyntaxError("empty option label", lineno, seg_start + 1)
            if any(c.isspace() for c in token):
                raise BallotSyntaxError("label contains whitespace", lineno, col)
            pieces.append((token, col))
    else:
        pieces = [(m.group(), body_start + m.start() + 1) for m in re.finditer(r"\S+", body)]
    labels: list[str] = []
    seen: set[str] = set()
    for token, col in pieces:
        _check_label(token, lineno, col)
        if token in seen:
            raise BallotSyntaxError(f"duplicate option {token!r}", lineno, col)
        seen.add(token)
        labels.append(token)
    return OptionSet(tuple(labels))


def _parse_ballot_line(line: str, lineno: int, option_set: OptionSet) -> Ballot:
    indent = len(line) - len(line.lstrip())
    colon = line.find(":")
    if colon < 0:
        raise BallotSyntaxError("expected 'WEIGHT:' before the ranking", lineno, indent + 1)
    head = line[:colon].strip()
    if not head.isdigit() or int(head) < 1:
        raise BallotSyntaxError("weight must be a positive integer", lineno, indent + 1)
    tiers: list[tuple[str, ...]] = []
    seen: set[str] = set()
    for tier_text, tier_start in _segments(line[colon + 1 :], colon + 1, ">"):
        tier: list[str] = []
        for seg, seg_start in _segments(tier_text, tier_start, "="):
            token = seg.strip()
            col = seg_start + (len(seg) - len(seg.lstrip())) + 1
            if not token:
                raise BallotSyntaxError("empty option label", lineno, seg_start + 1)
            if any(c.isspace() for c in token):
                raise BallotSyntaxError("label contains whitespace", lineno, col)
            _check_label(token, lineno, col)
            if token not in option_set:
                raise UnknownOptionError(token, lineno)
            if token in seen:
                raise BallotSyntaxError(f"option {token!r} ranked twice", lineno, col)
            seen.add(token)
            tier.append(token)
        if not tier:
            raise BallotSyntaxError("empty tier", lineno, tier_start + 1)
        tiers.append(tuple(tier))
    return Ballot(tuple(tiers), int(head))


def parse_ballots(text: str) -> BallotSet:
    """Parse a ballot document; errors carry the offending line and column."""
    option_set: OptionSet | None = None
    ballots: list[Ballot] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return BallotSet(option_set, tuple(ballots))


def aggregate(ballots: BallotSet, ties: TiePolicy = TiePolicy.HALF) -> LlullMatrix:
    """Tally a profile into preference scores.

    A ballot scores a full preference for x over y when it ranks x
    strictly above y or ranks x while leaving y unranked.  Explicit
    ties score half for each side under TiePolicy.HALF and nothing
    under TiePolicy.ABSTAIN.  Counting is exact: int64 units of 1/(2V),
    at most 2V per entry (larger V is refused), divided out at the end.
    """
    voters = ballots.voters
    if 2 * voters > np.iinfo(np.int64).max:
        raise WeightOverflowError(f"{voters} voters overflow the exact int64 count")
    n = ballots.option_set.n
    units = np.zeros((n, n), dtype=np.int64)
    for ballot in ballots.ballots:
        r = np.full(n, np.inf)
        for tier_index, tier in enumerate(ballot.tiers):
            for label in tier:
                r[ballots.option_set.index(label)] = tier_index
        units += (2 * ballot.weight) * (r[:, None] < r[None, :])
        if ties is TiePolicy.HALF:
            tied = np.isfinite(r)[:, None] & (r[:, None] == r[None, :])
            np.fill_diagonal(tied, False)
            units += ballot.weight * tied
    return LlullMatrix(ballots.option_set, units / (2 * voters))


def _relation(ranks: dict[str, int], z: str, c: str) -> str:
    """How a ballot compares z against c: above, below, tied, or not at all."""
    rz, rc = ranks.get(z), ranks.get(c)
    if rz is None and rc is None:
        return "none"
    if rc is None or (rz is not None and rz < rc):
        return "above"
    if rz is None or rz > rc:
        return "below"
    return "tied"


def _checked_subset(option_set: OptionSet, C) -> set[str]:
    members = list(C)
    if not members:
        raise EmptySubsetError("option subset is empty")
    for label in members:
        if label not in option_set:
            raise UnknownOptionError(label)
    return set(members)


def is_autonomous(ballots: BallotSet, C) -> bool:
    """True iff every ballot relates each outside option uniformly to all of C."""
    members = _checked_subset(ballots.option_set, C)
    outside = [x for x in ballots.option_set if x not in members]
    ordered = [x for x in ballots.option_set if x in members]
    for ballot in ballots.ballots:
        ranks = ballot.ranks()
        for z in outside:
            first = _relation(ranks, z, ordered[0])
            if any(_relation(ranks, z, c) != first for c in ordered[1:]):
                return False
    return True


def contract(ballots: BallotSet, C, rep: str) -> BallotSet:
    """Collapse an autonomous set C to the single option rep, in place."""
    members = _checked_subset(ballots.option_set, C)
    if not is_autonomous(ballots, C):
        raise NotAutonomousError(f"{sorted(members)} is not autonomous in this profile")
    if rep in ballots.option_set and rep not in members:
        raise BadRepresentativeError(f"{rep!r} already names an option outside the set")
    if any(c in rep for c in RESERVED_CHARS) or any(c.isspace() for c in rep) or not rep:
        raise BadRepresentativeError(f"{rep!r} is not a usable option label")
    labels: list[str] = []
    for label in ballots.option_set:
        if label in members:
            if rep not in labels:
                labels.append(rep)
        else:
            labels.append(label)
    contracted: list[Ballot] = []
    for ballot in ballots.ballots:
        placed = False
        tiers: list[tuple[str, ...]] = []
        for tier in ballot.tiers:
            kept: list[str] = []
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


def restrict_ballots(ballots: BallotSet, X) -> BallotSet:
    """Drop every option outside X from all ballots; empty ballots are discarded."""
    members = _checked_subset(ballots.option_set, X)
    labels = tuple(label for label in ballots.option_set if label in members)
    kept: list[Ballot] = []
    for ballot in ballots.ballots:
        tiers = tuple(
            tuple(label for label in tier if label in members)
            for tier in ballot.tiers
        )
        tiers = tuple(tier for tier in tiers if tier)
        if tiers:
            kept.append(Ballot(tiers, ballot.weight))
    if not kept:
        raise EmptyProfileError("no ballot ranks any option of the subset")
    return BallotSet(OptionSet(labels), tuple(kept))
