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

import array
import enum
import re
from collections.abc import Iterable, Sequence
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
# aggregate counts in int64 units of half a vote, so 2 * voters must fit.
MAX_VOTERS = np.iinfo(np.int64).max // 2
_MAX_WEIGHT_DIGITS = len(str(MAX_VOTERS))  # a longer weight is past MAX_VOTERS
_OVERFLOW_MESSAGE = "weights sum past (2^63 - 1) / 2 voters, more than int64 counts exactly"
_CHUNK_UNITS = 2**19  # int64 products per aggregate step: 4 MB


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


class BallotSet:
    """A profile: the option universe plus all ballots cast, stored as columns.

    ranks[b, i] is the tier of option i on ballot b (0 = most preferred),
    or n when ballot b leaves i unranked; its dtype is the smallest
    unsigned integer type that holds n.  weights[b] is the multiplicity
    of ballot b as int64, and voters is their exact sum.  Both arrays
    are read-only.  Building a BallotSet from Ballot objects converts
    them once; `ballots` rebuilds them on access, with the labels of a
    tier in declaration order.
    """

    __slots__ = ("option_set", "ranks", "weights", "voters")

    def __init__(self, option_set: OptionSet, ballots: Iterable[Ballot]):
        ballots = tuple(ballots)
        if not ballots:
            raise EmptyProfileError("profile contains no ballots")
        rows = [_tier_row(ballot, option_set) for ballot in ballots]
        ranks = np.array(rows, dtype=np.min_scalar_type(option_set.n))
        weights = [ballot.weight for ballot in ballots]
        voters = sum(weights)
        if voters > MAX_VOTERS:
            raise WeightOverflowError(_OVERFLOW_MESSAGE)
        self._assign(option_set, ranks, np.array(weights, dtype=np.int64), voters)

    @classmethod
    def _from_columns(cls, option_set, ranks, weights, voters) -> BallotSet:
        profile = cls.__new__(cls)
        profile._assign(option_set, ranks, weights, voters)
        return profile

    def _assign(self, option_set, ranks, weights, voters) -> None:
        ranks.flags.writeable = False
        weights.flags.writeable = False
        self.option_set = option_set
        self.ranks = ranks
        self.weights = weights
        self.voters = voters

    @property
    def ballots(self) -> Sequence[Ballot]:
        """The ballots as Ballot objects, built on access; len() builds none."""
        return _BallotView(self)


def _tier_row(ballot: Ballot, option_set: OptionSet) -> list[int]:
    """The ballot's tier per option of option_set, n where it is unranked."""
    row = [option_set.n] * option_set.n
    for tier_index, tier in enumerate(ballot.tiers):
        for i in option_set.indices(tier):
            row[i] = tier_index
    return row


class _BallotView(Sequence):
    """Read-only Ballot objects of a profile, each rebuilt from its row on access."""

    __slots__ = ("_profile",)

    def __init__(self, profile: BallotSet):
        self._profile = profile

    def __len__(self) -> int:
        return len(self._profile.weights)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[b] for b in range(*index.indices(len(self))))
        profile = self._profile
        n = profile.option_set.n
        tiers: dict[int, list[str]] = {}
        for label, rank in zip(profile.option_set.labels, profile.ranks[index].tolist()):
            if rank < n:
                tiers.setdefault(rank, []).append(label)
        return Ballot(
            tuple(tuple(tiers[rank]) for rank in sorted(tiers)), int(profile.weights[index])
        )


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


def _is_weight(head: str) -> bool:
    """ASCII digits only: str.isdigit also accepts '²', which int() refuses, and '١'."""
    return head.isascii() and head.isdigit()


def _parse_ballot_line(line: str, lineno: int, option_set: OptionSet) -> Ballot:
    """One ballot line, with the column of the first error; the careful path."""
    indent = len(line) - len(line.lstrip())
    colon = line.find(":")
    if colon < 0:
        raise BallotSyntaxError("expected 'WEIGHT:' before the ranking", lineno, indent + 1)
    head = line[:colon].strip()
    if not _is_weight(head) or not head.strip("0"):
        raise BallotSyntaxError("weight must be a positive integer", lineno, indent + 1)
    if len(head.lstrip("0")) > _MAX_WEIGHT_DIGITS:
        # Past any int64 count, and int() refuses very long digit strings.
        raise WeightOverflowError(_OVERFLOW_MESSAGE, lineno)
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


def _scan_ranking(body: str, index: dict[str, int], row: list[int]) -> bool:
    """Write each label's tier into row (n = unranked); False where the careful path must decide.

    Header labels are non-empty and hold no whitespace or reserved
    character, so a stripped token found in index is a valid label, and
    a row entry already set means the label is ranked twice.
    """
    unranked = len(row)
    for tier_index, tier in enumerate(body.split(">")):
        for token in tier.split("="):
            i = index.get(token.strip())
            if i is None or row[i] != unranked:
                return False
            row[i] = tier_index
    return True


def parse_ballots(text: str) -> BallotSet:
    """Parse a ballot document; errors carry the offending line and column.

    Lines break at '\\n', '\\r\\n' and '\\r' only.  One pass scans each
    ballot line into a row of tier ranks; a line the scan does not
    accept is walked again by the column-tracking parser, which raises
    its error.  The weights are summed exactly as they are read, and a
    sum past MAX_VOTERS raises WeightOverflowError at that line.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = enumerate(text.split("\n"), start=1)
    option_set: OptionSet | None = None
    for lineno, raw in lines:
        line = raw.partition("#")[0]
        if line.strip():
            option_set = _parse_header(line, lineno)
            break
    if option_set is None:
        raise EmptyProfileError("document contains no ballots")
    n = option_set.n
    index = {label: i for i, label in enumerate(option_set.labels)}
    dtype = np.min_scalar_type(n)
    blank = [n] * n
    flat = array.array(dtype.char)
    weights: list[int] = []
    voters = 0
    for lineno, raw in lines:
        line = raw.partition("#")[0]
        # Without a colon, body is empty and the scan refuses it.
        head, _, body = line.partition(":")
        head = head.strip()
        weight = int(head) if _is_weight(head) and len(head) <= _MAX_WEIGHT_DIGITS else 0
        row = blank.copy()
        if not (weight and _scan_ranking(body, index, row)):
            if not line.strip():
                continue
            ballot = _parse_ballot_line(line, lineno, option_set)
            weight, row = ballot.weight, _tier_row(ballot, option_set)
        voters += weight
        if voters > MAX_VOTERS:
            raise WeightOverflowError(_OVERFLOW_MESSAGE, lineno)
        flat.extend(row)
        weights.append(weight)
    if not weights:
        raise EmptyProfileError("document contains no ballots")
    ranks = np.frombuffer(flat, dtype=dtype).reshape(len(weights), n)
    return BallotSet._from_columns(option_set, ranks, np.array(weights, dtype=np.int64), voters)


def aggregate(ballots: BallotSet, ties: TiePolicy = TiePolicy.HALF) -> LlullMatrix:
    """Tally a profile into preference scores.

    A ballot scores a full preference for x over y when it ranks x
    strictly above y or ranks x while leaving y unranked.  Explicit
    ties score half for each side under TiePolicy.HALF and nothing
    under TiePolicy.ABSTAIN.  Counting is exact: int64 units of 1/(2V),
    at most 2V per entry (BallotSet refuses V past MAX_VOTERS), divided
    out at the end.  Ballots are compared a chunk at a time, about 4 MB
    of int64 products per chunk, so memory stays O(n² + chunk · n²).
    """
    n = ballots.option_set.n
    ranks, weights = ballots.ranks, ballots.weights
    units = np.zeros((n, n), dtype=np.int64)
    chunk = max(1, _CHUNK_UNITS // (n * n))
    for start in range(0, len(weights), chunk):
        r = ranks[start : start + chunk]
        x, y = r[:, :, None], r[:, None, :]
        # Units per ballot: 2 when x is above y, 1 for two ranked options
        # in one tier (the diagonal is cleared below), 0 otherwise.
        score = 2 * (x < y).view(np.int8)
        if ties is TiePolicy.HALF:
            score += ((x == y) & (x < n)).view(np.int8)
        units += (score * weights[start : start + chunk, None, None]).sum(axis=0)
    np.fill_diagonal(units, 0)
    return LlullMatrix(ballots.option_set, units / (2 * ballots.voters))


def _checked_subset(option_set: OptionSet, C) -> list[int]:
    """Column indices of the members of C, in declaration order.

    The first label of C that is not an option raises UnknownOptionError.
    """
    members = list(C)
    if not members:
        raise EmptySubsetError("option subset is empty")
    return sorted(set(option_set.indices(members)))


def _reranked(option_set: OptionSet, ranks, unranked: int, weights) -> BallotSet:
    """A profile from rank columns with gaps: each row's tiers become 0..k-1, unranked n."""
    n = option_set.n
    rows = np.arange(len(ranks))[:, None]
    seen = np.zeros((len(ranks), unranked + 1), dtype=bool)
    seen[rows, ranks] = True
    dense = np.cumsum(seen, axis=1)[rows, ranks] - 1
    dense[ranks == unranked] = n
    ranks = dense.astype(np.min_scalar_type(n))
    return BallotSet._from_columns(option_set, ranks, weights, int(weights.sum()))


def is_autonomous(ballots: BallotSet, C) -> bool:
    """True iff every ballot relates each outside option uniformly to all of C.

    An outside option relates uniformly when it sits above every member,
    below every member, or the members all share one tier (or all are
    unranked).  One pass over the rank columns: O(B·n).
    """
    members = _checked_subset(ballots.option_set, C)
    tiers = ballots.ranks[:, members]
    lo, hi = tiers.min(axis=1, keepdims=True), tiers.max(axis=1, keepdims=True)
    z = np.delete(ballots.ranks, members, axis=1)
    return bool(((z < lo) | (z > hi) | (lo == hi)).all())


def contract(ballots: BallotSet, C, rep: str) -> BallotSet:
    """Collapse an autonomous set C to the single option rep, in place.

    rep takes the first member's position and, on each ballot, the best
    tier of any member.
    """
    option_set = ballots.option_set
    members = _checked_subset(option_set, C)
    if not is_autonomous(ballots, C):
        labels = sorted(option_set.labels[i] for i in members)
        raise NotAutonomousError(f"{labels} is not autonomous in this profile")
    if rep in option_set and option_set.index(rep) not in members:
        raise BadRepresentativeError(f"{rep!r} already names an option outside the set")
    if any(c in rep for c in RESERVED_CHARS) or any(c.isspace() for c in rep) or not rep:
        raise BadRepresentativeError(f"{rep!r} is not a usable option label")
    # Every dropped member comes after the first, so the first keeps its column.
    first = members[0]
    keep = np.delete(np.arange(option_set.n), members[1:])
    ranks = ballots.ranks[:, keep]
    ranks[:, first] = ballots.ranks[:, members].min(axis=1)
    labels = [option_set.labels[i] for i in keep]
    labels[first] = rep
    return _reranked(OptionSet(tuple(labels)), ranks, option_set.n, ballots.weights)


def restrict_ballots(ballots: BallotSet, X) -> BallotSet:
    """Drop every option outside X from all ballots; empty ballots are discarded."""
    option_set = ballots.option_set
    keep = _checked_subset(option_set, X)
    ranks = ballots.ranks[:, keep]
    voting = (ranks < option_set.n).any(axis=1)
    if not voting.any():
        raise EmptyProfileError("no ballot ranks any option of the subset")
    labels = tuple(option_set.labels[i] for i in keep)
    return _reranked(OptionSet(labels), ranks[voting], option_set.n, ballots.weights[voting])
