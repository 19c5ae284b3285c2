"""Seeded inputs for the benchmark workloads.

Every generator takes a numpy Generator and writes plain ballot or
matrix files, the same files a user would pass to `llull`.  Nothing
here imports llull: the program under test only ever sees the files.
Alongside each file the generator keeps what the oracles need to
check the program's answer (for ballot files, the exact integer
pairwise counts).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Input shape of every workload; FULL is what the benchmark runs."""

    ingest_options: int = 20
    ingest_ballots: int = 100_000
    ingest_tie_share: float = 0.2
    wide_options: int = 200
    wide_ballots: int = 200
    stiff_block: int = 10
    stiff_epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    ties_sizes: tuple[int, ...] = (5, 6, 7, 9)


FULL = Sizes()
# Small enough that every workload finishes in a few seconds; the
# stiff ladder keeps its failing rung so the failure path stays covered.
TINY = Sizes(
    ingest_options=6,
    ingest_ballots=300,
    wide_options=12,
    wide_ballots=12,
    stiff_block=3,
    stiff_epsilons=(1e-2, 1e-5),
    ties_sizes=(4, 9),
)


@dataclass
class Op:
    """One CLI invocation and what its output is checked against."""

    argv: list[str]
    kind: str  # "tally" or "analyze"
    expected_units: np.ndarray | None = field(default=None, repr=False)
    voters: int = 0


def _labels(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"c{i:0{width}d}" for i in range(n)]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _matrix_json(labels: list[str], scores: np.ndarray) -> str:
    return json.dumps({"options": labels, "scores": [[float(x) for x in row] for row in scores]})


def pairwise_units(tier: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Exact pairwise counts in units of half a vote (ties score half).

    tier[b, i] is the tier of option i on ballot b (0 = top) or -1
    when the ballot leaves i unranked.  A ranked option beats every
    unranked one; two unranked options are not compared.
    """
    n = tier.shape[1]
    chunk = max(1, 2**22 // (n * n))  # ballots per step, about 32 MB of int64
    units = np.zeros((n, n), dtype=np.int64)
    r = np.where(tier < 0, np.iinfo(np.int64).max, tier).astype(np.int64)
    ranked = tier >= 0
    off = ~np.eye(n, dtype=bool)
    for start in range(0, len(r), chunk):
        rc, w = r[start : start + chunk], weights[start : start + chunk].astype(np.int64)
        above = rc[:, :, None] < rc[:, None, :]
        tied = (rc[:, :, None] == rc[:, None, :]) & ranked[start : start + chunk, :, None] & off
        units += np.tensordot(2 * w, above.astype(np.int64), axes=1)
        units += np.tensordot(w, tied.astype(np.int64), axes=1)
    return units


def _random_ballots(rng, n: int, count: int, tie_share: float):
    """Distinct truncated rankings: (labels, ballot texts, tier matrix)."""
    labels = _labels(n)
    texts: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    while len(texts) < count:
        m = count - len(texts)
        perms = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        lengths = rng.integers(1, n + 1, size=m)
        strict = rng.random((m, n)) >= tie_share
        strict[:, 0] = False
        ranked = np.arange(n)[None, :] < lengths[:, None]
        tier = np.full((m, n), -1, dtype=np.int64)
        np.put_along_axis(tier, perms, np.where(ranked, np.cumsum(strict, axis=1), -1), axis=1)
        for k in range(m):
            order = perms[k, : lengths[k]]
            text = labels[order[0]] + "".join(
                (" > " if strict[k, i] else " = ") + labels[order[i]] for i in range(1, len(order))
            )
            if text not in seen:
                seen.add(text)
                texts.append(text)
                rows.append(tier[k])
    return labels, texts, np.array(rows)


def make_ingest(rng, directory: str, sizes: Sizes) -> list[Op]:
    """One ballot file of distinct lines, weights 1-4, truncation and ties."""
    n = sizes.ingest_options
    labels, texts, tier = _random_ballots(rng, n, sizes.ingest_ballots, sizes.ingest_tie_share)
    weights = rng.integers(1, 5, size=len(texts))
    body = "".join(f"{w}: {t}\n" for w, t in zip(weights, texts))
    path = os.path.join(directory, "ingest.txt")
    _write(path, f"options: {', '.join(labels)}\n{body}")
    return [
        Op(
            ["tally", "--in", path, "--format", "json"],
            "tally",
            pairwise_units(tier, weights),
            int(weights.sum()),
        )
    ]


def make_wide(rng, directory: str, sizes: Sizes) -> list[Op]:
    """One matrix file aggregated from a few random truncated strict ballots."""
    n = sizes.wide_options
    count = sizes.wide_ballots
    perms = rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    lengths = rng.integers(1, n + 1, size=count)
    tier = np.full((count, n), -1, dtype=np.int64)
    for b in range(count):
        tier[b, perms[b, : lengths[b]]] = np.arange(lengths[b])
    weights = np.ones(count, dtype=np.int64)
    scores = pairwise_units(tier, weights) / (2.0 * count)
    path = os.path.join(directory, "wide.json")
    _write(path, _matrix_json(_labels(n), scores))
    return [Op(["tally", "--in", path, "--format", "json"], "tally")]


def make_stiff(rng, directory: str, sizes: Sizes) -> list[Op]:
    """Nearly decomposable matrices: two blocks, cross scores 1-eps and eps.

    Within a block every pair is complete with a random split; the
    options are shuffled so the blocks are not contiguous in the file.
    """
    half = sizes.stiff_block
    n = 2 * half
    ops = []
    for eps in sizes.stiff_epsilons:
        scores = np.zeros((n, n))
        for lo in (0, half):
            split = rng.uniform(0.25, 0.75, size=(half, half))
            block = np.triu(split, 1) + np.triu(1.0 - split, 1).T
            scores[lo : lo + half, lo : lo + half] = block
        scores[:half, half:] = 1.0 - eps
        scores[half:, :half] = eps
        perm = rng.permutation(n)
        shuffled = scores[np.ix_(perm, perm)]
        path = os.path.join(directory, f"stiff_{eps:.0e}.json")
        _write(path, _matrix_json(_labels(n), shuffled))
        ops.append(Op(["tally", "--in", path, "--format", "json"], "tally"))
    return ops


def make_ties(rng, directory: str, sizes: Sizes) -> list[Op]:
    """Latin-square profiles: the n cyclic shifts of one random ranking."""
    ops = []
    for n in sizes.ties_sizes:
        labels = _labels(n)
        base = [labels[i] for i in rng.permutation(n)]
        lines = [f"options: {', '.join(labels)}"]
        for shift in range(n):
            lines.append("1: " + " > ".join(base[shift:] + base[:shift]))
        path = os.path.join(directory, f"ties_{n}.txt")
        _write(path, "\n".join(lines) + "\n")
        ops.append(Op(["analyze", "--in", path, "--format", "json"], "analyze"))
    return ops


MAKERS = {
    "ingest": make_ingest,
    "wide": make_wide,
    "stiff": make_stiff,
    "ties": make_ties,
}


def make(workload: str, seed: int, directory: str, sizes: Sizes = FULL) -> list[Op]:
    """Write the workload's input files into directory and return its ops."""
    index = sorted(MAKERS).index(workload)
    rng = np.random.default_rng([seed % 2**64, index])
    return MAKERS[workload](rng, directory, sizes)
