import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llull.projection
import llull.structure
from llull import (
    AdmissibleOrder,
    LlullMatrix,
    OptionSet,
    ProjectionPostconditionViolatedError,
    ProjectionResult,
    check_clc,
    clc_project,
    components,
    indirect_scores,
    verify_projection,
)
from conftest import (
    chain_matrix,
    letters,
    mixed_corpus,
    oracle_chain_generate,
    oracle_dominance_order,
    oracle_margins,
    oracle_repaired,
    oracle_verify_projection,
    random_matrix,
    random_profile,
    tied_matrix,
)
from llull import aggregate
from llull.projection import _chain_generate, _margins, _repaired, _top_run
from llull.structure import topological_order


def single_choice_matrix(fractions):
    n = len(fractions)
    scores = np.tile(np.asarray(fractions, dtype=float)[:, None], (1, n))
    np.fill_diagonal(scores, 0.0)
    return LlullMatrix(OptionSet(letters(n)), scores)


class TestFixedPoints:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_chain_matrices_project_to_themselves(self, seed):
        rng = np.random.default_rng(seed)
        M = chain_matrix(rng, int(rng.integers(2, 9)))
        R = clc_project(M)
        assert R.fixed_point
        assert np.abs(R.matrix.scores - M.scores).max() <= 1e-12

    def test_single_choice_is_fixed(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        R = clc_project(M)
        assert R.fixed_point
        assert np.abs(R.matrix.scores - M.scores).max() <= 1e-12
        assert tuple(R.order) == ("a", "b", "c")

    def test_all_zero_is_fixed(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.zeros((3, 3)))
        R = clc_project(M)
        assert R.fixed_point
        assert (R.matrix.scores == 0.0).all()

    def test_single_option_passthrough(self):
        M = LlullMatrix(OptionSet(("a",)), [[0.0]])
        R = clc_project(M)
        assert R.fixed_point
        assert R.matrix is M


class TestConstruction:
    def test_cycle_collapses_to_even_split(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
        )
        R = clc_project(M)
        assert not R.fixed_point
        off = ~np.eye(3, dtype=bool)
        assert (R.matrix.scores[off] == 0.5).all()
        assert tuple(R.order) == ("a", "b", "c")

    def test_documented_three_option_projection(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 2 / 3, 7 / 12], [1 / 3, 0, 5 / 6], [5 / 12, 1 / 6, 0]],
        )
        R = clc_project(M)
        assert tuple(R.order) == ("a", "b", "c")
        expected = np.array(
            [[0, 0.625, 0.625], [0.375, 0, 0.625], [0.375, 0.375, 0]]
        )
        assert np.abs(R.matrix.scores - expected).max() <= 1e-12
        assert not R.fixed_point

    def test_turnouts_never_increase_along_order(self):
        # Raw consecutive turnouts increase (0.6 then 0.8); the repair
        # must pull the later one down without breaking anything else.
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.5, 0.5], [0.1, 0, 0.45], [0.05, 0.35, 0]],
        )
        R = clc_project(M)
        assert tuple(R.order) == ("a", "b", "c")
        out = R.matrix
        t_ab = out.entry("a", "b") + out.entry("b", "a")
        t_bc = out.entry("b", "c") + out.entry("c", "b")
        assert t_ab == pytest.approx(0.6, abs=1e-12)
        assert t_bc == pytest.approx(0.6, abs=1e-12)
        assert not R.fixed_point

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_output_contract_on_mixed_inputs(self, seed):
        rng = np.random.default_rng(seed)
        (M,) = mixed_corpus(rng, 1, n_lo=2, n_hi=7)
        R = clc_project(M)
        assert check_clc(R.matrix, R.order).ok
        again = clc_project(R.matrix)
        assert again.fixed_point
        assert np.abs(again.matrix.scores - R.matrix.scores).max() <= 1e-12


def styled_matrix(rng, style, n):
    if style == "random":
        return random_matrix(rng, n)
    if style == "tied":
        return tied_matrix(rng, n)
    if style == "ballots":
        return aggregate(random_profile(rng, n))
    return random_matrix(rng, n, zero_prob=0.6)


STYLES = ("random", "tied", "ballots", "sparse")


class TestTopRun:
    """The projection reads its top dominant component off its own chain."""

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 13), style=st.sampled_from(STYLES))
    @settings(max_examples=100, deadline=None)
    def test_chain_runs_are_the_components(self, seed, n, style):
        R = clc_project(styled_matrix(np.random.default_rng(seed), style, n))
        if R.matrix.is_vanishing():
            return
        idx = R.matrix.option_set.indices(R.order.labels)
        P = R.matrix.scores[np.ix_(idx, idx)]
        r = _top_run(P)
        report = components(R.matrix)
        assert set(R.order.labels[:r]) == set(report.components[report.top_dominant])
        cuts = [0, *(np.flatnonzero(np.diagonal(P, -1) == 0.0) + 1).tolist(), n]
        runs = {frozenset(R.order.labels[lo:hi]) for lo, hi in zip(cuts, cuts[1:])}
        assert runs == {frozenset(c) for c in report.components}

    @pytest.mark.parametrize(
        "lower, entry, value",
        [
            # All three options form the top run; row c loses its score against a.
            ([1e-12, 0.3], (2, 0), 0.0),
            # Only a is on top; c gains a score against it.
            ([0.0, 0.3], (2, 0), 1e-12),
        ],
    )
    def test_corrupted_chain_fails_the_certificate(self, monkeypatch, lower, entry, value):
        a, b = np.array([0.9, 0.5]), np.array(lower)
        M = LlullMatrix(OptionSet(letters(3)), _chain_generate(a, b))

        def corrupted(a, b):
            out = _chain_generate(a, b)
            out[entry] = value
            return out

        monkeypatch.setattr(llull.projection, "_chain_generate", corrupted)
        # Below check_clc's tolerance: only the certificate sees the change.
        assert check_clc(LlullMatrix(M.option_set, corrupted(a, b)), letters(3)).ok
        with pytest.raises(ProjectionPostconditionViolatedError, match="top run"):
            clc_project(M)

    def test_projection_computes_the_closure_once(self, monkeypatch):
        calls = []
        closure = llull.projection.indirect_scores

        def counted(M):
            calls.append(M.n)
            return closure(M)

        monkeypatch.setattr(llull.projection, "indirect_scores", counted)
        monkeypatch.setattr(llull.structure, "indirect_scores", counted)
        monkeypatch.setattr(llull.projection, "components", None)
        R = clc_project(aggregate(random_profile(np.random.default_rng(3), 6)))
        assert not R.matrix.is_vanishing()
        assert calls == [6]


class TestInternalsOracle:
    """Vectorised projection steps against their scalar-loop oracles."""

    @given(seed=st.integers(0, 10**6), n=st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_dominance_order_matches_rescan(self, seed, n):
        rng = np.random.default_rng(seed)
        M = tied_matrix(rng, n)
        sigma = indirect_scores(M).sigma
        rho = M.scores.sum(axis=1) / (n - 1)
        got = topological_order(sigma > sigma.T, -rho)
        assert got == oracle_dominance_order(sigma, rho)

    def test_dominance_order_breaks_full_ties_by_index(self):
        M = LlullMatrix(OptionSet(letters(5)), np.full((5, 5), 0.5) - 0.5 * np.eye(5))
        sigma = indirect_scores(M).sigma
        rho = M.scores.sum(axis=1) / 4
        assert topological_order(sigma > sigma.T, -rho) == [0, 1, 2, 3, 4]
        assert oracle_dominance_order(sigma, rho) == [0, 1, 2, 3, 4]

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 12), coarse=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_chain_generate_matches_scalar_loop(self, seed, n, coarse):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, size=n - 1)
        b = rng.uniform(0.0, 1.0, size=n - 1)
        if coarse:
            a, b = np.round(a * 2) / 2, np.round(b * 2) / 2
        assert np.array_equal(_chain_generate(a, b), oracle_chain_generate(a, b))


class TestVerifyProjection:
    def test_accepts_genuine_results(self):
        rng = np.random.default_rng(5)
        for M in mixed_corpus(rng, 10, n_lo=2, n_hi=7):
            R = clc_project(M)
            checks = verify_projection(M, R)
            assert checks.ok, checks.issues

    def test_rejects_wrong_order(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        R = clc_project(M)
        fake = ProjectionResult(R.matrix, AdmissibleOrder(("c", "b", "a")), R.fixed_point)
        checks = verify_projection(M, fake)
        assert not checks.ok
        assert any("check_clc" in issue for issue in checks.issues)

    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 9),
        style=st.sampled_from(STYLES),
        fake=st.sampled_from(("genuine", "order", "matrix")),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_pair_loops(self, seed, n, style, fake):
        rng = np.random.default_rng(seed)
        M = styled_matrix(rng, style, n)
        R = clc_project(M)
        shuffled = AdmissibleOrder(tuple(M.labels[i] for i in rng.permutation(n)))
        if fake == "order":
            R = ProjectionResult(R.matrix, shuffled, R.fixed_point)
        elif fake == "matrix":
            R = ProjectionResult(M, shuffled, True)
        assert verify_projection(M, R) == oracle_verify_projection(M, R)

    def test_matches_the_pair_loops_on_faked_results(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        R = clc_project(M)
        reversed_order = ProjectionResult(R.matrix, AdmissibleOrder(("c", "b", "a")), R.fixed_point)
        cycle = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
        )
        unprojected = ProjectionResult(cycle, AdmissibleOrder(("a", "b", "c")), True)
        for source, fake in ((M, reversed_order), (cycle, unprojected)):
            checks = verify_projection(source, fake)
            assert not checks.ok
            assert checks == oracle_verify_projection(source, fake)
        issues = verify_projection(M, reversed_order).issues
        assert any("gap without margin" in issue for issue in issues)

    def test_rejects_non_clc_matrix(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
        )
        fake = ProjectionResult(M, AdmissibleOrder(("a", "b", "c")), True)
        checks = verify_projection(M, fake)
        assert not checks.ok


class TestMarginsAndRepairAgainstOracles:
    """Running-minimum margins and the two-pass repair against the block and sweep loops."""

    @given(seed=st.integers(0, 10**6), style=st.sampled_from(("random", "tied", "ballots")))
    @settings(max_examples=150, deadline=None)
    def test_match_the_loops_bit_for_bit(self, seed, style):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 26))
        if style == "random":
            M = random_matrix(rng, n, zero_prob=0.2)
        elif style == "tied":
            M = tied_matrix(rng, n)
        else:
            M = aggregate(random_profile(rng, n))
        sigma = indirect_scores(M).sigma
        rho = M.scores.sum(axis=1) / (n - 1)
        for perm in (topological_order(sigma > sigma.T, -rho), rng.permutation(n)):
            D = sigma[np.ix_(perm, perm)]
            D = D - D.T
            margins = oracle_margins(D)
            assert _margins(D).tobytes() == margins.tobytes()
            ordered = M.scores[np.ix_(perm, perm)]
            raw = np.diagonal(ordered, 1) + np.diagonal(ordered, -1)
            suffix = np.maximum.accumulate(margins[::-1])[::-1]
            turnouts = np.minimum(1.0, np.maximum(raw, suffix))
            repaired = _repaired(turnouts.copy(), margins)
            assert repaired.tobytes() == oracle_repaired(turnouts, margins).tobytes()

    def test_negative_zero_margin_reads_positive_zero(self):
        D = np.array([[0.0, -0.0, 0.25], [0.0, 0.0, -0.0], [-0.25, 0.0, 0.0]])
        assert _margins(D).tobytes() == oracle_margins(D).tobytes() == np.zeros(2).tobytes()

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_repair_matches_the_sweeps_on_arbitrary_turnouts(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 25))
        turnouts = rng.integers(0, 9, size=k) / 8.0
        margins = rng.integers(0, 3, size=k) / 16.0
        repaired = _repaired(turnouts.copy(), margins)
        assert repaired.tobytes() == oracle_repaired(turnouts, margins).tobytes()
