import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llull import (
    LlullMatrix,
    NotAPermutationError,
    NotCLCError,
    OptionSet,
    TieGroupTooLargeError,
    aggregate,
    analyze_structure,
    check_clc,
    clc_project,
    components,
    find_admissible_order,
    indirect_scores,
    zero_turnout_split,
)
from conftest import (
    letters,
    oracle_check_clc,
    oracle_component_structure,
    oracle_widest_paths,
    random_matrix,
    random_profile,
    tied_matrix,
)


def single_choice_matrix(fractions):
    n = len(fractions)
    scores = np.tile(np.asarray(fractions, dtype=float)[:, None], (1, n))
    np.fill_diagonal(scores, 0.0)
    return LlullMatrix(OptionSet(letters(n)), scores)


class TestIndirectScores:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_matches_path_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        M = random_matrix(rng, int(rng.integers(2, 7)), zero_prob=0.3)
        sigma = indirect_scores(M).sigma
        assert (sigma == oracle_widest_paths(M.scores)).all()

    def test_detour_beats_direct_edge(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.8, 0.1], [0.1, 0, 0.7], [0.1, 0.1, 0]],
        )
        s = indirect_scores(M)
        assert s.value("a", "c") == 0.7
        assert s.value("a", "b") == 0.8

    def test_diagonal_is_zero(self):
        rng = np.random.default_rng(3)
        M = random_matrix(rng, 5)
        assert (np.diag(indirect_scores(M).sigma) == 0.0).all()


class TestComponents:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_matches_reachability_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = random_matrix(rng, int(rng.integers(2, 7)), zero_prob=0.55)
        report = components(M)
        classes, dominance, top = oracle_component_structure(M.scores)
        idx = M.option_set.index
        got_classes = {frozenset(idx(x) for x in comp) for comp in report.components}
        assert got_classes == classes
        got_dominance = {
            (
                frozenset(idx(x) for x in report.components[a]),
                frozenset(idx(x) for x in report.components[b]),
            )
            for a, b in report.dominance
        }
        assert got_dominance == dominance
        if top is None:
            assert report.top_dominant is None
        else:
            assert report.top_dominant is not None
            assert frozenset(idx(x) for x in report.components[report.top_dominant]) == top

    def test_irreducible_flag(self):
        rng = np.random.default_rng(2)
        M = random_matrix(rng, 4, t_lo=0.5, u_lo=0.1, u_hi=0.9)
        report = components(M)
        assert report.irreducible
        assert report.top_dominant == 0
        assert len(report.components) == 1

    def test_unanimity_chain_components(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        report = components(M)
        assert report.components == (("a",), ("b",), ("c",))
        assert report.top_dominant == 0
        assert report.dominance == ((0, 1), (0, 2), (1, 2))


class TestCheckClc:
    def test_single_choice_is_clc(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        verdict = check_clc(M, ("a", "b", "c"))
        assert verdict.ok
        assert all(verdict.conditions.values())
        assert verdict.witnesses == ()

    def test_pairwise_violation(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.2], [0.4, 0]])
        verdict = check_clc(M, ("a", "b"))
        assert not verdict.ok
        assert not verdict.conditions["pairwise"]
        assert any(w.condition == "pairwise" for w in verdict.witnesses)

    def test_chain_violation(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 2 / 3, 7 / 12], [1 / 3, 0, 5 / 6], [5 / 12, 1 / 6, 0]],
        )
        verdict = check_clc(M, ("a", "b", "c"))
        assert not verdict.ok
        assert not verdict.conditions["upper_chain"]

    def test_all_zero_matrix_is_clc(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.zeros((3, 3)))
        assert check_clc(M, ("a", "b", "c")).ok

    def test_order_must_be_permutation(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        with pytest.raises(NotAPermutationError):
            check_clc(M, ("a", "b"))


class TestCheckClcOracle:
    """The mask-based check against the loop oracle, witnesses included."""

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 12), style=st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_loop_oracle(self, seed, n, style):
        rng = np.random.default_rng(seed)
        if style == 0:
            M = random_matrix(rng, n, zero_prob=0.2)
        elif style == 1:
            M = tied_matrix(rng, n)
        else:
            M = aggregate(random_profile(rng, n))
        R = clc_project(M)
        shuffled = tuple(M.labels[i] for i in rng.permutation(n))
        for X in (M, R.matrix):
            for order in (M.labels, R.order.labels, shuffled):
                for cap in (1, 5, 10**6):
                    got = check_clc(X, order, max_witnesses=cap)
                    assert got == oracle_check_clc(X, order, max_witnesses=cap)

    def test_every_condition_reports_capped_witnesses(self):
        rng = np.random.default_rng(11)
        M = random_matrix(rng, 9)
        order = tuple(M.labels[i] for i in rng.permutation(9))
        full = check_clc(M, order, max_witnesses=10**6)
        assert full == oracle_check_clc(M, order, max_witnesses=10**6)
        for cap in (1, 5):
            capped = check_clc(M, order, max_witnesses=cap)
            assert capped == oracle_check_clc(M, order, max_witnesses=cap)
            assert capped.conditions == full.conditions
        default = check_clc(M, order)
        for condition, passed in full.conditions.items():
            assert not passed
            found = [w for w in full.witnesses if w.condition == condition]
            assert len(found) > 5
            kept = [w for w in default.witnesses if w.condition == condition]
            assert kept == found[:5]


class TestFindAdmissibleOrder:
    def test_single_choice_order_recovered(self):
        M = single_choice_matrix([0.2, 0.5, 0.3])
        order = find_admissible_order(M)
        assert order is not None
        assert tuple(order) == ("b", "c", "a")
        assert check_clc(M, order).ok

    def test_cycle_has_no_order(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
        )
        assert find_admissible_order(M) is None

    def test_uniform_matrix_any_order(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.full((3, 3), 0.5) - 0.5 * np.eye(3))
        order = find_admissible_order(M)
        assert order is not None

    def test_tie_group_too_large(self):
        n = 9
        M = LlullMatrix(OptionSet(letters(n)), np.full((n, n), 0.4) - 0.4 * np.eye(n))
        with pytest.raises(TieGroupTooLargeError):
            find_admissible_order(M)

    def test_total_search_space_capped(self):
        # Two tie groups of six: 6!*6! exceeds the 8! budget.
        n = 12
        scores = np.zeros((n, n))
        scores[:6, :6] = 0.5
        scores[6:, 6:] = 0.5
        scores[:6, 6:] = 0.9
        scores[6:, :6] = 0.1
        np.fill_diagonal(scores, 0.0)
        M = LlullMatrix(OptionSet(letters(n)), scores)
        with pytest.raises(TieGroupTooLargeError):
            find_admissible_order(M)

    def test_single_option(self):
        M = LlullMatrix(OptionSet(("a",)), [[0.0]])
        order = find_admissible_order(M)
        assert order is not None
        assert tuple(order) == ("a",)


class TestZeroTurnoutSplit:
    def test_positive_turnouts_keep_everything(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        X, Y = zero_turnout_split(M)
        assert X == ("a", "b", "c")
        assert Y == ()

    def test_tail_after_zero_turnout(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.6, 0.6], [0, 0, 0], [0, 0, 0]],
        )
        X, Y = zero_turnout_split(M)
        assert X == ("a", "b")
        assert Y == ("c",)

    def test_all_zero_matrix_splits_after_first(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.zeros((3, 3)))
        X, Y = zero_turnout_split(M)
        assert X == ("a",)
        assert Y == ("b", "c")

    def test_requires_clc(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
        )
        with pytest.raises(NotCLCError):
            zero_turnout_split(M)


class TestAnalyzeStructure:
    def test_clc_instance(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        report = analyze_structure(M)
        assert report.irreducible
        assert report.order is not None
        assert report.clc is not None and report.clc.ok
        assert report.to_json_dict()["order"] == ["a", "b", "c"]

    def test_cyclic_instance(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.9, 0.1], [0.1, 0, 0.9], [0.9, 0.1, 0]],
        )
        report = analyze_structure(M)
        assert report.irreducible
        assert report.order is None
