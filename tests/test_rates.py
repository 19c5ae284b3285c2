import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llull import (
    HypothesisNotSatisfiedError,
    LlullMatrix,
    NotAnImprovementError,
    OptionSet,
    RateVector,
    Strengths,
    aggregate,
    check_clone_consistency,
    check_decomposition,
    check_majority,
    check_monotonicity,
    check_strength_score_compatibility,
    clc_project,
    eigenvector_rates,
    fraction_like_rates,
    mean_preference_scores,
    parse_ballots,
    solve,
    unanimous_sets,
)
from conftest import (
    improvement_pair,
    letters,
    majority_instance,
    mixed_corpus,
    oracle_strength_score_issues,
    planted_autonomous_profile,
    planted_unanimity_profile,
    random_profile,
    tied_matrix,
)


def single_choice_matrix(fractions):
    n = len(fractions)
    scores = np.tile(np.asarray(fractions, dtype=float)[:, None], (1, n))
    np.fill_diagonal(scores, 0.0)
    return LlullMatrix(OptionSet(letters(n)), scores)


def epsilon_matrix(eps):
    return LlullMatrix(
        OptionSet(("a", "b", "c")),
        [[0, 1 - eps, 1 - eps], [eps, 0, 0.5], [eps, 0.5, 0]],
    )


class TestFractionLikeRates:
    def test_single_choice_recovers_the_shares(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        report = fraction_like_rates(M)
        assert np.abs(report.fraction.values - (0.5, 0.3, 0.2)).max() <= 1e-9
        assert report.projection.fixed_point

    def test_two_options_closed_form(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.6], [0.2, 0]])
        report = fraction_like_rates(M)
        assert report.fraction.value("a") == pytest.approx(0.75, abs=1e-12)

    def test_fraction_is_a_distribution(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 2 / 3, 7 / 12], [1 / 3, 0, 5 / 6], [5 / 12, 1 / 6, 0]],
        )
        report = fraction_like_rates(M)
        f = report.fraction.values
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
        assert f[0] > f[1] > f[2]
        assert report.fraction.kind == "fraction"
        assert report.rank_like.kind == "mean_rank"

    def test_vanishing_matrix_rates_uniformly(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.zeros((3, 3)))
        report = fraction_like_rates(M)
        assert (report.fraction.values == 1 / 3).all()
        assert report.warnings and report.warnings[0].startswith("NoInformation")

    def test_single_option(self):
        M = LlullMatrix(OptionSet(("a",)), [[0.0]])
        report = fraction_like_rates(M)
        assert report.fraction.values[0] == 1.0
        assert report.rank_like.values[0] == 1.0

    def test_unranked_option_gets_zero(self):
        ballots = parse_ballots("options: a, b\n1: a\n")
        report = fraction_like_rates(aggregate(ballots))
        assert report.fraction.value("a") == 1.0
        assert report.fraction.value("b") == 0.0
        assert report.rank_like.value("b") == 2.0

    def test_serialization_shapes(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        report = fraction_like_rates(M)
        d = report.to_json_dict()
        assert set(d) == {
            "options",
            "fraction",
            "rank_like",
            "projected",
            "order",
            "fixed_point",
            "diagnostics",
            "warnings",
        }
        assert d["options"] == ["a", "b", "c"]
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "option,fraction,rank_like"
        assert len(lines) == 4


class TestEigenvectorRates:
    def test_rejects_vanishing(self):
        M = LlullMatrix(OptionSet(("a", "b")), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            eigenvector_rates(M)

    def test_documented_ratio_at_quarter(self):
        rates = eigenvector_rates(epsilon_matrix(0.25))
        ratio = rates.value("a") / rates.value("c")
        assert ratio == pytest.approx(6.0 / (1.0 + np.sqrt(7.0)), abs=1e-8)
        assert rates.value("b") == pytest.approx(rates.value("c"), abs=1e-10)
        assert rates.kind == "eigen"

    def test_symmetric_matrix_is_uniform(self):
        rates = eigenvector_rates(epsilon_matrix(0.5))
        assert np.abs(rates.values - 1 / 3).max() <= 1e-12


class TestCompatibility:
    def test_holds_on_the_pipeline(self):
        rng = np.random.default_rng(13)
        for M in mixed_corpus(rng, 15, n_lo=2, n_hi=7):
            R = clc_project(M)
            if R.matrix.is_vanishing():
                continue
            phi, _ = solve(R.matrix)
            checks = check_strength_score_compatibility(R, phi)
            assert checks.ok, checks.issues

    def test_flags_reversed_strengths(self):
        M = single_choice_matrix([0.5, 0.3, 0.2])
        R = clc_project(M)
        fake = Strengths(M.option_set, np.array([0.2, 0.3, 0.5]), M.labels)
        checks = check_strength_score_compatibility(R, fake)
        assert not checks.ok
        assert checks.issues

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_pair_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        R = clc_project(tied_matrix(rng, n))
        # Coarse strengths with ties and zeros, in any order against the scores.
        raw = rng.integers(0, 4, size=n).astype(float)
        raw[rng.integers(n)] += 1.0
        phi = raw / raw.sum()
        fake = Strengths(R.matrix.option_set, phi, R.matrix.labels)
        rho = mean_preference_scores(R.matrix).values if n > 1 else np.array([1.0])
        checks = check_strength_score_compatibility(R, fake)
        assert checks.issues == oracle_strength_score_issues(rho, fake.phi, R.matrix.labels)
        assert checks.ok == (not checks.issues)


class TestMajority:
    def test_requires_strict_majorities(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.5], [0.3, 0]])
        report = fraction_like_rates(M)
        with pytest.raises(HypothesisNotSatisfiedError):
            check_majority(M, report, ("a",))

    def test_holds_on_planted_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            M, members = majority_instance(rng)
            report = fraction_like_rates(M)
            assert check_majority(M, report, members)

    def test_detects_a_reversed_report(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.9], [0.1, 0]])
        report = fraction_like_rates(M)
        fake = dataclasses.replace(
            report, fraction=RateVector(M.option_set, np.array([0.0, 1.0]), "fraction")
        )
        assert check_majority(M, fake, ("a",)) is False


class TestMonotonicity:
    def test_rejects_non_improvements(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.full((3, 3), 0.4) - 0.4 * np.eye(3))
        lowered = M.scores.copy()
        lowered[0, 1] = 0.3
        with pytest.raises(NotAnImprovementError):
            check_monotonicity(M, LlullMatrix(M.option_set, lowered), "a")
        raised_against = M.scores.copy()
        raised_against[1, 0] = 0.5
        with pytest.raises(NotAnImprovementError):
            check_monotonicity(M, LlullMatrix(M.option_set, raised_against), "a")
        other_pair = M.scores.copy()
        other_pair[1, 2] = 0.1
        with pytest.raises(NotAnImprovementError):
            check_monotonicity(M, LlullMatrix(M.option_set, other_pair), "a")
        with pytest.raises(NotAnImprovementError):
            check_monotonicity(M, LlullMatrix(OptionSet(("x", "y", "z")), M.scores), "a")

    def test_holds_on_planted_improvements(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            M, M2, label = improvement_pair(rng)
            checks = check_monotonicity(M, M2, label)
            assert checks.ok, checks.issues


class TestCloneConsistency:
    def test_holds_on_planted_blocks(self):
        rng = np.random.default_rng(23)
        passed = 0
        for _ in range(30):
            profile, members = planted_autonomous_profile(rng)
            try:
                checks = check_clone_consistency(profile, members, members[0])
            except HypothesisNotSatisfiedError:
                continue
            assert checks.ok, checks.issues
            passed += 1
        assert passed >= 10

    def test_support_hypothesis_violation(self):
        text = "options: c1, c2, z1, z2\n3: z1 > z2\n2: z1 > c1 = c2 > z2\n"
        profile = parse_ballots(text)
        with pytest.raises(HypothesisNotSatisfiedError):
            check_clone_consistency(profile, ("c1", "c2"), "c1")


class TestUnanimousSets:
    def test_nested_family(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        assert unanimous_sets(M) == (("a",), ("a", "b"))

    def test_single_set(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 1.0], [0, 0]])
        assert unanimous_sets(M) == (("a",),)

    def test_none_without_full_scores(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.5], [0.5, 0]])
        assert unanimous_sets(M) == ()

    def test_planted_profiles_expose_the_set(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            profile, X = planted_unanimity_profile(rng)
            found = unanimous_sets(aggregate(profile))
            assert any(set(u) == set(X) for u in found)


class TestDecomposition:
    def test_holds_on_planted_unanimity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            profile, _ = planted_unanimity_profile(rng)
            checks = check_decomposition(profile)
            assert checks.ok, checks.issues

    def test_holds_on_complete_profiles(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            profile = random_profile(rng, n, n_ballots=int(rng.integers(1, 9)), truncate_prob=0.0)
            checks = check_decomposition(profile)
            assert checks.ok, checks.issues

    def test_flags_leaked_rates(self):
        rng = np.random.default_rng(41)
        profile, _ = planted_unanimity_profile(rng)
        M = aggregate(profile)
        report = fraction_like_rates(M)
        fake = dataclasses.replace(
            report,
            fraction=RateVector(M.option_set, np.full(M.n, 1.0 / M.n), "fraction"),
        )
        checks = check_decomposition(profile, fake)
        assert not checks.ok
        assert any("leak" in issue for issue in checks.issues)
