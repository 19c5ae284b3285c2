import numpy as np
import pytest

import llull.projection
import llull.structure
from hypothesis import given, settings
from hypothesis import strategies as st

from llull import (
    LlullMatrix,
    MaxIterExceededError,
    NonPositiveStrengthError,
    NoTopDominantComponentError,
    NotIrreducibleError,
    OptionSet,
    SolverConfig,
    Strengths,
    fraction_like_rates,
    log_likelihood,
    log_likelihood_gradient,
    log_likelihood_hessian,
    residual_vector,
    restrict,
    solve,
    solve_irreducible,
    subset_defect,
    tangent_hessian_max_eigenvalue,
)
from conftest import fd_gradient, letters, oracle_sweep_trace, random_matrix


PAIR = LlullMatrix(OptionSet(("a", "b")), [[0, 0.6], [0.2, 0]])


def positive_matrix(rng, n):
    return random_matrix(rng, n, t_lo=0.4, u_lo=0.2, u_hi=0.8)


class TestLikelihood:
    """Objective, gradient and hessian around hand-checked values."""

    def test_value_pinned(self):
        # 0.6 log 0.75 + 0.2 log 0.25 - 0.8 log 1.
        ll = log_likelihood(PAIR, np.array([0.75, 0.25]))
        assert ll == pytest.approx(-0.4498681156950466, abs=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        M = positive_matrix(rng, 5)
        phi = rng.uniform(0.2, 1.5, 5)
        assert log_likelihood(M, phi) == pytest.approx(log_likelihood(M, 3.0 * phi), abs=1e-10)

    def test_rejects_non_positive_strengths(self):
        with pytest.raises(NonPositiveStrengthError):
            log_likelihood(PAIR, np.array([1.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            log_likelihood(PAIR, np.array([1.0, 1.0, 1.0]))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        M = positive_matrix(rng, n)
        phi = rng.uniform(0.2, 1.5, n)
        grad = log_likelihood_gradient(M, phi)
        fd = fd_gradient(lambda p: log_likelihood(M, p), phi)
        assert np.abs(grad - fd).max() < 5e-7

    def test_hessian_pinned_and_symmetric(self):
        H = log_likelihood_hessian(PAIR, np.array([0.75, 0.25]))
        assert H[0, 1] == pytest.approx(0.8, abs=1e-15)
        assert (H == H.T).all()

    def test_tangent_hessian_negative_at_solution(self):
        rng = np.random.default_rng(11)
        M = positive_matrix(rng, 5)
        phi, _ = solve_irreducible(M)
        assert tangent_hessian_max_eigenvalue(log_likelihood_hessian(M, phi)) < 0.0

    def test_tangent_hessian_single_option(self):
        assert tangent_hessian_max_eigenvalue(np.array([[-2.0]])) == float("-inf")


class TestSolveIrreducible:
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_two_options_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        M = positive_matrix(rng, 2)
        phi, diagnostics = solve_irreducible(M)
        q = M.scores[0, 1] / (M.scores[0, 1] + M.scores[1, 0])
        assert abs(phi.phi[0] - q) <= 1e-12
        assert diagnostics.residual <= 1e-12

    def test_symmetric_pair_converges_at_start(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.3], [0.3, 0]])
        phi, diagnostics = solve_irreducible(M)
        assert diagnostics.iterations == 0
        assert (phi.phi == 0.5).all()

    def test_symmetric_triple_is_uniform(self):
        M = LlullMatrix(OptionSet(("a", "b", "c")), np.full((3, 3), 0.5) - 0.5 * np.eye(3))
        phi, _ = solve_irreducible(M)
        assert np.abs(phi.phi - 1 / 3).max() <= 1e-12

    def test_stationarity_and_subset_identity(self):
        rng = np.random.default_rng(23)
        M = positive_matrix(rng, 6)
        phi, diagnostics = solve_irreducible(M)
        res = residual_vector(M, phi)
        assert np.abs(res).max() <= 1e-12
        assert np.abs(res).max() == pytest.approx(diagnostics.residual, abs=1e-15)
        # The defect over a subset is the same cross-pair sum that the
        # per-option residuals add up to.
        for W in (("a",), ("b", "d"), ("a", "c", "e", "f")):
            idx = M.option_set.indices(W)
            assert subset_defect(M, phi, W) == pytest.approx(res[idx].sum(), abs=1e-9)

    def test_likelihood_monotone_along_iterates(self):
        rng = np.random.default_rng(29)
        M = positive_matrix(rng, 7)
        phi, diagnostics = solve_irreducible(M, SolverConfig(record_trace=True))
        assert diagnostics.likelihood_monotone
        lls = [ll for _, _, ll in diagnostics.trace]
        assert all(b >= a - 1e-13 for a, b in zip(lls, lls[1:]))
        assert len(diagnostics.trace) == diagnostics.iterations + 1

    def test_traced_likelihoods_match_the_sweep_bit_for_bit(self):
        M = positive_matrix(np.random.default_rng(37), 6)
        _, diagnostics = solve_irreducible(M, SolverConfig(record_trace=True))
        assert diagnostics.trace == tuple(oracle_sweep_trace(M, 1e-12, 100000))
        assert diagnostics.likelihood == diagnostics.trace[-1][2]
        _, quiet = solve_irreducible(M)
        assert quiet.likelihood == diagnostics.likelihood
        with pytest.raises(MaxIterExceededError) as info:
            solve_irreducible(M, SolverConfig(max_iter=3))
        assert info.value.diagnostics.likelihood == oracle_sweep_trace(M, 1e-12, 3)[-1][2]

    def test_trace_csv_shape(self):
        rng = np.random.default_rng(31)
        M = positive_matrix(rng, 4)
        _, diagnostics = solve_irreducible(M, SolverConfig(record_trace=True))
        lines = diagnostics.trace_csv().strip().splitlines()
        assert lines[0] == "iteration,residual,likelihood"
        assert len(lines) == len(diagnostics.trace) + 1

    def test_requires_irreducible(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 0.5], [0, 0]])
        with pytest.raises(NotIrreducibleError):
            solve_irreducible(M)

    def test_max_iter_carries_best_iterate(self):
        rng = np.random.default_rng(37)
        M = positive_matrix(rng, 5)
        with pytest.raises(MaxIterExceededError) as info:
            solve_irreducible(M, SolverConfig(max_iter=1))
        err = info.value
        assert err.residual > 1e-12
        assert err.diagnostics.iterations == 1
        assert isinstance(err.strengths, Strengths)
        assert err.strengths.phi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_option_short_circuit(self):
        M = LlullMatrix(OptionSet(("a",)), [[0.0]])
        phi, diagnostics = solve_irreducible(M)
        assert phi.phi[0] == 1.0
        assert diagnostics.iterations == 0


class TestSolve:
    def test_unanimous_pair_puts_all_weight_on_top(self):
        M = LlullMatrix(OptionSet(("a", "b")), [[0, 1.0], [0, 0]])
        phi, diagnostics = solve(M)
        assert (phi.phi == (1.0, 0.0)).all()
        assert phi.support == ("a",)
        assert diagnostics.iterations == 0

    def test_embedding_matches_restricted_solve(self):
        M = LlullMatrix(
            OptionSet(("a", "b", "c")),
            [[0, 0.6, 0.8], [0.4, 0, 0.7], [0, 0, 0]],
        )
        phi, _ = solve(M)
        assert phi.support == ("a", "b")
        assert phi.value("c") == 0.0
        inner, _ = solve_irreducible(restrict(M, ("a", "b")))
        assert phi.value("a") == inner.value("a")
        assert phi.value("b") == inner.value("b")

    def test_one_rating_computes_the_closure_twice(self, monkeypatch):
        calls = []
        closure = llull.structure.indirect_scores

        def counted(M):
            calls.append(M.n)
            return closure(M)

        monkeypatch.setattr(llull.structure, "indirect_scores", counted)
        monkeypatch.setattr(llull.projection, "indirect_scores", counted)
        M = positive_matrix(np.random.default_rng(4), 5)
        report = fraction_like_rates(M)
        assert len(report.fraction.option_set.labels) == 5
        assert report.diagnostics.iterations > 0
        # clc_project on its input and solve's components; the projection
        # certifies its own top component without a closure.
        assert len(calls) == 2

    def test_no_top_component(self):
        scores = np.zeros((4, 4))
        scores[0, 1] = scores[1, 0] = 0.5
        scores[2, 3] = scores[3, 2] = 0.5
        M = LlullMatrix(OptionSet(letters(4)), scores)
        with pytest.raises(NoTopDominantComponentError):
            solve(M)


class TestDataObjects:
    def test_strengths_validation(self):
        opts = OptionSet(("a", "b"))
        with pytest.raises(ValueError):
            Strengths(opts, np.array([0.7, 0.2]), ("a", "b"))
        with pytest.raises(ValueError):
            Strengths(opts, np.array([1.2, -0.2]), ("a", "b"))
        with pytest.raises(ValueError):
            Strengths(opts, np.array([1.0]), ("a",))
        phi = Strengths(opts, np.array([0.75, 0.25]), ("a", "b"))
        assert phi.value("b") == 0.25
        with pytest.raises(ValueError):
            phi.phi[0] = 0.0

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
