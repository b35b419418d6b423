import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from bilinid import (DEFAULT_TOL, Tolerances, eigenvalues, expm, phi1,
                     pinv_rank, principal_logm, rank_of)
from bilinid.errors import NoConvergence, Overflow, SpectrumOnCut
from bilinid.matfun import _logm_flows

from oracles import expm_series, phi1_quadrature


def _random_matrix(seed, n=None, scale=1.0):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(1, 5))
    return scale * rng.standard_normal((n, n))


class TestExpm:
    def test_nilpotent(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(M), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_half_turn(self):
        M = np.array([[0.0, -np.pi], [np.pi, 0.0]])
        assert np.allclose(expm(M), -np.eye(2), atol=1e-12)

    def test_overflow_is_reported(self):
        with pytest.raises(Overflow):
            expm(np.array([[1e6]]) * 1e3)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_input_is_reported(self, bad):
        M = np.zeros((3, 2, 2))
        M[1, 0, 1] = bad
        with pytest.raises(Overflow, match="non-finite"):
            expm(M)

    @pytest.mark.parametrize("beside", [None, 0.0, 50.0])
    def test_zero_gives_identity_without_warnings(self, beside):
        # a zero matrix alone, in a zero stack, and beside a rotation that
        # needs scaling, where its own scaling must not take log2(0)
        M = np.zeros((3, 3))
        if beside is not None:
            M = np.array([M, beside * (np.eye(3, k=1) - np.eye(3, k=-1))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            E = expm(M)
        assert np.max(np.abs(E.reshape(-1, 3, 3)[0] - np.eye(3))) <= (
            np.spacing(1.0))

    def test_small_matrix_is_not_squared_for_a_large_one(self):
        # beside a rotation that needs about 2^13 halvings, a matrix of norm
        # 1e-8 keeps its own scaling; squared 13 times, its e^M - I would
        # carry about 8192 roundoffs
        rng = np.random.default_rng(7)
        small = 1e-8 * rng.standard_normal((3, 3))
        S = rng.standard_normal((3, 3))
        E = expm(np.array([small, 1e4 * (S - S.T)]))
        first_order = E[0] - np.eye(3) - small - small @ small / 2
        assert np.max(np.abs(first_order)) <= 1e-6 * np.max(np.abs(small))

    @pytest.mark.parametrize("seed", range(5))
    def test_stack_of_mixed_norms(self, seed):
        # one Pade degree serves the stack, each matrix has its own
        # scaling: every matrix must come out as it does alone
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        norms = np.logspace(-8, 2, 11)
        M = rng.standard_normal((norms.size, n, n))
        M *= (norms / np.abs(M).sum(axis=1).max(axis=1))[:, None, None]
        E = expm(M)
        for Mi, Ei, norm in zip(M, E, norms):
            scale = np.max(np.abs(Ei))
            assert np.max(np.abs(Ei - expm(Mi))) <= 1e-12 * scale
            # the series oracle loses digits to cancellation on the
            # largest norms
            assert np.max(np.abs(Ei - expm_series(Mi))) <= (
                1e-13 * max(norm, 1.0) * scale)

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported only by principal_logm's fallback
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bilinid; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_series_oracle(self, seed):
        M = _random_matrix(seed)
        E = expm(M)
        assert np.allclose(E, expm_series(M), atol=1e-10, rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_inverse_pairing(self, seed):
        M = _random_matrix(seed, scale=2.0)
        if np.linalg.norm(M) > 10:
            M = 10 * M / np.linalg.norm(M)
        assert np.allclose(expm(M) @ expm(-M), np.eye(M.shape[0]), atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_commuting_factors(self, seed):
        # polynomials in the same matrix commute
        M = _random_matrix(seed)
        P = 0.3 * M @ M - 0.7 * M
        assert np.allclose(expm(M + P), expm(M) @ expm(P), atol=1e-9,
                           rtol=1e-9)


class TestPhi1:
    def test_scalar_value(self):
        assert phi1(np.array([[1.0]]), 1.0)[0, 0] == pytest.approx(
            np.e - 1.0, abs=1e-12)

    def test_zero_time(self):
        assert np.allclose(phi1(np.eye(3), 0.0), np.zeros((3, 3)))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            phi1(np.eye(2), -1.0)

    def test_stack_matches_quadrature_oracle(self):
        Q = _random_matrix(3, n=3)
        P = phi1(np.stack([Q, -Q, np.zeros((3, 3))]), 1.5)
        for Qi, Pi in zip((Q, -Q, np.zeros((3, 3))), P):
            assert np.allclose(Pi, phi1_quadrature(Qi, 1.5), atol=1e-9,
                               rtol=1e-9)

    def test_singular_argument(self):
        # phi1 must not invert Q
        Q = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(phi1(Q, 2.0), phi1_quadrature(Q, 2.0), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(0.1, 3.0))
    def test_matches_quadrature_oracle(self, seed, t):
        Q = _random_matrix(seed)
        assert np.allclose(phi1(Q, t), phi1_quadrature(Q, t), atol=1e-9,
                           rtol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_time_derivative(self, seed):
        # d/dt phi1(Q, t) = e^{tQ}, checked by a central difference
        Q = _random_matrix(seed)
        t, h = 0.8, 1e-5
        fd = (phi1(Q, t + h) - phi1(Q, t - h)) / (2 * h)
        assert np.max(np.abs(fd - expm(t * Q))) < 1e-6


class TestPinvRank:
    def test_projection_example(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        P, r = pinv_rank(M, DEFAULT_TOL)
        assert r == 1
        assert np.allclose(P, M)

    def test_zero_matrix(self):
        P, r = pinv_rank(np.zeros((2, 3)), DEFAULT_TOL)
        assert r == 0
        assert P.shape == (3, 2)
        assert np.all(P == 0)

    def test_rank_of(self):
        assert rank_of(np.array([[1.0, 2.0], [2.0, 4.0]]), DEFAULT_TOL) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 6), st.integers(1, 6))
    def test_penrose_identities(self, seed, rows, cols):
        M = np.random.default_rng(seed).standard_normal((rows, cols))
        P, r = pinv_rank(M, DEFAULT_TOL)
        assert r == min(rows, cols)
        assert np.allclose(M @ P @ M, M, atol=1e-9)
        assert np.allclose(P @ M @ P, P, atol=1e-9)
        assert np.allclose((M @ P).T, M @ P, atol=1e-9)
        assert np.allclose((P @ M).T, P @ M, atol=1e-9)


class TestPrincipalLogm:
    def test_negative_real_spectrum_is_rejected(self):
        with pytest.raises(SpectrumOnCut):
            principal_logm(-np.eye(2))

    def test_rotation_round_trip(self):
        M = np.array([[0.0, 0.1], [-0.1, 0.0]])
        assert np.allclose(principal_logm(expm(M)), M, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_round_trip_inside_principal_strip(self, seed):
        M = _random_matrix(seed, scale=0.5)
        if np.max(np.abs(eigenvalues(M).imag)) > 3.0:
            M = 0.2 * M
        assert np.allclose(principal_logm(expm(M)), M, atol=1e-8)

    def test_jordan_block_takes_the_fallback(self):
        # the eigenvectors of a Jordan block are parallel, so V diag(log
        # lam) V^{-1} would return 0; scipy's logm is exact here
        with mock.patch.object(scipy.linalg, "logm",
                               wraps=scipy.linalg.logm) as spy:
            L = principal_logm(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert spy.call_count == 1
        assert np.array_equal(L, [[0.0, 1.0], [0.0, 0.0]])

    def test_three_by_three_jordan_block(self):
        # log(2I + E) = log(2) I + E/2 - E^2/8 for the shift E
        E = np.eye(3, k=1)
        J = 2.0 * np.eye(3) + E
        L = principal_logm(J)
        assert np.allclose(L, np.log(2.0) * np.eye(3) + E / 2 - E @ E / 8,
                           atol=1e-12)
        assert np.allclose(expm(L), J, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_scipy_on_well_conditioned_eigenvectors(self, seed):
        # M = T D T^{-1}, D of 2x2 rotation-scaling blocks and positive
        # reals, T a scaled orthogonal basis (cond <= 4); scipy's logm,
        # which this path never calls, is the reference
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        D = np.diag(rng.uniform(0.2, 5.0, n))
        for i in range(0, n - 1, 2):
            r, th = rng.uniform(0.2, 5.0), rng.uniform(-3.0, 3.0)
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                [np.sin(th), np.cos(th)]])
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        T = Q * rng.uniform(0.5, 2.0, n)
        M = T @ D @ np.linalg.inv(T)
        with mock.patch.object(scipy.linalg, "logm",
                               side_effect=AssertionError("fallback taken")):
            L = principal_logm(M)
        ref = scipy.linalg.logm(M)
        assert np.allclose(L, ref.real, atol=1e-10, rtol=1e-10)


def _rel(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


class TestLogmStack:
    """_logm_flows takes a stack in one pass and reports a fault per
    member, so one member's fault never blocks another."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_matches_principal_logm_member_by_member(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        M = expm(0.5 * rng.standard_normal((k, n, n)))
        times = [0.5, 3.0]
        L, E, faults = _logm_flows(M, times)
        assert L.shape == (k, n, n) and E.shape == (k, 2, n, n)
        assert faults == [None] * k
        for Li, Ei, Mi in zip(L, E, M):
            ref = principal_logm(Mi)
            assert _rel(Li, ref) <= 1e-14
            for t, flow in zip(times, Ei):
                assert _rel(flow, expm(t * ref)) <= 1e-13

    def test_mixed_stack_reports_each_member(self):
        good = expm(np.array([[0.1, 0.7], [-0.7, 0.1]]))
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with mock.patch.object(scipy.linalg, "logm",
                               wraps=scipy.linalg.logm) as spy:
            L, E, faults = _logm_flows(np.array([good, -np.eye(2), jordan]),
                                       [2.0])
        assert spy.call_count == 1
        assert faults[0] is None and faults[2] is None
        assert isinstance(faults[1], SpectrumOnCut)
        assert _rel(L[0], principal_logm(good)) <= 1e-14
        assert np.array_equal(L[2], [[0.0, 1.0], [0.0, 0.0]])
        assert _rel(E[2, 0], jordan @ jordan) <= 1e-14

    def test_stack_that_eig_rejects_is_taken_member_by_member(self):
        good = expm(np.array([[0.2, 0.3], [0.0, -0.4]]))
        L, _, faults = _logm_flows(np.array([good, np.full((2, 2), np.nan)]),
                                   ())
        assert faults[0] is None and isinstance(faults[1], NoConvergence)
        assert _rel(L[0], principal_logm(good)) <= 1e-14

    def test_overflowing_flow_is_that_members_fault(self):
        good = expm(np.array([[0.2, 0.3], [0.0, -0.4]]))
        L, E, faults = _logm_flows(np.array([good, np.e * np.eye(2)]),
                                   [1000.0])
        assert faults[0] is None and isinstance(faults[1], Overflow)
        assert np.isfinite(E[0]).all()

    def test_one_member_raises_as_principal_logm(self):
        with pytest.raises(SpectrumOnCut):
            principal_logm(-np.eye(2))
        with pytest.raises(NoConvergence):
            principal_logm(np.full((2, 2), np.nan))


class TestTolerances:
    def test_defaults(self):
        assert DEFAULT_TOL.rank_tol == 1e-10
        assert DEFAULT_TOL.residual_tol == 1e-8
        assert DEFAULT_TOL.agree_tol == 1e-7

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerances(rank_tol=-1.0, residual_tol=1e-8, agree_tol=1e-7)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    @pytest.mark.parametrize("name", ["rank_tol", "residual_tol", "agree_tol"])
    def test_positive_finite_required(self, name, value):
        # NaN compares false both ways, so a bare "<= 0" check lets it in
        with pytest.raises(ValueError, match="finite"):
            Tolerances(**{name: value})
