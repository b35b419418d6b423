import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilinid import (DEFAULT_TOL, FourTuple, conjugate, extended_obs,
                     extended_reach, in_B, io_equivalent, is_canonical,
                     krylov, reach_obs, self_dual_T, series_coefficient,
                     similarity_between, word_at)
from bilinid.errors import (DimensionTooLarge, NotCanonical,
                            NotCanonicalTriple, NotSimilar, Overflow, ZeroS)

from oracles import all_words, brute_coefficient

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([0.0, 1.0])
C2 = np.array([1.0, 0.0])
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def _shift_pair(N):
    return FourTuple(A2, N, B2, C2)


def _random_tuple(seed, n=None, scale=1.0):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(1, 4))
    return FourTuple(scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal(n),
                     scale * rng.standard_normal(n))


class TestWords:
    def test_enumeration_is_length_then_lex(self):
        words = [word_at(k, i) for k in range(3) for i in range(2 ** k)]
        assert words == ["", "A", "N", "AA", "AN", "NA", "NN"]

    def test_coefficient_distinguishes_shift_pair(self):
        # c A N b differs between N = E11 (gives 0) and N = E22 (gives 1)
        assert series_coefficient(_shift_pair(E11), "AN") == 0.0
        assert series_coefficient(_shift_pair(E22), "AN") == 1.0

    def test_empty_word_is_cb(self):
        t = _random_tuple(3)
        assert series_coefficient(t, "") == pytest.approx(float(t.c @ t.b))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_brute_force_products(self, seed):
        t = _random_tuple(seed)
        for word in all_words(4):
            assert series_coefficient(t, word) == pytest.approx(
                brute_coefficient(t, word), rel=1e-12, abs=1e-12)


class TestReachability:
    def test_linear_spaces_of_shift_pair(self):
        R, O = reach_obs(_shift_pair(E11))
        assert R.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert O.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_krylov_column_order(self):
        K = krylov(A2, B2)
        assert K.T.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_extended_reach_column_order(self):
        # columns are A_w b over words of length <= n-1 in length-lex order
        R = extended_reach(_shift_pair(E11))
        assert R.T.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]

    def test_extended_obs_row_order(self):
        O = extended_obs(_shift_pair(E11))
        assert O.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_cap_guards_the_enumeration(self):
        t = _random_tuple(0, n=3)
        with pytest.raises(DimensionTooLarge):
            extended_reach(t, cap=2)

    def test_is_canonical(self):
        assert is_canonical(_shift_pair(E11))
        dead = FourTuple(A2, E11, np.zeros(2), C2)
        assert not is_canonical(dead)

    def test_canonical_despite_linear_degeneracy(self):
        # b is unreachable through A alone but N fills the gap
        t = FourTuple(np.zeros((2, 2)), A2, B2, C2)
        assert rank_deficient_linear(t)
        assert is_canonical(t)


def rank_deficient_linear(t):
    R, _ = reach_obs(t)
    return np.linalg.matrix_rank(R) < t.n


class TestIoEquivalence:
    def test_shift_pair_certificate(self):
        eq, word = io_equivalent(_shift_pair(E11), _shift_pair(E22))
        assert not eq
        assert word == "AN"

    def test_certificate_is_first_in_length_lex_order(self):
        t1, t2 = _shift_pair(E11), _shift_pair(E22)
        _, word = io_equivalent(t1, t2)
        earlier = all_words(len(word))[:all_words(len(word)).index(word)]
        for w in earlier:
            assert brute_coefficient(t1, w) == pytest.approx(
                brute_coefficient(t2, w), abs=1e-12)

    def test_conjugated_systems_are_equivalent(self):
        t = _random_tuple(11, n=3)
        T = np.eye(3) + 0.3 * np.random.default_rng(5).standard_normal((3, 3))
        eq, word = io_equivalent(t, conjugate(t, T))
        assert eq and word is None

    def test_dimensions_may_differ(self):
        # a 1-state system against a padded 2-state copy of itself
        t1 = FourTuple([[(-0.5)]], [[0.25]], [2.0], [0.5])
        t2 = FourTuple([[-0.5, 0.0], [0.0, -3.0]],
                       [[0.25, 0.0], [0.0, 1.0]],
                       [2.0, 0.0], [0.5, 7.0])
        eq, word = io_equivalent(t1, t2)
        assert eq and word is None

    def test_word_budget_guard(self):
        t = _random_tuple(0, n=7)
        with pytest.raises(DimensionTooLarge):
            io_equivalent(t, t)
        eq, _ = io_equivalent(t, t, max_len=5)
        assert eq

    def test_large_coefficients_do_not_mask_a_short_word(self):
        # A^12 b reaches 1e12, far above the 0.05 change in c b
        A = np.diag([10.0, -0.1, -0.2, -0.3, -0.4, -0.5])
        N = 0.1 * np.diag(np.arange(1.0, 7.0))
        c2 = np.ones(6)
        c2[1] += 0.05
        eq, word = io_equivalent(FourTuple(A, N, np.ones(6), np.ones(6)),
                                 FourTuple(A, N, np.ones(6), c2))
        assert not eq and word == ""

    def test_overflowing_coefficients(self):
        big = FourTuple([[1e300]], [[0.0]], [1.0], [1.0])
        # equal c b, then c A b = 1e300 against 0, before anything overflows
        other = FourTuple([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)),
                          [1.0, 0.0], [1.0, 0.0])
        assert io_equivalent(big, other) == (False, "A")
        # equal up to length 1; length 2 is 1e600
        with pytest.raises(Overflow):
            io_equivalent(big, FourTuple(big.A, big.N, big.b, big.c))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_symmetry(self, seed):
        t1 = _random_tuple(seed, n=2)
        t2 = _random_tuple(seed + 1, n=2)
        assert io_equivalent(t1, t2)[0] == io_equivalent(t2, t1)[0]


class TestConjugation:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_coefficients_invariant(self, seed):
        t = _random_tuple(seed, n=3)
        rng = np.random.default_rng(seed + 99)
        T = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        tc = conjugate(t, T)
        for word in all_words(6):
            a, b = series_coefficient(t, word), series_coefficient(tc, word)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_canonicity_invariant(self, seed):
        t = _random_tuple(seed, n=2)
        rng = np.random.default_rng(seed + 7)
        T = np.eye(2) + 0.4 * rng.standard_normal((2, 2))
        if np.linalg.cond(T) > 1e3:
            return
        assert is_canonical(t) == is_canonical(conjugate(t, T))


class TestSimilarity:
    def test_recovers_the_conjugator(self):
        t = _shift_pair(E11)
        T0 = np.array([[1.0, 1.0], [0.0, 1.0]])
        w = similarity_between(t, conjugate(t, T0))
        assert np.allclose(w.T, T0, atol=1e-10)
        assert w.max_residual < 1e-10

    def test_witness_relations(self):
        t = _random_tuple(21, n=3)
        assert is_canonical(t)
        rng = np.random.default_rng(2)
        T0 = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        t2 = conjugate(t, T0)
        w = similarity_between(t, t2)
        T = w.T
        Ti = np.linalg.inv(T)
        assert np.allclose(T @ t2.A @ Ti, t.A, atol=1e-8)
        assert np.allclose(T @ t2.N @ Ti, t.N, atol=1e-8)
        assert np.allclose(T @ t2.b, t.b, atol=1e-8)
        assert np.allclose(t2.c, t.c @ T, atol=1e-8)

    def test_inequivalent_systems_are_rejected(self):
        with pytest.raises(NotSimilar):
            similarity_between(_shift_pair(E11), _shift_pair(E22))

    def test_noncanonical_input_is_rejected(self):
        dead = FourTuple(A2, E11, np.zeros(2), C2)
        with pytest.raises(NotCanonical):
            similarity_between(dead, _shift_pair(E11))

    def test_dimension_mismatch_is_not_similar(self):
        t1 = FourTuple([[(-0.5)]], [[0.25]], [2.0], [0.5])
        with pytest.raises(NotSimilar):
            similarity_between(t1, _shift_pair(E11))


class TestSelfDualT:
    def test_shift_triple(self):
        T = self_dual_T(A2, B2, C2)
        assert np.allclose(T, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_scalar_triple(self):
        T = self_dual_T(np.array([[3.0]]), np.array([2.0]), np.array([4.0]))
        assert T[0, 0] == pytest.approx(0.5)

    def test_defining_relations(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((3, 3))
        b, c = rng.standard_normal(3), rng.standard_normal(3)
        T = self_dual_T(A, b, c)
        assert np.allclose(A @ T, T @ A.T, atol=1e-9)
        assert np.allclose(T @ c, b, atol=1e-9)
        assert np.allclose(T, T.T, atol=1e-9)

    def test_noncanonical_triple_is_rejected(self):
        with pytest.raises(NotCanonicalTriple):
            self_dual_T(A2, np.zeros(2), C2)


class TestInB:
    def test_membership_examples(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert in_B(np.array([[0.0, 1.0], [0.0, 0.0]]), S)
        assert not in_B(E11, S)

    def test_zero_s_is_rejected(self):
        with pytest.raises(ZeroS):
            in_B(E11, np.zeros((2, 2)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([0.001, 0.1, 10.0, 1000.0]))
    def test_scale_invariance(self, seed, factor):
        rng = np.random.default_rng(seed)
        N = rng.standard_normal((3, 3))
        S = rng.standard_normal((3, 3))
        S = S + S.T  # symmetric S keeps the test two-sided
        assert in_B(N, S) == in_B(N, factor * S)
