import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilinid import (DEFAULT_TOL, FourTuple, Tolerances, conjugate,
                     extended_obs, extended_reach, in_B, io_equivalent,
                     is_canonical, krylov, reach_obs, sample_in_G0,
                     self_dual_T, series_coefficient, similarity_between,
                     twin_via_T, word_at)
from bilinid.errors import (NotCanonical, NotCanonicalTriple, NotSimilar,
                            ZeroS)

from oracles import all_words, brute_coefficient, word_product, word_row

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


def _conditioned(rng, n, cond_max=100.0):
    """A random change of basis with condition number at most cond_max."""
    while True:
        T = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        if np.linalg.cond(T) <= cond_max:
            return T


def _same_span(M, W):
    """Whether the column spans of M and W coincide."""
    rank = np.linalg.matrix_rank
    return rank(M) == rank(W) == rank(np.hstack([M, W]))


def _invariant_plane(seed):
    """A 3-state tuple whose words from b stay in the plane x3 = 0."""
    rng = np.random.default_rng(seed)
    A, N = rng.standard_normal((2, 3, 3))
    A[2, :2] = N[2, :2] = 0.0
    return FourTuple(A, N, [1.0, 0.5, 0.0], rng.standard_normal(3))


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


SPAN_CASES = [_shift_pair(E11), _invariant_plane(4), _random_tuple(5, n=3),
              _random_tuple(6, n=4, scale=1e3)]
SPAN_IDS = ["shift", "plane", "random", "large"]


class TestReachability:
    def test_linear_spaces_of_shift_pair(self):
        R, O = reach_obs(_shift_pair(E11))
        assert R.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert O.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_krylov_column_order(self):
        K = krylov(A2, B2)
        assert K.T.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("t", SPAN_CASES, ids=SPAN_IDS)
    def test_extended_reach_spans_the_words(self, t):
        words = all_words(t.n - 1)
        W = np.column_stack([word_product(t, w) for w in words])
        assert _same_span(extended_reach(t), W)

    @pytest.mark.parametrize("t", SPAN_CASES, ids=SPAN_IDS)
    def test_extended_obs_spans_the_words(self, t):
        words = all_words(t.n - 1)
        W = np.column_stack([word_row(t, w) for w in words])
        assert _same_span(extended_obs(t).T, W)

    def test_thirty_states_have_no_cap(self):
        n = 30
        t = _random_tuple(7, n=n, scale=1.0 / np.sqrt(n))
        R, O = extended_reach(t), extended_obs(t)
        # one block per length, each at most 4n wide
        assert R.shape[0] == O.shape[1] == n
        assert R.shape[1] <= 4 * n * n and O.shape[0] <= 4 * n * n
        assert is_canonical(t)
        assert not is_canonical(_invariant_plane(4))

    def test_is_canonical(self):
        assert is_canonical(_shift_pair(E11))
        dead = FourTuple(A2, E11, np.zeros(2), C2)
        assert not is_canonical(dead)

    @pytest.mark.parametrize("seed", range(5))
    def test_words_that_vanish_by_structure_add_no_direction(self, seed):
        # A b = N b = 0, so the reach is span{b} in every basis, although A b
        # and N b are rounding noise in a changed one; the second tuple is
        # the dual (c A = c N = 0), and in the third N b = 1e-8 b is the only
        # part of its layer that is not noise
        rng = np.random.default_rng(seed)
        cases = [FourTuple(A2, E22, [1.0, 0.0], [1.0, 1.0]),
                 FourTuple(A2.T, E22, [1.0, 1.0], [1.0, 0.0]),
                 FourTuple(A2, np.diag([1e-8, 1.0]), [1.0, 0.0], [1.0, 1.0])]
        for t in cases:
            assert not is_canonical(t)
            for _ in range(3):
                assert not is_canonical(conjugate(t, _conditioned(rng, 2)))

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

    def test_thirty_state_conjugate_and_perturbation(self):
        n = 30
        rng = np.random.default_rng(30)
        t = _random_tuple(30, n=n, scale=1.0 / np.sqrt(n))
        T0 = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        assert io_equivalent(t, conjugate(t, T0)) == (True, None)
        w = similarity_between(t, conjugate(t, T0))
        assert np.allclose(w.T, T0, atol=1e-8)
        N = t.N.copy()
        N[0, 0] += 1e-3
        other = FourTuple(t.A, N, t.b, t.c)
        # c b and c A b agree; c N b is the first coefficient to differ
        assert io_equivalent(t, other) == (False, "N")
        assert brute_coefficient(t, "A") == pytest.approx(
            brute_coefficient(other, "A"), rel=1e-14)

    def test_tiny_outputs_are_judged_on_their_own_scale(self):
        # c b = 1e-9 against 2e-9; a floor of 1 would call these equivalent
        A = [[0.0, 1.0], [-2.0, -0.5]]
        N = [[0.3, 0.0], [0.0, -0.4]]
        for scale in (1e-9, 1.0):
            t = FourTuple(A, N, [1.0, 0.5], [scale, 0.0])
            doubled = FourTuple(A, N, [1.0, 0.5], [2.0 * scale, 0.0])
            assert io_equivalent(t, doubled) == (False, "")

    def test_small_coefficients_are_judged_without_a_floor(self):
        # short-word coefficients are O(1e-2); c A b differs by 2e-5 relative
        t = _random_tuple(12, n=3, scale=0.1)
        t = FourTuple(10.0 * t.A, 10.0 * t.N, t.b, t.c)
        other = FourTuple((1.0 + 2e-5) * t.A, t.N, t.b, t.c)
        cb, cab = brute_coefficient(t, ""), brute_coefficient(t, "A")
        assert 1e-3 < abs(cb) < 1e-1 and 1e-3 < abs(cab) < 1e-1
        loose = Tolerances(residual_tol=1e-5)
        assert io_equivalent(t, other, loose) == (False, "A")
        assert io_equivalent(t, other, Tolerances(residual_tol=1e-4)) \
            == (True, None)

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_zeros_survive_conjugation(self, seed):
        # c b = 0 and every word of length >= 3 vanishes exactly; after a
        # change of basis both are rounding noise, which is no difference
        rng = np.random.default_rng(seed)
        nilpotent = FourTuple(np.diag([1.0, 1.0], 1), 0.5 * np.eye(3, k=2),
                              [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        for t in (_shift_pair(E11), _shift_pair(E22), nilpotent):
            T = _conditioned(rng, t.n)
            assert io_equivalent(t, conjugate(t, T)) == (True, None)
            assert io_equivalent(conjugate(t, T), t) == (True, None)

    def test_one_member_far_from_unit_state_scale(self):
        # the coefficients of length 2 differ by 1.9e-8 relative, just above
        # the default residual_tol; a member conjugated by 1e8 I must not
        # hide that under the rounding allowance of the stacked pair
        rng = np.random.default_rng(1)
        t = FourTuple(*rng.standard_normal((2, 3, 3)),
                      rng.standard_normal(3), rng.standard_normal(3))
        N = t.N.copy()
        N[0, 0] *= 1.0 + 1e-7
        other = FourTuple(t.A, N, t.b, t.c)
        assert io_equivalent(t, other) == (False, "AN")
        for s in (1e-8, 1e8):
            T = s * np.eye(3)
            assert io_equivalent(t, conjugate(other, T)) == (False, "AN")
            assert io_equivalent(conjugate(t, T), other) == (False, "AN")

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
        # identical systems whose long words pass 1e600 are still equal
        assert io_equivalent(big, FourTuple(big.A, big.N, big.b, big.c)) \
            == (True, None)

    @pytest.mark.parametrize("seed", range(5))
    def test_certificate_skips_branches_that_vanish_by_structure(self, seed):
        rng = np.random.default_rng(seed)
        t1 = conjugate(_shift_pair(E11), _conditioned(rng, 2))
        t2 = conjugate(_shift_pair(E22), _conditioned(rng, 2))
        assert io_equivalent(t1, t2) == (False, "AN")
        # c A = 0, so every word that starts with A is rounding noise in
        # the changed basis; c N b differs by 6e-10 relative
        A = [[0.0, 0.0], [1.0, 0.0]]
        N = np.array([[0.3, 0.2], [0.1, -0.4]])
        t = FourTuple(A, N, [1.0, 1.0], [1.0, 0.0])
        N[0, 0] *= 1.0 + 1e-9
        other = conjugate(FourTuple(A, N, t.b, t.c), _conditioned(rng, 2))
        assert io_equivalent(t, other, Tolerances(residual_tol=1e-11)) \
            == (False, "N")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans(),
           st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(-8.0, 8.0))
    def test_verdict_is_free_of_scale_and_basis(self, seed, twin, ls, lk, lm):
        rng = np.random.default_rng(seed)
        t, _ = sample_in_G0(2 + seed % 2, rng)
        other = twin_via_T(t) if twin else conjugate(t, _conditioned(rng, t.n))
        verdict = io_equivalent(t, other)
        assert verdict[0] is not twin
        s, k = 10.0 ** ls, 10.0 ** lk

        def outputs(x):   # (b, c) -> (s b, k c)
            return FourTuple(x.A, x.N, s * x.b, k * x.c)

        def faster(x):    # kind I: y_k(t) = y(k t)
            return FourTuple(k * x.A, k * x.N, k * x.b, x.c)

        assert io_equivalent(outputs(t), outputs(other)) == verdict
        assert io_equivalent(faster(t), faster(other)) == verdict
        T = _conditioned(rng, t.n)
        assert io_equivalent(conjugate(t, T), other) == verdict
        # one member alone in a basis 10^lm times its own
        assert io_equivalent(t, conjugate(other, 10.0 ** lm * np.eye(t.n))) \
            == verdict

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
