import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilinid import (DEFAULT_TOL, TYPE_II, FourTuple, Tolerances, conjugate,
                     gaussian_tuple, io_equivalent, is_canonical, krylov,
                     pulse_family_pair, respond_pulse, sample_in_B_alpha, sample_in_C, sample_in_G0,
                     sampled_pair, self_dual_T, series_coefficient,
                     similarity_between, single_pulse_pair, twin_via_T)
from bilinid.core import SimilarityWitness
from bilinid.errors import (NotCanonical, NotCanonicalTriple, NotSimilar,
                            ShapeMismatch)
from bilinid import realization
from bilinid.matfun import rank_of
from bilinid.realization import (_balanced, _canonical_gap, _difference,
                                 _layers, _lex_first, _linear, _norm, _span,
                                 _unit)

from oracles import all_words, brute_coefficient, word_product, word_row

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([0.0, 1.0])
C2 = np.array([1.0, 0.0])
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])


def _decimal_norm(x):
    """The 2-norm of x rounded once to float, from its squares summed at
    50 digits."""
    with decimal.localcontext(decimal.Context(prec=50)):
        return float(sum(decimal.Decimal(v) ** 2 for v in x.ravel().tolist())
                     .sqrt())


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
        t = _shift_pair(E11)
        R, O = krylov(t.A, t.b), krylov(t.A.T, t.c).T
        assert R.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert O.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_krylov_column_order(self):
        K = krylov(A2, B2)
        assert K.T.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("t", SPAN_CASES, ids=SPAN_IDS)
    def test_extended_reach_spans_the_words(self, t):
        words = all_words(t.n - 1)
        W = np.column_stack([word_product(t, w) for w in words])
        assert _same_span(_span(t.A[None], t.N[None], t.b[None], t.n - 1)[0].T,
                          W)

    @pytest.mark.parametrize("t", SPAN_CASES, ids=SPAN_IDS)
    def test_extended_obs_spans_the_words(self, t):
        words = all_words(t.n - 1)
        W = np.column_stack([word_row(t, w) for w in words])
        assert _same_span(
            _span(t.A.T[None], t.N.T[None], t.c[None], t.n - 1)[0].T, W)

    def test_thirty_states_have_no_cap(self):
        n = 30
        t = _random_tuple(7, n=n, scale=1.0 / np.sqrt(n))
        R = _span(t.A[None], t.N[None], t.b[None], n - 1)[0].T
        O = _span(t.A.T[None], t.N.T[None], t.c[None], n - 1)[0]
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
    return np.linalg.matrix_rank(krylov(t.A, t.b)) < t.n


def _weighted_layers(A, N, v, count):
    """The growth-weighted reference for _span's layers of (A, N, v): each
    layer scaled to unit 2-norm as it is built, then weighted back by its
    growth, so the same products come out with another rounding."""
    n = v.size
    step, _ = _unit(np.hstack([A.T, N.T]))
    Z, norm = _unit(v.reshape(1, n))[0], 1.0
    layers = [Z]
    for k in range(1, count + 1):
        Z = (Z @ step).reshape(-1, n)
        if Z.shape[0] > 4 * n and k < count:
            Z = np.linalg.qr(Z, mode="r")
        g = _norm(Z)
        Z, norm = (Z / g if g else Z), norm * g
        layers.append(norm * Z)
    return layers


def _sides(t):
    """The reachability and observability systems of t, as _span takes
    them: (A, N, v) stacks of two."""
    return [np.array(x) for x in zip((t.A, t.N, t.b), (t.A.T, t.N.T, t.c))]


def _gap_by_rank_of(t):
    """_canonical_gap of t one side at a time: rank_of of each side's
    weighted span in turn, reachability first."""
    for side, A, N, v in zip(("reachability", "observability"), *_sides(t)):
        r = rank_of(np.vstack(_weighted_layers(A, N, v, t.n - 1)))
        if r < t.n:
            return side, r
    return None


DEAD = FourTuple(A2, E11, np.zeros(2), C2)           # b = 0: no reach
BLIND = FourTuple(A2.T, E11, C2, np.zeros(2))        # c = 0: no obs
DIAGONAL = FourTuple(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]),
                     [1.0, 0.0], [1.0, 0.0])         # short on both sides


def _matvec_krylov(A, v):
    """[v, A v, ..., A^{n-1} v], one matvec per column."""
    cols = [np.asarray(v, dtype=float)]
    for _ in range(len(v) - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


class TestBatchedKrylov:
    """_linear builds every Krylov matrix of its stack in one recursion."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_krylov_of_each_member(self, seed):
        rng = np.random.default_rng(seed)
        n, k = seed % 4 + 1, seed % 3 + 1
        As = rng.standard_normal((k, n, n)) * 10.0 ** rng.uniform(-3, 3, k)[
            :, None, None]
        if seed % 2:
            As[-1] = 0.0     # left as it is by the unit scaling
        b, c = rng.standard_normal(n), rng.standard_normal(n)
        K, ranks = _linear(As, b, c, DEFAULT_TOL)
        assert K.shape == (k, 2, n, n) and len(ranks) == k
        for A, (Rt, O), pair in zip(As, K, ranks):
            size = np.linalg.norm(A)
            A = A / size if size else A
            R_ref, O_ref = _matvec_krylov(A, b), _matvec_krylov(A.T, c).T
            for K_i, ref in ((Rt.T, R_ref), (O, O_ref), (krylov(A, b), R_ref),
                             (krylov(A.T, c).T, O_ref)):
                assert np.linalg.norm(K_i - ref) <= 1e-15 * np.linalg.norm(ref)
            assert pair == [rank_of(R_ref), rank_of(O_ref)]

    def test_zero_member_has_rank_one(self):
        K, ranks = _linear(np.zeros((1, 3, 3)), [1.0, 2.0, 3.0],
                           [0.0, 1.0, 0.0], DEFAULT_TOL)
        assert ranks == [[1, 1]]
        assert K[0, 0].tolist() == [[1.0, 2.0, 3.0], [0.0] * 3, [0.0] * 3]

    def test_linear_ranks_beside_the_span(self):
        # the padded R' and O share the span's SVD: same ranks as _linear
        rng = np.random.default_rng(4)
        cases = SPAN_CASES + [DEAD, BLIND, DIAGONAL]
        for t in cases + [conjugate(t, _conditioned(rng, t.n)) for t in cases]:
            As = [t.A, t.A + t.N, np.zeros((t.n, t.n))]
            gap, *pairs = _canonical_gap(t, tol=DEFAULT_TOL, linear=As)
            assert gap == _canonical_gap(t, tol=DEFAULT_TOL)[0]
            assert pairs == _linear(As, t.b, t.c, DEFAULT_TOL)[1]


class TestStackedSpan:
    @pytest.mark.parametrize("t", SPAN_CASES + [_random_tuple(8, n=7)],
                             ids=SPAN_IDS + ["seven"])
    def test_unscaled_stack_matches_the_weighted_span(self, t):
        # at n = 7 the layer of length 5 (32 rows) is compressed by QR
        stack = _span(*_sides(t), t.n - 1)
        for S, A, N, v in zip(stack, *_sides(t)):
            ref = _weighted_layers(A, N, v, t.n - 1)
            assert rank_of(S) == rank_of(np.vstack(ref))
            rows = np.cumsum([len(Z) for Z in ref])
            assert rows[-1] == len(S)
            for Z, W in zip(np.split(S, rows[:-1]), ref):
                assert np.linalg.norm(Z - W) <= 1e-13 * np.linalg.norm(W)

    def test_batched_gap_is_the_gap_of_each_tuple(self):
        rng = np.random.default_rng(3)
        cases = [_shift_pair(E11), DEAD, BLIND, DIAGONAL,
                 FourTuple(A2, E22, [1.0, 0.0], [1.0, 1.0])]
        cases += [conjugate(t, _conditioned(rng, 2)) for t in cases]
        gaps = _canonical_gap(*cases, tol=DEFAULT_TOL)
        assert gaps == [_canonical_gap(t, tol=DEFAULT_TOL)[0] for t in cases]
        assert gaps == [_gap_by_rank_of(t) for t in cases]
        assert gaps[:5] == [None, ("reachability", 0), ("observability", 0),
                            ("reachability", 1), ("reachability", 1)]
        plane = _invariant_plane(4)
        assert _canonical_gap(plane, _random_tuple(5, n=3),
                              tol=DEFAULT_TOL) == [("reachability", 2), None]


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

    def test_tuples_of_two_kinds_are_refused(self):
        # the same arrays read as kinds I and II are different systems,
        # so neither a verdict nor a witness may come back for the pair
        t = gaussian_tuple(2, np.random.default_rng(1))
        t2 = t.with_kind(TYPE_II)
        y1, y2 = (respond_pulse(m, 1.0, 1.0, 0.0, [0.5]).outputs[0]
                  for m in (t, t2))
        assert abs(y1 - y2) > 0.03
        for compare in (io_equivalent, similarity_between):
            with pytest.raises(ShapeMismatch, match="kind"):
                compare(t, t2)

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

    @pytest.mark.parametrize("s, k", [
        (1e-200, 1e200), (1e200, 1e-200), (1e-300, 1.0), (1.0, 1e300),
        (1e-312, 1e307), (1e307, 1e-312)])
    def test_extreme_output_scales_keep_verdict_and_word(self, s, k):
        # ||c|| / ||b|| reaches 1e400 and more: the balancing takes
        # sqrt(||b||) sqrt(||c||) as two roots and scales the unit b and c
        # by it, since the one quotient overflows; at a subnormal ||b||,
        # so does a single factor sqrt(||c||) / sqrt(||b||) on b
        rng = np.random.default_rng(3)
        t, _ = sample_in_G0(3, rng)
        for other, same in ((conjugate(t, _conditioned(rng, 3)), True),
                            (twin_via_T(t), False)):
            for pair in ((t, other), (other, t)):
                verdict = io_equivalent(*pair)
                assert verdict[0] is same and (same or verdict[1])
                scaled = [FourTuple(x.A, x.N, s * x.b, k * x.c) for x in pair]
                assert io_equivalent(*scaled) == verdict

    def test_a_member_with_zero_b_or_c_weighs_nothing(self):
        # every coefficient of a member with c = 0 (or b = 0) is 0, however
        # large its b (or c): against c2 b2 != 0 the pair differs at c b
        t, other = _random_tuple(20, n=3), _random_tuple(21, n=2)
        assert abs(other.c @ other.b) > 0.1
        zero = np.zeros(3)
        for mute in (FourTuple(t.A, t.N, 1e20 * t.b, zero),
                     FourTuple(t.A, t.N, zero, 1e20 * t.c)):
            assert io_equivalent(mute, other) == (False, "")
            assert io_equivalent(other, mute) == (False, "")

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


def _full_build_verdict(t1, t2, tol=DEFAULT_TOL):
    """io_equivalent in its earlier form, as the reference for the early
    stop: every layer up to length n1 + n2 is built first, then the
    lengths are judged in turn."""
    n1 = t1.n
    d = _difference(t1, t2)
    (b1, c1), (b2, c2) = _balanced(t1), _balanced(t2)
    step, _ = _unit(np.hstack([d.A.T, d.N.T]))
    layers, err = zip(*_layers(step, np.concatenate([b1, b2]), d.n))
    assert len(layers) == d.n + 1
    r, _ = _unit(np.concatenate([c1, -c2]))
    for k, Z in enumerate(layers):
        size = max(_norm(Z[:, :n1] @ r[:n1]), _norm(Z[:, n1:] @ r[n1:]))
        if _norm(Z @ r) > tol.residual_tol * size + err[k]:
            return False, _lex_first(r, layers[:k], err, step, tol)
    return True, None


def _brute_verdict(t1, t2, rtol=DEFAULT_TOL.residual_tol):
    """The verdict by literal word products: the first length whose
    coefficient differences exceed rtol times the larger member's
    coefficient norm at that length, and its lex-first word whose own
    difference does."""
    for k in range(t1.n + t2.n + 1):
        words = [w for w in all_words(k) if len(w) == k]
        y1, y2 = (np.array([brute_coefficient(t, w) for w in words])
                  for t in (t1, t2))
        size = rtol * max(np.linalg.norm(y1), np.linalg.norm(y2))
        if np.linalg.norm(y1 - y2) > size:
            return False, words[int(np.argmax(np.abs(y1 - y2) > size))]
    return True, None


def _sweep_pairs(seed):
    """Seeded pairs for the early stop: a G0 draw against its twin, its
    conjugate, and its conjugate with A, N, b or c off by 1e-5 relative;
    and the members of a single-pulse, a pulse-family and a sampled
    pair."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    t, _ = sample_in_G0(n, rng)
    conj = conjugate(t, _conditioned(rng, n))
    off = [1.0 + 1e-5 * (i == seed % 4) for i in range(4)]
    partner = FourTuple(conj.A * off[0], conj.N * off[1], conj.b * off[2],
                        conj.c * off[3])
    single = single_pulse_pair(sample_in_C(n, rng, scale=0.4)[0], 1.0, 1.0)
    family = pulse_family_pair(
        sample_in_G0(n, rng, kind=TYPE_II, scale=0.4)[0], seed % 2, 1.0)
    sampled = sampled_pair(sample_in_B_alpha(1.0, rng)[0], 1.0, 1.0)
    return [(t, twin_via_T(t)), (t, conj), (t, partner),
            *((p.sigma, p.sigma_hat) for p in (single, family, sampled))]


class TestEarlyStop:
    """io_equivalent stops building layers at the first failing length;
    its verdict and word are those of the full build."""

    @pytest.mark.parametrize("seed", range(12))
    def test_sweep_matches_full_build_and_brute_force(self, seed):
        for i, (t1, t2) in enumerate(_sweep_pairs(seed)):
            verdict = io_equivalent(t1, t2)
            assert verdict == _full_build_verdict(t1, t2)
            assert verdict == _brute_verdict(t1, t2)
            assert verdict[0] is (i == 1)

    def test_a_pair_differing_at_cb_builds_one_layer(self, monkeypatch):
        # 6-state members: the full build of the 12-state difference
        # compresses layers 6 (64 rows) and 9 by QR; a pair that differs
        # at c b stops at length 0 and compresses none
        calls = []
        qr = np.linalg.qr

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        t = _random_tuple(5, n=6, scale=0.4)
        other = FourTuple(t.A, t.N, 1.1 * t.b, t.c)
        assert io_equivalent(t, other) == (False, "")
        assert calls == []
        same = conjugate(t, _conditioned(np.random.default_rng(5), 6))
        assert io_equivalent(t, same) == (True, None)
        assert calls == [(64, 12), (96, 12)]

    def test_an_equivalent_pair_judges_lengths_up_to_n1_plus_n2_minus_1(
            self, monkeypatch):
        # the span of the words of the stacked pair's n1 + n2 states is
        # complete at length n1 + n2 - 1, so an equivalent pair builds the
        # n1 + n2 layers of lengths 0 .. n1 + n2 - 1 and no more
        built = []
        layers = realization._layers

        def counted(*args):
            for layer in layers(*args):
                built.append(layer)
                yield layer

        monkeypatch.setattr(realization, "_layers", counted)
        t = _random_tuple(6, n=3)
        # a fourth state that b does not reach
        A, N = (np.block([[M, np.zeros((3, 1))], [np.zeros((1, 3)), x]])
                for M, x in ((t.A, 0.5), (t.N, 2.0)))
        padded = FourTuple(A, N, [*t.b, 0.0], [*t.c, 3.0])
        same = conjugate(t, _conditioned(np.random.default_rng(6), 3))
        for pair in [(t, same), (t, padded), (padded, t)]:
            built.clear()
            assert io_equivalent(*pair) == (True, None)
            assert len(built) == pair[0].n + pair[1].n

    def test_stacked_unit_matches_one_call_per_item(self):
        # each item bitwise as its own _unit call, zero items as they are,
        # entries from subnormal to 1e307; each norm within an ulp of the
        # 2-norm taken at 50 digits
        rng = np.random.default_rng(0)
        for shape in [(9, 4), (9, 7), (8, 4, 4), (8, 7, 7)]:
            scale = 10.0 ** rng.uniform(-300, 300, size=shape[0])
            scale[1], scale[2], scale[4] = 1e307, 1e-320, 1e-310
            X = rng.standard_normal(shape) * scale.reshape(
                (-1,) + (1,) * (len(shape) - 1))
            X[::3] = 0.0
            assert np.array_equal(_unit(X, stack=True),
                                  np.array([_unit(x)[0] for x in X]))
            for x in X:
                exact = _decimal_norm(x)
                assert abs(_unit(x)[1] - exact) <= math.ulp(exact)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_small_scale_hides_no_difference(self, seed):
        # at time and output scale 1e-3, raising N by 0.1% leaves residuals
        # near 1e-6 in absolute terms, but near 1e-3 of the tuple's own N
        loose = Tolerances(residual_tol=1e-5)
        t = _random_tuple(seed, n=3, scale=1e-3)
        T0 = np.random.default_rng(seed + 50).standard_normal((3, 3))
        raised = conjugate(FourTuple(t.A, 1.001 * t.N, t.b, t.c), T0)
        assert io_equivalent(t, raised, loose) == (False, "N")
        with pytest.raises(NotSimilar):
            similarity_between(t, raised, loose)
        w = similarity_between(t, conjugate(t, T0), loose)
        assert np.allclose(w.T, T0) and w.max_residual < 1e-8

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_large_output_scale_hides_no_difference(self, scale):
        # c against 1.01 c: a plain sum of squares overflows both norms of
        # the c residual to inf, and inf / inf is a NaN that must not pass
        rng = np.random.default_rng(3)
        A, N = rng.standard_normal((2, 3, 3))
        b, c = rng.standard_normal((2, 3))
        t = FourTuple(A, N, b, scale * c)
        assert io_equivalent(t, FourTuple(A, N, b, 1.01 * scale * c)) == (
            False, "")
        with pytest.raises(NotSimilar):
            similarity_between(t, FourTuple(A, N, b, 1.01 * scale * c))
        T0 = np.eye(3) + 0.3 * np.random.default_rng(1).standard_normal((3, 3))
        w = similarity_between(t, conjugate(t, T0))
        assert np.allclose(w.T, T0) and w.max_residual < 1e-10

    def test_nan_residual_is_the_max_residual(self):
        # max alone keeps a NaN only when it comes first, and a NaN must
        # fail every "max_residual <= tol" test
        w = SimilarityWitness(np.eye(2), {"A": 0.0, "c": math.nan})
        assert math.isnan(w.max_residual)

    def test_noncanonical_input_is_rejected(self):
        dead = FourTuple(A2, E11, np.zeros(2), C2)
        with pytest.raises(NotCanonical):
            similarity_between(dead, _shift_pair(E11))

    def test_dimension_mismatch_is_not_similar(self):
        t1 = FourTuple([[(-0.5)]], [[0.25]], [2.0], [0.5])
        with pytest.raises(NotSimilar):
            similarity_between(t1, _shift_pair(E11))

    def test_first_noncanonical_tuple_is_reported(self):
        # each tuple's verdict is its own, of one n or not, and canonicality
        # is checked before the dimensions
        t1 = FourTuple([[(-0.5)]], [[0.25]], [2.0], [0.5])
        shift = _shift_pair(E11)
        for a, b, name in [(DEAD, BLIND, "first"), (BLIND, DEAD, "first"),
                           (shift, DIAGONAL, "second"),
                           (DIAGONAL, shift, "first"), (t1, DEAD, "second"),
                           (_invariant_plane(4), shift, "first")]:
            with pytest.raises(NotCanonical, match=f"^{name} tuple is not"):
                similarity_between(a, b)
        with pytest.raises(NotSimilar, match="dimensions differ: 2 vs 1"):
            similarity_between(shift, t1)


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

