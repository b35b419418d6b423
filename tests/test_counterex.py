import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilinid import (DEFAULT_TOL, TYPE_I, TYPE_II, CounterexamplePair,
                     FourTuple, InputClass, PiecewiseConstantInput,
                     Tolerances, classify, expm, in_b_alpha, io_equivalent,
                     phi1, phi_map, psi, pulse_family_pair, rescale,
                     respond_pulse, sample_discrete, sample_in_B_alpha,
                     sample_in_C, sample_in_G0, sample_in_M, sampled_pair,
                     self_dual_T, simulate, single_pulse_pair, twin_via_T)
from bilinid import counterex, realization
from bilinid.counterex import (BETA_TEST_SET, _pulse_certificates,
                               _sampled_agreement, _witness_widths,
                               distinguishing_search, gaussian_tuple)
from bilinid.realization import _difference
from bilinid.simulate import _power_table, _pulse_peaks
from bilinid.errors import (DegenerateRescale, DimensionMismatch,
                            NoDistinguisherFound, NonFiniteEntry, NotInBalpha,
                            NotInC, NotInG0, NoValidL, Overflow)

A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
B2 = np.array([0.0, 1.0])
C2 = np.array([1.0, 0.0])
E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])

ROTOR = FourTuple([[0.0, -1.0], [1.0, 0.0]], np.zeros((2, 2)),
                  [1.0, 0.0], [1.0, 0.0])


def _c_seed(seed_int, n=2):
    t, _ = sample_in_C(n, np.random.default_rng(seed_int), scale=0.4)
    return t


class TestClassify:
    def test_rotor_is_in_b_alpha(self):
        cm = classify(ROTOR, alpha=1.0)
        assert cm.in_B_alpha is True
        assert cm.diagnostics["max_imag_part"] == pytest.approx(1.0)

    def test_b_alpha_undefined_away_from_n2(self):
        cm = classify(gaussian_tuple(3, np.random.default_rng(0)))
        assert cm.in_B_alpha is None
        with pytest.raises(DimensionMismatch):
            in_b_alpha(gaussian_tuple(3, np.random.default_rng(0)), 1.0)

    def test_real_spectrum_is_outside_b_alpha(self):
        t = FourTuple(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                      [1.0, 1.0], [1.0, 1.0])
        assert not in_b_alpha(t, 1.0)

    @pytest.mark.parametrize("k", [1.0, 1e-3, 1e-6, 1e-9])
    def test_b_alpha_is_judged_on_the_spectrum_scale(self, k):
        # slowing time by k scales A, N and b, and every eigenvalue with
        # them: the rotation stays in B_alpha, the real spectrum out
        rotor = FourTuple(k * ROTOR.A, k * ROTOR.N, k * ROTOR.b, ROTOR.c)
        assert in_b_alpha(rotor, 1.0)
        real = FourTuple(k * np.diag([1.0, 2.0]), np.zeros((2, 2)),
                         [k, k], [1.0, 1.0])
        assert not in_b_alpha(real, 1.0)

    def test_uncontrollable_pair_is_not_identifiable(self):
        t = FourTuple(A2, E11, np.zeros(2), C2)
        cm = classify(t)
        assert not cm.in_M and not cm.in_G0
        assert cm.diagnostics["reach_rank"] == 0

    def test_g0_survives_a_large_output_scale(self):
        # T scales with 1/c, so ||N T - T N'|| must be judged relative to
        # ||T|| ||N|| alone
        rng = np.random.default_rng(9)
        for _ in range(20):
            t, _ = sample_in_G0(3, rng)
            cm = classify(FourTuple(t.A, t.N, t.b, 1e9 * t.c))
            assert cm.in_G0
            assert cm.diagnostics["twin_obstruction"] == pytest.approx(
                classify(t).diagnostics["twin_obstruction"], rel=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_c_is_inside_g0(self, seed):
        cm = classify(gaussian_tuple(2, np.random.default_rng(seed)))
        if cm.in_C:
            assert cm.in_G0

    @pytest.mark.parametrize("spectrum, gap", [((800.0, -1.0), 1 - np.exp(-1)),
                                               ((800.0, 900.0), np.exp(700))])
    def test_large_real_eigenvalue_does_not_overflow(self, spectrum, gap):
        # e^800 is past the float range; an eigenvalue past 700 reads as
        # 700, which keeps |e^lam - 1| above 1e304
        t = FourTuple(np.diag(spectrum), A2, [1.0, 1.0], [1.0, 1.0])
        cm = classify(t)
        assert cm.in_C
        assert cm.diagnostics["expQ_unit_eigen_gap"] == pytest.approx(gap)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_amplitude_is_rejected(self, alpha):
        t2, t3 = ROTOR, gaussian_tuple(3, np.random.default_rng(0))
        for call in (lambda: classify(t2, alpha), lambda: classify(t3, alpha),
                     lambda: in_b_alpha(t2, alpha),
                     lambda: sample_in_M(2, alpha, np.random.default_rng(0)),
                     lambda: sample_in_B_alpha(alpha,
                                               np.random.default_rng(0))):
            with pytest.raises(NonFiniteEntry, match="amplitude"):
                call()


class TestTwin:
    def test_shift_example(self):
        t = FourTuple(A2, E11, B2, C2)
        th = twin_via_T(t)
        assert np.allclose(th.N, E22, atol=1e-12)

    def test_requires_g0(self):
        with pytest.raises(NotInG0):
            twin_via_T(FourTuple(A2, np.zeros((2, 2)), B2, C2))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_involution(self, seed):
        t, _ = sample_in_G0(3, np.random.default_rng(seed))
        back = twin_via_T(twin_via_T(t))
        assert np.max(np.abs(back.N - t.N)) <= 1e-8 * max(
            1.0, float(np.max(np.abs(t.N))))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([-2.0, -1.0, 1.0, 2.0]))
    def test_closed_loop_moments_match(self, seed, gamma):
        t, _ = sample_in_G0(2, np.random.default_rng(seed))
        th = twin_via_T(t)
        v1, v2 = t.b, th.b
        G1, G2 = t.A + gamma * t.N, th.A + gamma * th.N
        for _ in range(5):
            y1, y2 = float(t.c @ v1), float(th.c @ v2)
            assert abs(y1 - y2) <= 1e-8 * max(1.0, abs(y1))
            v1, v2 = G1 @ v1, G2 @ v2


def _members_and_not(n, scale, rng):
    """A Gaussian draw (almost surely in C), the draw with N = 0 (outside
    G0), with A made singular (in G0 but e^A - I singular, so outside C)
    and with b = 0 (not canonical)."""
    t = gaussian_tuple(n, rng, scale=scale)
    v = rng.standard_normal(n)
    singular = t.A @ (np.eye(n) - np.outer(v, v) / (v @ v))
    return [t, FourTuple(t.A, np.zeros((n, n)), t.b, t.c),
            FourTuple(singular, t.N, t.b, t.c),
            FourTuple(t.A, t.N, np.zeros(n), t.c)]


def _expected_keys(cm, n):
    keys = ["reach_rank", "obs_rank"]
    if cm.diagnostics["reach_rank"] == n == cm.diagnostics["obs_rank"]:
        keys.append("twin_obstruction")
    if cm.in_G0:
        keys += ["shifted_reach_rank", "shifted_obs_rank",
                 "expQ_unit_eigen_gap"]
    keys.append("alpha_reach_rank")
    if n == 2:
        keys += ["alpha_pair_reach_rank", "alpha_pair_obs_rank",
                 "max_imag_part"]
    return keys


class TestConstructorsDecideOnce:
    """The pair constructors and twin_via_T run only the membership tests
    they need, on one self-dual transform, and agree with classify."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("scale", [0.4, 1.0])
    def test_raises_exactly_when_classify_says_no(self, n, scale):
        rng = np.random.default_rng(100 * n + int(10 * scale))
        seen = set()
        for _ in range(5):
            for t in _members_and_not(n, scale, rng):
                cm = classify(t)
                seen.add((cm.in_G0, cm.in_C))
                assert list(cm.diagnostics) == _expected_keys(cm, n)
                if cm.in_C:
                    single_pulse_pair(t, 1.0, 1.0)
                else:
                    with pytest.raises(NotInC):
                        single_pulse_pair(t, 1.0, 1.0)
                tII = t.with_kind(TYPE_II)
                if cm.in_G0:
                    twin_via_T(t)
                    pulse_family_pair(tII, 1.0, 1.0)
                else:
                    with pytest.raises(NotInG0):
                        twin_via_T(t)
                    with pytest.raises(NotInG0):
                        pulse_family_pair(tII, 1.0, 1.0)
        assert seen == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("n", [2, 3])
    def test_pair_twins_are_twin_via_T_bitwise(self, n):
        tau, alpha = 2.0, -0.5
        seed = _c_seed(11, n)
        pair = single_pulse_pair(seed, tau, alpha)
        assert np.array_equal(pair.sigma_hat.N,
                              twin_via_T(seed).N / (alpha * tau))
        seed, _ = sample_in_G0(n, np.random.default_rng(11), kind=TYPE_II,
                               scale=0.4)
        for tau in (0.0, 1.0):
            pair = pulse_family_pair(seed, tau, 1.0)
            assert np.array_equal(pair.sigma_hat.N, twin_via_T(seed).N)

    def test_krylov_calls_per_pair(self, monkeypatch):
        c_seed = _c_seed(42)
        g0_seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II,
                                  scale=0.4)
        calls = []
        build = realization._krylov

        def spy(As, b, c):
            calls.extend([1, 1] * len(As))    # R and O of each A
            return build(As, b, c)

        # every Krylov matrix is built in realization._krylov, for _linear
        monkeypatch.setattr(realization, "_krylov", spy)
        single_pulse_pair(c_seed, 2.0, 0.5)
        assert len(calls) <= 4
        calls.clear()
        pulse_family_pair(g0_seed, 1.0, 1.0)
        assert len(calls) <= 2

    def test_tuples_built_per_pair(self, monkeypatch):
        # each member is validated once: no rebuild by rescale or with_kind
        c_seed = _c_seed(42)
        g0_seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II,
                                  scale=0.4)
        b_seed, _ = sample_in_B_alpha(1.0, np.random.default_rng(5))
        assert b_seed.kind == TYPE_I
        built = []
        post_init = FourTuple.__post_init__

        def spy(t):
            built.append(1)
            post_init(t)

        monkeypatch.setattr(FourTuple, "__post_init__", spy)
        for make, count in ((lambda: single_pulse_pair(c_seed, 2.0, 0.5), 2),
                            (lambda: pulse_family_pair(g0_seed, 1.0, 1.0), 2),
                            (lambda: sampled_pair(b_seed, 1.0, 1.0), 1)):
            built.clear()
            make()
            assert len(built) == count

    @pytest.mark.parametrize("tau,alpha", [(1.0, 1.0), (2.0, 0.5), (0.3, -1.0)])
    def test_single_pulse_members_compose_psi_and_rescale(self, tau, alpha):
        seed = _c_seed(42)
        Q, N, b0, c = seed.A, seed.N, seed.b, seed.c
        sigma = psi(Q, N, b0, c)
        M = twin_via_T(seed).N
        expected = (rescale(sigma, tau, alpha),
                    rescale(FourTuple(Q - M, M, sigma.b, c), tau, alpha))
        pair = single_pulse_pair(seed, tau, alpha)
        for got, want in zip((pair.sigma, pair.sigma_hat), expected):
            assert got.kind == want.kind == TYPE_I
            for name in "ANbc":
                assert np.array_equal(getattr(got, name), getattr(want, name))


class TestOneKrylovBuildPerSeed:
    """A seed's linear-triple tests share one realization._linear build:
    one _krylov recursion over the stack of every A they test, and that
    build is bitwise one build per matrix."""

    @staticmethod
    def _builds(monkeypatch):
        """The stack size of each _krylov call from now on."""
        builds = []
        build = realization._krylov

        def spy(*args):
            builds.append(len(args[0]))
            return build(*args)
        monkeypatch.setattr(realization, "_krylov", spy)
        return builds

    def test_one_build_per_seed(self, monkeypatch):
        c_seed = _c_seed(42)
        g0_seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II,
                                  scale=0.4)
        builds = self._builds(monkeypatch)
        for make, stack in ((lambda: single_pulse_pair(c_seed, 2.0, 0.5), 2),
                            (lambda: classify(c_seed, 0.5), 3),
                            (lambda: classify(gaussian_tuple(
                                3, np.random.default_rng(0))), 3),
                            (lambda: pulse_family_pair(g0_seed, 1.0, 1.0), 1),
                            (lambda: twin_via_T(c_seed), 1)):
            builds.clear()
            make()
            assert builds == [stack]

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_amplitude_raises_before_the_build(self, alpha,
                                                          monkeypatch):
        seed = _c_seed(42)
        builds = self._builds(monkeypatch)
        with pytest.raises(NonFiniteEntry, match="amplitude"):
            classify(seed, alpha)
        assert builds == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_diagnostics_equal_one_build_per_matrix(self, n, monkeypatch):
        linear = realization._linear

        def one_per_matrix(As, b, c, tol):
            builds = [linear([A], b, c, tol) for A in As]
            return (np.concatenate([K for K, _ in builds]),
                    [ranks for _, (ranks,) in builds])

        rng = np.random.default_rng(300 + n)
        seen = set()
        for scale, alpha in ((0.4, 1.0), (1.0, -0.5), (1.0, 2.0)):
            for t in _members_and_not(n, scale, rng):
                got = classify(t, alpha)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(counterex, "_linear", one_per_matrix)
                    want = classify(t, alpha)
                seen.add((got.in_G0, got.in_C))
                assert (got.in_G0, got.in_C, got.in_M, got.in_B_alpha) == (
                    want.in_G0, want.in_C, want.in_M, want.in_B_alpha)
                assert list(got.diagnostics.items()) == \
                    list(want.diagnostics.items())
        assert seen == {(True, True), (True, False), (False, False)}


class TestPulseGuards:
    """tau must be finite: the pulse constructors need tau > 0, the family
    and distinguishing_search tau >= 0, and each raises DegenerateRescale
    before any work."""

    def test_infinite_period_is_degenerate(self):
        c_seed = _c_seed(42)
        g0_seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II)
        b_seed, _ = sample_in_B_alpha(1.0, np.random.default_rng(5))
        for call in (lambda: rescale(c_seed, np.inf, 1.0),
                     lambda: single_pulse_pair(c_seed, np.inf, 1.0),
                     lambda: sampled_pair(b_seed, np.inf, 1.0),
                     lambda: pulse_family_pair(g0_seed, np.inf, 1.0)):
            with pytest.raises(DegenerateRescale, match="finite tau"):
                call()

    @pytest.mark.parametrize("tau, alpha", [(np.inf, 1.0), (-1.0, 1.0),
                                            (np.nan, 1.0), (1.0, np.nan)])
    def test_search_takes_the_family_guard(self, tau, alpha, monkeypatch):
        pair = single_pulse_pair(_c_seed(42), 1.0, 1.0)
        monkeypatch.setattr(counterex, "_power_table", None)    # no table
        with pytest.raises(DegenerateRescale, match="finite tau >= 0"):
            distinguishing_search(pair, tau, alpha)


def _near_B(ratio, tol):
    """A tuple whose N = N0 + eps E has twin obstruction ratio times
    residual_tol: N0 = T S with S symmetric lies in B(T) (N0 T = T S T =
    T N0'), and eps scales a generic E out of it."""
    rng = np.random.default_rng(71)
    A = rng.standard_normal((3, 3))
    b, c = rng.standard_normal(3), rng.standard_normal(3)
    T = self_dual_T(A, b, c, tol)
    S = rng.standard_normal((3, 3))
    N0 = T @ (S + S.T)
    E = rng.standard_normal((3, 3))
    norm = np.linalg.norm
    eps = (ratio * tol.residual_tol * norm(T) * norm(N0)
           / norm(E @ T - T @ E.T))
    return FourTuple(A, N0 + eps * E, b, c)


class TestG0Margin:
    """G0 is decided on the twin obstruction that diagnostics reports, at
    residual_tol, and scaling b moves neither."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(residual_tol=1e-6)],
                             ids=["default", "residual_1e-6"])
    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_decision_is_the_reported_margin(self, ratio, tol):
        t = _near_B(ratio, tol)
        cm = classify(t, tol=tol)
        obstruction = cm.diagnostics["twin_obstruction"]
        assert obstruction == pytest.approx(ratio * tol.residual_tol, rel=1e-3)
        assert cm.in_G0 == (obstruction > tol.residual_tol) == (ratio > 1)
        if ratio < 1:
            with pytest.raises(NotInG0):
                twin_via_T(t, tol)
        else:
            twin_via_T(t, tol)
        for factor in (1e-3, 1e3):
            scaled = classify(FourTuple(t.A, t.N, factor * t.b, t.c), tol=tol)
            assert scaled.in_G0 == cm.in_G0
            assert scaled.diagnostics["twin_obstruction"] == pytest.approx(
                obstruction, rel=1e-6)


class TestDifferenceSystem:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([TYPE_I, TYPE_II]))
    def test_output_is_the_difference_of_outputs(self, seed, kind):
        rng = np.random.default_rng(seed)
        s1 = gaussian_tuple(int(rng.integers(1, 4)), rng, kind, scale=0.6)
        s2 = gaussian_tuple(int(rng.integers(1, 4)), rng, kind, scale=0.6)
        u = PiecewiseConstantInput([0.0, 0.7, 1.9], rng.uniform(-1.5, 1.5, 3),
                                   4.0)
        grid = np.linspace(0.0, 3.0, 31)
        y1 = simulate(s1, u, grid).outputs
        y2 = simulate(s2, u, grid).outputs
        yd = simulate(_difference(s1, s2), u, grid).outputs
        scale = max(1.0, np.max(np.abs(y1)), np.max(np.abs(y2)))
        assert np.max(np.abs(yd - (y1 - y2))) <= 1e-12 * scale


class TestNormalizationMaps:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_psi_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        Q, N = 0.5 * rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        b0, c = rng.standard_normal(3), rng.standard_normal(3)
        t = psi(Q, N, b0, c)
        # the inverse: Q = A + N, b0 = rho(Q) b / det rho(Q)
        Q2, N2, c2 = t.A + t.N, t.N, t.c
        rho = phi1(Q2, 1.0)
        b02 = rho @ t.b / np.linalg.det(rho)
        assert np.allclose(Q2, Q, atol=1e-9)
        assert np.allclose(N2, N, atol=1e-12)
        assert np.allclose(b02, b0, atol=1e-9)
        assert np.allclose(c2, c, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_phi_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        P, N = 0.5 * rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        b0, c = rng.standard_normal(3), rng.standard_normal(3)
        tau, alpha = 0.7, -0.5
        t = phi_map(P, N, b0, c, tau, alpha)
        # the inverse: P = A + alpha N, b0 = e^{tau P} b
        P2 = t.A + alpha * t.N
        b02 = expm(tau * P2) @ t.b
        assert np.allclose(P2, P, atol=1e-9)
        assert np.allclose(b02, b0, atol=1e-9)

    def test_phi_at_zero_width_skips_the_exponential(self, monkeypatch):
        # e^0 = I exactly, so b0 comes through bitwise as the exponential
        # would give it, and no exponential is taken
        rng = np.random.default_rng(3)
        P, N = rng.standard_normal((2, 3, 3))
        b0, c = rng.standard_normal((2, 3))
        t = phi_map(P, N, b0, c, 0.0, 0.5)
        assert np.array_equal(t.b, expm(-0.0 * P) @ b0)
        assert np.array_equal(t.A, P - 0.5 * N)
        calls = []
        monkeypatch.setattr(counterex, "expm",
                            lambda M: calls.append(M) or expm(M))
        assert np.array_equal(phi_map(P, N, b0, c, 0.0, 0.5).b, t.b)
        assert calls == []
        phi_map(P, N, b0, c, 0.7, 0.5)
        assert len(calls) == 1

    def test_rescale_guards(self):
        t = FourTuple(A2, E11, B2, C2)
        with pytest.raises(DegenerateRescale):
            rescale(t, 0.0, 1.0)
        with pytest.raises(DegenerateRescale):
            rescale(t, 1.0, 0.0)

    def test_nan_period_is_degenerate(self):
        # NaN compares false both ways, so a bare "tau <= 0" lets it in
        with pytest.raises(DegenerateRescale):
            rescale(FourTuple(A2, E11, B2, C2), np.nan, 1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_nan_amplitude_is_degenerate(self, alpha):
        # a bare "alpha == 0" lets NaN and inf in
        with pytest.raises(DegenerateRescale):
            rescale(FourTuple(A2, E11, B2, C2), 1.0, alpha)

    def test_rescale_is_exact_on_pulse_responses(self):
        # responses of the rescaled system under the (tau, alpha) pulse
        # reproduce the original responses under the unit pulse
        rng = np.random.default_rng(3)
        t = FourTuple(0.4 * rng.standard_normal((2, 2)),
                      0.4 * rng.standard_normal((2, 2)),
                      rng.standard_normal(2), rng.standard_normal(2))
        tau, alpha = 2.0, 0.5
        ts = np.linspace(0.1, 4.0, 11)
        y_unit = respond_pulse(t, 1.0, 1.0, 0.0, ts).outputs
        y_resc = respond_pulse(rescale(t, tau, alpha), tau, alpha, 0.0,
                               tau * ts).outputs
        assert np.allclose(y_unit, y_resc, atol=1e-10)


class TestSinglePulsePair:
    def test_certificates(self):
        pair = single_pulse_pair(_c_seed(42), 2.0, 0.5)
        assert pair.agreement_residual < 1e-7
        assert pair.distinguishing_word is not None
        eq, _ = io_equivalent(pair.sigma, pair.sigma_hat)
        assert not eq
        u = pair.distinguishing_input
        assert u is not None
        assert u.breakpoints.size == 2 and u.breakpoints[1] != 2.0
        grid = np.linspace(0.0, u.horizon - 1.0, 120)
        gap = np.max(np.abs(simulate(pair.sigma, u, grid).outputs
                            - simulate(pair.sigma_hat, u, grid).outputs))
        assert gap > 1e-6

    def test_negative_alpha(self):
        pair = single_pulse_pair(_c_seed(7), 0.3, -1.0)
        assert pair.agreement_residual < 1e-7
        assert pair.input_class.kind == "single-pulse"
        assert pair.input_class.tau == 0.3

    def test_seed_must_be_in_c(self):
        with pytest.raises(NotInC):
            single_pulse_pair(FourTuple(A2, np.zeros((2, 2)), B2, C2),
                              1.0, 1.0)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateRescale):
            single_pulse_pair(_c_seed(42), 0.0, 1.0)

    def test_nan_period_is_degenerate(self):
        with pytest.raises(DegenerateRescale):
            single_pulse_pair(_c_seed(42), np.nan, 1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_nan_amplitude_is_degenerate(self, alpha):
        with pytest.raises(DegenerateRescale):
            single_pulse_pair(_c_seed(42), 1.0, alpha)


class TestPulseFamilyPair:
    def test_nan_period_is_degenerate(self):
        seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II)
        with pytest.raises(DegenerateRescale):
            pulse_family_pair(seed, np.nan, 1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_nan_amplitude_is_degenerate(self, alpha):
        seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II)
        for tau in (1.0, 0.0):
            with pytest.raises(DegenerateRescale):
                pulse_family_pair(seed, tau, alpha)

    def test_agreement_across_trailing_levels(self):
        seed, _ = sample_in_G0(2, np.random.default_rng(12), kind=TYPE_II,
                               scale=0.4)
        pair = pulse_family_pair(seed, 1.0, 1.0)
        grid = np.linspace(0.0, 6.0, 121)
        for beta in BETA_TEST_SET:
            d = respond_pulse(pair.sigma, 1.0, 1.0, beta, grid).outputs \
                - respond_pulse(pair.sigma_hat, 1.0, 1.0, beta, grid).outputs
            assert np.max(np.abs(d)) < 1e-7
        eq, word = io_equivalent(pair.sigma, pair.sigma_hat)
        assert not eq and word is not None

    def test_constants_label_at_zero_width(self):
        seed, _ = sample_in_G0(2, np.random.default_rng(1), kind=TYPE_II,
                               scale=0.4)
        pair = pulse_family_pair(seed, 0.0, 1.0)
        assert pair.input_class.kind == "constants"
        assert pair.input_class.tau is None

    def test_kind_i_constants(self):
        seed, _ = sample_in_G0(2, np.random.default_rng(2), kind=TYPE_I,
                               scale=0.4)
        pair = pulse_family_pair(seed, 0.0, 1.0, kind=TYPE_I)
        grid = np.linspace(0.1, 4.0, 40)
        for beta in (-1.0, 0.5, 2.0):
            d = respond_pulse(pair.sigma, 0.0, beta, beta, grid).outputs \
                - respond_pulse(pair.sigma_hat, 0.0, beta, beta, grid).outputs
            assert np.max(np.abs(d)) < 1e-8

    def test_kind_i_needs_zero_width(self):
        seed, _ = sample_in_G0(2, np.random.default_rng(2), scale=0.4)
        with pytest.raises(ValueError):
            pulse_family_pair(seed, 1.0, 1.0, kind=TYPE_I)

    def test_seed_must_be_in_g0(self):
        with pytest.raises(NotInG0):
            pulse_family_pair(FourTuple(A2, np.zeros((2, 2)), B2, C2,
                                        TYPE_II), 1.0, 1.0)


def _family_pair(seed_int, kind, tau, n=2):
    seed, _ = sample_in_G0(n, np.random.default_rng(seed_int), kind=kind,
                           scale=0.4)
    return pulse_family_pair(seed, tau, 1.0, kind=kind)


def _width_table(Z, R, k):
    """The outputs y[i, j] at the times j delta of the table's pulse of
    width k[i] steps followed by the level 0, entry by entry from the
    definition: c Z_j while the pulse lasts (c = R_0), R_{j-k} Z_k after
    it. The products are formed as _pulse_peaks forms them, the tail as
    Z_k R_m'."""
    k = list(k)
    front, tail = R[0] @ Z.T, Z[k] @ R.T
    return np.array([[front[j] if j < w else tail[i, j - w]
                      for j in range(len(Z))] for i, w in enumerate(k)])


def _peaks_by_accumulate(Z, R, k):
    """_pulse_peaks in its earlier form, the reference for the row-wise
    scan: the widths as columns of R Z_k', whose running maxima down the
    column are read at row len(Z) - 1 - k."""
    front = np.maximum.accumulate(np.abs(np.append(0.0, R[0] @ Z.T)))
    tail = np.maximum.accumulate(np.abs(R @ Z[k].T), axis=0)
    return np.maximum(front[k], tail[len(Z) - 1 - k, np.arange(k.size)])


def _moment_gap_by_level(G, Z, c, n1):
    """realization._moment_gap in its earlier form, the reference for the
    stacked scaling: one _unit call per level for G and for Z."""
    m = G.shape[-1]
    G = np.array([realization._unit(g)[0] for g in G])
    K = [np.array([realization._unit(z)[0] for z in Z])]
    for _ in range(1, m):
        K.append((G @ K[-1][:, :, None])[:, :, 0])
    r, _ = realization._unit(c)
    K = np.array(K)
    y1, y2 = K[..., :n1] @ r[:n1], K[..., n1:] @ r[n1:]
    size = np.maximum(np.abs(y1), np.abs(y2))
    allowance = realization._ROUND * m * np.arange(1, m + 1)[:, None]
    gap = np.abs(y1 + y2) - allowance
    return max(0.0, float(np.max(gap / np.maximum(size, realization._TINY))))


def _separation(pair):
    u = pair.distinguishing_input
    grid = np.linspace(0.0, u.horizon - 1.0, 160)
    return np.max(np.abs(simulate(pair.sigma, u, grid).outputs
                         - simulate(pair.sigma_hat, u, grid).outputs))


class TestDistinguishingSearch:
    @pytest.mark.parametrize("case", [
        ("single", 42, 2.0, 0.5), ("single", 7, 0.3, -1.0),
        ("family", 12, 1.0, 1.0), ("constants", 1, 0.0, 1.0),
        ("constants-I", 2, 0.0, 1.0), ("family", 12, 2.0, 1.0)])
    def test_width_table_matches_a_march_scan(self, case):
        # the power table against respond_pulse at the same times: every
        # witness width (trailing level 0) on [0, 5s] at delta = s/100; its
        # row at the pulse end is the state the trailing levels of the
        # agreement start from; and the members, each simulated on its
        # own, agree under every class input
        kind, seed_int, tau, alpha = case
        s = tau or 1.0
        delta = s / 100
        if kind == "single":
            pair = single_pulse_pair(_c_seed(seed_int, 3), tau, alpha)
            betas = [0.0]
        else:
            pair = _family_pair(seed_int, TYPE_I if kind == "constants-I"
                                else TYPE_II, tau, n=3)
            betas = BETA_TEST_SET * max(1.0, abs(alpha))
        d = _difference(pair.sigma, pair.sigma_hat)

        def scan(inputs, grid):
            return [np.array([respond_pulse(m, w, alpha, beta, grid).outputs
                              for w, beta in inputs])
                    for m in (d, pair.sigma, pair.sigma_hat)]

        # the widths the search scans: whole steps, tau left out
        k = _witness_widths(tau)
        assert k.size == (31 if tau else 32)
        assert not np.any(np.isclose(k * delta, tau))
        march, y1, y2 = scan([(w, 0.0) for w in k * delta],
                             delta * np.arange(501))
        Z, R = _power_table(d, alpha, delta, 501)
        y = _width_table(Z, R, k)
        scale = max(np.max(np.abs(y1)), np.max(np.abs(y2)))
        assert np.max(np.abs(y - march)) <= 1e-12 * scale
        peaks = _pulse_peaks(Z, R, k)
        assert np.array_equal(peaks, np.max(np.abs(y), axis=1))
        best = int(np.argmax(np.max(np.abs(march), axis=1)))
        assert int(np.argmax(peaks)) == best
        u = distinguishing_search(pair, tau, alpha)
        assert u.breakpoints.tolist() == [0.0, k[best] * delta]
        assert u.levels.tolist() == [alpha, 0.0]
        assert pair.distinguishing_input.breakpoints.tolist() == \
            u.breakpoints.tolist()

        end = respond_pulse(d, tau, alpha, 0.0, [tau], with_states=True)
        assert np.max(np.abs(Z[round(tau / delta), :d.n] - end.states[0])) \
            <= 1e-12 * np.max(np.abs(Z[:, :d.n]))
        _, y1, y2 = scan([(tau, beta) for beta in betas],
                         np.linspace(0.0, tau + 5.0 * s, 301))
        scale = max(np.max(np.abs(y1)), np.max(np.abs(y2)))
        assert np.max(np.abs(y1 - y2)) <= 1e-11 * scale
        assert pair.agreement_residual <= 1e-10

    @pytest.mark.parametrize("k", [[0], [39], [0, 1, 39], [17, 3, 39, 0, 8],
                                   [5, 0]],
                             ids=["0", "last", "both-ends", "unsorted",
                                  "0-in-last-row"])
    def test_peak_scan_reads_each_width_to_the_table_end(self, k):
        # each width's tail is one segment, from its row's start to
        # len(Z) - k; k = 0 in the last row ends it at the array's end,
        # where a bare np.maximum.reduceat raises IndexError
        rng = np.random.default_rng(29)
        Z, R = rng.standard_normal((2, 40, 4))
        k = np.array(k)
        assert np.array_equal(_pulse_peaks(Z, R, k),
                              np.max(np.abs(_width_table(Z, R, k)), axis=1))

    @pytest.mark.parametrize("tau", [1e-3, 2000.0])
    def test_family_table_size_does_not_follow_tau(self, tau, monkeypatch):
        # the pair's one table has 501 rows at delta = tau/100 whatever tau;
        # on a member, whose outputs do not cancel, its rows match
        # respond_pulse, and the members agree on every trailing level over
        # [tau, tau + 5] when each is simulated on its own
        calls = []

        def spy(t, *args):
            calls.append(args)
            return _power_table(t, *args)

        monkeypatch.setattr(counterex, "_power_table", spy)
        # P has imaginary eigenvalues, so e^{-tau P} b0 stays O(1)
        seed = FourTuple([[0.0, -0.5], [0.5, 0.0]],
                         [[0.3, -0.2], [0.1, 0.4]], [1.0, 0.3], [0.7, -0.4],
                         TYPE_II)
        pair = pulse_family_pair(seed, tau, 1.0)
        (alpha, delta, points), = calls
        assert (alpha, delta, points) == (1.0, tau / 100, 501)
        Z, R = _power_table(pair.sigma, alpha, delta, points)
        y = _width_table(Z, R, [100])[0]
        march = respond_pulse(pair.sigma, tau, 1.0, 0.0,
                              delta * np.arange(501)).outputs
        assert np.max(np.abs(march)) > 0.1
        assert np.allclose(y, march, rtol=1e-9,
                           atol=1e-9 * np.max(np.abs(march)))
        grid = np.append(delta * np.arange(100), tau + 0.01 * np.arange(501))
        y1, y2 = (np.array([respond_pulse(m, tau, 1.0, b, grid).outputs
                            for b in BETA_TEST_SET])
                  for m in (pair.sigma, pair.sigma_hat))
        scale = max(np.max(np.abs(y1)), np.max(np.abs(y2)))
        assert np.max(np.abs(y1 - y2)) <= 1e-11 * scale
        assert pair.agreement_residual < 1e-9

    @pytest.mark.parametrize("seed_int", [4, 5])
    def test_train_table_matches_the_sampled_recursion(self, seed_int):
        # the table at delta = tau reads the pulse trains alpha^k 0^(10 - k)
        # of the sampled recursion, and the members' samples agree on them
        t, _ = sample_in_B_alpha(1.0, np.random.default_rng(seed_int))
        pair = sampled_pair(t, 1.0, 1.0)
        d = _difference(pair.sigma, pair.sigma_hat)
        recursion, y1, y2 = (
            np.array([[y for _, y in sample_discrete(m, 1.0, [1.0] * k
                                                     + [0.0] * (10 - k))]
                      for k in range(7)])
            for m in (d, pair.sigma, pair.sigma_hat))
        Z, R = _power_table(d, 1.0, 1.0, 11)
        y = _width_table(Z, R, range(7))
        scale = max(np.max(np.abs(y1)), np.max(np.abs(y2)))
        assert np.max(np.abs(y - recursion)) <= 1e-12 * scale
        assert np.array_equal(_pulse_peaks(Z, R, np.arange(7)),
                              np.max(np.abs(y), axis=1))
        assert np.max(np.abs(y1 - y2)) <= 1e-12 * scale
        assert pair.agreement_residual <= 1e-10

    @pytest.mark.parametrize("kind, tau", [(TYPE_II, 1.0), (TYPE_II, 0.0),
                                           (TYPE_I, 0.0)])
    def test_family_pairs_carry_a_pulse_of_another_width(self, kind, tau):
        for seed_int in range(6):
            pair = _family_pair(seed_int, kind, tau, n=2 + seed_int % 2)
            u = pair.distinguishing_input
            assert u is not None and u.levels.tolist() == [1.0, 0.0]
            assert u.breakpoints.size == 2 and u.breakpoints[1] != tau
            assert _separation(pair) > 1e-6

    def test_no_pulse_separates_an_equal_pair(self):
        seed, _ = sample_in_G0(2, np.random.default_rng(3), kind=TYPE_II)
        cls = InputClass("constants", None, 1.0)
        pair = CounterexamplePair(seed, seed, cls, 0.0, "A")
        with pytest.raises(NoDistinguisherFound):
            distinguishing_search(pair, 0.0, 1.0)

    def test_overflow_raises_instead_of_a_width(self):
        # every step is e^2, but the table's 500 steps reach e^1000
        sigma = FourTuple([[200.0]], [[0.0]], [1.0], [1.0], TYPE_II)
        sigma_hat = FourTuple([[200.0]], [[1.0]], [1.0], [1.0], TYPE_II)
        pair = CounterexamplePair(sigma, sigma_hat,
                                  InputClass("constants", None, 1.0), 0.0, "N")
        with pytest.raises(Overflow):
            distinguishing_search(pair, 0.0, 1.0)


def _recorded(make, seed, tau, alpha):
    """The pair make(seed, tau, alpha), its tau and alpha, and the
    arguments of the _pulse_peaks and _moment_gap calls the constructor
    made, recorded as it ran."""
    args = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_pulse_peaks", "_moment_gap"):
            def spy(*a, fn=getattr(counterex, name), name=name):
                args[name] = a
                return fn(*a)
            mp.setattr(counterex, name, spy)
        pair = make(seed, tau, alpha)
    return pair, tau, alpha, args["_pulse_peaks"], args["_moment_gap"]


class TestCertificateReductions:
    """The row-wise peak scan and the stacked moment scaling against their
    earlier forms, on the arguments the pair constructors pass. A stacked
    sum of squares is the dot product _norm takes, so the moment gap
    matches exactly. The peak scan forms its tail products as Z_k R_m'
    instead of R_m Z_k', and BLAS may sum a length-m dot product in another
    order for another shape: each product then moves by at most
    m eps |Z_k| |R_m|' from the exact one (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, sec. 3.1), so the two peaks may differ
    by twice that and no more."""

    def _pairs(self):
        for s in range(8):
            n = 2 + s % 2
            seed, _ = sample_in_C(n, np.random.default_rng(200 + s))
            tau, alpha = ((1.0, 1.0), (0.3, -1.0))[s % 2]
            yield _recorded(single_pulse_pair, seed, tau, alpha)
            seed, _ = sample_in_G0(n, np.random.default_rng(200 + s),
                                   kind=TYPE_II)
            yield _recorded(pulse_family_pair, seed, float(s % 2), 1.0)

    def test_peaks_match_the_running_maximum(self):
        eps = np.finfo(float).eps
        for *_, (Z, R, witness), _ in self._pairs():
            for k in (witness, np.arange(len(Z))):
                bound = 2 * Z.shape[1] * eps * np.max(
                    np.abs(Z[k]) @ np.abs(R).T, axis=1)
                gap = np.abs(_pulse_peaks(Z, R, k)
                             - _peaks_by_accumulate(Z, R, k))
                assert np.all(gap <= bound)

    def test_moment_gap_matches_one_unit_call_per_level(self):
        for pair, *_, args in self._pairs():
            assert realization._moment_gap(*args) == pair.agreement_residual
            assert pair.agreement_residual == _moment_gap_by_level(*args)
            # a partner off by 1e-6 gives a nonzero gap, the same both ways
            G, Z, c, n1 = args
            off = c.copy()
            off[n1:] *= 1.0 + 1e-6
            assert realization._moment_gap(G, Z, off, n1) == \
                _moment_gap_by_level(G, Z, off, n1) > 0.0

    def test_search_computes_no_moment_gap(self, monkeypatch):
        pairs = [(pair, tau, alpha) for pair, tau, alpha, *_ in self._pairs()]
        calls = []
        monkeypatch.setattr(counterex, "_moment_gap",
                            lambda *args: calls.append(args))
        for pair, tau, alpha in pairs:
            u = distinguishing_search(pair, tau, alpha)
            want = pair.distinguishing_input
            assert (u.breakpoints.tolist(), u.levels.tolist(), u.horizon) \
                == (want.breakpoints.tolist(), want.levels.tolist(),
                    want.horizon)
        assert calls == []


class TestSampledPair:
    def test_rotor_aliases_to_the_same_transition(self):
        pair = sampled_pair(ROTOR, 1.0, 1.0, l=1)
        # at u = 1 and tau = 1: F = expm(A + N) and g = phi1(A + N, 1) b
        G, Gh = (s.A + s.N for s in (pair.sigma, pair.sigma_hat))
        expect = [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
        assert np.allclose(expm(G), expect, atol=1e-12)
        assert np.allclose(expm(Gh), expect, atol=1e-9)
        g = phi1(G, 1.0) @ pair.sigma.b
        gh = phi1(Gh, 1.0) @ pair.sigma_hat.b
        assert np.allclose(g, gh, atol=1e-9)

    def test_rotor_continuous_separation(self):
        pair = sampled_pair(ROTOR, 1.0, 1.0, l=1)
        grid = np.linspace(0.0, 3.0, 301)
        d = respond_pulse(pair.sigma, 0.0, 1.0, 1.0, grid).outputs \
            - respond_pulse(pair.sigma_hat, 0.0, 1.0, 1.0, grid).outputs
        assert np.max(np.abs(d)) > 1e-3

    def test_sampled_agreement_on_pulse_trains(self):
        t, _ = sample_in_B_alpha(1.0, np.random.default_rng(4))
        pair = sampled_pair(t, 1.0, 1.0)
        assert pair.agreement_residual < 1e-9
        assert pair.distinguishing_input is not None

    def test_explicit_zero_l_rejected(self):
        with pytest.raises(NoValidL):
            sampled_pair(ROTOR, 1.0, 1.0, l=0)

    def test_requires_complex_closed_loop(self):
        t = FourTuple(np.diag([1.0, 2.0]), np.zeros((2, 2)),
                      [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(NotInBalpha):
            sampled_pair(t, 1.0, 1.0)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            sampled_pair(gaussian_tuple(3, np.random.default_rng(0)), 1.0, 1.0)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateRescale):
            sampled_pair(ROTOR, -1.0, 1.0)
        with pytest.raises(DegenerateRescale):
            sampled_pair(ROTOR, 1.0, 0.0)

    def test_nan_period_is_degenerate(self):
        with pytest.raises(DegenerateRescale):
            sampled_pair(ROTOR, np.nan, 1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_nan_amplitude_is_degenerate(self, alpha):
        with pytest.raises(DegenerateRescale):
            sampled_pair(ROTOR, 1.0, alpha)


class TestMomentAgreement:
    """Every pair's agreement residual is the relative moment gap of its
    difference system: draws of any growth and scale agree to rounding,
    and a partner 1e-6 off, relative, is reported."""

    @pytest.mark.parametrize("tau, alpha", [(1.0, 1.0), (0.3, -1.0)])
    def test_unfiltered_single_pulse_pairs(self, tau, alpha):
        for s in range(60):
            seed, _ = sample_in_C(2 + s % 2, np.random.default_rng(1000 + s))
            pair = single_pulse_pair(seed, tau, alpha)
            assert pair.agreement_residual <= 1e-10

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_unfiltered_family_pairs(self, tau):
        for s in range(60):
            seed, _ = sample_in_G0(2 + s % 2, np.random.default_rng(1000 + s),
                                   kind=TYPE_II)
            assert pulse_family_pair(seed, tau, 1.0).agreement_residual <= 1e-10

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    def test_unfiltered_sampled_pairs(self, scale):
        for s in range(40):
            t, _ = sample_in_B_alpha(1.0, np.random.default_rng(s),
                                     scale=scale)
            assert sampled_pair(t, 1.0, 1.0).agreement_residual <= 1e-10

    def test_perturbed_partners_are_reported(self):
        # the rule gives each constructor's own residual, and a partner
        # whose N or b is off by 1e-6, relative, fails it
        tol = DEFAULT_TOL.residual_tol
        seed, _ = sample_in_C(2, np.random.default_rng(1000))
        pair = single_pulse_pair(seed, 1.0, 1.0)
        h = pair.sigma_hat
        gap = [_pulse_certificates(pair.sigma, m, 1.0, 1.0, [0.0])[0]
               for m in (h, FourTuple(h.A, h.N * (1 + 1e-6), h.b, h.c))]
        assert gap[0] == pair.agreement_residual and gap[1] > tol

        seed, _ = sample_in_G0(2, np.random.default_rng(1000), kind=TYPE_II)
        pair = pulse_family_pair(seed, 1.0, 1.0)
        h = pair.sigma_hat
        gap = [_pulse_certificates(pair.sigma, m, 1.0, 1.0, BETA_TEST_SET)[0]
               for m in (h, FourTuple(h.A, h.N, h.b * (1 + 1e-6), h.c,
                                      TYPE_II))]
        assert gap[0] == pair.agreement_residual and gap[1] > tol

        t, _ = sample_in_B_alpha(1.0, np.random.default_rng(0))
        pair = sampled_pair(t, 1.0, 1.0)
        h = pair.sigma_hat
        gap = [_sampled_agreement(_difference(pair.sigma, m), 1.0, 1.0)
               for m in (h, FourTuple(h.A, h.N, h.b * (1 + 1e-6), h.c))]
        assert gap[0] == pair.agreement_residual and gap[1] > tol


class TestSamplers:
    def test_samplers_return_members(self):
        rng = np.random.default_rng(20)
        t, tries = sample_in_G0(2, rng)
        assert classify(t).in_G0 and tries >= 1
        t, _ = sample_in_C(2, rng)
        assert classify(t).in_C
        t, _ = sample_in_M(3, -0.5, rng)
        assert classify(t, alpha=-0.5).in_M
        t, _ = sample_in_B_alpha(1.0, rng)
        assert in_b_alpha(t, 1.0)

    def test_kind_is_threaded_through(self):
        t, _ = sample_in_G0(2, np.random.default_rng(0), kind=TYPE_II)
        assert t.kind == TYPE_II
