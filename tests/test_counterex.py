import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilinid import (TYPE_I, TYPE_II, FourTuple, PiecewiseConstantInput,
                     SampledSystem, classify, in_b_alpha, io_equivalent,
                     phi_inverse, phi_map, psi, psi_inverse, pulse_family_pair,
                     rescale, respond_pulse, sample_in_B_alpha, sample_in_C,
                     sample_in_G0, sample_in_M, sampled_pair, simulate,
                     single_pulse_pair, twin_via_T)
from bilinid.counterex import BETA_TEST_SET, gaussian_tuple
from bilinid.realization import _difference
from bilinid.errors import (DegenerateRescale, DimensionMismatch,
                            NotInBalpha, NotInC, NotInG0, NoValidL)

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
        Q2, N2, b02, c2 = psi_inverse(psi(Q, N, b0, c))
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
        t = phi_map(P, N, b0, c, 0.7, -0.5)
        P2, N2, b02, c2 = phi_inverse(t, 0.7, -0.5)
        assert np.allclose(P2, P, atol=1e-9)
        assert np.allclose(b02, b0, atol=1e-9)

    def test_rescale_guards(self):
        t = FourTuple(A2, E11, B2, C2)
        with pytest.raises(DegenerateRescale):
            rescale(t, 0.0, 1.0)
        with pytest.raises(DegenerateRescale):
            rescale(t, 1.0, 0.0)

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


class TestPulseFamilyPair:
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


class TestSampledPair:
    def test_rotor_aliases_to_the_same_transition(self):
        pair = sampled_pair(ROTOR, 1.0, 1.0, l=1)
        F = SampledSystem(pair.sigma, 1.0).F_of_level(1.0)
        Fh = SampledSystem(pair.sigma_hat, 1.0).F_of_level(1.0)
        expect = [[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]
        assert np.allclose(F, expect, atol=1e-12)
        assert np.allclose(Fh, expect, atol=1e-9)
        g = SampledSystem(pair.sigma, 1.0).g_of_level(1.0)
        gh = SampledSystem(pair.sigma_hat, 1.0).g_of_level(1.0)
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
