import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from bilinid import (FourTuple, PiecewiseConstantInput, constant_input, phi1,
                     pulse_input, respond_pulse, sample_discrete, simulate)
from bilinid.errors import GridOutOfRange, Overflow
from bilinid.simulate import _march, _power_table

from oracles import simulate_rk4

INTEGRATOR = FourTuple([[0.0]], [[0.0]], [1.0], [1.0])


def _random_system(seed, kind="I", scale=0.7):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    return FourTuple(scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal(n),
                     scale * rng.standard_normal(n), kind)


def _random_input(seed, horizon=3.5):
    rng = np.random.default_rng(seed + 17)
    k = int(rng.integers(1, 5))
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.1, horizon - 0.5, k))])
    return PiecewiseConstantInput(bp, rng.uniform(-1.5, 1.5, k + 1), horizon)


class TestSimulate:
    def test_integrator_pulse(self):
        tr = respond_pulse(INTEGRATOR, 1.0, 1.0, 0.0, [0.5, 2.0])
        assert tr.outputs.tolist() == [0.5, 1.0]

    def test_times_echo_the_grid(self):
        grid = [0.0, 0.3, 1.7]
        tr = simulate(INTEGRATOR, constant_input(1.0, 2.0), grid)
        assert tr.times.tolist() == grid
        assert tr.outputs.tolist() == grid  # integral of u = 1

    def test_states_shape(self):
        t = _random_system(4, "II")
        tr = simulate(t, constant_input(0.5, 2.0), [0.5, 1.0], with_states=True)
        assert tr.states.shape == (2, t.n)
        assert tr.outputs[1] == pytest.approx(float(t.c @ tr.states[1]))

    def test_kind_ii_initial_state(self):
        t = _random_system(5, "II")
        tr = simulate(t, constant_input(0.0, 1.0), [0.0], with_states=True)
        assert np.allclose(tr.states[0], t.b)
        assert tr.outputs[0] == pytest.approx(float(t.c @ t.b))

    def test_grid_must_stay_inside_horizon(self):
        with pytest.raises(GridOutOfRange):
            simulate(INTEGRATOR, constant_input(1.0, 2.0), [1.0, 2.5])

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            simulate(INTEGRATOR, constant_input(1.0, 2.0), [1.0, 1.0])
        with pytest.raises(ValueError):
            simulate(INTEGRATOR, constant_input(1.0, 2.0), [])

    def test_zero_width_pulse_is_the_constant_response(self):
        t = _random_system(6)
        grid = np.linspace(0.1, 2.0, 7)
        a = respond_pulse(t, 0.0, 5.0, 0.75, grid).outputs
        b = simulate(t, constant_input(0.75, 3.0), grid).outputs
        assert np.allclose(a, b, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["I", "II"]))
    def test_matches_rk4_oracle(self, seed, kind):
        t = _random_system(seed, kind)
        u = _random_input(seed)
        grid = np.linspace(0.2, 3.0, 9)  # deliberately off the breakpoints
        ours = simulate(t, u, grid).outputs
        ref = simulate_rk4(t, u, grid)
        assert np.allclose(ours, ref, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_repeated_steps_across_breakpoints_match_rk4(self, kind):
        # grid spacing 0.25 is exact in binary, so most steps share one
        # (level, length) pair; the breakpoints fall between grid points
        t = _random_system(21, kind)
        u = PiecewiseConstantInput([0.0, 0.6, 1.3, 2.1], [1.2, -0.7, 0.4, 1.2],
                                   3.5)
        grid = 0.25 * np.arange(0, 13)
        ours = simulate(t, u, grid).outputs
        ref = simulate_rk4(t, u, grid)
        assert np.allclose(ours, ref, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_levels_repeated_at_several_step_lengths_match_rk4(self, kind):
        # steps (0.5, 0.25) and (0.25, 0.5) both occur, as (level, length),
        # and so do 0.0 and -0.0 at lengths 0.25 and 0.5: each distinct
        # step keeps its own exponential, and -0.0 acts as 0.0
        t = _random_system(33, kind)
        u = PiecewiseConstantInput([0.0, 1.0, 1.75, 2.0, 2.5, 3.0],
                                   [0.5, 0.25, -0.0, 0.0, 0.5, 0.25], 4.0)
        grid = np.array([0.25, 0.5, 1.0, 1.25, 1.75, 2.0, 2.5, 2.75, 3.0,
                         3.5])
        ours = simulate(t, u, grid).outputs
        ref = simulate_rk4(t, u, grid)
        assert np.allclose(ours, ref, atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("events", [1, 15, 16, 17, 33, 300])
    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_block_seams_match_a_step_by_step_loop(self, events, kind):
        # the march takes prefix products in blocks of 16 steps; counts on
        # either side of a seam, and many seams, must match one matvec per
        # event from expm of generators built here. States are judged on
        # their own row's scale, outputs on the scale of c x
        t = _random_system(51, kind)
        h = 0.125  # exact in binary, so every step has this length
        levels = np.random.default_rng(52).choice([-1.0, 0.5, 1.0], events)
        u = PiecewiseConstantInput(h * np.arange(events), levels,
                                   h * events + 1.0)
        tr = simulate(t, u, h * np.arange(1, events + 1), with_states=True)
        x = np.eye(t.n + 1)[-1] if kind == "I" else t.b
        X = []
        for v in levels:
            G = t.A + v * t.N
            if kind == "I":
                G = np.block([[G, v * t.b[:, None]], [np.zeros((1, t.n + 1))]])
            x = scipy.linalg.expm(h * G) @ x
            X.append(x[:t.n])
        X = np.array(X)
        assert tr.states.shape == X.shape
        scale = np.max(np.abs(X), axis=-1, keepdims=True)
        assert np.all(np.abs(tr.states - X) <= 1e-12 * scale)
        assert np.all(np.abs(tr.outputs - X @ t.c)
                      <= 1e-12 * (np.abs(X) @ np.abs(t.c)))

    def test_overflowing_step_raises(self):
        t = FourTuple([[800.0]], [[0.0]], [1.0], [1.0])
        with pytest.raises(Overflow):
            simulate(t, constant_input(0.0, 2.0), [1.0])

    @pytest.mark.parametrize("kind", ["I", "II"])
    def test_overflow_built_over_many_steps_raises(self, kind):
        # each step multiplies by about e^20, which is finite; fifty of
        # them exceed the range of a float
        t = FourTuple([[200.0]], [[0.0]], [1.0], [1.0], kind)
        with pytest.raises(Overflow):
            respond_pulse(t, 0.0, 1.0, 1.0, np.linspace(0.0, 5.0, 50))

    @pytest.mark.parametrize("rate", [20.0, 50.0])
    def test_unexcited_fast_mode_overflows_only_past_a_block(self, rate):
        # the start state never excites the e^{rate} mode. A block's
        # prefix products reach its 16th power: e^{320} is finite, and the
        # outputs stay e^{-t}; e^{800} is not, so Overflow, never a wrong row
        t = FourTuple([[-1.0, 0.0], [0.0, rate]], np.zeros((2, 2)),
                      [1.0, 0.0], [1.0, 0.0], "II")
        grid = np.arange(1.0, 502.0)
        if rate == 50.0:
            with pytest.raises(Overflow):
                simulate(t, constant_input(0.0, 502.0), grid)
        else:
            y = simulate(t, constant_input(0.0, 502.0), grid).outputs
            assert np.allclose(y, np.exp(-grid), rtol=1e-12, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_semigroup_restart(self, seed):
        t = _random_system(seed)
        u = _random_input(seed)
        grid = np.linspace(0.5, 3.0, 6)
        full = simulate(t, u, grid, with_states=True)
        tail = _march(t, u, grid[2:], full.states[2], grid[2], False)
        assert np.allclose(tail.outputs, full.outputs[2:], atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([-2.0, 0.5, 3.0]))
    def test_kind_i_response_is_linear_in_b(self, seed, factor):
        t = _random_system(seed, "I")
        scaled = FourTuple(t.A, t.N, factor * t.b, t.c, "I")
        u = _random_input(seed)
        grid = np.linspace(0.3, 3.0, 7)
        y = simulate(t, u, grid).outputs
        ys = simulate(scaled, u, grid).outputs
        assert np.allclose(ys, factor * y, atol=1e-9, rtol=1e-9)


def _table_by_steps(t, alpha, delta, trail, points):
    """Z and R of _power_table by one matvec per row, from expm of the
    generators built here: [[A + vN, v b], [0, 0]] on [x; 1] for kind I."""
    def step(level, h):
        G = t.A + level * t.N
        if t.kind == "I":
            G = np.block([[G, level * t.b[:, None]], [np.zeros((1, t.n + 1))]])
        return scipy.linalg.expm(h * G)

    m = t.n + (t.kind == "I")
    Z = [np.eye(m)[-1] if t.kind == "I" else t.b]
    E = step(alpha, delta)
    for _ in range(1, points):
        Z.append(E @ Z[-1])
    R = []
    for beta, h in trail:
        F = step(beta, h)
        R.append([np.pad(t.c, (0, m - t.n))])
        for _ in range(1, points):
            R[-1].append(R[-1][-1] @ F)
    return np.array(Z), np.array(R).reshape(len(trail), points, m)


class TestPowerTable:
    @pytest.mark.parametrize("points", [1, 2, 11, 301, 501])
    @pytest.mark.parametrize("kind", ["I", "II"])
    @pytest.mark.parametrize("trail", [[(0.0, 0.01)], [(0.0, 0.02)]])
    def test_squared_rows_match_a_row_by_row_loop(self, points, kind, trail):
        # rows p .. 2p-1 come from rows 0 .. p-1 times the p-th power; every
        # row stays within 1e-12 of its own scale of one matvec per step.
        # The table steps the level 1.3 and the level 0 by one delta, so the
        # loop's one trailing level is 0 at that step
        t = _random_system(41, kind)
        (_, delta), = trail
        Z, R = _power_table(t, 1.3, delta, points)
        Z0, (R0,) = _table_by_steps(t, 1.3, delta, trail, points)
        assert Z.shape == Z0.shape == R.shape == R0.shape
        assert len(Z) == points
        for got, ref in ((Z, Z0), (R, R0)):
            scale = np.max(np.abs(ref), axis=-1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 1e-12 * scale)

    def test_rows_finite_when_the_next_power_would_overflow(self):
        # e^{2.3 j} is finite for j < 300, and so are the powers up to
        # e^{2.3 * 256}; the next square e^{2.3 * 512} would overflow, and
        # no row needs it, so the table must neither raise nor lose a row
        t = FourTuple([[2.3]], [[0.0]], [1.0], [1.0], "II")
        Z, R = _power_table(t, 0.0, 1.0, 300)
        expect = np.exp(2.3 * np.arange(300))
        assert np.allclose(Z[:, 0], expect, rtol=1e-12, atol=0.0)
        assert np.allclose(R[:, 0], expect, rtol=1e-12, atol=0.0)

    def test_overflowing_power_of_an_unexcited_mode_raises(self):
        # the start state never excites the e^{20} mode, so every row is
        # finite, but its 64th power is not: Overflow, never a wrong row
        t = FourTuple([[-1.0, 0.0], [0.0, 20.0]], np.zeros((2, 2)),
                      [1.0, 0.0], [1.0, 0.0], "II")
        with pytest.raises(Overflow):
            _power_table(t, 0.0, 1.0, 501)


class TestSampled:
    def test_one_step_matches_phi1(self):
        t = _random_system(9, "I")
        tau, alpha = 0.8, 1.3
        (_, _), (x1, y1) = sample_discrete(t, tau, [alpha])
        expect = alpha * phi1(t.A + alpha * t.N, tau) @ t.b
        assert np.allclose(x1, expect, atol=1e-12)
        assert y1 == pytest.approx(float(t.c @ expect))

    def test_starts_at_rest(self):
        (x0, y0), *_ = sample_discrete(_random_system(10), 1.0, [1.0, 0.0])
        assert np.all(x0 == 0) and y0 == 0.0

    def test_kind_ii_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete(_random_system(11, "II"), 1.0, [1.0])

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError):
            sample_discrete(_random_system(12), 0.0, [1.0])

    def test_empty_train_is_the_start_alone(self):
        t = _random_system(13)
        (x0, y0), = sample_discrete(t, 1.0, [])
        assert x0.shape == (t.n,) and np.all(x0 == 0) and y0 == 0.0

    @pytest.mark.parametrize("periods", [1, 15, 16, 17, 33])
    def test_block_seams_match_a_step_by_step_recursion(self, periods):
        # the recursion applies its maps in blocks of 16; counts on either
        # side of a seam must match one matvec per level from F(u) and g(u)
        # built here, each state and output on its own scale
        t = _random_system(71, "I")
        tau = 0.625
        levels = np.random.default_rng(72).choice([-1.0, 0.5, 1.0], periods)
        samples = sample_discrete(t, tau, levels)
        x, X = np.zeros(t.n), [np.zeros(t.n)]
        for v in levels:
            G = t.A + v * t.N
            x = scipy.linalg.expm(tau * G) @ x + v * phi1(G, tau) @ t.b
            X.append(x)
        X = np.array(X)
        got = np.array([x for x, _ in samples])
        Y = np.array([y for _, y in samples])
        assert got.shape == X.shape == (periods + 1, t.n)
        scale = np.max(np.abs(X), axis=-1, keepdims=True)
        assert np.all(np.abs(got - X) <= 1e-13 * scale)
        assert np.all(np.abs(Y - X @ t.c) <= 1e-13 * (np.abs(X) @ np.abs(t.c)))

    def test_overflowing_state_raises(self):
        # each map is finite (about e^40), but forty periods of it are not:
        # Overflow, as simulate raises on the same train, never a NaN sample
        t = FourTuple([[-1.0, 0.0], [0.0, 40.0]], np.zeros((2, 2)),
                      [1.0, 1.0], [1.0, 0.0])
        u = PiecewiseConstantInput(np.arange(40.0), np.ones(40), 41.0)
        with pytest.raises(Overflow):
            simulate(t, u, np.arange(1.0, 41.0))
        with pytest.raises(Overflow):
            sample_discrete(t, 1.0, np.ones(40))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_recursion_matches_simulation(self, seed):
        rng = np.random.default_rng(seed + 3)
        t = _random_system(seed, "I", scale=0.5)
        tau = float(rng.uniform(0.3, 1.0))
        levels = rng.choice([-1.0, 0.0, 1.0], size=5)
        samples = sample_discrete(t, tau, levels)
        u = PiecewiseConstantInput(tau * np.arange(5), levels, 5 * tau + 1.0)
        tr = simulate(t, u, tau * np.arange(1, 6), with_states=True)
        for k in range(1, 6):
            assert np.allclose(tr.states[k - 1], samples[k][0], atol=1e-10)
            assert abs(tr.outputs[k - 1] - samples[k][1]) < 1e-10

    def test_long_train_matches_simulation(self, monkeypatch):
        # 100 levels cross several blocks of the chain, and 0.0 and -0.0
        # share one map of the recursion: one exponential, on a stack of
        # three 2n x 2n blocks [[G, I], [0, 0]], gives every F(u) and g(u).
        # Every binding of expm is counted, the one phi1 goes through too
        asked = []

        def counted(fn):
            def wrapper(M):
                asked.append(np.shape(M))
                return fn(M)
            return wrapper

        for module in ("bilinid.simulate", "bilinid.matfun"):
            monkeypatch.setattr(sys.modules[module], "expm",
                                counted(sys.modules[module].expm))
        rng = np.random.default_rng(61)
        t = _random_system(62, "I", scale=0.5)
        tau = 0.375
        levels = rng.choice([-1.0, -0.0, 0.0, 1.0], size=100)
        samples = sample_discrete(t, tau, levels)
        assert asked == [(3, 2 * t.n, 2 * t.n)]
        u = PiecewiseConstantInput(tau * np.arange(100), levels,
                                   100 * tau + 1.0)
        tr = simulate(t, u, tau * np.arange(1, 101), with_states=True)
        assert len(samples) == 101
        for x, y in samples:
            assert isinstance(x, np.ndarray) and x.shape == (t.n,)
            assert type(y) is float
        X = np.array([x for x, _ in samples[1:]])
        Y = np.array([y for _, y in samples[1:]])
        assert np.allclose(X, tr.states, rtol=0.0, atol=1e-10)
        assert np.allclose(Y, tr.outputs, rtol=0.0, atol=1e-10)
