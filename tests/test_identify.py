import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bilinid import (TYPE_I, TYPE_II, FourTuple, IdentifyConfig, PulseOracle,
                     Tolerances, identify, io_equivalent, is_canonical,
                     krylov, oracle_from_tuple, rank_of, realize_free_response,
                     recover_states, respond_pulse, sample_in_M,
                     similarity_between)
from bilinid import matfun
from bilinid.errors import (Aliased, BilinError, NoConvergence,
                            NonFiniteEntry, NotCanonicalResult,
                            OrderAmbiguous, Overflow, PoorFit,
                            UnobservablePair)

# the module; the package's name "identify" is the function
IDENTIFY = importlib.import_module("bilinid.identify")

LOOSE = Tolerances(rank_tol=1e-10, residual_tol=1e-5, agree_tol=1e-7)
SCALAR = FourTuple([[-1.0]], [[0.5]], [1.0], [2.0])


def _fast_rotation(turns, kind, scale=1.0):
    """A + N turns by `turns` pi per delta = 0.2; b and c times scale."""
    A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
    w = turns * np.pi / 0.2
    G = np.array([[0.0, -w], [w, 0.0]])
    return FourTuple(A, G - A, scale * np.array([1.0, 0.5]),
                     scale * np.array([1.0, -0.7]), kind)


def _sweep_systems():
    """Twenty identifiable 3-state systems: seeds 0-9, kinds I and II."""
    return [sample_in_M(3, 1.0, np.random.default_rng(seed), kind=kind,
                        scale=0.5)[0]
            for seed in range(10) for kind in (TYPE_I, TYPE_II)]


def _identify(truth, alpha=1.0, seed=0):
    return identify(oracle_from_tuple(truth, alpha), IdentifyConfig(n_max=4),
                    rng=np.random.default_rng(seed))


class TestOracle:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([TYPE_I, TYPE_II]))
    def test_matches_the_simulator(self, seed, kind):
        rng = np.random.default_rng(seed)
        t = FourTuple(0.5 * rng.standard_normal((2, 2)),
                      0.5 * rng.standard_normal((2, 2)),
                      rng.standard_normal(2), rng.standard_normal(2), kind)
        oracle = oracle_from_tuple(t, 0.8)
        for tau, time in ((1.0, 0.4), (1.0, 1.0), (1.0, 2.3), (0.0, 1.7)):
            direct = oracle.respond(tau, time)
            via_sim = respond_pulse(t, tau, 0.8, 0.0, [max(time, 1e-12)])
            assert direct == pytest.approx(float(via_sim.outputs[0]),
                                           abs=1e-11)
        # the same widths and times as one design, tau = 0 included
        widths, offsets = np.array([1.0, 0.0, 0.4]), np.array([0.0, 1.3, 1.7])
        Y = oracle.records(widths, offsets)
        assert Y.shape == (3, 3)
        for (j, k), y in np.ndenumerate(Y):
            time = widths[k] + offsets[j]
            via_sim = respond_pulse(t, widths[k], 0.8, 0.0,
                                    [max(time, 1e-12)])
            assert y == pytest.approx(float(via_sim.outputs[0]), abs=1e-11)
            assert y == pytest.approx(oracle.respond(widths[k], time),
                                      abs=1e-11)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            oracle_from_tuple(SCALAR, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitude(self, alpha):
        # a NaN or infinite amplitude used to reach expm and raise Overflow
        with pytest.raises(NonFiniteEntry,
                           match="amplitude alpha must be finite"):
            oracle_from_tuple(SCALAR, alpha)

    def test_rejects_negative_times(self):
        oracle = oracle_from_tuple(SCALAR, 1.0)
        with pytest.raises(ValueError):
            oracle.respond(-1.0, 0.5)
        with pytest.raises(ValueError):
            oracle.respond(1.0, -0.5)
        with pytest.raises(ValueError):
            oracle.records([1.0, -1.0], [0.0, 0.5])
        with pytest.raises(ValueError):
            oracle.records([1.0, 2.0], [0.5, -0.5])


class TestRealizeFreeResponse:
    def test_finds_the_order_and_the_gap(self):
        truth, _ = sample_in_M(2, 1.0, np.random.default_rng(5), scale=0.5)
        oracle = oracle_from_tuple(truth, 1.0)
        A, x0, c, svals = realize_free_response(oracle, 1.0, 0.2, 5)
        assert A.shape == (2, 2)
        assert svals[1] / svals[2] > 10.0
        assert sorted(np.linalg.eigvals(A)) == pytest.approx(
            sorted(np.linalg.eigvals(truth.A)), abs=1e-8)

    def test_zero_response_is_ambiguous(self):
        silent = PulseOracle(lambda tau, t: 0.0, 1.0, TYPE_I)
        with pytest.raises(OrderAmbiguous):
            realize_free_response(silent, 1.0, 0.2, 5)

    def test_saturated_hankel_is_ambiguous(self):
        truth, _ = sample_in_M(2, 1.0, np.random.default_rng(6), scale=0.5)
        oracle = oracle_from_tuple(truth, 1.0)
        with pytest.raises(OrderAmbiguous):
            realize_free_response(oracle, 1.0, 0.2, 2)  # m = n


class TestRecoverStates:
    def test_unobservable_pair_is_rejected(self):
        stub = PulseOracle(lambda tau, t: 0.0, 1.0, TYPE_I)
        with pytest.raises(UnobservablePair):
            recover_states(stub, np.eye(2), np.array([1.0, 0.0]),
                           [0.5], 0.2, 5)

    def test_states_match_the_truth_basis(self):
        # feeding the true (A, c) must return the true end-of-pulse states
        truth, _ = sample_in_M(2, 1.0, np.random.default_rng(7), scale=0.5)
        oracle = oracle_from_tuple(truth, 1.0)
        taus = [0.5, 1.0, 1.5]
        states, res = recover_states(oracle, truth.A, truth.c, taus, 0.2, 5)
        from bilinid import phi1
        for tau, x in zip(taus, states):
            expect = phi1(truth.A + truth.N, tau) @ truth.b
            assert np.allclose(x, expect, atol=1e-9)
        assert np.max(res) < 1e-18


class TestIdentify:
    def test_scalar_example(self):
        res = _identify(SCALAR)
        assert res.n_identified == 1
        assert res.tuple.A[0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert res.tuple.N[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert float(res.tuple.c @ res.tuple.b) == pytest.approx(2.0,
                                                                 abs=1e-6)

    def test_scalar_example_kind_ii(self):
        res = _identify(SCALAR.with_kind(TYPE_II))
        assert res.tuple.kind == TYPE_II
        assert res.tuple.A[0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert res.tuple.N[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert float(res.tuple.c @ res.tuple.b) == pytest.approx(2.0,
                                                                 abs=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([TYPE_I, TYPE_II]),
           st.sampled_from([1.0, -0.5]))
    def test_round_trip(self, seed, kind, alpha):
        truth, _ = sample_in_M(2, alpha, np.random.default_rng(seed),
                               kind=kind, scale=0.5)
        res = _identify(truth, alpha, seed)
        assert res.n_identified == 2
        assert is_canonical(res.tuple)
        eq, _ = io_equivalent(res.tuple, truth, LOOSE)
        assert eq
        w = similarity_between(res.tuple, truth, LOOSE)
        assert w.max_residual < 1e-5

    def test_three_state_round_trip(self):
        truth, _ = sample_in_M(3, 1.0, np.random.default_rng(11), scale=0.5)
        res = _identify(truth)
        assert res.n_identified == 3
        eq, _ = io_equivalent(res.tuple, truth, LOOSE)
        assert eq

    def test_two_runs_identify_similar_systems(self):
        truth, _ = sample_in_M(2, 1.0, np.random.default_rng(13), scale=0.5)
        r1 = _identify(truth, seed=1)
        r2 = _identify(truth, seed=2)
        w = similarity_between(r1.tuple, r2.tuple, LOOSE)
        assert w.max_residual < 1e-5

    def test_diagnostics_are_reported(self):
        res = _identify(SCALAR)
        d = res.diagnostics
        assert set(d) >= {"hankel_singular_values", "fit_residual",
                          "max_state_residual", "tau0", "h", "delta"}
        assert d["fit_residual"] < 1e-8
        assert d["max_state_residual"] < 1e-8
        assert 0.5 <= d["tau0"] <= 1.5

    def test_inconsistent_oracle_raises_poor_fit(self):
        # responses that are free responses of a genuine (A, c) for every
        # width, yet with widths that do not follow any bilinear flow
        truth, _ = sample_in_M(2, 1.0, np.random.default_rng(17),
                               kind=TYPE_II, scale=0.5)
        base = oracle_from_tuple(truth, 1.0)
        warped = PulseOracle(
            lambda tau, t: base.respond(tau, t)
            + 0.01 * tau * tau * base.respond(0.0, t - tau),
            1.0, TYPE_II)
        with pytest.raises(PoorFit):
            identify(warped, IdentifyConfig(n_max=4),
                     rng=np.random.default_rng(0))

    @pytest.mark.parametrize("n_max", [-1, 0, 2.5, True, "3"])
    def test_order_bound_below_one_is_rejected(self, n_max):
        # n_max = 0 leaves a 1 x 1 Hankel with no rank gap to find, and
        # n_max < 0 an empty one; an order that is not an int (a bool
        # included) is no order at all, and 2.5 used to reach an index
        with pytest.raises(ValueError, match="n_max"):
            IdentifyConfig(n_max=n_max)

    @pytest.mark.parametrize("scalar", [False, True])
    @pytest.mark.parametrize("n_max", [2, 8])
    def test_overflowing_record_is_overflow(self, scalar, n_max):
        # e^{400 t} leaves the float range inside the design: Overflow, as
        # simulate raises, never a response that "vanishes on the grid"
        # (at n_max = 2 the record overflows, at 8 its expm already does)
        t = FourTuple(np.diag([400.0, -1.0]), [[0.1, 0.2], [0.3, 0.1]],
                      [1.0, 1.0], [1.0, 1.0])
        oracle = oracle_from_tuple(t, 1.0)
        if scalar:
            oracle = PulseOracle(oracle.respond, oracle.alpha, oracle.kind)
        with pytest.raises(Overflow):
            identify(oracle, IdentifyConfig(n_max=n_max),
                     rng=np.random.default_rng(0))

    def test_oracle_giving_infinity_is_overflow(self):
        # an oracle of its own that returns inf instead of raising
        blowup = PulseOracle(lambda tau, t: np.exp(400.0 * t) if t < 1.7
                             else np.inf, 1.0, TYPE_I)
        with pytest.raises(Overflow):
            identify(blowup, IdentifyConfig(n_max=2),
                     rng=np.random.default_rng(0))

    def test_silent_system_is_ambiguous(self):
        silent = PulseOracle(lambda tau, t: 0.0, 1.0, TYPE_I)
        with pytest.raises(OrderAmbiguous):
            identify(silent, IdentifyConfig(n_max=3),
                     rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
    @pytest.mark.parametrize("turns, delta", [(1.0, 0.1), (1.5, 0.1),
                                              (2.0, 0.05)])
    def test_fast_rotation_halves_delta(self, kind, turns, delta):
        # A + N turns by `turns` pi per default delta = 2/10. At pi, e^{G
        # delta} = -I lies on the cut; at 1.5 pi the principal logarithm
        # folds the turn back to -pi/2; at 2 pi every grid state is b. The
        # state at the off-grid tau0 exposes the last two.
        truth = _fast_rotation(turns, kind)
        res = _identify(truth)
        assert res.n_identified == 2
        assert res.diagnostics["delta"] == pytest.approx(delta)
        eq, _ = io_equivalent(res.tuple, truth, LOOSE)
        assert eq

    @pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
    @pytest.mark.parametrize("scale", [1e3, 1e-3, 1e-6])
    def test_output_scale_does_not_change_the_result(self, kind, scale):
        # b and c times `scale` scale every output by scale^2 and every
        # state by scale; the 1.5 pi turn must still halve delta
        truth = _fast_rotation(1.5, kind, scale)
        res = _identify(truth)
        assert res.n_identified == 2
        assert res.diagnostics["delta"] == pytest.approx(0.1)
        eq, _ = io_equivalent(res.tuple, truth, LOOSE)
        assert eq

    @pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
    def test_tiny_output_scale_is_right(self, kind):
        # outputs of 1e-18 and states of 1e-9: every guard is relative
        truth = _fast_rotation(1.5, kind, 1e-9)
        res = _identify(truth)
        assert res.diagnostics["delta"] == pytest.approx(0.1)
        eq, _ = io_equivalent(res.tuple, truth, LOOSE)
        assert eq

    def test_tiny_output_scale_of_sampled_systems_is_right(self):
        for truth in _sweep_systems():
            tiny = FourTuple(truth.A, truth.N, 1e-9 * truth.b, 1e-9 * truth.c,
                             truth.kind)
            res = _identify(tiny)
            assert res.n_identified == 3
            eq, _ = io_equivalent(res.tuple, tiny, LOOSE)
            assert eq

    @pytest.mark.parametrize("k", [0.2, 1.0, 5.0])
    def test_time_scale_is_right_or_raises(self, k):
        # (A, N, b) -> k (A, N, b), b kept for kind II, gives y_k(t) = y(kt)
        # at fixed steps; at k = 5 a result may raise but never be wrong
        raised = 0
        for truth in _sweep_systems():
            b = k * truth.b if truth.kind == TYPE_I else truth.b
            fast = FourTuple(k * truth.A, k * truth.N, b, truth.c, truth.kind)
            try:
                res = _identify(fast)
            except BilinError:
                raised += 1
                continue
            eq, _ = io_equivalent(res.tuple, fast, LOOSE)
            assert eq
        assert raised == 0 or k > 1

    @pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
    def test_fast_coast_halves_h(self, kind):
        # A turns by 1.5 pi per default h = 0.2: every Hankel sample fits
        # the turn folded back to -pi/2, so only the off-grid sample
        # y(2 tau0) shows that h must be halved
        w = 1.5 * np.pi / 0.2
        A = np.array([[-0.3, w], [-w, -0.3]])
        G = np.array([[-0.5, 1.0], [-1.0, -0.2]])
        truth = FourTuple(A, G - A, [1.0, 0.5], [1.0, -0.7], kind)
        res = _identify(truth)
        assert res.n_identified == 2
        assert res.diagnostics["h"] == pytest.approx(0.1)
        eq, _ = io_equivalent(res.tuple, truth, LOOSE)
        assert eq

    @staticmethod
    def _counting(truth, alpha=1.0):
        base = oracle_from_tuple(truth, alpha)
        calls = []

        def respond(tau, t):
            calls.append((tau, t))
            return base.respond(tau, t)

        return PulseOracle(respond, alpha, truth.kind), calls

    def test_query_budget(self):
        # one record: offsets j h, j = 0..m, and the widths k delta,
        # k = 0..m + 1 (kind I differences them; kind II needs k <= m),
        # each with tau0 added off the grid
        m = 5
        for kind, budget in ((TYPE_I, (m + 3) * (m + 2)),
                             (TYPE_II, (m + 2) * (m + 2))):
            truth, _ = sample_in_M(2, 1.0, np.random.default_rng(19),
                                   kind=kind, scale=0.5)
            oracle, calls = self._counting(truth)
            res = identify(oracle, IdentifyConfig(n_max=4),
                           rng=np.random.default_rng(0))
            assert res.n_identified == 2
            assert len(calls) == budget
            # read one sample at a time or as whole records, the same tuple
            batched = identify(oracle_from_tuple(truth, 1.0),
                               IdentifyConfig(n_max=4),
                               rng=np.random.default_rng(0))
            for name in "ANbc":
                np.testing.assert_allclose(getattr(res.tuple, name),
                                           getattr(batched.tuple, name),
                                           rtol=1e-9, atol=1e-9)
        assert (m + 3) * (m + 2) == 56

    @pytest.mark.parametrize("turns, reads", [(0.5, 1), (2.0, 3)])
    def test_records_are_read_once_per_attempt(self, turns, reads):
        # at 2 pi per delta = 0.2 the attempts at 0.2 and 0.1 alias, and
        # the one at 0.05 succeeds
        base = oracle_from_tuple(_fast_rotation(turns, TYPE_II), 1.0)
        designs = []

        def records(widths, offsets):
            designs.append((len(offsets), len(widths)))
            return base.records(widths, offsets)

        identify(PulseOracle(base.respond, 1.0, TYPE_II, records),
                 IdentifyConfig(n_max=4), rng=np.random.default_rng(0))
        assert designs == [(7, 7)] * reads

    def test_states_short_of_the_order_are_not_canonical(self):
        # (A, b) is reachable, so the coast has order 2, but b is an
        # eigenvector of G = A + N: every pulse-end state lies on one line,
        # the one at tau0 too, so no smaller delta is tried
        A = np.array([[-0.5, 0.3], [0.8, -1.2]])
        for kind in (TYPE_I, TYPE_II):
            truth = FourTuple(A, np.diag([-1.0, -2.0]) - A, [1.0, 0.0],
                              [1.0, 0.4], kind)
            oracle, calls = self._counting(truth)
            with pytest.raises(NotCanonicalResult):
                identify(oracle, IdentifyConfig(n_max=4),
                         rng=np.random.default_rng(0))
            assert len(calls) <= 66


def _keeps_head(rng, n, dual=False):
    """A random n x n matrix that maps the span of the first n-1 unit
    vectors into itself, or, with dual, whose transpose does."""
    M = rng.standard_normal((n, n))
    M[-1, :-1] = 0.0
    return M.T if dual else M


def _certificate_cases(n, rng):
    """(label, (A, G, b, c)) quadruples around each final rank check: b in
    the span of the first n-1 unit vectors with A (or G, or both) keeping
    it, and c in it with A' keeping it. The last entry of b or c is 0, or
    1e-14 or 1e-6 relative, on either side of the cut at rank_tol. Last,
    the canonicality check alone: (A, b), (A, c) and (G, b) full, but
    (G, c) unobservable and A so small next to G that the words with an A
    in them fall under the cut (scale 1e-12) or do not (1e-6)."""
    cases = [("canonicality only", (scale * rng.standard_normal((n, n)),
                                    np.diag(np.arange(1.0, n + 1)),
                                    rng.standard_normal(n), np.eye(n)[0]))
             for scale in (1e-12, 1e-6)]
    for eps in (0.0, 1e-14, 1e-6):
        A, G = rng.standard_normal((2, n, n))
        b, c, near = rng.standard_normal((3, n))
        near[-1] = eps * np.linalg.norm(near)
        head = _keeps_head(rng, n)
        cases += [
            ("generic", (A, G, b, c)),
            ("(A, b) unreachable", (head, G, near, c)),
            ("(A, c) unobservable", (_keeps_head(rng, n, True), G, b, near)),
            ("(G, b) unreachable, (A, b) reachable", (A, head, near, c)),
            ("not canonical", (head, _keeps_head(rng, n), near, c)),
        ]
    return cases


def _fails_rank_checks(A, G, b, c):
    """The final checks, from the public API: the tuple is canonical, and
    (A, b), (A, c) and (G, b) are full rank with A and G scaled to unit
    2-norm."""
    n = len(b)
    unit = lambda M: M / np.linalg.norm(M)
    return not (is_canonical(FourTuple(A, G - A, b, c))
                and rank_of(krylov(unit(A), b)) == n
                and rank_of(krylov(unit(A).T, c)) == n
                and rank_of(krylov(unit(G), b)) == n)


class TestFinalCertificate:
    """identify's final checks (canonicality and the three linear ranks)
    come from one SVD, and reject exactly what the checks one at a time
    reject."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rejects_what_the_separate_checks_reject(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        oracle = PulseOracle(lambda tau, time: 0.0, 1.0, TYPE_I)
        cases, verdicts = _certificate_cases(n, rng), set()
        for label, found in cases:
            monkeypatch.setattr(IDENTIFY, "_halving",
                                lambda *args, found=found: (found, {}))
            fails = _fails_rank_checks(*found)
            verdicts.add((label, fails))
            if fails:
                with pytest.raises(NotCanonicalResult):
                    identify(oracle)
            else:
                assert identify(oracle).n_identified == n
        # each check is missed where the structure is exact, and met at
        # the 1e-6 perturbation or scale
        for label in {label for label, _ in cases} - {"generic"}:
            assert (label, False) in verdicts
            assert n == 1 or (label, True) in verdicts
        assert ("generic", True) not in verdicts


class TestStackedAttempt:
    """Each attempt takes both principal logarithms, of e^{Ah} and of
    e^{G delta}, from one stacked pass, and raises what it finds in the
    order of the checks: the coast's logarithm, the coast's miss, the width
    flow's logarithm, the width flow's miss."""

    @pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
    @pytest.mark.parametrize("turns", [0.5, 1.0, 2.0])
    def test_one_eig_and_one_expm_per_attempt(self, kind, turns):
        # the oracle's expm is identify's binding, not matfun's: not counted
        per_attempt = []
        joint = IDENTIFY._joint

        def attempt(*args):
            before = eig.call_count, expm.call_count
            try:
                return joint(*args)
            finally:
                per_attempt.append((eig.call_count - before[0],
                                    expm.call_count - before[1]))
        with mock.patch.object(IDENTIFY, "_joint", attempt), \
                mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
                mock.patch.object(matfun, "expm", wraps=matfun.expm) as expm:
            _identify(_fast_rotation(turns, kind))
        # an attempt may stop before the logarithms; the last one succeeds
        assert set(per_attempt) <= {(0, 0), (1, 1)}
        assert per_attempt[-1] == (1, 1)
        if turns == 0.5:
            assert len(per_attempt) == 1

    @staticmethod
    def _faulty(f_fault=None, e_fault=None, coast=1.0, width=1.0, calls=1):
        """_logm_flows with the given faults and the flows scaled (a scale
        other than 1 makes a miss) for its first `calls` calls."""
        real, done = IDENTIFY._logm_flows, []

        def fake(M, times):
            L, E, faults = real(M, times)
            if len(done) < calls:
                done.append(1)
                E = E * np.array([coast, width])[:, None, None, None]
                faults = [f_fault or faults[0], e_fault or faults[1]]
            return L, E, faults
        return mock.patch.object(IDENTIFY, "_logm_flows", fake)

    @pytest.mark.parametrize("kind", [TYPE_I, TYPE_II])
    @pytest.mark.parametrize("f_fault, e_fault, coast, width, raised, match", [
        (NoConvergence("F"), NoConvergence("E"), 2.0, 2.0, NoConvergence, "F"),
        (None, NoConvergence("E"), 2.0, 2.0, Aliased, "coast"),
        (None, NoConvergence("E"), 1.0, 2.0, NoConvergence, "E"),
        (None, None, 1.0, 2.0, Aliased, "width flow"),
    ], ids=["coast-logm", "coast-miss", "width-logm", "width-miss"])
    def test_raise_order(self, kind, f_fault, e_fault, coast, width, raised,
                         match):
        oracle = oracle_from_tuple(SCALAR.with_kind(kind), 1.0)
        with self._faulty(f_fault, e_fault, coast, width), \
                pytest.raises(raised, match=match):
            IDENTIFY._joint(oracle, 5, 0.2, 1.0, Tolerances())

    def test_coast_miss_before_width_fault_halves_the_step(self):
        with self._faulty(None, NoConvergence("E"), coast=2.0):
            res = _identify(SCALAR)
        assert res.diagnostics["h"] == pytest.approx(0.1)
