"""The benchmark's four workloads: seeded inputs, the timed operation, and
the output checks.

Inputs are drawn with numpy alone and sorted into the classes each
construction needs by the filters in reference.py, each with a margin far
above the program's own tolerance, so that no draw sits near a decision
threshold. The program's sample_in_* samplers are not used. Operations call
bilinid through the package attribute at call time (bl.simulate, not a
name bound at import), so the traced run sees the wrappers it installs.
"""

import zlib

import numpy as np

import bilinid as bl
import reference as ref

# Margins of the class filters (the program decides at rank_tol = 1e-10
# and residual_tol = 1e-8).
CANON_MARGIN = 1e-3       # sigma_min / sigma_max of Krylov / word spans
TWIN_MARGIN = 1e-2        # twin obstruction ||NT - TN'|| / (||T|| ||N||)
UNIT_GAP_MARGIN = 1e-2    # min |e^lambda(Q) - 1| for class C
IMAG_MARGIN = 0.1         # |Im lambda| / max(1, |lambda|) for B_alpha
COND_MAX = 100.0          # condition number of a conjugator

# Bounds of the acceptance criteria that each check reuses, never looser.
AGREE_PULSE = 1e-7        # criteria 2 and 3: agreement under the class
AGREE_SAMPLED = 1e-9      # criterion 4: agreement at the samples
SEPARATE_PULSE = 1e-6     # criterion 2: two-pulse separation
SEPARATE_CONST = 1e-4     # criterion 4: constant-input separation
WORD_SEPARATION = 1e-6    # certificate word: gap / coefficient scale
COEFF_IDENTIFY = 1e-5     # criterion 5: coefficients of the identified tuple
MOMENT_GAP = 1e-8         # criterion 1: twins share c (A+gN)^k b
CONJUGATOR_ERR = 1e-8     # criterion 6: recovered T vs the conjugator
SIM_AGREE = 1e-9          # criterion 7: simulate vs sampled recursion
# RK4 step sizes, as h * ||G||_2. Measured against the exact flow, the
# error they leave is below 1e-10 of the output scale on pulse pairs (bound
# 1e-7) and below 1e-11 on trains (bound 1e-9).
RK4_PAIRS = 0.02
RK4_TRAINS = 0.01
# Later rounds repeat round 0 on the same inputs; their outputs must match
# it to this relative precision.
REPEAT_RTOL = 1e-9

SINGLE_COMBOS = ((1.0, 1.0), (2.0, 0.5), (0.3, -1.0))
FAMILY_TAUS = (0.0, 1.0)
# every trailing level of bl.BETA_TEST_SET plus two it does not hold
FAMILY_BETAS = (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)


def rng_for(workload: str, seed: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(zlib.crc32(workload.encode()),))
    return np.random.default_rng(ss)


def draw(rng, n, scale):
    return (scale * rng.standard_normal((n, n)),
            scale * rng.standard_normal((n, n)),
            scale * rng.standard_normal(n),
            scale * rng.standard_normal(n))


def draw_until(rng, n, scale, accept):
    while True:
        A, N, b, c = draw(rng, n, scale)
        if accept(A, N, b, c):
            return A, N, b, c


def in_g0(A, N, b, c):
    return (ref.linear_margin(A, b, c) >= CANON_MARGIN
            and ref.twin_obstruction(A, N, b, c) >= TWIN_MARGIN)


def in_c(Q, N, b0, c):
    gap = np.min(np.abs(np.exp(np.linalg.eigvals(Q)) - 1.0))
    return (in_g0(Q, N, b0, c)
            and ref.linear_margin(Q - N, b0, c) >= CANON_MARGIN
            and gap >= UNIT_GAP_MARGIN)


def in_m(A, N, b, c, alpha):
    return (ref.linear_margin(A, b, c) >= CANON_MARGIN
            and ref.conditioning(ref.krylov(A + alpha * N, b)) >= CANON_MARGIN)


def in_b_alpha(A, N, b, c, alpha):
    G = A + alpha * N
    lam = np.linalg.eigvals(G)
    return (ref.linear_margin(G, b, c) >= CANON_MARGIN
            and np.max(np.abs(lam.imag)) >= IMAG_MARGIN * max(1.0, np.max(np.abs(lam))))


def relative_mismatch(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.inf
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


def tuple_numbers(t):
    return [t.A.ravel(), t.N.ravel(), t.b, t.c]


class Workload:
    """generate(rng) -> items; run(item) -> result (the timed op);
    signature(result) -> (numbers, labels) for comparing rounds;
    check(items, results) -> failure messages (empty when correct)."""

    name = ""

    def same(self, r0, r1) -> bool:
        (x0, s0), (x1, s1) = self.signature(r0), self.signature(r1)
        return s0 == s1 and relative_mismatch(x0, x1) <= REPEAT_RTOL


# -- pulse-pairs ------------------------------------------------------------------

class PulsePairs(Workload):
    """Per n in {2, 3}: one single-pulse pair at each (tau, alpha) of
    criterion 2 and two pulse-family pairs at each tau in {0, 1}; plus one
    sampled pair (n = 2). Family pairs are 8 of the 15 ops, so the median
    latency sits high in their cluster and the single pulses set the 90th
    percentile. A median inside the single-pulse cluster moved with the
    machine's load twice as much."""

    name = "pulse-pairs"

    def generate(self, rng):
        items = []
        for n in (2, 3):
            for tau, alpha in SINGLE_COMBOS:
                # growth of Q (under the pulse) and Q - N (after it)
                # bounded as in criterion 2, with margin
                Q, N, b0, c = draw_until(
                    rng, n, 0.4, lambda Q, N, b0, c: in_c(Q, N, b0, c)
                    and ref.growth(Q) <= 0.5 and ref.growth(Q - N) <= 0.5)
                items.append(("single", bl.FourTuple(Q, N, b0, c), tau, alpha))
            for tau in FAMILY_TAUS * 2:
                P, N, b0, c = draw_until(
                    rng, n, 0.4, lambda P, N, b0, c: in_g0(P, N, b0, c)
                    and all(ref.growth(P + (beta - 1.0) * N) <= 0.6
                            for beta in FAMILY_BETAS))
                items.append(("family", bl.FourTuple(P, N, b0, c, "II"), tau, 1.0))
        A, N, b, c = draw_until(
            rng, 2, 1.0, lambda A, N, b, c: in_b_alpha(A, N, b, c, 1.0)
            and ref.growth(A) <= 0.3 and ref.growth(A + N) <= 0.3)
        items.append(("sampled", bl.FourTuple(A, N, b, c), 1.0, 1.0))
        return items

    def run(self, item):
        kind, t, tau, alpha = item
        if kind == "single":
            return bl.single_pulse_pair(t, tau, alpha)
        if kind == "family":
            return bl.pulse_family_pair(t, tau, alpha)
        return bl.sampled_pair(t, tau, alpha)

    def signature(self, pair):
        nums = tuple_numbers(pair.sigma) + tuple_numbers(pair.sigma_hat)
        nums.append([pair.agreement_residual])
        u = pair.distinguishing_input
        if u is not None:
            nums += [u.breakpoints, u.levels, [u.horizon]]
        return np.concatenate(nums), (pair.distinguishing_word, u is None)

    def check(self, items, results):
        fails = []
        for i, (item, pair) in enumerate(zip(items, results)):
            kind, _, tau, alpha = item
            label = f"#{i} {kind} (tau={tau}, alpha={alpha})"
            s, sh = pair.sigma, pair.sigma_hat
            bound = AGREE_SAMPLED if kind == "sampled" else AGREE_PULSE
            if not pair.agreement_residual <= bound:
                fails.append(f"{label}: reported agreement {pair.agreement_residual:.2e}")
            w = pair.distinguishing_word
            sep = -1.0 if w is None else ref.word_separation(s, sh, w)
            if not sep > WORD_SEPARATION:
                fails.append(f"{label}: word {w!r} separates by {sep:.2e}")
            if kind == "single":
                grid = np.linspace(0.0, 5.0 * tau, 101)
                d = ref.rk4_difference(s, sh, [0.0, tau], [[alpha], [0.0]],
                                       grid, RK4_PAIRS)
                agree = float(np.max(np.abs(d)))
            elif kind == "family":
                betas = list(FAMILY_BETAS)
                breaks, levels = (([0.0], [betas]) if tau == 0.0 else
                                  ([0.0, tau], [[alpha] * len(betas), betas]))
                d = ref.rk4_difference(s, sh, breaks, levels,
                                       np.linspace(0.0, tau + 5.0, 61), RK4_PAIRS)
                agree = float(np.max(np.abs(d)))
            else:
                agree = max(
                    float(np.max(np.abs(
                        ref.sampled_outputs(s, tau, levels)
                        - ref.sampled_outputs(sh, tau, levels))))
                    for levels in ([alpha] * k + [0.0] * (10 - k) for k in range(7)))
            if not agree <= bound:
                fails.append(f"{label}: reference agreement {agree:.2e} > {bound:.0e}")
            if kind == "family":
                continue
            u = pair.distinguishing_input
            if u is None:
                fails.append(f"{label}: no distinguishing input")
                continue
            end = 3.0 if kind == "sampled" else u.horizon - 1.0
            grid = np.linspace(0.0, end, 161)[1:]
            d = ref.rk4_difference(s, sh, u.breakpoints,
                                   [[v] for v in u.levels], grid, RK4_PAIRS)
            disc = float(np.max(np.abs(d)))
            floor = SEPARATE_CONST if kind == "sampled" else SEPARATE_PULSE
            if not disc > floor:
                fails.append(f"{label}: distinguishing input separates by {disc:.2e}")
        return fails


# -- identify ---------------------------------------------------------------------

class Identify(Workload):
    """Systems in M(alpha), n in {1, 2, 3}, kinds I and II, alpha in
    {1, -0.5}, four of each per round, identified with n_max = 4."""

    name = "identify"
    repeats = 4

    def generate(self, rng):
        items = []
        for _ in range(self.repeats):
            for n in (1, 2, 3):
                for kind in ("I", "II"):
                    for alpha in (1.0, -0.5):
                        A, N, b, c = draw_until(
                            rng, n, 0.5, lambda A, N, b, c: in_m(A, N, b, c, alpha)
                            and ref.growth(A) <= 0.5
                            and ref.growth(A + alpha * N) <= 1.0)
                        items.append((bl.FourTuple(A, N, b, c, kind), alpha,
                                      int(rng.integers(2 ** 31))))
        return items

    def run(self, item):
        truth, alpha, seed = item
        return bl.identify(bl.oracle_from_tuple(truth, alpha),
                           bl.IdentifyConfig(n_max=4),
                           rng=np.random.default_rng(seed))

    def signature(self, res):
        return np.concatenate(tuple_numbers(res.tuple)), (res.n_identified,)

    def check(self, items, results):
        fails = []
        for i, ((truth, alpha, _), res) in enumerate(zip(items, results)):
            label = f"#{i} (n={truth.n}, kind {truth.kind}, alpha={alpha})"
            if res.n_identified != truth.n or res.tuple.n != truth.n:
                fails.append(f"{label}: identified order {res.n_identified}")
                continue
            gap, word = ref.coefficient_gap(res.tuple, truth, 2 * truth.n)
            if not gap <= COEFF_IDENTIFY:
                fails.append(f"{label}: coefficient gap {gap:.2e} at {word!r}")
        return fails


# -- equivalence ------------------------------------------------------------------

class Equivalence(Workload):
    """Canonical Gaussian systems, n = 2..6, four of each per round. Each
    gives four verdicts: io_equivalent against a conjugate and against its
    twin, is_canonical of the conjugate, similarity_between the two."""

    name = "equivalence"
    repeats = 4

    def generate(self, rng):
        items = []
        for _ in range(self.repeats):
            for n in range(2, 7):
                scale = 1.0 / np.sqrt(n)
                A, N, b, c = draw_until(
                    rng, n, scale, lambda A, N, b, c: in_g0(A, N, b, c)
                    and ref.bilinear_margin(A, N, b, c) >= CANON_MARGIN)
                while True:
                    T0 = rng.standard_normal((n, n))
                    if np.linalg.cond(T0) <= COND_MAX:
                        break
                Ti = np.linalg.inv(T0)
                t = bl.FourTuple(A, N, b, c)
                conj = bl.FourTuple(Ti @ A @ T0, Ti @ N @ T0, Ti @ b, c @ T0)
                twin = bl.FourTuple(A, ref.twin_of(A, N, b, c), b, c)
                items += [("equivalent", t, conj, None),
                          ("twin", t, twin, None),
                          ("canonical", conj, None, None),
                          ("similarity", t, conj, T0)]
        return items

    def run(self, item):
        kind, t1, t2, _ = item
        if kind == "canonical":
            return bl.is_canonical(t1)
        if kind == "similarity":
            return bl.similarity_between(t1, t2)
        return bl.io_equivalent(t1, t2)

    def signature(self, res):
        if isinstance(res, tuple):
            return np.array([]), res
        if isinstance(res, bool):
            return np.array([]), (res,)
        return res.T.ravel(), ()

    def check(self, items, results):
        fails = []
        for i, ((kind, t1, t2, T0), res) in enumerate(zip(items, results)):
            label = f"#{i} {kind} (n={t1.n})"
            if kind == "equivalent":
                if res != (True, None):
                    fails.append(f"{label}: conjugate judged {res}")
            elif kind == "twin":
                eq, word = res
                if eq or word is None:
                    fails.append(f"{label}: twin judged {res}")
                    continue
                sep = ref.word_separation(t1, t2, word)
                if not sep > WORD_SEPARATION:
                    fails.append(f"{label}: word {word!r} separates by {sep:.2e}")
                gap = 0.0
                for g in (-2.0, -1.0, 0.0, 1.0, 2.0):
                    G1, G2 = t1.A + g * t1.N, t2.A + g * t2.N
                    v1, v2 = t1.b.copy(), t2.b.copy()
                    scale = 1.0
                    for _ in range(2 * t1.n + 1):
                        y1, y2 = float(t1.c @ v1), float(t2.c @ v2)
                        scale = max(scale, abs(y1))
                        gap = max(gap, abs(y1 - y2) / scale)
                        v1, v2 = G1 @ v1, G2 @ v2
                if not gap <= MOMENT_GAP:
                    fails.append(f"{label}: twin moments differ by {gap:.2e}")
            elif kind == "canonical":
                if res is not True:
                    fails.append(f"{label}: canonical system judged {res}")
            else:
                err = float(np.linalg.norm(res.T - T0) / max(1.0, np.linalg.norm(T0)))
                if not err <= CONJUGATOR_ERR:
                    fails.append(f"{label}: conjugator error {err:.2e}")
        return fails


# -- trains -------------------------------------------------------------------------

class Trains(Workload):
    """Kind-I systems (n in {2, 3, 4}) under on/off pulse trains with
    period TAU, two of each per round: trains of 128 and 256 periods
    observed once per period, and of 16 and 32 periods observed at as many
    seeded irregular times. The lengths make the two kinds cost about the
    same, so latencies form one cluster."""

    name = "trains"
    repeats = 2
    TAU = 0.5           # dyadic, so every period boundary is exact
    ALPHA = 1.0
    SHAPES = ((True, 128), (True, 256), (False, 16), (False, 32))

    def generate(self, rng):
        items = []
        for _ in range(self.repeats):
            for n in (2, 3, 4):
                for regular, periods in self.SHAPES:
                    A, N, b, c = self._contracting(rng, n)
                    levels = self.ALPHA * rng.integers(0, 2, periods)
                    horizon = periods * self.TAU
                    if regular:
                        grid = self.TAU * np.arange(1, periods + 1)
                    else:
                        grid = np.sort(rng.uniform(0.0, horizon, periods))
                    u = bl.PiecewiseConstantInput(
                        self.TAU * np.arange(periods), levels, horizon + 1.0)
                    items.append((bl.FourTuple(A, N, b, c), u, grid, regular))
        return items

    def _contracting(self, rng, n):
        # both levels contract in the 2-norm, so the state stays bounded
        # under any switching
        while True:
            A, N, b, c = draw(rng, n, 1.0)
            A = 0.5 * A / np.sqrt(n) - np.eye(n)
            N = 0.5 * N / np.sqrt(n)
            if (ref.log_norm(A) <= -0.1
                    and ref.log_norm(A + self.ALPHA * N) <= -0.1):
                return A, N, b, c

    def run(self, item):
        t, u, grid, _ = item
        return (bl.simulate(t, u, grid),
                bl.sample_discrete(t, self.TAU, u.levels))

    def signature(self, res):
        traj, samples = res
        return np.concatenate([traj.outputs, [y for _, y in samples]]), ()

    def check(self, items, results):
        fails = []
        m = max(t.n for t, *_ in items) + 1
        periods = max(len(u.levels) for _, u, _, _ in items)
        breaks = self.TAU * np.arange(periods)
        grid = np.union1d(self.TAU * np.arange(1, periods + 1),
                          np.concatenate([g for _, _, g, _ in items]))
        # after its last period a train holds its last level
        gens = np.array([[ref.pad(ref.generator(t, u.levels[min(j, len(u.levels) - 1)]), m)
                          for t, u, _, _ in items] for j in range(periods)])
        X0 = np.array([ref.pad(ref.initial_state(t), m) for t, *_ in items])
        rows = np.array([ref.pad(ref.readout(t), m) for t, *_ in items])
        Y = ref.rk4_piecewise(breaks, gens, X0, rows, grid, RK4_TRAINS)
        for k, ((t, u, g, regular), (traj, samples)) in enumerate(zip(items, results)):
            label = f"#{k} (n={t.n}, {'regular' if regular else 'irregular'})"
            ticks = self.TAU * np.arange(1, len(u.levels) + 1)
            ys = np.array([y for _, y in samples])
            y_grid = Y[np.searchsorted(grid, g), k]
            y_ticks = Y[np.searchsorted(grid, ticks), k]
            scale = max(1.0, float(np.max(np.abs(y_ticks))),
                        float(np.max(np.abs(y_grid))))
            if len(traj.outputs) != len(g) or len(ys) != len(ticks) + 1:
                fails.append(f"{label}: output lengths {len(traj.outputs)}, {len(ys)}")
                continue
            if regular:
                d = float(np.max(np.abs(traj.outputs - ys[1:]))) / scale
                if not d <= SIM_AGREE:
                    fails.append(f"{label}: simulate vs sample_discrete {d:.2e}")
            d_sim = float(np.max(np.abs(traj.outputs - y_grid))) / scale
            d_smp = float(np.max(np.abs(ys[1:] - y_ticks))) / scale
            if not max(d_sim, d_smp, abs(ys[0]) / scale) <= SIM_AGREE:
                fails.append(f"{label}: vs RK4 simulate {d_sim:.2e}, "
                             f"sample_discrete {d_smp:.2e}")
        return fails


WORKLOADS = {w.name: w for w in (PulsePairs(), Identify(), Equivalence(), Trains())}
