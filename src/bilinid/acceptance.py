"""Reproducible end-to-end checks of the package's headline guarantees.

Each criterion body draws its samples from its own seeded stream, calls
fail(msg) for every advertised bound it finds broken, and returns a line of
details with the worst observed residuals. The _criterion decorator is the
one runner around every body: it times the body, hands it the stream and
fail, appends the first four failures to the details, and builds the
CriterionResult. ALL_CRITERIA lists the criteria in order; the CLI verb
`reproduce` and tests/test_acceptance.py both run its entries.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import (TYPE_I, TYPE_II, FourTuple, PiecewiseConstantInput,
                   pulse_input, seeded_rng)
from .counterex import (BETA_TEST_SET, classify, gaussian_tuple,
                        pulse_family_pair, sample_in_B_alpha, sample_in_C,
                        sample_in_G0, sample_in_M, sampled_pair,
                        single_pulse_pair, twin_via_T)
from .errors import BilinError
from .identify import IdentifyConfig, identify, oracle_from_tuple
from .matfun import DEFAULT_TOL, Tolerances, eigenvalues
from .realization import (conjugate, io_equivalent, is_canonical,
                          self_dual_T, similarity_between)
from .simulate import _march, respond_pulse, sample_discrete, simulate

ACCEPTANCE_SEED = 20260817


def _growth(M) -> float:
    return float(np.max(eigenvalues(M).real))


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: str
    elapsed: float
    budget: float

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  criterion {self.index}: {self.name} -- {self.details}"


def _criterion(index: int, name: str, budget: float, label: str):
    """Make a criterion from body(rng, fail) -> details. The body draws from
    seeded_rng(ACCEPTANCE_SEED, label) and calls fail(msg) for each broken
    bound; the criterion passes when the body never calls fail, and its
    details end with the first four failures otherwise."""
    def wrap(body):
        def run() -> CriterionResult:
            start = time.perf_counter()
            failures = []
            details = body(seeded_rng(ACCEPTANCE_SEED, label), failures.append)
            if failures:
                details += "; FAILURES: " + "; ".join(failures[:4])
            return CriterionResult(index, name, not failures, details,
                                   time.perf_counter() - start, budget)
        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run
    return wrap


@_criterion(1, "closed-loop moment-matching twins", 5.0, "twins")
def criterion_1(rng, fail) -> str:
    """Twin systems: distinct, equal on every c (A + g N)^k b, inequivalent."""
    gammas = (-2.0, -1.0, 0.0, 1.0, 2.0)
    min_sep = np.inf
    worst_gap = 0.0
    for i in range(100):
        n = 2 + (i % 2)
        t, _ = sample_in_G0(n, rng)
        th = twin_via_T(t)
        sep = float(np.linalg.norm(th.N - t.N))
        min_sep = min(min_sep, sep)
        if sep <= 1e-6:
            fail(f"#{i}: twin too close ({sep:.2e})")
        scale = 1.0
        gap = 0.0
        for g in gammas:
            G1, G2 = t.A + g * t.N, t.A + g * th.N
            v1, v2 = t.b.copy(), th.b.copy()
            for _ in range(2 * n + 1):
                y1, y2 = float(t.c @ v1), float(th.c @ v2)
                scale = max(scale, abs(y1))
                gap = max(gap, abs(y1 - y2))
                v1, v2 = G1 @ v1, G2 @ v2
        worst_gap = max(worst_gap, gap / scale)
        if gap > 1e-8 * scale:
            fail(f"#{i}: moment gap {gap:.2e} vs scale {scale:.2e}")
        eq, word = io_equivalent(t, th)
        if eq or word is None:
            fail(f"#{i}: twins not separated by a word")
    return (f"100 twin pairs (n=2,3): min ||M-N|| {min_sep:.2e}, worst "
            f"relative moment gap {worst_gap:.2e} over k<=2n, "
            f"g in {{-2,-1,0,1,2}}; all inequivalent with word certificates")


def _gap(pair, u, grid) -> float:
    """Largest output gap of the pair under the input u on the grid, by
    simulating each member."""
    return float(np.max(np.abs(simulate(pair.sigma, u, grid).outputs
                               - simulate(pair.sigma_hat, u, grid).outputs)))


def _separation(pair) -> float:
    """The pair's gap under its distinguishing input, on 160 points up to
    the input's horizon - 1."""
    u = pair.distinguishing_input
    return _gap(pair, u, np.linspace(0.0, u.horizon - 1.0, 160))


@_criterion(2, "single-pulse counterexample pairs", 30.0, "single-pulse")
def criterion_2(rng, fail) -> str:
    """Single-pulse pairs agree under the pulse of width tau, simulated
    member by member, and differ under the single pulse of another width
    tau* that they carry."""
    combos = ((1.0, 1.0), (2.0, 0.5), (0.3, -1.0))
    worst_agree = 0.0
    weakest = (np.inf, None)    # separation, width tau*
    for i in range(25):
        n = 2 + (i % 2)
        # keep outputs O(100) over [0, 5 tau] so the absolute agreement
        # bound measures the construction, not exponential blowup
        while True:
            seed, _ = sample_in_C(n, rng, scale=0.4)
            if _growth(seed.A) <= 0.6 and _growth(seed.A - seed.N) <= 0.6:
                break
        for tau, alpha in combos:
            label = f"#{i} (tau={tau}, alpha={alpha})"
            pair = single_pulse_pair(seed, tau, alpha)
            agree = _gap(pair, pulse_input(tau, alpha, 0.0, 5.0 * tau + 1.0),
                         np.linspace(0.0, 5.0 * tau, 500))
            worst_agree = max(worst_agree, agree)
            if agree > 1e-7:
                fail(f"{label}: agreement {agree:.2e}")
            eq, _ = io_equivalent(pair.sigma, pair.sigma_hat)
            if eq:
                fail(f"{label}: pair reported equivalent")
            u = pair.distinguishing_input
            if u is None:
                fail(f"{label}: no distinguishing input found")
                continue
            disc = _separation(pair)
            weakest = min(weakest, (disc, float(u.breakpoints[1])))
            if disc <= 1e-6:
                fail(f"{label}: distinguisher gap only {disc:.2e}")
    return (f"25 class-C seeds x 3 (tau, alpha): worst pulse-response "
            f"agreement {worst_agree:.2e} on 500-point grids over "
            f"[0, 5 tau]; all pairs inequivalent; weakest single-pulse "
            f"(width tau*) separation {weakest[0]:.2e} at tau* = "
            f"{weakest[1]:.3g}")


@_criterion(3, "pulse-family and constant-input pairs", 30.0, "pulse-family")
def criterion_3(rng, fail) -> str:
    """Pulse-family pairs agree for every trailing constant level, and the
    single pulse of another width that each pair carries separates it."""
    worst = 0.0
    min_disc = np.inf
    for i in range(25):
        n = 2 + (i % 2)
        # the trailing constant is beta, so the coast matrix is
        # P + (beta - 1) N; bound its growth for every tested beta
        while True:
            seed, _ = sample_in_G0(n, rng, kind=TYPE_II, scale=0.4)
            if all(_growth(seed.A + (b - 1.0) * seed.N) <= 0.7
                   for b in BETA_TEST_SET):
                break
        for tau in (0.0, 1.0):
            label = f"#{i} (tau={tau})"
            pair = pulse_family_pair(seed, tau, 1.0)
            grid = np.linspace(0.0, tau + 5.0, 301)
            agree = max(_gap(pair, pulse_input(tau, 1.0, b, tau + 6.0), grid)
                        for b in BETA_TEST_SET)
            worst = max(worst, agree)
            if agree > 1e-7:
                fail(f"{label}: agreement {agree:.2e}")
            eq, word = io_equivalent(pair.sigma, pair.sigma_hat)
            if eq or word is None:
                fail(f"{label}: pair not separated by a word")
            if pair.distinguishing_input is None:
                fail(f"{label}: no distinguishing input found")
                continue
            disc = _separation(pair)
            min_disc = min(min_disc, disc)
            if disc <= 1e-6:
                fail(f"{label}: distinguisher gap only {disc:.2e}")
    return (f"25 G0 seeds x tau in {{0, 1}}: worst agreement {worst:.2e} "
            f"across 7 trailing levels on 301-point grids over "
            f"[0, tau+5]; all pairs word-inequivalent; weakest "
            f"single-pulse separation {min_disc:.2e}")


@_criterion(4, "sampled-data counterexample pairs", 10.0, "sampled")
def criterion_4(rng, fail) -> str:
    """Sampled pairs: identical samples, each member run through its own
    sampled recursion, and distinct continuous outputs."""
    worst_agree = 0.0
    min_disc = np.inf
    for i in range(10):
        t, _ = sample_in_B_alpha(1.0, rng)
        pair = sampled_pair(t, 1.0, 1.0)
        # the samples of each member under the trains alpha^k 0^(10-k)
        agree = max(abs(y1 - y2) for k in range(7) for (_, y1), (_, y2) in zip(
            *(sample_discrete(m, 1.0, [1.0] * k + [0.0] * (10 - k))
              for m in (pair.sigma, pair.sigma_hat))))
        worst_agree = max(worst_agree, agree)
        if agree > 1e-9:
            fail(f"#{i}: sampled agreement {agree:.2e}")
        disc = _gap(pair, pair.distinguishing_input,
                    np.linspace(0.0, 3.0, 301))
        min_disc = min(min_disc, disc)
        if disc <= 1e-4:
            fail(f"#{i}: continuous gap only {disc:.2e}")
    return (f"10 B_alpha systems at tau=1, alpha=1: worst sampled "
            f"agreement {worst_agree:.2e} over pulse trains (widths up to "
            f"6 tau, 10 samples); weakest continuous separation "
            f"{min_disc:.2e} on [0, 3]")


@_criterion(5, "identification from pulse responses", 60.0, "identify")
def criterion_5(rng, fail) -> str:
    """Identification recovers each system up to similarity."""
    cfg = IdentifyConfig(n_max=4)
    loose = Tolerances(rank_tol=DEFAULT_TOL.rank_tol, residual_tol=1e-5,
                       agree_tol=DEFAULT_TOL.agree_tol)
    worst_inv = 0.0
    for i in range(50):
        n = 1 + (i % 3)
        kind = TYPE_I if (i // 3) % 2 == 0 else TYPE_II
        alpha = 1.0 if (i // 6) % 2 == 0 else -0.5
        label = f"#{i} (n={n}, kind {kind}, alpha={alpha})"
        truth, _ = sample_in_M(n, alpha, rng, kind=kind, scale=0.5)
        try:
            res = identify(oracle_from_tuple(truth, alpha), cfg, rng=rng)
        except BilinError as e:
            fail(f"{label}: {type(e).__name__}: {e}")
            continue
        if res.n_identified != n:
            fail(f"{label}: order {res.n_identified}")
            continue
        if not is_canonical(res.tuple):
            fail(f"{label}: result not canonical")
        eq, _ = io_equivalent(res.tuple, truth, loose)
        if not eq:
            fail(f"{label}: not i/o equivalent at 1e-5")
        try:
            similarity_between(res.tuple, truth, loose)
        except BilinError as e:
            fail(f"{label}: similarity failed ({type(e).__name__})")
        if n == 1:
            inv = max(abs(float(res.tuple.A[0, 0] - truth.A[0, 0])),
                      abs(float(res.tuple.N[0, 0] - truth.N[0, 0])),
                      abs(float(res.tuple.c @ res.tuple.b
                                - truth.c @ truth.b)))
            worst_inv = max(worst_inv, inv)
            if inv > 1e-6:
                fail(f"{label}: scalar invariants off by {inv:.2e}")
    return (f"50 identifiable systems (n=1..3, kinds I and II, alpha in "
            f"{{1, -0.5}}): all recovered canonically, i/o equivalent at "
            f"1e-5, similar to truth; worst n=1 invariant error "
            f"{worst_inv:.2e}")


@_criterion(6, "similarity recovery and self-dual transform", 10.0, "similarity")
def criterion_6(rng, fail) -> str:
    """similarity_between recovers conjugators; self-dual T relations hold."""
    worst_T = 0.0
    worst_dual = 0.0
    done = 0
    while done < 100:
        n = 2 + (done % 2)
        t = gaussian_tuple(n, rng)
        if not is_canonical(t):
            continue
        T0 = rng.standard_normal((n, n))
        if np.linalg.cond(T0) > 1e3:
            continue
        try:
            w = similarity_between(t, conjugate(t, T0))
        except BilinError as e:
            fail(f"#{done}: similarity raised {type(e).__name__}")
            done += 1
            continue
        err = float(np.linalg.norm(w.T - T0) / max(1.0, np.linalg.norm(T0)))
        worst_T = max(worst_T, err)
        if err > 1e-8:
            fail(f"#{done}: conjugator error {err:.2e}")
        T = self_dual_T(t.A, t.b, t.c)
        nT = max(1.0, float(np.linalg.norm(T)))
        rel = max(
            float(np.linalg.norm(t.A @ T - T @ t.A.T))
            / max(1.0, float(np.linalg.norm(t.A)) * nT),
            float(np.linalg.norm(T @ t.c - t.b)) / nT,
            float(np.linalg.norm(T - T.T)) / nT,
        )
        worst_dual = max(worst_dual, rel)
        if rel > 1e-8:
            fail(f"#{done}: self-dual residual {rel:.2e}")
        done += 1
    return (f"100 conjugated canonical pairs (cond <= 1e3): worst "
            f"conjugator recovery error {worst_T:.2e}; worst self-dual "
            f"transform residual (intertwining, b = T c', symmetry) "
            f"{worst_dual:.2e}")


@_criterion(7, "simulation consistency laws", 10.0, "simulation-consistency")
def criterion_7(rng, fail) -> str:
    """Sampled recursion, semigroup restart, and time rescaling all agree
    with direct simulation."""
    worst_disc = 0.0
    worst_semi = 0.0
    worst_rescale = 0.0
    for i in range(50):
        n = 2 + (i % 2)
        t = gaussian_tuple(n, rng, TYPE_I, scale=0.4)
        tau = float(rng.uniform(0.3, 0.8))
        levels = rng.choice([-1.0, 0.0, 0.5, 1.0], size=6)
        samples = sample_discrete(t, tau, levels)
        u = PiecewiseConstantInput(tau * np.arange(6), levels,
                                   6 * tau + 1.0)
        grid = tau * np.arange(1, 7)
        traj = simulate(t, u, grid, with_states=True)
        scale = max(1.0, max(abs(y) for _, y in samples))
        d = max(
            max(abs(traj.outputs[k - 1] - samples[k][1]) for k in range(1, 7)),
            max(float(np.max(np.abs(traj.states[k - 1] - samples[k][0])))
                for k in range(1, 7)),
        ) / scale
        worst_disc = max(worst_disc, d)
        if d > 1e-9:
            fail(f"#{i}: sampled-vs-simulate gap {d:.2e}")

        # restart from the third sample and land on the same trajectory
        x_mid, t_mid = samples[3][0], 3 * tau
        tail = _march(t, u, grid[3:], x_mid, t_mid, False)
        s = max(1.0, float(np.max(np.abs(traj.outputs[3:]))))
        semi = float(np.max(np.abs(tail.outputs - traj.outputs[3:]))) / s
        worst_semi = max(worst_semi, semi)
        if semi > 1e-8:
            fail(f"#{i}: semigroup restart gap {semi:.2e}")

        # slowing time by kappa and dividing the generators by kappa is a
        # no-op on outputs (kind I also divides the drive b)
        kappa = 2.0 if i % 2 == 0 else 0.3
        alpha = 1.0 if i % 4 < 2 else -0.5
        kind = TYPE_I if i % 8 < 4 else TYPE_II
        base = FourTuple(t.A, t.N, t.b, t.c, kind)
        slow = FourTuple(t.A / kappa, t.N / kappa,
                         t.b / kappa if kind == TYPE_I else t.b, t.c, kind)
        sgrid = np.linspace(0.0, 4.0, 50)[1:]
        y_base = respond_pulse(base, 1.0, alpha, 0.0, sgrid).outputs
        y_slow = respond_pulse(slow, kappa, alpha, 0.0, kappa * sgrid).outputs
        s = max(1.0, float(np.max(np.abs(y_base))))
        resc = float(np.max(np.abs(y_base - y_slow))) / s
        worst_rescale = max(worst_rescale, resc)
        if resc > 1e-8:
            fail(f"#{i}: rescaling gap {resc:.2e}")
    return (f"50 systems: sampled recursion matches simulation to "
            f"{worst_disc:.2e} (states and outputs); semigroup restart to "
            f"{worst_semi:.2e}; time rescaling to {worst_rescale:.2e}")


@_criterion(8, "genericity of G0 and identifiability", 5.0, "gaussian-classes")
def criterion_8(rng, fail) -> str:
    """Random Gaussian tuples generically admit twins and identification."""
    hits = 0
    for _ in range(100):
        cm = classify(gaussian_tuple(3, rng))
        if cm.in_G0 and cm.in_M:
            hits += 1
    if hits < 99:
        fail(f"only {hits}/100 in both classes")
    return (f"{hits}/100 standard Gaussian n=3 tuples lie in G0 and in "
            f"the identifiable class (need >= 99)")


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8)
