"""Reproducible end-to-end checks of the package's headline guarantees.

Each criterion body draws its samples from its own seeded stream, judges
every advertised bound through the recorder fail that it is handed, and
returns a line of details with the worst observed values. The _criterion
decorator is the one runner around every body: it times the body, hands it
the stream and a fresh recorder, records a BilinError that the body raises
as a failure, appends the first four failures to the details, and builds
the CriterionResult; the criterion passes when nothing was recorded as
failed.

The recorder is the callable fail(msg), which records one failure; a
yes/no check calls it directly. Every numeric bound goes through one of
its two methods, which judge x against the bound and keep x's worst value
under a name, in fail.kept, for the details to read:

- fail.at_most(name, x, bound, msg) keeps the largest x and calls
  fail(msg) unless x <= bound;
- fail.above(name, x, bound, msg) keeps the smallest x and calls fail(msg)
  unless x > bound.

A NaN compares false with everything, so it breaks either bound, and the
kept value, once NaN, stays NaN: a NaN fails its criterion and shows as
nan in the details. ALL_CRITERIA lists the criteria in order; the CLI verb
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


class _Recorder:
    """The fail that a criterion body gets (module docstring): fail(msg)
    records a failure, and at_most and above judge a numeric bound and
    keep its worst value in kept."""

    def __init__(self):
        self.failures, self.kept = [], {}

    def __call__(self, msg):
        self.failures.append(msg)

    def at_most(self, name, x, bound, msg):
        self.kept[name] = float(np.maximum(self.kept.get(name, x), x))
        if not x <= bound:
            self(msg)

    def above(self, name, x, bound, msg):
        self.kept[name] = float(np.minimum(self.kept.get(name, x), x))
        if not x > bound:
            self(msg)


def _criterion(index: int, name: str, budget: float, label: str):
    """Make a criterion from body(rng, fail) -> details. The body draws from
    seeded_rng(ACCEPTANCE_SEED, label) and judges its bounds through the
    recorder fail; a BilinError that the body raises is recorded as one
    more failure, so one criterion that raises does not hide the others'
    lines. The criterion passes when no failure is recorded, and its
    details end with the first four failures otherwise."""
    def wrap(body):
        def run() -> CriterionResult:
            start = time.perf_counter()
            fail = _Recorder()
            try:
                details = body(seeded_rng(ACCEPTANCE_SEED, label), fail)
            except BilinError as e:
                details = "stopped by an error"
                fail(f"raised {type(e).__name__}: {e}")
            if fail.failures:
                details += "; FAILURES: " + "; ".join(fail.failures[:4])
            return CriterionResult(index, name, not fail.failures, details,
                                   time.perf_counter() - start, budget)
        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        return run
    return wrap


@_criterion(1, "closed-loop moment-matching twins", 5.0, "twins")
def criterion_1(rng, fail) -> str:
    """Twin systems: distinct, equal on every c (A + g N)^k b, inequivalent."""
    gammas = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for i in range(100):
        n = 2 + (i % 2)
        t, _ = sample_in_G0(n, rng)
        th = twin_via_T(t)
        sep = float(np.linalg.norm(th.N - t.N))
        fail.above("sep", sep, 1e-6, f"#{i}: twin too close ({sep:.2e})")
        ys = []
        for g in gammas:
            G1, G2 = t.A + g * t.N, t.A + g * th.N
            v1, v2 = t.b, th.b
            for _ in range(2 * n + 1):
                ys.append((t.c @ v1, th.c @ v2))
                v1, v2 = G1 @ v1, G2 @ v2
        y1, y2 = np.array(ys).T
        scale = max(1.0, float(np.max(np.abs(y1))))
        gap = float(np.max(np.abs(y1 - y2)))
        fail.at_most("gap", gap / scale, 1e-8,
                     f"#{i}: moment gap {gap:.2e} vs scale {scale:.2e}")
        eq, word = io_equivalent(t, th)
        if eq or word is None:
            fail(f"#{i}: twins not separated by a word")
    return (f"100 twin pairs (n=2,3): min ||M-N|| {fail.kept['sep']:.2e}, "
            f"worst relative moment gap {fail.kept['gap']:.2e} over k<=2n, "
            f"g in {{-2,-1,0,1,2}}; all inequivalent with word certificates")


def _gap(pair, u, grid) -> float:
    """Largest output gap of the pair under the input u on the grid, by
    simulating each member."""
    return float(np.max(np.abs(simulate(pair.sigma, u, grid).outputs
                               - simulate(pair.sigma_hat, u, grid).outputs)))


def _certify(pair, agree, label, fail, if_equivalent):
    """Judge the certificates of a C2 or C3 pair: its agreement gap agree
    at most 1e-7, no equivalence (else the failure `label: if_equivalent`),
    and a distinguishing input that separates it by more than 1e-6 on 160
    points up to the input's horizon - 1. Returns that separation, or None
    when the pair carries no distinguishing input."""
    fail.at_most("agree", agree, 1e-7, f"{label}: agreement {agree:.2e}")
    if io_equivalent(pair.sigma, pair.sigma_hat)[0]:
        fail(f"{label}: {if_equivalent}")
    u = pair.distinguishing_input
    if u is None:
        fail(f"{label}: no distinguishing input found")
        return None
    disc = _gap(pair, u, np.linspace(0.0, u.horizon - 1.0, 160))
    fail.above("sep", disc, 1e-6,
               f"{label}: distinguisher gap only {disc:.2e}")
    return disc


@_criterion(2, "single-pulse counterexample pairs", 30.0, "single-pulse")
def criterion_2(rng, fail) -> str:
    """Single-pulse pairs agree under the pulse of width tau, simulated
    member by member, and differ under the single pulse of another width
    tau* that they carry."""
    combos = ((1.0, 1.0), (2.0, 0.5), (0.3, -1.0))
    weakest = (np.inf, np.nan)    # separation, width tau*
    for i in range(25):
        n = 2 + (i % 2)
        # keep outputs O(100) over [0, 5 tau] so the absolute agreement
        # bound measures the construction, not exponential blowup
        while True:
            seed, _ = sample_in_C(n, rng, scale=0.4)
            if _growth(seed.A) <= 0.6 and _growth(seed.A - seed.N) <= 0.6:
                break
        for tau, alpha in combos:
            pair = single_pulse_pair(seed, tau, alpha)
            agree = _gap(pair, pulse_input(tau, alpha, 0.0, 5.0 * tau + 1.0),
                         np.linspace(0.0, 5.0 * tau, 500))
            disc = _certify(pair, agree, f"#{i} (tau={tau}, alpha={alpha})",
                            fail, "pair reported equivalent")
            if disc is not None:
                weakest = min(weakest, (
                    disc, float(pair.distinguishing_input.breakpoints[1])))
    return (f"25 class-C seeds x 3 (tau, alpha): worst pulse-response "
            f"agreement {fail.kept['agree']:.2e} on 500-point grids over "
            f"[0, 5 tau]; all pairs inequivalent; weakest single-pulse "
            f"(width tau*) separation {fail.kept.get('sep', np.inf):.2e} at "
            f"tau* = {weakest[1]:.3g}")


@_criterion(3, "pulse-family and constant-input pairs", 30.0, "pulse-family")
def criterion_3(rng, fail) -> str:
    """Pulse-family pairs agree for every trailing constant level, and the
    single pulse of another width that each pair carries separates it."""
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
            pair = pulse_family_pair(seed, tau, 1.0)
            grid = np.linspace(0.0, tau + 5.0, 301)
            agree = np.max([_gap(pair, pulse_input(tau, 1.0, b, tau + 6.0),
                                 grid) for b in BETA_TEST_SET])
            _certify(pair, agree, f"#{i} (tau={tau})", fail,
                     "pair not separated by a word")
    return (f"25 G0 seeds x tau in {{0, 1}}: worst agreement "
            f"{fail.kept['agree']:.2e} across 7 trailing levels on "
            f"301-point grids over [0, tau+5]; all pairs word-inequivalent; "
            f"weakest single-pulse separation "
            f"{fail.kept.get('sep', np.inf):.2e}")


@_criterion(4, "sampled-data counterexample pairs", 10.0, "sampled")
def criterion_4(rng, fail) -> str:
    """Sampled pairs: identical samples, each member run through its own
    sampled recursion, and distinct continuous outputs."""
    for i in range(10):
        t, _ = sample_in_B_alpha(1.0, rng)
        pair = sampled_pair(t, 1.0, 1.0)
        # the samples of each member under the trains alpha^k 0^(10-k)
        y1, y2 = (np.array([y for k in range(7) for _, y in sample_discrete(
                      m, 1.0, [1.0] * k + [0.0] * (10 - k))])
                  for m in (pair.sigma, pair.sigma_hat))
        agree = float(np.max(np.abs(y1 - y2)))
        fail.at_most("agree", agree, 1e-9,
                     f"#{i}: sampled agreement {agree:.2e}")
        disc = _gap(pair, pair.distinguishing_input,
                    np.linspace(0.0, 3.0, 301))
        fail.above("sep", disc, 1e-4, f"#{i}: continuous gap only {disc:.2e}")
    return (f"10 B_alpha systems at tau=1, alpha=1: worst sampled "
            f"agreement {fail.kept['agree']:.2e} over pulse trains (widths "
            f"up to 6 tau, 10 samples); weakest continuous separation "
            f"{fail.kept['sep']:.2e} on [0, 3]")


@_criterion(5, "identification from pulse responses", 60.0, "identify")
def criterion_5(rng, fail) -> str:
    """Identification recovers each system up to similarity."""
    cfg = IdentifyConfig(n_max=4)
    loose = Tolerances(rank_tol=DEFAULT_TOL.rank_tol, residual_tol=1e-5,
                       agree_tol=DEFAULT_TOL.agree_tol)
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
            got = res.tuple
            inv = float(np.max(np.abs([got.A[0, 0] - truth.A[0, 0],
                                       got.N[0, 0] - truth.N[0, 0],
                                       got.c @ got.b - truth.c @ truth.b])))
            fail.at_most("inv", inv, 1e-6,
                         f"{label}: scalar invariants off by {inv:.2e}")
    return (f"50 identifiable systems (n=1..3, kinds I and II, alpha in "
            f"{{1, -0.5}}): all recovered canonically, i/o equivalent at "
            f"1e-5, similar to truth; worst n=1 invariant error "
            f"{fail.kept.get('inv', 0.0):.2e}")


@_criterion(6, "similarity recovery and self-dual transform", 10.0, "similarity")
def criterion_6(rng, fail) -> str:
    """similarity_between recovers conjugators; self-dual T relations hold."""
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
        fail.at_most("T", err, 1e-8, f"#{done}: conjugator error {err:.2e}")
        T = self_dual_T(t.A, t.b, t.c)
        nT = max(1.0, float(np.linalg.norm(T)))
        rel = float(np.max([
            float(np.linalg.norm(t.A @ T - T @ t.A.T))
            / max(1.0, float(np.linalg.norm(t.A)) * nT),
            float(np.linalg.norm(T @ t.c - t.b)) / nT,
            float(np.linalg.norm(T - T.T)) / nT,
        ]))
        fail.at_most("dual", rel, 1e-8,
                     f"#{done}: self-dual residual {rel:.2e}")
        done += 1
    return (f"100 conjugated canonical pairs (cond <= 1e3): worst "
            f"conjugator recovery error {fail.kept.get('T', 0.0):.2e}; worst "
            f"self-dual transform residual (intertwining, b = T c', "
            f"symmetry) {fail.kept.get('dual', 0.0):.2e}")


@_criterion(7, "simulation consistency laws", 10.0, "simulation-consistency")
def criterion_7(rng, fail) -> str:
    """Sampled recursion, semigroup restart, and time rescaling all agree
    with direct simulation."""
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
        xs, ys = zip(*samples[1:])
        d = float(np.max(np.abs(np.column_stack(
            [traj.outputs - ys, traj.states - xs])))) / scale
        fail.at_most("disc", d, 1e-9, f"#{i}: sampled-vs-simulate gap {d:.2e}")

        # restart from the third sample and land on the same trajectory
        x_mid, t_mid = samples[3][0], 3 * tau
        tail = _march(t, u, grid[3:], x_mid, t_mid, False)
        s = max(1.0, float(np.max(np.abs(traj.outputs[3:]))))
        semi = float(np.max(np.abs(tail.outputs - traj.outputs[3:]))) / s
        fail.at_most("semi", semi, 1e-8,
                     f"#{i}: semigroup restart gap {semi:.2e}")

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
        fail.at_most("resc", resc, 1e-8, f"#{i}: rescaling gap {resc:.2e}")
    return (f"50 systems: sampled recursion matches simulation to "
            f"{fail.kept['disc']:.2e} (states and outputs); semigroup restart "
            f"to {fail.kept['semi']:.2e}; time rescaling to "
            f"{fail.kept['resc']:.2e}")


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
