"""Constructive generators for pairs of systems that restricted input
classes cannot distinguish, although the systems are not i/o equivalent;
plus the membership predicates for the generic classes the constructions
need.

Classes (all decided by rank/residual tests at runtime):

  G0:      (A, b, c) canonical as a linear triple and N not in B(T(A,b,c)),
           where T is the self-dual transform and B(T) = {N : NT = TN'}.
           _g0_T decides it, and only there: N lies outside B(T) when the
           twin obstruction ||NT - TN'|| / ||T|| ||N|| that it reports
           exceeds residual_tol.
  C:       seeds (Q, N, b0, c) for the single-pulse construction: (Q,b0,c)
           and (Q-N,b0,c) canonical, e^Q - I invertible, N not in B(T).
  M:       systems identifiable from pulses of amplitude alpha: (A,b,c)
           canonical and (A+alpha*N, b) controllable.
  B_alpha: 2-state systems where fixed-rate sampling aliases: (A+alpha*N,b,c)
           canonical with a nonreal conjugate eigenvalue pair.

Every linear rank above comes from realization._linear, whose Krylov
matrices are pre-scaled by ||A||, so no flag depends on the time unit.
One Krylov build per seed: classify takes A, A - N and A + alpha N from
one build (_g0_T), single_pulse_pair takes A and A - N, and in_b_alpha
and sampled_pair take one build of (A + alpha N, b, c) for B_alpha.

The twin of N is M = T N' T^{-1}. It satisfies
c (A+g N)^k b = c (A+g M)^k b for every scalar g and power k, which is what
makes all single-constant-level probing blind to the swap, yet some longer
word separates the two tuples.

Every pair's agreement residual comes from one rule,
realization._moment_gap: on each constant level of its class the members
agree exactly when finitely many moments of the difference system do
(Cayley-Hamilton), and the residual is the worst moment gap relative to
the larger member's share. The levels are the pulse level from the start
state and each trailing level from the pulse-end state, which the pair's
one power table already holds; for the sampled class, the one-period step
maps. The residual is scale-free; outputs are read from tables only for
the distinguishing inputs.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (TYPE_I, TYPE_II, CounterexamplePair, FourTuple, InputClass,
                   PiecewiseConstantInput, constant_input, pulse_input)
from .errors import (DegenerateRescale, DimensionMismatch, NoDistinguisherFound,
                     NonFiniteEntry, NotInBalpha, NotInC, NotInG0, NoValidL)
from .matfun import DEFAULT_TOL, Tolerances, eigenvalues, expm, phi1
from .realization import (_difference, _linear, _moment_gap, _self_dual,
                          io_equivalent)
from .simulate import _generators, _power_table, _pulse_peaks, _start


@dataclass(frozen=True)
class ClassMembership:
    in_G0: bool
    in_C: bool
    in_M: bool
    in_B_alpha: Optional[bool]
    diagnostics: dict


def _g0_T(t, tol, diag, *others):
    """The G0 test: the self-dual transform T of t's linear triple when t
    lies in G0, else None; and the ranks [reach, obs] of the linear triple
    (G, b, c) of each G of others, from the same one _linear build. Records
    the linear ranks and, for a canonical triple, the twin obstruction
    ||NT - TN'|| / ||T|| ||N|| in diag; t lies in G0 exactly when that
    obstruction exceeds residual_tol (N = 0 reads 0, so it never does)."""
    K, ranks = _linear([t.A, *others], t.b, t.c, tol)
    diag["reach_rank"], diag["obs_rank"] = ranks[0]
    T = _self_dual(K[0], ranks[0])
    if T is None:
        return None, ranks[1:]
    diag["twin_obstruction"] = float(np.linalg.norm(t.N @ T - T @ t.N.T) / (
        np.linalg.norm(T) * np.linalg.norm(t.N) or 1.0))
    return (T if diag["twin_obstruction"] > tol.residual_tol else None,
            ranks[1:])


def _c_tests(t, ranks, tol, diag):
    """The tests class C adds to G0: (Q - N, b0, c) canonical, from its
    ranks (the build of _g0_T), and e^Q - I invertible. Records the
    shifted ranks and the eigenvalue gap min |e^lam - 1| in diag. A lam
    with real part past 700 is read as 700 (np.minimum orders complex
    numbers by real part first), so e^lam is never formed past the float
    range: |e^lam - 1| >= e^Re(lam) - 1, so such a lam still gives a gap of
    at least 1e304."""
    diag["shifted_reach_rank"], diag["shifted_obs_rank"] = ranks
    e = np.exp(np.minimum(eigenvalues(t.A), 700.0))
    diag["expQ_unit_eigen_gap"] = gap = float(np.min(np.abs(e - 1.0)))
    return ranks == [t.n, t.n] and gap > tol.residual_tol


def _pulse_G(t, alpha):
    """G = A + alpha N. Raises NonFiniteEntry for an amplitude alpha that
    is not finite."""
    if not abs(alpha) < math.inf:    # NaN fails too
        raise NonFiniteEntry(f"amplitude alpha must be finite, got {alpha}")
    return t.A + alpha * t.N


def _pulse_level(t, alpha, tol):
    """G = A + alpha N and the [reach, obs] ranks of the linear triple
    (G, b, c), from one build, for the B_alpha test alone. Raises
    NonFiniteEntry for an amplitude alpha that is not finite."""
    G = _pulse_G(t, alpha)
    return G, _linear([G], t.b, t.c, tol)[1][0]


def classify(t: FourTuple, alpha: float = 1.0,
             tol: Tolerances = DEFAULT_TOL) -> ClassMembership:
    """Membership flags for G0, C, M(alpha) and, when n = 2, B_alpha. Runs
    every test; the pair constructors and twin_via_T run only the G0 test
    (_g0_T) and, for a single-pulse seed, the tests C adds (_c_tests).
    The linear triples at A, A - N and A + alpha N come from one Krylov
    build (_g0_T). Raises NonFiniteEntry for an amplitude alpha that is
    not finite, before any work."""
    G = _pulse_G(t, alpha)
    diag = {}
    T, (shifted, ranks) = _g0_T(t, tol, diag, t.A - t.N, G)
    in_g0 = T is not None
    in_c = in_g0 and _c_tests(t, shifted, tol, diag)

    diag["alpha_reach_rank"] = ranks[0]
    in_m = diag["reach_rank"] == diag["obs_rank"] == ranks[0] == t.n
    in_balpha = _in_b_alpha(G, ranks, tol, diag) if t.n == 2 else None
    return ClassMembership(in_g0, in_c, in_m, in_balpha, diag)


def _in_b_alpha(G, ranks, tol, diag):
    """The B_alpha test of a 2-state tuple from its G = A + alpha N and the
    ranks of (G, b, c) (_pulse_level)."""
    lam = eigenvalues(G)
    diag["alpha_pair_reach_rank"], diag["alpha_pair_obs_rank"] = ranks
    diag["max_imag_part"] = im = float(np.max(np.abs(lam.imag)))
    return ranks == [2, 2] and im > tol.residual_tol * float(
        np.max(np.abs(lam)))


def in_b_alpha(t: FourTuple, alpha: float,
               tol: Tolerances = DEFAULT_TOL) -> bool:
    """Strict B_alpha predicate; defined for n = 2 only. Raises
    NonFiniteEntry for an amplitude alpha that is not finite."""
    if t.n != 2:
        raise DimensionMismatch(f"B_alpha is defined for n=2, got n={t.n}")
    return _in_b_alpha(*_pulse_level(t, alpha, tol), tol, {})


def _twin(T, N):
    """The twin M = T N' T^{-1} of N, with T the self-dual transform of
    the linear triple."""
    return T @ N.T @ np.linalg.inv(T)


def twin_via_T(t: FourTuple, tol: Tolerances = DEFAULT_TOL) -> FourTuple:
    """Replace N by its twin M = T N' T^{-1}. Requires t in G0, and runs
    only the G0 test, whose T gives the twin; the result is again in G0,
    differs from t, and matches it on every coefficient c (A + g N)^k b."""
    T, _ = _g0_T(t, tol, {})
    if T is None:
        raise NotInG0("twin construction requires membership in G0")
    return FourTuple(t.A, _twin(T, t.N), t.b, t.c, t.kind)


def _pair(sigma, sigma_hat, input_class, residual, u, tol):
    """The pair of a constructor, with the agreement residual and the
    distinguishing input u its certificates gave, and the first word on
    which io_equivalent finds the members differ."""
    _, word = io_equivalent(sigma, sigma_hat, tol)
    return CounterexamplePair(sigma, sigma_hat, input_class, residual, word, u)


# -- single pulse -------------------------------------------------------------

def _psi_b(Q, b0):
    """psi's drive det(rho(Q)) rho(Q)^{-1} b0, rho(Q) = int_0^1 e^{sQ} ds."""
    rho = phi1(Q, 1.0)
    return float(np.linalg.det(rho)) * np.linalg.solve(rho, np.ravel(b0))


def _rescaled(A, N, b, tau, alpha):
    """rescale's rule on arrays: (A/tau, N/(alpha tau), b/(alpha tau))."""
    return A / tau, N / (alpha * tau), b / (alpha * tau)


def psi(Q, N, b0, c, kind: str = TYPE_I) -> FourTuple:
    """(Q, N, b0, c) -> (Q - N, N, det(rho(Q)) rho(Q)^{-1} b0, c) with
    rho(Q) = int_0^1 e^{sQ} ds."""
    return FourTuple(np.asarray(Q) - np.asarray(N), N, _psi_b(Q, b0), c, kind)


def _check_pulse(tau, alpha):
    """Raise DegenerateRescale unless tau is finite and > 0 and alpha is
    finite and not 0: the guard of rescale, single_pulse_pair and
    sampled_pair, written so that NaN fails it."""
    if not (0 < tau < math.inf and 0 < abs(alpha) < math.inf):
        raise DegenerateRescale("need a finite tau > 0 and a finite "
                                "alpha != 0")


def _check_family(tau, alpha):
    """Raise DegenerateRescale unless tau is finite and >= 0 and alpha is
    finite: the guard of pulse_family_pair and distinguishing_search,
    written so that NaN fails it."""
    if not (0 <= tau < math.inf and abs(alpha) < math.inf):
        raise DegenerateRescale("need a finite tau >= 0 and a finite alpha")


def rescale(t: FourTuple, tau: float, alpha: float) -> FourTuple:
    """Carry a pair that agrees under the unit pulse (width 1, amplitude 1)
    to one that agrees under the width-tau amplitude-alpha pulse:
    (A, N, b, c) -> (A/tau, N/(alpha tau), b/(alpha tau), c)."""
    _check_pulse(tau, alpha)
    return FourTuple(*_rescaled(t.A, t.N, t.b, tau, alpha), t.c, t.kind)


def single_pulse_pair(seed: FourTuple, tau: float, alpha: float,
                      tol: Tolerances = DEFAULT_TOL) -> CounterexamplePair:
    """Two kind-I systems whose outputs coincide under the single pulse
    u = alpha on [0, tau), 0 after, although they are not i/o equivalent.

    The seed (Q, N, b0, c) must lie in class C. Only the G0 test and the
    tests C adds to it run, not classify's M and B_alpha tests, and both
    take their linear ranks from one Krylov build of (Q, b0, c) and
    (Q - N, b0, c) (_g0_T). Each member is built once, by psi's rule and
    rescale's rule in one step:
    sigma = rescale(psi(seed), tau, alpha), and the partner is the same
    with N replaced by the twin M taken at (Q, b0, c) from the T of the G0
    test (rho(Q) psi(seed).b = det(rho(Q)) b0, and the twin does not
    change when b is scaled), so both share psi's drive b. One
    power table of the difference system at delta = tau/100 gives both
    certificates (_pulse_certificates): the agreement residual, the
    relative moment gap of the level alpha from the start state and of the
    level 0 from the pulse-end state, and the distinguishing input, the
    single pulse of another width of distinguishing_search (None when no
    width separates)."""
    _check_pulse(tau, alpha)
    T, (shifted,) = _g0_T(seed, tol, {}, seed.A - seed.N)
    if T is None or not _c_tests(seed, shifted, tol, {}):
        raise NotInC("seed must lie in class C")
    Q, N, c = seed.A, seed.N, seed.c
    b, M = _psi_b(Q, seed.b), _twin(T, N)
    sigma = FourTuple(*_rescaled(Q - N, N, b, tau, alpha), c, TYPE_I)
    sigma_hat = FourTuple(*_rescaled(Q - M, M, b, tau, alpha), c, TYPE_I)

    residual, u, gap = _pulse_certificates(sigma, sigma_hat, tau, alpha, [0.0])
    return _pair(sigma, sigma_hat, InputClass("single-pulse", tau, alpha),
                 residual, u if gap > tol.agree_tol else None, tol)


# the multiples of delta = s/100 nearest 32 points of [s/8, 4s], in steps,
# and the same without tau (100 steps)
_WIDTHS = np.rint(np.linspace(12.5, 400.0, 32)).astype(int)
_WIDTHS_BUT_TAU = _WIDTHS[_WIDTHS != 100]
_WIDTHS.flags.writeable = _WIDTHS_BUT_TAU.flags.writeable = False


def _witness_widths(tau):
    """The pulse widths distinguishing_search scans, in steps of
    delta = s/100: the multiples nearest 32 points of [s/8, 4s], leaving
    out tau (100 steps). One of two read-only constants, the same arrays
    on every call."""
    return _WIDTHS_BUT_TAU if tau else _WIDTHS


def _pulse_certificates(s1, s2, tau, alpha, betas=None):
    """From one power table of the difference system of s1 and s2 with the
    pulse step delta = s/100: the agreement residual, the moment gap
    (realization._moment_gap) of the level alpha from the start state and
    of each level in betas from the pulse-end state, row tau/delta of the
    table (None, and no gap computed, when betas is None); the pulse of
    distinguishing_search, read on [0, 5s] with level 0 after it; and that
    pulse's largest gap."""
    d = _difference(s1, s2)
    s = tau or 1.0
    delta = s / 100
    Z, R = _power_table(d, alpha, delta, 501)
    k = _witness_widths(tau)
    gap = _pulse_peaks(Z, R, k)
    best = int(np.argmax(gap))
    residual = None if betas is None else _moment_gap(
        _generators(d, [alpha, *betas]),
        [Z[0]] + [Z[round(tau / delta)]] * len(betas), R[0], s1.n)
    return (residual, pulse_input(k[best] * delta, alpha, 0.0, 5.0 * s + 1.0),
            float(gap[best]))


def distinguishing_search(pair: CounterexamplePair, tau: float, alpha: float,
                          tol: Tolerances = DEFAULT_TOL
                          ) -> PiecewiseConstantInput:
    """The single pulse u = alpha on [0, w), 0 after, whose output gap
    between the pair members on [0, 5s] is largest, with s = tau (1 when
    tau = 0); returns pulse_input(w, alpha, 0, 5s + 1). The width w ranges
    over the multiples of delta = s/100 nearest 32 points of [s/8, 4s],
    leaving out tau, whose pulse lies in the class.

    Widths and output times lie on the grid j delta, so one power table of
    the difference system (_pulse_certificates), with no march, covers
    every width; no agreement residual is computed. Raises
    NoDistinguisherFound when no width separates the pair by more than
    agree_tol, and DegenerateRescale, before any work, unless tau is
    finite and >= 0 and alpha finite (pulse_family_pair's guard)."""
    _check_family(tau, alpha)
    _, u, gap = _pulse_certificates(pair.sigma, pair.sigma_hat, tau, alpha)
    if gap <= tol.agree_tol:
        raise NoDistinguisherFound(f"largest discrepancy {gap:.3e} over "
                                   f"the pulse widths")
    return u


# -- pulse family / constants -------------------------------------------------

BETA_TEST_SET = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def phi_map(P, N, b0, c, tau: float, alpha: float,
            kind: str = TYPE_II) -> FourTuple:
    """(P, N, b0, c) -> (P - alpha N, N, e^{-tau P} b0, c)."""
    P = np.asarray(P, dtype=float)
    b = expm(-tau * P) @ np.ravel(b0) if tau else np.ravel(b0)  # e^0 = I
    return FourTuple(P - alpha * np.asarray(N), N, b, c, kind)


def pulse_family_pair(seed: FourTuple, tau: float, alpha: float,
                      tol: Tolerances = DEFAULT_TOL,
                      kind: str = TYPE_II) -> CounterexamplePair:
    """Two systems whose outputs coincide under every input that holds
    alpha on [0, tau) and an arbitrary constant afterward, although they
    are not i/o equivalent. tau = 0 gives the constant-input class.

    The seed (P, N, b0, c) must lie in G0, and only the G0 test runs; its
    T gives the twin M of N. One power table of the difference system at
    delta = s/100 (s = tau, or 1 when tau = 0) gives both certificates
    (_pulse_certificates): the agreement residual, the relative moment gap
    of the level alpha from the start state and of each trailing level
    BETA_TEST_SET * max(1, |alpha|) from the pulse-end state; and the
    distinguishing input, a single pulse of amplitude alpha and a width
    other than tau, then 0, from distinguishing_search (None when no width
    separates).

    Kind II is the native setting; kind I is available for tau = 0 only
    (the constant response of a kind-I system is the integral of the
    kind-II one, so agreement transfers)."""
    _check_family(tau, alpha)
    if kind == TYPE_I and tau != 0:
        raise ValueError("kind-I pairs exist only for tau = 0 (constants)")
    T, _ = _g0_T(seed, tol, {})
    if T is None:
        raise NotInG0("seed must lie in G0")
    P, N, b0, c = seed.A, seed.N, seed.b, seed.c
    M = _twin(T, N)

    sigma = phi_map(P, N, b0, c, tau, alpha, kind)
    sigma_hat = FourTuple(P - alpha * M, M, sigma.b, c, kind)

    residual, u, gap = _pulse_certificates(
        sigma, sigma_hat, tau, alpha, BETA_TEST_SET * max(1.0, abs(alpha)))
    label = "constants" if tau == 0 else "pulse-family"
    return _pair(sigma, sigma_hat, InputClass(label, tau or None, alpha),
                 residual, u if gap > tol.agree_tol else None, tol)


# -- fixed-rate sampling -------------------------------------------------------

def _sampled_agreement(d, tau, alpha):
    """The relative moment gap (realization._moment_gap) of a kind-I pair,
    whose difference system is d, under the sampled recursion at period
    tau: the step map E at the level alpha from the start state, and the
    step map F at the level 0 from each E^k start, k below the order of
    the maps, which covers every pulse train alpha^k 0^j."""
    E, F = expm(tau * _generators(d, [alpha, 0.0]))
    Z = [np.linalg.matrix_power(E, k) @ _start(d) for k in range(d.n + 1)]
    return _moment_gap(np.array([E] + [F] * len(Z)), [Z[0]] + Z,
                       np.append(d.c, 0.0), d.n // 2)


def sampled_pair(t: FourTuple, tau: float, alpha: float,
                 l: Optional[int] = None,
                 tol: Tolerances = DEFAULT_TOL) -> CounterexamplePair:
    """Two 2-state kind-I systems that a sampler running at period tau
    cannot tell apart on pulses of width k*tau and amplitude alpha (the
    sampled transition and drive alias exactly), while the continuous-time
    responses to u = alpha differ.

    The certificates come from the difference system: the sampled
    agreement of _sampled_agreement, and the continuous separation from a
    power table at delta = 0.01, under u = alpha at the 301 points of
    [0, 3].

    With G = A + alpha N = r I + s J, s > 0 the imaginary part of its
    eigenvalues (J is a quarter turn in G's real Jordan basis), shifts the
    rotation rate by 2*pi*l/tau via M = N + (2 pi l/(alpha tau)) J, and
    matches the drive with bhat = (A + alpha M) G^{-1} b."""
    if t.n != 2:
        raise DimensionMismatch(f"the sampled construction needs n=2, got {t.n}")
    _check_pulse(tau, alpha)
    G, ranks = _pulse_level(t, alpha, tol)
    if not _in_b_alpha(G, ranks, tol, {}):
        raise NotInBalpha("system must lie in B_alpha")

    (g11, g12), (g21, g22) = G
    s = math.sqrt(-(g11 - g22) ** 2 / 4 - g12 * g21)
    L = (2.0 * math.pi / tau) * (G - (g11 + g22) / 2 * np.eye(2)) / s

    def admissible(cand):
        return (abs(s + 2.0 * cand * math.pi / tau) > tol.residual_tol
                and _linear([G + cand * L], t.b, t.c, tol)[1] == [[2, 2]])

    if l is None:
        for cand in (k * sgn for k in range(1, 51) for sgn in (1, -1)):
            if admissible(cand):
                l = cand
                break
        else:
            raise NoValidL("no admissible integer l with |l| <= 50")
    elif l == 0 or not admissible(l):
        raise NoValidL(f"l={l} is not admissible")

    M = t.N + (l / alpha) * L
    sigma_hat = FourTuple(t.A, M, (t.A + alpha * M) @ np.linalg.solve(G, t.b),
                          t.c, TYPE_I)
    sigma = t if t.kind == TYPE_I else t.with_kind(TYPE_I)

    diff = _difference(sigma, sigma_hat)
    residual = _sampled_agreement(diff, tau, alpha)
    Z, R = _power_table(diff, alpha, 0.01, 301)
    disc = float(np.max(np.abs(Z @ R[0])))
    if disc <= tol.agree_tol:
        raise NoDistinguisherFound(
            f"constant input failed to separate the pair (max gap {disc:.3e})"
        )

    return _pair(sigma, sigma_hat, InputClass("sampled", tau, alpha),
                 residual, constant_input(alpha, 4.0), tol)


# -- seed sampling ---------------------------------------------------------------

def gaussian_tuple(n: int, rng, kind: str = TYPE_I,
                   scale: float = 1.0) -> FourTuple:
    return FourTuple(scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal(n),
                     scale * rng.standard_normal(n), kind)


MAX_TRIES = 200


def _rejection_sample(n, rng, predicate, kind, scale):
    for tries in range(1, MAX_TRIES + 1):
        t = gaussian_tuple(n, rng, kind, scale)
        if predicate(t):
            return t, tries
    raise RuntimeError(f"no admissible tuple in {MAX_TRIES} draws")


def sample_in_G0(n, rng, tol=DEFAULT_TOL, kind=TYPE_I, scale=1.0):
    """Rejection-sample a Gaussian tuple into G0; returns (tuple, draws)."""
    return _rejection_sample(
        n, rng, lambda t: classify(t, tol=tol).in_G0, kind, scale)


def sample_in_C(n, rng, tol=DEFAULT_TOL, kind=TYPE_I, scale=1.0):
    return _rejection_sample(
        n, rng, lambda t: classify(t, tol=tol).in_C, kind, scale)


def sample_in_M(n, alpha, rng, tol=DEFAULT_TOL, kind=TYPE_I, scale=1.0):
    return _rejection_sample(
        n, rng, lambda t: classify(t, alpha, tol).in_M, kind, scale)


def sample_in_B_alpha(alpha, rng, tol=DEFAULT_TOL, scale=1.0):
    return _rejection_sample(
        2, rng, lambda t: in_b_alpha(t, alpha, tol), TYPE_I, scale)
