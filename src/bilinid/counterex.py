"""Constructive generators for pairs of systems that restricted input
classes cannot distinguish, although the systems are not i/o equivalent;
plus the membership predicates for the generic classes the constructions
need.

Classes (all decided by rank/residual tests at runtime):

  G0:      (A, b, c) canonical as a linear triple and N not in B(T(A,b,c)),
           where T is the self-dual transform and B(S) = {N : NS = SN'}.
  C:       seeds (Q, N, b0, c) for the single-pulse construction: (Q,b0,c)
           and (Q-N,b0,c) canonical, e^Q - I invertible, N not in B(T).
  M:       systems identifiable from pulses of amplitude alpha: (A,b,c)
           canonical and (A+alpha*N, b) controllable.
  B_alpha: 2-state systems where fixed-rate sampling aliases: (A+alpha*N,b,c)
           canonical with a nonreal conjugate eigenvalue pair.

The twin of N is M = T N' T^{-1}. It satisfies
c (A+g N)^k b = c (A+g M)^k b for every scalar g and power k, which is what
makes all single-constant-level probing blind to the swap, yet some longer
word separates the two tuples.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (TYPE_I, TYPE_II, CounterexamplePair, FourTuple, InputClass,
                   PiecewiseConstantInput, constant_input, validate)
from .errors import (DegenerateRescale, DimensionMismatch, NoDistinguisherFound,
                     NotInBalpha, NotInC, NotInG0, NoValidL)
from .matfun import DEFAULT_TOL, Tolerances, eigenvalues, expm, phi1, rank_of
from .realization import _difference, in_B, io_equivalent, krylov, self_dual_T
from .simulate import respond_pulse, sample_discrete, simulate


@dataclass(frozen=True)
class ClassMembership:
    in_G0: bool
    in_C: bool
    in_M: bool
    in_B_alpha: Optional[bool]
    diagnostics: dict


def _linear_ranks(A, b, c, tol):
    return rank_of(krylov(A, b), tol), rank_of(krylov(A.T, c).T, tol)


def classify(t: FourTuple, alpha: float = 1.0,
             tol: Tolerances = DEFAULT_TOL) -> ClassMembership:
    """Membership flags for G0, C, M(alpha) and, when n = 2, B_alpha."""
    validate(t)
    n = t.n
    A, N, b, c = t.A, t.N, t.b, t.c
    diag = {}

    r_reach, r_obs = _linear_ranks(A, b, c, tol)
    diag["reach_rank"] = r_reach
    diag["obs_rank"] = r_obs
    linear_canonical = r_reach == n and r_obs == n

    in_g0 = False
    if linear_canonical:
        T = self_dual_T(A, b, c, tol)
        diag["twin_obstruction"] = float(np.linalg.norm(N @ T - T @ N.T) / (
            np.linalg.norm(T) * np.linalg.norm(N) or 1.0))
        in_g0 = not in_B(N, T, tol)

    in_c = False
    if in_g0:
        r2, o2 = _linear_ranks(A - N, b, c, tol)
        diag["shifted_reach_rank"] = r2
        diag["shifted_obs_rank"] = o2
        gap = float(np.min(np.abs(np.exp(eigenvalues(A)) - 1.0)))
        diag["expQ_unit_eigen_gap"] = gap
        in_c = r2 == n and o2 == n and gap > tol.residual_tol

    G = A + alpha * N
    r_alpha = rank_of(krylov(G, b), tol)
    diag["alpha_reach_rank"] = r_alpha
    in_m = linear_canonical and r_alpha == n

    in_balpha = None
    if n == 2:
        in_balpha = _in_b_alpha(t, alpha, tol, diag)

    return ClassMembership(in_g0, in_c, in_m, in_balpha, diag)


def _in_b_alpha(t, alpha, tol, diag):
    G = t.A + alpha * t.N
    rg, og = _linear_ranks(G, t.b, t.c, tol)
    lam = eigenvalues(G)
    im = float(np.max(np.abs(lam.imag)))
    diag["alpha_pair_reach_rank"] = rg
    diag["alpha_pair_obs_rank"] = og
    diag["max_imag_part"] = im
    scale = max(1.0, float(np.max(np.abs(lam))))
    return rg == 2 and og == 2 and im > tol.residual_tol * scale


def in_b_alpha(t: FourTuple, alpha: float,
               tol: Tolerances = DEFAULT_TOL) -> bool:
    """Strict B_alpha predicate; defined for n = 2 only."""
    validate(t)
    if t.n != 2:
        raise DimensionMismatch(f"B_alpha is defined for n=2, got n={t.n}")
    return _in_b_alpha(t, alpha, tol, {})


def _twin(A, N, b, c, tol):
    """The twin M = T N' T^{-1} of N, with T the self-dual transform of
    the linear triple (A, b, c)."""
    T = self_dual_T(A, b, c, tol)
    return T @ N.T @ np.linalg.inv(T)


def twin_via_T(t: FourTuple, tol: Tolerances = DEFAULT_TOL) -> FourTuple:
    """Replace N by its twin M = T N' T^{-1}. Requires t in G0; the result
    is again in G0, differs from t, and matches it on every coefficient
    c (A + g N)^k b."""
    if not classify(t, tol=tol).in_G0:
        raise NotInG0("twin construction requires membership in G0")
    return FourTuple(t.A, _twin(t.A, t.N, t.b, t.c, tol), t.b, t.c, t.kind)


# -- single pulse -------------------------------------------------------------

def psi(Q, N, b0, c, kind: str = TYPE_I) -> FourTuple:
    """(Q, N, b0, c) -> (Q - N, N, det(rho(Q)) rho(Q)^{-1} b0, c) with
    rho(Q) = int_0^1 e^{sQ} ds."""
    rho = phi1(Q, 1.0)
    b = float(np.linalg.det(rho)) * np.linalg.solve(rho, np.ravel(b0))
    return FourTuple(np.asarray(Q) - np.asarray(N), N, b, c, kind)


def psi_inverse(t: FourTuple):
    """Recover (Q, N, b0, c): Q = A + N, b0 = det(rho(Q))^{-1} rho(Q) b."""
    Q = t.A + t.N
    rho = phi1(Q, 1.0)
    b0 = (rho @ t.b) / float(np.linalg.det(rho))
    return Q, t.N, b0, t.c


def rescale(t: FourTuple, tau: float, alpha: float) -> FourTuple:
    """Carry a pair that agrees under the unit pulse (width 1, amplitude 1)
    to one that agrees under the width-tau amplitude-alpha pulse:
    (A, N, b, c) -> (A/tau, N/(alpha tau), b/(alpha tau), c)."""
    if tau <= 0 or alpha == 0:
        raise DegenerateRescale("need tau > 0 and alpha != 0")
    return FourTuple(t.A / tau, t.N / (alpha * tau), t.b / (alpha * tau),
                     t.c, t.kind)


def single_pulse_pair(seed: FourTuple, tau: float, alpha: float,
                      tol: Tolerances = DEFAULT_TOL,
                      grid_points: int = 500) -> CounterexamplePair:
    """Two kind-I systems whose outputs coincide under the single pulse
    u = alpha on [0, tau), 0 after, although they are not i/o equivalent.

    The seed (Q, N, b0, c) must lie in class C. The construction follows
    the unit-pulse normalization: sigma = psi(seed); the partner replaces N
    by the twin M taken at (Q, b1, c) with b1 = rho(Q) b; both are then
    rescaled to (tau, alpha)."""
    if tau <= 0 or alpha == 0:
        raise DegenerateRescale("need tau > 0 and alpha != 0")
    if not classify(seed, tol=tol).in_C:
        raise NotInC("seed must lie in class C")
    Q, N, b0, c = seed.A, seed.N, seed.b, seed.c

    sigma = psi(Q, N, b0, c, TYPE_I)
    M = _twin(Q, N, phi1(Q, 1.0) @ sigma.b, c, tol)
    sigma_hat = FourTuple(Q - M, M, sigma.b, c, TYPE_I)

    sigma = rescale(sigma, tau, alpha)
    sigma_hat = rescale(sigma_hat, tau, alpha)

    grid = np.linspace(0.0, 5.0 * tau, grid_points)
    gap = respond_pulse(_difference(sigma, sigma_hat), tau, alpha, 0.0, grid)
    residual = float(np.max(np.abs(gap.outputs)))

    _, word = io_equivalent(sigma, sigma_hat, tol)
    pair = CounterexamplePair(
        sigma=sigma,
        sigma_hat=sigma_hat,
        input_class=InputClass("single-pulse", tau, alpha),
        agreement_residual=residual,
        distinguishing_word=word,
    )
    try:
        u = distinguishing_search(pair, tau, alpha, tol)
    except NoDistinguisherFound:
        u = None
    if u is not None:
        pair = CounterexamplePair(
            sigma=sigma, sigma_hat=sigma_hat,
            input_class=pair.input_class,
            agreement_residual=residual,
            distinguishing_word=word,
            distinguishing_input=u,
        )
    return pair


def distinguishing_search(pair: CounterexamplePair, tau: float, alpha: float,
                          tol: Tolerances = DEFAULT_TOL,
                          s_points: int = 32,
                          grid_points: int = 160) -> PiecewiseConstantInput:
    """Scan the two-pulse family u_s (amplitude alpha on [0,tau), off during
    a gap of length s, amplitude alpha again after) for the s giving the
    largest output discrepancy; returns the maximizing input. The gap s
    ranges over s_points values in (0, 4*tau]."""
    diff = _difference(pair.sigma, pair.sigma_hat)
    best = None
    best_disc = 0.0
    for s in np.linspace(4.0 * tau / s_points, 4.0 * tau, s_points):
        t_end = 4.0 * tau + s
        u = PiecewiseConstantInput(
            np.array([0.0, tau, tau + s]),
            np.array([alpha, 0.0, alpha]),
            t_end + 1.0,
        )
        grid = np.linspace(0.0, t_end, grid_points)
        disc = float(np.max(np.abs(simulate(diff, u, grid).outputs)))
        if disc > best_disc:
            best, best_disc = u, disc
    if best is None or best_disc <= tol.agree_tol:
        raise NoDistinguisherFound(
            f"largest discrepancy {best_disc:.3e} over {s_points} gap values"
        )
    return best


# -- pulse family / constants -------------------------------------------------

BETA_TEST_SET = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def phi_map(P, N, b0, c, tau: float, alpha: float,
            kind: str = TYPE_II) -> FourTuple:
    """(P, N, b0, c) -> (P - alpha N, N, e^{-tau P} b0, c)."""
    P = np.asarray(P, dtype=float)
    return FourTuple(P - alpha * np.asarray(N), N,
                     expm(-tau * P) @ np.ravel(b0), c, kind)


def phi_inverse(t: FourTuple, tau: float, alpha: float):
    P = t.A + alpha * t.N
    return P, t.N, expm(tau * P) @ t.b, t.c


def pulse_family_pair(seed: FourTuple, tau: float, alpha: float,
                      tol: Tolerances = DEFAULT_TOL,
                      kind: str = TYPE_II,
                      grid_points: int = 240) -> CounterexamplePair:
    """Two systems whose outputs coincide under every input that holds
    alpha on [0, tau) and an arbitrary constant afterward, although they
    are not i/o equivalent. tau = 0 gives the constant-input class.

    Kind II is the native setting; kind I is available for tau = 0 only
    (the constant response of a kind-I system is the integral of the
    kind-II one, so agreement transfers)."""
    if tau < 0:
        raise DegenerateRescale("need tau >= 0")
    if kind == TYPE_I and tau != 0:
        raise ValueError("kind-I pairs exist only for tau = 0 (constants)")
    if not classify(seed, tol=tol).in_G0:
        raise NotInG0("seed must lie in G0")
    P, N, b0, c = seed.A, seed.N, seed.b, seed.c
    M = _twin(P, N, b0, c, tol)

    sigma = phi_map(P, N, b0, c, tau, alpha, kind)
    sigma_hat = FourTuple(P - alpha * M, M, sigma.b, c, kind)

    diff = _difference(sigma, sigma_hat)
    grid = np.linspace(0.0, tau + 5.0, grid_points)
    residual = 0.0
    for beta in BETA_TEST_SET * max(1.0, abs(alpha)):
        gap = respond_pulse(diff, tau, alpha, beta, grid).outputs
        residual = max(residual, float(np.max(np.abs(gap))))

    _, word = io_equivalent(sigma, sigma_hat, tol)
    label = "constants" if tau == 0 else "pulse-family"
    return CounterexamplePair(
        sigma=sigma,
        sigma_hat=sigma_hat,
        input_class=InputClass(label, None if tau == 0 else tau, alpha),
        agreement_residual=residual,
        distinguishing_word=word,
    )


# -- fixed-rate sampling -------------------------------------------------------

def _real_jordan_basis(G, tol):
    """Basis P with P^{-1} G P = [[r, -s], [s, r]], s > 0, from the
    eigenvector v of the eigenvalue r + i s: P = [Re v, -Im v]. The sign of
    v is fixed by making the first nonzero component of Re v positive."""
    lam, vecs = np.linalg.eig(G)
    i = int(np.argmax(lam.imag))
    v = vecs[:, i]
    v = v / np.linalg.norm(v)
    vr, vi = v.real, v.imag
    lead = np.flatnonzero(np.abs(vr) > 1e-12 * np.linalg.norm(vr))[0]
    if vr[lead] < 0:
        vr, vi = -vr, -vi
    P = np.column_stack([vr, -vi])
    return float(lam[i].real), float(lam[i].imag), P


def sampled_pair(t: FourTuple, tau: float, alpha: float,
                 l: Optional[int] = None,
                 tol: Tolerances = DEFAULT_TOL) -> CounterexamplePair:
    """Two 2-state kind-I systems that a sampler running at period tau
    cannot tell apart on pulses of width k*tau and amplitude alpha (the
    sampled transition and drive alias exactly), while the continuous-time
    responses to u = alpha differ.

    Writes A + alpha N in real Jordan form, shifts the rotation rate by
    2*pi*l/tau via M = N + (l/alpha) L0, L0 = [[0, -2pi/tau],[2pi/tau, 0]],
    and matches the drive with bhat = (A+alpha M)(A+alpha N)^{-1} b."""
    validate(t)
    if t.n != 2:
        raise DimensionMismatch(f"the sampled construction needs n=2, got {t.n}")
    if tau <= 0 or alpha == 0:
        raise DegenerateRescale("need tau > 0 and alpha != 0")
    if not in_b_alpha(t, alpha, tol):
        raise NotInBalpha("system must lie in B_alpha")

    G = t.A + alpha * t.N
    r, s, P = _real_jordan_basis(G, tol)
    Pinv = np.linalg.inv(P)
    A_j, N_j = Pinv @ t.A @ P, Pinv @ t.N @ P
    b_j, c_j = Pinv @ t.b, t.c @ P
    L0 = (2.0 * math.pi / tau) * np.array([[0.0, -1.0], [1.0, 0.0]])

    def admissible(cand):
        if abs(s + 2.0 * cand * math.pi / tau) <= tol.residual_tol:
            return False
        Gl = A_j + alpha * N_j + cand * L0
        rr, oo = _linear_ranks(Gl, b_j, c_j, tol)
        return rr == 2 and oo == 2

    if l is None:
        for cand in (k * sgn for k in range(1, 51) for sgn in (1, -1)):
            if admissible(cand):
                l = cand
                break
        else:
            raise NoValidL("no admissible integer l with |l| <= 50")
    elif l == 0 or not admissible(l):
        raise NoValidL(f"l={l} is not admissible")

    M_j = N_j + (l / alpha) * L0
    bhat_j = (A_j + alpha * M_j) @ np.linalg.solve(A_j + alpha * N_j, b_j)
    sigma_hat = FourTuple(t.A, P @ M_j @ Pinv, P @ bhat_j, t.c, TYPE_I)
    sigma = t.with_kind(TYPE_I)

    diff = _difference(sigma, sigma_hat)
    residual = 0.0
    for k in range(7):
        u_seq = [alpha] * k + [0.0] * (10 - k)
        gaps = [abs(y) for _, y in sample_discrete(diff, tau, u_seq)]
        residual = max(residual, max(gaps))

    grid = np.linspace(0.0, 3.0, 301)
    gap = respond_pulse(diff, 0.0, alpha, alpha, grid)
    disc = float(np.max(np.abs(gap.outputs)))
    if disc <= tol.agree_tol:
        raise NoDistinguisherFound(
            f"constant input failed to separate the pair (max gap {disc:.3e})"
        )

    _, word = io_equivalent(sigma, sigma_hat, tol)
    return CounterexamplePair(
        sigma=sigma,
        sigma_hat=sigma_hat,
        input_class=InputClass("sampled", tau, alpha),
        agreement_residual=residual,
        distinguishing_word=word,
        distinguishing_input=constant_input(alpha, 4.0),
    )


# -- seed sampling ---------------------------------------------------------------

def gaussian_tuple(n: int, rng, kind: str = TYPE_I,
                   scale: float = 1.0) -> FourTuple:
    return FourTuple(scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal((n, n)),
                     scale * rng.standard_normal(n),
                     scale * rng.standard_normal(n), kind)


def _rejection_sample(n, rng, predicate, kind, scale, max_tries):
    for tries in range(1, max_tries + 1):
        t = gaussian_tuple(n, rng, kind, scale)
        if predicate(t):
            return t, tries
    raise RuntimeError(f"no admissible tuple in {max_tries} draws")


def sample_in_G0(n, rng, tol=DEFAULT_TOL, kind=TYPE_I, scale=1.0,
                 max_tries=200):
    """Rejection-sample a Gaussian tuple into G0; returns (tuple, draws)."""
    return _rejection_sample(
        n, rng, lambda t: classify(t, tol=tol).in_G0, kind, scale, max_tries)


def sample_in_C(n, rng, tol=DEFAULT_TOL, kind=TYPE_I, scale=1.0,
                max_tries=200):
    return _rejection_sample(
        n, rng, lambda t: classify(t, tol=tol).in_C, kind, scale, max_tries)


def sample_in_M(n, alpha, rng, tol=DEFAULT_TOL, kind=TYPE_I, scale=1.0,
                max_tries=200):
    return _rejection_sample(
        n, rng, lambda t: classify(t, alpha, tol).in_M, kind, scale, max_tries)


def sample_in_B_alpha(alpha, rng, tol=DEFAULT_TOL, scale=1.0, max_tries=200):
    return _rejection_sample(
        2, rng, lambda t: in_b_alpha(t, alpha, tol), TYPE_I, scale, max_tries)
