"""Identification of a bilinear system from its responses to pulses of a
fixed amplitude alpha and varying width tau.

The pipeline rests on two facts about the pulse response. After the pulse
ends the system coasts: y(tau + s) = c e^{As} x(tau), so (A, c) and the
states x(tau) are recoverable by linear realization (Hankel SVD, then
least squares through the observability map). And the end-of-pulse state
obeys an exact transition in the width: with G = A + alpha N,

    kind I:  x(tau + delta) = e^{G delta} x(tau) + alpha phi1(G, delta) b
    kind II: x(tau + delta) = e^{G delta} x(tau).

So the states on the grid tau_k = k delta are regressed on their
predecessors (on [x; 1] for kind I) by least squares, and one principal
logarithm of the fitted transition over delta gives G; for kind I the
augmented transition [[F, g], [0, 1]] is Van Loan's block
expm(delta [[G, alpha b], [0, 0]]), so its logarithm also gives alpha b,
while kind II reads b = x(0). Then N = (G - A)/alpha. This is the
realization step applied twice, and it is exact up to the accuracy of the
matrix exponential and logarithm. Either logarithm needs its transition
off the negative real axis, so the coast step h (which starts at the
constant H) and delta are halved until it is. Both are also checked off
their grids, where a rotation by more than pi per step, folded back by
the principal branch, misses: h is halved until the realized coast
predicts one extra sample y(2 tau0), tau0 after the pulse ends, and delta
until the fitted flow reaches the state the realization gives at the
off-grid width tau0. Both misses are judged relative to the scale of the
samples they fit, whatever the output scale.

The oracle is read in whole experiments: a design of pulse widths and
offsets after the pulse end gives the record Y[j, k] = y(w_k + s_j) under
the pulse of width w_k. The realization reads one record (width tau0,
offsets j h and tau0), the state recovery one design (the delta-grid
widths, offsets j h). An oracle that only answers scalars is read one
sample at a time (_records), with the same answers.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import TYPE_I, FourTuple
from .errors import (Aliased, NotCanonicalResult, OrderAmbiguous, PoorFit,
                     SpectrumOnCut, UnobservablePair)
from .matfun import DEFAULT_TOL, Tolerances, _logm_flows, expm, rank_of
from .realization import is_canonical, krylov
from .simulate import _generators, _start


@dataclass(frozen=True)
class PulseOracle:
    """respond(tau, t) is y(t) under the input alpha*[0 <= t < tau].

    records, when given, answers a whole design of experiments at once:
    records(widths, offsets)[j, k] = y(widths[k] + offsets[j]) under the
    pulse of width widths[k], the output record of each pulse sampled at
    the same offsets after it ends. An oracle without it is read one
    respond(w, w + s) at a time; the answers must be the same."""

    respond: Callable[[float, float], float]
    alpha: float
    kind: str
    records: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class IdentificationResult:
    tuple: FourTuple
    n_identified: int
    diagnostics: dict


# The delta-grid spans TAU_SPAN; tau0 is drawn from [TAU0_LOW, TAU0_HIGH);
# the coast step starts at H and is halved from there.
TAU_SPAN = 2.0
H = 0.2
TAU0_LOW = 0.5
TAU0_HIGH = 1.5
MAX_TAU0_DRAWS = 8
MAX_H_HALVINGS = 6  # bounds the h and, apart, the delta halvings


@dataclass(frozen=True)
class IdentifyConfig:
    """n_max bounds the identified order; the Hankel matrix is
    (n_max + 1) square. The coast step is not a setting: it starts at H."""

    n_max: int = 8

    def __post_init__(self):
        if type(self.n_max) is not int or self.n_max < 1:
            raise ValueError(f"n_max must be an int of at least 1, got "
                             f"{self.n_max!r}")


def oracle_from_tuple(t: FourTuple, alpha: float) -> PulseOracle:
    """Exact in-process oracle for a known system (the test-harness black
    box). A design of widths x offsets takes one stacked expm call: the
    pulse-end states x(w) from the generator of the pulse level (the
    augmented block on [x; 1] for kind I, as simulate steps it), and the
    coast rows c e^{A s} from A, padded with a zero row and column to the
    generator's size for kind I; the records are their products.
    respond(tau, t) is the one-experiment design [min(t, tau)] x
    [t - min(t, tau)]: a time under the pulse is the end of a pulse of
    that width."""
    if alpha == 0:
        raise ValueError("pulse amplitude must be nonzero")
    gen = _generators(t, [alpha])[0]
    coast = np.zeros_like(gen)
    coast[:t.n, :t.n] = t.A
    z0 = _start(t)

    def records(widths, offsets):
        w = np.asarray(widths, dtype=float)
        s = np.asarray(offsets, dtype=float)
        if np.any(w < 0) or np.any(s < 0):
            raise ValueError("widths and offsets must be nonnegative")
        E = expm(np.concatenate([w[:, None, None] * gen,
                                 s[:, None, None] * coast]))
        X = (E[:w.size] @ z0)[:, :t.n]
        return (t.c @ E[w.size:, :t.n, :t.n]) @ X.T

    def respond(tau: float, time: float) -> float:
        w = min(time, tau)
        return float(records([w], [time - w])[0, 0])

    return PulseOracle(respond, float(alpha), t.kind, records)


def _records(oracle: PulseOracle, widths, offsets):
    """Y[j, k] = y(widths[k] + offsets[j]) under the pulse of width
    widths[k]: one records call, or one respond per sample for an oracle
    that answers only scalars."""
    if oracle.records is not None:
        return np.asarray(oracle.records(widths, offsets), dtype=float)
    return np.array([[oracle.respond(w, w + s) for w in widths]
                     for s in offsets], dtype=float)


def realize_free_response(oracle: PulseOracle, tau0: float, h: float, m: int,
                          tol: Tolerances = DEFAULT_TOL):
    """Linear realization of the post-pulse coast for pulse width tau0.

    Samples y(tau0 + j h) for j = 0..2m-1, forms the m x m Hankel H0 and its
    shift H1, and truncates the SVD H0 = U diag(s) V' at rank_tol to fix the
    order n. With r = sqrt(s_1..s_n) the observability and state parts are
    U_n diag(r) and diag(r) V_n', whose pseudo-inverses the same SVD gives,
    so the discrete transition is the Ho-Kalman shift formula
    F_d = (U_n' H1 V_n) / (r r'); the principal logarithm lifts it to
    continuous time, and x(tau0) and c are the first column and row of the
    two parts. One more sample, y(2 tau0), lies off the h-grid
    (tau0 is random) and must match c e^{A tau0} x(tau0) to 1e-5 on the scale
    of the Hankel samples: a rotation by more than pi per h fits every grid
    sample but comes back folded into (-pi, pi), which this exposes as
    Aliased. Returns (A, x(tau0), c, singular_values), all in the identified
    basis.
    """
    Y = _records(oracle, [tau0], np.append(h * np.arange(2 * m), tau0))[:, 0]
    ys, y_off = Y[:-1], Y[-1]
    hankel = np.add.outer(np.arange(m), np.arange(m))
    H0, H1 = ys[hankel], ys[hankel + 1]
    U, s, Vh = np.linalg.svd(H0)
    if s[0] <= 1e-300:
        raise OrderAmbiguous("response is identically zero")
    n = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    if n == m:
        raise OrderAmbiguous(f"no rank gap within Hankel size {m}")
    if s[n] > 0 and s[n - 1] / s[n] < 10.0:
        raise OrderAmbiguous(
            f"singular-value gap {s[n - 1] / s[n]:.2f} below 10 at order {n}"
        )
    root = np.sqrt(s[:n])
    Un, Vn = U[:, :n], Vh[:n, :].T
    F_d = (Un.T @ H1 @ Vn) / np.outer(root, root)
    L, (flow,) = _logm_flows(F_d, [tau0 / h])
    A = L / h
    x0, c = root * Vn[0], Un[0] * root
    miss = abs(c @ flow @ x0 - y_off)
    miss /= float(np.max(np.abs(ys)))
    if miss > 1e-5:
        raise Aliased(f"the coast misses y(2 tau0) off the h-grid by {miss:.3e}")
    return A, x0, c, s


def recover_states(oracle: PulseOracle, A, c, tau_grid, h: float, m: int,
                   tol: Tolerances = DEFAULT_TOL):
    """States x(tau) in the identified basis, one per grid point, solved from
    [c; c e^{Ah}; ...; c e^{A(m-1)h}] x = [y(tau), y(tau+h), ...].
    Returns (states, residuals)."""
    A = np.asarray(A, dtype=float)
    c = np.ravel(np.asarray(c, dtype=float))
    offsets = h * np.arange(m)
    Gam = c @ expm(offsets[:, None, None] * A)
    if rank_of(Gam, tol) < A.shape[0]:
        raise UnobservablePair("(A, c) is not observable at rank_tol")
    # one column of samples per width, one least-squares solve for all
    Y = _records(oracle, tau_grid, offsets)
    X, res, *_ = np.linalg.lstsq(Gam, Y, rcond=None)
    return X.T, (res if res.size else np.zeros(Y.shape[1]))


def _halving(step: float, halvings: int, attempt):
    """attempt(step), halving step after each SpectrumOnCut at most
    `halvings` times; the last failure propagates."""
    for _ in range(halvings):
        try:
            return attempt(step)
        except SpectrumOnCut:
            step *= 0.5
    return attempt(step)


def _realize_with_retries(oracle, m, rng, tol):
    def at(h):
        for draw in range(MAX_TAU0_DRAWS):
            tau0 = float(rng.uniform(TAU0_LOW, TAU0_HIGH))
            try:
                return (*realize_free_response(oracle, tau0, h, m, tol), tau0, h)
            except OrderAmbiguous:
                if draw + 1 == MAX_TAU0_DRAWS:
                    raise

    return _halving(H, MAX_H_HALVINGS, at)


def _width_transition(oracle, A, c, h, m, x_tau0, tau0, delta, K, tol):
    """States x(k delta), k = 0..K, and the logarithm over delta of the
    transition that carries each to the next (augmented by [0, 1] for
    kind I, whose regressors are [x; 1]). The flow of that logarithm must
    also reach x_tau0, the state at the off-grid width tau0."""
    X, state_res = recover_states(oracle, A, c, delta * np.arange(K + 1), h, m, tol)
    Z, z = X, x_tau0
    if oracle.kind == TYPE_I:
        Z, z = np.column_stack([X, np.ones(K + 1)]), np.append(x_tau0, 1.0)
    Z0, X1 = Z[:-1], X[1:]
    d = Z0.shape[1]
    r = rank_of(Z0, tol)
    if r < d:
        if rank_of(np.vstack([Z0, z]), tol) == r:
            raise NotCanonicalResult(
                f"pulse-end states span {r} of {d} regressor dimensions")
        raise Aliased(f"states on the delta-grid span {r} of {d} regressor "
                      f"dimensions, the state at tau0 one more")
    # rows: x(tau_{k+1})' = [x(tau_k); 1]' F'
    Ft, *_ = np.linalg.lstsq(Z0, X1, rcond=None)
    scale = float(np.linalg.norm(X1))
    fit = float(np.linalg.norm(Z0 @ Ft - X1)) / scale
    if fit > 1e-5:
        raise PoorFit(f"width-transition regression residual {fit:.3e}")
    F = Ft.T
    if oracle.kind == TYPE_I:
        F = np.vstack([F, np.eye(1, d, d - 1)])
    L, (flow,) = _logm_flows(F, [tau0 / delta])
    L = L / delta
    # a rotation by more than pi per delta fits the grid exactly but comes
    # back folded into (-pi, pi); between grid points the flow then misses
    reached = (flow @ Z[0])[:X.shape[1]]
    miss = float(np.linalg.norm(reached - x_tau0)) / scale
    if miss > 1e-5:
        raise Aliased(f"the fitted flow misses the state at tau0 by {miss:.3e}")
    return L, X[0], fit, state_res, delta


def identify(oracle: PulseOracle, config: Optional[IdentifyConfig] = None,
             tol: Tolerances = DEFAULT_TOL,
             rng: Optional[np.random.Generator] = None) -> IdentificationResult:
    """Full pipeline: realize (A, c), recover the states on a uniform
    tau-grid, regress each on its predecessor and take the logarithm of the
    fitted transition for G (and alpha b, kind I), set N = (G - A)/alpha."""
    cfg = config or IdentifyConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    alpha = oracle.alpha
    m = cfg.n_max + 1

    A, x_tau0, c, svals, tau0, h_used = _realize_with_retries(oracle, m, rng, tol)
    n = A.shape[0]

    K = 2 * cfg.n_max + 2
    L, x0, fit, state_res, delta = _halving(
        TAU_SPAN / K, MAX_H_HALVINGS,
        lambda d: _width_transition(oracle, A, c, h_used, m, x_tau0, tau0,
                                    d, K, tol))
    if oracle.kind == TYPE_I:
        G, b = L[:n, :n], L[:n, n] / alpha
    else:
        G, b = L, x0
    N = (G - A) / alpha

    result = FourTuple(A, N, b, c, oracle.kind)
    r_reach = rank_of(krylov(A, b), tol)
    r_obs = rank_of(krylov(A.T, c).T, tol)
    r_alpha = rank_of(krylov(G, b), tol)
    if not (is_canonical(result, tol) and r_reach == n and r_obs == n
            and r_alpha == n):
        raise NotCanonicalResult(
            f"identified tuple fails rank checks: reach {r_reach}, "
            f"obs {r_obs}, pulse-reach {r_alpha} of {n}"
        )
    return IdentificationResult(
        tuple=result,
        n_identified=n,
        diagnostics={
            "hankel_singular_values": svals.tolist(),
            "fit_residual": fit,
            "max_state_residual": float(np.max(state_res)) if state_res.size else 0.0,
            "tau0": tau0,
            "h": h_used,
            "delta": delta,
        },
    )
