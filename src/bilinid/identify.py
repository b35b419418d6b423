"""Identification of a bilinear system from its responses to pulses of a
fixed amplitude alpha and varying width.

After a pulse of width w ends the system coasts, y(w + s) = c e^{As} x(w),
and the end-of-pulse state follows the pulse level's generator
G = A + alpha N in the width. So one record of widths k delta and offsets
j h reads Y[j, k] = c e^{A j h} x(k delta), and for kind II
x(k delta) = e^{G k delta} b: Y[j, k] = c F^j E^k b with F = e^{Ah} and
E = e^{G delta}. For kind I x(0) = 0 and the recursion is affine, but the
column differences x((k + 1) delta) - x(k delta) = E^k x(delta) have the
same shape. One SVD of the m x m block H0 = U diag(s) V' fixes the order n
(the cut at rank_tol and a gap of 10) and factors H0 into an observability
part U_n diag(r) and a state part diag(r) V_n', r = sqrt(s_1..s_n)
(Ho-Kalman). The block one row down gives F, the block one column right
gives E, each as (U_n' H1 V_n) / (r r'): ERA with a second shift direction
(Juang and Pappa 1985; Juang 2005); both shifts come from one product
over the stacked shifted blocks. c is the first row of the observability
part, and the first state is b (kind II) or x(delta) (kind I). The
principal logarithm of F over h gives A, that of E over delta gives G; for
kind I the augmented [[E, x(delta)], [0, 1]] is Van Loan's block
expm(delta [[G, alpha b], [0, 0]]), so its logarithm also gives alpha b.
Both logarithms, and both flows over tau0, come from one stacked pass
(matfun._logm_flows); for kind I F is padded to blockdiag(F, 1) to match
the Van Loan block, and log 1 = 0 leaves A in the top-left block. Then
N = (G - A)/alpha, and one batched SVD certifies the result
(realization._canonical_gap with linear [A, G]): the extended
reachability and observability spans of (A, N, b, c) and the Krylov
matrices of (A, b), (A, c) and (G, b), zero-padded to the spans' row
count, must all have rank n; none of these ranks depends on the time
unit. Each residual below takes its norm from one dot or einsum.

A row shift that leaves the span of H0 means pulse-end states short of the
order (NotCanonicalResult); a column shift that leaves it means widths that
follow no flow (PoorFit); both relative residuals are reported. A rotation
by more than pi per step fits every grid sample but comes back folded by
the principal branch, and one by pi lies on its cut, so the record also
holds the width tau0 and the offset tau0, off both grids (tau0 is random):
h = delta is halved while the tau0 column leaves the span of H0 or either
flow misses the tau0 samples (Aliased), or a logarithm meets the cut. Each
miss is judged relative to the largest sample, whatever the output scale.
The checks raise in order: F's logarithm, the coast's miss, E's logarithm,
the width flow's miss.

An oracle that only answers scalars is read one sample at a time
(_records), with the same answers. realize_free_response (the coast at one
width) and recover_states (states through the observability map) are the
stages of an earlier two-stage pipeline; identify does not call them.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import TYPE_I, FourTuple, _amplitude
from .errors import (Aliased, NotCanonicalResult, OrderAmbiguous, PoorFit,
                     SpectrumOnCut, UnobservablePair)
from .matfun import (DEFAULT_TOL, Tolerances, _cut, _logm_flows, _logm_one,
                     _norms, expm, rank_of)
from .realization import _canonical_gap, _norm
from .simulate import _finite, _generators, _start


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


# The coast step h and the width step delta both start at H and are halved
# together; tau0 is drawn from [TAU0_LOW, TAU0_HIGH) for each attempt.
H = 0.2
TAU0_LOW = 0.5
TAU0_HIGH = 1.5
MAX_HALVINGS = 6


@dataclass(frozen=True)
class IdentifyConfig:
    """n_max bounds the identified order; the Hankel matrix is
    (n_max + 1) square. The steps are not settings: both start at H."""

    n_max: int = 8

    def __post_init__(self):
        if type(self.n_max) is not int or self.n_max < 1:
            raise ValueError(f"n_max must be an int of at least 1, got "
                             f"{self.n_max!r}")


def oracle_from_tuple(t: FourTuple, alpha: float) -> PulseOracle:
    """Exact in-process oracle for a known system (the test-harness black
    box). A design of widths x offsets takes one stacked expm call: the
    pulse-end states x(w) and the coast rows c e^{A s} come from the
    generators of the pulse level alpha and of the level 0, as simulate
    steps them (simulate._generators: the augmented block on [x; 1] for
    kind I); the records are their products, and a record beyond the float
    range raises Overflow. A width or offset that is negative, infinite or
    NaN raises ValueError.
    respond(tau, t) is the one-experiment design [min(t, tau)] x
    [t - min(t, tau)]: a time under the pulse is the end of a pulse of
    that width; a NaN tau or t reaches records, and raises there. Raises
    NonFiniteEntry for an amplitude alpha that is not finite and
    ValueError for alpha = 0 (core._amplitude)."""
    gen, coast = _generators(t, [_amplitude(alpha), 0.0])
    z0 = _start(t)

    def records(widths, offsets):
        w = np.asarray(widths, dtype=float)
        s = np.asarray(offsets, dtype=float)
        if not all(((0 <= x) & (x < np.inf)).all() for x in (w, s)):
            raise ValueError("widths and offsets must be finite and >= 0")
        E = expm(np.concatenate([w[:, None, None] * gen,
                                 s[:, None, None] * coast]))
        with np.errstate(over="ignore", invalid="ignore"):
            X = (E[:w.size] @ z0)[:, :t.n]
            return _finite((t.c @ E[w.size:, :t.n, :t.n]) @ X.T, "record")

    def respond(tau: float, time: float) -> float:
        w = np.minimum(time, tau)    # NaN propagates, as min's would not
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
    n = int(_cut(s, tol))
    _order_gap(s, n)
    root = np.sqrt(s[:n])
    Un, Vn = U[:, :n], Vh[:n, :].T
    F_d = (Un.T @ H1 @ Vn) / np.outer(root, root)
    L, (flow,) = _logm_one(F_d, [tau0 / h])
    A = L / h
    x0, c = root * Vn[0], Un[0] * root
    miss = abs(c @ flow @ x0 - y_off) / float(np.max(np.abs(ys)))
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


def _order_gap(s, n):
    """Raise OrderAmbiguous unless the order n leaves a gap of 10 in the
    Hankel singular values s, below the last of them."""
    if n == len(s):
        raise OrderAmbiguous(f"no rank gap within Hankel size {n}")
    if s[n] > 0 and s[n - 1] / s[n] < 10.0:
        raise OrderAmbiguous(
            f"singular-value gap {s[n - 1] / s[n]:.2f} below 10 at order {n}")


def _halving(step: float, halvings: int, attempt):
    """attempt(step), halving step after each SpectrumOnCut at most
    `halvings` times; the last failure propagates."""
    for _ in range(halvings):
        try:
            return attempt(step)
        except SpectrumOnCut:
            step *= 0.5
    return attempt(step)


def _shifts(H, Un, Vn, root):
    """The Ho-Kalman shifts (Un' H[i] Vn) / (r r') of the stack H of
    shifted blocks, from one product, and how far each H[i] lies off the
    column and row spaces of H0, relative to H[i]."""
    P = Un.T @ H @ Vn
    gap, size = _norms(np.array([H - Un @ P @ Vn.T, H]))
    return P / np.outer(root, root), (gap / size).tolist()


def _joint(oracle, m, step, tau0, tol):
    """One attempt at h = delta = step: one record, one SVD of its Hankel
    H0, both shifts and both off-grid checks. Returns (A, G, b, c) and the
    diagnostics; a record that is not finite, from either oracle path,
    raises Overflow."""
    kind_i = oracle.kind == TYPE_I
    # the width and offset grids, each with tau0 as its last point
    widths, offsets = (step * np.arange(k + 2.0) for k in (m + kind_i, m))
    widths[-1] = offsets[-1] = tau0
    Y = _records(oracle, widths, offsets)
    scale = float(_finite(np.max(np.abs(Y)), "record"))
    if scale <= 1e-300:
        raise OrderAmbiguous("response is identically zero")
    y_tau0 = Y[:m, -1]
    Z = Y[:, 1:-1] - Y[:, :-2] if kind_i else Y[:, :-1]
    U, s, Vh = np.linalg.svd(Z[:m, :m])
    # a grid that the tau0 samples swamp holds no direction
    n = int(_cut(s, tol)) if s[0] > tol.rank_tol * scale else 0
    Un = U[:, :n]
    off = _norm(y_tau0 - Un @ (Un.T @ y_tau0)) / scale
    if off > 1e-5:
        raise Aliased(f"the state at width tau0 leaves the {n} dimensions "
                      f"the delta-grid spans by {off:.3e}")
    if n == 0:
        raise OrderAmbiguous("response vanishes on the grid")
    _order_gap(s, n)
    root, Vn = np.sqrt(s[:n]), Vh[:n, :].T
    # F_d and E_d from the row (coast) and column (width) shifts
    P, (state_res, fit) = _shifts(np.array([Z[1:m + 1, :m], Z[:m, 1:m + 1]]),
                                  Un, Vn, root)
    if not state_res <= 1e-5:
        raise NotCanonicalResult(
            f"the coast shift leaves the span of the pulse-end states by "
            f"{state_res:.3e}")
    if not fit <= 1e-5:
        raise PoorFit(f"width-shift residual {fit:.3e}")
    # the observability and state parts; c and the first state lead them
    Gam, X = Un * root, root[:, None] * Vn.T
    c, x0 = Gam[0], X[:, 0]
    # kind I: E_d in Van Loan's block [[E_d, x0], [0, 1]] and F_d padded to
    # blockdiag(F_d, 1) beside it (log 1 = 0), so one stack takes both
    D = np.zeros((2, n + kind_i, n + kind_i))
    D[:, :n, :n] = P
    if kind_i:
        D[:, n, n], D[1, :n, n] = 1.0, x0
    L, flows, (f_fault, e_fault) = _logm_flows(D, [tau0 / step])
    if f_fault is not None:
        raise f_fault
    L, flows = L[:, :n] / step, flows[:, 0, :n]
    A = L[0, :, :n]
    miss = _norm(c @ flows[0, :, :n] @ X - Z[-1, :m]) / scale
    if miss > 1e-5:
        raise Aliased(f"the coast misses the samples tau0 after the pulse "
                      f"ends by {miss:.3e}")
    if e_fault is not None:
        raise e_fault
    x_tau0 = flows[1, :, n] if kind_i else flows[1] @ x0
    miss = _norm(Gam @ x_tau0 - y_tau0) / scale
    if miss > 1e-5:
        raise Aliased(f"the width flow misses the state at tau0 by {miss:.3e}")
    G, b = (L[1, :, :n], L[1, :, n] / oracle.alpha) if kind_i else (L[1], x0)
    return (A, G, b, c), dict(
        hankel_singular_values=s.tolist(), fit_residual=fit,
        max_state_residual=state_res, tau0=tau0, h=step, delta=step)


def identify(oracle: PulseOracle, config: Optional[IdentifyConfig] = None,
             tol: Tolerances = DEFAULT_TOL,
             rng: Optional[np.random.Generator] = None) -> IdentificationResult:
    """Two-shift ERA: one record of the pulse family and one Hankel SVD,
    whose row shift gives e^{Ah} and column shift e^{G delta} (kind I on
    the differenced columns, with alpha b from Van Loan's block); then
    N = (G - A)/alpha. A rotation too fast for the step halves h and delta
    together, with a fresh tau0."""
    cfg = config or IdentifyConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    m = cfg.n_max + 1
    (A, G, b, c), diagnostics = _halving(H, MAX_HALVINGS, lambda step: _joint(
        oracle, m, step, float(rng.uniform(TAU0_LOW, TAU0_HIGH)), tol))
    n = A.shape[0]
    N = (G - A) / oracle.alpha

    result = FourTuple(A, N, b, c, oracle.kind)
    gap, (r_reach, r_obs), (r_alpha, _) = _canonical_gap(
        result, tol=tol, linear=[A, G])
    if not (gap is None and r_reach == r_obs == r_alpha == n):
        raise NotCanonicalResult(
            f"identified tuple fails rank checks: reach {r_reach}, "
            f"obs {r_obs}, pulse-reach {r_alpha} of {n}"
        )
    return IdentificationResult(tuple=result, n_identified=n,
                                diagnostics=diagnostics)
