"""Exact simulation under piecewise-constant inputs, pulse responses, and the
fixed-rate sampled recursion.

No ODE integrator is involved: on an interval where u = v is constant the
flow is exact. For kind I the affine step is the top block of

    [x; 1]  ->  expm(h * [[A + vN, v b], [0, 0]]) [x; 1]

(the augmented block exponential of Van Loan), and for kind II simply
x -> expm(h (A + vN)) x. The march visits every requested grid point and
every input breakpoint between them. Each step is a (level, length) pair;
the distinct pairs are exponentiated in one call on a stack of generators,
so the march itself only multiplies. Outputs are reported only at the
requested points.

Pulses of one amplitude on a uniform grid need no march at all: every such
output is a power of two one-step maps, read from one table (_power_table,
_pulse_outputs). The table is filled by repeated squaring, not one step at
a time: rows p .. 2p-1 are rows 0 .. p-1 times the p-th power of the maps.
A state that leaves the representable range raises Overflow instead of
giving outputs.
"""

import numpy as np

from .core import (TYPE_I, FourTuple, PiecewiseConstantInput, Trajectory,
                   pulse_input, validate)
from .errors import GridOutOfRange, Overflow
from .matfun import expm, phi1


def _generators(t: FourTuple, levels):
    """Stacked one-step generators, one per level v: A + vN for kind II and
    the homogeneous block [[A + vN, v b], [0, 0]] on [x; 1] for kind I."""
    v = np.asarray(levels, dtype=float)[:, None, None]
    if t.kind != TYPE_I:
        return t.A + v * t.N
    G = np.zeros((v.size, t.n + 1, t.n + 1))
    G[:, :-1, :-1] = t.A + v * t.N
    G[:, :-1, -1] = v[:, 0] * t.b
    return G


def _finite(X):
    if not np.all(np.isfinite(X)):
        raise Overflow("state exceeds the representable range")
    return X


def _march(t: FourTuple, u: PiecewiseConstantInput, grid, x0, t0, with_states):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array of times")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < t0 or grid[-1] > u.horizon:
        raise GridOutOfRange(
            f"grid spans [{grid[0]}, {grid[-1]}], allowed [{t0}, {u.horizon}]"
        )
    bp = u.breakpoints
    inner = bp[(bp > t0) & (bp < grid[-1])]
    events = np.union1d(grid, inner)
    wanted = np.isin(events, grid, assume_unique=True)

    # step k runs from starts[k] to events[k] at the level in force at its
    # start; one complex key per step, level + i length, finds the distinct
    # steps in the row order of (level, length)
    starts = np.concatenate([[t0], events[:-1]])
    level = u.levels[np.maximum(np.searchsorted(bp, starts, side="right") - 1, 0)]
    steps, which = np.unique(level + 1j * (events - starts), return_inverse=True)
    Phi = expm(steps.imag[:, None, None] * _generators(t, steps.real))

    xa = np.array(x0, dtype=float)
    if t.kind == TYPE_I:
        xa = np.append(xa, 1.0)
    X = np.empty((events.size, xa.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, j in enumerate(which.tolist()):
            X[k] = xa = Phi[j] @ xa
    states = _finite(X)[wanted, :t.n]
    return Trajectory(grid, states @ t.c, states if with_states else None)


def simulate(t: FourTuple, u: PiecewiseConstantInput, grid,
             with_states: bool = False) -> Trajectory:
    """Outputs y(t) = c x(t) at the grid points, exact per interval."""
    validate(t)
    x0 = np.zeros(t.n) if t.kind == TYPE_I else t.b
    return _march(t, u, grid, x0, 0.0, with_states)


def respond_pulse(t: FourTuple, tau: float, alpha: float, beta: float, grid,
                  with_states: bool = False) -> Trajectory:
    """Response to u = alpha on [0, tau) then beta; tau = 0 means u = beta."""
    grid = np.asarray(grid, dtype=float)
    horizon = max(float(grid[-1]), tau) + 1.0
    return simulate(t, pulse_input(tau, alpha, beta, horizon), grid, with_states)


def _power_table(t: FourTuple, alpha: float, delta: float, trail, points):
    """Z_j = E^j z0 and R[l, j] = c F_l^j for j < points, where E steps the
    state by delta at the level alpha and F_l by h_l at the level beta_l of
    trail = [(beta_l, h_l), ...]; z0 and c are the start state and output
    row of simulate (in the homogeneous form [x; 1] for kind I). Repeated
    (level, step) pairs share one map. One stacked expm gives the maps P =
    (E', F_1 .. F_L), and the rows come by repeated squaring: rows p .. 2p-1
    are rows 0 .. p-1 times P^p, for p = 1, 2, 4, ..., so about log2(points)
    batched products fill the table and no power past the last needed one
    is formed."""
    keys, which = np.unique([beta + 1j * h for beta, h in trail],
                            return_inverse=True)
    P = expm(np.append(delta, keys.imag)[:, None, None]
             * _generators(t, np.append(alpha, keys.real)))
    P[0] = P[0].T
    m = P.shape[-1]
    W = np.empty((len(P), points, m))
    W[0, 0] = np.eye(m)[-1] if t.kind == TYPE_I else t.b
    W[1:, 0] = np.pad(t.c, (0, m - t.n))
    p = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while p < points:
            W[:, p:2 * p] = W[:, :min(p, points - p)] @ P
            if 2 * p < points:
                P = P @ P
            p *= 2
    _finite(W)
    return W[0], W[1:][which]


def _pulse_outputs(Z, R, k):
    """Outputs y[i, j] at the times j delta of the table's pulse of width
    k[i] delta followed by the trailing level whose rows are R (one level
    of the table, stepped by delta): c Z_j while the pulse lasts,
    R_{j-k} Z_k after."""
    k = np.asarray(k)[:, None]
    j = np.arange(len(Z))
    tail = (R @ Z[k[:, 0]].T)[np.maximum(j - k, 0), np.arange(k.size)[:, None]]
    return np.where(j < k, R[0] @ Z.T, tail)


class SampledSystem:
    """Fixed-rate discretization of a kind-I system at period tau:
    x_{k+1} = F(u_k) x_k + u_k g(u_k) with F(u) = expm((A+uN) tau) and
    g(u) = phi1(A+uN, tau) b."""

    def __init__(self, t: FourTuple, tau: float):
        validate(t)
        if t.kind != TYPE_I:
            raise ValueError("sampled recursion applies to kind-I systems")
        if not tau > 0:
            raise ValueError("tau must be positive")
        self.t = t
        self.tau = float(tau)
        self._F = {}
        self._g = {}

    def F_of_level(self, u: float):
        u = float(u)
        if u not in self._F:
            self._F[u] = expm((self.t.A + u * self.t.N) * self.tau)
        return self._F[u]

    def g_of_level(self, u: float):
        u = float(u)
        if u not in self._g:
            self._g[u] = phi1(self.t.A + u * self.t.N, self.tau) @ self.t.b
        return self._g[u]


def sample_discrete(t: FourTuple, tau: float, u_seq):
    """Run the sampled recursion from x_0 = 0; returns [(x_k, y_k)] for
    k = 0 .. len(u_seq)."""
    sys = SampledSystem(t, tau)
    x = np.zeros(t.n)
    out = [(x.copy(), float(t.c @ x))]
    for u in u_seq:
        x = sys.F_of_level(u) @ x + float(u) * sys.g_of_level(u)
        out.append((x.copy(), float(t.c @ x)))
    return out
