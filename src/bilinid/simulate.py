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
"""

import numpy as np

from .core import (TYPE_I, FourTuple, PiecewiseConstantInput, Trajectory,
                   pulse_input, validate)
from .errors import GridOutOfRange
from .matfun import expm, phi1


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
    v, h = steps.real[:, None, None], steps.imag[:, None, None]
    n = t.n
    if t.kind == TYPE_I:
        G = np.zeros((len(steps), n + 1, n + 1))
        G[:, :n, :n] = t.A + v * t.N
        G[:, :n, n] = v[:, 0] * t.b
    else:
        G = t.A + v * t.N
    Phi = expm(h * G)

    xa = np.array(x0, dtype=float)
    if t.kind == TYPE_I:
        xa = np.append(xa, 1.0)
    X = np.empty((events.size, xa.size))
    for k, j in enumerate(which.tolist()):
        X[k] = xa = Phi[j] @ xa
    states = X[wanted, :n]
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
