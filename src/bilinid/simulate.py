"""Exact simulation under piecewise-constant inputs, pulse responses, and the
fixed-rate sampled recursion.

No ODE integrator is involved: on an interval where u = v is constant the
flow is exact. For kind I the affine step is the top block of

    [x; 1]  ->  expm(h * [[A + vN, v b], [0, 0]]) [x; 1]

(the augmented block exponential of Van Loan), and for kind II simply
x -> expm(h (A + vN)) x. The march visits every requested grid point and
every input breakpoint between them. Each step is a (level, length) pair;
the distinct pairs are exponentiated in one call on a stack of generators,
so what remains is to apply the maps, and _chain does that, not one step
at a time: the steps fall into blocks of 16, doubling forms every prefix
product of each block in four batched products, one matvec per block
carries the state to the next, and one batched product reads every state.
No product spans more than one block, so a mode the state never excites
overflows only if its 16-step power does. Outputs are reported only at
the requested points.

The fixed-rate sampled recursion (sample_discrete) shares the chain with
the march, but not the maps: it builds its own, F(u) = expm((A + uN) tau)
and g(u) = phi1(A + uN, tau) b, from one exponential of phi1's block
[[A + uN, I], [0, 0]] rather than from Van Loan's block above, and uses
neither the generators nor the power table. So comparing the two still
checks one construction of the maps against another, while the chain is
checked against the step-by-step RK4 of tests/oracles.py.

A pulse of amplitude alpha followed by the level 0, on a uniform grid,
needs no march at all: every such output is c F^i E^j z0 for the one-step
maps E (level alpha) and F (level 0), read from one table (_power_table).
_pulse_peaks reduces the table to the largest output of each pulse width
in one pass: one row of products Z_k R_m' per width k, and one segmented
maximum (np.maximum.reduceat) that reads each row only up to the table's
end, len(Z) - k products. The counterexample pairs read their pulse of
another width and their pulse-end state from the table; whether a pair
agrees is not read from outputs at all, but decided by
realization._moment_gap. The table is filled by repeated squaring, not
one step at a time: rows p .. 2p-1 are rows 0 .. p-1 times the p-th power
of the maps. A state that leaves the representable range raises Overflow
instead of giving outputs.
"""

import numpy as np

from .core import (TYPE_I, FourTuple, PiecewiseConstantInput, Trajectory,
                   pulse_input)
from .errors import GridOutOfRange, Overflow
from .matfun import _phi1_block, expm

_BLOCK = 16  # steps per block of prefix products in _chain


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


def _start(t: FourTuple):
    """The state at time 0, in the form the generators act on: [0; 1] for
    kind I and b for kind II."""
    return np.eye(t.n + 1)[-1] if t.kind == TYPE_I else t.b


def _finite(X, what="state"):
    if not np.isfinite(X).all():
        raise Overflow(f"{what} exceeds the representable range")
    return X


def _chain(Phi, which, x):
    """The state after each step k, Phi[which[k]] ... Phi[which[0]] x, one
    row per step. The steps go in blocks of _BLOCK, padded with identities;
    doubling turns each block into its prefix products, P[b, i] = step i of
    b ... step 0 of b, and the state entering block b carries over from
    block b - 1. Raises Overflow for a state beyond the float range."""
    K, m = which.size, x.size
    blocks = -(-K // _BLOCK)
    P = np.empty((blocks * _BLOCK, m, m))
    P[:K] = Phi[which]
    P[K:] = np.eye(m)
    P = P.reshape(blocks, _BLOCK, m, m)
    S = np.empty((blocks, m))
    with np.errstate(over="ignore", invalid="ignore"):
        p = 1
        while p < _BLOCK:
            P[:, p:] = P[:, p:] @ P[:, :-p]
            p *= 2
        for b, last in enumerate(P[:, -1]):
            S[b] = x
            x = last @ x
        X = (P.reshape(blocks, _BLOCK * m, m) @ S[:, :, None]).reshape(-1, m)
    return _finite(X[:K])


def _march(t: FourTuple, u: PiecewiseConstantInput, grid, x0, t0, with_states):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array of times")
    # both written so that a NaN grid point fails them
    if not (np.diff(grid) > 0).all():
        raise ValueError("grid must be strictly increasing")
    if not (t0 <= grid[0] and grid[-1] <= u.horizon):
        raise GridOutOfRange(
            f"grid spans [{grid[0]}, {grid[-1]}], allowed [{t0}, {u.horizon}]"
        )
    bp = u.breakpoints
    inner = bp[(bp > t0) & (bp < grid[-1])]
    # one sort of grid then breakpoints: a time in both is first met in grid
    events, first = np.unique(np.concatenate([grid, inner]), return_index=True)
    wanted = first < grid.size

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
    states = _chain(Phi, which, xa)[wanted, :t.n]
    return Trajectory(grid, states @ t.c, states if with_states else None)


def simulate(t: FourTuple, u: PiecewiseConstantInput, grid,
             with_states: bool = False) -> Trajectory:
    """Outputs y(t) = c x(t) at the grid points, exact per interval."""
    return _march(t, u, grid, _start(t)[:t.n], 0.0, with_states)


def respond_pulse(t: FourTuple, tau: float, alpha: float, beta: float, grid,
                  with_states: bool = False) -> Trajectory:
    """Response to u = alpha on [0, tau) then beta; tau = 0 means u = beta."""
    grid = np.asarray(grid, dtype=float)
    horizon = max(float(grid[-1]), tau) + 1.0
    return simulate(t, pulse_input(tau, alpha, beta, horizon), grid, with_states)


def _power_table(t: FourTuple, alpha: float, delta: float, points):
    """Z_j = E^j z0 and R_j = c F^j for j < points, where E and F step the
    state by delta at the levels alpha and 0; z0 and c are the start state
    and output row of simulate (in the homogeneous form [x; 1] for kind
    I). One stacked expm gives the maps P = (E', F), and the rows come by
    repeated squaring: rows p .. 2p-1 are rows 0 .. p-1 times P^p, for
    p = 1, 2, 4, ..., so about log2(points) batched products fill the
    table and no power past the last needed one is formed."""
    P = expm(delta * _generators(t, [alpha, 0.0]))
    P[0] = P[0].T
    m = P.shape[-1]
    W = np.empty((2, points, m))
    W[0, 0] = _start(t)
    W[1, 0, :t.n], W[1, 0, t.n:] = t.c, 0.0
    p = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while p < points:
            W[:, p:2 * p] = W[:, :min(p, points - p)] @ P
            if 2 * p < points:
                P = P @ P
            p *= 2
    _finite(W)
    return W[0], W[1]


def _pulse_peaks(Z, R, k):
    """The largest |output| at the times j delta of the table's pulse of
    width k[i] delta (k an integer array) followed by the level 0: the
    running maximum of |c Z_j| while the pulse lasts (c = R_0; none for
    width 0), against the largest |Z_k R_m'| over the len(Z) - k rows
    after it: one row of products per width, and one segmented maximum
    that reads each row from its start to len(Z) - k[i]."""
    front = np.maximum.accumulate(np.abs(np.append(0.0, R[0] @ Z.T)))
    tail = Z[k] @ R.T
    # in place: a second table-sized temporary would make malloc return
    # the freed heap top to the system after each call, and fault it back
    np.abs(tail, out=tail)
    # segment 2i is row i's tail and 2i + 1 its products past the table's
    # end; reduceat runs its last segment to the array's end, so a cut
    # there (k = 0 in the last row) is left out: given, it raises
    # IndexError
    cuts = np.repeat(np.arange(0, tail.size, len(Z)), 2)
    cuts[1::2] += len(Z) - k
    if cuts[-1] == tail.size:
        cuts = cuts[:-1]
    return np.maximum(front[k], np.maximum.reduceat(tail.ravel(), cuts)[::2])


def sample_discrete(t: FourTuple, tau: float, u_seq):
    """Run the fixed-rate sampled recursion of a kind-I system at period
    tau, x_{k+1} = F(u_k) x_k + u_k g(u_k) with F(u) = expm((A + uN) tau)
    and g(u) = phi1(A + uN, tau) b, from x_0 = 0; returns [(x_k, y_k)] for
    k = 0 .. len(u_seq). Each distinct level u gets one homogeneous map
    [[F(u), u g(u)], [0, 1]] on [x; 1]. F(u) and phi1(A + uN, tau) are
    the top blocks of one exponential of phi1's block [[A + uN, I], [0, 0]],
    one stacked call for all the levels. The maps are built here, not from
    the march's generators, so the two simulators check each other; what
    they share is _chain, which applies the maps in blocks."""
    if t.kind != TYPE_I:
        raise ValueError("sampled recursion applies to kind-I systems")
    if not tau > 0:
        raise ValueError("tau must be positive")
    levels, which = np.unique(np.asarray(u_seq, dtype=float),
                              return_inverse=True)
    n = t.n
    block = _phi1_block(t.A + np.multiply.outer(levels, t.N), tau)
    maps = np.zeros((levels.size, n + 1, n + 1))
    maps[:, :n, :n] = block[:, :n, :n]
    maps[:, :n, n] = levels[:, None] * (block[:, :n, n:] @ t.b)
    maps[:, n, n] = 1.0
    x = np.eye(n + 1)[n]
    X = np.concatenate([[x], _chain(maps, which, x)])
    return list(zip(X[:, :n], (X[:, :n] @ t.c).tolist()))
