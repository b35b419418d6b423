"""Reference computations for the benchmark's output checks.

Nothing here calls bilinid. Trajectories come from the classical RK4
integrator of tests/oracles.py, run on a batch of systems at once; series
coefficients come from literal word products (oracles.brute_coefficient),
and exact sampled transitions from the Taylor-series exponential and the
Gauss-Legendre phi1 of the same module. The filters that sort random
draws into the classes each construction needs live here too, so that the
benchmark's inputs depend on numpy alone.
"""

import math

import numpy as np

import oracles

# -- numpy class filters -------------------------------------------------------

def krylov(A, v):
    cols = [np.asarray(v, dtype=float)]
    for _ in range(len(cols[0]) - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def conditioning(M) -> float:
    """sigma_min / sigma_max of M; 0 for a rank-deficient matrix."""
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def linear_margin(A, b, c) -> float:
    """How far (A, b, c) is from losing reachability or observability."""
    return min(conditioning(krylov(A, b)), conditioning(krylov(A.T, c)))


def self_dual(A, b, c):
    """T = R(A, b) O(A, c)'^{-1}: the similarity between (A, b, c) and its
    dual (A', c', b')."""
    R = krylov(A, b)
    O = krylov(A.T, c).T
    return np.linalg.solve(O, R.T).T


def twin_obstruction(A, N, b, c) -> float:
    """||N T - T N'|| / max(1, ||T|| ||N||): zero exactly when N has no twin
    distinct from itself."""
    T = self_dual(A, b, c)
    return float(np.linalg.norm(N @ T - T @ N.T)
                 / max(1.0, np.linalg.norm(T) * np.linalg.norm(N)))


def twin_of(A, N, b, c):
    T = self_dual(A, b, c)
    return T @ N.T @ np.linalg.inv(T)


def growth(M) -> float:
    """Spectral abscissa: the largest real part of an eigenvalue."""
    return float(np.max(np.linalg.eigvals(M).real))


def log_norm(M) -> float:
    """Largest eigenvalue of (M + M')/2; negative means ||e^{tM}|| < 1."""
    return float(np.max(np.linalg.eigvalsh((M + M.T) / 2.0)))


def word_vectors(A, N, v, max_len):
    """Columns A_w v over every word w of length <= max_len."""
    level = [np.asarray(v, dtype=float)]
    cols = list(level)
    for _ in range(max_len):
        level = [M @ x for x in level for M in (A, N)]
        cols.extend(level)
    return np.column_stack(cols)


def bilinear_margin(A, N, b, c) -> float:
    """How far (A, N, b, c) is from losing bilinear canonicity: the
    conditioning of the extended reachability and observability spans."""
    n = len(b)
    spans = (word_vectors(A, N, b, n - 1), word_vectors(A.T, N.T, c, n - 1))
    return min(float(s[n - 1] / s[0])
               for s in (np.linalg.svd(M, compute_uv=False) for M in spans))


# -- series coefficients, judged one word length at a time ----------------------

def words_of_length(k):
    return oracles.all_words(k)[2 ** k - 1:]


def coefficients(t, k):
    """c A_w b for every word w of length k, by literal products."""
    return np.array([oracles.brute_coefficient(t, w) for w in words_of_length(k)])


def scale_of(a, b) -> float:
    return max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))


def coefficient_gap(t1, t2, max_len):
    """Worst relative gap between the series coefficients of t1 and t2,
    length by length: max over k of max_w |c1(w) - c2(w)| / max(1, the
    largest |coefficient| of length k). Returns (gap, worst word)."""
    worst, where = 0.0, ""
    for k in range(max_len + 1):
        a, b = coefficients(t1, k), coefficients(t2, k)
        d = np.abs(a - b) / scale_of(a, b)
        i = int(np.argmax(d))
        if d[i] > worst:
            worst, where = float(d[i]), words_of_length(k)[i]
    return worst, where


def word_separation(t1, t2, word) -> float:
    """|c1(word) - c2(word)| relative to the largest coefficient of that
    word length in either system (floored at 1)."""
    k = len(word)
    gap = oracles.brute_coefficient(t1, word) - oracles.brute_coefficient(t2, word)
    return abs(gap) / scale_of(coefficients(t1, k), coefficients(t2, k))


# -- batched RK4 ------------------------------------------------------------------

def generator(t, level):
    """Generator of one system at a constant input level. Kind I carries
    the drive in an extra state held at 1, so both kinds are linear."""
    n = t.n
    G = t.A + level * t.N
    if t.kind == "II":
        return G
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = G
    out[:n, n] = level * t.b
    return out


def initial_state(t):
    return t.b.copy() if t.kind == "II" else np.append(np.zeros(t.n), 1.0)


def readout(t):
    return t.c.copy() if t.kind == "II" else np.append(t.c, 0.0)


def block_diag(*blocks):
    m = sum(B.shape[0] for B in blocks)
    out = np.zeros((m, m))
    i = 0
    for B in blocks:
        k = B.shape[0]
        out[i:i + k, i:i + k] = B
        i += k
    return out


def pad(M, m):
    """Embed a square matrix or a vector in dimension m with zeros; the
    extra states start at zero and stay there."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        return np.concatenate([M, np.zeros(m - M.shape[0])])
    out = np.zeros((m, m))
    out[:M.shape[0], :M.shape[1]] = M
    return out


def rk4_piecewise(breaks, gens, X0, rows, grid, h_norm):
    """Integrate a batch X' = G_j X (one generator per batch member and per
    interval [breaks[j], breaks[j+1])) from X0 at t = 0 with oracles.rk4,
    and read rows . X at every grid time.

    breaks: increasing interval starts, breaks[0] = 0; gens: array
    (intervals, batch, m, m); X0, rows: (batch, m); grid: increasing times.
    Each step h keeps h * ||G||_2 <= h_norm. Returns outputs of shape
    (len(grid), batch).
    """
    breaks = np.asarray(breaks, dtype=float)
    grid = np.asarray(grid, dtype=float)
    inner = breaks[(breaks > 0) & (breaks < grid[-1])]
    events = np.unique(np.concatenate([grid, inner]))
    wanted = np.isin(events, grid)
    # the batch as one block-diagonal system, so a step is one matvec
    big = [block_diag(*stack) for stack in gens]
    norms = [max(np.linalg.norm(G, 2) for G in stack) for stack in gens]
    batch, m = np.shape(X0)
    x = np.ravel(X0).astype(float)
    now = 0.0
    out = []
    for time, keep in zip(events, wanted):
        if time > now:
            j = int(np.searchsorted(breaks, now, side="right")) - 1
            steps = max(1, math.ceil((time - now) * norms[j] / h_norm))
            x = oracles.rk4(lambda _, y, G=big[j]: G @ y, x, now, time, steps)
            now = time
        if keep:
            out.append(np.einsum("bi,bi->b", rows, x.reshape(batch, m)))
    return np.array(out)


def rk4_difference(t1, t2, breaks, level_rows, grid, h_norm):
    """y1 - y2 by RK4 for a batch of inputs sharing their breakpoints;
    level_rows[j][k] is the level of input k on interval j. Returns an
    array (len(grid), batch)."""
    gens = np.array([[block_diag(generator(t1, v), generator(t2, v))
                      for v in row] for row in level_rows])
    batch = len(level_rows[0])
    X0 = np.tile(np.concatenate([initial_state(t1), initial_state(t2)]),
                 (batch, 1))
    rows = np.tile(np.concatenate([readout(t1), -readout(t2)]), (batch, 1))
    return rk4_piecewise(breaks, gens, X0, rows, grid, h_norm)


# -- exact sampled recursion ----------------------------------------------------

def sampled_outputs(t, tau, levels):
    """y_k, k = 0..len(levels), of the kind-I sampled recursion with
    transitions from the Taylor exponential and drives from Gauss-Legendre
    phi1."""
    F, g = {}, {}
    x = np.zeros(t.n)
    ys = [0.0]
    for u in levels:
        if u not in F:
            G = t.A + u * t.N
            F[u] = oracles.expm_series(G * tau)
            g[u] = oracles.phi1_quadrature(G, tau, nodes=24) @ t.b
        x = F[u] @ x + u * g[u]
        ys.append(float(t.c @ x))
    return np.array(ys)
