"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the code paths under test: the matrix
exponential is a scaled Taylor series, phi1 comes from Gauss-Legendre
quadrature, trajectories from a classical RK4 integrator, and series
coefficients from literal matrix products.
"""

import numpy as np


def expm_series(M):
    """Taylor series with argument halving and repeated squaring."""
    M = np.asarray(M, dtype=float)
    s = 0
    norm = np.linalg.norm(M, 1)
    while norm > 0.25:
        norm /= 2.0
        s += 1
    X = M / 2.0 ** s
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 40):
        term = term @ X / k
        out = out + term
        if np.linalg.norm(term, 1) < 1e-20 * max(1.0, np.linalg.norm(out, 1)):
            break
    for _ in range(s):
        out = out @ out
    return out


def phi1_quadrature(Q, t, nodes=64):
    """int_0^t e^{sQ} ds by Gauss-Legendre quadrature."""
    Q = np.asarray(Q, dtype=float)
    if t == 0:
        return np.zeros_like(Q)
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    # map [-1, 1] -> [0, t]
    out = np.zeros_like(Q)
    for x, w in zip(xs, ws):
        out += w * expm_series(Q * (t * (x + 1.0) / 2.0))
    return out * (t / 2.0)


def rk4(field, x0, t0, t1, steps):
    x = np.array(x0, dtype=float)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = field(t, x)
        k2 = field(t + h / 2, x + h / 2 * k1)
        k3 = field(t + h / 2, x + h / 2 * k2)
        k4 = field(t + h, x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return x


def simulate_rk4(t, u, grid, steps_per_unit=2000):
    """Trajectory outputs by piecewise RK4, splitting at input breakpoints
    so the integrator only ever sees a smooth field."""
    A, N, b, c = t.A, t.N, t.b, t.c
    if t.kind == "I":
        x = np.zeros(t.n)

        def field_for(v):
            return lambda _, x: (A + v * N) @ x + v * b
    else:
        x = b.copy()

        def field_for(v):
            return lambda _, x: (A + v * N) @ x

    grid = np.asarray(grid, dtype=float)
    bp = u.breakpoints
    events = np.unique(np.concatenate([grid, bp[(bp > 0) & (bp < grid[-1])]]))
    wanted = np.isin(events, grid)
    outputs = []
    now = 0.0
    for time, keep in zip(events, wanted):
        if time > now:
            steps = max(8, int(steps_per_unit * (time - now)))
            x = rk4(field_for(u.level_at(now)), x, now, time, steps)
            now = time
        if keep:
            outputs.append(float(c @ x))
    return np.array(outputs)


def word_product(t, word):
    """A_w b by literal matrix products, the rightmost letter acting on b
    first."""
    v = t.b
    for letter in reversed(word):
        v = (t.A if letter == "A" else t.N) @ v
    return v


def word_row(t, word):
    """c A_w by literal matrix products, the leftmost letter acting on c
    first."""
    r = t.c
    for letter in word:
        r = r @ (t.A if letter == "A" else t.N)
    return r


def brute_coefficient(t, word):
    """c A_w b by literal left-to-right matrix products; 'A' selects the
    drift matrix, 'N' the input matrix, rightmost letter acts on b first."""
    return float(t.c @ word_product(t, word))


def all_words(max_len):
    """Every word over {A, N} of length 0..max_len in length-then-lex order."""
    out = [""]
    for k in range(1, max_len + 1):
        out.extend(
            "".join("AN"[(i >> (k - 1 - j)) & 1] for j in range(k))
            for i in range(2 ** k)
        )
    return out
