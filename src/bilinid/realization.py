"""Word products, reachability/observability, canonicality, i/o equivalence,
similarity recovery, the self-dual transform T, and the B(S) predicate.

Two 4-tuples are i/o equivalent exactly when the series coefficients
c A_{i1} ... A_{ik} b (A_0 = A, A_1 = N) agree for every word; checking all
words of length <= n1 + n2 suffices. Words are written as strings over
{"A", "N"}; the empty string is the empty word and orderings are
shortest-first, then lexicographic with A < N.

No word is enumerated. The products of length k act on v as the columns of
P_k = [A_w v : |w| = k], and P_{k+1} P_{k+1}' = A P_k P_k' A' + N P_k P_k' N'.
So the word layers X_0 = v, X_{k+1} = [A X_k, N X_k] keep the column span
and the singular values of P_k, and a layer wider than 4n that a longer
layer is built from is compressed to R' from one QR factorization
X' = Q R: at most n columns, same Gram matrix.
The code keeps each layer as its rows Z_k = X_k', so one product
Z_k [A', N'] and a reshape give the next. [A, N] is pre-scaled to unit
2-norm and each layer to unit 2-norm, which scales P_k by one factor per
length: nothing overflows, and every test below is relative, one length at
a time. Time scaling (A, N, b) -> s (A, N, b) leaves the layers unchanged.

Canonicality and similarity stack the layers with each layer weighted by
its growth, so the stack is the products of the pre-scaled system: a layer
that is only rounding noise (a word that vanishes by structure, in a
changed basis) stays at its rounding size and adds no direction.

Equivalence runs the layers of the stacked pair (A1 (+) A2, N1 (+) N2,
[b1; b2]), each member first balanced by the change of basis that makes
||b_i|| = ||c_i|| and leaves its i/o map as it is, so that each member
weighs by its output scale and not by the scale of its states.
||[c1, -c2] X_k|| is the 2-norm of the coefficient differences of
length k, and length k fails when it exceeds residual_tol times the larger
coefficient norm of the two tuples, max(||c1 X_k^top||, ||c2 X_k^bot||),
plus a rounding allowance. The allowance (unit r = [c1, -c2] / ||.||) is
err_k = u (1 + sum_{1<=j<=k} 1/g_j), u = 8 eps n, where g_j <= 1 is the growth
of layer j before it is scaled: each product adds rounding of u relative to
the layer it came from. A coefficient that vanishes by structure (c b = 0,
a nilpotent word) is rounding noise in a changed basis, and the allowance
keeps that noise from counting as a difference.

The certificate is the lex-first word of the first failing length, chosen
letter by letter from the left, in O(k) products: after a prefix with row
r and j letters to go, the next letter is A unless the A branch is
negligible, ||r A X_j|| <= residual_tol ||r N X_j|| plus its allowance.
"""

import math

import numpy as np

from .core import FourTuple, SimilarityWitness, validate
from .errors import NotCanonical, NotCanonicalTriple, NotSimilar, ZeroS
from .matfun import DEFAULT_TOL, Tolerances, pinv_rank, rank_of

# rounding allowance per matrix product and state
_ROUND = 8 * np.finfo(float).eps


def word_at(length: int, index: int) -> str:
    """The index-th word of the given length in lexicographic order (A < N)."""
    return "".join("AN"[(index >> (length - 1 - j)) & 1] for j in range(length))


def series_coefficient(t: FourTuple, word: str) -> float:
    validate(t)
    if any(ch not in "AN" for ch in word):
        raise ValueError(f"word must be over alphabet A/N, got {word!r}")
    v = t.b
    for letter in reversed(word):
        v = (t.A if letter == "A" else t.N) @ v
    return float(t.c @ v)


def _unit(X):
    """X scaled to unit 2-norm, and that norm; a zero X is returned as it
    is. Dividing by the largest |entry| first keeps the norm finite."""
    m = np.abs(X).max()
    s = m * _norm(X / m) if m else 0.0
    return (X / s if s else X), s


def _norm(x):
    """2-norm of x, for arrays whose entries the scaling here keeps at most
    1, so the sum of squares cannot overflow."""
    return math.sqrt(np.vdot(x, x))


def _layers(A, N, v, count):
    """Word layers of (A, N, v) for lengths 0 .. count, each as its rows
    Z_k = X_k' (module docstring). Returns (layers, err, growth, A, N) with
    err[k] the rounding allowance of layer k, growth[k] the norm of P_k for
    the pre-scaled A, N and unit v, and A, N as pre-scaled."""
    n = A.shape[0]
    step, _ = _unit(np.hstack([A.T, N.T]))      # z -> [z A', z N']
    u = _ROUND * n
    layers, err, growth = [_unit(v.reshape(1, n))[0]], [u], [1.0]
    for k in range(1, count + 1):
        Z = (layers[-1] @ step).reshape(-1, n)
        if Z.shape[0] > 4 * n and k < count:    # the last layer grows no more
            Z = np.linalg.qr(Z, mode="r")
        g = _norm(Z)
        layers.append(Z / g if g else Z)
        err.append(err[-1] + (u / g if g else 0.0))
        growth.append(growth[-1] * g)
    return layers, err, growth, step[:, :n].T, step[:, n:].T


def _span(A, N, v, count):
    """The word layers of (A, N, v) up to length count stacked as rows, each
    weighted by its growth: the products of the pre-scaled system, so a
    layer that is only rounding noise stays as small as it is."""
    layers, _, growth, _, _ = _layers(A, N, v, count)
    return np.vstack([g * Z for Z, g in zip(layers, growth)])


def _difference(s1: FourTuple, s2: FourTuple) -> FourTuple:
    """The block-diagonal system whose output is y1 - y2 under any input:
    (A1 (+) A2, N1 (+) N2, [b1; b2], [c1, -c2]), of the kind both share."""
    n1, n = s1.n, s1.n + s2.n
    A, N = np.zeros((2, n, n))
    A[:n1, :n1], A[n1:, n1:] = s1.A, s2.A
    N[:n1, :n1], N[n1:, n1:] = s1.N, s2.N
    return FourTuple(A, N, np.concatenate([s1.b, s2.b]),
                     np.concatenate([s1.c, -s2.c]), s1.kind)


def _balanced(t: FourTuple):
    """(b / beta, beta c) with beta = sqrt(||b|| / ||c||): the b and c of t
    after a change of basis that leaves its i/o map as it is and makes
    ||b|| = ||c||, so that in a stacked pair each member weighs by its
    output scale and not by the scale of its states."""
    (b, nb), (c, nc) = _unit(t.b), _unit(t.c)
    m = math.sqrt(nb) * math.sqrt(nc)
    return m * b, m * c


def reach_obs(t: FourTuple):
    """R = [b, Ab, ..., A^{n-1} b]; O has rows c, cA, ..., cA^{n-1}."""
    validate(t)
    R = krylov(t.A, t.b)
    O = krylov(t.A.T, t.c).T
    return R, O


def krylov(A, v, count=None):
    A = np.asarray(A, dtype=float)
    v = np.ravel(np.asarray(v, dtype=float))
    count = v.shape[0] if count is None else count
    cols = [v]
    for _ in range(count - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def extended_reach(t: FourTuple):
    """The span of the products A_w b over words of length <= n-1, as the
    word layers X_0, ..., X_{n-1} of (A, N, b) side by side, one column
    block per length. Block k has the span and the singular values of the
    products of length k of (A, N, b) / ||[A, N]||^k ||b||, in at most 4n
    columns (8n for the last)."""
    validate(t)
    return _span(t.A, t.N, t.b, t.n - 1).T


def extended_obs(t: FourTuple):
    """The span of the rows c A_w over words of length <= n-1: the word
    layers of (A', N', c) as row blocks, one block per length, weighted
    as in extended_reach."""
    validate(t)
    return _span(t.A.T, t.N.T, t.c, t.n - 1)


def is_canonical(t: FourTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    n = t.n
    return (rank_of(_span(t.A, t.N, t.b, n - 1), tol) == n
            and rank_of(_span(t.A.T, t.N.T, t.c, n - 1), tol) == n)


def io_equivalent(t1: FourTuple, t2: FourTuple, tol: Tolerances = DEFAULT_TOL):
    """Compare the series coefficients of every word length up to n1 + n2,
    one length at a time on the word layers of the stacked pair (module
    docstring). Returns (equivalent, lex-first word of the first differing
    length or None)."""
    n1 = t1.n
    d = _difference(t1, t2)
    (b1, c1), (b2, c2) = _balanced(t1), _balanced(t2)
    layers, err, _, A, N = _layers(d.A, d.N, np.concatenate([b1, b2]), d.n)
    r, _ = _unit(np.concatenate([c1, -c2]))
    for k, Z in enumerate(layers):
        size = max(_norm(Z[:, :n1] @ r[:n1]), _norm(Z[:, n1:] @ r[n1:]))
        if _norm(Z @ r) > tol.residual_tol * size + err[k]:
            return False, _lex_first(r, layers[:k], err, A, N, tol)
    return True, None


def _lex_first(r, layers, err, A, N, tol):
    """The word of length len(layers), chosen letter by letter from the
    left, whose branch of r A_w X_0 carries the difference: A unless the A
    branch is within residual_tol of the N branch plus its rounding. The
    row r has a rounding allowance of its own, grown as a layer's is."""
    u = _ROUND * r.size
    word, e_r = "", 0.0
    for k in range(len(layers) - 1, -1, -1):
        qa, qn = r @ A, r @ N
        na, nn = _norm(qa), _norm(qn)
        ea = e_r + (u / na if na else 0.0)
        if not nn or (_norm(layers[k] @ qa) > tol.residual_tol
                      * _norm(layers[k] @ qn) + (ea + err[k]) * na):
            word, r, e_r = word + "A", qa / na, ea
        else:
            word, r, e_r = word + "N", qn / nn, e_r + u / nn
    return word


def conjugate(t: FourTuple, T) -> FourTuple:
    """Change of basis x = T z: returns (T^-1 A T, T^-1 N T, T^-1 b, c T)."""
    T = np.asarray(T, dtype=float)
    Tinv = np.linalg.inv(T)
    return FourTuple(Tinv @ t.A @ T, Tinv @ t.N @ T, Tinv @ t.b, t.c @ T, t.kind)


def similarity_between(t1: FourTuple, t2: FourTuple,
                       tol: Tolerances = DEFAULT_TOL) -> SimilarityWitness:
    """The unique T with A1 = T A2 T^-1, N1 = T N2 T^-1, b1 = T b2,
    c2 = c1 T. The word layers of the stacked pair (A1 (+) A2, N1 (+) N2,
    [b1; b2]) up to length n-1 satisfy top = T bottom, so
    T = top @ pinv(bottom). Both tuples must be canonical. Raises
    NotSimilar with the residual report when the relations fail."""
    for name, t in (("first", t1), ("second", t2)):
        if not is_canonical(t, tol):
            raise NotCanonical(f"{name} tuple is not canonical")
    if t1.n != t2.n:
        raise NotSimilar(f"dimensions differ: {t1.n} vs {t2.n}")
    d = _difference(t1, t2)
    X = _span(d.A, d.N, d.b, t1.n - 1).T
    T = X[:t1.n] @ pinv_rank(X[t1.n:], tol)[0]
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        raise NotSimilar("recovered T is singular") from None
    def rel(x, y):
        return float(np.linalg.norm(x - y) / max(1.0, np.linalg.norm(x)))
    residuals = {
        "A": rel(t1.A, T @ t2.A @ Tinv),
        "N": rel(t1.N, T @ t2.N @ Tinv),
        "b": rel(t1.b, T @ t2.b),
        "c": rel(t1.c, t2.c @ Tinv),
    }
    witness = SimilarityWitness(T, residuals)
    if witness.max_residual > tol.residual_tol:
        raise NotSimilar(
            f"similarity residual {witness.max_residual:.3e}", residuals
        )
    return witness


def self_dual_T(A, b, c, tol: Tolerances = DEFAULT_TOL):
    """The similarity between the linear triple (A, b, c) and its dual
    (A', c', b'): T = R(A,b) [(O(A,c))']^{-1}, satisfying A T = T A',
    b = T c', c T = b'. T is symmetric. Requires R and O invertible."""
    A = np.asarray(A, dtype=float)
    R, O = krylov(A, b), krylov(A.T, c).T
    n = R.shape[0]
    if rank_of(R, tol) < n or rank_of(O, tol) < n:
        raise NotCanonicalTriple(
            f"linear triple has ranks ({rank_of(R, tol)}, {rank_of(O, tol)}), need {n}"
        )
    # T O' = R, i.e. O T' = R', and T is symmetric anyway
    return np.linalg.solve(O, R.T).T


def in_B(N, S, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether N S = S N' up to residual_tol relative to ||S|| ||N||."""
    N = np.asarray(N, dtype=float)
    S = np.asarray(S, dtype=float)
    nS = np.linalg.norm(S)
    if nS == 0.0:
        raise ZeroS("S must be nonzero")
    scale = nS * np.linalg.norm(N)
    return float(np.linalg.norm(N @ S - S @ N.T)) <= tol.residual_tol * scale
