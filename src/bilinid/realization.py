"""Word products, Krylov matrices, canonicality, i/o equivalence,
similarity recovery and the self-dual transform T. Whether N lies in
B(T) = {N : N T = T N'} is decided in counterex._g0_T, on the twin
obstruction it reports; canonicality is decided here only, in
_canonical_gap, which is_canonical and the CLI's check-canonical read.

Two 4-tuples are i/o equivalent exactly when the series coefficients
c A_{i1} ... A_{ik} b (A_0 = A, A_1 = N) agree for every word; checking all
words of length <= n1 + n2 - 1 suffices. The coefficient differences are
[c1, -c2] A_w [b1; b2] for the stacked pair (A1 (+) A2, N1 (+) N2), and the
span V_k of its A_w [b1; b2] with |w| <= k grows with k until a length adds
nothing: then V_k is invariant under A and N, and no longer length adds
anything either. In n1 + n2 states V_k is complete by k = n1 + n2 - 1, so a
row [c1, -c2] that vanishes on the words up to that length vanishes on
every word. Words are written as strings over {"A", "N"}; the empty string
is the empty word and orderings are shortest-first, then lexicographic
with A < N.

Every linear-triple test (self_dual_T, counterex's G0, C, M and B_alpha
tests) goes through _linear: for each A of a stack it builds R' and O, with
R = krylov(A/||A||, b) and O = krylov(A'/||A||, c)', and cuts all their
ranks in one batched SVD. _krylov builds them for every A of the stack in
one recursion, one matmul per power over [A'/||A||, A/||A||]; the public
krylov is the same recursion on one unscaled A. identify's final ranks
join _canonical_gap's SVD instead: R' and O padded with zero rows to the
span's row count have the same singular values, so one SVD decides
canonicality and every linear triple. Time rescaling (A, N, b) -> k (A, N, b)
leaves A/||A|| as it is and b up to one factor, so the ranks ignore the
time unit; unscaled, column j of R grows as ||A||^j and the cut at
rank_tol * s_1 drops the later columns of a fast system. The pre-scale puts
||A||^-j on column j of R and on row j of O, so T = R O'^{-1} does not
change. b and c are not scaled: that would scale T by ||c|| / ||b||.

No word is enumerated. The products of length k act on v as the columns of
P_k = [A_w v : |w| = k], and P_{k+1} P_{k+1}' = A P_k P_k' A' + N P_k P_k' N'.
So the word layers X_0 = v, X_{k+1} = [A X_k, N X_k] keep the column span
and the singular values of P_k, and a layer wider than 4n that a longer
layer is built from is compressed to R' from one QR factorization
X' = Q R: at most n columns, same Gram matrix.
The code keeps each layer as its rows Z_k = X_k', so one product
Z_k [A', N'] and a reshape give the next. [A, N] is pre-scaled to unit
2-norm, and each layer that equivalence judges to unit 2-norm, which scales
P_k by one factor per length: nothing overflows, and every test below is
relative, one length at a time. Time scaling (A, N, b) -> s (A, N, b)
leaves the layers unchanged.

Every unit scaling takes its norm from math.hypot of the entries (_unit),
which scales internally, so the norm is finite whenever the 2-norm is;
so do the relative residuals of similarity_between. Only a word layer
built from unit-scaled factors, whose entries are at most 1, takes the
plain sum of squares (_norm).

Canonicality and similarity need every layer up to length n-1 at once, not
a verdict per length, so _span builds them unscaled: with [A', N'] and v
at unit 2-norm (the 2-norm of the entries, as everywhere here),
||Z [A', N']|| <= ||Z||, so no layer grows past v and nothing overflows.
The stack is then the products of the pre-scaled system: a layer that is
only rounding noise (a word that vanishes by structure, in a changed
basis) stays at its rounding size and adds no direction. _span runs a
stack of systems of one n in one loop, so _canonical_gap decides the
reachability and observability sides of every tuple it is given from one
stacked span and one batched SVD; similarity_between checks both its
tuples in one call.

Equivalence runs the layers of the stacked pair (A1 (+) A2, N1 (+) N2,
[b1; b2]), each member first balanced by the change of basis that makes
||b_i|| = ||c_i|| and leaves its i/o map as it is, so that each member
weighs by its output scale and not by the scale of its states. The layers
come from a generator and are judged as they come, so none past the first
failing length is built, and none past length n1 + n2 - 1.
||[c1, -c2] X_k|| is the 2-norm of the coefficient differences of
length k, and length k fails when it exceeds residual_tol times the larger
coefficient norm of the two tuples, max(||c1 X_k^top||, ||c2 X_k^bot||),
plus a rounding allowance. One product Z_k R reads all three, with
R = [r1 (+) 0, 0 (+) r2, r] for the unit r = [c1, -c2] / ||.||: its column
norms are the two members' shares and the difference. The allowance is
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
from types import SimpleNamespace

import numpy as np

from .core import FourTuple, SimilarityWitness
from .errors import NotCanonical, NotCanonicalTriple, NotSimilar
from .matfun import DEFAULT_TOL, Tolerances, _ranks, pinv_rank

# rounding allowance per matrix product and state
_ROUND = 8 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def series_coefficient(t: FourTuple, word: str) -> float:
    if any(ch not in "AN" for ch in word):
        raise ValueError(f"word must be over alphabet A/N, got {word!r}")
    v = t.b
    for letter in reversed(word):
        v = (t.A if letter == "A" else t.N) @ v
    return float(t.c @ v)


def _unit(X, stack=False):
    """X scaled to unit 2-norm, and that norm; a zero X is returned as it
    is. The norm is math.hypot of the entries, which scales internally, so
    it is finite for any X whose 2-norm is, and within an ulp of exact.
    With stack, each X[i] is scaled on its own and only the scaled stack is
    returned; each comes out bitwise as _unit(X[i])[0], one division of
    each entry by the same norm."""
    rows = X.reshape(len(X) if stack else 1, -1)
    s = [math.hypot(*x) for x in rows.tolist()]
    if stack:
        s = np.array([x or 1.0 for x in s])[:, None]
        return (rows / s).reshape(X.shape)
    return (X / s[0] if s[0] else X), s[0]


def _norm(x):
    """2-norm of x from one dot, as np.linalg.norm takes it. The sum of
    squares overflows past entries of about 1e154, so the word layers take
    it only where their scaling keeps the entries at most 1."""
    return math.sqrt(np.vdot(x, x))


def _layers(step, v, count):
    """Word layers from v for lengths 0 .. count, each as its rows
    Z_k = X_k' (module docstring) scaled to unit 2-norm, under
    step = [A', N'] scaled to unit 2-norm (z -> [z A', z N'] for the
    pre-scaled A and N). Yields (Z_k, err_k) with err_k the rounding
    allowance of layer k. A layer is built only when asked for, so a caller
    that stops at a length builds no longer layer."""
    n = v.size
    u = _ROUND * n
    Z, e = _unit(v.reshape(1, n))[0], u
    for k in range(1, count + 1):
        yield Z, e
        Z = (Z @ step).reshape(-1, n)
        if Z.shape[0] > 4 * n and k < count:    # the last layer grows no more
            Z = np.linalg.qr(Z, mode="r")
        g = _norm(Z)
        Z, e = (Z / g if g else Z), e + (u / g if g else 0.0)
    yield Z, e


def _span(A, N, v, count):
    """The word layers of each system (A[i], N[i], v[i]) of a stack, all of
    one n, up to length count, stacked as rows: span[i] holds the products
    of the pre-scaled system from the unit v[i], no layer rescaled (module
    docstring), so a layer that is only rounding noise stays as small as it
    is."""
    n = v.shape[1]
    # z -> [z A', z N'] for each system
    step = _unit(np.concatenate([A, N], 1).transpose(0, 2, 1), stack=True)
    Z = _unit(v, stack=True)[:, None]
    layers = [Z]
    for j in range(1, count + 1):
        Z = (Z @ step).reshape(len(v), -1, n)
        if Z.shape[1] > 4 * n and j < count:    # the last layer grows no more
            Z = np.linalg.qr(Z, mode="r")
        layers.append(Z)
    return np.concatenate(layers, axis=1)


def _difference(s1: FourTuple, s2: FourTuple):
    """The block-diagonal system whose output is y1 - y2 under any input:
    (A1 (+) A2, N1 (+) N2, [b1; b2], [c1, -c2]), of the kind both share.
    A private record with a FourTuple's fields and n, left unvalidated:
    both members are validated tuples already."""
    n1, n = s1.n, s1.n + s2.n
    A, N = np.zeros((2, n, n))
    A[:n1, :n1], A[n1:, n1:] = s1.A, s2.A
    N[:n1, :n1], N[n1:, n1:] = s1.N, s2.N
    return SimpleNamespace(A=A, N=N, b=np.concatenate([s1.b, s2.b]),
                           c=np.concatenate([s1.c, -s2.c]), kind=s1.kind, n=n)


def _balanced(t: FourTuple):
    """(b / beta, beta c) with beta = sqrt(||b|| / ||c||): the b and c of t
    after a change of basis that leaves its i/o map as it is and makes
    ||b|| = ||c||, so that in a stacked pair each member weighs by its
    output scale and not by the scale of its states. Both come out as
    m (b / ||b||) and m (c / ||c||) with m = sqrt(||b||) sqrt(||c||): two
    roots stay finite and nonzero where the quotient ||c|| / ||b|| does
    not, and the unit b takes m where one factor m / ||b|| overflows at a
    subnormal ||b||. A zero b or c zeroes both."""
    nb, nc = math.hypot(*t.b.tolist()), math.hypot(*t.c.tolist())
    m = math.sqrt(nb) * math.sqrt(nc)
    return (m * (t.b / nb), m * (t.c / nc)) if m else (0.0 * t.b, 0.0 * t.c)


def krylov(A, v):
    """[v, A v, ..., A^{n-1} v], from _krylov's recursion."""
    v = np.ravel(np.asarray(v, dtype=float))
    return _krylov(np.asarray(A, dtype=float)[None], v, v)[0, 0].T


def _krylov(A, b, c, rows=None):
    """R' and O of each matrix A[i] of the stack A, as (len(A), 2, rows, n),
    each padded with zero rows to rows (default n): the rows b' (A[i]')^j
    of R' = krylov(A[i], b)' and c' A[i]^j of O = krylov(A[i]', c)', for
    every A[i] at once from one batched recursion, one matmul per power."""
    n = len(b)
    K = np.zeros((len(A), 2, rows or n, n))
    K[:, :, 0] = b, c
    step = np.stack([A.transpose(0, 2, 1), A], 1)
    for j in range(1, n):
        K[:, :, j:j + 1] = K[:, :, j - 1:j] @ step
    return K


def _linear(As, b, c, tol):
    """The linear-triple test of each A of the stack As: the reachability
    and observability matrices R and O of (A/||A||, b, c) from _krylov,
    stacked as (R', O) per A, and their ranks [reach, obs] per A from one
    batched SVD. ||A|| is the 2-norm of the entries (_unit), so no rank
    depends on the time unit (module docstring)."""
    K = _krylov(_unit(np.asarray(As, dtype=float), stack=True), b, c)
    return K, _ranks(K, tol)


def _canonical_gap(*ts: FourTuple, tol: Tolerances, linear=()):
    """For each of the tuples ts, all of one n, the first of its extended
    reachability and observability spans (the word layers of (A, N, b) and
    of (A', N', c) up to length n-1) whose rank falls short of n, as
    (side, rank); None for a canonical tuple. Each A of linear adds the
    ranks [reach, obs] of the linear triple (A, b, c) of ts[0] (_linear)
    to the list, its R' and O padded with zero rows to the span's row
    count, which leaves their singular values as they are. One stacked
    span and one batched SVD decide every side and every triple."""
    n = ts[0].n
    A, N, v = map(np.array, zip(*[side for t in ts for side in (
        (t.A, t.N, t.b), (t.A.T, t.N.T, t.c))]))
    span = _span(A, N, v, n - 1)
    span = span.reshape(-1, 2, *span.shape[1:])    # [reach, obs] per tuple
    if len(linear):    # v[:2] is b and c of ts[0]
        K = _krylov(_unit(np.array(linear), stack=True), *v[:2], span.shape[2])
        span = np.concatenate([span, K])
    pairs = _ranks(span, tol)
    return [("reachability", r) if r < n else ("observability", o) if o < n
            else None for r, o in pairs[:len(ts)]] + pairs[len(ts):]


def is_canonical(t: FourTuple, tol: Tolerances = DEFAULT_TOL) -> bool:
    return _canonical_gap(t, tol=tol)[0] is None


def io_equivalent(t1: FourTuple, t2: FourTuple, tol: Tolerances = DEFAULT_TOL):
    """Compare the series coefficients of every word length up to
    n1 + n2 - 1, one length at a time on the word layers of the stacked pair
    (module docstring); no layer past the first differing length is built.
    Returns (equivalent, lex-first word of the first differing length or
    None)."""
    n1, n = t1.n, t1.n + t2.n
    (b1, c1), (b2, c2) = _balanced(t1), _balanced(t2)
    step = np.zeros((n, 2 * n))    # [A', N'] of (A1 (+) A2, N1 (+) N2)
    step[:n1, :n1], step[n1:, n1:n] = t1.A.T, t2.A.T
    step[:n1, n:n + n1], step[n1:, n + n1:] = t1.N.T, t2.N.T
    step, _ = _unit(step)
    r, _ = _unit(np.concatenate([c1, -c2]))
    R = np.zeros((n, 3))       # [r1 (+) 0, 0 (+) r2, r]
    R[:n1, 0], R[n1:, 1], R[:, 2] = r[:n1], r[n1:], r
    layers, err = [], []
    for Z, e in _layers(step, np.concatenate([b1, b2]), n - 1):
        Y = Z @ R
        top, bottom, gap = np.sqrt((Y * Y).sum(axis=0)).tolist()
        if gap > tol.residual_tol * max(top, bottom) + e:
            return False, _lex_first(r, layers, err, step, tol)
        layers.append(Z)
        err.append(e)
    return True, None


def _moment_gap(G, Z, c, n1):
    """The agreement residual of a pair on the levels of an input class:
    level l runs the pair's difference system with generator (or step map)
    G[l] from the state Z[l], and its output row c = [c1, -c2] (padded)
    reads y1 - y2. By Cayley-Hamilton the members agree on level l exactly
    when c G^k z = 0 for k < m, the order of G. Each unit-scaled Krylov
    vector (G/||G||)^k z/||z|| is judged as io_equivalent judges a length:
    the gap less its rounding allowance, relative to the larger member
    share (the first n1 states are the first member's). Returns the worst
    ratio; 0 when every gap is within its allowance."""
    m = G.shape[-1]
    G = _unit(G, stack=True)
    K = [_unit(np.array(Z), stack=True)]
    for _ in range(1, m):
        K.append((G @ K[-1][:, :, None])[:, :, 0])
    r, _ = _unit(c)
    K = np.array(K)
    y1, y2 = K[..., :n1] @ r[:n1], K[..., n1:] @ r[n1:]
    size = np.maximum(np.abs(y1), np.abs(y2))
    # a zero share has a zero gap, so its ratio is below 0 and drops out
    gap = np.abs(y1 + y2) - _ROUND * m * np.arange(1, m + 1)[:, None]
    return max(0.0, float(np.max(gap / np.maximum(size, _TINY))))


def _lex_first(r, layers, err, step, tol):
    """The word of length len(layers), chosen letter by letter from the
    left, whose branch of r A_w X_0 carries the difference: A unless the A
    branch is within residual_tol of the N branch plus its rounding, with
    A and N pre-scaled as in step = [A', N']. The row r has a rounding
    allowance of its own, grown as a layer's is."""
    A, N = step[:, :r.size].T, step[:, r.size:].T
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
    T = top @ pinv(bottom). Both tuples must be canonical. Each residual
    is relative to the first tuple's own A, N, b or c. Raises NotSimilar
    with the residual report when the relations fail."""
    gaps = (_canonical_gap(t1, t2, tol=tol) if t1.n == t2.n else
            _canonical_gap(t1, tol=tol) + _canonical_gap(t2, tol=tol))
    for name, gap in zip(("first", "second"), gaps):
        if gap is not None:
            raise NotCanonical(f"{name} tuple is not canonical")
    if t1.n != t2.n:
        raise NotSimilar(f"dimensions differ: {t1.n} vs {t2.n}")
    d = _difference(t1, t2)
    X = _span(d.A[None], d.N[None], d.b[None], t1.n - 1)[0].T
    T = X[:t1.n] @ pinv_rank(X[t1.n:], tol)[0]
    try:
        Tinv = np.linalg.inv(T)
    except np.linalg.LinAlgError:
        raise NotSimilar("recovered T is singular") from None
    def rel(x, y):    # on the scale of x itself, 0/0 read as 0
        gap, size = (math.hypot(*z.ravel().tolist()) for z in (x - y, x))
        return gap / size if size else (math.inf if gap else 0.0)
    residuals = {
        "A": rel(t1.A, T @ t2.A @ Tinv),
        "N": rel(t1.N, T @ t2.N @ Tinv),
        "b": rel(t1.b, T @ t2.b),
        "c": rel(t1.c, t2.c @ Tinv),
    }
    witness = SimilarityWitness(T, residuals)
    if not witness.max_residual <= tol.residual_tol:    # NaN fails too
        raise NotSimilar(
            f"similarity residual {witness.max_residual:.3e}", residuals
        )
    return witness


def _self_dual(K, ranks):
    """The self-dual transform T of a linear triple from one member of a
    _linear build: its K = (R', O), pre-scaled, which leaves T as it is,
    and its ranks [reach, obs]; None unless both ranks are full."""
    Rt, O = K
    if min(ranks) < len(O):
        return None
    # T O' = R, i.e. O T' = R', and T is symmetric anyway
    return np.linalg.solve(O, Rt).T


def self_dual_T(A, b, c, tol: Tolerances = DEFAULT_TOL):
    """The similarity between the linear triple (A, b, c) and its dual
    (A', c', b'): T = R(A,b) [(O(A,c))']^{-1}, satisfying A T = T A',
    b = T c', c T = b'. T is symmetric. Requires R and O invertible."""
    (K,), (ranks,) = _linear([A], b, c, tol)
    T = _self_dual(K, ranks)
    if T is None:
        raise NotCanonicalTriple(f"linear triple has ranks ({ranks[0]}, "
                                 f"{ranks[1]}), need {np.size(b)}")
    return T

