"""Word products, reachability/observability, canonicality, i/o equivalence,
similarity recovery, the self-dual transform T, and the B(S) predicate.

Two 4-tuples are i/o equivalent exactly when the series coefficients
c A_{i1} ... A_{ik} b (A_0 = A, A_1 = N) agree for every word; checking all
words of length <= n1 + n2 suffices. Words are written as strings over
{"A", "N"}; the empty string is the empty word and orderings are
shortest-first, then lexicographic with A < N.
"""

import math

import numpy as np

from .core import FourTuple, validate
from .errors import (DimensionTooLarge, NotCanonical, NotCanonicalTriple,
                     NotSimilar, Overflow, ZeroS)
from .matfun import DEFAULT_TOL, Tolerances, pinv_rank, rank_of
from .core import SimilarityWitness

WORD_CAP = 12


def _check_word(w: str) -> str:
    if any(ch not in "AN" for ch in w):
        raise ValueError(f"word must be over alphabet A/N, got {w!r}")
    return w


def word_at(length: int, index: int) -> str:
    """The index-th word of the given length in lexicographic order (A < N)."""
    return "".join("AN"[(index >> (length - 1 - j)) & 1] for j in range(length))


def series_coefficient(t: FourTuple, word: str) -> float:
    validate(t)
    _check_word(word)
    v = t.b
    for letter in reversed(word):
        v = (t.A if letter == "A" else t.N) @ v
    return float(t.c @ v)


def _prefix_vectors(A, N, v, max_len):
    """vecs[k][i] = (product over word_at(k, i)) @ v, built by prefix
    extension: one matrix product per letter per length."""
    vecs = [v.reshape(1, -1)]
    for _ in range(max_len):
        prev = vecs[-1]
        vecs.append(np.vstack([prev @ A.T, prev @ N.T]))
    return vecs


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


def extended_reach(t: FourTuple, cap: int = WORD_CAP):
    """All products A_w b over words w of length <= n-1 as columns, ordered
    shortest-first then lexicographically; 2^n - 1 columns."""
    validate(t)
    n = t.n
    if n > cap:
        raise DimensionTooLarge(f"n={n} exceeds the word-product cap {cap}")
    vecs = _prefix_vectors(t.A, t.N, t.b, n - 1)
    return np.column_stack([blk.T for blk in vecs])


def extended_obs(t: FourTuple, cap: int = WORD_CAP):
    """Dual span: rows c A_w over words of length <= n-1, ordered by length
    and then lexicographically in the reversed word (the row recursion
    appends letters on the right)."""
    validate(t)
    n = t.n
    if n > cap:
        raise DimensionTooLarge(f"n={n} exceeds the word-product cap {cap}")
    vecs = _prefix_vectors(t.A.T, t.N.T, t.c, n - 1)
    return np.vstack(vecs)


def is_canonical(t: FourTuple, tol: Tolerances = DEFAULT_TOL,
                 cap: int = WORD_CAP) -> bool:
    n = t.n
    return (rank_of(extended_reach(t, cap), tol) == n
            and rank_of(extended_obs(t, cap), tol) == n)


def io_equivalent(t1: FourTuple, t2: FourTuple, tol: Tolerances = DEFAULT_TOL,
                  max_len=None, cap: int = WORD_CAP):
    """Compare every series coefficient up to word length n1 + n2 (or the
    explicit max_len override). Returns (equivalent, first differing word or
    None). The coefficients of each word length are judged against
    residual_tol * scale, with scale the largest coefficient magnitude of
    that length in either tuple, floored at 1, so a large coefficient of one
    length cannot mask a difference at another. Raises Overflow when the
    coefficients of a length are reached that are not representable."""
    validate(t1)
    validate(t2)
    L = t1.n + t2.n if max_len is None else int(max_len)
    if L > cap:
        raise DimensionTooLarge(f"word length bound {L} exceeds cap {cap}")
    with np.errstate(over="ignore", invalid="ignore"):
        co1 = [blk @ t1.c for blk in _prefix_vectors(t1.A, t1.N, t1.b, L)]
        co2 = [blk @ t2.c for blk in _prefix_vectors(t2.A, t2.N, t2.b, L)]
    for k in range(L + 1):
        m1 = float(np.max(np.abs(co1[k])))
        m2 = float(np.max(np.abs(co2[k])))
        if not math.isfinite(m1 + m2):
            raise Overflow(f"series coefficients of length {k} overflow")
        over = np.abs(co1[k] - co2[k]) > tol.residual_tol * max(1.0, m1, m2)
        if np.any(over):
            return False, word_at(k, int(np.argmax(over)))
    return True, None


def conjugate(t: FourTuple, T) -> FourTuple:
    """Change of basis x = T z: returns (T^-1 A T, T^-1 N T, T^-1 b, c T)."""
    T = np.asarray(T, dtype=float)
    Tinv = np.linalg.inv(T)
    return FourTuple(Tinv @ t.A @ T, Tinv @ t.N @ T, Tinv @ t.b, t.c @ T, t.kind)


def similarity_between(t1: FourTuple, t2: FourTuple,
                       tol: Tolerances = DEFAULT_TOL,
                       cap: int = WORD_CAP) -> SimilarityWitness:
    """The unique T with A1 = T A2 T^-1, N1 = T N2 T^-1, b1 = T b2,
    c2 = c1 T, computed as extended_reach(t1) @ pinv(extended_reach(t2)).
    Both tuples must be canonical. Raises NotSimilar with the residual
    report when the relations fail."""
    for name, t in (("first", t1), ("second", t2)):
        if not is_canonical(t, tol, cap):
            raise NotCanonical(f"{name} tuple is not canonical")
    if t1.n != t2.n:
        raise NotSimilar(f"dimensions differ: {t1.n} vs {t2.n}")
    T = extended_reach(t1, cap) @ pinv_rank(extended_reach(t2, cap), tol)[0]
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
    b = np.ravel(np.asarray(b, dtype=float))
    c = np.ravel(np.asarray(c, dtype=float))
    n = b.shape[0]
    R = krylov(A, b)
    O = krylov(A.T, c).T
    if rank_of(R, tol) < n or rank_of(O, tol) < n:
        raise NotCanonicalTriple(
            f"linear triple has ranks ({rank_of(R, tol)}, {rank_of(O, tol)}), need {n}"
        )
    # T O' = R, i.e. O T' = R', and T is symmetric anyway
    return np.linalg.solve(O, R.T).T


def in_B(N, S, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether N S = S N' up to residual_tol relative to ||S|| ||N|| (floor 1)."""
    N = np.asarray(N, dtype=float)
    S = np.asarray(S, dtype=float)
    nS = np.linalg.norm(S)
    if nS == 0.0:
        raise ZeroS("S must be nonzero")
    scale = max(1.0, nS * np.linalg.norm(N))
    return float(np.linalg.norm(N @ S - S @ N.T)) <= tol.residual_tol * scale
