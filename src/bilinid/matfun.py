"""Dense matrix functions: exponential, the kernel phi1(Q,t) = int_0^t e^{sQ} ds,
pseudoinverse with rank, eigenvalues, and the principal matrix logarithm.

expm uses Pade scaling-and-squaring (scipy). phi1 always goes through the
augmented block exponential

    expm(t * [[Q, I], [0, 0]]) = [[e^{tQ}, int_0^t e^{sQ} ds], [0, I]]

rather than Q^{-1}(e^{tQ} - I), so singular Q needs no special case.

principal_logm diagonalizes: the one eigendecomposition M = V diag(lam) V^{-1}
that supplies the eigenvalues for the branch-cut check also gives
log M = V diag(log lam) V^{-1} (Higham, Functions of Matrices, 2008, 11).
That loses about log10 cond(V) digits, so when cond(V) exceeds
_EIG_COND_MAX (defective or nearly defective M, e.g. a Jordan block) it
falls back to scipy's inverse scaling-and-squaring logm (Al-Mohy and
Higham, 2012), which is slower but needs no eigenvector basis.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NoConvergence, Overflow, SpectrumOnCut


@dataclass(frozen=True)
class Tolerances:
    """rank_tol: relative singular-value cutoff; residual_tol: equality
    tolerance for matrix relations; agree_tol: trajectory agreement."""

    rank_tol: float = 1e-10
    residual_tol: float = 1e-8
    agree_tol: float = 1e-7

    def __post_init__(self):
        if min(self.rank_tol, self.residual_tol, self.agree_tol) <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = Tolerances()

# eigenvector condition number above which principal_logm uses scipy's logm
_EIG_COND_MAX = 1e4


def expm(M):
    M = np.asarray(M, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        E = scipy.linalg.expm(M)
    if not np.all(np.isfinite(E)):
        raise Overflow("matrix exponential exceeds the representable range")
    return E


def phi1(Q, t):
    """int_0^t e^{sQ} ds via the augmented block exponential."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    if t < 0:
        raise ValueError("t must be nonnegative")
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = Q
    aug[:n, n:] = np.eye(n)
    return expm(t * aug)[:n, n:]


def pinv_rank(M, tol: Tolerances = DEFAULT_TOL):
    """Moore-Penrose pseudoinverse by SVD truncation at rank_tol * sigma_max,
    plus the number of retained singular values."""
    M = np.asarray(M, dtype=float)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(M.T.shape), 0
    keep = s > tol.rank_tol * s[0]
    rank = int(np.count_nonzero(keep))
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (Vh.T * inv) @ U.T, rank


def rank_of(M, tol: Tolerances = DEFAULT_TOL) -> int:
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


def eigenvalues(M):
    M = np.asarray(M, dtype=float)
    try:
        return np.linalg.eigvals(M)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from None


def principal_logm(M):
    """Principal matrix logarithm, guarded: every eigenvalue must stay off
    the closed negative real axis, and the result L satisfies expm(L) = M
    with eigenvalues of L having imaginary part in (-pi, pi).

    L = V diag(log lam) V^{-1} from the eigendecomposition of M, or
    scipy.linalg.logm(M) when cond(V) > _EIG_COND_MAX."""
    M = np.asarray(M, dtype=float)
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from None
    scale = max(1.0, float(np.max(np.abs(lam))))
    on_cut = (np.abs(lam.imag) <= 1e-12 * scale) & (lam.real <= 1e-12 * scale)
    if np.any(on_cut):
        raise SpectrumOnCut(
            f"eigenvalue {lam[np.argmax(on_cut)]} lies on the closed negative real axis"
        )
    if np.linalg.cond(V) <= _EIG_COND_MAX:
        L = (V * np.log(lam)) @ np.linalg.inv(V)
    else:
        L = scipy.linalg.logm(M)
    if np.max(np.abs(L.imag)) > 1e-8 * max(1.0, np.max(np.abs(L.real))):
        raise NoConvergence("principal logarithm is not real")
    L = L.real
    resid = np.linalg.norm(expm(L) - M) / max(1.0, np.linalg.norm(M))
    if not resid < 1e-8:
        raise NoConvergence(f"logm round-trip residual {resid:.3e}")
    return L
