"""Dense matrix functions: exponential, the kernel phi1(Q,t) = int_0^t e^{sQ} ds,
pseudoinverse with rank, eigenvalues, and the principal matrix logarithm.

Every rank in the package is one cut, _cut: the count of singular values
above rank_tol times the largest (rank_of, pinv_rank, the batched _ranks,
realization's canonicality and linear-triple tests, identify's order).

expm is batched numpy scaling and squaring with a Pade approximant (Al-Mohy
and Higham, 2009, the algorithm behind scipy.linalg.expm). It exponentiates
one matrix or each matrix of a stack: the degree m in {3, 5, 7, 9, 13}
comes from d_k = ||M^k||_1^{1/k} of the even powers, one degree for the
whole stack, and each matrix gets its own power-of-two scaling, so a small
matrix in a stack is never squared because a large one is. phi1 always goes
through the augmented block exponential

    expm(t * [[Q, I], [0, 0]]) = [[e^{tQ}, int_0^t e^{sQ} ds], [0, I]]

rather than Q^{-1}(e^{tQ} - I), so singular Q needs no special case. The
whole block comes from the private _phi1_block, so a caller that needs
e^{tQ} as well (the sampled recursion of simulate.py) reads both from one
exponential instead of exponentiating Q again.

principal_logm diagonalizes: the one eigendecomposition M = V diag(lam) V^{-1}
that supplies the eigenvalues for the branch-cut check also gives
log M = V diag(log lam) V^{-1} (Higham, Functions of Matrices, 2008, 11).
That loses about log10 cond(V) digits, so when cond(V) exceeds
_EIG_COND_MAX (defective or nearly defective M, e.g. a Jordan block) it
falls back to scipy's inverse scaling-and-squaring logm (Al-Mohy and
Higham, 2012), which is slower but needs no eigenvector basis. That rare
fallback is the only place scipy is imported, so importing this package
does not load it.

The work is done on a stack by _logm_flows, in one pass: one eig, cond(V)
of every member from one batched SVD of the eigenvector bases, one inv
over the members that pass both the cut and the cond test (the stack
itself, not a masked copy, when all do), and one expm over every member's
L and flows e^{tL}, which also gives the round-trip check expm(L) = M.
Each member's fault (cut, fallback not real, overflow, round trip) is
returned, not raised, and only a faulty member's is built, so a caller
that needs two logarithms raises them in the order of its own checks;
principal_logm is the one-member stack that raises its fault.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, Overflow, SpectrumOnCut


@dataclass(frozen=True)
class Tolerances:
    """rank_tol: relative singular-value cutoff; residual_tol: equality
    tolerance for matrix relations; agree_tol: trajectory agreement."""

    rank_tol: float = 1e-10
    residual_tol: float = 1e-8
    agree_tol: float = 1e-7

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0 < x < np.inf for x in
                   (self.rank_tol, self.residual_tol, self.agree_tol)):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_TOL = Tolerances()

# eigenvector condition number above which principal_logm uses scipy's logm
_EIG_COND_MAX = 1e4


# b_0 .. b_m of the degree-m Pade approximant to e^x, for m = 3, 5, 7, 9, 13
_B = ((120.0, 60.0, 12.0, 1.0),
      (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
      (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
       1.0),
      (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
       2162160.0, 110880.0, 3960.0, 90.0, 1.0),
      (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
       1187353796428800.0, 129060195264000.0, 10559470521600.0,
       670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
       16380.0, 182.0, 1.0))
# the degree-m approximant has backward error below the unit roundoff while
# alpha = max(d_{2p}, d_{2p+2}) <= theta_m (Al-Mohy and Higham, 2009,
# Table 3.1)
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
          2.097847961257068, 4.25)
# degrees 3 .. 9 over the even powers I, M^2, M^4, ...: U = M (C[0] . powers)
# and V = C[1] . powers, with r_m(M) = (V - U)^{-1} (V + U)
_UV = [np.array([b[1::2], b[::2]]) for b in _B[:4]]
# degree 13 in Horner form over I, M^2, M^4, M^6: U = M (M^6 X0 + X1),
# V = M^6 X2 + X3
_UV13 = np.array([[0.0, *_B[4][9::2]], _B[4][1:9:2],
                  [0.0, *_B[4][8::2]], _B[4][0:8:2]])
# d_k = ||M^k||_1^{1/k} for k = 4, 6, 8, 10
_ROOTS = 1 / np.array([[4.0], [6.0], [8.0], [10.0]])


def _norm1(P):
    return np.abs(P).sum(axis=-2).max(axis=-1)


def _expm_stack(A):
    """e^A of each matrix of the stack A by scaling and squaring (Al-Mohy
    and Higham, 2009, Algorithm 5.1, without its l(A, m) term): the lowest
    Pade degree m <= 9 whose theta bounds every matrix, unscaled, else
    m = 13 on 2^-s A, with s the least integer >= 0 that brings each
    matrix's own alpha below theta_13, squared s times."""
    k, n, _ = A.shape
    W = np.empty((6, k, n, n))  # I, A^2, A^4, A^6, A^8, A^10
    W[0] = np.eye(n)
    np.matmul(A, A, out=W[1])
    np.matmul(W[1], W[1], out=W[2])
    np.matmul(W[2], W[1], out=W[3])
    np.matmul(W[2], W[2], out=W[4])
    np.matmul(W[2], W[3], out=W[5])
    d = _norm1(W[2:]) ** _ROOTS  # d_4, d_6, d_8, d_10
    # alpha_p = max(d_2p, d_2p+2) for p = 2, 3, 4: degrees 3 and 5 read
    # alpha_2, 7 and 9 alpha_3, and 13 the smaller of alpha_3 and alpha_4
    alpha = np.fmax(d[:-1], d[1:])
    worst = alpha.max(axis=1, initial=0.0).tolist()
    for i, C in enumerate(_UV):
        if worst[i // 2] <= _THETA[i]:
            j = C.shape[1]
            P, V = (C @ W[:j].reshape(j, -1)).reshape(2, k, n, n)
            U = A @ P
            return np.linalg.solve(V - U, V + U)
    # every d_k is at most ||A||_1, which stays finite where a power overflows
    alpha = np.fmin(np.fmin(alpha[1], alpha[2]), _norm1(A))
    s = np.ceil(np.log2(np.maximum(alpha / _THETA[4], 1.0))).astype(int)
    A = A * 2.0 ** -s[:, None, None]
    W[1:4] *= 2.0 ** -np.multiply.outer([2, 4, 6], s)[..., None, None]
    X0, X1, X2, X3 = (_UV13 @ W[:4].reshape(4, -1)).reshape(4, k, n, n)
    U = A @ (W[3] @ X0 + X1)
    V = W[3] @ X2 + X3
    E = np.linalg.solve(V - U, V + U)
    for i in range(s.max(initial=0)):
        E = np.where((s > i)[:, None, None], E @ E, E)
    return E


def expm(M):
    """e^M of one matrix (n, n) or of each matrix of a stack (k, n, n).
    Raises Overflow for a non-finite M or a result beyond the float range."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise Overflow("matrix exponential of a non-finite matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        E = _expm_stack(M.reshape(-1, *M.shape[-2:]))
    if not np.isfinite(E).all():
        raise Overflow("matrix exponential exceeds the representable range")
    return E.reshape(M.shape)


def _phi1_block(Q, t):
    """expm(t * [[Q, I], [0, 0]]) for one matrix Q (n, n) or each of a
    stack (k, n, n): e^{tQ} is its top-left n x n block and phi1(Q, t) its
    top-right one."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[-1]
    if t < 0:
        raise ValueError("t must be nonnegative")
    aug = np.zeros((*Q.shape[:-2], 2 * n, 2 * n))
    aug[..., :n, :n] = Q
    aug[..., :n, n:] = np.eye(n)
    return expm(t * aug)


def phi1(Q, t):
    """int_0^t e^{sQ} ds, for one matrix Q (n, n) or each of a stack
    (k, n, n), via the augmented block exponential."""
    n = np.shape(Q)[-1]
    return _phi1_block(Q, t)[..., :n, n:]


def _norms(X):
    """The 2-norm of the entries of each matrix of the stack X, from one
    einsum."""
    return np.sqrt(np.einsum("...ij,...ij->...", X, X))


def _cut(s, tol):
    """The one rank rule: how many of the singular values s (last axis,
    descending) exceed rank_tol times the largest. Every rank in the package
    is this count, so an empty or zero s has rank 0."""
    return (s > tol.rank_tol * s[..., :1]).sum(axis=-1)


def _ranks(Ms, tol):
    """The rank of the matrix Ms, or of each matrix of the stack Ms, all of
    one shape, from one batched SVD, as Python ints."""
    return _cut(np.linalg.svd(Ms, compute_uv=False), tol).tolist()


def pinv_rank(M, tol: Tolerances = DEFAULT_TOL):
    """Moore-Penrose pseudoinverse by SVD truncation at the rank cut, plus
    the number of retained singular values."""
    U, s, Vh = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    rank = int(_cut(s, tol))
    inv = np.zeros_like(s)
    inv[:rank] = 1.0 / s[:rank]
    return (Vh.T * inv) @ U.T, rank


def rank_of(M, tol: Tolerances = DEFAULT_TOL) -> int:
    return _ranks(np.asarray(M, dtype=float), tol)


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
    return _logm_one(M, ())[0]


def _logm_one(M, times):
    """_logm_flows of the one matrix M: its L and flows, or its fault
    raised."""
    L, E, (fault,) = _logm_flows(np.asarray(M, dtype=float)[None], times)
    if fault is not None:
        raise fault
    return L[0], E[0]


def _logm_flows(M, times):
    """For each matrix of the stack M (k, m, m): its principal logarithm L,
    and the flows e^{t L} for each t of times, taken from one stacked expm
    with the round-trip check expm(L) = M. Returns L (k, m, m), the flows
    (k, len(times), m, m) and for each member the error principal_logm
    would raise for it, or None (a faulty member's L and flows are
    placeholders). A stack that eig or expm cannot take whole is taken one
    member at a time, so one member's fault never blocks another."""
    try:
        lam, V = np.linalg.eig(M)
    except np.linalg.LinAlgError as e:
        return _member_by_member(M, times, NoConvergence(str(e)))
    scale = np.maximum(1.0, np.abs(lam).max(axis=1))[:, None]
    on_cut = (np.abs(lam.imag) <= 1e-12 * scale) & (lam.real <= 1e-12 * scale)
    cut = on_cut.any(axis=1)
    s = np.linalg.svd(V, compute_uv=False)
    # cond(V) = s_1 / s_m, compared without a division by a zero s_m
    fast = ~cut & (s[:, 0] <= _EIG_COND_MAX * s[:, -1])
    # a stack whose members all pass is indexed by a view, not a mask copy
    idx = slice(None) if fast.all() else fast
    L = np.zeros(M.shape, dtype=complex)
    L[idx] = (V[idx] * np.log(lam[idx])[:, None]) @ np.linalg.inv(V[idx])
    for i in np.flatnonzero(~cut & ~fast):
        import scipy.linalg  # only here: keeps scipy off the import path
        L[i] = scipy.linalg.logm(M[i])
    imag = (np.abs(L.imag).max(axis=(1, 2))
            > 1e-8 * np.maximum(1.0, np.abs(L.real).max(axis=(1, 2))))
    faults, L = [None] * len(M), L.real
    for i in np.flatnonzero(cut | imag):    # a faulty member's L is 0
        L[i], faults[i] = 0.0, (SpectrumOnCut(
            f"eigenvalue {lam[i, np.argmax(on_cut[i])]} lies on the closed "
            f"negative real axis") if cut[i] else
            NoConvergence("principal logarithm is not real"))
    try:
        E = expm(np.array([1.0, *times])[:, None, None] * L[:, None])
    except Overflow as e:
        return _member_by_member(M, times, e)
    gap, size = _norms(np.array([E[:, 0] - M, M]))
    resid = gap / np.maximum(1.0, size)
    for i in np.flatnonzero(~(resid < 1e-8)):
        faults[i] = faults[i] or NoConvergence(
            f"logm round-trip residual {resid[i]:.3e}")
    return L, E[:, 1:], faults


def _member_by_member(M, times, fault):
    """_logm_flows of each matrix of the stack M on its own; fault is the
    one member's fault when the stack has one."""
    if len(M) == 1:
        return np.zeros(M.shape), np.zeros((1, len(times), *M.shape[1:])), [fault]
    L, E, faults = zip(*(_logm_flows(member[None], times) for member in M))
    return np.concatenate(L), np.concatenate(E), sum(faults, [])
