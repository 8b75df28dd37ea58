"""Lowest levels of a symmetric-definite pencil A x = E B x, in mixed precision.

A float32 solve gives the eigenvectors of the k + 10 lowest levels, and the
levels are the k lowest eigenvalues of the float64 pencil projected onto
them (Rayleigh-Ritz), so each stays a min-max upper bound on its float64
Galerkin level.  The float32 solve is sygvx on the whole pencil, or, when
the block holds many more basis functions than the vectors it needs, block
Krylov on the Cholesky factors, whose cost follows k instead of the whole
pencil's.  One call solves every leading block of a pencil the same way:
the float64 pencil is packed into A's storage, and each float32 pencil, and
after it a lower block's packed float64 pencil for its Rayleigh-Ritz
products, is copied from its leading block into B's, so no N x N array is
allocated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import EigensolverError

__all__ = ["BlockSolve", "solve_spectrum"]

# rows of a float32 pencil copied per block: bounds the copy's temporaries
# at a few MB whatever the basis size
_ROW_BLOCK = 16
# eigenvectors computed beyond the k levels returned: the Rayleigh-Ritz step
# then resolves a degenerate cluster that the k-th level splits
_OVERSAMPLE = 10
# basis functions per computed eigenvector from which a block takes block
# Krylov instead of sygvx: Krylov costs about (vectors) N^2 and sygvx N^3,
# and on two cores they cost the same at 31 to 34 functions per vector for
# N 780, 1770 and 4005.  It exceeds _KRYLOV_STEPS, so a Krylov basis fits.
_KRYLOV_RATIO = 32
# Krylov blocks built before a block goes to sygvx; 6 to 9 converge
_KRYLOV_STEPS = 16
# relative residual |C u - theta u| / theta below which a wanted Krylov Ritz
# pair is converged: 1e-5 keeps every level within 7.8e-10 relative of its
# float64 Galerkin level, 1e-4 within 8.9e-9 and 1e-3 within 3e-7
_KRYLOV_TOL = 1e-5


def _float32_pencil(packed: np.ndarray, b_diag: np.ndarray, buffer: np.ndarray,
                    n: int) -> tuple:
    """The float32 pencil (A32, B32) of the leading n x n block.

    ``packed`` holds A in its lower triangle and B's strict upper triangle
    above it.  Both are copied into ``buffer``: B32 first, because that
    start is 8-byte aligned and scipy's sygvx copies a misaligned b, then
    A32.  Only their lower triangles are read.
    """
    halves = buffer.reshape(-1).view(np.float32)
    b32, a32 = halves[:n * n].reshape(n, n), halves[n * n:2 * n * n].reshape(n, n)
    for start in range(0, n, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n)
        # rows start:stop left of the block's end; right of the diagonal they
        # hold the other matrix, which LAPACK does not read
        a32[start:stop, :stop] = packed[start:stop, :stop]
        b32[start:stop, :stop] = packed[:stop, start:stop].T
    b32.flat[::n + 1] = b_diag[:n]
    return a32, b32


def _eigensolver_error(exc: Exception) -> EigensolverError:
    """The EigensolverError of a LAPACK failure, worded by its cause."""
    if "leading minor" in str(exc):
        # LAPACK names the order of the leading minor of B that is not
        # positive-definite
        return EigensolverError(
            f"generalized eigensolver failed ({exc}); the overlap matrix is not "
            "positive-definite in float32"
        )
    return EigensolverError(
        f"generalized eigensolver did not converge ({exc}); the pencil is "
        "too ill-conditioned for its float32 eigenvectors"
    )


def _dense_vectors(a32: np.ndarray, b32: np.ndarray, width: int) -> np.ndarray:
    """Float32 eigenvectors of the ``width`` lowest levels, by sygvx on the whole pencil."""
    # LAPACK reads the Fortran upper triangle of the transposes: the C-order
    # lower triangles of A32 and B32
    return scipy.linalg.eigh(
        a32.T, b32.T, lower=False, check_finite=False, driver="gvx",
        subset_by_index=[0, width - 1], overwrite_a=True, overwrite_b=True,
    )[1]


def _cholesky32(mat: np.ndarray) -> int:
    """Factor the C-order lower triangle of float32 ``mat`` in place, as the
    Fortran upper factor U of ``mat.T`` (mat = U^T U); LAPACK's info."""
    return scipy.linalg.lapack.spotrf(mat.T, lower=0, clean=0, overwrite_a=1)[1]


def _krylov_vectors(a32: np.ndarray, b32: np.ndarray, count: int, width: int) -> tuple:
    """Float32 vectors of the ``width`` lowest levels by block Krylov, and its steps.

    Both matrices are factored in place, B = U_B^T U_B first: a B that is
    not positive-definite raises LinAlgError, worded as sygvx words it.
    With A = U_A^T U_A, the levels E are 1/theta for the eigenvalues theta
    of C = U_A^-T B U_A^-1, so the lowest levels are the largest theta,
    which block Krylov reaches from one seeded block of ``width`` columns
    (a fixed seed, so a block's levels repeat from run to run).  Every
    product is a triangular solve or multiply on scipy's BLAS, and each
    new block is orthogonalized twice against all before it.  The Krylov
    basis stops growing when the ``count`` largest Ritz pairs of C have
    relative residuals below ``_KRYLOV_TOL``; the Ritz vectors of the
    ``width`` largest are returned as X = U_A^-1 Y.  Returns (None, steps)
    when A is not positive-definite in float32 or ``_KRYLOV_STEPS``
    blocks do not converge.
    """
    n = len(a32)
    info = _cholesky32(b32)
    if info > 0:
        raise scipy.linalg.LinAlgError(
            f"The leading minor of order {info} of B is not positive definite. "
            "The factorization of B could not be completed and no eigenvalues "
            "or eigenvectors were computed."
        )
    if _cholesky32(a32) > 0:
        return None, 0
    u_a, u_b = a32.T, b32.T  # Fortran upper factors
    blas = scipy.linalg.blas
    basis = np.empty((n, _KRYLOV_STEPS * width), dtype=np.float32, order="F")
    # C's Rayleigh quotient on the basis, filled by block columns: its upper
    # triangle holds every coefficient of the orthogonalization
    proj = np.zeros((_KRYLOV_STEPS * width,) * 2, dtype=np.float32, order="F")
    start = np.random.default_rng(0).standard_normal((n, width), dtype=np.float32)
    basis[:, :width] = scipy.linalg.qr(start, mode="economic", check_finite=False)[0]
    for step in range(_KRYLOV_STEPS):
        cols = (step + 1) * width
        block = basis[:, cols - width:cols]
        w = blas.strsm(1.0, u_a, block, lower=0)  # U_A^-1 Q_j, a new array
        w = blas.strmm(1.0, u_b, w, lower=0, overwrite_b=1)
        w = blas.strmm(1.0, u_b, w, lower=0, trans_a=1, overwrite_b=1)
        w = blas.strsm(1.0, u_a, w, lower=0, trans_a=1, overwrite_b=1)
        for _ in range(2):
            h = blas.sgemm(1.0, basis[:, :cols], w, trans_a=1)
            w = blas.sgemm(-1.0, basis[:, :cols], h, beta=1.0, c=w, overwrite_c=1)
            proj[:cols, cols - width:cols] += h
        q_next, r_next = scipy.linalg.qr(w, mode="economic", overwrite_a=True,
                                         check_finite=False)
        # the whole small problem: the Ritz vectors of a syevr subset lose
        # orthogonality inside the octant's degenerate clusters
        theta, ritz = scipy.linalg.eigh(proj[:cols, :cols], lower=False, check_finite=False)
        # C (Q s) - theta (Q s) = Q_{j+1} R_{j+1} s_j, s_j the last block of s
        residual = np.linalg.norm(blas.sgemm(1.0, r_next, ritz[-width:, -count:]), axis=0)
        if np.all(residual <= _KRYLOV_TOL * theta[-count:]):
            y = blas.sgemm(1.0, basis[:, :cols], ritz[:, -width:])
            return blas.strsm(1.0, u_a, y, lower=0, overwrite_b=1), step + 1
        if step + 1 < _KRYLOV_STEPS:
            basis[:, cols:cols + width] = q_next
    return None, _KRYLOV_STEPS


def _rayleigh_ritz(packed: np.ndarray, a_diag: np.ndarray, b_diag: np.ndarray,
                   vecs: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of the float64 pencil projected on ``vecs``.

    ``packed`` holds A in its C-order lower triangle (the Fortran upper of
    packed.T) and B's strict upper triangle above it, with as many rows as
    ``vecs``.
    """
    x = np.asfortranarray(vecs, dtype=np.float64)
    blas = scipy.linalg.blas
    a_x = blas.dsymm(1.0, packed.T, x, lower=0)
    # B in the upper triangle while B's diagonal is in place
    np.fill_diagonal(packed, b_diag)
    b_x = blas.dsymm(1.0, packed.T, x, lower=1)
    np.fill_diagonal(packed, a_diag)
    # on scipy's BLAS, like dsymm: numpy may bundle its own OpenBLAS, whose
    # thread pool stalls against scipy's
    a_proj = blas.dgemm(1.0, x, a_x, trans_a=1)
    b_proj = blas.dgemm(1.0, x, b_x, trans_a=1)
    # twice the symmetric parts: the same eigenvalues; the whole small
    # pencil, as sygv solves it faster than sygvx bisects a subset
    return scipy.linalg.eigh(
        a_proj + a_proj.T, b_proj + b_proj.T, eigvals_only=True,
        check_finite=False, driver="gv",
    )[:count]


def _krylov_side(width: int, n: int) -> bool:
    """Whether a leading block of n basis functions, solved for ``width``
    eigenvectors, takes the block Krylov path."""
    return n >= _KRYLOV_RATIO * width


class BlockSolve(NamedTuple):
    """The levels of one leading block, with how its eigenvectors were found."""

    levels: np.ndarray  # ascending
    path: str  # "krylov" or "dense"
    krylov_steps: int  # Krylov blocks built; 0 when none was
    size: int  # basis functions of the block


def solve_spectrum(a_mat: np.ndarray, b_mat: np.ndarray, k: int, sizes=None) -> list:
    """Lowest k eigenvalues of A x = E B x on leading blocks (symmetric-definite, dense).

    Returns one ``BlockSolve`` per entry n of ``sizes``: the min(k, n)
    lowest values of the subpencil on the leading n x n blocks; ``sizes``
    None is the one size N of the whole pencil.  Every block's pencil is
    solved in float32 for the eigenvectors X of its k + ``_OVERSAMPLE``
    lowest levels, and the levels are the k lowest eigenvalues of the
    float64 projected pencil (X^T A X, X^T B X).  They are Ritz values of
    a subspace of the Galerkin space, so each is at or above the float64
    Galerkin level, and the oversampling keeps a degenerate cluster split
    at k accurate.

    X comes from one of two float32 solvers, chosen from n and the
    vector count alone (``_krylov_side``): a block of at least
    ``_KRYLOV_RATIO`` basis functions per vector runs block Krylov on the
    Cholesky factors (``_krylov_vectors``), any other sygvx on the whole
    pencil.  A Krylov block whose A is not positive-definite in float32,
    or which does not converge in ``_KRYLOV_STEPS`` blocks, goes to
    sygvx.  Both factor B, so a B that is not positive-definite fails
    with the same error on either.

    Both matrices are consumed: B's strict upper triangle moves into A's
    once, and b_mat's buffer holds each float32 pencil in turn and then,
    for a block below the whole, a copy of the packed leading block for
    the Rayleigh-Ritz products, so their contents are undefined afterwards
    and no N x N array is allocated.  The matrices must be symmetric
    float64; a C-ordered matrix is passed to LAPACK and BLAS as its
    transpose, the same matrix in Fortran order.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    size = len(a_mat)
    sizes = [size] if sizes is None else list(sizes)
    for n in sizes:
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= size):
            raise ValueError(f"sizes must be integers in 1..{size}, got {n!r}")
    a_diag, b_diag = a_mat.diagonal().copy(), b_mat.diagonal().copy()
    for i in range(size - 1):
        a_mat[i, i + 1:] = b_mat[i, i + 1:]
    solves = []
    for n in sizes:
        count = min(k, n)
        width = min(count + _OVERSAMPLE, n)
        try:
            vecs, steps = None, 0
            if _krylov_side(width, n):
                vecs, steps = _krylov_vectors(*_float32_pencil(a_mat, b_diag, b_mat, n),
                                              count, width)
            path = "dense" if vecs is None else "krylov"
            if vecs is None:
                vecs = _dense_vectors(*_float32_pencil(a_mat, b_diag, b_mat, n), width)
            packed = a_mat
            if n < size:
                # the float32 pencil is spent, and its buffer takes the
                # leading block: the products read n x n, not N x N
                packed = b_mat.reshape(-1)[:n * n].reshape(n, n)
                packed[...] = a_mat[:n, :n]
            vals = _rayleigh_ritz(packed, a_diag[:n], b_diag[:n], vecs, count)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            raise _eigensolver_error(exc) from exc
        if vals[0] <= 0.0:
            raise EigensolverError(
                f"non-positive leading eigenvalue {vals[0]:.3e}; basis too coarse "
                "or overlap ill-conditioned"
            )
        solves.append(BlockSolve(vals, path, steps, int(n)))
    return solves

