"""Solvers for families of shifted SPD systems (A + alpha_l * M_h) V = Z.

The family is first normalized with the lumped mass so that every system
becomes (A~ + alpha~_l I) V~ = Z~ with the scaled operator's sup-norm equal
to one.  Systems with large shifts are well conditioned and share one
Lanczos basis of A~, grown from the right-hand side (the only matrix-vector
products).  Every shift's Galerkin solution in that basis follows from one
eigendecomposition of the basis' tridiagonal, which is algebraically the
classical multishift CG.  A shift's residual decreases with the shift, so
the basis grows until the smallest shift's residual, tracked by one scalar
recurrence, meets the tolerance; when it stops at ``n_max`` vectors
instead, the solved shifts are the leading ones whose residual, read off the
tridiagonal's eigenvalues, meets it.  ``normalize`` assembles A~
prescaled, once per stiffness matrix (``fem._once``; again only when the
lumped mass changes), for every family on the same operator.  A~ is
scaled on A's own sparsity pattern and handed to ``multigrid._banded``,
which stores it as a DIA matrix when its nonzeros lie on a few diagonals,
as on the grid meshes, with the same bits as CSR.  scipy's DIA kernel sweeps
the whole output once per diagonal, so an operator of more than
``_BLOCK_ROWS`` rows runs it block by block of rows, with each row's sum in
the same order: one product at 3D level 6 (250,047 rows, BLAS on one
thread) takes 1,051 us blocked against 1,780 us in one call and 1,376 us in
CSR, at 2D level 9 899 against 1,352 us; up to 2D level 8 (65,025 rows) an
operator is one block.  Each operator also keeps one spare Lanczos basis,
which a scan pops and returns, so repeated solves do not fault in a fresh
basis.  One fused step, ``_step``, runs the three-term recurrence in place:
it writes each new vector straight into its basis row, adds the matvec
there through the storage's accumulating scipy kernel (bound once per
operator, row-blocked for a large DIA one), and makes five vector passes
beside it, with no temporary and no allocation.  The PCG tail's products go
through the same kernel, into a zero vector.  Every family solve keeps at
most ``_STORED_MAX`` basis vectors, so ``n_max`` caps the scan and not
memory: past that row the scan keeps two rolling vectors and the
tridiagonal, and the head's combinations are completed in a second pass
that regenerates the dropped vectors through the same ``_step``, hence with
the scan's bits (two-pass Lanczos; Frommer & Simoncini, 2008).  An operator
can also keep its ``_DEFLATE`` lowest eigenpairs, built once, on the first
solve that asks for them (``SolveOptions.deflate``, which the control solver
sets in 2D); such a scan then starts from the right-hand side with those modes
taken out, adds their exact part to every solution, and stops on the
tolerance less the modes' residual bound, so the basis no longer grows to
resolve the lowest modes for the smallest shifts.  A solve that does not ask
ignores the space.  The remaining (small-shift) systems are solved
sequentially by preconditioned CG, rebuilding the preconditioner whenever
the previous system needed more than ``_ITER_CAP`` iterations.  Each system
starts from its neighbor's solution, and since all systems share the
right-hand side its initial residual follows from the neighbor's final
residual without a matvec; while the solution stays fixed, the norm of that
carried residual follows from three inner products, so a system whose warm
start already meets the tolerance costs O(1) work.  A system whose carried
residual misses starts instead from the combination of the last four stored
solutions that minimizes its residual, a p x p least-squares problem in
their stored inner products, and pays one matvec for that start's true
residual.  ``solve_family``, the one public entry point, runs ``normalize``,
the Lanczos head and ``solve_preconditioned`` in sequence.  All three
compute ``W @ [V^1; ...; V^S]`` for one ``(r, S)`` combination matrix
``W``, columns in family order, the head and the tail each over their own
shifts: one row of weights gives the weighted sum, the identity every
solution.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, ddot
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from . import fem, multigrid

__all__ = ["SolveStats", "solve_family"]

_log = logging.getLogger("fraclap")


@dataclass(eq=False)
class SolveStats:
    """Bookkeeping for one family solve.

    ``iterations`` maps a label to the size of the Lanczos basis that
    multishift system was solved in, or to its PCG iteration count;
    ``n_matvec`` counts the Lanczos basis vectors, the basis vectors
    regenerated past the stored ones, and every PCG matvec.
    """

    iterations: dict = field(default_factory=dict)   # label -> iteration count
    n_alg1: int = 0
    n_alg2: int = 0
    crossover: int | None = None        # label of the last multishift-solved system
    n_prec_setups: int = 0
    n_matvec: int = 0

    @property
    def n_systems(self) -> int:
        return self.n_alg1 + self.n_alg2


@dataclass(eq=False)
class ShiftedFamily:
    """Normalized shifted family, shifts sorted by decreasing magnitude.

    ``A_scaled`` is the prescaled operator A~ on A's sparsity pattern, as
    ``multigrid._banded`` stores it (DIA or CSR); ``apply_scaled`` (used
    by the Lanczos scan, its second pass and PCG) runs every product of a
    vector through ``_accumulate``, that storage's accumulating scipy
    kernel, bound to A~ once per operator (``_accumulator``: row blocks
    for a DIA operator of more than ``_BLOCK_ROWS`` rows, where the one
    call sweeps vectors that no longer fit in cache, one call otherwise).
    ``spare`` holds the spare Lanczos basis that every family on the
    operator shares, under ``"Q"`` while no scan holds it.
    """

    A: sp.csr_matrix
    A_scaled: sp.spmatrix         # (1/rho) M_h^{-1/2} A M_h^{-1/2}
    lumped_mass: np.ndarray
    rho: float
    shifts: np.ndarray            # original alpha_l, decreasing
    shifts_scaled: np.ndarray     # alpha_l / rho, decreasing
    labels: np.ndarray            # caller labels, parallel to shifts
    rhs: np.ndarray
    rhs_scaled: np.ndarray        # (1/rho) M_h^{-1/2} Z
    inv_sqrt_mass: np.ndarray
    _accumulate: Callable = field(repr=False)  # (x, y): y += A~ x
    spare: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    @property
    def n_shifts(self) -> int:
        return self.shifts.shape[0]

    def apply_scaled(self, x: np.ndarray, out: np.ndarray | None = None):
        """A~ x for a vector ``x``, A~ = (1/rho) M_h^{-1/2} A M_h^{-1/2},
        through the kernel: with ``out`` the product is added to ``out`` in
        place, with no temporary, and ``out`` is returned; without, it goes
        into a zero vector (the bits of ``A_scaled @ x``).  The kernel
        checks no bounds, so ``x`` and ``out`` must be vectors of the
        operator's size and ``out`` a contiguous float64 one."""
        if out is None:
            out = np.zeros(self.n)
        if np.shape(x) != (self.n,) or out.shape != (self.n,) \
                or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(
                f"apply_scaled takes a vector x and a contiguous float64 out= "
                f"of shape ({self.n},); got {np.shape(x)} and {out.shape} "
                f"{out.dtype}")
        self._accumulate(x, out)
        return out

    def unnormalize(self, v_scaled: np.ndarray) -> np.ndarray:
        """Map V~ back to V = M_h^{-1/2} V~ (acts on the last axis)."""
        return v_scaled * self.inv_sqrt_mass


def _scale_operator(A: sp.csr_matrix, lumped_mass: np.ndarray):
    """``(A~, rho, d)``: A~ = (1/rho) diag(d) A diag(d) on A's pattern,
    banded when it can be, d = M_h^{-1/2}, and rho the sup-norm of diag(d)
    A diag(d).  Each entry is rounded as ``(d_i a_ij) d_j / rho``."""
    d = 1.0 / np.sqrt(lumped_mass)
    data = np.repeat(d, np.diff(A.indptr)) * A.data
    data *= d[A.indices]
    scaled = sp.csr_matrix((data, A.indices, A.indptr), shape=A.shape)
    rho = float(np.max(np.abs(scaled).sum(axis=1)))
    scaled.data /= rho
    return multigrid._banded(scaled), rho, d


# rows per call of the blocked DIA kernel: a 512 KiB slice of each vector
_BLOCK_ROWS = 1 << 16


def _accumulator(scaled: sp.spmatrix) -> Callable:
    """``f(x, y)``: ``y += scaled @ x`` in place, through the accumulating
    scipy kernel of ``scaled``'s storage (DIA or CSR) with its arrays bound
    once.  Each row starts from ``y`` and adds the products in the order
    ``scaled @ x`` adds them.

    scipy's DIA kernel sweeps all of ``y`` once per diagonal, so a DIA
    operator with more than ``_BLOCK_ROWS`` rows runs it once per block of
    rows ``r0:r1`` instead, on views only: the columns ``c0:c1`` that block
    reaches, its offsets shifted by ``r0 - c0`` and the diagonals from
    column ``c0`` on, at their full row stride.  Every row then adds the
    same products in the same order while its slices of ``x`` and ``y``
    stay in cache (Williams et al., Parallel Comput. 35, 2009).  Smaller
    DIA operators make the one call, and CSR, which sweeps ``y`` once,
    keeps its kernel.
    """
    n_row, n_col = scaled.shape
    if scaled.format != "dia":
        return partial(_sparsetools.csr_matvec, n_row, n_col, scaled.indptr,
                       scaled.indices, scaled.data)
    offsets, data = scaled.offsets, scaled.data
    n_diags, stride = data.shape
    # the blocks read each diagonal up to column n_col, so need its full row
    if n_row <= _BLOCK_ROWS or stride < n_col:
        return partial(_sparsetools.dia_matvec, n_row, n_col, n_diags, stride,
                       offsets, data)
    flat = data.reshape(-1)             # a view: data is C-contiguous
    blocks = []
    for r0 in range(0, n_row, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, n_row)
        c0 = max(0, r0 + int(offsets.min()))
        c1 = min(n_col, r1 + int(offsets.max()))
        blocks.append((slice(c0, c1), slice(r0, r1), partial(
            _sparsetools.dia_matvec, r1 - r0, c1 - c0, n_diags, stride,
            offsets + (r0 - c0), flat[c0:])))

    def accumulate(x, y):
        for cols, rows, kernel in blocks:
            kernel(x[cols], y[rows])
    return accumulate


def _scaled(A: sp.spmatrix, lumped_mass: np.ndarray):
    """``(lumped_mass, shared)``: the fields that every ``ShiftedFamily``
    on A with this lumped mass object shares."""
    n = A.shape[0]
    mass = np.asarray(lumped_mass, dtype=float)
    if mass.shape != (n,):
        raise ValueError(f"lumped_mass must have shape ({n},) to "
                         f"match A, got {mass.shape}")
    if not np.all(np.isfinite(mass) & (mass > 0)):
        raise ValueError("lumped mass must be finite and strictly positive")
    A = sp.csr_matrix(A)
    scaled, rho, d = _scale_operator(A, mass)
    return lumped_mass, dict(
        A=A, A_scaled=scaled, lumped_mass=mass, rho=rho, inv_sqrt_mass=d,
        _accumulate=_accumulator(scaled), spare={})


def normalize(A: sp.spmatrix, lumped_mass: np.ndarray, shifts: np.ndarray,
              Z: np.ndarray, labels=None) -> ShiftedFamily:
    """Scale the family to identity shifts with unit operator sup-norm, on
    A~, its kernel and ``spare`` built once per stiffness matrix object and
    again only when the lumped mass object changes (both immutable)."""
    n = A.shape[0]
    _, shared = fem._once(A, "scaled", partial(_scaled, A, lumped_mass),
                          keep=lambda entry: entry[0] is lumped_mass)
    shifts = np.asarray(shifts, dtype=float)
    if np.any(np.isnan(shifts)):
        raise ValueError("shifts must not be NaN")
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (n,):
        raise ValueError(f"right-hand side Z must have shape ({n},) to match "
                         f"A, got {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError("right-hand side Z must be finite")
    if labels is None:
        labels = np.arange(shifts.size)
    labels = np.asarray(labels)

    order = np.argsort(-shifts, kind="stable")
    rho = shared["rho"]
    return ShiftedFamily(
        shifts=shifts[order], shifts_scaled=shifts[order] / rho,
        labels=labels[order], rhs=Z,
        rhs_scaled=shared["inv_sqrt_mass"] * Z / rho, **shared)


# lowest eigenpairs of A~ that a deflated scan takes out of its start vector
_DEFLATE = 30


def _deflate(family: ShiftedFamily):
    """The ``_DEFLATE`` lowest eigenpairs of A~ as ``(U, lam, eps)``, built
    once per scaled operator, for every scan on it that asks (``_head``).

    The rows of ``U`` are the eigenvectors, from shift-invert ARPACK at zero
    through one sparse LU of A~ that is freed afterwards; ``eps`` holds the
    explicit residual norms ``|A~ u_i - lam_i u_i|``.  The space is None
    for an operator with at most ``4 * _DEFLATE`` rows or an eigensolve that
    does not converge.
    """
    scaled = family.A_scaled

    def build():
        n = scaled.shape[0]
        start = time.perf_counter()
        space = None
        if n <= 4 * _DEFLATE:
            outcome = "skipped: too few dofs"
        else:
            lu = splu(sp.csc_matrix(scaled), permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0, options={"SymmetricMode": True})
            try:
                lam, V = eigsh(scaled, _DEFLATE, sigma=0.0, v0=np.ones(n),
                               OPinv=LinearOperator(scaled.shape, lu.solve,
                                                    dtype=float))
            except ArpackNoConvergence:
                outcome = "skipped: eigsh did not converge"
            else:
                eps = np.linalg.norm(scaled @ V - V * lam, axis=0)
                space = (np.ascontiguousarray(V.T), lam, eps)
                outcome = f"kept {lam.size} modes, max eps {eps.max():.2e}"
        _log.debug("deflation space, n = %d: %s, %.3f s", n, outcome,
                   time.perf_counter() - start)
        return space
    return fem._once(scaled, "deflation", build)


# basis vectors a family solve keeps; the scan's later ones are regenerated
_STORED_MAX = 500
# default cap of the Lanczos scan
_SCAN_MAX = 1500
# a Lanczos residual norm below this ends the scan on an invariant subspace
_BREAKDOWN = 1e-300


def _step(family: ShiftedFamily, q, q_prev, b_prev, w, a_j=None, b_j=None):
    """One Lanczos step: write ``q_{j+1}`` into the row ``w`` and return
    ``(a_j, b_j)``.

    The three-term recurrence runs in place, with no temporary: ``w =
    -b_prev q_prev`` (zero without ``q_prev``; ``w`` may be ``q_prev``'s
    own row), ``w += A~ q`` through the accumulating kernel, ``a_j = q .
    w``, ``w -= a_j q`` through one BLAS ``daxpy``, ``b_j = |w|`` and ``w
    *= 1 / b_j`` (a division pass costs about three times as much): five
    vector passes beside the matvec.  The inner products are ``ddot`` from
    the BLAS that provides ``daxpy``; with threaded BLAS, alternating
    between numpy's and scipy's libraries makes each wait on the other's
    spinning threads.  The second pass hands in the scan's ``a_j`` and
    ``b_j`` and so skips their inner products; sharing this one step is
    what makes its vectors the scan's bits.  A ``b_j`` below
    ``_BREAKDOWN`` leaves ``w`` unnormalized (the scan stops there).
    """
    if q_prev is None:
        w.fill(0.0)
    else:
        np.multiply(q_prev, -b_prev, out=w)
    family.apply_scaled(q, out=w)
    if a_j is None:
        a_j = ddot(q, w)
    daxpy(q, w, a=-a_j)
    if b_j is None:
        b_j = math.sqrt(ddot(w, w))
    if b_j >= _BREAKDOWN:
        w *= 1.0 / b_j
    return a_j, b_j


def _lanczos(family: ShiftedFamily, z: np.ndarray, n_max: int,
             tol_abs: float):
    """Lanczos basis of A~ from the start vector ``z``.

    Returns ``(Q, a, b, done)``: the stored basis, whose first ``len(a)``
    rows (all, when it has fewer) are the first basis vectors, the diagonal
    ``a`` and the off-diagonal ``b`` of the tridiagonal, with ``b[-1]`` the
    norm of the last residual.  Each ``_step`` writes its vector straight
    into its row of ``Q``; past ``min(n_max, _STORED_MAX)`` rows it writes
    into one of two rolling rows, over the vector before last, and
    ``_combine`` rebuilds the dropped vectors from ``a`` and ``b``.  ``Q``
    is the operator's spare basis, popped from ``family.spare`` for the
    scan (the caller puts it back), or a new one when a concurrent scan
    holds it or it has too few rows.

    One scalar LDL^T recurrence, for the smallest shift, decides when to
    stop: a shift's residual decreases with the shift, so once the smallest
    shift meets ``tol_abs`` every shift does.  The basis then stops with
    ``done`` set, and so it does on an invariant subspace; otherwise it
    stops at ``n_max`` vectors.  A non-positive pivot of the
    smallest shift means the operator is not positive definite.
    """
    n_stored = min(n_max, _STORED_MAX)
    beta0 = float(np.linalg.norm(z))
    sigma = family.shifts_scaled[-1]
    Q = family.spare.pop("Q", None)
    if Q is None or Q.shape[0] < n_stored:
        Q = None                        # free a spare too small first
        Q = np.empty((n_stored, family.n))
    rolling = np.empty((2, family.n))
    a = np.empty(n_max)
    b = np.empty(n_max)
    np.divide(z, beta0, out=Q[0])
    q_prev, q = None, Q[0]
    c = beta0
    for j in range(n_max):
        w = Q[j + 1] if j + 1 < n_stored else rolling[(j + 1 - n_stored) % 2]
        a[j], b[j] = _step(family, q, q_prev, b[j - 1], w)
        if j == 0:
            d = a[0] + sigma
        else:
            ratio = b[j - 1] / d
            d = a[j] + sigma - b[j - 1] * ratio
            c = -ratio * c
        if d <= 0.0:
            raise RuntimeError(
                "shifted CG breakdown: operator is not positive definite")
        if abs(c) / d * b[j] <= tol_abs or b[j] < _BREAKDOWN:
            return Q, a[:j + 1], b[:j + 1], True
        q_prev, q = q, w
    return Q, a, b, False


def _combine(family: ShiftedFamily, Q: np.ndarray, a: np.ndarray,
             b: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``C @ [q_0; ...; q_{m-1}]``: one combination of the whole basis per
    row of ``C``.

    The stored rows of ``Q`` enter as one product; the vectors past them
    are rebuilt from the last two stored ones by the scan's own ``_step``
    into the same two rolling rows, so they are the scan's bits, at one
    matvec each, and each enters every row of the result through one
    ``daxpy``.
    """
    K = Q.shape[0]
    out = C[:, :K] @ Q
    if a.size > K:
        rolling = np.empty((2, family.n))
        q_prev, q = (Q[K - 2] if K > 1 else None), Q[K - 1]
        for j in range(K - 1, a.size - 1):
            w = rolling[(j + 1 - K) % 2]
            _step(family, q, q_prev, b[j - 1], w, a[j], b[j])
            for x, c in zip(out, C[:, j + 1]):
                daxpy(w, x, a=c)
            q_prev, q = q, w
    return out


def _head(family: ShiftedFamily, n_max: int, tol_abs: float, W: np.ndarray,
          deflate: bool = False):
    """Galerkin solutions of the leading shifts in one Lanczos basis.

    With ``T = V diag(theta) V^T`` the basis' tridiagonal, shift ``sigma``
    has the solution ``beta0 Q^T V (V[0] / (theta + sigma))`` (the columns
    of ``G``) and the residual ``beta0 prod(b) / prod(theta + sigma)``.
    Returns ``(n_solved, n_basis, n_products, head, x_last)``: the number
    of leading shifts solved, the basis size, the matvecs spent, ``W[:,
    :n_solved]`` times their solutions (``W`` the ``(r, S)`` combination
    matrix, columns in family order; scaled space), and the last solved
    shift's solution when the tail still has systems (else None).
    ``_combine`` forms ``(V @ (G @ W.T)).T``, one unit row more for that
    start, from the basis vectors the scan kept, sweeping a basis that
    outgrew them a second time, at one more matvec per vector beyond them.

    With ``deflate``, when the operator keeps a deflation space ``(U, lam,
    eps)`` (see ``_deflate``), the scan starts from ``b_perp = b - U^T c``,
    ``c = U b``, and every solution gains the modal part ``U^T (c / (lam +
    sigma))``.  A shift's true residual is then the scan's minus ``E (c /
    (lam + sigma))``, ``E = A~ U^T - U^T diag(lam)`` with column norms
    ``eps``, so the scan stops on ``tol_abs - sum_i eps_i |c_i| / (lam_i +
    sigma_min)``.  The space is used when that bound takes at most half
    the tolerance.  Exact eigenvectors of A~ are eigenvectors of every ``A~
    + sigma I``, so the scan no longer resolves the lowest modes for the
    smallest shifts (Saad, Yeung, Erhel & Guyomarc'h, SIAM J. Sci. Comput.
    21, 2000).  A start vector that already meets the tolerance, such as a
    zero rhs, needs no scan.
    """
    S = family.n_shifts
    sig = family.shifts_scaled
    z = family.rhs_scaled
    modal = None                        # per shift: its coefficients in U
    space = _deflate(family) if deflate else None
    if space is not None and space[1][0] + sig[-1] > 0.0:
        U, lam, eps = space
        c = U @ z
        bound = float(eps @ (np.abs(c) / (lam + sig[-1])))
        if bound <= 0.5 * tol_abs:
            z = z - c @ U
            tol_abs -= bound
            modal = c / (lam[None, :] + sig[:, None])
    beta0 = float(np.linalg.norm(z))
    n_solved, n_basis, n_products, r = S, 0, 0, W.shape[0]
    if beta0 <= tol_abs:                # the zero start solves every shift
        sums = np.zeros((r, family.n))
    else:
        basis, a, b, done = _lanczos(family, z, n_max, tol_abs)
        theta, V = eigh_tridiagonal(a, b[:-1])
        if not done:
            # the residuals in log space, as the large shifts' underflow
            # directly; they increase along the family, so the shifts that
            # meet the tolerance are a prefix
            log_res = (math.log(beta0) + np.log(b).sum()
                       - np.log(theta[:, None] + sig[None, :]).sum(axis=0))
            with np.errstate(divide="ignore"):  # rtol = 0 solves nothing
                n_solved = int(np.count_nonzero(log_res <= np.log(tol_abs)))
        # with a tail, a unit row more picks its start
        W = W[:, :n_solved]
        if 0 < n_solved < S:
            W = np.vstack([W, np.eye(1, n_solved, n_solved - 1)])
        G = beta0 * V[0][:, None] / (theta[:, None] + sig[None, :n_solved])
        stored = basis[:len(a)]
        sums = _combine(family, stored, a, b, (V @ (G @ W.T)).T)
        family.spare["Q"] = basis       # done with it: the next scan's spare
        n_basis, n_products = len(a), 2 * len(a) - len(stored)
    if modal is not None:
        sums += (W @ modal[:n_solved]) @ U
    return (n_solved, n_basis, n_products, sums[:r],
            sums[r] if len(sums) > r else None)


def _pcg(op, x0, r0, prec, tol, maxiter):
    """Preconditioned CG from ``x0``, whose residual ``b - op(x0)`` is ``r0``,
    until the residual norm is at most ``tol``.

    Returns ``(x, r, iterations, converged)`` with ``r`` the recursively
    updated residual of ``x``; each iteration is one product with ``op``.  A
    start that already meets the tolerance is returned as is.
    """
    r = r0
    if np.linalg.norm(r) <= tol:
        return x0, r, 0, True
    x = x0.copy()
    z = prec(r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, maxiter + 1):
        Ap = op(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol:
            return x, r, it, True
        z = prec(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, r, maxiter, False


# number of earlier tail solutions a minimum-residual start combines
_HISTORY = 4
# tail PCG iterations above which the next system rebuilds its preconditioner
_ITER_CAP = 20


class _History:
    """The last ``_HISTORY`` tail solutions ``x_i`` and their images
    ``y_i = b - r_i - sigma_i x_i`` (``A~ x_i``, from the final residual
    ``r_i`` at shift ``sigma_i``), kept as the rows of two ring buffers
    together with their inner products with each other and with ``b``.

    At shift ``sigma`` a stored solution has ``op_sigma(x_i) = y_i + sigma
    x_i``, so the least-squares problem ``min |b - sum c_i op_sigma(x_i)|``
    has the p x p normal equations ``(YY + sigma (XY + XY^T) + sigma^2 XX) c
    = Yb + sigma Xb`` in those inner products, and a start costs no
    O(n) work beyond the combination itself (Fischer, CMAME 163, 1998).
    """

    def __init__(self, b):
        self.b = b
        self.X = np.zeros((_HISTORY, b.shape[0]))
        self.Y = np.zeros((_HISTORY, b.shape[0]))
        self.XX = np.zeros((_HISTORY, _HISTORY))
        self.XY = np.zeros((_HISTORY, _HISTORY))     # XY[i, j] = x_i . y_j
        self.YY = np.zeros((_HISTORY, _HISTORY))
        self.Xb = np.zeros(_HISTORY)
        self.Yb = np.zeros(_HISTORY)
        self.size = 0
        self.next = 0

    def append(self, x, r, sigma):
        k = self.next
        self.next = (k + 1) % _HISTORY
        self.size = p = min(self.size + 1, _HISTORY)
        X, Y = self.X[:p], self.Y[:p]
        X[k] = x
        np.subtract(self.b, r, out=Y[k])
        Y[k] -= sigma * x
        self.XX[k, :p] = self.XX[:p, k] = X @ X[k]
        self.XY[:p, k] = X @ Y[k]
        self.XY[k, :p] = Y @ X[k]
        self.YY[k, :p] = self.YY[:p, k] = Y @ Y[k]
        self.Xb[k] = X[k] @ self.b
        self.Yb[k] = Y[k] @ self.b

    def start(self, sigma):
        """The combination of the stored solutions that minimizes the
        residual at shift ``sigma``."""
        p = self.size
        XY = self.XY[:p, :p]
        G = self.YY[:p, :p] + sigma * (XY + XY.T) \
            + sigma * sigma * self.XX[:p, :p]
        c = np.linalg.lstsq(G, self.Yb[:p] + sigma * self.Xb[:p],
                            rcond=None)[0]
        return c @ self.X[:p]


def solve_preconditioned(family: ShiftedFamily, start: int, rtol: float,
                         W: np.ndarray, prec_factory=None, x_start=None):
    """Sequential PCG over family indices start..end (decreasing shifts).

    A preconditioner is (re)built for the current shift whenever the
    previous solve took more than ``_ITER_CAP`` iterations; the first system
    starts from ``x_start`` (zero by default), every later one from its
    better-conditioned neighbor's solution.  All systems share the
    right-hand side, so the residual is carried across shifts: while ``x``
    stays fixed, its residual ``r`` at shift ``sigma_r`` gives the one at
    ``sigma`` as ``r - (sigma - sigma_r) x``, whose squared norm follows
    from ``r.r``, ``r.x`` and ``x.x``, taken once per new ``x``.  A system
    whose carried residual meets the tolerance by that estimate, with a
    rounding margin, costs no vector work at all: its column of ``W`` joins
    a run weight that each change of ``x`` adds, times the old ``x``, to the
    rows where it is nonzero.  Otherwise the carried residual is formed;
    when it misses, the system starts instead from the combination of the
    last four solutions (of the first system and of those that iterated)
    that minimizes its residual, a p x p problem in their stored inner
    products (``_History``).  That start pays one matvec for its true
    residual ``b - op(x)``: the combined residual loses accuracy to
    rounding when the coefficients are large.  Otherwise only the first
    system, and the retry after a fresh preconditioner, compute ``b -
    op(x)``.  Returns ``(W[:, start:] @ solutions, stats)``, ``W`` the ``(r,
    S)`` combination matrix with columns in family order, in scaled space.
    """
    count = family.n_shifts - start
    stats = SolveStats(n_alg2=count)
    b = family.rhs_scaled
    norm_b = float(np.linalg.norm(b))
    out = np.zeros((W.shape[0], family.n))
    if count == 0 or norm_b == 0.0:     # nothing to solve, or zero solutions
        return out, stats

    if prec_factory is None:
        def prec_factory(alpha):
            return multigrid.SymmetricGaussSeidel(
                family.A + alpha * sp.diags(family.lumped_mass))

    sqrt_mass = 1.0 / family.inv_sqrt_mass

    def build(alpha):
        # mesh-space approximate inverse of (A + alpha M_h), mapped to the
        # normalized variables
        apply = prec_factory(alpha).apply
        stats.n_prec_setups += 1
        return lambda v: family.rho * sqrt_mass * apply(sqrt_mass * v)

    tol = rtol * norm_b
    x = x_start if x_start is not None else np.zeros(family.n)
    r = None                # residual of x at shift sigma_r, formed explicitly
    sigma_r = rr = rx = xx = 0.0
    w_run = np.zeros(W.shape[0])    # W's columns summed since x changed
    # the latest systems that iterated, or were the first: a system that did
    # not iterate adds no direction to their span
    history = _History(b)
    prec = None
    prev_iters = _ITER_CAP + 1
    maxiter = max(10 * _ITER_CAP, 50)
    for pos in range(start, family.n_shifts):
        sigma = family.shifts_scaled[pos]
        label = family.labels[pos]

        def op(v, sigma=sigma):
            return family.apply_scaled(v) + sigma * v

        x_prev = x
        accepted = False    # met the tolerance on the estimate; r is kept
        if r is None:
            r = b - op(x)
            stats.n_matvec += 1
        else:
            # |r - d x|^2 from its three terms, plus a margin for their
            # rounding when they cancel
            d = sigma - sigma_r
            dd = d * d * xx
            accepted = rr - 2.0 * d * rx + dd \
                + 1e-12 * (rr + 2.0 * abs(d * rx) + dd) <= tol * tol
            if not accepted:
                r = r - d * x
                if np.linalg.norm(r) > tol:
                    x = history.start(sigma)
                    r = b - op(x)
                    stats.n_matvec += 1
        freshly_built = False
        if prev_iters > _ITER_CAP:
            prec = build(family.shifts[pos])
            freshly_built = True
        iters = 0
        if not accepted:
            x, r, iters, converged = _pcg(op, x, r, prec, tol, maxiter)
            stats.n_matvec += iters
            if not converged:
                if not freshly_built:
                    prec = build(family.shifts[pos])
                    x, r, extra, converged = _pcg(op, x, b - op(x), prec,
                                                  tol, maxiter)
                    stats.n_matvec += 1 + extra
                    iters += extra
                if not converged:
                    raise RuntimeError(
                        f"PCG stagnation on shift {family.shifts[pos]:.4g} "
                        f"(label {label}): no convergence within {maxiter} "
                        f"iterations after a fresh preconditioner")
            if iters or pos == start:
                history.append(x, r, sigma)
            sigma_r = sigma
            rr, rx, xx = float(r @ r), float(r @ x), float(x @ x)
        stats.iterations[label] = iters
        prev_iters = iters
        if x is not x_prev:
            _add_run(out, w_run, x_prev)
        w_run += W[:, pos]
    _add_run(out, w_run, x)
    return out, stats


def _add_run(out, w_run, x):
    """``out += w_run x`` on the rows where ``w_run`` is nonzero; zero it."""
    rows = np.flatnonzero(w_run)
    out[rows] += w_run[rows, None] * x
    w_run.fill(0.0)


def solve_family(A, lumped_mass, shifts, Z, *, labels=None, rtol=1e-8,
                 n_max=_SCAN_MAX, prec_factory=None, weights=None,
                 deflate=False):
    """Solve (A + alpha_l M_h) V^l = Z for every shift.

    The leading (large) shifts are solved in one Lanczos basis of at most
    ``n_max`` vectors (of which at most ``_STORED_MAX`` are kept in
    memory), the rest by ``solve_preconditioned`` warm-started from the
    last multishift solution.  ``shifts`` is non-empty; ``labels`` (distinct,
    they key ``stats.iterations``) and ``weights``, when given, have one
    entry per shift.  Both parts compute ``W @ [V^1; ...; V^S]`` for
    one combination matrix ``W`` (columns in family order): the identity in
    the caller's shift order, whose rows are the returned solution stack,
    or the one row of ``weights``, whose ``sum_l w_l V^l`` is returned
    without materializing every solution.  ``rtol = 0`` is accepted only
    when the Lanczos basis solves every shift exactly (an invariant
    subspace).  With ``deflate`` the operator's lowest eigenpairs are taken
    out of the scan (``_deflate`` builds them on the first such solve on
    the operator); without it the scan ignores a space another solve built,
    so the result depends on the inputs alone.  Returns ``(values, stats)``.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValueError(f"rtol must be finite and non-negative, got {rtol}")
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim != 1 or shifts.size == 0:
        raise ValueError(f"shifts must be 1-D and non-empty, got shape "
                         f"{shifts.shape}")
    for name, value in (("labels", labels), ("weights", weights)):
        if value is not None and np.shape(value) != shifts.shape:
            raise ValueError(f"{name} must have one entry per shift: shape "
                             f"{np.shape(value)}, shifts {shifts.shape}")
    if labels is not None and np.unique(labels).size < shifts.size:
        raise ValueError("labels must be distinct: each names one system")
    order = np.argsort(-shifts, kind="stable")     # family order
    W, pick = (np.eye(shifts.size)[:, order], slice(None)) if weights is None \
        else (np.asarray(weights, dtype=float)[None, order], 0)
    if not np.all(np.isfinite(W)):
        raise ValueError("weights must be finite")
    family = normalize(A, lumped_mass, shifts, Z, labels=labels)
    # the solvers stop on the normalized residual; dividing by the mass
    # scaling spread makes the bound hold for the un-normalized residual too
    mh = family.lumped_mass
    rtol = rtol / math.sqrt(float(mh.max() / mh.min()))
    tol_abs = rtol * float(np.linalg.norm(family.rhs_scaled))
    n_solved, n_basis, n_products, head, x_start = _head(
        family, n_max, tol_abs, W, deflate)
    if rtol == 0.0 and n_solved < family.n_shifts:
        raise ValueError(
            f"rtol = 0 leaves {family.n_shifts - n_solved} systems to PCG, "
            "which cannot meet a zero tolerance; pass rtol > 0")
    tail, pcg = solve_preconditioned(
        family, n_solved, rtol, W, prec_factory=prec_factory,
        x_start=x_start)
    stats = SolveStats(
        iterations={**{family.labels[i]: n_basis for i in range(n_solved)},
                    **pcg.iterations},
        n_alg1=n_solved, n_alg2=pcg.n_alg2,
        crossover=family.labels[n_solved - 1] if n_solved else None,
        n_prec_setups=pcg.n_prec_setups,
        n_matvec=n_products + pcg.n_matvec)
    head += tail
    return family.unnormalize(head)[pick], stats
