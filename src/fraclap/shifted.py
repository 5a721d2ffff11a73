"""Solvers for families of shifted SPD systems (A + alpha_l * M_h) V = Z.

The family is first normalized with the lumped mass so that every system
becomes (A~ + alpha~_l I) V~ = Z~ with the scaled operator's sup-norm equal
to one.  Systems with large shifts are well conditioned and are solved with
a shared-Krylov multishift conjugate gradient: one Lanczos basis of A~ is
grown lazily (the only matrix-vector products), and every shifted system is
solved inside that basis through scalar recurrences, which is algebraically
the classical shifted-CG iteration.  The recurrences run over the active set
only: a shift leaves it at the step its residual bound is met, so each step
costs one matvec plus work proportional to the shifts still unconverged.
Their per-step coefficients are stored row-major, one row per Lanczos step,
and the back substitution that reconstructs the solutions likewise touches
only the shifts still live at each step.  ``normalize`` assembles A~
prescaled, once per stiffness / lumped-mass pair, and reuses it for every
later family on the same operator.  Once the basis would exceed ``n_max``
dimensions the remaining (small-shift) systems are solved sequentially by
preconditioned CG, rebuilding the preconditioner whenever the previous
system needed more than ``iter_cap`` iterations.  Each system starts from
its neighbor's solution, and since all systems share the right-hand side
its initial residual follows from the neighbor's final residual without a
matvec.  A system whose carried residual misses the tolerance starts
instead from the combination of the last four stored solutions that
minimizes its residual (a p-column least-squares problem built from their
stored residuals) and pays one matvec for that start's true residual.
``solve_family`` is the one entry point that runs these stages in
sequence; it returns either every solution or their weighted combination.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .multigrid import IncompleteCholesky

__all__ = [
    "ShiftedFamily",
    "SolveStats",
    "normalize",
    "solve_preconditioned",
    "solve_family",
]


@dataclass(eq=False)
class SolveStats:
    """Bookkeeping for one family solve.

    ``iterations`` maps a label to the Krylov dimension at which that
    multishift system converged (the step it left the active set) or to its
    PCG iteration count; ``n_matvec`` counts the Lanczos basis vectors plus
    every PCG matvec.
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

    ``A_scaled`` is the prescaled operator A~ as a CSR matrix, so that
    ``apply_scaled`` (used by the Lanczos scan and by PCG) is one sparse
    matvec.
    """

    A: sp.csr_matrix
    A_scaled: sp.csr_matrix       # (1/rho) M_h^{-1/2} A M_h^{-1/2}
    lumped_mass: np.ndarray
    rho: float
    shifts: np.ndarray            # original alpha_l, decreasing
    shifts_scaled: np.ndarray     # alpha_l / rho, decreasing
    labels: np.ndarray            # caller labels, parallel to shifts
    rhs: np.ndarray
    rhs_scaled: np.ndarray        # (1/rho) M_h^{-1/2} Z
    inv_sqrt_mass: np.ndarray

    @property
    def n(self) -> int:
        return self.rhs.shape[0]

    @property
    def n_shifts(self) -> int:
        return self.shifts.shape[0]

    def apply_scaled(self, x: np.ndarray) -> np.ndarray:
        """A~ x with A~ = (1/rho) M_h^{-1/2} A M_h^{-1/2}."""
        return self.A_scaled @ x

    def unnormalize(self, v_scaled: np.ndarray) -> np.ndarray:
        """Map V~ back to V = M_h^{-1/2} V~ (acts on the last axis)."""
        return v_scaled * self.inv_sqrt_mass


# scaled operator per (stiffness, lumped mass) pair of objects, which are
# treated as immutable: the repeated solves on one mesh scale it once.  An
# entry is dropped when its stiffness matrix is garbage collected.
_scaled_cache: dict = {}


def _scale_operator(A: sp.csr_matrix, lumped_mass: np.ndarray):
    """``(A~, rho, d)``: A~ = (1/rho) diag(d) A diag(d) as CSR, d = M_h^{-1/2},
    and rho the sup-norm of diag(d) A diag(d)."""
    d = 1.0 / np.sqrt(lumped_mass)
    scaled = sp.csr_matrix(sp.diags(d) @ A @ sp.diags(d))
    rho = float(np.max(np.abs(scaled).sum(axis=1)))
    scaled.data /= rho
    return scaled, rho, d


def normalize(A: sp.spmatrix, lumped_mass: np.ndarray, shifts: np.ndarray,
              Z: np.ndarray, labels=None) -> ShiftedFamily:
    """Scale the family to identity shifts with unit operator sup-norm."""
    key = (id(A), id(lumped_mass))
    entry = _scaled_cache.get(key)
    if entry is None:
        mass = np.asarray(lumped_mass, dtype=float)
        if np.any(mass <= 0):
            raise ValueError("lumped mass must be strictly positive")
        A_csr = sp.csr_matrix(A)
        # the entry holds lumped_mass, so its id cannot be reused meanwhile
        entry = (lumped_mass, A_csr, mass) + _scale_operator(A_csr, mass)
        _scaled_cache[key] = entry
        weakref.finalize(A, _scaled_cache.pop, key, None)
    _, A, lumped_mass, scaled, rho, d = entry
    shifts = np.asarray(shifts, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if labels is None:
        labels = np.arange(shifts.size)
    labels = np.asarray(labels)

    order = np.argsort(-shifts, kind="stable")
    return ShiftedFamily(
        A=A, A_scaled=scaled, lumped_mass=lumped_mass, rho=rho,
        shifts=shifts[order], shifts_scaled=shifts[order] / rho,
        labels=labels[order], rhs=Z, rhs_scaled=d * Z / rho,
        inv_sqrt_mass=d)


class _MultishiftScan:
    """Lanczos basis plus, per shift, the first converging Krylov dimension.

    Only the shifts that have not yet converged are carried through the
    recurrences: their indices sit in an array that shrinks as shifts
    converge.  Row j of the ``(n_max, S)`` arrays ``D`` and ``C`` holds the
    pivots and the scaled residual coefficients of step j for the shifts
    that were active at that step; entries of shifts that had already
    converged stay zero and are never read.
    """

    def __init__(self, family: ShiftedFamily, n_max: int, rtol: float):
        sig = family.shifts_scaled
        S = sig.size
        n = family.n
        z = family.rhs_scaled
        beta0 = float(np.linalg.norm(z))
        self.beta0 = beta0
        self.n = n
        self.n_basis = 0
        self.m_conv = np.zeros(S, dtype=np.int64)   # 0 means not converged
        self.a = np.zeros(n_max)
        self.b = np.zeros(n_max)
        self.D = np.zeros((n_max, S))
        self.C = np.zeros((n_max, S))
        self.Q = None
        if beta0 == 0.0:
            self.m_conv[:] = 1          # zero rhs: zero solutions, no work
            self.trivial = True
            return
        self.trivial = False

        tol_abs = rtol * beta0
        Q = np.empty((n_max, n))
        np.divide(z, beta0, out=Q[0])
        act = np.arange(S)              # unconverged shifts
        sig_act = sig
        j = 0
        while j < n_max and act.size:
            q = Q[j]
            w = family.apply_scaled(q)
            if j > 0:
                w -= self.b[j - 1] * Q[j - 1]
            aj = float(q @ w)
            w -= aj * q
            bj = float(np.linalg.norm(w))
            self.a[j] = aj
            self.b[j] = bj
            if j == 0:
                d = aj + sig_act
                c = np.full(S, beta0)
            else:
                ratio = self.b[j - 1] / d
                d = aj + sig_act - self.b[j - 1] * ratio
                c = -ratio * c
            if np.any(d <= 0.0):
                raise RuntimeError(
                    "shifted CG breakdown: operator is not positive definite")
            self.D[j, act] = d
            self.C[j, act] = c
            hit = np.abs(c) / d * bj <= tol_abs
            j += 1
            if hit.any():
                self.m_conv[act[hit]] = j
                keep = ~hit
                act, sig_act, d, c = act[keep], sig_act[keep], d[keep], c[keep]
            if act.size:
                if bj < 1e-300:
                    # invariant subspace: every remaining residual is zero
                    self.m_conv[act] = j
                    break
                if j < n_max:
                    np.divide(w, bj, out=Q[j])
        self.n_basis = j
        self.Q = Q[:j]

    def reconstruct(self, indices: np.ndarray, weights=None):
        """Galerkin solutions for the given shift indices (scaled space).

        Rows come back in the order of ``indices``.  With ``weights`` the
        weighted sum over those shifts is returned instead of the individual
        solutions.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if self.trivial or indices.size == 0:
            if weights is not None:
                return np.zeros(self.n)
            return np.zeros((indices.size, self.n))
        m_arr = self.m_conv[indices]
        if np.any(m_arr <= 0):
            raise ValueError("reconstruction requested for unsolved shifts")
        # latest-converging first: the shifts still live at backward step j
        # (those with m > j) are then a prefix of length live[j]
        perm = np.argsort(-m_arr, kind="stable")
        ix = indices[perm]
        m_sorted = m_arr[perm]
        m_max = int(m_sorted[0])
        live = np.searchsorted(-m_sorted, -np.arange(m_max), side="left")
        # a shift entering the prefix has y = 0, so its first step is C / D
        y = np.zeros(indices.size)
        if weights is not None:
            w_sorted = np.asarray(weights, dtype=float)[perm]
            store = np.zeros(m_max)
        else:
            Yt = np.zeros((m_max, indices.size))
        for j in range(m_max - 1, -1, -1):
            L = live[j]
            cols = ix[:L]
            y[:L] = (self.C[j, cols] - self.b[j] * y[:L]) / self.D[j, cols]
            if weights is not None:
                store[j] = w_sorted[:L] @ y[:L]
            else:
                Yt[j, perm[:L]] = y[:L]
        if weights is not None:
            return store @ self.Q[:m_max]
        return Yt.T @ self.Q[:m_max]


def _pcg(op, b, x0, r0, prec, rtol, maxiter):
    """Preconditioned CG from ``x0``, whose residual ``b - op(x0)`` is ``r0``.

    Returns ``(x, r, iterations, converged)`` with ``r`` the recursively
    updated residual of ``x``; each iteration is one product with ``op``.  A
    start that already meets the tolerance is returned as is.
    """
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), np.zeros_like(b), 0, True
    tol = rtol * norm_b
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


def _min_residual_start(history, b, sigma):
    """The combination ``sum c_i x_i`` of the stored solutions that minimizes
    the residual at shift ``sigma``.

    A stored ``x_i`` with final residual ``r_i`` at shift ``sigma_i`` has
    ``op_sigma(x_i) = b - r_i + (sigma - sigma_i) x_i``, so the p-column
    least-squares problem ``min |b - sum c_i op_sigma(x_i)|`` needs no
    matvec.
    """
    W = np.column_stack([b - r_i + (sigma - sigma_i) * x_i
                         for x_i, r_i, sigma_i in history])
    c = np.linalg.lstsq(W, b, rcond=None)[0]
    return sum(c_i * x_i for c_i, (x_i, _, _) in zip(c, history))


def solve_preconditioned(family: ShiftedFamily, start: int, iter_cap: int,
                         rtol: float, prec_factory=None, x_start=None,
                         weights=None):
    """Sequential PCG over family indices start..end (decreasing shifts).

    A preconditioner is (re)built for the current shift whenever the
    previous solve took more than ``iter_cap`` iterations; the first system
    starts from ``x_start`` (zero by default), every later one from its
    better-conditioned neighbor's solution.  All systems share the
    right-hand side, so the residual is carried across shifts: the previous
    system's final residual ``r`` gives the next one's initial residual as
    ``r - (sigma - sigma_prev) x``, and a system whose warm start already
    meets the tolerance costs no matvec.  When it misses, the system starts
    instead from the combination of the last four solutions (of the first
    system and of those that iterated) that minimizes its residual, which
    their stored residuals give without a matvec (Fischer, CMAME 163, 1998).
    That start pays one matvec for its true residual ``b - op(x)``: the
    combined residual loses accuracy to rounding when the coefficients are
    large.  Otherwise only the first system, and the retry after a fresh
    preconditioner, compute ``b - op(x)``.  Returns ``(solutions or
    weighted sum, stats)`` in scaled space.
    """
    S = family.n_shifts
    count = S - start
    stats = SolveStats(n_alg2=count)
    if count <= 0:
        if weights is not None:
            return np.zeros(family.n), stats
        return np.zeros((0, family.n)), stats

    if prec_factory is None:
        def prec_factory(alpha):
            return IncompleteCholesky(
                family.A + alpha * sp.diags(family.lumped_mass))

    sqrt_mass = 1.0 / family.inv_sqrt_mass

    def wrap(prec_obj):
        # mesh-space approximate inverse of (A + alpha M_h), mapped to the
        # normalized variables
        def apply(v):
            return family.rho * sqrt_mass * prec_obj.apply(sqrt_mass * v)
        return apply

    b = family.rhs_scaled
    tol = rtol * float(np.linalg.norm(b))
    out = np.zeros(family.n) if weights is not None else \
        np.zeros((count, family.n))
    x = x_start if x_start is not None else np.zeros(family.n)
    r = None                # residual of x for the previous shift
    # (x, r, sigma) of the latest systems that iterated, or were the first:
    # a system that did not iterate adds no direction to their span
    history = deque(maxlen=_HISTORY)
    sigma_prev = 0.0
    prec = None
    prev_iters = iter_cap + 1
    maxiter = max(10 * iter_cap, 50)
    for pos in range(start, S):
        sigma = family.shifts_scaled[pos]
        label = family.labels[pos]

        def op(v, sigma=sigma):
            return family.apply_scaled(v) + sigma * v

        if r is None:
            r = b - op(x)
            stats.n_matvec += 1
        else:
            r = r - (sigma - sigma_prev) * x
            if np.linalg.norm(r) > tol:
                x = _min_residual_start(history, b, sigma)
                r = b - op(x)
                stats.n_matvec += 1
        freshly_built = False
        if prev_iters > iter_cap:
            prec = wrap(prec_factory(family.shifts[pos]))
            stats.n_prec_setups += 1
            freshly_built = True
        x, r, iters, converged = _pcg(op, b, x, r, prec, rtol, maxiter)
        stats.n_matvec += iters
        if not converged:
            if not freshly_built:
                prec = wrap(prec_factory(family.shifts[pos]))
                stats.n_prec_setups += 1
                x, r, extra, converged = _pcg(op, b, x, b - op(x), prec,
                                              rtol, maxiter)
                stats.n_matvec += 1 + extra
                iters += extra
            if not converged:
                raise RuntimeError(
                    f"PCG stagnation on shift {family.shifts[pos]:.4g} "
                    f"(label {label}): no convergence within {maxiter} "
                    f"iterations after a fresh preconditioner")
        stats.iterations[label] = iters
        if iters or pos == start:
            history.append((x, r, sigma))
        prev_iters = iters
        sigma_prev = sigma
        if weights is not None:
            out += weights[pos] * x
        else:
            out[pos - start] = x
    return out, stats


def solve_family(A, lumped_mass, shifts, Z, *, labels=None, rtol=1e-8,
                 n_max=500, iter_cap=20, prec_factory=None, weights=None):
    """Solve (A + alpha_l M_h) V^l = Z for every shift.

    The leading (large) shifts are solved by the multishift scan until its
    basis would exceed ``n_max`` vectors, the rest by ``solve_preconditioned``
    warm-started from the last multishift solution.  Returns ``(values,
    stats)``: the solution stack (input shift order, one row per shift), or
    with ``weights`` the combination ``sum_l w_l V^l``, which avoids
    materializing every solution.
    """
    shifts = np.asarray(shifts, dtype=float)
    family = normalize(A, lumped_mass, shifts, Z, labels=labels)
    # the solvers stop on the normalized residual; dividing by the mass
    # scaling spread makes the bound hold for the un-normalized residual too
    mh = family.lumped_mass
    rtol = rtol / math.sqrt(float(mh.max() / mh.min()))
    order = np.argsort(-shifts, kind="stable")     # family order
    if weights is not None:
        weights = np.asarray(weights, dtype=float)[order]

    scan = _MultishiftScan(family, n_max, rtol)
    unsolved = np.flatnonzero(scan.m_conv == 0)
    n_solved = int(unsolved[0]) if unsolved.size else family.n_shifts
    x_start = None
    if unsolved.size and n_solved > 0:
        x_start = scan.reconstruct(np.array([n_solved - 1]))[0]
    head = scan.reconstruct(
        np.arange(n_solved),
        weights=None if weights is None else weights[:n_solved])
    scan.Q = None                          # release the basis before PCG
    tail, pcg = solve_preconditioned(
        family, n_solved, iter_cap, rtol, prec_factory=prec_factory,
        x_start=x_start, weights=weights)
    stats = SolveStats(
        iterations={**{family.labels[i]: int(scan.m_conv[i])
                       for i in range(n_solved)}, **pcg.iterations},
        n_alg1=n_solved, n_alg2=pcg.n_alg2,
        crossover=family.labels[n_solved - 1] if n_solved else None,
        n_prec_setups=pcg.n_prec_setups, n_matvec=scan.n_basis + pcg.n_matvec)
    if weights is not None:
        return family.unnormalize(head + tail), stats
    rows = family.unnormalize(np.vstack([head, tail]))
    return rows[np.argsort(order)], stats      # the caller's shift order
