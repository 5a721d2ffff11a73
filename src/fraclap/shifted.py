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
prescaled, once per stiffness matrix (again only when the lumped mass
changes), and reuses it for every later family on the same operator.  A~ is
scaled on A's own sparsity pattern and handed to ``multigrid._banded``,
which stores it as a DIA matrix when its nonzeros lie on a few diagonals,
as on the grid meshes: the same bits as CSR, at memory speed.  Each
operator also keeps one spare Lanczos basis, which a scan pops and returns,
so repeated solves do not fault in a fresh basis; the recurrence updates
its vectors in place.  Every family solve keeps at most ``_STORED_MAX``
basis vectors, so ``n_max`` caps the scan and not memory: past that row the
scan keeps two rolling vectors and the tridiagonal, and the head's
combinations are completed in a second pass that regenerates the dropped
vectors through the scan's own ``_step``, hence with its bits (two-pass
Lanczos; Frommer & Simoncini, 2008).  The remaining (small-shift)
systems are solved sequentially by preconditioned CG, rebuilding the
preconditioner whenever the previous system needed more than ``_ITER_CAP``
iterations.  Each system starts from its neighbor's solution, and since
all systems share the right-hand side its initial residual follows from
the neighbor's final residual without a matvec; while the solution stays
fixed, the norm of that carried residual follows from three inner products,
so a system whose warm start already meets the tolerance costs O(1) work.
A system whose carried residual misses starts instead from the combination
of the last four stored solutions that minimizes its residual, a p x p
least-squares problem in their stored inner products, and pays one matvec
for that start's true residual.  ``solve_family`` is the one entry point
that runs these stages in sequence; it returns either every solution or
their weighted combination.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from . import multigrid

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
    ``multigrid._banded`` stores it (DIA or CSR), so that
    ``apply_scaled`` (used by the Lanczos scan and by PCG) is one sparse
    matvec.  ``spare`` is the operator's spare Lanczos basis, shared by every
    family on it, under the key ``"Q"`` while no scan holds it.
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
    spare: dict = field(default_factory=dict, repr=False)

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


# scaled operator per stiffness matrix object, with the lumped mass object
# it was scaled with; both are treated as immutable.  The repeated solves on
# one mesh scale it once, a solve with another mass replaces the entry, and
# the entry is dropped, with its spare basis, when its stiffness matrix is
# garbage collected.  The lock makes the check and the build one step.
_scaled_cache: dict = {}
_scaled_lock = threading.Lock()


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


def normalize(A: sp.spmatrix, lumped_mass: np.ndarray, shifts: np.ndarray,
              Z: np.ndarray, labels=None) -> ShiftedFamily:
    """Scale the family to identity shifts with unit operator sup-norm."""
    key = id(A)
    with _scaled_lock:
        entry = _scaled_cache.get(key)
        if entry is None or entry[0] is not lumped_mass:
            mass = np.asarray(lumped_mass, dtype=float)
            if not np.all(np.isfinite(mass) & (mass > 0)):
                raise ValueError(
                    "lumped mass must be finite and strictly positive")
            A_csr = sp.csr_matrix(A)
            if entry is None:
                weakref.finalize(A, _scaled_cache.pop, key, None)
            entry = (lumped_mass, A_csr, mass) \
                + _scale_operator(A_csr, mass) + ({},)
            _scaled_cache[key] = entry
    _, A, lumped_mass, scaled, rho, d, spare = entry
    shifts = np.asarray(shifts, dtype=float)
    if np.any(np.isnan(shifts)):
        raise ValueError("shifts must not be NaN")
    Z = np.asarray(Z, dtype=float)
    if not np.all(np.isfinite(Z)):
        raise ValueError("right-hand side Z must be finite")
    if labels is None:
        labels = np.arange(shifts.size)
    labels = np.asarray(labels)

    order = np.argsort(-shifts, kind="stable")
    return ShiftedFamily(
        A=A, A_scaled=scaled, lumped_mass=lumped_mass, rho=rho,
        shifts=shifts[order], shifts_scaled=shifts[order] / rho,
        labels=labels[order], rhs=Z, rhs_scaled=d * Z / rho,
        inv_sqrt_mass=d, spare=spare)


# basis vectors a family solve keeps; the scan's later ones are regenerated
_STORED_MAX = 500
# default cap of the Lanczos scan
_SCAN_MAX = 1500


def _step(family: ShiftedFamily, q, q_prev, b_prev, tmp, a_j=None):
    """``(w, a_j)``: ``w = A~ q - b_prev q_prev - a_j q`` (no ``b_prev``
    term without ``q_prev``), the products subtracted in place through
    ``tmp`` (no fused multiply-add), with ``a_j = q . (A~ q - b_prev
    q_prev)`` unless the second pass gives it."""
    w = family.apply_scaled(q)
    if q_prev is not None:
        np.multiply(b_prev, q_prev, out=tmp)
        w -= tmp
    if a_j is None:
        a_j = q @ w
    np.multiply(a_j, q, out=tmp)
    w -= tmp
    return w, a_j


def _lanczos(family: ShiftedFamily, n_max: int, tol_abs: float):
    """Lanczos basis of A~ from the scaled right-hand side.

    Returns ``(Q, a, b, done)``: the stored basis, whose first ``len(a)``
    rows (all, when it has fewer) are the first basis vectors, the diagonal
    ``a`` and the off-diagonal ``b`` of the tridiagonal, with ``b[-1]`` the
    norm of the last residual.  Past ``min(n_max, _STORED_MAX)`` vectors the
    scan keeps only the last two, and ``_combine`` rebuilds the rest from
    ``a`` and ``b``.  ``Q`` is the operator's spare basis, popped from
    ``family.spare`` for the scan (the caller puts it back), or a new one
    when a concurrent scan holds it or it has too few rows.

    One scalar LDL^T recurrence, for the smallest shift, decides when to
    stop: a shift's residual decreases with the shift, so once the smallest
    shift meets ``tol_abs`` every shift does.  The basis then stops with
    ``done`` set, and so it does on an invariant subspace; otherwise it
    stops at ``n_max`` vectors.  A non-positive pivot of the
    smallest shift means the operator is not positive definite.
    """
    n_stored = min(n_max, _STORED_MAX)
    z = family.rhs_scaled
    beta0 = float(np.linalg.norm(z))
    sigma = family.shifts_scaled[-1]
    Q = family.spare.pop("Q", None)
    if Q is None or Q.shape[0] < n_stored:
        Q = None                        # free a spare too small first
        Q = np.empty((n_stored, family.n))
    a = np.empty(n_max)
    b = np.empty(n_max)
    tmp = np.empty(family.n)
    np.divide(z, beta0, out=Q[0])
    q_prev, q = None, Q[0]
    c = beta0
    for j in range(n_max):
        w, a[j] = _step(family, q, q_prev, b[j - 1], tmp)
        b[j] = math.sqrt(w @ w)         # np.linalg.norm(w), bit for bit
        if j == 0:
            d = a[0] + sigma
        else:
            ratio = b[j - 1] / d
            d = a[j] + sigma - b[j - 1] * ratio
            c = -ratio * c
        if d <= 0.0:
            raise RuntimeError(
                "shifted CG breakdown: operator is not positive definite")
        if abs(c) / d * b[j] <= tol_abs or b[j] < 1e-300:
            return Q, a[:j + 1], b[:j + 1], True
        if j + 1 < n_stored:
            np.divide(w, b[j], out=Q[j + 1])
            q_prev, q = q, Q[j + 1]
        else:                           # past the stored rows: w is q_{j+1}
            w /= b[j]
            q_prev, q = q, w
    return Q, a, b, False


def _combine(family: ShiftedFamily, Q: np.ndarray, a: np.ndarray,
             b: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``C @ [q_0; ...; q_{m-1}]``: one combination of the whole basis per
    row of ``C``.

    The stored rows of ``Q`` enter as one product; the vectors past them
    are rebuilt from the last two stored ones by the scan's own ``_step``
    and division, so they are the scan's bits, at one matvec each.
    """
    K = Q.shape[0]
    out = C[:, :K] @ Q
    tmp = np.empty(family.n)
    q_prev, q = (Q[K - 2] if K > 1 else None), Q[K - 1]
    for j in range(K - 1, a.size - 1):
        w, _ = _step(family, q, q_prev, b[j - 1], tmp, a[j])
        w /= b[j]
        q_prev, q = q, w
        for x, c in zip(out, C[:, j + 1]):
            np.multiply(c, q, out=tmp)
            x += tmp
    return out


def _head(family: ShiftedFamily, n_max: int, tol_abs: float, weights=None):
    """Galerkin solutions of the leading shifts in one Lanczos basis.

    With ``T = V diag(theta) V^T`` the basis' tridiagonal, shift ``sigma``
    has the solution ``beta0 Q^T V (V[0] / (theta + sigma))`` and the
    residual ``beta0 prod(b) / prod(theta + sigma)``.  Returns ``(n_solved,
    n_basis, n_products, head, x_last)``: the number of leading shifts
    solved, the basis size, the matvecs spent, their solutions (or with
    ``weights`` the weighted sum over them) in scaled space, and the last
    solved shift's solution when the tail still has systems (else None).
    ``_combine`` forms every wanted combination from the basis vectors the
    scan kept, sweeping a basis that outgrew them a second time, at one more
    matvec per vector beyond them.
    """
    S = family.n_shifts
    sig = family.shifts_scaled
    beta0 = float(np.linalg.norm(family.rhs_scaled))
    if beta0 == 0.0:                    # zero solutions, no work
        head = np.zeros(family.n) if weights is not None else \
            np.zeros((S, family.n))
        return S, 0, 0, head, None
    basis, a, b, done = _lanczos(family, n_max, tol_abs)
    theta, V = eigh_tridiagonal(a, b[:-1])
    n_solved = S
    if not done:
        # the residuals in log space, as the large shifts' underflow
        # directly; they increase along the family, so the shifts that meet
        # the tolerance are a prefix
        log_res = (math.log(beta0) + np.log(b).sum()
                   - np.log(theta[:, None] + sig[None, :]).sum(axis=0))
        with np.errstate(divide="ignore"):      # rtol = 0 solves nothing
            n_solved = int(np.count_nonzero(log_res <= np.log(tol_abs)))
    G = beta0 * V[0][:, None] / (theta[:, None] + sig[None, :n_solved])
    # the head's solutions, or their weighted sum and the tail's start, as
    # combinations of the basis vectors; with a tail, the last row is its
    # start
    tail = 0 < n_solved < S
    C = (V @ G).T if weights is None else \
        np.array([V @ (G @ weights[:n_solved])]
                 + ([V @ G[:, -1]] if tail else []))
    stored = basis[:len(a)]
    sums = _combine(family, stored, a, b, C)
    family.spare["Q"] = basis           # done with it: the next scan's spare
    head = sums if weights is None else sums[0]
    return (n_solved, len(a), 2 * len(a) - len(stored), head,
            sums[-1] if tail else None)


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


def solve_preconditioned(family: ShiftedFamily, start: int, iter_cap: int,
                         rtol: float, prec_factory=None, x_start=None,
                         weights=None):
    """Sequential PCG over family indices start..end (decreasing shifts).

    A preconditioner is (re)built for the current shift whenever the
    previous solve took more than ``iter_cap`` iterations; the first system
    starts from ``x_start`` (zero by default), every later one from its
    better-conditioned neighbor's solution.  All systems share the
    right-hand side, so the residual is carried across shifts: while ``x``
    stays fixed, its residual ``r`` at shift ``sigma_r`` gives the one at
    ``sigma`` as ``r - (sigma - sigma_r) x``, whose squared norm follows
    from ``r.r``, ``r.x`` and ``x.x``, taken once per new ``x``.  A system
    whose carried residual meets the tolerance by that estimate, with a
    rounding margin, costs no vector work at all: with ``weights`` the
    weights of such a run add up as a scalar until ``x`` changes.  Otherwise
    the carried residual is formed; when it misses, the system starts
    instead from the combination of the last four solutions (of the first
    system and of those that iterated) that minimizes its residual, a p x p
    problem in their stored inner products (``_History``).  That start pays
    one matvec for its true residual ``b - op(x)``: the combined residual
    loses accuracy to rounding when the coefficients are large.  Otherwise
    only the first system, and the retry after a fresh preconditioner,
    compute ``b - op(x)``.  Returns ``(solutions or weighted sum, stats)``
    in scaled space.
    """
    count = family.n_shifts - start
    stats = SolveStats(n_alg2=count)
    b = family.rhs_scaled
    norm_b = float(np.linalg.norm(b))
    out = np.zeros(family.n) if weights is not None else \
        np.zeros((count, family.n))
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
    w_run = 0.0             # weight of the systems x solved since it changed
    # the latest systems that iterated, or were the first: a system that did
    # not iterate adds no direction to their span
    history = _History(b)
    prec = None
    prev_iters = iter_cap + 1
    maxiter = max(10 * iter_cap, 50)
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
        if prev_iters > iter_cap:
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
        if weights is None:
            out[pos - start] = x
        else:
            if x is not x_prev:
                out += w_run * x_prev
                w_run = 0.0
            w_run += weights[pos]
    if weights is not None:
        out += w_run * x
    return out, stats


def solve_family(A, lumped_mass, shifts, Z, *, labels=None, rtol=1e-8,
                 n_max=_SCAN_MAX, prec_factory=None, weights=None):
    """Solve (A + alpha_l M_h) V^l = Z for every shift.

    The leading (large) shifts are solved in one Lanczos basis of at most
    ``n_max`` vectors (of which at most ``_STORED_MAX`` are kept in
    memory), the rest by ``solve_preconditioned`` warm-started from the
    last multishift solution.  ``labels`` and ``weights``, when given, have
    one entry per shift.  Returns ``(values, stats)``: the solution stack
    (input shift order, one row per shift), or with ``weights`` the
    combination ``sum_l w_l V^l``, which avoids materializing every
    solution.  ``rtol = 0`` is accepted only when the
    Lanczos basis solves every shift exactly (an invariant subspace).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if not (math.isfinite(rtol) and rtol >= 0.0):
        raise ValueError(f"rtol must be finite and non-negative, got {rtol}")
    shifts = np.asarray(shifts, dtype=float)
    for name, value in (("labels", labels), ("weights", weights)):
        if value is not None and np.shape(value) != shifts.shape:
            raise ValueError(f"{name} must have one entry per shift: shape "
                             f"{np.shape(value)}, shifts {shifts.shape}")
    family = normalize(A, lumped_mass, shifts, Z, labels=labels)
    # the solvers stop on the normalized residual; dividing by the mass
    # scaling spread makes the bound hold for the un-normalized residual too
    mh = family.lumped_mass
    rtol = rtol / math.sqrt(float(mh.max() / mh.min()))
    order = np.argsort(-shifts, kind="stable")     # family order
    if weights is not None:
        weights = np.asarray(weights, dtype=float)[order]

    tol_abs = rtol * float(np.linalg.norm(family.rhs_scaled))
    n_solved, n_basis, n_products, head, x_start = _head(
        family, n_max, tol_abs, weights)
    if rtol == 0.0 and n_solved < family.n_shifts:
        raise ValueError(
            f"rtol = 0 leaves {family.n_shifts - n_solved} systems to PCG, "
            "which cannot meet a zero tolerance; pass rtol > 0")
    tail, pcg = solve_preconditioned(
        family, n_solved, _ITER_CAP, rtol, prec_factory=prec_factory,
        x_start=x_start, weights=weights)
    stats = SolveStats(
        iterations={**{family.labels[i]: n_basis for i in range(n_solved)},
                    **pcg.iterations},
        n_alg1=n_solved, n_alg2=pcg.n_alg2,
        crossover=family.labels[n_solved - 1] if n_solved else None,
        n_prec_setups=pcg.n_prec_setups,
        n_matvec=n_products + pcg.n_matvec)
    if weights is not None:
        return family.unnormalize(head + tail), stats
    rows = family.unnormalize(np.vstack([head, tail]))
    return rows[np.argsort(order)], stats      # the caller's shift order
