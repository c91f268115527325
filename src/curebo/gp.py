"""Gaussian-process regression with a Matern-5/2 ARD correlation kernel.

The model is constant-mean kriging: outputs are treated as a realization of
mu + Z(x) where Z is a zero-mean stationary process. The kernel is used as a
correlation function (unit diagonal); the constant mean and the process
variance are profiled out in closed form,

    mu_hat     = 1' R^-1 y / 1' R^-1 1
    sigma2_hat = (y - mu_hat)' R^-1 (y - mu_hat) / n

so the only free hyperparameters are the per-dimension length scales, chosen
by maximizing the concentrated log marginal likelihood. The predictive
variance includes the mean-estimation term:

    s2(x) = sigma2_hat * [1 - r' R^-1 r + (1 - 1' R^-1 r)^2 / (1' R^-1 1)]

A fitted model keeps the projector P = [L^-T | R^-1 (y - mu 1) | R^-1 1] of
its Cholesky factor L, so one product r' P gives r' R^-1 r (the squared norm
of its first n entries), the mean and 1' R^-1 r.

Fitted models are immutable and safe for concurrent prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# scipy's submodules load through its lazy attributes at the first call, so
# that importing curebo, and every run without a surrogate, skips their
# import time (about 0.2 s)
import scipy

SQRT5 = np.sqrt(5.0)

# Length-scale search box in normalized-input units (log-space optimization).
LENGTH_SCALE_BOUNDS = (1e-3, 1e3)

# Diagonal jitter: start small, escalate x10 on factorization failure.
JITTER_START = 1e-10
JITTER_MAX = 1e-4

# Hyperparameter search: a single L-BFGS-B run from the default start, of at
# most MAXITER iterations.
MAXITER = 60

# minimize's other L-BFGS-B defaults: stored corrections, steps per line
# search, and the ftol (as factr, in machine epsilons) and gtol stops
MAXCOR = 10
MAXLS = 20
FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
PGTOL = 1e-5

# Rows per block of matern52_matrix, so that a block's distance and kernel
# temporaries stay in cache. For a 10,000 x 50 matrix on a 2-core AVX512
# Xeon, blocks of 128 to 2048 rows ran equally fast, one unblocked pass 1.7x
# slower.
KERNEL_BLOCK_ROWS = 512


class NumericalError(RuntimeError):
    """Linear-algebra failure that survived jitter escalation."""


@dataclass(frozen=True)
class GpSurrogate:
    """Fitted GP state: length scales, Cholesky factor, profile estimates, caches."""

    train_x: np.ndarray
    train_y: np.ndarray
    length_scales: np.ndarray  # Matern-5/2 ARD, one per input dimension
    factor: np.ndarray  # lower-triangular L with L L' = R + jitter I
    jitter: float
    mu_hat: float
    sigma2_hat: float
    log_likelihood: float
    one_r_one: float  # 1' R^-1 1
    # (n, n + 2) columns L^-T | R^-1 (y - mu 1) | R^-1 1
    projector: np.ndarray = field(repr=False)

    @property
    def dims(self) -> int:
        return self.train_x.shape[1]


def _matern52_from_d2(d2: np.ndarray, out: np.ndarray | None = None):
    """Matern-5/2 correlation from squared scaled distances d2 = r^2.

    Returns (1 + sqrt5 r + 5 r^2 / 3) exp(-sqrt5 r), written into out when
    given, together with the factors 1 + sqrt5 r and exp(-sqrt5 r), which
    the likelihood gradient reuses. d2 is not modified.
    """
    rd = np.sqrt(d2)
    lin = rd * SQRT5
    lin += 1.0
    rd *= -SQRT5
    decay = np.exp(rd, out=rd)
    corr = np.multiply(d2, 5.0 / 3.0, out=out)
    corr += lin
    corr *= decay
    return corr, lin, decay


def matern52_matrix(x: np.ndarray, z: np.ndarray, length_scales: np.ndarray) -> np.ndarray:
    """Correlation matrix between row sets x (m,d) and z (n,d).

    The (m, n) result is filled in blocks of KERNEL_BLOCK_ROWS rows of x.
    Each entry depends only on its own pair of rows, so the result has the
    same bits at any block split.
    """
    xs = x / length_scales
    zs = z / length_scales
    out = np.empty((len(xs), len(zs)))
    # one pass even for an empty x, so that cdist still checks the dimensions
    for start in range(0, max(len(xs), 1), KERNEL_BLOCK_ROWS):
        rows = slice(start, start + KERNEL_BLOCK_ROWS)
        d2 = scipy.spatial.distance.cdist(xs[rows], zs, metric="sqeuclidean")
        _matern52_from_d2(d2, out=out[rows])
    return out


def _chol_with_jitter(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky of r + jitter I, escalating jitter x10 up to JITTER_MAX."""
    jitter = JITTER_START
    diagonal = np.diag_indices(len(r))
    while True:
        # dpotrf reads the lower triangle only, so the result is that of
        # r + jitter * I; a Fortran-ordered copy is factorized in place.
        a = np.array(r, order="F")
        a[diagonal] += jitter
        L, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jitter
        if jitter >= JITTER_MAX:
            diag = np.diag(r)
            raise NumericalError(
                "correlation matrix not factorizable at max jitter "
                f"{JITTER_MAX:g} (n={len(r)}, diag range "
                f"[{diag.min():.3g}, {diag.max():.3g}])"
            )
        jitter *= 10.0


def _profile_estimates(L: np.ndarray, y: np.ndarray):
    """Closed-form mu_hat, sigma2_hat and caches from a Cholesky factor."""
    n = len(y)
    # one solve for both right-hand sides; the transposes are Fortran order
    rinv_y, rinv_1 = scipy.linalg.lapack.dpotrs(
        L, np.array([y, np.ones(n)]).T, lower=1, overwrite_b=1
    )[0].T
    one_r_one = float(rinv_1.sum())
    mu = float(rinv_y.sum()) / one_r_one
    resid_solve = rinv_y - mu * rinv_1  # R^-1 (y - mu 1)
    sigma2 = float((y - mu) @ resid_solve) / n
    sigma2 = max(sigma2, 0.0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    s2_safe = max(sigma2, 1e-300)
    ll = -0.5 * (n * np.log(2.0 * np.pi * s2_safe) + logdet + n)
    return mu, sigma2, ll, resid_solve, rinv_1, one_r_one


def _initial_length_scales(x: np.ndarray) -> np.ndarray:
    """Default start: per-dimension standard deviation of the inputs."""
    ls = np.std(x, axis=0)
    return np.clip(ls, LENGTH_SCALE_BOUNDS[0], LENGTH_SCALE_BOUNDS[1])


def _nll_and_grad(delta2: np.ndarray, y: np.ndarray, log_ls: np.ndarray):
    """Negative profile log likelihood and its gradient in log length scales.

    delta2 is the (n * n, d) array of squared raw differences (x_i - x_j)^2,
    row i * n + j. With s_h = delta2_h / l_h^2, dK/dr = -(5 r / 3)(1 + sqrt5 r)
    exp(-sqrt5 r) and dr/dlog l_h = -s_h / r give dR/dlog l_h =
    (5/3)(1 + sqrt5 r) exp(-sqrt5 r) s_h elementwise, and the gradient is
    (1/2) tr((a a' / sigma2 - R^-1) dR/dlog l_h) for a = R^-1 (y - mu 1)
    (Rasmussen & Williams, GPML 5.4.1): one product of the weights with
    delta2. The profiled mean drops out of the gradient (envelope argument).
    """
    n, d = len(y), delta2.shape[1]
    inv_l2 = np.exp(-2.0 * log_ls)
    R, lin, decay = _matern52_from_d2((delta2 @ inv_l2).reshape(n, n))
    try:
        L, _ = _chol_with_jitter(R)
    except NumericalError:
        return 1e12, np.zeros(d)
    _, sigma2, ll, resid_solve, _, _ = _profile_estimates(L, y)
    li = scipy.linalg.lapack.dtrtri(L, lower=1)[0]
    w = np.multiply.outer(resid_solve, resid_solve / max(sigma2, 1e-300))
    w -= li.T @ li  # a a' / sigma2 - R^-1
    w *= lin
    w *= decay
    grad = (5.0 / 6.0) * inv_l2 * (w.reshape(-1) @ delta2)
    return -ll, -grad


def _lbfgsb(objective, x0: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Minimize objective(x) -> (value, gradient) over the box [lo, hi]^d by
    L-BFGS-B from x0, for at most MAXITER iterations (Byrd et al. 1995).

    This is scipy.optimize.minimize's driver loop with jac=True, so the
    objective sees the same points and the result has the same bits. scipy's
    limit of 15,000 evaluations is left out, since no run comes near it: an
    iteration makes at most two line searches (a failed one and its one
    restart) of at most MAXLS + 1 evaluations, about 2,500 in a whole run.
    """
    n = len(x0)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    low, up = np.full(n, lo), np.full(n, hi)
    nbd = np.full(n, 2, dtype=np.int32)  # a lower and an upper bound on every dimension
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * MAXCOR * n + 5 * n + 11 * MAXCOR * MAXCOR + 8 * MAXCOR)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32), np.zeros(29)
    iterations, last_x = 0, None
    # private to scipy, but minimize's Python layers cost over half as much as
    # the likelihood; tests/test_gp.py holds _lbfgsb to minimize's calls and bits
    setulb = scipy.optimize._lbfgsb.setulb
    while True:
        setulb(MAXCOR, x, low, up, nbd, f, g, FACTR, PGTOL, wa, iwa, task, lsave, isave, dsave,
               MAXLS, ln_task)
        if task[0] == 3:  # FG: the value and gradient at x
            # setulb may ask again for the point it was just given, and
            # minimize then answers from its cache without a call; setulb
            # may also overwrite g, so it gets a copy
            if last_x is None or not (x == last_x).all():
                last_x = x.copy()
                value, grad = objective(x.copy())
            f, g = value, grad.copy()
        elif task[0] == 1:  # NEW_X: one more iteration
            iterations += 1
            if iterations >= MAXITER:
                task[:] = 5, 504  # STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT
        else:  # CONVERGENCE, STOP, WARNING, ERROR or ABNORMAL
            return x


def fit_gp(train_x, train_y, length_scales=None) -> GpSurrogate:
    """Fit the surrogate by maximizing the profile log likelihood.

    Training rows are sorted into a canonical order internally, so the fit
    (and every downstream prediction) is exactly invariant to the order in
    which the data was supplied.

    Parameters
    ----------
    train_x : (n, d) array of normalized inputs, pairwise distinct, n >= 2.
    train_y : (n,) array of outputs.
    length_scales : optional (d,) array; when given, the model is built at
        these length scales and the search is skipped.

    Raises
    ------
    ValueError for bad training data; NumericalError if the correlation
    matrix cannot be factorized even at maximum jitter.
    """
    x = np.atleast_2d(np.asarray(train_x, dtype=float))
    y = np.asarray(train_y, dtype=float).ravel()
    n = len(y)
    if x.shape[0] != n:
        raise ValueError("train_x and train_y lengths differ")
    if n < 2:
        raise ValueError("need at least two training points")
    if not np.all(np.isfinite(y)):
        raise ValueError("training outputs must be finite")
    if len(np.unique(x, axis=0)) != n:
        raise ValueError("training inputs must be pairwise distinct")

    order = np.lexsort(x.T[::-1])
    x = np.ascontiguousarray(x[order])
    y = np.ascontiguousarray(y[order])
    d = x.shape[1]

    lo, hi = np.log(LENGTH_SCALE_BOUNDS[0]), np.log(LENGTH_SCALE_BOUNDS[1])

    if length_scales is not None:
        best_ls = np.atleast_1d(np.asarray(length_scales, dtype=float))
        if best_ls.size != d:
            raise ValueError("pinned length_scales dimension mismatch")
        if not np.all(np.isfinite(best_ls) & (best_ls > 0)):
            raise ValueError("pinned length_scales must be finite and positive")
    else:
        init = np.log(_initial_length_scales(x))
        delta2 = np.square(x[:, None, :] - x[None, :, :]).reshape(n * n, d)
        # L-BFGS-B returns an accepted iterate, whose likelihood is never below
        # the start's; clipped in case round-off in the line search leaves the box
        best_ls = np.exp(np.clip(_lbfgsb(lambda v: _nll_and_grad(delta2, y, v), init, lo, hi), lo, hi))

    R = matern52_matrix(x, x, best_ls)
    L, jitter = _chol_with_jitter(R)
    mu, sigma2, ll, resid_solve, rinv_1, one_r_one = _profile_estimates(L, y)
    projector = np.empty((n, n + 2))
    projector[:, :n] = scipy.linalg.lapack.dtrtri(L, lower=1)[0].T
    projector[:, n] = resid_solve
    projector[:, n + 1] = rinv_1
    return GpSurrogate(
        train_x=x,
        train_y=y,
        length_scales=best_ls,
        factor=L,
        jitter=jitter,
        mu_hat=mu,
        sigma2_hat=sigma2,
        log_likelihood=ll,
        one_r_one=one_r_one,
        projector=projector,
    )


def predict_batch(model: GpSurrogate, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive means and variances at many query points, vectorized."""
    q = np.atleast_2d(np.asarray(queries, dtype=float))
    if q.shape[1] != model.dims:
        raise ValueError(f"expected {model.dims}-dimensional queries, got {q.shape[1]}")
    # One product on the whole (m, n) matrix, not per row block: a BLAS
    # product may round the rows of a short last block differently.
    n = len(model.train_y)
    rp = matern52_matrix(q, model.train_x, model.length_scales) @ model.projector
    v = rp[:, :n]  # rows r' L^-T
    r_rinv_r = np.einsum("ij,ij->i", v, v)
    variances = model.sigma2_hat * (
        1.0 - r_rinv_r + (1.0 - rp[:, n + 1]) ** 2 / model.one_r_one
    )
    return model.mu_hat + rp[:, n], np.maximum(variances, 0.0)
