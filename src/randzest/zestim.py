"""Finite-population Z-estimation under complete randomization.

The empirical estimating equation is

    Psi_hat(theta) = r1 * mean_{treated}  psi_1(Y_i, X_i; theta)
                   + r0 * mean_{control}  psi_0(Y_i, X_i; theta),

whose root is the Z-estimator.  Its randomization expectation equals the
population equation over both potential-outcome columns, which is what the
small-N enumeration tests check exactly.

The covariance of the root is estimated by the conservative sandwich

    Sigma_hat = J^-1 [ r1 Cov^1(psi_1i) + r0 Cov^0(psi_0i) ] J^-T,

with J the Jacobian of Psi_hat at the root and per-arm sample covariances
using divisor n_z - 1.  Sigma_hat scales sqrt(N)(theta_hat - theta), so
Wald sets divide by N.

One damped Newton loop serves a block of datasets with equal arm sizes
(``_solve_block``, each dataset with its own step lengths, stops and
messages); :func:`solve` is its one-dataset case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    NumericalError,
    SpecificationError,
)
from .estfun import EstimatingFunction, UnitKernel
from .finitepop import Dataset, PotentialTable

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
_MIN_STEP = 1e-12


@dataclass(eq=False)
class ZFit:
    """Result of a Z-estimation solve.

    ``sigma_hat`` is the conservative sandwich covariance of the
    sqrt(N)-scaled estimator.  :func:`solve` fills it in when asked
    (``compute_sandwich``), the fit converged and the root Jacobian is
    finite; it raises DegenerateInputError instead if an arm has fewer than
    two units, and NumericalError if that Jacobian, the sandwich's bread, is
    singular.
    """

    theta_hat: np.ndarray
    converged: bool
    iterations: int
    psi_norm: float
    jac_at_root: np.ndarray
    n_units: int
    sigma_hat: Optional[np.ndarray] = None
    message: str = ""


def _arm_kernels(datasets, f: EstimatingFunction, fused: bool) -> tuple:
    """(arm, kernel, arm rows) of the treated and the control arm of a block
    of datasets with equal arm sizes, on their arm plans: the estimating
    function's own kernel if ``fused`` and it has one, else its per-unit
    callables adapted."""
    make = f.kernel if fused and f.kernel is not None else partial(UnitKernel, f)
    out = []
    for arm in (1, 0):
        block = [d.plan.arm(arm) for d in datasets]
        out.append((arm, make(arm, block), block))
    return tuple(out)


def _psi_risk(kernels, theta: np.ndarray, with_risk: bool) -> tuple[np.ndarray, np.ndarray]:
    """Psi_hat at each row of theta (R, p) and, if asked, the empirical risks
    (else inf); a row is non-finite wherever its scores are."""
    (_, k1, block1), (_, k0, block0) = kernels
    share1, share0 = block1[0].share, block0[0].share
    psi1, risk1 = k1.mean(theta, with_risk)
    psi0, risk0 = k0.mean(theta, with_risk)
    risk = share1 * risk1 + share0 * risk0 if with_risk else np.full(len(theta), np.inf)
    return share1 * psi1 + share0 * psi0, risk


def _score_error(arm: int, rows, scores: np.ndarray, theta: np.ndarray):
    """The NumericalError naming the first units of an arm whose per-unit
    scores are non-finite, or None."""
    bad = ~np.isfinite(scores).all(axis=1)
    if not bad.any():
        return None
    where = np.flatnonzero(rows.units)[bad][:5]
    return NumericalError(
        f"psi_{arm} produced non-finite values at unit index(es) "
        f"{where.tolist()} (theta={theta.tolist()})"
    )


def _score_errors(kernels, theta: np.ndarray, psi: np.ndarray) -> list:
    """Per row of theta, the :func:`_score_error` of its first arm with
    non-finite scores, if its Psi_hat is not finite; else None."""
    errors = [None] * len(theta)
    if np.isfinite(psi).all():
        return errors
    pending = (~np.isfinite(psi).all(axis=1)).nonzero()[0]
    for arm, kernel, block in kernels:
        scores = kernel.scores(theta)
        for r in pending:
            if errors[r] is None:
                errors[r] = _score_error(arm, block[r], scores[r], theta[r])
    return errors


def _jacobian(kernels, theta: np.ndarray) -> np.ndarray:
    (_, k1, block1), (_, k0, block0) = kernels
    return block1[0].share * k1.jacobian(theta) + block0[0].share * k0.jacobian(theta)


def empirical_psi(d: Dataset, f: EstimatingFunction, theta) -> np.ndarray:
    """The observed estimating equation Psi_hat(theta), from the per-unit
    scores; non-finite scores raise NumericalError naming their units."""
    theta = np.asarray(theta, dtype=float)
    means = []
    for arm, rows, psi in ((1, d.plan.treated, f.psi1), (0, d.plan.control, f.psi0)):
        scores = psi(rows.y, rows.x, theta)
        means.append(scores.mean(axis=0))
        if not np.isfinite(means[-1]).all():
            error = _score_error(arm, rows, scores, theta)
            if error is not None:
                raise error
    return d.plan.treated.share * means[0] + d.plan.control.share * means[1]


def population_psi(
    pot: PotentialTable, f: EstimatingFunction, theta, r1: float
) -> np.ndarray:
    """Oracle estimating equation using both potential-outcome columns."""
    theta = np.asarray(theta, dtype=float)
    psi1 = f.psi1(pot.y1, pot.x, theta)
    psi0 = f.psi0(pot.y0, pot.x, theta)
    return r1 * psi1.mean(axis=0) + (1.0 - r1) * psi0.mean(axis=0)


def empirical_risk(d: Dataset, f: EstimatingFunction, theta) -> float:
    """The observed risk r1*mean(loss_1) + r0*mean(loss_0), read from the
    arm kernels of the dataset's plan."""
    if not f.has_loss:
        raise SpecificationError("estimating function carries no losses")
    theta = np.asarray(theta, dtype=float)[None]
    return float(_psi_risk(_arm_kernels([d], f, True), theta, True)[1][0])


def empirical_jacobian(d: Dataset, f: EstimatingFunction, theta) -> np.ndarray:
    """Jacobian of the empirical estimating equation at theta.

    Uses the per-unit analytic Jacobians when the estimating function
    carries them, otherwise central finite differences of each arm's mean
    score with per-coordinate step 1e-6 * (1 + |theta_k|).
    """
    return _jacobian(_arm_kernels([d], f, False), np.asarray(theta, dtype=float)[None])[0]


def _ridge(jac: np.ndarray) -> np.ndarray:
    p = jac.shape[0]
    scale = abs(np.trace(jac)) / p
    return jac + 1e-8 * (scale if scale > 0 else 1.0) * np.eye(p)


def _norms(psi: np.ndarray) -> np.ndarray:
    return np.sqrt((psi * psi).sum(axis=1))


def _backtrack(kernels, trial, theta, direction, lam, searching, use_risk, accept):
    """Per-row step halving from theta along -direction: each row in
    ``searching`` tries theta - lam * direction, halving its own lam, until
    ``accept(psi, risk, lam)`` holds for it or lam falls below the minimum
    step.  Every trial evaluates the whole block at ``trial``, whose other
    rows keep their last point, so the kernels end on each row's last trial.
    Returns found and the last trial's (psi, risk), None if no row searches;
    they are valid on the found rows, whose points ``trial`` holds."""
    found = np.zeros(len(theta), dtype=bool)
    psi = risk = None
    searching = searching & (lam >= _MIN_STEP)
    while searching.any():
        rows = slice(None) if searching.all() else searching
        trial[rows] = theta[rows] - lam[rows, None] * direction[rows]
        psi, risk = _psi_risk(kernels, trial, use_risk)
        ok = searching & accept(psi, risk, lam)
        if ok.all():  # every row searched and accepted: found is still all False
            return ok, psi, risk
        found |= ok
        searching &= ~ok
        lam = 0.5 * lam
        searching &= lam >= _MIN_STEP
    return found, psi, risk


def _gradient_search(kernels, trial, theta, psi, risk, searching):
    """Armijo backtracking along -psi, the risk's descent direction, for the
    rows whose Newton direction points uphill in the risk (an indefinite
    Jacobian near saddles of a nonlinear least-squares surface)."""
    grad_sq = (psi * psi).sum(axis=1)

    def accept(psi_new, risk_new, lam):
        return (np.isfinite(psi_new).all(axis=1) & np.isfinite(risk_new)
                & (risk_new <= risk - 1e-4 * lam * grad_sq))

    return _backtrack(kernels, trial, theta, psi, 1.0 / (1.0 + _norms(psi)), searching,
                      True, accept)


# why a Newton search row stopped (_RUNNING at the end: out of iterations), and its message
_RUNNING, _CONVERGED, _JACOBIAN_FAILED, _SINGULAR, _NONFINITE_STEP, _NO_DESCENT, \
    _DIVERGED = range(7)
_STOP_MESSAGES = (
    "no convergence in {max_iter} iterations (|theta| = {norm:.3g}, possible divergence)",
    "",
    "Jacobian evaluation failed: {error}",
    "Jacobian singular even after ridge regularization",
    "Newton step is non-finite",
    "line search failed to reduce the psi norm",
    "diverging theta: max |theta_k| = {top:.3g} exceeds the cap {theta_cap:.3g}",
)


def _newton_steps(jac, psi, active, stop) -> np.ndarray:
    """J^-1 Psi_hat of the active rows by one batched solve; if that meets a
    singular Jacobian, row by row with a ridge retry.  Rows that still fail
    are stopped as ``_SINGULAR``."""
    try:
        if active.all():
            return np.linalg.solve(jac, psi[:, :, None])[:, :, 0]
        step = np.zeros_like(psi)
        step[active] = np.linalg.solve(jac[active], psi[active, :, None])[:, :, 0]
        return step
    except np.linalg.LinAlgError:
        step = np.zeros_like(psi)
        for r in active.nonzero()[0]:
            try:
                step[r] = np.linalg.solve(jac[r], psi[r])
            except np.linalg.LinAlgError:
                try:
                    step[r] = np.linalg.solve(_ridge(jac[r]), psi[r])
                except np.linalg.LinAlgError:
                    stop(r, _SINGULAR)
    return step


def _newton(kernels, theta, psi, risk, use_risk, active, tol, max_iter, theta_cap):
    """The damped Newton search of :func:`solve` on a block of R problems.

    theta, psi (R, p) and risk (R,) are the starting points and their
    values; rows outside the ``active`` mask are left where they are.  Each
    row keeps its own step length, acceptance tests, gradient fallback,
    ridge retry, iterations and stop code, whose one message is written when
    the search ends; a Jacobian that raises NumericalError stops every
    active row.  Returns (theta, psi, iterations, messages, diverged).
    """
    theta, psi, risk, active = theta.copy(), psi.copy(), risk.copy(), active.copy()
    n_rows = len(theta)
    iterations = np.full(n_rows, max_iter)
    code = np.full(n_rows, _RUNNING)
    error = None  # the Jacobian's NumericalError
    last = theta  # the block's last evaluated point; theta on the active rows
    full_step = np.ones(n_rows)

    def stop(rows, reason):
        code[rows] = reason
        iterations[rows] = it - 1 if reason == _CONVERGED else it
        active[rows] = False  # last: ``rows`` may be ``active`` itself

    for it in range(1, max_iter + 1):
        done = active & (np.abs(psi).max(axis=1) <= tol)
        if done.any():
            stop(done, _CONVERGED)
        if not active.any():
            break
        try:
            jac = _jacobian(kernels, last)
        except NumericalError as exc:
            error = exc
            stop(active, _JACOBIAN_FAILED)
            break
        step = _newton_steps(jac, psi, active, stop)
        if not np.isfinite(step).all():
            stop(active & ~np.isfinite(step).all(axis=1), _NONFINITE_STEP)
        if not active.any():
            break

        norm = _norms(psi)
        bound = risk + 1e-14 * (1 + np.abs(risk))

        def accept(psi_new, risk_new, lam):
            ok = _norms(psi_new) < norm
            return ok & np.isfinite(risk_new) & (risk_new <= bound) if use_risk else ok

        trial = theta.copy()
        found, psi_new, risk_new = _backtrack(kernels, trial, theta, step, full_step,
                                              active, use_risk, accept)
        if found.all():
            theta, psi, risk = trial, psi_new, risk_new
        else:
            lost = active & ~found
            if use_risk and lost.any():
                more, more_psi, more_risk = _gradient_search(kernels, trial, theta, psi, risk,
                                                             lost)
                if more.any():  # the last gradient trial holds every found row too
                    found, psi_new, risk_new = found | more, more_psi, more_risk
                    lost &= ~more
            stop(lost, _NO_DESCENT)
            theta[found], psi[found], risk[found] = trial[found], psi_new[found], risk_new[found]
        last = trial
        over = np.abs(theta).max(axis=1) > theta_cap
        if over.any():
            stop(over & found, _DIVERGED)
    messages = [_STOP_MESSAGES[c].format(max_iter=max_iter, norm=np.linalg.norm(t), error=error,
                                         top=np.max(np.abs(t)), theta_cap=theta_cap)
                for c, t in zip(code, theta)]
    return theta, psi, iterations, messages, code == _DIVERGED


def _fits(datasets, kernels, searched, errors, jacobian, tol, with_sandwich: bool) -> list:
    """The fits of a Newton search on ``kernels`` (``searched`` is what
    :func:`_newton` returned): per row, its start error, or its
    :class:`ZFit` with root Jacobian ``jacobian(theta)[r]``, NaN if that
    raises NumericalError.  If ``with_sandwich``, a converged fit becomes
    the DegenerateInputError of an arm with fewer than two units; else, if
    its root Jacobian is finite, it gets the sandwich of the kernels' scores
    at its root, or its singular bread's NumericalError."""
    theta, psi, iterations, messages, diverged = searched
    try:
        jac = jacobian(theta)
    except NumericalError:
        jac = np.full(theta.shape + theta.shape[-1:], np.nan)
    fits, wanted = list(errors), []
    for r, d in enumerate(datasets):
        if errors[r] is not None:
            continue
        psi_norm = float(np.max(np.abs(psi[r])))
        converged = psi_norm <= tol and not diverged[r]
        fits[r] = ZFit(theta_hat=theta[r].copy(), converged=converged,
                       iterations=int(iterations[r]), psi_norm=psi_norm, jac_at_root=jac[r],
                       n_units=d.n, message="" if converged else messages[r])
        if with_sandwich and converged:
            if min(d.n1, d.n0) < 2:
                fits[r] = _too_few_units(d)
            elif np.isfinite(jac[r]).all():
                wanted.append(r)
    if wanted:
        for r, sigma in zip(wanted, _sandwiches(jac[wanted], _meat(kernels, theta)[wanted])):
            if isinstance(sigma, Exception):
                fits[r] = sigma
            else:
                fits[r].sigma_hat = sigma
    return fits


def solve(
    d: Dataset,
    f: EstimatingFunction,
    theta0=None,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta_cap: float = 1e3,
    compute_sandwich: bool = True,
) -> ZFit:
    """Damped Newton search for a root of the empirical estimating equation.

    The search starts at ``theta0``, or at zeros when it is None.  Steps are
    theta <- theta - lambda * J^-1 Psi_hat with lambda halved until the psi
    norm decreases (and, when the estimating function carries losses, the
    empirical risk does not increase); if no Newton step passes, a step
    along -Psi_hat with an Armijo risk condition is tried.  A singular
    Jacobian is retried once with a scaled ridge.  Failure to converge never
    raises: the search records why it stopped as a code, and the returned
    fit has ``converged=False`` and that code's one message.  Steps and
    trials evaluate the kernels of ``f``, built once on the dataset's arm
    plan, psi and risk together; a kernel may keep a trial's evaluation for
    the Jacobian at the point accepted, and the sandwich reads their scores,
    as in the block search ``_solve_block``.

    ``theta_cap`` flags divergence: iterates whose max-norm exceeds it stop
    the search as non-converged.  Scores that only saturate (separated
    logistic arms, say) can otherwise drift to numerical roots at absurd
    parameter values; raise the cap for problems whose natural scale is
    genuinely that large.

    Raises
    ------
    DegenerateInputError
        If a sandwich is wanted for a converged fit and an arm has fewer
        than two units.
    NumericalError
        If psi is non-finite at the starting point, or if the bread of a
        wanted sandwich is singular.
    """
    theta = np.zeros(f.dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (f.dim,):
        raise SpecificationError(f"theta0 has shape {theta.shape}, expected ({f.dim},)")
    if not np.isfinite(theta).all():
        raise NumericalError("theta0 contains non-finite entries")

    psi = empirical_psi(d, f, theta)  # raises NumericalError if non-finite
    risk = empirical_risk(d, f, theta) if f.has_loss else np.inf
    kernels = _arm_kernels([d], f, True)
    searched = _newton(kernels, theta[None], psi[None], np.array([risk]), f.has_loss,
                       np.ones(1, dtype=bool), tol, max_iter, theta_cap)
    [fit] = _fits([d], kernels, searched, [None],
                  lambda roots: empirical_jacobian(d, f, roots[0])[None], tol, compute_sandwich)
    if isinstance(fit, Exception):
        raise fit
    return fit


def _solve_block(
    datasets,
    f: EstimatingFunction,
    theta0,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    theta_cap: float = 1e3,
) -> list:
    """:func:`solve` with its sandwich on each of R datasets with equal arm
    sizes, as one block search.

    ``theta0`` is (R, p), one start per dataset.  Starts, the Jacobian at
    the root and the sandwich are read from the block kernels of ``f``.
    Returns, per dataset, its :class:`ZFit` or the error :func:`solve`
    would raise on it.  A dataset's result does not depend on the others,
    except that a Jacobian raising NumericalError stops every active row;
    only the per-unit callables of an estimating function without a kernel
    can raise there, and the package's block callers never use one.
    """
    theta = np.array(theta0, dtype=float)
    kernels = _arm_kernels(datasets, f, True)
    psi, risk = _psi_risk(kernels, theta, f.has_loss)
    errors = _score_errors(kernels, theta, psi)
    searched = _newton(kernels, theta, psi, risk, f.has_loss,
                       np.array([e is None for e in errors]), tol, max_iter, theta_cap)
    return _fits(datasets, kernels, searched, errors, partial(_jacobian, kernels), tol, True)


def _describe_null_directions(jac: np.ndarray) -> str:
    _, sing, vt = np.linalg.svd(jac)
    cutoff = max(sing) * 1e-12 if sing.size and max(sing) > 0 else 1.0
    flat = [
        f"direction {np.argmax(np.abs(vt[k])):d} (sv={sing[k]:.2e})"
        for k in range(len(sing))
        if sing[k] <= cutoff
    ]
    return "; ".join(flat) if flat else "no usable directions"


def _meat(kernels, theta: np.ndarray) -> np.ndarray:
    """r1 Cov^1 + r0 Cov^0 of the per-unit scores at each row of theta,
    (R, p, p), with per-arm divisor n_z - 1."""
    meat = 0.0
    for _, kernel, block in kernels:
        scores = kernel.scores(theta)
        centered = scores - scores.mean(axis=1, keepdims=True)
        cov = centered.transpose(0, 2, 1) @ centered / (scores.shape[1] - 1)
        meat = meat + block[0].share * cov
    return meat


def _too_few_units(d: Dataset) -> DegenerateInputError:
    return DegenerateInputError(f"sandwich needs >= 2 units per arm, got n1={d.n1}, n0={d.n0}")


def _sandwich(jac: np.ndarray, meat: np.ndarray) -> np.ndarray:
    """J^-1 meat J^-T, symmetrized, of (R, p, p) stacks; LinAlgError if any
    J is singular."""
    half = np.linalg.solve(jac, meat)
    sigma = np.linalg.solve(jac, half.transpose(0, 2, 1)).transpose(0, 2, 1)
    return 0.5 * (sigma + sigma.transpose(0, 2, 1))


def _sandwiches(jac: np.ndarray, meat: np.ndarray) -> list:
    """Per slice, the sandwich or the NumericalError naming the null
    directions of its singular bread; one batched solve unless one slice is
    singular."""
    try:
        return list(_sandwich(jac, meat))
    except np.linalg.LinAlgError:
        pass
    out = []
    for k in range(len(jac)):
        try:
            out.append(_sandwich(jac[k:k + 1], meat[k:k + 1])[0])
        except np.linalg.LinAlgError:
            out.append(NumericalError(
                "bread matrix is singular; rank-deficient in: "
                + _describe_null_directions(jac[k])
            ))
    return out


def sandwich(d: Dataset, f: EstimatingFunction, fit: ZFit) -> np.ndarray:
    """Conservative sandwich covariance of sqrt(N)(theta_hat - theta).

    The per-unit scores come from arm kernels of ``f`` on the dataset's
    plan, of the kind :func:`solve` iterates with and reads its own
    sandwich from.
    """
    if not fit.converged:
        raise ConvergenceError("sandwich requires a converged fit")
    if min(d.n1, d.n0) < 2:
        raise _too_few_units(d)
    meat = _meat(_arm_kernels([d], f, True), fit.theta_hat[None])
    [sigma] = _sandwiches(fit.jac_at_root[None], meat)
    if isinstance(sigma, Exception):
        raise sigma from None
    return sigma


@dataclass(eq=False)
class WaldSet:
    """Confidence set for v^T theta based on the sandwich covariance."""

    estimate: np.ndarray
    cov: np.ndarray  # covariance of v^T theta_hat itself (Sigma-based / N)
    chi2_crit: float
    alpha: float
    df: int
    intervals: np.ndarray  # (m, 2) per-coordinate z-intervals

    def contains(self, omega) -> bool:
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        diff = self.estimate - omega
        try:
            stat = float(diff @ np.linalg.solve(self.cov, diff))
        except np.linalg.LinAlgError:
            raise NumericalError(
                "the contrast covariance is singular; the Wald set has no "
                "quadratic form to test membership with"
            ) from None
        return stat <= self.chi2_crit

    @property
    def interval(self) -> tuple[float, float]:
        if self.df != 1:
            raise SpecificationError("scalar interval requested for df > 1")
        return float(self.intervals[0, 0]), float(self.intervals[0, 1])


def _normal_critical(alpha: float) -> float:
    """The two-sided normal critical value z_{1 - alpha/2}, taken from the
    lower tail so that a tiny alpha is not rounded away in 1 - alpha/2."""
    if not 0.0 < alpha / 2.0 < 0.5:
        raise SpecificationError(f"alpha must be in (0, 1) with alpha/2 > 0, got {alpha}")
    return -NormalDist().inv_cdf(alpha / 2.0)


def wald_set(fit: ZFit, v, alpha: float = 0.05) -> WaldSet:
    """Asymptotic 1-alpha confidence set for the contrasts v^T theta.

    ``v`` is a p-vector or (p, m) matrix of full column rank.  The set is
    the quadratic form { w : N (v't - w)' (v'Sv)^-1 (v't - w) <= chi2 }.
    Per-coordinate intervals use the marginal normal quantile and coincide
    with the set itself when m = 1.  This is the only function of the
    package that imports scipy, for the chi-square quantile.
    """
    if fit.sigma_hat is None:
        raise ConvergenceError("fit has no sandwich covariance")
    zq = _normal_critical(alpha)
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    p, m = v.shape
    if p != len(fit.theta_hat):
        raise SpecificationError(f"contrast has {p} rows, expected {len(fit.theta_hat)}")
    if np.linalg.matrix_rank(v) < m:
        raise SpecificationError("contrast matrix is rank deficient")
    estimate = v.T @ fit.theta_hat
    cov = v.T @ fit.sigma_hat @ v / fit.n_units
    from scipy import stats  # imported here to keep scipy off the import path
    crit = float(stats.chi2.isf(alpha, df=m))
    half = zq * np.sqrt(np.clip(np.diag(cov), 0.0, None))
    intervals = np.column_stack([estimate - half, estimate + half])
    return WaldSet(
        estimate=estimate, cov=cov, chi2_crit=crit, alpha=alpha, df=m,
        intervals=intervals,
    )
