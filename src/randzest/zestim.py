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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from scipy import stats

from .errors import (
    ConvergenceError,
    DegenerateInputError,
    NumericalError,
    SpecificationError,
)
from .estfun import EstimatingFunction, UnitKernel
from .finitepop import Dataset, PotentialTable, fp_cov_matrix

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
_MIN_STEP = 1e-12


@dataclass(eq=False)
class ZFit:
    """Result of a Z-estimation solve.

    ``sigma_hat`` is the conservative sandwich covariance of the
    sqrt(N)-scaled estimator; it is filled in by :func:`solve` whenever the
    fit converged and both arms have at least two units.
    """

    theta_hat: np.ndarray
    converged: bool
    iterations: int
    psi_norm: float
    jac_at_root: np.ndarray
    n_units: int
    sigma_hat: Optional[np.ndarray] = None
    message: str = ""

    def to_document(self) -> dict:
        return {
            "theta": [float(v) for v in self.theta_hat],
            "sigma": None if self.sigma_hat is None
            else [[float(v) for v in row] for row in self.sigma_hat],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "psi_norm": float(self.psi_norm),
        }


def _arm_kernels(d: Dataset, f: EstimatingFunction, fused: bool) -> tuple:
    """(kernel, arm rows) of the treated and the control arm of the dataset's
    plan: the estimating function's own kernel if ``fused`` and it has one,
    else its per-unit callables adapted."""
    make = f.kernel if fused and f.kernel is not None else partial(UnitKernel, f)
    plan = d.plan
    return (make(1, plan.treated), plan.treated), (make(0, plan.control), plan.control)


def _psi_risk(kernels, theta: np.ndarray, with_risk: bool) -> tuple[np.ndarray, float]:
    """Psi_hat(theta) and, if asked, the empirical risk (else inf); non-finite
    per-unit scores raise NumericalError naming their units."""
    (k1, rows1), (k0, rows0) = kernels
    psi1, risk1 = k1.mean(theta, with_risk)
    psi0, risk0 = k0.mean(theta, with_risk)
    for arm, kernel, mean, rows in ((1, k1, psi1, rows1), (0, k0, psi0, rows0)):
        if np.isfinite(mean).all():
            continue
        bad = ~np.isfinite(kernel.scores(theta)).all(axis=1)
        if bad.any():
            where = np.flatnonzero(rows.units)[bad][:5]
            raise NumericalError(
                f"psi_{arm} produced non-finite values at unit index(es) "
                f"{where.tolist()} (theta={theta.tolist()})"
            )
    risk = float(rows1.share * risk1 + rows0.share * risk0) if with_risk else np.inf
    return rows1.share * psi1 + rows0.share * psi0, risk


def _jacobian(kernels, theta: np.ndarray) -> np.ndarray:
    (k1, rows1), (k0, rows0) = kernels
    return rows1.share * k1.jacobian(theta) + rows0.share * k0.jacobian(theta)


def empirical_psi(d: Dataset, f: EstimatingFunction, theta) -> np.ndarray:
    """The observed estimating equation Psi_hat(theta)."""
    return _psi_risk(_arm_kernels(d, f, False), np.asarray(theta, dtype=float), False)[0]


def population_psi(
    pot: PotentialTable, f: EstimatingFunction, theta, r1: float
) -> np.ndarray:
    """Oracle estimating equation using both potential-outcome columns."""
    theta = np.asarray(theta, dtype=float)
    psi1 = f.psi1(pot.y1, pot.x, theta)
    psi0 = f.psi0(pot.y0, pot.x, theta)
    return r1 * psi1.mean(axis=0) + (1.0 - r1) * psi0.mean(axis=0)


def empirical_risk(d: Dataset, f: EstimatingFunction, theta) -> float:
    """The observed risk r1*mean(loss_1) + r0*mean(loss_0)."""
    if not f.has_loss:
        raise SpecificationError("estimating function carries no losses")
    theta = np.asarray(theta, dtype=float)
    treated, control = d.plan.treated, d.plan.control
    l1 = f.loss1(treated.y, treated.x, theta)
    l0 = f.loss0(control.y, control.x, theta)
    return float(treated.share * np.mean(l1) + control.share * np.mean(l0))


def empirical_jacobian(d: Dataset, f: EstimatingFunction, theta) -> np.ndarray:
    """Jacobian of the empirical estimating equation at theta.

    Uses the per-unit analytic Jacobians when the estimating function
    carries them, otherwise central finite differences of each arm's mean
    score with per-coordinate step 1e-6 * (1 + |theta_k|).
    """
    return _jacobian(_arm_kernels(d, f, False), np.asarray(theta, dtype=float))


def _ridge(jac: np.ndarray) -> np.ndarray:
    p = jac.shape[0]
    scale = abs(np.trace(jac)) / p
    return jac + 1e-8 * (scale if scale > 0 else 1.0) * np.eye(p)


def _gradient_search(kernels, theta, psi, risk):
    """Armijo backtracking along -psi, the risk's descent direction, for when
    the Newton direction points uphill in the risk (an indefinite Jacobian
    near saddles of a nonlinear least-squares surface); None if it fails."""
    grad_sq = float(psi @ psi)
    lam = 1.0 / (1.0 + np.linalg.norm(psi))
    while lam >= _MIN_STEP:
        candidate = theta - lam * psi
        try:
            psi_new, risk_new = _psi_risk(kernels, candidate, True)
        except NumericalError:
            lam *= 0.5
            continue
        if np.isfinite(risk_new) and risk_new <= risk - 1e-4 * lam * grad_sq:
            return candidate, psi_new, risk_new
        lam *= 0.5
    return None


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
    raises: the returned fit has ``converged=False`` and a diagnostic
    message.  Steps and trials evaluate the kernels of ``f``, built once on
    the dataset's arm plan, psi and risk together; a kernel may keep a
    trial's evaluation for the Jacobian at the point accepted.

    ``theta_cap`` flags divergence: iterates whose max-norm exceeds it stop
    the search as non-converged.  Scores that only saturate (separated
    logistic arms, say) can otherwise drift to numerical roots at absurd
    parameter values; raise the cap for problems whose natural scale is
    genuinely that large.

    Raises
    ------
    NumericalError
        If psi is non-finite at the starting point.
    """
    theta = np.zeros(f.dim) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (f.dim,):
        raise SpecificationError(f"theta0 has shape {theta.shape}, expected ({f.dim},)")
    if not np.isfinite(theta).all():
        raise NumericalError("theta0 contains non-finite entries")

    psi = empirical_psi(d, f, theta)  # raises NumericalError if non-finite
    use_risk = f.has_loss
    risk = empirical_risk(d, f, theta) if use_risk else np.inf
    kernels = _arm_kernels(d, f, True)
    message = ""
    iterations = 0
    diverged = False

    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(psi)) <= tol:
            iterations -= 1
            break
        try:
            jac = _jacobian(kernels, theta)
        except NumericalError as exc:
            message = f"Jacobian evaluation failed: {exc}"
            break
        try:
            step = np.linalg.solve(jac, psi)
        except np.linalg.LinAlgError:
            try:
                step = np.linalg.solve(_ridge(jac), psi)
            except np.linalg.LinAlgError:
                message = "Jacobian singular even after ridge regularization"
                break
        if not np.isfinite(step).all():
            message = "Newton step is non-finite"
            break

        found = None
        lam = 1.0
        psi_norm = np.linalg.norm(psi)
        while lam >= _MIN_STEP:
            candidate = theta - lam * step
            try:
                psi_new, risk_new = _psi_risk(kernels, candidate, use_risk)
            except NumericalError:
                lam *= 0.5
                continue
            ok = np.linalg.norm(psi_new) < psi_norm
            if ok and use_risk:
                ok = np.isfinite(risk_new) and risk_new <= risk + 1e-14 * (1 + abs(risk))
            if ok:
                found = candidate, psi_new, risk_new
                break
            lam *= 0.5
        if found is None and use_risk:
            found = _gradient_search(kernels, theta, psi, risk)
        if found is None:
            message = "line search failed to reduce the psi norm"
            break
        theta, psi, risk = found
        if np.max(np.abs(theta)) > theta_cap:
            diverged = True
            message = (
                f"diverging theta: max |theta_k| = {np.max(np.abs(theta)):.3g} "
                f"exceeds the cap {theta_cap:.3g}"
            )
            break
    else:
        message = (
            f"no convergence in {max_iter} iterations "
            f"(|theta| = {np.linalg.norm(theta):.3g}, possible divergence)"
        )

    psi_norm = float(np.max(np.abs(psi)))
    converged = psi_norm <= tol and not diverged
    try:
        jac_at_root = empirical_jacobian(d, f, theta)
    except NumericalError:
        jac_at_root = np.full((f.dim, f.dim), np.nan)
    fit = ZFit(
        theta_hat=theta,
        converged=converged,
        iterations=iterations,
        psi_norm=psi_norm,
        jac_at_root=jac_at_root,
        n_units=d.n,
        message="" if converged else message,
    )
    if (
        converged and compute_sandwich and d.n1 >= 2 and d.n0 >= 2
        and np.isfinite(jac_at_root).all()
    ):
        fit.sigma_hat = sandwich(d, f, fit)
    return fit


def _describe_null_directions(jac: np.ndarray) -> str:
    _, sing, vt = np.linalg.svd(jac)
    cutoff = max(sing) * 1e-12 if sing.size and max(sing) > 0 else 1.0
    flat = [
        f"direction {np.argmax(np.abs(vt[k])):d} (sv={sing[k]:.2e})"
        for k in range(len(sing))
        if sing[k] <= cutoff
    ]
    return "; ".join(flat) if flat else "no usable directions"


def sandwich(d: Dataset, f: EstimatingFunction, fit: ZFit) -> np.ndarray:
    """Conservative sandwich covariance of sqrt(N)(theta_hat - theta).

    The per-unit scores come from the arm kernels of ``f`` on the dataset's
    plan, the same kernels :func:`solve` iterates with.
    """
    if not fit.converged:
        raise ConvergenceError("sandwich requires a converged fit")
    if d.n1 < 2 or d.n0 < 2:
        raise DegenerateInputError(
            f"sandwich needs >= 2 units per arm, got n1={d.n1}, n0={d.n0}"
        )
    (k1, rows1), (k0, rows0) = _arm_kernels(d, f, True)
    meat = rows1.share * fp_cov_matrix(k1.scores(fit.theta_hat)) + \
        rows0.share * fp_cov_matrix(k0.scores(fit.theta_hat))
    jac = fit.jac_at_root
    try:
        half = np.linalg.solve(jac, meat)
        sigma = np.linalg.solve(jac, half.T).T
    except np.linalg.LinAlgError:
        raise NumericalError(
            "bread matrix is singular; rank-deficient in: "
            + _describe_null_directions(jac)
        ) from None
    return 0.5 * (sigma + sigma.T)


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
        stat = float(diff @ np.linalg.solve(self.cov, diff))
        return stat <= self.chi2_crit

    @property
    def interval(self) -> tuple[float, float]:
        if self.df != 1:
            raise SpecificationError("scalar interval requested for df > 1")
        return float(self.intervals[0, 0]), float(self.intervals[0, 1])


def wald_set(fit: ZFit, v, alpha: float = 0.05) -> WaldSet:
    """Asymptotic 1-alpha confidence set for the contrasts v^T theta.

    ``v`` is a p-vector or (p, m) matrix of full column rank.  The set is
    the quadratic form { w : N (v't - w)' (v'Sv)^-1 (v't - w) <= chi2 }.
    Per-coordinate intervals use the marginal normal quantile and coincide
    with the set itself when m = 1.
    """
    if fit.sigma_hat is None:
        raise ConvergenceError("fit has no sandwich covariance")
    if not 0.0 < alpha < 1.0:
        raise SpecificationError(f"alpha must be in (0, 1), got {alpha}")
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
    crit = float(stats.chi2.ppf(1.0 - alpha, df=m))
    zq = float(stats.norm.ppf(1.0 - alpha / 2.0))
    half = zq * np.sqrt(np.clip(np.diag(cov), 0.0, None))
    intervals = np.column_stack([estimate - half, estimate + half])
    return WaldSet(
        estimate=estimate, cov=cov, chi2_crit=crit, alpha=alpha, df=m,
        intervals=intervals,
    )
