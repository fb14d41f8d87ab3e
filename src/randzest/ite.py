"""Working models for individual treatment effects.

No individual effect tau_i = Y_i(1) - Y_i(0) is ever observed, but each one
has the unbiased single-unit estimate

    tau_hat_i = Z_i Y_i / r1 - (1 - Z_i) Y_i / r0,

and any estimating equation that is linear in the tau_i's stays estimable
after substituting tau_hat_i.  That restricts the working models to an
exponential-dispersion shape with natural parameter t = x~'theta (x~ the
covariates with an intercept column prepended) and normalizer u(t); the
dispersion never enters the equation and is not estimated.  The per-arm
estimating functions are the theta-gradients of the losses u(t) - s_z(y) t
with s_1(y) = y / r1 and s_0(y) = -y / r0:

    psi_1 = (u'(t) - y / r1) x~
    psi_0 = (u'(t) + y / r0) x~,

so the empirical equation is the average of (u'(t_i) - tau_hat_i) x~_i over
all units.  It is solved with the generic Z-estimation machinery, on the
same design kernel as the working GLMs (Jacobian weight u''(t)), and covered
by the same conservative sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SpecificationError
from .estfun import EstimatingFunction, _design_estfun, collinear
from .finitepop import Dataset, fp_var
from .zestim import ZFit, empirical_psi, sandwich, solve


def pseudo_effects(d: Dataset) -> np.ndarray:
    """Unbiased per-unit effect estimates Z*Y/r1 - (1-Z)*Y/r0."""
    z = d.z.astype(float)
    return z * d.y / d.r1 - (1.0 - z) * d.y / d.r0


def pseudo_effects_adjusted(
    d: Dataset,
    h1: Callable[[np.ndarray, np.ndarray], np.ndarray],
    h0: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta_fixed,
) -> np.ndarray:
    """Residualized pseudo effects around fixed imputation functions.

    Exactly unbiased only because ``theta_fixed`` is predetermined; fitting
    theta on the same data voids the guarantee, so no fitted variant is
    offered.
    """
    theta = np.asarray(theta_fixed, dtype=float)
    a1 = np.asarray(h1(d.x, theta), dtype=float)
    a0 = np.asarray(h0(d.x, theta), dtype=float)
    z = d.z.astype(float)
    return (a1 - a0) + z * (d.y - a1) / d.r1 - (1.0 - z) * (d.y - a0) / d.r0


@dataclass(frozen=True, eq=False)
class EdfTauModel:
    """Effect working model with natural parameter t = x~'theta.

    ``forms`` maps an (n,) vector of t values to the per-unit values of the
    normalizer u and of its first two derivatives in t, ``(u, u', u'')``,
    from one evaluation.  ``dim`` counts the columns of x~, intercept
    included, so the model uses the first dim - 1 covariate columns of the
    data it is given.
    """

    dim: int
    forms: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def ite_estfun(model: EdfTauModel, r1: float) -> EstimatingFunction:
    """Estimating function whose empirical equation averages
    (u'(t_i) - tau_hat_i) x~_i over all units; psi is the gradient of the
    losses u(t) - s_z(y) t."""
    if not 0.0 < r1 < 1.0:
        raise SpecificationError(f"r1 must be in (0, 1), got {r1}")
    scale = {1: 1.0 / r1, 0: -1.0 / (1.0 - r1)}  # s_z(y) = scale[z] * y

    def evaluate(y, t, arm):
        u, u_dt, u_dt2 = model.forms(t)
        return u_dt - scale[arm] * y, u_dt2, u - scale[arm] * y * t

    slots = np.arange(model.dim)
    return _design_estfun(model.dim, model.dim - 1, {1: slots, 0: slots}, evaluate)


def _with_columns(d: Dataset, columns) -> Dataset:
    """Swap in custom effect-model covariates, keeping outcome/assignment."""
    if columns is None:
        return d
    cols = np.asarray(columns, dtype=float)
    if cols.ndim == 1:
        cols = cols.reshape(-1, 1)
    if cols.shape[0] != d.n:
        raise SpecificationError(f"design has {cols.shape[0]} rows for {d.n} units")
    return Dataset(d.assignment, d.y, cols)


def normal_linear_model(n_columns: int) -> EdfTauModel:
    """Normal effect model with linear mean: u(t) = t^2 / 2.

    ``n_columns`` counts the covariate columns; the intercept is prepended
    internally, so dim = n_columns + 1.
    """
    return EdfTauModel(dim=n_columns + 1, forms=lambda t: (0.5 * t**2, t, np.ones_like(t)))


@dataclass(eq=False)
class NormalLinearFit:
    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    fitted: np.ndarray  # per-unit linear approximations x~' theta_hat
    zfit: ZFit


def fit_normal_linear(d: Dataset, columns=None) -> NormalLinearFit:
    """Closed-form fit of the Normal-linear effect model.

    The root of the estimating equation is the least-squares projection of
    the pseudo effects on the intercept-augmented design (default design:
    the dataset covariates).  The generic solver starts there, so its fit
    reports the convergence check at the closed-form root; the sandwich
    covariance comes from the generic machinery.  Non-finite outcomes or
    covariates raise NumericalError naming their units.
    """
    d_fit = _with_columns(d, columns)
    design = d_fit.plan.design
    estfun = ite_estfun(normal_linear_model(design.shape[1] - 1), d_fit.r1)
    empirical_psi(d_fit, estfun, np.zeros(estfun.dim))  # non-finite data raise here, by unit
    gram = design.T @ design / d.n
    if collinear(gram, d.n):
        raise SpecificationError("effect-model design matrix is rank deficient")
    theta = np.linalg.solve(gram, design.T @ pseudo_effects(d_fit) / d.n)
    zfit = solve(d_fit, estfun, theta, compute_sandwich=False)
    zfit.sigma_hat = sandwich(d_fit, estfun, zfit)
    return NormalLinearFit(
        theta_hat=zfit.theta_hat,
        sigma_hat=zfit.sigma_hat,
        fitted=design @ zfit.theta_hat,
        zfit=zfit,
    )


def ternary_model(n_columns: int, gamma: float) -> EdfTauModel:
    """Three-point effect model for binary outcomes (tau in {-1, 0, 1}).

    u(t) = log(exp(t) + exp(-t) + gamma); gamma = 2 matches the
    modified-covariate likelihood, gamma = 1 the multinomial logit.  The
    natural parameter is clamped to +/-35 before exponentials.
    """
    if not (np.isfinite(gamma) and gamma > 0):
        raise SpecificationError(f"gamma must be finite and positive, got {gamma}")

    def forms(t):
        t = np.clip(t, -35.0, 35.0)
        ep, em = np.exp(t), np.exp(-t)
        denom = ep + em + gamma
        return np.log(denom), (ep - em) / denom, (gamma * (ep + em) + 4.0) / denom**2

    return EdfTauModel(dim=n_columns + 1, forms=forms)


@dataclass(eq=False)
class TernaryFit:
    beta_hat: np.ndarray
    sigma_hat: Optional[np.ndarray]
    zfit: ZFit


def fit_ternary(d: Dataset, gamma: float = 2.0, columns=None) -> TernaryFit:
    """Fit the ternary effect model to a binary-outcome experiment."""
    if not np.isin(d.y, (0.0, 1.0)).all():
        raise SpecificationError("ternary effect model needs outcomes in {0, 1}")
    d_fit = _with_columns(d, columns)
    model = ternary_model(d_fit.x.shape[1], gamma)
    fit = solve(d_fit, ite_estfun(model, d_fit.r1))
    return TernaryFit(beta_hat=fit.theta_hat, sigma_hat=fit.sigma_hat, zfit=fit)


@dataclass(frozen=True)
class EffectDecomposition:
    """Split of effect variation into explained and residual parts.

    ``pseudo`` mode flags that the inputs were pseudo effects, whose
    variance overstates the variance of the true effects; treat those
    numbers as diagnostics only.
    """

    var_tau: float
    var_u: float
    var_resid: float
    r_squared: float
    mode: str

    @property
    def is_diagnostic_only(self) -> bool:
        return self.mode == "pseudo"


def effect_variance_decomposition(tau, u, mode: str = "oracle") -> EffectDecomposition:
    """Variance split Var(tau) ~ Var(u) + Var(tau - u) and uncentered R^2.

    R^2 = 1 - sum((tau - u)^2) / sum(tau^2); the additivity of the variance
    split is exact when u is the least-squares projection of tau on a
    design containing an intercept.
    """
    if mode not in ("oracle", "pseudo"):
        raise SpecificationError(f"mode must be 'oracle' or 'pseudo', got {mode}")
    tau = np.asarray(tau, dtype=float)
    u = np.asarray(u, dtype=float)
    if tau.shape != u.shape:
        raise SpecificationError(f"shapes differ: {tau.shape} vs {u.shape}")
    denom = float(np.sum(tau**2))
    rsq = 1.0 - float(np.sum((tau - u) ** 2)) / denom if denom > 0 else 0.0
    return EffectDecomposition(
        var_tau=fp_var(tau),
        var_u=fp_var(u),
        var_resid=fp_var(tau - u),
        r_squared=rsq,
        mode=mode,
    )
