"""Average-treatment-effect estimation on a g-scale.

Three estimator families read the fitted means h_z(x_i; theta) of working models:

* model-based: average of per-unit fitted contrasts, biased in general;
* model-imputed: plug the averaged imputations into g, consistent only for
  canonical maximum-likelihood fits;
* model-assisted: compare arm averages of mean-preserving adjusted
  outcomes, consistent for any adjustment function and any parameter value;
  with zero adjustment it is the unadjusted estimator.

All variances here scale sqrt(N) * (estimator - estimand); confidence
intervals divide by N.  Scale-domain violations raise rather than clamp, so
coverage studies cannot be silently corrupted.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, SpecificationError
from .estfun import (
    GlmFamily,
    MeanSpec,
    ModelConfig,
    collinear,
    glm_mean,
    glm_score_estfun,
    leading_design,
    squared_loss_estfun,
    squared_loss_start,
)
from .finitepop import Dataset, group_moments
from .zestim import ZFit, _normal_critical, _solve_block, solve


@dataclass(frozen=True)
class GScale:
    """A scale function g with derivative, for effects g(Ybar1) - g(Ybar0)."""

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    gdot: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray]


IDENTITY = GScale(
    "identity",
    g=lambda y: np.asarray(y, dtype=float),
    gdot=lambda y: np.ones_like(np.asarray(y, dtype=float)),
    in_domain=lambda y: np.isfinite(np.asarray(y, dtype=float)),
)
LOG = GScale(
    "log",
    g=np.log,
    gdot=lambda y: 1.0 / np.asarray(y, dtype=float),
    in_domain=lambda y: np.asarray(y, dtype=float) > 0,
)
LOGIT = GScale(
    "logit",
    g=lambda y: np.log(np.asarray(y, dtype=float) / (1.0 - np.asarray(y, dtype=float))),
    gdot=lambda y: 1.0 / (np.asarray(y, dtype=float) * (1.0 - np.asarray(y, dtype=float))),
    in_domain=lambda y: (np.asarray(y, dtype=float) > 0) & (np.asarray(y, dtype=float) < 1),
)

_SCALES = {s.name: s for s in (IDENTITY, LOG, LOGIT)}


def gscale(name: str) -> GScale:
    try:
        return _SCALES[name.lower()]
    except KeyError:
        raise SpecificationError(
            f"unknown g-scale '{name}'; expected one of {sorted(_SCALES)}"
        ) from None


def _require_domain(g: GScale, values: np.ndarray, what: str) -> None:
    """Raise DomainError naming the units whose per-unit ``values`` are
    outside g's domain."""
    bad = np.flatnonzero(~g.in_domain(values))
    if bad.size:
        raise DomainError(f"{what} outside the domain of g={g.name} at {bad.size} "
                          f"position(s): {bad[:10].tolist()}")


def _require_mean_domain(g: GScale, mean: float, what: str, values, units=True) -> None:
    """Raise DomainError stating ``mean`` if it is outside g's domain, naming
    the units (mask ``units``) where the ``values`` it averages are not finite."""
    if g.in_domain(mean):
        return
    bad = np.flatnonzero(~np.isfinite(values) & units)  # none if the mean is finite
    detail = f"; it averages non-finite values at unit(s) {bad[:10].tolist()}" if bad.size else ""
    raise DomainError(f"{what} {mean:.6g} outside the domain of g={g.name}{detail}")


@dataclass(eq=False)
class AteResult:
    """Point estimate plus the variance of its sqrt(N)-scaled version."""

    tau_hat: float
    variance_hat: float
    estimator_kind: str
    g_scale: str
    n_units: int
    fits: tuple[ZFit, ...] = ()

    def se(self) -> float:
        return float(np.sqrt(self.variance_hat / self.n_units))

    def ci(self, alpha: float = 0.05) -> tuple[float, float]:
        half = _normal_critical(alpha) * self.se()
        return self.tau_hat - half, self.tau_hat + half

    def to_document(self, alpha: float = 0.05) -> dict:
        lo, hi = self.ci(alpha)
        return {
            "tau_hat": float(self.tau_hat),
            "se": self.se(),
            "ci_low": float(lo),
            "ci_high": float(hi),
            "alpha": float(alpha),
            "estimator_kind": self.estimator_kind,
            "g_scale": self.g_scale,
        }


# ---------------------------------------------------------------------------
# Fitted means; model-based and model-imputed estimators (delta-method variance)
# ---------------------------------------------------------------------------

def _fitted(d: Dataset, spec: MeanSpec, theta) -> tuple:
    """(design, (h1, dh1), (h0, dh0)): every unit's fitted mean h_z(x_i; theta)
    under each arm's working model and its eta-derivative, from one
    evaluation of the family per arm on ``design``, the leading columns of
    the dataset's [1, x] that the model reads."""
    design = leading_design(d.plan.design, spec.n_covariates)
    forms1 = spec.family._mean_forms(design @ spec._coef(1, theta))
    forms0 = spec.family._mean_forms(design @ spec._coef(0, theta))
    return design, forms1[1:3], forms0[1:3]


def _delta_variance(spec: MeanSpec, fit: ZFit, fitted: tuple, gdot1, gdot0) -> float:
    """Delta-method variance grad' Sigma grad of an effect E_1 - E_0.

    E_z depends on theta only through the fitted means h_z(x_i) of
    ``fitted`` (:func:`_fitted` at the fit's theta), whose linear predictors
    are design @ theta[indices(z)]; ``gdot_z`` is N times dE_z / dh_z(x_i),
    per unit or one number for all units.  The chain rule gives
    mean(gdot_z * dh_z * design) in the indices(z) slots; where the arms
    share slopes, their contributions add.
    """
    if fit.sigma_hat is None:
        raise ConvergenceError("fit has no sandwich covariance for the delta method")
    design, (_, dh1), (_, dh0) = fitted
    grad = np.zeros(spec.dim)
    for arm, gdot, dmean in ((1, gdot1, dh1), (0, -gdot0, dh0)):
        grad[spec.indices(arm)] += np.mean((gdot * dmean)[:, None] * design, axis=0)
    return max(float(grad @ fit.sigma_hat @ grad), 0.0)


def tau_model_based(d: Dataset, spec: MeanSpec, fit: ZFit, g: GScale) -> AteResult:
    """Average of per-unit fitted contrasts g(h1(x)) - g(h0(x))."""
    fitted = _fitted(d, spec, fit.theta_hat)
    _, (h1, _), (h0, _) = fitted
    _require_domain(g, h1, "treated fitted means")
    _require_domain(g, h0, "control fitted means")
    return AteResult(
        tau_hat=float(np.mean(g.g(h1) - g.g(h0))),
        variance_hat=_delta_variance(spec, fit, fitted, g.gdot(h1), g.gdot(h0)),
        estimator_kind="B",
        g_scale=g.name,
        n_units=d.n,
        fits=(fit,),
    )


def tau_model_imputed(d: Dataset, spec: MeanSpec, fit: ZFit, g: GScale) -> AteResult:
    """Contrast of g applied to population-averaged imputations."""
    fitted = _fitted(d, spec, fit.theta_hat)
    _, (h1, _), (h0, _) = fitted
    m1, m0 = float(np.mean(h1)), float(np.mean(h0))
    _require_mean_domain(g, m1, "treated imputation average", h1)
    _require_mean_domain(g, m0, "control imputation average", h0)
    return AteResult(
        tau_hat=float(g.g(m1) - g.g(m0)),
        variance_hat=_delta_variance(spec, fit, fitted, g.gdot(m1), g.gdot(m0)),
        estimator_kind="I",
        g_scale=g.name,
        n_units=d.n,
        fits=(fit,),
    )


# ---------------------------------------------------------------------------
# Model-assisted estimator
# ---------------------------------------------------------------------------

def _ma_from_values(
    d: Dataset,
    adj1: np.ndarray,
    adj0: np.ndarray,
    g: GScale,
    kind: str,
    fits: tuple[ZFit, ...],
) -> AteResult:
    """Model-assisted estimate from per-unit adjustment values.

    The observed outcome of every unit is shifted by its own arm's
    adjustment, recentered by that adjustment's population average, so each
    arm average stays unbiased for the corresponding potential-outcome mean.
    """
    adj1 = np.asarray(adj1, dtype=float)
    adj0 = np.asarray(adj0, dtype=float)
    adjusted = np.where(
        d.plan.treated.units,
        d.y - adj1 + adj1.mean(),
        d.y - adj0 + adj0.mean(),
    )
    return _from_moments(d, adjusted, g, kind, fits)


def _from_moments(d: Dataset, adjusted, g: GScale, kind: str,
                  fits: tuple[ZFit, ...]) -> AteResult:
    """g(mean1) - g(mean0) from each arm's mean and variance of its adjusted
    outcomes (per unit; None for the observed ones), with the conservative
    variance of the sqrt(N)-scaled effect."""
    (mean1, var1), (mean0, var0) = group_moments(d, 1, adjusted), group_moments(d, 0, adjusted)
    values = d.y if adjusted is None else adjusted
    _require_mean_domain(g, mean1, "treated adjusted mean", values, d.plan.treated.units)
    _require_mean_domain(g, mean0, "control adjusted mean", values, d.plan.control.units)
    tau = float(g.g(mean1) - g.g(mean0))
    variance = (
        float(g.gdot(mean1)) ** 2 * var1 / d.r1
        + float(g.gdot(mean0)) ** 2 * var0 / d.r0
    )
    return AteResult(
        tau_hat=tau,
        variance_hat=max(variance, 0.0),
        estimator_kind=kind,
        g_scale=g.name,
        n_units=d.n,
        fits=fits,
    )


def tau_model_assisted(
    d: Dataset,
    h1: Callable[[np.ndarray, np.ndarray], np.ndarray],
    h0: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta,
    g: GScale,
) -> AteResult:
    """Model-assisted estimator with adjustment functions h_z(x; theta).

    ``theta`` may be predetermined or fitted; consistency does not depend
    on it.  The conservative variance is the sample analogue that drops the
    unidentifiable potential-outcome cross term.
    """
    theta = np.asarray(theta, dtype=float)
    return _ma_from_values(
        d, np.asarray(h1(d.x, theta), dtype=float),
        np.asarray(h0(d.x, theta), dtype=float), g, "A", (),
    )


def mean_adjustment(spec: MeanSpec):
    """Adjustment-function pair built from a working model's means."""

    def h1(x, theta):
        return glm_mean(spec, 1, x, theta)

    def h0(x, theta):
        return glm_mean(spec, 0, x, theta)

    return h1, h0


def tau_unadjusted(d: Dataset, g: GScale) -> AteResult:
    """Difference of g(arm means): model-assisted with zero adjustment, which
    leaves each arm's outcome moments as they are."""
    return _from_moments(d, None, g, "unadjusted", ())


def _intercept_start(d: Dataset, spec: MeanSpec) -> np.ndarray:
    """Start alpha_z = link(mean of arm z's outcomes), slopes 0: the root of
    the intercept-only model.  Zeros if any entry is not finite (a binomial
    arm of all 0 or all 1, a Poisson arm of zeros, an empty arm)."""
    theta = np.zeros(spec.dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        for arm in (1, 0):
            y = d.plan.arm(arm).y
            theta[spec.alpha_index(arm)] = spec.family.link(y.mean()) if y.size else np.nan
    return theta if np.isfinite(theta).all() else np.zeros(spec.dim)


def fit_working_model(d: Dataset, spec: MeanSpec) -> ZFit:
    """Maximum-likelihood fit of a working GLM: :func:`fit_working_models`
    on a block of one, raising the error it returns.  The Newton search
    starts at the intercept-only root (each arm's intercept the link of its
    outcome mean, slopes 0), or at zeros where that root is not finite.
    """
    [fit] = fit_working_models([d], [spec])
    if isinstance(fit, Exception):
        raise fit
    return fit


def _block_spec(specs: Sequence[MeanSpec]) -> MeanSpec:
    """One spec for a block of bindings of the same model: a negbin family
    carries each arm's per-dataset dispersions as an (R, 1) column."""
    spec = specs[0]
    if spec.family.kappa is None:
        return spec
    kappa = tuple(np.array([[s.family.kappa[k]] for s in specs]) for k in (0, 1))
    return dataclasses.replace(spec, family=GlmFamily(spec.family.name, kappa=kappa))


def fit_working_models(datasets: Sequence[Dataset], specs: Sequence[MeanSpec]) -> list:
    """Maximum-likelihood fits of each dataset's spec, as one block solve.

    The datasets share their arm sizes and the specs one model, bound to
    each dataset (negbin dispersions may differ).  Returns, per dataset, its
    fit or the error its search raised, independent of the block.
    """
    theta0 = [_intercept_start(d, spec) for d, spec in zip(datasets, specs)]
    return _solve_block(datasets, glm_score_estfun(_block_spec(specs)), theta0)


def fit_optimal_adjustment(d: Dataset, spec: MeanSpec, theta0=None) -> ZFit:
    """Per-arm squared-loss fit of the adjustment functions.

    Per arm the squared-error risk is the variance of y - h_z plus its
    squared mean, and the estimated model-assisted variance is that variance
    alone, so the fit minimizes it only where a free additive intercept per
    arm zeroes the mean residual: for a linear mean, not for a log or logit
    one.  Without ``theta0`` the search starts from the canonical fit of the
    same mean (:func:`~randzest.estfun.squared_loss_start`), which keeps it
    inside the basin of the least-squares root; a linear mean, or a
    canonical fit that fails or does not converge, starts at zeros.
    """
    estfun = squared_loss_estfun(spec)  # raises if parameters are shared
    start = squared_loss_start(spec.family.name)
    if theta0 is None and start is not None:
        warm = ModelConfig(start, True).build(spec.n_covariates)
        [prefit] = fit_working_models([d], [warm])
        if isinstance(prefit, ZFit) and prefit.converged:
            theta0 = prefit.theta_hat
    return solve(d, estfun, theta0)


# ---------------------------------------------------------------------------
# Two-step adjustment on imputed potential outcomes
# ---------------------------------------------------------------------------

def _arm_least_squares(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """OLS coefficients with a deterministic ridge where the (n, q) design's
    Gram matrix is :func:`~randzest.estfun.collinear`."""
    gram = design.T @ design
    rhs = design.T @ y
    if collinear(gram, design.shape[0]):
        lam = 1e-8 * np.trace(gram) / design.shape[1]
        warnings.warn(
            "imputed adjustment columns are collinear; ridge-regularizing "
            f"the second-stage least squares (lambda={lam:.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
        gram = gram + lam * np.eye(design.shape[1])
    return np.linalg.solve(gram, rhs)


def adjusted_imputation(
    d: Dataset,
    imputations: Sequence[tuple[MeanSpec, ZFit]],
    g: GScale,
) -> AteResult:
    """Model-assisted estimation on linearly combined imputations.

    ``imputations`` holds the first stage: (spec, fit) pairs of working
    models, each fitted by its own method.  Step 2 regresses the observed
    outcome, per arm, on an intercept plus all 2J imputed columns; step 3
    runs the model-assisted estimator with the fitted linear adjustment and
    its conservative variance.
    """
    if not imputations:
        raise SpecificationError("adjusted imputation needs at least one model")
    columns: list[np.ndarray] = []
    for spec, fit in imputations:
        if not fit.converged:
            raise ConvergenceError(
                f"first-stage imputation fit did not converge: {fit.message}"
            )
        _, (h1, _), (h0, _) = _fitted(d, spec, fit.theta_hat)
        columns += [h0, h1]
    full_design = np.column_stack([np.ones(d.n)] + columns)
    adj = {}
    for arm in (1, 0):
        rows = d.plan.arm(arm)
        coef = _arm_least_squares(full_design[rows.units], rows.y)
        adj[arm] = full_design @ coef
    return _ma_from_values(d, adj[1], adj[0], g, "AI", tuple(fit for _, fit in imputations))
