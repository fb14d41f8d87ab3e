"""Estimating functions and generalized-linear working models.

An :class:`EstimatingFunction` packages the pair of per-arm score functions
(psi_1, psi_0) that defines a Z-estimation problem, with optional analytic
Jacobians and loss functions.  All callables are vectorized over units:
``psi(y, x, theta)`` takes an outcome vector of length n and an (n, d)
covariate matrix and returns an (n, p) matrix of per-unit scores.

The solver evaluates each arm of a block of datasets through an arm kernel
(see :class:`UnitKernel`).  The working-model factories here and
:func:`randzest.ite.ite_estfun` define each score by three scalar functions
of (y, eta) -- score factor, Jacobian weight, loss -- whose kernel forms eta
once per theta and the Jacobian as a weighted Gram matrix, by batched
products over the block.  A negative binomial family may carry each
dataset's dispersions as (R, 1) columns, one row per dataset of a block.

The concrete families here are the canonical-link GLMs (linear, logistic,
Poisson) plus negative binomial regression with a log link and fixed
dispersion.  Scores are normalized so the residual coefficient is one,
i.e. the dispersion factor is divided out; the root of the estimating
equation is unchanged and the dispersion never needs to be estimated.
Aliases (linear, logistic) are stored under their canonical family names.

Numerical guard: each evaluation of a family clamps the linear predictor
to [-35, 35] once, before any exponential/logistic.  Outside that range
the clamped predictor is treated as constant, so all derivatives vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import SpecificationError
from .finitepop import with_intercept

ETA_CLAMP = 35.0
_FD_STEP = 1e-6

@dataclass(frozen=True, eq=False)
class EstimatingFunction:
    """Vectorized per-arm estimating functions with optional extras.

    Attributes
    ----------
    dim : int
        Parameter dimension p.
    psi1, psi0 : callable(y, x, theta) -> (n, p)
        Per-unit scores for the treated / control arm.
    jac1, jac0 : callable(y, x, theta) -> (n, p, p), optional
        Analytic per-unit derivatives of psi with respect to theta.
    loss1, loss0 : callable(y, x, theta) -> (n,), optional
        Per-unit losses whose theta-gradients are psi1 / psi0.
    kernel : callable(arm, block) -> arm kernel, optional
        Fused evaluator of the same functions on one arm of a block of
        datasets, a sequence of :class:`~randzest.finitepop.ArmRows` of
        equal length (see :class:`UnitKernel`);
        ``dataclasses.replace`` keeps it, so it must agree with the
        callables it is kept with.
    """

    dim: int
    psi1: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    psi0: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    jac1: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    jac0: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    loss1: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    loss0: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    kernel: Optional[Callable[[int, object], object]] = None

    @property
    def has_jacobian(self) -> bool:
        return self.jac1 is not None and self.jac0 is not None

    @property
    def has_loss(self) -> bool:
        return self.loss1 is not None and self.loss0 is not None


class UnitKernel:
    """Arm kernel adapted from an estimating function's per-unit callables.

    An arm kernel evaluates one arm of a block of R datasets with equal arm
    sizes, on fixed rows (a sequence of R
    :class:`~randzest.finitepop.ArmRows`), at an (R, p) array of parameters,
    one row per dataset: ``scores(theta)`` gives the (R, n, p) per-unit
    scores, ``mean(theta, with_risk)`` the (R, p) arm-mean scores and, on
    request, the (R,) arm-mean losses (else None), and ``jacobian(theta)``
    the (R, p, p) arm-mean Jacobians; here a central finite difference of
    the arm-mean score (step 1e-6 * (1 + |theta_k|)) when no analytic
    Jacobians are carried.  This kernel loops over the block.
    """

    def __init__(self, f: EstimatingFunction, arm: int, block):
        self.rows = [(rows.y, rows.x) for rows in block]
        self._psi = f.psi1 if arm == 1 else f.psi0
        self._jac = (f.jac1 if arm == 1 else f.jac0) if f.has_jacobian else None
        self._loss = f.loss1 if arm == 1 else f.loss0

    def _each(self, fn, theta):
        return [fn(y, x, t) for (y, x), t in zip(self.rows, theta)]

    def scores(self, theta):
        return np.array(self._each(self._psi, theta))

    def mean(self, theta, with_risk: bool = False):
        psi = np.array([scores.mean(axis=0) for scores in self._each(self._psi, theta)])
        if not with_risk:
            return psi, None
        return psi, np.array([np.mean(loss) for loss in self._each(self._loss, theta)])

    def jacobian(self, theta):
        if self._jac is not None:
            return np.array([jac.mean(axis=0) for jac in self._each(self._jac, theta)])
        theta = np.asarray(theta, dtype=float)
        jac = np.empty(theta.shape + theta.shape[-1:])
        for k in range(theta.shape[1]):
            step = np.zeros_like(theta)
            step[:, k] = _FD_STEP * (1.0 + np.abs(theta[:, k]))
            diff = self.mean(theta + step)[0] - self.mean(theta - step)[0]
            jac[:, :, k] = diff / (2 * step[:, k:k + 1])
        return jac


def _clamp(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamped predictor and the 0/1 derivative factor of the clamp."""
    inside = (np.abs(eta) < ETA_CLAMP).astype(float)
    # np.clip's values (NaN included) without its per-call wrapper cost
    return np.minimum(np.maximum(eta, -ETA_CLAMP), ETA_CLAMP), inside


@dataclass(frozen=True, eq=False)
class GlmFamily:
    """One exponential-dispersion family on the linear-predictor scale.

    ``name`` is the family's :class:`ModelConfig` name: gaussian (identity
    link), binomial (logit), poisson or negbin (log).  Each method reads
    one evaluation at eta (``_mean_forms``): the clamped predictor and the
    mean with its first two predictor derivatives, from one clip and one
    exp.  ``score_weight_loss`` is the family's one formula for the
    (normalized) minus log-density and its first two eta-derivatives: the
    score factor (the score in theta is it times ``(1, x)``), the Jacobian
    weight and the loss.  ``kappa`` is the fixed negative-binomial
    dispersion (per arm: two numbers, or two (R, 1) columns for a block of
    R datasets); it is None otherwise.
    """

    name: str
    kappa: Optional[tuple[float, float]] = None

    @property
    def is_canonical(self) -> bool:
        return self.name != "negbin"

    def _kappa(self, arm: int) -> float:
        if self.kappa is None:
            raise SpecificationError("dispersion requested for a non-negbin family")
        return self.kappa[0] if arm == 1 else self.kappa[1]

    def _mean_forms(self, eta: np.ndarray) -> tuple[np.ndarray, ...]:
        """(eta_c, mu, dmu, d2mu, inside): the clamped predictor, the mean and
        its first two predictor derivatives, and the clamp's 0/1 factor."""
        eta = np.asarray(eta, dtype=float)
        if self.name == "gaussian":
            one = np.ones_like(eta)
            return eta, eta, one, np.zeros_like(eta), one
        eta_c, inside = _clamp(eta)
        if self.name == "binomial":
            mu = 1.0 / (1.0 + np.exp(-eta_c))
            dmu = mu * (1.0 - mu)
            return eta_c, mu, dmu * inside, dmu * (1.0 - 2.0 * mu) * inside, inside
        mu = np.exp(eta_c)  # poisson and negbin
        dmu = mu * inside
        return eta_c, mu, dmu, dmu, inside

    def mean(self, eta: np.ndarray) -> np.ndarray:
        return self._mean_forms(eta)[1]

    def link(self, mu: np.ndarray) -> np.ndarray:
        """Canonical link g = (mean)^-1 on the mean scale."""
        mu = np.asarray(mu, dtype=float)
        if self.name == "gaussian":
            return mu
        if self.name == "binomial":
            return np.log(mu / (1.0 - mu))
        return np.log(mu)

    def score_weight_loss(self, y: np.ndarray, eta: np.ndarray,
                          arm: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dloss/deta, d2loss/deta2, loss) at eta from one evaluation."""
        y = np.asarray(y, dtype=float)
        eta_c, mu, dmu, _, inside = self._mean_forms(eta)
        if self.name == "negbin":
            # loss up to theta-free terms; log1p keeps large kappa stable
            kappa = self._kappa(arm)
            return (-kappa * (y - mu) / (kappa + mu) * inside,
                    kappa * mu * (kappa + y) / (kappa + mu) ** 2 * inside,
                    -y * eta_c + (y + kappa) * np.log1p(mu / kappa))
        if self.name == "gaussian":
            loss = 0.5 * eta_c**2 - y * eta_c
        elif self.name == "binomial":
            loss = np.logaddexp(0.0, eta_c) - y * eta_c
        else:
            loss = mu - y * eta_c
        return (mu - y) * inside, dmu, loss


def gaussian_family() -> GlmFamily:
    return GlmFamily("gaussian")


def binomial_family() -> GlmFamily:
    return GlmFamily("binomial")


def poisson_family() -> GlmFamily:
    return GlmFamily("poisson")


def negbin_family(kappa) -> GlmFamily:
    """Negative binomial, log link, fixed dispersion.

    ``kappa`` is a positive scalar used for both arms, or a (treated,
    control) pair.  Larger kappa means closer to Poisson.
    """
    try:
        if np.isscalar(kappa):
            pair = (float(kappa), float(kappa))
        else:
            pair = (float(kappa[0]), float(kappa[1]))
    except (IndexError, TypeError, ValueError):
        raise SpecificationError(
            f"negbin dispersion must be a number, got kappa={kappa!r}"
        ) from None
    if not (np.isfinite(pair).all() and min(pair) > 0):
        raise SpecificationError(f"negbin dispersion must be finite and positive, got kappa={pair}")
    return GlmFamily("negbin", kappa=pair)


_FAMILIES = {  # every accepted family name -> (canonical name, builder)
    "gaussian": ("gaussian", gaussian_family),
    "linear": ("gaussian", gaussian_family),
    "binomial": ("binomial", binomial_family),
    "logistic": ("binomial", binomial_family),
    "poisson": ("poisson", poisson_family),
    "negbin": ("negbin", negbin_family),
}


def squared_loss_start(family_name: str) -> Optional[str]:
    """The family whose maximum-likelihood fit starts a squared-loss fit of a
    ``family_name`` mean: the canonical family of that mean, Poisson for a
    negbin mean (the squared loss reads the mean only, so the two fits are
    one); None for a linear mean, whose least squares start at zeros."""
    if family_name == "gaussian":
        return None
    return "poisson" if family_name == "negbin" else family_name


def _check_width(n_covariates: int, available: int) -> None:
    if available < n_covariates:
        raise SpecificationError(f"model needs {n_covariates} covariates, data has {available}")


def intercept_design(x: np.ndarray, n_covariates: int) -> np.ndarray:
    """Intercept-augmented rows (n, n_covariates + 1) of a covariate matrix.

    Consumes the first ``n_covariates`` columns of x, so a narrower working
    model (intercept-only, say) can run on a wider dataset.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    _check_width(n_covariates, x.shape[1])
    return with_intercept(x[:, :n_covariates])


def leading_design(design: np.ndarray, n_covariates: int) -> np.ndarray:
    """The rows of :func:`intercept_design`, read from a [1, x] design that
    holds them already (a dataset plan's).

    A model that reads every covariate gets the design itself.  A narrower
    one gets a contiguous copy of the leading columns: a strided view would
    change the rounding of the products taken with it.
    """
    _check_width(n_covariates, design.shape[1] - 1)
    return np.ascontiguousarray(design[:, :n_covariates + 1])


def collinear(gram: np.ndarray, n_rows: int) -> bool:
    """Whether the (q, q) Gram matrix of an (n_rows, q) design is singular to
    rounding: its smallest eigenvalue at most max(n_rows, q) * eps times its
    largest.  The rule reads the Gram matrix the caller solves with, so a
    design whose columns are distinct in floating point but not in that
    matrix counts as collinear."""
    eig = np.linalg.eigvalsh(gram)
    return bool(eig[0] <= eig[-1] * max(n_rows, gram.shape[0]) * np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class MeanSpec:
    """Arm-specific GLM mean functions h_z(x; theta) over a flat parameter.

    Layout with interaction (arm-specific slopes):
        theta = (alpha_1, alpha_0, beta_1[0..d-1], beta_0[0..d-1])
    Layout without interaction (one shared slope vector):
        theta = (alpha_1, alpha_0, beta[0..d-1])
    """

    family: GlmFamily
    interaction: bool
    n_covariates: int

    @property
    def dim(self) -> int:
        d = self.n_covariates
        return 2 + (2 * d if self.interaction else d)

    @cached_property
    def _indices(self) -> dict[int, np.ndarray]:
        d = self.n_covariates
        out = {}
        for arm in (1, 0):
            start = 2 + d if self.interaction and arm == 0 else 2
            out[arm] = np.concatenate([[self.alpha_index(arm)], np.arange(start, start + d)])
            out[arm].flags.writeable = False
        return out

    def indices(self, arm: int) -> np.ndarray:
        """Flat-theta positions of (alpha_arm, beta_arm), built once per spec
        and read-only."""
        return self._indices[1 if arm == 1 else 0]

    def alpha_index(self, arm: int) -> int:
        return 0 if arm == 1 else 1

    def _coef(self, arm: int, theta: np.ndarray) -> np.ndarray:
        """(alpha_arm, beta_arm) of a flat theta of this spec's shape."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise SpecificationError(
                f"theta has shape {theta.shape}, expected ({self.dim},)"
            )
        return theta[self.indices(arm)]

    def eta(self, arm: int, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Linear predictors of the covariate rows x."""
        return intercept_design(x, self.n_covariates) @ self._coef(arm, theta)


def glm_mean(spec: MeanSpec, arm: int, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Fitted conditional means h_arm(x; theta) for each covariate row."""
    return spec.family.mean(spec.eta(arm, x, theta))


class _DesignKernel:
    """Arm kernel of a model whose scores are score(y, eta) * design rows in
    the arm's parameter slots, eta = design @ theta[slots].  It runs on one
    dataset's rows (``design`` (n, q), ``y`` (n,), theta (p,)) or on a block
    of R datasets (a leading axis on all three: (R, n, q), (R, n), (R, p)).
    eta is formed once per evaluation by one (batched) product, and the
    arm-mean Jacobian is design' diag(weight) design / n in the slots'
    block, placed through the flat positions ``flat`` of that block in a
    (dim, dim) matrix.  Every product is taken slice by slice, so a
    dataset's numbers do not depend on the block it is evaluated in.

    ``evaluate(y, eta, arm)`` gives (score, weight, loss) from one
    evaluation; it is the kernel's only evaluation of its model.  A trial
    ``mean(theta, with_risk)`` keeps its weights, so the Jacobian at the
    points a solve has just evaluated (its last trial) reuses them.
    """

    def __init__(self, design, y, arm: int, slots, flat, dim: int, evaluate):
        self.design, self.y = design, np.asarray(y, dtype=float)
        self.arm, self.slots, self.flat, self.dim = arm, slots, flat, dim
        self.evaluate = evaluate
        self._trial = (None, None)  # (bytes of theta[..., slots], weight) of the last trial

    def _coef(self, theta):
        return np.asarray(theta, dtype=float).take(self.slots, axis=-1)

    def _eta(self, coef):
        return (self.design @ coef[..., None])[..., 0]

    def _weight(self, theta):
        coef = self._coef(theta)
        key, weight = self._trial
        if coef.tobytes() == key:
            return weight
        return self.evaluate(self.y, self._eta(coef), self.arm)[1]

    def scores(self, theta):
        factor = self.evaluate(self.y, self._eta(self._coef(theta)), self.arm)[0]
        out = np.zeros(self.y.shape + (self.dim,))
        out[..., self.slots] = factor[..., None] * self.design
        return out

    def unit_jacobians(self, theta):
        w = self._weight(theta)
        block = w[..., None, None] * self.design[..., :, None] * self.design[..., None, :]
        out = np.zeros(self.y.shape + (self.dim * self.dim,))
        out[..., self.flat] = block.reshape(self.y.shape + (-1,))
        return out.reshape(self.y.shape + (self.dim, self.dim))

    def losses(self, theta):
        return self.evaluate(self.y, self._eta(self._coef(theta)), self.arm)[2]

    def mean(self, theta, with_risk: bool = False):
        coef = self._coef(theta)
        score, weight, loss = self.evaluate(self.y, self._eta(coef), self.arm)
        self._trial = (coef.tobytes(), weight)
        n = self.y.shape[-1]
        psi = np.zeros(coef.shape[:-1] + (self.dim,))
        psi[..., self.slots] = (score[..., None, :] @ self.design)[..., 0, :] / n
        # the reduction np.mean runs, without its wrapper cost
        return psi, (loss.sum(axis=-1) / n if with_risk else None)

    def jacobian(self, theta):
        w = self._weight(theta)
        lead = w.shape[:-1]
        gram = self.design.swapaxes(-1, -2) @ (w[..., None] * self.design) / w.shape[-1]
        out = np.zeros(lead + (self.dim * self.dim,))
        out[..., self.flat] = gram.reshape(lead + (-1,))
        return out.reshape(lead + (self.dim, self.dim))


def _design_estfun(dim: int, n_covariates: int, slots, evaluate) -> EstimatingFunction:
    """Estimating function on ``dim`` parameters whose arm-z scores are
    score * design in the positions ``slots[z]``, with design the
    intercept-augmented first ``n_covariates`` covariates and
    eta = design @ theta[slots[z]].  ``evaluate(y, eta, z)`` gives that
    score factor with its eta-derivative (the Jacobian weight) and the loss
    whose eta-derivative is the score, from one evaluation, elementwise.
    The kernel stacks a block of arm plans' design columns; the per-unit
    callables build them from x and are evaluated by the same kernel class
    on one dataset."""
    flat = {arm: (s[:, None] * dim + s).ravel() for arm, s in slots.items()}

    def make(arm, design, y):
        return _DesignKernel(design, y, arm, slots[arm], flat[arm], dim, evaluate)

    def kernel(arm, block):
        if len(block) == 1:  # a view of the plan's rows, not a stacked copy
            rows = block[0]
            return make(arm, leading_design(rows.design, n_covariates)[None], rows.y[None])
        return make(arm, np.stack([leading_design(rows.design, n_covariates) for rows in block]),
                    np.stack([rows.y for rows in block]))

    def per_unit(arm, method):
        def evaluate_units(y, x, theta):
            return getattr(make(arm, intercept_design(x, n_covariates), y), method)(theta)
        return evaluate_units

    return EstimatingFunction(
        dim=dim,
        psi1=per_unit(1, "scores"), psi0=per_unit(0, "scores"),
        jac1=per_unit(1, "unit_jacobians"), jac0=per_unit(0, "unit_jacobians"),
        loss1=per_unit(1, "losses"), loss0=per_unit(0, "losses"),
        kernel=kernel,
    )


def _spec_estfun(spec: MeanSpec, evaluate) -> EstimatingFunction:
    """:func:`_design_estfun` of a working GLM's mean functions."""
    slots = {arm: spec.indices(arm) for arm in (1, 0)}
    return _design_estfun(spec.dim, spec.n_covariates, slots, evaluate)


def glm_score_estfun(spec: MeanSpec) -> EstimatingFunction:
    """Maximum-likelihood scores for the working GLM.

    psi_z has entries -(y - h_z(x; theta)) * (1, x) in the (alpha_z, beta_z)
    slots and zero in the other arm's slots (negative binomial replaces the
    raw residual with its dispersion-weighted form).  Analytic Jacobians and
    normalized minus log-density losses are attached.
    """
    return _spec_estfun(spec, spec.family.score_weight_loss)


def squared_loss_estfun(spec: MeanSpec) -> EstimatingFunction:
    """Nonlinear-least-squares scores for the same mean functions.

    psi_z = -2 (y - h_z(x; theta)) dh_z/dtheta with loss (y - h_z)^2.  The
    two arms must not share parameters, so the spec needs interaction=True.
    """
    if not spec.interaction:
        raise SpecificationError(
            "squared-loss estimation needs disjoint per-arm parameters; "
            "use a spec with interaction=True"
        )
    def evaluate(y, eta, arm):
        _, mu, dmu, d2mu, _ = spec.family._mean_forms(eta)
        resid = y - mu
        return -2.0 * resid * dmu, 2.0 * (dmu**2 - resid * d2mu), resid**2

    return _spec_estfun(spec, evaluate)


def canonical_q_vectors(spec: MeanSpec, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contrast vectors turning the GLM score into the raw residual.

    For canonical families, q_z^T psi_z(y, x; theta) = y - h_z(x; theta) and
    q_z^T psi_(1-z) = 0 pointwise; this is the algebraic reason the
    model-imputed estimator is consistent for those fits.  Negative binomial
    has no such vectors (its score is not residual-linear), so it is
    rejected.
    """
    if not spec.family.is_canonical:
        raise SpecificationError(
            f"q-vectors exist only for canonical families, not {spec.family.name}"
        )
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.dim,):
        raise SpecificationError(f"theta has shape {theta.shape}, expected ({spec.dim},)")
    q1 = np.zeros(spec.dim)
    q0 = np.zeros(spec.dim)
    q1[spec.alpha_index(1)] = -1.0
    q0[spec.alpha_index(0)] = -1.0
    return q1, q0


# ---------------------------------------------------------------------------
# Model descriptions: family[:interact][:kappa=<v>]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    """A working-model description, bound to data later via bind().

    The family is checked on construction and stored under its canonical
    name, so an alias (linear, logistic) equals the model it names.
    ``kappa`` is the fixed negbin dispersion, or None (also spelled
    "moment") to estimate it per arm from the data at bind time.  Other
    families have no dispersion, so their kappa is always None and equal
    models compare (and hash) equal.
    """

    family_name: str
    interaction: bool = False
    kappa: Optional[float] = None

    def __post_init__(self):
        if self.family_name not in _FAMILIES:
            raise SpecificationError(
                f"unknown family '{self.family_name}'; expected one of {sorted(_FAMILIES)}"
            )
        object.__setattr__(self, "family_name", _FAMILIES[self.family_name][0])
        fixed = self.family_name == "negbin" and self.kappa not in (None, "moment")
        if fixed:
            if not np.isscalar(self.kappa):  # negbin_family would take a pair
                raise SpecificationError(f"negbin kappa must be one number, got {self.kappa!r}")
            negbin_family(self.kappa)  # raises unless a finite positive number
        object.__setattr__(self, "kappa", float(self.kappa) if fixed else None)

    def build(self, n_covariates: int) -> MeanSpec:
        builder = _FAMILIES[self.family_name][1]
        if self.family_name != "negbin":
            return MeanSpec(builder(), self.interaction, n_covariates)
        if self.kappa is None:
            raise SpecificationError(
                "negbin model needs kappa= in the spec string or a "
                "dispersion estimated from data"
            )
        return MeanSpec(builder(self.kappa), self.interaction, n_covariates)

    def bind(self, d) -> MeanSpec:
        """The model on a dataset's covariates; negbin without a fixed kappa
        gets the per-arm :func:`moment_kappa` of the dataset."""
        if self.family_name == "negbin" and self.kappa is None:
            return MeanSpec(negbin_family(moment_kappa(d)), self.interaction, d.x.shape[1])
        return self.build(d.x.shape[1])


def parse_model_spec(text: str) -> ModelConfig:
    """Parse ``family[:interact][:kappa=<v>]``, e.g. ``poisson:interact``."""
    parts = [p.strip() for p in text.split(":") if p.strip()]
    if not parts:
        raise SpecificationError("empty model spec")
    interaction = False
    kappa = None
    for part in parts[1:]:
        if part.lower() in ("interact", "interaction"):
            interaction = True
        elif part.lower().startswith("kappa="):
            try:
                kappa = float(part.split("=", 1)[1])
            except ValueError:
                raise SpecificationError(f"bad kappa value in '{part}'") from None
        else:
            raise SpecificationError(f"unknown model spec token '{part}'")
    return ModelConfig(parts[0].lower(), interaction, kappa)


def moment_kappa(d) -> tuple[float, float]:
    """Per-arm method-of-moments negbin dispersion from observed outcomes.

    Matches arm mean and variance through Var = mu + mu^2/kappa.  Arms whose
    sample variance does not exceed the mean get a very large kappa, which
    makes the fit effectively Poisson.
    """
    out = []
    for picked in (d.plan.treated.y, d.plan.control.y):
        mu = picked.mean()
        var = picked.var(ddof=1) if picked.size > 1 else 0.0
        if var > mu and mu > 0:
            out.append(float(mu**2 / (var - mu)))
        else:
            out.append(1e8)
    return out[0], out[1]
