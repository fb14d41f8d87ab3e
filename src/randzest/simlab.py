"""Monte Carlo harness for coverage and precision studies.

A study fixes one finite population (drawn once from a data-generating
process, then frozen), computes the true g-scale effect from it, and
re-randomizes the treatment assignment R times.  Every configured estimator
runs on every assignment; per-row summaries are the usual sqrt(n)-scaled
bias, SD, RMSE, mean estimated SE, and CI coverage of the truth.

Reproducibility contract: the population uses the Philox stream
(seed, 0) and replication r uses stream (seed, r + 1), so identical
scenario + seed gives a bit-identical table regardless of execution order
and of the block size the maximum-likelihood fits are grouped by; results
are aggregated by replication index.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .ate import (
    AteResult,
    GScale,
    _fitted,
    _ma_from_values,
    adjusted_imputation,
    fit_optimal_adjustment,
    fit_working_models,
    gscale,
    tau_model_based,
    tau_model_imputed,
    tau_unadjusted,
)
from .errors import (
    ConvergenceError,
    DataError,
    NumericalError,
    RandzestError,
    SpecificationError,
)
from .estfun import ModelConfig, squared_loss_start
from .finitepop import Dataset, PotentialTable, draw_assignment, enumerate_assignments, make_rng, observe
from .zestim import _normal_critical

_FAMILY_DISPLAY = {
    "poisson": "Pois",
    "negbin": "NBin",
    "gaussian": "Linear",
    "binomial": "Logit",
}
_KIND_DISPLAY = {
    "b": "B",
    "i": "I",
    "ma": "A",
    "ai": "AI",
    "unadjusted": "",
}
_METHODS = ("mle", "squared-loss")


def _pairs(config: "EstimatorConfig") -> tuple:
    """The (model, method) pairs of the fits an estimator reads, in order."""
    return {"ai": config.imputations, "unadjusted": ()}.get(
        config.kind, ((config.model, config.method),))


@dataclass(frozen=True)
class EstimatorConfig:
    """One table row: which estimator, which working model, how fitted.

    ``model`` is the working model of kinds b, i and ma; a negbin model
    without a fixed kappa gets the per-arm method-of-moments dispersion of
    every replication.  ``method`` is "mle" or, for kind ma only,
    "squared-loss": model-imputed estimation is consistent only for the
    maximum-likelihood fit.  ``imputations`` configures the first stage of
    the adjusted-imputation estimator (kind ai) as ``(ModelConfig, method)``
    pairs.  Every row estimates on its scenario's scale ``g``, the scale of
    the truth it is scored against.  A config is checked when it is made:
    a bad one raises SpecificationError, so no estimator is built from it.
    """

    kind: str  # b | i | ma | ai | unadjusted
    model: Optional[ModelConfig] = None
    method: str = "mle"
    imputations: tuple = ()
    model_label: Optional[str] = None
    interaction_label: Optional[str] = None
    estimation_label: Optional[str] = None

    def __post_init__(self):
        kind, method = self.kind, self.method
        if kind not in _KIND_DISPLAY:
            raise SpecificationError(f"unknown 'kind' {kind!r}; use one of {sorted(_KIND_DISPLAY)}")
        if method != "mle" and kind != "ma":
            raise SpecificationError(f"estimator kind '{kind}' takes method 'mle' only, got '{method}'")
        if kind == "ai" and not self.imputations:
            raise SpecificationError("estimator kind 'ai' needs imputations")
        if kind in ("b", "i", "ma") and self.model is None:
            raise SpecificationError(f"estimator kind '{kind}' needs a model")
        for model, method in _pairs(self):
            if method not in _METHODS:
                raise SpecificationError(f"unknown method '{method}'; use one of {_METHODS}")
            if method == "squared-loss" and not model.interaction:
                raise SpecificationError(
                    f"squared-loss estimation of a {model.family_name} mean needs disjoint "
                    "per-arm parameters; use a model with interaction"
                )

    def labels(self) -> tuple[str, str, str]:
        model = self.model_label
        if model is None:
            family = self.model.family_name if self.model else ""
            model = _FAMILY_DISPLAY.get(family, family)
            if self.kind == "unadjusted":
                model = "Unadjusted"
        inter = self.interaction_label
        if inter is None:
            interaction = self.model is not None and self.model.interaction
            inter = "" if self.kind == "unadjusted" else ("Yes" if interaction else "No")
        estimation = self.estimation_label
        if estimation is None:
            estimation = _KIND_DISPLAY.get(self.kind, self.kind)
            if self.kind == "ma" and self.method == "squared-loss":
                estimation = "A (squared loss)"
        return model, inter, estimation


@dataclass(frozen=True)
class Scenario:
    """A full study description; see the bundled *.scenario files."""

    dgp: str  # heterogeneous | null | custom
    n: int
    n1: int
    estimators: tuple[EstimatorConfig, ...]
    g: str = "log"
    seed: int = 0
    replications: int = 10_000
    alpha: float = 0.05
    custom_generator: Optional[Callable[[np.random.Generator], PotentialTable]] = None

    def __post_init__(self):
        if not 1 <= self.n1 <= self.n - 1:
            raise SpecificationError(f"need 1 <= n1 <= N-1, got n1={self.n1}, N={self.n}")
        _normal_critical(self.alpha)  # raises on an alpha no interval can use
        if not self.estimators:
            raise SpecificationError("scenario needs a non-empty estimator roster")
        if self.dgp not in ("heterogeneous", "null", "custom"):
            raise SpecificationError(f"unknown dgp '{self.dgp}'")
        if self.dgp == "custom" and self.custom_generator is None:
            raise SpecificationError("custom dgp needs a generator callable")


def gen_population(s: Scenario, rng: np.random.Generator) -> PotentialTable:
    """Draw and freeze one finite population for the scenario.

    Heterogeneous-effects process:
        Y(0) = 6 + exp(1 + X1 + X2) + 3 e0
        Y(1) = 11 + exp(3 - X1^2 - X2) + 3 e1
    Null-effects process:
        Y(1) = Y(0) = 10 + exp(1 + X1 - 0.5 X2) + 3 e
    with X1, X2 and the noise terms independent standard normal.  Outcomes
    are rounded to the nearest integer and floored at zero, making them
    counts.  The estimators see only (X1, X2).
    """
    if s.dgp == "custom":
        return s.custom_generator(rng)
    x = rng.standard_normal((s.n, 2))
    x1, x2 = x[:, 0], x[:, 1]
    if s.dgp == "heterogeneous":
        e0 = rng.standard_normal(s.n)
        e1 = rng.standard_normal(s.n)
        y0 = 6.0 + np.exp(1.0 + x1 + x2) + 3.0 * e0
        y1 = 11.0 + np.exp(3.0 - x1**2 - x2) + 3.0 * e1
    else:  # null
        e = rng.standard_normal(s.n)
        y0 = 10.0 + np.exp(1.0 + x1 - 0.5 * x2) + 3.0 * e
        y1 = y0
    y0 = np.clip(np.rint(y0), 0.0, None)
    y1 = np.clip(np.rint(y1), 0.0, None)
    return PotentialTable(y1, y0, x)


# ---------------------------------------------------------------------------
# Fit tables and estimators that read them
# ---------------------------------------------------------------------------

_FAILURE_KINDS = (RandzestError, np.linalg.LinAlgError, FloatingPointError)


def _start(method: str, model: ModelConfig) -> Optional[ModelConfig]:
    """The model whose maximum-likelihood fit a (method, model) fit starts
    from (:func:`~randzest.estfun.squared_loss_start`), or None."""
    family = squared_loss_start(model.family_name) if method != "mle" else None
    return None if family is None else ModelConfig(family, model.interaction)


def _reads(config: EstimatorConfig) -> list[tuple[str, ModelConfig]]:
    """The (method, model) keys of the fits an estimator reads, in order; a
    squared-loss fit is keyed by the model it starts from, whose mean it
    fits (a negbin one is the Poisson one)."""
    return [(method, _start(method, model) or model) for model, method in _pairs(config)]


def _fit_list(configs) -> dict:
    """Every fit a roster reads, once, mapped to the key of the fit it starts
    from (:func:`_start`), which is listed before it; or to None."""
    fits: dict = {}
    for config in configs:
        for method, model in _reads(config):
            start = ("mle", model) if _start(method, model) else None
            if start is not None:
                fits.setdefault(start, None)
            fits.setdefault((method, model), start)
    return fits


def _entry(method: str, model: ModelConfig, spec, fit):
    """The table entry of a fit: (spec, fit), or the error reading it raises."""
    if isinstance(fit, Exception):
        return fit
    if not fit.converged:
        return ConvergenceError(
            f"{method} {model.family_name} fit did not converge after "
            f"{fit.iterations} iterations: {fit.message}"
        )
    return spec, fit


def _squared_loss_fit(d: Dataset, spec, start):
    """The squared-loss fit, or its error, started from the table entry
    ``start`` if it is a converged fit, else from zeros."""
    theta0 = start[1].theta_hat if isinstance(start, tuple) else np.zeros(spec.dim)
    try:
        return fit_optimal_adjustment(d, spec, theta0)
    except _FAILURE_KINDS as exc:
        return exc


def fit_tables(datasets: list, configs) -> list[dict]:
    """Per dataset of a block with equal arm sizes, the table of the fits
    the roster ``configs`` reads: (method, model) maps to (spec, fit), or to
    the error of a fit that raised or did not converge.  Each
    maximum-likelihood model is one block search over the datasets, each
    squared-loss fit one ``fit_optimal_adjustment`` per dataset; a dataset's
    table does not depend on the block."""
    tables: list = [{} for _ in datasets]
    for (method, model), start in _fit_list(configs).items():
        specs = [model.bind(d) for d in datasets]
        if method == "mle":
            results = fit_working_models(datasets, specs)
        else:
            results = [_squared_loss_fit(d, spec, table.get(start))
                       for d, spec, table in zip(datasets, specs, tables)]
        for table, spec, fit in zip(tables, specs, results):
            table[(method, model)] = _entry(method, model, spec, fit)
    return tables


def _read(table: dict, key):
    entry = table[key]
    if isinstance(entry, Exception):
        raise entry
    return entry


def build_estimator(
    config: EstimatorConfig, g: GScale
) -> Callable[[Dataset, dict], AteResult]:
    """Compile a config into an ``estimate(dataset, fits)`` callable on the
    scale ``g`` that reads the dataset's :func:`fit_tables` table and raises
    the error stored for a fit it reads."""
    kind, keys = config.kind, _reads(config)
    if kind == "unadjusted":
        return lambda d, fits: tau_unadjusted(d, g)
    if kind == "ai":
        return lambda d, fits: adjusted_imputation(d, [_read(fits, key) for key in keys], g)
    [key] = keys

    def estimate(d: Dataset, fits: dict) -> AteResult:
        spec, fit = _read(fits, key)
        if kind == "b":
            return tau_model_based(d, spec, fit, g)
        if kind == "i":
            return tau_model_imputed(d, spec, fit, g)
        _, (h1, _), (h0, _) = _fitted(d, spec, fit.theta_hat)
        return _ma_from_values(d, h1, h0, g, "A", (fit,))

    return estimate


# ---------------------------------------------------------------------------
# Study runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyRow:
    model: str
    interaction: str
    estimation: str
    sqrt_n_bias: float
    sqrt_n_sd: float
    sqrt_n_rmse: float
    sqrt_n_ese: float
    coverage: float
    replications_used: int
    failures: int


@dataclass(frozen=True)
class StudyTable:
    rows: tuple[StudyRow, ...]
    truth: float
    n: int
    n1: int
    replications: int
    g: str
    seed: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["Model", "Interaction", "Estimation", "Bias", "SD", "RMSE", "ESE",
             "Coverage", "Used", "Failures"]
        )
        for row in self.rows:
            writer.writerow([
                row.model, row.interaction, row.estimation,
                f"{row.sqrt_n_bias:.4f}", f"{row.sqrt_n_sd:.4f}",
                f"{row.sqrt_n_rmse:.4f}", f"{row.sqrt_n_ese:.4f}",
                f"{row.coverage:.4f}", row.replications_used, row.failures,
            ])
        return buf.getvalue()

    def row(self, estimation: str, model: Optional[str] = None) -> StudyRow:
        for row in self.rows:
            if row.estimation == estimation and (model is None or row.model == model):
                return row
        raise KeyError(f"no row with estimation='{estimation}', model={model!r}")


_BLOCK = 16  # replications whose maximum-likelihood fits are one block solve


def run_study(
    s: Scenario,
    replications: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> StudyTable:
    """Run the full Monte Carlo study for one scenario.

    The truth and every estimator use the scenario's scale ``g``.
    Replications run in blocks of 16.  Each block draws and observes its
    assignments and builds their fit tables (:func:`fit_tables`: one block
    Newton search per maximum-likelihood model, one squared-loss fit per
    replication); the estimators then read each replication's table.  A
    dataset's table does not depend on the block it is fitted in, so the
    study table is bit-identical for every block size.

    Failed replications (non-convergence, scale-domain violations, singular
    fits) are excluded from that estimator's aggregates and counted; a
    failure share above 1% triggers a study-level warning.
    """
    reps = s.replications if replications is None else int(replications)
    if reps < 2:
        raise SpecificationError("a study needs at least 2 replications")
    g = gscale(s.g)
    pop_rng = rng if rng is not None else make_rng(s.seed, stream=0)
    pot = gen_population(s, pop_rng)
    truth = float(g.g(np.mean(pot.y1)) - g.g(np.mean(pot.y0)))

    estimators = [build_estimator(cfg, g) for cfg in s.estimators]
    n_est = len(estimators)
    est = np.full((n_est, reps), np.nan)
    ses = np.full((n_est, reps), np.nan)
    covered = np.zeros((n_est, reps), dtype=bool)
    failed = np.zeros((n_est, reps), dtype=bool)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for first in range(0, reps, _BLOCK):
            block_reps = range(first, min(first + _BLOCK, reps))
            block = [observe(pot, draw_assignment(make_rng(s.seed, stream=rep + 1), s.n, s.n1))
                     for rep in block_reps]
            for rep, data, table in zip(block_reps, block, fit_tables(block, s.estimators)):
                for j, estimate in enumerate(estimators):
                    try:
                        result = estimate(data, table)
                        lo, hi = result.ci(s.alpha)
                    except _FAILURE_KINDS:
                        failed[j, rep] = True
                        continue
                    est[j, rep] = result.tau_hat
                    ses[j, rep] = np.sqrt(result.variance_hat)
                    covered[j, rep] = lo <= truth <= hi

    scale = np.sqrt(s.n)
    rows = []
    for j, cfg in enumerate(s.estimators):
        ok = ~failed[j]
        used = int(ok.sum())
        if used < 2:
            raise NumericalError(
                f"estimator {cfg.labels()} failed in {reps - used} of {reps} replications"
            )
        e = est[j, ok]
        bias = float(e.mean() - truth)
        sd = float(e.std(ddof=1))
        rmse = float(np.sqrt(np.mean((e - truth) ** 2)))
        ese = float(ses[j, ok].mean())
        model, inter, estimation = cfg.labels()
        rows.append(StudyRow(
            model=model, interaction=inter, estimation=estimation,
            sqrt_n_bias=scale * bias, sqrt_n_sd=scale * sd,
            sqrt_n_rmse=scale * rmse,
            sqrt_n_ese=ese,  # per-rep SE already scales by sqrt(variance_hat)
            coverage=float(covered[j, ok].mean()),
            replications_used=used, failures=reps - used,
        ))
        if (reps - used) > 0.01 * reps:
            warnings.warn(
                f"estimator {cfg.labels()} failed in {reps - used} of {reps} "
                "replications; aggregates use the remainder",
                RuntimeWarning,
            )
    return StudyTable(
        rows=tuple(rows), truth=truth, n=s.n, n1=s.n1,
        replications=reps, g=s.g, seed=s.seed,
    )


# ---------------------------------------------------------------------------
# Exact randomization distribution (small-N oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactDistribution:
    mean: float
    variance: float  # exact second moment about the mean (divisor C)
    values: np.ndarray


def exact_randomization_distribution(
    pot: PotentialTable,
    n1: int,
    statistic: Callable[[Dataset], float],
    cap: int = 10**6,
) -> ExactDistribution:
    """Evaluate a statistic on every assignment and return its exact law."""
    values = np.array([
        statistic(observe(pot, a)) for a in enumerate_assignments(pot.n, n1, cap=cap)
    ])
    return ExactDistribution(
        mean=float(values.mean()),
        variance=float(values.var(ddof=0)),
        values=values,
    )


# ---------------------------------------------------------------------------
# Scenario files (JSON)
# ---------------------------------------------------------------------------

_TOP_LEVEL_KEYS = ("N", "alpha", "dgp", "estimators", "g", "n1", "replications", "seed")
_MODEL_KEYS = ("family", "interaction", "kappa", "method")
_ENTRY_KEYS = ("estimation", "imputations", "interaction_label", "kind", "model", *_MODEL_KEYS)


def _check_keys(where: str, raw: dict, allowed: tuple) -> None:
    unknown = sorted(set(raw.keys()) - set(allowed))
    if unknown:
        raise DataError(f"{where}: unknown key {unknown[0]!r}; use one of {sorted(allowed)}")


def _model_from_dict(where: str, raw: dict, imputation: bool):
    """The (working model, fitting method) pair of a scenario entry.

    An ``imputations`` entry needs a ``family``, takes no other keys than
    the model's, and its ``interaction`` defaults to true; a top-level entry
    without a family has no model.
    """
    if imputation:
        _check_keys(where, raw, _MODEL_KEYS)
    method = raw.get("method", "mle")
    if method not in _METHODS:
        raise DataError(f"{where}: unknown 'method' {method!r}; use one of {_METHODS}")
    interaction = raw.get("interaction", imputation)
    if not isinstance(interaction, bool):
        raise DataError(f"{where}: bad 'interaction': expected true or false, got {interaction!r}")
    if "family" not in raw:
        if imputation:
            raise DataError(f"{where}: missing key 'family'")
        return None, method
    try:
        model = ModelConfig(raw["family"], interaction, raw.get("kappa"))
    except SpecificationError as exc:
        key = "kappa" if raw["family"] == "negbin" else "family"
        raise DataError(f"{where}: bad '{key}': {exc}") from None
    return model, method


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario a JSON document describes.

    Unknown keys, the top-level ``g`` and every estimator entry are checked
    here, so a bad one is a DataError naming its location rather than a
    failure inside :func:`run_study`; an entry is checked by making its
    :class:`EstimatorConfig`.
    """
    try:
        _check_keys("top level", doc, _TOP_LEVEL_KEYS)
        try:
            gscale(doc.get("g", "log"))
        except SpecificationError as exc:
            raise DataError(f"bad top-level 'g': {exc}") from None
        configs = []
        for j, e in enumerate(doc["estimators"]):
            where = f"estimators[{j}]"
            if "g" in e:
                raise DataError(f"{where}: key 'g' ({e['g']!r}) is not allowed; "
                                "every row estimates on the top-level 'g'")
            _check_keys(where, e, _ENTRY_KEYS)
            model, method = _model_from_dict(where, e, imputation=False)
            imputations = tuple(
                _model_from_dict(f"{where}.imputations[{k}]", imp, imputation=True)
                for k, imp in enumerate(e.get("imputations", ()))
            )
            try:
                configs.append(EstimatorConfig(
                    kind=e["kind"], model=model, method=method, imputations=imputations,
                    model_label=e.get("model"),
                    interaction_label=e.get("interaction_label"),
                    estimation_label=e.get("estimation"),
                ))
            except SpecificationError as exc:
                raise DataError(f"{where}: {exc}") from None
        return Scenario(
            dgp=doc["dgp"],
            n=int(doc["N"]),
            n1=int(doc["n1"]),
            estimators=tuple(configs),
            g=doc.get("g", "log"),
            seed=int(doc.get("seed", 0)),
            replications=int(doc.get("replications", 10_000)),
            alpha=float(doc.get("alpha", 0.05)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad scenario document: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read scenario file {path}: {exc}") from exc
    return scenario_from_dict(doc)


def bundled_scenario_path(name: str) -> str:
    """Path of a scenario file shipped with the package (e.g. 'table_a1')."""
    here = os.path.dirname(__file__)
    path = os.path.join(here, "scenarios", f"{name}.scenario")
    if not os.path.exists(path):
        raise DataError(f"no bundled scenario named '{name}'")
    return path
