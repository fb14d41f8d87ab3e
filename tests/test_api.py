"""The public surface of randzest, pinned.

``SURFACE`` maps every public name of the package (submodules aside) to
what a caller reads of it: the parameter names of a function or of a
class's constructor, space-separated; ``<property>`` for a property;
``<exception>`` for an error class; ``<Type>`` for a constant.  A public
class's own methods and properties appear as ``Class.member``.  Adding,
removing or renaming any of them changes this file in the same commit.
"""

import functools
import inspect
import types

import randzest as rz

SURFACE = {
    "Assignment": "z",
    "Assignment.n": "<property>",
    "Assignment.n0": "<property>",
    "Assignment.n1": "<property>",
    "AteResult": "tau_hat variance_hat estimator_kind g_scale n_units fits",
    "AteResult.ci": "self alpha",
    "AteResult.se": "self",
    "AteResult.to_document": "self alpha",
    "ConvergenceError": "<exception>",
    "DataError": "<exception>",
    "Dataset": "assignment y x",
    "Dataset.n": "<property>",
    "Dataset.n0": "<property>",
    "Dataset.n1": "<property>",
    "Dataset.plan": "<property>",
    "Dataset.r0": "<property>",
    "Dataset.r1": "<property>",
    "Dataset.z": "<property>",
    "DegenerateInputError": "<exception>",
    "DimensionError": "<exception>",
    "DomainError": "<exception>",
    "EdfTauModel": "dim forms",
    "EffectDecomposition": "var_tau var_u var_resid r_squared mode",
    "EffectDecomposition.is_diagnostic_only": "<property>",
    "EnumerationTooLargeError": "<exception>",
    "EstimatingFunction": "dim psi1 psi0 jac1 jac0 loss1 loss0 kernel",
    "EstimatingFunction.has_jacobian": "<property>",
    "EstimatingFunction.has_loss": "<property>",
    "EstimatorConfig": "kind model method imputations model_label interaction_label "
                       "estimation_label",
    "EstimatorConfig.labels": "self",
    "GScale": "name g gdot in_domain",
    "GlmFamily": "name kappa",
    "GlmFamily.is_canonical": "<property>",
    "GlmFamily.link": "self mu",
    "GlmFamily.mean": "self eta",
    "GlmFamily.score_weight_loss": "self y eta arm",
    "IDENTITY": "<GScale>",
    "LOG": "<GScale>",
    "LOGIT": "<GScale>",
    "MeanSpec": "family interaction n_covariates",
    "MeanSpec.alpha_index": "self arm",
    "MeanSpec.dim": "<property>",
    "MeanSpec.eta": "self arm x theta",
    "MeanSpec.indices": "self arm",
    "NumericalError": "<exception>",
    "PotentialTable": "y1 y0 x",
    "PotentialTable.n": "<property>",
    "RandzestError": "<exception>",
    "Scenario": "dgp n n1 estimators g seed replications alpha custom_generator",
    "SpecificationError": "<exception>",
    "StudyTable": "rows truth n n1 replications g seed",
    "StudyTable.row": "self estimation model",
    "StudyTable.to_csv": "self",
    "WaldSet": "estimate cov chi2_crit alpha df intervals",
    "WaldSet.contains": "self omega",
    "WaldSet.interval": "<property>",
    "ZFit": "theta_hat converged iterations psi_norm jac_at_root n_units sigma_hat message",
    "adjusted_imputation": "d imputations g",
    "binomial_family": "",
    "bundled_scenario_path": "name",
    "canonical_q_vectors": "spec theta",
    "draw_assignment": "rng n n1",
    "effect_variance_decomposition": "tau u mode",
    "empirical_jacobian": "d f theta",
    "empirical_psi": "d f theta",
    "empirical_risk": "d f theta",
    "enumerate_assignments": "n n1 cap",
    "exact_randomization_distribution": "pot n1 statistic cap",
    "fit_normal_linear": "d columns",
    "fit_optimal_adjustment": "d spec theta0",
    "fit_ternary": "d gamma columns",
    "fit_working_model": "d spec",
    "fp_var": "values",
    "gaussian_family": "",
    "gen_population": "s rng",
    "glm_mean": "spec arm x theta",
    "glm_score_estfun": "spec",
    "group_mean": "d arm values",
    "group_moments": "d arm values",
    "gscale": "name",
    "ite_estfun": "model r1",
    "load_scenario": "path",
    "make_rng": "seed stream",
    "mean_adjustment": "spec",
    "moment_kappa": "d",
    "negbin_family": "kappa",
    "normal_linear_model": "n_columns",
    "observe": "pot a",
    "parse_model_spec": "text",
    "poisson_family": "",
    "population_psi": "pot f theta r1",
    "pseudo_effects": "d",
    "pseudo_effects_adjusted": "d h1 h0 theta_fixed",
    "read_dataset_csv": "path",
    "read_potential_csv": "path",
    "run_study": "s replications rng",
    "sandwich": "d f fit",
    "solve": "d f theta0 tol max_iter theta_cap compute_sandwich",
    "squared_loss_estfun": "spec",
    "tau_model_assisted": "d h1 h0 theta g",
    "tau_model_based": "d spec fit g",
    "tau_model_imputed": "d spec fit g",
    "tau_unadjusted": "d g",
    "ternary_model": "n_columns gamma",
    "wald_set": "fit v alpha",
}


def _parameters(obj) -> str:
    return " ".join(inspect.signature(obj).parameters)


def _surface() -> dict:
    out = {}
    for name, obj in sorted(vars(rz).items()):
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if inspect.isclass(obj) and issubclass(obj, Exception):
            out[name] = "<exception>"
            continue
        if not callable(obj):
            out[name] = f"<{type(obj).__name__}>"
            continue
        out[name] = _parameters(obj)
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (property, functools.cached_property)):
                    out[f"{name}.{attr}"] = "<property>"
                elif inspect.isfunction(member):
                    out[f"{name}.{attr}"] = _parameters(member)
    return out


def test_public_names():
    assert sorted(k for k in _surface() if "." not in k) == \
        sorted(k for k in SURFACE if "." not in k)


def test_public_signatures():
    assert _surface() == SURFACE
