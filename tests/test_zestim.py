"""Solver, estimating-equation identities, sandwich covariance, Wald sets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import randzest as rz
from randzest.errors import NumericalError, SpecificationError
from randzest.ite import normal_linear_model, ternary_model
from randzest import zestim
from randzest.zestim import empirical_jacobian

from test_estfun import FAMILIES, fd_gradient, fd_jacobian, rel_err

# treated shares of the sandwich property tests; r1 = 1/2 alone cannot tell
# the arm weights of the meat apart
TREATED_SHARES = [0.3, 0.5, 0.7]

# family x estimation method x interaction; squared loss needs interaction
MODELS = [
    (family, method, interaction)
    for family in sorted(FAMILIES)
    for method in ("mle", "squared-loss")
    for interaction in (True, False)
    if method == "mle" or interaction
]


def common_mean_estfun():
    """psi_z(y; theta) = y - theta for both arms (p = 1)."""

    def psi(y, x, theta):
        return (theta[0] - np.asarray(y, dtype=float)).reshape(-1, 1) * -1.0

    def jac(y, x, theta):
        return np.full((len(np.asarray(y)), 1, 1), -1.0)

    return rz.EstimatingFunction(dim=1, psi1=psi, psi0=psi, jac1=jac, jac0=jac)


class TestEmpiricalPsi:
    def test_common_mean_closed_form(self):
        # Ybar1 = 2, Ybar0 = 1, r1 = r0 = 1/2 -> root at 1.5
        d = rz.Dataset(rz.Assignment([1, 1, 0, 0]), [2.0, 2.0, 1.0, 1.0])
        f = common_mean_estfun()
        assert rz.empirical_psi(d, f, np.array([1.5]))[0] == pytest.approx(0.0, abs=1e-15)
        assert rz.empirical_psi(d, f, np.array([0.0]))[0] == pytest.approx(1.5)

    def test_root_certificate(self, rng):
        d, spec = _glm_data(rng)
        f = rz.glm_score_estfun(spec)
        fit = rz.solve(d, f)
        assert fit.converged
        assert np.max(np.abs(rz.empirical_psi(d, f, fit.theta_hat))) <= 1e-8

    def test_non_finite_unit_reported(self):
        d = rz.Dataset(rz.Assignment([1, 0]), [1.0, 2.0])

        def bad_psi(y, x, theta):
            return np.full((len(y), 1), np.nan)

        f = rz.EstimatingFunction(dim=1, psi1=bad_psi, psi0=bad_psi)
        with pytest.raises(NumericalError, match="unit index"):
            rz.empirical_psi(d, f, np.zeros(1))


def _glm_data(gen, family="poisson", interaction=True, n=80, n1=None):
    x = gen.standard_normal((n, 2))
    spec = rz.MeanSpec(FAMILIES[family](), interaction, 2)
    theta = 0.4 * gen.standard_normal(spec.dim)
    if family == "gaussian":
        draw = lambda mean: mean + gen.standard_normal(n)  # noqa: E731
    elif family == "binomial":
        draw = lambda mean: gen.binomial(1, mean).astype(float)  # noqa: E731
    else:
        draw = lambda mean: gen.poisson(mean).astype(float)  # noqa: E731
    y1 = draw(rz.glm_mean(spec, 1, x, theta))
    y0 = draw(rz.glm_mean(spec, 0, x, theta))
    a = rz.draw_assignment(gen, n, n // 2 if n1 is None else n1)
    return rz.observe(rz.PotentialTable(y1, y0, x), a), spec


def _estfun(method, spec):
    if method == "mle":
        return rz.glm_score_estfun(spec)
    return rz.squared_loss_estfun(spec)


def _check_kernel_matches_per_unit(d, f, theta):
    """The solver's arm kernels give the averaged per-unit Jacobian tensors
    in Gram form (without interaction the arms' blocks add on the shared
    slopes), and psi and risk from one eta, all at rel 1e-12; returns the
    Gram Jacobian."""
    treated = d.plan.arm(1).units
    control = ~treated
    kernels = [(d.r1, f.kernel(1, [d.plan.treated])), (d.r0, f.kernel(0, [d.plan.control]))]
    tensors = d.r1 * f.jac1(d.y[treated], d.x[treated], theta).mean(axis=0) \
        + d.r0 * f.jac0(d.y[control], d.x[control], theta).mean(axis=0)
    block = theta[None]  # a block of one dataset
    gram = sum(share * k.jacobian(block)[0] for share, k in kernels)
    assert rel_err(gram, tensors) < 1e-12
    psi = sum(share * k.mean(block, True)[0][0] for share, k in kernels)
    risk = sum(share * k.mean(block, True)[1][0] for share, k in kernels)
    assert rel_err(psi, rz.empirical_psi(d, f, theta)) < 1e-12
    assert risk == pytest.approx(rz.empirical_risk(d, f, theta), rel=1e-12)
    return gram


def _fit(d, spec, method):
    if method == "mle":
        return rz.fit_working_model(d, spec)
    return rz.fit_optimal_adjustment(d, spec)


class TestPopulationPsi:
    def test_common_mean_root(self):
        pot = rz.PotentialTable([2.0, 4.0], [1.0, 1.0])
        f = common_mean_estfun()
        # r1*Ybar(1) + r0*Ybar(0) = 0.5*3 + 0.5*1 = 2
        assert rz.population_psi(pot, f, np.array([2.0]), 0.5)[0] == pytest.approx(0.0)

    def test_null_population_independent_of_r1(self, rng):
        # with psi_1 = psi_0 and Y(1) = Y(0), the arm shares cancel
        y = rng.standard_normal(10)
        pot = rz.PotentialTable(y, y)
        f = common_mean_estfun()
        theta = rng.standard_normal(1)
        a = rz.population_psi(pot, f, theta, 0.3)
        b = rz.population_psi(pot, f, theta, 0.8)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_enumeration_unbiasedness(self):
        # the randomization average of the empirical equation equals the
        # population equation, for every theta
        gen = rz.make_rng(17)
        x = gen.standard_normal((6, 1))
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        y1 = gen.poisson(2.0, 6).astype(float)
        y0 = gen.poisson(1.0, 6).astype(float)
        pot = rz.PotentialTable(y1, y0, x)
        f = rz.glm_score_estfun(spec)
        for _ in range(10):
            theta = 0.5 * gen.standard_normal(spec.dim)
            acc = np.zeros(spec.dim)
            count = 0
            for a in rz.enumerate_assignments(6, 3):
                acc += rz.empirical_psi(rz.observe(pot, a), f, theta)
                count += 1
            np.testing.assert_allclose(
                acc / count, rz.population_psi(pot, f, theta, 0.5), atol=1e-12
            )


class TestSolve:
    def test_common_mean_two_iterations(self):
        d = rz.Dataset(rz.Assignment([1, 1, 0, 0]), [2.0, 2.0, 1.0, 1.0])
        fit = rz.solve(d, common_mean_estfun())
        assert fit.converged and fit.iterations <= 2
        assert fit.theta_hat[0] == pytest.approx(1.5, abs=1e-12)

    def test_gaussian_score_equals_per_arm_ols(self, rng):
        n = 50
        x = rng.standard_normal((n, 2))
        y = 2.0 + x @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        d = rz.observe(rz.PotentialTable(y, y - 1.0, x), rz.draw_assignment(rng, n, 25))
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        fit = rz.solve(d, rz.glm_score_estfun(spec))
        assert fit.converged
        for arm in (1, 0):
            mask = d.plan.arm(arm).units
            design = np.column_stack([np.ones(mask.sum()), d.x[mask]])
            beta = np.linalg.solve(design.T @ design, design.T @ d.y[mask])
            np.testing.assert_allclose(fit.theta_hat[spec.indices(arm)], beta, atol=1e-9)

    def test_separable_logistic_flags_divergence(self):
        # y = 1{x > 0} with a small covariate scale: the likelihood has no
        # maximizer, so the slope runs away until the divergence cap fires
        n = 40
        gen = rz.make_rng(3)
        x = gen.uniform(-0.05, 0.05, size=(n, 1))
        y = (x[:, 0] > 0).astype(float)
        d = rz.observe(rz.PotentialTable(y, y, x), rz.draw_assignment(gen, n, 20))
        spec = rz.MeanSpec(rz.binomial_family(), True, 1)
        fit = rz.solve(d, rz.glm_score_estfun(spec))
        assert not fit.converged
        assert "diverging" in fit.message

    def test_theta0_must_be_finite(self):
        d = rz.Dataset(rz.Assignment([1, 0]), [1.0, 2.0])
        with pytest.raises(NumericalError):
            rz.solve(d, common_mean_estfun(), np.array([np.inf]))

    @pytest.mark.parametrize("family,method,interaction", MODELS)
    def test_solver_jacobian_matches_fd(self, rng, family, method, interaction):
        d, spec = _glm_data(rng, family, interaction)
        f = _estfun(method, spec)
        theta = 0.1 * rng.standard_normal(spec.dim)
        analytic = empirical_jacobian(d, f, theta)
        numeric = fd_jacobian(lambda t: rz.empirical_psi(d, f, t), theta)
        assert rel_err(analytic, numeric) < 1e-6
        gram = _check_kernel_matches_per_unit(d, f, theta)
        assert rel_err(gram, numeric) < 1e-6

    def test_finite_difference_jacobian_without_analytic_one(self, rng):
        # with no jac1/jac0 and no kernel, the arm kernels fall back to a
        # central difference of the arm-mean score
        d, spec = _glm_data(rng, "poisson", True)
        f = rz.glm_score_estfun(spec)
        bare = dataclasses.replace(f, jac1=None, jac0=None, kernel=None)
        theta = 0.1 * rng.standard_normal(spec.dim)
        analytic = empirical_jacobian(d, f, theta)
        assert rel_err(empirical_jacobian(d, bare, theta), analytic) < 1e-6
        fit, bare_fit = rz.solve(d, f), rz.solve(d, bare)
        assert fit.converged and bare_fit.converged
        np.testing.assert_allclose(bare_fit.theta_hat, fit.theta_hat, rtol=0, atol=1e-8)


class TestSolverPaths:
    """The gradient fallback and the ridge retry, on the fused kernels and on
    the per-unit callables alike."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        inner = getattr(zestim, name)

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(zestim, name, counted)
        return calls

    def _check_both_paths(self, monkeypatch, name, d, f, theta0=None, **kwargs):
        calls = self._count(monkeypatch, name)
        fit = rz.solve(d, f, theta0, **kwargs)
        assert calls, f"{name} not reached"
        del calls[:]
        per_unit = rz.solve(d, dataclasses.replace(f, kernel=None), theta0, **kwargs)
        assert calls, f"{name} not reached without the kernels"
        assert fit.converged and per_unit.converged
        np.testing.assert_allclose(fit.theta_hat, per_unit.theta_hat, rtol=1e-10, atol=0)

    def test_gradient_fallback(self, monkeypatch):
        # far below the outcomes the squared-loss weights 2 mu (2 mu - y) are
        # negative, so the Newton step points uphill in the risk
        from conftest import make_glm_dataset

        d, spec = make_glm_dataset(3, "poisson", True)
        theta0 = np.zeros(spec.dim)
        theta0[[spec.alpha_index(1), spec.alpha_index(0)]] = -1.0
        self._check_both_paths(monkeypatch, "_gradient_search", d,
                               rz.squared_loss_estfun(spec), theta0)

    def test_sandwich_reads_the_search_kernels(self, monkeypatch, rng):
        # kernels are built for the start's risk, the search and the root
        # Jacobian; the sandwich reads the search's
        d, spec = _glm_data(rng, "poisson", True)
        f = rz.glm_score_estfun(spec)
        builds = self._count(monkeypatch, "_arm_kernels")
        sandwiches = self._count(monkeypatch, "sandwich")
        fit = rz.solve(d, f)
        assert fit.converged and (len(builds), len(sandwiches)) == (3, 0)
        np.testing.assert_array_equal(fit.sigma_hat, rz.sandwich(d, f, fit))

    @pytest.mark.parametrize("method", ["mle", "squared-loss"])
    def test_ridge_retry(self, monkeypatch, method):
        # a covariate column of zeros: the Jacobian is singular in its slots
        gen = rz.make_rng(5)
        x = np.column_stack([gen.standard_normal(200), np.zeros(200)])
        y = gen.poisson(np.exp(0.3 + 0.2 * x[:, 0])).astype(float)
        d = rz.Dataset(rz.draw_assignment(gen, 200, 100), y, x)
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        self._check_both_paths(monkeypatch, "_ridge", d, _estfun(method, spec),
                               compute_sandwich=False)

    @pytest.mark.parametrize("family,method,interaction", MODELS)
    def test_jacobian_after_a_trial_equals_a_fresh_one(self, rng, family, method, interaction):
        d, spec = _glm_data(rng, family, interaction)
        f = _estfun(method, spec)
        first, last = (0.2 * rng.standard_normal((1, spec.dim)) for _ in range(2))
        for arm in (1, 0):
            rows = [d.plan.arm(arm)]
            k = f.kernel(arm, rows)
            k.mean(first, True)
            k.mean(last, True)
            evaluations = []
            evaluate = k.evaluate
            k.evaluate = lambda *args: evaluations.append(1) or evaluate(*args)
            assert np.array_equal(k.jacobian(last), f.kernel(arm, rows).jacobian(last))
            assert not evaluations  # the last trial's weights were reused
            assert np.array_equal(k.jacobian(first), f.kernel(arm, rows).jacobian(first))
            assert evaluations


class TestLossContract:
    """For every estimating function the package builds, psi is the
    theta-gradient of the empirical risk (the solver's gradient fallback
    steps along -psi to lower the risk)."""

    @pytest.mark.parametrize("family,method,interaction", MODELS)
    def test_risk_gradient_is_psi_for_working_models(self, rng, family, method, interaction):
        d, spec = _glm_data(rng, family, interaction)
        f = _estfun(method, spec)
        theta = 0.1 * rng.standard_normal(spec.dim)
        numeric = fd_gradient(lambda t: rz.empirical_risk(d, f, t), theta)
        assert rel_err(rz.empirical_psi(d, f, theta), numeric) < 1e-6

    @pytest.mark.parametrize("model", ["normal-linear", "ternary"])
    def test_risk_gradient_is_psi_for_effect_models(self, rng, model):
        n = 80
        x = rng.standard_normal((n, 2))
        if model == "normal-linear":
            y1 = 2.0 + x[:, 0] + rng.standard_normal(n)
            y0 = 1.0 - 0.5 * x[:, 1] + rng.standard_normal(n)
            effect_model = normal_linear_model(2)
        else:
            y1 = (rng.random(n) < 0.6).astype(float)
            y0 = (rng.random(n) < 0.4).astype(float)
            effect_model = ternary_model(2, 2.0)
        d = rz.observe(rz.PotentialTable(y1, y0, x), rz.draw_assignment(rng, n, n // 2))
        f = rz.ite_estfun(effect_model, d.r1)
        theta = 0.3 * rng.standard_normal(f.dim)
        numeric = fd_gradient(lambda t: rz.empirical_risk(d, f, t), theta)
        assert rel_err(rz.empirical_psi(d, f, theta), numeric) < 1e-6
        _check_kernel_matches_per_unit(d, f, theta)


class TestSandwich:
    def test_common_mean_closed_form(self):
        # bread is the scalar -1, so Sigma = r1*Var1(y) + r0*Var0(y);
        # both arm variances are 1 here and r1 = r0 = 1/2 -> Sigma = 1
        d = rz.Dataset(
            rz.Assignment([1, 1, 1, 0, 0, 0]), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        )
        # treated (1,2,3): var 1; control (4,5,6): var 1
        fit = rz.solve(d, common_mean_estfun())
        assert fit.sigma_hat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_outcomes_zero_matrix(self):
        d = rz.Dataset(rz.Assignment([1, 1, 0, 0]), [3.0, 3.0, 5.0, 5.0])
        fit = rz.solve(d, common_mean_estfun())
        np.testing.assert_allclose(fit.sigma_hat, 0.0, atol=1e-14)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(model=st.sampled_from(MODELS), n=st.integers(20, 200),
           share=st.sampled_from(TREATED_SHARES), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_psd(self, model, n, share, seed):
        family, method, interaction = model
        d, spec = _glm_data(rz.make_rng(seed), family, interaction, n, round(share * n))
        fit = _fit(d, spec, method)
        assume(fit.converged and fit.sigma_hat is not None)
        sigma = fit.sigma_hat
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(model=st.sampled_from(MODELS), n=st.integers(20, 200),
           share=st.sampled_from(TREATED_SHARES), seed=st.integers(0, 2**32 - 1))
    def test_permutation_equivariance(self, model, n, share, seed):
        family, method, interaction = model
        gen = rz.make_rng(seed)
        d, spec = _glm_data(gen, family, interaction, n, round(share * n))
        fit = _fit(d, spec, method)
        assume(fit.converged and fit.sigma_hat is not None)
        perm = gen.permutation(d.n)
        d2 = rz.Dataset(rz.Assignment(d.z[perm]), d.y[perm], d.x[perm])
        fit2 = _fit(d2, spec, method)
        np.testing.assert_allclose(fit.theta_hat, fit2.theta_hat, atol=1e-10)
        np.testing.assert_allclose(fit.sigma_hat, fit2.sigma_hat, atol=1e-10)

    @pytest.mark.parametrize("share", [0.2, 0.3, 0.7])
    def test_intercept_only_effect_model_is_neyman_variance(self, share):
        # The intercept-only effect model's root is Ybar1 - Ybar0, and its
        # sandwich r1 Var1(y / r1) + r0 Var0(y / r0) is s1^2/r1 + s0^2/r0.
        gen = rz.make_rng(17)
        n = 1000
        y = gen.standard_normal(n) + np.where(np.arange(n) % 3 == 0, 2.0, 0.0)
        d = rz.Dataset(rz.draw_assignment(gen, n, round(share * n)), y)
        fit = rz.solve(d, rz.ite_estfun(normal_linear_model(0), d.r1))
        neyman = rz.tau_unadjusted(d, rz.IDENTITY).variance_hat
        assert fit.sigma_hat[0, 0] == pytest.approx(neyman, rel=1e-12)

    def test_unbalanced_enumeration_is_conservative_by_s_tau(self):
        # Over all C(8, 3) assignments the per-arm variances are unbiased, so
        # the mean sandwich is S1/r1 + S0/r0, and N Var(theta_hat) falls short
        # of it by exactly the effect-heterogeneity term S_tau.
        gen = rz.make_rng(23)
        y1, y0 = gen.standard_normal(8) + 1.0, gen.standard_normal(8)
        pot = rz.PotentialTable(y1, y0)
        f = rz.ite_estfun(normal_linear_model(0), 3 / 8)
        roots, sigmas = [], []
        for a in rz.enumerate_assignments(8, 3):
            fit = rz.solve(rz.observe(pot, a), f)
            roots.append(fit.theta_hat[0])
            sigmas.append(fit.sigma_hat[0, 0])
        limit = rz.fp_var(y1) / (3 / 8) + rz.fp_var(y0) / (5 / 8)
        assert np.mean(sigmas) == pytest.approx(limit, abs=1e-12)
        exact = 8 * np.var(roots)
        assert exact == pytest.approx(limit - rz.fp_var(y1 - y0), abs=1e-12)

    def test_null_effect_monte_carlo_calibration(self):
        # Difference-in-means as a Z-estimator: psi_1 = 2y - theta,
        # psi_0 = -2y - theta at r1 = 1/2, whose root is Ybar1 - Ybar0.
        # Its per-unit scores sum to a constant, so under a constant
        # treatment effect the conservative slack vanishes and
        # N * Var_MC(theta_hat) matches the average sandwich within
        # Monte Carlo error (10% is about 3 sigma at 2000 draws).
        def psi1(y, x, theta):
            return (2.0 * np.asarray(y, dtype=float) - theta[0]).reshape(-1, 1)

        def psi0(y, x, theta):
            return (-2.0 * np.asarray(y, dtype=float) - theta[0]).reshape(-1, 1)

        def jac(y, x, theta):
            return np.full((len(np.asarray(y)), 1, 1), -1.0)

        f = rz.EstimatingFunction(dim=1, psi1=psi1, psi0=psi0, jac1=jac, jac0=jac)
        gen = rz.make_rng(99)
        n = 1000
        y = np.clip(np.rint(10 + np.exp(gen.standard_normal(n))), 0, None)
        pot = rz.PotentialTable(y, y)
        reps = 2000
        roots = np.empty(reps)
        sigmas = np.empty(reps)
        for r in range(reps):
            d = rz.observe(pot, rz.draw_assignment(gen, n, n // 2))
            fit = rz.solve(d, f)
            roots[r] = fit.theta_hat[0]
            sigmas[r] = fit.sigma_hat[0, 0]
        mc_var = n * roots.var(ddof=1)
        mc_err = mc_var * np.sqrt(2.0 / (reps - 1))
        assert mc_var <= sigmas.mean() + 3 * mc_err
        assert abs(mc_var - sigmas.mean()) / sigmas.mean() < 0.10

    def test_unbalanced_null_effect_monte_carlo_calibration(self):
        # The unbalanced twin of the test above, at n1 = 300 of N = 1000: the
        # intercept-only effect model's root is Ybar1 - Ybar0 and its
        # sandwich s1^2/r1 + s0^2/r0, whose conservative slack S_tau vanishes
        # under a constant effect, so N * Var_MC(theta_hat) matches the
        # average sandwich within the same bands.
        gen = rz.make_rng(101)
        n, n1 = 1000, 300
        y0 = np.clip(np.rint(10 + np.exp(gen.standard_normal(n))), 0, None)
        pot = rz.PotentialTable(y0 + 2.0, y0)
        f = rz.ite_estfun(normal_linear_model(0), n1 / n)
        reps = 2000
        roots = np.empty(reps)
        sigmas = np.empty(reps)
        for r in range(reps):
            d = rz.observe(pot, rz.draw_assignment(gen, n, n1))
            fit = rz.solve(d, f)
            roots[r] = fit.theta_hat[0]
            sigmas[r] = fit.sigma_hat[0, 0]
        mc_var = n * roots.var(ddof=1)
        mc_err = mc_var * np.sqrt(2.0 / (reps - 1))
        assert mc_var <= sigmas.mean() + 3 * mc_err
        assert abs(mc_var - sigmas.mean()) / sigmas.mean() < 0.10

    def test_serialization_fields(self, rng):
        d, spec = _glm_data(rng)
        fit = rz.solve(d, rz.glm_score_estfun(spec))
        assert fit.theta_hat.shape == (spec.dim,)
        assert fit.sigma_hat.shape == (spec.dim, spec.dim)
        assert np.isfinite(fit.psi_norm) and fit.iterations >= 1
        assert fit.converged is True


class TestWald:
    def _unit_fit(self):
        # theta_hat = 0, Sigma = 1, N = 100
        return rz.ZFit(
            theta_hat=np.zeros(1), converged=True, iterations=1, psi_norm=0.0,
            jac_at_root=-np.eye(1), n_units=100, sigma_hat=np.eye(1),
        )

    def test_scalar_interval(self):
        ws = rz.wald_set(self._unit_fit(), np.array([1.0]), alpha=0.05)
        lo, hi = ws.interval
        assert hi == pytest.approx(0.1959964, abs=1e-6)
        assert lo == pytest.approx(-hi)

    def test_center_always_inside(self, rng):
        d, spec = _glm_data(rng)
        fit = rz.solve(d, rz.glm_score_estfun(spec))
        v = rng.standard_normal((spec.dim, 2))
        ws = rz.wald_set(fit, v, alpha=0.05)
        assert ws.contains(ws.estimate)

    def test_chi2_and_z_agree_for_scalar(self):
        # chi2_{1,0.95} = z_{0.975}^2 = 3.8415, so the m=1 membership test
        # accepts exactly the z-interval
        ws = rz.wald_set(self._unit_fit(), np.array([1.0]), alpha=0.05)
        assert ws.chi2_crit == pytest.approx(3.8415, abs=1e-4)
        lo, hi = ws.interval
        for point, inside in [(lo + 1e-10, True), (hi - 1e-10, True),
                              (lo - 1e-6, False), (hi + 1e-6, False)]:
            assert ws.contains(point) is inside

    def test_normal_critical_matches_scipy(self):
        from fractions import Fraction

        from scipy import stats

        alphas = np.concatenate([np.geomspace(1e-6, 0.999, 401), np.linspace(1e-6, 0.999, 401)])
        for alpha in alphas:
            z = zestim._normal_critical(alpha)
            assert z == pytest.approx(-stats.norm.ppf(alpha / 2.0), rel=2e-15)
            # the upper-tail reference rounds its own argument 1 - alpha/2,
            # which near alpha = 1 moves z by far more than 2e-15; compare
            # with it where that argument is exact, and within the rounding
            # bound elsewhere
            upper = stats.norm.ppf(1.0 - alpha / 2.0)
            if Fraction(1) - Fraction(alpha) / 2 == Fraction(1.0 - alpha / 2.0):
                assert z == pytest.approx(upper, rel=2e-15)
            else:
                slack = np.spacing(1.0 - alpha / 2.0) / stats.norm.pdf(z)
                assert abs(z - upper) <= 2e-15 * z + slack

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_chi2_crit_matches_scipy(self, m, alpha):
        from scipy import stats

        fit = rz.ZFit(
            theta_hat=np.zeros(m), converged=True, iterations=1, psi_norm=0.0,
            jac_at_root=-np.eye(m), n_units=100, sigma_hat=np.eye(m),
        )
        ws = rz.wald_set(fit, np.eye(m), alpha=alpha)
        assert ws.chi2_crit == pytest.approx(stats.chi2.ppf(1.0 - alpha, m), rel=1e-13)

    @pytest.mark.parametrize("alpha", [1e-10, 1e-17, 1e-300])
    def test_tiny_alpha_gives_finite_set(self, alpha):
        from scipy import stats

        ws = rz.wald_set(self._unit_fit(), np.array([1.0]), alpha=alpha)
        lo, hi = ws.interval
        z = -stats.norm.ppf(alpha / 2.0)
        assert np.isfinite([lo, hi, ws.chi2_crit]).all()
        assert hi == pytest.approx(0.1 * z, rel=1e-14)
        assert lo == pytest.approx(-0.1 * z, rel=1e-14)
        assert ws.chi2_crit == pytest.approx(stats.chi2.isf(alpha, 1), rel=1e-14)

    def test_alpha_whose_half_underflows_is_rejected(self):
        with pytest.raises(SpecificationError, match="alpha"):
            rz.wald_set(self._unit_fit(), np.array([1.0]), alpha=5e-324)

    def test_singular_covariance_raises_numerical_error(self):
        # constant outcomes: the gaussian fit is exact and its sandwich zero
        n = 20
        d = rz.Dataset(rz.Assignment([1] * 10 + [0] * 10), np.full(n, 3.0),
                       rz.make_rng(3).standard_normal((n, 1)))
        fit = rz.solve(d, rz.glm_score_estfun(rz.MeanSpec(rz.gaussian_family(), True, 1)))
        assert fit.converged and not fit.sigma_hat.any()
        ws = rz.wald_set(fit, np.eye(4)[:, :2])
        with pytest.raises(NumericalError, match="covariance is singular"):
            ws.contains([3.0, 3.0])

    def test_rank_deficient_contrast(self):
        fit = rz.ZFit(
            theta_hat=np.zeros(2), converged=True, iterations=1, psi_norm=0.0,
            jac_at_root=-np.eye(2), n_units=50, sigma_hat=np.eye(2),
        )
        v = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
        with pytest.raises(SpecificationError, match="rank"):
            rz.wald_set(fit, v)
