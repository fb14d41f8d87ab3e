"""Model-based, model-imputed, model-assisted estimators and adjustments."""

import re
import warnings

import numpy as np
import pytest

import randzest as rz
from randzest import zestim
from randzest.ate import IDENTITY, LOG, LOGIT, _arm_least_squares, _intercept_start
from randzest.errors import ConvergenceError, DomainError, SpecificationError
from randzest.estfun import ModelConfig

from test_estfun import fd_gradient, stable_seed


def _count_dataset(seed=11, n=120):
    gen = rz.make_rng(seed)
    x = gen.standard_normal((n, 2))
    y1 = gen.poisson(np.exp(1.0 + 0.4 * x[:, 0])).astype(float) + 1.0
    y0 = gen.poisson(np.exp(0.6 - 0.3 * x[:, 1])).astype(float) + 1.0
    pot = rz.PotentialTable(y1, y0, x)
    return rz.observe(pot, rz.draw_assignment(gen, n, n // 2)), pot


class TestScales:
    def test_domains(self):
        assert LOG.in_domain(np.array([0.5]))[0]
        assert not LOG.in_domain(np.array([0.0]))[0]
        assert not LOGIT.in_domain(np.array([1.0]))[0]
        assert IDENTITY.in_domain(np.array([-3.0]))[0]

    @pytest.mark.parametrize("scale,points", [
        (IDENTITY, [-2.0, 0.0, 3.0]),
        (LOG, [0.1, 1.0, 7.0]),
        (LOGIT, [0.05, 0.4, 0.9]),
    ])
    def test_derivative_matches_finite_differences(self, scale, points):
        for y in points:
            h = 1e-6 * (1 + abs(y))
            numeric = (scale.g(y + h) - scale.g(y - h)) / (2 * h)
            assert scale.gdot(y) == pytest.approx(numeric, rel=1e-8)

    def test_lookup(self):
        assert rz.gscale("log") is LOG
        with pytest.raises(SpecificationError):
            rz.gscale("cauchy")


class TestModelBased:
    def test_gaussian_identity_closed_form(self):
        # tau_B = alpha1 - alpha0 + (beta1 - beta0)' xbar for a linear model
        d, _ = _count_dataset()
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        fit = rz.fit_working_model(d, spec)
        res = rz.tau_model_based(d, spec, fit, IDENTITY)
        t = fit.theta_hat
        xbar = d.x.mean(axis=0)
        expected = t[0] - t[1] + (t[2:4] - t[4:6]) @ xbar
        assert res.tau_hat == pytest.approx(expected, abs=1e-12)
        assert res.estimator_kind == "B"

    @pytest.mark.parametrize("scale", [LOG, IDENTITY], ids=["log", "identity"])
    @pytest.mark.parametrize("interaction", [True, False])
    @pytest.mark.parametrize("kind", ["B", "I"])
    def test_variance_is_delta_form(self, kind, interaction, scale):
        # without interaction the arms share the slope slots, whose
        # gradient is the sum of both arms' contributions
        d, _ = _count_dataset()
        spec = rz.MeanSpec(rz.poisson_family(), interaction, 2)
        fit = rz.fit_working_model(d, spec)

        def effect_map(theta):
            h1 = rz.glm_mean(spec, 1, d.x, theta)
            h0 = rz.glm_mean(spec, 0, d.x, theta)
            if kind == "B":
                return float(np.mean(scale.g(h1) - scale.g(h0)))
            return float(scale.g(h1.mean()) - scale.g(h0.mean()))

        estimator = rz.tau_model_based if kind == "B" else rz.tau_model_imputed
        res = estimator(d, spec, fit, scale)
        assert res.tau_hat == effect_map(fit.theta_hat)
        grad = fd_gradient(effect_map, fit.theta_hat, step=1e-6)
        assert res.variance_hat == pytest.approx(
            float(grad @ fit.sigma_hat @ grad), rel=1e-6
        )

    @pytest.mark.parametrize("kind", ["B", "I"])
    def test_one_family_evaluation_per_arm(self, kind, monkeypatch):
        # the effect and its delta-method gradient read the same evaluation
        d, _ = _count_dataset()
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        fit = rz.fit_working_model(d, spec)
        calls = []
        real = rz.GlmFamily._mean_forms

        def counting(family, eta):
            calls.append(eta.shape)
            return real(family, eta)

        monkeypatch.setattr(rz.GlmFamily, "_mean_forms", counting)
        estimator = rz.tau_model_based if kind == "B" else rz.tau_model_imputed
        estimator(d, spec, fit, LOG)
        assert calls == [(d.n,), (d.n,)]

    def test_log_domain_violation_lists_units(self):
        d, _ = _count_dataset()
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        fit = rz.fit_working_model(d, spec)
        shifted = rz.Dataset(d.assignment, d.y - 20.0, d.x)
        fit_neg = rz.fit_working_model(shifted, spec)
        with pytest.raises(DomainError, match="position"):
            rz.tau_model_based(shifted, spec, fit_neg, LOG)


class TestArmMeanDomain:
    def test_states_the_mean(self):
        d, _ = _count_dataset()
        shifted = rz.Dataset(d.assignment, d.y - 20.0, d.x)
        mean = rz.group_mean(shifted, 1)
        with pytest.raises(DomainError) as info:
            rz.tau_unadjusted(shifted, LOG)
        assert str(info.value) == f"treated adjusted mean {mean:.6g} outside the domain of g=log"

    def test_non_finite_mean_names_its_units(self):
        d, _ = _count_dataset()
        unit = int(np.flatnonzero(d.z == 1)[3])
        y = d.y.copy()
        y[unit] = np.nan
        with pytest.raises(DomainError, match=rf"treated adjusted mean nan .*unit\(s\) \[{unit}\]$"):
            rz.tau_unadjusted(rz.Dataset(d.assignment, y, d.x), IDENTITY)


class TestImputedEqualsAssisted:
    @pytest.mark.parametrize("family,scale", [
        ("gaussian", IDENTITY), ("binomial", LOGIT), ("poisson", LOG),
    ])
    @pytest.mark.parametrize("interaction", [True, False])
    def test_equivalence_and_prediction_unbiasedness(
        self, family, scale, interaction, make_dataset=None
    ):
        from conftest import make_glm_dataset

        d, spec = make_glm_dataset(
            seed=stable_seed(family, interaction), family=family,
            interaction=interaction,
        )
        fit = rz.fit_working_model(d, spec)
        assert fit.converged
        res_i = rz.tau_model_imputed(d, spec, fit, scale)
        h1, h0 = rz.mean_adjustment(spec)
        res_a = rz.tau_model_assisted(d, h1, h0, fit.theta_hat, scale)
        assert abs(res_i.tau_hat - res_a.tau_hat) <= 1e-8
        for arm in (1, 0):
            mask = d.plan.arm(arm).units
            fitted = rz.glm_mean(spec, arm, d.x[mask], fit.theta_hat)
            assert abs(fitted.mean() - d.y[mask].mean()) <= 1e-8

    def test_intercept_only_collapses_to_unadjusted(self):
        d, _ = _count_dataset()
        spec = rz.MeanSpec(rz.poisson_family(), True, 0)
        fit = rz.fit_working_model(d, spec)
        res_i = rz.tau_model_imputed(d, spec, fit, LOG)
        res_u = rz.tau_unadjusted(d, LOG)
        assert res_i.tau_hat == pytest.approx(res_u.tau_hat, abs=1e-10)


class TestModelAssisted:
    def test_zero_adjustment_is_unadjusted_neyman(self):
        d, _ = _count_dataset()
        res = rz.tau_unadjusted(d, IDENTITY)
        m1, v1 = rz.group_moments(d, 1)
        m0, v0 = rz.group_moments(d, 0)
        assert res.tau_hat == pytest.approx(m1 - m0, abs=1e-12)
        assert res.variance_hat == pytest.approx(v1 / d.r1 + v0 / d.r0, abs=1e-10)
        assert res.estimator_kind == "unadjusted"

    def test_constant_shift_invariance(self):
        d, _ = _count_dataset()
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        fit = rz.fit_working_model(d, spec)
        h1, h0 = rz.mean_adjustment(spec)

        def h1_shift(x, theta):
            return h1(x, theta) + 17.3

        def h0_shift(x, theta):
            return h0(x, theta) - 4.1

        a = rz.tau_model_assisted(d, h1, h0, fit.theta_hat, LOG)
        b = rz.tau_model_assisted(d, h1_shift, h0_shift, fit.theta_hat, LOG)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-12)
        assert a.variance_hat == pytest.approx(b.variance_hat, rel=1e-12)

    def test_enumeration_mean_preservation(self):
        # fixed theta: averaging each adjusted arm mean over all assignments
        # recovers the population mean of that potential outcome, and the
        # identity-scale estimate averages to the true effect
        gen = rz.make_rng(21)
        n = 6
        x = gen.standard_normal((n, 1))
        y1 = gen.poisson(3.0, n).astype(float)
        y0 = gen.poisson(2.0, n).astype(float)
        pot = rz.PotentialTable(y1, y0, x)
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        theta = np.array([0.5, 0.3, 0.2, -0.1])
        h1, h0 = rz.mean_adjustment(spec)
        taus, mean1s, mean0s = [], [], []
        for a in rz.enumerate_assignments(n, 3):
            d = rz.observe(pot, a)
            adj1 = h1(d.x, theta)
            adj0 = h0(d.x, theta)
            y_adj = np.where(d.z == 1, d.y - adj1 + adj1.mean(), d.y - adj0 + adj0.mean())
            dummy = rz.Dataset(d.assignment, y_adj, d.x)
            mean1s.append(rz.group_mean(dummy, 1))
            mean0s.append(rz.group_mean(dummy, 0))
            taus.append(rz.tau_model_assisted(d, h1, h0, theta, IDENTITY).tau_hat)
        assert np.mean(mean1s) == pytest.approx(y1.mean(), abs=1e-12)
        assert np.mean(mean0s) == pytest.approx(y0.mean(), abs=1e-12)
        assert np.mean(taus) == pytest.approx(y1.mean() - y0.mean(), abs=1e-12)


class TestOptimalAdjustment:
    def test_linear_equals_per_arm_ols_and_beats_unadjusted(self):
        d, _ = _count_dataset(seed=31)
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        fit = rz.fit_optimal_adjustment(d, spec)
        assert fit.converged
        for arm in (1, 0):
            mask = d.plan.arm(arm).units
            design = np.column_stack([np.ones(mask.sum()), d.x[mask]])
            beta = np.linalg.solve(design.T @ design, design.T @ d.y[mask])
            np.testing.assert_allclose(fit.theta_hat[spec.indices(arm)], beta, atol=1e-8)
        h1, h0 = rz.mean_adjustment(spec)
        adjusted = rz.tau_model_assisted(d, h1, h0, fit.theta_hat, IDENTITY)
        unadjusted = rz.tau_unadjusted(d, IDENTITY)
        assert adjusted.variance_hat <= unadjusted.variance_hat + 1e-10

    def test_perfect_fit_recovers_theta_and_zero_variance(self):
        gen = rz.make_rng(4)
        n = 50
        x = gen.standard_normal((n, 1))
        spec = rz.MeanSpec(rz.gaussian_family(), True, 1)
        theta_star = np.array([1.0, -0.5, 2.0, 0.7])
        y1 = rz.glm_mean(spec, 1, x, theta_star)
        y0 = rz.glm_mean(spec, 0, x, theta_star)
        d = rz.observe(rz.PotentialTable(y1, y0, x), rz.draw_assignment(gen, n, 25))
        fit = rz.fit_optimal_adjustment(d, spec)
        np.testing.assert_allclose(fit.theta_hat, theta_star, atol=1e-7)
        h1, h0 = rz.mean_adjustment(spec)
        res = rz.tau_model_assisted(d, h1, h0, fit.theta_hat, IDENTITY)
        assert res.variance_hat == pytest.approx(0.0, abs=1e-12)


class TestAdjustedImputation:
    def test_single_affine_imputation_collapses_to_linear_adjustment(self):
        # the two imputed columns are affine in the same single covariate,
        # so the second stage spans [1, x]: same estimator as a linear
        # squared-loss adjustment (ridge handles the collinearity)
        d, _ = _count_dataset(seed=41)
        d1 = rz.Dataset(d.assignment, d.y, d.x[:, :1])
        spec = rz.MeanSpec(rz.gaussian_family(), True, 1)
        imp = (spec, rz.fit_working_model(d1, spec))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res_ai = rz.adjusted_imputation(d1, [imp], IDENTITY)
        fit = rz.fit_optimal_adjustment(d1, spec)
        h1, h0 = rz.mean_adjustment(spec)
        res_ma = rz.tau_model_assisted(d1, h1, h0, fit.theta_hat, IDENTITY)
        assert res_ai.tau_hat == pytest.approx(res_ma.tau_hat, abs=1e-5)
        assert res_ai.estimator_kind == "AI"

    def test_collinear_columns_warn(self):
        d, _ = _count_dataset(seed=41)
        d1 = rz.Dataset(d.assignment, d.y, d.x[:, :1])
        spec = rz.MeanSpec(rz.gaussian_family(), True, 1)
        with pytest.warns(RuntimeWarning, match="collinear"):
            rz.adjusted_imputation(d1, [(spec, rz.fit_working_model(d1, spec))], IDENTITY)

    @pytest.mark.parametrize("delta,ridged", [(1e-9, True), (1e-4, False)])
    def test_near_collinear_columns_follow_the_gram_rule(self, delta, ridged):
        # the ridge is decided on the Gram matrix: smallest eigenvalue at most
        # max(n, q) * eps times the largest.  At delta = 1e-9 the design has
        # full numerical rank (singular-value ratio ~1e-9, far above n * eps),
        # but its Gram matrix cannot resolve the third column
        gen = rz.make_rng(5)
        n = 200
        x, u = gen.standard_normal((2, n))
        design = np.column_stack([np.ones(n), x, x + delta * u])
        assert np.linalg.matrix_rank(design) == 3
        eig = np.linalg.eigvalsh(design.T @ design)
        ratio, bound = eig[0] / eig[-1], n * np.finfo(float).eps
        assert ratio < bound / 10 if ridged else ratio > bound * 10
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coef = _arm_least_squares(design, 1.0 + x + gen.standard_normal(n))
        assert [str(w.message).startswith("imputed adjustment columns are collinear")
                for w in caught] == ([True] if ridged else [])
        assert np.isfinite(coef).all()

    def test_two_stage_poisson_runs(self):
        d, _ = _count_dataset(seed=43)
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        res = rz.adjusted_imputation(
            d, [(spec, rz.fit_optimal_adjustment(d, spec))], LOG
        )
        assert np.isfinite(res.tau_hat) and res.variance_hat >= 0
        assert len(res.fits) == 1 and res.fits[0].converged

    def test_non_converged_first_stage_raises(self):
        d, _ = _count_dataset(seed=43)
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        fit = rz.solve(d, rz.glm_score_estfun(spec), max_iter=1)
        assert not fit.converged
        with pytest.raises(ConvergenceError, match=re.escape(fit.message)):
            rz.adjusted_imputation(d, [(spec, fit)], LOG)

    def test_needs_a_model(self):
        d, _ = _count_dataset()
        with pytest.raises(SpecificationError):
            rz.adjusted_imputation(d, [], LOG)


class TestConfidenceIntervals:
    def test_degenerate(self):
        r = rz.AteResult(1.5, 0.0, "A", "identity", 100)
        assert r.ci(0.05) == (1.5, 1.5)

    def test_quantile_arithmetic(self):
        # z_{0.975} * sqrt(1/100) = 0.1959964
        r = rz.AteResult(0.0, 1.0, "A", "identity", 100)
        lo, hi = r.ci(0.05)
        assert hi == pytest.approx(0.1959964, abs=1e-6)
        assert lo == pytest.approx(-0.1959964, abs=1e-6)

    def test_contains_point_estimate(self):
        r = rz.AteResult(2.0, 3.0, "A", "log", 50)
        lo, hi = r.ci(0.2)
        assert lo <= r.tau_hat <= hi

    def test_document_roundtrip(self):
        r = rz.AteResult(0.4, 2.0, "AI", "log", 80)
        doc = r.to_document(0.1)
        assert doc["estimator_kind"] == "AI"
        assert doc["se"] == pytest.approx(np.sqrt(2.0 / 80))
        assert doc["ci_low"] < 0.4 < doc["ci_high"]

    @pytest.mark.parametrize("alpha", [1e-10, 1e-17, 1e-300])
    def test_tiny_alpha_gives_finite_interval(self, alpha):
        # 1 - alpha/2 rounds to 1.0 below alpha ~ 1e-16; the critical value
        # must come from the lower tail, where alpha/2 is exact
        from scipy import stats

        r = rz.AteResult(0.0, 1.0, "A", "identity", 100)
        lo, hi = r.ci(alpha)
        z = -stats.norm.ppf(alpha / 2.0)
        assert np.isfinite([lo, hi]).all()
        assert hi == pytest.approx(0.1 * z, rel=1e-14)
        assert lo == pytest.approx(-0.1 * z, rel=1e-14)

    def test_alpha_whose_half_underflows_is_rejected(self):
        r = rz.AteResult(0.0, 1.0, "A", "identity", 100)
        with pytest.raises(SpecificationError, match="alpha"):
            r.ci(5e-324)


class TestInterceptStart:
    """fit_working_model starts at the intercept-only root."""

    @staticmethod
    def _case(family, interaction):
        from conftest import make_glm_dataset

        d, spec = make_glm_dataset(17, "poisson" if family == "negbin" else family, interaction)
        if family == "negbin":
            spec = rz.MeanSpec(rz.negbin_family((1.5, 3.0)), interaction, spec.n_covariates)
        return d, spec

    @pytest.mark.parametrize("family", ["gaussian", "binomial", "poisson", "negbin"])
    @pytest.mark.parametrize("interaction", [True, False])
    def test_reaches_the_zero_start_root(self, family, interaction):
        d, spec = self._case(family, interaction)
        f = rz.glm_score_estfun(spec)
        start = _intercept_start(d, spec)
        alphas = [spec.alpha_index(1), spec.alpha_index(0)]
        assert np.all(np.delete(start, alphas) == 0.0)
        # the intercept scores vanish there
        np.testing.assert_allclose(rz.empirical_psi(d, f, start)[alphas], 0.0, atol=1e-12)
        fit, zero_start = rz.fit_working_model(d, spec), rz.solve(d, f)
        assert fit.converged and zero_start.converged
        np.testing.assert_allclose(fit.theta_hat, zero_start.theta_hat, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("family,arm_y", [("binomial", 1.0), ("poisson", 0.0)])
    def test_non_finite_start_falls_back_to_zeros(self, family, arm_y):
        d, spec = self._case(family, True)
        y = np.where(d.z == 1, arm_y, d.y)  # link(arm mean) is infinite
        d = rz.Dataset(d.assignment, y, d.x)
        assert np.array_equal(_intercept_start(d, spec), np.zeros(spec.dim))
        fit = rz.fit_working_model(d, spec)
        [zero_start] = zestim._solve_block([d], rz.glm_score_estfun(spec), [np.zeros(spec.dim)])
        assert np.array_equal(fit.theta_hat, zero_start.theta_hat)
        assert (fit.converged, fit.iterations, fit.message) == \
            (zero_start.converged, zero_start.iterations, zero_start.message)

    def test_fewer_iterations_on_table_a1(self):
        s = rz.load_scenario(rz.bundled_scenario_path("table_a1"))
        pot = rz.gen_population(s, rz.make_rng(s.seed, 0))
        models = [ModelConfig("poisson", False), ModelConfig("poisson", True),
                  ModelConfig("negbin", True)]
        iterations = np.zeros((len(models), 2))
        for rep in range(30):
            d = rz.observe(pot, rz.draw_assignment(rz.make_rng(s.seed, rep + 1), s.n, s.n1))
            for j, model in enumerate(models):
                spec = model.bind(d)
                iterations[j] += (rz.solve(d, rz.glm_score_estfun(spec)).iterations,
                                  rz.fit_working_model(d, spec).iterations)
        assert np.all(iterations[:, 1] < iterations[:, 0]), iterations / 30
