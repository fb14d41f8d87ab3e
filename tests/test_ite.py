"""Pseudo effects, effect working models, and the variance decomposition."""

import numpy as np
import pytest

import randzest as rz
from randzest.errors import DegenerateInputError, NumericalError, SpecificationError
from randzest.ite import normal_linear_model, ternary_model

from conftest import one_treated_dataset
from test_estfun import fd_jacobian, rel_err


class TestPseudoEffects:
    def test_half_and_half_arithmetic(self):
        # r1 = r0 = 1/2: treated Y=3 -> 6, control Y=2 -> -4
        d = rz.Dataset(rz.Assignment([1, 0]), [3.0, 2.0])
        np.testing.assert_allclose(rz.pseudo_effects(d), [6.0, -4.0])

    def test_zero_outcomes(self):
        d = rz.Dataset(rz.Assignment([1, 0, 1, 0]), [0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(rz.pseudo_effects(d), np.zeros(4))

    def test_enumeration_unbiasedness_per_unit(self):
        gen = rz.make_rng(13)
        y1 = gen.standard_normal(4)
        y0 = gen.standard_normal(4)
        pot = rz.PotentialTable(y1, y0)
        total = np.zeros(4)
        count = 0
        for a in rz.enumerate_assignments(4, 2):
            total += rz.pseudo_effects(rz.observe(pot, a))
            count += 1
        np.testing.assert_allclose(total / count, y1 - y0, atol=1e-12)

    def test_adjusted_enumeration_unbiasedness(self):
        # fixed-theta residualized variant is exactly unbiased as well
        gen = rz.make_rng(14)
        x = gen.standard_normal((6, 1))
        y1 = gen.poisson(3.0, 6).astype(float)
        y0 = gen.poisson(2.0, 6).astype(float)
        pot = rz.PotentialTable(y1, y0, x)
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        theta = np.array([0.4, 0.2, 0.3, -0.2])
        h1, h0 = rz.mean_adjustment(spec)
        total = np.zeros(6)
        count = 0
        for a in rz.enumerate_assignments(6, 3):
            total += rz.pseudo_effects_adjusted(rz.observe(pot, a), h1, h0, theta)
            count += 1
        np.testing.assert_allclose(total / count, y1 - y0, atol=1e-12)


def _experiment(seed=23, n=60, n1=None):
    gen = rz.make_rng(seed)
    x = gen.standard_normal((n, 2))
    y1 = 2.0 + x[:, 0] + gen.standard_normal(n)
    y0 = 1.0 - 0.5 * x[:, 1] + gen.standard_normal(n)
    pot = rz.PotentialTable(y1, y0, x)
    return rz.observe(pot, rz.draw_assignment(gen, n, n1 or n // 2)), pot


class TestIteEstfun:
    def test_matches_direct_pseudo_effect_form(self, rng):
        d, _ = _experiment()
        model = normal_linear_model(2)
        f = rz.ite_estfun(model, d.r1)
        tau_hat = rz.pseudo_effects(d)
        design = np.column_stack([np.ones(d.n), d.x])
        for _ in range(5):
            theta = rng.standard_normal(3)
            direct = np.mean(
                (model.forms(design @ theta)[1] - tau_hat)[:, None] * design, axis=0
            )
            np.testing.assert_allclose(
                rz.empirical_psi(d, f, theta), direct, atol=1e-12
            )

    def test_enumeration_matches_population_equation(self):
        gen = rz.make_rng(29)
        x = gen.standard_normal((6, 1))
        y1 = gen.poisson(2.0, 6).astype(float)
        y0 = gen.poisson(1.0, 6).astype(float)
        pot = rz.PotentialTable(y1, y0, x)
        model = normal_linear_model(1)
        f = rz.ite_estfun(model, 0.5)
        theta = np.array([0.3, -0.2])
        acc = np.zeros(2)
        count = 0
        for a in rz.enumerate_assignments(6, 3):
            acc += rz.empirical_psi(rz.observe(pot, a), f, theta)
            count += 1
        tau = y1 - y0
        design = np.column_stack([np.ones(6), x])
        expected = np.mean(
            (model.forms(design @ theta)[1] - tau)[:, None] * design, axis=0
        )
        np.testing.assert_allclose(acc / count, expected, atol=1e-12)

    def test_zero_model_gives_zero_psi(self, rng):
        # u = 0 leaves only the pseudo-effect term, so the intercept-only
        # model (dim 1) has psi = -mean(tau_hat_i) for every theta
        model = rz.EdfTauModel(dim=1, forms=lambda t: (np.zeros_like(t),) * 3)
        d, _ = _experiment()
        f = rz.ite_estfun(model, d.r1)
        expected = [-np.mean(rz.pseudo_effects(d))]
        for _ in range(3):
            np.testing.assert_allclose(
                rz.empirical_psi(d, f, rng.standard_normal(1)), expected, atol=1e-12
            )

    def test_affine_in_outcomes(self, rng):
        # for fixed theta the empirical equation is affine in y, so the
        # superposition (y_a + y_b) - y_a - y_b + y_0 vanishes
        d, _ = _experiment()
        model = normal_linear_model(2)
        f = rz.ite_estfun(model, d.r1)
        theta = rng.standard_normal(3)
        ya = rng.standard_normal(d.n)
        yb = rng.standard_normal(d.n)

        def psi_for(y):
            return rz.empirical_psi(rz.Dataset(d.assignment, y, d.x), f, theta)

        lhs = psi_for(ya + yb) + psi_for(np.zeros(d.n))
        rhs = psi_for(ya) + psi_for(yb)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_model_derivative_consistency(self, rng):
        d, _ = _experiment()
        for model in (normal_linear_model(2), ternary_model(2, 2.0)):
            theta = 0.5 * rng.standard_normal(model.dim)
            t = np.column_stack([np.ones(3), d.x[:3]]) @ theta
            # u and its derivatives act unit by unit, so the finite-difference
            # Jacobian in t is diagonal
            _, u_dt, u_dt2 = model.forms(t)
            assert rel_err(u_dt, fd_jacobian(lambda s: model.forms(s)[0], t).diagonal()) < 1e-6
            assert rel_err(u_dt2, fd_jacobian(lambda s: model.forms(s)[1], t).diagonal()) < 1e-6


class TestNormalLinear:
    def test_intercept_only_is_difference_in_means(self):
        d, _ = _experiment()
        fit = rz.fit_normal_linear(d, columns=np.empty((d.n, 0)))
        m1 = rz.group_mean(d, 1)
        m0 = rz.group_mean(d, 0)
        assert fit.theta_hat[0] == pytest.approx(m1 - m0, abs=1e-10)

    def test_closed_form_matches_solver(self):
        d, _ = _experiment(seed=37)
        closed = rz.fit_normal_linear(d)
        f = rz.ite_estfun(normal_linear_model(2), d.r1)
        iterated = rz.solve(d, f)
        assert iterated.converged
        np.testing.assert_allclose(closed.theta_hat, iterated.theta_hat, atol=1e-10)
        np.testing.assert_allclose(closed.sigma_hat, iterated.sigma_hat, atol=1e-8)

    def test_fit_is_the_solver_fit_at_the_closed_form_root(self):
        d, _ = _experiment(seed=41)
        fit = rz.fit_normal_linear(d)
        f = rz.ite_estfun(normal_linear_model(2), d.r1)
        assert fit.zfit.converged and fit.zfit.iterations == 0
        psi = rz.empirical_psi(d, f, fit.theta_hat)
        assert fit.zfit.psi_norm == float(np.max(np.abs(psi))) <= 1e-10
        jac = rz.empirical_jacobian(d, f, fit.theta_hat)
        np.testing.assert_array_equal(fit.zfit.jac_at_root, jac)

    @pytest.mark.parametrize("column,unit", [("x", 5), ("y", 7)])
    def test_non_finite_cell_names_its_unit(self, column, unit):
        d, _ = _experiment()
        y, x = d.y.copy(), d.x.copy()
        (x[:, 0] if column == "x" else y)[unit] = np.nan
        with pytest.raises(NumericalError, match=rf"unit index\(es\) \[{unit}\]"):
            rz.fit_normal_linear(rz.Dataset(d.assignment, y, x))

    def test_single_unit_arm_has_no_sandwich(self):
        d, _ = _experiment(n=12, n1=1)
        with pytest.raises(DegenerateInputError, match="n1=1"):
            rz.fit_normal_linear(d)

    def test_fitted_values(self):
        d, _ = _experiment()
        fit = rz.fit_normal_linear(d)
        design = np.column_stack([np.ones(d.n), d.x])
        np.testing.assert_allclose(fit.fitted, design @ fit.theta_hat, atol=1e-12)

    def test_rank_deficiency(self):
        d, _ = _experiment()
        dup = np.column_stack([d.x[:, 0], d.x[:, 0]])
        with pytest.raises(SpecificationError, match="rank"):
            rz.fit_normal_linear(d, columns=dup)

    @pytest.mark.parametrize("delta,rejected", [(1e-9, True), (1e-4, False)])
    def test_near_collinear_columns_follow_the_gram_rule(self, delta, rejected):
        # the rule of the adjusted-imputation ridge: the Gram matrix's smallest
        # eigenvalue at most max(n, q) * eps times its largest.  At
        # delta = 1e-9 the design has full numerical rank, but its Gram
        # matrix cannot resolve the third column
        d, _ = _experiment()
        u = rz.make_rng(7).standard_normal(d.n)
        columns = np.column_stack([d.x[:, 0], d.x[:, 0] + delta * u])
        design = np.column_stack([np.ones(d.n), columns])
        assert np.linalg.matrix_rank(design) == 3
        if rejected:
            with pytest.raises(SpecificationError, match="rank"):
                rz.fit_normal_linear(d, columns=columns)
        else:
            assert np.isfinite(rz.fit_normal_linear(d, columns=columns).theta_hat).all()


def binary_experiment(seed=51, n=400, beta=(0.3, 0.8, -0.5)):
    """A binary-outcome experiment: tau drawn from the three-point model,
    then consistent binary potential outcomes."""
    gen = rz.make_rng(seed)
    x = gen.standard_normal((n, 2))
    design = np.column_stack([np.ones(n), x])
    t = design @ np.asarray(beta)
    gamma = 2.0
    denom = np.exp(t) + np.exp(-t) + gamma
    p_plus = np.exp(t) / denom
    p_zero = gamma / denom
    u = gen.random(n)
    tau = np.where(u < p_plus, 1, np.where(u < p_plus + p_zero, 0, -1))
    y0 = np.where(tau == 1, 0.0, np.where(tau == -1, 1.0,
                  (gen.random(n) < 0.5).astype(float)))
    y1 = y0 + tau
    pot = rz.PotentialTable(y1, y0, x)
    return rz.observe(pot, rz.draw_assignment(gen, n, n // 2))


class TestTernary:
    def test_fit_recovers_signal(self):
        d = binary_experiment()
        fit = rz.fit_ternary(d, gamma=2.0)
        assert fit.zfit.converged
        # slope signs match the generating coefficients
        assert fit.beta_hat[1] > 0 and fit.beta_hat[2] < 0
        assert fit.sigma_hat is not None

    def test_score_at_origin_is_pseudo_effect_average(self):
        # at beta = 0 the normalizer derivative u'(0) vanishes, so the
        # empirical equation reduces to -mean(tau_hat_i * x~_i)
        d = binary_experiment(seed=52)
        model = ternary_model(2, 2.0)
        f = rz.ite_estfun(model, d.r1)
        design = np.column_stack([np.ones(d.n), d.x])
        expected = -(rz.pseudo_effects(d)[:, None] * design).mean(axis=0)
        np.testing.assert_allclose(
            rz.empirical_psi(d, f, np.zeros(3)), expected, atol=1e-12
        )

    def test_huge_gamma_degenerates(self):
        d = binary_experiment(seed=53)
        fit = rz.fit_ternary(d, gamma=1e12)
        assert not fit.zfit.converged

    def test_one_unit_arm_raises_instead_of_a_fit_without_sigma(self):
        with pytest.raises(DegenerateInputError, match=r"got n1=1, n0=39"):
            rz.fit_ternary(one_treated_dataset())

    def test_rejects_non_binary_outcomes(self):
        d, _ = _experiment()
        with pytest.raises(SpecificationError, match="binary|\\{0, 1\\}"):
            rz.fit_ternary(d)

    def test_non_binary_outcomes_name_their_units(self):
        d = binary_experiment(n=40)
        y = d.y.copy()
        y[7] = np.nan
        with pytest.raises(SpecificationError) as info:
            rz.fit_ternary(rz.Dataset(d.assignment, y, d.x))
        assert str(info.value) == (
            "ternary effect model needs outcomes in {0, 1}, got [nan] at unit index(es) [7]")
        y[:12] = 2.0
        with pytest.raises(SpecificationError) as info:
            rz.fit_ternary(rz.Dataset(d.assignment, y, d.x))
        assert str(info.value) == (
            "ternary effect model needs outcomes in {0, 1}, got " + str([2.0] * 10)
            + " at unit index(es) " + str(list(range(10))))

    def test_rejects_bad_gamma(self):
        d = binary_experiment()
        for gamma in (0.0, np.nan, np.inf):
            with pytest.raises(SpecificationError, match="gamma"):
                rz.fit_ternary(d, gamma=gamma)


class TestDecomposition:
    def test_perfect_approximation(self, rng):
        tau = rng.standard_normal(30)
        dec = rz.effect_variance_decomposition(tau, tau)
        assert dec.r_squared == pytest.approx(1.0)
        assert dec.var_resid == 0.0

    def test_zero_approximation(self, rng):
        tau = rng.standard_normal(30) + 1.0
        dec = rz.effect_variance_decomposition(tau, np.zeros(30))
        assert dec.r_squared == pytest.approx(0.0)

    def test_projection_additivity(self, rng):
        # u = least-squares projection of tau on [1, x]: orthogonal split
        n = 100
        x = rng.standard_normal((n, 2))
        tau = 1.0 + x @ np.array([0.7, -0.4]) + rng.standard_normal(n)
        design = np.column_stack([np.ones(n), x])
        u = design @ np.linalg.lstsq(design, tau, rcond=None)[0]
        dec = rz.effect_variance_decomposition(tau, u)
        assert dec.var_tau == pytest.approx(dec.var_u + dec.var_resid, abs=1e-10)
        assert dec.mode == "oracle" and not dec.is_diagnostic_only

    def test_pseudo_mode_flag(self, rng):
        tau = rng.standard_normal(10)
        dec = rz.effect_variance_decomposition(tau, tau, mode="pseudo")
        assert dec.is_diagnostic_only

    def test_bad_mode(self, rng):
        with pytest.raises(SpecificationError):
            rz.effect_variance_decomposition(np.ones(3), np.ones(3), mode="exact")
