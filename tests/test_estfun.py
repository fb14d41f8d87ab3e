"""Scores, Jacobians, losses, and the q-vector identities.

The oracles here are deliberately independent of the package: central
finite differences are re-implemented below rather than imported, and the
per-arm least-squares check solves its own normal equations.
"""

import zlib

import numpy as np
import pytest

import randzest as rz
from randzest.errors import SpecificationError
from randzest.estfun import ETA_CLAMP, ModelConfig, _clamp, parse_model_spec
from randzest.ite import ite_estfun, normal_linear_model, ternary_model

FAMILIES = {
    "gaussian": rz.gaussian_family,
    "binomial": rz.binomial_family,
    "poisson": rz.poisson_family,
    "negbin": lambda: rz.negbin_family(1.7),
}


def fd_gradient(fun, theta, step=1e-5):
    """Central-difference gradient, scaled steps."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for k in range(len(theta)):
        h = step * (1.0 + abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        out[k] = (fun(up) - fun(dn)) / (2 * h)
    return out


def fd_jacobian(fun, theta, step=1e-5):
    """Central-difference Jacobian of a vector function."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for k in range(len(theta)):
        h = step * (1.0 + abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        cols.append((fun(up) - fun(dn)) / (2 * h))
    return np.stack(cols, axis=-1)


def stable_seed(*parts) -> int:
    """A seed from parameter values that is the same in every process
    (``hash`` of a string is not)."""
    return zlib.crc32(repr(parts).encode())


def rel_err(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b)))


def random_point(gen, family, d, interaction):
    spec = rz.MeanSpec(FAMILIES[family](), interaction, d)
    theta = 0.5 * gen.standard_normal(spec.dim)
    x = gen.standard_normal((1, d))
    if family == "binomial":
        y = np.array([float(gen.integers(0, 2))])
    elif family in ("poisson", "negbin"):
        y = np.array([float(gen.poisson(2.0))])
    else:
        y = gen.standard_normal(1)
    return spec, y, x, theta


class TestGlmMean:
    def test_logistic_at_zero(self):
        spec = rz.MeanSpec(rz.binomial_family(), True, 1)
        theta = np.zeros(spec.dim)
        assert rz.glm_mean(spec, 1, [[3.0]], theta)[0] == pytest.approx(0.5)

    def test_poisson_at_zero(self):
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        theta = np.zeros(spec.dim)
        assert rz.glm_mean(spec, 0, [[1.0]], theta)[0] == pytest.approx(1.0)

    def test_gaussian_linear(self):
        # alpha=1, beta=2, x=3 -> 7
        spec = rz.MeanSpec(rz.gaussian_family(), True, 1)
        theta = np.array([1.0, 0.0, 2.0, 0.0])
        assert rz.glm_mean(spec, 1, [[3.0]], theta)[0] == pytest.approx(7.0)

    def test_overflow_clamp(self):
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        theta = np.array([500.0, 0.0, 0.0, 0.0])
        val = rz.glm_mean(spec, 1, [[0.0]], theta)[0]
        assert np.isfinite(val) and val == pytest.approx(np.exp(ETA_CLAMP))

    def test_clamp_equals_clip(self):
        # the clamp takes np.clip's values, NaN, infinities and signed zeros included
        eta = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 34.9, 35.0, 35.1, -35.1, -1e300])
        clamped, inside = _clamp(eta)
        np.testing.assert_array_equal(clamped, np.clip(eta, -ETA_CLAMP, ETA_CLAMP))
        assert np.array_equal(np.signbit(clamped), np.signbit(np.clip(eta, -ETA_CLAMP, ETA_CLAMP)))
        np.testing.assert_array_equal(inside, (np.abs(eta) < ETA_CLAMP).astype(float))

    def test_canonical_link_identity(self, rng):
        for name in ("gaussian", "binomial", "poisson"):
            spec, _, x, theta = random_point(rng, name, 3, True)
            eta = spec.eta(1, x, theta)
            mu = rz.glm_mean(spec, 1, x, theta)
            np.testing.assert_allclose(spec.family.link(mu), eta, atol=1e-12)


class TestScores:
    def test_score_vanishes_at_perfect_fit(self):
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        f = rz.glm_score_estfun(spec)
        theta = np.array([0.3, -0.1, 0.2, 0.1, -0.4, 0.2])
        x = np.array([[0.5, -1.0]])
        y = rz.glm_mean(spec, 1, x, theta)
        np.testing.assert_allclose(f.psi1(y, x, theta), 0.0, atol=1e-14)

    def test_other_arm_slots_zero(self, rng):
        for interaction in (True, False):
            spec, y, x, theta = random_point(rng, "poisson", 2, interaction)
            f = rz.glm_score_estfun(spec)
            psi1 = f.psi1(y, x, theta)[0]
            assert psi1[spec.alpha_index(0)] == 0.0
            if interaction:
                assert np.all(psi1[spec.indices(0)] == 0.0)

    def test_poisson_intercept_only_fd(self):
        # two intercept-only arms, theta = (0.3, -0.2)
        spec = rz.MeanSpec(rz.poisson_family(), True, 0)
        f = rz.glm_score_estfun(spec)
        theta = np.array([0.3, -0.2])
        x = np.empty((1, 0))
        for arm, psi, loss in ((1, f.psi1, f.loss1), (0, f.psi0, f.loss0)):
            y = np.array([3.0])
            analytic = psi(y, x, theta)[0]
            numeric = fd_gradient(lambda t: loss(y, x, t)[0], theta)
            assert rel_err(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("interaction", [True, False])
    def test_gradient_consistency(self, family, interaction):
        gen = rz.make_rng(stable_seed(family, interaction))
        f = None
        for _ in range(50):
            spec, y, x, theta = random_point(gen, family, 2, interaction)
            f = rz.glm_score_estfun(spec)
            for psi, loss in ((f.psi1, f.loss1), (f.psi0, f.loss0)):
                analytic = psi(y, x, theta)[0]
                numeric = fd_gradient(lambda t: loss(y, x, t)[0], theta)
                assert rel_err(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_jacobian_consistency(self, family):
        gen = rz.make_rng(stable_seed(family))
        for _ in range(50):
            spec, y, x, theta = random_point(gen, family, 2, True)
            f = rz.glm_score_estfun(spec)
            for psi, jac in ((f.psi1, f.jac1), (f.psi0, f.jac0)):
                analytic = jac(y, x, theta)[0]
                numeric = fd_jacobian(lambda t: psi(y, x, t)[0], theta)
                assert rel_err(analytic, numeric) < 1e-6


def _glm_case(family, interaction, seed=5):
    """A conftest dataset for the family (negbin on Poisson outcomes) and the
    working model of that family on it."""
    from conftest import make_glm_dataset

    d, spec = make_glm_dataset(seed, "poisson" if family == "negbin" else family, interaction)
    return d, rz.MeanSpec(FAMILIES[family](), interaction, spec.n_covariates)


def _old_indices(spec, arm):
    """The slot arrays as built on every call before they were cached."""
    d = spec.n_covariates
    alpha = 0 if arm == 1 else 1
    if spec.interaction:
        start = 2 if arm == 1 else 2 + d
        beta = np.arange(start, start + d)
    else:
        beta = np.arange(2, 2 + d)
    return np.concatenate([[alpha], beta]).astype(int)


class TestIndices:
    @pytest.mark.parametrize("interaction", [True, False])
    @pytest.mark.parametrize("n_covariates", [0, 1, 3])
    def test_cached_read_only_and_unchanged(self, interaction, n_covariates):
        spec = rz.MeanSpec(rz.poisson_family(), interaction, n_covariates)
        for arm in (1, 0):
            idx = spec.indices(arm)
            assert idx is spec.indices(arm)
            assert np.array_equal(idx, _old_indices(spec, arm))
            assert idx.dtype == _old_indices(spec, arm).dtype
            with pytest.raises(ValueError):
                idx[0] = 7


# theta scales: one keeps eta well inside the clamp, one pushes it past +/-35
THETA_SCALES = [0.5, 40.0]


def _squared_forms(fam, y, eta):
    """The squared-loss score, weight and loss, written out."""
    _, mu, dmu, d2mu, _ = fam._mean_forms(eta)
    return -2.0 * (y - mu) * dmu, 2.0 * (dmu**2 - (y - mu) * d2mu), (y - mu) ** 2


def _mle_forms(fam, y, eta, arm):
    """The maximum-likelihood score, weight and loss of each family, written
    out: the score factor is dloss/deta, the weight its eta-derivative."""
    eta_c, mu, dmu, _, inside = fam._mean_forms(eta)
    if fam.name == "gaussian":
        return (mu - y) * inside, dmu, 0.5 * eta_c**2 - y * eta_c
    if fam.name == "binomial":
        return (mu - y) * inside, dmu, np.logaddexp(0.0, eta_c) - y * eta_c
    if fam.name == "poisson":
        return (mu - y) * inside, dmu, mu - y * eta_c
    k = fam.kappa[0] if arm == 1 else fam.kappa[1]
    return (-k * (y - mu) / (k + mu) * inside,
            k * mu * (k + y) / (k + mu) ** 2 * inside,
            -y * eta_c + (y + k) * np.log1p(mu / k))


def _assert_same_bits(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype and np.array_equal(g, e, equal_nan=True)


class TestFusedEvaluation:
    """One evaluation per trial gives the bits of the separate formulas."""

    @pytest.mark.parametrize("scale", THETA_SCALES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("method,interaction",
                             [("mle", True), ("mle", False), ("squared-loss", True)])
    def test_working_models(self, family, method, interaction, scale):
        d, spec = _glm_case(family, interaction)
        if family == "negbin":  # a different dispersion per arm
            spec = rz.MeanSpec(rz.negbin_family((1.7, 4.0)), interaction, spec.n_covariates)
        fam = spec.family
        mle = method == "mle"
        f = rz.glm_score_estfun(spec) if mle else rz.squared_loss_estfun(spec)
        theta = scale * rz.make_rng(9).standard_normal(spec.dim)
        clamped = False
        for arm in (1, 0):
            k = f.kernel(arm, [d.plan.arm(arm)])
            eta = k.design @ theta[spec.indices(arm)]
            clamped |= bool(np.any(np.abs(eta) > ETA_CLAMP))
            got = k.evaluate(k.y, eta, arm)
            if mle:
                expected = _mle_forms(fam, k.y, eta, arm)
            else:
                expected = _squared_forms(fam, k.y, eta)
            _assert_same_bits(got, expected)
            scores = k.scores(theta[None])[..., spec.indices(arm)]
            _assert_same_bits([scores], [expected[0][..., None] * k.design])
            trial, _ = k.mean(theta[None], True)
            assert np.array_equal(trial, k.mean(theta[None])[0])
        assert clamped == (scale > 1)

    @pytest.mark.parametrize("scale", THETA_SCALES)
    @pytest.mark.parametrize("model", ["normal", "ternary"])
    def test_effect_models(self, model, scale):
        d, _ = _glm_case("binomial", True)
        n_columns = d.x.shape[1]
        tau = normal_linear_model(n_columns) if model == "normal" else ternary_model(n_columns, 2.0)
        f = ite_estfun(tau, d.r1)
        theta = scale * rz.make_rng(9).standard_normal(tau.dim)
        for arm, s in ((1, 1.0 / d.r1), (0, -1.0 / d.r0)):
            k = f.kernel(arm, [d.plan.arm(arm)])
            t = k.design @ theta
            u, u_dt, u_dt2 = tau.forms(t)
            expected = (u_dt - s * k.y, u_dt2, u - s * k.y * t)
            _assert_same_bits(k.evaluate(k.y, t, arm), expected)
            _assert_same_bits([k.scores(theta[None])], [expected[0][..., None] * k.design])


class TestOneEvaluation:
    """Every kernel path evaluates its model once, and the family's formula
    evaluates the mean once."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("method", ["mle", "squared-loss"])
    def test_kernel_paths_call_evaluate_once(self, family, method):
        d, spec = _glm_case(family, True)
        f = rz.glm_score_estfun(spec) if method == "mle" else rz.squared_loss_estfun(spec)
        theta = 0.3 * rz.make_rng(2).standard_normal((1, spec.dim))
        k = f.kernel(1, [d.plan.arm(1)])
        calls = []
        evaluate = k.evaluate
        k.evaluate = lambda *args: calls.append(1) or evaluate(*args)
        for run in (lambda: k.scores(theta), lambda: k.mean(theta, True),
                    lambda: k.mean(theta, False)):
            calls.clear()
            run()
            assert len(calls) == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_formula_evaluates_the_mean_once(self, family, monkeypatch):
        fam = FAMILIES[family]()
        calls = []
        forms = rz.GlmFamily._mean_forms
        monkeypatch.setattr(rz.GlmFamily, "_mean_forms",
                            lambda self, eta: calls.append(1) or forms(self, eta))
        fam.score_weight_loss(np.array([0.0, 1.0, 3.0]), np.array([-0.5, 0.2, 1.1]), 0)
        assert len(calls) == 1


class TestUnitJacobians:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("interaction", [True, False])
    def test_equal_the_ix_scatter(self, family, interaction):
        d, spec = _glm_case(family, interaction)
        f = rz.glm_score_estfun(spec)
        theta = 0.3 * rz.make_rng(4).standard_normal(spec.dim)
        for arm, jac in ((1, f.jac1), (0, f.jac0)):
            rows = d.plan.arm(arm)
            idx = spec.indices(arm)
            design = rows.design
            _, w, _ = spec.family.score_weight_loss(rows.y, design @ theta[idx], arm)
            n = len(rows.y)
            expected = np.zeros((n, spec.dim, spec.dim))
            expected[np.ix_(np.arange(n), idx, idx)] = \
                w[:, None, None] * design[:, :, None] * design[:, None, :]
            got = jac(rows.y, rows.x, theta)
            assert got.shape == expected.shape and np.array_equal(got, expected)


class TestQVectors:
    def test_gaussian_identity(self, rng):
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        f = rz.glm_score_estfun(spec)
        q1, q0 = rz.canonical_q_vectors(spec, np.zeros(spec.dim))
        for _ in range(20):
            theta = rng.standard_normal(spec.dim)
            x = rng.standard_normal((1, 2))
            y = rng.standard_normal(1)
            resid = y[0] - rz.glm_mean(spec, 1, x, theta)[0]
            assert q1 @ f.psi1(y, x, theta)[0] == pytest.approx(resid, abs=1e-12)
            assert q1 @ f.psi0(y, x, theta)[0] == 0.0
            assert q0 @ f.psi1(y, x, theta)[0] == 0.0

    def test_poisson_randomized(self, rng):
        spec = rz.MeanSpec(rz.poisson_family(), False, 3)
        f = rz.glm_score_estfun(spec)
        theta = 0.3 * rng.standard_normal(spec.dim)
        q1, q0 = rz.canonical_q_vectors(spec, theta)
        for _ in range(100):
            x = rng.standard_normal((1, 3))
            y = np.array([float(rng.poisson(2.0))])
            r1 = y[0] - rz.glm_mean(spec, 1, x, theta)[0]
            r0 = y[0] - rz.glm_mean(spec, 0, x, theta)[0]
            assert abs(q1 @ f.psi1(y, x, theta)[0] - r1) < 1e-12
            assert abs(q0 @ f.psi0(y, x, theta)[0] - r0) < 1e-12
            assert abs(q1 @ f.psi0(y, x, theta)[0]) < 1e-12
            assert abs(q0 @ f.psi1(y, x, theta)[0]) < 1e-12

    def test_negbin_rejected(self):
        spec = rz.MeanSpec(rz.negbin_family(2.0), True, 1)
        with pytest.raises(SpecificationError, match="canonical"):
            rz.canonical_q_vectors(spec, np.zeros(spec.dim))


class TestSquaredLoss:
    def test_score_vanishes_at_perfect_fit(self):
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        f = rz.squared_loss_estfun(spec)
        theta = np.array([0.2, 0.5, -0.3, 0.4])
        x = np.array([[0.7]])
        y = rz.glm_mean(spec, 0, x, theta)
        np.testing.assert_allclose(f.psi0(y, x, theta), 0.0, atol=1e-13)

    def test_shared_parameters_rejected(self):
        spec = rz.MeanSpec(rz.gaussian_family(), False, 1)
        with pytest.raises(SpecificationError, match="disjoint"):
            rz.squared_loss_estfun(spec)

    def test_gradient_and_jacobian(self, rng):
        for family in ("gaussian", "binomial", "poisson"):
            spec, y, x, theta = random_point(rng, family, 2, True)
            f = rz.squared_loss_estfun(spec)
            analytic = f.psi1(y, x, theta)[0]
            numeric = fd_gradient(lambda t: f.loss1(y, x, t)[0], theta)
            assert rel_err(analytic, numeric) < 1e-6
            ajac = f.jac1(y, x, theta)[0]
            njac = fd_jacobian(lambda t: f.psi1(y, x, t)[0], theta)
            assert rel_err(ajac, njac) < 1e-6

    def test_linear_forms_match_per_arm_ols(self):
        # normal-equations oracle, computed per arm on the raw data
        gen = rz.make_rng(5)
        n = 60
        x = gen.standard_normal((n, 2))
        y = 1.0 + x @ np.array([0.5, -0.7]) + 0.3 * gen.standard_normal(n)
        d = rz.observe(
            rz.PotentialTable(y + 1.0, y, x), rz.draw_assignment(gen, n, 30)
        )
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        fit = rz.solve(d, rz.squared_loss_estfun(spec))
        assert fit.converged
        for arm in (1, 0):
            mask = d.plan.arm(arm).units
            design = np.column_stack([np.ones(mask.sum()), d.x[mask]])
            beta = np.linalg.solve(design.T @ design, design.T @ d.y[mask])
            np.testing.assert_allclose(
                fit.theta_hat[spec.indices(arm)], beta, atol=1e-9
            )


class TestModelSpecStrings:
    def test_basic(self):
        config = parse_model_spec("poisson:interact")
        assert config.family_name == "poisson" and config.interaction

    def test_kappa(self):
        config = parse_model_spec("negbin:interact:kappa=1.5")
        assert config.kappa == 1.5
        spec = config.build(2)
        assert spec.family.kappa == (1.5, 1.5)

    @pytest.mark.parametrize("text", ["nan", "inf", "0", "-1"])
    def test_bad_kappa_rejected(self, text):
        kappa = float(text)
        message = rf"kappa=\({kappa}"
        with pytest.raises(SpecificationError, match=message):
            rz.negbin_family(kappa)
        with pytest.raises(SpecificationError, match=message):
            ModelConfig("negbin", kappa=kappa)
        with pytest.raises(SpecificationError, match=message):
            parse_model_spec(f"negbin:interact:kappa={text}")

    def test_non_numeric_kappa_rejected(self):
        for kappa in ("abc", None, [1.0]):
            with pytest.raises(SpecificationError, match="must be a number"):
                rz.negbin_family(kappa)
        with pytest.raises(SpecificationError, match="kappa='abc'"):
            ModelConfig("negbin", kappa="abc")

    def test_unknown_family(self):
        with pytest.raises(SpecificationError, match="unknown family"):
            parse_model_spec("weibull")

    def test_unknown_token(self):
        with pytest.raises(SpecificationError, match="token"):
            parse_model_spec("poisson:frobnicate")

    def test_negbin_needs_kappa(self):
        with pytest.raises(SpecificationError, match="kappa"):
            parse_model_spec("negbin").build(1)


class TestMomentKappa:
    def test_overdispersed_arm(self):
        # treated arm (0, 4, 8): mean 4, var 16 -> kappa = 4^2 / (16 - 4)
        y = np.array([0.0, 4.0, 8.0, 10.0, 10.0, 10.0])
        z = rz.Assignment([1, 1, 1, 0, 0, 0])
        d = rz.Dataset(z, y)
        k1, k0 = rz.moment_kappa(d)
        assert k1 == pytest.approx(16.0 / 12.0)
        assert k0 == 1e8  # constant arm: no overdispersion

    def test_positive(self, rng):
        y = rng.poisson(3.0, size=40).astype(float)
        d = rz.Dataset(rz.Assignment([1] * 20 + [0] * 20), y)
        k1, k0 = rz.moment_kappa(d)
        assert k1 > 0 and k0 > 0
