"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Monte Carlo criteria
default to 2000 replications with Monte-Carlo-error-widened bands; set
RANDZEST_ACCEPT_FULL=1 to run the full 10^4 replications against the
unwidened bands.
"""

import os
import time

import numpy as np
import pytest

import randzest as rz
from randzest import simlab
from randzest.ate import IDENTITY, LOG, LOGIT

from conftest import make_glm_dataset
from test_estfun import FAMILIES, fd_gradient, fd_jacobian, random_point, rel_err

FULL_SCALE = os.environ.get("RANDZEST_ACCEPT_FULL", "") == "1"
MC_REPS = 10_000 if FULL_SCALE else 2000

GSCALES = {"gaussian": IDENTITY, "binomial": LOGIT, "poisson": LOG}


def report(number, name, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): PASS {detail}")


def _coverage_band(low, high, reps):
    """Nominal band, widened by 3 binomial MC standard errors at desk scale."""
    if FULL_SCALE:
        return low, high
    w = 3.0 * np.sqrt(0.95 * 0.05 / reps)
    return low - w, high + w


# ---------------------------------------------------------------------------
# 1. Exact unbiasedness over full enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_exact_unbiasedness():
    start = time.time()
    gen = rz.make_rng(101)
    for n in (4, 6, 8):
        n1 = n // 2
        x = gen.standard_normal((n, 1))
        y1 = gen.poisson(3.0, n).astype(float)
        y0 = gen.poisson(2.0, n).astype(float)
        pot = rz.PotentialTable(y1, y0, x)
        assignments = list(rz.enumerate_assignments(n, n1))

        # (a) randomization mean of the empirical estimating equation
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        f = rz.glm_score_estfun(spec)
        for _ in range(10):
            theta = 0.4 * gen.standard_normal(spec.dim)
            acc = np.zeros(spec.dim)
            for a in assignments:
                acc += rz.empirical_psi(rz.observe(pot, a), f, theta)
            expected = rz.population_psi(pot, f, theta, n1 / n)
            assert np.max(np.abs(acc / len(assignments) - expected)) <= 1e-12

        # (b) pseudo effects, per unit
        total = np.zeros(n)
        for a in assignments:
            total += rz.pseudo_effects(rz.observe(pot, a))
        assert np.max(np.abs(total / len(assignments) - (y1 - y0))) <= 1e-12

        # (c) fixed-theta adjusted arm means
        theta = 0.3 * gen.standard_normal(spec.dim)
        h1, h0 = rz.mean_adjustment(spec)
        sums = {1: 0.0, 0: 0.0}
        for a in assignments:
            d = rz.observe(pot, a)
            a1 = h1(d.x, theta)
            a0 = h0(d.x, theta)
            adj = np.where(d.z == 1, d.y - a1 + a1.mean(), d.y - a0 + a0.mean())
            dummy = rz.Dataset(d.assignment, adj, d.x)
            sums[1] += rz.group_mean(dummy, 1)
            sums[0] += rz.group_mean(dummy, 0)
        assert abs(sums[1] / len(assignments) - y1.mean()) <= 1e-12
        assert abs(sums[0] / len(assignments) - y0.mean()) <= 1e-12

    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, "exact unbiasedness", f"N in (4,6,8), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Model-imputed / model-assisted equivalence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def equivalence_fits():
    """120 canonical fits: (dataset, spec, fit) per family x interaction x 20."""
    fits = []
    for family in ("gaussian", "binomial", "poisson"):
        for interaction in (True, False):
            for k in range(20):
                d, spec = make_glm_dataset(
                    seed=1000 + 100 * k + hash((family, interaction)) % 97,
                    family=family, interaction=interaction, n=150,
                )
                fit = rz.fit_working_model(d, spec)
                assert fit.converged, (family, interaction, k)
                fits.append((family, d, spec, fit))
    return fits


def test_criterion_2_equivalence(equivalence_fits):
    start = time.time()
    worst_gap = 0.0
    worst_pred = 0.0
    for family, d, spec, fit in equivalence_fits:
        g = GSCALES[family]
        res_i = rz.tau_model_imputed(d, spec, fit, g)
        h1, h0 = rz.mean_adjustment(spec)
        res_a = rz.tau_model_assisted(d, h1, h0, fit.theta_hat, g)
        gap = abs(res_i.tau_hat - res_a.tau_hat)
        assert gap <= 1e-8
        worst_gap = max(worst_gap, gap)
        for arm in (1, 0):
            mask = d.plan.arm(arm).units
            fitted = rz.glm_mean(spec, arm, d.x[mask], fit.theta_hat)
            pred = abs(fitted.mean() - d.y[mask].mean())
            assert pred <= 1e-8
            worst_pred = max(worst_pred, pred)
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(2, "MI equals MA", f"120 fits, worst gap {worst_gap:.2e}, "
           f"worst prediction bias {worst_pred:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Gradient / Jacobian consistency
# ---------------------------------------------------------------------------

def test_criterion_3_derivative_consistency():
    start = time.time()
    for family in sorted(FAMILIES):
        gen = rz.make_rng(abs(hash(("accept3", family))) % 2**32)
        for _ in range(50):
            spec, y, x, theta = random_point(gen, family, 2, True)
            f = rz.glm_score_estfun(spec)
            for psi, jac, loss in ((f.psi1, f.jac1, f.loss1),
                                   (f.psi0, f.jac0, f.loss0)):
                assert rel_err(
                    psi(y, x, theta)[0],
                    fd_gradient(lambda t: loss(y, x, t)[0], theta),
                ) < 1e-6
                assert rel_err(
                    jac(y, x, theta)[0],
                    fd_jacobian(lambda t: psi(y, x, t)[0], theta),
                ) < 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, "derivative consistency",
           f"4 families x 50 points x 2 arms, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Null-effects study: coverage, bias, ESE/SD calibration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def null_study():
    scenario = simlab.load_scenario(simlab.bundled_scenario_path("table_a2"))
    return simlab.run_study(scenario, replications=MC_REPS)


def test_criterion_4_null_effects_calibration(null_study):
    start = time.time()
    table = null_study
    cov_lo, cov_hi = _coverage_band(0.93, 0.96, table.replications)
    ratio_lo, ratio_hi = 0.95, 1.05
    if not FULL_SCALE:
        w = 3.0 / np.sqrt(2.0 * (table.replications - 1))
        ratio_lo, ratio_hi = ratio_lo * (1 - w), ratio_hi * (1 + w)
    for row in table.rows:
        label = f"{row.model}/{row.estimation}"
        assert cov_lo <= row.coverage <= cov_hi, (label, row.coverage)
        mc_se = row.sqrt_n_sd / np.sqrt(row.replications_used)
        assert abs(row.sqrt_n_bias) <= 0.1 + 3 * mc_se, (label, row.sqrt_n_bias)
        ratio = row.sqrt_n_ese / row.sqrt_n_sd
        assert ratio_lo <= ratio <= ratio_hi, (label, ratio)
    report(4, "null-effects calibration",
           f"R={table.replications}, coverage in "
           f"[{min(r.coverage for r in table.rows):.4f}, "
           f"{max(r.coverage for r in table.rows):.4f}], "
           f"{time.time() - start:.1f}s aggregation")


# ---------------------------------------------------------------------------
# 5. Heterogeneous-effects study: qualitative pattern
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heterogeneous_study():
    scenario = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
    return simlab.run_study(scenario, replications=MC_REPS)


def test_criterion_5_heterogeneous_pattern(heterogeneous_study):
    table = heterogeneous_study

    # (a) model-based Poisson with interaction is badly biased
    row_b = table.row("B", model="Pois")
    assert row_b.coverage <= 0.05, row_b.coverage
    assert abs(row_b.sqrt_n_bias) >= 3.0, row_b.sqrt_n_bias

    # (b) negative-binomial model-imputed estimation underscovers
    row_nb_i = table.row("I", model="NBin")
    assert row_nb_i.coverage <= 0.80, row_nb_i.coverage

    # (c) every consistent estimator covers, with bias of Monte Carlo order
    cov_lo, _ = _coverage_band(0.93, 1.0, table.replications)
    inconsistent = {("Pois", "B"), ("NBin", "B"), ("NBin", "I")}
    for row in table.rows:
        if (row.model, row.estimation) in inconsistent:
            continue
        assert row.coverage >= cov_lo, (row.model, row.estimation, row.coverage)
        bias_bound = 4.0 * row.sqrt_n_sd / np.sqrt(row.replications_used) * np.sqrt(table.n)
        assert abs(row.sqrt_n_bias) <= bias_bound, (row.model, row.estimation)

    # (d) precision ordering of the model-assisted family
    sd_sq = table.row("A (squared loss)").sqrt_n_sd
    sd_mle = table.row("I=A", model="Pois").sqrt_n_sd
    sd_un = table.row("Unadjusted").sqrt_n_sd
    assert sd_sq < sd_mle < sd_un, (sd_sq, sd_mle, sd_un)

    # (e) two-step squared-loss adjustment does not lose precision
    rmse_ai = table.row("AI (square loss)").sqrt_n_rmse
    rmse_sq = table.row("A (squared loss)").sqrt_n_rmse
    assert rmse_ai <= 1.05 * rmse_sq, (rmse_ai, rmse_sq)

    report(5, "heterogeneous pattern",
           f"R={table.replications}, B-coverage {row_b.coverage:.4f}, "
           f"NB-I coverage {row_nb_i.coverage:.4f}, "
           f"SDs {sd_sq:.3f} < {sd_mle:.3f} < {sd_un:.3f}")


# ---------------------------------------------------------------------------
# 6. Squared-loss optimality of the estimated precision
# ---------------------------------------------------------------------------

def test_criterion_6_optimality_certificate():
    start = time.time()
    gen = rz.make_rng(606)
    for k in range(10):
        n = 80
        x = gen.standard_normal((n, 2))
        y1 = 3.0 + x @ np.array([1.0, -0.5]) + gen.standard_normal(n)
        y0 = 1.0 + x @ np.array([0.3, 0.4]) + gen.standard_normal(n)
        d = rz.observe(
            rz.PotentialTable(y1, y0, x), rz.draw_assignment(gen, n, n // 2)
        )
        spec = rz.MeanSpec(rz.gaussian_family(), True, 2)
        fit = rz.fit_optimal_adjustment(d, spec)
        assert fit.converged
        h1, h0 = rz.mean_adjustment(spec)

        def vhat(theta):
            return rz.tau_model_assisted(d, h1, h0, theta, IDENTITY).variance_hat

        best = vhat(fit.theta_hat)
        for _ in range(50):
            perturbed = fit.theta_hat + 0.5 * gen.standard_normal(spec.dim)
            assert best <= vhat(perturbed) + 1e-8
        assert best <= rz.tau_unadjusted(d, IDENTITY).variance_hat + 1e-8
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(6, "squared-loss optimality",
           f"10 datasets x 50 perturbations, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. Individual-effect suite
# ---------------------------------------------------------------------------

def test_criterion_7_individual_effects():
    start = time.time()

    # (a) closed form versus iterated solver
    from randzest.ite import normal_linear_model
    gen = rz.make_rng(707)
    for _ in range(10):
        n = 100
        x = gen.standard_normal((n, 2))
        y1 = 2.0 + x[:, 0] + gen.standard_normal(n)
        y0 = 1.0 - x[:, 1] + gen.standard_normal(n)
        d = rz.observe(rz.PotentialTable(y1, y0, x), rz.draw_assignment(gen, n, n // 2))
        closed = rz.fit_normal_linear(d)
        iterated = rz.solve(d, rz.ite_estfun(normal_linear_model(2), d.r1))
        assert iterated.converged
        assert np.max(np.abs(closed.theta_hat - iterated.theta_hat)) <= 1e-10

    # (b) explained heterogeneity: transformed covariates beat raw ones
    wins = 0
    r2_orig, r2_trans = [], []
    cfg = (simlab.EstimatorConfig(kind="unadjusted"),)
    for seed in range(100):
        scenario = simlab.Scenario(
            dgp="heterogeneous", n=1000, n1=500, estimators=cfg, g="log",
            seed=seed,
        )
        pot = simlab.gen_population(scenario, rz.make_rng(seed, 0))
        tau_true = pot.y1 - pot.y0
        d = rz.observe(pot, rz.draw_assignment(rz.make_rng(seed, 1), 1000, 500))
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        fit = rz.fit_working_model(d, spec)
        columns = np.column_stack([
            rz.glm_mean(spec, 0, d.x, fit.theta_hat),
            rz.glm_mean(spec, 1, d.x, fit.theta_hat),
        ])
        u_orig = rz.fit_normal_linear(d).fitted
        u_trans = rz.fit_normal_linear(d, columns=columns).fitted
        dec_orig = rz.effect_variance_decomposition(tau_true, u_orig)
        dec_trans = rz.effect_variance_decomposition(tau_true, u_trans)
        r2_orig.append(dec_orig.r_squared)
        r2_trans.append(dec_trans.r_squared)
        wins += dec_trans.r_squared > dec_orig.r_squared
    assert wins >= 95, wins
    assert abs(np.mean(r2_orig) - 0.50) <= 0.1, np.mean(r2_orig)
    assert abs(np.mean(r2_trans) - 0.71) <= 0.1, np.mean(r2_trans)

    # (c) ternary-model self-consistency at scale
    beta_star = np.array([0.2, 0.5, -0.3])
    hits = 0
    runs = 200
    for k in range(runs):
        gen_k = rz.make_rng(7000 + k)
        n = 5000
        x = gen_k.standard_normal((n, 2))
        design = np.column_stack([np.ones(n), x])
        t = design @ beta_star
        denom = np.exp(t) + np.exp(-t) + 2.0
        p_plus = np.exp(t) / denom
        p_zero = 2.0 / denom
        u = gen_k.random(n)
        tau = np.where(u < p_plus, 1, np.where(u < p_plus + p_zero, 0, -1))
        y0 = np.where(tau == 1, 0.0, np.where(tau == -1, 1.0,
                      (gen_k.random(n) < 0.5).astype(float)))
        pot = rz.PotentialTable(y0 + tau, y0, x)
        d = rz.observe(pot, rz.draw_assignment(gen_k, n, n // 2))
        fit = rz.fit_ternary(d, gamma=2.0)
        if not fit.zfit.converged:
            continue
        se = np.sqrt(np.diag(fit.sigma_hat) / n)
        hits += bool(np.all(np.abs(fit.beta_hat - beta_star) <= 3 * se))
    assert hits >= 0.90 * runs, hits

    elapsed = time.time() - start
    assert elapsed < 600.0
    report(7, "individual effects",
           f"R2 means {np.mean(r2_orig):.3f}/{np.mean(r2_trans):.3f}, "
           f"ordering {wins}/100, ternary recovery {hits}/{runs}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Sandwich symmetry/PSD and Wald agreement
# ---------------------------------------------------------------------------

def test_criterion_8_sandwich_and_wald(equivalence_fits):
    # symmetric PSD across the model fits of the equivalence suite
    for _, _, _, fit in equivalence_fits:
        sigma = fit.sigma_hat
        assert sigma is not None
        assert np.max(np.abs(sigma - sigma.T)) <= 1e-12
        assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    # the scalar Wald set is the z-interval
    _, d, spec, fit = equivalence_fits[0]
    v = np.zeros(spec.dim)
    v[0], v[1] = 1.0, -1.0
    ws = rz.wald_set(fit, v, alpha=0.05)
    from scipy import stats
    center = float(v @ fit.theta_hat)
    half = float(stats.norm.ppf(0.975)) * np.sqrt(
        float(v @ fit.sigma_hat @ v) / fit.n_units
    )
    lo, hi = ws.interval
    assert abs(lo - (center - half)) <= 1e-10
    assert abs(hi - (center + half)) <= 1e-10

    # closed-form sandwich for the common-mean score: with unit variance in
    # both equal-sized arms the bread is -1 and Sigma = r0 + r1 = 1
    def psi(y, x, theta):
        return (np.asarray(y, dtype=float) - theta[0]).reshape(-1, 1)

    def jac(y, x, theta):
        return np.full((len(np.asarray(y)), 1, 1), -1.0)

    f = rz.EstimatingFunction(dim=1, psi1=psi, psi0=psi, jac1=jac, jac0=jac)
    d6 = rz.Dataset(rz.Assignment([1, 1, 1, 0, 0, 0]),
                    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    fit6 = rz.solve(d6, f)
    m1, v1 = rz.group_moments(d6, 1)
    m0, v0 = rz.group_moments(d6, 0)
    expected = d6.r0 * v1 + d6.r1 * v0
    assert abs(fit6.sigma_hat[0, 0] - expected) <= 1e-12
    report(8, "sandwich and Wald",
           f"{len(equivalence_fits)} covariances symmetric PSD, "
           "scalar Wald equals z-interval")
