"""The per-dataset arm plan: its rows, the kernels built on it, and its scope.

Every consumer of a dataset's arm split reads ``Dataset.plan``, so the plan
must equal the boolean-mask gathers it replaces bit for bit, and it must
belong to one dataset only.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import randzest as rz
from randzest.ite import normal_linear_model, ternary_model

from test_zestim import MODELS, _estfun, _fit, _glm_data

# Builders of (dataset, estimating function, theta, covariates the model
# reads): every working model on its own covariates and on a dataset with
# one more covariate column than it uses, plus both individual-effect models.
TREATED_N1 = 31  # of 80 units: unbalanced, so swapped arm shares show


def _widened(d, gen):
    extra = gen.standard_normal((d.n, 1))
    return rz.Dataset(d.assignment, d.y, np.column_stack([d.x, extra]))


def _glm_case(family, method, interaction, extra_column):
    def build():
        gen = rz.make_rng(41)
        d, spec = _glm_data(gen, family, interaction, 80, TREATED_N1)
        if extra_column:
            d = _widened(d, gen)
        theta = 0.1 * gen.standard_normal(spec.dim)
        return d, _estfun(method, spec), theta, spec.n_covariates
    return build


def _ite_case(model, extra_column):
    def build():
        gen = rz.make_rng(43)
        d, _ = _glm_data(gen, "binomial", True, 80, TREATED_N1)
        if extra_column:
            d = _widened(d, gen)
        f = rz.ite_estfun(model, d.r1)
        return d, f, 0.3 * gen.standard_normal(f.dim), model.dim - 1
    return build


CASES = [
    pytest.param(_glm_case(*model, extra), id=f"{'-'.join(map(str, model))}-extra{extra}")
    for model in MODELS for extra in (False, True)
] + [
    pytest.param(_ite_case(normal_linear_model(2), False), id="ite-normal-linear"),
    pytest.param(_ite_case(normal_linear_model(0), True), id="ite-normal-intercept-only"),
    pytest.param(_ite_case(ternary_model(2, 2.0), False), id="ite-ternary"),
    pytest.param(_ite_case(ternary_model(1, 1.0), True), id="ite-ternary-narrow"),
]


def _raw_rows(d, arm, n_columns):
    """One arm's rows gathered by its boolean mask, with the model's own
    design columns built from them."""
    mask = d.z == arm
    x = d.x[mask]
    return SimpleNamespace(
        y=d.y[mask], x=x, design=np.column_stack([np.ones(len(x)), x[:, :n_columns]])
    )


class TestPlanRows:
    def test_rows_equal_mask_gathers(self, rng):
        d, _ = _glm_data(rng, "poisson", True, 60, 23)
        plan = d.plan
        full = np.column_stack([np.ones(d.n), d.x])
        assert np.array_equal(plan.design, full)
        for arm, rows in ((1, plan.treated), (0, plan.control)):
            mask = d.z == arm
            assert rows is plan.arm(arm)
            assert np.array_equal(rows.units, mask)
            assert np.array_equal(rows.y, d.y[mask])
            assert np.array_equal(rows.x, d.x[mask])
            assert np.array_equal(rows.design, full[mask])
            assert rows.share == mask.sum() / d.n
        for arr in (plan.design, *vars(plan.treated).values(), *vars(plan.control).values()):
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable

    def test_built_on_first_use_and_kept(self, rng):
        d, _ = _glm_data(rng)
        assert "plan" not in vars(d)  # observe() builds nothing ahead
        assert d.plan is d.plan
        assert d.n1 == int(d.z.sum()) and d.n0 == d.n - d.n1


@pytest.mark.parametrize("case", CASES)
class TestPlanKernels:
    def test_kernels_equal_raw_row_kernels(self, case):
        d, f, theta, n_columns = case()
        for arm in (1, 0):
            planned = f.kernel(arm, [d.plan.arm(arm)])
            raw_rows = _raw_rows(d, arm, n_columns)
            raw = f.kernel(arm, [raw_rows])
            block = theta[None]  # a block of one dataset
            psi, risk = planned.mean(block, True)
            raw_psi, raw_risk = raw.mean(block, True)
            assert np.array_equal(psi, raw_psi) and np.array_equal(risk, raw_risk)
            assert np.array_equal(planned.jacobian(block), raw.jacobian(block))
            scores = planned.scores(block)
            assert np.array_equal(scores, raw.scores(block))
            per_unit = f.psi1 if arm == 1 else f.psi0
            assert np.array_equal(scores[0], per_unit(raw_rows.y, raw_rows.x, theta))
            losses = (f.loss1 if arm == 1 else f.loss0)(raw_rows.y, raw_rows.x, theta)
            assert risk[0] == np.mean(losses)

    def test_sandwich_on_fused_kernels_equals_per_unit_sandwich(self, case):
        d, f, theta, _ = case()
        fit = rz.solve(d, f, theta)
        assert fit.converged
        per_unit = rz.sandwich(d, dataclasses.replace(f, kernel=None), fit)
        assert np.array_equal(rz.sandwich(d, f, fit), per_unit)
        assert np.array_equal(fit.sigma_hat, per_unit)


class TestNoSharedState:
    def test_study_rows_independent_of_history_and_roster_order(self):
        base = rz.load_scenario(rz.bundled_scenario_path("table_a1"))
        first = rz.run_study(base, replications=5).rows
        again = rz.run_study(base, replications=5).rows
        reversed_roster = dataclasses.replace(base, estimators=base.estimators[::-1])
        backwards = rz.run_study(reversed_roster, replications=5).rows
        assert first == again
        assert first == backwards[::-1]

    def test_datasets_of_one_population_share_no_plan_rows(self, rng):
        d, spec = _glm_data(rng, "poisson", True, 60, 30)
        pot = rz.PotentialTable(d.y, d.y[::-1], d.x)
        d1 = rz.observe(pot, rz.draw_assignment(rng, 60, 30))
        d2 = rz.observe(pot, rz.draw_assignment(rng, 60, 30))
        assert not np.array_equal(d1.z, d2.z)
        for method in ("mle", "squared-loss"):
            _fit(d1, spec, method)
            _fit(d2, spec, method)

        def arrays(plan):
            yield plan.design
            for rows in (plan.treated, plan.control):
                yield from (rows.units, rows.y, rows.x, rows.design)

        assert d1.plan is not d2.plan
        for a in arrays(d1.plan):
            for b in arrays(d2.plan):
                assert not np.shares_memory(a, b)
