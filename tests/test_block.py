"""The block Newton search: one loop for one dataset or many.

``run_study`` and ``randzest estimate`` build fit tables, fitting each
maximum-likelihood working model once per block of replications (a block of
one for the CLI).  A dataset's fit must not depend on the block it is fitted
in, must agree with :func:`randzest.solve` on that dataset, and a failure
inside a block must reach only its own replication.
"""

import dataclasses

import numpy as np
import pytest

import randzest as rz
from randzest import ate, simlab, zestim
from randzest.ate import _intercept_start
from randzest.errors import NumericalError
from randzest.estfun import ModelConfig
from randzest.simlab import EstimatorConfig, Scenario

TABLE_A1_MLE_MODELS = [
    ModelConfig("poisson", False),
    ModelConfig("poisson", True),
    ModelConfig("negbin", True),  # per-replication moment kappa
    ModelConfig("gaussian", False),
    ModelConfig("gaussian", True),
]


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _table_a1_block(reps=simlab._BLOCK):
    s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
    pot = simlab.gen_population(s, rz.make_rng(s.seed, 0))
    return [rz.observe(pot, rz.draw_assignment(rz.make_rng(s.seed, r + 1), s.n, s.n1))
            for r in range(reps)]


@pytest.fixture(scope="module")
def table_a1_block():
    return _table_a1_block()


def _raised(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    return None


class TestBlockAgreesWithSolve:
    def test_roster_fits_the_five_table_a1_models(self):
        # the five maximum-likelihood models and the squared-loss fit, which
        # starts from the Poisson-interaction one, listed after it
        s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
        fits = simlab._fit_list(s.estimators)
        start = ("mle", ModelConfig("poisson", True))
        assert fits == {**{("mle", model): None for model in TABLE_A1_MLE_MODELS},
                        ("squared-loss", ModelConfig("poisson", True)): start}
        assert list(fits).index(start) < list(fits).index(("squared-loss", start[1]))

    @pytest.mark.parametrize("model", TABLE_A1_MLE_MODELS, ids=str)
    def test_each_replication_equals_its_own_solve(self, table_a1_block, model):
        specs = [model.bind(d) for d in table_a1_block]
        for d, spec, fit in zip(table_a1_block, specs,
                                ate.fit_working_models(table_a1_block, specs)):
            ref = rz.solve(d, rz.glm_score_estfun(spec), _intercept_start(d, spec))
            assert (fit.iterations, fit.converged, fit.message) == \
                (ref.iterations, ref.converged, ref.message)
            assert _rel(fit.theta_hat, ref.theta_hat) < 1e-12
            assert _rel(fit.sigma_hat, ref.sigma_hat) < 1e-12

    @pytest.mark.parametrize("model", TABLE_A1_MLE_MODELS[1:3], ids=str)
    def test_fit_does_not_depend_on_the_block(self, table_a1_block, model):
        specs = [model.bind(d) for d in table_a1_block]
        whole = ate.fit_working_models(table_a1_block, specs)
        for lo, hi in ((0, 1), (3, 10), (9, 16)):
            part = ate.fit_working_models(table_a1_block[lo:hi], specs[lo:hi])
            for a, b in zip(whole[lo:hi], part):
                assert np.array_equal(a.theta_hat, b.theta_hat)
                assert np.array_equal(a.sigma_hat, b.sigma_hat)
                assert a.iterations == b.iterations

    @pytest.mark.parametrize("kwargs,word", [
        (dict(max_iter=2), "no convergence in 2 iterations"),
        (dict(theta_cap=0.5), "diverging theta"),
    ])
    def test_stopped_rows_keep_their_own_state(self, table_a1_block, kwargs, word):
        # different datasets stop at different iterations with their own
        # messages, as solve does on each alone
        spec = ModelConfig("poisson", True).bind(table_a1_block[0])
        f = rz.glm_score_estfun(spec)
        theta0 = np.zeros((len(table_a1_block), spec.dim))
        theta0[:, 0] = 0.1 * np.arange(len(table_a1_block))
        fits = zestim._solve_block(table_a1_block, f, theta0, **kwargs)
        for d, start, fit in zip(table_a1_block, theta0, fits):
            ref = rz.solve(d, f, start, **kwargs)
            assert not fit.converged and word in fit.message
            assert (fit.iterations, fit.message) == (ref.iterations, ref.message)
            assert _rel(fit.theta_hat, ref.theta_hat) < 1e-12


def _nan_scenario(**overrides):
    """Counts with one unit whose treated outcome is missing: every
    replication that treats it fails at the start of its fits."""

    def generate(gen):
        x = gen.standard_normal((40, 1))
        y0 = gen.poisson(np.exp(1.0 + 0.3 * x[:, 0])).astype(float)
        y1 = y0 + gen.poisson(2.0, 40)
        y1[7] = np.nan
        return rz.PotentialTable(y1, y0, x)

    base = dict(
        dgp="custom", n=40, n1=20, seed=11, replications=24, g="log",
        custom_generator=generate,
        estimators=(
            EstimatorConfig(kind="b", model=ModelConfig("poisson", True)),
            EstimatorConfig(kind="ma", model=ModelConfig("negbin", True)),
            EstimatorConfig(kind="ma", model=ModelConfig("poisson", True),
                            method="squared-loss"),
            EstimatorConfig(kind="unadjusted"),
        ),
    )
    base.update(overrides)
    return Scenario(**base)


class TestBlockFailure:
    def test_a_failing_replication_fails_alone(self, monkeypatch):
        s = _nan_scenario()
        with pytest.warns(RuntimeWarning, match="failed in"):
            blocked = simlab.run_study(s)
        monkeypatch.setattr(simlab, "_BLOCK", 1)
        with pytest.warns(RuntimeWarning, match="failed in"):
            alone = simlab.run_study(s)
        # the missing outcome leaves the truth, so bias and coverage, nan
        np.testing.assert_equal([dataclasses.asdict(row) for row in blocked.rows],
                                [dataclasses.asdict(row) for row in alone.rows])
        failures = {row.failures for row in blocked.rows}
        assert len(failures) == 1 and 0 < failures.pop() < s.replications

    @pytest.mark.parametrize("size", [simlab._BLOCK, 1])
    def test_error_class_and_message_match_the_solve(self, size):
        s = _nan_scenario()
        pot = simlab.gen_population(s, rz.make_rng(s.seed, 0))
        block = [rz.observe(pot, rz.draw_assignment(rz.make_rng(s.seed, r + 1), s.n, s.n1))
                 for r in range(simlab._BLOCK)]
        tables = [table for lo in range(0, len(block), size)
                  for table in simlab.fit_tables(block[lo:lo + size], s.estimators)]
        treated = [bool(d.z[7]) for d in block]
        assert any(treated) and not all(treated)
        for d, table, bad in zip(block, tables, treated):
            for (method, model), entry in table.items():
                spec = model.bind(d)
                if method == "mle":
                    f, start = rz.glm_score_estfun(spec), _intercept_start(d, spec)
                else:  # started from the maximum-likelihood fit of its mean
                    f, start = rz.squared_loss_estfun(spec), table[("mle", model)]
                    start = start[1].theta_hat if isinstance(start, tuple) else None
                got = (type(entry), str(entry)) if isinstance(entry, Exception) else None
                assert got == _raised(lambda: rz.solve(d, f, start))
                assert (got is not None) == bad
                if bad:
                    assert got[0] is NumericalError and "unit index(es) [7]" in got[1]
                else:
                    fit, ref = entry[1], rz.solve(d, f, start)
                    assert fit.iterations == ref.iterations
                    assert _rel(fit.theta_hat, ref.theta_hat) < 1e-12

    def test_a_singular_bread_fails_its_row_alone(self):
        # the middle dataset has a covariate column of zeros, so its bread is
        # singular and the block's batched sandwich goes slice by slice
        gen = rz.make_rng(5)
        x = np.column_stack([gen.standard_normal(200), np.zeros(200)])
        y = gen.poisson(np.exp(0.3 + 0.2 * x[:, 0])).astype(float)
        bad = rz.Dataset(rz.draw_assignment(gen, 200, 100), y, x)
        good = [rz.Dataset(rz.draw_assignment(gen, 200, 100), gen.poisson(3.0, 200).astype(float),
                           gen.standard_normal((200, 2))) for _ in range(2)]
        f = rz.glm_score_estfun(rz.MeanSpec(rz.poisson_family(), True, 2))
        start = np.zeros((3, f.dim))
        fits = zestim._solve_block([good[0], bad, good[1]], f, start)
        got = (type(fits[1]), str(fits[1]))
        assert got == _raised(lambda: rz.solve(bad, f, start[0]))
        assert got[0] is NumericalError and "bread matrix is singular" in got[1]
        for d, fit in zip(good, fits[::2]):
            [alone] = zestim._solve_block([d], f, start[:1])
            assert fit.converged
            assert (fit.theta_hat == alone.theta_hat).all()
            assert (fit.sigma_hat == alone.sigma_hat).all()


class TestBlockSizeInvariance:
    @pytest.mark.parametrize("name", ["table_a1", "table_a2"])
    @pytest.mark.parametrize("seed", [26, 3])
    def test_tables_equal_for_every_block_size(self, monkeypatch, name, seed):
        s = dataclasses.replace(simlab.load_scenario(simlab.bundled_scenario_path(name)),
                                seed=seed)
        tables = []
        for size in (1, 7, 20):
            monkeypatch.setattr(simlab, "_BLOCK", size)
            tables.append(simlab.run_study(s, replications=200))
        assert tables[0] == tables[1] == tables[2]
