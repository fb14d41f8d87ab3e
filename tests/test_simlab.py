"""Population generators, the study runner, and the exact-enumeration oracle."""

import json

import numpy as np
import pytest

import randzest as rz
from randzest import ate, simlab
from randzest.errors import DataError, EnumerationTooLargeError, SpecificationError
from randzest.estfun import ModelConfig
from randzest.simlab import EstimatorConfig, Scenario, scenario_from_dict


_BAD_MODELS = [  # (scenario model entry, the key its error names)
    ({"interaction": True, "method": "mle"}, "family"),
    ({"family": "weibull"}, "family"),
    ({"family": "poisson", "method": "newton"}, "method"),
    ({"family": "negbin", "kappa": -1.0}, "kappa"),
    ({"family": "negbin", "kappa": float("nan")}, "kappa"),
    ({"family": "negbin", "kappa": "abc"}, "kappa"),
    ({"family": "negbin", "kappa": [1, 2]}, "kappa"),
    ({"family": "poisson", "interaction": "false"}, "interaction"),
]


def _tiny_scenario(**overrides):
    base = dict(
        dgp="null",
        n=60,
        n1=30,
        estimators=(
            EstimatorConfig(kind="unadjusted"),
            EstimatorConfig(kind="ma", model=ModelConfig("poisson", True)),
        ),
        g="log",
        seed=5,
        replications=20,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture(scope="module")
def table_a1_replication():
    """(scenario, dataset, fit table) of the first table_a1 replication."""
    s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
    assert len(s.estimators) == 13
    pot = simlab.gen_population(s, rz.make_rng(s.seed, 0))
    d = rz.observe(pot, rz.draw_assignment(rz.make_rng(s.seed, 1), s.n, s.n1))
    [fits] = simlab.fit_tables([d], s.estimators)
    return s, d, fits


class TestGenPopulation:
    def test_null_process_has_no_effect(self, rng):
        pot = simlab.gen_population(_tiny_scenario(), rng)
        np.testing.assert_array_equal(pot.y1, pot.y0)

    def test_outcomes_are_nonnegative_integers(self, rng):
        s = _tiny_scenario(dgp="heterogeneous", n=500, n1=250)
        pot = simlab.gen_population(s, rng)
        for y in (pot.y1, pot.y0):
            assert np.all(y >= 0)
            np.testing.assert_array_equal(y, np.rint(y))

    def test_treated_mean_dominates(self):
        # both DGP means are driven by positive exponential terms, with the
        # treated one much larger; check across 100 fresh populations
        s = _tiny_scenario(dgp="heterogeneous", n=1000, n1=500)
        wins = 0
        for seed in range(100):
            pot = simlab.gen_population(s, rz.make_rng(seed, 0))
            wins += pot.y1.mean() > pot.y0.mean()
        assert wins == 100

    def test_custom_generator(self):
        def gen(rng):
            return rz.PotentialTable([1.0, 2.0], [0.0, 1.0])

        s = _tiny_scenario(dgp="custom", custom_generator=gen, n=2, n1=1)
        pot = simlab.gen_population(s, rz.make_rng(0))
        assert pot.n == 2

    def test_custom_needs_generator(self):
        with pytest.raises(SpecificationError):
            _tiny_scenario(dgp="custom")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan"), 5e-324])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(SpecificationError, match="alpha"):
            _tiny_scenario(alpha=alpha)


class TestRunStudy:
    def test_smoke_and_rmse_identity(self):
        table = simlab.run_study(_tiny_scenario(), replications=2)
        assert table.replications == 2
        for row in table.rows:
            lhs = row.sqrt_n_rmse**2
            r = row.replications_used
            rhs = row.sqrt_n_bias**2 + row.sqrt_n_sd**2 * (r - 1) / r
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_deterministic_given_seed(self):
        a = simlab.run_study(_tiny_scenario(), replications=6)
        b = simlab.run_study(_tiny_scenario(), replications=6)
        assert a.to_csv() == b.to_csv()

    def test_replication_streams_differ(self):
        x1 = rz.make_rng(5, stream=1).standard_normal(4)
        x2 = rz.make_rng(5, stream=2).standard_normal(4)
        assert not np.allclose(x1, x2)

    def test_truth_matches_population(self):
        s = _tiny_scenario(dgp="heterogeneous", n=200, n1=100)
        table = simlab.run_study(s, replications=2)
        pot = simlab.gen_population(s, rz.make_rng(s.seed, 0))
        expected = np.log(pot.y1.mean()) - np.log(pot.y0.mean())
        assert table.truth == pytest.approx(expected, abs=1e-12)

    def test_failed_replications_excluded_and_warned(self, monkeypatch):
        calls = {"n": 0}

        def flaky(d, fits):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise rz.ConvergenceError("deliberate failure")
            return rz.AteResult(0.0, 1.0, "A", "log", d.n)

        real_build = simlab.build_estimator

        def build(config, g):
            if config.kind == "unadjusted":
                return flaky
            return real_build(config, g)

        monkeypatch.setattr(simlab, "build_estimator", build)
        with pytest.warns(RuntimeWarning, match="failed in"):
            table = simlab.run_study(_tiny_scenario(), replications=9)
        row = table.rows[0]
        assert row.failures == 3
        assert row.replications_used == 6

    def test_table_a1_replication_solves_each_model_once(self, monkeypatch):
        # six distinct working models: five block searches (Poisson with and
        # without interaction, negbin, and the two linear fits) and one solve
        # of the squared-loss Poisson mean
        s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
        pot = simlab.gen_population(s, rz.make_rng(s.seed, 0))
        d = rz.observe(pot, rz.draw_assignment(rz.make_rng(s.seed, 1), s.n, s.n1))
        calls = {"_solve_block": 0, "solve": 0}
        for name in calls:
            def counting(*args, _real=getattr(ate, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(ate, name, counting)
        [fits] = simlab.fit_tables([d], s.estimators)
        for config in s.estimators:
            simlab.build_estimator(config, rz.LOG)(d, fits)
        assert calls == {"_solve_block": 5, "solve": 1}

    @pytest.mark.parametrize("family", ["poisson", "negbin", "binomial", "gaussian"])
    def test_squared_loss_entry_equals_fit_optimal_adjustment(self, family):
        # the table starts a squared-loss fit as fit_optimal_adjustment does,
        # also when the roster fits the same model by maximum likelihood
        from conftest import make_glm_dataset

        d, _ = make_glm_dataset(23, "poisson" if family == "negbin" else family, True)
        model = ModelConfig(family, True)
        roster = [EstimatorConfig(kind="ma", model=model),
                  EstimatorConfig(kind="ma", model=model, method="squared-loss")]
        [fits] = simlab.fit_tables([d], roster)
        [(_, fit)] = [entry for (method, _), entry in fits.items() if method == "squared-loss"]
        ref = rz.fit_optimal_adjustment(d, model.bind(d))
        assert fit.converged and fit.iterations > 0
        assert (fit.converged, fit.iterations, fit.message) == \
            (ref.converged, ref.iterations, ref.message)
        assert np.array_equal(fit.theta_hat, ref.theta_hat)
        assert np.array_equal(fit.sigma_hat, ref.sigma_hat)

    def test_estimator_failing_almost_always_is_an_error(self, monkeypatch):
        def always(d, fits):
            raise rz.ConvergenceError("deliberate failure")

        real_build = simlab.build_estimator
        monkeypatch.setattr(simlab, "build_estimator", lambda config, g: (
            always if config.kind == "unadjusted" else real_build(config, g)))
        with pytest.raises(rz.NumericalError, match=r"failed in 3 of 3 replications"):
            simlab.run_study(_tiny_scenario(), replications=3)

    def test_requires_two_replications(self):
        with pytest.raises(SpecificationError):
            simlab.run_study(_tiny_scenario(), replications=1)

    @pytest.mark.parametrize("j", range(13))
    def test_table_a1_row_equals_the_public_call(self, table_a1_replication, j):
        # each roster row gives, bit for bit, what the public estimator
        # functions give on the same fits
        s, d, fits = table_a1_replication
        config = s.estimators[j]
        got = simlab.build_estimator(config, rz.LOG)(d, fits)
        entries = [fits[key] for key in simlab._reads(config)]
        if config.kind == "unadjusted":
            def zero(x, theta):
                return np.zeros(x.shape[0])

            ref = rz.tau_model_assisted(d, zero, zero, np.zeros(0), rz.LOG)
        elif config.kind == "ai":
            ref = rz.adjusted_imputation(d, entries, rz.LOG)
        else:
            [(spec, fit)] = entries
            if config.kind == "ma":
                ref = rz.tau_model_assisted(d, *rz.mean_adjustment(spec), fit.theta_hat, rz.LOG)
            else:
                public = {"b": rz.tau_model_based, "i": rz.tau_model_imputed}[config.kind]
                ref = public(d, spec, fit, rz.LOG)
        assert (got.tau_hat, got.variance_hat) == (ref.tau_hat, ref.variance_hat)

    def test_row_lookup(self):
        table = simlab.run_study(_tiny_scenario(), replications=2)
        assert table.row("A").model == "Pois"
        with pytest.raises(KeyError):
            table.row("nope")


class TestExactDistribution:
    def test_difference_in_means_by_hand(self):
        # y1 = (1,2,3,4), y0 = (0,1,2,3): every assignment shifts each
        # treated unit up by one, so the effect is exactly 1 on average
        pot = rz.PotentialTable([1, 2, 3, 4], [0, 1, 2, 3])

        def diff_means(d):
            return rz.group_mean(d, 1) - rz.group_mean(d, 0)

        dist = simlab.exact_randomization_distribution(pot, 2, diff_means)
        assert len(dist.values) == 6
        assert dist.mean == pytest.approx(1.0, abs=1e-12)

    def test_fixed_theta_model_assisted_unbiased(self):
        gen = rz.make_rng(61)
        x = gen.standard_normal((6, 1))
        y1 = gen.poisson(3.0, 6).astype(float)
        y0 = gen.poisson(2.0, 6).astype(float)
        pot = rz.PotentialTable(y1, y0, x)
        spec = rz.MeanSpec(rz.poisson_family(), True, 1)
        theta = np.array([0.4, 0.1, 0.3, -0.2])
        h1, h0 = rz.mean_adjustment(spec)

        def ma(d):
            return rz.tau_model_assisted(d, h1, h0, theta, rz.IDENTITY).tau_hat

        dist = simlab.exact_randomization_distribution(pot, 3, ma)
        assert dist.mean == pytest.approx(y1.mean() - y0.mean(), abs=1e-12)

    def test_constant_population_zero_variance(self):
        pot = rz.PotentialTable([2, 2, 2, 2], [2, 2, 2, 2])

        def diff_means(d):
            return rz.group_mean(d, 1) - rz.group_mean(d, 0)

        dist = simlab.exact_randomization_distribution(pot, 2, diff_means)
        assert dist.variance == 0.0
        np.testing.assert_array_equal(dist.values, np.zeros(6))

    def test_cap(self):
        pot = rz.PotentialTable(np.ones(30), np.zeros(30))
        with pytest.raises(EnumerationTooLargeError):
            simlab.exact_randomization_distribution(pot, 15, lambda d: 0.0, cap=100)


class TestScenarioFiles:
    def test_bundled_scenarios_load(self):
        for name in ("table_a1", "table_a2"):
            s = simlab.load_scenario(simlab.bundled_scenario_path(name))
            assert s.n == 1000 and s.n1 == 500
            assert len(s.estimators) == 13

    def test_unknown_bundle(self):
        with pytest.raises(DataError):
            simlab.bundled_scenario_path("table_z9")

    def test_bad_document(self):
        with pytest.raises(DataError):
            scenario_from_dict({"dgp": "null"})

    def test_roundtrip_from_json(self, tmp_path):
        doc = {
            "dgp": "null", "N": 40, "n1": 20, "seed": 3, "replications": 4,
            "g": "log",
            "estimators": [{"kind": "unadjusted"}],
        }
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(doc), encoding="utf-8")
        s = simlab.load_scenario(str(path))
        table = simlab.run_study(s)
        assert table.replications == 4

    @pytest.mark.parametrize("top_level,entry,key", [
        # an imputations entry needs a family; a top-level entry may have none
        pytest.param(False, *case, id=f"entry{i}-{case[1]}") for i, case in enumerate(_BAD_MODELS)
    ] + [
        pytest.param(True, *case, id=f"top-level-entry{i}-{case[1]}")
        for i, case in enumerate(_BAD_MODELS) if "family" in case[0]
    ])
    def test_bad_imputation_rejected_at_load(self, tmp_path, top_level, entry, key):
        if top_level:
            estimator, where = {"kind": "ma", **entry}, r"estimators\[1\]"
        else:
            estimator = {"kind": "ai", "imputations": [entry]}
            where = r"estimators\[1\]\.imputations\[0\]"
        doc = {
            "dgp": "null", "N": 40, "n1": 20,
            "estimators": [{"kind": "unadjusted"}, estimator],
        }
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=rf"{where}: .*'{key}'"):
            simlab.load_scenario(str(path))

    def test_unknown_kind_rejected_at_load(self):
        doc = {
            "dgp": "null", "N": 40, "n1": 20,
            "estimators": [{"kind": "unadjusted"}, {"kind": "mb", "family": "poisson"}],
        }
        with pytest.raises(DataError, match=r"estimators\[1\]: .*'kind'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("entry,top_g,where", [
        ({"kind": "b", "family": "poisson", "method": "squared-loss"}, "log",
         r"estimators\[1\]: .*'squared-loss'"),
        ({"kind": "ma"}, "log", r"estimators\[1\]: .*needs a model"),
        ({"kind": "ma", "family": "negbin", "method": "squared-loss"}, "log",
         r"estimators\[1\]: .*interaction"),
        ({"kind": "unadjusted", "g": "cube"}, "log", r"estimators\[1\]: .*'cube'"),
        ({"kind": "ai"}, "log", r"estimators\[1\]: .*imputations"),
        ({"kind": "unadjusted"}, "cube", r"'g': .*'cube'"),
    ], ids=["b-squared-loss", "ma-no-family", "negbin-sq-no-interaction",
            "entry-g", "ai-no-imputations", "top-level-g"])
    def test_estimator_checks_run_at_load(self, entry, top_g, where):
        # each entry builds its estimator at load, so a bad one names its
        # location instead of failing inside run_study
        doc = {
            "dgp": "null", "N": 40, "n1": 20, "g": top_g,
            "estimators": [{"kind": "unadjusted"}, entry],
        }
        with pytest.raises(DataError, match=where):
            scenario_from_dict(doc)

    def test_loading_builds_no_estimator(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simlab, "build_estimator", lambda *args: calls.append(args))
        s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
        assert len(s.estimators) == 13 and calls == []

    @pytest.mark.parametrize("doc,where,key", [
        ({"replication": 5}, "top level", "replication"),
        ({"estimators": [{"kind": "unadjusted"}, {
            "kind": "ma", "family": "poisson", "interaction": True, "methd": "squared-loss"}]},
         r"estimators\[1\]", "methd"),
        ({"estimators": [{"kind": "unadjusted"}, {"kind": "ai", "imputations": [
            {"family": "poisson", "metod": "squared-loss"}]}]},
         r"estimators\[1\]\.imputations\[0\]", "metod"),
    ], ids=["top-level", "entry", "imputation"])
    def test_unknown_key_rejected(self, doc, where, key):
        # a misspelled key would otherwise load with its default
        doc = {"dgp": "null", "N": 40, "n1": 20,
               "estimators": [{"kind": "unadjusted"}], **doc}
        with pytest.raises(DataError, match=rf"^{where}: unknown key '{key}'; use one of \["):
            scenario_from_dict(doc)

    def test_entry_scale_is_rejected(self):
        # the truth is on the scenario's scale, so a row on another scale
        # would be scored against the wrong estimand (an unbiased identity-
        # scale estimator read sqrt_n_bias 220 and coverage 0 here)
        doc = {
            "dgp": "heterogeneous", "N": 200, "n1": 100, "seed": 3, "replications": 200,
            "g": "log",
            "estimators": [{"kind": "unadjusted"}, {"kind": "unadjusted", "g": "identity"}],
        }
        with pytest.raises(DataError, match=r"estimators\[1\]: key 'g' \('identity'\)"):
            scenario_from_dict(doc)

    def test_imputation_entries_parse_to_models(self):
        # inside imputations, interaction defaults to true and kappa to "moment"
        # (a squared-loss imputation without interaction is a load error)
        s = scenario_from_dict({
            "dgp": "null", "N": 40, "n1": 20,
            "estimators": [{"kind": "ai", "imputations": [
                {"family": "negbin"},
                {"family": "poisson", "interaction": False},
                {"family": "poisson", "method": "squared-loss"},
            ]}],
        })
        assert s.estimators[0].imputations == (
            (ModelConfig("negbin", True), "mle"),
            (ModelConfig("poisson", False), "mle"),
            (ModelConfig("poisson", True), "squared-loss"),
        )

    @pytest.mark.parametrize("alias,name,label", [
        ("linear", "gaussian", "Linear"), ("logistic", "binomial", "Logit"),
    ])
    def test_family_aliases_are_stored_canonically(self, alias, name, label):
        assert ModelConfig(alias, True) == ModelConfig(name, True)
        assert ModelConfig(alias).family_name == name
        for spelling in (alias, name):
            config = EstimatorConfig(kind="ma", model=ModelConfig(spelling))
            assert config.labels() == (label, "No", "A")

    def test_labels(self):
        config = EstimatorConfig(kind="ma", model=ModelConfig("poisson", True),
                                 method="squared-loss")
        assert config.labels() == ("Pois", "Yes", "A (squared loss)")
        config = EstimatorConfig(kind="unadjusted")
        assert config.labels() == ("Unadjusted", "", "")

    @pytest.mark.parametrize("kind", ["b", "i", "ai", "unadjusted"])
    def test_method_other_than_mle_rejected_outside_ma(self, kind):
        # model-imputed estimation is consistent only for the maximum-likelihood fit
        model = ModelConfig("poisson", True)
        with pytest.raises(SpecificationError, match=rf"'{kind}'.*'squared-loss'"):
            EstimatorConfig(kind=kind, model=model, method="squared-loss",
                            imputations=((model, "mle"),))

    def test_top_level_entries_parse_to_models(self):
        # at the top level, interaction defaults to false and kappa to "moment"
        s = scenario_from_dict({
            "dgp": "null", "N": 40, "n1": 20,
            "estimators": [{"kind": "i", "family": "negbin"},
                           {"kind": "ma", "family": "negbin", "kappa": 2,
                            "interaction": True, "method": "squared-loss"},
                           {"kind": "unadjusted"}],
        })
        assert [(c.model, c.method) for c in s.estimators] == [
            (ModelConfig("negbin", False), "mle"),
            (ModelConfig("negbin", True, 2.0), "squared-loss"),
            (None, "mle"),
        ]

    def test_unknown_kind_rejected_at_build(self):
        # a config is checked when it is made, before any estimator is built
        with pytest.raises(SpecificationError, match=r"unknown 'kind' 'zap'; use one of \["):
            EstimatorConfig(kind="zap")

    @pytest.mark.parametrize("fields", [
        dict(kind="ma", model=ModelConfig("poisson"), method="squared-loss"),
        dict(kind="ai", imputations=(
            (ModelConfig("poisson", True), "mle"),
            (ModelConfig("gaussian", False), "squared-loss"),
        )),
    ])
    def test_squared_loss_without_interaction_rejected_at_build(self, fields):
        with pytest.raises(SpecificationError, match="interaction"):
            EstimatorConfig(**fields)

    @pytest.mark.parametrize("fields,match", [
        (dict(kind="ma", model=ModelConfig("poisson", True), method="newton"),
         r"unknown method 'newton'; use one of \('mle', 'squared-loss'\)"),
        (dict(kind="ai", imputations=((ModelConfig("poisson", True), "ols"),)),
         r"unknown method 'ols'"),
        (dict(kind="ai"), "estimator kind 'ai' needs imputations"),
        (dict(kind="i"), "estimator kind 'i' needs a model"),
    ])
    def test_entry_rules_checked_when_made(self, fields, match):
        with pytest.raises(SpecificationError, match=match):
            EstimatorConfig(**fields)

    def test_unknown_family_rejected_at_build(self):
        with pytest.raises(SpecificationError):
            simlab.build_estimator(
                EstimatorConfig(kind="ma", model=ModelConfig("weibull")), rz.LOG
            )
