"""Command-line surface: exit codes, documents, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randzest as rz
from randzest import simlab
from randzest.cli import main
from randzest.estfun import ModelConfig

from conftest import one_treated_dataset
from test_ite import binary_experiment


def write_count_csv(path, seed=71, n=80):
    gen = rz.make_rng(seed)
    x = gen.standard_normal((n, 2))
    y1 = gen.poisson(np.exp(1.2 + 0.3 * x[:, 0])).astype(float) + 1
    y0 = gen.poisson(np.exp(0.8 - 0.2 * x[:, 1])).astype(float) + 1
    d = rz.observe(rz.PotentialTable(y1, y0, x), rz.draw_assignment(gen, n, n // 2))
    rows = ["z,y,x1,x2"]
    for i in range(n):
        rows.append(f"{d.z[i]},{d.y[i]},{d.x[i, 0]},{d.x[i, 1]}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return d


class TestEstimate:
    def test_model_assisted_document(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        d = write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "ma",
            "--model", "poisson:interact", "--method", "squared-loss",
            "--g", "log", "--alpha", "0.05",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"tau_hat", "se", "ci_low", "ci_high",
                            "estimator_kind", "g_scale"}
        assert doc["estimator_kind"] == "A"
        assert doc["g_scale"] == "log"

    def test_roundtrip_matches_in_process(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        d = write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "ma",
            "--model", "poisson:interact", "--g", "log",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        fit = rz.fit_working_model(d, spec)
        h1, h0 = rz.mean_adjustment(spec)
        expected = rz.tau_model_assisted(d, h1, h0, fit.theta_hat, rz.LOG)
        assert doc["tau_hat"] == expected.tau_hat
        assert doc["se"] == expected.se()
        lo, hi = expected.ci(0.05)
        assert doc["ci_low"] == lo and doc["ci_high"] == hi

    def test_missing_column_is_data_error(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("z,x1\n1,0.3\n0,0.4\n", encoding="utf-8")
        code = main(["estimate", "--input", str(csv_path), "--estimator", "unadjusted"])
        assert code == 2
        assert "'y'" in capsys.readouterr().err

    @pytest.mark.parametrize("body,names", [
        ("1,2.5,0.1\n0,,0.2\n", ["column 'y'", "data row 2"]),  # missing cell
        ("1,2.5,0.1\n1.0,1.5,0.2\n", ["column 'z'", "data row 2"]),  # bad z
        ("1,2.5,0.1\n0,1.5\n", ["data row 2", "2 fields, expected 3"]),  # short row
    ])
    def test_malformed_rows_are_data_errors(self, tmp_path, capsys, body, names):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("z,y,x1\n" + body, encoding="utf-8")
        code = main(["estimate", "--input", str(csv_path), "--estimator", "unadjusted"])
        assert code == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("where", ["header", "row past 64 KiB"])
    def test_non_utf8_byte_is_data_error(self, tmp_path, capsys, where):
        csv_path = tmp_path / "latin1.csv"
        if where == "header":
            data = b"z,\xffy\n1,2\n0,3\n"
        else:
            rows = "".join(f"{i % 2},{i}.5\n" for i in range(8000))
            data = b"z,y\n" + rows.encode() + b"0,\xff3\n"
            assert len(data) > 65536
        csv_path.write_bytes(data)
        code = main(["estimate", "--input", str(csv_path), "--estimator", "unadjusted"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(csv_path) in err and "UTF-8" in err, err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main([
            "estimate", "--input", str(tmp_path / "none.csv"),
            "--estimator", "unadjusted",
        ])
        assert code == 2

    @pytest.mark.parametrize("kappa", ["nan", "inf", "0", "-1"])
    def test_bad_negbin_kappa_is_data_error(self, tmp_path, capsys, kappa):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "ma",
            "--model", f"negbin:kappa={kappa}",
        ])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["b", "i", "unadjusted"])
    def test_method_other_than_mle_is_data_error(self, tmp_path, capsys, kind):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", kind,
            "--model", "poisson:interact", "--method", "squared-loss",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'{kind}'" in err and "'squared-loss'" in err

    def test_method_is_the_default_ai_imputation_method(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        d = rz.read_dataset_csv(str(csv_path))
        model = ModelConfig("poisson", True)
        out = tmp_path / "res.json"
        for method, model_options in [
            ("squared-loss", ["--model", "poisson:interact", "--method", "squared-loss"]),
            ("squared-loss", ["--imputation", "poisson:interact", "--method", "squared-loss"]),
            ("mle", ["--imputation", "poisson:interact@mle", "--method", "squared-loss"]),
        ]:
            config = simlab.EstimatorConfig(kind="ai", imputations=((model, method),))
            [fits] = simlab.fit_tables([d], [config])
            expected = simlab.build_estimator(config, rz.LOG)(d, fits)
            argv = ["estimate", "--input", str(csv_path), "--estimator", "ai", "--g", "log",
                    "--output", str(out)] + model_options
            assert main(argv) == 0, argv
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["tau_hat"] == expected.tau_hat, argv
            assert doc["se"] == expected.se(), argv

    def test_separable_fit_is_solver_error(self, tmp_path, capsys):
        gen = rz.make_rng(5)
        n = 40
        x = gen.uniform(-0.05, 0.05, size=n)
        y = (x > 0).astype(int)
        z = rz.draw_assignment(gen, n, 20).z
        rows = ["z,y,x1"] + [f"{z[i]},{y[i]},{x[i]}" for i in range(n)]
        csv_path = tmp_path / "sep.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "i",
            "--model", "binomial:interact", "--g", "logit",
        ])
        assert code == 3
        assert "converge" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["ite-ternary", "b", "i", "ma"])
    def test_one_unit_arm_is_data_error(self, tmp_path, capsys, estimator):
        d = one_treated_dataset()
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("z,y,x1\n" + "".join(
            f"{z},{y},{x}\n" for z, y, x in zip(d.z, d.y, d.x[:, 0])), encoding="utf-8")
        code = main(["estimate", "--input", str(csv_path), "--estimator", estimator,
                     "--model", "gaussian"])
        assert code == 2
        assert "sandwich needs >= 2 units per arm, got n1=1, n0=39" in capsys.readouterr().err

    def test_ite_linear_document(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        fitted_csv = tmp_path / "fitted.csv"
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "ite-linear",
            "--fitted-csv", str(fitted_csv),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["theta"]) == 3
        assert len(doc["sigma"]) == 3
        lines = fitted_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "unit,fitted_effect"
        assert len(lines) == 81

    @pytest.mark.parametrize("column,unit", [("x", 5), ("y", 7)])
    def test_ite_linear_non_finite_cell_names_its_unit(self, tmp_path, capsys, column, unit):
        d = write_count_csv(tmp_path / "d.csv", n=40)
        y, x = d.y.copy(), d.x.copy()
        (x[:, 0] if column == "x" else y)[unit] = np.nan
        csv_path = _write_replication(tmp_path / "nan.csv", rz.Dataset(d.assignment, y, x))
        code = main(["estimate", "--input", csv_path, "--estimator", "ite-linear"])
        assert code == 2
        assert f"unit index(es) [{unit}]" in capsys.readouterr().err

    def test_ite_ternary_document(self, tmp_path, capsys):
        d = binary_experiment()
        csv_path = _write_replication(tmp_path / "binary.csv", d)
        code = main(["estimate", "--input", csv_path, "--estimator", "ite-ternary"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"model", "beta", "sigma"}
        assert doc["model"] == "ite-ternary(gamma=2.0)"
        assert np.shape(doc["beta"]) == (3,) and np.shape(doc["sigma"]) == (3, 3)
        assert doc["beta"] == rz.fit_ternary(d).beta_hat.tolist()

    def test_ite_ternary_non_convergence_is_solver_error(self, tmp_path, capsys):
        csv_path = _write_replication(tmp_path / "binary.csv", binary_experiment(seed=53))
        code = main(["estimate", "--input", csv_path, "--estimator", "ite-ternary",
                     "--gamma", "1e12"])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_ite_ternary_non_binary_outcome_names_its_unit(self, tmp_path, capsys):
        d = binary_experiment(n=40)
        y = d.y.copy()
        y[7] = np.nan
        csv_path = _write_replication(tmp_path / "nan.csv", rz.Dataset(d.assignment, y, d.x))
        code = main(["estimate", "--input", csv_path, "--estimator", "ite-ternary"])
        assert code == 2
        err = capsys.readouterr().err
        assert "outcomes in {0, 1}, got [nan] at unit index(es) [7]" in err

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0"])
    def test_bad_ternary_gamma_is_data_error(self, tmp_path, capsys, gamma):
        gen = rz.make_rng(9)
        rows = ["z,y,x1"] + [
            f"{i % 2},{int(gen.random() < 0.5)},{gen.standard_normal()}" for i in range(40)
        ]
        csv_path = tmp_path / "binary.csv"
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "ite-ternary",
            "--gamma", gamma,
        ])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_output_redirect(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        out = tmp_path / "res.json"
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "unadjusted",
            "--g", "log", "--output", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["estimator_kind"] == "unadjusted"

    def test_bad_alpha(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "unadjusted",
            "--alpha", "1.5",
        ])
        assert code == 2

    @pytest.mark.parametrize("alpha", ["1e-10", "1e-17", "1e-300"])
    def test_tiny_alpha_writes_finite_json(self, tmp_path, capsys, alpha):
        from scipy import stats

        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "unadjusted",
            "--alpha", alpha,
        ])
        assert code == 0

        def reject(name):
            raise AssertionError(f"non-JSON constant {name}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        half = -stats.norm.ppf(float(alpha) / 2.0) * doc["se"]
        assert doc["ci_low"] == pytest.approx(doc["tau_hat"] - half, rel=1e-14)
        assert doc["ci_high"] == pytest.approx(doc["tau_hat"] + half, rel=1e-14)

    def test_alpha_whose_half_underflows_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        write_count_csv(csv_path)
        code = main([
            "estimate", "--input", str(csv_path), "--estimator", "unadjusted",
            "--alpha", "5e-324",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha" in captured.err


def test_no_scipy_on_the_import_path(tmp_path):
    """Import, a CLI estimate and a study load numpy but not scipy."""
    csv_path = tmp_path / "d.csv"
    write_count_csv(csv_path)
    script = f"""
import sys
import numpy as np
import randzest as rz
import randzest.cli
from randzest.estfun import ModelConfig

assert randzest.cli.main(["estimate", "--input", {str(csv_path)!r}, "--estimator", "ma",
                          "--model", "poisson:interact", "--g", "log"]) == 0
rz.run_study(rz.Scenario(
    dgp="null", n=60, n1=30, g="log", seed=5, replications=2,
    estimators=(rz.EstimatorConfig(kind="unadjusted"),
                rz.EstimatorConfig(kind="ma", model=ModelConfig("poisson", True))),
))
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
fit = rz.ZFit(theta_hat=np.zeros(1), converged=True, iterations=1, psi_norm=0.0,
              jac_at_root=-np.eye(1), n_units=100, sigma_hat=np.eye(1))
assert rz.wald_set(fit, np.array([1.0])).chi2_crit > 3.84
"""
    env = dict(os.environ, PYTHONPATH=str(Path(rz.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def _model_text(model):
    text = model.family_name + (":interact" if model.interaction else "")
    return text if model.kappa is None else f"{text}:kappa={model.kappa!r}"


def _write_replication(path, d):
    """Write a table_a1 replication as an ``estimate`` CSV, floats by repr."""
    rows = ["z,y,x1,x2"] + [
        f"{zi},{yi!r},{xi[0]!r},{xi[1]!r}"
        for zi, yi, xi in zip(d.z.tolist(), d.y.tolist(), d.x.tolist())
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def _estimate_argv(config):
    """The ``estimate`` options of a study row."""
    if config.kind == "unadjusted":
        return ["--estimator", "unadjusted"]
    if config.kind == "ai":
        argv = ["--estimator", "ai"]
        for model, method in config.imputations:
            argv += ["--imputation", f"{_model_text(model)}@{method}"]
        return argv
    return ["--estimator", config.kind, "--model", _model_text(config.model),
            "--method", config.method]


class TestCliEqualsStudy:
    def test_every_table_a1_row(self, tmp_path):
        s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
        pot = simlab.gen_population(s, rz.make_rng(s.seed, 0))
        d = rz.observe(pot, rz.draw_assignment(rz.make_rng(s.seed, 1), s.n, s.n1))
        csv_path = _write_replication(tmp_path / "rep.csv", d)
        out = tmp_path / "res.json"
        [fits] = simlab.fit_tables([d], s.estimators)
        for config in s.estimators:
            expected = simlab.build_estimator(config, rz.LOG)(d, fits)
            argv = ["estimate", "--input", csv_path, "--g", "log",
                    "--output", str(out)] + _estimate_argv(config)
            assert main(argv) == 0, argv
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["tau_hat"] == expected.tau_hat, argv
            assert doc["se"] == expected.se(), argv

    def test_first_study_block(self, tmp_path, monkeypatch):
        # each estimate of the study's first block of replications, read from
        # the fit tables run_study builds for the whole block, equals the CLI
        # on that replication alone
        s = simlab.load_scenario(simlab.bundled_scenario_path("table_a1"))
        seen = []
        real_build = simlab.build_estimator

        def build(config, g):
            estimate = real_build(config, g)

            def recording(d, fits):
                result = estimate(d, fits)
                seen.append((config, d, result))
                return result

            return recording

        monkeypatch.setattr(simlab, "build_estimator", build)
        simlab.run_study(s, replications=simlab._BLOCK)
        assert len(seen) == simlab._BLOCK * len(s.estimators)
        out = tmp_path / "res.json"
        paths: dict = {}
        for config, d, expected in seen:
            if id(d) not in paths:
                paths[id(d)] = _write_replication(tmp_path / f"rep{len(paths)}.csv", d)
            argv = ["estimate", "--input", paths[id(d)], "--g", "log",
                    "--output", str(out)] + _estimate_argv(config)
            assert main(argv) == 0, argv
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["tau_hat"] == expected.tau_hat, argv
            assert doc["se"] == expected.se(), argv


class TestSimulate:
    def _scenario_file(self, tmp_path):
        doc = {
            "dgp": "null", "N": 50, "n1": 25, "seed": 9, "replications": 5,
            "g": "log",
            "estimators": [
                {"kind": "unadjusted"},
                {"kind": "ma", "family": "poisson", "interaction": True},
            ],
        }
        path = tmp_path / "s.scenario"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_deterministic_output_files(self, tmp_path):
        scenario = self._scenario_file(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--scenario", str(scenario), "--output", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("Model,Interaction,Estimation,Bias,SD,RMSE,ESE,Coverage")

    def test_bad_scenario_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.scenario"
        path.write_text("{not json", encoding="utf-8")
        assert main(["simulate", "--scenario", str(path)]) == 2

    def test_bad_estimator_entry_names_its_location(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["estimators"][1] = {"kind": "ma", "family": "negbin", "method": "squared-loss"}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path)]) == 2
        assert "estimators[1]" in capsys.readouterr().err

    def test_non_utf8_scenario_is_data_error(self, tmp_path, capsys):
        path = self._scenario_file(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"null"', b'"n\xffull"'))
        assert main(["simulate", "--scenario", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestEnumerate:
    def _pot_csv(self, tmp_path, y1, y0):
        rows = ["y1,y0"] + [f"{a},{b}" for a, b in zip(y1, y0)]
        path = tmp_path / "pot.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_hand_computed_mean(self, tmp_path, capsys):
        path = self._pot_csv(tmp_path, [1, 2, 3, 4], [0, 1, 2, 3])
        code = main(["enumerate", "--input", str(path), "--n1", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_assignments"] == 6
        assert doc["mean"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_population_zero_variance(self, tmp_path, capsys):
        path = self._pot_csv(tmp_path, [3, 3, 3, 3], [3, 3, 3, 3])
        code = main(["enumerate", "--input", str(path), "--n1", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["variance"] == 0.0

    @pytest.mark.parametrize("body,names", [
        ("1,0\n2,\n", ["column 'y0'", "data row 2"]),  # missing cell
        ("1,0\nabc,1\n", ["'abc'", "column 'y1'", "data row 2"]),  # bad token
        ("1,0\n2\n", ["data row 2", "1 fields, expected 2"]),  # short row
    ])
    def test_malformed_rows_are_data_errors(self, tmp_path, capsys, body, names):
        path = tmp_path / "bad.csv"
        path.write_text("y1,y0\n" + body, encoding="utf-8")
        assert main(["enumerate", "--input", str(path), "--n1", "1"]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    def test_non_utf8_byte_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y1,y0\n1,0\n\xff2,1\n")
        assert main(["enumerate", "--input", str(path), "--n1", "1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "UTF-8" in err, err

    def test_cap_exceeded_names_cap(self, tmp_path, capsys):
        y = list(range(30))
        path = self._pot_csv(tmp_path, y, y)
        code = main([
            "enumerate", "--input", str(path), "--n1", "15", "--cap", "1000",
        ])
        assert code == 2
        assert "1000" in capsys.readouterr().err
