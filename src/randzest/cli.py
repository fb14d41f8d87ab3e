"""Command-line interface.

Three subcommands:

* ``estimate``  - run estimators on an observed-experiment CSV;
* ``simulate``  - run a Monte Carlo study from a scenario file;
* ``enumerate`` - exact randomization mean/variance on an oracle CSV.

Exit codes: 0 success, 2 data or configuration error, 3 solver
non-convergence.  Results go to standard output as JSON documents (CSV for
study tables) unless ``--output`` redirects them to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .ate import gscale, tau_unadjusted
from .errors import ConvergenceError, RandzestError
from .estfun import parse_model_spec
from .finitepop import read_dataset_csv, read_potential_csv
from .ite import fit_normal_linear, fit_ternary
from .simlab import (
    EstimatorConfig,
    build_estimator,
    exact_randomization_distribution,
    fit_tables,
    load_scenario,
    run_study,
)
from .zestim import _normal_critical

DATA_ERROR = 2
SOLVER_ERROR = 3

_ESTIMATOR_CHOICES = (
    "b", "i", "ma", "ai", "unadjusted", "ite-linear", "ite-ternary",
)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _estimator_config(args) -> EstimatorConfig:
    """The ATE estimator a ``simulate`` row of the same kind would run."""
    if args.estimator != "ai":
        model = None if args.estimator == "unadjusted" else parse_model_spec(args.model)
        return EstimatorConfig(kind=args.estimator, model=model, method=args.method)
    imputations = []
    for text in args.imputation or [args.model]:
        model_text, _, method = text.partition("@")
        imputations.append((parse_model_spec(model_text), method or args.method))
    return EstimatorConfig(kind="ai", imputations=tuple(imputations))


def cmd_estimate(args) -> int:
    d = read_dataset_csv(args.input)
    if args.estimator == "ite-linear":
        fit = fit_normal_linear(d)
        doc = {
            "model": "ite-linear",
            "theta": [float(v) for v in fit.theta_hat],
            "sigma": [[float(v) for v in row] for row in fit.sigma_hat],
            "fitted": [float(v) for v in fit.fitted],
        }
        if args.fitted_csv:
            lines = ["unit,fitted_effect"] + [
                f"{i},{v}" for i, v in enumerate(fit.fitted)
            ]
            with open(args.fitted_csv, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        _emit(json.dumps(doc, indent=2), args.output)
        return 0
    if args.estimator == "ite-ternary":
        fit = fit_ternary(d, gamma=args.gamma)
        if not fit.zfit.converged:
            raise ConvergenceError(
                f"solver did not converge after {fit.zfit.iterations} "
                f"iterations: {fit.zfit.message}"
            )
        doc = {
            "model": f"ite-ternary(gamma={args.gamma})",
            "beta": [float(v) for v in fit.beta_hat],
            "sigma": [[float(v) for v in row] for row in fit.sigma_hat],
        }
        _emit(json.dumps(doc, indent=2), args.output)
        return 0

    config = _estimator_config(args)
    estimate = build_estimator(config, gscale(args.g))
    [fits] = fit_tables([d], [config])
    result = estimate(d, fits)
    _emit(json.dumps(result.to_document(args.alpha), indent=2), args.output)
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    table = run_study(scenario, replications=args.replications)
    _emit(table.to_csv(), args.output)
    return 0


def cmd_enumerate(args) -> int:
    pot = read_potential_csv(args.input)
    g = gscale(args.g)

    def statistic(d) -> float:
        return tau_unadjusted(d, g).tau_hat

    dist = exact_randomization_distribution(pot, args.n1, statistic, cap=args.cap)
    doc = {
        "estimator": "unadjusted",
        "g_scale": g.name,
        "n_assignments": int(len(dist.values)),
        "mean": dist.mean,
        "variance": dist.variance,
    }
    _emit(json.dumps(doc, indent=2), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randzest",
        description="Design-based treatment-effect estimation for completely "
        "randomized experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate effects from a z,y,x1.. CSV")
    est.add_argument("--input", required=True, help="observed-experiment CSV")
    est.add_argument("--estimator", required=True, choices=_ESTIMATOR_CHOICES)
    est.add_argument(
        "--model", default="gaussian",
        help="family[:interact][:kappa=<v>], e.g. poisson:interact",
    )
    est.add_argument(
        "--method", default="mle", choices=("mle", "squared-loss"),
        help="fit of the ma model, and the default METHOD of ai imputations",
    )
    est.add_argument(
        "--imputation", action="append",
        help="AI first-stage model, MODELSPEC[@METHOD]; repeatable",
    )
    est.add_argument("--g", default="identity", choices=("identity", "log", "logit"))
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--gamma", type=float, default=2.0, help="ternary model constant")
    est.add_argument("--fitted-csv", help="ite-linear: also dump per-unit fitted effects")
    est.add_argument("--output", help="write the JSON document here instead of stdout")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--replications", type=int, default=None,
                     help="override the scenario's replication count")
    sim.add_argument("--output", help="write the study CSV here instead of stdout")
    sim.set_defaults(func=cmd_simulate)

    enum = sub.add_parser("enumerate", help="exact randomization distribution")
    enum.add_argument("--input", required=True, help="oracle CSV with y1,y0,x1..")
    enum.add_argument("--n1", required=True, type=int, help="treated count")
    enum.add_argument("--g", default="identity", choices=("identity", "log", "logit"))
    enum.add_argument("--cap", type=int, default=10**6)
    enum.add_argument("--output", help="write the JSON document here instead of stdout")
    enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "alpha"):
            _normal_critical(args.alpha)  # a bad alpha fails before any fit
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except (RandzestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
