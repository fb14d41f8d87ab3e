"""The three benchmark workloads.

Each workload makes its inputs from the seed alone, so the program receives
only generated data.  ``setup`` makes the program calls a user waits for
before the first result; ``run_chunk`` runs one chunk of ops, the unit that
is timed, traced and checked:

* study-a1: ``run_study`` over 20 replications of the bundled table_a1
  scenario (one op per replication).  Its time is in ~7 small damped-Newton
  solves per replication, and it is the only workload that goes through the
  study runner's per-replication fit cache and worker pool.
* estimate-large: one pass of 9 in-process ``randzest estimate`` calls on a
  30,000-unit count experiment (one op per pass).  Per-call overhead is
  negligible; the work is CSV ingest, per-unit Jacobian tensors and the
  individual-effect fits.  The study runner and the enumerator are bypassed.
* enum-oracle: all C(16, 8) = 12,870 assignments of a fixed population (one
  op per assignment), each with the unadjusted estimate and the empirical
  Poisson score.  No solve runs; per-dataset overhead on 8 units per arm
  dominates, so this is where a per-dataset planning cost would show.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np

DEFAULT_SEED = 26  # table_a1's own seed; stored references apply to it
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-8  # reference values survive reassociation, not a changed result
ABS_TOL = 1e-10


@dataclasses.dataclass
class Chunk:
    latencies: list  # seconds per op
    elapsed: float  # seconds for the whole chunk
    attempted: int
    failed: int
    result: object  # compared between a chunk and its traced repeat
    complete: bool = True


def _close(stored, actual, path: str, problems: list) -> None:
    """Compare a stored reference document with a fresh one."""
    if isinstance(stored, dict) and isinstance(actual, dict):
        if stored.keys() != actual.keys():
            problems.append(f"{path}: keys {sorted(actual)} != stored {sorted(stored)}")
            return
        for key in stored:
            _close(stored[key], actual[key], f"{path}.{key}", problems)
    elif isinstance(stored, list) and isinstance(actual, list):
        if len(stored) != len(actual):
            problems.append(f"{path}: length {len(actual)} != stored {len(stored)}")
            return
        for k, (s, a) in enumerate(zip(stored, actual)):
            _close(s, a, f"{path}[{k}]", problems)
    elif isinstance(stored, float) and isinstance(actual, float):
        if not math.isclose(stored, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{path}: {actual!r} != stored {stored!r}")
    elif stored != actual:
        problems.append(f"{path}: {actual!r} != stored {stored!r}")


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    @property
    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json"

    def prepare(self) -> None:
        """Write input files; benchmark work, not timed as setup."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_chunk(self, index: int, deadline) -> Chunk:
        raise NotImplementedError

    def intrinsic_problems(self, chunk: Chunk) -> list:
        raise NotImplementedError

    def reference_document(self, chunk: Chunk):
        """What the stored reference holds, or None if the workload has none."""
        return None

    def check(self, chunk: Chunk, index: int) -> list:
        """Intrinsic checks on every chunk; the stored reference on chunk 0 of
        the default seed, once those pass (a failed call has no output)."""
        problems = self.intrinsic_problems(chunk)
        if problems or index != 0 or self.seed != DEFAULT_SEED or self.smoke:
            return problems
        doc = self.reference_document(chunk)
        if doc is not None:
            stored = json.loads(self.reference_path.read_text(encoding="utf-8"))
            _close(stored, json.loads(json.dumps(doc)), self.name, problems)
        return problems


class StudyA1(Workload):
    name = "study-a1"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.reps = 2 if smoke else 20

    def setup(self) -> None:
        import randzest as rz
        from randzest import simlab

        base = rz.load_scenario(rz.bundled_scenario_path("table_a1"))
        self.scenario = dataclasses.replace(base, seed=self.seed)
        pot = rz.gen_population(self.scenario, rz.make_rng(self.seed, 0))
        g = rz.gscale(self.scenario.g)
        self.estimators = [simlab.build_estimator(c, g) for c in self.scenario.estimators]
        self.truth = float(g.g(np.mean(pot.y1)) - g.g(np.mean(pot.y0)))

    def run_chunk(self, index, deadline) -> Chunk:
        import randzest as rz
        from randzest import simlab

        # Chunk 0 is the plain scenario with its seed replaced; later chunks
        # keep that population and draw other assignments.
        scenario = dataclasses.replace(self.scenario, seed=self.seed + index * 2**32)
        stamps = []
        draw = simlab.draw_assignment

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return draw(*args, **kwargs)

        simlab.draw_assignment = stamped
        try:
            start = time.perf_counter()
            table = rz.run_study(scenario, replications=self.reps, rng=rz.make_rng(self.seed, 0))
            end = time.perf_counter()
        finally:
            simlab.draw_assignment = draw
        if len(stamps) == self.reps:
            latencies = list(np.diff(stamps + [end]))
        else:  # replications ran where the stamps cannot see them
            latencies = [(end - start) / self.reps] * self.reps
        return Chunk(
            latencies=latencies,
            elapsed=end - start,
            attempted=len(table.rows) * self.reps,
            failed=sum(row.failures for row in table.rows),
            result=table,
        )

    def intrinsic_problems(self, chunk) -> list:
        table = chunk.result
        problems = []
        if len(table.rows) != len(self.estimators):
            problems.append(f"{len(table.rows)} table rows for {len(self.estimators)} estimators")
        if table.truth != self.truth:
            problems.append(f"truth {table.truth!r} != population value {self.truth!r}")
        for row in table.rows:
            label = f"{row.model}/{row.estimation}"
            if row.replications_used + row.failures != self.reps:
                problems.append(f"{label}: used + failures != {self.reps}")
            values = (row.sqrt_n_bias, row.sqrt_n_sd, row.sqrt_n_rmse, row.sqrt_n_ese)
            if not np.isfinite(values).all():
                problems.append(f"{label}: non-finite summary {values}")
            if not 0.0 <= row.coverage <= 1.0:
                problems.append(f"{label}: coverage {row.coverage} outside [0, 1]")
        return problems

    def reference_document(self, chunk):
        table = chunk.result
        return {
            "replications": table.replications,
            "truth": table.truth,
            "rows": [dataclasses.asdict(row) for row in table.rows],
        }


def _count_experiment(seed: int, n: int):
    """Overdispersed counts with 4 covariates; moderate effects on the log scale."""
    rng = np.random.default_rng([seed, 1])
    x = rng.standard_normal((n, 4))
    mu1 = np.exp(1.2 + x @ np.array([0.3, -0.2, 0.15, 0.1]))
    mu0 = np.exp(1.0 + x @ np.array([0.2, 0.1, -0.15, 0.05]))
    y1 = rng.poisson(mu1 * rng.gamma(4.0, 0.25, n))
    y0 = rng.poisson(mu0 * rng.gamma(4.0, 0.25, n))
    z = rng.permutation(np.repeat([1, 0], [n // 2, n - n // 2]))
    return z, np.where(z == 1, y1, y0).astype(float), x


def _write_dataset_csv(path: Path, z, y, x) -> None:
    header = "z,y," + ",".join(f"x{k + 1}" for k in range(x.shape[1]))
    lines = [header] + [
        f"{zi},{yi!r}," + ",".join(repr(v) for v in xi)
        for zi, yi, xi in zip(z.tolist(), y.tolist(), x.tolist())
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class EstimateLarge(Workload):
    name = "estimate-large"

    ATE_CALLS = {
        "unadjusted": ["--estimator", "unadjusted"],
        "b-poisson": ["--estimator", "b", "--model", "poisson:interact"],
        "i-poisson": ["--estimator", "i", "--model", "poisson:interact"],
        "ma-poisson": ["--estimator", "ma", "--model", "poisson:interact"],
        "ma-poisson-sq": ["--estimator", "ma", "--model", "poisson:interact",
                          "--method", "squared-loss"],
        "ma-negbin": ["--estimator", "ma", "--model", "negbin:interact"],
        "ai-poisson-negbin": ["--estimator", "ai", "--imputation", "poisson:interact",
                              "--imputation", "negbin:interact"],
    }

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.z, self.y, self.x = _count_experiment(seed, 2000 if smoke else 30_000)
        self.dir = workdir / f"{self.name}-seed{seed}"
        counts = str(self.dir / "counts.csv")
        binary = str(self.dir / "binary.csv")
        self.calls = {
            label: ["estimate", "--input", counts, "--g", "log"] + argv
            for label, argv in self.ATE_CALLS.items()
        }
        self.calls["ite-linear"] = ["estimate", "--input", counts, "--estimator", "ite-linear"]
        self.calls["ite-ternary"] = ["estimate", "--input", binary, "--estimator", "ite-ternary"]
        for label, argv in self.calls.items():
            argv += ["--output", str(self.dir / f"{label}.json")]

    def prepare(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        _write_dataset_csv(self.dir / "counts.csv", self.z, self.y, self.x)
        binary = (self.y > np.median(self.y)).astype(float)
        _write_dataset_csv(self.dir / "binary.csv", self.z, binary, self.x)

    def setup(self) -> None:
        import randzest.cli  # noqa: F401  (the CLI module is not imported by the package)

    def run_chunk(self, index, deadline) -> Chunk:
        from randzest import cli

        outputs = {label: self.dir / f"{label}.json" for label in self.calls}
        for path in outputs.values():
            path.unlink(missing_ok=True)
        codes = {}
        start = time.perf_counter()
        for label, argv in self.calls.items():
            codes[label] = cli.main(list(argv))
        end = time.perf_counter()
        docs = {
            label: json.loads(outputs[label].read_text(encoding="utf-8")) if code == 0 else None
            for label, code in codes.items()
        }
        return Chunk(
            latencies=[end - start],
            elapsed=end - start,
            attempted=len(codes),
            failed=sum(code != 0 for code in codes.values()),
            result={"codes": codes, "docs": docs},
        )

    def intrinsic_problems(self, chunk) -> list:
        codes, docs = chunk.result["codes"], chunk.result["docs"]
        problems = [f"{label}: exit code {code}" for label, code in codes.items() if code != 0]
        if problems:
            return problems
        gap = abs(docs["i-poisson"]["tau_hat"] - docs["ma-poisson"]["tau_hat"])
        if gap > 1e-8:
            problems.append(f"model-imputed and model-assisted Poisson fits differ by {gap:.3g}")
        for label, doc in docs.items():
            numbers = [v for key, v in doc.items() if key not in ("model", "estimator_kind", "g_scale")]
            if not np.isfinite(np.concatenate([np.ravel(v) for v in numbers])).all():
                problems.append(f"{label}: non-finite output")
        return problems

    def reference_document(self, chunk):
        docs = chunk.result["docs"]
        out = {label: {"tau_hat": docs[label]["tau_hat"], "se": docs[label]["se"]}
               for label in self.ATE_CALLS}
        for label, key in (("ite-linear", "theta"), ("ite-ternary", "beta")):
            doc = docs[label]
            out[label] = {key: doc[key], "se": np.sqrt(np.diag(doc["sigma"])).tolist()}
        return out


class EnumOracle(Workload):
    name = "enum-oracle"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.n, self.n1 = (8, 4) if smoke else (16, 8)
        rng = np.random.default_rng([seed, 2])
        self.x = rng.standard_normal((self.n, 2))
        self.y0 = rng.poisson(np.exp(1.0 + 0.4 * self.x[:, 0] - 0.3 * self.x[:, 1])).astype(float)
        self.y1 = self.y0 + rng.poisson(2.0, self.n)
        self.theta = 0.2 * rng.standard_normal(6)

    def setup(self) -> None:
        import randzest as rz

        self.pot = rz.PotentialTable(self.y1, self.y0, self.x)
        self.spec = rz.MeanSpec(rz.poisson_family(), True, 2)
        self.estfun = rz.glm_score_estfun(self.spec)

    def run_chunk(self, index, deadline) -> Chunk:
        import randzest as rz
        from randzest.errors import RandzestError

        # Rebuilt per chunk so that a traced chunk times the score callables.
        f = rz.glm_score_estfun(self.spec)
        taus, psis, latencies = [], [], []
        failed = 0
        assignments = rz.enumerate_assignments(self.n, self.n1)
        start = before = time.perf_counter()
        for assignment in assignments:
            d = rz.observe(self.pot, assignment)
            try:
                taus.append(rz.tau_unadjusted(d, rz.IDENTITY).tau_hat)
            except RandzestError:
                failed += 1
            try:
                psis.append(rz.empirical_psi(d, f, self.theta))
            except RandzestError:
                failed += 1
            after = time.perf_counter()
            latencies.append(after - before)
            before = after
            if deadline is not None and after >= deadline:
                break
        end = time.perf_counter()
        complete = len(latencies) == math.comb(self.n, self.n1)
        return Chunk(
            latencies=latencies,
            elapsed=end - start,
            attempted=2 * len(latencies),
            failed=failed,
            result=(len(taus), float(np.mean(taus)), np.mean(psis, axis=0).tolist()),
            complete=complete,
        )

    def intrinsic_problems(self, chunk) -> list:
        import randzest as rz

        if not chunk.complete:
            return []
        count, mean_tau, mean_psi = chunk.result
        problems = []
        expected = math.comb(self.n, self.n1)
        if count != expected:
            problems.append(f"{count} assignments evaluated, expected {expected}")
        gap = abs(mean_tau - (self.y1.mean() - self.y0.mean()))
        if gap > 1e-12:
            problems.append(f"mean unadjusted estimate is off the effect by {gap:.3g}")
        pop = rz.population_psi(self.pot, self.estfun, self.theta, self.n1 / self.n)
        gap = float(np.max(np.abs(np.asarray(mean_psi) - pop)))
        if gap > 1e-12:
            problems.append(f"mean empirical psi is off population psi by {gap:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (StudyA1, EstimateLarge, EnumOracle)}
