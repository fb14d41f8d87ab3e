"""Finite-population data model for completely randomized experiments.

Potential outcomes and covariates are fixed constants; the only source of
randomness is the treatment assignment vector.  This module holds the data
containers (each dataset with its arm plan: the arm split and the
intercept-augmented design, built once on first use), the finite-population
variance (divisor N-1) and per-arm moments (divisor n_z-1), the exact
assignment enumerator used as a small-N oracle, and the seeded assignment
sampler.

Reproducibility: all random draws go through a ``numpy.random.Generator``
backed by the Philox 4x64 counter-based bit generator.  Philox output is
fully specified by its 128-bit key, so results are bit-identical across
platforms and process invocations; floating-point uniforms use numpy's
standard 53-bit doubles.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, NoReturn, Sequence

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    DimensionError,
    EnumerationTooLargeError,
)

ENUMERATION_CAP = 10**6


def _frozen_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _frozen_matrix(values, n_rows: int) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d covariate matrix, got shape {arr.shape}")
    if arr.shape[0] != n_rows:
        raise DimensionError(
            f"covariate matrix has {arr.shape[0]} rows, expected {n_rows}"
        )
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PotentialTable:
    """Both potential outcomes plus covariates for every unit.

    Only simulations and oracle computations can hold this table; observed
    experiments never see both outcome columns.
    """

    y1: np.ndarray
    y0: np.ndarray
    x: np.ndarray

    def __init__(self, y1, y0, x=None):
        y1 = _frozen_vector(y1)
        y0 = _frozen_vector(y0)
        if len(y1) != len(y0):
            raise DimensionError(
                f"y1 has length {len(y1)} but y0 has length {len(y0)}"
            )
        if len(y1) < 2:
            raise DegenerateInputError("a finite population needs at least 2 units")
        if x is None:
            x = np.empty((len(y1), 0))
        x = _frozen_matrix(x, len(y1))
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.y1)


@dataclass(frozen=True, eq=False)
class Assignment:
    """Binary treatment vector from a completely randomized design."""

    z: np.ndarray

    def __init__(self, z):
        arr = np.array(z, dtype=np.int64)
        if arr.ndim != 1:
            raise DimensionError(f"assignment must be a vector, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise DimensionError("assignment entries must be 0 or 1")
        n1 = int(arr.sum())
        if not 1 <= n1 <= len(arr) - 1:
            raise DimensionError(
                f"need at least one unit per arm, got n1={n1} of N={len(arr)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "z", arr)
        object.__setattr__(self, "_n1", n1)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def n1(self) -> int:
        return self._n1

    @property
    def n0(self) -> int:
        return self.n - self.n1


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def with_intercept(x: np.ndarray) -> np.ndarray:
    """Read-only [1, x] of a covariate matrix."""
    out = np.empty((x.shape[0], x.shape[1] + 1))
    out[:, 0] = 1.0
    out[:, 1:] = x
    return _frozen(out)


class ArmRows:
    """The units of one arm of a dataset, gathered once in unit order.

    ``units`` is the (N,) boolean mask of the arm's units, ``y`` and ``x``
    their (n_z,) outcomes and (n_z, d) covariates, ``share`` r_z = n_z / N,
    and ``design`` the (n_z, d + 1) rows [1, x], built on first use.  Every
    array is read-only.
    """

    def __init__(self, units: np.ndarray, y: np.ndarray, x: np.ndarray, share: float):
        self.units, self.y, self.x, self.share = units, y, x, share

    @cached_property
    def design(self) -> np.ndarray:
        return with_intercept(self.x)


class ArmPlan:
    """A dataset's arm split, shared by every estimator run on that dataset.

    ``treated`` and ``control`` hold the arms' rows; ``design`` is [1, x] of
    all units, built on first use.  A working model on the first k
    covariates reads the leading k + 1 design columns.
    """

    def __init__(self, d: "Dataset"):
        treated = _frozen(d.z == 1)
        control = _frozen(~treated)
        self._x = d.x
        self.treated, self.control = (
            ArmRows(units, _frozen(d.y.compress(units)),
                    _frozen(d.x.compress(units, axis=0)), n_z / d.n)
            for units, n_z in ((treated, d.n1), (control, d.n0))
        )

    @cached_property
    def design(self) -> np.ndarray:
        return with_intercept(self._x)

    def arm(self, z: int) -> ArmRows:
        return self.treated if z == 1 else self.control


@dataclass(frozen=True, eq=False)
class Dataset:
    """One observed experiment: assignment, observed outcomes, covariates.

    :attr:`plan` is built on first use and kept on this dataset only.
    """

    assignment: Assignment
    y: np.ndarray
    x: np.ndarray

    def __init__(self, assignment: Assignment, y, x=None):
        y = _frozen_vector(y)
        if len(y) != assignment.n:
            raise DimensionError(
                f"outcome has length {len(y)} but assignment has {assignment.n}"
            )
        if x is None:
            x = np.empty((len(y), 0))
        x = _frozen_matrix(x, len(y))
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def z(self) -> np.ndarray:
        return self.assignment.z

    @property
    def n(self) -> int:
        return self.assignment.n

    @property
    def n1(self) -> int:
        return self.assignment.n1

    @property
    def n0(self) -> int:
        return self.assignment.n0

    @property
    def r1(self) -> float:
        return self.n1 / self.n

    @property
    def r0(self) -> float:
        return self.n0 / self.n

    @cached_property
    def plan(self) -> ArmPlan:
        """The arm split: each arm's unit mask and rows, counted once."""
        return ArmPlan(self)


def observe(pot: PotentialTable, a: Assignment) -> Dataset:
    """Reveal one potential outcome per unit: Y = Z*Y(1) + (1-Z)*Y(0)."""
    if a.n != pot.n:
        raise DimensionError(
            f"assignment has {a.n} units but population has {pot.n}"
        )
    y = np.where(a.z == 1, pot.y1, pot.y0)
    return Dataset(a, y, pot.x)


# ---------------------------------------------------------------------------
# Finite-population moments
# ---------------------------------------------------------------------------

def fp_var(values) -> float:
    """Finite-population variance with divisor N-1."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise DegenerateInputError("variance needs at least 2 values")
    return float(np.var(arr, ddof=1))


def _arm_values(d: Dataset, arm: int, values) -> np.ndarray:
    rows = d.plan.arm(arm)
    return rows.y if values is None else np.asarray(values, dtype=float)[rows.units]


def group_mean(d: Dataset, arm: int, values=None) -> float:
    """Sample average over the units assigned to ``arm``."""
    picked = _arm_values(d, arm, values)
    if picked.size == 0:
        raise DegenerateInputError(f"no units in arm {arm}")
    return float(picked.mean())


def group_moments(d: Dataset, arm: int, values=None) -> tuple[float, float]:
    """Sample mean and variance (divisor n_z - 1) within one arm."""
    picked = _arm_values(d, arm, values)
    if picked.size < 2:
        raise DegenerateInputError(
            f"arm {arm} has {picked.size} unit(s); variance needs at least 2"
        )
    return float(picked.mean()), float(np.var(picked, ddof=1))


# ---------------------------------------------------------------------------
# Assignment machinery
# ---------------------------------------------------------------------------

def n_assignments(n: int, n1: int) -> int:
    return math.comb(n, n1)


def enumerate_assignments(
    n: int, n1: int, cap: int = ENUMERATION_CAP
) -> Iterator[Assignment]:
    """Yield all C(N, n1) assignments, in lexicographic order of z.

    This is the exact-randomization oracle; it refuses to run past ``cap``
    assignments because it is meant for desk-scale checks only.
    """
    if not 1 <= n1 <= n - 1:
        raise DimensionError(f"need 1 <= n1 <= N-1, got n1={n1}, N={n}")
    total = n_assignments(n, n1)
    if total > cap:
        raise EnumerationTooLargeError(
            f"C({n}, {n1}) = {total} assignments exceeds the cap of {cap}"
        )
    # Choosing the control positions in combinations order walks the z
    # vectors in ascending lexicographic order.
    for control_positions in combinations(range(n), n - n1):
        z = np.ones(n, dtype=np.int64)
        z[list(control_positions)] = 0
        yield Assignment(z)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded Philox generator; (seed, stream) pairs give disjoint streams.

    Philox is counter-based, so generators with distinct 128-bit keys never
    share output.  ``stream`` keys per-replication generators in simulation
    studies.
    """
    key = np.array([np.uint64(seed % (1 << 64)), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_assignment(rng: np.random.Generator, n: int, n1: int) -> Assignment:
    """One uniform draw from the completely randomized design.

    Implemented as a Fisher-Yates shuffle of the fixed vector with n1 ones,
    so every arrangement has probability 1 / C(N, n1).
    """
    if not 1 <= n1 <= n - 1:
        raise DimensionError(f"need 1 <= n1 <= N-1, got n1={n1}, N={n}")
    base = np.concatenate([np.ones(n1, dtype=np.int64), np.zeros(n - n1, dtype=np.int64)])
    return Assignment(rng.permutation(base))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# Column 'z' holds exactly the token 0 or 1, surrounding whitespace aside.
_Z_TOKENS = {"0": 0.0, "1": 1.0}


def _z_token(token: str) -> float:
    return _Z_TOKENS[token.strip()]  # loadtxt reports the KeyError as a bad cell


def _check_float(token: str, row_num: int, col: str) -> None:
    token = token.strip()
    if token == "":
        raise DataError(f"missing value in column '{col}' on data row {row_num}")
    try:
        # float() also reads digit-group underscores and non-ASCII digits,
        # which the columnar parse rejects.
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        float(token)
    except ValueError:
        raise DataError(
            f"cannot parse '{token}' in column '{col}' on data row {row_num}"
        ) from None


def _check_header(header: Sequence[str], required: list[str], path: str) -> int:
    """Validate ``required`` prefix followed by x1..xd; return d."""
    header = [h.strip() for h in header]
    for pos, name in enumerate(required):
        if pos >= len(header) or header[pos] != name:
            raise DataError(
                f"{path}: expected column '{name}' at position {pos + 1}, "
                f"got {header[pos] if pos < len(header) else 'nothing'}"
            )
    x_names = header[len(required):]
    for k, name in enumerate(x_names, start=1):
        if name != f"x{k}":
            raise DataError(
                f"{path}: expected covariate column 'x{k}', got '{name}'"
            )
    return len(x_names)


def _raise_first_bad_row(path: str, names: list[str], failure: str) -> NoReturn:
    """Re-read ``path`` row by row and raise a DataError naming the first bad
    row and column.  Runs only after the columnar parse failed, so it never
    returns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header, already checked
        n_rows = 0
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(names):
                raise DataError(
                    f"{path}: data row {row_num} has {len(row)} fields, expected {len(names)}"
                )
            for name, token in zip(names, row):
                if name != "z":
                    _check_float(token, row_num, name)
                elif token.strip() not in _Z_TOKENS:
                    raise DataError(
                        f"{path}: column 'z' must be 0 or 1, got '{token.strip()}' "
                        f"on data row {row_num}"
                    )
            n_rows += 1
    if n_rows < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    raise DataError(f"{path}: cannot parse the data rows: {failure}")


def _read_table(path: str, required: list[str]) -> np.ndarray:
    """The data rows of a ``<required>,x1,...,xd`` CSV as one float table.

    The body is parsed in one columnar call; when that fails or leaves fewer
    than two rows, :func:`_raise_first_bad_row` names the offending cell.
    A byte that is not UTF-8 is a DataError naming the file, whichever
    pass reads it first.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            d = _check_header(header, required, path)
            names = required + [f"x{k}" for k in range(1, d + 1)]
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # warns on a body with no rows
                    table = np.loadtxt(
                        fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                        converters={0: _z_token} if names[0] == "z" else None,
                    )
            except ValueError as exc:  # a UnicodeDecodeError recurs in the re-read
                failure = str(exc)
            else:
                if table.shape[1] == len(names) and len(table) >= 2:
                    return table
                failure = f"{len(table)} rows of {table.shape[1]} fields"
        _raise_first_bad_row(path, names, failure)
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} does not decode)"
        ) from None


def read_dataset_csv(path: str) -> Dataset:
    """Read an observed experiment from ``z,y,x1,...,xd`` CSV (UTF-8).

    Column z holds exactly the token 0 or 1 on every row (not 1.0 or +1).
    Every other cell is one number: optional surrounding whitespace, an
    optional sign, then decimal digits with an optional point and exponent,
    or inf, infinity or nan in any case.  A cell may be wrapped in double
    quotes.  Python's float() also reads digit-group underscores (1_000) and
    non-ASCII digits; these are rejected.  A missing cell is an error, blank
    lines are skipped, and LF, CRLF and CR line ends are all read.  A bad
    file raises a DataError that names the first bad data row and column.
    """
    table = _read_table(path, ["z", "y"])
    return Dataset(Assignment(table[:, 0]), table[:, 1], table[:, 2:])


def read_potential_csv(path: str) -> PotentialTable:
    """Read an oracle population from ``y1,y0,x1,...,xd`` CSV (UTF-8).

    Every cell follows the number grammar of :func:`read_dataset_csv`.
    """
    table = _read_table(path, ["y1", "y0"])
    return PotentialTable(table[:, 0], table[:, 1], table[:, 2:])
