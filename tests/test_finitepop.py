"""Data model, finite-population moments, and assignment machinery."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randzest as rz
from randzest.errors import (
    DataError,
    DegenerateInputError,
    DimensionError,
    EnumerationTooLargeError,
)


class TestObserve:
    def test_direct_substitution(self):
        pot = rz.PotentialTable([5, 5], [1, 1])
        d = rz.observe(pot, rz.Assignment([1, 0]))
        np.testing.assert_array_equal(d.y, [5, 1])

    def test_null_effect_population(self):
        pot = rz.PotentialTable([3, 3, 3], [3, 3, 3])
        d = rz.observe(pot, rz.Assignment([0, 1, 0]))
        np.testing.assert_array_equal(d.y, [3, 3, 3])

    def test_four_units(self):
        pot = rz.PotentialTable([1, 2, 3, 4], [0, 1, 2, 3])
        d = rz.observe(pot, rz.Assignment([1, 1, 0, 0]))
        np.testing.assert_array_equal(d.y, [1, 2, 2, 3])

    def test_covariates_copied(self):
        x = [[1.0, 2.0], [3.0, 4.0]]
        pot = rz.PotentialTable([5, 5], [1, 1], x)
        d = rz.observe(pot, rz.Assignment([1, 0]))
        np.testing.assert_array_equal(d.x, x)

    def test_length_mismatch(self):
        pot = rz.PotentialTable([5, 5], [1, 1])
        with pytest.raises(DimensionError):
            rz.observe(pot, rz.Assignment([1, 0, 1]))


class TestMoments:
    def test_fp_var_hand_computed(self):
        # mean 2, squared deviations 1+0+1, divisor N-1 = 2
        assert rz.fp_var([1, 2, 3]) == pytest.approx(1.0, abs=1e-15)

    def test_fp_var_constant(self):
        assert rz.fp_var([4.2] * 7) == 0.0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            rz.fp_var([1.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_fp_var_nonnegative(self, values):
        assert rz.fp_var(values) >= 0.0


class TestGroupMoments:
    def test_single_unit_mean(self):
        d = rz.Dataset(rz.Assignment([1, 0]), [5.0, 1.0])
        assert rz.group_mean(d, 1) == 5.0

    def test_constant_within_arm(self):
        d = rz.Dataset(rz.Assignment([1, 1, 0, 0]), [7.0, 7.0, 1.0, 2.0])
        mean, var = rz.group_moments(d, 1)
        assert (mean, var) == (7.0, 0.0)

    def test_hand_computed(self):
        # treated values (1, 3): mean 2, var ((1-2)^2 + (3-2)^2) / 1 = 2
        d = rz.Dataset(rz.Assignment([1, 1, 0, 0]), [1.0, 3.0, 2.0, 6.0])
        mean, var = rz.group_moments(d, 1)
        assert mean == pytest.approx(2.0)
        assert var == pytest.approx(2.0)

    def test_variance_needs_two_units(self):
        d = rz.Dataset(rz.Assignment([1, 0, 0]), [5.0, 1.0, 2.0])
        with pytest.raises(DegenerateInputError):
            rz.group_moments(d, 1)


class TestEnumeration:
    @pytest.mark.parametrize("n,n1,count", [(3, 1, 3), (4, 2, 6)])
    def test_counts(self, n, n1, count):
        assert len(list(rz.enumerate_assignments(n, n1))) == count

    def test_six_choose_three(self):
        # generate, deduplicate, and check arm sizes
        assignments = list(rz.enumerate_assignments(6, 3))
        assert len(assignments) == 20
        seen = {tuple(a.z) for a in assignments}
        assert len(seen) == 20
        assert all(a.n1 == 3 for a in assignments)

    def test_lexicographic_order(self):
        zs = [tuple(a.z) for a in rz.enumerate_assignments(4, 2)]
        assert zs == sorted(zs)
        assert zs[0] == (0, 0, 1, 1)
        assert zs[-1] == (1, 1, 0, 0)

    def test_cap(self):
        with pytest.raises(EnumerationTooLargeError, match="cap"):
            list(rz.enumerate_assignments(6, 3, cap=19))

    def test_full_enumeration_covers_both_arms(self):
        pot = rz.PotentialTable([1, 2, 3, 4], [0, 1, 2, 3])
        in_treated = np.zeros(4, dtype=bool)
        in_control = np.zeros(4, dtype=bool)
        for a in rz.enumerate_assignments(4, 2):
            in_treated |= a.z == 1
            in_control |= a.z == 0
            rz.observe(pot, a)
        assert in_treated.all() and in_control.all()

    def test_randomization_mean_of_arm_average(self):
        # Averaging the treated-arm mean over all assignments recovers the
        # population mean of Y(1), exactly.
        gen = rz.make_rng(3)
        for n, n1 in [(4, 2), (6, 3), (8, 3)]:
            y1 = gen.standard_normal(n)
            y0 = gen.standard_normal(n)
            pot = rz.PotentialTable(y1, y0)
            means = [
                rz.group_mean(rz.observe(pot, a), 1)
                for a in rz.enumerate_assignments(n, n1)
            ]
            assert np.mean(means) == pytest.approx(np.mean(y1), abs=1e-12)


class TestDrawAssignment:
    def test_deterministic_under_seed(self):
        a = rz.draw_assignment(rz.make_rng(123), 10, 4)
        b = rz.draw_assignment(rz.make_rng(123), 10, 4)
        np.testing.assert_array_equal(a.z, b.z)

    def test_invalid_n1(self):
        with pytest.raises(DimensionError):
            rz.draw_assignment(rz.make_rng(0), 5, 5)

    def test_inclusion_probability(self):
        # exact inclusion probability is n1/N = 0.5; with 2e5 draws the
        # frequency per unit is within 0.005 of it (about 4.5 sigma)
        gen = rz.make_rng(7)
        draws = 200_000
        counts = np.zeros(6)
        for _ in range(draws):
            counts += rz.draw_assignment(gen, 6, 3).z
        np.testing.assert_allclose(counts / draws, 0.5, atol=0.005)

    def test_uniform_over_assignments(self):
        # all 6 assignments of C(4,2) appear with frequency 1/6 +/- 0.01
        gen = rz.make_rng(11)
        draws = 60_000
        freq = {}
        for _ in range(draws):
            key = tuple(rz.draw_assignment(gen, 4, 2).z)
            freq[key] = freq.get(key, 0) + 1
        assert len(freq) == 6
        for count in freq.values():
            assert count / draws == pytest.approx(1 / 6, abs=0.01)


class TestValidation:
    def test_assignment_entries(self):
        with pytest.raises(DimensionError):
            rz.Assignment([0, 2, 1])

    def test_assignment_needs_both_arms(self):
        with pytest.raises(DimensionError):
            rz.Assignment([1, 1, 1])

    def test_population_needs_two_units(self):
        with pytest.raises(DegenerateInputError):
            rz.PotentialTable([1.0], [0.0])

    def test_proportions(self):
        d = rz.Dataset(rz.Assignment([1, 0, 0, 0]), [1.0, 2.0, 3.0, 4.0])
        assert d.r1 == 0.25 and d.r0 == 0.75 and d.r1 + d.r0 == 1.0

    def test_arrays_read_only(self):
        d = rz.Dataset(rz.Assignment([1, 0]), [1.0, 2.0])
        with pytest.raises(ValueError):
            d.y[0] = 9.0


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("z,y,x1,x2\n1,2.5,0.1,-1\n0,1.0,0.2,3\n", encoding="utf-8")
        d = rz.read_dataset_csv(str(path))
        np.testing.assert_array_equal(d.z, [1, 0])
        np.testing.assert_allclose(d.y, [2.5, 1.0])
        np.testing.assert_allclose(d.x, [[0.1, -1.0], [0.2, 3.0]])

    def test_missing_value_is_hard_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("z,y,x1\n1,2.5,0.1\n0,,0.2\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing value in column 'y'"):
            rz.read_dataset_csv(str(path))

    def test_bad_treatment_indicator(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("z,y\n2,1.0\n0,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="'z' must be 0 or 1"):
            rz.read_dataset_csv(str(path))

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("treat,y\n1,1.0\n0,2.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected column 'z'"):
            rz.read_dataset_csv(str(path))

    def test_potential_csv(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text("y1,y0,x1\n1,0,0.5\n2,1,0.6\n3,2,0.7\n", encoding="utf-8")
        pot = rz.read_potential_csv(str(path))
        assert pot.n == 3
        np.testing.assert_allclose(pot.y1, [1, 2, 3])


# ---------------------------------------------------------------------------
# The columnar readers against the row-by-row reader they replaced
# ---------------------------------------------------------------------------

def _reference_float(token, row_num, col):
    token = token.strip()
    if token == "":
        raise DataError(f"missing value in column '{col}' on data row {row_num}")
    try:
        return float(token)
    except ValueError:
        raise DataError(
            f"cannot parse '{token}' in column '{col}' on data row {row_num}"
        ) from None


def _reference_read(path, required):
    """Row-by-row reader: (first column, second column, covariate rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for pos, name in enumerate(required):
            if pos >= len(header) or header[pos] != name:
                raise DataError(
                    f"{path}: expected column '{name}' at position {pos + 1}, "
                    f"got {header[pos] if pos < len(header) else 'nothing'}"
                )
        for k, name in enumerate(header[2:], start=1):
            if name != f"x{k}":
                raise DataError(f"{path}: expected covariate column 'x{k}', got '{name}'")
        d = len(header) - 2
        first, second, x_rows = [], [], []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != 2 + d:
                raise DataError(
                    f"{path}: data row {row_num} has {len(row)} fields, expected {2 + d}"
                )
            if required[0] == "z":
                z_val = row[0].strip()
                if z_val not in ("0", "1"):
                    raise DataError(
                        f"{path}: column 'z' must be 0 or 1, got '{z_val}' on data row {row_num}"
                    )
                first.append(int(z_val))
            else:
                first.append(_reference_float(row[0], row_num, required[0]))
            second.append(_reference_float(row[1], row_num, required[1]))
            x_rows.append(
                [_reference_float(tok, row_num, f"x{k + 1}") for k, tok in enumerate(row[2:])]
            )
    if len(second) < 2:
        raise DataError(f"{path}: need at least 2 data rows")
    return first, second, np.array(x_rows, dtype=float).reshape(len(second), d)


_READERS = {
    "dataset": (["z", "y"], rz.read_dataset_csv, lambda d: (d.z, d.y, d.x)),
    "potential": (["y1", "y0"], rz.read_potential_csv, lambda p: (p.y1, p.y0, p.x)),
}

_SPECIAL_NUMBERS = ["inf", "-Infinity", "nan", "NaN", "1e400", "-1e-400", "1.", ".5",
                    "+2", "-0.0", "0", "1E5", "3"]


@st.composite
def _csv_cells(draw, token):
    """One cell: optional whitespace padding, then optional double quotes."""
    pad = st.sampled_from(["", " ", "  ", "\t", " \t "])
    cell = draw(pad) + token + draw(pad)
    return f'"{cell}"' if draw(st.booleans()) else cell


@st.composite
def _valid_tables(draw):
    kind = draw(st.sampled_from(sorted(_READERS)))
    d = draw(st.integers(0, 3))
    n = draw(st.integers(2, 10))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(_SPECIAL_NUMBERS),
    )
    names = _READERS[kind][0] + [f"x{k}" for k in range(1, d + 1)]
    lines = [",".join(names)]
    for i in range(n):
        if kind == "dataset":
            first = draw(_csv_cells(str(i % 2) if i < 2 else draw(st.sampled_from("01"))))
        else:
            first = draw(_csv_cells(draw(number)))
        rest = [draw(_csv_cells(draw(number))) for _ in range(1 + d)]
        lines.append(",".join([first] + rest))
        lines.extend([""] * draw(st.integers(0, 1)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return kind, newline.join(lines) + newline * draw(st.integers(0, 2))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestColumnarCsv:
    @given(_valid_tables())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_row_by_row(self, table):
        kind, text = table
        required, read, columns = _READERS[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "t.csv")
            Path(path).write_bytes(text.encode("utf-8"))
            expected = _reference_read(path, required)
            got = columns(read(path))
        for want, have in zip(expected, got):
            assert _same_bits(want, have)

    def test_row_by_row_pass_runs_only_after_a_failed_parse(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("row-by-row pass on a valid file")

        monkeypatch.setattr(rz.finitepop, "_raise_first_bad_row", forbidden)
        path = tmp_path / "d.csv"
        path.write_text("z,y,x1\n1,2.5,0.1\n0,1.0,0.2\n", encoding="utf-8")
        assert rz.read_dataset_csv(str(path)).n == 2

    @pytest.mark.parametrize("kind,text", [
        ("dataset", "z,y,x1\n1,2.5,0.1\n0,,0.2\n"),  # missing cell
        ("dataset", "z,y\n1,2.5\n0,abc\n"),  # bad token
        ("dataset", "z,y,x1\n1,2.5,0.1\n0,1.0\n"),  # short row
        ("dataset", "z,y\n1,2.5,\n0,1.0\n"),  # trailing comma
        ("dataset", "z,y\n1,2.5\n   \n0,1.0\n"),  # whitespace-only line
        ("dataset", "z,y\n2,1.0\n0,2.0\n"),
        ("dataset", "z,y\n1.0,1.0\n0,2.0\n"),
        ("dataset", "z,y\n1,1.0\n+1,2.0\n0,3.0\n"),
        ("dataset", "z,y\n\n1,1.0\n\n0,x\n"),  # row numbers count blank lines
        ("dataset", 'z,y\n1,1.0\n0, "2.0"\n'),  # space before a quote
        ("dataset", "treat,y\n1,1.0\n0,2.0\n"),  # bad header
        ("dataset", "z,y,x2\n1,1.0,0\n0,2.0,0\n"),
        ("dataset", ""),  # empty file
        ("dataset", "z,y\n1,2.5\n"),  # single data row
        ("dataset", "z,y\n\n\n"),
        ("potential", "y1,y0,x1\n1,0,0.5\n2,,0.6\n"),
        ("potential", "y1,y0\n1,0\n2,1\n3\n"),
        ("potential", "y1,y0\n1,0\n2,one\n"),
        ("potential", "y0,y1\n1,0\n2,1\n"),
        ("potential", "y1,y0\n1,0\n"),
    ])
    def test_malformed_file_keeps_its_message(self, tmp_path, kind, text):
        required, read, _ = _READERS[kind]
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError) as want:
            _reference_read(str(path), required)
        with pytest.raises(DataError) as got:
            read(str(path))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("token", ["1_000", "\u0661"])
    def test_float_only_literal_names_its_cell(self, tmp_path, token):
        # float() reads digit-group underscores and Arabic-Indic digits; the
        # columnar grammar does not, and the error names the cell.
        path = tmp_path / "d.csv"
        path.write_text(f"z,y,x1\n1,2.5,0.1\n0,1.0,{token}\n", encoding="utf-8")
        _reference_read(str(path), ["z", "y"])
        with pytest.raises(DataError, match=f"'{token}' in column 'x1' on data row 2"):
            rz.read_dataset_csv(str(path))
