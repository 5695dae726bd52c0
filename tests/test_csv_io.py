"""CSV reading and writing of the command-line interface.

The numpy-based ``read_csv``/``write_csv`` are checked against the
per-value loop versions they replaced, kept here as references; the
writer's vectorised ``%.17g`` must give the reference's bytes for every
float64, including where it hands values over to Python's formatting.
"""

import csv
import decimal
import fractions
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cowlib import _g17, cli
from cowlib.cli import CliInputError


def reference_read_csv(path, min_cols=1):
    """Per-value ``csv.reader`` + ``float()`` loop (the replaced reader)."""
    rows = []
    names = None
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                if lineno == 1 and names is None:
                    names = [v.strip() for v in row]
                    continue
                raise CliInputError(f"{path}: malformed CSV row at line {lineno}") from exc
            if names is not None and len(row) != len(names):
                raise CliInputError(f"{path}: wrong column count at line {lineno}")
    if not rows:
        raise CliInputError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < min_cols:
        raise CliInputError(f"{path}: need at least {min_cols} columns, found {data.shape[1]}")
    if names is None:
        names = ["m", "t"][: data.shape[1]] + [f"c{i}" for i in range(2, data.shape[1])]
    return names, data


def reference_write_csv(path, names, data):
    """Per-value ``csv.writer`` + ``format(v, ".17g")`` loop (the replaced writer)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.atleast_2d(data):
            writer.writerow([format(float(v), ".17g") for v in row])


def _outcome(reader, path, min_cols=1):
    try:
        names, data = reader(path, min_cols=min_cols)
    except CliInputError as exc:
        return "error", str(exc)
    return names, data.tobytes(), data.shape


VALID_FILES = {
    "header": "m,t\n0.5,1.0\n0.25,2.5\n",
    "no_header": "0.5,1.0\n0.25,2.5\n1e-3,-4\n",
    "blank_lines": "m,t\n\n0.5,1.0\n\n\n0.25,2.5\n\n",
    "leading_blank_line": "\n0.5,1.0\n0.25,2.5\n",
    "crlf": "m,t\r\n0.5,1.0\r\n0.25,2.5\r\n",
    "spaces": " m , t \n 0.5 , 1.0\n\t0.25,2.5 \n",
    "quoted_numbers": '"m","t"\n"0.5","1.0"\n0.25,"2.5"\n',
    "quoted_header_with_comma": '"m, GeV",t\n0.5,1.0\n',
    "one_column": "m\n0.5\n0.25\n0.125\n",
    "one_column_no_header": "0.5\n0.25\n",
    "one_row": "0.5,1.0\n",
    "no_trailing_newline": "m,t\n0.5,1.0\n0.25,2.5",
    "special_values": "m,t\ninf,-inf\nnan,-0\n+1.5,.5\n5e-324,1.7976931348623157e308\n",
    "three_columns": "m,t,label\n0.5,1.0,1\n0.25,2.5,0\n",
}

MALFORMED_FILES = {
    "bad_value": ("m,t\n0.5,1.0\n0.6,oops\n", "line 3"),
    "bad_value_no_header": ("0.5,1.0\n0.6,1.0\noops,1\n", "line 3"),
    "bad_after_blank": ("m,t\n0.5,1.0\n\n\n0.6,x\n", "line 5"),
    "trailing_comma": ("m,t\n0.5,1.0,\n", "line 2"),
    "too_many_columns": ("m,t\n0.5,1.0\n0.5,1.0,2.0\n", "line 3"),
    "too_few_columns": ("m,t\n0.5,1.0\n0.5\n", "line 3"),
    "header_wider_than_data": ("m,t,x\n0.5,1.0\n0.5,1.0\n", "line 2"),
    "whitespace_only_line": ("m,t\n0.5,1.0\n   \n0.6,1.0\n", "line 3"),
    "comment_line": ("m,t\n0.5,1.0\n# note\n", "line 3"),
    "semicolons": ("m;t\n0.5;1.0\n", "line 2"),
    "no_data_rows": ("m,t\n", "no data rows"),
    "empty_file": ("", "no data rows"),
    "only_blank_lines": ("\n\n\n", "no data rows"),
}


@pytest.mark.parametrize("name", sorted(VALID_FILES))
def test_read_csv_matches_reference(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(VALID_FILES[name].encode())
    assert _outcome(cli.read_csv, str(path)) == _outcome(reference_read_csv, str(path))


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_read_csv_errors_match_reference(tmp_path, name):
    text, needle = MALFORMED_FILES[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    got = _outcome(cli.read_csv, str(path))
    assert got == _outcome(reference_read_csv, str(path))
    assert got[0] == "error" and needle in got[1]


def test_read_csv_min_cols(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("m\n0.5\n")
    got = _outcome(cli.read_csv, str(path), min_cols=2)
    assert got == _outcome(reference_read_csv, str(path), min_cols=2)
    assert "need at least 2 columns" in got[1]


def test_read_csv_ragged_rows_without_header_name_the_line(tmp_path):
    # the loop version crashed here on a ragged np.asarray
    path = tmp_path / "ragged.csv"
    path.write_text("0.5,1.0\n0.6,1.0\n0.7\n")
    with pytest.raises(CliInputError, match="wrong column count at line 3"):
        cli.read_csv(str(path))


def test_read_csv_value_float_accepts_but_csv_parser_rejects(tmp_path):
    # float() also reads "1_0"; the file is still reported, not crashed on
    path = tmp_path / "underscore.csv"
    path.write_text("m,t\n0.5,1_0\n")
    with pytest.raises(CliInputError, match="malformed CSV"):
        cli.read_csv(str(path))


def test_read_csv_binary_file(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"m,t\n0.5,1.0\n\xff\xfe\x00\x81,2\n")
    with pytest.raises(CliInputError):  # undecodable under a UTF-8 locale
        cli.read_csv(str(path))


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(CliInputError, match="cannot read"):
        cli.read_csv(str(tmp_path / "absent.csv"))


def test_read_csv_round_trip_large(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(20001, 3)) * np.array([1.0, 1e-300, 1e300])
    path = tmp_path / "big.csv"
    cli.write_csv(str(path), ["m", "t", "w"], data)
    names, back = cli.read_csv(str(path))
    assert names == ["m", "t", "w"]
    assert back.tobytes() == data.tobytes()
    assert _outcome(cli.read_csv, str(path)) == _outcome(reference_read_csv, str(path))


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e22, 123456789.0])


@pytest.mark.parametrize("shape", [(12, 1), (6, 2), (4, 3), (3, 4), (1, 12)])
def test_write_csv_special_values_match_reference(tmp_path, shape):
    data = SPECIAL.reshape(shape)
    cli.write_csv(str(tmp_path / "new.csv"), ["a", "b,c", 'd"e', "f"][: shape[1]], data)
    reference_write_csv(str(tmp_path / "ref.csv"), ["a", "b,c", 'd"e', "f"][: shape[1]], data)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, cli.WRITE_BLOCK_ROWS - 1, cli.WRITE_BLOCK_ROWS,
                                    2 * cli.WRITE_BLOCK_ROWS + 7])
def test_write_csv_block_boundaries_match_reference(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    data = rng.normal(size=(n_rows, 2))
    data[::5, 1] = -0.0
    cli.write_csv(str(tmp_path / "new.csv"), ["m", "t"], data)
    reference_write_csv(str(tmp_path / "ref.csv"), ["m", "t"], data)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_one_dimensional_and_integer_input(tmp_path):
    for data in (np.array([0.5, 1.25, -3.0]), np.array([[1, 2], [3, 4]])):
        cli.write_csv(str(tmp_path / "new.csv"), ["a", "b", "c"], data)
        reference_write_csv(str(tmp_path / "ref.csv"), ["a", "b", "c"], data)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _write_both(directory, data):
    """The bytes of ``write_csv`` and of the reference writer for ``data``."""
    names = [f"c{i}" for i in range(np.atleast_2d(data).shape[1])]
    cli.write_csv(str(directory / "new.csv"), names, data)
    reference_write_csv(str(directory / "ref.csv"), names, data)
    return (directory / "new.csv").read_bytes(), (directory / "ref.csv").read_bytes()


def _ulps_around(x, k=5):
    """x and its k neighbours on each side."""
    up = down = np.float64(x)
    out = [up]
    for _ in range(k):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


def test_write_csv_range_ends_and_powers_of_ten(tmp_path):
    # where the vectorised encoder hands over to Python's formatting, and
    # next to every power of ten, where a float log10 can land one off
    anchors = [1e-10, 1e15] + [10.0 ** k for k in range(-11, 17)] + [
        float(f"1e{k}") for k in range(-11, 17)]
    values = np.array([v for x in anchors for v in _ulps_around(x)])
    new, ref = _write_both(tmp_path, np.column_stack([values, -values]))
    assert new == ref


@pytest.mark.parametrize("shift", [-0.4, 0.4])
def test_write_csv_corrects_a_decimal_exponent_one_off(tmp_path, monkeypatch, shift):
    # a log10 off by up to 0.4 puts many values one decade off; the
    # exponent is corrected from their digits
    monkeypatch.setattr(_g17, "_log10", lambda a: np.log10(a) + shift)
    values = 10.0 ** np.random.default_rng(5).uniform(-10, 15, 4000)
    anchors = [1e-10, 1e15] + [float(f"1e{k}") for k in range(-10, 16)]
    values = np.concatenate([values, [v for x in anchors for v in _ulps_around(x)]])
    new, ref = _write_both(tmp_path, np.column_stack([values, -values]))
    assert new == ref


def _dyadic_ties(rng, per_exponent=8):
    """Dyadic values whose exact decimal expansion has 18 significant digits,
    the last a 5: the 17-digit rounding is a tie, broken to even.  In
    [10**x, 10**(x+1)) these are the j / 2**(17 - x) of odd j; below 1e-8
    there are none."""
    out = []
    for x in range(-8, 15):
        p = 17 - x
        lo = math.ceil(fractions.Fraction(10) ** x * 2 ** p)
        hi = math.ceil(fractions.Fraction(10) ** (x + 1) * 2 ** p)
        k = rng.integers(lo // 2, hi // 2, per_exponent)  # lo <= 2k + 1 < hi
        out += [(2 * int(j) + 1) / 2 ** p for j in k]
    return np.array(out)


def test_write_csv_ties_in_the_18th_digit(tmp_path):
    values = _dyadic_ties(np.random.default_rng(18))
    for v in values:
        digits = decimal.Decimal(float(v)).normalize().as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    new, ref = _write_both(tmp_path, np.column_stack([values, -values]))
    assert new == ref


@pytest.mark.parametrize("column", [
    [0.0] * 6,                                   # falls back entirely
    [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
    [1e300, -1e-300, 5e-324, np.nan, np.inf, -np.inf],
    [0.0, 0.5, -0.0, -2.5, 1e20, 3.0],           # falls back in part
    [1e15, 1e-10, 9.999999999999999e14, 9.9999999999999994e-11, 1.0, -0.25],
])
def test_write_csv_columns_that_fall_back(tmp_path, column):
    mixed = np.random.default_rng(4).normal(size=len(column))
    for data in (np.array(column)[:, None], np.column_stack([mixed, column, mixed])):
        new, ref = _write_both(tmp_path, data)
        assert new == ref


def test_write_csv_unwritable_path(tmp_path):
    with pytest.raises(CliInputError, match="cannot write"):
        cli.write_csv(str(tmp_path / "no" / "such" / "dir.csv"), ["m"], np.zeros((2, 1)))


# Property tests.  Files go to one directory per module, since hypothesis
# runs many examples in one call of the test function.

NAMES = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: not cli._is_numeric([s]))
FINITE_TABLES = st.integers(1, 4).flatmap(lambda cols: st.tuples(
    st.lists(NAMES, min_size=cols, max_size=cols),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(cols)),
               elements=st.floats(allow_nan=False, allow_infinity=False))))
CSV_TEXT = st.lists(st.sampled_from(list("0123456789.,-+eE\" mtx") + ["nan", "\n", "\r\n"]),
                    max_size=40).map("".join)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_properties")


@settings(max_examples=150)
@given(table=FINITE_TABLES)
def test_finite_table_round_trips_exactly(csv_dir, table):
    names, data = table
    path = str(csv_dir / "table.csv")
    cli.write_csv(path, names, data)
    got_names, back = cli.read_csv(path)
    assert got_names == names
    assert back.shape == data.shape and back.tobytes() == data.tobytes()


ANY_FLOATS = st.one_of(
    hnp.arrays(np.uint64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
               elements=st.integers(0, 2 ** 64 - 1)).map(lambda a: a.view(np.float64)),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
               elements=st.floats(width=64)))


@settings(max_examples=300)
@given(data=ANY_FLOATS)
def test_any_float64_is_written_as_the_reference(csv_dir, data):
    new, ref = _write_both(csv_dir, data)
    assert new == ref


@settings(max_examples=400)
@given(text=CSV_TEXT)
def test_any_text_parses_or_is_an_input_error(csv_dir, text):
    path = csv_dir / "text.csv"
    path.write_bytes(text.encode())
    try:
        names, data = cli.read_csv(str(path))
    except CliInputError:
        return
    assert data.ndim == 2 and data.shape[0] >= 1 and len(names) == data.shape[1]
