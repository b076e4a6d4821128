"""spaces.from_csv, which parses the matrix in one np.loadtxt pass, against
the csv.reader and per-field float() parser it replaced (oracles.from_csv):
the same labels and the same float64 bytes, or the same typed error, on the
texts to_csv and np.savetxt write and on their variants with quoted, padded
and oversized fields, blank lines, LF, CRLF or bare-CR line ends, and
ragged or missing rows; the spellings only float() reads; and the memory
both take on a 300-point cloud, where the parse itself holds about the
text plus the array; and the time of a last line with no final LF."""

import csv
import io
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab import spaces
from metriclab.errors import DiameterExceedsOne, MetricViolation
from conftest import euclidean_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=300)
# labels that need quoting, and fields that are no number or no finite one
LABELS = ("a", "b c", "x,y", "two\nlines", 'say "hi"', "", " pad ", "é")
ODD_FIELDS = ("nan", "inf", "-Infinity", "NaN", "", " ", "x", "0x1", '"', "1e", "+.5")


def outcome(parse, text):
    """(labels, matrix bytes) of the parsed space, or (error type, kind)."""
    try:
        space = parse(text)
    except Exception as exc:  # compared with the oracle's, whatever it is
        return type(exc), getattr(exc, "kind", None)
    return space.labels, space.dist.tobytes()


@st.composite
def matrix_rows(draw):
    """(labels, rows of field texts) of a cloud, as to_csv or np.savetxt write it."""
    n = draw(st.integers(1, 6))
    space = euclidean_space(draw(st.integers(0, 2 ** 16)), n) if n > 1 else ml.validate([[0.0]])
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        labels = list(space.labels)
    if draw(st.booleans()):
        rows = [[repr(x) for x in row] for row in space.dist.tolist()]
    else:
        buf = io.StringIO()
        np.savetxt(buf, space.dist, delimiter=",", fmt="%.18e")
        rows = [line.split(",") for line in buf.getvalue().splitlines()]
    return labels, rows


@st.composite
def csv_texts(draw):
    """A label row, quoted by csv.writer where needed, then matrix rows with
    a few fields quoted or padded, at most one odd or oversized field, a
    shape, blank lines and one line end, all drawn."""
    labels, rows = draw(matrix_rows())
    cells = st.sampled_from([(i, j) for i, row in enumerate(rows) for j in range(len(row))])
    for _ in range(draw(st.integers(0, 3))):  # quote or pad a field
        i, j = draw(cells)
        if draw(st.booleans()):
            rows[i][j] = f'"{rows[i][j]}"'
        else:
            pads = st.text(" \t", max_size=3)
            rows[i][j] = draw(pads) + rows[i][j] + draw(pads)
    how = draw(st.sampled_from(("none", "odd", "big")))
    i, j = draw(cells)
    if how == "odd":
        rows[i][j] = draw(st.sampled_from(ODD_FIELDS))
    elif how == "big":  # about the csv field limit: a run of digits, or a padded entry
        size = csv.field_size_limit() + draw(st.integers(-1, 2))
        rows[i][j] = draw(st.sampled_from(("1" * size, rows[i][j].rjust(size))))
    shape = draw(st.sampled_from(("square", "ragged", "short", "wide", "labels_only")))
    if shape == "ragged":
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    elif shape == "short":
        rows.pop()
    elif shape == "wide":
        rows = [row + row[-1:] for row in rows]
    elif shape == "labels_only":
        rows = []
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(labels)  # quotes labels as needed
    lines = [head.getvalue()[:-1]] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank and whitespace-only lines
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t"))))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join(lines) + draw(st.sampled_from((end, "")))


@CHECKS
@given(csv_texts())
def test_from_csv_equals_the_per_field_parser(text):
    assert outcome(ml.from_csv, text) == outcome(oracles.from_csv, text)


@CHECKS
@given(csv_texts(), st.sampled_from((1, 8, 19, 24, 40)))
def test_from_csv_keeps_a_lowered_field_limit(text, limit):
    """Fields about as long as the limit, in many blocks of the text."""
    default = csv.field_size_limit(limit)
    try:
        assert outcome(ml.from_csv, text) == outcome(oracles.from_csv, text)
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("text", ["a", "a,b\n", "a,b\r\n\r\n\n", "\n\n"])
def test_no_matrix_rows_is_refused_before_loadtxt(text, recwarn):
    with pytest.raises(MetricViolation, match="need a label row plus matrix rows"):
        ml.from_csv(text)
    assert not recwarn.list  # loadtxt's empty-input warning never fires


@pytest.mark.parametrize("field", ["1_0", "١", "１"])
def test_spellings_only_float_reads_are_a_parse_error(field):
    text = f"a,b\n0,{field}\n{field},0\n"
    assert oracles.from_csv(text, rescale=True).dist[0, 1] == 1.0
    with pytest.raises(MetricViolation) as err:
        ml.from_csv(text, rescale=True)
    assert err.value.kind == "parse"


@pytest.mark.parametrize("body", ['"0\n",0.5\n0.5,0\n', '"0\n.5",0.5\n0.5,0\n',
                                  '0,"0.\n5"\n0.5,0\n', '0,0.5\r\n0.5,"0\r\n"\r\n'])
def test_quoted_line_breaks_in_rows_equal_the_oracle(body):
    # a line break inside quotes stays in the field: "0.\n5" is no number
    text = "a,b\n" + body
    assert outcome(ml.from_csv, text) == outcome(oracles.from_csv, text)


def test_validate_errors_pass_through():
    with pytest.raises(MetricViolation) as err:
        ml.from_csv("a,b,c\n0,1,0.4\n1,0,0.5\n0.4,0.5,0\n")
    assert err.value.kind == "triangle"
    with pytest.raises(DiameterExceedsOne):
        ml.from_csv("a,b\n0,2\n2,0\n")
    assert ml.from_csv("a,b\n0,2\n2,0\n", rescale=True).rescaled


def test_from_csv_peaks_below_the_per_field_parser():
    text = ml.to_csv(euclidean_space(0, 300))
    peaks = []
    for parse in (ml.from_csv, oracles.from_csv):
        tracemalloc.start()
        parse(text)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < peaks[1]


def test_from_csv_parses_in_about_the_text_plus_the_array(monkeypatch):
    text = ml.to_csv(euclidean_space(0, 300))
    monkeypatch.setattr(spaces, "validate", lambda matrix, labels, **_: matrix)  # the parse alone
    tracemalloc.start()
    matrix = spaces.from_csv(text)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # an io.StringIO of the text alone would take 4 bytes a character
    assert matrix.shape == (300, 300) and peak <= 1.3 * len(text) + 3 * matrix.nbytes



def test_an_unterminated_last_line_splits_in_linear_time():
    """A one-point text whose row is 100,000 characters parses about as fast
    without its final LF as with it: the line scan stops at the last LF.
    Scanning on into the unterminated row retried it from each of its
    characters, quadratic, over 2,000 times slower at this length."""
    row = "0" * 100_000
    best = []
    for text in ("a\n" + row + "\n", "a\n" + row):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            space = ml.from_csv(text)
            times.append(time.perf_counter() - start)
        assert space.n == 1 and space.dist.tolist() == [[0.0]]
        best.append(min(times))
    assert best[1] <= 50 * best[0]
