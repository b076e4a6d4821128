"""CSV and JSON round trips: entries come back bit for bit and labels
unchanged, also labels holding commas, quotes, spaces and non-ASCII text.
to_csv writes the bytes of its csv.writer oracle, and reports write their
strings and keys as JSON strings and every object with the bytes of the
one-call-per-element emitter."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclab as ml
import oracles
from metriclab._util import dumps
from conftest import euclidean_space
from test_ties import quantized_space

CHECKS = settings(settings.get_profile("deterministic"), max_examples=40)

LABEL_CHARS = st.sampled_from(list('ab7 ,;"\'|é中∞λ-'))


@st.composite
def labelled_spaces(draw):
    """A cloud or a tie-heavy quantized metric under drawn labels."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        space = euclidean_space(seed, n)
    else:
        space = quantized_space(seed, n, draw(st.integers(1, 4)))
    labels = draw(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=6),
                           min_size=n, max_size=n, unique=True))
    return ml.validate(space.dist, labels)


def same_space(back, space):
    assert back.labels == space.labels
    assert back.dist.dtype == space.dist.dtype == np.float64
    assert np.array_equal(back.dist.view(np.uint64), space.dist.view(np.uint64))


@CHECKS
@given(labelled_spaces())
def test_csv_round_trip(space):
    same_space(ml.from_csv(ml.to_csv(space)), space)


@CHECKS
@given(labelled_spaces())
def test_json_round_trip(space):
    same_space(ml.from_json(ml.to_json(space)), space)


@CHECKS
@given(labelled_spaces())
def test_csv_rows_equal_csv_writer(space):
    assert ml.to_csv(space) == oracles.to_csv(space)
    tiny = ml.validate(space.dist * 1e-300, space.labels)  # subnormal and e-notation reprs
    assert ml.to_csv(tiny) == oracles.to_csv(tiny)


def test_strings_and_keys_are_escaped_as_json():
    text = 'tab\there, "quoted", back\\slash, bell\x07, nul\x00, é, \x7f'
    out = dumps({text: [text, "plain"], "key": None})
    assert out == ('{\n  ' + json.dumps(text, ensure_ascii=False) + ': [\n    '
                   + json.dumps(text, ensure_ascii=False) + ',\n    "plain"\n  ],\n'
                   '  "key": null\n}')
    assert json.loads(out) == {text: [text, "plain"], "key": None}


# Plain ints and floats take the bulk path; the other numbers look like them
# but must keep their own output: bools, numpy scalars, Fractions, nan and inf.
PLAIN = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                  st.just(-0.0))
NUMBER = st.one_of(PLAIN, st.booleans(), st.just(float("nan")), st.just(float("inf")),
                   st.just(float("-inf")), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                   st.floats().map(np.float64), st.booleans().map(np.bool_), st.fractions())
LEAF = st.one_of(st.none(), st.text(LABEL_CHARS, max_size=3), NUMBER,
                 st.lists(PLAIN, max_size=6), st.lists(st.lists(PLAIN, max_size=4), max_size=4))
REPORTS = st.recursive(
    LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(LABEL_CHARS, max_size=3), inner, max_size=4)),
    max_leaves=25)


@settings(CHECKS, max_examples=300)
@given(REPORTS)
def test_dumps_equals_the_per_element_emitter(obj):
    assert dumps(obj) == oracles.dumps(obj)
    assert dumps(obj, indent=0) == oracles.dumps(obj, indent=0)



# Lists of dicts that share their keys and hold scalars take the one-join
# path; a key in another order, a missing key or a value that is no scalar
# (a Fraction, a numpy float, a list) sends the list back to _emit.
SCALAR = st.one_of(st.none(), st.booleans(), st.booleans().map(np.bool_), st.integers(),
                   st.floats(), st.text(LABEL_CHARS, max_size=3))
ODD = st.one_of(st.fractions(), st.floats().map(np.float64), st.lists(PLAIN, max_size=2),
                st.integers().map(np.int64))


@st.composite
def records(draw):
    keys = draw(st.lists(st.text(LABEL_CHARS, max_size=3), min_size=1, max_size=5,
                         unique=True))
    rows = [{key: draw(SCALAR) for key in keys} for _ in range(draw(st.integers(1, 4)))]
    how = draw(st.sampled_from(("same", "same", "odd value", "reordered", "missing")))
    last = rows[-1]
    if how == "odd value":
        last[draw(st.sampled_from(keys))] = draw(ODD)
    elif how == "reordered" and len(keys) > 1:
        rows[-1] = dict(reversed(list(last.items())))
    elif how == "missing":
        del last[keys[-1]]
    return rows


@settings(CHECKS, max_examples=300)
@given(st.one_of(records(), st.dictionaries(st.text(LABEL_CHARS, max_size=3), records(),
                                            max_size=3)))
def test_records_equal_the_per_element_emitter(obj):
    assert dumps(obj) == oracles.dumps(obj)
    assert dumps(obj, indent=0) == oracles.dumps(obj, indent=0)


def test_every_golden_report_equals_the_per_element_emitter(tmp_path, monkeypatch):
    """Each golden case's report, dumped by both writers (a failing case
    writes none)."""
    import test_cli_golden
    from metriclab import cli
    written = []

    def both(obj, *args):
        written.append(obj)
        text = dumps(obj, *args)
        assert text == oracles.dumps(obj, *args)
        return text

    monkeypatch.setattr(cli, "dumps", both)
    for name in sorted(test_cli_golden.CASES):
        test_cli_golden._digest(tmp_path / name, name)
    assert len(written) == sum(not name.endswith("_fails") for name in test_cli_golden.CASES)
