"""CSV and JSON round trips: entries come back bit for bit and labels
unchanged, also labels holding commas, quotes, spaces and non-ASCII text.
to_csv writes the bytes of its csv.writer oracle, and reports write their
strings and keys as JSON strings."""

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
