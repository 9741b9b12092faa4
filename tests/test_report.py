"""The report layer's encoders against the definitions they replace.

report.to_text writes its text directly; it must equal the json.dumps
call that defined the canonical text before, on any JSON tree.
report.jsonable dispatches on the exact type; it must give what the
isinstance chain below gives, which is the earlier jsonable, kept here
as the oracle.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torlab.report import jsonable, to_text
from torlab.scalar import Cyc


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=1,
                      separators=(",", ": ")) + "\n"


def _oracle_jsonable(x):
    """The earlier report.jsonable."""
    if isinstance(x, Cyc):
        return x.to_json()
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, (int, str, float)):
        return x
    if isinstance(x, (list, tuple)):
        return [_oracle_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {_oracle_key(k): _oracle_jsonable(v) for k, v in x.items()}
    try:
        return x.to_json()
    except AttributeError:
        return repr(x)


def _oracle_key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (list, tuple)):
        return ",".join(str(v) for v in k)
    return str(k)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Tuple(tuple):
    pass


class _Dict(dict):
    pass


# strings with control characters, quotes, backslashes, non-ASCII and
# astral code points
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | \
    st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "ζ é", "\U0001f600 "])
INTS = st.integers() | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
FLOATS = st.floats() | st.sampled_from([-0.0, 1e-7, 1e300, 0.1, -2.5e-300])
LEAVES = st.none() | st.booleans() | INTS | FLOATS | TEXT


def _nest(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4))


JSON_TREES = st.recursive(LEAVES, _nest, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example({"b": [], "a": {}, "c": [[1, [2, {}]], []], "d": "ζ é",
          "e": {"y": [None, True], "x": 1.5}})
@example({"\x00": [-0.0, 1e-7, 1e300, float("nan"), float("inf"),
                   -float("inf")], "é": [[[]], [{}], {"": {}}],
          "k": [-10 ** 40, 10 ** 40, 0, False]})
@example([])
@example({})
@example("top")
@example(-7)
@example(None)
@example({"entries": [{"params": {"x": [1]}, "status": "pass"}, {}, []],
          "summary": {"total": 2}})
@example(_Dict({"b": _Tuple((_Int(3), _Float(0.5), _Str("é"))),
                "a": [_Dict(), _Tuple(), _Dict({"x": _Tuple((1,))})]}))
def test_to_text_equals_the_json_dumps_text(obj):
    assert to_text(obj) == _canonical(obj)


def test_to_text_refuses_what_it_cannot_write():
    """What json refuses, and a key that is not a string, which json
    would write as str(key) but jsonable never leaves."""
    for obj in ([object()], {(1,): 0}):
        with pytest.raises(TypeError):
            _canonical(obj)
    for obj in ([object()], {(1,): 0}, {"a": {1: 2}}):
        with pytest.raises(TypeError):
            to_text(obj)


class _Jsonish:
    """An object that serializes itself."""

    def __init__(self, n):
        self.n = n

    def to_json(self):
        return {"jsonish": self.n}


class _Plain:
    """An object with neither a table entry nor to_json: written as its
    repr."""

    def __repr__(self):
        return "_Plain()"


class _Frac(Fraction):
    pass


FRACS = st.fractions(max_denominator=12)


def _cyc(order):
    width = {1: 1, 3: 2, 4: 2}[order]
    return st.lists(FRACS, min_size=width, max_size=width).map(
        lambda co: Cyc(order, tuple(co)))


SCALARS = (LEAVES | FRACS | _cyc(1) | _cyc(3) | _cyc(4)
           | st.integers(-3, 3).map(_Jsonish) | st.just(_Plain())
           | st.integers(-3, 3).map(_Int) | FRACS.map(_Frac))
KEYS = (TEXT | st.integers(-5, 5)
        | st.lists(st.integers(-3, 3), max_size=3).map(tuple))


def _values(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.lists(children, max_size=3).map(_Tuple)
            | st.dictionaries(KEYS, children, max_size=4))


VALUES = st.recursive(SCALARS, _values, max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({(1, -2): Fraction(1, 3), 4: Cyc(4, (Fraction(1, 2), 1)),
          "t": (True, None, Cyc(3, (0, 1)), Cyc(1, (Fraction(-5, 2),)))})
@example([_Jsonish(1), _Plain(), _Int(3), _Tuple((1, 2)), Fraction(4),
          _Frac(-2, 3)])
def test_jsonable_equals_the_isinstance_chain(x):
    # repr tells True from 1 and a tuple from a list
    assert repr(jsonable(x)) == repr(_oracle_jsonable(x))
