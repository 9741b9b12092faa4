"""linalg.Span against an oracle: one rref of the augmented matrix
[v_1 ... v_k | target], with the vectors as columns.  Its pivot columns
are the first independent vectors, which carry the solution; a free
column gets 0, and a pivot in the target column means no solution."""

from hypothesis import given, settings
from hypothesis import strategies as st

from torlab.linalg import Span, rank, rref
from torlab.scalar import Cyc, cyc_root_of_unity

I = cyc_root_of_unity(4, 1)


def _scalars(order):
    small = st.integers(-2, 2)
    if order == 1:
        return small.map(Cyc.rational)
    return st.tuples(small, small).map(lambda ab: ab[0] + I * ab[1])


@st.composite
def _systems(draw):
    """(vectors, target) over Q or Q(zeta_4).  Some vectors and, half the
    time, the target are combinations of the vectors before them."""
    scalar = _scalars(draw(st.sampled_from([1, 4])))
    dim = draw(st.integers(1, 4))
    vector = st.lists(scalar, min_size=dim, max_size=dim)
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        if vectors and draw(st.booleans()):
            vectors.append(_combination(draw, scalar, vectors))
        else:
            vectors.append(draw(vector))
    if vectors and draw(st.booleans()):
        return vectors, _combination(draw, scalar, vectors)
    return vectors, draw(vector)


def _combination(draw, scalar, vectors):
    out = [Cyc.zero()] * len(vectors[0])
    for v in vectors:
        c = draw(scalar)
        out = [a + c * b for a, b in zip(out, v)]
    return out


def _oracle(vectors, target):
    k = len(vectors)
    aug = [[v[i] for v in vectors] + [target[i]] for i in range(len(target))]
    red, pivots = rref(aug)
    if k in pivots:
        return None
    x = [Cyc.zero()] * k
    for r, pc in enumerate(pivots):
        x[pc] = red[r][k]
    return x


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_coords_match_the_rref_oracle(system):
    vectors, target = system
    assert Span(vectors).coords(target) == _oracle(vectors, target)


@settings(max_examples=100, deadline=None)
@given(_systems())
def test_add_is_false_exactly_on_a_dependent_vector(system):
    vectors, target = system
    span = Span()
    for k, v in enumerate(vectors):
        before = len(span)
        assert span.add(v) == (rank(vectors[:k + 1]) > before)
        assert len(span) == rank(vectors[:k + 1])
    if vectors:
        total = [sum(col, Cyc.zero()) for col in zip(*vectors)]
        assert not span.add(total)
        assert span.coords(target) == _oracle(vectors + [total], target)


@settings(max_examples=100, deadline=None)
@given(_systems(), st.integers(0, 4))
def test_a_target_outside_the_span_has_no_coords(system, extra):
    """Pad every vector with a zero coordinate and the target with a
    nonzero one: the target leaves the span."""
    vectors, target = system
    span = Span([v + [Cyc.zero()] for v in vectors])
    assert span.coords(target + [Cyc.rational(extra + 1)]) is None
    assert span.coords([Cyc.zero()] * (len(target) + 1)) == \
        [Cyc.zero()] * len(vectors)
