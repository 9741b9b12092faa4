"""Truncated formal-distribution calculus with operator coefficients.

The shared engine for every field-relation check: Fock states over a
lattice, Heisenberg creation/annihilation, exponential dressing
operators, generalized binomial factors, and a generic checker for
relations of the shape

    prod (1 - a_p z1/z2)^(c_p) f(z1) g(z2) - (mirror) = sum delta-terms.

Mode convention: the operator coefficient at zeta^n shifts the d_0
degree by n; creation modes sit at negative powers, so degrees are
bounded above on every state and all coefficient sums are finite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial as _factorial
from math import prod

from .scalar import Cyc

# The exact rational type.  Nothing here reads the name; it stays because
# perfbench/worker.py stamps each benchmark run with it.
RAT = Fraction


@dataclass(frozen=True)
class TruncationWindow:
    """Bounds for a verification sweep.

    modes:   |zeta-exponent| <= modes per variable
    degree:  state-degree bound for the swept input states
    support: bound on the total coordinate norm of lattice labels
    """

    modes: int
    degree: int
    support: int

    def __post_init__(self):
        if min(self.modes, self.degree, self.support) < 0:
            raise ValueError("window bounds must be nonnegative")


# ---------------------------------------------------------------------------
# scalar series helpers
# ---------------------------------------------------------------------------


def binomial_coefficient(c, n: int):
    """Generalized binomial coefficient C(c, n) for exact rational c."""
    out = Fraction(1)
    for i in range(n):
        out *= (c - i)
        out /= i + 1
    return out


def binomial_factor(c, a, nmax: int):
    """Coefficients of (1 - a*u)^c in u^0..u^nmax, c an exact rational:
    plain Fractions unless a is irrational, 0 past a nonnegative
    integer c."""
    c = Fraction(c)
    a = _scalar(a)
    out = []
    apow = a ** 0
    for n in range(nmax + 1):
        out.append(binomial_coefficient(c, n) * (-1) ** n * apow)
        apow = apow * a
    return out


def series_mul(s1, s2, nmax: int):
    out = [0] * (nmax + 1)
    for i, x in enumerate(s1[: nmax + 1]):
        if x:
            for j, y in enumerate(s2[: nmax + 1 - i]):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def product_of_binomials(factors, nmax: int):
    """Expansion of prod (1 - a*u)^c over (c, a) pairs, to u^nmax, with
    integral coefficients as int."""
    out = [1] + [0] * nmax
    for c, a in factors:
        out = series_mul(out, binomial_factor(c, a, nmax), nmax)
    return [_scalar(x) for x in out]


def _scalar(x):
    """The one scalar rule of the sweeps: a rational x (an int, a Fraction
    or a Cyc at order 1) as an int when integral and a Fraction
    otherwise, any other Cyc as it is."""
    if isinstance(x, Cyc):
        if x.order != 1:
            return x
        return x.nums[0] if x.den == 1 else Fraction(x.nums[0], x.den)
    if x.denominator == 1:
        return int(x.numerator)
    return x


@lru_cache(maxsize=None)
def partitions(n: int):
    """All partitions of n as tuples of (part, multiplicity), parts distinct."""
    if n < 0:
        return ()
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            for mult in range(rest // part, 0, -1):
                acc.append((part, mult))
                rec(rest - part * mult, part - 1, acc)
                acc.pop()

    rec(n, n, [])
    return tuple(out)


# ---------------------------------------------------------------------------
# Fock spaces
# ---------------------------------------------------------------------------


# A state id is sid = (lid << 32) | mid: lid indexes the space's label
# table (lid 0 is the zero label) and mid its mode-multiset table (mid 0
# is the empty multiset), so a state on the zero label has sid == mid.
MODE_BITS = 32
MODE_MASK = (1 << MODE_BITS) - 1
LABEL_BITS = ~MODE_MASK


class FockSpace:
    """States are (label, modes): a lattice label gamma and a multiset of
    creation modes (direction index, n > 0), stored sorted.

    gram:        pairing matrix on label coordinates (exact rationals)
    heis_dirs:   coordinate indices that carry Heisenberg modes
    mode_scale:  level factor in the contraction [a(n), b(-n)] = n*scale*(a,b)
    weight:      zeta-exponent carried per unit mode (m for principal fields)

    A state names b_lambda e^gamma, b_lambda = p_lambda / z_lambda for the
    monomial p_lambda = prod a_d(-j) over its modes and z_lambda =
    prod_(d,j) j^m m! over its distinct modes (d, j) of multiplicity m
    (Macdonald, Symmetric Functions and Hall Polynomials, I.4).  a_d(-j)
    adds (d, j) with the factor j m, m its new multiplicity, and vec(j)
    takes one (d, j) out with scale*(vec, e_d): level-1 vertex operators
    have integer matrix elements.  The change of basis is diagonal, so a
    combination vanishes in both bases or in neither.

    Inside the fields every state is an int id, sid = (lid << 32) | mid,
    the label and the mode multiset interned on first meeting; sid(state)
    and state_of(sid) convert at the boundaries.  Ids are never compared
    or sorted, so the order in which they are handed out cannot reach a
    result.  What the fields do to a state is read from the cached
    transitions below, and images are dicts {sid: coefficient}.  The
    space also keeps the expansion of each E^+- dressing it meets, once
    per (sign, c, vec) (dressing).
    """

    def __init__(self, gram, heis_dirs, mode_scale=1, weight=1):
        self.gram = [list(row) for row in gram]
        self.dim = len(gram)
        self.heis_dirs = sorted(heis_dirs)
        self.mode_scale = (mode_scale if isinstance(mode_scale, int)
                           else Fraction(mode_scale))
        self.weight = weight
        self._dir_pairs = {}
        self._labels = [(0,) * self.dim]
        self._lids = {self._labels[0]: 0}
        self._modes = [()]
        self._mids = {(): 0}
        self._created = {}    # (d, j) -> {mid: (mid', multiplicity)}
        self._removable = {}  # mid -> ((d, j, count, mid'), ...)
        self._joined = {}     # mid2 -> {mid: mid of the union}
        self._removed = {}    # mid2 -> {mid: mid of the difference or None}
        self._z = {}          # mid -> z_lambda
        self._shifted = {}    # vec -> {lid: lid'}
        self._label_pairs = {}  # vec -> {lid: (vec, label)}
        self._annihilatable = {}  # vec -> {mid: bound}
        self._dressings = {}  # (sign, c, vec) -> (index, memo, terms, rows)
        self._degrees = {}    # (label, modes) -> degree

    # -- state ids ---------------------------------------------------------

    def lid(self, label):
        hit = self._lids.get(label)
        if hit is None:
            hit = self._lids[label] = len(self._labels)
            self._labels.append(label)
        return hit

    def mid(self, modes):
        hit = self._mids.get(modes)
        if hit is None:
            hit = self._mids[modes] = len(self._modes)
            self._modes.append(modes)
        return hit

    def sid(self, state):
        label, modes = state
        return (self.lid(tuple(label)) << MODE_BITS) | self.mid(tuple(modes))

    def state_of(self, sid):
        return (self._labels[sid >> MODE_BITS], self._modes[sid & MODE_MASK])

    def label_of(self, lid):
        return self._labels[lid]

    def modes_of(self, mid):
        return self._modes[mid]

    # -- transitions -------------------------------------------------------

    def created(self, mid, d, j):
        """(mid', m): mid with the mode (d, j) added, m its multiplicity
        there."""
        table = _row(self._created, (d, j))
        hit = table.get(mid)
        if hit is None:
            modes = tuple(sorted(self._modes[mid] + ((d, j),)))
            hit = table[mid] = (self.mid(modes), modes.count((d, j)))
        return hit

    def removable(self, mid):
        """(d, j, count, mid') for each distinct mode (d, j) of mid, in
        sorted order: count its multiplicity, mid' mid with one copy
        removed."""
        hit = self._removable.get(mid)
        if hit is None:
            modes = self._modes[mid]
            out = []
            for i, mode in enumerate(modes):
                if i and modes[i - 1] == mode:
                    continue
                rest = modes[:i] + modes[i + 1:]
                out.append(mode + (modes.count(mode), self.mid(rest)))
            hit = self._removable[mid] = tuple(out)
        return hit

    def joined(self, mid, mid2):
        """mid of the union of the multisets mid and mid2."""
        if not mid2:
            return mid
        table = _row(self._joined, mid2)
        hit = table.get(mid)
        if hit is None:
            hit = table[mid] = self.mid(
                tuple(sorted(self._modes[mid] + self._modes[mid2])))
        return hit

    def removed(self, mid, mid2):
        """mid of the multiset mid less the multiset mid2, or None when
        mid2 is not contained in mid."""
        table = _row(self._removed, mid2)
        if mid not in table:
            have, take = Counter(self._modes[mid]), Counter(self._modes[mid2])
            table[mid] = None if take - have else self.mid(
                tuple(sorted((have - take).elements())))
        return table[mid]

    def z(self, mid) -> int:
        """z_lambda of the multiset mid."""
        hit = self._z.get(mid)
        if hit is None:
            hit = self._z[mid] = prod(
                j ** m * _factorial(m)
                for (_d, j), m in Counter(self._modes[mid]).items())
        return hit

    def shifted(self, sid, vec):
        """sid with vec added to its label."""
        table = _row(self._shifted, vec)
        lid = sid >> MODE_BITS
        hit = table.get(lid)
        if hit is None:
            hit = table[lid] = self.lid(
                tuple(a + b for a, b in zip(self._labels[lid], vec)))
        return (hit << MODE_BITS) | (sid & MODE_MASK)

    def label_pair(self, vec, lid):
        """(vec, label) of the label lid."""
        table = _row(self._label_pairs, vec)
        hit = table.get(lid)
        if hit is None:
            hit = table[lid] = self.pair(vec, self._labels[lid])
        return hit

    def dressing(self, sign, c, vec):
        """(index, memo, terms, rows) of the dressing E^sign(c, vec), shared
        by every ExpField built with equal data: the index numbers the
        dressings of the space, the rest are plain dicts.  rows holds the
        product rows of check_window with this dressing outside another:
        rows[inner dressing's index][mid][T] (_cell_row)."""
        key = (sign, c, vec)
        hit = self._dressings.get(key)
        if hit is None:
            hit = self._dressings[key] = (
                len(self._dressings), {}, {0: [(0, 1)]}, {})
        return hit

    def annihilatable(self, sid, vec) -> int:
        """Upper bound on the total annihilation index vec-modes can eat."""
        vec = tuple(vec)
        table = _row(self._annihilatable, vec)
        mid = sid & MODE_MASK
        hit = table.get(mid)
        if hit is None:
            dp = self.dir_pairs(vec)
            hit = table[mid] = sum(n for d, n in self._modes[mid] if dp[d])
        return hit

    # -- tuple states --------------------------------------------------------

    def vacuum(self, label=None):
        if label is None:
            label = (0,) * self.dim
        return (tuple(label), ())

    def pair(self, u, v):
        g = self.gram
        tot = 0
        for i, ui in enumerate(u):
            if ui:
                row = g[i]
                for j, vj in enumerate(v):
                    if vj and row[j]:
                        tot += ui * row[j] * vj
        return tot

    def dir_vec(self, idx):
        return tuple(1 if i == idx else 0 for i in range(self.dim))

    def dir_pairs(self, vec):
        """Tuple of pairings of vec with each coordinate direction."""
        hit = self._dir_pairs.get(vec)
        if hit is None:
            g = self.gram
            hit = tuple(sum(ui * g[i][j] for i, ui in enumerate(vec) if ui)
                        for j in range(self.dim))
            self._dir_pairs[vec] = hit
        return hit

    def degree(self, state) -> Fraction:
        """The d_0 degree of a (label, modes) tuple, kept per state."""
        hit = self._degrees.get(state)
        if hit is None:
            label, modes = state
            hit = self._degrees[state] = -self.weight * (
                Fraction(self.pair(label, label), 2) + sum(n for _, n in modes))
        return hit

    # -- Heisenberg action -------------------------------------------------

    def heisenberg_act(self, vec, n: int, comb):
        """Apply the mode vec(n) to comb, a dict {sid: coefficient}: create
        for n<0, read gamma for n=0, remove a mode for n>0, with the
        factors of the basis b_lambda."""
        vec = tuple(vec)
        out = {}
        if n == 0:
            for sid, c in comb.items():
                p = self.label_pair(vec, sid >> MODE_BITS)
                if p:
                    _acc(out, sid, c * p)
            return out
        if n < 0:
            created = self.created
            for sid, c in comb.items():
                hi = sid & LABEL_BITS
                mid = sid & MODE_MASK
                for d in self.heis_dirs:
                    vd = vec[d]
                    if vd:
                        new, mult = created(mid, d, -n)
                        _acc(out, hi | new, c * (vd * -n * mult))
            return out
        dp = self.dir_pairs(vec)
        for sid, c in comb.items():
            hi = sid & LABEL_BITS
            for d, j, _count, new in self.removable(sid & MODE_MASK):
                if j == n and dp[d]:
                    _acc(out, hi | new, c * (self.mode_scale * dp[d]))
        return out


def _row(tables, key):
    """The dict kept under key in tables, made on first use."""
    row = tables.get(key)
    if row is None:
        row = tables[key] = {}
    return row


def _acc(out, key, val):
    prev = out.get(key)
    val = val if prev is None else prev + val
    if val:
        out[key] = val
    else:
        out.pop(key, None)


def comb_add(a, b):
    out = dict(a)
    for k, v in b.items():
        _acc(out, k, v)
    return out


def comb_scale(a, c):
    """c * a; a itself at c = 1, as no caller writes into an image."""
    if not c:
        return {}
    c = _scalar(c)
    if c == 1:
        return a
    return {k: v * c for k, v in a.items()}


def comb_sub(a, b):
    return comb_add(a, comb_scale(b, -1))


def witness_difference(space, state, diff):
    """The "difference" of a failing witness: sorted (repr(key),
    repr(coefficient)) pairs of the nonzero coefficients of diff, the
    image {sid: coefficient} of one input state, each key written as its
    (label, modes) tuple.  Coefficients are read in the monomial basis
    p_lambda = z_lambda b_lambda (times z_state / z_out) and written by
    value as the repr of a Cyc, such as Cyc(1/4*z4^1), whether the sweep
    kept them as int, Fraction or Cyc."""
    zin = space.z(space.mid(tuple(state[1])))
    out = []
    for k, v in diff.items():
        v = v * Fraction(zin, space.z(k & MODE_MASK))
        out.append((repr(space.state_of(k)), repr(Cyc._coerce(v))))
    return sorted(out)


# ---------------------------------------------------------------------------
# fields (formal distributions with operator coefficients)
# ---------------------------------------------------------------------------


def field_space(*fields):
    """The FockSpace the first of the fields that knows one acts on."""
    return next((f.space for f in fields if f.space is not None), None)


class FieldFamily:
    """Mode family of a formal distribution, shifting labels by shift.

    A label-homogeneous field reads the label only through a z-exponent
    and a sign: view(lid) gives (e, label_bits, sign) per input label,
    and mode n of a state (lid, mid) is the core image at n - e on the
    zero-label state mid, with label_bits and sign put on.  ExpField,
    IdentityField and RelabelledView have a view; ScaledField,
    RestrictedField and ProductField take it from their parts.
    HeisenbergField, ZeroModeTimesField, fockhom.HeisTimesXField and any
    composite holding one read the label otherwise (mode 0 pairs with
    it): their view is None and their core is keyed by sid
    (DeltaRelation._label reads both kinds).

    Subclasses give mode_state(n, key) and cap(key) (or max_mode) on the
    core's keys; modes above the cap annihilate.  core keeps one row per
    key, the cap and the images by n.  Both caches are exact: a cap or
    an image is a pure function of its key, as a field is not changed
    once built, and a composite merges each finished image into its
    output in turn, as comb_add groups it: where a sum cancels orders
    its keys.  mode_parts(n, sid) gives the image as (label_bits, sign,
    image), meaning {label_bits | k: sign * c for k, c in image} in the
    order of image, and mode_memo(n, sid) builds that dict on demand.
    """

    label = "field"
    shift = None  # label shift per mode, when the field has one
    space = None  # the FockSpace it acts on, when it knows one
    view = None

    def __init__(self):
        self._memo = {}

    def mode_state(self, n, key):
        raise NotImplementedError

    def cap(self, key):
        return self.max_mode(key)

    def max_mode(self, sid):
        if self.view is None:
            return self.cap(sid)
        return self.view(sid >> MODE_BITS)[0] + self.cap(sid & MODE_MASK)

    def core(self, n, key):
        row = self._memo.get(key)
        if row is None:
            row = self._memo[key] = (self.cap(key), {})
        if n > row[0]:
            return {}
        images = row[1]
        hit = images.get(n)
        if hit is None:
            hit = images[n] = self.mode_state(n, key)
        return hit

    def mode_parts(self, n, sid):
        if self.view is None:
            return 0, 1, self.core(n, sid)
        e, hi, sign = self.view(sid >> MODE_BITS)
        return hi, sign, self.core(n - e, sid & MODE_MASK)

    def mode_memo(self, n, sid):
        hi, sign, image = self.mode_parts(n, sid)
        if sign < 0:
            return {hi | k: -c for k, c in image.items()}
        return {hi | k: c for k, c in image.items()} if hi else image

    def mode(self, n, comb, core=False):
        """Mode n on comb, through the core on zero-label keys if core."""
        out = {}
        for sid, c in comb.items():
            hi, sign, image = (0, 1, self.core(n, sid)) if core else \
                self.mode_parts(n, sid)
            if sign < 0:
                c = -c
            for k, v in image.items():
                # with no label bits the memo's own key object is kept, so
                # the images of composites share keys with their parts
                _acc(out, k | hi if hi else k, v * c)
        return out


class RelabelledView(FieldFamily):
    """An E^- dressing em (an ExpField of sign -1) with a label and a
    sign put on: a subclass passes em and gives view(lid), label_bits
    those of the label plus shift.  Its core is em's; it keeps no memo.
    check_window reads the products of two views from the rows that
    their dressings keep (_cell_row)."""

    def __init__(self, em):
        super().__init__()
        self.em = em
        self.core, self.cap = em.core, em.cap


class IdentityField(FieldFamily):
    """Only mode 0 acts, as the identity; it stores no image."""

    label = "id"

    def __init__(self, dim=None):
        super().__init__()
        if dim is not None:
            self.shift = (0,) * dim

    def view(self, lid):
        return 0, lid << MODE_BITS, 1

    def cap(self, mid):
        return 0

    def core(self, n, mid):
        return {mid: 1} if n == 0 else {}


class ScaledField(FieldFamily):
    """coeff times a field, with its base's view.  It stores no image:
    core scales the base's on each read.  A DeltaRelation sweeps the
    base and puts the coefficient on once (see there), so an integer
    field scaled by any constant is swept in int arithmetic."""

    def __init__(self, base, coeff):
        super().__init__()
        self.base = base
        self.coeff = coeff if isinstance(coeff, (int, Cyc)) else Fraction(coeff)
        self.shift, self.label, self.space = base.shift, base.label, base.space
        self.view, self.cap = base.view, base.cap

    def core(self, n, key):
        return comb_scale(self.base.core(n, key), self.coeff)


class ProductField(FieldFamily):
    """Same-variable product f(z) g(z), optionally times a scalar.

    The mode sum is made finite with the cap rule: f's max_mode over any
    state g produces is bounded by f's max_mode on the label-shifted
    input, which holds whenever g only removes modes or creates modes
    pairing to zero with f's annihilation directions, as for every
    dressing/vertex field combined here.  With views on f and g its view
    is g's, then f's at the label g leaves (exponents add, signs
    multiply), and its core sums f's core over g's, capped by f.cap(mid)
    and g.cap(mid): the rule in core terms.  Otherwise f.mode reads g's
    labelled images.  The image f(n - q) of each q is merged into the
    output in turn: fusing the sums would regroup them and could move a
    witness's bytes.  A scale equal to 1 is stored as None.
    """

    def __init__(self, f, g, scale=None, label=None):
        super().__init__()
        self.f = f
        self.g = g
        self.scale = None if scale == 1 else scale
        self.space = field_space(f, g)
        self.shift = tuple(a + b for a, b in zip(f.shift, g.shift))
        self.label = label or (f.label + "*" + g.label)
        self._caps = {}
        self._views = {}
        if f.view is None or g.view is None:
            self.view = None

    def view(self, lid):
        hit = self._views.get(lid)
        if hit is None:
            e_g, hi_g, s_g = self.g.view(lid)
            e_f, hi, s_f = self.f.view(hi_g >> MODE_BITS)
            hit = self._views[lid] = (e_g + e_f, hi, s_g * s_f)
        return hit

    def _fg_caps(self, key):
        """(f's cap, g's cap) per key: the cores' on a mid, else their
        max_mode on the g-shifted state and on the state."""
        hit = self._caps.get(key)
        if hit is None:
            f, g = self.f, self.g
            hit = self._caps[key] = (f.cap(key), g.cap(key)) if self.view \
                else (f.max_mode(self.space.shifted(key, g.shift)),
                      g.max_mode(key))
        return hit

    def cap(self, key):
        return sum(self._fg_caps(key))

    def mode_state(self, n, key):
        fcap, gcap = self._fg_caps(key)
        core = self.view is not None
        gread = self.g.core if core else self.g.mode_memo
        out = {}
        for q in range(n - fcap, gcap + 1):
            image = gread(q, key)
            if image:
                for k, v in self.f.mode(n - q, image, core).items():
                    _acc(out, k, v)
        if self.scale is not None:
            out = comb_scale(out, self.scale)
        return out


class HeisenbergField(FieldFamily):
    """vec(z) = sum_n vec(n) z^(weight*n) on a FockSpace."""

    def __init__(self, space: FockSpace, vec, label="h"):
        super().__init__()
        self.space = space
        self.vec = tuple(vec)
        self.shift = (0,) * space.dim
        self.label = label

    def max_mode(self, sid):
        return self.space.weight * self.space.annihilatable(sid, self.vec)

    def mode_state(self, n, sid):
        w = self.space.weight
        if n % w:
            return {}
        return self.space.heisenberg_act(self.vec, n // w, {sid: 1})


class ZeroModeTimesField(FieldFamily):
    """vec(0) applied after a base field (the Cartan delta term)."""

    def __init__(self, space, vec, base):
        super().__init__()
        self.space = space
        self.vec = tuple(vec)
        self.base = base
        self.shift = base.shift
        self.label = "h0*" + base.label

    def max_mode(self, sid):
        return self.base.max_mode(sid)

    def mode_state(self, n, sid):
        return self.space.heisenberg_act(self.vec, 0, self.base.mode_memo(n, sid))


class ExpField(FieldFamily):
    """exp(c * sum_(j>0) vec(sign*j) z^(sign*weight*j) / j) on a FockSpace.

    sign=-1 creates (modes at nonpositive exponents), sign=+1 annihilates
    (modes bounded by what the state can absorb in pairable directions).
    Mode sign*weight*t is F_t, of total mode index t, in closed form:

      E^-_t b_lambda = sum_(|mu|=t) c^l(mu) prod_d vec_d^l(mu_d)
                       z_(lambda u mu) / (z_lambda z_mu) b_(lambda u mu),
      E^+_t b_nu = sum_(kappa in nu, |kappa|=t) c^l(kappa)
                   prod_d s_d^l(kappa_d) / z_kappa b_(nu - kappa),

    mu, kappa mode multisets, l(mu_d) the number of modes of mu in the
    direction d, s_d = mode_scale*(vec, e_d).  The modes commute, so the
    series factors.  E^-: per direction, exp(x sum_j a_d(-j) z^j / j) =
    sum_mu x^l(mu) p_mu z^|mu| / z_mu (Macdonald, I.2.14 and I.4), and
    p_mu b_lambda = p_(lambda u mu) / z_lambda; the ratio of z's is
    prod_(d,j) C(m + m', m') over the multiplicities in lambda and mu, an
    integer.  E^+: vec(j) = sum_d s_d R_(d,j), R_(d,j) the removal of one
    (d, j), so the series is prod_(d,j) exp(c s_d R_(d,j) / j), whose
    term R_(d,j)^k (1/j)^k / k! takes out k copies; prod j^k k! = z_kappa.

    Keys come in the order in which the recursion t F_t = c sum_(j=1..t)
    vec(sign j) F_(t-j) first makes them, which checks.no_out reads:
    terms(t) lists the multisets in that order, E^- joins each onto the
    input and E^+ takes out each one the input holds (first appearances
    restricted to a subset keep their order).  No sum cancels.

    The series never reads the label: the view is (0, its bits, 1) and
    the core is expanded once per mode multiset.  The memos and term
    lists belong to the space (FockSpace.dressing), one set per (sign,
    c, vec), c an int where integral.  A dressing whose vec meets no
    Heisenberg direction (_dirs empty), such as vec 0, is the identity.
    """

    view = IdentityField.view

    def __init__(self, space: FockSpace, vec, c, sign: int, label="E"):
        super().__init__()
        self.space = space
        self.vec = tuple(vec)
        self.c = _scalar(Fraction(c))
        self.sign = 1 if sign > 0 else -1
        self.shift = (0,) * space.dim
        self.label = label
        self._factors = self.vec if self.sign < 0 else [
            space.mode_scale * p for p in space.dir_pairs(self.vec)]
        self._dirs = [d for d in space.heis_dirs if self._factors[d]]
        self._did, self._memo, self._terms, self._rows = space.dressing(
            self.sign, self.c, self.vec)

    def cap(self, mid):
        if self.sign < 0:
            return 0
        return self.space.weight * self.space.annihilatable(mid, self.vec)

    def terms(self, t):
        """(mu, w) per multiset mu of total index t, in the recursion's
        order (j upward, then the multisets of t - j, then the
        directions): w = c^l(mu) prod_d vec_d^l(mu_d) for E^- and
        c^l(mu) prod_d s_d^l(mu_d) / z_mu for E^+."""
        hit = self._terms.get(t)
        if hit is None:
            space = self.space
            seen = {}
            for j in range(1, t + 1):
                for mu, _w in self.terms(t - j):
                    for d in self._dirs:
                        seen.setdefault(space.created(mu, d, j)[0])
            hit = self._terms[t] = []
            for mu in seen:
                w = prod((self.c * self._factors[d]
                          for d, _j in space.modes_of(mu)), start=self.c ** 0)
                if self.sign > 0:
                    w = _scalar(Fraction(w, space.z(mu)))
                hit.append((mu, w))
        return hit

    def mode_state(self, n, sid):
        w = self.space.weight
        sign = self.sign
        if n % w or sign * n < 0:
            return {}
        total = sign * n // w
        if total == 0:
            return {sid: 1}
        space = self.space
        out = {}
        if sign < 0:
            z, zin = space.z, space.z(sid)
            for mu, wt in self.terms(total):
                k = space.joined(sid, mu)
                out[k] = wt * (z(k) // (zin * z(mu)))
            return out
        for kappa, wt in self.terms(total):
            k = space.removed(sid, kappa)
            if k is not None:
                out[k] = wt
        return out


def dressing_operator(space: FockSpace, sign: int, vec, k, m=1, label=None):
    """E^sign(beta, z) of the category bridge: exponent coefficient m/k
    with creation at negative and annihilation at positive powers; k is
    an exact rational."""
    if not k:
        raise ValueError("dressing operators need a nonzero level k")
    c = _scalar(Fraction(m, k))
    name = label or ("E+" if sign > 0 else "E-")
    return ExpField(space, vec, (c if sign > 0 else -c), sign, label=name)


# ---------------------------------------------------------------------------
# bivariate products and the generic delta-relation checker
# ---------------------------------------------------------------------------


def _product(outer, inner, key, m_o, m_i, lift, mask):
    """The nonzero (key, coefficient) pairs of outer(m_o) inner(m_i) on
    key, outer and inner two fields' core(n, key): outer reads each key k
    of inner's image as (k | lift) & mask."""
    acc = {}
    for w, cw in inner(m_i, key).items():
        for k, v in outer(m_o, (w | lift) & mask).items():
            prev = acc.get(k)
            vv = v * cw
            acc[k] = vv if prev is None else prev + vv
    return tuple([(k, v) for k, v in acc.items() if v])


def _cells(outer, inner, key, modes, lift, mask, dressed):
    """(p, items) of outer(m_o) inner(m_i) on key per (p, m_o, m_i) in
    modes where it is not empty: _product, or for two E^- dressings
    (dressed) with the identity (no _dirs) on one side the other's image
    at mode 0, empty elsewhere.  It stores nothing (see _cell_row)."""
    cells = []
    for p, m_o, m_i in modes:
        if dressed and not outer._dirs:
            items = () if m_o else inner.core(m_i, key).items()
        elif dressed and not inner._dirs:
            items = () if m_i else outer.core(m_o, key).items()
        else:
            items = _product(outer.core, inner.core, key, m_o, m_i, lift, mask)
        if items:
            cells.append((p, items))
    return cells


def _cell_row(rows, T, lo, u, key, outer, inner, lift, mask, dressed):
    """The row T of outer over inner on key: _cells of m_o + m_i = T, m_o
    ascending from lo, made through at least u.  rows[T] is [top, cells],
    extended upward only as far as some state reads it."""
    row = rows.get(T)
    if row is None:
        row = rows[T] = [lo - 1, []]
    if row[0] < u:
        row[1] += _cells(outer, inner, key, [
            (m, m, T - m) for m in range(max(lo, row[0] + 1), u + 1)],
            lift, mask, dressed)
        row[0] = u
    return row[1]


# Binomial tables of the delta relations, keyed by their factors tuple:
# the relations of a sweep fall into a few classes of equal factors.  A
# table is a pure function of its key and immutable, so sharing it across
# relations and sweeps cannot change a result.
_BINOMIAL_TABLES = {}


def _unscaled(field):
    """(base, c) with field = c * base, through every ScaledField with a
    nonzero coefficient; (field, 1) for any other field."""
    c = 1
    while isinstance(field, ScaledField) and field.coeff:
        c = field.coeff * c
        field = field.base
    return field, c


@dataclass
class DeltaTerm:
    """coeff * (D^use_D delta)(a z1/z2) * h(z2) with h a field in z2;
    coeff is an exact scalar (int, Fraction or Cyc)."""

    coeff: int | Fraction | Cyc
    a: Cyc
    field: FieldFamily
    use_D: bool = False


class DeltaRelation:
    """prod_p (1 - a_p z1/z2)^(c_p) f(z1) g(z2)
       - prod_p (1 - a_p z2/z1)^(c_p) g(z2) f(z1)  =  sum of DeltaTerms.

    factors: list of (c_p exact rational, a_p Cyc); the mirrored product
    uses the same data with z1 and z2 exchanged, which is the expansion
    region convention for reversed operator order.  Integral binomial and
    delta-term coefficients are used as int, rational ones as Fraction.

    Constant scalars are factored out before the sweep.  An operand that
    is a ScaledField with a nonzero coefficient (nested ones too) is
    swept through its base, with s = c_f c_g; a delta term whose field is
    one takes its coefficient, and every delta-term coefficient is
    divided by s.  The swept difference D / s has the first nonzero cell
    and keys of D, and a failing cell is multiplied back by s, so each
    witness keeps its bytes: the principal Z = C k_0 is swept as the
    integer k_0.  f, g, factors and rhs_terms stay the caller's objects;
    the swept operands are rebuilt whenever one is reassigned.
    Witnesses are read in the monomial basis of the fields' space.
    """

    def __init__(self, f, g, factors, rhs_terms):
        self.f, self.g = f, g
        self.factors = [(Fraction(c), a if isinstance(a, Cyc) else Fraction(a))
                        for c, a in factors]
        self.rhs_terms = rhs_terms
        self.space = field_space(f, g)
        self._coef = self._ncoef = ()
        self._apow = {}
        self._plan_of = self._plan = None

    def _sweep_plan(self):
        """(f, g, s, terms, reads, pairs): the operands as swept, the
        factored constant s (None when it is 1), the delta terms as swept
        with their coefficients divided by s, and per term the field
        check_window reads and a vec: (base, vec) for a ZeroModeTimesField
        over a field with a view, whose vec(0) is then <vec, label> on the
        base's image, else (field, None).  pairs is ((outer, inner) of
        f(g(v)), of g(f(v)), dressed): for two E^- dressings
        (RelabelledView) their ExpFields and True, else (f, g), (g, f) and
        False.  A new plan drops the relation's rows and label reads."""
        key = (self.f, self.g, self.rhs_terms)
        if key != self._plan_of:
            f, cf = _unscaled(self.f)
            g, cg = _unscaled(self.g)
            s = _scalar(cf * cg)
            s = None if s == 1 else s
            terms, reads = [], []
            for t in self.rhs_terms:
                h, ch = _unscaled(t.field)
                c = t.coeff * ch
                terms.append(DeltaTerm(c if s is None else Cyc._coerce(c) / s,
                                       t.a, h, t.use_D))
                if type(h) is ZeroModeTimesField and h.base.view is not None:
                    reads.append((h.base, h.vec))
                else:
                    reads.append((h, None))
            if isinstance(f, RelabelledView) and isinstance(g, RelabelledView):
                pairs = (f.em, g.em), (g.em, f.em), True
            else:
                pairs = (f, g), (g, f), False
            self._plan_of = key
            self._plan = f, g, s, terms, reads, pairs
            self._apow, self._labels, self._rows = {}, {}, {}
        return self._plan

    def _coefs(self, nmax):
        """The factor product's coefficients to at least u^nmax, one table
        per factors tuple; _ncoef is it negated."""
        if nmax >= len(self._coef):
            key = tuple(self.factors)
            table = _BINOMIAL_TABLES.get(key, ())
            if nmax >= len(table):
                table = tuple(product_of_binomials(self.factors, nmax + 8))
                _BINOMIAL_TABLES[key] = table
            self._coef = table
            self._ncoef = tuple([-c for c in table])
        return self._coef

    def _delta_row(self, ti, term, mult, W):
        """-mult times delta term ti's coefficient at z1^a, a = -W..W,
        cached per (ti, mult, W) on a cache of the coefficients per
        (ti, a)."""
        row = self._apow.get((ti, mult, W))
        if row is None:
            row = self._apow[ti, mult, W] = []
            for a in range(-W, W + 1):
                base = self._apow.get((ti, a))
                if base is None:
                    base = term.coeff * term.a ** a
                    base = self._apow[ti, a] = _scalar(base * a if term.use_D
                                                       else base)
                row.append(base * -mult)
        return row

    def _label(self, lid, W):
        """A state's reads that depend on its label lid only, kept per
        (lid, W) until the plan is rebuilt: (orders, reads).  orders reads
        f(g(v)), then g(f(v)), as (e_o, e_i, sign, hi, umax, icap, ocap,
        olift, by_sid, rows, fill), a field without a view read on the
        labelled state (by_sid) with exponent 0, sign 1, no label bits and
        max_mode as cap.  ocap reads olift | mid; rows[key] is a state's
        {T: row}, None where a row would be keyed by a labelled state,
        which alone reads it; fill ends _cell_row's arguments; umax bounds
        the outer mode (an E^- core has cap 0).  reads is (row, core, e,
        hi, cap, by_sid) per delta term with a nonzero _delta_row."""
        f, g, _s, terms, plan, pairs = self._sweep_plan()
        space, dressed = self.space, pairs[2]
        orders = []
        for i, ((outer, inner), (o, n)) in enumerate(
                zip(((f, g), (g, f)), pairs[:2])):
            e_i, lift, s_i = inner.view(lid) if inner.view else (
                0, space.shifted(lid << MODE_BITS, inner.shift), 1)
            e_o, hi, s_o = outer.view(lift >> MODE_BITS) if outer.view \
                else (0, 0, 1)
            olift = 0 if outer.view else lift
            if dressed and o._dirs and n._dirs:
                rows = _row(o._rows, n._did)
            else:
                rows = _row(self._rows, i) if outer.view and inner.view \
                    else None
            orders.append((e_o, e_i, s_o * s_i, hi, 0 if dressed else W - e_o,
                           inner.cap, outer.cap, olift, inner.view is None, rows,
                           (o, n, lift, -1 if outer.view is None else MODE_MASK,
                            dressed)))
        reads = []
        for ti, (term, (h, vec)) in enumerate(zip(terms, plan)):
            e, hi, mult = (0, 0, 1) if h.view is None else h.view(lid)
            if vec is not None:
                mult *= space.label_pair(vec, hi >> MODE_BITS)
            if mult:
                reads.append((self._delta_row(ti, term, mult, W), h.core, e, hi,
                              h.cap, h.view is None))
        return orders, reads

    def _state(self, sid, W):
        """(orders, reads, top): the reads of sid's label (_label) with the
        caps and keys of sid, (e_o, e_i, cap_i, sign, hi, umax, rows, key,
        fill) per order and (row, core, e, top, key, hi) per delta term.
        top bounds the anti-diagonals with a nonzero cell: the outer's cap
        is read on the label the inner leaves (ProductField's cap rule)."""
        lid, mid = sid >> MODE_BITS, sid & MODE_MASK
        part = self._labels.get((lid, W))
        if part is None:
            part = self._labels[lid, W] = self._label(lid, W)
        orders, reads, tops = [], [], []
        for (e_o, e_i, sign, hi, umax, icap, ocap, olift, by_sid, rows,
             fill) in part[0]:
            key = sid if by_sid else mid
            cap_i = icap(key)
            orders.append((e_o, e_i, cap_i, sign, hi, umax,
                           {} if rows is None else _row(rows, key),
                           key, fill))
            tops.append(e_o + ocap(olift | mid) + e_i + cap_i)
        for row, core, e, hi, cap, by_sid in part[1]:
            key = sid if by_sid else mid
            top = e + cap(key)
            reads.append((row, core, e, top, key, hi))
            tops.append(top)
        return orders, reads, max(tops)

    def check_window(self, W, state):
        """Check every coefficient cell |a|, |b| <= W on one (label, modes)
        state: the coefficient at z1^a z2^b of the left-hand side minus the
        delta terms.

        Each order reads the products of an anti-diagonal S = a + b as one
        row (_cell_row) of (m_o, items), m_o ascending, on T = m_o + m_i of
        the outer and inner core modes.  A row does not depend on the
        label: the rows of two non-identity E^- dressings live on the outer
        one, shared by every relation, the rest on the relation.  The
        a-loop reads coef[b - m_o] for m_o <= b: b = a - e1 for f(g(v)),
        S - e2 - a for g(f(v)).  Every operand and delta term is read once
        per state (_state), with the signs folded into the binomial and
        delta coefficients.  The outer mode runs up to the window's bound
        (an E^+ factor may absorb modes the inner operand made).  The
        difference is keyed by each output state XOR the label bits hi of
        f(g(v)): a cell on another label (only a corrupted relation makes
        one) keeps a key of its own, and a failing witness gets its labels
        back by the same XOR, which is injective, so witnesses keep their
        bytes and name the state and output states as tuples.
        """
        sid = self.space.sid(state)
        scale = self._sweep_plan()[2]
        (one, two), reads, top = self._state(sid, W)
        e1, ei1, gcap, s1, hi, umax1, rows1, key1, fill1 = one
        e2, ei2, fcap, s2, hi2, umax2, rows2, key2, fill2 = two
        d1, d2 = e1 + ei1, e2 + ei2
        signed = {1: self._coefs(max(W + max(gcap + ei1, fcap + ei2), 0)),
                  -1: self._ncoef}
        coef1, coef2 = signed[s1], signed[-s2]
        for S in range(-2 * W, min(2 * W, top) + 1):
            amin, amax = (S - W, W) if S > 0 else (-W, S + W)
            T = S - d1
            u = amax - e1 if amax - e1 < umax1 else umax1
            row = rows1.get(T)
            cells1 = row[1] if row is not None and row[0] >= u else \
                _cell_row(rows1, T, T - gcap, u, key1, *fill1)
            T = S - d2
            u = amax - e2 if amax - e2 < umax2 else umax2
            row = rows2.get(T)
            cells2 = row[1] if row is not None and row[0] >= u else \
                _cell_row(rows2, T, T - fcap, u, key2, *fill2)
            if hi2 != hi and cells2:
                cells2 = [(m, [((k | hi2) ^ hi, v) for k, v in items])
                          for m, items in cells2]
            rhs = []
            for row, core, e, cap, key, hi_t in reads:
                cell = core(S - e, key) if S <= cap else None
                if cell:
                    rhs.append((row, cell.items() if hi_t == hi
                                else [((k | hi_t) ^ hi, v)
                                      for k, v in cell.items()]))
            if not (cells1 or cells2 or rhs):
                continue
            for a in range(amin, amax + 1):
                diff = {}
                dget = diff.get
                b = a - e1
                for m, items in cells1:
                    if m > b:
                        break
                    cn = coef1[b - m]
                    if cn:
                        for k, v in items:
                            prev = dget(k)
                            vv = v * cn
                            diff[k] = vv if prev is None else prev + vv
                b = S - e2 - a
                for m, items in cells2:
                    if m > b:
                        break
                    cn = coef2[b - m]
                    if cn:
                        for k, v in items:
                            prev = dget(k)
                            vv = v * cn
                            diff[k] = vv if prev is None else prev + vv
                for row, items in rhs:
                    c = row[a + W]
                    if c:
                        for k, v in items:
                            prev = dget(k)
                            vv = v * c
                            diff[k] = vv if prev is None else prev + vv
                if any(diff.values()):
                    bad = {k ^ hi: v if scale is None else v * scale
                           for k, v in diff.items() if v}
                    return False, {"state": state, "modes": (a, S - a),
                                   "difference": witness_difference(
                                       self.space, state, bad)}
        return True, None
