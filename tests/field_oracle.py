"""Reference computations the tests compare the fields and relations with.

The delta-relation oracle works cell by cell: lhs_coeff and check_state
compute the coefficient at z1^a z2^b of one relation on one state the
slow way, against which DeltaRelation.check_window and its witnesses are
compared; a relation on Labelled operands is swept one labelled state
at a time, without the exponents and signs of their views (or the
ScaledField a constant is factored out of).  The composite-field
oracle, ref_max_mode and ref_mode, recomputes the caps and images of
ProductField, ScaledField and RestrictedField from their parts with no
per-field cache and with comb_add sums; the k_i and beta(r) fields are
ProductFields of k_0 over a HeisenbergField.

The Fock oracle is the Heisenberg action in the monomial basis p_lambda,
monomial_act, and the exponential series by its recursion, exp_series;
Monomial reads a field's images in that basis.  ref_vertex builds the
modes of X(delta) and Z(alpha, r) from exp_series and the lattice.  An operator with the
monomial matrix element M(out, in) has the matrix element
M(out, in) * z_out / z_in in the basis b_lambda = p_lambda / z_lambda
that FockSpace uses.

All three oracles, like the tests, name states as (label, modes) tuples;
the fields and FockSpace.heisenberg_act work on the space's state ids,
and Tuples converts at that boundary.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

from torlab.distops import (MODE_BITS, MODE_MASK, FieldFamily, FockSpace,
                            ProductField, ScaledField, comb_add, comb_scale,
                            comb_sub, witness_difference)
from torlab.fockhom import ZField
from torlab.zbridge import RestrictedField


def comb_eq(a, b):
    return not comb_sub(a, b)


class Tuples:
    """A field or a FockSpace seen with (label, modes) states: each state
    is converted to its id in the space on the way in, and each key of
    an image back to its tuple on the way out.  space is needed only for
    a field that knows none (IdentityField)."""

    def __init__(self, obj, space=None):
        self.obj = obj
        self.space = space or (obj if isinstance(obj, FockSpace) else obj.space)

    def state(self, sid):
        return self.space.state_of(sid)

    def ids(self, comb):
        return {self.space.sid(k): c for k, c in comb.items()}

    def states(self, image):
        return {self.space.state_of(k): c for k, c in image.items()}

    def max_mode(self, state):
        return self.obj.max_mode(self.space.sid(state))

    def mode_memo(self, n, state):
        return self.states(self.obj.mode_memo(n, self.space.sid(state)))

    def mode_state(self, n, state):
        return self.states(self.obj.mode_state(n, self.space.sid(state)))

    def mode(self, n, comb):
        return self.states(self.obj.mode(n, self.ids(comb)))

    def heisenberg_act(self, vec, n, comb):
        return self.states(self.obj.heisenberg_act(vec, n, self.ids(comb)))

    def annihilatable(self, state, vec):
        return self.obj.annihilatable(self.space.sid(state), vec)


def z_factor(modes):
    """z_lambda = prod j^m m! over the distinct modes (d, j) of
    multiplicity m."""
    z = 1
    for (_d, j), m in Counter(modes).items():
        z *= j ** m * factorial(m)
    return z


class Monomial(Tuples):
    """Tuples in the monomial basis p_lambda = z_lambda b_lambda: the
    coefficient of out in the image of state is multiplied by
    z_state / z_out."""

    def _monomial(self, state, image):
        zin = z_factor(state[1])
        return {k: c * Fraction(zin, z_factor(k[1])) for k, c in image.items()}

    def mode_memo(self, n, state):
        return self._monomial(state, super().mode_memo(n, state))

    def mode_state(self, n, state):
        return self._monomial(state, super().mode_state(n, state))


# ---------------------------------------------------------------------------
# Fock operators: the monomial action and the exponential recursion
# ---------------------------------------------------------------------------


def monomial_act(space, vec, n, comb):
    """vec(n) on comb, a dict {(label, modes): coefficient} in the monomial
    basis: vec(-j) appends the mode (d, j) with the factor vec_d,
    vec(0) reads the label, and vec(j) takes out one copy of a mode
    (d, j) of multiplicity m with the factor scale*(vec, e_d)*j*m."""
    dp = space.dir_pairs(tuple(vec))
    out = {}
    for (label, modes), c in comb.items():
        if n == 0:
            terms = [((label, modes), space.pair(vec, label))]
        elif n < 0:
            terms = [((label, tuple(sorted(modes + ((d, -n),)))), vec[d])
                     for d in space.heis_dirs]
        else:
            terms = []
            for d, j in sorted(set(modes)):
                if j == n:
                    rest = list(modes)
                    rest.remove((d, j))
                    terms.append(((label, tuple(rest)), space.mode_scale
                                  * dp[d] * n * modes.count((d, j))))
        for k, f in terms:
            if f:
                out = comb_add(out, {k: c * f})
    return out


def exp_series(space, vec, c, sign, state, n, act=None):
    """Mode n of exp(c sum_(j>0) vec(sign j) z^(sign weight j) / j) on the
    (label, modes) state, by the recursion
    t F_t = c sum_(j=1..t) vec(sign j) F_(t-j).  act(vec, j, comb) is the
    Heisenberg action, FockSpace.heisenberg_act on tuple states unless
    given."""
    act = act or Tuples(space).heisenberg_act
    w = space.weight
    if n % w or sign * n < 0:
        return {}
    series = [{state: 1}]
    for t in range(1, sign * n // w + 1):
        acc = {}
        for j in range(1, t + 1):
            acc = comb_add(acc, act(vec, sign * j, series[t - j]))
        series.append(comb_scale(acc, Fraction(c) / t))
    return series[-1]


def ref_vertex(field, n, state):
    """Mode n of a VertexXField X(delta) or a ZField
    Z(alpha, r) = eps(alpha, .) e^alpha z^(-(alpha, .) - (alpha, alpha)/2)
    X(delta_r) on the (label, modes) state.  X adds delta to the label
    and reads E^-(delta) = exp_series at n less its z-exponent
    -w(delta, label); the lattice part of Z reads the label X leaves."""
    space = field.space
    x = field.x if isinstance(field, ZField) else field
    label, modes = state
    exponent = -space.weight * space.pair(x.vec, label)
    label = tuple(a + b for a, b in zip(label, x.vec))
    sign = 1
    if isinstance(field, ZField):
        avec = field.avec
        exponent -= space.pair(avec, label) + space.pair(avec, avec) // 2
        sign = field.lat.eps(avec, label)
        label = tuple(a + b for a, b in zip(label, avec))
    return comb_scale(exp_series(space, x.vec, 1, -1, (label, modes),
                                 n - exponent), sign)


# ---------------------------------------------------------------------------
# delta relations, cell by cell
# ---------------------------------------------------------------------------


def lhs_coeff(rel, a, b, state):
    """Coefficient at z1^a z2^b of the left-hand side of rel on state."""
    f, g = Tuples(rel.f, rel.space), Tuples(rel.g, rel.space)
    nmax1 = max(g.max_mode(state) - b, -1)
    out = {}
    if nmax1 >= 0:
        coef = rel._coefs(nmax1)
        for n in range(nmax1 + 1):
            if coef[n]:
                mid = g.mode_memo(b + n, state)
                if mid:
                    out = comb_add(out, comb_scale(f.mode(a - n, mid), coef[n]))
    nmax2 = max(f.max_mode(state) - a, -1)
    if nmax2 >= 0:
        coef = rel._coefs(nmax2)
        for n in range(nmax2 + 1):
            if coef[n]:
                mid = f.mode_memo(a + n, state)
                if mid:
                    out = comb_sub(out, comb_scale(g.mode(b - n, mid), coef[n]))
    return out


def delta_cells(rel, a, s, state):
    """(coefficient, image of the state) for each delta term of rel with
    a nonzero coefficient at z1^a z2^(s - a)."""
    out = []
    for term in rel.rhs_terms:
        field = Tuples(term.field, rel.space)
        if s <= field.max_mode(state):
            c = term.coeff * term.a ** a
            if term.use_D:
                c = c * a
            if c:
                out.append((c, field.mode_memo(s, state)))
    return out


class Labelled(FieldFamily):
    """A field read through its mode_memo, not a ScaledField, with one
    label class per input label (ckey the label's id), exponent 0 and
    sign 1: its core on ckey | mid is the image of the labelled state,
    its label bits taken off (they are the field's view's), so a
    relation on it is swept on one row per labelled state with no
    exponent, sign or constant factored out, the reference for the sweep
    of the field itself."""

    def __init__(self, f):
        super().__init__()
        self.f = f
        self.shift, self.label, self.space = f.shift, f.label, f.space

    def view(self, lid):
        return 0, self.f.view(lid)[1], 1, lid << MODE_BITS

    def cap(self, sid):
        return self.f.max_mode(sid)

    def mode_state(self, n, sid):
        return {k & MODE_MASK: c for k, c in self.f.mode_memo(n, sid).items()}


def check_state(rel, a, b, state):
    """(ok, witness) for the coefficient at z1^a z2^b of rel on one state."""
    diff = lhs_coeff(rel, a, b, state)
    for c, cell in delta_cells(rel, a, a + b, state):
        diff = comb_sub(diff, comb_scale(cell, c))
    if not diff:
        return True, None
    return False, {"state": state, "modes": (a, b),
                   "difference": witness_difference(
                       rel.space, state, Tuples(rel.space).ids(diff))}


# ---------------------------------------------------------------------------
# composite fields, recomputed from their parts
# ---------------------------------------------------------------------------


def _shifted(state, shift):
    return (tuple(a + b for a, b in zip(state[0], shift)), state[1])


def _restricted(field, state):
    """(Cartan modes, W state) of a RestrictedField's input."""
    label, modes = state
    return (tuple(mo for mo in modes if mo[0] in field.cartan),
            (label, tuple(mo for mo in modes if mo[0] not in field.cartan)))


def ref_max_mode(field, state):
    """field.max_mode(state), recomputed through every composite layer."""
    if isinstance(field, ProductField):
        return (ref_max_mode(field.f, _shifted(state, field.g.shift))
                + ref_max_mode(field.g, state))
    if isinstance(field, ScaledField):
        return ref_max_mode(field.base, state)
    if isinstance(field, RestrictedField):
        return ref_max_mode(field.base, _restricted(field, state)[1])
    return Tuples(field).max_mode(state)


def ref_mode(field, n, state, seen):
    """Mode n of field on state, summed with comb_add through every
    composite layer; seen caches the results of one oracle run."""
    key = (id(field), n, state)
    if key in seen:
        return seen[key]
    out = {}
    if n > ref_max_mode(field, state):
        pass
    elif isinstance(field, ProductField):
        fcap = ref_max_mode(field.f, _shifted(state, field.g.shift))
        for q in range(n - fcap, ref_max_mode(field.g, state) + 1):
            for mid, c in ref_mode(field.g, q, state, seen).items():
                out = comb_add(out, comb_scale(
                    ref_mode(field.f, n - q, mid, seen), c))
    elif isinstance(field, ScaledField):
        out = comb_scale(ref_mode(field.base, n, state, seen), field.coeff)
    elif isinstance(field, RestrictedField):
        mk, wstate = _restricted(field, state)
        for (label, modes), c in ref_mode(field.base, n, wstate, seen).items():
            out = comb_add(out, {(label, tuple(sorted(modes + mk))): c})
    else:
        out = Tuples(field).mode_memo(n, state)
    seen[key] = out
    return out
