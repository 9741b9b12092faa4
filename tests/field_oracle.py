"""Reference computations the tests compare the fields and relations with.

The delta-relation oracle works cell by cell: lhs_coeff and check_state
compute the coefficient at z1^a z2^b of one relation on one state the
slow way, against which DeltaRelation.check_window and its witnesses are
compared.  The composite-field oracle, ref_max_mode and ref_mode,
recomputes the caps and images of ProductField, SumField, ScaledField,
RestrictedField and HeisTimesXField from their parts with no per-field
cache and with comb_add sums.

Both oracles, like the tests, name states as (label, modes) tuples; the
fields and FockSpace.heisenberg_act work on the space's state ids, and
Tuples converts at that boundary.
"""

from torlab.distops import (FockSpace, ProductField, ScaledField, SumField,
                            comb_add, comb_scale, comb_sub,
                            witness_difference)
from torlab.fockhom import HeisTimesXField
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
    for ti, term in enumerate(rel.rhs_terms):
        field = Tuples(term.field, rel.space)
        if s <= field.max_mode(state):
            c = rel._delta_coeff(ti, term, a)
            if c:
                out.append((c, field.mode_memo(s, state)))
    return out


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
    if isinstance(field, SumField):
        return max(ref_max_mode(p, state) for p in field.parts)
    if isinstance(field, ScaledField):
        return ref_max_mode(field.base, state)
    if isinstance(field, RestrictedField):
        return ref_max_mode(field.base, _restricted(field, state)[1])
    if isinstance(field, HeisTimesXField):
        space = Tuples(field.space)
        return (field.space.weight * space.annihilatable(state, field.vec)
                + ref_max_mode(field.x, state))
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
        if field.scale is not None:
            out = comb_scale(out, field.scale)
    elif isinstance(field, SumField):
        for p in field.parts:
            out = comb_add(out, ref_mode(p, n, state, seen))
    elif isinstance(field, ScaledField):
        out = comb_scale(ref_mode(field.base, n, state, seen), field.coeff)
    elif isinstance(field, RestrictedField):
        mk, wstate = _restricted(field, state)
        for (label, modes), c in ref_mode(field.base, n, wstate, seen).items():
            out = comb_add(out, {(label, tuple(sorted(modes + mk))): c})
    elif isinstance(field, HeisTimesXField):
        space = Tuples(field.space)
        w = field.space.weight
        xmax = ref_max_mode(field.x, state)
        for p in range(-((xmax - n) // w), space.annihilatable(state, field.vec) + 1):
            out = comb_add(out, space.heisenberg_act(
                field.vec, p, ref_mode(field.x, n - w * p, state, seen)))
    else:
        out = Tuples(field).mode_memo(n, state)
    seen[key] = out
    return out
