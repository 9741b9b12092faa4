"""Relation checks of every suite, and their report entries.

Every suite of the package (toroidal, homogeneous, Z-algebra, principal,
iso, solve-constants) states its relations through the check kinds
below, and run() is the one place that turns the outcome of a check into
a report entry (relation_id, params, status, witness).  A check returns
(ok, witness) or a bool.  States are swept in the order given and modes
upward from lo, so a witness names the first failing cell in that order.
The sweeps take (label, modes) states, convert each one to its id in
the fields' FockSpace once, and write the states of a witness back as
tuples.

Check kinds:
  equal           two algebra elements agree; the witness lists every
                  term of their difference
  none_of         a list of invariant violations is empty; the witness
                  is the list
  holds           a delta-function identity (DeltaRelation) on every state
  fields_equal    two fields agree mode by mode; the witness carries the
                  exact difference, read in the monomial basis
  vanishes        a linear combination of fields vanishes mode by mode
  no_out          no mode of the fields takes a state to an offending
                  output state; the witness is the first such output
  degree_shift    [d_0, F] = DF: mode n moves the d_0 degree by n
  coord_shift     [d_i, F(r)] = r_i F(r): a label coordinate moves by r_i
  nonzero         a field has a nonzero mode on some state

Families of entries built on them, one entry per parameter choice:
  central         the d_A relation (1/m) D k_0(r) + sum_i r_i k_i(r) = 0
  factorization   factorization of the fields through k_0
  derivations     the d_0 and d_i eigenvalue relations of k_0..k_N
  eta_covariance  F(b, w^p z) = eta_p(b) F(theta^p b, z)
  dk_relations    relations (1)-(6), (9) and (10) of the category D_k,
                  the block the principal and Z-algebra suites share
"""

from __future__ import annotations

from functools import partial

from .distops import (DeltaRelation, FockSpace, ProductField, comb_add,
                      comb_scale, field_space, witness_difference)


def _space(*fields):
    """The FockSpace whose ids the fields act on.  Fields that know none
    (IdentityField and its multiples) never read a state and map each id
    to itself, so any interning of the states serves: a fresh one."""
    return field_space(*fields) or FockSpace([], [])


def run(entries, rel_id, params, check, *args):
    """Append the entry of one relation: check(*args) is (ok, witness)
    or a bool."""
    result = check(*args)
    ok, witness = result if isinstance(result, tuple) else (result, None)
    entries.append((rel_id, params, "pass" if ok else "fail", witness))


def default_rvecs(N):
    """Multidegrees 0 and +-e_i, i = 1..N."""
    out = [(0,) * N]
    for i in range(N):
        for sgn in (1, -1):
            out.append(tuple(sgn if j == i else 0 for j in range(N)))
    return out


# ---------------------------------------------------------------------------
# check kinds
# ---------------------------------------------------------------------------


def equal(lhs, rhs):
    """lhs = rhs for elements with a .terms dict (TorElement)."""
    diff = lhs - rhs
    if diff.is_zero():
        return True, None
    return False, {"difference": sorted(map(repr, diff.terms.items()))}


def none_of(bad):
    """No violation is listed in bad."""
    return not bad, {"difference": list(bad)} if bad else None


def holds(rel, states, W):
    """rel.check_window(W, v) on every state v."""
    for v in states:
        ok, witness = rel.check_window(W, v)
        if not ok:
            return False, witness
    return True, None


def _combination(terms, n, sid):
    """(label bits, sum_j c_j F_j(n) on sid) for terms (c_j, F_j), c_j a
    scalar, read through mode_parts with each sign folded into c_j: on
    the cores when every F_j gives the same label bits, else on images
    with their label bits put on, and label bits 0."""
    parts = [(hi, c if sign > 0 else -c, image) for c, f in terms
             for hi, sign, image in [f.mode_parts(n, sid)]]
    same = all(part[0] == parts[0][0] for part in parts)
    acc = {}
    for hi, c, image in parts:
        if hi and not same:
            image = {hi | k: v for k, v in image.items()}
        acc = comb_add(acc, comb_scale(image, c))
    return parts[0][0] if same else 0, acc


def _walk(fields, states, lo):
    """(v, sid, n) for each state v, sid its id in the fields' space,
    and each mode n from lo up to the largest max_mode of the fields on
    v: the order fields_equal, vanishes and nonzero sweep."""
    space = _space(*fields)
    for v in states:
        sid = space.sid(v)
        for n in range(lo, max(f.max_mode(sid) for f in fields) + 1):
            yield v, sid, n


def fields_equal(f, g, states, lo, scale=None):
    """scale * f = g at every mode from lo up to the larger max_mode.  The
    label bits go on the keys of a failing difference only."""
    for v, sid, n in _walk((f, g), states, lo):
        hi, diff = _combination(
            [(1 if scale is None else scale, f), (-1, g)], n, sid)
        if diff:
            diff = {hi | k: c for k, c in diff.items()}
            return False, {"state": v, "mode": n,
                           "difference": witness_difference(
                               _space(f, g), v, diff)}
    return True, None


def vanishes(terms, states, lo):
    """sum_j c_j F_j = 0 at every mode from lo up to the largest
    max_mode; terms are pairs (c_j, F_j), c_j a scalar or a function of
    the mode n."""
    for v, sid, n in _walk([f for _c, f in terms], states, lo):
        if _combination([(c(n) if callable(c) else c, f)
                         for c, f in terms], n, sid)[1]:
            return False, {"state": v, "mode": n}
    return True, None


def no_out(fields, states, lo, bad):
    """No mode n >= lo of a field takes a state v to an output state s
    with bad(v, n, s), v and s (label, modes) tuples.  Sweeps states,
    then fields, then modes upward, and each image in its key order; the
    witness is the first offending {state, mode, out}.  Images are read
    through mode_parts, the label bits put on each key as it is tested."""
    space = _space(*fields)
    for v in states:
        sid = space.sid(v)
        for f in fields:
            for n in range(lo, f.max_mode(sid) + 1):
                hi, _sign, image = f.mode_parts(n, sid)
                for s in image:
                    s = space.state_of(s | hi)
                    if bad(v, n, s):
                        return False, {"state": v, "mode": n, "out": s}
    return True, None


def degree_shift(space, f, states, lo):
    """[d_0, F] = DF: mode n moves the d_0 degree by exactly n."""
    return no_out([f], states, lo, lambda v, n, s:
                  space.degree(s) != space.degree(v) + n)


def coord_shift(f, states, lo, coord, expected):
    """[d_i, F(r)] = r_i F(r): the label coordinate moves by r_i."""
    return no_out([f], states, lo, lambda v, n, s:
                  s[0][coord] - v[0][coord] != expected)


def nonzero(f, states, lo):
    """Some mode of f is nonzero on some state."""
    return any(f.mode_parts(n, sid)[2]
               for _v, sid, n in _walk((f,), states, lo))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _D(n):
    """D = z d/dz multiplies mode n by n."""
    return n


def central(kf, m, rvec, states, lo):
    """The d_A relation times m: n k_0(r)(n) + m sum_i r_i k_i(r)(n) = 0,
    with kf(i, rvec) the field k_i (k_0 at i = 0).  Multiplying through
    by m keeps integral coefficients integral."""
    terms = [(_D, kf(0, rvec))]
    terms += [(m * ri, kf(i, rvec)) for i, ri in enumerate(rvec, 1) if ri]
    return vanishes(terms, states, lo)


def factorization(entries, rel_id, head, f, g, fg, rvecs, states, lo,
                  scale=None):
    """f(r, z) g(s, z) = k fg(r+s, z) (scale = 1/k) for all r, s in
    rvecs: one entry rel_id per (r, s), its params head plus r and s."""
    for rvec in rvecs:
        for svec in rvecs:
            tot = tuple(a + b for a, b in zip(rvec, svec))
            run(entries, rel_id, dict(head, r=list(rvec), s=list(svec)),
                fields_equal, ProductField(f(rvec), g(svec)), fg(tot),
                states, lo, scale)


def derivations(entries, d0_id, di_id, mod, rvec, states, lo):
    """[d_0, k_j(r)] = D k_j(r) (entry d0_id) and [d_i, k_j(r)] = r_i k_j(r)
    (entry di_id) for j = 0..N, i = 1..N, with the fields mod.kf(j, r)."""
    for j in range(mod.N + 1):
        kj = mod.kf(j, rvec)
        run(entries, d0_id, {"j": j, "r": list(rvec)},
            degree_shift, mod.space, kj, states, lo)
        for i in range(1, mod.N + 1):
            run(entries, di_id, {"i": i, "j": j, "r": list(rvec)},
                coord_shift, kj, states, lo, mod.delta_coord(i), rvec[i - 1])


def eta_covariance(entries, rel_id, field, twist, roots, states, lo):
    """F(b, w^p z) = eta_p(b) F(theta^p b, z), i.e. the combination
    w^(pn) F(b)(n) - eta_p(b) F(theta^p b)(n) vanishes, for b in roots
    and p = 0..m-1; field(b) is F(b) at multidegree 0."""
    for beta in roots:
        for p in range(twist.m):
            def rotate(n, p=p):
                return twist.root_of_unity(p * n)

            terms = [(rotate, field(beta)),
                     (-twist.eta(p, beta), field(twist.theta_root(p, beta)))]
            run(entries, rel_id, {"beta": list(beta), "p": p},
                vanishes, terms, states, lo)


def dk_relations(entries, prefix, mod, roots, rvecs, ks, central_rvecs,
                 states, W):
    """Relations (1)-(6), (9) and (10) of a D_k module, with Z-fields
    mod.z(beta, r) and central fields mod.kf(i, r) at level mod.k: one
    entry prefix.<n> per parameter choice, Z sampled at roots[0].
    (1) Z(r) k_0(s) = k Z(r+s) and (2) k_0(r) k_i(s) = k k_i(r+s), i in
    ks, for r, s in rvecs; (3) the d_A relation, (4) [d_0, Z(r)] = D Z(r)
    and (5), (6) the derivations at each r in rvecs; (9) eta-covariance
    over roots; (10) k_j(r) commutes with Z, j in ks, r in central_rvecs.
    """
    lo = -W
    kinv = mod.k.inv()
    sample = roots[0]
    zero = mod.zero_r()
    z = partial(mod.z, sample)
    k0 = partial(mod.kf, 0)
    factorization(entries, prefix + ".1", {"beta": list(sample)},
                  z, k0, z, rvecs, states, lo, kinv)
    for i in ks:
        ki = partial(mod.kf, i)
        factorization(entries, prefix + ".2", {"i": i},
                      k0, ki, ki, rvecs, states, lo, kinv)
    for rvec in rvecs:
        run(entries, prefix + ".3", {"r": list(rvec)},
            central, mod.kf, mod.m, rvec, states, lo)
        run(entries, prefix + ".4", {"beta": list(sample), "r": list(rvec)},
            degree_shift, mod.space, mod.z(sample, rvec), states, lo)
        derivations(entries, prefix + ".5", prefix + ".6", mod, rvec,
                    states, lo)
    eta_covariance(entries, prefix + ".9", lambda b: mod.z(b, zero),
                   mod.twist, roots, states, lo)
    for rvec in central_rvecs:
        for j in ks:
            rel = DeltaRelation(mod.kf(j, rvec), mod.z(sample, zero), [], [])
            run(entries, prefix + ".10", {"j": j, "r": list(rvec)},
                holds, rel, states, W)
