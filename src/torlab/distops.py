"""Truncated formal-distribution calculus with operator coefficients.

The shared engine for every field-relation check: Fock states over a
lattice, Heisenberg creation/annihilation, exponential dressing
operators, generalized binomial factors, delta-function identities, and
a generic checker for relations of the shape

    prod (1 - a_p z1/z2)^(c_p) f(z1) g(z2) - (mirror) = sum delta-terms.

Mode convention: the operator coefficient at zeta^n shifts the d_0
degree by n; creation modes sit at negative powers, so degrees are
bounded above on every state and all coefficient sums are finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial as _factorial

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
        if self.modes < 0 or self.degree < 0 or self.support < 0:
            raise ValueError("window bounds must be nonnegative")

    def as_tuple(self):
        return (self.modes, self.degree, self.support)


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
    """Coefficients of (1 - a*u)^c in u^0..u^nmax, c an exact rational.

    Nonnegative integer c terminates exactly (higher coefficients are 0).
    Coefficients stay plain Fractions unless a is irrational.
    """
    c = Fraction(c)
    if isinstance(a, Cyc) and a.is_rational():
        a = a.as_fraction()
    if not isinstance(a, Cyc):
        a = Fraction(a)
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
    """Expansion of prod (1 - a*u)^c over (c, a) pairs, to u^nmax.

    Integral coefficients come back as int, so that relations with
    integer exponents keep their sweeps in integer arithmetic."""
    out = [1] + [0] * nmax
    for c, a in factors:
        out = series_mul(out, binomial_factor(c, a, nmax), nmax)
    return [_int_if_integral(x) for x in out]


def _int_if_integral(x):
    """x as an int when it is an integral rational (an int, a rational
    with denominator 1 or a rational Cyc of that kind), else x."""
    q = x.as_fraction() if isinstance(x, Cyc) and x.is_rational() else x
    if not isinstance(q, Cyc) and q.denominator == 1:
        return int(q.numerator)
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


class FockSpace:
    """States are (label, modes): a lattice label gamma and a multiset of
    creation modes (direction index, n > 0), stored sorted.

    gram:        pairing matrix on label coordinates (exact rationals)
    heis_dirs:   coordinate indices that carry Heisenberg modes
    mode_scale:  level factor in the contraction [a(n), b(-n)] = n*scale*(a,b)
    weight:      zeta-exponent carried per unit mode (m for principal fields)
    normalized:  which vector a state names.  False (the default): the
                 monomial p_lambda = prod a_d(-j) e^gamma over its modes.
                 True: b_lambda = p_lambda / z_lambda with
                 z_lambda = prod_(d,j) j^m m! over the distinct modes (d, j)
                 of multiplicity m (Macdonald, Symmetric Functions and Hall
                 Polynomials, I.4).  There a(-n) acts with the integer
                 factor n*(m_n + 1) and a(n) with scale*(vec, e_d), so
                 level-1 vertex operators have integer matrix elements.
                 The change of basis is diagonal: a combination vanishes
                 in one basis exactly when it vanishes in the other.
    """

    def __init__(self, gram, heis_dirs, mode_scale=1, weight=1,
                 normalized=False):
        self.gram = [list(row) for row in gram]
        self.dim = len(gram)
        self.heis_dirs = list(heis_dirs)
        self.mode_scale = (mode_scale if isinstance(mode_scale, int)
                           else Fraction(mode_scale))
        self.weight = weight
        self.normalized = normalized
        self._dir_pairs = {}

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
        label, modes = state
        tot = sum(n for _, n in modes)
        return -self.weight * (Fraction(self.pair(label, label), 2) + tot)

    def support_norm(self, state) -> int:
        return sum(abs(c) for c in state[0])

    def shift_label(self, state, shift):
        label, modes = state
        return (tuple(a + b for a, b in zip(label, shift)), modes)

    def add_mode(self, state, dir_idx, n):
        label, modes = state
        return (label, tuple(sorted(modes + ((dir_idx, n),))))

    def annihilatable(self, state, vec) -> int:
        """Upper bound on the total annihilation index vec-modes can eat."""
        dp = self.dir_pairs(tuple(vec))
        return sum(n for d, n in state[1] if dp[d])

    def z_factor(self, modes) -> int:
        """z_lambda = prod j^m m! over the distinct modes (d, j) of
        multiplicity m."""
        z = 1
        for mode in set(modes):
            m = modes.count(mode)
            z *= mode[1] ** m * _factorial(m)
        return z

    # -- Heisenberg action -------------------------------------------------

    def heisenberg_act(self, vec, n: int, comb):
        """Apply the mode vec(n): create for n<0, read gamma for n=0,
        differentiate with the contraction factor for n>0."""
        out = {}
        if n == 0:
            dp = self.dir_pairs(tuple(vec))
            for state, c in comb.items():
                p = sum(dp[i] * li for i, li in enumerate(state[0]) if li)
                if p:
                    _acc(out, state, c * p)
            return out
        if n < 0:
            for state, c in comb.items():
                for d in self.heis_dirs:
                    vd = vec[d]
                    if vd:
                        if self.normalized:
                            vd *= -n * (state[1].count((d, -n)) + 1)
                        _acc(out, self.add_mode(state, d, -n), c * vd)
            return out
        dp = self.dir_pairs(tuple(vec))
        for state, c in comb.items():
            label, modes = state
            seen = set()
            for i, (d, j) in enumerate(modes):
                if j != n or (d, j) in seen:
                    continue
                seen.add((d, j))
                p = dp[d]
                if not p:
                    continue
                factor = self.mode_scale * p
                if not self.normalized:
                    factor *= modes.count((d, j)) * n
                reduced = list(modes)
                reduced.pop(i)
                _acc(out, (label, tuple(reduced)), c * factor)
        return out


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
    if not c:
        return {}
    if isinstance(c, Cyc) and c.is_rational():
        c = c.as_fraction()
    if c == 1:
        return dict(a)
    return {k: v * c for k, v in a.items()}


def comb_sub(a, b):
    return comb_add(a, comb_scale(b, -1))


def comb_eq(a, b):
    return not comb_sub(a, b)


def witness_difference(space, state, diff, cyc_keys=()):
    """The "difference" of a failing witness: sorted (repr(key),
    repr(coefficient)) pairs of the nonzero coefficients in diff, the
    image of one input state.

    Coefficients are read in the monomial basis whatever basis the space
    uses (the coefficient of out in the image of state is multiplied by
    z_state / z_out), and written as the exact rational type (the Cyc
    type for keys in cyc_keys, which a cyclotomic term reached), so a
    witness reads the same however the sweep kept its scalars.
    """
    out = []
    for k, v in diff.items():
        if space is not None and space.normalized:
            v = v * Fraction(space.z_factor(state[1]), space.z_factor(k[1]))
        if not isinstance(v, Cyc):
            v = Cyc.rational(v) if k in cyc_keys else Fraction(v)
        out.append((repr(k), repr(v)))
    return sorted(out)


# ---------------------------------------------------------------------------
# fields (formal distributions with operator coefficients)
# ---------------------------------------------------------------------------


def field_space(*fields):
    """The FockSpace the first of the fields that knows one acts on."""
    return next((f.space for f in fields if f.space is not None), None)


class FieldFamily:
    """Mode family of a formal distribution.

    Subclasses implement mode_state(n, state) and max_mode(state); modes
    above max_mode annihilate the state.  Results are memoized, which is
    what makes the bivariate sweeps affordable.
    """

    label = "field"
    shift = None  # label shift per mode, when the field has one
    space = None  # the FockSpace it acts on, when it knows one

    def __init__(self):
        self._memo = {}

    def mode_state(self, n, state):
        raise NotImplementedError

    def max_mode(self, state):
        raise NotImplementedError

    def mode_memo(self, n, state):
        key = (n, state)
        hit = self._memo.get(key)
        if hit is None:
            hit = {} if n > self.max_mode(state) else self.mode_state(n, state)
            self._memo[key] = hit
        return hit

    def mode(self, n, comb):
        out = {}
        for state, c in comb.items():
            for k, v in self.mode_memo(n, state).items():
                _acc(out, k, v * c)
        return out


class IdentityField(FieldFamily):
    """Only mode 0 acts, as the identity."""

    label = "id"

    def __init__(self, dim=None):
        super().__init__()
        if dim is not None:
            self.shift = (0,) * dim

    def mode_state(self, n, state):
        return {state: 1} if n == 0 else {}

    def max_mode(self, state):
        return 0


class ScaledField(FieldFamily):
    def __init__(self, base, coeff):
        super().__init__()
        self.base = base
        self.coeff = coeff if isinstance(coeff, Cyc) else Fraction(coeff)
        self.shift = base.shift
        self.label = base.label
        self.space = base.space

    def mode_state(self, n, state):
        return comb_scale(self.base.mode_state(n, state), self.coeff)

    def max_mode(self, state):
        return self.base.max_mode(state)


class SumField(FieldFamily):
    def __init__(self, parts):
        super().__init__()
        self.parts = list(parts)
        self.shift = self.parts[0].shift
        self.space = field_space(*self.parts)
        self.label = "+".join(p.label for p in self.parts)

    def mode_state(self, n, state):
        out = {}
        for p in self.parts:
            out = comb_add(out, p.mode_memo(n, state))
        return out

    def max_mode(self, state):
        return max(p.max_mode(state) for p in self.parts)


class ProductField(FieldFamily):
    """Same-variable product f(z) g(z), optionally times a scalar.

    The mode sum is made finite with the cap rule: f's max_mode over any
    state g produces is bounded by f's max_mode on the label-shifted
    input.  That holds whenever g only removes modes or creates modes
    pairing to zero with f's annihilation directions, which is true for
    every dressing/vertex field combined here.
    """

    def __init__(self, f, g, scale=None, label=None):
        super().__init__()
        self.f = f
        self.g = g
        self.scale = scale
        self.space = field_space(f, g)
        self.shift = tuple(a + b for a, b in zip(f.shift, g.shift))
        self.label = label or (f.label + "*" + g.label)

    def _fcap(self, state):
        mid = (tuple(a + b for a, b in zip(state[0], self.g.shift)), state[1])
        return self.f.max_mode(mid)

    def max_mode(self, state):
        return self._fcap(state) + self.g.max_mode(state)

    def mode_state(self, n, state):
        out = {}
        for q in range(n - self._fcap(state), self.g.max_mode(state) + 1):
            mid = self.g.mode_memo(q, state)
            if mid:
                out = comb_add(out, self.f.mode(n - q, mid))
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

    def max_mode(self, state):
        return self.space.weight * self.space.annihilatable(state, self.vec)

    def mode_state(self, n, state):
        w = self.space.weight
        if n % w:
            return {}
        return self.space.heisenberg_act(self.vec, n // w, {state: 1})


class ExpField(FieldFamily):
    """exp(c * sum_(j>0) vec(sign*j) z^(sign*weight*j) / j) on a FockSpace.

    sign=-1 is a pure creation series (modes at nonpositive exponents);
    sign=+1 is pure annihilation (modes bounded by what the state can
    absorb in pairable directions).

    An int c keeps the coefficients in int wherever the division by the
    mode index is exact (every E^- coefficient in a normalized space)
    and falls back to Fraction only where it is not.
    """

    def __init__(self, space: FockSpace, vec, c, sign: int, label="E"):
        super().__init__()
        self.space = space
        self.vec = tuple(vec)
        self.c = c if type(c) is int else Fraction(c)
        self.sign = 1 if sign > 0 else -1
        self.shift = (0,) * space.dim
        self.label = label

    def max_mode(self, state):
        if self.sign < 0:
            return 0
        return self.space.weight * self.space.annihilatable(state, self.vec)

    def mode_state(self, n, state):
        w = self.space.weight
        sign = self.sign
        if n % w or sign * n < 0:
            return {}
        total = sign * n // w
        c = self.c
        if total == 0:
            return {state: 1}
        # t F_t = c sum_{j=1..t} a(sign j) F_{t-j}  (the modes commute)
        acc = {}
        for j in range(1, total + 1):
            prev = self.mode_memo(sign * (total - j) * w, state)
            if prev:
                for k, v in self.space.heisenberg_act(self.vec, sign * j, prev).items():
                    _acc(acc, k, v)
        if type(c) is not int:
            return comb_scale(acc, c / total)
        out = {}
        for k, v in acc.items():
            v *= c
            if type(v) is int:
                q, r = divmod(v, total)
                out[k] = Fraction(v, total) if r else q
            else:
                out[k] = v * Fraction(1, total)
        return out


def dressing_operator(space: FockSpace, sign: int, vec, k, m=1, label=None):
    """E^sign(beta, z) of the category bridge: exponent coefficient m/k
    with creation at negative and annihilation at positive powers."""
    if isinstance(k, Cyc):
        k = k.as_fraction()
    if not k:
        raise ValueError("dressing operators need a nonzero level k")
    c = _int_if_integral(Fraction(m, k))
    name = label or ("E+" if sign > 0 else "E-")
    return ExpField(space, vec, (c if sign > 0 else -c), sign, label=name)


# ---------------------------------------------------------------------------
# bivariate products and the generic delta-relation checker
# ---------------------------------------------------------------------------


def field_product(f: FieldFamily, g: FieldFamily, a: int, b: int, comb):
    """Coefficient at z1^a z2^b of f(z1) g(z2), applied to a combination."""
    return f.mode(a, g.mode(b, comb))


@dataclass
class DeltaTerm:
    """coeff * (D^use_D delta)(a z1/z2) * h(z2) with h a field in z2."""

    coeff: Cyc
    a: Cyc
    field: FieldFamily
    use_D: bool = False


class DeltaRelation:
    """prod_p (1 - a_p z1/z2)^(c_p) f(z1) g(z2)
       - prod_p (1 - a_p z2/z1)^(c_p) g(z2) f(z1)  =  sum of DeltaTerms.

    factors: list of (c_p exact rational, a_p Cyc); the mirrored product
    uses the same data with z1 and z2 exchanged, which is the expansion
    region convention for reversed operator order.

    Integral binomial and delta-term coefficients are used as int, so a
    relation between integer-valued fields is checked in integers.
    Witnesses are read in the monomial basis of the fields' space.
    """

    def __init__(self, f, g, factors, rhs_terms):
        self.f = f
        self.g = g
        self.factors = [(Fraction(c), a if isinstance(a, Cyc) else Fraction(a))
                        for c, a in factors]
        self.rhs_terms = rhs_terms
        self.space = field_space(f, g)
        self._coef = []
        self._apow = {}

    def cutoff(self, state):
        """Bound C with: every coefficient at z1^a z2^b with a + b > C is
        zero on this state, on both sides.  Needs .shift on both fields."""
        caps = [t.field.max_mode(state) for t in self.rhs_terms]
        for first, second in ((self.f, self.g), (self.g, self.f)):
            mid = (tuple(x + y for x, y in zip(state[0], second.shift)), state[1])
            caps.append(first.max_mode(mid) + second.max_mode(state))
        return max(caps)

    def _coefs(self, nmax):
        if nmax >= len(self._coef):
            self._coef = product_of_binomials(self.factors, nmax + 8)
        return self._coef

    def lhs_coeff(self, a, b, state):
        nmax1 = max(self.g.max_mode(state) - b, -1)
        out = {}
        if nmax1 >= 0:
            coef = self._coefs(nmax1)
            for n in range(nmax1 + 1):
                if coef[n]:
                    mid = self.g.mode_memo(b + n, state)
                    if mid:
                        out = comb_add(out, comb_scale(self.f.mode(a - n, mid), coef[n]))
        nmax2 = max(self.f.max_mode(state) - a, -1)
        if nmax2 >= 0:
            coef = self._coefs(nmax2)
            for n in range(nmax2 + 1):
                if coef[n]:
                    mid = self.f.mode_memo(a + n, state)
                    if mid:
                        out = comb_sub(out, comb_scale(self.g.mode(b - n, mid), coef[n]))
        return out

    def _delta_coeff(self, ti, term, a):
        key = (ti, a)
        hit = self._apow.get(key)
        if hit is None:
            hit = term.coeff * term.a ** a
            if term.use_D:
                hit = hit * a
            hit = _int_if_integral(hit)
            self._apow[key] = hit
        return hit

    def _witness(self, state, a, b, diff, rhs_keys):
        """Witness of a failing cell; rhs_keys lists, per delta term that
        reached the cell, the keys it touched."""
        cyc_keys = set()
        for term, keys in rhs_keys:
            if isinstance(term.coeff, Cyc) or isinstance(term.a, Cyc):
                cyc_keys.update(keys)
        return {"state": state, "modes": (a, b),
                "difference": witness_difference(self.space, state, diff,
                                                 cyc_keys)}

    def _delta_cells(self, a, s, state):
        """(term, coefficient, image of the state) for each delta term
        with a nonzero coefficient at z1^a z2^(s - a)."""
        out = []
        for ti, term in enumerate(self.rhs_terms):
            if s <= term.field.max_mode(state):
                c = self._delta_coeff(ti, term, a)
                if c:
                    out.append((term, c, term.field.mode_memo(s, state)))
        return out

    def check_state(self, a, b, state):
        """(ok, witness) for the coefficient at z1^a z2^b on one state."""
        diff = self.lhs_coeff(a, b, state)
        cells = self._delta_cells(a, a + b, state)
        for _term, c, cell in cells:
            diff = comb_sub(diff, comb_scale(cell, c))
        if not diff:
            return True, None
        return False, self._witness(state, a, b, diff,
                                    [(term, cell) for term, _c, cell in cells])

    def check_window(self, W, state):
        """Check every coefficient cell |a|, |b| <= W on one state.

        Equivalent to check_state over the grid, but the cell products
        f_p(g_q(v)) on each anti-diagonal p + q = a + b are merged once
        and reused across the cells that share them.
        """
        cut = min(2 * W, self.cutoff(state))
        gmax = self.g.max_mode(state)
        fmax = self.f.max_mode(state)
        fmode = self.f.mode_memo
        gmode = self.g.mode_memo
        for S in range(-2 * W, cut + 1):
            amin = max(-W, S - W)
            amax = min(W, S + W)
            p1lo = S - gmax
            coef = self._coefs(max(amax - p1lo, fmax - amin, 0))
            cells1 = []
            for p in range(p1lo, amax + 1):
                mid = gmode(S - p, state)
                if not mid:
                    continue
                acc = {}
                for w, cw in mid.items():
                    res = fmode(p, w)
                    if res:
                        for k, v in res.items():
                            prev = acc.get(k)
                            vv = v * cw
                            acc[k] = vv if prev is None else prev + vv
                items = tuple((k, v) for k, v in acc.items() if v)
                if items:
                    cells1.append((p, items))
            cells2 = []
            for p in range(amin, fmax + 1):
                mid = fmode(p, state)
                if not mid:
                    continue
                acc = {}
                for w, cw in mid.items():
                    res = gmode(S - p, w)
                    if res:
                        for k, v in res.items():
                            prev = acc.get(k)
                            vv = v * cw
                            acc[k] = vv if prev is None else prev + vv
                items = tuple((k, v) for k, v in acc.items() if v)
                if items:
                    cells2.append((p, items))
            rhs_cells = []
            for ti, term in enumerate(self.rhs_terms):
                if S <= term.field.max_mode(state):
                    cell = term.field.mode_memo(S, state)
                    if cell:
                        rhs_cells.append((ti, term, tuple(cell.items())))
            if not (cells1 or cells2 or rhs_cells):
                continue
            for a in range(amin, amax + 1):
                diff = {}
                dget = diff.get
                for p, items in cells1:
                    if p > a:
                        break
                    cn = coef[a - p]
                    if cn:
                        for k, v in items:
                            prev = dget(k)
                            vv = v * cn
                            diff[k] = vv if prev is None else prev + vv
                for p, items in cells2:
                    if p >= a:
                        cn = coef[p - a]
                        if cn:
                            for k, v in items:
                                prev = dget(k)
                                vv = -v * cn
                                diff[k] = vv if prev is None else prev + vv
                for ti, term, items in rhs_cells:
                    c = self._delta_coeff(ti, term, a)
                    if c:
                        for k, v in items:
                            prev = dget(k)
                            vv = -(v * c)
                            diff[k] = vv if prev is None else prev + vv
                if any(diff.values()):
                    bad = {k: v for k, v in diff.items() if v}
                    rhs_keys = [(term, [k for k, _ in items])
                                for ti, term, items in rhs_cells
                                if self._delta_coeff(ti, term, a)]
                    return False, self._witness(state, a, S - a, bad, rhs_keys)
        return True, None


# ---------------------------------------------------------------------------
# delta-function identities (formal-calculus substitution rules)
# ---------------------------------------------------------------------------


def delta_mul(a: Cyc, f: dict, window: int, derivative: bool = False):
    """Both sides of the substitution identity for delta(a z1/z2) * f.

    f maps (i, j) -> Cyc with finite support (finite support satisfies
    the one-sided condition trivially).  Returns (lhs, rhs) coefficient
    maps over |modes| <= window; with derivative=True the identity is the
    D-delta version, whose right side carries the extra substituted
    z2-derivative term.
    """
    if not isinstance(a, Cyc):
        a = Cyc.rational(a)
    if not f:
        return {}, {}
    if not a:
        raise ValueError("delta substitution needs a nonzero scale")
    ainv = a.inv()
    # collapsed univariate g_t = sum_j a^j f[t-j, j]   (f at (z1, a z1))
    g = {}
    g2 = {}  # D_2 f at (z1, a z1): extra factor j
    for (i, j), c in f.items():
        t = i + j
        val = c * a ** j
        prev = g.get(t)
        g[t] = val if prev is None else prev + val
        if j:
            prev = g2.get(t)
            v2 = val * j
            g2[t] = v2 if prev is None else prev + v2
    lhs = {}
    rhs = {}
    for A in range(-window, window + 1):
        for B in range(-window, window + 1):
            # product with the full delta / D-delta series
            tot = Cyc.zero()
            for (i, j), c in f.items():
                k = A - i
                if B - j != -k:
                    continue
                w = a ** k if k >= 0 else ainv ** (-k)
                if derivative:
                    w = w * k
                tot = tot + c * w
            if tot:
                lhs[(A, B)] = tot
            # substituted side: the ratio delta(a z1/z2) contributes a^(-B)
            # against the pure-z1 function f(z1, a z1)
            t = A + B
            w = ainv ** B if B >= 0 else a ** (-B)
            if derivative:
                val = g.get(t, Cyc.zero()) * w * (-B) + g2.get(t, Cyc.zero()) * w
            else:
                val = g.get(t, Cyc.zero()) * w
            if val:
                rhs[(A, B)] = val
    return lhs, rhs
