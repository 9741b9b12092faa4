"""The loop-rescaling isomorphism between twisted toroidal algebras.

A finite-order automorphism pi of the Chevalley algebra (order K) and the
principal-type automorphism theta it induces (order m) give two twisted
toroidal algebras over the same base.  This module builds the explicit
isomorphism phi between them:

    phi(x t^r0 t^r)  =  x t^(N(x) + (m/K) r0) t^r        (weight lines),
    phi(k_i t^r0 t^r) = k_i t^((m/K) r0) t^r,

with a central k_0 correction on weight-zero loop elements.  The exponent
table N lives on t-weight lines: pairs (Z_K-eigenclass, weight under the
fixed Cartan t of the eigenclass-zero subalgebra), since for K > 1 the
root vectors of the big Cartan are not pi-eigenvectors.  Each line is a
pi-eigencomponent of a root vector: pi fixes t and permutes the root
lines, so the components of x_alpha carry alpha's weight on t.  N is
propagated from the canonical affine generators through bracket words;
any inconsistency raises, never patched.

The bracket conventions differ on the two sides: the pi-side divides the
k_0 central cocycle by K, the theta-side by m (both realized through
ToroidalAlgebra's automorphism order).  verify_iso checks the bracket
homomorphism property on seeded random basis pairs, the N invariants, the
theta-fixedness of every image, and the central identity phi(C) = C.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import checks, linalg
from .autom import (TwistData, affine_marks, diagram_automorphism,
                    eigenspace_decompose, identity_automorphism)
from .rootsys import ChevalleyAlgebra, GElement, build_root_system
from .scalar import Cyc
from .toroidal import TorElement, ToroidalAlgebra


class _LoopOrder:
    """Stand-in automorphism carrying only the loop order m.

    The theta-side ToroidalAlgebra needs just the central divisor; theta
    itself acts diagonally on the adapted weight lines and is tracked by
    the eigenvalue table d below, so no symbol action is ever required.
    """

    def __init__(self, order: int):
        self.order = order


class Line:
    """A 1-dimensional (eigenclass, t-weight) component of the algebra."""

    __slots__ = ("cls", "weight", "g", "vec")

    def __init__(self, cls, weight, g, vec):
        self.cls = cls
        self.weight = weight
        self.g = g
        self.vec = vec

    def __repr__(self):
        return "Line(cls=%d, weight=%r)" % (self.cls, self.weight)


class Probe:
    """A weight-zero bracket [x_u, x_v] with its phi image data."""

    __slots__ = ("cls", "g", "vec", "shift", "central")

    def __init__(self, cls, g, vec, shift, central):
        self.cls = cls
        self.g = g
        self.vec = vec
        self.shift = shift       # exponent shift N(u) + N(v)
        self.central = central   # k_0 coefficient <x_u, x_v>' N(u)/m


class IsoContext:
    """Everything needed to evaluate and verify the isomorphism phi."""

    def __init__(self, alg, pi, K, nvars):
        self.alg = alg
        self.pi = pi
        self.K = K
        self.nvars = nvars
        self.ell = 0
        self.E = []            # canonical generators, index 0..ell
        self.F = []
        self.H = []
        self.cartan = []       # affine Cartan matrix psi_j(H_i)
        self.marks = []
        self.comarks = []
        self.m = 0
        self.lam = Cyc.one()   # form normalization <psi_0, psi_0> = 2 a1_0 / K
        self.lines = []
        self.line_at = {}      # (cls, weight) -> line index
        self.N = {}            # line index -> exponent shift
        self.d = {}            # line index -> theta eigenvalue exponent mod m
        self.probes = []       # per class: chosen spanning probes
        self.cols = []         # per class: (Span, infos) for decomposition
        self.dom = None        # ToroidalAlgebra over pi   (divisor K)
        self.cod = None        # ToroidalAlgebra, divisor m
        self._coords = {}


def _ratio(alg, u, v):
    """Scalar c with u = c v, or None."""
    if v.is_zero():
        return None
    coeffs = linalg.Span([alg.to_vector(v)]).coords(alg.to_vector(u))
    return None if coeffs is None else coeffs[0]


def _eigenvalue(alg, h, g):
    """The integer c with [h, g] = c g; 0 if [h, g] is no multiple of g."""
    r = _ratio(alg, alg.bracket(h, g), g)
    if r is None:
        return 0
    f = r.as_fraction()
    if f.denominator != 1:
        raise ValueError("expected an integer eigenvalue, got %s" % (f,))
    return int(f)


def _weight(alg, hams, g):
    """The t-weight of g: its eigenvalues under ad H_1, ..., ad H_ell."""
    return tuple(_eigenvalue(alg, h, g) for h in hams)


def build_iso_context(kind: str, rank: int, K: int = 1, perm=None,
                      nvars: int = 1) -> IsoContext:
    """Construct the isomorphism data for the twisted pair (pi, theta)."""
    rs = build_root_system(kind, rank)
    alg = ChevalleyAlgebra(rs)
    if K == 1:
        pi = identity_automorphism(alg)
    else:
        if perm is None:
            raise ValueError("a diagram permutation is required when K > 1")
        pi = diagram_automorphism(alg, list(perm), K)
    ctx = IsoContext(alg, pi, K, nvars)

    # canonical generators of the eigenclass-zero subalgebra
    twist = TwistData.of(pi)
    orbits = twist.orbits(rs.simple_roots)
    ctx.ell = len(orbits)
    E, F, H = [None], [None], [None]
    for orbit in orbits:
        a0 = orbit[0]
        e = GElement()
        f = GElement()
        for p in range(len(orbit)):
            e = e + pi.power(p).apply(GElement.x(a0))
            f = f + pi.power(p).apply(GElement.x(tuple(-x for x in a0)))
        if not pi.apply(e) == e or not pi.apply(f) == f:
            raise ValueError("orbit sum is not pi-fixed (sign obstruction)")
        h = alg.bracket(e, f)
        c = _ratio(alg, alg.bracket(h, e), e)
        if c is None or not c:
            raise ValueError("degenerate sl2 triple on a node orbit")
        f = f.scale(Cyc.rational(2) / c)
        E.append(e)
        F.append(f)
        H.append(alg.bracket(e, f))

    # t-weight lines: the pi-eigencomponents of one root vector per orbit.
    # pi fixes t, so each component has its root's weight on t.
    hams = H[1:]
    for orbit in twist.orbits(rs.roots):
        for cls, comp in eigenspace_decompose(pi, GElement.x(orbit[0])):
            vec = alg.to_vector(comp)
            lead = next(c for c in vec if c).inv()
            vec = [lead * c if c else c for c in vec]
            ctx.lines.append(Line(cls, _weight(alg, hams, comp),
                                  alg.from_vector(vec), vec))
    ctx.lines.sort(key=lambda ln: (ln.cls, ln.weight))
    ctx.line_at = {(ln.cls, ln.weight): i for i, ln in enumerate(ctx.lines)}
    if len(ctx.line_at) != len(ctx.lines):
        raise ValueError("t-weight multiplicity above one")
    zero_spans = [linalg.Span() for _ in range(K)]
    for i in range(rs.rank):
        for cls, comp in eigenspace_decompose(pi, GElement({("h", i): Cyc.one()})):
            zero_spans[cls].add(alg.to_vector(comp))

    # affine node: the line of class 1 (-1) that every F_j (E_j) kills
    def joint_kernel_line(cls, gens):
        hits = [ln.g for ln in ctx.lines if ln.cls == cls % K
                and all(alg.bracket(g, ln.g).is_zero() for g in gens)]
        if len(hits) != 1:
            raise ValueError("affine node weight space is not a line "
                             "(dim %d)" % len(hits))
        return hits[0]

    e0 = joint_kernel_line(1, F[1:])
    f0 = joint_kernel_line(-1, E[1:])
    h0 = alg.bracket(e0, f0)
    c = _ratio(alg, alg.bracket(h0, e0), e0)
    if c is None or not c:
        raise ValueError("affine node does not close to an sl2 triple")
    f0 = f0.scale(Cyc.rational(2) / c)
    E[0], F[0] = e0, f0
    H[0] = alg.bracket(e0, f0)
    ctx.E, ctx.F, ctx.H = E, F, H

    # affine Cartan matrix, marks, comarks, theta order m
    n = ctx.ell + 1
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            A[i][j] = _eigenvalue(alg, H[i], E[j])
    ctx.cartan = A
    marks, comarks = affine_marks(A)
    if marks[0] != 1:
        raise ValueError("affine mark a_0 is %d, expected 1" % marks[0])
    check = GElement()
    for a1, h in zip(comarks, H):
        check = check + h.scale(a1)
    if not check.is_zero():
        raise ValueError("comark null relation sum a1_j H_j = 0 fails")
    ctx.marks, ctx.comarks = marks, comarks
    ctx.m = K * sum(marks)

    # form normalization: <psi_0, psi_0> = 2 a1_0 / K
    gram = linalg.Span([alg.form(H[i], H[j]) for i in range(1, n)]
                       for j in range(1, n))
    rhs = [Cyc.rational(A[i][0]) for i in range(1, n)]
    coords = gram.coords(rhs)
    if coords is None:
        raise ValueError("restricted Cartan form is degenerate")
    psi0sq = Cyc.zero()
    for a, b in zip(rhs, coords):
        psi0sq = psi0sq + a * b
    ctx.psi0sq = psi0sq
    ctx.lam = psi0sq * Fraction(K, 2 * comarks[0])

    ctx.dom = ToroidalAlgebra(alg, pi, nvars, form_scale=ctx.lam)
    ctx.cod = ToroidalAlgebra(alg, _LoopOrder(ctx.m), nvars, form_scale=ctx.lam)

    compute_N(ctx)
    _build_probes(ctx, [len(span) for span in zero_spans])
    return ctx


def _line_of(ctx, g, cls):
    """Line index of a weight vector g in the given class, with a check."""
    idx = ctx.line_at.get((cls % ctx.K, _weight(ctx.alg, ctx.H[1:], g)))
    if idx is None or _ratio(ctx.alg, g, ctx.lines[idx].g) is None:
        raise ValueError("element does not sit on a single t-weight line")
    return idx


def compute_N(ctx: IsoContext):
    """Propagate the exponent table N from the affine generators.

    Seeds: N = 1 on the E_j lines, -1 on the F_j lines, 1 - m/K on the
    affine node E_0 and m/K - 1 on F_0.  Brackets of known lines force N
    additively; a conflicting forced value raises (the inconsistency is
    reported, never patched).  Also fills the theta-eigenvalue table d
    (seeds +-1 on every generator line, additive mod m).
    """
    alg, K = ctx.alg, ctx.K
    mK = ctx.m // K
    ctx.N = {}
    ctx.d = {}

    def seed(g, cls, nval, dval):
        idx = _line_of(ctx, g, cls)
        for table, val, name in ((ctx.N, nval, "N"), (ctx.d, dval % ctx.m, "d")):
            if idx in table and table[idx] != val:
                raise ValueError("%s seed conflict on line %r" % (name, ctx.lines[idx]))
            table[idx] = val

    for j in range(1, ctx.ell + 1):
        seed(ctx.E[j], 0, 1, 1)
        seed(ctx.F[j], 0, -1, -1)
    seed(ctx.E[0], 1, 1 - mK, 1)
    seed(ctx.F[0], -1, mK - 1, -1)

    changed = True
    while changed:
        changed = False
        known = sorted(ctx.N)
        for i in known:
            for j in known:
                li, lj = ctx.lines[i], ctx.lines[j]
                wsum = tuple(a + b for a, b in zip(li.weight, lj.weight))
                if not any(wsum):
                    continue
                b = alg.bracket(li.g, lj.g)
                if b.is_zero():
                    continue
                cls = (li.cls + lj.cls) % ctx.K
                idx = ctx.line_at.get((cls, wsum))
                if idx is None:
                    raise ValueError("bracket escapes the weight lines at %r" % (wsum,))
                nval = ctx.N[i] + ctx.N[j]
                dval = (ctx.d[i] + ctx.d[j]) % ctx.m
                if idx in ctx.N:
                    if ctx.N[idx] != nval:
                        raise ValueError(
                            "inconsistent N at %r: %d vs %d forced by brackets"
                            % (ctx.lines[idx], ctx.N[idx], nval))
                    if ctx.d[idx] != dval:
                        raise ValueError("inconsistent theta exponent at %r"
                                         % (ctx.lines[idx],))
                else:
                    ctx.N[idx] = nval
                    ctx.d[idx] = dval
                    changed = True
    missing = [ctx.lines[i] for i in range(len(ctx.lines)) if i not in ctx.N]
    if missing:
        raise ValueError("N undetermined on lines %r" % (missing,))
    return {(ln.cls, ln.weight): ctx.N[i] for i, ln in enumerate(ctx.lines)}


def _build_probes(ctx, zero_dims):
    """Spanning weight-zero brackets with their phi image data, per class;
    zero_dims[cls] is the dimension of the weight-zero space of class cls."""
    alg = ctx.alg
    ctx.probes = [[] for _ in range(ctx.K)]
    spans = [linalg.Span() for _ in range(ctx.K)]
    for i, li in enumerate(ctx.lines):
        for j, lj in enumerate(ctx.lines):
            if any(a + b for a, b in zip(li.weight, lj.weight)):
                continue
            b = alg.bracket(li.g, lj.g)
            if b.is_zero():
                continue
            cls = (li.cls + lj.cls) % ctx.K
            f = alg.form(li.g, lj.g) * ctx.lam
            if f and ctx.N[i] + ctx.N[j] != 0:
                raise ValueError("form-paired lines with N(u) + N(v) != 0")
            vec = alg.to_vector(b)
            if not spans[cls].add(vec):
                continue
            ctx.probes[cls].append(Probe(cls, b, vec, ctx.N[i] + ctx.N[j],
                                         f * Fraction(ctx.N[i], ctx.m)))
    ctx.cols = []
    for cls in range(ctx.K):
        span, infos = linalg.Span(), []
        for i, ln in enumerate(ctx.lines):
            if ln.cls == cls:
                span.add(ln.vec)
                infos.append(("line", ln.g, ctx.N[i]))
        for p in ctx.probes[cls]:
            span.add(p.vec)
            infos.append(("probe", p.g, p.shift, p.central))
        if len(span) != sum(ln.cls == cls for ln in ctx.lines) + zero_dims[cls]:
            raise ValueError("weight-zero probes do not span class %d" % cls)
        ctx.cols.append((span, infos))


def _decompose(ctx, cls, g):
    key = (cls, tuple(sorted((s, repr(c)) for s, c in g.terms.items())))
    if key not in ctx._coords:
        ctx._coords[key] = ctx.cols[cls][0].coords(ctx.alg.to_vector(g))
    hit = ctx._coords[key]
    if hit is None:
        raise ValueError("element is not in the pi-twisted subalgebra")
    return hit


def phi(ctx: IsoContext, el: TorElement) -> TorElement:
    """Image of a pi-twisted toroidal element under the isomorphism."""
    cod, K, mK = ctx.cod, ctx.K, ctx.m // ctx.K
    out = TorElement()
    groups = {}
    for key, c in el.terms.items():
        if key[0] == "g":
            _, sym, r0, rv = key
            g = groups.setdefault((r0, rv), GElement())
            groups[(r0, rv)] = g + GElement({sym: c})
        elif key[0] == "k":
            _, i, r0, rv = key
            if r0 % K:
                raise ValueError("central term t^%d k_%d is not pi-fixed" % (r0, i))
            out = out + TorElement({("k", i, r0 * mK, rv): c})
        else:
            raise ValueError("derivations are outside the isomorphism domain")
    for (r0, rv), g in sorted(groups.items()):
        cls = r0 % K
        base = r0 * mK
        coords = _decompose(ctx, cls, g)
        _, infos = ctx.cols[cls]
        for c, info in zip(coords, infos):
            if not c:
                continue
            out = out + cod.loop(info[1].scale(c), base + info[2], rv)
            if info[0] == "probe" and info[3]:
                out = out + TorElement({("k", 0, base, rv): c * info[3]})
    return cod.normalize_dA(out)


def check_phi_C(ctx: IsoContext, entries):
    """phi(C) = C through the affine-node chain.

    Bracket the images of E_0 t and F_0 t^-1 on the theta side, subtract
    the image of H_0; the remainder must be <E_0, F_0>'/K times k_0 at
    multidegree zero, which is exactly where phi(C) = C materializes.
    """
    zeros = (0,) * ctx.nvars
    a = ctx.dom.loop(ctx.E[0], 1, zeros)
    b = ctx.dom.loop(ctx.F[0], -1, zeros)
    lhs = ctx.cod.bracket(phi(ctx, a), phi(ctx, b)) - phi(
        ctx, ctx.dom.loop(ctx.H[0], 0, zeros))
    pair = ctx.lam * ctx.alg.form(ctx.E[0], ctx.F[0])
    rhs = TorElement({("k", 0, 0, zeros): pair * Fraction(1, ctx.K)})
    checks.run(entries, "iso.phi_C", {"K": ctx.K, "m": ctx.m}, checks.equal,
               lhs, rhs)


def _random_domain_element(ctx, rng, rmax=2):
    pool = len(ctx.lines) + sum(len(p) for p in ctx.probes) + ctx.nvars + 1
    pick = rng.randrange(pool)
    rv = tuple(rng.randint(-1, 1) for _ in range(ctx.nvars))
    if pick < len(ctx.lines):
        ln = ctx.lines[pick]
        r0 = ln.cls + ctx.K * rng.randint(-rmax, rmax)
        return ctx.dom.loop(ln.g, r0, rv), ("line", pick, r0, rv)
    pick -= len(ctx.lines)
    for cls in range(ctx.K):
        if pick < len(ctx.probes[cls]):
            p = ctx.probes[cls][pick]
            r0 = cls + ctx.K * rng.randint(-rmax, rmax)
            return ctx.dom.loop(p.g, r0, rv), ("zero", cls, pick, r0, rv)
        pick -= len(ctx.probes[cls])
    r0 = ctx.K * rng.randint(-rmax, rmax)
    return ctx.dom.central(pick, r0, rv), ("central", pick, r0, rv)


def verify_iso(ctx: IsoContext, samples: int = 1000, seed: int = 0):
    """Structural invariants plus the bracket homomorphism on random pairs."""
    entries = []
    alg = ctx.alg

    bad = [] if ctx.marks[0] == 1 else ["a_0 = %d" % ctx.marks[0]]
    checks.run(entries, "iso.marks", {"marks": tuple(ctx.marks),
                                      "comarks": tuple(ctx.comarks)},
               checks.none_of, bad)

    for j in range(1, ctx.ell + 1):
        for g, want, tag in ((ctx.E[j], 1, "E"), (ctx.F[j], -1, "F")):
            got = ctx.N[_line_of(ctx, g, 0)]
            bad = [] if got == want else ["N = %d, expected %d" % (got, want)]
            checks.run(entries, "iso.N_simple", {"node": j, "gen": tag},
                       checks.none_of, bad)

    bad = []
    for i, li in enumerate(ctx.lines):
        for j, lj in enumerate(ctx.lines):
            if alg.form(li.g, lj.g) and ctx.N[i] + ctx.N[j] != 0:
                bad.append(repr((li.weight, lj.weight)))
    checks.run(entries, "iso.N_opposite", {"pairs": len(ctx.lines) ** 2},
               checks.none_of, bad)

    mK = ctx.m // ctx.K
    bad = [repr(ln) for i, ln in enumerate(ctx.lines)
           if (ctx.d[i] - ctx.N[i] - ln.cls * mK) % ctx.m]
    checks.run(entries, "iso.theta_fixed_images", {"lines": len(ctx.lines)},
               checks.none_of, bad)

    prod = ctx.alg.form(ctx.E[0], ctx.F[0]) * ctx.psi0sq
    bad = [] if prod == Cyc.rational(2) else [repr(prod)]
    checks.run(entries, "iso.form_pairing", {"psi0sq": repr(ctx.psi0sq)},
               checks.none_of, bad)

    check_phi_C(ctx, entries)

    rng = random.Random(seed)
    for t in range(samples):
        a, da = _random_domain_element(ctx, rng)
        b, db = _random_domain_element(ctx, rng)
        lhs = phi(ctx, ctx.dom.bracket(a, b))
        rhs = ctx.cod.bracket(phi(ctx, a), phi(ctx, b))
        checks.run(entries, "iso.hom", {"sample": t, "a": da, "b": db},
                   checks.equal, lhs, rhs)
    return entries


def n_table(ctx: IsoContext):
    """JSON-friendly exponent table, in line order: by class, then weight."""
    return [{"class": ln.cls, "weight": list(ln.weight), "N": ctx.N[i],
             "theta_exp": ctx.d[i]} for i, ln in enumerate(ctx.lines)]
