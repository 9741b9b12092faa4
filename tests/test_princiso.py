import itertools
from fractions import Fraction

import pytest

from torlab.config import ConfigError, RunConfig, permutation_order
from torlab.princiso import (build_iso_context, check_phi_C, n_table, phi,
                             verify_iso)
from torlab.rootsys import GElement
from torlab.scalar import Cyc, cyc_root_of_unity
from torlab.toroidal import TorElement


def _a1():
    return build_iso_context("A", 1, K=1)


def _a3():
    return build_iso_context("A", 3, K=2, perm=[2, 1, 0])


def test_a1_context():
    ctx = _a1()
    assert ctx.cartan == [[2, -2], [-2, 2]]
    assert list(ctx.marks) == [1, 1] and list(ctx.comarks) == [1, 1]
    assert ctx.m == 2 and ctx.lam == Cyc.one()
    table = {(e["class"], tuple(e["weight"])): e["N"] for e in n_table(ctx)}
    assert table == {(0, (2,)): 1, (0, (-2,)): -1}


def test_a3_twisted_context():
    ctx = _a3()
    assert ctx.ell == 2 and ctx.K == 2
    assert list(ctx.marks) == [1, 1, 1]
    assert ctx.m == 6
    assert len(ctx.lines) == 12
    # theta eigenvalue = N + class * m/K on every line (fixed-point images)
    for i, ln in enumerate(ctx.lines):
        assert (ctx.d[i] - ctx.N[i] - ln.cls * 3) % 6 == 0


def test_lines_are_joint_eigenvectors_in_class_weight_order():
    """Each line is a pi-eigenvector of its class with its weight under
    ad H_1, ..., ad H_ell; the lines come sorted by (class, weight), one
    per root, and with the weight-zero probes they fill the algebra."""
    for K, perm in ((1, None), (2, [0, 1, 3, 2]), (3, [2, 1, 3, 0])):
        ctx = build_iso_context("D", 4, K=K, perm=perm)
        keys = [(ln.cls, ln.weight) for ln in ctx.lines]
        assert keys == sorted(set(keys))
        assert len(ctx.lines) == len(ctx.alg.rs.roots)
        for ln in ctx.lines:
            assert ctx.pi.apply(ln.g) == ln.g.scale(
                cyc_root_of_unity(K, ln.cls))
            for lam, h in zip(ln.weight, ctx.H[1:]):
                assert ctx.alg.bracket(h, ln.g) == ln.g.scale(lam)
        assert sum(len(span) for span, _infos in ctx.cols) == ctx.alg.dim


def test_phi_closed_form_on_a1_root_vectors():
    """phi(x_alpha t^r0) = x_alpha t^(2 r0 + 1) for the positive root."""
    ctx = _a1()
    a = (1,)
    for r0 in (-2, 0, 3):
        img = phi(ctx, ctx.dom.loop(GElement.x(a), r0, (0,)))
        assert img == ctx.cod.loop(GElement.x(a), 2 * r0 + 1, (0,))
        img = phi(ctx, ctx.dom.loop(GElement.x((-1,)), r0, (0,)))
        assert img == ctx.cod.loop(GElement.x((-1,)), 2 * r0 - 1, (0,))


def test_phi_cartan_central_correction_a1():
    """phi(h_alpha t^r0) picks up (1/2) k_0 at the doubled exponent."""
    ctx = _a1()
    h = GElement.h((1,))
    img = phi(ctx, ctx.dom.loop(h, 0, (0,)))
    want = ctx.cod.loop(h, 0, (0,)) + TorElement(
        {("k", 0, 0, (0,)): Cyc.rational(Fraction(1, 2))})
    assert img == want
    # at a nonzero exponent the k_0 term dies in the d_A normal form
    img2 = phi(ctx, ctx.dom.loop(h, 1, (0,)))
    assert img2 == ctx.cod.loop(h, 2, (0,))


def test_phi_fixes_the_canonical_center():
    ctx = _a3()
    c = ctx.dom.central(0, 0, (0,))
    assert phi(ctx, c) == ctx.cod.central(0, 0, (0,))
    entries = []
    check_phi_C(ctx, entries)
    assert entries and entries[0][2] == "pass"


def test_phi_respects_the_dA_relation():
    """The same domain class, presented two ways, has one image."""
    ctx = _a3()
    # r0 k_0 / K + sum r_i k_i = 0: k_0 at (2, (1,)) equals -2 k_1 there
    a = TorElement({("k", 0, 2, (1,)): Cyc.one()})
    assert phi(ctx, ctx.dom.normalize_dA(a)) == ctx.cod.normalize_dA(
        TorElement({("k", 0, 6, (1,)): Cyc.one()}))


def test_homomorphism_on_seeded_pairs():
    for ctx in (_a1(), _a3()):
        entries = verify_iso(ctx, samples=60, seed=7)
        bad = [e for e in entries if e[2] != "pass"]
        assert not bad, bad[:2]
        ids = {e[0] for e in entries}
        assert {"iso.hom", "iso.phi_C", "iso.N_simple", "iso.N_opposite",
                "iso.marks", "iso.theta_fixed_images"} <= ids


def test_verify_is_deterministic():
    ctx = _a3()
    e1 = verify_iso(ctx, samples=25, seed=5)
    e2 = verify_iso(_a3(), samples=25, seed=5)
    assert e1 == e2
    e3 = verify_iso(ctx, samples=25, seed=6)
    assert [x[1] for x in e3 if x[0] == "iso.hom"] != \
        [x[1] for x in e1 if x[0] == "iso.hom"]


def test_corrupted_exponent_table_is_caught():
    ctx = _a1()
    idx = next(i for i in ctx.N if ctx.N[i] == 1)
    ctx.N[idx] = 2
    ctx.cols = []
    from torlab.princiso import _build_probes
    with pytest.raises(ValueError):
        # the form-paired invariant N(u) + N(v) = 0 now fails
        _build_probes(ctx, [1])
    entries = verify_iso(_corrupt(_a1()), samples=0, seed=0)
    assert any(e[0] == "iso.N_opposite" and e[2] == "fail" for e in entries)


def _corrupt(ctx):
    idx = next(i for i in ctx.N if ctx.N[i] == 1)
    ctx.N[idx] = 2
    return ctx


def test_domain_errors():
    ctx = _a3()
    with pytest.raises(ValueError):
        phi(ctx, ctx.dom.deriv(0))
    with pytest.raises(ValueError):
        phi(ctx, TorElement({("k", 1, 1, (0,)): Cyc.one()}))
    # class-1 element placed at an even loop exponent is not pi-fixed
    odd = GElement.x((1, 0, 0)) - GElement.x((0, 0, 1))
    with pytest.raises(ValueError):
        phi(ctx, ctx.dom.loop(odd, 0, (0,)))
    with pytest.raises(ValueError):
        build_iso_context("A", 3, K=2)


def _admitted_pairs(max_rank=6):
    """Every (kind, rank, perm) the config admits for the iso suite, up to
    max_rank: each Dynkin diagram symmetry, the identity included."""
    for kind, ranks in (("A", range(1, max_rank + 1)),
                        ("D", range(3, max_rank + 1)), ("E", (6,))):
        for rank in ranks:
            for perm in map(list, itertools.permutations(range(rank))):
                cfg = RunConfig()
                cfg.kind, cfg.rank = kind, rank
                cfg.automorphism = {"kind": "diagram", "permutation": perm}
                try:
                    cfg.validate()
                except ConfigError:
                    continue
                yield kind, rank, perm


def test_every_admitted_pair_builds_and_verifies():
    """A pair the config admits is never an input error: its context builds
    and every iso entry passes."""
    pairs = list(_admitted_pairs())
    assert len(pairs) == 25
    for kind, rank, perm in pairs:
        K = permutation_order(perm)
        ctx = build_iso_context(kind, rank, K=K, perm=perm)
        bad = [e for e in verify_iso(ctx, samples=20) if e[2] != "pass"]
        assert not bad, (kind, rank, perm, bad[:2])
