"""Adversarial cross-checks beyond the acceptance surface: descent
consistency at awkward levels, search completeness against direct
enumeration, the commutator test against its definition, composite
moduli, and S-integer profiles."""

import random
from fractions import Fraction

import pytest

from mksurf.markoff import (
    GENERATORS,
    MarkoffPoint,
    apply_move,
    apply_path,
    level,
    reduce_point,
    search_integral,
    search_localized,
)
from mksurf.mat2 import Mat2, commutator
from mksurf.quadforms import hasse_profile
from mksurf.quotients import commutator_test_modq, sl2_tuples
from mksurf.rings import ModInt
from mksurf.words import alg1_representatives, psl2_class_reps, word_trace

def test_reduce_orbit_consistency_stress():
    # two walks from the same point always meet at the same normal form,
    # including negative and small positive levels
    rng = random.Random(201)
    for _ in range(400):
        p = MarkoffPoint.make(rng.randint(-7, 7), rng.randint(-7, 7),
                              rng.randint(-7, 7))
        if p.k in (0, 4):
            continue
        nf0, path0 = reduce_point(p)
        assert apply_path(path0, nf0).coords() == p.coords()
        q = p
        for _ in range(rng.randint(1, 8)):
            q = apply_move(rng.choice(GENERATORS), q)
            if q.maxabs() > 10**6:
                break
        nf1, path1 = reduce_point(q)
        assert nf1.coords() == nf0.coords(), (p, q)
        assert apply_path(path1, nf1).coords() == q.coords()


def _direct_localized(k, ell, max_exp, bound):
    """(a, x1, x2, x3) for every point (x1, x2/l^a, x3/l^a) that
    search_localized must find, by enumerating the whole box."""
    direct = set()
    for a in range(0, max_exp + 1):
        big = ell ** (2 * a)
        for x1 in range(-bound, bound + 1):
            for x2 in range(-bound, bound + 1):
                for x3 in range(-bound, bound + 1):
                    if a == 0:
                        if not (abs(x1) <= abs(x2) <= abs(x3)):
                            continue  # integral shape is ordering-canonical
                    elif x2 % ell == 0 or x3 % ell == 0:
                        continue
                    if x1 * x1 * big + x2 * x2 + x3 * x3 - x1 * x2 * x3 == k * big:
                        direct.add((a, x1, x2, x3))
    return direct


def _localized_tuples(k, ell, max_exp, bound):
    out = []
    for p in search_localized(k, ell, max_exp, bound):
        c1, c2, c3 = (Fraction(c) for c in p.coords())
        assert c1.denominator == 1 and c2.denominator == c3.denominator
        a = next(a for a in range(max_exp + 1) if ell**a == c2.denominator)
        out.append((a, c1.numerator, c2.numerator, c3.numerator))
    return out


def test_search_localized_matches_direct_enumeration():
    k, ell, bound, max_exp = 224, 5, 20, 2
    direct = _direct_localized(k, ell, max_exp, bound)
    assert any(a > 0 for (a, _, _, _) in direct)  # denominator shapes occur
    assert set(_localized_tuples(k, ell, max_exp, bound)) == direct


@pytest.mark.parametrize("k, ell", [(224, 5), (2, 5), (5, 3)])
def test_search_localized_order(k, ell):
    # the documented order, which `markoff search --limit` and the found
    # field of a certificate expose; (2, 5) has x1 = 0 groups such as
    # (0, 1/5, 7/5), and (5, 3) has exponent-2 points
    bound, max_exp = 20, 2

    def images(x1, x2, x3):
        return [(x1, x2, x3), (x1, -x2, -x3), (-x1, -x2, x3), (-x1, x2, -x3)]

    def key(point):
        a, v = point[0], point[1:]
        base = min(w for w in images(*v) if w[0] >= 0 and w[1] >= 0)
        return a, base, images(*base).index(v)

    direct = _direct_localized(k, ell, max_exp, bound)
    expected = (sorted(p for p in direct if p[0] == 0)
                + sorted((p for p in direct if p[0] > 0), key=key))
    assert any(p[0] > 0 for p in direct)
    assert _localized_tuples(k, ell, max_exp, bound) == expected


def _mul_mod(x, y, q):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)


def _commutator_mod(x, y, q):
    xinv = (x[3], -x[1] % q, -x[2] % q, x[0])
    yinv = (y[3], -y[1] % q, -y[2] % q, y[0])
    return _mul_mod(_mul_mod(x, y, q), _mul_mod(xinv, yinv, q), q)


def _brute_commutators(q, group):
    """{[X, Y]} from the definition. Above q = 9 the set is a union of
    conjugacy classes (g [X, Y] g^-1 = [g X g^-1, g Y g^-1]), so X runs
    over one element of each class, classes being closed under conjugation
    by S and T, and each [X, Y] contributes its whole class."""
    if q <= 9:
        return {_commutator_mod(x, y, q) for x in group for y in group}
    conjugators = [((0, q - 1, 1, 0), (0, 1, q - 1, 0)), ((0, 1, q - 1, 0), (0, q - 1, 1, 0)),
                   ((1, 1, 0, 1), (1, q - 1, 0, 1)), ((1, q - 1, 0, 1), (1, 1, 0, 1))]
    reps, class_of = [], {}
    for x in group:
        if x in class_of:
            continue
        reps.append(x)
        cls = class_of[x] = {x}
        stack = [x]
        while stack:
            e = stack.pop()
            for g, ginv in conjugators:
                f = _mul_mod(_mul_mod(g, e, q), ginv, q)
                if f not in cls:
                    cls.add(f)
                    class_of[f] = cls
                    stack.append(f)
    out = set()
    for x in reps:
        for y in group:
            z = _commutator_mod(x, y, q)
            if z not in out:
                out |= class_of[z]
    return out


def test_commutator_test_against_definition():
    # every Z for q = 2..9 (6 is composite), a seeded sample at 12 and 16;
    # each witness is multiplied out
    rng = random.Random(202)
    for q in (2, 3, 4, 5, 6, 7, 8, 9, 12, 16):
        group = sl2_tuples(q)
        comms = _brute_commutators(q, group)
        zs = group if q <= 9 else rng.sample(group, 150)
        for z in zs:
            ok, wit = commutator_test_modq(z, q)
            assert ok == (z in comms), (q, z)
            if ok:
                x, y = (tuple(e.v for e in m.entries()) for m in wit)
                assert _commutator_mod(x, y, q) == z, (q, z)


def test_commutator_test_composite_modulus():
    # q = 6 is not a prime power; compare against the definition
    q = 6
    pairs = [Mat2(*(ModInt(v, q) for v in t)) for t in sl2_tuples(q)]
    commutators = {commutator(x, y).entries() for x in pairs for y in pairs}
    rng = random.Random(203)
    for z in rng.sample(pairs, 40):
        ok, wit = commutator_test_modq(z, q)
        assert ok == (z.entries() in commutators)
        if ok:
            assert commutator(*wit) == z


def test_hasse_profile_on_localized_points():
    # denominator-shape points still satisfy the product formula and agree
    # along their orbit
    pts = [p for p in search_localized(224, 5, 2, 30)
           if any(Fraction(c).denominator > 1 for c in p.coords())]
    assert pts
    rng = random.Random(204)
    for p in pts[:6]:
        prof = hasse_profile(p)
        assert prof.product() == 1
        base = {place for place, v in prof.entries if v == -1}
        q = p
        for _ in range(8):
            q = apply_move(rng.choice(GENERATORS), q)
            if max(abs(Fraction(c).numerator) for c in q.coords()) > 10**6:
                break
            assert {place for place, v in hasse_profile(q).entries if v == -1} == base


def test_alg1_small_trace_rows_for_full_modular_group():
    # over (2,3) the subgroup is everything, so every class must appear
    for t in (3, 4, 5):
        reps = alg1_representatives(2, 3, t)
        assert len(reps) == len(psl2_class_reps(t))
        for w in reps:
            assert word_trace(2, 3, w) == t


def test_search_integral_large_k_spot():
    # a level where the fundamental box matters: all found points really lie
    # on the surface and inside the cube
    for p in search_integral(3780, 60):
        assert p.k == 3780
        a, b, c = (abs(v) for v in p.coords())
        assert a <= b <= c <= 60


def test_localized_point_constructor_rejects_wrong_level():
    with pytest.raises(ValueError):
        MarkoffPoint(1, Fraction(1, 5), Fraction(1, 5), 99)


def test_level_mixed_types():
    coords = (15, Fraction(1, 5), Fraction(2, 5))
    assert level(*coords) == 224
