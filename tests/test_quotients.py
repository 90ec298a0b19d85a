import random

import numpy as np
import pytest

from mksurf import quotients
from mksurf.expected_tables import HFU2_IMAGES
from mksurf.mat2 import Mat2, commutator, mat_mod
from mksurf.quotients import (
    BudgetExceeded,
    commutator_test_modq,
    sl2_tuples,
    trace_commutator_image,
)
from mksurf.rings import ModInt

from _util import random_sl2z


def sl2_order(q):
    """|SL2(Z/q)| = q^3 * prod_{p | q} (1 - p^-2)."""
    order = q**3
    left = q
    p = 2
    while p * p <= left:
        if left % p == 0:
            order = order // (p * p) * (p * p - 1)
            while left % p == 0:
                left //= p
        p += 1
    if left > 1:
        order = order // (left * left) * (left * left - 1)
    return order


def test_sl2_enumeration():
    for q in (2, 3, 4, 5, 6, 8, 9, 12):
        tuples = sl2_tuples(q)
        assert len(tuples) == sl2_order(q)
        assert tuples == sorted(tuples)  # the group table's codes rely on it
        assert len(set(tuples)) == len(tuples)
        for (a, b, c, d) in random.Random(q).sample(tuples, min(50, len(tuples))):
            assert (a * d - b * c) % q == 1


def _conj(g, e, q):
    """g e g^-1 mod q for determinant-1 entry quadruples (of ints or arrays)."""
    a, b, c, d = g
    w, x, y, z = e
    m = (a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z)
    return ((m[0] * d - m[1] * c) % q, (m[1] * a - m[0] * b) % q,
            (m[2] * d - m[3] * c) % q, (m[3] * a - m[2] * b) % q)


def test_group_table_classes_are_conjugation_orbits():
    # every element, every trace: the class ids against the orbits
    # {g e g^-1 : g in SL2(Z/q)} computed from the definition, and every
    # recorded conjugator between members of one class
    for q in (3, 5, 7, 8, 9):
        table = quotients.group_table(q)
        group = tuple(v.astype(np.int64) for v in table.elements())
        codes = {tuple(int(v) for v in table.entries[:, i]): i for i in range(len(table.codes))}
        for e, i in codes.items():
            orbit = {codes[m] for m in zip(*(v.tolist() for v in _conj(group, e, q)))}
            assert set(np.flatnonzero(table.cls == table.cls[i]).tolist()) == orbit, (q, e)
            for j in orbit:
                g = table.conjugator(i, j)
                assert (g[0] * g[3] - g[1] * g[2]) % q == 1, (q, i, j)
                assert _conj(g, e, q) == tuple(table.entries[:, j]), (q, i, j)


def test_commutator_test_identity():
    ok, wit = commutator_test_modq(Mat2(1, 0, 0, 1), 9)
    assert ok and wit[0] == wit[0].identity_like()


def test_commutator_test_rejects_bad_det():
    with pytest.raises(ValueError):
        commutator_test_modq(Mat2(1, 0, 0, 2), 5)


def no_table(q):
    raise AssertionError("group table built for q = %d" % q)


def test_modulus_ceiling_holds_whatever_the_cap(monkeypatch):
    monkeypatch.setattr(quotients, "group_table", no_table)
    assert quotients.MAX_MODULUS == 128
    with pytest.raises(BudgetExceeded):
        commutator_test_modq(Mat2(1, 1, 0, 1), 256)
    with pytest.raises(BudgetExceeded):
        trace_commutator_image(256)
    with pytest.raises(BudgetExceeded):
        quotients._check_modulus(129)
    quotients._check_modulus(128)  # the ceiling itself is allowed


def test_group_table_applies_the_ceiling(monkeypatch):
    # the int32 codes and uint8 entries of GroupTable rely on q <= 128
    monkeypatch.setattr(quotients, "GroupTable", no_table)
    with pytest.raises(BudgetExceeded, match="modulus 129 exceeds the ceiling 128"):
        quotients.group_table(129)


def test_unipotent_obstructions():
    # the small-modulus unipotent shapes are never commutators
    ok, _ = commutator_test_modq(Mat2(1, 1, 0, 1), 2)
    assert not ok
    ok, _ = commutator_test_modq(Mat2(1, 1, 0, 1), 4)
    assert not ok
    ok, _ = commutator_test_modq(Mat2(1, 2, 0, 1), 4)
    assert not ok
    ok, _ = commutator_test_modq(Mat2(1, 1, 0, 1), 3)
    assert not ok
    ok, _ = commutator_test_modq(Mat2(0, 1, 1, 0), 2)
    assert not ok


def test_commutator_test_against_brute_force():
    # full agreement with the definition on small moduli
    for q in (2, 3):
        pairs = [Mat2(*(ModInt(v, q) for v in t)) for t in sl2_tuples(q)]
        commutators = {commutator(x, y).entries() for x in pairs for y in pairs}
        for z in pairs:
            ok, wit = commutator_test_modq(z, q)
            assert ok == (z.entries() in commutators), (q, z)
            if ok:
                assert commutator(*wit) == z


def test_commutator_witnesses_replay():
    rng = random.Random(90)
    for q in (5, 8, 9, 16):
        for _ in range(5):
            x = mat_mod(random_sl2z(rng, length=5), q)
            y = mat_mod(random_sl2z(rng, length=5), q)
            z = commutator(x, y)
            ok, wit = commutator_test_modq(z, q)
            assert ok
            assert commutator(*wit) == z


def test_trace_image_small_moduli():
    # no obstruction away from 2 and 3
    assert trace_commutator_image(5) == set(range(5))
    assert trace_commutator_image(7) == set(range(7))
    # direct double-enumeration oracle at q = 3 and 4
    for q in (3, 4):
        pairs = [Mat2(*(ModInt(v, q) for v in t)) for t in sl2_tuples(q)]
        brute = {commutator(x, y).trace().v for x in pairs for y in pairs}
        assert trace_commutator_image(q) == brute


def test_trace_image_mod_9_and_16():
    img9 = trace_commutator_image(9)
    assert img9 == set(range(9)) - {1, 4, 5, 8}
    img16 = trace_commutator_image(16)
    assert img16 & {0, 1, 4, 5, 8, 9, 10, 12, 13} == set()
    assert img16 == {2, 3, 6, 7, 11, 14, 15}


def test_trace_image_mod_27_and_32_lift_9_and_16():
    # the excluded traces at 27 and 32 are exactly the lifts of those at 9 and 16
    for q, base in ((27, 9), (32, 16)):
        lifts = {t for t in range(q) if t % base in HFU2_IMAGES[base]}
        assert trace_commutator_image(q) == lifts
