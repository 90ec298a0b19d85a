import math
import random
from fractions import Fraction

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

from _util import commutator_witness_by_conjugator, conjugator, random_sl2z


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


def sl2_by_loop(q):
    """Oracle: all (a, b, c, d) with a*d - b*c = 1 (mod q), solving for d
    in a triple loop over (a, b, c)."""
    out = []
    for a in range(q):
        g = math.gcd(a, q)
        for b in range(q):
            for c in range(q):
                rhs = (1 + b * c) % q
                if g == 1:
                    out.append((a, b, c, rhs * pow(a, -1, q) % q))
                elif rhs % g == 0:
                    step = q // g
                    d0 = (rhs // g) * pow(a // g, -1, step) % step
                    out.extend((a, b, c, d0 + k * step) for k in range(g))
    return out


def test_sl2_enumeration():
    # the table's elements against the loop, and its run starts against
    # the run lengths of the loop's elements
    for q in list(range(2, 49)) + [64, 72, 81]:
        tuples = sl2_by_loop(q)
        assert len(tuples) == sl2_order(q)
        assert tuples == sorted(tuples)  # GroupTable.index relies on it
        assert len(set(tuples)) == len(tuples)
        for (a, b, c, d) in random.Random(q).sample(tuples, min(50, len(tuples))):
            assert (a * d - b * c) % q == 1
        table = quotients.group_table(q)
        elems = np.array(tuples, dtype=np.int64).T
        assert np.array_equal(table.entries, elems), q
        runs = np.bincount((elems[0] * q + elems[1]) * q + elems[2], minlength=q ** 3)
        assert np.array_equal(table.start, np.cumsum(runs) - runs), q
        if q <= 16:
            assert sl2_tuples(q) == tuples, q


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
        codes = {tuple(int(v) for v in table.entries[:, i]): i for i in range(table.entries.shape[1])}
        for e, i in codes.items():
            orbit = {codes[m] for m in zip(*(v.tolist() for v in _conj(group, e, q)))}
            assert set(np.flatnonzero(table.cls == table.cls[i]).tolist()) == orbit, (q, e)
            for j in orbit:
                g = conjugator(table, i, j)
                assert (g[0] * g[3] - g[1] * g[2]) % q == 1, (q, i, j)
                assert _conj(g, e, q) == tuple(table.entries[:, j]), (q, i, j)


def test_group_table_index_is_the_position():
    # the run lemma of GroupTable.index on every element
    for q in list(range(2, 49)) + [64, 72, 81]:
        table = quotients.group_table(q)
        got = table.index(table.elements())
        assert np.array_equal(got, np.arange(table.entries.shape[1])), q


def test_group_table_index_matches_a_sorted_search():
    # oracle: binary search over the sorted codes ((a q + b) q + c) q + d
    rng = np.random.default_rng(17)
    for q in (12, 16, 27, 36):
        table = quotients.group_table(q)
        elems = tuple(v.astype(np.int64) for v in table.elements())
        codes = ((elems[0] * q + elems[1]) * q + elems[2]) * q + elems[3]
        assert np.all(np.diff(codes) > 0), q
        w = rng.integers(0, len(codes), 500)
        z = rng.integers(0, len(codes), 500)
        prod = quotients._mul(tuple(v[w] for v in elems), tuple(v[z] for v in elems), q)
        key = ((prod[0] * q + prod[1]) * q + prod[2]) * q + prod[3]
        assert np.array_equal(table.index(prod), np.searchsorted(codes, key)), q


def classes_by_products(q):
    """Oracle: the (cls, reps, conj) arrays of a group table built with two
    products per conjugation g X g^-1 and all four of S, T, S^-1, T^-1 as
    moves, the construction the closed-form moves replaced."""
    table = quotients.group_table(q)
    elems = table.elements()
    n = table.entries.shape[1]
    gens = ((0, -1, 1, 0), (1, 1, 0, 1), (0, 1, -1, 0), (1, -1, 0, 1))
    moves = [table.index(quotients._mul(quotients._mul(g, elems, q), quotients._inv(g, q), q))
             for g in gens]
    cls = np.arange(n, dtype=np.int32)
    while True:
        new = cls[cls]
        for mv in moves:
            new = np.minimum(new, new[mv])
        if np.array_equal(new, cls):
            break
        cls = new
    reps = np.flatnonzero(cls == np.arange(n))
    conj = np.zeros((4, n), dtype=np.uint8)
    conj[:, reps] = np.array((1 % q, 0, 0, 1 % q), dtype=np.uint8)[:, None]
    seen = np.zeros(n, dtype=bool)
    seen[reps] = True
    frontier = reps
    while frontier.size:
        grown = []
        for g, mv in zip(gens, moves):
            nxt = mv[frontier]
            fresh = ~seen[nxt]
            nxt, src = nxt[fresh], frontier[fresh]
            seen[nxt] = True
            conj[:, nxt] = quotients._mul(g, conj[:, src].astype(np.int32), q)
            grown.append(nxt)
        frontier = np.concatenate(grown)
    return cls, reps, conj


def test_group_table_matches_the_product_construction():
    # closed-form conjugates by S, T and T^-1 give the arrays that two
    # products per conjugation by S, T, S^-1 and T^-1 gave
    for q in range(2, 33):
        table = quotients.GroupTable(q)
        cls, reps, conj = classes_by_products(q)
        assert table.cls.dtype == cls.dtype and np.array_equal(table.cls, cls), q
        assert np.array_equal(table.reps, reps), q
        assert table.conj.dtype == conj.dtype and np.array_equal(table.conj, conj), q


def commutators_by_pairs(q):
    """Oracle: the set {[X, Y] : X, Y in SL2(Z/q)}, every pair multiplied
    out in plain ints."""
    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)

    with_inverses = [(x, (x[3], -x[1] % q, -x[2] % q, x[0])) for x in sl2_by_loop(q)]
    out = set()
    for x, x_inv in with_inverses:
        for y, y_inv in with_inverses:
            out.add(mul(mul(x, y), mul(x_inv, y_inv)))
    return out


def test_commutator_classes_match_the_pairs():
    # the table's commutator classes (ore >= 0) on every element against
    # the set of all [X, Y]; ore is indexed by class id and set at class ids only
    for q in list(range(2, 10)) + [12]:
        table = quotients.group_table(q)
        brute = commutators_by_pairs(q)
        marked = table.ore >= 0
        got = {tuple(int(v) for v in table.entries[:, i])
               for i in np.flatnonzero(marked[table.cls])}
        assert got == brute, q
        assert not np.any(marked & (table.cls != np.arange(len(table.cls)))), q


def test_ore_keeps_the_least_element_of_each_commutator_class():
    # oracle in plain ints: for each element c, in index order, the class
    # of r c^-1 with r the representative of c's class; the first c to
    # reach a class is its least
    for q in range(2, 13):
        table = quotients.group_table(q)
        group = sl2_tuples(q)
        position = {e: i for i, e in enumerate(group)}
        cls = table.cls.tolist()
        want = [-1] * len(group)
        for i, (a, b, c, d) in enumerate(group):
            r0, r1, r2, r3 = group[cls[i]]
            p = ((r0 * d - r1 * c) % q, (-r0 * b + r1 * a) % q,
                 (r2 * d - r3 * c) % q, (-r2 * b + r3 * a) % q)
            k = cls[position[p]]
            if want[k] < 0:
                want[k] = i
        assert table.ore.dtype == np.int32 and table.ore.tolist() == want, q


def commutator_test_by_full_scan(z, q):
    """Oracle: Z = [X, Y] says Y W Y^-1 = W Z for W = X^-1, so Z is a
    commutator exactly when some W of the group is conjugate to W Z; every
    W is compared at once."""
    table = quotients.group_table(q)
    wz = table.index(quotients._mul(table.elements(), z, q))
    return bool(np.any(table.cls[wz] == table.cls))


def test_commutator_test_matches_the_full_scan():
    # the answer against the full scan on every Z mod 2..16 and on seeded
    # samples mod 27, 32, 64, 81 and 128; every witness is multiplied out
    rng = random.Random(28)
    cases = [(z, q) for q in range(2, 17) for z in sl2_tuples(q)]
    sampled = ((27, 300), (32, 300), (64, 60), (81, 40), (128, 20))
    for q, k in sampled:
        entries = quotients.group_table(q).entries
        picks = rng.sample(range(entries.shape[1]), k)
        cases += [(tuple(entries[:, i].tolist()), q) for i in picks]
    seen = set()
    for z, q in cases:
        ok, wit = commutator_test_modq(z, q)
        assert ok == commutator_test_by_full_scan(z, q), (z, q)
        if ok:
            x, y = (tuple(e.v for e in m.entries()) for m in wit)
            xy = quotients._mul(x, y, q)
            assert quotients._mul(xy, quotients._inv(quotients._mul(y, x, q), q), q) == z, (z, q)
        seen.add((q, ok))
    # every sample holds a "yes" and a "no"
    assert {(q, ok) for q, _ in sampled for ok in (False, True)} <= seen


def test_witnesses_match_the_per_query_construction():
    # the stored pair of Z's class carried to Z against the witness built
    # per query from the Ore element and conjugator, on every Z mod 2..16
    # and on seeded samples mod 27, 32, 64, 81 and 128; each multiplies out
    rng = random.Random(44)
    cases = [(z, q) for q in range(2, 17) for z in sl2_tuples(q)]
    for q in (27, 32, 64, 81, 128):
        entries = quotients.group_table(q).entries
        cases += [(tuple(entries[:, i].tolist()), q)
                  for i in rng.sample(range(entries.shape[1]), 2000)]
    for z, q in cases:
        ok, wit = commutator_test_modq(z, q)
        if z == (1, 0, 0, 1):
            assert ok, q
            continue
        want = commutator_witness_by_conjugator(z, q)
        assert ok == (want is not None), (z, q)
        if ok:
            x, y = (tuple(e.v for e in m.entries()) for m in wit)
            assert (x, y) == want, (z, q)
            assert all(e.q == q for m in wit for e in m.entries()), (z, q)
            xy = quotients._mul(x, y, q)
            assert quotients._mul(xy, quotients._inv(quotients._mul(y, x, q), q), q) == z, (z, q)


def test_commutator_test_identity():
    ok, wit = commutator_test_modq(Mat2(1, 0, 0, 1), 9)
    assert ok and wit[0] == wit[0].identity_like()


def test_commutator_test_rejects_bad_det():
    with pytest.raises(ValueError):
        commutator_test_modq(Mat2(1, 0, 0, 2), 5)


def no_table(q):
    raise AssertionError("group table built for q = %d" % q)


def test_modulus_ceiling_holds_whatever_the_cap(monkeypatch):
    monkeypatch.setattr(quotients, "_elements", no_table)
    assert quotients.MAX_MODULUS == 128
    with pytest.raises(BudgetExceeded):
        commutator_test_modq(Mat2(1, 1, 0, 1), 256)
    with pytest.raises(BudgetExceeded):
        trace_commutator_image(256)
    with pytest.raises(BudgetExceeded):
        quotients._check_modulus(129)
    quotients._check_modulus(128)  # the ceiling itself is allowed


def test_group_table_applies_the_ceiling(monkeypatch):
    # the int32 indices and uint8 entries of GroupTable rely on q <= 128
    monkeypatch.setattr(quotients, "_elements", no_table)
    with pytest.raises(BudgetExceeded, match="modulus 129 exceeds the ceiling 128"):
        quotients.group_table(129)


def test_group_table_class_checks_the_modulus(monkeypatch):
    # a direct GroupTable, and sl2_tuples through the table
    monkeypatch.setattr(quotients, "_elements", no_table)
    for build in (quotients.GroupTable, sl2_tuples):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            build(1)
        with pytest.raises(BudgetExceeded, match="modulus 129 exceeds the ceiling 128"):
            build(129)


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


def test_commutator_test_reduces_fractions():
    # 1/3 = 3 (mod 8), and diag(3, 3) is not a commutator mod 8
    assert commutator_test_modq(Mat2(3, 0, 0, 3), 8) == (False, None)
    assert commutator_test_modq(Mat2(Fraction(1, 3), 0, 0, 3), 8) == (False, None)
    # 1/3 = 2 (mod 5): the same answer and witness as the integer matrix
    assert (commutator_test_modq(Mat2(Fraction(1, 3), 1, 0, 3), 5)
            == commutator_test_modq(Mat2(2, 1, 0, 3), 5))


def test_commutator_test_rejects_residues_without_a_value_mod_q():
    with pytest.raises(ValueError, match="has no value mod 8"):
        commutator_test_modq(Mat2(Fraction(1, 2), 0, 0, 2), 8)
    with pytest.raises(ValueError, match="has no value mod 8"):
        commutator_test_modq(Mat2(*(ModInt(v, 4) for v in (1, 1, 0, 1))), 8)
    with pytest.raises(TypeError):
        commutator_test_modq(Mat2(0.5, 0, 0, 2), 3)
    # a residue mod 16 has a value mod 8
    z = Mat2(*(ModInt(v, 16) for v in (9, 1, 0, 9)))
    assert commutator_test_modq(z, 8) == commutator_test_modq(Mat2(1, 1, 0, 1), 8)


def test_commutator_witnesses_multiply_out_to_the_reduced_z():
    rng = random.Random(91)
    for q in (5, 7, 8, 9, 16):
        units = [u for u in range(1, 4 * q) if u % 2 and u % 3 and u % 5 and u % 7]
        for _ in range(40):
            m = random_sl2z(rng, length=6)
            u = Fraction(rng.choice(units), rng.choice(units))
            z = Mat2(m.a * u, m.b * u, m.c / u, m.d / u)  # diag(u, 1/u) m, det 1
            reduced = Mat2(*(ModInt(v.numerator * pow(v.denominator, -1, q), q)
                             for v in z.entries()))
            ok, wit = commutator_test_modq(z, q)
            if ok:
                assert commutator(*wit) == reduced, (q, z)
            assert (ok, wit) == commutator_test_modq(reduced, q)


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
    # direct double-enumeration oracle
    for q in (2, 3, 4, 5):
        pairs = [Mat2(*(ModInt(v, q) for v in t)) for t in sl2_tuples(q)]
        brute = {commutator(x, y).trace().v for x in pairs for y in pairs}
        assert trace_commutator_image(q) == brute


def image_by_class_reps(q):
    """Oracle: X over all class representatives, Y over all of SL2(Z/q),
    the traces of each row sorted by np.unique."""
    table = quotients.group_table(q)
    ya, yb, yc, yd = table.elements()
    x2 = (ya + yd) % q
    image = set()
    for r in table.reps:
        a, b, c, d = (int(v) for v in table.entries[:, r])
        x1 = (a + d) % q
        x3 = (a * ya + b * yc + c * yb + d * yd) % q
        image.update(np.unique((x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3 - 2) % q).tolist())
    return image


def test_trace_image_matches_the_class_rep_scan():
    for q in list(range(2, 33)) + [36, 48]:
        assert trace_commutator_image(q) == image_by_class_reps(q), q


def test_trace_image_is_a_fresh_set():
    first = trace_commutator_image(16)
    first.add(0)
    first.discard(2)
    assert trace_commutator_image(16) == set(HFU2_IMAGES[16])


def test_stored_traces_match_the_class_scan():
    # the traces kept by the table against the scan they replace: the
    # columns at which ore >= 0, the representatives of the commutator classes
    for q in list(range(2, 33)) + [64, 81]:
        table = quotients.group_table(q)
        a, _, _, d = table.entries[:, np.flatnonzero(table.ore >= 0)].astype(np.int32)
        assert trace_commutator_image(q) == table.traces == set(((a + d) % q).tolist()), q


def test_sign_lemma():
    # [-X, Y] = [X, -Y] = [X, Y] on random pairs, and -C is one class for
    # every class C: the class of -X depends only on the class of X
    rng = random.Random(92)
    for q in (16, 27):
        for _ in range(30):
            x, y = (mat_mod(random_sl2z(rng, length=6), q) for _ in range(2))
            assert commutator(-x, y) == commutator(x, -y) == commutator(x, y)
        table = quotients.group_table(q)
        neg = table.index(tuple(-v % q for v in table.elements()))
        assert np.array_equal(table.cls[neg], table.cls[neg[table.cls]]), q


def test_trace_image_mod_9_and_16():
    img9 = trace_commutator_image(9)
    assert img9 == set(range(9)) - {1, 4, 5, 8}
    img16 = trace_commutator_image(16)
    assert img16 & {0, 1, 4, 5, 8, 9, 10, 12, 13} == set()
    assert img16 == {2, 3, 6, 7, 11, 14, 15}


def test_trace_image_mod_27_and_32_lift_9_and_16():
    # the excluded traces at 27, 32, 64 and 81 are exactly the lifts of those at 9 and 16
    for q, base in ((27, 9), (32, 16), (64, 16), (81, 9)):
        lifts = {t for t in range(q) if t % base in HFU2_IMAGES[base]}
        assert trace_commutator_image(q) == lifts
