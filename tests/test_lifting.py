import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

import mksurf.lifting
from mksurf.mat2 import Mat2, commutator, in_trace_set, mat_mod
from mksurf.markoff import GENERATORS, MarkoffMove, MarkoffPoint, apply_move, level
from mksurf.markoff import search_integral
from mksurf.markoff import _apply_coords
from mksurf.lifting import (
    LiftError,
    LiftResult,
    lift2,
    lift_point,
    pair_move,
    trace_triple,
    universal_pair,
)
from mksurf.lifting import _PAIR_LIFTS
from mksurf.rings import BudgetExceeded, ModInt, ResidueRing, SIntegerRing, parse_ring

from _util import random_sl2z

# the twelve moves with a pair lift: the identity permutation and the generators
ALL_MOVES = (MarkoffMove.perm((1, 2, 3)),) + GENERATORS


def to_q(m):
    return m.map(Fraction)


def test_lift2_worked_example():
    z = Mat2(3, -1, 1, 0)
    y = Mat2(1, 0, 1, 1)
    x = lift2(z, y, 2, 3)
    assert x == Mat2(1, 1, 0, 1)
    assert commutator(x, y) == z


def test_lift2_round_trip_and_uniqueness():
    # over Q any nonzero Delta is invertible, so random pairs round-trip
    rng = random.Random(60)
    done = 0
    while done < 10**3:
        x0 = random_sl2z(rng, length=6)
        y0 = random_sl2z(rng, length=6)
        z = commutator(x0, y0)
        x2 = y0.trace()
        if z.trace() + 2 - x2 * x2 == 0:
            continue
        x = lift2(to_q(z), to_q(y0), Fraction(x0.trace()), Fraction((x0 * y0).trace()))
        assert x == to_q(x0)
        done += 1


def test_lift2_uniqueness_by_perturbation():
    z = Mat2(3, -1, 1, 0)
    y = Mat2(1, 0, 1, 1)
    x = lift2(z, y, 2, 3)
    hits = []
    for da in range(-2, 3):
        for db in range(-2, 3):
            for dc in range(-2, 3):
                for dd in range(-2, 3):
                    cand = Mat2(x.a + da, x.b + db, x.c + dc, x.d + dd)
                    if (cand.det() == 1 and cand.trace() == 2
                            and (cand * y).trace() == 3 and commutator(cand, y) == z):
                        hits.append(cand)
    assert hits == [x]


def test_lift2_divisibility_reporting():
    # integer case with non-unit Delta and an entry that fails to divide
    rng = random.Random(61)
    seen_fail = seen_ok = 0
    while seen_fail < 5 or seen_ok < 5:
        x0 = random_sl2z(rng, length=5)
        y0 = random_sl2z(rng, length=5)
        z = commutator(x0, y0)
        x2 = y0.trace()
        delta = z.trace() + 2 - x2 * x2
        if delta in (-1, 0, 1):
            continue
        # the true lift divides exactly; a tampered trace pair need not
        try:
            x = lift2(z, y0, x0.trace(), (x0 * y0).trace())
            assert x == x0
            seen_ok += 1
        except LiftError as exc:
            raise AssertionError("true data must lift: %s" % exc)
        try:
            lift2(z, y0, x0.trace() + delta, (x0 * y0).trace())
        except LiftError:
            seen_fail += 1
    # Tr Z = 7, Tr Y = Tr ZY = 3 and (0, 3, 0) lies on level 9, but
    # Delta = 7 + 2 - 3^2 = 0
    with pytest.raises(LiftError, match=r"^Delta = 0: no unique lift exists$"):
        lift2(Mat2(-1, 3, -3, 8), Mat2(3, -1, 1, 0), 0, 0)


def test_lift2_modulus_shrink():
    # over Z/q with gcd(Delta, q) > 1, lift2 refuses rather than return X
    # over the smaller ring Z/(q / gcd(Delta, q))
    x0 = Mat2(1, 1, 0, 1)
    y0 = Mat2(1, 0, 3, 1)
    z = commutator(x0, y0)
    q = 27
    zq, yq = mat_mod(z, q), mat_mod(y0, q)
    delta = (z.trace() + 2 - y0.trace() ** 2) % q
    assert delta == 9  # exactly divisible by 9
    with pytest.raises(LiftError, match=r"^Delta = 9\(mod 27\) is not prime to q = 27$"):
        lift2(zq, yq, ModInt(x0.trace(), q), ModInt((x0 * y0).trace(), q))


def test_lift2_unit_delta_mod_q():
    # gcd(Delta, q) = 1: the lift keeps the modulus and is num * Delta^-1
    rng = random.Random(65)
    for q in (12, 16, 25):
        done = 0
        while done < 20:
            x0 = random_sl2z(rng, length=5)
            y0 = random_sl2z(rng, length=5)
            z = commutator(x0, y0)
            x1, x2, x3 = trace_triple(x0, y0)
            delta = z.trace() + 2 - x2 * x2
            if math.gcd(delta, q) != 1 or delta % q in (1, q - 1):
                continue
            yinv = y0.adjugate()
            num = (z - yinv * yinv) * (Mat2(x1, 0, 0, x1) - y0.scale(x3))
            want = mat_mod(num, q).scale(ModInt(pow(delta, -1, q), q))
            x = lift2(mat_mod(z, q), mat_mod(y0, q), ModInt(x1, q), ModInt(x3, q))
            assert x == want == mat_mod(x0, q) and x.a.q == q
            done += 1


def test_pair_moves_match_tables():
    rng = random.Random(62)
    for _ in range(10**3):
        x = random_sl2z(rng, length=5)
        y = random_sl2z(rng, length=5)
        z = commutator(x, y)
        trip = trace_triple(x, y)
        for mv in ALL_MOVES:
            a, b, flip = pair_move(mv, x, y)
            assert trace_triple(a, b) == _apply_coords(mv, trip)
            assert commutator(a, b) == (z.inverse() if flip else z)


def test_pair_lifts_one_row_per_move():
    # every move the MarkoffMove constructors can make has exactly one lift
    moves = ([MarkoffMove.vieta(j) for j in (1, 2, 3)]
             + [MarkoffMove.perm(p) for p in itertools.permutations((1, 2, 3))]
             + [MarkoffMove.sign_change(i, j) for i, j in itertools.permutations((1, 2, 3), 2)])
    assert len(set(moves)) == 12
    assert set(_PAIR_LIFTS) == set(moves) and len(_PAIR_LIFTS) == 12


def test_pair_move_orientation_flags():
    x = Mat2(1, 1, 0, 1)
    y = Mat2(1, 0, 1, 1)
    _, _, flip = pair_move(MarkoffMove.perm((2, 1, 3)), x, y)
    assert flip  # swapping the pair inverts the commutator
    _, _, flip = pair_move(MarkoffMove.perm((2, 3, 1)), x, y)
    assert not flip
    _, _, flip = pair_move(MarkoffMove.vieta(3), x, y)
    assert flip


def test_pi_equivariance():
    # projecting traces commutes with the group action on pairs
    rng = random.Random(63)
    for _ in range(10**3):
        x = random_sl2z(rng, length=5)
        y = random_sl2z(rng, length=5)
        mv = rng.choice(ALL_MOVES)
        a, b, _ = pair_move(mv, x, y)
        k = commutator(x, y).trace() + 2
        lhs = trace_triple(a, b)
        rhs = apply_move(mv, MarkoffPoint(*trace_triple(x, y), k=k)).coords()
        assert lhs == rhs


def test_lift_point_driver():
    z = Mat2(3, -1, 1, 0)
    y = Mat2(1, 0, 1, 1)
    res = lift_point(z, MarkoffPoint.make(2, 2, 3), y)
    assert res.orientation == "Z"
    assert commutator(res.x, res.y) == z
    assert trace_triple(res.x, res.y) == (2, 2, 3)
    # force the matched coordinate into slots 1 and 3: (2,4,3) and (3,4,2)
    # both lie on the level-5 surface with a single coordinate equal to 2
    res1 = lift_point(z, MarkoffPoint.make(2, 4, 3), y)
    assert trace_triple(res1.x, res1.y) == (2, 4, 3)
    assert commutator(res1.x, res1.y) == z and res1.row == (2, 3, 1)
    res3 = lift_point(z, MarkoffPoint.make(3, 4, 2), y)
    assert trace_triple(res3.x, res3.y) == (3, 4, 2)
    assert commutator(res3.x, res3.y) == z and res3.row == (3, 1, 2)
    with pytest.raises(LiftError):
        lift_point(z, MarkoffPoint.make(2, 2, 3), Mat2(1, 1, 0, 1))  # Tr ZY != Tr Y


def test_lift_point_errors_spell_rationals():
    # over Q, Tr Y = 2 + 1/2 and the point's coordinates print as n/d
    x, y = universal_pair(7, 2, parse_ring("q"))
    z = commutator(x, y)
    with pytest.raises(LiftError, match=r"^point level 41/4 != Tr Z \+ 2$"):
        lift_point(z, MarkoffPoint.make(Fraction(1, 2), Fraction(2), Fraction(3)), y)
    with pytest.raises(LiftError, match=r"^no coordinate of \(3, 0, 0\) matches Tr Y = 5/2$"):
        lift_point(z, MarkoffPoint.make(Fraction(3), Fraction(0), Fraction(0)), y)


def test_lift_point_random_round_trips():
    rng = random.Random(64)
    done = 0
    while done < 200:
        x0 = random_sl2z(rng, length=5)
        y0 = random_sl2z(rng, length=5)
        z = commutator(x0, y0)
        t = z.trace()
        if t in (2, -2):
            continue
        x2 = y0.trace()
        if t + 2 - x2 * x2 == 0:
            continue
        trip = trace_triple(x0, y0)
        zq, yq = to_q(z), to_q(y0)
        perm = rng.choice([(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)])
        coords = tuple(Fraction(trip[p - 1]) for p in perm)
        point = MarkoffPoint(*coords, k=Fraction(t + 2))
        res = lift_point(zq, point, yq)
        assert commutator(res.x, res.y) == zq
        assert trace_triple(res.x, res.y) == coords
        done += 1


def test_lift_point_divides_out_a_non_unit_delta():
    # Delta = 3 + 2 - 16 = -11 divides every entry of lift2's numerator
    z, y = Mat2(0, -1, 1, 3), Mat2(-3, -2, -1, -1)
    res = lift_point(z, MarkoffPoint.make(-5, -4, 2), y)
    assert res.x == lift2(z, y, -5, 2) == Mat2(-1, 3, 1, -4)
    assert commutator(res.x, res.y) == z and res.row == (1, 2, 3)


def test_lift_point_random_round_trips_over_z():
    # the cyclic permutations keep the orientation, so x0 itself is lift2's
    # X and is integral whatever Delta is (a transposition's point lifts to
    # another X, which need not be); where two coordinates equal Tr Y,
    # lift_point tries both slots, so one of them lifts
    rng = random.Random(64)
    done = 0
    while done < 200:
        x0 = random_sl2z(rng, length=5)
        y0 = random_sl2z(rng, length=5)
        z = commutator(x0, y0)
        t = z.trace()
        trip = trace_triple(x0, y0)
        if t in (2, -2) or t + 2 - trip[1] ** 2 == 0:
            continue
        perm = rng.choice([(1, 2, 3), (2, 3, 1), (3, 1, 2)])
        coords = tuple(trip[p - 1] for p in perm)
        res = lift_point(z, MarkoffPoint.make(*coords), y0)
        assert commutator(res.x, res.y) == z
        assert trace_triple(res.x, res.y) == coords
        done += 1


def test_lift_point_tries_every_matching_slot():
    # Tr Y = 10 is coordinates 1 and 3; Delta = Tr Z + 2 - 10^2 = -636
    # divides out in slot 3 only
    z, y = Mat2(-53, 126, 204, -485), Mat2(5, 12, 2, 5)
    with pytest.raises(LiftError, match="not divisible by Delta = -636"):
        lift2(z, y, 10, 8)  # slot 1
    res = lift_point(z, MarkoffPoint.make(10, 8, 10), y)
    assert res.row == (3, 1, 2)
    assert (res.x, res.y) == (Mat2(-1, -3, 4, 11), Mat2(7, 3, 2, 1))
    assert trace_triple(res.x, res.y) == (10, 8, 10) and commutator(res.x, res.y) == z
    # both slots fail: the last one's error is reported
    z, y = Mat2(1, 4, 1, 5), Mat2(-1, 0, 1, -1)
    with pytest.raises(LiftError, match=r"^entries \[10\] not divisible by Delta = 4$"):
        lift_point(z, MarkoffPoint.make(-2, 0, -2), y)


def test_lift_point_lifts_wherever_lift2_does():
    box = range(-3, 4)
    non_unit = 0
    for z in (Mat2(0, -1, 1, 3), Mat2(3, -1, 1, 0), Mat2(2, 3, 1, 2)):
        t = z.trace()
        for a, b, c, d in itertools.product(box, repeat=4):
            y = Mat2(a, b, c, d)
            if not in_trace_set(z, y):
                continue
            x2 = y.trace()
            for x1, x3 in itertools.product(range(-8, 9), repeat=2):
                if level(x1, x2, x3) != t + 2:
                    continue
                try:
                    x = lift2(z, y, x1, x3)
                except LiftError:
                    continue
                res = lift_point(z, MarkoffPoint.make(x1, x2, x3), y)
                assert (res.x, res.row) == (x, (1, 2, 3))
                non_unit += t + 2 - x2 * x2 not in (1, -1)
    assert non_unit > 100


def test_lift_point_refuses_delta_not_prime_to_q():
    # the data of test_lift2_modulus_shrink: Delta = 9 (mod 27)
    x0, y0, q = Mat2(1, 1, 0, 1), Mat2(1, 0, 3, 1), 27
    z = commutator(x0, y0)
    point = MarkoffPoint.make(*(ModInt(v, q) for v in trace_triple(x0, y0)))
    with pytest.raises(LiftError, match=r"^Delta = 9\(mod 27\) is not prime to q = 27$"):
        lift_point(mat_mod(z, q), point, mat_mod(y0, q))


def test_find_trace_set_matrix():
    from mksurf.lifting import find_trace_set_matrix
    z = Mat2(3, -1, 1, 0)
    y = find_trace_set_matrix(z, 2)
    assert y is not None
    assert y.det() == 1 and y.trace() == 2 and (z * y).trace() == 2
    # genuinely empty: Y in S([[1,1],[0,1]]) needs c = 0 and a*d = 1 with
    # a + d = 0, which -a^2 = 1 forbids
    assert find_trace_set_matrix(Mat2(1, 1, 0, 1), 0) is None


def test_lift_point_searches_every_coordinate():
    # the box's Y at 0 is refused (Delta = 5); its Y at 1 lifts
    z = Mat2(3, -1, 1, 0)
    with pytest.raises(LiftError, match=r"^entries \[6, 1, -1, 4\] not divisible by Delta = 5$"):
        lift_point(z, MarkoffPoint.make(0, 1, 2), mksurf.lifting.find_trace_set_matrix(z, 0))
    res = lift_point(z, MarkoffPoint.make(0, 1, 2))
    assert (res.x, res.y, res.row) == (Mat2(-1, 2, -1, 1), Mat2(1, -1, 1, 0), (1, 2, 3))
    assert commutator(res.x, res.y) == z


def test_lift_point_checks_z_and_level_before_the_box(monkeypatch):
    def no_scan(z, target_trace):
        raise AssertionError("the trace-set box was scanned")
    monkeypatch.setattr(mksurf.lifting, "find_trace_set_matrix", no_scan)
    with pytest.raises(LiftError, match=r"^point level 2 != Tr Z \+ 2$"):
        lift_point(Mat2(7, -1, 1, 0), MarkoffPoint.make(1, 1, 1))
    for z in (Mat2(1, 1, 0, 1), Mat2(-1, 0, 0, -1)):
        with pytest.raises(LiftError, match=r"^need Tr Z != \+-2$"):
            lift_point(z, MarkoffPoint.make(2, 2, 0))


def test_lift_point_checks_det_z_before_the_box(monkeypatch):
    # Z = 4 I has trace 8 and determinant 16: (-1, -3, 3) lies on level
    # 10 = Tr Z + 2, and the box used to be scanned (and missed) for it
    def no_scan(z, target_trace):
        raise AssertionError("the trace-set box was scanned")
    monkeypatch.setattr(mksurf.lifting, "find_trace_set_matrix", no_scan)
    for y in (None, Mat2(1, 0, 0, 1), Mat2(2, 1, 1, 1)):
        with pytest.raises(LiftError, match=r"^need det Z = 1$"):
            lift_point(Mat2(4, 0, 0, 4), MarkoffPoint.make(-1, -3, 3), y)


def box_lift_at_first_hit(z, point):
    """The Y search `lift point` ran in the CLI before `lift_point` owned
    it: the first coordinate whose box holds a Y decides, and only that Y
    is tried; kept as the oracle."""
    for x in point.coords():
        y = mksurf.lifting.find_trace_set_matrix(z, x)
        if y is not None:
            return lift_point(z, point, y)
    raise BudgetExceeded("no trace-set matrix Y found in the entry box |a|, |b|, |c| "
                         "<= 12; this does not certify that none exists")


def test_lift_point_search_against_first_hit(monkeypatch):
    # both sides read one memo of the box, so each (Z, coordinate) is scanned once
    box = functools.lru_cache(maxsize=None)(mksurf.lifting.find_trace_set_matrix)
    monkeypatch.setattr(mksurf.lifting, "find_trace_set_matrix", box)
    zs = ([Mat2(t, -1, 1, 0) for t in range(3, 13)] + [Mat2(0, -1, 1, t) for t in range(3, 13)]
          + [Mat2(2, 1, 1, 1), Mat2(5, 2, 2, 1), Mat2(7, 3, 2, 1), Mat2(-3, -1, 1, 0)])
    seen = collections.Counter()
    for z in zs:
        for point in search_integral(z.trace() + 2, 6):
            outcome = []
            for lift in (box_lift_at_first_hit, lift_point):
                try:
                    outcome.append(lift(z, point))
                except (LiftError, BudgetExceeded) as exc:
                    outcome.append(exc)
            old, new = outcome
            if isinstance(old, LiftError) and isinstance(new, LiftResult):
                assert commutator(new.x, new.y) == z and trace_triple(new.x, new.y) == point.coords()
                seen["refusal -> lift"] += 1
                continue
            assert type(new) is type(old), (z, point)
            if isinstance(old, LiftResult):
                assert new == old
                seen["lift"] += 1
            else:
                assert str(new) == str(old)
                seen["box miss" if isinstance(old, BudgetExceeded) else "refusal"] += 1
    assert seen == {"lift": 86, "box miss": 60, "refusal": 89, "refusal -> lift": 13}


def test_universal_pair():
    r6 = SIntegerRing([2, 3])
    x, y = universal_pair(7, 2, r6)
    assert trace_triple(x, y) == (Fraction(-2, 9), Fraction(5, 2), Fraction(25, 18))
    assert commutator(x, y).trace() == 7
    x, y = universal_pair(2, 2, r6)
    assert commutator(x, y).trace() == 2
    for q in (5, 7, 11, 25):
        ring = ResidueRing(q)
        eps = 2
        for t in range(q):
            x, y = universal_pair(t, eps, ring)
            assert commutator(x, y).trace() == ModInt(t, q)
    with pytest.raises(ValueError):
        universal_pair(5, 2, SIntegerRing(()))  # 2 is not a unit in Z
