import bisect
import copy
import hashlib
import itertools
import math
import pickle
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

import mksurf.markoff
from mksurf.markoff import (
    GENERATORS,
    MarkoffMove,
    MarkoffPoint,
    admissible_k,
    admissible_t,
    apply_move,
    apply_path,
    class_data,
    default_class_bound,
    level,
    orbit_within,
    reduce_point,
    search_integral,
    search_localized,
)
from mksurf.markoff import (
    PYTHON_SCAN_BOUND,
    SCAN_CELLS,
    _apply_coords,
    _descent_step,
    _family_canonical,
    _floor_families,
    _integral_bases,
    _integral_coords,
    _row_limits,
    _row_ranges,
)
from mksurf.quotients import trace_commutator_image
from mksurf.rings import BudgetExceeded, jacobi

from _util import (
    class_data_by_every_point,
    integral_coords_by_rows,
    random_point,
    same_orbit,
    square_cells_fresh,
    square_roots,
)

# the generators in the order orbit_within tries them, stated here apart
# from markoff.GENERATORS; walk_by_move_tags walks in this order
WALK_ORDER = ([MarkoffMove.vieta(j) for j in (1, 2, 3)]
              + [MarkoffMove.perm(p) for p in
                 [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]]
              + [MarkoffMove.sign_change(1, 2), MarkoffMove.sign_change(1, 3),
                 MarkoffMove.sign_change(2, 3)])


def test_generators_in_walk_order():
    assert list(GENERATORS) == WALK_ORDER


def test_apply_move_examples():
    p = MarkoffPoint.make(1, 1, 1)
    assert apply_move(MarkoffMove.vieta(3), p).coords() == (1, 1, 0)
    q = MarkoffPoint.make(-3, 3, 6)
    assert q.k == 108
    assert apply_move(MarkoffMove.vieta(1), q).coords() == (21, 3, 6)
    r = apply_move(MarkoffMove.sign_change(1, 2), MarkoffPoint.make(2, 3, 4))
    assert r.coords() == (-2, -3, 4)


def test_level_invariance():
    rng = random.Random(12)
    for _ in range(10**4):
        p = random_point(rng, 20)
        m = rng.choice(GENERATORS)
        assert apply_move(m, p).k == p.k


def test_off_surface_message_spells_rationals():
    with pytest.raises(ValueError, match=r"^\(1/2, 2, 3\) is not on the level-7/4 surface$"):
        MarkoffPoint(Fraction(1, 2), Fraction(2), Fraction(3), Fraction(7, 4))


def test_points_and_moves_are_immutable_values():
    p = MarkoffPoint(x1=-3, x2=8, x3=8, k=329)
    assert p == MarkoffPoint.make(-3, 8, 8) and p != MarkoffPoint.make(-3, 8, -8)
    # a point spelled with Fractions equals, and hashes as, its int twin
    twin = MarkoffPoint(Fraction(-3), Fraction(8), Fraction(8), Fraction(329))
    assert twin == p and hash(twin) == hash(p) and len({p, twin}) == 1
    assert repr(p) == "(-3, 8, 8)@329"
    mv = MarkoffMove(tag="perm", data=(2, 3, 1))
    assert mv == MarkoffMove.perm((2, 3, 1)) != MarkoffMove.perm((3, 1, 2))
    assert hash(mv) == hash(MarkoffMove.perm([2, 3, 1])) and repr(mv) == "perm(2, 3, 1)"
    with pytest.raises(ValueError, match="is not on the level-330 surface"):
        MarkoffPoint(-3, 8, 8, 330)
    for value, field in ((p, "x1"), (mv, "tag")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value


def test_move_inverses():
    rng = random.Random(13)
    for _ in range(500):
        p = random_point(rng, 20)
        m = rng.choice(GENERATORS)
        assert apply_move(m.inverse(), apply_move(m, p)).coords() == p.coords()


def test_reduce_examples():
    nf, _ = reduce_point(MarkoffPoint.make(21, 3, 6))
    assert nf.coords() == (-3, 3, 6)
    nf, path = reduce_point(MarkoffPoint.make(1, 1, 1))
    assert nf.coords() == (1, 1, 1) and path == []
    nf, _ = reduce_point(MarkoffPoint.make(-3, 8, 8))
    assert nf.coords() == (-3, 8, 8)
    # the path is read off the floor walk, so it pins the walk's move order
    nf, path = reduce_point(MarkoffPoint.make(-45, -20, 4))
    assert nf.coords() == (4, 20, 35)
    assert path == [MarkoffMove.sign_change(1, 3), MarkoffMove.perm((3, 2, 1)),
                    MarkoffMove.sign_change(2, 3), MarkoffMove.vieta(1)]


def test_reduce_idempotent_and_replay():
    rng = random.Random(14)
    for _ in range(300):
        p = random_point(rng, 12)
        if p.k in (0, 4):
            continue
        # drive the point up the orbit, then back down
        q = p
        for _ in range(rng.randint(0, 6)):
            q = apply_move(rng.choice(GENERATORS), q)
        nf, path = reduce_point(q)
        assert apply_path(path, nf).coords() == q.coords()
        nf2, path2 = reduce_point(nf)
        assert nf2.coords() == nf.coords() and path2 == []
        nf3, _ = reduce_point(p)
        assert nf3.coords() == nf.coords()


def test_reduce_rejects_nongeneric_levels():
    with pytest.raises(ValueError):
        reduce_point(MarkoffPoint.make(0, 0, 2))  # k = 4
    with pytest.raises(ValueError):
        reduce_point(MarkoffPoint.make(0, 0, 0))  # k = 0
    with pytest.raises(ValueError, match="^descent needs integer coordinates$"):
        reduce_point(MarkoffPoint.make(Fraction(1, 2), 1, 1))
    for k in (0, 4):
        with pytest.raises(ValueError, match="is outside the generic range$"):
            class_data(k)


def test_reduce_point_step_budget(monkeypatch):
    # (2, 1000, 1001) on level 5 descends one Vieta step at a time
    monkeypatch.setattr(mksurf.markoff, "MAX_DESCENT_STEPS", 10)
    with pytest.raises(BudgetExceeded, match="descent exceeded 10 steps"):
        reduce_point(MarkoffPoint.make(2, 1000, 1001))


def test_floor_walk_stays_at_the_floor():
    # reduce_point's docstring proves this; it is checked on the whole cube
    # max|c| <= 12, all levels included, since the proof does not use k
    floors = 0
    for c in itertools.product(range(-12, 13), repeat=3):
        x, y, z = c
        m = max(map(abs, c))
        vieta = ((y * z - x, y, z), (x, x * z - y, z), (x, y, x * y - z))
        if any(max(map(abs, v)) < m for v in vieta):
            continue
        floors += 1
        assert all(max(map(abs, d)) == m for d in orbit_within(c, m)), c
    assert floors > 1000


def test_class_data_examples():
    assert len(class_data(70)) == 1
    assert same_orbit(class_data(70)[0], MarkoffPoint.make(-3, 3, 4))
    c108 = class_data(108)
    assert len(c108) == 1
    assert same_orbit(c108[0], MarkoffPoint.make(-3, 3, 6))
    c329 = class_data(329)
    assert len(c329) == 2
    assert any(same_orbit(c, MarkoffPoint.make(-3, 8, 8)) for c in c329)
    assert any(same_orbit(c, MarkoffPoint.make(-4, 4, 11)) for c in c329)
    assert len(class_data(460)) == 2
    assert len(class_data(3780)) == 1


def test_class_data_meets_every_orbit_of_the_doubled_box():
    # every point within twice the proven box reduces to a returned class
    for k in range(-100, 201):
        if k in (0, 4):
            continue
        reps = {c.coords() for c in class_data(k)}
        for p in search_integral(k, 2 * default_class_bound(k)):
            assert reduce_point(p)[0].coords() in reps, (k, p)


def reduce_every_box_point(k):
    """The definition of class_data, kept as the oracle for its floor walk:
    the sorted distinct reduce_point normal forms of every point of the
    box isqrt(9|k|) + 4, which class_data searched before its proven bound
    was tightened, so the tight box is checked against the larger one."""
    box = search_integral(k, math.isqrt(9 * abs(k)) + 4)
    return sorted({reduce_point(p)[0].coords() for p in box})


@pytest.mark.parametrize("ks", [
    [k for k in range(-300, 601) if k not in (0, 4)],
    [10**4 + 1, 250001, -999997, -2999995],
])
def test_class_data_matches_reducing_every_box_point(ks):
    for k in ks:
        assert [c.coords() for c in class_data(k)] == reduce_every_box_point(k), k


def normal_form_of_closure(closure):
    """The normal form of a floor closure as reduce_point and class_data
    took it before they walked families: the largest key c with
    |c1| <= c2 <= c3, which are the closure's family-canonical tuples."""
    return max(c for c in closure if abs(c[0]) <= c[1] <= c[2])


def class_data_by_closures(k):
    """class_data as it was before it walked families, kept as the oracle
    for the family walk: each floor point of the box not yet walked gets
    its whole closure orbit_within(c, max|c|), and every point of it is
    skipped later."""
    reps = []
    walked = set()
    for c in _integral_coords(k, default_class_bound(k)):
        if c in walked or _descent_step(c) is not None:
            continue
        closure = orbit_within(c, max(map(abs, c)))
        walked.update(closure)
        reps.append(normal_form_of_closure(closure))
    return sorted(reps)


CLASS_KS = [k for k in range(-3000, 6001) if k not in (0, 4)]
CLASS_KS_SAMPLED = sorted(s * round(10 ** random.Random(63 + i).uniform(4, 6))
                          for i in range(12) for s in (1, -1)) + [-888933323, 888933323]


@pytest.mark.parametrize("ks", [CLASS_KS[i::4] for i in range(4)] + [CLASS_KS_SAMPLED])
def test_class_data_matches_the_closure_walk(ks):
    for k in ks:
        assert [c.coords() for c in class_data(k)] == class_data_by_closures(k), k


def test_class_data_matches_the_walk_over_every_point():
    for k in [k for k in range(-3000, 3001) if k not in (0, 4)] + [-888933323]:
        assert [c.coords() for c in class_data(k)] == class_data_by_every_point(k), k


# sha256 of repr([p.coords() for p in class_data(k)]) over k in
# [-6000, 6000] (0 and 4 left out), then -888933324, -888933323,
# 888933323 and 888933324, as class_data gave them when every box was
# scanned in numpy rectangles
CLASS_DATA_DIGEST = "bf0e765fbfe5b27808791c8aad3e3380498c6ee571ce7198a0ddbc94b88a7441"


def test_class_data_is_unchanged_by_the_python_scan():
    ks = [k for k in range(-6000, 6001) if k not in (0, 4)]
    ks += [-888933324, -888933323, 888933323, 888933324]
    h = hashlib.sha256()
    for k in ks:
        h.update(repr([p.coords() for p in class_data(k)]).encode())
    assert h.hexdigest() == CLASS_DATA_DIGEST


def reduce_point_by_closure(point):
    """reduce_point as it was before it walked families, kept as the
    oracle for the family walk: descent, then the whole floor closure, and
    the path read off it even when descent ends at the normal form."""
    cur = point.coords()
    path = []
    while (step := _descent_step(cur)) is not None:
        mv, cur = step
        path.append(mv)
    closure = orbit_within(cur, max(map(abs, cur)))
    target = normal_form_of_closure(closure)
    return MarkoffPoint(*target, point.k), [m.inverse() for m in reversed(path + closure[target])]


def test_reduce_point_matches_the_closure_walk():
    # every point of the cube max|c| <= 6 and the ends of seeded Vieta walks
    # from them; the normal forms and the paths must be equal
    cube = [c for c in itertools.product(range(-6, 7), repeat=3) if level(*c) not in (0, 4)]
    rng = random.Random(64)
    walks = []
    for _ in range(2000):
        c = rng.choice(cube)
        for _ in range(rng.randint(1, 6)):
            c = _apply_coords(rng.choice(GENERATORS[:3]), c)
        walks.append(c)
    off_target = 0
    for c in cube + walks:
        p = MarkoffPoint.make(*c)
        got = reduce_point(p)
        assert got == reduce_point_by_closure(p), c
        # a path that starts with a perm or sign move holds a closure path
        off_target += bool(got[1]) and got[1][0].tag != "vieta"
    assert off_target > 100


@pytest.mark.parametrize("k", [329, 3780, 10**6 + 1, -2999995])
def test_class_data_walks_one_floor_closure_per_orbit(monkeypatch, k):
    walks = []

    def counted(c):
        walks.append(c)
        return _floor_families(c)

    def forbidden(point):
        raise AssertionError("class_data reduced %r" % (point,))

    monkeypatch.setattr(mksurf.markoff, "_floor_families", counted)
    monkeypatch.setattr(mksurf.markoff, "reduce_point", forbidden)
    classes = class_data(k)
    assert classes and len(walks) == len(classes)


def test_class_data_budget_edge():
    # the box isqrt(9 (|k| + 9) // 5) reaches the scan limit 40000 at
    # |k| = 888933324; -888933323 is the admissible level nearest the edge
    assert default_class_bound(888933324) == 40000 == mksurf.markoff.MAX_SEARCH_BOUND
    assert default_class_bound(888933325) == 40001
    assert len(class_data(-888933323)) == 3
    for k in (888933325, -888933325, 900000001):
        msg = (r"^class data at k = %d needs the box max\|x\| <= %d, past the integer "
               r"scan limit 40000, which serves \|k\| <= 888933324$"
               % (k, default_class_bound(k)))
        with pytest.raises(BudgetExceeded, match=msg):
            class_data(k)


def test_class_box_bound_at_its_edge():
    # default_class_bound's docstring proves 5 m^2 <= 9 (|k| + 9) for every
    # floor point; checked on the whole cube max|c| <= 40
    r = np.arange(-40, 41, dtype=np.int64)
    x, y, z = (a.ravel() for a in np.meshgrid(r, r, r, indexing="ij"))

    def norm(a, b, c):
        return np.maximum(np.maximum(abs(a), abs(b)), abs(c))

    m = norm(x, y, z)
    k = x * x + y * y + z * z - x * y * z
    floor = ((norm(y * z - x, y, z) >= m) & (norm(x, x * z - y, z) >= m)
             & (norm(x, y, x * y - z) >= m) & (k != 0) & (k != 4))
    m, k = m[floor], k[floor]
    assert np.all(5 * m * m <= 9 * (abs(k) + 9))
    assert np.all(m <= [default_class_bound(int(v)) for v in k])
    # the ratio behind the constant 9/5 nears it, and the bound is attained
    assert (m * m / (abs(k) + 16)).max() > 1.7
    assert np.count_nonzero(5 * m * m == 9 * (abs(k) + 9)) > 10
    d = MarkoffPoint.make(3, 46, 69)
    assert d.k == -2636 and 5 * 69**2 == 9 * (2636 + 9)
    assert all(apply_move(MarkoffMove.vieta(j), d).maxabs() >= 69 for j in (1, 2, 3))
    assert 69 <= default_class_bound(-2636)


ORBIT_KS = sorted(random.Random(61).sample([k for k in range(-300, 601) if k not in (0, 4)], 60))


def sample_bound(rep):
    """The bound `markoff class` walks each orbit within."""
    return max(10, 3 * rep.maxabs())


def test_orbit_within_is_the_orbit_in_the_cube():
    """Cube differential: the walk from a representative within B finds
    exactly the points of max|c| <= B that descend to it."""
    for k in ORBIT_KS + [329, 3780]:
        for rep in class_data(k):
            b = sample_bound(rep)
            cube = {tuple(p.coords()[i] for i in perm) for p in search_integral(k, b)
                    for perm in itertools.permutations(range(3))}
            want = {c for c in cube if reduce_point(MarkoffPoint(*c, k))[0] == rep}
            assert set(orbit_within(rep.coords(), b)) == want, (k, rep)


def test_orbit_within_paths_replay_and_walk_is_closed():
    for k in ORBIT_KS[::3]:
        for rep in class_data(k):
            b = sample_bound(rep)
            orbit = orbit_within(rep.coords(), b)
            assert next(iter(orbit.items())) == (rep.coords(), [])
            for c, path in orbit.items():
                assert apply_path(path, rep).coords() == c
                for m in GENERATORS:
                    d = apply_move(m, MarkoffPoint(*c, k)).coords()
                    assert d in orbit or max(map(abs, d)) > b


def test_orbit_within_small_example():
    # the whole orbit of (1, 1, 1) at level 2: its four double-sign images
    # and the twelve signed permutations of (0, 1, 1)
    orbit = orbit_within((1, 1, 1), 1)
    assert len(orbit) == 16 and set(orbit) == set(orbit_within((1, 1, 1), 100))
    # a start outside the bound is refused
    with pytest.raises(ValueError, match="outside the bound 0"):
        orbit_within((1, 1, 1), 0)


def walk_by_move_tags(c, bound):
    """orbit_within with its move order written out (WALK_ORDER) and every
    image tested on all three coordinates, not only the one a Vieta move
    changes; kept as the oracle for orbit_within, whose floor closures in
    turn check the inline Vieta moves of _floor_families."""
    seen = {c: []}
    stack = [c]
    while stack:
        cur = stack.pop()
        for mv in WALK_ORDER:
            cand = _apply_coords(mv, cur)
            if cand not in seen and max(map(abs, cand)) <= bound:
                seen[cand] = seen[cur] + [mv]
                stack.append(cand)
    return seen


def descent_step_by_move_tags(c):
    """The descent step _descent_step replaced: the first Vieta move whose
    image has a smaller max|x|."""
    for mv in WALK_ORDER[:3]:
        cand = _apply_coords(mv, c)
        if max(map(abs, cand)) < max(map(abs, c)):
            return mv, cand
    return None


def family_canonical(c):
    """The canonical tuple of the perm/double-sign family of c: sorted by
    absolute value, all entries nonnegative except, when the negativity
    parity is odd and no zero is present, the first one."""
    mags = sorted(abs(v) for v in c)
    if sum(v < 0 for v in c) % 2 == 1 and 0 not in mags:
        return (-mags[0], mags[1], mags[2])
    return tuple(mags)


@pytest.mark.parametrize("cube, bounds", [(6, range(9)), (2, (12, 16, 20))])
def test_inline_moves_match_the_move_tag_walk(cube, bounds):
    # every start of the cube max|c| <= 6 with every bound 0..8, and the
    # cube max|c| <= 2 up to bound 20; a start above the bound is refused.
    # Items are compared in order, since the order and the paths are what
    # reduce_point and `markoff class` read.  The family walk is checked
    # on the closures it stands for, those with bound = max|c|
    for c in itertools.product(range(-cube, cube + 1), repeat=3):
        assert _descent_step(c) == descent_step_by_move_tags(c), c
        assert _family_canonical(c) == family_canonical(c), c
        for bound in bounds:
            if max(map(abs, c)) > bound:
                with pytest.raises(ValueError):
                    orbit_within(c, bound)
                continue
            walk = orbit_within(c, bound)
            assert list(walk.items()) == list(walk_by_move_tags(c, bound).items()), (c, bound)
            if max(map(abs, c)) == bound:
                assert _floor_families(c) == set(map(family_canonical, walk)), c


def test_obstructed_traces_are_the_complements_of_the_commutator_trace_images():
    # admissible_t against the computed images on every residue mod 16 * 9
    img16, img9 = trace_commutator_image(16), trace_commutator_image(9)
    for t in range(144):
        assert admissible_t(t) == (t % 16 in img16 and t % 9 in img9), t


def test_admissible_k():
    assert admissible_k(-19)
    assert not admissible_k(7)      # 7 = 3 (mod 4)
    assert admissible_k(108)
    assert not admissible_k(12)     # 12 = 3 (mod 9)
    assert not admissible_k(102)    # 102 = 3 (mod 9)


def test_admissible_t():
    assert admissible_t(15)
    assert admissible_t(-21)
    assert admissible_t(3)
    assert not admissible_t(4)
    assert not admissible_t(10)     # 10 (mod 16) is on the obstructed list
    assert not admissible_t(19)     # 19 = 1 (mod 9)
    assert not admissible_t(106)    # the trace with the unresolved status


def test_search_integral_small():
    pts = {p.coords() for p in search_integral(2, 3)}
    assert (0, 1, 1) in pts and (1, 1, 1) in pts
    multisets = {tuple(sorted(abs(c) for c in t)) for t in pts}
    assert (0, 1, 1) in multisets
    for p in search_integral(108, 25):
        assert p.k == 108
        a, b, c = (abs(v) for v in p.coords())
        assert a <= b <= c <= 25
    assert any(same_orbit(p, MarkoffPoint.make(-3, 3, 6))
               for p in search_integral(108, 25))


def test_search_integral_matches_direct_enumeration():
    k, bound = 108, 12
    direct = {(x1, x2, x3)
              for x1 in range(-bound, bound + 1)
              for x2 in range(-bound, bound + 1)
              for x3 in range(-bound, bound + 1)
              if level(x1, x2, x3) == k and abs(x1) <= abs(x2) <= abs(x3)}
    got = {p.coords() for p in search_integral(k, bound)}
    assert got == direct


def search_integral_by_full_box(k, bound):
    """The whole-box scan search_integral replaced: every row x1 in [0, b],
    every x2 in [x1, b]; kept as the oracle for the pruned scan."""
    base = set()
    b = int(bound)
    x2s = np.arange(0, b + 1, dtype=np.int64)
    for x1 in range(0, b + 1):
        lo = x2s[x1:]
        disc = (x1 * x1 - 4) * (lo * lo - 4) + 4 * (k - 4)
        ok = disc >= 0
        if not ok.any():
            continue
        d = disc[ok]
        x2v = lo[ok]
        s = np.sqrt(d.astype(np.float64)).astype(np.int64)
        for ds in (-1, 0, 1):
            ss = s + ds
            hit = (ss >= 0) & (ss * ss == d)
            for x2, sv in zip(x2v[hit].tolist(), ss[hit].tolist()):
                prod = x1 * x2
                for x3 in ((prod + sv) // 2, (prod - sv) // 2):
                    if (prod + sv) % 2 == 0 and x2 <= abs(x3) <= b:
                        base.add((x1, x2, x3))
    out = set()
    for (x1, x2, x3) in base:
        out.update({(x1, x2, x3), (x1, -x2, -x3), (-x1, x2, -x3), (-x1, -x2, x3)})
    return [MarkoffPoint(c[0], c[1], c[2], k) for c in sorted(out) if level(*c) == k]


def test_search_integral_matches_full_box_grid():
    for k in range(-300, 301):
        for b in (0, 1, 2, 3, 5, 17, 60, 200):
            assert search_integral(k, b) == search_integral_by_full_box(k, b), (k, b)


def test_search_integral_matches_full_box_large_k():
    rng = random.Random(44)
    cases = [(rng.randint(-10**6, 10**6), rng.choice((60, 200, 1000))) for _ in range(150)]
    cases += [(k, default_class_bound(k)) for k in (3 * 10**6, -3 * 10**6, 2 * 10**6 + 1)]
    for k, b in cases:
        assert search_integral(k, b) == search_integral_by_full_box(k, b), (k, b)


def test_integral_coords_match_the_row_scan():
    rng = random.Random(23)
    cases = [(rng.randint(-10**4, 10**4), b) for b in range(6) for _ in range(40)]
    cases += [(rng.randint(-10**7, 10**7), rng.randint(6, 3000)) for _ in range(80)]
    cases += [(rng.randint(-300, 300), rng.randint(6, 3000)) for _ in range(20)]
    for k, b in cases:
        assert _integral_coords(k, b) == integral_coords_by_rows(k, b), (k, b)


def test_integral_bases_are_the_points_with_x1_x2_nonnegative():
    rng = random.Random(24)
    cases = [(rng.randint(-10**4, 10**4), rng.randint(0, 60)) for _ in range(200)]
    cases += [(k, 10) for k in (-10, 0, 2, 4, 5, 8)]
    found = 0
    for k, b in cases:
        bases = _integral_bases(k, b)
        assert bases == {c for c in integral_coords_by_rows(k, b) if c[0] >= 0 and c[1] >= 0}, (k, b)
        found += len(bases)
    assert found > 100


def test_python_and_numpy_scans_match_the_row_oracle(monkeypatch):
    # boxes up to PYTHON_SCAN_BOUND are scanned in Python ints, past it in
    # numpy rectangles: both against the oracle at the two boxes either
    # side of the constant and at each level's class box, all of which
    # the Python scan takes for these levels
    rectangles = []
    scan = mksurf.markoff._square_cells

    def recording(a, c, xs):
        rectangles.append(len(xs))
        return scan(a, c, xs)

    monkeypatch.setattr(mksurf.markoff, "_square_cells", recording)
    for k in range(-3000, 6001):
        boxes = {PYTHON_SCAN_BOUND: False, PYTHON_SCAN_BOUND + 1: True, default_class_bound(k): False}
        for b, numpy_scan in boxes.items():
            del rectangles[:]
            assert _integral_coords(k, b) == integral_coords_by_rows(k, b), (k, b)
            assert bool(rectangles) == numpy_scan, (k, b)


def test_row_limits_are_the_row_ranges():
    # the Python scan's row limits equal _row_ranges' on every row, at every
    # box it scans: the edges of each box's levels [-b^3, b^3 + 3 b^2], the
    # levels where rows 2 and 3 change, and seeded levels between
    rng = random.Random(31)
    for b in range(PYTHON_SCAN_BOUND + 1):
        top = b**3 + 3 * b * b
        ks = {-b**3, top, -1, 0, 1, 4, 5, 8, 9, 10, 4 + b * b, -b * b}
        ks |= {rng.randint(-b**3, top) for _ in range(30)}
        for k in sorted(ks):
            lo, hi = _row_ranges(k, b)
            assert list(_row_limits(k, b)) == list(zip(range(len(lo)), lo.tolist(), hi.tolist())), (k, b)


@pytest.mark.parametrize("b", [2**14 + 2, 2**14 + 3, 2**15 + 1, 2**15 + 2])
def test_integral_coords_rectangles_at_the_cell_cap(monkeypatch, b):
    # at k = -b^2 rows 3 and 4 span [3, b] and [4, b], and no row below 3
    # holds a point: the two fill SCAN_CELLS exactly at b = 2^14 + 2 and
    # cannot share a rectangle at b = 2^14 + 3; at k = 4 + m^2 row 2 spans
    # [2, b] in a rectangle of its own, which fills SCAN_CELLS at
    # b = 2^15 + 1 and is wider than the cap at b = 2^15 + 2
    shapes = []
    scan = mksurf.markoff._square_cells

    def recording(a, c, xs):
        shapes.append((len(a), len(xs)))
        return scan(a, c, xs)

    monkeypatch.setattr(mksurf.markoff, "_square_cells", recording)
    for k in (102, -5000, level(4, 5, 16), 10**8 + 1, -b * b, 5, 4 + b * b):
        assert _integral_coords(k, b) == integral_coords_by_rows(k, b), k
    assert all(rows * width <= SCAN_CELLS or rows == 1 for rows, width in shapes)
    assert (2 * (b - 2) <= SCAN_CELLS) == ((2, b - 2) in shapes)
    assert (1, b - 1) in shapes


def test_rectangles_pack_rows_under_both_caps():
    # every row lands once, in order, in a rectangle holding its range;
    # a rectangle keeps to SCAN_CELLS cells and SCAN_CELLS // 8 cells
    # outside its rows' ranges unless it is one row, and the next row
    # would break one of the two
    rng = random.Random(28)
    for _ in range(300):
        x1s = sorted(rng.sample(range(5000), rng.randint(1, 60)))
        width = rng.choice((40, 400, 4000, 40000))
        ranges = []
        for x1 in x1s:
            lo = rng.randint(0, width)
            ranges.append((x1, lo, lo + rng.randint(0, width)))
        rects = list(mksurf.markoff._rectangles(np.array(x1s), [r[1] for r in ranges],
                                                [r[2] for r in ranges]))
        assert [x1 for rows, _, _ in rects for x1 in rows.tolist()] == x1s
        spans = dict((x1, (lo, hi)) for x1, lo, hi in ranges)
        for i, (rows, lo, hi) in enumerate(rects):
            need = sum(spans[x1][1] - spans[x1][0] + 1 for x1 in rows.tolist())
            assert all(lo <= spans[x1][0] and spans[x1][1] <= hi for x1 in rows.tolist())
            cells = len(rows) * (hi - lo + 1)
            assert len(rows) == 1 or (cells <= SCAN_CELLS and cells - need <= SCAN_CELLS // 8)
            if i + 1 < len(rects):
                nxt = int(rects[i + 1][0][0])
                lo2, hi2 = min(lo, spans[nxt][0]), max(hi, spans[nxt][1])
                cells2 = (len(rows) + 1) * (hi2 - lo2 + 1)
                need2 = need + spans[nxt][1] - spans[nxt][0] + 1
                assert cells2 > SCAN_CELLS or cells2 - need2 > SCAN_CELLS // 8


@pytest.mark.parametrize("k", [888933323, -888933323])
def test_integral_coords_rows_wider_than_the_cap(k):
    # the largest class_data box: its first rows hold 40001 > SCAN_CELLS cells
    b = default_class_bound(k)
    assert b == 40000 > SCAN_CELLS
    assert _integral_coords(k, b) == integral_coords_by_rows(k, b)


def row_limits(k, b, x1):
    """The three row limits of search_integral for x1 >= 4 ((b) and (c)
    are -1 where they do not apply)."""
    return ((b - 1) // (x1 - 1),
            math.isqrt(k // (x1 + 2)) if k > 0 else -1,
            math.isqrt(-k // (x1 - 3)) if k < 0 else -1)


# (limit, k, b, point): a point whose x2 equals that row limit and exceeds
# the other two, so tightening that limit alone by one loses the point.
# (a) at x3 = b with x2 = (b - 1) // (x1 - 1); (b) at (x1, x2, -x2), k = x1^2 + x2^2 (x1 + 2);
# (c) at (n, n, n), k = 3n^2 - n^3, and at (8, 8, 9).
TIGHT_ROWS = [(0, -23, 16, (4, 5, 16)), (0, 17, 15, (4, 4, 15)), (0, -27, 33, (6, 6, 33)),
              (0, -379, 60, (5, 14, 60)),
              (1, 112, 4, (4, 4, -4)), (1, level(4, 7, -7), 7, (4, 7, -7)),
              (1, level(9, 11, -11), 11, (9, 11, -11)),
              (2, -16, 4, (4, 4, 4)), (2, -50, 5, (5, 5, 5)), (2, level(9, 9, 9), 9, (9, 9, 9)),
              (2, -367, 10, (8, 8, 9))]


@pytest.mark.parametrize("limit, k, b, point", TIGHT_ROWS)
def test_search_integral_row_limit_edges(limit, k, b, point):
    x1, x2, _ = point
    lims = row_limits(k, b, x1)
    assert level(*point) == k
    assert x2 == lims[limit] and all(x2 > v for i, v in enumerate(lims) if i != limit)
    got = search_integral(k, b)
    assert point in {p.coords() for p in got}
    assert got == search_integral_by_full_box(k, b)


def test_search_integral_full_rows_up_to_x1_3():
    # row x1 = 3 keeps (c) unweakened, x2^2 <= 9 - k: (3, 10, 10) at
    # k = -91 and (3, 3, 3) at k = 0 lie above the (a) limit (b - 1) // 2,
    # and the weakened (c) would divide by x1 - 3 = 0
    for k, b, point in ((-91, 10, (3, 10, 10)), (0, 3, (3, 3, 3))):
        assert level(*point) == k and point[1] > (b - 1) // 2
        got = search_integral(k, b)
        assert point in {p.coords() for p in got}
        assert got == search_integral_by_full_box(k, b)


# (kind, k, b, point): a point whose x2 is exactly that limit of its row.
# top rows 0..2; row 3's (a), (b) and unweakened (c), each with the other
# two below it; bottom(x1) at x3 = -b, in rows 0 and 5
NEW_ROW_LIMITS = [("top", 50, 7, (0, 5, 5)), ("top", 37, 9, (1, 6, 6)),
                  ("top", 4, 9, (2, 9, 9)),
                  ("top", -10, 11, (3, 5, 11)), ("top", 89, 6, (3, 4, -4)),
                  ("top", -91, 12, (3, 10, 10)), ("top", 0, 5, (3, 3, 3)),
                  ("bottom", 34, 5, (0, 3, -5)), ("bottom", level(5, 7, -20), 20, (5, 7, -20))]


@pytest.mark.parametrize("kind, k, b, point", NEW_ROW_LIMITS)
def test_search_integral_new_row_limit_edges(kind, k, b, point):
    x1, x2, _ = point
    assert level(*point) == k
    lo, hi = (v.tolist() for v in mksurf.markoff._row_ranges(k, b))
    if kind == "top":
        # below the box's own limit b, except row 2's, which is b
        assert x2 == hi[x1]
        assert (x2 == b) == (x1 == 2)
    else:
        assert x2 == lo[x1] > x1
    if x1 == 3:
        # (a), (b) and the unweakened (c): the one attained, the others below
        lims = sorted(((b - 1) // 2, math.isqrt(k // 5) if k > 0 else -1,
                       math.isqrt(9 - k) if k <= 9 else -1))
        assert lims[2] == x2 > lims[1]
    got = search_integral(k, b)
    assert point in {p.coords() for p in got}
    assert got == search_integral_by_full_box(k, b)


def row_range_by_formula(k, b, x1):
    """(lo, hi) of row x1 from search_integral's limits in Python ints, the
    bottom by bisection on x1^2 + x2^2 + b^2 + b x1 x2 >= k."""
    if x1 == 0:
        top = math.isqrt(k // 2) if k >= 0 else -1
    elif x1 == 1:
        top = math.isqrt(k - 1) if k >= 1 else -1
    elif x1 == 2:
        top = b if k >= 4 and math.isqrt(k - 4) ** 2 == k - 4 else -1
    else:
        lims = [(b - 1) // (x1 - 1)]
        if k > 0:
            lims.append(math.isqrt(k // (x1 + 2)))
        if x1 == 3 and k <= 9:
            lims.append(math.isqrt(9 - k))
        if x1 > 3 and k < 0:
            lims.append(math.isqrt(-k // (x1 - 3)))
        top = max(lims)
    bottom = bisect.bisect_left(range(2 * 10**9), True,
                                key=lambda x2: x1 * x1 + x2 * x2 + b * b + b * x1 * x2 >= k)
    return max(x1, bottom), min(b, top)


def test_row_ranges_match_the_formulas():
    # every row before `end`, and rows past it hold nothing; random levels,
    # levels near the box's top, and |k| = 10^17, past the levels of every box
    rng = random.Random(30)
    cases = [(rng.randint(-10**6, 10**6), rng.randint(0, 300)) for _ in range(150)]
    cases += [(rng.randint(-10**17, 10**17), rng.randint(0, 40000)) for _ in range(30)]
    for b in (3, 17, 1000, 40000):
        top = b**3 + 3 * b * b
        cases += [(top - rng.randint(0, b**3 // 50), b) for _ in range(5)]
        cases += [(k, b) for k in (-b**3, 4 + b * b, 9 - b * b, -b * b, 10**17, -10**17)]
    for k, b in cases:
        lo, hi = mksurf.markoff._row_ranges(k, b)
        end = len(lo)
        rows = range(end) if end <= 300 else sorted(
            {*range(100), *range(end - 100, end), *rng.sample(range(end), 100)})
        for x1 in rows:
            assert (lo[x1], hi[x1]) == row_range_by_formula(k, b, x1), (k, b, x1)
        for x1 in sorted({*range(end, min(b, end + 20) + 1), b} - set(range(end))):
            assert row_range_by_formula(k, b, x1)[1] < x1, (k, b, x1)


def test_search_integral_row_2_needs_a_square():
    # row 2 holds points only when k - 4 is a square, and then up to b
    for k in (5, 6, 8, 13, 29, 40):
        top = mksurf.markoff._row_ranges(k, 30)[1][2]
        assert top == (30 if math.isqrt(k - 4) ** 2 == k - 4 else -1)
        got = search_integral(k, 30)
        assert (top == 30) == any(abs(p.x1) == 2 for p in got)
        assert got == search_integral_by_full_box(k, 30), k


def test_search_integral_level_range_edge():
    # the box's levels run over [-b^3, b^3 + 3 b^2], and (b, b, -b) is at
    # its top: found there, and nothing one above
    b = 1000
    top = b**3 + 3 * b * b
    assert top == 1003000000 == level(b, b, -b)
    got = search_integral(top, b)
    assert [p.coords() for p in got] == sorted(mksurf.markoff._double_signs(b, b, -b))
    assert search_integral(top + 1, b) == []
    for b in (0, 1, 2, 5, 9):
        for k in (-b**3 - 1, b**3 + 3 * b * b, b**3 + 3 * b * b + 1):
            assert search_integral(k, b) == search_integral_by_full_box(k, b), (k, b)


def test_search_integral_double_roots_at_x1_x2_equal_2b():
    # x3 = x1 x2 / 2 = b: the larger root at its least, where x1 x2 = 2b
    for x1, x2 in ((4, 5), (6, 7), (4, 4)):
        b = x1 * x2 // 2
        point = (x1, x2, b)
        got = search_integral(level(*point), b)
        assert point in {p.coords() for p in got}
        assert got == search_integral_by_full_box(level(*point), b)


def integer_roots(p, c):
    """Integer roots of t^2 - p t + c = 0 for int64 arrays p and c.

    Returns (idx, lo, hi): the indices where both roots are integers, and
    the smaller and larger root there (lo == hi at a double root).
    Precondition: d = p^2 - 4c fits in int64 at every index.  The roots
    are (p -+ s) / 2 where square_roots finds s^2 = d; no parity test is
    needed, as s^2 = p^2 - 4c forces s = p (mod 2).
    """
    idx, s = square_roots(p * p - 4 * c)
    p = p[idx]
    return idx, (p - s) // 2, (p + s) // 2


def search_localized_by_full_rows(k, ell, max_exp, bound):
    """The scan search_localized replaced: every row x1 in [0, b] at every
    exponent; kept as the oracle for the row filter."""
    pts = search_integral(k, bound)
    b = int(bound)
    x2s = np.arange(0, b + 1, dtype=np.int64)
    keep2 = x2s[x2s % ell != 0]
    found = set()
    for a in range(1, max_exp + 1):
        big = ell ** (2 * a)
        for x1 in range(0, b + 1):
            idx, r1, r2 = integer_roots(x1 * keep2, keep2 * keep2 + (x1 * x1 - k) * big)
            for x2, x3a, x3b in zip(keep2[idx].tolist(), r1.tolist(), r2.tolist()):
                for x3 in (x3a, x3b):
                    if abs(x3) <= b and x3 % ell != 0:
                        found.add((a, x1, x2, x3))
    seen = set()
    for (a, x1, x2, x3) in sorted(found):
        for v in ((x1, x2, x3), (x1, -x2, -x3), (-x1, -x2, x3), (-x1, x2, -x3)):
            if (a,) + v not in seen:
                seen.add((a,) + v)
                pts.append(MarkoffPoint(v[0], Fraction(v[1], ell**a), Fraction(v[2], ell**a), k))
    return pts


def _localized_grid():
    """Seeded (k, ell, max_exp, b): levels of random denominator-shape
    points, so most cases have points, plus random levels with
    ell^(2a) |k| far above b^2, where the row filter drops most rows."""
    rng = random.Random(66)
    cases = []
    while len(cases) < 120:
        ell, a, b = rng.choice((3, 5, 7, 11)), rng.randint(1, 3), rng.choice((7, 12, 25, 40))
        x1, x2 = rng.randint(0, b), rng.randint(1, b)
        big = ell ** (2 * a)
        x3s = [x3 for x3 in range(-b, b + 1) if x3 % ell and x2 % ell
               and (x2 * x2 + x3 * x3 - x1 * x2 * x3) % big == 0]
        if x3s:
            x3 = rng.choice(x3s)
            cases.append((x1 * x1 + (x2 * x2 + x3 * x3 - x1 * x2 * x3) // big,
                          ell, rng.randint(a, 3), b))
    for _ in range(60):
        cases.append((rng.randint(-20000, 20000), rng.choice((3, 5, 7, 11)),
                      rng.randint(0, 3), rng.choice((7, 12, 25, 40))))
    return cases


def test_search_localized_matches_full_rows_grid():
    # compared as lists: the order is what `markoff search --limit` and a
    # certificate's found field expose
    cases = _localized_grid()
    with_points = dropped = 0
    for k, ell, max_exp, b in cases:
        got = search_localized(k, ell, max_exp, b)
        assert got == search_localized_by_full_rows(k, ell, max_exp, b), (k, ell, max_exp, b)
        with_points += any(Fraction(p.x2).denominator > 1 for p in got)
        dropped += sum(ell ** (2 * a) * abs(x1 * x1 - k) > b * b * (x1 + 2)
                       for a in range(1, max_exp + 1) for x1 in range(b + 1))
    assert with_points > 60
    assert dropped > sum(max_exp * (b + 1) for _, _, max_exp, b in cases) // 2


def test_search_localized_row_filter_edge():
    # (7, 7/3, -7/3) at k = 98, l = 3, b = 7: L |x1^2 - k| = 9 * 49 = 441
    # = b^2 (x1 + 2), so row 7 sits exactly on the filter's limit
    point = MarkoffPoint(7, Fraction(7, 3), Fraction(-7, 3), 98)
    assert 9 * abs(7 * 7 - 98) == 7 * 7 * (7 + 2)
    got = search_localized(98, 3, 1, 7)
    assert point in got
    assert got == search_localized_by_full_rows(98, 3, 1, 7)


def _roots_case(p, d):
    """(p, c) with p^2 - 4c = d; needs d = p^2 (mod 4)."""
    return p, (p * p - d) // 4


def test_integer_roots_matches_isqrt():
    rng = random.Random(71)
    cases = []
    for _ in range(3000):
        r1, r2 = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        cases.append((r1 + r2, r1 * r2))  # integer roots, d = (r1 - r2)^2
        cases.append((r1 + r2, r1 * r2 + rng.randint(-50, 50)))  # mostly none
        cases.append((r1, r1 * r1 + rng.randint(0, 10**6)))  # d <= 0
        cases.append((2 * r1, r1 * r1))  # d = 0
    # s^2 - 1, s^2, s^2 + 1 near 2^31 and near the int64 edge isqrt(2^63 - 1)
    for s0 in (2**31, math.isqrt(2**63 - 1)):
        for s in range(s0 - 40, s0 + 1):
            for d in (s * s - 1, s * s, s * s + 1):
                if d % 4 in (0, 1):
                    cases.append(_roots_case(d % 4, d))
                    cases.append(_roots_case(d % 4 + 2 * rng.randint(-10**8, 10**8), d))
    cases += [_roots_case(0, 2**63 - 4), _roots_case(1, 2**63 - 3)]
    expected = []
    for i, (p, c) in enumerate(cases):
        d = p * p - 4 * c
        assert -2**63 <= d < 2**63
        if d >= 0 and math.isqrt(d) ** 2 == d:
            s = math.isqrt(d)
            expected.append((i, (p - s) // 2, (p + s) // 2))
    ps = np.array([p for p, _ in cases], dtype=np.int64)
    cs = np.array([c for _, c in cases], dtype=np.int64)
    idx, lo, hi = integer_roots(ps, cs)
    assert list(zip(idx.tolist(), lo.tolist(), hi.tolist())) == expected
    assert 3000 < len(expected) < len(cases)


def test_square_roots_matches_isqrt():
    # d = 0, negative d down to the int64 minimum, and s^2 - 1, s^2, s^2 + 1
    # around 2^62 = (2^31)^2 and up to the int64 edge isqrt(2^63 - 1)
    rng = random.Random(72)
    ds = [0, 1, 2, 3, 4, -1, -4, -2**62, -2**63]
    top = math.isqrt(2**63 - 1)
    for s in list(range(2**31 - 40, 2**31 + 41)) + list(range(top - 40, top + 1)):
        ds += [s * s - 1, s * s, s * s + 1]
    ds += [rng.randint(-2**62, 2**62) for _ in range(2000)]
    ds += [rng.randint(0, top) ** 2 + rng.choice((-1, 0, 0, 1)) for _ in range(2000)]
    assert all(-2**63 <= d < 2**63 for d in ds)
    expected = [(i, math.isqrt(d)) for i, d in enumerate(ds)
                if d >= 0 and math.isqrt(d) ** 2 == d]
    d = np.array(ds, dtype=np.int64)
    # the kernel as a one-column rectangle 0 x^2 + d, and the fresh-array
    # reference
    zero = np.zeros(1, dtype=np.int64)
    rows, _, roots = mksurf.markoff._square_cells(np.zeros_like(d), d, zero)
    assert len(d) <= SCAN_CELLS
    for idx, roots in ((rows, roots), square_roots(d)):
        assert list(zip(idx.tolist(), roots.tolist())) == expected
    assert 1000 < len(expected) < len(ds)


def _scan_cases():
    """Seeded rectangles (a, c, xs) for _square_cells: integral-scan rows,
    random rows a_r x^2 + c_r with a square planted in each, the Z[1/l]
    scan's rows of a level with points, and one row wider than
    SCAN_CELLS; every cell stays inside int64."""
    rng = random.Random(29)
    cases = []
    for _ in range(60):
        x1s = np.array(sorted(rng.sample(range(3000), rng.randint(1, 50))), dtype=np.int64)
        lo = rng.randint(0, 2000)
        xs = np.arange(lo, lo + rng.randint(1, SCAN_CELLS // len(x1s)), dtype=np.int64)
        # the level of a point in one of the rows
        k = level(rng.choice(x1s.tolist()), rng.choice(xs.tolist()), rng.randint(-10**4, 10**4))
        cases.append((x1s * x1s - 4, 4 * (k - x1s * x1s), xs))
    for _ in range(60):
        rows = rng.randint(1, 30)
        xs = np.arange(-rng.randint(0, 500), rng.randint(1, 500), dtype=np.int64)
        a = np.array([rng.randint(-10**4, 10**4) for _ in range(rows)], dtype=np.int64)
        # a_r x0^2 + c_r = y0^2 at a column x0 of the row
        x0, y0 = (np.array([rng.choice(xs.tolist()) for _ in range(rows)], dtype=np.int64),
                  np.array([rng.randint(0, 10**5) for _ in range(rows)], dtype=np.int64))
        cases.append((a, y0 * y0 - a * x0 * x0, xs))
    # the exponent-1 rows of search_localized(8, 3, 1, 200), which holds points
    x1s = np.arange(0, 201, dtype=np.int64)
    cases.append((x1s * x1s - 4, -4 * 9 * (x1s * x1s - 8), np.arange(0, 201, dtype=np.int64)))
    # rows 0 and 5 of the box b = 40000: a sum of two squares in many ways,
    # and the level of (5, 30000, 1)
    xs = np.arange(0, 40001, dtype=np.int64)
    for x1, k in ((0, 5 * 13 * 17 * 29 * 37 * 41), (5, level(5, 30000, 1))):
        cases.append((np.array([x1 * x1 - 4], dtype=np.int64),
                      np.array([4 * (k - x1 * x1)], dtype=np.int64), xs))
    return cases


def _listed(cells):
    return [v.tolist() for v in cells]


def test_square_cells_matches_fresh_arrays():
    hits = 0
    for a, c, xs in _scan_cases():
        got = mksurf.markoff._square_cells(a, c, xs)
        assert all(v.dtype == np.int64 for v in got)
        assert _listed(got) == _listed(square_cells_fresh(a, c, xs))
        hits += len(got[0])
    assert len(_scan_cases()[-1][2]) > SCAN_CELLS and hits > 500


def test_square_cells_results_survive_the_next_call():
    cases = _scan_cases()
    first = mksurf.markoff._square_cells(*cases[-3])  # the Z[1/l] rows
    kept = _listed(first)
    assert kept[0]
    for case in cases:
        mksurf.markoff._square_cells(*case)
    assert _listed(first) == kept
    for buf in mksurf.markoff._workspace.buffers:
        assert not any(np.shares_memory(v, buf) for v in first)


def test_square_cells_two_threads_at_once():
    cases = _scan_cases()
    want = [_listed(mksurf.markoff._square_cells(*case)) for case in cases]
    start = threading.Barrier(2)
    got = {}

    def scan(name):
        start.wait()
        got[name] = [[_listed(mksurf.markoff._square_cells(*case)) for case in cases]
                     for _ in range(3)]

    threads = [threading.Thread(target=scan, args=(n,)) for n in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == {n: [want] * 3 for n in range(2)}


def test_search_integral_budget():
    with pytest.raises(BudgetExceeded):
        search_integral(102, 40001)
    # a level outside the box's levels [-b^3, b^3 + 3 b^2] has no point,
    # however large |k| is
    assert search_integral(10**17 + 1, 10) == []
    assert search_integral(-10**30, 40000) == []
    with pytest.raises(BudgetExceeded):
        search_localized(224, 19, 6, 1000)
    # the Z[1/l] row filter forms l^(2a) |x1^2 - k| in int64 whatever the box
    with pytest.raises(BudgetExceeded):
        search_localized(10**20, 5, 1, 5)
    with pytest.raises(ValueError):
        search_integral(102, -1)


def test_search_integral_empty_families():
    assert search_integral(102, 2000) == []
    assert search_integral(24, 2000) == []


def test_search_localized():
    # integral points come back unchanged (exponent-0 shape)
    pts = search_localized(108, 5, 2, 25)
    assert any(all(Fraction(c).denominator == 1 for c in p.coords()) for p in pts)
    # a genuine denominator shape: (15, 1/5, 2/5) lies on the level-224 surface
    target = level(15, Fraction(1, 5), Fraction(2, 5))
    assert target == 224
    pts = search_localized(224, 5, 2, 30)
    assert any({Fraction(c).denominator for c in p.coords()} == {1, 5} for p in pts)
    for p in pts:
        assert level(*p.coords()) == 224
    # the S-integer Hasse-failure family stays empty
    assert search_localized(4 + 20 * 139**2, 19, 3, 1000) == []


def test_search_localized_leaves_out_the_three_denominator_pattern():
    # l-adic valuations (-(b + c), -b, -c): here (-2, -1, -1) at l = 5, a
    # point on level 5 with three 5-power denominators; the search covers
    # only the other two patterns, so none of its points has this shape
    point = (Fraction(14, 25), Fraction(4, 5), Fraction(-9, 5))
    assert level(*point) == 5
    assert [c.denominator for c in point] == [25, 5, 5]
    pts = search_localized(5, 5, 3, 60)
    assert len(pts) == 1036
    assert not any(all(Fraction(c).denominator > 1 for c in p.coords()) for p in pts)


def qr_type(coords, p):
    """At least two of x_i^2 - 4 are residues mod p."""
    hits = sum(1 for x in coords if jacobi((x * x - 4) % p, p) == 1)
    return hits >= 2


def test_qr_type_invariant_under_moves():
    for k in (108, 70):
        primes = [p for p in (3, 11, 13) if (k - 4) % p == 0]
        pts = search_integral(k, 40)
        for pt in pts:
            for p in primes:
                t0 = qr_type(pt.coords(), p)
                for m in GENERATORS:
                    assert qr_type(apply_move(m, pt).coords(), p) == t0
