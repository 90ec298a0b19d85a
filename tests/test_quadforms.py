import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import mksurf.quadforms
import mksurf.rings
from mksurf.markoff import (
    GENERATORS,
    SCAN_CELLS,
    MarkoffPoint,
    admissible_k,
    apply_move,
    class_data,
    reduce_point,
    search_integral,
    search_localized,
)
from mksurf.quadforms import (
    MEMO_SIZE,
    HasseProfile,
    WITNESS_BOUND,
    _odd_primes,
    _witness_search,
    form_isotropic,
    hasse_profile,
)
from mksurf.rings import INF, BudgetExceeded, factorize, hilbert, jacobi, square_class_int

from _util import (
    check_frozen_like_dataclass,
    form_value,
    gram,
    random_point,
    squarefree_part,
    witness_search_by_rows,
)

def mat3_det(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def test_gram_determinant():
    rng = random.Random(21)
    for _ in range(10**4):
        p = random_point(rng, 25)
        assert mat3_det(gram(p)) == -2 * (p.k - 4)


def test_hasse_profile_329():
    prof1 = hasse_profile(MarkoffPoint.make(-3, 8, 8))
    assert {place for place, v in prof1.entries if v == -1} == {5, 13}
    assert prof1.product() == 1
    prof2 = hasse_profile(MarkoffPoint.make(-4, 4, 11))
    assert {place for place, v in prof2.entries if v == -1} == set()
    assert prof2.product() == 1


def test_hasse_profile_is_a_frozen_value():
    # a slot class (no dataclasses at start) that behaves as the frozen dataclass did
    prof = hasse_profile(MarkoffPoint.make(-3, 8, 8))
    check_frozen_like_dataclass(HasseProfile, (prof.entries,),
                                (hasse_profile(MarkoffPoint.make(-4, 4, 11)).entries,))


def clear_memos():
    _odd_primes.cache_clear()
    hasse_profile.cache_clear()


def counted_factorize(monkeypatch):
    """The list of integers factorize is called on from here on, counted in
    quadforms and in rings, so a call through a rings helper counts too."""
    calls = []
    real = mksurf.rings.factorize
    counted = lambda n: calls.append(n) or real(n)
    monkeypatch.setattr(mksurf.quadforms, "factorize", counted)
    monkeypatch.setattr(mksurf.rings, "factorize", counted)
    return calls


def test_hasse_profile_factors_each_argument_once(monkeypatch):
    # over one level's representatives, with the memos cleared: k - 4 and
    # the first usable x^2 - 4 of each, each distinct integer once, and
    # nothing when the profiles are asked again
    calls = counted_factorize(monkeypatch)
    levels = 0
    for k in [k for k in range(5, 1500) if admissible_k(k)] + [10001]:
        clear_memos()
        calls.clear()
        reps = [p for p in class_data(k) if any(c * c != 4 for c in p.coords())]
        for p in reps:
            hasse_profile(p)
        assert len(calls) == len(set(calls)), (k, calls)
        assert set(calls) == ({k - 4} if reps else set()) | {
            next(c for c in p.coords() if c * c != 4) ** 2 - 4 for p in reps}, k
        calls.clear()
        for p in reps:
            hasse_profile(p)
        assert calls == [], k
        levels += len(reps) > 1
    assert levels > 300


def hasse_profile_by_fractions(point):
    """hasse_profile as it was before it called hilbert_int, kept as the
    oracle for it: k and the coordinates as Fractions, and every symbol
    through hilbert, which takes their square classes and checks the
    place each time."""
    k = Fraction(point.k)
    if k <= 4:
        raise ValueError("profiles need k > 4, got %s" % k)
    usable = [Fraction(c) for c in point.coords() if c * c != 4]
    if not usable:
        raise ValueError("all coordinates are +-2")
    place_sets = [{2, INF} | {q for v in (k - 4, c * c - 4)
                              for q, _ in factorize(square_class_int(v)) if q > 2}
                  for c in usable]
    profiles = [{p: hilbert(c * c - 4, k - 4, p) for p in set().union(*place_sets)}
                for c in usable]
    assert all(other == profiles[0] for other in profiles[1:]), profiles
    return sorted(((p, profiles[0][p]) for p in place_sets[0]), key=lambda e: (e[0] == INF, e[0]))


def localized_points():
    """Points over Z[1/ell], most with Fraction coordinates."""
    points = [p for k, ell in ((5, 5), (8, 3), (13, 7), (20, 3), (29, 5), (56, 5), (329, 3))
              for p in search_localized(k, ell, 2, 40)]
    assert sum(not p.is_integral() for p in points) > 1000
    return points


def test_hasse_profile_matches_the_fraction_oracle():
    # class representatives, random integer points, and points over
    # Z[1/ell] with Fraction coordinates
    points = [r for k in range(5, 1500) if admissible_k(k) for r in class_data(k)]
    rng = random.Random(65)
    points += [p for p in (random_point(rng, 40) for _ in range(400)) if p.k > 4]
    for p in points + localized_points():
        if all(c * c == 4 for c in p.coords()):
            continue
        assert list(hasse_profile(p).entries) == hasse_profile_by_fractions(p), p


def test_hasse_profile_is_the_same_from_every_coordinate():
    # hasse_profile reads c_p off the first usable coordinate, so the six
    # orders of a point's coordinates read it off each usable one in turn
    rng = random.Random(37)
    points = []
    while len(points) < 2000:
        coords = [rng.randint(-10**4, 10**4) for _ in range(3)]
        if rng.random() < 0.2:
            coords[rng.randrange(3)] = rng.choice((2, -2))
        p = MarkoffPoint.make(*coords)
        if p.k > 4 and any(c * c != 4 for c in coords):
            points.append(p)
    assert sum(any(c * c == 4 for c in p.coords()) for p in points) > 300
    for p in points + localized_points():
        if all(c * c == 4 for c in p.coords()):
            continue
        profiles = [dict(hasse_profile(MarkoffPoint(*c, p.k)).entries)
                    for c in itertools.permutations(p.coords())]
        first = profiles[0]
        for other in profiles[1:]:
            assert ({q for q, v in other.items() if v == -1}
                    == {q for q, v in first.items() if v == -1}), p
            assert all(other[q] == first[q] for q in other.keys() & first.keys()), p


def test_hasse_profile_cross_checks_the_other_coordinates(monkeypatch):
    # a symbol kernel that read c_p differently off x = -3 (a = 5) and
    # x = 8 (a = 60) is caught at the reported places
    monkeypatch.setattr(mksurf.quadforms, "hilbert_int", lambda a, b, p: 1 if a > 50 else -1)
    with pytest.raises(ValueError, match="coordinate profiles disagree"):
        hasse_profile(MarkoffPoint.make(-3, 8, 8))


def test_hasse_profile_product_formula_on_found_points():
    # every existing point has a trivial total product
    for k in (70, 108, 329):
        for p in search_integral(k, 30):
            prof = hasse_profile(p)
            assert prof.product() == 1, p


def bounded_orbit_walk(start, rng, steps, cap=10**6):
    """Random orbit walk that rejects moves exploding the coordinates
    (Vieta moves grow doubly exponentially)."""
    p = start
    out = [p]
    for _ in range(steps):
        q = apply_move(rng.choice(GENERATORS), p)
        if q.maxabs() <= cap:
            p = q
        out.append(p)
    return out


def test_hasse_profile_orbit_invariance():
    rng = random.Random(40)
    for start in (MarkoffPoint.make(-3, 8, 8), MarkoffPoint.make(-3, 3, 6)):
        base = {place for place, v in hasse_profile(start).entries if v == -1}
        for p in bounded_orbit_walk(start, rng, 60):
            assert {place for place, v in hasse_profile(p).entries if v == -1} == base


def test_hasse_profile_rejects_low_level():
    with pytest.raises(ValueError, match=r"^Hasse profiles and isotropy need k > 4$"):
        hasse_profile(MarkoffPoint.make(1, 1, 1))  # k = 2 < 4


def test_hasse_profile_refuses_the_all_two_points_of_level_20():
    # (-2, 2, 2) is the first class representative at k = 20, a valid point
    # whose every coordinate has x^2 - 4 = 0
    for c in ((-2, 2, 2), (-2, -2, -2), (2, -2, 2)):
        with pytest.raises(ValueError, match=r"\(x\^2 - 4, k - 4\)_p is undefined$"):
            hasse_profile(MarkoffPoint.make(*c))


def brute_isotropy(point, bound=40):
    """The first nontrivial zero (u1, u2, u3) of the form with every
    |u_i| <= bound, in lexicographic order, or None: form_value at every
    vector of the box at once, in int64, which holds each term here."""
    assert 3 * (point.maxabs() + 1) * bound * bound < 2**62, point
    box = np.arange(-bound, bound + 1, dtype=np.int64)
    values = form_value(point, *np.meshgrid(box, box, box, indexing="ij"))
    values[bound, bound, bound] = 1  # the trivial zero
    hits = np.argwhere(values == 0)
    return tuple(int(v) - bound for v in hits[0]) if len(hits) else None


def test_form_isotropic_examples():
    # k = 3780: isotropic, with (409, 251, 5) among the small zeros
    p = MarkoffPoint.make(-3, 3, 57)
    assert p.k == 3780
    verdict, data = form_isotropic(p)
    assert verdict == "Isotropic"
    assert form_value(p, *data["witness"]) == 0
    assert form_value(p, 409, 251, 5) == 0
    # k = 329 second class: isotropic, (9, 1, -1) is a zero
    p2 = MarkoffPoint.make(-4, 4, 11)
    verdict, data = form_isotropic(p2)
    assert verdict == "Isotropic"
    assert form_value(p2, *data["witness"]) == 0
    assert form_value(p2, 9, 1, -1) == 0
    # anisotropic examples, each with the oracle's anisotropy prime p (the
    # first odd p || k-4 at which a coordinate x has x^2-4 a nonresidue)
    # among the places without a zero
    for coords, p in (((-3, 3, 4), 3), ((-3, 3, 6), 13), ((-3, 3, 17), 3), ((-3, 9, 10), 3),
                      ((-3, 8, 8), 13)):
        point = MarkoffPoint.make(*coords)
        verdict, data = form_isotropic(point)
        assert verdict == "Anisotropic", coords
        assert _anisotropy_prime(point.coords(), factorize(point.k - 4))[0] == p, coords
        assert p in data["places"], coords
        assert brute_isotropy(point) is None
    assert form_isotropic(MarkoffPoint.make(-3, 3, 4)) == ("Anisotropic", {"places": [2, 3]})
    assert form_isotropic(MarkoffPoint.make(-3, 8, 8)) == ("Anisotropic", {"places": [5, 13]})


def test_form_isotropic_decides_every_point():
    # the squarefree-part oracle decides none of these: every coordinate
    # of (-2, 2, 2) is +-2, and at k = 9, k-4 = 5 and no coordinate of
    # (0, 0, 3) has x^2-4 a nonresidue mod 5
    for coords, zero in (((-2, 2, 2), (0, -1, 1)), ((1, 2, 2), (0, -1, 1)),
                         ((0, 0, 3), (1, -1, 1))):
        p = MarkoffPoint.make(*coords)
        assert form_isotropic_by_squarefree_parts(p)[0] == "Inapplicable", coords
        assert form_isotropic(p) == ("Isotropic", {"witness": zero, "witness_bound": WITNESS_BOUND})
        assert form_value(p, *zero) == 0
    p = MarkoffPoint.make(0, 0, 3)
    assert _anisotropy_prime(p.coords(), factorize(p.k - 4)) is None


def test_form_isotropic_refuses_non_integral_points():
    p = MarkoffPoint(15, Fraction(1, 5), Fraction(2, 5), 224)
    assert p in search_localized(224, 5, 2, 30)
    with pytest.raises(ValueError, match="^form_isotropic needs integer coordinates$"):
        form_isotropic(p)
    assert hasse_profile(p).entries == ((2, 1), (5, 1), (11, 1), (13, 1), (17, 1), (INF, 1))
    refused = 0
    for k in range(5, 400):
        if admissible_k(k):
            for ell in (3, 5, 7):
                for q in search_localized(k, ell, 1, 12):
                    if not q.is_integral():
                        with pytest.raises(ValueError, match="integer coordinates"):
                            form_isotropic(q)
                        refused += 1
    assert refused == 1128


def is_square_mod(r, m):
    """Whether x^2 = r (mod m) is solvable, for squarefree m != 0: a
    Jacobi test at each odd prime of m."""
    return all(jacobi(r % p, p) != -1 for p, _ in factorize(m) if p != 2)


def _anisotropy_prime(coords, km4_factors):
    """(p, x): the first odd p with p || k-4 and coordinate x with x^2-4 a
    nonresidue mod p, or None, given km4_factors = factorize(k - 4)."""
    for p, e in km4_factors:
        if p == 2 or e != 1:
            continue
        for x in coords:
            if jacobi(x * x - 4, p) == -1:
                return (p, x)
    return None


def form_isotropic_by_squarefree_parts(point):
    """form_isotropic as it was before it read its verdict off the Hilbert
    symbols, kept as the oracle for it, with the witness scan left out:
    Legendre's criterion on the squarefree parts m, n of x^2 - 4 and
    k - 4 at the first coordinate with x^2 > 4 and gcd(m, n) = 1, and
    "Inapplicable" where there is none."""
    n = squarefree_part(point.k - 4)
    for j, x in enumerate(point.coords()):
        if x * x <= 4:
            continue
        m = squarefree_part(x * x - 4)
        if math.gcd(m, n) != 1:
            continue
        data = {"coordinate": j + 1, "m": m, "n": n}
        if is_square_mod(m, n) and is_square_mod(n, m):
            return "Isotropic", data
        data["anisotropy_prime"] = _anisotropy_prime(point.coords(), factorize(point.k - 4))
        return "Anisotropic", data
    return "Inapplicable", {"reason": "no coordinate with squarefree part coprime to k-4"}


def isotropy_points():
    """Class representatives and random integer points above level 4."""
    points = [r for k in range(5, 1500) if admissible_k(k) for r in class_data(k)]
    rng = random.Random(66)
    return points + [p for p in (random_point(rng, 40) for _ in range(400)) if p.k > 4]


def test_form_isotropic_matches_the_squarefree_part_oracle():
    # where the oracle decides, the verdicts agree and its anisotropy prime
    # is a place without a zero; where it does not, the verdict is backed
    # by a zero or by a box without one
    oracle_verdicts, undecided = set(), 0
    for p in isotropy_points():
        verdict, data = form_isotropic(p)
        expected, expected_data = form_isotropic_by_squarefree_parts(p)
        oracle_verdicts.add(expected)
        if expected != "Inapplicable":
            assert verdict == expected, p
            if expected_data.get("anisotropy_prime"):
                assert expected_data["anisotropy_prime"][0] in data["places"], p
            continue
        undecided += 1
        if verdict == "Isotropic":
            assert form_value(p, *data["witness"]) == 0 and any(data["witness"]), p
        else:
            assert verdict == "Anisotropic" and brute_isotropy(p) is None, p
    assert oracle_verdicts == {"Isotropic", "Anisotropic", "Inapplicable"}
    assert undecided > 100


def test_a_coordinate_of_two_makes_every_symbol_trivial():
    # with x1 = +-2 the level is 4 + (x2 -+ x3)^2, and the form is isotropic
    rng = random.Random(67)
    done = 0
    while done < 300:
        coords = [rng.choice((2, -2)), rng.randint(-60, 60), rng.randint(-60, 60)]
        rng.shuffle(coords)
        p = MarkoffPoint.make(*coords)
        if p.k <= 4 or all(c * c == 4 for c in coords):
            continue
        assert all(v == 1 for _, v in hasse_profile(p).entries), p
        assert form_isotropic(p)[0] == "Isotropic", p
        done += 1


def test_anisotropic_places_are_the_nontrivial_symbols():
    anisotropic = 0
    for p in isotropy_points():
        verdict, data = form_isotropic(p)
        if verdict == "Anisotropic":
            places = data["places"]
            assert places == [q for q, v in hasse_profile(p).entries if v == -1], p
            assert len(places) % 2 == 0 and len(places) >= 2, p
            anisotropic += 1
    assert anisotropic > 1000


def test_form_isotropic_factors_each_argument_once(monkeypatch):
    # over one level's representatives, with the memos cleared: k - 4 and
    # x^2 - 4 at the least |x| of each, which comes first in a
    # representative, each distinct integer once; hasse_profile then
    # reads the memo
    calls = counted_factorize(monkeypatch)
    monkeypatch.setattr(mksurf.quadforms, "_witness_search", lambda point, bound: None)

    def factored(p):
        clear_memos()
        calls.clear()
        form_isotropic(p)
        return list(calls)

    twos = 0
    for k in range(5, 1500):
        if not admissible_k(k):
            continue
        clear_memos()
        calls.clear()
        reps = class_data(k)
        for p in reps:
            form_isotropic(p)
        usable = [p for p in reps if all(x * x != 4 for x in p.coords())]
        assert len(calls) == len(set(calls)), (k, calls)
        assert set(calls) == ({k - 4} if usable else set()) | {
            min(p.coords(), key=abs) ** 2 - 4 for p in usable}, k
        calls.clear()
        for p in usable:
            hasse_profile(p)
        assert calls == [], k
        # a representative with a coordinate +-2 factors nothing, from
        # cleared memos, so no memo hit hides a call it makes
        for p in reps:
            if p not in usable:
                assert factored(p) == [], p
                twos += 1
    assert twos > 10
    # a random point, from cleared memos: nothing with a coordinate +-2;
    # otherwise one evaluation in |x| order, which factors k - 4 and the
    # least x^2 - 4
    rng = random.Random(66)
    twos = 0
    for p in (random_point(rng, 40) for _ in range(400)):
        if p.k <= 4:
            continue
        if any(x * x == 4 for x in p.coords()):
            assert factored(p) == [], p
            twos += 1
        else:
            x = min(p.coords(), key=abs)
            assert factored(p) == list(dict.fromkeys([p.k - 4, x * x - 4])), p
    assert twos > 10


def test_memos_stay_within_their_bound():
    # more distinct levels than either memo holds
    levels = 0
    for k in range(5, 1000):
        if admissible_k(k):
            reps = [p for p in class_data(k) if any(c * c != 4 for c in p.coords())]
            for p in reps:
                hasse_profile(p)
            levels += bool(reps)
    assert levels > MEMO_SIZE
    for memo in (_odd_primes, hasse_profile):
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize == MEMO_SIZE, memo


def test_memoized_results_equal_fresh_ones(monkeypatch):
    # every evaluation with the memos as the earlier ones left them, and
    # again at once (read off the profile memo), equals one from cleared
    # memos; the witness scan, which nothing memoizes, reports the point
    # it was given
    monkeypatch.setattr(mksurf.quadforms, "_witness_search", lambda point, bound: point.coords())
    reps = [r for k in range(5, 1500) if admissible_k(k) for r in class_data(k)]
    as_ints = MarkoffPoint.make(-3, 8, 8)
    as_fractions = MarkoffPoint(Fraction(-3), Fraction(8), Fraction(8), Fraction(329))
    assert as_fractions == as_ints and as_fractions.is_integral()
    points = [p for p in reps + localized_points() + [as_ints, as_fractions, as_ints]
              if any(c * c != 4 for c in p.coords())]

    def evaluate(p):
        return (hasse_profile(p), form_isotropic(p) if p.is_integral() else None)

    warm = [(evaluate(p), evaluate(p)) for p in points]
    assert hasse_profile.cache_info().hits >= len(points)
    assert _odd_primes.cache_info().hits > len(points)
    for p, (first, again) in zip(points, warm):
        clear_memos()
        fresh = evaluate(p)
        assert first == again == fresh, p


def test_factorize_refuses_non_integers_through_the_memo():
    assert _odd_primes(5) == (5,) and _odd_primes(-45) == (3, 5)
    for x in (5.0, Fraction(5), Fraction(5, 3), "5"):
        with pytest.raises(TypeError):
            factorize(x)
        with pytest.raises(TypeError):
            _odd_primes(x)


def test_form_isotropic_verdicts_match_witness_search():
    rng = random.Random(33)
    done = 0
    while done < 40:
        p = random_point(rng, 8)
        if not isinstance(p.k, int) or p.k <= 4:
            continue
        verdict, data = form_isotropic(p)
        w = brute_isotropy(p, bound=25)
        if verdict == "Anisotropic":
            assert w is None, (p, w)
        else:
            assert form_value(p, *data["witness"]) == 0, p
        done += 1


def brute_witness(point, bound):
    """_witness_search's documented answer by plain enumeration: rows
    u1 = 0, 1, -1, 2, -2, ...; in the first row holding a nontrivial zero,
    the least (|u2|, |u3|), made primitive."""
    for u1 in [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)]:
        row = [(abs(u2), abs(u3), (u1, u2, u3))
               for u2 in range(-bound, bound + 1) for u3 in range(-bound, bound + 1)
               if (u1, u2, u3) != (0, 0, 0) and form_value(point, u1, u2, u3) == 0]
        if row:
            w = min(row)[2]
            g = math.gcd(*w)
            return tuple(v // g for v in w)
    return None


def test_witness_search_matches_brute_force():
    points = [rep for k in (329, 460, 3780, 10**4 + 1) for rep in class_data(k)]
    rng = random.Random(55)
    points += [random_point(rng, 12) for _ in range(60)]
    found = 0
    for p in points:
        w = _witness_search(p, 9)
        assert w == brute_witness(p, 9), p
        found += w is not None
    assert 20 < found < len(points)


def test_witness_search_matches_the_row_scan_on_every_class_form():
    reps = [r for k in range(5, 3001) if admissible_k(k) for r in class_data(k)]
    scanned = 0
    for r in reps:
        assert _witness_search(r, 12) == witness_search_by_rows(r, 12), r
        verdict, data = form_isotropic(r)
        if verdict == "Isotropic":
            assert data["witness"] == witness_search_by_rows(r, WITNESS_BOUND), r
            scanned += data["witness"] is not None
    assert scanned > 1500


def test_witness_search_blocks_at_and_past_the_cell_cap(monkeypatch):
    shapes = []
    scan = mksurf.quadforms._square_cells

    def recording(a, lin, c, xs):
        shapes.append((len(a), len(xs)))
        return scan(a, lin, c, xs)

    monkeypatch.setattr(mksurf.quadforms, "_square_cells", recording)
    # no zero at all: the whole box, in blocks of 1, 2, 4, 8, 16 rows and
    # then 27, the most rows of 1201 cells that fit in SCAN_CELLS
    for point in ((1, 3, 3), (0, 3, 4)):
        p = MarkoffPoint.make(*point)
        assert _witness_search(p, WITNESS_BOUND) is None
        assert witness_search_by_rows(p, WITNESS_BOUND) is None
    rows = [r for r, _ in shapes[:len(shapes) // 2]]
    width = 2 * WITNESS_BOUND + 1
    assert rows[:6] == [1, 2, 4, 8, 16, SCAN_CELLS // width] and sum(rows) == WITNESS_BOUND + 1
    assert 27 * width <= SCAN_CELLS < 28 * width
    # rows of 2^15 + 1 cells, each a block of its own: rows 0..3, the zero
    # being in row 3
    shapes.clear()
    p = MarkoffPoint.make(0, 6, 7)
    assert _witness_search(p, 2**14) == witness_search_by_rows(p, 2**14) == (3, -1, -1)
    assert shapes == [(1, 2**15 + 1)] * 4


def test_witness_search_int64_edge():
    # (X - 4, -1, X) has the zero (1, 1, -1); with B = 600 the scan's
    # discriminants fit in int64 while 4 B^2 (X^2 + X + 2) < 2^63
    top = math.isqrt(2**63 // (4 * 600 * 600))
    while 4 * 600 * 600 * (top * top + top + 2) >= 2**63:
        top -= 1
    assert _witness_search(MarkoffPoint.make(top - 4, -1, top), 600) == (1, 1, -1)
    with pytest.raises(BudgetExceeded):
        _witness_search(MarkoffPoint.make(top - 3, -1, top + 1), 600)
    # (1, 1, -1) is a zero here too, but the scan's int64 rows would wrap
    with pytest.raises(BudgetExceeded):
        form_isotropic(MarkoffPoint.make(10**10 + 1, -1, 10**10 + 5))


def test_witness_search_bound_0():
    # bound 0 holds only the trivial vector; coordinates >= 2^63 would
    # still reach numpy's int64 conversion, so the range check covers them
    assert _witness_search(MarkoffPoint.make(10, -1, 14), 0) is None
    with pytest.raises(BudgetExceeded):
        _witness_search(MarkoffPoint.make(2**63 + 1, -1, 2**63 + 5), 0)


def test_k460_nonmtype_equivalence():
    # the two level-460 classes become equivalent through an involution that
    # the move group does not contain, found by solving the shape constraints
    g = [[1, 0, -21], [0, 1, -18], [0, 0, -1]]
    def mat3_mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)] for i in range(3)]

    def mat3_transpose(a):
        return [[a[j][i] for j in range(3)] for i in range(3)]

    x1 = gram(MarkoffPoint.make(-3, 3, 17))
    x2 = gram(MarkoffPoint.make(-3, 9, 10))
    assert mat3_mul(mat3_transpose(g), mat3_mul(x1, g)) == x2
    assert mat3_mul(g, g) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mat3_det(g) == -1
    classes = [c.coords() for c in class_data(460)]
    assert classes == [(-3, 3, 17), (-3, 9, 10)]


def test_integral_points_spelled_with_fractions_are_read_as_ints():
    # descent and isotropy of an integral point with Fraction coordinates
    # and level are those of its int twin, down to the reprs; a point
    # with a non-integer coordinate is still refused by both
    rng = random.Random(40)
    points = [MarkoffPoint.make(-3, 8, 8)]
    for k in range(5, 400):
        if admissible_k(k):
            for r in class_data(k):
                points += [r, apply_move(rng.choice(GENERATORS), apply_move(rng.choice(GENERATORS), r))]
    verdicts = set()
    for p in points:
        twin = MarkoffPoint(*(Fraction(c) for c in p.coords()), Fraction(p.k))
        assert twin.is_integral()
        assert repr(reduce_point(twin)) == repr(reduce_point(p)), p
        clear_memos()
        got = form_isotropic(twin)
        clear_memos()
        assert repr(got) == repr(form_isotropic(p)), p
        verdicts.add((got[0], "witness" in got[1]))
    assert verdicts == {("Anisotropic", False), ("Isotropic", True)}
    bad = MarkoffPoint(15, Fraction(1, 5), Fraction(2, 5), 224)
    assert not bad.is_integral()
    with pytest.raises(ValueError, match="^descent needs integer coordinates$"):
        reduce_point(bad)
    with pytest.raises(ValueError, match="^form_isotropic needs integer coordinates$"):
        form_isotropic(bad)
