"""The ternary form u1^2 + u2^2 + u3^2 + x1 u1 u2 + x2 u1 u3 + x3 u2 u3
attached to a Markoff point (x1, x2, x3) of level k, its local invariant
profiles, and isotropy over Q read off those invariants."""

import functools
import math

from .markoff import SCAN_CELLS, MarkoffPoint, _square_cells
from .rings import (
    INF,
    BudgetExceeded,
    Frozen,
    factorize,
    hilbert_int,
    square_class_int,
)


class HasseProfile(Frozen):
    """Map place -> +-1 for the places where the invariant can be nontrivial."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", entries)  # sorted (place, value) pairs, INF last

    def product(self):
        out = 1
        for _, v in self.entries:
            out *= v
        return out


MEMO_SIZE = 256  # entries in each memo below: odd primes by integer, profiles by point


@functools.lru_cache(maxsize=MEMO_SIZE)
def _odd_primes(n):
    """The odd primes of the nonzero int n, as a sorted tuple: factorize
    runs once per n among the MEMO_SIZE most recent, so the k - 4 of a
    level's representatives, and an x^2 - 4 that hasse_profile and
    form_isotropic both read, are factored once."""
    return tuple(q for q, _ in factorize(n) if q > 2)


def _places(n):
    """2, INF and the odd primes of the nonzero int n: with m another
    nonzero int, (n, m)_p = +1 at every place outside _places(n) |
    _places(m)."""
    return {2, INF, *_odd_primes(n)}


def check_level(k):
    """Refuse a level whose forms are not served: profiles and isotropy
    verdicts need k > 4."""
    if k <= 4:
        raise ValueError("Hasse profiles and isotropy need k > 4")


@functools.lru_cache(maxsize=MEMO_SIZE)
def hasse_profile(point):
    """Invariant profile c_p = (x^2-4, k-4)_p of the form attached to a
    Markoff point, at 2, INF and the odd primes of k - 4 and of x^2 - 4,
    sorted (INF, a float, last), for x the first coordinate with
    x^2 != 4.  The points with every coordinate +-2 lie only on levels 4
    and 20; at level 20 no coordinate is usable, and the profile is
    refused (ValueError), as is k <= 4 (check_level).

    Every usable coordinate gives the same c_p: (x1^2-4)(x2^2-4) =
    (2 x3 - x1 x2)^2 - 4(k-4) is a norm from Q(sqrt(k-4)), so its symbol
    with k - 4 is +1 at every place, over Z and over Z[1/l] alike.  So
    only k - 4 and the first x^2 - 4 are factored, each as its
    square_class_int and once among the MEMO_SIZE most recent integers
    (_odd_primes); each other usable coordinate is checked at each
    reported place, a runtime cross-check on hilbert_int and factorize.
    Profiles are memoized by point, the MEMO_SIZE most recent; the
    cross-check runs on every profile evaluated rather than read back,
    and a refusal is not memoized.  Points compare by value, so one
    spelled with Fraction coordinates reads the entry of its int twin,
    whose profile is the same."""
    check_level(point.k)
    usable = [square_class_int(c * c - 4) for c in point.coords() if c * c != 4]
    if not usable:
        raise ValueError("all coordinates are +-2, so x^2 - 4 = 0 at each and "
                         "(x^2 - 4, k - 4)_p is undefined")
    km4 = square_class_int(point.k - 4)
    a, *others = usable
    entries = tuple((p, hilbert_int(a, km4, p)) for p in sorted(_places(km4) | _places(a)))
    for b in others:
        if any(hilbert_int(b, km4, p) != v for p, v in entries):
            raise ValueError("coordinate profiles disagree at %r" % (point,))
    return HasseProfile(entries)


def _witness_search(point, bound):
    """Nontrivial integer zero of the form attached to point with
    |u_i| <= bound, or None.

    Takes the rows u1 = 0, 1, -1, 2, -2, ... in that order and, in the
    first row holding a zero, the zero with the least (|u2|, |u3|),
    reduced to a primitive vector, so small witnesses come out small.
    The form is even, so the zeros of row -v are the negatives of those of
    row v, which comes first: the first row holding a zero is some v >= 0,
    and only the rows 0, 1, 2, ... are scanned.  They go to
    `_square_cells` in blocks of 1, 2, 4, ... rows of at most SCAN_CELLS
    cells (one row if it alone is wider), and the scan stops at the first
    block holding a zero; its rows after the first such row are scanned
    and ignored.  Each row solves for u3, whose discriminant is
    (x3^2 - 4) u2^2 + (2 x2 x3 - 4 x1) u1 u2 + (x2^2 - 4) u1^2; every cell
    scanned lies in the box, where, summed term by term, it stays at most
    4 B^2 (X^2 + X + 2) in absolute value for X = max|x_i| and B = bound.
    When that bound reaches 2^63, the int64 scan could wrap, so this
    raises BudgetExceeded instead.  The check takes B >= 1, so it also
    covers the coordinates themselves, which enter the int64 arithmetic
    even at bound 0.
    """
    import numpy as np
    x1, x2, x3 = point.coords()
    big = point.maxabs()
    if 4 * max(bound, 1) ** 2 * (big * big + big + 2) >= 2**63:
        raise BudgetExceeded("witness bound %d is outside the exact-arithmetic range "
                             "for coordinates up to %d" % (bound, big))
    u2s = np.arange(-bound, bound + 1, dtype=np.int64)
    cap = max(1, SCAN_CELLS // len(u2s))
    start, size = 0, 1
    while start <= bound:
        # u3 solves t^2 + P t + C with P = x2 u1 + x3 u2 and
        # C = u1^2 + u2^2 + x1 u1 u2, whose discriminant is quadratic in u2
        u1s = np.arange(start, min(start + min(size, cap), bound + 1), dtype=np.int64)
        rows, idx, roots = _square_cells(np.full(len(u1s), x3 * x3 - 4, dtype=np.int64),
                                         (2 * x2 * x3 - 4 * x1) * u1s, (x2 * x2 - 4) * u1s * u1s,
                                         u2s)
        zeros = []
        for u1, u2, r in zip((rows + start).tolist(), u2s[idx].tolist(), roots.tolist()):
            if zeros and u1 != zeros[0][2][0]:
                break
            p = x2 * u1 + x3 * u2
            for u3 in ((-p - r) // 2, (-p + r) // 2):
                if abs(u3) <= bound and (u1, u2, u3) != (0, 0, 0):
                    if (u1 * u1 + u2 * u2 + u3 * u3
                            + x1 * u1 * u2 + x2 * u1 * u3 + x3 * u2 * u3) == 0:
                        zeros.append((abs(u2), abs(u3), (u1, u2, u3)))
        if zeros:
            w = min(zeros)[2]
            g = math.gcd(math.gcd(abs(w[0]), abs(w[1])), abs(w[2]))
            return (w[0] // g, w[1] // g, w[2] // g)
        start += len(u1s)
        size *= 2
    return None


WITNESS_BOUND = 600  # the box |u_i| <= WITNESS_BOUND of the isotropy-witness scan


def form_isotropic(point):
    """Isotropy of the attached form over Q, read off the Hilbert symbols
    c_p = (x^2 - 4, k - 4)_p of hasse_profile.

    Returns (verdict, data) with verdict "Isotropic" or "Anisotropic".
    Isotropic verdicts carry a verified integer zero when one exists
    within WITNESS_BOUND (None and flagged otherwise); a point too large
    for that scan's int64 range raises BudgetExceeded, and one with a
    non-integer coordinate or k <= 4 raises ValueError; Fractions of
    denominator 1 are read as ints, so the result is the int point's.
    Anisotropic verdicts carry the places p where the form has no zero
    over Q_p.

    If a coordinate, say x1, is +-2, then u1^2 + u2^2 + x1 u1 u2 =
    (u1 +- u2)^2, so (1, -+1, 0) is a zero and the form is isotropic.
    Otherwise take any coordinate x and put a = x^2 - 4, b = k - 4.  With
    the two u's that x multiplies taken first, the symmetric matrix G of
    the form u^T G u has leading minors 1, 1 - x^2/4 = -a/4 and
    det G = (4 - k)/4, so the form is <1, -a/4, b/a>, which is
    <1, -a, ab> up to squares.  That form has a zero over Q_v exactly
    when (a, -ab)_v = (a, -a)_v (a, b)_v = (a, b)_v is +1, and by
    Hasse-Minkowski it has one over Q exactly when it has one at every
    place: the -1 entries of hasse_profile (never INF, as b > 0; even in
    number, by Hilbert reciprocity).  It is called on the coordinates
    ordered by |x|, which keeps the level and every symbol, so the
    x^2 - 4 it factors is the least.  A class representative is in that
    order already, so its profile, once evaluated, is read off the memo.
    """
    if not point.is_integral():
        raise ValueError("form_isotropic needs integer coordinates")
    check_level(point.k)
    point = MarkoffPoint(*map(int, point.coords()), int(point.k))
    coords = point.coords()
    if all(x * x != 4 for x in coords):
        ordered = MarkoffPoint(*sorted(coords, key=abs), point.k)
        places = [p for p, v in hasse_profile(ordered).entries if v == -1]
        if places:
            return "Anisotropic", {"places": places}
    w = _witness_search(point, WITNESS_BOUND)
    data = {"witness": w, "witness_bound": WITNESS_BOUND}
    if w is None:
        data["flag"] = "criterion only: no zero within bound"
    return "Isotropic", data
