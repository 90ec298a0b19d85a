"""Helpers shared by the test files."""

from mksurf.markoff import reduce_point
from mksurf.mat2 import Mat2
from mksurf.rings import INF, factorize, square_class_int


def random_sl2z(rng, length=8, entry=3):
    """Random SL2(Z) element: a word in elementary matrices."""
    m = Mat2(1, 0, 0, 1)
    for _ in range(length):
        e = rng.randint(-entry, entry)
        if rng.random() < 0.5:
            m = m * Mat2(1, e, 0, 1)
        else:
            m = m * Mat2(1, 0, e, 1)
    if rng.random() < 0.5:
        m = -m
    return m


def hilbert_product_places(a, b):
    """The finite set of places where (a,b)_p can be -1: 2, INF and the odd
    primes dividing either square class."""
    places = {2, INF}
    for v in (square_class_int(a), square_class_int(b)):
        for q, _ in factorize(v):
            if q > 2:
                places.add(q)
    return places


def same_orbit(p, q):
    """Whether two integer points lie in one Markoff-group orbit: same
    level and the same reduce_point normal form."""
    if p.k != q.k:
        return False
    return reduce_point(p)[0].coords() == reduce_point(q)[0].coords()


def cyclic_conjugacy_equal(w1, w2):
    """True iff the cyclically reduced words are rotations of one another.

    Independent of words.conjugacy_class_key, whose classes it checks."""
    for w in (w1, w2):
        if not w.is_cyclically_reduced():
            raise ValueError("%r is not cyclically reduced" % (w,))
    if (w1.m, w1.n) != (w2.m, w2.n):
        return False
    return any(w2.runs == r.runs for r in w1.rotations())
