"""Helpers shared by the test files."""

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
