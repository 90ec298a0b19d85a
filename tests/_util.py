"""Helpers shared by the test files."""

from mksurf.mat2 import Mat2


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
