"""Helpers shared by the test files."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from mksurf.markoff import (
    MarkoffPoint,
    _descent_step,
    _double_signs,
    _family_canonical,
    _floor_families,
    _integral_coords,
    default_class_bound,
    level,
    reduce_point,
)
from mksurf.mat2 import Mat2
from mksurf.quotients import _inv, _mul, group_table
from mksurf.rings import INF, factorize, square_class_int
from mksurf.words import _EMBED_WORDS, SRingElem, Word, _min_rotation


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


def random_point(rng, span):
    """A random integer point with every coordinate in [-span, span], at
    the level it lies on."""
    return MarkoffPoint.make(rng.randint(-span, span), rng.randint(-span, span),
                             rng.randint(-span, span))


def squarefree_part(n):
    """The squarefree m with n = m * s**2, sign preserved."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    m = -1 if n < 0 else 1
    for p, e in factorize(n):
        if e % 2:
            m *= p
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


def form_value(point, u1, u2, u3):
    """The form attached to a point, u1^2 + u2^2 + u3^2 + x1 u1 u2
    + x2 u1 u3 + x3 u2 u3, at (u1, u2, u3)."""
    x1, x2, x3 = point.coords()
    return u1 * u1 + u2 * u2 + u3 * u3 + x1 * u1 * u2 + x2 * u1 * u3 + x3 * u2 * u3


def gram(point):
    """The Gram matrix of the form attached to a point: twice the form is
    u^T G u."""
    x1, x2, x3 = point.coords()
    return [[2, x1, x2], [x1, 2, x3], [x2, x3, 2]]


def mul_monomial(elem, i, j, c=1):
    """The SRingElem elem times c x^i y^j, term by term."""
    return SRingElem(elem.m, elem.n, [((i1 + i, j1 + j), c1 * c)
                                      for (i1, j1), c1 in elem.coeffs.items()])


def square_roots(d):
    """Exact square test over an int64 array d on fresh arrays: the indices
    where d >= 0 is a perfect square and the root there (the float root is
    exact there, as markoff._square_cells proves)."""
    s = np.sqrt(np.maximum(d, 0)).astype(np.int64)
    idx = np.flatnonzero(s * s == d)
    return idx, s[idx]


def square_cells_fresh(a, b, c, xs):
    """markoff._square_cells on fresh arrays: the rectangle
    a_r x^2 + b_r x + c_r (b None for zero) built as one new int64 array
    and tested by square_roots."""
    d = a[:, None] * (xs * xs)
    if b is not None:
        d += b[:, None] * xs
    d += c[:, None]
    idx, roots = square_roots(d.ravel())
    return idx // len(xs), idx % len(xs), roots


def integral_coords_by_rows(k, b):
    """markoff._integral_coords one row at a time, over a superset of its
    rows: row x1 scans x2 in [x1, top(x1)] with its own square_roots call,
    top(x1) being b for x1 <= 3 and the (a), (b), (c) limit of
    search_integral for x1 >= 4, and the scan stops at the first row with
    top < x1.  No bottom, and no row limits below x1 = 4."""
    base = set()
    squares = np.arange(0, b + 1, dtype=np.int64) ** 2
    for x1 in range(0, b + 1):
        top = b if x1 <= 3 else min(b, max((b - 1) // (x1 - 1),
                                         math.isqrt(k // (x1 + 2)) if k > 0 else -1,
                                         math.isqrt(-k // (x1 - 3)) if k < 0 else -1))
        if top < x1:
            break
        d = squares[x1:top + 1] * (x1 * x1 - 4)
        d += 4 * (k - x1 * x1)
        idx, roots = square_roots(d)
        for x2, r in zip((idx + x1).tolist(), roots.tolist()):
            for x3 in ((x1 * x2 - r) // 2, (x1 * x2 + r) // 2):
                if x2 <= abs(x3) <= b:
                    base.add((x1, x2, x3))
    return sorted({c for p in base if level(*p) == k for c in _double_signs(*p)})


def class_data_by_every_point(k):
    """markoff.class_data as it was before it walked base triples only,
    kept as the oracle for that: the same family walk from each floor
    point of the box not yet walked, over every point of the search,
    double-sign images included."""
    reps = []
    walked = set()
    for c in _integral_coords(k, default_class_bound(k)):
        if _family_canonical(c) in walked or _descent_step(c) is not None:
            continue
        families = _floor_families(c)
        walked.update(families)
        reps.append(max(families))
    return sorted(reps)


def witness_search_by_rows(point, bound):
    """quadforms._witness_search one row at a time, in the order
    u1 = 0, 1, -1, 2, -2, ..., each row with its own square_roots call."""
    x1, x2, x3 = point.coords()
    u2s = np.arange(-bound, bound + 1, dtype=np.int64)
    squares = u2s * u2s
    for u1 in [0] + [s * v for v in range(1, bound + 1) for s in (1, -1)]:
        d = squares * (x3 * x3 - 4)
        d += u2s * ((2 * x2 * x3 - 4 * x1) * u1)
        d += (x2 * x2 - 4) * u1 * u1
        idx, roots = square_roots(d)
        row = []
        for u2, r in zip(u2s[idx].tolist(), roots.tolist()):
            p = x2 * u1 + x3 * u2
            for u3 in ((-p - r) // 2, (-p + r) // 2):
                if abs(u3) <= bound and (u1, u2, u3) != (0, 0, 0):
                    if form_value(point, u1, u2, u3) == 0:
                        row.append((abs(u2), abs(u3), (u1, u2, u3)))
        if row:
            w = min(row)[2]
            g = math.gcd(math.gcd(abs(w[0]), abs(w[1])), abs(w[2]))
            return (w[0] // g, w[1] // g, w[2] // g)
    return None


def modular_word(m, n, w):
    """The u,v-word of an element of the embedded free product: the image
    runs of its letters, concatenated and normalized once."""
    images = _EMBED_WORDS[(m, n)]
    runs = []
    for g, e in w.runs:
        img = images[g] if e > 0 else tuple((h, -f) for h, f in reversed(images[g]))
        runs.extend(img * abs(e))
    return Word.make(tuple(runs), 2, 3)


def psl2_class_reps_by_search(t):
    """words.psl2_class_reps by a depth-first search over positive words in
    R = -UV and S = -UV^2: appending R or S to a nonnegative matrix never
    lowers its trace, so a prefix of trace above t is pruned."""
    r, s = Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)
    reps = []
    seen = set()

    def dfs(seq, mat):
        tr = mat.a + mat.d
        if tr > t or len(seq) > t:
            return
        if tr == t and seq:
            key = _min_rotation(seq)
            if key not in seen:
                seen.add(key)
                runs = []
                for e in seq:
                    runs.extend((("u", 1), ("v", e)))
                reps.append(Word.make(tuple(runs), 2, 3))
        for e, f in ((1, r), (2, s)):
            dfs(seq + (e,), mat * f)

    dfs((), Mat2(1, 0, 0, 1))
    return sorted(reps, key=lambda w: (w.length(), w.runs))


def conjugator(table, i, j):
    """gamma = g_j g_i^-1 from a quotients.GroupTable, so gamma e_i gamma^-1
    = e_j when table.cls[i] == table.cls[j]."""
    q = table.q
    gi, gj = (tuple(int(v) for v in table.conj[:, k]) for k in (i, j))
    return _mul(gj, _inv(gi, q), q)


def commutator_witness_by_conjugator(z, q):
    """The witness pair of quotients.commutator_test_modq built per query
    from the Ore element, as entry quadruples, for a reduced Z other than
    the identity; None when Z is no commutator.  With c = ore[cls[Z]], r
    the representative of c's class and c = g_c r g_c^-1, r c^-1 =
    [r, g_c], and gamma = conjugator(index(r c^-1), Z) carries it to Z:
    Z = [gamma r gamma^-1, gamma g_c gamma^-1]."""
    table = group_table(q)
    iz = int(table.index(z))
    c = int(table.ore[table.cls[iz]])
    if c < 0:
        return None
    r, g_c = table.entries[:, table.cls[c]].tolist(), table.conj[:, c].tolist()
    r_c_inv = _mul(r, _inv(table.entries[:, c].tolist(), q), q)
    gamma = conjugator(table, int(table.index(r_c_inv)), iz)
    return tuple(_mul(_mul(gamma, m, q), _inv(gamma, q), q) for m in (r, g_c))


def check_frozen_like_dataclass(cls, fields, other):
    """cls(*fields) behaves as the frozen dataclass of the same name and
    fields (cls.__slots__) would: positional and keyword construction,
    equality against cls(*other) and against other classes, hash, repr,
    refused assignment and deletion, copies and pickles."""
    ref = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    obj, twin = cls(*fields), ref(*fields)
    assert repr(obj) == repr(twin) and hash(obj) == hash(twin)
    assert obj == cls(*fields) == cls(**dict(zip(cls.__slots__, fields)))
    assert obj != cls(*other) and obj != twin and obj != tuple(fields)
    assert all(getattr(obj, f) == getattr(twin, f) for f in cls.__slots__)
    with pytest.raises(AttributeError):
        setattr(obj, cls.__slots__[0], None)
    with pytest.raises(AttributeError):
        delattr(obj, cls.__slots__[0])
    assert copy.copy(obj) == copy.deepcopy(obj) == pickle.loads(pickle.dumps(obj)) == obj
