"""SL2(Z/q) as a group table, a commutator test read off its conjugacy
classes, and the set of commutator traces.

`group_table(q)` enumerates SL2(Z/q) once per process and keeps, for
every element, its sorted integer code (located with `np.searchsorted`),
the id of its conjugacy class and a conjugator g_e with e = g_e r g_e^-1
for the class representative r. Classes are the connected components of
conjugation by S = [[0,-1],[1,0]] and T = [[1,1],[0,1]], which generate
SL2(Z) and so every SL2(Z/q), composite q included; the conjugators are
the paths of a breadth-first tree grown from the representatives.

Z = [X, Y] = X Y X^-1 Y^-1 says Y W Y^-1 = W Z for W = X^-1, so Z is a
commutator exactly when some W is conjugate to W Z: one vectorized
class-id comparison over the group, with the witness X = W^-1,
Y = g_{WZ} g_W^-1 read from the tree. Tables are cached (the 16 most
recent moduli); the one at q = 64 keeps about 3 MB.
"""

import functools
import itertools
import math

import numpy as np

from .mat2 import Mat2, mat_mod
from .rings import BudgetExceeded, ModInt


# The table at q = 128 holds 1.6e6 elements (a few seconds, about 190 MB)
# and the tables grow like q^3.
MAX_MODULUS = 128

# S, T and their inverses, row-major
_GENERATORS = ((0, -1, 1, 0), (1, 1, 0, 1), (0, 1, -1, 0), (1, -1, 0, 1))


def _check_modulus(q):
    if q < 2:
        raise ValueError("modulus must be at least 2, got %d" % q)
    if q > MAX_MODULUS:
        raise BudgetExceeded("modulus %d exceeds the ceiling %d" % (q, MAX_MODULUS))


def sl2_tuples(q):
    """All (a, b, c, d) with a*d - b*c = 1 (mod q), in lexicographic order."""
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


def _mul(x, y, q):
    """X Y mod q for row-major entry quadruples of ints or arrays."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q,
            (c * e + d * g) % q, (c * f + d * h) % q)


def _inv(x, q):
    """X^-1 mod q for determinant 1."""
    a, b, c, d = x
    return (d % q, -b % q, -c % q, a % q)


class GroupTable:
    """SL2(Z/q) with its conjugacy classes; element i is column i of
    `entries`, `cls[i]` is the index of its class representative and
    column i of `conj` is g_i with element i = g_i rep g_i^-1."""

    def __init__(self, q):
        self.q = q
        # group_table keeps q <= 128: codes stay below q^4 < 2^31, entries below 256
        self.itype = np.int32
        etype = np.uint8
        tuples = sl2_tuples(q)
        self.entries = np.fromiter(itertools.chain.from_iterable(tuples), dtype=etype,
                                   count=4 * len(tuples)).reshape(-1, 4).T.copy()
        del tuples
        elems = self.elements()
        self.codes = self.code(elems)  # sorted: sl2_tuples is lexicographic
        n = len(self.codes)
        moves = [self.index(_mul(_mul(g, elems, q), _inv(g, q), q)).astype(self.itype)
                 for g in _GENERATORS]
        del elems
        # class id = least index in the class: spread minima along the moves
        cls = np.arange(n, dtype=self.itype)
        while True:
            new = cls[cls]
            for mv in moves:
                new = np.minimum(new, new[mv])
            if np.array_equal(new, cls):
                break
            cls = new
        self.cls = cls
        self.reps = np.flatnonzero(cls == np.arange(n))
        # breadth-first tree from every representative at once
        self.conj = np.zeros((4, n), dtype=etype)
        self.conj[:, self.reps] = np.array((1 % q, 0, 0, 1 % q), dtype=etype)[:, None]
        seen = np.zeros(n, dtype=bool)
        seen[self.reps] = True
        frontier = self.reps
        while frontier.size:
            grown = []
            for g, mv in zip(_GENERATORS, moves):
                nxt = mv[frontier]
                fresh = ~seen[nxt]
                nxt, src = nxt[fresh], frontier[fresh]
                seen[nxt] = True
                self.conj[:, nxt] = _mul(g, self.conj[:, src].astype(self.itype), q)
                grown.append(nxt)
            frontier = np.concatenate(grown)

    def elements(self):
        """Entry quadruple of every element, as arithmetic arrays."""
        return tuple(self.entries.astype(self.itype))

    def code(self, m):
        q = self.q
        a, b, c, d = (np.asarray(v, dtype=self.itype) for v in m)
        return ((a * q + b) * q + c) * q + d

    def index(self, m):
        """Position of the element(s) with entries m."""
        return np.searchsorted(self.codes, self.code(m))

    def conjugator(self, i, j):
        """gamma = g_j g_i^-1, so gamma e_i gamma^-1 = e_j when cls[i] == cls[j]."""
        gi, gj = (tuple(int(v) for v in self.conj[:, k]) for k in (i, j))
        return _mul(gj, _inv(gi, self.q), self.q)


@functools.lru_cache(maxsize=16)
def group_table(q):
    _check_modulus(q)
    return GroupTable(q)


def _as_tuple_mod(z, q):
    if isinstance(z, Mat2):
        vals = [e.v if isinstance(e, ModInt) else e for e in z.entries()]
        return tuple(val % q for val in vals)
    return tuple(v % q for v in z)


def commutator_test_modq(z, q):
    """Is Z a commutator in SL2(Z/q)?  Returns (bool, witness (X, Y) or None)."""
    _check_modulus(q)
    z = _as_tuple_mod(z, q)
    if (z[0] * z[3] - z[1] * z[2]) % q != 1:
        raise ValueError("Z must have determinant 1 mod %d" % q)
    ident = (1 % q, 0, 0, 1 % q)
    if z == ident:
        return True, (mat_mod(Mat2(*ident), q), mat_mod(Mat2(*ident), q))
    table = group_table(q)
    wz = table.index(_mul(table.elements(), z, q))
    hits = np.flatnonzero(table.cls[wz] == table.cls)
    if not hits.size:
        return False, None
    w = int(hits[0])
    x = _inv(tuple(int(v) for v in table.entries[:, w]), q)
    y = table.conjugator(w, int(wz[w]))
    return True, (mat_mod(Mat2(*x), q), mat_mod(Mat2(*y), q))


def trace_commutator_image(q):
    """The set { Tr W(X, Y) mod q : X, Y in SL2(Z/q) }.

    Uses the trace identity Tr W = M(Tr X, Tr Y, Tr XY) - 2, so only the
    three traces are needed; Tr W(X, Y) is invariant under simultaneous
    conjugation, so X runs over class representatives and Y, vectorized,
    over the whole group.
    """
    _check_modulus(q)
    table = group_table(q)
    ya, yb, yc, yd = table.elements()
    x2 = (ya + yd) % q
    image = set()
    full = set(range(q))
    for r in table.reps:
        a, b, c, d = (int(v) for v in table.entries[:, r])
        x1 = (a + d) % q
        x3 = (a * ya + b * yc + c * yb + d * yd) % q
        tr = (x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3 - 2) % q
        image.update(np.unique(tr).tolist())
        if len(image) == q:
            return full
    return image
