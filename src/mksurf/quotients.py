"""SL2(Z/q) as a group table, its commutator classes, a commutator test
read off them, and the set of commutator traces.

`group_table(q)` enumerates SL2(Z/q) once per process, straight into its
arrays (the run lemma, `_elements`), and keeps, for every element, the
id of its conjugacy class and a conjugator g_e with e = g_e r g_e^-1 for
the class representative r; `sl2_tuples(q)` lists the elements, under
the table's modulus checks. An element is found from its entries in
O(1) (`GroupTable.index`). Classes are the connected components of
conjugation by S = [[0,-1],[1,0]] and T = [[1,1],[0,1]], which generate
SL2(Z) and so every SL2(Z/q), composite q included; the conjugates are
read off closed entry formulas, and the conjugators are the paths of a
breadth-first tree grown from the representatives.

Being a commutator is a class function, and the table finds the
commutator classes in one pass over the group (Ore's identity,
`GroupTable.ore`): [X, Y] = X (Y X Y^-1)^-1, and r c^-1 = [r, g_c] when
c = g_c r g_c^-1, so the commutators are the union over the classes C
of C C^-1, and each commutator class K holds some r c^-1 with r the
representative of c's class. The table keeps the least such c for
every K, and with it a witness pair for K's representative k: with
r c^-1 = g_i k g_i^-1, k = [A_K, B_K] for A_K = g_i^-1 r g_i and
B_K = g_i^-1 g_c g_i (`GroupTable.witness`). A commutator test is then
a lookup and a conjugation, Z = g_Z k g_Z^-1 = [g_Z A_K g_Z^-1,
g_Z B_K g_Z^-1]; these are gamma r gamma^-1 and gamma g_c gamma^-1 for
gamma = g_Z g_i^-1, which carries r c^-1 to Z. The table keeps the
traces of the commutator-class representatives too, the
commutator-trace image (`GroupTable.traces`). Tables are cached (the 16
most recent moduli); the one at q = 64 keeps about 4 MB.

The arithmetic of SL2(Z/q) on entry quadruples, the product `_mul`, the
inverse `_inv` and the wrap `_mat` into a Mat2 over Z/q, lives in `mat2`:
the tables run those kernels on arrays, and `mat2.commutator` on ints.
"""

import functools

import numpy as np

from .mat2 import Mat2, _inv, _mat, _mul
from .rings import BudgetExceeded, residue


# The table at q = 128 holds 1.6e6 elements (about 1 s and 124 MB to build,
# 32 MB at rest) and the tables grow like q^3.
MAX_MODULUS = 128

# S, T and T^-1, row-major: the moves of the class search.  S^-1 = -S and
# -I is central, so conjugating by S^-1 is conjugating by S, and S runs
# first at every level of the breadth-first tree, so S^-1 would add no node.
_GENERATORS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1))

# the commutator-class pass takes the elements in blocks of this many
_TEST_BLOCK = 4096


def _check_modulus(q):
    if q < 2:
        raise ValueError("modulus must be at least 2, got %d" % q)
    if q > MAX_MODULUS:
        raise BudgetExceeded("modulus %d exceeds the ceiling %d" % (q, MAX_MODULUS))


def _elements(q):
    """The elements of SL2(Z/q) in lexicographic order, as the columns of a
    4 x n uint8 array, with the `start` and `step` arrays of `index`.

    Run lemma: fix (a, b, c), put g = gcd(a, q) and step = q / g. Then
    a d = 1 + b c (mod q) is solvable iff g | 1 + b c, and its solutions
    are d0 + k step, k < g, with d0 = ((1 + b c)/g) (a/g)^-1 mod step
    (a = 0: g = q, step = 1, d0 = 0). As d0 < step, a outermost, (b, c)
    row-major and k innermost is lexicographic order.
    """
    t = np.arange(q, dtype=np.int32)
    g = np.gcd(t, q)
    rhs = (1 + np.multiply.outer(t, t)) % q  # 1 + b c at [b, c]
    runs = np.where(rhs % g[:, None, None] == 0, g[:, None, None], 0)
    start = np.cumsum(runs, dtype=np.int32) - runs.ravel()
    out = np.empty((4, int(runs.sum())), dtype=np.uint8)
    for a, ga in enumerate(g.tolist()):
        pos, step = start[a * q * q], q // ga
        bc = np.nonzero(runs[a])
        end = pos + ga * len(bc[0])
        d0 = rhs[bc] // ga * pow(a // ga, -1, step) % step
        out[0, pos:end] = a
        out[1:3, pos:end] = np.repeat(bc, ga, axis=1)
        out[3, pos:end] = (d0[:, None] + step * np.arange(ga)).ravel()
    return out, start, q // g


def _conjugates(a, b, c, d, q):
    """g X g^-1 for g = S, T, T^-1 and X = [[a, b], [c, d]], one at a time."""
    yield d, -c % q, -b % q, a
    yield (a + c) % q, (b + d - a - c) % q, c, (d - c) % q
    yield (a - c) % q, (b - d + a - c) % q, c, (d + c) % q


def sl2_tuples(q):
    """All (a, b, c, d) with a*d - b*c = 1 (mod q), in lexicographic order."""
    return list(zip(*group_table(q).entries.tolist()))


def _conjugate(g, m, q):
    """g M g^-1 mod q for entry quadruples of ints or arrays, g of
    determinant 1 mod q."""
    p, s, t, u = g
    a, b, c, d = m
    e, f, h, k = p * a + s * c, p * b + s * d, t * a + u * c, t * b + u * d
    return ((e * u - f * t) % q, (f * p - e * s) % q,
            (h * u - k * t) % q, (k * p - h * s) % q)


class GroupTable:
    """SL2(Z/q) with its conjugacy classes; element i is column i of
    `entries`, `cls[i]` is the index of its class representative,
    column i of `conj` is g_i with element i = g_i rep g_i^-1, and
    `ore[cls[i]]` is the least c with rep(c) c^-1 in element i's class,
    or -1 when that class holds no commutator. `witness` maps the id k
    of each commutator class to entry quadruples (A, B) with
    k = [A, B], and `traces` is the frozenset of the traces of those k.

    The commutator classes take one pass over the group (Ore 1951). For X
    in a class C, [X, Y] = X (Y X Y^-1)^-1 and Y X Y^-1 runs over C with
    Y, so the set K of commutators is the union of C C^-1 over the
    classes; conversely a b^-1 = [a, g] when b = g a g^-1. K is a union
    of classes, and h a b^-1 h^-1 = r (h b h^-1)^-1 with h a h^-1 = r, the
    representative of C, puts every a b^-1 in the class of some r c^-1
    with c in C, itself in C C^-1. So K is the union of the classes of
    r c^-1 over every element c, with r the representative of c's class:
    one product, `index` and `cls` per element, in blocks of
    `_TEST_BLOCK`. As c = g_c r g_c^-1, r c^-1 = [r, g_c], so the least
    such c of each commutator class is a witness for the whole class:
    with i the index of r c^-1 and k = g_i^-1 (r c^-1) g_i its
    representative, k = [A, B] for A = g_i^-1 r g_i and B = g_i^-1 g_c g_i,
    and any Z = g_Z k g_Z^-1 of the class is [g_Z A g_Z^-1, g_Z B g_Z^-1].
    The pairs and traces read only the columns of the commutator classes.
    """

    def __init__(self, q):
        # q <= 128: indices and q^3 stay below 2^31, entries below 256
        _check_modulus(q)
        self.q = q
        self.entries, self.start, self.step = _elements(q)
        a, b, c, d = self.elements()
        n = self.entries.shape[1]
        # each move's entries are built just before its index call, so
        # only one move's temporaries are alive at a time
        moves = [self.index(x) for x in _conjugates(a, b, c, d, q)]
        # class id = least index in the class: spread minima along the moves
        # (np.take gathers faster than fancy indexing; the minimum is taken
        # in place, so the loop faults in fewer fresh pages)
        cls = np.arange(n, dtype=np.int32)
        while True:
            new = np.take(cls, cls)
            for mv in moves:
                np.minimum(new, np.take(new, mv), out=new)
            if np.array_equal(new, cls):
                break
            cls = new
        self.cls = cls
        # the commutator classes and their least e: the class of r e^-1 for
        # every element e, with r the representative of e's class (class
        # docstring); np.minimum.at, as a fancy assignment with repeated
        # indices leaves which value lands unspecified
        ore = np.full(n, n, dtype=np.int32)
        for lo in range(0, n, _TEST_BLOCK):
            blk = slice(lo, lo + _TEST_BLOCK)
            r = tuple(np.take(v, cls[blk]) for v in (a, b, c, d))
            e_inv = (d[blk], -b[blk], -c[blk], a[blk])
            np.minimum.at(ore, np.take(cls, self.index(_mul(r, e_inv, q))),
                          np.arange(lo, min(lo + _TEST_BLOCK, n), dtype=np.int32))
        self.ore = np.where(ore == n, -1, ore)
        del a, b, c, d
        self.reps = np.flatnonzero(cls == np.arange(n, dtype=np.int32))
        # breadth-first tree from every representative at once
        self.conj = np.zeros((4, n), dtype=np.uint8)
        self.conj[:, self.reps] = np.array((1 % q, 0, 0, 1 % q), dtype=np.uint8)[:, None]
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
                self.conj[:, nxt] = _mul(g, self.conj[:, src].astype(np.int32), q)
                grown.append(nxt)
            frontier = np.concatenate(grown)
        # each commutator class k, its least c and i = index(r c^-1)
        ks = self.reps[self.ore[self.reps] >= 0]
        cs = self.ore[ks]
        r = tuple(self.entries[:, cls[cs]].astype(np.int32))
        i = self.index(_mul(r, _inv(tuple(self.entries[:, cs].astype(np.int32)), q), q))
        g_i = tuple(self.conj[:, i].astype(np.int32))
        g_c = tuple(self.conj[:, cs].astype(np.int32))
        g_inv = _inv(g_i, q)
        pairs = (zip(*(v.tolist() for v in _conjugate(g_inv, m, q))) for m in (r, g_c))
        self.witness = dict(zip(ks.tolist(), zip(*pairs)))
        ka, _, _, kd = self.entries[:, ks].astype(np.int32)
        self.traces = frozenset(((ka + kd) % q).tolist())

    def elements(self):
        """Entry quadruple of every element, as arithmetic arrays."""
        return tuple(self.entries.astype(np.int32))

    def index(self, m):
        """Position of the element(s) with entries m, which must lie in SL2(Z/q).

        By the run lemma (`_elements`) the element with entries (a, b, c, d)
        sits d // step[a] places into the run that starts at
        `start[(a q + b) q + c]`. (At a triple with no solution the result
        means nothing.) The entries are Python ints or int32/int64 arrays:
        a uint8 array (as in `entries`) would overflow in (a q + b) q + c,
        so widen it first (`elements`).
        """
        q = self.q
        a, b, c, d = m
        return self.start[(a * q + b) * q + c] + d // self.step[a]


group_table = functools.lru_cache(maxsize=16)(GroupTable)


def commutator_test_modq(z, q):
    """Is Z a commutator in SL2(Z/q)?  Returns (bool, witness (X, Y) or None).
    Z's entries are reduced by `rings.residue`.  Both answer and witness
    are lookups in the table: Z's class k is a commutator class when
    `witness` holds a pair (A, B) for it, and then, with Z = g_Z k g_Z^-1
    (g_Z column Z of `conj`), Z = [g_Z A g_Z^-1, g_Z B g_Z^-1]."""
    _check_modulus(q)
    z = tuple(residue(v, q) for v in (z.entries() if isinstance(z, Mat2) else z))
    if (z[0] * z[3] - z[1] * z[2]) % q != 1:
        raise ValueError("Z must have determinant 1 mod %d" % q)
    ident = (1 % q, 0, 0, 1 % q)
    if z == ident:
        return True, (_mat(ident, q), _mat(ident, q))
    table = group_table(q)
    iz = table.index(z)
    pair = table.witness.get(int(table.cls[iz]))
    if pair is None:
        return False, None
    g = table.conj[:, iz].tolist()
    return True, tuple(_mat(_conjugate(g, m, q), q) for m in pair)


def trace_commutator_image(q):
    """The set { Tr [X, Y] mod q : X, Y in SL2(Z/q) }: the traces of the
    representatives of the commutator classes.

    By Ore's identity [X, Y] = X (Y X Y^-1)^-1 the commutators are the
    union of C C^-1 over the conjugacy classes C (a b^-1 = [a, g] when
    b = g a g^-1), a union of classes, which `GroupTable.ore` marks in one
    pass over the group; the trace is a class function, so each marked
    class gives one trace, and the table keeps them (`GroupTable.traces`).
    Each call returns a fresh set.
    """
    return set(group_table(q).traces)
