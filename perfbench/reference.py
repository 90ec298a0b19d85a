"""Answers the benchmark checks against, computed without the mksurf code
paths that the benchmark times.

Everything here is plain integer or numpy arithmetic written for the
benchmark: SL2(Z/q) by brute enumeration, conjugacy classes by closing under
conjugation with the generators S and T, the Hasse-failure family predicates
by trial division, Markoff moves, and words evaluated in SL2(Z).
"""

import math

import numpy as np

S_GEN = (0, -1, 1, 0)
T_GEN = (1, 1, 0, 1)


# --- SL2(Z/q) -----------------------------------------------------------------

def _mul(x, y, q):
    """Row-major 2x2 products mod q; x and y are (..., 4) arrays or tuples."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    a = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2]
    b = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 3]
    c = x[..., 2] * y[..., 0] + x[..., 3] * y[..., 2]
    d = x[..., 2] * y[..., 1] + x[..., 3] * y[..., 3]
    return np.stack([a, b, c, d], axis=-1) % q


def _inv(x, q):
    """Inverse of determinant-1 matrices mod q."""
    x = np.asarray(x, dtype=np.int64)
    return np.stack([x[..., 3], -x[..., 1], -x[..., 2], x[..., 0]], axis=-1) % q


def commutator_mod(x, y, q):
    """X Y X^-1 Y^-1 mod q, the orientation mksurf.mat2.commutator uses."""
    return tuple(int(v) for v in _mul(_mul(x, y, q), _mul(_inv(x, q), _inv(y, q), q), q))


class SL2Group:
    """SL2(Z/q): its elements, conjugacy classes and the set of commutators.

    Classes come from closing each element under conjugation by S and T,
    which generate SL2(Z) and hence its image SL2(Z/q). The commutator set
    is a union of classes (g[X, Y]g^-1 = [gXg^-1, gYg^-1]), so it suffices
    to form [X, Y] for one X per class and every Y.
    """

    def __init__(self, q):
        self.q = q
        grid = np.stack(np.meshgrid(*[np.arange(q)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
        det = (grid[:, 0] * grid[:, 3] - grid[:, 1] * grid[:, 2]) % q
        self.elements = grid[det == 1 % q].astype(np.int64)
        codes = self.code(self.elements)
        self._index = np.full(q ** 4, -1, dtype=np.int64)
        self._index[codes] = np.arange(len(codes))
        labels = np.arange(len(codes))
        moves = [self._index[self.code(_mul(_mul(g, self.elements, q), _inv(g, q), q))]
                 for g in (S_GEN, T_GEN)]
        while True:
            new = labels.copy()
            for mv in moves:
                np.minimum.at(new, mv, new)
                new = np.minimum(new, new[mv])
            if np.array_equal(new, labels):
                break
            labels = new
        self.class_of = labels
        self.class_ids = np.unique(labels)
        hit = np.zeros(len(codes), dtype=bool)
        for rep in self.class_ids:
            x = self.elements[rep]
            comm = _mul(_mul(x, self.elements, q), _mul(_inv(x, q), _inv(self.elements, q), q), q)
            hit[self._index[self.code(comm)]] = True
        is_comm_class = np.zeros(len(codes), dtype=bool)
        is_comm_class[np.unique(labels[hit])] = True
        self.is_commutator = is_comm_class[labels]
        self.commutator_traces = sorted({int(v) for v in
                                         (self.elements[self.is_commutator][:, 0]
                                          + self.elements[self.is_commutator][:, 3]) % q})

    def code(self, m):
        m = np.asarray(m, dtype=np.int64) % self.q
        q = self.q
        return ((m[..., 0] * q + m[..., 1]) * q + m[..., 2]) * q + m[..., 3]

    def index(self, m):
        return int(self._index[int(self.code(m))])


# --- Hasse-failure families (Ghosh-Sarnak, Loughran-Mitankin) ------------------

def prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def factors_in(nu, classes, modulus):
    return all(p % modulus in classes for p in prime_factors(nu))


def admissible_k(k):
    """No congruence obstruction at level k: k != 3 (mod 4), k != +-3 (mod 9)."""
    return k % 4 != 3 and k % 9 not in (3, 6)


def hfz_member(k):
    """k lies in one of the three integral Hasse-failure families."""
    d = k - 4
    for coeff, classes, modulus in ((2, {1, 7}, 8), (12, {1, 11}, 12), (20, {1, 19}, 20)):
        if d <= 0 or d % coeff:
            continue
        nu = math.isqrt(d // coeff)
        if nu * nu * coeff != d or not factors_in(nu, classes, modulus):
            continue
        if coeff == 12 and nu * nu % 32 != 25:
            continue
        return True
    return False


def sint_member(k, ell):
    """(k, ell) lies in one of the two Z[1/ell] Hasse-failure families."""
    if not admissible_k(k):
        return False
    d = k - 4
    if d > 0 and d % 2 == 0:
        nu = math.isqrt(d // 2)
        if (2 * nu * nu == d and ell % 8 in (1, 7) and factors_in(nu, {1, 7}, 8)
                and nu % 9 in (0, 3, 4, 5, 6)):
            return True
    if d > 0 and d % 20 == 0:
        nu = math.isqrt(d // 20)
        if (20 * nu * nu == d and ell % 5 in (1, 4) and factors_in(nu, {1, 19}, 20)
                and nu % 9 in (4, 5)):
            return True
    return False


# --- Markoff surface ----------------------------------------------------------

def level(c):
    x1, x2, x3 = c
    return x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3


def apply_move(tag, data, c):
    """One Markoff move on integer coordinates: vieta(j), perm(p), sign(i, j)."""
    x = list(c)
    if tag == "vieta":
        j = data[0] - 1
        others = [x[i] for i in range(3) if i != j]
        x[j] = others[0] * others[1] - x[j]
    elif tag == "perm":
        x = [c[p - 1] for p in data]
    elif tag == "sign":
        for i in data:
            x[i - 1] = -x[i - 1]
    else:
        raise ValueError("unknown move %r" % (tag,))
    return tuple(x)


def small_points(k, limit, count):
    """Up to `count` integer points on the level-k surface with
    |x1|, |x2| <= limit, found by solving the quadratic in x3."""
    x1, x2 = (v.ravel() for v in np.meshgrid(np.arange(-limit, limit + 1),
                                             np.arange(-limit, limit + 1), indexing="ij"))
    p = x1 * x2
    disc = p * p - 4 * (x1 * x1 + x2 * x2 - k)
    ok = disc >= 0
    x1, x2, p, disc = x1[ok], x2[ok], p[ok], disc[ok]
    out = []
    s = np.sqrt(disc.astype(np.float64)).astype(np.int64)
    for i in np.nonzero((s - 1) ** 2 == disc)[0].tolist() + \
            np.nonzero(s * s == disc)[0].tolist() + np.nonzero((s + 1) ** 2 == disc)[0].tolist():
        root = math.isqrt(int(disc[i]))
        if root * root == disc[i] and (p[i] + root) % 2 == 0:
            out.append((int(x1[i]), int(x2[i]), (int(p[i]) + root) // 2))
    return sorted(set(out))[:count]


def replay(path, c):
    for mv in path:
        c = apply_move(mv.tag, mv.data, c)
    return c


# --- words in the embedded free products --------------------------------------

def _mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _mat_pow(x, e):
    if e < 0:
        x, e = (x[3], -x[1], -x[2], x[0]), -e
    out = (1, 0, 0, 1)
    for _ in range(e):
        out = _mat_mul(out, x)
    return out


def word_abs_trace(gens, runs):
    """|Tr| of a word given as ((letter, exponent), ...) under gens."""
    out = (1, 0, 0, 1)
    for g, e in runs:
        out = _mat_mul(out, _mat_pow(gens[g], e))
    return abs(out[0] + out[3])


def normalize(runs, m, n):
    """Free-product normal form: merge equal neighbours, reduce finite exponents."""
    orders = {"a": m, "b": n}
    out = []
    for g, e in runs:
        if out and out[-1][0] == g:
            e += out.pop()[1]
        if orders[g] is not None:
            e %= orders[g]
        if e:
            out.append((g, e))
    return tuple(out)


def parse_word(text, m, n):
    runs = [(tok[0], int(tok[1:]) if len(tok) > 1 else 1) for tok in text.split()]
    return normalize(runs, m, n)


def cyclic_key(runs):
    """Key of the conjugacy class of a cyclically reduced word: in a free
    product of cyclic groups such words are conjugate exactly when their
    syllable sequences are cyclic rotations of each other."""
    runs = tuple(runs)
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        raise ValueError("word %r is not cyclically reduced" % (runs,))
    return min(runs[i:] + runs[:i] for i in range(max(1, len(runs))))


def inverse(runs, m, n):
    return normalize(tuple((g, -e) for g, e in reversed(runs)), m, n)


def in_derived(runs, m, n):
    """Exponent sums vanish in the abelianization Z/m x Z/n."""
    sums = {"a": 0, "b": 0}
    for g, e in runs:
        sums[g] += e
    return all(s % o == 0 if o is not None else s == 0
               for s, o in ((sums["a"], m), (sums["b"], n)))
