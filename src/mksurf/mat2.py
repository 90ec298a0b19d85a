"""2x2 matrix algebra over the supported rings, adjugate/trace identities,
trace sets, conjugacy in SL2 over prime fields, and conic point counts."""

from dataclasses import dataclass

from .rings import ModInt, is_probable_prime, legendre


@dataclass(frozen=True)
class Mat2:
    """Row-major [[a, b], [c, d]] with entries in a common ring."""

    a: object
    b: object
    c: object
    d: object

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    def identity_like(self):
        zero = self.a - self.a  # keeps a ModInt's q
        one = zero + 1
        return Mat2(one, zero, zero, one)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other):
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def scale(self, s):
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def adjugate(self):
        return Mat2(self.d, -self.b, -self.c, self.a)

    def transpose(self):
        return Mat2(self.a, self.c, self.b, self.d)

    def inverse(self):
        """The SL2 inverse: the adjugate of a determinant-1 matrix."""
        det = self.det()
        if det != 1:
            raise ValueError("inverse needs determinant 1, got %r" % (det,))
        return self.adjugate()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.identity_like()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def map(self, f):
        return Mat2(f(self.a), f(self.b), f(self.c), f(self.d))

    def __repr__(self):
        return "[[%r, %r], [%r, %r]]" % (self.a, self.b, self.c, self.d)


def mat_mod(m, q):
    """Reduce an integer (or ModInt) matrix modulo q."""
    def red(x):
        if isinstance(x, ModInt):
            return ModInt(x.v, q)
        return ModInt(x, q)

    return m.map(red)


def commutator(x, y):
    """W(X, Y) = X Y X^-1 Y^-1."""
    return x * y * x.inverse() * y.inverse()


def fricke_level(x, y):
    """M(Tr X, Tr Y, Tr XY); equals Tr W(X,Y) + 2 when det X = det Y = 1."""
    if x.det() != 1 or y.det() != 1:
        raise ValueError("fricke_level needs determinant-1 matrices")
    x1 = x.trace()
    x2 = y.trace()
    x3 = (x * y).trace()
    return x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3


def in_trace_set(z, x):
    """X in S(Z): det X = 1 and Tr(ZX) = Tr(X)."""
    return x.det() == 1 and (z * x).trace() == x.trace()


def count_conic_modp(delta, n, p):
    """Number of (x, y) mod p with x^2 - delta*y^2 = n, by the closed form.

    Three cases by divisibility; cross-checked elsewhere against exhaustive
    counting.
    """
    if p == 2 or not is_probable_prime(p):
        raise ValueError("p must be an odd prime")
    delta %= p
    n %= p
    if n != 0 and delta == 0:
        return (1 + legendre(n, p)) * p
    if n != 0:
        return p - legendre(delta, p)
    chi = legendre(delta, p) if delta else 0
    return p * (1 + chi) - chi


def _canonical_conjugator(a, p):
    """gamma in SL2(Z/p) with gamma^-1 * A * gamma = [[0,1],[-1,t]].

    Exists whenever Tr A is not +-2 (single conjugacy class); found by
    scanning for a column vector v with det [v, -A v] = 1.
    """
    for v1 in range(p):
        for v2 in range(p):
            if v1 == 0 and v2 == 0:
                continue
            w1 = -(a.a.v * v1 + a.b.v * v2) % p
            w2 = -(a.c.v * v1 + a.d.v * v2) % p
            if (v1 * w2 - v2 * w1) % p == 1:
                return Mat2(ModInt(v1, p), ModInt(w1, p), ModInt(v2, p), ModInt(w2, p))
    return None


def sl2_conjugacy_test_modp(a, b, p):
    """Decide SL2(Z/p)-conjugacy of A and B; returns (bool, gamma or None).

    For trace != +-2 both sides are compared through the canonical
    companion form; the exceptional traces are read off the conjugacy
    classes of `quotients.group_table(p)`, which raises BudgetExceeded for
    p above the default modulus cap.
    """
    if p == 2 or not is_probable_prime(p):
        raise ValueError("p must be an odd prime")
    a = mat_mod(a, p) if not isinstance(a.a, ModInt) else a
    b = mat_mod(b, p) if not isinstance(b.a, ModInt) else b
    one = ModInt(1, p)
    if a.det() != one or b.det() != one:
        raise ValueError("inputs must have determinant 1 mod p")
    if a == b:
        return True, a.identity_like()
    ta, tb = a.trace(), b.trace()
    if ta != tb:
        return False, None
    if ta.v not in (2 % p, (p - 2) % p):
        ga = _canonical_conjugator(a, p)
        gb = _canonical_conjugator(b, p)
        gamma = gb * ga.inverse()
        assert gamma * a * gamma.inverse() == b
        return True, gamma
    from .quotients import DEFAULT_MODULUS_CAP, _check_modulus, group_table

    _check_modulus(p, DEFAULT_MODULUS_CAP)
    table = group_table(p)
    i, j = (int(table.index([e.v for e in m.entries()])) for m in (a, b))
    if table.cls[i] != table.cls[j]:
        return False, None
    return True, mat_mod(Mat2(*table.conjugator(i, j)), p)

