"""2x2 matrix algebra over the supported rings, adjugate/trace identities,
trace sets, and conic point counts."""

from dataclasses import dataclass

from .rings import ModInt, is_probable_prime, legendre, residue


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
    """Reduce a matrix modulo q, entry by entry through `rings.residue`."""
    return m.map(lambda v: ModInt(residue(v, q), q))


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
