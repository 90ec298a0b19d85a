"""2x2 matrix algebra over the supported rings, adjugate/trace identities
and trace sets."""

from .rings import Frozen, ModInt, residue


class Mat2(Frozen):
    """Row-major [[a, b], [c, d]] with entries in a common ring."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

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


def in_trace_set(z, x):
    """X in S(Z): det X = 1 and Tr(ZX) = Tr(X)."""
    return x.det() == 1 and (z * x).trace() == x.trace()

