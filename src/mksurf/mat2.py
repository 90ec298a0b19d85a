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
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
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


def _mul(x, y, q):
    """X Y mod q for row-major entry quadruples of ints or arrays, each
    entry v reduced as v - (v // q) q: numpy divides an array by a scalar
    several times faster than it takes the remainder. The kernels here are
    duck-typed, so the group tables of `quotients` run them on numpy
    arrays without this module importing numpy."""
    a, b, c, d = x
    e, f, g, h = y
    p, r, s, t = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (p - p // q * q, r - r // q * q, s - s // q * q, t - t // q * q)


def _inv(x, q):
    """X^-1 mod q for determinant 1."""
    a, b, c, d = x
    return (d % q, -b % q, -c % q, a % q)


def _mat(m, q):
    """The Mat2 over Z/q with the reduced entry quadruple m."""
    a, b, c, d = m
    return Mat2(ModInt(a, q), ModInt(b, q), ModInt(c, q), ModInt(d, q))


def mat_mod(m, q):
    """Reduce a matrix modulo q, entry by entry through `rings.residue`."""
    return _mat([residue(v, q) for v in m.entries()], q)


def commutator(x, y):
    """W(X, Y) = X Y X^-1 Y^-1.

    Over Z/q, when all eight entries are ModInts of one modulus q and
    both determinants are 1 mod q, W is one evaluation of the int kernels
    `_mul` and `_inv` on the residues, wrapped once into ModInts. Any
    other input runs the generic chain X * Y * X.inverse() * Y.inverse(),
    which raises what it raises: mixed moduli, and a determinant other
    than 1, are ValueErrors, and int entries beside ModInts are coerced.
    """
    if type(x) is Mat2 and type(y) is Mat2:
        entries = x.entries() + y.entries()
        q = getattr(x.a, "q", None)
        if all(type(v) is ModInt and v.q == q for v in entries):
            a, b, c, d, e, f, g, h = [v.v for v in entries]
            if (a * d - b * c) % q == 1 == (e * h - f * g) % q:
                xs, ys = (a, b, c, d), (e, f, g, h)
                return _mat(_mul(_mul(xs, ys, q), _mul(_inv(xs, q), _inv(ys, q), q), q), q)
    return x * y * x.inverse() * y.inverse()


def in_trace_set(z, x):
    """X in S(Z): det X = 1 and Tr(ZX) = Tr(X)."""
    return x.det() == 1 and (z * x).trace() == x.trace()

