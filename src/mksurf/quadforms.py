"""The ternary form u1^2 + u2^2 + u3^2 + x1 u1 u2 + x2 u1 u3 + x3 u2 u3
attached to a Markoff point (x1, x2, x3) of level k, its local invariant
profiles, isotropy over Q read off them, and a zero by Legendre's descent."""

import functools
import math

from .markoff import MarkoffPoint
from .rings import INF, Frozen, factorize, hilbert_int, jacobi, square_class_int


class HasseProfile(Frozen):
    """Map place -> +-1 for the places where the invariant can be nontrivial."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", entries)  # sorted (place, value) pairs, INF last

    def product(self):
        return math.prod(v for _, v in self.entries)


MEMO_SIZE = 256  # entries in each memo below: factorizations by integer, profiles by point


@functools.lru_cache(maxsize=MEMO_SIZE)
def _factors(n):
    """factorize(n) as a tuple, for the nonzero int n: it runs once per n
    among the MEMO_SIZE most recent, so the k - 4 of a level's
    representatives, and an x^2 - 4 that hasse_profile and the zero of
    form_isotropic both read, are factored once."""
    return tuple(factorize(n))


def _places(n):
    """2, INF and the odd primes of the nonzero int n: with m another
    nonzero int, (n, m)_p = +1 at every place outside _places(n) |
    _places(m)."""
    return {2, INF, *(p for p, _ in _factors(n) if p > 2)}


def check_level(k):
    """Refuse a level whose forms are not served: profiles and isotropy
    verdicts need k > 4."""
    if k <= 4:
        raise ValueError("Hasse profiles and isotropy need k > 4")


@functools.lru_cache(maxsize=MEMO_SIZE)
def hasse_profile(point):
    """Invariant profile c_p = (x^2-4, k-4)_p of the form attached to a
    Markoff point, at 2, INF and the odd primes of k - 4 and of x^2 - 4,
    sorted (INF, a float, last), for x the first coordinate with
    x^2 != 4.  The points with every coordinate +-2 lie only on levels 4
    and 20; at level 20 no coordinate is usable, and the profile is
    refused (ValueError), as is k <= 4 (check_level).

    Every usable coordinate gives the same c_p: (x1^2-4)(x2^2-4) =
    (2 x3 - x1 x2)^2 - 4(k-4) is a norm from Q(sqrt(k-4)), so its symbol
    with k - 4 is +1 at every place, over Z and over Z[1/l] alike.  So
    only k - 4 and the first x^2 - 4 are factored, each as its
    square_class_int and once among the MEMO_SIZE most recent integers
    (_factors); each other usable coordinate is checked at each
    reported place, a runtime cross-check on hilbert_int and factorize.
    Profiles are memoized by point, the MEMO_SIZE most recent; the
    cross-check runs on every profile evaluated rather than read back,
    and a refusal is not memoized.  Points compare by value, so one
    spelled with Fraction coordinates reads the entry of its int twin,
    whose profile is the same."""
    check_level(point.k)
    usable = [square_class_int(c * c - 4) for c in point.coords() if c * c != 4]
    if not usable:
        raise ValueError("all coordinates are +-2, so x^2 - 4 = 0 at each and "
                         "(x^2 - 4, k - 4)_p is undefined")
    km4 = square_class_int(point.k - 4)
    a, *others = usable
    entries = tuple((p, hilbert_int(a, km4, p)) for p in sorted(_places(km4) | _places(a)))
    for b in others:
        if any(hilbert_int(b, km4, p) != v for p, v in entries):
            raise ValueError("coordinate profiles disagree at %r" % (point,))
    return HasseProfile(entries)


def _square_split(n):
    """(s, d) with n = s d^2, s squarefree and of the sign of the nonzero int n."""
    d = math.prod(p ** (e // 2) for p, e in _factors(n))
    return n // (d * d), d


def _sqrt_mod(a, n):
    """An r with r^2 = a (mod t) and |r| <= t/2, for t the squarefree part
    of |n| (its primes at odd exponent) and a square a mod each prime of t.

    At each prime p of t the root of a mod p is a itself at p = 2 or
    p | a, and otherwise comes from Tonelli-Shanks; as t is squarefree,
    the CRT joins them into a root mod t.
    """
    primes = [p for p, e in _factors(n) if e % 2]
    m, r = math.prod(primes), 0
    for p in primes:
        t = a % p
        if t and p > 2:  # p - 1 = q 2^e with q odd, and z a nonresidue mod p
            e = ((p - 1) & (1 - p)).bit_length() - 1
            q, z = (p - 1) >> e, next(z for z in range(2, p) if jacobi(z, p) == -1)
            c, v, t = pow(z, q, p), pow(t, q, p), pow(t, (q + 1) // 2, p)
            while v != 1:  # t^2 = a v; the order of v divides 2^(e-1), that of c is 2^e
                i = next(i for i in range(1, e) if pow(v, 1 << i, p) == 1)
                c = pow(c, 1 << (e - i - 1), p)
                e, t, c, v = i, t * c % p, c * c % p, v * c * c % p
        r += t * (m // p) * pow(m // p, -1, p)
    return (r + m // 2) % m - m // 2


def _legendre(a, b):
    """A primitive nonzero (x, y, z) with x^2 = a y^2 + b z^2, for nonzero
    ints a, b with (a, b)_p = +1 at every place p: Lagrange's descent
    (J. E. Cremona and D. Rusin, Efficient solution of rational conics,
    Math. Comp. 72 (2003)) on the squarefree parts s, t of a = s d^2 and
    b = t f^2, whose solution (x, y, z) gives (d f x, f y, d z).

    The roles swap so that |s| <= |t|; s = 1 gives (1, 1, 0), and t = 1
    leaves s = -1 and gives (1, 0, 1).  Otherwise |t| >= 2, as s = t = -1
    has (s, t)_INF = -1, and s is a square mod each prime p of t: mod 2
    every s is, at p | s the root is 0, and at an odd p not dividing s,
    (s, t)_p = (s/p) as p || t.  So _sqrt_mod gives r with r^2 - s = t m,
    |r| <= |t|/2, and m != 0 as s != 1 is no square.  Termination: the
    squarefree part of m is at most |m| <= (t^2/4 + |s|)/|t| <= |t|/4 + 1
    < |t|, so |s| + |t| falls at each step.  The symbols are kept: r^2 - s
    is a norm from Q(sqrt s), so (s, t m)_p = +1 and (a, m)_p = (s, t)_p.
    The lift: for x^2 = s (d y)^2 + m z^2, N(x + d y sqrt s) N(r + sqrt s)
    = m z^2 t m gives (x r + s d y)^2 = s (x + r d y)^2 + t (m z)^2, with
    z != 0 as s is no square.  a and m go down whole, so each integer is
    factored once (_factors).
    """
    (s, d), (t, f) = _square_split(a), _square_split(b)
    if abs(s) > abs(t):
        x, z, y = _legendre(b, a)
        return x, y, z
    if 1 in (s, t):
        x, y, z = (1, 1, 0) if s == 1 else (1, 0, 1)
    else:
        r = _sqrt_mod(s, b)
        x, y, z = _legendre(a, m := (r * r - s) // t)
        x, y, z = x * r + s * d * y, x + r * d * y, m * z
    v = (d * f * x, f * y, d * z)
    return tuple(e // math.gcd(*v) for e in v)


def form_isotropic(point):
    """Isotropy of the attached form over Q, read off the Hilbert symbols
    c_p = (x^2 - 4, k - 4)_p of hasse_profile.

    Returns (verdict, data): "Isotropic" with {"witness": u}, a primitive
    integer zero u checked in ints, or "Anisotropic" with the places p
    where the form has no zero over Q_p.  A point with a non-integer
    coordinate or k <= 4 raises ValueError; Fractions of denominator 1 are
    read as ints, so the result is the int point's.

    The coordinates are ordered by |x|, but with a coordinate +-2 first if
    there is one, and u is relabelled to match: x_i multiplies the two u's
    other than u_(4-i), so where x_j plays x_i, u_(4-j) plays u_(4-i).  If
    x1 = +-2, u1^2 + u2^2 + x1 u1 u2 = (u1 + (x1/2) u2)^2, so (1, -x1/2, 0)
    is a zero.  Otherwise put a = x1^2 - 4, b = k - 4.  With the two u's
    that x1 multiplies taken first, the symmetric matrix G of the form
    u^T G u has leading minors 1, 1 - x1^2/4 = -a/4 and det G = (4 - k)/4,
    so the form is <1, -a/4, b/a>, which is <1, -a, ab> up to squares.
    That form has a zero over Q_v exactly when (a, -ab)_v = (a, -a)_v
    (a, b)_v = (a, b)_v is +1, and by Hasse-Minkowski it has one over Q
    exactly when it has one at every place: the -1 entries of
    hasse_profile (never INF, as b > 0; even in number, by Hilbert
    reciprocity).  The |x| order keeps the level and every symbol, and
    the x^2 - 4 it factors is the least; a class representative is in
    that order already, so its profile, once evaluated, is read off the
    memo.  The zero: with c = 2 x3 - x1 x2, the norm identity of
    hasse_profile gives 4 a F(u) = a X^2 - Y^2 + b W^2 for
    X = 2 u1 + x1 u2 + x2 u3, Y = a u2 - c u3, W = 2 u3, so for the
    solution Y^2 = a X^2 + b W^2 of _legendre(a, b), 4 a u = (2 a X -
    x1 (2 Y + c W) - x2 a W, 2 (2 Y + c W), 2 a W) is a zero, nonzero as
    a != 0.  Zeros are not minimized.
    """
    if not point.is_integral():
        raise ValueError("form_isotropic needs integer coordinates")
    check_level(point.k)
    coords, k = tuple(map(int, point.coords())), int(point.k)
    order = sorted(range(3), key=lambda i: (coords[i] ** 2 != 4, abs(coords[i])))
    x1, x2, x3 = (coords[i] for i in order)
    if x1 * x1 == 4:
        v = (1, -x1 // 2, 0)
    else:
        places = [p for p, e in hasse_profile(MarkoffPoint(x1, x2, x3, k)).entries if e == -1]
        if places:
            return "Anisotropic", {"places": places}
        a, c = x1 * x1 - 4, 2 * x3 - x1 * x2
        Y, X, W = _legendre(a, k - 4)
        v = (2 * a * X - x1 * (2 * Y + c * W) - x2 * a * W, 2 * (2 * Y + c * W), 2 * a * W)
    u1, u2, u3 = u = tuple(v[2 - order.index(2 - j)] // math.gcd(*v) for j in range(3))
    x1, x2, x3 = coords
    if u1 * u1 + u2 * u2 + u3 * u3 + x1 * u1 * u2 + x2 * u1 * u3 + x3 * u2 * u3 != 0:
        raise ArithmeticError("%r is not a zero of the form of %r" % (u, point))
    return "Isotropic", {"witness": u}
