"""Exact arithmetic substrate: big integers, S-integers Z[1/l], residue rings,
and the quadratic-symbol calculus (Jacobi and Hilbert symbols)."""

import math
import operator
from fractions import Fraction

INF = float("inf")


class BudgetExceeded(RuntimeError):
    """A search or modulus budget was exceeded; the CLI exits 3."""


# Witnesses making Miller-Rabin deterministic for n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981
_MR_EXTRA_BASES = (41, 43, 47, 53, 59, 61, 67, 71)


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n >= 1; 0 iff gcd(a, n) > 1."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd positive n, got %r" % (n,))
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_probable_prime(n):
    """Miller-Rabin; deterministic below 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Desk-scale inputs never reach the extra bases; above the deterministic
    # limit they keep the answer overwhelmingly reliable anyway.
    for a in _MR_BASES + (_MR_EXTRA_BASES if n >= _MR_LIMIT else ()):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


MAX_RHO_STEPS = 1000000
RHO_BATCH = 128  # differences multiplied together per gcd


def _pollard_rho(n, steps):
    """One nontrivial factor of composite odd n (Brent's cycle method) and
    what is left of `steps`, or (None, 0) once the steps run out.

    As in Brent (1980), the differences |x - y| of up to RHO_BATCH steps
    are multiplied mod n and one gcd taken per batch; a batch whose gcd is
    n is stepped through again one gcd at a time.  A batch never crosses a
    reset of y, so the (x, y) pairs are those of the one-gcd-per-step walk.
    Every iteration of the polynomial, replays included, takes one step.
    Parameters are cycled deterministically so factorizations are
    reproducible run to run.
    """
    for c in range(1, 64):
        x = y = 2
        d = 1
        power = lam = 1
        while d == 1:
            if not steps:
                return None, 0
            if power == lam:
                y = x
                power *= 2
                lam = 0
            run = min(RHO_BATCH, power - lam, steps)
            start, prod = x, 1
            for _ in range(run):
                x = (x * x + c) % n
                prod = prod * (x - y) % n
            steps -= run
            lam += run
            d = math.gcd(prod, n)
            if d == n:
                x = start
                for _ in range(run):
                    if not steps:
                        return None, 0
                    steps -= 1
                    x = (x * x + c) % n
                    d = math.gcd(x - y, n)
                    if d != 1:
                        break
        if d != n:
            return d, steps
    raise RuntimeError("rho failed on %d" % n)


def factorize(n):
    """Complete factorization of |n| as a sorted list of (prime, multiplicity).

    n must be an integer (TypeError otherwise).  Trial division up to 10^6,
    Pollard rho on what remains.  One call takes at most MAX_RHO_STEPS rho
    steps, about a second; past them it raises BudgetExceeded.
    """
    n = operator.index(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors = {}

    def add(p, e=1):
        factors[p] = factors.get(p, 0) + e

    for p in (2, 3):
        while n % p == 0:
            add(p)
            n //= p
    f = 5
    while f <= 10**6 and f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                add(p)
                n //= p
        f += 6
    stack = [n] if n > 1 else []
    steps = MAX_RHO_STEPS
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            add(m)
            continue
        d, steps = _pollard_rho(m, steps)
        if d is None:
            raise BudgetExceeded("factorization stopped after %d Pollard-rho steps with a "
                                 "%d-digit cofactor unfactored" % (MAX_RHO_STEPS, len(str(m))))
        stack.append(d)
        stack.append(m // d)
    return sorted(factors.items())


def square_class_int(x):
    """Integer representative of the square class of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    return x.numerator * x.denominator


def _split_prime(m, p):
    """m = p**a * u with p coprime to u; returns (a, u)."""
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    return a, m


def hilbert(a, b, p):
    """Hilbert symbol (a,b)_p in {-1,+1} for nonzero rationals a, b.

    p is a prime or INF.  Computed from the closed formulas: the odd-prime
    and dyadic product expansions in Jacobi symbols, and the sign rule at
    the infinite place.  Depends only on square classes, so a and b enter
    hilbert_int as their square_class_int.
    """
    a = square_class_int(a)
    b = square_class_int(b)
    if p != INF and p != 2 and (p < 3 or not is_probable_prime(p)):
        raise ValueError("not a prime: %r" % (p,))
    return hilbert_int(a, b, p)


def hilbert_int(a, b, p):
    """(a,b)_p for nonzero ints a, b and p a prime or INF, unchecked:
    hilbert's kernel, for callers that hold ints and proven primes."""
    if p == INF:
        return -1 if (a < 0 and b < 0) else 1
    if p == 2:
        al, m = _split_prime(a, 2)
        be, n = _split_prime(b, 2)
        s = ((m - 1) // 2) * ((n - 1) // 2)
        if al % 2:
            s += (n * n - 1) // 8
        if be % 2:
            s += (m * m - 1) // 8
        return -1 if s % 2 else 1
    al, m = _split_prime(a, p)
    be, n = _split_prime(b, p)
    s = 1
    if (al * be) % 2:
        s *= jacobi(-1, p)
    if be % 2:
        s *= jacobi(m, p)
    if al % 2:
        s *= jacobi(n, p)
    return s


def localized_str(x, ell):
    """Output spelling of an element x of Z[1/ell]: the int n when x is
    integral, else the string "n/ell^a" with ell not dividing n."""
    x = Fraction(x)
    if x.denominator == 1:
        return x.numerator
    a, rest = _split_prime(x.denominator, ell)
    if rest != 1:
        raise ValueError("%s is not in Z[1/%d]" % (x, ell))
    return "%d/%d^%d" % (x.numerator, ell, a)


class Frozen:
    """Base of the immutable value classes: each names its fields in
    __slots__, in constructor order, and sets them in __init__ through
    object.__setattr__. Assignment and deletion raise AttributeError, as
    on a frozen dataclass, copies and pickles rebuild through the
    constructor, and unless a class overrides them, equality, hash and
    repr are a frozen dataclass's, read off the fields by one getter built
    per class. (`dataclasses` imports `inspect`, which the commands that
    run without numpy would load for nothing else.)"""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = operator.attrgetter(*cls.__slots__)
        # the field tuple of an instance; one field still makes a 1-tuple
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._fields(self))))


class ModInt(Frozen):
    """Canonical residue in Z/qZ.  It equals every int congruent to it
    (`Mat2.inverse` tests det != 1 on ModInt entries), which no hash can
    agree with: ModInt(3, 8) == 11, yet 11 in {ModInt(3, 8)} is False.  So
    it keeps its own __eq__, and with it its own __hash__, that of (v, q)."""

    __slots__ = ("v", "q")

    def __init__(self, v, q):
        if q < 2:
            raise ValueError("modulus must be >= 2")
        object.__setattr__(self, "v", v % q)
        object.__setattr__(self, "q", q)

    def _coerce(self, other):
        if isinstance(other, ModInt):
            if other.q != self.q:
                raise ValueError("mixed moduli %d and %d" % (self.q, other.q))
            return other
        if isinstance(other, int):
            return ModInt(other, self.q)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ModInt(self.v + o.v, self.q)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(-self.v, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ModInt(self.v - o.v, self.q)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ModInt(self.v * o.v, self.q)

    __rmul__ = __mul__

    def inverse(self):
        return ModInt(pow(self.v, -1, self.q), self.q)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.q
        if isinstance(other, ModInt):
            return self.q == other.q and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.q))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d(mod %d)" % (self.v, self.q)


def residue(v, q):
    """The residue mod q of an int, a Fraction with denominator prime to q,
    or a ModInt whose modulus q divides: the one map into Z/q. Anything
    else has no value mod q (ValueError; TypeError for a non-integer type).
    A plain int is tested first: the Fraction test is an ABC check."""
    if type(v) is int:
        return v % q
    if isinstance(v, ModInt):
        if v.q % q:
            raise ValueError("a residue mod %d has no value mod %d" % (v.q, q))
        return v.v % q
    if isinstance(v, Fraction):
        if math.gcd(v.denominator, q) != 1:
            raise ValueError("%s has no value mod %d" % (v, q))
        return v.numerator * pow(v.denominator, -1, q) % q
    return operator.index(v) % q


# --- ring descriptors (used by the CLI and universal_pair) ---

class SIntegerRing:
    """S^-1 Z: the integers with a set S of primes inverted.  A finite S
    gives Z (S empty) or Z[1/6] = Z[1/2,1/3]; primes=None inverts every
    prime and gives Q.

    Elements are Fractions whose denominators factor over S; membership is
    enforced on conversion.
    """

    def __init__(self, primes):
        if primes is None:
            self.primes = None
            self.name = "Q"
            return
        self.primes = frozenset(primes)
        for p in self.primes:
            if not is_probable_prime(p):
                raise ValueError("%d is not prime" % p)
        self.name = "Z[1/%d]" % math.prod(sorted(self.primes)) if self.primes else "Z"

    def __repr__(self):
        return self.name

    def elem(self, x):
        f = Fraction(x)
        if self._unit_free(f.denominator) != 1:
            raise ValueError("%s is not in %s" % (x, self.name))
        return f

    def _unit_free(self, e):
        """|numerator of e| with the primes of S divided out: 0 for e = 0,
        1 exactly for the units."""
        n = abs(Fraction(e).numerator)
        if self.primes is None:
            return min(n, 1)
        for p in self.primes:
            while n and n % p == 0:
                n //= p
        return n

    def is_unit(self, e):
        return self._unit_free(e) == 1

    def inv(self, e):
        if not self.is_unit(e):
            raise ValueError("%s is not a unit in %s" % (e, self.name))
        return 1 / Fraction(e)


class ResidueRing:
    """Z/qZ with canonical residues."""

    def __init__(self, q):
        if q < 2:
            raise ValueError("modulus must be >= 2")
        self.q = q
        self.name = "Z/%d" % q

    def __repr__(self):
        return self.name

    def elem(self, x):
        return ModInt(residue(x, self.q), self.q)

    def is_unit(self, e):
        return math.gcd(e.v, self.q) == 1

    def inv(self, e):
        return e.inverse()


def parse_ring(spec):
    """Ring descriptor from a CLI spelling: z, q, z1/N (N >= 1) or modN
    (N >= 2); any other spelling is refused with one message naming it."""
    s = spec.strip().lower()
    if s in ("z", "q"):
        return SIntegerRing(() if s == "z" else None)
    n = int(s[3:]) if s[3:].isdecimal() else 0
    if s.startswith("z1/") and n >= 1:
        return SIntegerRing([p for p, _ in factorize(n)])
    if s.startswith("mod") and n >= 2:
        return ResidueRing(n)
    raise ValueError("unknown ring %r: expected z, q, z1/N (N >= 1) or modN (N >= 2)" % (spec,))
