import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mksurf.mat2 import Mat2, commutator, mat_mod
from mksurf.quotients import commutator_test_modq
from mksurf.rings import (
    INF,
    MAX_RHO_STEPS,
    BudgetExceeded,
    ModInt,
    ResidueRing,
    SIntegerRing,
    _pollard_rho,
    factorize,
    hilbert,
    hilbert_int,
    is_probable_prime,
    jacobi,
    localized_str,
    parse_ring,
    residue,
    square_class_int,
)

from _util import hilbert_product_places, squarefree_part


def brute_jacobi_prime(a, p):
    """Independent oracle: quadratic character by listing squares mod p."""
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def brute_hilbert(a, b, p):
    """Independent oracle by exhaustive residue search.

    For p = 2 the primitive homogeneous congruence a X^2 + b Y^2 = Z^2
    (mod 2^8) is searched directly (a vector (X, Y, Z) with X, Y both even
    can never be primitive here, so primitivity is a parity mask).  For
    odd p the inhomogeneous search suffices once the inputs are square-
    class reduced; the only denominator case asks the unit form to
    represent p.
    """
    if p == INF:
        return -1 if a < 0 and b < 0 else 1

    def strip(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return n * p ** (e % 2), e % 2

    a, al = strip(a)
    b, be = strip(b)
    if p == 2:
        import numpy as np
        m = 256
        xs = np.arange(m, dtype=np.int64)
        sq = np.zeros(m, dtype=bool)
        sq[(xs * xs) % m] = True
        x2 = (a * xs * xs) % m
        y2 = (b * xs * xs) % m
        w = (x2[:, None] + y2[None, :]) % m
        prim = (xs % 2 == 1)[:, None] | (xs % 2 == 1)[None, :]
        return 1 if bool(sq[w][prim].any()) else -1

    def represents(a1, b1, target):
        m = p**3
        lhs = {a1 * x * x % m for x in range(m)}
        rhs = {(target - b1 * y * y) % m for y in range(m)}
        return bool(lhs & rhs)

    if represents(a, b, 1):
        return 1
    if al and be and represents(a // p, b // p, p):
        return 1
    return -1


def test_jacobi_examples():
    assert jacobi(5, 13) == -1  # the quadratic nonresidue driving k=108
    assert jacobi(12345, 1) == 1
    assert jacobi(2, 7) == brute_jacobi_prime(2, 7) == 1


def test_jacobi_matches_brute_force_on_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-10, 25):
            assert jacobi(a % p, p) == brute_jacobi_prime(a, p), (a, p)


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_hilbert_examples():
    for p in (2, 3, 5, 7, INF):
        assert hilbert(7, 1, p) == 1
        assert hilbert(Fraction(-3, 5), 1, p) == 1
    assert hilbert(2, 5, 2) == -1
    assert hilbert(-1, -1, INF) == -1


def test_hilbert_checks_its_place_and_calls_hilbert_int():
    for p in (-3, 0, 1, 4, 9, 15, 10**6):
        with pytest.raises(ValueError, match="^not a prime: "):
            hilbert(3, 5, p)
    rng = random.Random(67)
    for _ in range(2000):
        a = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 60))
        b = Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 60))
        p = rng.choice([2, 3, 5, 7, 11, 13, INF])
        assert hilbert(a, b, p) == hilbert_int(square_class_int(a), square_class_int(b), p)


def test_hilbert_matches_residue_search():
    for p in (2, 3, 5, 7, 13):
        for a in range(-20, 21):
            for b in range(-20, 21):
                if a == 0 or b == 0:
                    continue
                assert hilbert(a, b, p) == brute_hilbert(a, b, p), (a, b, p)


def test_hilbert_symmetry():
    rng = random.Random(2024)
    for _ in range(10**4):
        a = rng.randint(-300, 300) or 1
        b = rng.randint(-300, 300) or 1
        p = rng.choice([2, 3, 5, 7, 11, 13, INF])
        assert hilbert(a, b, p) == hilbert(b, a, p)


def test_hilbert_bimultiplicative():
    rng = random.Random(11)
    for _ in range(2000):
        a1 = rng.randint(-50, 50) or 1
        a2 = rng.randint(-50, 50) or 1
        b = rng.randint(-50, 50) or 1
        p = rng.choice([2, 3, 5, 7, INF])
        assert hilbert(a1 * a2, b, p) == hilbert(a1, b, p) * hilbert(a2, b, p)


def test_hilbert_product_formula():
    rng = random.Random(5)
    for _ in range(1000):
        a = rng.randint(-500, 500) or 1
        b = rng.randint(-500, 500) or 1
        prod = 1
        for p in hilbert_product_places(a, b):
            prod *= hilbert(a, b, p)
        assert prod == 1, (a, b)


def test_hilbert_square_class_only():
    assert hilbert(Fraction(2, 5), 5, 2) == hilbert(10, 5, 2)
    assert hilbert(8, 18, 3) == hilbert(2, 2, 3)


def test_squarefree_part():
    assert squarefree_part(104) == 26
    assert squarefree_part(-19) == -19
    assert squarefree_part(325) == 13
    assert squarefree_part(1) == 1
    with pytest.raises(ValueError):
        squarefree_part(0)
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 10**6)
        m = squarefree_part(n)
        s2 = n // m
        r = math.isqrt(s2)
        assert r * r == s2 and n == m * r * r


def test_factorize():
    assert factorize(139) == [(139, 1)]
    assert factorize(693) == [(3, 2), (7, 1), (11, 1)]
    assert factorize(1) == []
    assert factorize(-12) == [(2, 2), (3, 1)]
    with pytest.raises(ValueError):
        factorize(0)
    # only integers: an integral Fraction is refused too
    for n in (Fraction(21, 25), 2.5, Fraction(21)):
        with pytest.raises(TypeError):
            factorize(n)
    # a 64-bit semiprime of two primes above the 10^6 trial-division limit
    # exercises the rho stage
    p, q = 1000003, 998244353
    assert factorize(p * q) == [(p, 1), (q, 1)]
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(2, 10**9)
        prod = 1
        for p, e in factorize(n):
            assert is_probable_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_budget_stops_a_hard_semiprime():
    # (10^22 + 9)(3 * 10^22 + 29): rho would need about 10^11 steps
    n = 300000000000000000000560000000000000000000261
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="after %d Pollard-rho steps with a 45-digit "
                       "cofactor unfactored" % MAX_RHO_STEPS):
        factorize(n)
    assert time.perf_counter() - start < 3


def test_pollard_rho_batches_find_a_proper_factor():
    # on small odd composites one batch of differences usually collects
    # every prime of n, so its gcd is n and the batch is stepped through
    # again one gcd at a time
    for n in range(9, 20000, 2):
        if not is_probable_prime(n):
            d, steps = _pollard_rho(n, 1000)
            assert 1 < d < n and n % d == 0 and 0 <= steps < 1000, n


def test_factorize_reaches_an_11_digit_factor():
    # the one-gcd-per-step walk needed 896355 steps here, past its old
    # budget of 500000; batched, the same walk fits MAX_RHO_STEPS
    q = 100000000000000000039
    assert factorize(100000000003 * q) == [(100000000003, 1), (q, 1)]


def test_is_probable_prime_past_the_deterministic_limit():
    # the limit itself is 1287836182261 * 2575672364521, a strong
    # pseudoprime to all twelve first bases; base 43 catches it
    assert 3317044064679887385961981 == 1287836182261 * 2575672364521
    assert not is_probable_prime(3317044064679887385961981)
    assert is_probable_prime(2**89 - 1)


def test_localized_int_normalization_and_membership():
    # Z[1/l] elements are Fractions: membership through SIntegerRing, the
    # spelling n/l^a (l not dividing n) through localized_str
    assert localized_str(Fraction(50, 25), 5) == 2
    assert localized_str(Fraction(7, 19**3), 19) == "7/19^3"
    assert localized_str(Fraction(-10, 125), 5) == "-2/5^2"
    assert localized_str(3, 7) == 3 and type(localized_str(3, 7)) is int
    with pytest.raises(ValueError):
        localized_str(Fraction(1, 6), 5)
    z19 = SIntegerRing([19])
    assert z19.elem(Fraction(7, 19**3)) == Fraction(7, 19**3)
    with pytest.raises(ValueError):
        SIntegerRing([5]).elem(Fraction(1, 6))


def test_modint():
    a = ModInt(7, 12)
    assert (a + 8).v == 3
    assert (a * a).v == 1
    assert a.inverse().v == 7
    with pytest.raises(ValueError):
        ModInt(4, 12).inverse()
    with pytest.raises(ValueError):
        a + ModInt(1, 5)


def test_residue_is_the_one_map_into_z_mod_q():
    # mat_mod, ResidueRing.elem and commutator_test_modq reduce as residue does
    for q in (5, 8, 9, 12):
        values = (list(range(-30, 31))
                  + [Fraction(n, d) for n in range(-7, 8) for d in range(1, 12)
                     if math.gcd(d, q) == 1]
                  + [ModInt(v, m) for m in (q, 2 * q, 3 * q) for v in range(m)])
        for v in values:
            r = residue(v, q)
            f = Fraction(v.v if isinstance(v, ModInt) else v)
            assert 0 <= r < q and type(r) is int and (r * f.denominator - f.numerator) % q == 0
            assert mat_mod(Mat2(v, v, v, v), q).entries() == (ModInt(r, q),) * 4
            assert ResidueRing(q).elem(v) == ModInt(r, q)
            for z in (Mat2(1, v, 0, 1), Mat2(1, 0, v, 1)):
                ok, wit = commutator_test_modq(z, q)
                assert (ok, wit) == commutator_test_modq(z.map(lambda e: residue(e, q)), q)
                if ok:
                    assert commutator(*wit) == mat_mod(z, q)
    assert residue(Fraction(1, 3), 8) == 3 and residue(ModInt(9, 16), 8) == 1


# (value, q, residue or (error type, message)): plain ints take the first
# test in residue, every other integer type the later ones
RESIDUE_TABLE = [
    (0, 7, 0), (-1, 7, 6), (10**30 + 3, 7, 4), (129, 128, 1),
    (True, 5, 1), (False, 5, 0),
    (np.int64(-5), 8, 3), (np.uint8(200), 9, 2), (np.int32(7), 4, 3),
    (Fraction(-3, 7), 8, 3), (Fraction(6, 3), 5, 2), (Fraction(1, 3), 8, 3),
    (ModInt(9, 16), 8, 1), (ModInt(5, 5), 5, 0), (ModInt(-1, 27), 9, 8),
    (Fraction(1, 2), 8, (ValueError, "^1/2 has no value mod 8$")),
    (Fraction(5, 6), 9, (ValueError, "^5/6 has no value mod 9$")),
    (ModInt(1, 4), 8, (ValueError, "^a residue mod 4 has no value mod 8$")),
    (ModInt(3, 12), 8, (ValueError, "^a residue mod 12 has no value mod 8$")),
]


@pytest.mark.parametrize("v, q, want", RESIDUE_TABLE)
def test_residue_table(v, q, want):
    if isinstance(want, tuple):
        with pytest.raises(want[0], match=want[1]):
            residue(v, q)
    else:
        got = residue(v, q)
        assert got == want and type(got) is int


@pytest.mark.parametrize("reduce", [residue, lambda v, q: mat_mod(Mat2(v, 0, 0, 1), q),
                                    lambda v, q: ResidueRing(q).elem(v)],
                         ids=["residue", "mat_mod", "ResidueRing.elem"])
def test_residue_refusals(reduce):
    with pytest.raises(ValueError, match="^1/2 has no value mod 8$"):
        reduce(Fraction(1, 2), 8)
    with pytest.raises(ValueError, match="^a residue mod 4 has no value mod 8$"):
        reduce(ModInt(1, 4), 8)
    with pytest.raises(TypeError):
        reduce(2.5, 8)


def test_sinteger_ring():
    r = SIntegerRing([2, 3])
    assert r.elem(Fraction(5, 12)) == Fraction(5, 12)
    with pytest.raises(ValueError):
        r.elem(Fraction(1, 5))
    assert r.is_unit(Fraction(3, 2))
    assert not r.is_unit(Fraction(5, 2))


def test_parse_ring_names():
    names = {spec: str(parse_ring(spec)) for spec in ("z", "z1/1", "q", "z1/6", "mod97")}
    assert names == {"z": "Z", "z1/1": "Z", "q": "Q", "z1/6": "Z[1/6]", "mod97": "Z/97"}
