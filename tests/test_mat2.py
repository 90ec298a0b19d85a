import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from mksurf.mat2 import (
    Mat2,
    commutator,
    in_trace_set,
    mat_mod,
)
from mksurf.lifting import trace_triple
from mksurf.markoff import level
from mksurf.quotients import commutator_test_modq, sl2_tuples
from mksurf.rings import ModInt, SIntegerRing

from _util import commutator_by_chain, random_sl2z


def rand_mat(rng, lo=-9, hi=9):
    return Mat2(*(rng.randint(lo, hi) for _ in range(4)))


def test_mat2_and_modint_are_immutable_values():
    m = Mat2(a=1, b=2, c=3, d=7)
    assert m == Mat2(1, 2, 3, 7) and m != Mat2(1, 2, 3, 8)
    assert hash(m) == hash(Mat2(1, 2, 3, 7)) and len({m, Mat2(1, 2, 3, 7)}) == 1
    assert repr(m) == "[[1, 2], [3, 7]]"
    x = ModInt(v=-3, q=5)
    assert x == ModInt(2, 5) == 7 and x != ModInt(2, 7)
    assert hash(x) == hash(ModInt(7, 5)) and repr(x) == "2(mod 5)"
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        ModInt(3, 1)
    for value, field in ((m, "a"), (x, "v")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value
    assert mat_mod(m, 5) == Mat2(*(ModInt(v, 5) for v in (1, 2, 3, 7)))


def test_commutator_examples():
    assert commutator(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)) == Mat2(3, -1, 1, 0)
    x = Mat2(3, 5, 1, 2)
    assert commutator(x, x.identity_like()) == x.identity_like()
    x5 = mat_mod(Mat2(0, 2, 2, 0), 5)
    y5 = mat_mod(Mat2(0, -1, 1, 0), 5)
    w = commutator(x5, y5)
    assert w == mat_mod(Mat2(-1, 0, 0, -1), 5)


def _outcome(f, x, y):
    """f(x, y) entry by entry with each entry's type and modulus, or the
    type and message of what it raises."""
    try:
        m = f(x, y)
    except Exception as e:
        return type(e), str(e)
    return [(type(v), v.v, v.q) if isinstance(v, ModInt) else (type(v), v) for v in m.entries()]


def _assert_commutator_is_the_chain(x, y):
    assert _outcome(commutator, x, y) == _outcome(commutator_by_chain, x, y), (x, y)


def _random_sl2_modq(rng, q):
    """A random element of SL2(Z/q) for a prime power q: one with a unit
    top-left entry, times S = [[0, -1], [1, 0]] half the time (one of a
    and b is a unit)."""
    while True:
        a, b, c = (rng.randrange(q) for _ in range(3))
        if math.gcd(a, q) == 1:
            break
    d = (1 + b * c) * pow(a, -1, q) % q
    m = Mat2(a, b, c, d) if rng.random() < 0.5 else Mat2(b, -a, d, -c)
    return mat_mod(m, q)


def test_commutator_over_zq_is_the_chain_on_every_table_witness():
    for q in range(2, 17):
        for z in sl2_tuples(q):
            ok, wit = commutator_test_modq(z, q)
            if ok:
                _assert_commutator_is_the_chain(*wit)
                assert commutator(*wit) == mat_mod(Mat2(*z), q)


@pytest.mark.parametrize("q", [27, 32, 64, 81, 97, 128])
def test_commutator_over_zq_is_the_chain_on_random_pairs(q):
    rng = random.Random(4600 + q)
    for _ in range(500):
        _assert_commutator_is_the_chain(_random_sl2_modq(rng, q), _random_sl2_modq(rng, q))


def test_commutator_falls_back_to_the_chain():
    x8, y8 = mat_mod(Mat2(3, 1, 2, 1), 8), mat_mod(Mat2(1, 2, 0, 1), 8)
    x9 = mat_mod(Mat2(2, 1, 1, 1), 9)
    cases = [
        # mixed moduli, between and within the matrices
        (x8, x9, ValueError), (x9, x8, ValueError),
        (Mat2(ModInt(1, 8), ModInt(0, 9), ModInt(0, 8), ModInt(1, 8)), y8, ValueError),
        (x8, Mat2(ModInt(1, 8), ModInt(2, 8), ModInt(0, 8), ModInt(1, 16)), ValueError),
        # int entries beside ModInts are coerced
        (Mat2(ModInt(3, 8), 1, ModInt(2, 8), ModInt(1, 8)), y8, Mat2),
        (x8, Mat2(1, 2, 0, 1), Mat2),
        (Mat2(3, 1, 2, 1), y8, Mat2),
        # a determinant other than 1 mod q, of X, of Y or of both
        (mat_mod(Mat2(2, 0, 0, 1), 5), mat_mod(Mat2(1, 1, 0, 1), 5), ValueError),
        (x8, mat_mod(Mat2(3, 0, 0, 1), 8), ValueError),
        (mat_mod(Mat2(6, 2, 4, 2), 5), mat_mod(Mat2(3, 6, 0, 3), 5), ValueError),
        # other rings and non-matrices
        (Mat2(2, 1, 1, 1), Mat2(1, 1, 0, 1), Mat2),
        (Mat2(Fraction(1, 2), 0, 0, 2), Mat2(1, Fraction(1, 3), 0, 1), Mat2),
        (Mat2(2, 0, 0, 1), Mat2(1, 1, 0, 1), ValueError),
        (x8, 2, TypeError), (1, 2, AttributeError),
    ]
    for x, y, kind in cases:
        _assert_commutator_is_the_chain(x, y)
        out = _outcome(commutator, x, y)
        assert (out[0] is kind) if kind is not Mat2 else isinstance(out, list), (x, y, out)
    with pytest.raises(ValueError, match="mixed moduli 8 and 9"):
        commutator(x8, x9)
    with pytest.raises(ValueError, match=r"inverse needs determinant 1, got 2\(mod 5\)"):
        commutator(mat_mod(Mat2(2, 0, 0, 1), 5), mat_mod(Mat2(1, 1, 0, 1), 5))


def test_adjugate_identities():
    # A + A' = Tr(A) I ; A A' = det(A) I ; Cayley-Hamilton ; det(A+B)
    rng = random.Random(101)
    for _ in range(10**4):
        a = rand_mat(rng)
        b = rand_mat(rng)
        tr = a.trace()
        det = a.det()
        ident = a.identity_like()
        assert a + a.adjugate() == ident.scale(tr)
        assert a * a.adjugate() == ident.scale(det)
        assert a * a == a.scale(tr) - ident.scale(det)
        adj = a.adjugate()
        assert adj * adj == adj.scale(tr) - ident.scale(det)
        assert (a + b).det() == a.det() + b.det() + (a * b.adjugate()).trace()


def _conjugate(m, d):
    return d * m * d.inverse()


_ENTRY_TYPES = {
    # name: (SL2(Z) -> SL2 over the ring, entry type, its q)
    "int": (lambda m: m, int, None),
    "Fraction": (lambda m: _conjugate(m.map(Fraction), Mat2(
        Fraction(3, 2), Fraction(0), Fraction(0), Fraction(2, 3))), Fraction, None),
    "mod12": (lambda m: mat_mod(m, 12), ModInt, 12),
    "mod16": (lambda m: mat_mod(m, 16), ModInt, 16),
    "Z[1/5]": (lambda m: _conjugate(m.map(Fraction), Mat2(
        Fraction(5), Fraction(0), Fraction(0), Fraction(1, 5))), Fraction, None),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_TYPES))
def test_inverse_is_the_sl2_inverse_over_every_entry_type(name):
    convert, kind, modulus = _ENTRY_TYPES[name]
    rng = random.Random(43)
    entries = []
    for _ in range(200):
        m = convert(random_sl2z(rng, length=6))
        ident = m.identity_like()
        assert m * m.inverse() == ident and m.inverse() * m == ident
        assert m.inverse() == m.adjugate()
        for e in ident.entries():
            assert type(e) is kind
            assert getattr(e, "q", None) == modulus
        entries.extend(m.entries())
    if name == "Z[1/5]":
        z5 = SIntegerRing([5])
        assert all(z5.elem(e) == e for e in entries)
        assert any(e.denominator > 1 for e in entries)  # not just SL2(Z) again


def test_inverse_needs_determinant_1():
    # 2 is a unit mod 5, but only SL2 matrices are inverted
    for m in (Mat2(2, 0, 0, 1), mat_mod(Mat2(2, 0, 0, 1), 5)):
        with pytest.raises(ValueError):
            m.inverse()


def test_commutator_expansion_identity():
    # W(X,Y) = x3 XY + (x1 - x2 x3) X + x2 Y^-1 - I over SL2(Z)
    rng = random.Random(55)
    for _ in range(10**4):
        x = random_sl2z(rng, length=6)
        y = random_sl2z(rng, length=6)
        x1, x2, x3 = x.trace(), y.trace(), (x * y).trace()
        ident = x.identity_like()
        rhs = (x * y).scale(x3) + x.scale(x1 - x2 * x3) + y.inverse().scale(x2) - ident
        assert commutator(x, y) == rhs


def test_fricke_level():
    # M(Tr X, Tr Y, Tr XY) = Tr W(X, Y) + 2 on SL2(Z)
    x, y = Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)
    assert level(*trace_triple(x, y)) == 5
    assert commutator(x, y).trace() == 3
    ident = x.identity_like()
    assert level(*trace_triple(x, ident)) == 4
    assert level(*trace_triple(x, x)) == 4
    rng = random.Random(77)
    for _ in range(2000):
        a = random_sl2z(rng, length=6)
        b = random_sl2z(rng, length=6)
        assert level(*trace_triple(a, b)) == commutator(a, b).trace() + 2


def test_trace_set():
    ident = Mat2(1, 0, 0, 1)
    rng = random.Random(9)
    for _ in range(100):
        x = random_sl2z(rng, length=5)
        assert in_trace_set(ident, x)
    assert in_trace_set(Mat2(3, -1, 1, 0), Mat2(1, 0, 1, 1))
    assert not in_trace_set(Mat2(2, 1, 1, 1), Mat2(1, 1, 0, 1))


def test_trace_set_characterizes_commutators():
    # Z = W(X,Y) iff Y in S(Z) and X, XY in S(Z^-1), for Tr Z != 2
    rng = random.Random(31)
    checked_pos = checked_neg = 0
    while checked_pos < 300 or checked_neg < 300:
        x = random_sl2z(rng, length=5)
        y = random_sl2z(rng, length=5)
        if rng.random() < 0.5:
            z = commutator(x, y)
        else:
            z = random_sl2z(rng, length=5)
        if z.trace() == 2:
            continue
        zinv = z.inverse()
        rhs = (in_trace_set(z, y) and in_trace_set(zinv, x)
               and in_trace_set(zinv, x * y))
        lhs = commutator(x, y) == z
        assert lhs == rhs
        checked_pos += lhs
        checked_neg += not lhs
