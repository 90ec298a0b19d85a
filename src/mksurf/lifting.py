"""Lifting between the commutator equation, its trace form, and the Markoff
surface: the explicit unique lift, the Nielsen/permutation pair moves with
orientation tracking, and the universality constructions."""

import math
from dataclasses import dataclass
from fractions import Fraction

from .mat2 import Mat2, commutator, mat_mod
from .markoff import MarkoffPoint, level
from .rings import ModInt, residue


class LiftError(ValueError):
    def __init__(self, message, failed_entries=None):
        super().__init__(message)
        self.failed_entries = failed_entries or []


@dataclass(frozen=True)
class LiftResult:
    """A pair (X, Y) whose commutator is Z (orientation "Z"), together
    with the permutation row used."""

    x: Mat2
    y: Mat2
    z: Mat2
    orientation: str
    row: tuple


# Pair transformations lifting coordinate permutations; the bool records
# whether the commutator flips to its inverse.
_PERM_PAIR = {
    (1, 2, 3): (lambda x, y: (x, y), False),
    (1, 3, 2): (lambda x, y: (y * x * y.inverse(), x.inverse() * y.inverse()), True),
    (2, 1, 3): (lambda x, y: (y, x), True),
    (2, 3, 1): (lambda x, y: (x * y * x.inverse(), y.inverse() * x.inverse()), False),
    (3, 1, 2): (lambda x, y: (x * y, x.inverse()), False),
    (3, 2, 1): (lambda x, y: (y * x, y.inverse()), True),
}

# Nielsen moves lifting the three Vieta involutions.
_VIETA_PAIR = {
    1: (lambda x, y: (y * x * y, y.inverse()), True),
    2: (lambda x, y: (x.inverse(), x * y * x), True),
    3: (lambda x, y: (x.inverse(), x * y * x.inverse()), True),
}

_SIGN_PAIR = {
    (1, 3): (lambda x, y: (-x, y), False),
    (2, 3): (lambda x, y: (x, -y), False),
    (1, 2): (lambda x, y: (-x, -y), False),
}


def pair_move(move, x, y):
    """Apply a Markoff move to a matrix pair; returns (X', Y', flipped)."""
    if move.tag == "perm":
        f, flip = _PERM_PAIR[move.data]
    elif move.tag == "vieta":
        f, flip = _VIETA_PAIR[move.data[0]]
    else:
        f, flip = _SIGN_PAIR[move.data]
    nx, ny = f(x, y)
    return nx, ny, flip


def trace_triple(x, y):
    return (x.trace(), y.trace(), (x * y).trace())


def lift2(z, y, x1, x3):
    """The unique X with Tr X = x1, Tr XY = x3 and W(X, Y) = Z, given
    Y with Tr ZY = Tr Y and Delta = Tr Z + 2 - (Tr Y)^2 invertible.

    Entries lie in Z, Q or Z/q.  Over Z a non-unit Delta is allowed when
    it divides every entry of the numerator matrix; failures are reported
    entry by entry.  Over Z/q a non-unit Delta shrinks the modulus to
    q / gcd(Delta, q) and the returned matrix lives there.
    """
    if z.det() != 1 or y.det() != 1:
        raise LiftError("lift2 needs determinant-1 inputs")
    x2 = y.trace()
    if (z * y).trace() != x2:
        raise LiftError("Y is not in the trace set of Z (Tr ZY != Tr Y)")
    t = z.trace()
    if level(x1, x2, x3) != t + 2:
        raise LiftError("(x1, x2, x3) is not on the level t+2 surface")
    delta = t + 2 - x2 * x2
    yinv = y.inverse()
    ident = z.identity_like()
    num = (z - yinv * yinv) * (ident.scale(x1) - y.scale(x3))

    if isinstance(delta, ModInt):
        g = math.gcd(delta.v, delta.q)
        q2 = delta.q // g
        if q2 < 2:
            raise LiftError("Delta = %s annihilates the quotient" % (delta,))
        bad = [v for v in num.entries() if v.v % g]
        if bad:
            raise LiftError("entries not divisible by gcd(Delta, q) = %d" % g,
                            failed_entries=bad)
        dinv = pow(delta.v // g, -1, q2)
        x = num.map(lambda v: ModInt((v.v // g) * dinv, q2))
        z = mat_mod(z, q2)
        y = mat_mod(y, q2)
        x1 = ModInt(residue(x1, q2), q2)
        x3 = ModInt(residue(x3, q2), q2)
    else:
        if delta == 0:
            raise LiftError("Delta = 0: no unique lift exists")
        entries = []
        bad = []
        for v in num.entries():
            quo = Fraction(v) / delta
            if not isinstance(v, int):
                entries.append(quo)
            elif quo.denominator == 1:
                entries.append(quo.numerator)
            else:
                bad.append(v)
        if bad:
            raise LiftError("entries [%s] not divisible by Delta = %s"
                            % (", ".join(map(str, bad)), delta),
                            failed_entries=bad)
        x = Mat2(*entries)

    if x.det() != 1 or x.trace() != x1 or (x * y).trace() != x3 \
            or commutator(x, y) != z:
        raise LiftError("lift2 contract failed after division by Delta")
    return x


# lift_point: coordinate j = Tr Y -> (the two coordinates lift2 takes, the
# _PERM_PAIR row that maps the lifted pair back onto the point)
_LIFT_ROWS = {2: ((0, 2), (1, 2, 3)), 1: ((2, 1), (2, 3, 1)), 3: ((1, 0), (3, 1, 2))}


def lift_point(z, point, y):
    """Package a Markoff point and a trace-set matrix Y into a commutator
    pair for Z, permuting the matched coordinate into the middle slot.

    Returns a LiftResult whose pair projects onto the point's coordinates
    exactly; the middle coordinate must equal Tr Y. Whether Delta divides
    out is `lift2`'s to decide; over Z/q a Delta not prime to q is refused.
    """
    t = z.trace()
    if t == 2 or t == -2:
        raise LiftError("need Tr Z != +-2")
    if point.k != t + 2:
        raise LiftError("point level %s != Tr Z + 2" % (point.k,))
    x2 = y.trace()
    coords = point.coords()
    js = [j for j in (1, 2, 3) if coords[j - 1] == x2]
    if not js:
        raise LiftError("no coordinate of (%s) matches Tr Y = %s"
                        % (", ".join(map(str, coords)), x2))
    delta = t + 2 - x2 * x2
    if isinstance(delta, ModInt) and math.gcd(delta.v, delta.q) != 1:
        # lift2 would return X over q / gcd(Delta, q), not over Z/q
        raise LiftError("Delta = %s is not prime to q = %d" % (delta, delta.q))

    (i1, i3), row = _LIFT_ROWS[2 if 2 in js else js[0]]
    pair = _PERM_PAIR[row][0](lift2(z, y, coords[i1], coords[i3]), y)
    if trace_triple(*pair) != coords or commutator(*pair) != z:
        raise LiftError("permutation bookkeeping broke the lift contract")
    return LiftResult(pair[0], pair[1], z, "Z", row)


TRACE_SET_BOX = 12


def find_trace_set_matrix(z, target_trace):
    """Bounded search for Y in the trace set of Z with Tr Y = target_trace.

    Scans the entry box |a|, |b|, |c| <= TRACE_SET_BOX = 12 with d forced
    by the trace, 25^3 candidates; returns the first hit or None.
    Existence is not decidable this way, so None only means "nothing in
    the box"."""
    box = [0] + [v for i in range(1, TRACE_SET_BOX + 1) for v in (i, -i)]
    for a in box:
        d = target_trace - a
        for b in box:
            for c in box:
                y = Mat2(a, b, c, d)
                if y.det() == 1 and (z * y).trace() == target_trace:
                    return y
    return None


def universal_pair(t, eps, ring):
    """A pair (X, Y) over the ring with Tr W(X, Y) = t, built from a unit
    eps whose difference with its inverse is also a unit."""
    t = ring.elem(t)
    eps = ring.elem(eps)
    if not ring.is_unit(eps):
        raise ValueError("eps = %s is not a unit in %s" % (eps, ring))
    eta = eps - ring.inv(eps)
    if not ring.is_unit(eta):
        raise ValueError("eps - eps^-1 = %s is not a unit in %s" % (eta, ring))
    etainv = ring.inv(eta)
    tau = (t - ring.elem(2)) * etainv * etainv
    one = ring.elem(1)
    zero = ring.elem(0)
    x = Mat2(one, tau, -one, one - tau)
    y = Mat2(eps, zero, zero, ring.inv(eps))
    if commutator(x, y).trace() != t:
        raise AssertionError("universal pair construction failed")
    return x, y


def universal_point(k, z, w, ring):
    """A point on the level-k surface from z, w with z^2 - 4 = w^2 and w a
    unit; needs 2 invertible (characteristic != 2)."""
    if ring.char_two:
        raise ValueError("characteristic-2 quotients are not supported here")
    k = ring.elem(k)
    z = ring.elem(z)
    w = ring.elem(w)
    four = ring.elem(4)
    if z * z - four != w * w:
        raise ValueError("z^2 - 4 = %s differs from w^2 = %s" % (z * z - four, w * w))
    if not ring.is_unit(w):
        raise ValueError("w = %s is not a unit" % (w,))
    half = ring.inv(ring.elem(2))
    zeta = (z + w) * half
    zetainv = (z - w) * half  # zeta * zetainv = (z^2 - w^2)/4 = 1
    winv = ring.inv(w)
    one = ring.elem(1)
    x1 = winv * (one - k + z * z)
    x2 = winv * (zeta - (k - z * z) * zetainv)
    x3 = z
    if level(x1, x2, x3) != k:
        raise AssertionError("universal point construction failed")
    return MarkoffPoint(x1, x2, x3, k)


def minus_identity_commutator(ring, r1, r2, r3):
    """A pair (X, Y) with W(X, Y) = -I from a nontrivial zero of
    r1^2 + r2^2 + r3^2 over a PID; over Z this reports insolvability."""
    r1, r2, r3 = (ring.elem(r) for r in (r1, r2, r3))
    zero = ring.elem(0)
    if r1 * r1 + r2 * r2 + r3 * r3 != zero:
        raise ValueError("r1^2 + r2^2 + r3^2 = %s is nonzero in %s"
                         % (r1 * r1 + r2 * r2 + r3 * r3, ring))
    if r1 == zero and r2 == zero and r3 == zero:
        raise ValueError("the all-zero triple is excluded")
    u, v = ring.bezout(r1, r2)  # r1*u - r2*v = 1
    one = ring.elem(1)
    x = Mat2(u * r3, u * u * r2 + v * (r1 * u + one), r2, -(u * r3))
    y = Mat2(v * r3, v * v * r1 + u * (r2 * v - one), r1, -(v * r3))
    ident = x.identity_like()
    if x.det() != one or y.det() != one or commutator(x, y) != -ident:
        raise AssertionError("minus-identity construction failed")
    return x, y


def _solve_intertwiner(b, eps, epsinv, eta, ring):
    """X in SL2 with B X = X diag(eps, eps^-1), following the gcd
    construction; B has trace eps + eps^-1 and determinant 1."""
    b1, b2, b3, b4 = b.entries()
    zero = ring.elem(0)
    one = ring.elem(1)
    etainv = ring.inv(eta)
    if b2 != zero:
        delta = ring.gcd(b1 - eps, b2)
        r = ring.div(b2, delta)
        x = Mat2(r, -delta * etainv,
                 ring.div(eps - b1, delta), -ring.div(b4 - eps, r) * etainv)
        return x
    if b3 != zero:
        xt = _solve_intertwiner(b.transpose(), eps, epsinv, eta, ring)
        return xt.adjugate().transpose()
    if b1 == eps:
        return Mat2(one, zero, zero, one)
    return Mat2(zero, -one, one, zero)


def pid_commutator_via_trace_set(z, u, eps, ring):
    """Exhibit Z as a commutator given U in its trace set with
    Tr U = eps + eps^-1, over a PID where eps and eps - eps^-1 are units.

    Returns (X, Y) with W(X, Y) = Z exactly.
    """
    eps = ring.elem(eps)
    if not ring.is_unit(eps):
        raise ValueError("eps must be a unit")
    epsinv = ring.inv(eps)
    eta = eps - epsinv
    if not ring.is_unit(eta):
        raise ValueError("eps - eps^-1 must be a unit")
    one = ring.elem(1)
    zero = ring.elem(0)
    if u.det() != one or (z * u).trace() != u.trace():
        raise ValueError("U is not in the trace set of Z")
    if u.trace() != eps + epsinv:
        raise ValueError("Tr U = %s differs from eps + eps^-1" % (u.trace(),))

    # eigenvector of U for eps, made primitive, completed to SL2
    v = (u.b, eps - u.a)
    if v[0] == zero and v[1] == zero:
        v = (eps - u.d, u.c)
    g = ring.gcd(v[0], v[1])
    v = (ring.div(v[0], g), ring.div(v[1], g))
    tt, ss = ring.bezout(v[0], v[1])  # v0*tt - v1*ss = 1
    m = Mat2(v[0], ss, v[1], tt)
    u0 = m.inverse() * u * m
    assert u0.c == zero
    shear = Mat2(one, -u0.b * ring.inv(eta), zero, one)
    sigma = m * shear
    sigmainv = sigma.inverse()
    u1 = sigmainv * u * sigma
    z1 = sigmainv * z * sigma
    x1 = _solve_intertwiner(z1 * u1, eps, epsinv, eta, ring)
    if x1.det() != one or (z1 * u1) * x1 != x1 * u1:
        raise AssertionError("intertwiner construction failed")
    xf = sigma * x1 * sigmainv
    yf = sigma * u1 * sigmainv
    if commutator(xf, yf) != z:
        raise AssertionError("trace-set commutator construction failed")
    return xf, yf


