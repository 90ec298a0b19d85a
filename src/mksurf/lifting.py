"""Lifting between the commutator equation, its trace form, and the Markoff
surface: the explicit unique lift, the Nielsen/permutation pair moves with
orientation tracking, and the universal pair."""

import math
from fractions import Fraction

from .mat2 import Mat2, commutator, in_trace_set
from .markoff import MarkoffMove, level
from .rings import BudgetExceeded, Frozen, ModInt


class LiftError(ValueError):
    pass


class LiftResult(Frozen):
    """A pair (X, Y) whose commutator is Z (orientation "Z"), together
    with the permutation row used."""

    __slots__ = ("x", "y", "orientation", "row")

    def __init__(self, x, y, orientation, row):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "row", row)


# The lifts of the Markoff moves to matrix pairs, one row for each of the
# twelve moves the MarkoffMove constructors make: Nielsen moves for the Vieta
# involutions, and pair maps for the permutations and double sign changes.
# The bool records whether the commutator flips to its inverse.
_PAIR_LIFTS = {
    MarkoffMove.vieta(1): (lambda x, y: (y * x * y, y.inverse()), True),
    MarkoffMove.vieta(2): (lambda x, y: (x.inverse(), x * y * x), True),
    MarkoffMove.vieta(3): (lambda x, y: (x.inverse(), x * y * x.inverse()), True),
    MarkoffMove.perm((1, 2, 3)): (lambda x, y: (x, y), False),
    MarkoffMove.perm((1, 3, 2)):
        (lambda x, y: (y * x * y.inverse(), x.inverse() * y.inverse()), True),
    MarkoffMove.perm((2, 1, 3)): (lambda x, y: (y, x), True),
    MarkoffMove.perm((2, 3, 1)):
        (lambda x, y: (x * y * x.inverse(), y.inverse() * x.inverse()), False),
    MarkoffMove.perm((3, 1, 2)): (lambda x, y: (x * y, x.inverse()), False),
    MarkoffMove.perm((3, 2, 1)): (lambda x, y: (y * x, y.inverse()), True),
    MarkoffMove.sign_change(1, 2): (lambda x, y: (-x, -y), False),
    MarkoffMove.sign_change(1, 3): (lambda x, y: (-x, y), False),
    MarkoffMove.sign_change(2, 3): (lambda x, y: (x, -y), False),
}


def pair_move(move, x, y):
    """Apply a Markoff move to a matrix pair; returns (X', Y', flipped)."""
    f, flip = _PAIR_LIFTS[move]
    return (*f(x, y), flip)


def trace_triple(x, y):
    return (x.trace(), y.trace(), (x * y).trace())


def lift2(z, y, x1, x3):
    """The unique X with Tr X = x1, Tr XY = x3 and W(X, Y) = Z, given
    Y with Tr ZY = Tr Y and Delta = Tr Z + 2 - (Tr Y)^2 invertible.

    Entries lie in Z, Q or Z/q.  Over Z a non-unit Delta is allowed when
    it divides every entry of the numerator matrix; failures are reported
    entry by entry.  Over Z/q, Delta must be prime to q, so X lies in
    SL2(Z/q) itself; any other Delta raises LiftError.
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
        if math.gcd(delta.v, delta.q) != 1:
            raise LiftError("Delta = %s is not prime to q = %d" % (delta, delta.q))
        x = num.scale(delta.inverse())
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
                            % (", ".join(map(str, bad)), delta))
        x = Mat2(*entries)

    if x.det() != 1 or x.trace() != x1 or (x * y).trace() != x3 \
            or commutator(x, y) != z:
        raise LiftError("lift2 contract failed after division by Delta")
    return x


# lift_point: coordinate j = Tr Y -> (the two coordinates lift2 takes, the
# permutation whose _PAIR_LIFTS row maps the lifted pair back onto the point)
_LIFT_ROWS = {2: ((0, 2), (1, 2, 3)), 1: ((2, 1), (2, 3, 1)), 3: ((1, 0), (3, 1, 2))}


def lift_point(z, point, y=None):
    """Package a Markoff point into a commutator pair for Z, a LiftResult
    whose pair has the point's coordinates as its trace triple.

    Z must have determinant 1 and trace t != +-2, and the point must lie
    on the level t + 2, or LiftError is raised before any Y is sought.
    Each coordinate equal to Tr Y is permuted into the middle slot in
    turn, the middle one first, as `lift2` may divide out Delta for one
    and not another; Y is refused with the last LiftError.  With y None,
    Y is the first of the trace-set box at each distinct coordinate in
    turn: the first Y that lifts wins, else the first Y's LiftError is
    raised, or BudgetExceeded if the box holds none at all.
    """
    if z.det() != 1:
        raise LiftError("need det Z = 1")
    t = z.trace()
    if t == 2 or t == -2:
        raise LiftError("need Tr Z != +-2")
    if point.k != t + 2:
        raise LiftError("point level %s != Tr Z + 2" % (point.k,))
    coords = point.coords()
    ys = [y] if y is not None else filter(None, (find_trace_set_matrix(z, x)
                                                 for x in dict.fromkeys(coords)))
    errs = []
    for y in ys:
        errs.append(LiftError("no coordinate of (%s) matches Tr Y = %s"
                              % (", ".join(map(str, coords)), y.trace())))
        for j in (j for j in (2, 1, 3) if coords[j - 1] == y.trace()):  # the middle slot first
            (i1, i3), row = _LIFT_ROWS[j]
            try:
                x = lift2(z, y, coords[i1], coords[i3])
            except LiftError as exc:
                errs[-1] = exc
                continue
            pair = _PAIR_LIFTS[MarkoffMove.perm(row)][0](x, y)
            if trace_triple(*pair) != coords or commutator(*pair) != z:
                raise LiftError("permutation bookkeeping broke the lift contract")
            return LiftResult(pair[0], pair[1], "Z", row)
    if not errs:
        raise BudgetExceeded("no trace-set matrix Y found in the entry box |a|, |b|, |c| "
                             "<= %d; this does not certify that none exists" % TRACE_SET_BOX)
    raise errs[0]


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
                if in_trace_set(z, y):
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

