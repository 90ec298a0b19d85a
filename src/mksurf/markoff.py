"""The Markoff surface x1^2 + x2^2 + x3^2 - x1*x2*x3 = k: group action,
descent to fundamental representatives, class data, solution searches over
Z and Z[1/l], and congruence admissibility."""

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expected_tables import HFU2_IMAGES
from .rings import BudgetExceeded, is_probable_prime


def level(x1, x2, x3):
    return x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3


@dataclass(frozen=True)
class MarkoffPoint:
    x1: object
    x2: object
    x3: object
    k: object

    @staticmethod
    def make(x1, x2, x3):
        return MarkoffPoint(x1, x2, x3, level(x1, x2, x3))

    def __post_init__(self):
        if level(self.x1, self.x2, self.x3) != self.k:
            raise ValueError(
                "(%s, %s, %s) is not on the level-%s surface" % (self.x1, self.x2, self.x3, self.k)
            )

    def coords(self):
        return (self.x1, self.x2, self.x3)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.coords())

    def maxabs(self):
        return _maxabs(self.coords())

    def __repr__(self):
        return "(%r, %r, %r)@%r" % (self.x1, self.x2, self.x3, self.k)


@dataclass(frozen=True)
class MarkoffMove:
    """Generator of the Markoff group: Vieta(j), Perm(pattern), SignChange(i,j).

    Perm pattern (p1,p2,p3) sends (x1,x2,x3) to (x_p1, x_p2, x_p3);
    SignChange(i,j) negates coordinates i and j.
    """

    tag: str
    data: tuple

    @staticmethod
    def vieta(j):
        if j not in (1, 2, 3):
            raise ValueError("vieta index must be 1..3")
        return MarkoffMove("vieta", (j,))

    @staticmethod
    def perm(pattern):
        if sorted(pattern) != [1, 2, 3]:
            raise ValueError("bad permutation pattern %r" % (pattern,))
        return MarkoffMove("perm", tuple(pattern))

    @staticmethod
    def sign_change(i, j):
        if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
            raise ValueError("sign change needs two distinct coordinates")
        return MarkoffMove("sign", (min(i, j), max(i, j)))

    def inverse(self):
        if self.tag == "perm":
            inv = [0, 0, 0]
            for i, p in enumerate(self.data):
                inv[p - 1] = i + 1
            return MarkoffMove("perm", tuple(inv))
        return self  # vieta and double sign changes are involutions

    def __repr__(self):
        return "%s%r" % (self.tag, self.data)


VIETA1 = MarkoffMove.vieta(1)
VIETA2 = MarkoffMove.vieta(2)
VIETA3 = MarkoffMove.vieta(3)

# The generators of the Markoff group, in the order orbit_within tries them:
# the three Vieta involutions, the five non-trivial permutations, then the
# three double sign changes.
GENERATORS = ((VIETA1, VIETA2, VIETA3)
              + tuple(MarkoffMove.perm(p) for p in
                      [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)])
              + (MarkoffMove.sign_change(1, 2), MarkoffMove.sign_change(1, 3),
                 MarkoffMove.sign_change(2, 3)))


def _apply_coords(move, c):
    x1, x2, x3 = c
    if move.tag == "vieta":
        j = move.data[0]
        if j == 1:
            return (x2 * x3 - x1, x2, x3)
        if j == 2:
            return (x1, x1 * x3 - x2, x3)
        return (x1, x2, x1 * x2 - x3)
    if move.tag == "perm":
        p1, p2, p3 = move.data
        return (c[p1 - 1], c[p2 - 1], c[p3 - 1])
    i, j = move.data
    out = list(c)
    out[i - 1] = -out[i - 1]
    out[j - 1] = -out[j - 1]
    return tuple(out)


def apply_move(move, point):
    c = _apply_coords(move, point.coords())
    return MarkoffPoint(c[0], c[1], c[2], point.k)


def apply_path(path, point):
    for m in path:
        point = apply_move(m, point)
    return point


def _maxabs(c):
    return max(map(abs, c))


def orbit_within(c, bound):
    """Every point reachable from the integer triple c by the Markoff moves
    without max|x| going above bound, as an insertion-ordered dict
    {coords: list of moves from c}.  Depth-first: the stack pops from its
    end, and each point tries the moves of GENERATORS in order.  The start
    must lie within the bound (ValueError otherwise).  Only a Vieta move
    can leave the bound, through the one coordinate it changes, which
    alone is tested: permutations and double sign changes keep max|x|.

    Completeness: take q with max|q| <= bound, and let r be its normal
    form under reduce_point.  The path from q to r never raises max|x|:
    descent steps lower it, and the floor closure stays at the floor.
    Reversed, that path reaches q from r inside the bound, so
    orbit_within(r, bound) holds every point of max|x| <= bound that
    descends to r.
    """
    if _maxabs(c) > bound:
        raise ValueError("start %r lies outside the bound %s" % (c, bound))
    seen = {c: []}
    stack = [c]
    while stack:
        cur = stack.pop()
        path = seen[cur]
        for mv in GENERATORS:
            cand = _apply_coords(mv, cur)
            if cand not in seen and (mv.tag != "vieta" or abs(cand[mv.data[0] - 1]) <= bound):
                seen[cand] = path + [mv]
                stack.append(cand)
    return seen


MAX_DESCENT_STEPS = 10**6


def _descent_step(c):
    """(move, image) for the Vieta move that lowers max|x| of the integer
    triple c, or None when c is a floor point.  At most one does: a Vieta
    move changes one coordinate, so only the move on the unique largest
    coordinate can lower max|x|, and it does when the new value is smaller
    in absolute value."""
    x, y, z = c
    ax, ay, az = abs(x), abs(y), abs(z)
    if ax > ay and ax > az:
        u = y * z - x
        return (VIETA1, (u, y, z)) if abs(u) < ax else None
    if ay > ax and ay > az:
        v = x * z - y
        return (VIETA2, (x, v, z)) if abs(v) < ay else None
    if az > ax and az > ay:
        w = x * y - z
        return (VIETA3, (x, y, w)) if abs(w) < az else None
    return None


def _family_canonical(c):
    """The canonical tuple of the perm/double-sign family of the integer
    triple c: its member sorted by absolute value with every entry >= 0,
    except the first when the family has an odd number of negative entries
    and no zero, that is when x1 x2 x3 < 0.

    The permutations and double sign changes carry c to it: sort by
    absolute value, then pair the negative signs off, or move a lone one
    onto the first entry, or onto a zero, where it vanishes.  They keep
    the absolute values as a multiset and the sign of x1 x2 x3, so two
    triples of one family share the tuple, which is the family's member
    with |c1| <= c2 <= c3: such a c has c2, c3 >= 0 and is sorted by
    absolute value, and if c1 < 0 it has one negative entry and no zero."""
    x, y, z = c
    a, b, m = sorted((abs(x), abs(y), abs(z)))
    return (-a, b, m) if x * y * z < 0 else (a, b, m)


def _floor_families(c):
    """The families of the floor closure orbit_within(c, max|c|) of the
    floor point c, as the set of their _family_canonical tuples.  Its
    maximum is the normal form of every point that descends into it.

    The walk visits one canonical tuple per family and tries only the
    three Vieta moves on it.  That finds the closure's families:
    - the closure is a union of families, since permutations and double
      sign changes keep max|x|;
    - they conjugate the Vieta moves among themselves: a permutation
      turns a Vieta move into the one on the coordinate it moves there,
      and a double sign change s commutes with each, V_j(s c) = s V_j(c)
      (e.g. V_1(-x, -y, z) = (x - yz, -y, z)), so each Vieta image of a
      member of a family is a member of the family of a Vieta image of
      its canonical tuple, and has the same max|x|;
    - so from the start's family the walk reaches, within max|c|,
      exactly the families of the points orbit_within reaches, and each
      walked family holds only points orbit_within reaches (its
      perm/double-sign moves keep max|x|).
    As in orbit_within, only the coordinate a Vieta move changes is tested.
    """
    bound = _maxabs(c)
    start = _family_canonical(c)
    seen = {start}
    stack = [start]
    while stack:
        x, y, z = stack.pop()
        u, v, w = y * z - x, x * z - y, x * y - z
        for new, cand in ((u, (u, y, z)), (v, (x, v, z)), (w, (x, y, w))):
            if -bound <= new <= bound:
                f = _family_canonical(cand)
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
    return seen


def reduce_point(point):
    """Markoff descent to a normal form; returns (normal_point, path) where
    replaying path from the normal form reproduces the input point.

    Descent repeatedly applies the Vieta move that strictly decreases the
    max-norm (_descent_step); more than MAX_DESCENT_STEPS of them raise
    BudgetExceeded.  At the floor point d, with m = max|d|, the closure
    orbit_within(d, m) is the orbit reachable without increasing the
    max-norm, and the normal form is the lexicographically largest
    family-canonical tuple in it (_floor_families), which keeps e.g.
    (1,1,1) fixed rather than drifting to a zero coordinate.  The path
    from d to the normal form is the closure's path to it, and the
    closure is walked only when descent ends elsewhere: orbit_within
    records its start first, with the path [], and never rewrites a
    recorded path, so when d is the normal form the path is [].

    Every point of that closure has max-norm m.  Call d a floor point if
    max|d| = m and no Vieta move takes it below m; descent stops at one.
    Floor points are closed under the moves that stay within m.
    Permutations and double sign changes keep max|d| and conjugate the
    Vieta moves among themselves.
    For a Vieta move, by symmetry take d = (x, y, z) -> d' = (x', y, z) with
    x' = yz - x and max|d'| <= m, so max|d'| = m.  Moving d' back in
    coordinate 1 gives d.  Suppose moving d' in coordinate 2 drops below m:
    |x'|, |z|, |x'z - y| < m.  Then |y| = m, and |z| >= 2 would give
    |x| = |yz - x'| > 2m - m = m, so |z| <= 1.  z = 0 gives |x'z - y| = m,
    so z = e = +-1, x = ey - x' and |x| = |x'z - y| < m.  But then moving d
    in coordinate 2 gives (x, xz - y, z) = (x, -ex', z), below m, which d
    being a floor point rules out.  Coordinate 3 is the same with y and z
    swapped.
    """
    if not point.is_integral():
        raise ValueError("descent needs integer coordinates")
    if point.k in (0, 4):
        raise ValueError("k = %r is outside the generic range" % (point.k,))
    cur = point.coords()
    path = []  # moves from the input point to cur
    while (step := _descent_step(cur)) is not None:
        mv, cur = step
        path.append(mv)
        if len(path) > MAX_DESCENT_STEPS:
            raise BudgetExceeded("descent exceeded %d steps" % MAX_DESCENT_STEPS)

    target = max(_floor_families(cur))
    if target != cur:
        path += orbit_within(cur, _maxabs(cur))[target]
    normal = MarkoffPoint(target[0], target[1], target[2], point.k)
    return normal, [m.inverse() for m in reversed(path)]


def default_class_bound(k):
    """The search box of class_data: it meets every orbit at level k != 0, 4.

    Each orbit holds a floor point d (descent ends at one), and a permutation
    of d lies in search_integral(k, b) once m = max|d| <= b.  Claim:
    5 m^2 <= 9 (|k| + 9), with equality at (3, 2j, 3j) for j >= 2.  Permute
    and change two signs so that d = (x, y, z), 0 <= x <= y <= |z| = m.
    (a) y < m.  Only the Vieta move on z can lower m, so |xy - z| >= m.  If
        xyz <= 0, then k >= m^2.  Else z = m and xy > 0, so xy >= 2m and
        x >= 3, and -k = f = mxy - m^2 - x^2 - y^2 grows with y <= m
        (mx > 2y).  If x^2 >= 2m, y >= x gives f >= (m - 2) x^2 - m^2
        >= m^2 - 4m.  Else y >= 2m/x gives f >= m^2 - (x^2 + 4m^2/x^2), which
        is convex in x^2 on [9, 2m], so f >= m^2 - max(9 + 4m^2/9, 4m).  As
        9 + 4m^2/9 - 4m = (2m/3 - 3)^2, -k >= 5m^2/9 - 9 either way.
    (b) y = m.  Then k = x^2 + 2m^2 -+ x m^2 for z = +-m.  z = -m or x <= 1
        gives k >= m^2, x = 2 gives k = 4, and x >= 3 gives -k = (x - 2) m^2
        - x^2 >= m^2 - 9, as it grows with x <= m.
    So m^2 <= 9 (|k| + 9) / 5, and as m^2 is an integer,
    m <= isqrt(9 (|k| + 9) // 5), the box, attained at (3, 2j, 3j).
    """
    return math.isqrt(9 * (abs(k) + 9) // 5)


def class_data(k):
    """Fundamental representatives of the Markoff-group orbits on the
    level-k integer points, one per orbit, sorted: the normal forms of the
    orbits that meet the box default_class_bound(k), which is every orbit.
    len(result) is the class number.

    Only floor points of the box are walked, one floor closure each, and
    the result is the set of reduce_point normal forms of the box points:
    - descent from a box point p ends at a floor point d with
      max|d| <= max|p| <= the box;
    - permutations and double sign changes conjugate the Vieta moves among
      themselves (reduce_point's docstring), so each perm/double-sign image
      of d is a floor point, and the one with |x1| <= |x2| <= |x3| is a
      point of search_integral;
    - reduce_point's normal form is the largest tuple of _floor_families
      of the closure orbit_within(d, max|d|), which is the same set from
      any of its members and is closed under perm/sign, so it holds that
      image;
    - so each closure is walked once, from its first search point, and a
      set of the walked families skips every later search point in one.
    Only the base triples of the search (_integral_bases) are walked:
    every family holds one, as a double sign change makes x1, x2 >= 0 in
    its member with |x1| <= |x2| <= |x3|, and the result is sorted, so it
    is the one a walk over every search point gives.  They are read as
    coordinate tuples, so only the representatives become MarkoffPoints.

    Raises BudgetExceeded when the box is past MAX_SEARCH_BOUND, that is
    for |k| > 888933324."""
    if k in (0, 4):
        raise ValueError("k = %r is outside the generic range" % (k,))
    b = default_class_bound(k)
    if b > MAX_SEARCH_BOUND:
        # isqrt(9 (|k| + 9) // 5) <= B exactly when 9 (|k| + 9) < 5 (B + 1)^2
        served = (5 * (MAX_SEARCH_BOUND + 1) ** 2 + 8) // 9 - 10
        raise BudgetExceeded(
            "class data at k = %d needs the box max|x| <= %d, past the integer "
            "scan limit %d, which serves |k| <= %d" % (k, b, MAX_SEARCH_BOUND, served))
    reps = []
    walked = set()
    for c in _integral_bases(k, b):
        if _family_canonical(c) in walked or _descent_step(c) is not None:
            continue
        families = _floor_families(c)
        walked.update(families)
        reps.append(MarkoffPoint(*max(families), k))
    return sorted(reps, key=MarkoffPoint.coords)


def admissible_k(k):
    """No congruence obstruction for integer points at level k:
    k != 3 (mod 4) and k != +-3 (mod 9)."""
    return k % 4 != 3 and k % 9 not in (3, 6)


def admissible_t(t):
    """No congruence obstruction for commutator traces t: t lies in the
    commutator-trace image mod 16 and mod 9 (`HFU2_IMAGES`)."""
    return t % 16 in HFU2_IMAGES[16] and t % 9 in HFU2_IMAGES[9]


SCAN_CELLS = 1 << 15  # the most cells a scan rectangle holds, unless one row alone is wider

_workspace = threading.local()


def _scan_buffers(n):
    """The int64 d and s, float64 root and bool hit buffers of an n-cell scan.

    Up to SCAN_CELLS cells they are views of this thread's workspace,
    allocated on its first scan (25 bytes a cell, 800 KiB in all) and
    reused by every later one, so a scan allocates nothing per rectangle
    and faults no fresh pages in; one per thread, so threads scanning at
    once never share a buffer.  A row wider than SCAN_CELLS gets buffers
    of its own.
    """
    if n > SCAN_CELLS:
        return np.empty(n, np.int64), np.empty(n, np.int64), np.empty(n), np.empty(n, bool)
    ws = getattr(_workspace, "buffers", None)
    if ws is None:
        ws = _workspace.buffers = (np.empty(SCAN_CELLS, np.int64), np.empty(SCAN_CELLS, np.int64),
                                   np.empty(SCAN_CELLS), np.empty(SCAN_CELLS, bool))
    return tuple(buf[:n] for buf in ws)


def _square_cells(a, b, c, xs):
    """The perfect squares of the rectangle a_r x^2 + b_r x + c_r, with row r
    from the int64 coefficient arrays a, b and c and column x from the
    int64 vector xs; b is None for a zero middle coefficient.  Returns
    int64 arrays (rows, cols, roots): the row and column index of every
    cell holding a square, in row-major order, and its root.

    The rectangle d is evaluated by Horner's rule, (a_r x + b_r) x + c_r,
    with out= ufuncs into the workspace of `_scan_buffers`; the arrays
    returned are fresh, never views of the workspace, so they survive the
    next call.  The caller keeps every cell inside int64; int64 arithmetic
    is exact modulo 2^64, so a partial sum that wraps on the way does not
    change a cell that ends inside int64.

    The float root is exact where it matters: for d = r^2 < 2^63, float64(d)
    has relative error at most 2^-53, which moves its square root by less
    than r 2^-54, under half the spacing of doubles at r, so the correctly
    rounded sqrt returns r itself and s^2 == d finds every perfect square
    with no correction step.  Negative cells are clipped to 0 before the
    root, so their s is 0 and s^2 != d rules them out.  s is squared in
    place, so the roots are read back from the float roots, exact at every
    hit.
    """
    width = len(xs)
    d, s, root, hit = (buf.reshape(len(a), width) for buf in _scan_buffers(len(a) * width))
    np.multiply(a[:, None], xs, out=d)
    if b is not None:
        np.add(d, b[:, None], out=d)
    np.multiply(d, xs, out=d)
    np.add(d, c[:, None], out=d)
    np.maximum(d, 0, out=s)
    np.sqrt(s, out=root)
    np.copyto(s, root, casting="unsafe")
    np.multiply(s, s, out=s)
    np.equal(s, d, out=hit)
    idx = np.flatnonzero(hit)
    rows, cols = np.divmod(idx, width)
    return rows, cols, root.ravel()[idx].astype(np.int64)


def _double_signs(x1, x2, x3):
    """The four images of (x1, x2, x3) under the double sign changes."""
    return ((x1, x2, x3), (x1, -x2, -x3), (-x1, -x2, x3), (-x1, x2, -x3))


def _isqrt(v):
    """isqrt of each entry of an int64 array v with 0 <= v < 2^62.  float64(v)
    has relative error at most 2^-53, so its root is off by far less than
    1, its integer part is isqrt(v) or one off it, and one step each way
    fixes that.
    """
    s = np.sqrt(v).astype(np.int64)
    s -= s * s > v
    s += (s + 1) * (s + 1) <= v
    return s


def _row_ranges(k, b):
    """int64 arrays (lo, hi) over the rows x1 = 0, 1, ..., end - 1 of the
    search_integral scan: row x1 holds no point outside
    [lo, hi] = [max(x1, bottom(x1)), top(x1)] (lo > hi: none at all), and
    the rows from end on hold none.  The limits are proved in
    search_integral; `end` is max(isqrt(b) + 2, c + 4) with
    c = round(|k|^(1/3)) + 1 >= |k|^(1/3), past which all three limits of
    a row x1 >= 4 lie below x1: x1 - 1 > sqrt(b) gives x1 (x1 - 1) > b - 1,
    x1^3 > |k| gives x1^2 (x1 + 2) > k, and (x1 - 3)^3 > |k| gives
    x1^2 (x1 - 3) > -k.  Every entry stays far inside int64 for
    b <= MAX_SEARCH_BOUND and k in the box's levels [-b^3, b^3 + 3 b^2].
    """
    end = min(b + 1, max(math.isqrt(b) + 2, round(abs(k) ** (1 / 3)) + 5))
    x1 = np.arange(end, dtype=np.int64)
    hi = np.full(end, -1, dtype=np.int64)
    # rows 0, 1 and 2
    if k >= 0:
        hi[:1] = math.isqrt(k // 2)
    if k >= 1:
        hi[1:2] = math.isqrt(k - 1)
    if k >= 4 and math.isqrt(k - 4) ** 2 == k - 4:
        hi[2:3] = b
    # rows 3 and up: (a), (b), and (c), unweakened at x1 = 3
    r = x1[3:]
    top = (b - 1) // (r - 1)
    if k > 0:
        np.maximum(top, _isqrt(k // (r + 2)), out=top)
    if k <= 9 and end > 3:
        top[0] = max(top[0], math.isqrt(9 - k))
    if k < 0:
        np.maximum(top[1:], _isqrt(-k // (r[1:] - 3)), out=top[1:])
    hi[3:] = top
    np.minimum(hi, b, out=hi)
    # bottom: the least x2 >= 0 with x2^2 + b x1 x2 + c >= 0.  For c < 0,
    # with u = isqrt(D) - b x1 and D = b^2 x1^2 - 4c, the root is
    # r = (sqrt(D) - b x1) / 2 in [u/2, (u + 1)/2), so u // 2 lies in
    # (r - 1, r] and one step up reaches ceil(r); for c >= 0 it is 0.
    c = x1 * x1 + (b * b - k)
    lo = np.maximum((_isqrt(np.maximum(b * b * x1 * x1 - 4 * c, 0)) - b * x1) // 2, 0)
    lo += lo * lo + b * x1 * lo + c < 0
    np.maximum(lo, x1, out=lo)
    return lo, hi


MAX_SEARCH_BOUND = 40000  # the largest box search_integral scans


def search_integral(k, bound):
    """All integer points with |x1| <= |x2| <= |x3| <= bound, as a sorted
    list.  Enumerates (x1, x2) in the nonnegative quadrant (every solution
    is a double-sign image of one with x1, x2 >= 0) and solves the
    quadratic in x3.

    Nothing is scanned unless -b^3 <= k <= b^3 + 3 b^2: in the box
    |x1 x2 x3| <= b^3 and each x_i^2 <= b^2, and (b, b, -b) attains the top.
    Row x1 only scans x2 in [max(x1, bottom(x1)), top(x1)].  Proof that no
    point is lost: take 0 <= x1 <= x2 <= |x3| <= b at level k.

    bottom: t^2 - x1 x2 t is convex and x1 x2 >= 0, so over |t| <= b it
    is largest at t = -b, and k <= x1^2 + x2^2 + b^2 + b x1 x2, which
    grows with x2 >= 0: x2 >= bottom(x1), the least x2 >= 0 where it
    reaches k.  Every point (x1, x2, -b) attains it.

    top, rows 0..2:
    (0) k = x2^2 + x3^2 >= 2 x2^2, so top(0) = isqrt(k // 2), attained
        by (0, n, n) at k = 2 n^2.
    (1) x3^2 - x2 x3 >= |x3| (|x3| - x2) >= 0, so k - 1 >= x2^2 and
        top(1) = isqrt(k - 1), attained by (1, n, n) at k = n^2 + 1.
    (2) k = 4 + (x2 - x3)^2: the row is empty unless k - 4 is a square,
        and then top(2) = b, attained by (2, b, b) at k = 4.

    top, rows x1 >= 3: x3 is a root of t^2 - P t + C with P = x1 x2 and
    C = x1^2 + x2^2 - k.  Let r be the smaller root; it is an integer, as
    the roots sum to P, the larger one is P - r >= P/2, and C = r (P - r).

    (a) |r| < x2: x3 != r, so x3 = P - r >= P - x2 + 1, and x3 <= b gives
        x2 (x1 - 1) <= b - 1.
    (b) r <= -x2: P - r >= P + x2 > 0, so C <= -x2 (P + x2), that is
        k >= x1^2 + x2^2 (x1 + 2); so k > 0 and x2^2 <= k / (x1 + 2).
    (c) r >= x2: r lies in [x2, P/2], where t (P - t) increases, so
        C >= x2 (P - x2), that is -k >= x2^2 (x1 - 2) - x1^2.  At x1 = 3
        this is x2^2 <= 9 - k; for x1 >= 4 it gives -k >= x2^2 (x1 - 3)
        (as x1 <= x2), so k < 0 and x2^2 <= -k / (x1 - 3).

    Hence top(x1) = min(b, max((b - 1) // (x1 - 1), isqrt(k // (x1 + 2))
    if k > 0, and isqrt(9 - k) if x1 = 3 and k <= 9, or
    isqrt(-k // (x1 - 3)) if x1 >= 4 and k < 0)).  Each limit is
    attained: (a) by (4, 5, 16) at k = -23, b = 16 and (3, 5, 11) at
    k = -10, b = 11, (b) by (4, 4, -4) at k = 112 and (3, n, -n) at
    k = 5 n^2 + 9, and (c) by (4, 4, 4) at k = -16 and (3, 10, 10) at
    k = -91.  Past max(sqrt(b), |k|^(1/3)) + O(1) every row has
    top < x1 (_row_ranges): O(b log b + |k|^(2/3)) cells in
    O(sqrt(b) + |k|^(1/3)) rows instead of the (b + 1)(b + 2)/2 cells of
    the whole box, and none when k lies outside the box's levels.
    _integral_bases scans those rows a rectangle of them at a time.
    """
    return [MarkoffPoint(c[0], c[1], c[2], k) for c in _integral_coords(k, bound)]


def _integral_coords(k, bound):
    """The points of search_integral(k, bound) as sorted coordinate tuples:
    the double-sign images of _integral_bases(k, bound)."""
    return sorted({c for p in _integral_bases(k, bound) for c in _double_signs(*p)})


def _integral_bases(k, bound):
    """The base triples of search_integral(k, bound), as a set: its points
    (x1, x2, x3) with 0 <= x1 <= x2 <= |x3|, of which every point is a
    double-sign image.

    Row x1 solves t^2 - P t + C for x3, with P = x1 x2 and
    C = x1^2 + x2^2 - k, whose discriminant P^2 - 4C is
    (x1^2 - 4) x2^2 + 4 (k - x1^2), and the roots (P -+ s) / 2 come only
    at the cells where _square_cells finds s (no parity test is needed, as
    s^2 = P^2 - 4C forces s = P (mod 2)).  The level of each base triple
    is checked once; its double-sign images, which _integral_coords adds,
    share it.

    A level outside [-b^3, b^3 + 3 b^2] returns the empty set before any
    row is built.  Otherwise the rows with a nonempty range
    [max(x1, bottom(x1)), top(x1)] (_row_ranges) are packed in order into
    rectangles over the union of their rows' ranges (_rectangles), each of
    at most SCAN_CELLS cells or one row, so a hit in a row's range gives
    the points that row gives alone.  The extra cells are harmless:
    - every cell has 0 <= x1, x2 <= b and, past the level test,
      |k| <= b^3 + 3 b^2, where |d| <= b^4 + 8 b^2 + 4 (b^3 + 3 b^2)
      < 2.6 * 10^18 < 2^63 for b <= MAX_SEARCH_BOUND, the bound the guard
      below admits, so no cell leaves int64;
    - a hit with x2 < x1 fails the filter x1 <= x2 <= |x3| <= b, and so
      does a hit with x2 outside [bottom(x1), top(x1)]: an x3 passing it
      would make (x1, x2, x3) a point of the box outside its row's range,
      which search_integral's proof rules out.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > MAX_SEARCH_BOUND:
        # discriminants must stay inside int64 for the vectorized scan
        raise BudgetExceeded("search budget exceeds the exact-arithmetic range "
                             "(bound <= %d)" % MAX_SEARCH_BOUND)
    b = int(bound)
    if not -b**3 <= k <= b**3 + 3 * b * b:
        return set()
    lo, hi = _row_ranges(k, b)
    kept = np.flatnonzero(lo <= hi)
    xs = np.arange(0, b + 1, dtype=np.int64)
    base = set()
    for x1s, bot, top in _rectangles(kept, lo[kept].tolist(), hi[kept].tolist()):
        sq = x1s * x1s
        rows, idx, roots = _square_cells(sq - 4, None, 4 * (k - sq), xs[bot:top + 1])
        for x1, x2, r in zip(x1s[rows].tolist(), (idx + bot).tolist(), roots.tolist()):
            for x3 in ((x1 * x2 - r) // 2, (x1 * x2 + r) // 2):
                if x1 <= x2 <= abs(x3) <= b:
                    base.add((x1, x2, x3))
    return {p for p in base if level(*p) == k}


def _rectangles(x1s, los, his):
    """Pack the rows x1s (an array), whose ranges [lo, hi] are the lists
    los and his, in order into rectangles (x1s[i:j], lo, hi) over the
    union [lo, hi] of their rows' ranges.  A rectangle takes the next row
    unless that would put it past SCAN_CELLS cells, or past
    SCAN_CELLS // 8 cells outside its rows' ranges: a cell costs a few
    nanoseconds and a rectangle tens of microseconds, so a little waste
    saves calls, and much of it costs more than it saves."""
    i, n = 0, len(los)
    while i < n:
        lo, hi = los[i], his[i]
        need = hi - lo + 1
        j = i + 1
        while j < n:
            lo2, hi2 = min(lo, los[j]), max(hi, his[j])
            need2 = need + his[j] - los[j] + 1
            cells = (j + 1 - i) * (hi2 - lo2 + 1)
            if cells > SCAN_CELLS or cells - need2 > SCAN_CELLS // 8:
                break
            lo, hi, need = lo2, hi2, need2
            j += 1
        yield x1s[i:j], lo, hi
        i = j


def search_localized(k, ell, max_exp, bound):
    """Points of the level-k surface over Z[1/ell] in two of the three
    valuation patterns a point can have: integral points, and
    (x1, x2/l^a, x3/l^a) with l coprime to x2*x3 and 1 <= a <= max_exp;
    numerators bounded by bound.  The third pattern, l-adic valuations
    (-(b+c), -b, -c) with b >= c >= 1, is not searched: (14/25, 4/5, -9/5)
    lies on level 5 and is not among the points of
    search_localized(5, 5, 3, 60).

    Order: the integral points as search_integral returns them, with int
    coordinates, then the others, whose x2/l^a and x3/l^a are Fractions,
    by a and by their least double-sign image (x1, x2, x3) with
    x1, x2 >= 0, each group as (x1, x2, x3), (x1, -x2, -x3), (-x1, -x2, x3),
    (-x1, x2, -x3).

    At exponent a, with L = l^(2a), row x1 is scanned only when
    L |x1^2 - k| <= b^2 (x1 + 2).  Proof that no point is lost: take
    0 <= x1, x2 <= b and |x3| <= b with (x1, x2/l^a, x3/l^a) on the
    surface, and let P = x1 x2.  Clearing denominators, x3 is a root of
    t^2 - P t + C with C = x2^2 + L (x1^2 - k).  The other root is P - x3,
    so C = x3 (P - x3) and |C| <= b (P + b) <= b^2 (x1 + 1).  Hence
    L |x1^2 - k| = |C - x2^2| <= |C| + x2^2 <= b^2 (x1 + 2).  The limit is
    attained: (7, 7/3, -7/3) at k = 98, l = 3, b = 7 gives 441 = 441.
    So for k > 0 the rows kept have x1^2 within b^2 (x1 + 2) / L of k,
    and for k < 0 none is kept once L |k| > b^2 (b + 2).

    The kept rows of each exponent are scanned SCAN_CELLS // |columns| at
    a time, as rectangles of whole rows over the columns x2 in [0, b]
    prime to l, so they scan exactly the cells a row-at-a-time scan
    would.  The guard below keeps every cell, and the row test
    L |x1^2 - k| <= L (b^2 + |k|), inside int64.
    """
    if ell == 2 or not is_probable_prime(ell):
        raise ValueError("ell must be an odd prime")
    if max_exp < 0:
        raise ValueError("max_exp must be nonnegative")
    # ell^(2 max_exp) >= 2^(2 max_exp (bits - 1)), so the first test refuses
    # what the second would, before ell^(2 max_exp) is computed
    if 2 * max_exp * (ell.bit_length() - 1) > 62 \
            or bound**4 + ell ** (2 * max_exp) * (4 * bound * bound + 4 * abs(k) + 16) > 2**62:
        raise BudgetExceeded("search budget exceeds the exact-arithmetic range")
    pts = search_integral(k, bound)
    b = int(bound)
    xs = np.arange(0, b + 1, dtype=np.int64)
    keep2 = xs[xs % ell != 0]
    step = max(1, SCAN_CELLS // max(1, len(keep2)))  # rows per rectangle
    found = set()
    for a in range(1, max_exp + 1):
        big = ell ** (2 * a)
        x1s = xs[big * np.abs(xs * xs - k) <= b * b * (xs + 2)]
        for i in range(0, len(x1s), step):
            # discriminant of t^2 - P t + C: (x1^2 - 4) x2^2 - 4 L (x1^2 - k)
            sq = x1s[i:i + step] * x1s[i:i + step]
            rows, idx, roots = _square_cells(sq - 4, None, -4 * big * (sq - k), keep2)
            for x1, x2, r in zip(x1s[i + rows].tolist(), keep2[idx].tolist(), roots.tolist()):
                for x3 in ((x1 * x2 - r) // 2, (x1 * x2 + r) // 2):
                    if abs(x3) <= b and x3 % ell != 0:
                        found.add((a, x1, x2, x3))
    seen = set()
    for (a, x1, x2, x3) in sorted(found):
        for (v1, v2, v3) in _double_signs(x1, x2, x3):
            if (a, v1, v2, v3) in seen:
                continue
            seen.add((a, v1, v2, v3))
            pts.append(MarkoffPoint(v1, Fraction(v2, ell**a), Fraction(v3, ell**a), k))
    return pts
