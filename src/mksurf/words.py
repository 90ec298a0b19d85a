"""Words in free products of two cyclic groups, their embeddings into the
modular group, conjugacy-class representatives of a given trace, and the
metabelian quotient with its unit classification."""

from functools import lru_cache

from .mat2 import Mat2, commutator
from .rings import BudgetExceeded, Frozen

SUPPORTED = ((2, 3), (2, None), (3, 3), (3, None))  # None encodes infinite order


def _check_mn(m, n):
    if (m, n) not in SUPPORTED:
        raise ValueError("unsupported orders (%s, %s)"
                         % tuple("inf" if o is None else repr(o) for o in (m, n)))


class Word(Frozen):
    """Reduced word in <a> * <b> with a of order m and b of order n.

    Stored run-length encoded as ((letter, exponent), ...); finite-order
    exponents are normalized into 1..order-1, infinite-order exponents are
    any nonzero integer.
    """

    __slots__ = ("runs", "m", "n")

    def __init__(self, runs, m, n):
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.runs, self.m, self.n) == (other.runs, other.m, other.n)

    def __hash__(self):
        return hash((self.runs, self.m, self.n))

    @staticmethod
    def make(runs, m, n):
        return Word(_normalize(runs, _orders(m, n)), m, n)

    @staticmethod
    def identity(m, n):
        return Word((), m, n)

    def __mul__(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("words from different groups")
        return Word.make(self.runs + other.runs, self.m, self.n)

    def inverse(self):
        return Word.make(tuple((g, -e) for g, e in reversed(self.runs)), self.m, self.n)

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return Word.make(self.runs * k, self.m, self.n)

    def letters(self):
        """Flat tuple of (letter, +-1); finite-order letters are positive."""
        out = []
        for g, e in self.runs:
            out.extend([(g, 1 if e > 0 else -1)] * abs(e))
        return tuple(out)

    def length(self):
        return sum(abs(e) for _, e in self.runs)

    def exponent_sums(self):
        sums = {"a": 0, "b": 0}
        for g, e in self.runs:
            sums[g] += e
        return sums["a"], sums["b"]

    def is_cyclically_reduced(self):
        if len(self.runs) <= 1:
            return True
        return self.runs[0][0] != self.runs[-1][0]

    def cyclic_reduction(self):
        """A cyclically reduced conjugate."""
        return Word(_cyclic_reduction(self.runs, _orders(self.m, self.n)), self.m, self.n)

    def rotations(self):
        """All letter-granularity rotations (requires cyclically reduced), one
        per starting letter."""
        if not self.is_cyclically_reduced():
            raise ValueError("rotations need a cyclically reduced word")
        if len(self.runs) <= 1:
            return [self] * max(1, self.length())
        return [Word(r, self.m, self.n) for r in _rotations(self.runs)]

    def __str__(self):
        if not self.runs:
            return "1"
        parts = []
        for g, e in self.runs:
            parts.append(g if e == 1 else "%s%d" % (g, e))
        return " ".join(parts)

    def __repr__(self):
        return "<%s | %r,%r>" % (self, self.m, self.n)


def _orders(m, n):
    # a/u carry the first order, b/v the second
    return {"a": m, "b": n, "u": m, "v": n}


def _cyclic_reduction(runs, orders):
    while len(runs) > 1 and runs[0][0] == runs[-1][0]:
        # conjugating by the first run moves it onto the last
        runs = _normalize(runs[1:] + runs[:1], orders)
    return runs


def _rotations(runs):
    """The runs of each letter rotation of cyclically reduced runs, at least
    two of them, in letter order. A cut inside a run splits it into
    tail ... head, which never meet since the first and last runs differ."""
    for j, (g, e) in enumerate(runs):
        rest = runs[j + 1:] + runs[:j]
        yield ((g, e),) + rest
        step = 1 if e > 0 else -1
        for r in range(step, e, step):
            yield ((g, e - r),) + rest + ((g, r),)


def _class_key(runs):
    """The least run tuple among the letter rotations of cyclically reduced
    runs."""
    return runs if len(runs) <= 1 else min(_rotations(runs))


def _normalize(runs, orders):
    stack = []
    for g, e in runs:
        if g not in orders:
            raise ValueError("unknown letter %r" % (g,))
        if stack and stack[-1][0] == g:
            e += stack.pop()[1]
        o = orders[g]
        if o is not None:
            e %= o
        if e != 0:
            stack.append((g, e))
    return tuple(stack)


def word(m, n, text):
    """Parse CLI syntax like "a b3 a-1 b-2" into a reduced Word: each token
    is a letter and an optional integer exponent."""
    runs = []
    for tok in text.replace(",", " ").split():
        try:
            e = int(tok[1:]) if len(tok) > 1 else 1
        except ValueError:
            raise ValueError("word token %r is not a letter with an integer exponent"
                             % (tok,)) from None
        runs.append((tok[0], e))
    return Word.make(tuple(runs), m, n)


def conjugacy_class_key(w):
    """Canonical key of the cyclic class of a cyclically reduced word: its
    least rotation's runs."""
    if not w.is_cyclically_reduced():
        raise ValueError("rotations need a cyclically reduced word")
    return _class_key(w.runs)


# --- the modular-group embeddings --------------------------------------------

_UV_MATS = {"u": Mat2(0, -1, 1, 0), "v": Mat2(0, -1, 1, 1)}

# images of a and b as u,v-runs (u of order 2, v of order 3).  Evaluated as
# written they give the defining SL2(Z) matrices: (3, 3)'s b is u v u^3, as
# U V U^3 = -U V U is the sign `repro embeddings` records, while Word.make
# reduces u^3 to u, so its modular words are those of u v u.
_EMBED_WORDS = {
    (2, 3): {"a": (("u", 1),), "b": (("v", 1),)},
    (2, None): {"a": (("u", 1),), "b": (("v", 1), ("u", 1), ("v", 1))},
    (3, 3): {"a": (("v", 1),), "b": (("u", 1), ("v", 1), ("u", 3))},
    (3, None): {"a": (("v", 1),),
                "b": (("u", 1), ("v", 1)) * 3 + (("u", 1),)},
}


def _evaluate(runs, mats):
    """The product of mats[letter] ** exponent over the runs."""
    out = Mat2(1, 0, 0, 1)
    for g, e in runs:
        out = out * mats[g] ** e
    return out


_EMBED_MATS = {mn: {g: _evaluate(r, _UV_MATS) for g, r in imgs.items()}
               for mn, imgs in _EMBED_WORDS.items()}


def embedding_matrix(m, n, gen):
    """The defining matrix of a generator ("a", "b") or the commutator "c"."""
    _check_mn(m, n)
    if gen in ("a", "b"):
        return _EMBED_MATS[(m, n)][gen]
    if gen == "c":
        a = _EMBED_MATS[(m, n)]["a"]
        b = _EMBED_MATS[(m, n)]["b"]
        return commutator(a, b)
    raise ValueError("generator must be a, b or c")


def uv_matrix(w):
    """Evaluate a u,v-word in SL2(Z)."""
    return _evaluate(w.runs, _UV_MATS)


def word_trace(m, n, w):
    """Absolute trace of a word's image in the modular group.

    Accepts a,b-words over supported (m, n) and u,v-words directly.
    """
    if w.runs and w.runs[0][0] in ("u", "v"):
        return abs(uv_matrix(w).trace())
    _check_mn(m, n)
    return abs(_evaluate(w.runs, _EMBED_MATS[(m, n)]).trace())


# --- conjugacy representatives of a given trace ------------------------------

def _min_rotation(seq):
    return min(tuple(seq[i:] + seq[:i]) for i in range(len(seq)))


def _rs_word(a, b, c, d):
    """The word in R = [[1, 1], [0, 1]] (as 1) and S = [[1, 0], [1, 1]]
    (as 2) of a nonnegative determinant-1 matrix [[a, b], [c, d]].

    Such a matrix other than I is R M' when its first row dominates its
    second entrywise and S M' when the second dominates, M' nonnegative:
    not both, as equal rows have determinant 0, and one, as a > c, d > b
    forces ad - bc >= b + c + 1 (so M = I) and a < c, d < b forces
    ad < bc.  Each step lowers the entry sum, so the loop ends at I.
    """
    seq = []
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= c and b >= d:
            seq.append(1)
            a, b = a - c, b - d
        else:
            seq.append(2)
            c, d = c - a, d - b
    return tuple(seq)


# bounds alg1's rotation factoring: at t = 100 a CLI run takes 0.11-0.23 s
# per embedding, interpreter start included (2 vCPU, Python 3.11), of which
# the class enumeration below takes about 45 ms and the parses 1-51 ms
MAX_ALG1_TRACE = 100


@lru_cache(maxsize=None)
def psl2_class_reps(t):
    """One cyclically reduced word u v^{s_1} ... u v^{s_k} per conjugacy
    class of trace t >= 3 in the modular group.

    Up to sign u v is R and u v^2 is S, and every class of trace >= 3
    holds a positive R/S word, unique up to rotation.  The positive words
    of trace t are those of the nonnegative matrices [[a, b], [c, t - a]]
    of determinant 1: 1 <= a < t, as bc = a (t - a) - 1 >= 0, and b runs
    over the divisors of bc.  Each class is keyed by its least rotation.  A
    trace above MAX_ALG1_TRACE raises BudgetExceeded.
    """
    if t < 3:
        raise ValueError("class representatives need trace >= 3, got %r" % (t,))
    if t > MAX_ALG1_TRACE:
        raise BudgetExceeded("trace %d exceeds the search budget %d" % (t, MAX_ALG1_TRACE))
    keys = set()
    for a in range(1, t):
        bc = a * (t - a) - 1
        keys.update(_min_rotation(_rs_word(a, b, bc // b, t - a))
                    for b in range(1, bc + 1) if bc % b == 0)
    reps = [Word.make(tuple(r for s in key for r in (("u", 1), ("v", s))), 2, 3)
            for key in keys]
    return sorted(reps, key=lambda w: (w.length(), w.runs))


# --- membership filtering (factorization through the embedding) --------------

@lru_cache(maxsize=256)
def _syllable_images(m, n, max_len):
    """{letter: ((exponent, image letters), ...)} for all generator powers
    whose embedded length fits in max_len, longest image first. Each power
    is the last times one step, p_{k+1} = p_k base; images lengthen with |k|,
    so each sign stops at its first power too long."""
    out = {}
    for g, o in (("a", m), ("b", n)):
        table = []
        for sign in (1,) if o is not None else (1, -1):
            step = Word.make(_EMBED_WORDS[(m, n)][g], 2, 3) ** sign
            power = Word.identity(2, 3)
            for k in range(1, o or max_len + 1):
                power = power * step
                img = power.letters()
                if len(img) > max_len:
                    break
                table.append((sign * k, img))
        # ties keep the order 1, -1, 2, -2, ...
        out[g] = tuple(sorted(table, key=lambda p: (-len(p[1]), abs(p[0]), p[0] < 0)))
    return out


def _parser(m, n, letters):
    """parse(start): the alternating syllables (letter, exponent, image
    length) that spell the rotation of the cyclic word `letters` starting
    at letter `start`, or None.

    Longest syllable first, with backtracking; junction letters make the
    factorization unique, so backtracking rarely fires. The rotations share
    one ring, letters + letters, and one memo: the syllables that match at
    a letter of the cyclic word, as (exponent, length) in `_syllable_images`
    order, are found once for all the rotations that reach it.
    """
    size = len(letters)
    ring = letters + letters
    syll = _syllable_images(m, n, size)
    memo = {g: [None] * size for g in syll}

    def matches(pos, g):
        p = pos % size
        row = memo[g]
        if row[p] is None:
            row[p] = tuple((e, len(img)) for e, img in syll[g] if ring[p:p + len(img)] == img)
        return row[p]

    def parse(start):
        end = start + size
        acc = []

        def dfs(pos, expect):
            if pos == end:
                return True
            for g in expect:
                for e, k in matches(pos, g):
                    if pos + k <= end:
                        acc.append((g, e, k))
                        if dfs(pos + k, ("b",) if g == "a" else ("a",)):
                            return True
                        acc.pop()
            return False

        return acc if dfs(start, ("a", "b")) else None

    return parse


def factor_through_embedding(m, n, uv_word):
    """Express a reduced u,v-word as an alternating product of a- and
    b-powers of the embedded free product, or None: the `_parser` parse
    from its first letter.

    A parse needs no re-expansion check: its syllables, the letters of
    reduced generator powers, spell the letters of uv_word, so the parse's
    image, its syllables' images concatenated and normalized, is the element
    uv_word spells, whose normal form in <u> * <v> is unique: the reduced
    uv_word itself.
    """
    _check_mn(m, n)
    syllables = _parser(m, n, uv_word.letters())(0)
    return None if syllables is None else Word.make(tuple((g, e) for g, e, _ in syllables), m, n)


def _psl2_mod4(x, y):
    """The product of two elements of PSL2(Z/4), each the lesser of the
    entry tuples of +-M mod 4."""
    a, b, c, d = x
    e, f, g, h = y
    z = ((a * e + b * g) % 4, (a * f + b * h) % 4, (c * e + d * g) % 4, (c * f + d * h) % 4)
    return min(z, tuple(-v % 4 for v in z))


@lru_cache(maxsize=None)
def _cosets(m, n):
    """(reps, act, exact) for the right cosets K x of K, the preimage in
    the modular group of the embedded group's image in PSL2(Z/4).

    reps[i] is a u,v-word x_i with reps[0] the identity, found breadth
    first, and act[g][i] = j when K x_i g = K x_j, for g = "u", "v": the
    right action of the modular group on the d = len(reps) cosets, d = 1,
    3, 2 and 8 for (2, 3), (2, inf), (3, 3) and (3, inf). PSL2(Z/4) has 24
    elements, so all of this is a few hundred products of tuples.

    The embedded group H lies in K. exact says that every x_i g x_j^-1
    with j = act[g][i] parses, i.e. lies in H; then H = K. For each
    H x_i g = H x_j, so the union of the H x_i is closed under u and v,
    which generate the modular group; H has index at most d, and since
    H lies in K, of index d, H = K. exact holds for the first three
    embeddings. For (3, inf) it fails, as it must: H is free, Z/3 * Z, of
    Euler characteristic 1/3 - 1 = -2/3, and a subgroup of finite index i
    in the modular group, of characteristic 1/2 + 1/3 - 1 = -1/6, has
    characteristic -i/6, so i would be 4; but K alone has index 8.
    """
    mats = {g: tuple(v % 4 for v in mat.entries()) for g, mat in _UV_MATS.items()}
    image = {(1, 0, 0, 1)}
    gens = [tuple(v % 4 for v in mat.entries()) for mat in _EMBED_MATS[(m, n)].values()]
    frontier = list(image)
    while frontier:
        frontier = [z for z in {_psl2_mod4(x, g) for x in frontier for g in gens}
                    if z not in image]
        image.update(frontier)
    index = {}  # coset (the least element of image * y) -> its number
    elements = []
    reps = []
    act = {"u": [], "v": []}

    def number(y, rep):
        key = min(_psl2_mod4(h, y) for h in image)
        if key not in index:
            index[key] = len(reps)
            elements.append(y)
            reps.append(rep)
        return index[key]

    number((1, 0, 0, 1), Word.identity(2, 3))
    for i, y in enumerate(elements):  # grows as cosets are found
        for g in ("u", "v"):
            act[g].append(number(_psl2_mod4(y, mats[g]), reps[i] * Word(((g, 1),), 2, 3)))
    act = {g: tuple(row) for g, row in act.items()}
    exact = all(factor_through_embedding(
        m, n, reps[i] * Word(((g, 1),), 2, 3) * reps[j].inverse()) is not None
        for g, row in act.items() for i, j in enumerate(row))
    return tuple(reps), act, exact


def _coset_labels(act, letters):
    """labels[s]: the coset K p_s^-1 when the rotation of the cyclic word
    `letters` starting at letter s lies in K, else None; p_s is the
    prefix of its first s letters.

    That rotation is r_s = p_s^-1 w p_s for the word w. If it lies in K,
    then f = K p_s^-1 has f w = K r_s p_s^-1 = f, and the walk from f
    along the letters is at K p_s^-1 p_s = K after s letters. Conversely
    a walk from a fixed point f of w that is at K after s letters has
    f = K p_s^-1, so K p_s^-1 w p_s = f p_s = K, and r_s lies in K. So one
    walk from each coset, kept when it ends where it began, labels every
    start in K, each with the one coset K p_s^-1: O(d L) steps.
    """
    labels = [None] * len(letters)
    steps = [act[g] for g, _ in letters]
    for f in range(len(act["u"])):
        c = f
        hits = []
        for s, step in enumerate(steps):
            if c == 0:
                hits.append(s)
            c = step[c]
        if c == f:
            for s in hits:
                labels[s] = f
    return labels


def alg1_representatives(m, n, t):
    """A finite set of words meeting every conjugacy class of trace t in the
    embedded free product: modular-group class representatives, rotated,
    and filtered through the embedding.

    Each representative is flattened once and its rotations, starting at
    letters 0, 1, ..., are parsed on one ring; a class keeps the first word
    found. A parse alternates its letters and carries the syllable table's
    exponents, so it is already normalized.

    Only the rotations in K (`_cosets`) can lie in the embedded group H, so
    only starts with a label of `_coset_labels` are parsed. When the
    cosets are exact (H = K), two starts s < s' of one label f are
    H-conjugate: K p_s^-1 = K p_s'^-1 puts p_s^-1 p_s' in K = H, and
    r_s' = (p_s^-1 p_s')^-1 r_s (p_s^-1 p_s'). So only the first start of
    each label is parsed, and since it lies in H, its parse succeeds. The
    earliest start of every class is such a first start, so each class
    keeps the same word as when every rotation is parsed.

    Otherwise, for (3, inf), every labelled start is parsed, except one
    at a syllable boundary of an earlier parse, which adds no class. The
    embedding is injective, so the parse of given letters is unique: from
    that boundary it can only be the earlier syllables rotated there and
    normalized. That word is conjugate to the earlier parse, and conjugate
    cyclically reduced words of a free product are rotations of one
    another, so the class key is the same.
    """
    _check_mn(m, n)
    orders = _orders(m, n)
    _, act, exact = _cosets(m, n)
    found = {}
    for rep in psl2_class_reps(t):
        letters = rep.letters()
        parse = _parser(m, n, letters)
        done = set()  # labels parsed if exact, else syllable boundaries
        for start, label in enumerate(_coset_labels(act, letters)):
            if label is None or (label if exact else start) in done:
                continue
            syllables = parse(start)
            if syllables is None:
                continue
            if exact:
                done.add(label)
            else:
                pos = start
                for _, _, k in syllables:
                    done.add(pos % len(letters))
                    pos += k
            runs = _cyclic_reduction(tuple((g, e) for g, e, _ in syllables), orders)
            key = _class_key(runs)
            if key not in found:
                found[key] = Word(runs, m, n)
    return [found[k] for k in sorted(found)]


def in_derived_subgroup(m, n, w):
    """Exponent-sum test against the abelianization Z_m x Z_n. A u,v-word
    is invalid input."""
    _check_mn(m, n)
    if any(g not in ("a", "b") for g, _ in w.runs):
        raise ValueError("%s is not a word in a and b" % (w,))
    sa, sb = w.exponent_sums()
    ok_a = sa % m == 0 if m is not None else sa == 0
    ok_b = sb % n == 0 if n is not None else sb == 0
    return ok_a and ok_b


# --- the metabelian quotient --------------------------------------------------

def _reduce(m, n, terms):
    """The normal form of the sum of c x^i y^j over raw ((i, j), c) terms.

    x^i becomes x^(i mod m), and x^(m-1) becomes minus the lower powers of
    x, since psi_m(x) = 0; the same rule applies in y for finite n.  The
    rule is linear, so each term goes straight into the one output dict.
    """
    out = {}
    for (i, j), c in terms:
        i, j = i % m, j if n is None else j % n
        xs, ys = (i,), (j,)
        if i == m - 1:
            xs, c = range(i), -c
        if n is not None and j == n - 1:
            ys, c = range(j), -c
        for r in xs:
            for s in ys:
                out[(r, s)] = out.get((r, s), 0) + c
    return {key: c for key, c in out.items() if c}


class SRingElem:
    """Element of Z[x, x^-1, y, y^-1] / (psi_m(x), psi_n(y)) with
    psi_k = 1 + X + ... + X^(k-1) and psi_infinity = 0.

    Built from a dict {(i, j): c} or an iterable of ((i, j), c) terms, and
    kept in the normal form of `_reduce`: coefficients live on monomials
    x^i y^j with 0 <= i <= m-2 and, for finite n, 0 <= j <= n-2; infinite
    n leaves j free over Z.
    """

    __slots__ = ("m", "n", "coeffs")

    def __init__(self, m, n, coeffs=()):
        _check_mn(m, n)
        self.m = m
        self.n = n
        self.coeffs = _reduce(m, n, coeffs.items() if isinstance(coeffs, dict) else coeffs)

    @staticmethod
    def monomial(m, n, i=0, j=0, c=1):
        return SRingElem(m, n, [((i, j), c)])

    def __eq__(self, other):
        return (self.m, self.n) == (other.m, other.n) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.n, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs.items()):
            mono = "".join((["x" if i == 1 else "x^%d" % i] if i else [])
                           + (["y" if j == 1 else "y^%d" % j] if j else []))
            parts.append("%+d%s" % (c, mono) if mono else "%+d" % c)
        return " ".join(parts)


MAX_METAB_TERMS = 3500**2 // 8


def metabelian_image(m, n, w):
    """Image of a derived-subgroup word in the metabelian quotient module.

    Scans left to right tracking the abelianized prefix (i, j); moving an
    a^(+-1) letter across the b-prefix emits a conjugated commutator whose
    image is -x^i (1 + y + ... + y^(j-1)) for a, and x^(i-1) times the same
    sum for a^-1, where the sum is -(y^j + ... + y^-1) for j < 0.  For
    finite n the sum has period n in j, so j is kept mod n.  The terms of
    all letters are normalized once.

    Each a-letter emits |j| terms, so an a-run of exponent e emits |e| |j|;
    one pass over the runs counts them before any is built, and more than
    MAX_METAB_TERMS = 3500^2 / 8 = 1531250 raises BudgetExceeded.  This
    budget accepts every word of at most 3500 letters: for infinite n, j
    starts and ends at 0, so |j| <= B/2 for B b-letters, and the A = L - B
    a-letters of a word of L letters emit at most A B / 2 <= L^2 / 8 terms;
    for finite n, |j| < n <= 3 and the count is at most 2 L.  It also
    bounds the length: an a-run has fewer than m <= 3 letters, and a b-run
    of exponent e leaves |j| >= |e| / 2 next to an a-letter (j = 0 at the
    word's ends, so then the inner side has |j| = |e|), which emits that
    many terms; so an accepted word has O(terms + runs) letters.
    """
    _check_mn(m, n)
    if not in_derived_subgroup(m, n, w):
        raise ValueError("%r is not in the derived subgroup" % (w,))
    count = j = 0
    for g, e in w.runs:
        if g == "b":
            j = j + e if n is None else (j + e) % n
        else:
            count += abs(e * j)
    if count > MAX_METAB_TERMS:
        raise BudgetExceeded("metabelian image of %d terms exceeds the budget of %d terms"
                             % (count, MAX_METAB_TERMS))

    def terms():
        i = j = 0
        for g, e in w.letters():
            if g == "b":
                j = j + e if n is None else (j + e) % n
            else:
                c = -e if j > 0 else e
                yield from (((i + min(e, 0), r), c) for r in range(min(j, 0), max(j, 0)))
                i += e
    return SRingElem(m, n, terms())


def is_unit_in_S(m, n, s):
    """True iff s is +-x^i y^j, the only invertible elements."""
    _check_mn(m, n)
    if len(s.coeffs) > (m - 1) * (n - 1 if n else 1):
        return False  # more terms than the normal form of any +-x^i y^j
    js = range(n) if n is not None else {j for _, j in s.coeffs}
    return any(s == SRingElem.monomial(m, n, i, j, sign)
               for sign in (1, -1) for i in range(m) for j in js)


# --- the trace table ----------------------------------------------------------

def _scalar_class_mod(mat, modulus):
    """lam with mat = lam * I (mod modulus), or None."""
    if mat.b % modulus or mat.c % modulus or (mat.a - mat.d) % modulus:
        return None
    return mat.a % modulus


def second_derived_congruence(m, n):
    """(modulus, scalar classes) pinning the second derived subgroup of the
    embedded group: its elements are scalar lam*I mod the modulus."""
    _check_mn(m, n)
    a = _EMBED_MATS[(m, n)]["a"]
    b = _EMBED_MATS[(m, n)]["b"]
    if (m, n) == (2, 3):
        return 2, frozenset({1})
    if m == 2:
        gen = commutator(a * a * b * a.inverse(), a * b)
    else:
        gen = commutator(b * a, a * (b * a) * a.inverse())
    modulus = 32 if (m, n) == (3, None) else 8
    lam = _scalar_class_mod(gen, modulus)
    if lam is None:
        raise AssertionError("second-derived generator is not scalar mod %d" % modulus)
    lams = {1}
    x = lam
    while x not in lams:
        lams.add(x)
        x = x * lam % modulus
    return modulus, frozenset(lams)


def table1_trace_filter(m, n):
    """Admissible traces for a commutator of topological generators: the
    2 +- 2^k trace form intersected with the scalar congruence classes of
    the second derived subgroup."""
    _check_mn(m, n)
    modulus, lams = second_derived_congruence(m, n)
    trc = embedding_matrix(m, n, "c").trace()
    allowed = {lam * trc % modulus for lam in lams}
    if 2 % modulus in allowed:
        raise ArithmeticError("trace filter would be unbounded")
    out = set()
    k = 0
    while (1 << k) < modulus:
        for cand in (2 + (1 << k), 2 - (1 << k)):
            if cand % modulus in allowed:
                out.add(cand)
        k += 1
    return sorted(out)
