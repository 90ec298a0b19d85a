import copy
import pickle
import random
from functools import lru_cache
from itertools import product

import pytest

import mksurf.words
from mksurf.expected_tables import RT_TABLE
from mksurf.mat2 import Mat2, commutator, mat_mod
from mksurf.rings import BudgetExceeded
from mksurf.words import (
    MAX_METAB_TERMS,
    SRingElem,
    SUPPORTED,
    Word,
    _EMBED_WORDS,
    _coset_labels,
    _cosets,
    _parser,
    _rs_word,
    _syllable_images,
    alg1_representatives,
    conjugacy_class_key,
    embedding_matrix,
    factor_through_embedding,
    in_derived_subgroup,
    is_unit_in_S,
    metabelian_image,
    psl2_class_reps,
    second_derived_congruence,
    table1_trace_filter,
    uv_matrix,
    word,
    word_trace,
)

from _util import (
    cyclic_conjugacy_equal,
    modular_word,
    mul_monomial,
    psl2_class_reps_by_search,
)


def rand_word(m, n, rng, syllables=6, span=3):
    runs = []
    for _ in range(syllables):
        g = rng.choice("ab")
        e = rng.choice([x for x in range(-span, span + 1) if x])
        runs.append((g, e))
    return Word.make(tuple(runs), m, n)


# --- the definitions the fast paths replaced, kept as oracles ----------------

def power_by_products(w, k):
    if k < 0:
        return power_by_products(w.inverse(), -k)
    out = Word.identity(w.m, w.n)
    for _ in range(k):
        out = out * w
    return out


def rotations_by_letters(w):
    letters = w.letters()
    return [Word.make(letters[i:] + letters[:i], w.m, w.n)
            for i in range(max(1, len(letters)))]


def alg1_by_rotating_words(m, n, t):
    """Algorithm 1 one rotation at a time: each rotation of each class
    representative built as a Word and factored on its own, every class
    keeping its first word, keyed by letter rotation."""
    found = {}
    for rep in psl2_class_reps(t):
        for rot in rep.rotations():
            g = factor_through_embedding(m, n, rot)
            if g is None or g.length() == 0:
                continue
            g = g.cyclic_reduction()
            found.setdefault(min(r.runs for r in rotations_by_letters(g)), g)
    return [found[k] for k in sorted(found)]


def modular_word_by_powers(m, n, w):
    uv = Word.identity(2, 3)
    uv_gens = {g: Word.make(r, 2, 3) for g, r in _EMBED_WORDS[(m, n)].items()}
    for g, e in w.runs:
        uv = uv * power_by_products(uv_gens[g], e)
    return uv


def cyclic_reduction_by_conjugation(w):
    while not w.is_cyclically_reduced():
        g, e = w.runs[0]
        conj = Word.make(((g, -e),), w.m, w.n)
        w = conj * w * conj.inverse()
    return w


def syllable_images_by_powers(m, n, max_len):
    out = {}
    for g, o in (("a", m), ("b", n)):
        exps = range(1, o) if o is not None else \
            [e for k in range(1, max_len + 1) for e in (k, -k)]
        base = Word.make(_EMBED_WORDS[(m, n)][g], 2, 3)
        imgs = [(e, power_by_products(base, e).letters()) for e in exps]
        out[g] = tuple(sorted((p for p in imgs if 0 < len(p[1]) <= max_len),
                              key=lambda p: -len(p[1])))
    return out


def worklist_normal_form(m, n, terms):
    """Term-by-term normalization of raw ((i, j), c) terms: x^(m-1) and,
    for finite n, y^(n-1) are pushed back onto the worklist as minus the
    lower powers until every term is in range."""
    coeffs = {}
    work = [(i, j, c) for (i, j), c in terms if c]
    while work:
        i, j, c = work.pop()
        i %= m
        if i == m - 1:
            work.extend((r, j, -c) for r in range(m - 1))
            continue
        if n is not None:
            j %= n
            if j == n - 1:
                work.extend((i, r, -c) for r in range(n - 1))
                continue
        v = coeffs.get((i, j), 0) + c
        if v:
            coeffs[(i, j)] = v
        else:
            coeffs.pop((i, j), None)
    return coeffs


def metabelian_image_by_letters(m, n, w):
    """Per-letter accumulation: a at prefix (i, j) subtracts x^i times the
    geometric sum 1 + y + ... + y^(j-1) (or -(y^j + ... + y^-1) for j < 0),
    a^-1 adds x^(i-1) times it, and the sum so far is normalized after
    every letter; j is never reduced mod n."""
    acc = {}
    i = j = 0
    for g, e in w.letters():
        if g == "b":
            j += e
            continue
        if e == -1:
            i -= 1
        geo = [((i, r), 1) for r in range(j)] if j >= 0 else [((i, r), -1) for r in range(j, 0)]
        acc = worklist_normal_form(m, n, list(acc.items()) + [(key, -e * c) for key, c in geo])
        if e == 1:
            i += 1
    return acc


def rand_derived_word(m, n, rng):
    """A seeded random word times the a- and b-powers that cancel its
    exponent sums, so it lies in the derived subgroup."""
    w = rand_word(m, n, rng, syllables=rng.randint(0, 10), span=6)
    sa, sb = w.exponent_sums()
    return w * Word.make((("a", -sa), ("b", -sb)), m, n)


def sample_words(m, n, rng, count=60):
    """Seeded random words with negative exponents, plus the empty word and
    single runs."""
    out = [Word.identity(m, n)]
    out += [Word.make(((g, e),), m, n) for g in "ab" for e in (1, -1, 2, -2, 5, -5)]
    out += [rand_word(m, n, rng, syllables=rng.randint(1, 7), span=4)
            for _ in range(count)]
    return out


def test_pow_matches_repeated_products():
    rng = random.Random(76)
    for (m, n) in SUPPORTED:
        for w in sample_words(m, n, rng):
            for k in range(-4, 5):
                assert w ** k == power_by_products(w, k), (str(w), k)


def test_rotations_match_letter_rotations():
    rng = random.Random(77)
    uv_singles = [Word.make((("v", 2),), 2, 3), Word.make((("u", 1),), 2, 3)]
    for (m, n) in SUPPORTED + ((None, None),):
        words = sample_words(m, n, rng)
        if (m, n) != (None, None):
            words += [modular_word(m, n, w) for w in words[:30]]
        for w in [w.cyclic_reduction() for w in words] + uv_singles:
            assert w.rotations() == rotations_by_letters(w), str(w)
    assert Word.make((("b", 5),), 2, None).rotations() == [Word.make((("b", 5),), 2, None)] * 5
    assert Word.make((("b", -3),), 2, None).rotations() == [Word.make((("b", -3),), 2, None)] * 3
    assert Word.identity(2, 3).rotations() == [Word.identity(2, 3)]


def test_class_key_matches_least_letter_rotation():
    rng = random.Random(79)
    for (m, n) in SUPPORTED + ((None, None),):
        words = sample_words(m, n, rng, count=120)
        if (m, n) != (None, None):
            words += [modular_word(m, n, w) for w in words[:40]]
        for w in (w.cyclic_reduction() for w in words):
            assert conjugacy_class_key(w) == min(r.runs for r in rotations_by_letters(w)), str(w)


def test_modular_word_matches_powers_of_images():
    rng = random.Random(78)
    for (m, n) in SUPPORTED:
        for w in sample_words(m, n, rng):
            assert modular_word(m, n, w) == modular_word_by_powers(m, n, w), str(w)


def test_syllable_images_match_powers_of_base():
    for (m, n) in SUPPORTED:
        for max_len in range(0, 31):
            assert _syllable_images(m, n, max_len) == \
                syllable_images_by_powers(m, n, max_len), (m, n, max_len)


def test_reduce_word_examples():
    assert word(2, 3, "a a").runs == ()
    assert word(2, 3, "b b b").runs == ()
    assert word(None, None, "a b b-1 a").runs == (("a", 2),)
    assert word(2, 3, "a b-1").runs == (("a", 1), ("b", 2))
    assert str(word(3, None, "a2 a2 b b-1 a-1")) == "1"


def test_reduce_word_idempotent_and_shorter():
    rng = random.Random(70)
    for (m, n) in SUPPORTED:
        for _ in range(300):
            w = rand_word(m, n, rng)
            raw_len = sum(abs(e) for _, e in w.runs)
            again = Word.make(w.runs, m, n)
            assert again.runs == w.runs
            assert again.length() <= raw_len + 1  # already normalized


def test_cyclic_conjugacy():
    w1 = word(None, None, "a b")
    w2 = word(None, None, "b a")
    assert cyclic_conjugacy_equal(w1, w2)
    w3 = word(None, None, "a b-1")
    assert not cyclic_conjugacy_equal(w1, w3)
    c = word(None, None, "a b a-1 b-1")
    rot = word(None, None, "b a-1 b-1 a")
    assert cyclic_conjugacy_equal(c, rot)
    with pytest.raises(ValueError):
        cyclic_conjugacy_equal(word(None, None, "a b a-1"), w1)


def test_cyclic_reduction_matches_conjugation():
    rng = random.Random(80)
    for (m, n) in SUPPORTED + ((None, None),):
        for w in sample_words(m, n, rng, count=500):
            x = rand_word(m, n, rng, syllables=rng.randint(0, 4))
            for v in (w, x * w * x.inverse()):
                assert v.cyclic_reduction() == cyclic_reduction_by_conjugation(v), str(v)


def test_embedding_table():
    # the defining table, commutators included
    assert embedding_matrix(2, 3, "a") == Mat2(0, -1, 1, 0)
    assert embedding_matrix(2, 3, "b") == Mat2(0, -1, 1, 1)
    assert embedding_matrix(2, 3, "c") == Mat2(2, 1, 1, 1)
    assert embedding_matrix(2, None, "b") == Mat2(0, 1, -1, -2)
    assert embedding_matrix(2, None, "c") == Mat2(5, 2, 2, 1)
    assert embedding_matrix(3, 3, "b") == Mat2(1, -1, 1, 0)
    assert embedding_matrix(3, 3, "c") == Mat2(1, -2, -2, 5)
    assert embedding_matrix(3, None, "b") == Mat2(-3, 1, -1, 0)
    assert embedding_matrix(3, None, "c") == Mat2(1, -4, -4, 17)
    for (m, n) in SUPPORTED:
        a = embedding_matrix(m, n, "a")
        b = embedding_matrix(m, n, "b")
        assert commutator(a, b) == embedding_matrix(m, n, "c")
        # generator orders in the quotient by +-I
        ident = Mat2(1, 0, 0, 1)
        assert a**m in (ident, -ident)
        if n is not None:
            assert b**n in (ident, -ident)


def test_embedded_words_match_matrices():
    rng = random.Random(71)
    for (m, n) in SUPPORTED:
        for _ in range(200):
            w = rand_word(m, n, rng, syllables=4)
            lifted = uv_matrix(modular_word(m, n, w))
            direct = Mat2(1, 0, 0, 1)
            for g, e in w.runs:
                direct = direct * embedding_matrix(m, n, g) ** e
            assert lifted in (direct, -direct)


def test_word_length_never_shrinks_under_embedding():
    rng = random.Random(72)
    for (m, n) in SUPPORTED:
        for _ in range(10**3):
            w = rand_word(m, n, rng, syllables=5)
            assert modular_word(m, n, w).length() >= w.length()


def test_word_trace():
    assert word_trace(2, 3, word(2, 3, "a b a-1 b-1")) == 3
    assert word_trace(2, 3, word(2, 3, "")) == 2
    assert word_trace(2, 3, word(2, 3, "u v u v2")) == 3
    assert word_trace(3, None, word(3, None, "b2 a2")) == 14
    assert word_trace(2, None, word(2, None, "a b3")) == 6


def test_psl2_class_reps_t3():
    reps = psl2_class_reps(3)
    assert len(reps) == 1
    assert reps[0].runs == (("u", 1), ("v", 1), ("u", 1), ("v", 2))


def test_psl2_class_reps_complete_at_t6():
    # cross-check against sequence enumeration without the trace pruning
    reps = {conjugacy_class_key(w) for w in psl2_class_reps(6)}
    brute = set()
    r = Mat2(1, 1, 0, 1)
    s = Mat2(1, 0, 1, 1)
    for k in range(1, 7):
        for seq in product((1, 2), repeat=k):
            mat = Mat2(1, 0, 0, 1)
            for e in seq:
                mat = mat * (r if e == 1 else s)
            if abs(mat.trace()) == 6:
                runs = []
                for e in seq:
                    runs.extend((("u", 1), ("v", e)))
                brute.add(conjugacy_class_key(Word.make(tuple(runs), 2, 3)))
    assert reps == brute
    assert len(reps) == 3


def test_psl2_class_reps_have_the_trace():
    for t in (3, 5, 6, 14, 18):
        for w in psl2_class_reps(t):
            assert word_trace(2, 3, w) == t
            assert w.is_cyclically_reduced()


def test_psl2_class_reps_match_the_search():
    for t in range(3, 61):
        assert psl2_class_reps(t) == psl2_class_reps_by_search(t), t


def test_rs_word_recovers_positive_words():
    rng = random.Random(81)
    letters = {1: Mat2(1, 1, 0, 1), 2: Mat2(1, 0, 1, 1)}
    assert _rs_word(1, 0, 0, 1) == ()
    for _ in range(500):
        seq = tuple(rng.choice((1, 2)) for _ in range(rng.randint(1, 40)))
        mat = Mat2(1, 0, 0, 1)
        for e in seq:
            mat = mat * letters[e]
        assert _rs_word(mat.a, mat.b, mat.c, mat.d) == seq


def test_psl2_small_trace_classes():
    # traces 0 and 1 are the finite-order classes u, v and v^2, and trace 2
    # is the infinite parabolic family (uv)^r: class reps start at trace 3
    for t in (0, 1, 2):
        with pytest.raises(ValueError, match="need trace >= 3"):
            psl2_class_reps(t)


def test_factor_through_embedding_round_trip():
    rng = random.Random(73)
    for (m, n) in SUPPORTED:
        for _ in range(150):
            w = rand_word(m, n, rng, syllables=4, span=2)
            img = modular_word(m, n, w)
            back = factor_through_embedding(m, n, img)
            assert back is not None and back.runs == w.runs, (m, n, str(w))


def test_factor_through_embedding_parses_map_back_to_the_input():
    # the docstring's proof that a parse needs no re-expansion check, on
    # every rotation that Algorithm 1 tries up to trace 30
    parses = 0
    for (m, n) in SUPPORTED:
        for t in range(3, 31):
            for rep in psl2_class_reps(t):
                for rot in rep.rotations():
                    g = factor_through_embedding(m, n, rot)
                    if g is not None:
                        assert modular_word(m, n, g) == rot, (m, n, str(rot))
                        parses += 1
    assert parses > 1000


def test_factor_through_embedding_rejects_outsiders():
    # v alone is not in the (2, inf) subgroup generated by u and vuv
    assert factor_through_embedding(2, None, word(2, 3, "v")) is None
    assert factor_through_embedding(3, 3, word(2, 3, "u")) is None


def test_alg1_tables():
    def inv_class_key(w):
        return min(conjugacy_class_key(w.cyclic_reduction()),
                   conjugacy_class_key(w.inverse().cyclic_reduction()))

    for (m, n, t), (exp_words, exp_derived) in RT_TABLE.items():
        reps = alg1_representatives(m, n, t)
        # every output word: cyclically reduced, right trace, pairwise non-conjugate
        for w in reps:
            assert w.is_cyclically_reduced()
            assert word_trace(m, n, w) == t
        for i, w1 in enumerate(reps):
            for w2 in reps[i + 1:]:
                assert not cyclic_conjugacy_equal(w1, w2)
        got = {inv_class_key(w) for w in reps}
        want = {inv_class_key(word(m, n, s)) for s in exp_words}
        assert got == want, (m, n, t)
        got_d = {inv_class_key(w) for w in reps if in_derived_subgroup(m, n, w)}
        want_d = {inv_class_key(word(m, n, s)) for s in exp_derived}
        assert got_d == want_d, (m, n, t)


def test_alg1_invariants_up_to_trace_24():
    # independent of the rotations under test: classes keyed by letter rotation
    def letter_key(w):
        return min(r.runs for r in rotations_by_letters(w))

    for (m, n) in SUPPORTED:
        for t in range(3, 25):
            reps = alg1_representatives(m, n, t)
            for w in reps:
                assert w.length() > 0 and w.is_cyclically_reduced()
                assert word_trace(m, n, w) == t, (m, n, t, str(w))
            assert len({letter_key(w) for w in reps}) == len(reps), (m, n, t)
            if (m, n) == (2, 3):
                assert len(reps) == len(psl2_class_reps(t)), t


@pytest.mark.parametrize("m, n", SUPPORTED)
def test_alg1_matches_rotating_words(m, n):
    # the same words in the same order, so the first word of each class too
    for t in list(range(3, 25)) + [30, 40]:
        assert alg1_representatives(m, n, t) == alg1_by_rotating_words(m, n, t), (m, n, t)


@lru_cache(maxsize=None)
def image_mod4(m, n):
    """The embedded group's image in SL2(Z/4), -I included, by closure under
    the defining matrices: the oracle for membership in K."""
    gens = [mat_mod(embedding_matrix(m, n, g), 4) for g in "ab"]
    ident = gens[0].identity_like()
    seen = {ident.entries(), (-ident).entries()}
    frontier = [ident, -ident]
    while frontier:
        frontier = [h * g for h in frontier for g in gens if (h * g).entries() not in seen]
        seen.update(h.entries() for h in frontier)
    return seen


def in_k(m, n, uv_word):
    return mat_mod(uv_matrix(uv_word), 4).entries() in image_mod4(m, n)


def walk(act, c, uv_word):
    for g, _ in uv_word.letters():
        c = act[g][c]
    return c


def test_cosets_oracles():
    want = {(2, 3): (1, True), (2, None): (3, True), (3, 3): (2, True), (3, None): (8, False)}
    for (m, n), (index, exact) in want.items():
        reps, act, got_exact = _cosets(m, n)
        assert (len(reps), got_exact) == (index, exact), (m, n)
        assert len(image_mod4(m, n)) == 48 // index  # SL2(Z/4) has 48 elements
        # a and b fix coset 0; the representatives walk from 0 to their cosets
        for g in "ab":
            assert walk(act, 0, Word.make(_EMBED_WORDS[(m, n)][g], 2, 3)) == 0, (m, n, g)
        assert reps[0] == Word.identity(2, 3)
        assert [walk(act, 0, x) for x in reps] == list(range(index))
        for g in ("u", "v"):
            assert sorted(act[g]) == list(range(index))
            for i, j in enumerate(act[g]):
                assert in_k(m, n, reps[i] * Word(((g, 1),), 2, 3) * reps[j].inverse())


def test_cosets_of_3_inf_are_not_those_of_the_embedded_group():
    # a coset-representative product in K that does not parse: H is smaller than K
    reps, act, _ = _cosets(3, None)
    witnesses = [reps[i] * Word(((g, 1),), 2, 3) * reps[j].inverse()
                 for g in ("u", "v") for i, j in enumerate(act[g])]
    outside = [x for x in witnesses if factor_through_embedding(3, None, x) is None]
    assert outside
    for x in outside:
        assert in_k(3, None, x), str(x)


def test_coset_labels_are_the_rotations_in_k():
    for (m, n) in SUPPORTED:
        _, act, _ = _cosets(m, n)
        for t in range(3, 21):
            for rep in psl2_class_reps(t):
                letters = rep.letters()
                labels = _coset_labels(act, letters)
                for s, rot in enumerate(rep.rotations()):
                    assert (labels[s] is not None) == in_k(m, n, rot), (m, n, str(rot))
                    if labels[s] is not None:
                        assert walk(act, labels[s], Word.make(letters[:s], 2, 3)) == 0


def test_coset_filter_keeps_every_start_that_parses():
    # the filter rejects no rotation that parses, and when the cosets are
    # exact every start it keeps parses
    kept = parsed = 0
    for (m, n) in SUPPORTED:
        _, act, exact = _cosets(m, n)
        for t in range(3, 31):
            for rep in psl2_class_reps(t):
                letters = rep.letters()
                parse = _parser(m, n, letters)
                for start, label in enumerate(_coset_labels(act, letters)):
                    ok = parse(start) is not None
                    assert label is not None or not ok, (m, n, t, str(rep), start)
                    if exact:
                        assert ok == (label is not None), (m, n, t, str(rep), start)
                    kept += label is not None
                    parsed += ok
    assert parsed > 1000 and kept > parsed  # (3, inf) keeps starts outside H


def test_word_is_an_immutable_value():
    w = Word(runs=(("a", 1), ("b", 2)), m=2, n=3)
    assert w == Word((("a", 1), ("b", 2)), 2, 3) == word(2, 3, "a b2")
    assert w != Word((("a", 1), ("b", 2)), 2, None)
    assert hash(w) == hash(word(2, 3, "a b-1"))
    assert repr(w) == "<a b2 | 2,3>"
    assert len({w, word(2, 3, "a b2"), word(2, 3, "b a")}) == 2
    with pytest.raises(AttributeError):
        w.runs = ()
    with pytest.raises(AttributeError):
        del w.m
    assert copy.copy(w) == pickle.loads(pickle.dumps(w)) == w


@pytest.mark.parametrize("text", ["ab", "b-", "a1.5", "a b3x"])
def test_word_names_the_bad_token(text):
    bad = text.split()[-1]
    with pytest.raises(ValueError, match="word token '%s' is not a letter" % bad.replace(".", r"\.")):
        word(3, 3, text)


def test_unsupported_orders_spell_inf():
    with pytest.raises(ValueError, match=r"unsupported orders \(inf, 3\)"):
        alg1_representatives(None, 3, 5)
    with pytest.raises(ValueError, match=r"unsupported orders \(5, inf\)"):
        word_trace(5, None, word(5, None, "a b"))


def test_in_derived_subgroup():
    assert in_derived_subgroup(2, 3, word(2, 3, "a b a-1 b-1"))
    assert not in_derived_subgroup(2, 3, word(2, 3, "a"))
    assert in_derived_subgroup(3, 3, word(3, 3, "a b") ** 3)
    assert not in_derived_subgroup(2, None, word(2, None, "a b2"))
    with pytest.raises(ValueError, match="not a word in a and b"):
        in_derived_subgroup(3, None, word(3, None, "u v"))


def test_metabelian_images():
    for (m, n) in SUPPORTED:
        c = word(m, n, "a b a-1 b-1")
        assert metabelian_image(m, n, c) == SRingElem.monomial(m, n, 0, 0, 1)
        for r in range(-10, 11):
            img = metabelian_image(m, n, c**r)
            assert img == SRingElem.monomial(m, n, 0, 0, r)
    ab3 = word(3, 3, "a b") ** 3
    img = metabelian_image(3, 3, ab3)
    want = SRingElem(3, 3, {(0, 0): 1, (2, 0): 1, (2, 2): 1})
    assert img == want
    assert not is_unit_in_S(3, 3, img)
    conj = word(2, 3, "b a b a-1 b-1 b-1")
    assert metabelian_image(2, 3, conj) == SRingElem.monomial(2, 3, 0, 1, 1)
    with pytest.raises(ValueError):
        metabelian_image(2, 3, word(2, 3, "a"))


def test_metabelian_crossed_homomorphism():
    rng = random.Random(74)
    for (m, n) in SUPPORTED:
        for _ in range(100):
            g = rand_word(m, n, rng, syllables=4, span=2)
            h0 = rand_word(m, n, rng, syllables=3, span=2)
            h = h0 * word(m, n, "a b a-1 b-1") * h0.inverse()
            sa, sb = g.exponent_sums()
            lhs = metabelian_image(m, n, g * h * g.inverse())
            rhs = mul_monomial(metabelian_image(m, n, h), sa, sb)
            assert lhs == rhs


def test_metabelian_image_matches_the_per_letter_oracle():
    rng = random.Random(79)
    for (m, n) in SUPPORTED:
        for _ in range(600):
            w = rand_derived_word(m, n, rng)
            assert metabelian_image(m, n, w).coeffs == metabelian_image_by_letters(m, n, w), str(w)
            raw = [((rng.randint(-9, 9), rng.randint(-9, 9)), rng.randint(-4, 4))
                   for _ in range(rng.randint(0, 8))]
            assert SRingElem(m, n, raw).coeffs == worklist_normal_form(m, n, raw)
            assert SRingElem(m, n, dict(raw)).coeffs == worklist_normal_form(m, n, dict(raw).items())


def test_metabelian_image_length_budget_edge(monkeypatch):
    # the budget counts emitted terms: sum of |j| over the a-letters
    assert MAX_METAB_TERMS == 3500**2 // 8
    # the longest words that the former 3500-letter budget accepted still pass
    h = 3500 // 2 - 1
    at_old_cap = word(2, None, "a b%d a b-%d" % (h, h))
    assert metabelian_image(2, None, at_old_cap) == \
        SRingElem(2, None, {(0, r): 1 for r in range(h)})
    dense = word(2, None, "b875 " + "a b a b-1 " * 437 + "b-875")  # 765187 terms
    assert dense.length() == 3498
    assert metabelian_image(2, None, dense) == SRingElem(2, None, {(0, 875): 437})
    # a long word of few terms passes: 10002 letters, 5000 terms
    cheap = word(2, None, "a b5000 a b-5000")
    assert metabelian_image(2, None, cheap) == SRingElem(2, None, {(0, r): 1 for r in range(5000)})
    monkeypatch.setattr(mksurf.words, "MAX_METAB_TERMS", 10)
    assert metabelian_image(3, None, word(3, None, "a b5 a2 b-5")) == \
        SRingElem(3, None, {(0, r): 1 for r in range(5)})
    with pytest.raises(BudgetExceeded, match="image of 11 terms exceeds the budget of 10"):
        metabelian_image(2, None, word(2, None, "a b-11 a b11"))
    with pytest.raises(BudgetExceeded, match="of 12 terms"):
        metabelian_image(3, None, word(3, None, "a b6 a2 b-6"))
    with pytest.raises(BudgetExceeded, match="of 12 terms"):  # j is kept mod 3
        metabelian_image(3, 3, word(3, 3, "a b") ** 12)


def test_units_in_S23():
    units = set()
    for sign in (1, -1):
        for i in range(2):
            for j in range(3):
                e = SRingElem.monomial(2, 3, i, j, sign)
                assert is_unit_in_S(2, 3, e)
                units.add(e)
    assert len(units) == 6  # the Eisenstein unit count
    rng = random.Random(75)
    rejected = 0
    for _ in range(10**3):
        e = SRingElem(2, 3, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                             for _ in range(3)})
        assert is_unit_in_S(2, 3, e) == (e in units)
        rejected += e not in units
    assert rejected > 800


def test_units_in_S_infinite_n():
    assert is_unit_in_S(2, None, SRingElem.monomial(2, None, 1, -7, -1))
    bad = SRingElem(2, None, {(0, 0): 1, (0, 3): 1})
    assert not is_unit_in_S(2, None, bad)
    assert not is_unit_in_S(2, None, SRingElem(2, None))


def test_second_derived_congruence_generators():
    # the explicit second-derived generators reduce to the scalar classes
    a = embedding_matrix(2, None, "a")
    b = embedding_matrix(2, None, "b")
    g = commutator(a * a * b * a.inverse(), a * b)
    assert g == Mat2(5, -8, -8, 13)
    assert mat_mod(g, 8) == mat_mod(Mat2(5, 0, 0, 5), 8)
    assert second_derived_congruence(2, None) == (8, frozenset({1, 5}))
    assert second_derived_congruence(2, 3) == (2, frozenset({1}))
    assert second_derived_congruence(3, 3) == (8, frozenset({1, 5}))
    assert second_derived_congruence(3, None) == (32, frozenset({1, 17}))


def test_nested_commutator_congruence_identity():
    # [X, YXY^-1] for X unipotent upper-triangular is scalar-diagonal mod k^3
    y = Mat2(0, -1, 1, 1)
    for k in range(-6, 7):
        x = Mat2(1, k, 0, 1)
        w = commutator(x, y * x * y.inverse())
        assert w == Mat2(1 - k**2 + k**4, k**3, k**3, 1 + k**2)


def test_table1_trace_filter():
    assert table1_trace_filter(2, 3) == [1, 3]
    assert table1_trace_filter(2, None) == [-2, 6]
    assert table1_trace_filter(3, 3) == [-2, 6]
    assert table1_trace_filter(3, None) == [-14, 18]


def test_good_projection():
    # the embedded generators generate all of SL2(Z/p) for odd p
    for (m, n) in SUPPORTED:
        gens = [mat_mod(embedding_matrix(m, n, g), 5) for g in "ab"]
        for p in (5, 7, 11):
            gens = [mat_mod(embedding_matrix(m, n, g), p) for g in "ab"]
            gens += [g.inverse() for g in gens]
            seen = {gens[0].identity_like().entries(): gens[0].identity_like()}
            frontier = list(seen.values())
            while frontier:
                nxt = []
                for h in frontier:
                    for g in gens:
                        cand = h * g
                        if cand.entries() not in seen:
                            seen[cand.entries()] = cand
                            nxt.append(cand)
                frontier = nxt
            order = p * (p * p - 1)
            assert len(seen) == order, (m, n, p)
