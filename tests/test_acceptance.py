"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from fractions import Fraction

from mksurf.certify import certify_hfz, certify_sint_failure, verify_hfe1
from mksurf.mat2 import Mat2, commutator, mat_mod
from mksurf.markoff import (
    GENERATORS,
    MarkoffMove,
    MarkoffPoint,
    admissible_t,
    apply_move,
    class_data,
    search_integral,
)
from mksurf.lifting import lift2, pair_move, trace_triple
from mksurf.quadforms import form_isotropic, hasse_profile
from mksurf.quotients import commutator_test_modq, trace_commutator_image
from mksurf.rings import hilbert
from mksurf.words import (
    SUPPORTED,
    SRingElem,
    embedding_matrix,
    is_unit_in_S,
    metabelian_image,
    word,
)
from mksurf.cli import repro

from _util import form_value, hilbert_product_places, random_sl2z, same_orbit

def report(num, ok, text):
    print("criterion %-2s %s  %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %s failed: %s" % (num, text)


def test_criterion_1_class_numbers():
    t0 = time.time()
    ok = True
    expected = {70: 1, 108: 1, 460: 2, 329: 2, 3780: 1}
    classes = {k: class_data(k) for k in expected}
    ok &= all(len(classes[k]) == h for k, h in expected.items())
    ok &= any(same_orbit(c, MarkoffPoint.make(-3, 3, 6)) for c in classes[108])
    ok &= any(same_orbit(c, MarkoffPoint.make(-3, 8, 8)) for c in classes[329])
    ok &= any(same_orbit(c, MarkoffPoint.make(-4, 4, 11)) for c in classes[329])
    ok &= same_orbit(classes[70][0], MarkoffPoint.make(-3, 3, 4))
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(1, ok, "class numbers 70/108/329/460/3780 with named orbits (%.1fs)" % elapsed)


def sample_orbit(start, count, rng, cap=10**7):
    pts = [start]
    seen = {start.coords()}
    p = start
    while len(pts) < count:
        q = apply_move(rng.choice(GENERATORS), p)
        if q.maxabs() > cap:
            p = start
            continue
        p = q
        if q.coords() not in seen:
            seen.add(q.coords())
            pts.append(q)
    return pts


def test_criterion_2_genus_separation():
    rng = random.Random(2)
    classes = class_data(329)
    by_orbit = {}
    for c in classes:
        if same_orbit(c, MarkoffPoint.make(-3, 8, 8)):
            by_orbit["minus"] = c
        if same_orbit(c, MarkoffPoint.make(-4, 4, 11)):
            by_orbit["plus"] = c
    prof_minus = hasse_profile(by_orbit["minus"])
    prof_plus = hasse_profile(by_orbit["plus"])
    ok = {place for place, v in prof_minus.entries if v == -1} == {5, 13}
    ok &= {place for place, v in prof_plus.entries if v == -1} == set()
    ok &= prof_minus.product() == 1 and prof_plus.product() == 1
    for key, base in (("minus", {5, 13}), ("plus", set())):
        for p in sample_orbit(by_orbit[key], 50, rng):
            ok &= {place for place, v in hasse_profile(p).entries if v == -1} == base
    report(2, ok, "level-329 genus separation, profiles constant on 50 orbit points")


def test_criterion_3_isotropy():
    ok = True
    for k in (70, 460):
        for rep in class_data(k):
            verdict, _ = form_isotropic(rep)
            ok &= verdict == "Anisotropic"
    p3780 = class_data(3780)[0]
    verdict, data = form_isotropic(p3780)
    ok &= verdict == "Isotropic" and form_value(p3780, *data["witness"]) == 0
    # (409, 251, 5) is a known zero of the level-3780 form, kept as a
    # fixed regression value
    ok &= form_value(MarkoffPoint.make(-3, 3, 57), 409, 251, 5) == 0
    second = next(c for c in class_data(329)
                  if same_orbit(c, MarkoffPoint.make(-4, 4, 11)))
    verdict, data = form_isotropic(second)
    ok &= verdict == "Isotropic" and form_value(second, *data["witness"]) == 0
    ok &= form_value(MarkoffPoint.make(-4, 4, 11), 9, 1, -1) == 0
    report(3, ok, "anisotropy at 70/460, verified zeros at 3780 and 329-class-2")


def test_criterion_4_hasse_failures_over_z():
    for k, nu in ((1062, 23), (1456, 11), (386424, 139)):
        t0 = time.time()
        c = certify_hfz(k, bound=10**4)
        elapsed = time.time() - t0
        ok = c.conclusion and elapsed < 60
        by_name = {ch.name: ch for ch in c.checks}
        ok &= by_name["integral-search-empty"].bound == 10**4
        ok &= any(f["evidence"]["nu"] == nu
                  for f in by_name["family-membership"].data["candidates"] if f["holds"])
        report("4(k=%d)" % k, ok, "empty at bound 1e4 in %.1fs" % elapsed)


def test_criterion_5_hasse_failure_over_s_integers():
    k = 4 + 20 * 139**2
    c = certify_sint_failure(k, 19, bound=10**3, max_exp=3)
    ok = c.conclusion
    t = 2 + 20 * 139**2
    ok &= admissible_t(t)
    report(5, ok, "S-integer failure at (k=4+20*139^2, ell=19); trace admissible")


def test_criterion_6_hfe1_end_to_end():
    t0 = time.time()
    cert = verify_hfe1(139, 19, local_moduli=(2, 3, 4, 5, 7, 8, 9, 16, 27, 32))
    elapsed = time.time() - t0
    ok = cert.conclusion and elapsed < 600
    by_name = {ch.name: ch for ch in cert.checks}
    ok &= by_name["matrix-shape"].result
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 32):
        ok &= by_name["commutator-mod-%d" % q].result
    ok &= by_name["nonsolvable-over-s-integers"].result
    report(6, ok, "explicit matrix: local witnesses at 10 moduli, global failure (%.1fs)"
           % elapsed)


def test_criterion_7_trace_images():
    t0 = time.time()
    img9 = trace_commutator_image(9)
    img16 = trace_commutator_image(16)
    elapsed = time.time() - t0
    ok = img9 == set(range(9)) - {1, 4, 5, 8}
    ok &= img16 & {0, 1, 4, 5, 8, 9, 10, 12, 13} == set()
    ok &= elapsed < 300
    report(7, ok, "images mod 9 and 16: %s / %s (%.1fs)"
           % (sorted(img9), sorted(img16), elapsed))


def test_criterion_8_tables():
    ok1, _ = repro("t1")
    ok2, _ = repro("rt")
    ok3, _ = repro("embeddings")
    ok = ok1 and ok2 and ok3
    for (m, n) in SUPPORTED:
        a = embedding_matrix(m, n, "a")
        b = embedding_matrix(m, n, "b")
        ok &= commutator(a, b) == embedding_matrix(m, n, "c")
    report(8, ok, "trace table, representative table, embedding table")


def test_criterion_9_metabelian():
    ok = True
    for (m, n) in SUPPORTED:
        img = metabelian_image(m, n, word(m, n, "a b a-1 b-1"))
        ok &= img == SRingElem.monomial(m, n, 0, 0, 1)
    img = metabelian_image(3, 3, word(3, 3, "a b") ** 3)
    want = SRingElem(3, 3, {(0, 0): 1, (2, 0): 1, (2, 2): 1})
    ok &= img == want and not is_unit_in_S(3, 3, img)
    count = 0
    for sign in (1, -1):
        for i in range(2):
            for j in range(3):
                count += is_unit_in_S(2, 3, SRingElem.monomial(2, 3, i, j, sign))
    ok &= count == 12
    rng = random.Random(9)
    units = {SRingElem.monomial(2, 3, i, j, s)
             for i in range(2) for j in range(3) for s in (1, -1)}
    for _ in range(500):
        e = SRingElem(2, 3, {(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                             for _ in range(3)})
        ok &= is_unit_in_S(2, 3, e) == (e in units)
    report(9, ok, "metabelian images and the 12 unit monomials")


def test_criterion_10_property_suites():
    t0 = time.time()
    rng = random.Random(10)
    ok = True
    # adjugate / Cayley-Hamilton / determinant expansion
    for _ in range(10**4):
        a = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        b = Mat2(*(rng.randint(-9, 9) for _ in range(4)))
        ident = a.identity_like()
        ok &= a + a.adjugate() == ident.scale(a.trace())
        ok &= a * a.adjugate() == ident.scale(a.det())
        ok &= a * a == a.scale(a.trace()) - ident.scale(a.det())
        ok &= (a + b).det() == a.det() + b.det() + (a * b.adjugate()).trace()
    # commutator expansion, Fricke, trace-set characterization
    for _ in range(2000):
        x = random_sl2z(rng, length=5)
        y = random_sl2z(rng, length=5)
        z = commutator(x, y)
        x1, x2, x3 = trace_triple(x, y)
        ident = x.identity_like()
        ok &= z == (x * y).scale(x3) + x.scale(x1 - x2 * x3) + y.inverse().scale(x2) - ident
        ok &= x1 * x1 + x2 * x2 + x3 * x3 - x1 * x2 * x3 == z.trace() + 2
    # lift2 round trip over Q
    done = 0
    while done < 10**3:
        x0 = random_sl2z(rng, length=5)
        y0 = random_sl2z(rng, length=5)
        z = commutator(x0, y0)
        if z.trace() + 2 - y0.trace() ** 2 == 0:
            continue
        lifted = lift2(z.map(Fraction), y0.map(Fraction),
                       Fraction(x0.trace()), Fraction((x0 * y0).trace()))
        ok &= lifted == x0.map(Fraction)
        done += 1
    # both pair-move tables with orientation
    for _ in range(10**3):
        x = random_sl2z(rng, length=4)
        y = random_sl2z(rng, length=4)
        z = commutator(x, y)
        k = z.trace() + 2
        for mv in (MarkoffMove.perm((1, 2, 3)),) + GENERATORS:
            a, b, flip = pair_move(mv, x, y)
            ok &= commutator(a, b) == (z.inverse() if flip else z)
            want = apply_move(mv, MarkoffPoint(*trace_triple(x, y), k=k)).coords()
            ok &= trace_triple(a, b) == want  # pi-equivariance
    # Hilbert product formula
    for _ in range(10**3):
        a = rng.randint(-400, 400) or 1
        b = rng.randint(-400, 400) or 1
        prod = 1
        for p in hilbert_product_places(a, b):
            prod *= hilbert(a, b, p)
        ok &= prod == 1
    elapsed = time.time() - t0
    ok &= elapsed < 60
    report(10, ok, "identity/lift/orientation/product property suites (%.1fs)"
           % elapsed)


def test_criterion_11_worked_trace_examples():
    ok = all(admissible_t(t) for t in (3, -21, 15))
    ok &= not admissible_t(4)
    ok &= not admissible_t(10)  # recorded against the open t=106 question
    z = Mat2(2, 5, 5, 13)
    ok &= z.det() == 1 and z.trace() == 15
    ok &= all(commutator_test_modq(mat_mod(z, q), q)[0] for q in (4, 9, 16))
    report(11, ok, "admissibility at t in {3,-21,15,4,10}; trace-15 matrix a commutator mod 4, 9, 16")
