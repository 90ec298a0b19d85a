"""The value contract of every `rings.Frozen` subclass, and the operators
and equalities of the value classes."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import mksurf
from mksurf.certify import Certificate, Check, certify_hfz
from mksurf.lifting import LiftResult
from mksurf.markoff import MarkoffMove, MarkoffPoint
from mksurf.mat2 import Mat2
from mksurf.quadforms import HasseProfile
from mksurf.rings import INF, Frozen, ModInt
from mksurf.words import SRingElem, Word

from _util import check_frozen_like_dataclass

for _info in pkgutil.iter_modules(mksurf.__path__):
    importlib.import_module("mksurf." + _info.name)


_CERT = certify_hfz(1062, bound=50)

# instances of each value class; a class missing here fails its contract test
EXAMPLES = {
    ModInt: [ModInt(3, 8), ModInt(-1, 97)],
    Mat2: [Mat2(2, 1, 1, 1), Mat2(*(ModInt(v, 9) for v in (2, 1, 1, 1)))],
    Word: [Word.make((("a", 1), ("b", 2)), 2, 3), Word.identity(3, None)],
    MarkoffPoint: [MarkoffPoint.make(1, 2, 5), MarkoffPoint.make(Fraction(1, 5), 2, 3)],
    MarkoffMove: [MarkoffMove.perm((2, 3, 1)), MarkoffMove.vieta(2)],
    HasseProfile: [HasseProfile(((5, -1), (13, -1), (INF, 1)))],
    LiftResult: [LiftResult(Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1), "Z", (1, 2, 3))],
    SRingElem: [SRingElem(3, 3, {(0, 0): 1, (2, 0): 1, (2, 2): 1}), SRingElem(2, None)],
    Check: [Check("c", "s", "closed-form", True), _CERT.checks[0]],
    Certificate: [_CERT],
}

# every value class of the package, found after importing each submodule
VALUE_CLASSES = sorted(set(Frozen.__subclasses__()) | set(EXAMPLES), key=lambda c: c.__name__)


def field_tuple(x):
    return tuple(getattr(x, f) for f in type(x).__slots__)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__name__)
def test_every_value_class_keeps_the_value_contract(cls):
    assert cls in EXAMPLES, "%s needs examples in EXAMPLES" % cls.__name__
    for x in EXAMPLES[cls]:
        fields = field_tuple(x)
        try:
            want = hash(fields)
        except TypeError:
            pass
        else:  # so sets and dicts of values keep their orders
            assert hash(x) == want, x
        for other in (None, object(), fields):
            assert not x == other and x != other, x
        for f, value in zip(cls.__slots__, fields):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
            assert getattr(x, f) is value
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is cls and y == x and field_tuple(y) == fields, x


def test_sring_elem_hashes_its_sorted_terms():
    # the terms are the sorted ((i, j), c) pairs, so the field tuple hashes
    # as the sorted items of a dict of them did
    s = EXAMPLES[SRingElem][0]
    assert s.coeffs == (((0, 0), 1), ((0, 1), 1), ((1, 1), 1))
    assert hash(s) == hash((3, 3, tuple(sorted(dict(s.coeffs).items()))))
    assert len({s, SRingElem(3, 3, dict(s.coeffs)), SRingElem(3, 3, s.coeffs[::-1])}) == 1


def test_sring_elem_terms_cannot_change_in_place():
    s = EXAMPLES[SRingElem][0]
    h, r = hash(s), repr(s)
    with pytest.raises(TypeError):
        s.coeffs[0] = ((0, 0), 5)
    with pytest.raises(TypeError):
        del s.coeffs[0]
    for method in ("update", "pop", "clear", "append", "setdefault"):
        assert not hasattr(s.coeffs, method), method
    assert hash(s) == h and repr(s) == r == "+1 +1y +1xy"


def test_value_operators_refuse_foreign_operands():
    m, w = Mat2(1, 0, 0, 1), Word.make((("a", 1),), 2, 3)
    for op in (lambda: m + 1, lambda: m - 1, lambda: 1 + m, lambda: 1 - m, lambda: m * 2,
               lambda: w * 2, lambda: 2 * w, lambda: w * m):
        with pytest.raises(TypeError):
            op()


def test_modint_equals_the_ints_congruent_to_it():
    for q in (2, 3, 8, 9, 16, 97):
        assert ModInt(1, q) == 1 and ModInt(q + 1, q) == 1 and ModInt(1, q) == q + 1
        assert ModInt(1, q) != 0 and ModInt(1, q) != ModInt(1, q + 1)
        for v in range(q):
            assert hash(ModInt(v, q)) == hash((v, q))
    # which no hash can agree with
    assert ModInt(3, 8) == 11 and 11 not in {ModInt(3, 8)}
    # Mat2.inverse tests det != 1 on ModInt entries
    x = Mat2(*(ModInt(v, 5) for v in (2, 1, 1, 1)))
    assert x.inverse() == Mat2(*(ModInt(v, 5) for v in (1, -1, -1, 2)))


def test_check_and_certificate_behave_as_their_dataclasses_did():
    # slot classes (no dataclasses at start) with the dataclasses' reprs, == and defaults
    fields = field_tuple(_CERT)
    check_frozen_like_dataclass(Certificate, fields, fields[:3] + (1,), {"runtime_ms": 0})
    for c in _CERT.checks:
        fields = field_tuple(c)
        check_frozen_like_dataclass(Check, fields, fields[:3] + (not c.result,) + fields[4:],
                                    {"data": None, "bound": None})
