import copy
import itertools
import json
import random
from pathlib import Path

import pytest

import mksurf.certify
from mksurf.certify import (
    DEFAULT_HFE1_MODULI,
    _KINDS,
    _local_commutator_check,
    build_hfe1_matrix,
    certify_hfz,
    certify_sint_failure,
    check_certificate,
    verify_hfe1,
)
from mksurf.mat2 import Mat2, mat_mod
from mksurf.quotients import commutator_test_modq

from _util import random_sl2z

DATA = Path(__file__).parent / "data"


def stored_v1(name):
    """A certificate file written by the schema-1 code before certify_hfz
    checked congruence obstructions and while certify_e2_failure existed."""
    return json.loads((DATA / name).read_text())


def test_hfz_families():
    c = certify_hfz(1062, bound=2000)  # nu = 23 in the 2*nu^2 family
    assert c.conclusion
    fam = c.checks[0].data["candidates"]
    assert fam[0]["family"] == "i" and fam[0]["holds"]
    c = certify_hfz(386424, bound=2000)  # nu = 139 = -1 (mod 20)
    assert c.conclusion
    fam = [f for f in c.checks[0].data["candidates"] if f["holds"]]
    assert fam[0]["family"] == "iii"
    # family (ii): nu = 11 = -1 (mod 12) with 11^2 = 25 (mod 32)
    c = certify_hfz(4 + 12 * 121, bound=500)
    assert c.conclusion
    fam = [f for f in c.checks[0].data["candidates"] if f["family"] == "ii"]
    assert fam and fam[0]["holds"]
    # nu = 5 fails the factor congruence and the certificate says which factor
    c = certify_hfz(4 + 12 * 25, bound=500)
    fam = [f for f in c.checks[0].data["candidates"] if f["family"] == "ii"]
    assert fam and not fam[0]["holds"] and fam[0]["evidence"]["offending"] == [5]


def test_hfz_rejects_congruence_obstructed_members():
    # 102 (nu = 7) and 24 (nu = 1) lie in the families and have no integer
    # point, but the surface has no point mod 9 either: no Hasse failure
    for k in (102, 24):
        c = certify_hfz(k, bound=2000)
        assert not c.conclusion
        assert [ch.name for ch in c.checks if not ch.result] == ["no-congruence-obstruction"]


def test_hfz_not_applicable():
    c = certify_hfz(20, bound=100)
    assert not c.conclusion
    assert not c.checks[0].result


def test_hfz_search_overrides_family():
    # a level with points can never conclude, whatever the family audit says
    c = certify_hfz(108, bound=100)
    assert not c.conclusion
    by_name = {ch.name: ch for ch in c.checks}
    assert not by_name["integral-search-empty"].result


def test_sint_failure_positive():
    k = 4 + 20 * 139**2
    c = certify_sint_failure(k, 19, bound=1000, max_exp=3)
    assert c.conclusion
    assert c.parameters["ell"] == 19


def test_sint_failure_names_failing_clause():
    c = certify_sint_failure(102, 7, bound=200)
    assert not c.conclusion
    fam = c.checks[0].data["candidates"][0]
    assert fam["clauses"]["nu in {0, +-3, +-4} (mod 9)"] is False


def test_sint_failure_rejects_bad_ell():
    with pytest.raises(ValueError):
        certify_sint_failure(4 + 20 * 139**2, 9)   # not prime
    with pytest.raises(ValueError):
        certify_sint_failure(4 + 20 * 139**2, 3)   # divides 6
    # ell = 5 is a valid input but fails the family clause ell = +-1 (mod 5)
    c = certify_sint_failure(4 + 20 * 139**2, 5, bound=200, max_exp=1)
    assert not c.conclusion
    fam = c.checks[0].data["candidates"][0]
    assert fam["clauses"]["ell = +-1 (mod 5)"] is False


def test_build_hfe1_matrix():
    a = build_hfe1_matrix(139, 19)
    assert a == Mat2(386417, 462, 4182, 5)
    assert a.det() == 1
    assert mat_mod(a, 2) == mat_mod(Mat2(1, 0, 0, 1), 2)
    assert mat_mod(a, 3) == mat_mod(Mat2(-1, 0, 0, -1), 3)
    with pytest.raises(ValueError):
        build_hfe1_matrix(4, 19)       # 2 divides nu
    with pytest.raises(ValueError):
        build_hfe1_matrix(139, 7)      # 7 is not +-1 mod 5
    with pytest.raises(ValueError):
        build_hfe1_matrix(31, 19)      # 31 != 4 (mod 27)


def test_verify_hfe1_small_moduli():
    c = verify_hfe1(139, 19, local_moduli=(2, 3, 4, 5, 8, 9), sint_bound=400)
    assert c.conclusion
    for ch in c.checks:
        if ch.name.startswith("commutator-mod-"):
            assert ch.result and ch.data and "X" in ch.data


def test_verify_hfe1_rejects_moduli_below_2():
    # with no modulus at all the local half would hold vacuously
    for moduli in ((1,), (0,), (-3,), (2, 1), (), []):
        with pytest.raises(ValueError):
            verify_hfe1(139, 19, local_moduli=moduli, sint_bound=50)


def test_verify_hfe1_records_a_non_commutator_without_a_witness():
    # I + E12 is not a commutator mod 2 or mod 3
    for q in (2, 3):
        assert _local_commutator_check(Mat2(1, 1, 0, 1), q) == (False, None)


def test_negative_max_exp_is_invalid_input():
    with pytest.raises(ValueError):
        certify_sint_failure(4 + 20 * 139**2, 19, max_exp=-1)
    with pytest.raises(ValueError):
        verify_hfe1(139, 19, sint_max_exp=-1)


def test_check_certificate_rejects_malformed_input():
    good = json.loads(certify_hfz(102, bound=50).to_json())
    shapes = [[good], "E3FailureZ", {k: v for k, v in good.items() if k != "checks"},
              dict(good, checks={"x": True}), dict(good, checks=[{"result": True}]),
              {k: v for k, v in good.items() if k != "conclusion"},
              dict(good, parameters={"bound": 50}), dict(good, parameters=None),
              dict(good, kind="E3FailureSInt", parameters={"k": 102}),
              dict(good, kind="E2Failure", parameters={"ell": 19}),
              dict(good, kind="HFE1", parameters={"nu": 139}),
              dict(good, parameters={"k": "102"}), dict(good, parameters={"k": 102, "bound": 1.5}),
              dict(good, parameters={"k": True}),
              dict(good, kind="HFE1", parameters={"nu": 139, "ell": 19, "local_moduli": "2,3"}),
              dict(good, schema_version="2"), dict(good, kind="Nope")]
    for blob in shapes:
        with pytest.raises(ValueError):
            check_certificate(blob)
    assert check_certificate(good)[0]


def test_check_certificate_rejects_parameters_its_kind_does_not_take():
    # before, the unknown keys were ignored and these replayed true with the
    # default bound
    good = json.loads(certify_hfz(1062).to_json())
    for params, extra in (({"k": 1062, "bund": 10**9}, "bund"),
                          ({"k": 1062, "bound": 200, "max_exp": 7}, "max_exp")):
        with pytest.raises(ValueError, match="E3FailureZ certificate takes no parameters %s" % extra):
            check_certificate(dict(good, parameters=params))
    # a known parameter replays with that value, and the checks stored at
    # the default bound 10^4 then disagree with the bound-200 search
    assert not check_certificate(dict(good, parameters={"k": 1062, "bound": 200}))[0]


def test_certify_sint_found_spelling():
    # (15, 13/5, 26/5) lies on the level-56 surface: the search is not empty,
    # and found spells each point through its n/l^a coordinates
    c = certify_sint_failure(56, 5, bound=30, max_exp=2)
    found = {ch.name: ch for ch in c.checks}["localized-search-empty"].data["found"]
    assert found[0] == "(15, 13/5^1, 26/5^1)@56"
    assert not c.conclusion


def test_e2_failure_certificate_replays():
    blob = stored_v1("v1_e2failure_139_19.json")
    ok, fresh = check_certificate(blob)
    assert ok and fresh["kind"] == "E2Failure" and fresh["conclusion"] is True
    assert [c["name"] for c in fresh["checks"]] == ["trace-admissible", "surface-failure"]
    blob["checks"][1]["result"] = not blob["checks"][1]["result"]
    ok, _ = check_certificate(blob)
    assert not ok


def test_replay_fails_on_a_stored_parameter_it_regenerates():
    # E2Failure stores t = 2 + 20 nu^2, which replay derives from nu
    blob = stored_v1("v1_e2failure_139_19.json")
    blob["parameters"]["t"] = 12345
    ok, fresh = check_certificate(blob)
    assert not ok and fresh["parameters"]["t"] == 386422
    # E3FailureZ regenerates with the stored bound, so a tampered bound is
    # the one the replayed search ran with, and the stored check's bound 300
    # no longer matches it
    blob = json.loads(certify_hfz(1062, bound=300).to_json())
    blob["parameters"]["bound"] = 200
    ok, fresh = check_certificate(blob)
    assert not ok and fresh["parameters"]["bound"] == 200
    assert {c["name"]: c.get("bound") for c in fresh["checks"]}["integral-search-empty"] == 200


# one small certificate per kind, every optional parameter at a value other
# than its default
NON_DEFAULT = {
    "E3FailureZ": {"k": 1062, "bound": 40},
    "E3FailureSInt": {"k": 4 + 20 * 139**2, "ell": 19, "bound": 40, "max_exp": 1},
    "E2Failure": {"nu": 139, "ell": 19, "t": 2 + 20 * 139**2, "bound": 40, "max_exp": 1},
    "HFE1": {"nu": 139, "ell": 19, "local_moduli": [2, 3, 9], "sint_bound": 40,
             "sint_max_exp": 1},
}


def test_each_kind_row_names_the_parameters_its_generator_records():
    assert set(_KINDS) == set(NON_DEFAULT)
    for kind, (generator, required, optional, _) in _KINDS.items():
        params = NON_DEFAULT[kind]
        assert list(params) == list(required + optional), kind
        cert = getattr(mksurf.certify, generator)(**params)
        assert cert.kind == kind and cert.parameters == params, kind
        assert check_certificate(json.loads(cert.to_json()))[0], kind


def test_non_default_certificates_replay_and_detect_an_edited_parameter():
    # each edit changes a recorded result or bound: the family clause
    # "ell = +-1 (mod 5)" fails at 7, and each local modulus names a check.
    # max_exp, sint_bound and sint_max_exp are not edited: the searches they
    # set are empty either way, and replay does not compare check data
    edits = {"E3FailureSInt": [("k", 4 + 20 * 139**2 + 1), ("ell", 7), ("bound", 41),
                               ("bound", 39)],
             "HFE1": [("local_moduli", [2, 3, 27]), ("local_moduli", [2, 3])]}
    for kind, changes in edits.items():
        cert = getattr(mksurf.certify, _KINDS[kind][0])(**NON_DEFAULT[kind])
        assert check_certificate(json.loads(cert.to_json()))[0], kind
        for name, value in changes:
            blob = json.loads(cert.to_json())
            blob["parameters"][name] = value
            ok, fresh = check_certificate(blob)
            assert not ok and fresh["parameters"][name] == value, (kind, name, value)
    # the HFE1 matrix rests on nu and ell, and values it cannot be built
    # from are refused
    blob = json.loads(verify_hfe1(**NON_DEFAULT["HFE1"]).to_json())
    for name, value in (("nu", 140), ("ell", 7)):
        with pytest.raises(ValueError):
            check_certificate(dict(blob, parameters=dict(blob["parameters"], **{name: value})))


def test_replay_fails_on_a_tampered_check_bound():
    # a check claiming a larger search than the parameters ran
    blob = json.loads(certify_hfz(1062, bound=300).to_json())
    assert check_certificate(blob)[0]
    check = next(c for c in blob["checks"] if c["name"] == "integral-search-empty")
    check["bound"] = 10**9
    ok, fresh = check_certificate(blob)
    assert not ok and fresh["conclusion"] is True


def test_v1_hfz_files_replay_by_admissibility():
    # files without the no-congruence-obstruction check replay as before
    # where k is admissible, and no longer at 102, which is 3 (mod 9)
    ok, fresh = check_certificate(stored_v1("v1_hfz_1062.json"))
    assert ok and fresh["conclusion"] is True
    ok, fresh = check_certificate(stored_v1("v1_hfz_102.json"))
    assert not ok and fresh["conclusion"] is False


def edited(blob, edit):
    blob = copy.deepcopy(blob)
    edit(blob["checks"])
    return blob


def test_replay_compares_the_checks_as_an_ordered_list():
    # a file repeating a check name replays when nothing is edited
    hfe1 = json.loads(verify_hfe1(139, 19, local_moduli=(2, 2, 3), sint_bound=50).to_json())
    assert [c["name"] for c in hfe1["checks"][1:3]] == ["commutator-mod-2"] * 2
    assert check_certificate(hfe1)[0]
    hfz = json.loads(certify_hfz(1062, bound=300).to_json())
    assert check_certificate(hfz)[0]
    search = hfz["checks"][2]
    assert search["name"] == "integral-search-empty"
    # each copy of a repeated name is compared, and so is the order
    edits = {
        "first copy fails": edited(hfe1, lambda cs: cs[1].update(result=False)),
        "failing copy first": edited(hfz, lambda cs: cs.insert(2, dict(search, result=False))),
        "reversed": edited(hfz, lambda cs: cs.reverse()),
        "second copy fails": edited(hfe1, lambda cs: cs[2].update(result=False)),
        "failing copy last": edited(hfz, lambda cs: cs.append(dict(search, result=False))),
        # no-congruence-obstruction is the one check an E3FailureZ file may lack
        "search dropped": edited(hfz, lambda cs: cs.pop(2)),
    }
    for label, blob in edits.items():
        ok, fresh = check_certificate(blob)
        assert not ok and fresh["conclusion"] is True, label


def test_replay_multiplies_out_the_hfe1_witnesses():
    hfe1 = json.loads(verify_hfe1(139, 19).to_json())
    assert check_certificate(hfe1)[0]
    i = next(i for i, c in enumerate(hfe1["checks"]) if c["name"] == "commutator-mod-32")
    x, y = (hfe1["checks"][i]["data"][n] for n in ("X", "Y"))

    def witness(data):
        return edited(hfe1, lambda cs: cs[i].update(data=data))

    # a witness congruent to the stored one mod q replays
    shifted = [[e + 32 * (r + 1) for e in row] for r, row in enumerate(x)]
    assert check_certificate(witness({"X": shifted, "Y": y}))[0]
    edits = {
        "(I, I)": {"X": [[1, 0], [0, 1]], "Y": [[1, 0], [0, 1]]},
        "swapped": {"X": y, "Y": x},
        "det X = 3": {"X": [[e * 3 for e in x[0]], x[1]], "Y": y},
        # 3^2 * 11^2 = 1 (mod 32): X Y adj X adj Y is unchanged, but det X = 9
        "3X, 11Y": {"X": [[3 * e for e in row] for row in x],
                    "Y": [[11 * e for e in row] for row in y]},
    }
    for label, data in edits.items():
        ok, fresh = check_certificate(witness(data))
        assert not ok and fresh["conclusion"] is True, label
    # a witness that is not two 2x2 integer matrices is invalid input
    for data in (None, [x, y], {"X": x}, {"X": x, "Y": y[0]}, {"X": x, "Y": [[1, 0], [0]]},
                 {"X": x, "Y": [[1.0, 0], [0, 1]]}, {"X": x, "Y": "ab"},
                 {"X": x, "Y": [[1, 0], [0, 1], [0, 0]]}):
        with pytest.raises(ValueError, match="witness not two 2x2 integer matrices"):
            check_certificate(witness(data))


def random_with_trace(rng, t):
    alpha = rng.randint(-6, 6)
    z = Mat2(alpha, 1, alpha * (t - alpha) - 1, t - alpha)
    g = random_sl2z(rng, length=4, entry=2)
    return g * z * g.inverse()


def test_catalogue_matches_brute_force():
    # the congruence obstruction catalogue, over the whole of each quotient:
    # no Z with Tr Z = 0 (mod 4) is a commutator mod 4, and none with
    # Tr Z = +-1, +-4 (mod 9) is one mod 9
    for q, obstructed in ((4, {0}), (9, {1, 4, 5, 8})):
        hit = 0
        for a, b, c, d in itertools.product(range(q), repeat=4):
            if (a * d - b * c) % q != 1 or (a + d) % q not in obstructed:
                continue
            z = mat_mod(Mat2(a, b, c, d), q)
            assert not commutator_test_modq(z, q)[0], (q, z)
            hit += 1
        assert hit > 0
    # spot-check the mod-16 exhaustive view on the 4|t family
    rng = random.Random(91)
    for _ in range(4):
        t = 4 * rng.choice([1, 2, 3, 4])
        z = random_with_trace(rng, t)
        ok, _ = commutator_test_modq(mat_mod(z, 16), 16)
        assert not ok


def test_catalogue_trace_15_clean():
    z = Mat2(2, 5, 5, 13)  # a genuine commutator representative
    assert z.det() == 1 and z.trace() == 15
    for q in (4, 9, 16):
        assert commutator_test_modq(mat_mod(z, q), q)[0], q


def test_certificates_replay_deterministically():
    certs = [certify_hfz(102, bound=500),
             certify_sint_failure(4 + 20 * 139**2, 19, bound=300, max_exp=2),
             verify_hfe1(139, 19, local_moduli=(2, 3, 4), sint_bound=200)]
    for c in certs:
        blob = json.loads(c.to_json())
        ok, fresh = check_certificate(blob)
        assert ok
        blob2 = json.loads(c.to_json())
        assert blob2 == json.loads(c.to_json())  # byte-stable serialization
    bad = json.loads(certs[0].to_json())
    bad["checks"][0]["result"] = not bad["checks"][0]["result"]
    bad["conclusion"] = False
    ok, _ = check_certificate(bad)
    assert not ok
