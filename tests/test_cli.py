import json
import os
import random
import subprocess
import sys
import time

import pytest

import mksurf.cli
import mksurf.markoff
from mksurf.certify import certify_hfz, certify_sint_failure, verify_hfe1
from mksurf.cli import run, repro
from mksurf.markoff import MarkoffPoint, search_integral, search_localized
from mksurf.mat2 import Mat2, commutator, mat_mod
from mksurf.rings import BudgetExceeded, ModInt

from _util import same_orbit


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_markoff_class(capsys):
    code, out = capture(capsys, ["markoff", "class", "--k", "329"])
    assert code == 0
    d = json.loads(out)
    assert d["hhat"] == 2
    reps = {tuple(c["rep"]) for c in d["classes"]}
    assert reps == {(-3, 8, 8), (-4, 4, 11)}


def orbit_sample_by_search(k, rep):
    """The sample `markoff class` took before it walked the orbit: scan the
    box in sorted order, keep the first 12 orbit-mates of rep, report the
    first 5; kept as the oracle for the walk."""
    sample = set()
    for pt in search_integral(k, max(10, rep.maxabs() * 3)):
        if same_orbit(pt, rep):
            sample.add(tuple(pt.coords()))
        if len(sample) >= 12:
            break
    return [list(c) for c in sorted(sample)[:5]]


def test_markoff_class_samples_match_box_search(capsys):
    ks = random.Random(62).sample([k for k in range(-300, 601) if k not in (0, 4)], 60)
    for k in sorted(ks) + [-99995]:
        code, out = capture(capsys, ["markoff", "class", "--k", str(k)])
        assert code == 0
        for c in json.loads(out)["classes"]:
            want = orbit_sample_by_search(k, MarkoffPoint.make(*c["rep"]))
            assert c["orbit_sample"] == want, (k, c["rep"])


def test_markoff_class_past_the_box_search_range(capsys):
    # the representative (4, 7000, 14000) puts the sample bound at 42000,
    # past the 40000 a box search allows; the walk needs no box
    code, out = capture(capsys, ["markoff", "class", "--k", str(16 - 3 * 14000**2 // 4)])
    assert code == 0
    d = json.loads(out)
    assert [c["rep"] for c in d["classes"]] == [[4, 7000, 14000]]
    assert [-4, -7000, 14000] in d["classes"][0]["orbit_sample"]


def test_markoff_reduce(capsys):
    code, out = capture(capsys, ["markoff", "reduce", "--point", "21,3,6"])
    assert code == 0
    d = json.loads(out)
    assert d["normal_form"] == [-3, 3, 6]


@pytest.mark.parametrize("point, normal, path", [
    # descent ends at (-2, -1, 2), off the normal form: the path goes on
    # through the floor closure
    ("-4,-5,18", [1, 2, 2], ["sign(2, 3)", "perm(2, 1, 3)", "sign(2, 3)", "vieta(2,)",
                             "vieta(1,)", "vieta(2,)", "vieta(3,)"]),
    # descent ends at the normal form
    ("21,3,6", [-3, 3, 6], ["vieta(1,)"]),
])
def test_markoff_reduce_json_on_both_branches(capsys, point, normal, path):
    code, out = capture(capsys, ["markoff", "reduce", "--point=" + point])
    coords = [int(v) for v in point.split(",")]
    want = {"k": MarkoffPoint.make(*coords).k, "normal_form": normal, "path": path,
            "path_length": len(path), "point": coords}
    assert code == 0 and out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_markoff_admissible_discrepancy_note(capsys):
    code, out = capture(capsys, ["markoff", "admissible", "--t", "106"])
    assert code == 0
    d = json.loads(out)
    assert d["admissible_k"] is True and d["admissible_t"] is False
    assert "note" in d


def test_markoff_search_localized(capsys):
    code, out = capture(capsys, ["markoff", "search", "--k", "224",
                                 "--bound", "30", "--ell", "5"])
    assert code == 0
    d = json.loads(out)
    assert d["count"] > 0


def test_markoff_search_spells_localized_coordinates(capsys):
    # a coordinate with an l-denominator is spelled n/l^a with l not dividing
    # n; integral coordinates and k stay JSON integers
    code, out = capture(capsys, ["markoff", "search", "--k", "56", "--bound", "30",
                                 "--ell", "5", "--max-exp", "2"])
    assert code == 0
    assert json.loads(out)["points"][0] == {"coords": [15, "13/5^1", "26/5^1"], "k": 56}
    code, out = capture(capsys, ["markoff", "search", "--k", "5", "--bound", "20",
                                 "--ell", "3", "--max-exp", "2", "--limit", "400"])
    assert code == 0
    points = json.loads(out)["points"]
    assert {"coords": [2, "1/3^2", "-8/3^2"], "k": 5} in points


def test_quadform_commands(capsys):
    code, out = capture(capsys, ["quadform", "profile", "--point=-3,8,8"])
    assert code == 0
    d = json.loads(out)
    assert d["profile"]["5"] == -1 and d["profile"]["13"] == -1
    assert d["product"] == 1
    code, out = capture(capsys, ["quadform", "isotropy", "--k", "70"])
    d = json.loads(out)
    assert d["classes"][0]["verdict"] == "Anisotropic"
    # (-2, 2, 2) is the first class representative `markoff class --k 20` prints
    code, out = capture(capsys, ["quadform", "profile", "--point=-2,2,2"])
    d = json.loads(out)
    assert code == 2 and d["kind"] == "invalid-input"
    assert d["error"].endswith("(x^2 - 4, k - 4)_p is undefined"), d


def test_words_and_quotient_commands(capsys):
    code, out = capture(capsys, ["words", "alg1", "--m", "2", "--n", "3", "--t", "3"])
    d = json.loads(out)
    assert d["words"] == ["a b a b2"]  # [a, b] in normalized spelling
    code, out = capture(capsys, ["words", "metab", "--m", "3", "--n", "3",
                                 "--word", "a b a b a b"])
    d = json.loads(out)
    assert d["in_derived_subgroup"] and d["is_unit"] is False
    code, out = capture(capsys, ["quotient", "test", "--q", "4", "--z", "1,1,0,1"])
    d = json.loads(out)
    assert d["is_commutator"] is False
    code, out = capture(capsys, ["quotient", "image", "--q", "9"])
    d = json.loads(out)
    assert d["excluded"] == [1, 4, 5, 8]


def test_lift_commands(capsys):
    code, out = capture(capsys, ["lift", "point", "--z", "3,-1,1,0",
                                 "--point", "2,2,3", "--y", "1,0,1,1"])
    assert code == 0
    d = json.loads(out)
    assert d["x"]["entries"] == [[1, 1], [0, 1]]
    assert d["orientation"] == "Z"
    code, out = capture(capsys, ["lift", "universal", "--t", "7"])
    d = json.loads(out)
    assert d["trace"] == 7


def test_lift_point_divides_out_a_non_unit_delta(capsys):
    # Delta = 3 + 2 - (-4)^2 = -11 divides every entry of the numerator
    code, out = capture(capsys, ["lift", "point", "--z", "0,-1,1,3", "--point=-5,-4,2",
                                 "--y=-3,-2,-1,-1"])
    assert code == 0
    assert json.loads(out)["x"]["entries"] == [[-1, 3], [1, -4]]


def test_lift_point_tries_every_matching_slot(capsys):
    # Tr Y = 10 is coordinates 1 and 3, and only slot 3 lifts over Z
    code, out = capture(capsys, ["lift", "point", "--z=-53,126,204,-485", "--point", "10,8,10",
                                 "--y", "5,12,2,5"])
    assert code == 0
    d = json.loads(out)
    assert d["row"] == [3, 1, 2]
    assert d["x"]["entries"] == [[-1, -3], [4, 11]]
    assert d["y"]["entries"] == [[7, 3], [2, 1]]


def test_lift_point_searches_for_y(capsys):
    # without --y the trace-set box is scanned at each coordinate in turn
    code, out = capture(capsys, ["lift", "point", "--z", "3,-1,1,0", "--point", "2,2,3"])
    assert code == 0
    d = json.loads(out)
    x, y = (Mat2(*sum(d[k]["entries"], [])) for k in ("x", "y"))
    assert commutator(x, y) == Mat2(3, -1, 1, 0)
    assert d["orientation"] == "Z"
    # the box's Y at 0 is refused (Delta = 5), and its Y at 1 lifts
    code, out = capture(capsys, ["lift", "point", "--z", "3,-1,1,0", "--point", "0,1,2"])
    assert code == 0
    d = json.loads(out)
    assert d["row"] == [1, 2, 3]
    assert d["x"]["entries"] == [[-1, 2], [-1, 1]] and d["y"]["entries"] == [[1, -1], [1, 0]]
    # a point off the level Tr Z + 2 is invalid input, with or without --y
    code, out = capture(capsys, ["lift", "point", "--z", "7,-1,1,0", "--point", "1,1,1"])
    assert code == 2
    assert json.loads(out) == {"error": "point level 2 != Tr Z + 2", "kind": "invalid-input"}
    # a miss of the box is an exhausted search budget, not invalid input
    code = run(["lift", "point", "--z", "7,-1,1,0", "--point=0,0,-3"])
    captured = capsys.readouterr()
    assert code == 3
    assert "no trace-set matrix Y found in the entry box" in captured.out + captured.err
    # a Y the box finds and lift2 refuses is still invalid input (here the
    # box's Y at 6 is refused too, and it has none at -4)
    code, out = capture(capsys, ["lift", "point", "--z", "6,-1,1,0", "--point=-2,-4,6"])
    assert code == 2
    assert json.loads(out)["error"] == "entries [22, -14, -2, 2] not divisible by Delta = 4"


@pytest.mark.parametrize("k", [4, 3, 2, 1, 0, -1, -5, -16, -10**12])
def test_quadform_isotropy_refuses_levels_up_to_4(capsys, monkeypatch, k):
    # refused before the class search: k = 3 used to print no classes, and
    # -10^12 to exit 3 on the class box
    def no_scan(k):
        raise AssertionError("class_data ran at k = %d" % k)
    monkeypatch.setattr(mksurf.markoff, "class_data", no_scan)
    code, out = capture(capsys, ["quadform", "isotropy", "--k=%d" % k])
    assert code == 2
    assert json.loads(out) == {"error": "Hasse profiles and isotropy need k > 4",
                               "kind": "invalid-input"}


def test_quadform_commands_refuse_low_levels_alike(capsys):
    # (1, 1, 1) lies on level 2; both commands refuse k <= 4 in one message
    refusals = [capture(capsys, argv) for argv in (["quadform", "profile", "--point=1,1,1"],
                                                  ["quadform", "isotropy", "--k", "3"])]
    assert refusals[0] == refusals[1]
    code, out = refusals[0]
    assert code == 2
    assert json.loads(out) == {"error": "Hasse profiles and isotropy need k > 4",
                               "kind": "invalid-input"}


def test_lift_point_refuses_det_z_not_1(capsys):
    # det(4 I) = 16: refused before any box scan, with or without --y (it
    # exited 3 on the box miss without --y)
    for extra in ([], ["--y", "1,0,0,1"]):
        code, out = capture(capsys, ["lift", "point", "--z", "4,0,0,4", "--point=-1,-3,3"] + extra)
        assert code == 2
        assert json.loads(out) == {"error": "need det Z = 1", "kind": "invalid-input"}


def test_markoff_search_spells_integral_points(capsys):
    code, out = capture(capsys, ["markoff", "search", "--k", "5", "--bound", "10"])
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 44 and d["ell"] is None
    assert d["points"][:3] == [{"coords": [-3, -4, 10], "k": 5},
                               {"coords": [-3, 4, -10], "k": 5},
                               {"coords": [-2, -9, 10], "k": 5}]
    assert d["points"][-1] == {"coords": [3, 4, 10], "k": 5}


def test_quotient_test_positive_witness(capsys):
    code, out = capture(capsys, ["quotient", "test", "--q", "8", "--z", "2,1,1,1"])
    assert code == 0
    d = json.loads(out)
    assert d["is_commutator"] is True
    assert d["z"] == {"ring": "Z", "entries": [[2, 1], [1, 1]]}
    wit = d["witness"]
    assert {wit["x"]["ring"], wit["y"]["ring"]} == {"Zmod"}
    assert wit["x"]["q"] == wit["y"]["q"] == 8
    x, y = (Mat2(*(ModInt(e, 8) for row in wit[g]["entries"] for e in row))
            for g in ("x", "y"))
    assert commutator(x, y) == mat_mod(Mat2(2, 1, 1, 1), 8)


def test_lift_universal_over_q_matches_z1_6(capsys):
    code, out = capture(capsys, ["lift", "universal", "--t", "7", "--ring", "q", "--eps", "2"])
    assert code == 0
    over_q = json.loads(out)
    code, out = capture(capsys, ["lift", "universal", "--t", "7", "--ring", "z1/6", "--eps", "2"])
    assert code == 0
    over_z1_6 = json.loads(out)
    assert over_q.pop("ring") == "Q" and over_z1_6.pop("ring") == "Z[1/6]"
    assert over_q == over_z1_6
    assert over_q["x"]["entries"] == [[1, "20/9"], [-1, "-11/9"]]


@pytest.mark.parametrize("ring, eps, error", [
    ("z", "2", "eps = 2 is not a unit in Z"),
    ("z", "1", "eps - eps^-1 = 0 is not a unit in Z"),
    ("z", "1/2", "1/2 is not in Z"),
    ("z1/1", "2", "eps = 2 is not a unit in Z"),
    ("z1/5", "5", "eps - eps^-1 = 24/5 is not a unit in Z[1/5]"),
    ("z1/6", "1/0", "eps = 1/0 has a zero denominator"),
    ("z1/6", "0/0", "eps = 0/0 has a zero denominator"),
    ("mod97", "1/0", "eps = 1/0 has a zero denominator"),
])
def test_lift_universal_errors_spell_rationals(capsys, ring, eps, error):
    code, out = capture(capsys, ["lift", "universal", "--t", "7", "--ring", ring, "--eps", eps])
    assert code == 2
    assert json.loads(out) == {"error": error, "kind": "invalid-input"}


@pytest.mark.parametrize("ring", ["modx", "z1/x", "z1/", "mod", "z1/0", "z1/-6", "z1/+6",
                                  "mod1", "mod0", "mod-97", "z1", "zz", ""])
def test_malformed_ring_spellings_are_refused_in_one_message(capsys, ring):
    # no spelling reaches int(), factorize or a ring of its own with a
    # message of their own, and a negative n is no longer read as |n|
    code, out = capture(capsys, ["lift", "universal", "--t", "7", "--ring", ring, "--eps", "2"])
    assert code == 2
    assert json.loads(out) == {
        "error": "unknown ring %r: expected z, q, z1/N (N >= 1) or modN (N >= 2)" % ring,
        "kind": "invalid-input"}


def test_certify_commands(tmp_path, capsys):
    code, out = capture(capsys, ["certify", "hfz", "--k", "1062", "--bound", "500"])
    assert code == 0
    d = json.loads(out)
    assert d["conclusion"] is True
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out = capture(capsys, ["certify", "check", "--file", str(path)])
    assert code == 0
    assert json.loads(out)["replay_matches"] is True


def _without_runtime(obj):
    if isinstance(obj, dict):
        return {k: _without_runtime(v) for k, v in obj.items() if k != "runtime_ms"}
    if isinstance(obj, list):
        return [_without_runtime(v) for v in obj]
    return obj


@pytest.mark.parametrize("argv, make", [
    (["certify", "hfz", "--k", "1062"], lambda: certify_hfz(1062)),
    (["certify", "sint", "--k", "386424", "--ell", "19"],
     lambda: certify_sint_failure(386424, 19)),
    (["certify", "hfe1", "--nu", "139", "--ell", "19"], lambda: verify_hfe1(139, 19)),
], ids=["hfz", "sint", "hfe1"])
def test_certify_commands_leave_defaults_to_the_generator(capsys, argv, make):
    code, out = capture(capsys, argv)
    assert code == 0
    expected = json.loads(json.dumps(make().to_dict()))
    assert _without_runtime(json.loads(out)) == _without_runtime(expected)


def test_exit_codes(capsys):
    code, out = capture(capsys, ["markoff", "reduce", "--k", "7",
                                 "--point", "1,1,1"])  # no --k flag: the point gives the level
    assert code == 2
    code, out = capture(capsys, ["quotient", "image", "--q", "999"])
    assert code == 3
    code, out = capture(capsys, ["quotient", "test", "--q", "8", "--z", "1,0,0"])
    assert code == 2 and json.loads(out) == {
        "error": "expected 4 comma-separated integers, got '1,0,0'", "kind": "invalid-input"}
    code, out = capture(capsys, ["lift", "point", "--z", "1,0,0,1", "--point", "2,2,0"])
    assert code == 2 and json.loads(out) == {"error": "need Tr Z != +-2", "kind": "invalid-input"}
    code, _ = capture(capsys, ["certify", "hfz", "--k", "20", "--bound", "50"])
    assert code == 0  # computed: the answer is no, but it is an answer


def source_env():
    """The environment of a fresh interpreter that imports this mksurf."""
    src = os.path.dirname(os.path.dirname(mksurf.cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_pipe_exits_quietly():
    # the reader closes the pipe before the command writes, as `| head`
    # can: no traceback, and the exit code of an open stdout
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "mksurf.cli", "markoff", "class", "--k", "329"],
                              stdout=write_end, stderr=subprocess.PIPE, env=source_env(),
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()



def fresh_interpreter(code, *args):
    """Run code in a new interpreter (this suite has long since imported
    every module and numpy) and return what it prints."""
    proc = subprocess.run([sys.executable, "-c", code] + list(args), capture_output=True,
                          text=True, env=source_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


RUN_AND_LIST_MODULES = """
import contextlib, io, json, sys
import mksurf.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mksurf.cli.run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def modules_loaded_by(*argv):
    code, modules = json.loads(fresh_interpreter(RUN_AND_LIST_MODULES, *argv))
    assert code == 0, argv
    return set(modules)


def test_each_command_loads_only_its_modules(tmp_path):
    for m, n in (("2", "3"), ("3", "inf")):
        loaded = modules_loaded_by("words", "alg1", "--m", m, "--n", n, "--t", "7")
        assert not loaded & {"numpy", "dataclasses", "inspect"}, (m, n)
        assert {m for m in loaded if m.startswith("mksurf.")} == {
            "mksurf." + m for m in ("cli", "expected_tables", "mat2", "rings", "words")}
    loaded = modules_loaded_by("markoff", "class", "--k", "329")
    assert not loaded & {"mksurf." + m for m in ("certify", "lifting", "quadforms",
                                                 "quotients", "words")}
    # class boxes up to markoff.PYTHON_SCAN_BOUND are scanned in Python ints
    # (the box at k = 3780 is 82), and the commands that scan no box load no
    # numpy; HasseProfile and LiftResult are slot classes, so no dataclasses
    loaded = modules_loaded_by("markoff", "class", "--k", "3780")
    assert not loaded & {"numpy", "dataclasses", "inspect"}
    for argv in (["markoff", "reduce", "--point", "21,3,6"], ["markoff", "admissible", "--t", "106"],
                 ["quadform", "profile", "--point=-3,8,8"],
                 ["quadform", "profile", "--point", "1,2,5"],
                 ["lift", "point", "--z", "3,-1,1,0", "--point", "2,2,3", "--y", "1,0,1,1"],
                 ["lift", "point", "--z", "3,-1,1,0", "--point", "2,2,3"]):
        assert not modules_loaded_by(*argv) & {"numpy", "dataclasses", "inspect"}, argv
    # the box of k = 30000 is 232, past the constant: numpy rectangles
    assert "numpy" in modules_loaded_by("markoff", "class", "--k", "30000")
    # every value class is a rings.Frozen slot class: no command loads
    # dataclasses (numpy, which certify loads, imports inspect itself)
    assert not modules_loaded_by("words", "metab", "--m", "3", "--n", "3", "--word",
                                 "a b a-1 b-1") & {"numpy", "dataclasses", "inspect"}
    cert = tmp_path / "cert.json"
    cert.write_text(certify_hfz(1062, bound=200).to_json())
    for argv in (["certify", "hfz", "--k", "1062", "--bound", "200"],
                 ["certify", "check", "--file", str(cert)]):
        assert "dataclasses" not in modules_loaded_by(*argv), argv


# every name `import mksurf` offers, by the submodule that defines it
PACKAGE_NAMES = {
    "rings": ["INF", "BudgetExceeded", "ModInt", "ResidueRing", "SIntegerRing", "factorize",
              "hilbert", "jacobi", "parse_ring"],
    "mat2": ["Mat2", "commutator", "in_trace_set", "mat_mod"],
    "markoff": ["MarkoffMove", "MarkoffPoint", "admissible_k", "admissible_t", "apply_move",
                "apply_path", "class_data", "level", "orbit_within", "reduce_point",
                "search_integral", "search_localized"],
    "quadforms": ["HasseProfile", "form_isotropic", "hasse_profile"],
    "lifting": ["LiftError", "LiftResult", "lift2", "lift_point", "pair_move", "universal_pair"],
    "words": ["SRingElem", "Word", "alg1_representatives", "embedding_matrix",
              "in_derived_subgroup", "is_unit_in_S", "metabelian_image", "psl2_class_reps",
              "table1_trace_filter", "word", "word_trace"],
    "quotients": ["commutator_test_modq", "sl2_tuples", "trace_commutator_image"],
    "certify": ["Certificate", "build_hfe1_matrix", "certify_hfz", "certify_sint_failure",
                "check_certificate", "verify_hfe1"],
}

CHECK_PACKAGE_NAMES = """
import importlib, json, sys
import mksurf
assert not [m for m in sys.modules if m.startswith("mksurf.")] and "numpy" not in sys.modules
assert mksurf.markoff.class_data(329)[0].coords() == (-4, 4, 11)
names = json.loads(sys.argv[1])
assert sorted(mksurf.__all__) == sorted(n for ns in names.values() for n in ns)
for module, ns in names.items():
    for n in ns:
        assert getattr(mksurf, n) is getattr(importlib.import_module("mksurf." + module), n), n
for n in ("no_such_name", "default_class_bound", "squarefree_part"):
    assert not hasattr(mksurf, n), n
star = {}
exec("from mksurf import *", star)
assert set(star) - {"__builtins__"} == set(mksurf.__all__)
assert set(mksurf.__all__) <= set(dir(mksurf))
print("ok")
"""


def test_package_names_load_on_first_use():
    assert fresh_interpreter(CHECK_PACKAGE_NAMES, json.dumps(PACKAGE_NAMES)) == "ok\n"
    assert sum(map(len, PACKAGE_NAMES.values())) == 54


@pytest.mark.parametrize("q", [1, 0, -3])
def test_quotient_rejects_modulus_below_2(capsys, q):
    for argv in (["quotient", "image", "--q", str(q)],
                 ["quotient", "test", "--q", str(q), "--z", "1,0,0,1"]):
        code, out = capture(capsys, argv)
        assert code == 2, argv
        assert json.loads(out)["kind"] == "invalid-input"


# "," parses to no modulus at all ("" keeps verify_hfe1's default list)
@pytest.mark.parametrize("moduli", ["1", "0", "-3", "2,1", ","])
def test_certify_hfe1_rejects_moduli_below_2(capsys, moduli):
    code, out = capture(capsys, ["certify", "hfe1", "--nu", "139", "--ell", "19",
                                 "--moduli=" + moduli])
    assert code == 2
    assert json.loads(out)["kind"] == "invalid-input"


@pytest.mark.parametrize("ell", ["25", "9", "15"])
def test_markoff_search_rejects_composite_ell(capsys, ell):
    # Z[1/25] = Z[1/5] has denominator shapes the scan never tries
    code, out = capture(capsys, ["markoff", "search", "--k", "224", "--bound", "30",
                                 "--ell", ell])
    assert code == 2
    assert json.loads(out)["kind"] == "invalid-input"


# explicit ids keep each case's test name when a case is deleted
@pytest.mark.parametrize("argv", [
    ["certify", "sint", "--k", "386424", "--ell", "19", "--max-exp", "-1"],
    ["markoff", "search", "--k", "386424", "--ell", "19", "--max-exp", "-2", "--bound", "10"],
    ["markoff", "search", "--k", "5", "--bound", "3", "--limit=-1"],
], ids=["argv0", "argv1", "argv3"])
def test_negative_search_limits_exit_2(capsys, argv):
    # a negative exponent searches nothing, so it cannot back a "no point"
    # answer; a negative limit would drop points from the end of the list
    # while count still has them
    code, out = capture(capsys, argv)
    assert code == 2
    assert json.loads(out)["kind"] == "invalid-input"


GOOD_HFZ = {"schema_version": "1", "kind": "E3FailureZ", "parameters": {"k": 1062, "bound": 50},
            "checks": [{"name": "family-membership", "result": True},
                       {"name": "integral-search-empty", "result": True}],
            "conclusion": True}


@pytest.mark.parametrize("text", [
    json.dumps([GOOD_HFZ]),
    json.dumps(dict(GOOD_HFZ, parameters={"bound": 50})),
    json.dumps(dict(GOOD_HFZ, parameters=[102, 50])),
    json.dumps({k: v for k, v in GOOD_HFZ.items() if k != "checks"}),
    json.dumps(dict(GOOD_HFZ, checks=[{"name": "family-membership"}])),
    json.dumps({k: v for k, v in GOOD_HFZ.items() if k != "conclusion"}),
    json.dumps(dict(GOOD_HFZ, kind="HFE1", parameters={"nu": 139})),
    # verify_hfe1(matrix=) audits a claimed matrix, but a file cannot name one
    json.dumps(dict(GOOD_HFZ, kind="HFE1", parameters={"nu": 139, "ell": 19,
                                                       "matrix": [[1, 0], [0, 1]]})),
    json.dumps(dict(GOOD_HFZ, parameters={"k": "abc"})),
    json.dumps(dict(GOOD_HFZ, schema_version="2")),
    json.dumps(dict(GOOD_HFZ, kind="Nope")),
    json.dumps(dict(GOOD_HFZ, kind="HFE1", parameters={"nu": 139, "ell": 19,
                                                       "local_moduli": 5}, checks=[])),
    json.dumps(dict(GOOD_HFZ, checks=[{"name": ["x"], "result": True}])),
    json.dumps(dict(GOOD_HFZ, kind="HFE1", parameters={"nu": 139, "ell": 19,
                                                       "local_moduli": []}, checks=[])),
    "{",
])
def test_certify_check_rejects_malformed_files(tmp_path, capsys, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, out = capture(capsys, ["certify", "check", "--file", str(path)])
    assert code == 2
    assert json.loads(out)["kind"] == "invalid-input"


@pytest.mark.parametrize("text", ["u v", "a u"])
def test_words_metab_rejects_uv_letters(capsys, text):
    # word() also parses the modular-group letters u and v, which have no
    # exponent sums in <a> * <b>
    code, out = capture(capsys, ["words", "metab", "--m", "3", "--n", "inf", "--word", text])
    assert code == 2
    assert json.loads(out) == {"error": "%s is not a word in a and b" % text,
                               "kind": "invalid-input"}


@pytest.mark.parametrize("argv, error", [
    (["metab", "--m", "3", "--n", "3", "--word", "ab"],
     "word token 'ab' is not a letter with an integer exponent"),
    (["metab", "--m", "3", "--n", "3", "--word", "a b-"],
     "word token 'b-' is not a letter with an integer exponent"),
    (["metab", "--m", "3", "--n", "3", "--word", "a1.5 b"],
     "word token 'a1.5' is not a letter with an integer exponent"),
    (["alg1", "--m", "inf", "--n", "3", "--t", "5"], "unsupported orders (inf, 3)"),
    (["metab", "--m", "2", "--n", "5", "--word", "a b"], "unsupported orders (2, 5)"),
    (["alg1", "--m", "two", "--n", "3", "--t", "5"], "order 'two' is neither an integer nor inf"),
])
def test_words_input_errors_name_what_was_typed(capsys, argv, error):
    code, out = capture(capsys, ["words"] + argv)
    assert code == 2
    assert json.loads(out) == {"error": error, "kind": "invalid-input"}


def test_certify_check_accepts_the_well_formed_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(GOOD_HFZ))
    code, out = capture(capsys, ["certify", "check", "--file", str(path)])
    assert code == 0 and json.loads(out)["replay_matches"] is True


# (10^22 + 9)(3 * 10^22 + 29), and an admissible level 4 + 2 nu^2 whose
# family check has to factor the 45-digit semiprime nu
HARD_N = 300000000000000000000560000000000000000000261
HARD_K = 4 + 2 * 300000000000000000000740000000000000000000423**2


# explicit ids keep each case's test name when a case is deleted
@pytest.mark.parametrize("argv", [
    ["quotient", "image", "--q", "256"],
    ["quotient", "test", "--q", "256", "--z", "1,1,0,1"],
    ["markoff", "search", "--k", "102", "--bound", "50000"],
    ["certify", "hfz", "--k", "102", "--bound", "50000"],
    ["markoff", "search", "--k", "224", "--bound", "1000", "--ell", "19", "--max-exp", "6"],
    ["certify", "sint", "--k", str(4 + 20 * 139**2), "--ell", "19", "--max-exp", "6"],
    ["words", "alg1", "--m", "2", "--n", "inf", "--t", "101"],
    ["markoff", "class", "--k", "900000001"],
    ["words", "metab", "--m", "2", "--n", "inf", "--word", "a b4000000 a b-4000000"],
    ["certify", "hfz", "--k", str(HARD_K)],
    ["certify", "sint", "--k", str(HARD_K), "--ell", "7"],
    ["lift", "universal", "--t", "7", "--ring", "z1/%d" % HARD_N],
    ["quadform", "profile", "--point", "%d,3,4" % (HARD_N + 2)],
], ids=["argv%d" % i for i in range(14) if i != 6])
def test_budget_overruns_exit_3(capsys, argv):
    code, out = capture(capsys, argv)
    assert code == 3
    assert json.loads(out)["kind"] == "budget"


def test_profile_factors_only_the_first_usable_coordinate(capsys):
    # (N+2)^2 - 4 = N(N+4) is past the factorization budget: first, it
    # exits 3 (test_budget_overruns_exit_3); after 3 and 4, it is only
    # cross-checked at the places that k - 4 and 3^2 - 4 give
    code, out = capture(capsys, ["quadform", "profile", "--point", "3,4,%d" % (HARD_N + 2)])
    assert code == 0
    assert {q for q, v in json.loads(out)["profile"].items() if v == -1} == {"2", "153557"}


def test_huge_max_exp_exits_3_at_once(tmp_path, capsys):
    # ell^(2 max_exp) >= 2^63 is refused before the power is computed, which
    # at max_exp = 10^9 would take far longer than the search it guards
    big = 10**9
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"schema_version": "1", "kind": "E3FailureSInt",
                                "parameters": {"k": 386424, "ell": 19, "max_exp": big},
                                "checks": [], "conclusion": True}))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        search_localized(56, 5, big, 30)
    assert time.perf_counter() - start < 1
    for argv in (["markoff", "search", "--k", "56", "--bound", "30", "--ell", "5",
                  "--max-exp", str(big)],
                 ["certify", "check", "--file", str(path)]):
        start = time.perf_counter()
        code, out = capture(capsys, argv)
        assert code == 3 and json.loads(out)["kind"] == "budget", argv
        assert time.perf_counter() - start < 1, argv


def test_long_descent_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(mksurf.markoff, "MAX_DESCENT_STEPS", 10)
    code, out = capture(capsys, ["markoff", "reduce", "--point", "2,1000,1001"])
    assert code == 3
    assert json.loads(out) == {"error": "descent exceeded 10 steps", "kind": "budget"}


@pytest.mark.parametrize("argv", [
    ["markoff", "class", "--k", "329", "--bound", "5"],
    ["quadform", "isotropy", "--k", "3780", "--bound", "2"],
])
def test_class_box_is_not_an_option(capsys, argv):
    # a smaller box would miss classes (k = 329 has 2), so there is no flag
    code, _ = capture(capsys, argv)
    assert code == 2


def test_no_seed_flag(capsys):
    code, out = capture(capsys, ["markoff", "admissible", "--k", "108"])
    assert code == 0 and "seed" not in json.loads(out)
    code, _ = capture(capsys, ["--seed", "1", "markoff", "admissible", "--k", "108"])
    assert code == 2


def test_byte_identical_reruns(capsys):
    _, out1 = capture(capsys, ["markoff", "class", "--k", "329"])
    _, out2 = capture(capsys, ["markoff", "class", "--k", "329"])
    assert out1 == out2
    _, out1 = capture(capsys, ["certify", "sint", "--k", str(4 + 20 * 139**2),
                               "--ell", "19", "--bound", "300", "--max-exp", "2"])
    d1 = json.loads(out1)
    _, out2 = capture(capsys, ["certify", "sint", "--k", str(4 + 20 * 139**2),
                               "--ell", "19", "--bound", "300", "--max-exp", "2"])
    d2 = json.loads(out2)
    d1.pop("runtime_ms"), d2.pop("runtime_ms")
    assert d1 == d2


def test_repro_all_tables():
    for table in ("t1", "rt", "genus329", "classnumbers", "hfu2-images", "embeddings"):
        ok, report = repro(table)
        assert ok, report
    # the rows at 64 and 81 expect the lifts of the committed images at 16 and 9
    rows = {row["q"]: row["expected"] for row in repro("hfu2-images")[1]["rows"]}
    assert sorted(rows) == [9, 16, 64, 81]
    assert rows[64] == [t for t in range(64) if t % 16 in (2, 3, 6, 7, 11, 14, 15)]
    assert [t for t in range(81) if t not in rows[81]] == \
        [t for t in range(81) if t % 9 in (1, 4, 5, 8)]


def test_repro_reports_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(mksurf.cli.expected, "CLASS_NUMBERS", {329: 2, 5: 7})
    ok, report = repro("classnumbers")
    assert not ok
    assert report == {"table": "classnumbers", "rows": [
        {"k": 5, "expected": 7, "computed": 1, "match": False},
        {"k": 329, "expected": 2, "computed": 2, "match": True}]}
    code, out = capture(capsys, ["repro", "classnumbers"])
    assert code == 1
    assert json.loads(out) == dict(report, ok=False)
    # every genus row matches, but a class is missing from the expectation
    genus = mksurf.cli.expected.GENUS_329
    monkeypatch.setattr(mksurf.cli.expected, "GENUS_329", genus[:1])
    ok, report = repro("genus329")
    assert not ok and [row["match"] for row in report["rows"]] == [True]
