"""Command-line surface: JSON subcommands over the library, plus the
table reproduction targets.

Each handler imports the layers it runs, so a command started from a
shell loads only those: `words` commands, for one, never import numpy."""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import expected_tables as expected
from .mat2 import Mat2, commutator
from .rings import BudgetExceeded, ModInt, localized_str, parse_ring

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3


def _encode(obj):
    if isinstance(obj, Mat2):
        entries = [[_encode(obj.a), _encode(obj.b)], [_encode(obj.c), _encode(obj.d)]]
        first = obj.a
        if isinstance(first, ModInt):
            return {"ring": "Zmod", "q": first.q, "entries": entries}
        if isinstance(first, Fraction):
            return {"ring": "Q", "entries": entries}
        return {"ring": "Z", "entries": entries}
    if isinstance(obj, ModInt):
        return obj.v
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    return obj


def _emit(payload):
    try:
        print(json.dumps(_encode(payload), sort_keys=True, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`); devnull keeps the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _parse_ints(text, n=None):
    parts = [int(p) for p in text.replace(" ", "").split(",") if p]
    if n is not None and len(parts) != n:
        raise ValueError("expected %d comma-separated integers, got %r" % (n, text))
    return parts


def _parse_mat(text):
    return Mat2(*_parse_ints(text, 4))


def _parse_order(text):
    s = str(text).lower()
    if s in ("inf", "infinity", "oo", "0"):
        return None
    try:
        return int(s)
    except ValueError:
        raise ValueError("order %r is neither an integer nor inf" % (text,)) from None


def _order_str(o):
    return "inf" if o is None else o


# --- subcommand handlers ------------------------------------------------------

def _cmd_markoff_reduce(args):
    from .markoff import MarkoffPoint, apply_path, reduce_point
    p = MarkoffPoint.make(*_parse_ints(args.point, 3))
    nf, path = reduce_point(p)
    assert apply_path(path, nf).coords() == p.coords()
    return {"k": p.k, "point": list(p.coords()), "normal_form": list(nf.coords()),
            "path_length": len(path),
            "path": [repr(m) for m in path]}


def _cmd_markoff_class(args):
    from .markoff import class_data, default_class_bound, orbit_within
    classes = class_data(args.k)
    bound = default_class_bound(args.k)
    out = []
    for rep in classes:
        orbit = orbit_within(rep.coords(), max(10, rep.maxabs() * 3))
        sample = sorted(c for c in orbit if abs(c[0]) <= abs(c[1]) <= abs(c[2]))
        out.append({"rep": list(rep.coords()), "orbit_sample": sample[:5],
                    "bound": bound})
    return {"k": args.k, "classes": out, "hhat": len(classes)}


def _cmd_markoff_search(args):
    from .markoff import search_integral, search_localized
    if args.limit < 0:
        raise ValueError("limit must be nonnegative, got %d" % args.limit)
    if args.ell is not None:
        pts = search_localized(args.k, args.ell, args.max_exp, args.bound)
        shown = [{"coords": [localized_str(c, args.ell) for c in p.coords()], "k": p.k}
                 for p in pts[:args.limit]]
    else:
        pts = search_integral(args.k, args.bound)
        shown = [{"coords": list(p.coords()), "k": p.k} for p in pts[:args.limit]]
    return {"k": args.k, "bound": args.bound, "ell": args.ell,
            "count": len(pts), "points": shown}


def _cmd_markoff_admissible(args):
    from .markoff import admissible_k, admissible_t
    if args.k is not None:
        return {"k": args.k, "admissible_k": admissible_k(args.k),
                "k_mod_4": args.k % 4, "k_mod_9": args.k % 9}
    t = args.t
    out = {"t": t, "admissible_t": admissible_t(t),
           "t_mod_16": t % 16, "t_mod_9": t % 9,
           "k": t + 2, "admissible_k": admissible_k(t + 2)}
    if out["admissible_k"] and not out["admissible_t"]:
        out["note"] = ("surface level t+2 is congruence-unobstructed while t "
                       "hits the trace obstruction list; the two tests "
                       "genuinely differ here")
    return out


def _cmd_quadform_profile(args):
    from .markoff import MarkoffPoint
    from .quadforms import hasse_profile
    p = MarkoffPoint.make(*_parse_ints(args.point, 3))
    prof = hasse_profile(p)
    return {"k": p.k, "point": list(p.coords()),
            "profile": dict(prof.entries),
            "product": prof.product()}


def _cmd_quadform_isotropy(args):
    from .markoff import class_data
    from .quadforms import check_level, form_isotropic
    check_level(args.k)
    out = []
    for rep in class_data(args.k):
        verdict, data = form_isotropic(rep)
        out.append({"rep": list(rep.coords()), "verdict": verdict, "data": data})
    return {"k": args.k, "classes": out}


def _cmd_lift_point(args):
    from .lifting import lift_point
    from .markoff import MarkoffPoint
    z = _parse_mat(args.z)
    p = MarkoffPoint.make(*_parse_ints(args.point, 3))
    res = lift_point(z, p, _parse_mat(args.y) if args.y else None)
    return {"z": z, "point": list(p.coords()), "x": res.x, "y": res.y,
            "orientation": res.orientation, "row": list(res.row)}


def _cmd_lift_universal(args):
    from .lifting import universal_pair
    ring = parse_ring(args.ring)
    try:
        eps = Fraction(args.eps)
    except ZeroDivisionError:
        raise ValueError("eps = %s has a zero denominator" % args.eps) from None
    x, y = universal_pair(args.t, eps, ring)
    w = commutator(x, y)
    return {"t": args.t, "ring": str(ring), "eps": args.eps,
            "x": x, "y": y, "commutator": w, "trace": w.trace()}


def _cmd_words_alg1(args):
    from .words import alg1_representatives, in_derived_subgroup
    m, n = _parse_order(args.m), _parse_order(args.n)
    reps = alg1_representatives(m, n, args.t)
    return {"m": _order_str(m), "n": _order_str(n), "t": args.t,
            "words": [str(w) for w in reps],
            "in_derived_subgroup": [str(w) for w in reps if in_derived_subgroup(m, n, w)]}


def _cmd_words_metab(args):
    from .words import in_derived_subgroup, is_unit_in_S, metabelian_image, word
    m, n = _parse_order(args.m), _parse_order(args.n)
    w = word(m, n, args.word)
    in_g = in_derived_subgroup(m, n, w)
    out = {"m": _order_str(m), "n": _order_str(n), "word": str(w),
           "in_derived_subgroup": in_g}
    if in_g:
        img = metabelian_image(m, n, w)
        out["image"] = {("x%d y%d" % (i, j)): c for (i, j), c in sorted(img.coeffs.items())}
        out["image_str"] = repr(img)
        out["is_unit"] = is_unit_in_S(m, n, img)
    return out


def _cmd_quotient_image(args):
    from .quotients import trace_commutator_image
    img = trace_commutator_image(args.q)
    return {"q": args.q, "image": sorted(img),
            "excluded": sorted(set(range(args.q)) - img)}


def _cmd_quotient_test(args):
    from .quotients import commutator_test_modq
    z = _parse_mat(args.z)
    ok, wit = commutator_test_modq(z, args.q)
    out = {"q": args.q, "z": z, "is_commutator": ok}
    if ok:
        out["witness"] = {"x": wit[0], "y": wit[1]}
    return out


def _given(args):
    """The flags given to a certify command (its parser suppresses defaults,
    so the generator's own stand for the rest)."""
    return {k: v for k, v in vars(args).items() if k not in ("group", "cmd", "func")}


def _cmd_certify_hfz(args):
    from .certify import certify_hfz
    return certify_hfz(**_given(args)).to_dict()


def _cmd_certify_sint(args):
    from .certify import certify_sint_failure
    return certify_sint_failure(**_given(args)).to_dict()


def _cmd_certify_hfe1(args):
    from .certify import verify_hfe1
    kw = _given(args)
    moduli = kw.pop("moduli", "")
    if moduli:
        kw["local_moduli"] = _parse_ints(moduli)
    return verify_hfe1(**kw).to_dict()


def _cmd_certify_check(args):
    from .certify import check_certificate
    with open(args.file) as fh:
        d = json.load(fh)
    ok, fresh = check_certificate(d)
    return {"file": args.file, "replay_matches": ok, "conclusion": fresh["conclusion"]}


# --- reproduction targets -----------------------------------------------------

def _word_class_key(w):
    from .words import conjugacy_class_key
    k1 = conjugacy_class_key(w.cyclic_reduction())
    k2 = conjugacy_class_key(w.inverse().cyclic_reduction())
    return min(k1, k2)


def _report(table, rows):
    """(ok, report) for a list of (fields, match) rows: each report row is
    its fields plus "match", and ok says that every row matches."""
    rows = [dict(fields, match=match) for fields, match in rows]
    return all(row["match"] for row in rows), {"table": table, "rows": rows}


def repro(table):
    """Regenerate a table and diff it against the committed expectation.

    Returns (ok, report dict).
    """
    rows = []
    if table == "t1":
        from .words import embedding_matrix, second_derived_congruence, table1_trace_filter
        for (m, n), exp in expected.TABLE1.items():
            modulus, lams = second_derived_congruence(m, n)
            got = {"trace_c": embedding_matrix(m, n, "c").trace(),
                   "lambdas": sorted(lams), "modulus": modulus,
                   "traces": table1_trace_filter(m, n)}
            rows.append(({"m": _order_str(m), "n": _order_str(n),
                          "expected": exp, "computed": got}, got == exp))
    elif table == "rt":
        from .words import alg1_representatives, in_derived_subgroup, word
        for (m, n, t), (exp_words, exp_derived) in expected.RT_TABLE.items():
            reps = alg1_representatives(m, n, t)
            got_keys = {_word_class_key(w) for w in reps}
            exp_keys = {_word_class_key(word(m, n, s)) for s in exp_words}
            got_der = {_word_class_key(w) for w in reps if in_derived_subgroup(m, n, w)}
            exp_der = {_word_class_key(word(m, n, s)) for s in exp_derived}
            rows.append(({"m": _order_str(m), "n": _order_str(n), "t": t,
                          "computed": [str(w) for w in reps], "expected": exp_words},
                         got_keys == exp_keys and got_der == exp_der))
    elif table == "genus329":
        from .markoff import class_data
        from .quadforms import hasse_profile
        classes = class_data(329)
        for rep, exp in zip(classes, expected.GENUS_329):
            prof = hasse_profile(rep)
            got = {str(p): v for p, v in prof.entries}
            rows.append(({"rep": list(rep.coords()), "profile": got, "expected": exp},
                         list(rep.coords()) == exp["rep"] and got == exp["profile"]
                         and prof.product() == 1))
        ok, report = _report(table, rows)
        return ok and len(classes) == len(expected.GENUS_329), report
    elif table == "classnumbers":
        from .markoff import class_data
        for k, h in sorted(expected.CLASS_NUMBERS.items()):
            got = len(class_data(k))
            rows.append(({"k": k, "expected": h, "computed": got}, got == h))
    elif table == "hfu2-images":
        from .quotients import trace_commutator_image
        # the images mod 64 and 81 are the lifts of the committed ones mod 16 and 9
        images = dict(expected.HFU2_IMAGES)
        for q, base in ((64, 16), (81, 9)):
            images[q] = [t for t in range(q) if t % base in expected.HFU2_IMAGES[base]]
        for q, exp in sorted(images.items()):
            got = sorted(trace_commutator_image(q))
            rows.append(({"q": q, "expected": exp, "computed": got}, got == exp))
    elif table == "embeddings":
        from .words import embedding_matrix
        for (m, n), gens in expected.EMBEDDINGS.items():
            for g, exp_mat in gens.items():
                got = embedding_matrix(m, n, g).rows()
                rows.append(({"m": _order_str(m), "n": _order_str(n), "gen": g,
                              "expected": exp_mat, "computed": got}, got == exp_mat))
    else:
        raise ValueError("unknown table %r" % (table,))
    return _report(table, rows)


def _cmd_repro(args):
    ok, report = repro(args.table)
    report["ok"] = ok
    return report


# --- parser -------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="mksurf",
                                 description="Markoff surfaces, commutator lifting, "
                                             "and Hasse-failure certificates")
    sub = ap.add_subparsers(dest="group", required=True)

    mk = sub.add_parser("markoff").add_subparsers(dest="cmd", required=True)
    p = mk.add_parser("reduce")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_markoff_reduce)
    p = mk.add_parser("class")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_markoff_class)
    p = mk.add_parser("search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--ell", type=int)
    p.add_argument("--max-exp", type=int, default=3)
    p.add_argument("--limit", type=int, default=50)
    p.set_defaults(func=_cmd_markoff_search)
    p = mk.add_parser("admissible")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=int)
    g.add_argument("--t", type=int)
    p.set_defaults(func=_cmd_markoff_admissible)

    qf = sub.add_parser("quadform").add_subparsers(dest="cmd", required=True)
    p = qf.add_parser("profile")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_quadform_profile)
    p = qf.add_parser("isotropy")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_quadform_isotropy)

    lf = sub.add_parser("lift").add_subparsers(dest="cmd", required=True)
    p = lf.add_parser("point")
    p.add_argument("--z", required=True, help="matrix a,b,c,d")
    p.add_argument("--point", required=True)
    p.add_argument("--y", help="matrix a,b,c,d; else a fixed box's Y at each coordinate in turn")
    p.set_defaults(func=_cmd_lift_point)
    p = lf.add_parser("universal")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--ring", default="z1/6")
    p.add_argument("--eps", default="2")
    p.set_defaults(func=_cmd_lift_universal)

    wd = sub.add_parser("words").add_subparsers(dest="cmd", required=True)
    p = wd.add_parser("alg1")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_words_alg1)
    p = wd.add_parser("metab")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_words_metab)

    qt = sub.add_parser("quotient").add_subparsers(dest="cmd", required=True)
    p = qt.add_parser("image")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_quotient_image)
    p = qt.add_parser("test")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", required=True, help="matrix a,b,c,d")
    p.set_defaults(func=_cmd_quotient_test)

    cf = sub.add_parser("certify").add_subparsers(dest="cmd", required=True)
    p = cf.add_parser("hfz", argument_default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bound", type=int)
    p.set_defaults(func=_cmd_certify_hfz)
    p = cf.add_parser("sint", argument_default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--max-exp", type=int)
    p.set_defaults(func=_cmd_certify_sint)
    p = cf.add_parser("hfe1", argument_default=argparse.SUPPRESS)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--moduli", help="comma-separated moduli; verify_hfe1's own list "
                                    "if omitted or empty")
    p.set_defaults(func=_cmd_certify_hfe1)
    p = cf.add_parser("check")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_certify_check)

    p = sub.add_parser("repro")
    p.add_argument("table", choices=("t1", "rt", "genus329", "classnumbers",
                                     "hfu2-images", "embeddings"))
    p.set_defaults(func=_cmd_repro)
    return ap


def run(argv):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_BAD_INPUT
    try:
        payload = args.func(args)
    except BudgetExceeded as exc:
        _emit({"error": str(exc), "kind": "budget"})
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        _emit({"error": str(exc), "kind": "invalid-input"})
        return EXIT_BAD_INPUT
    _emit(payload)
    if args.group == "repro" and not payload.get("ok", True):
        return 1
    return EXIT_OK


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
