"""Machine-checkable certificates for the Hasse-failure families over Z and
Z[1/l], and the explicit locally-but-not-globally commutator matrices."""

import json
import math
import time
from dataclasses import dataclass

from .mat2 import Mat2, commutator, mat_mod
from .markoff import admissible_k, admissible_t, search_integral, search_localized
from .quotients import commutator_test_modq
from .rings import factorize, is_probable_prime, localized_str

SCHEMA_VERSION = "1"
DEFAULT_HFZ_BOUND = 10**4
DEFAULT_SINT_BOUND = 10**3
DEFAULT_SINT_MAX_EXP = 3
DEFAULT_HFE1_MODULI = (2, 3, 4, 5, 7, 8, 9, 16, 27, 32)


@dataclass
class Check:
    name: str
    statement: str
    method: str  # "closed-form" | "exhaustive" | "oracle"
    result: bool
    data: object = None
    bound: object = None

    def to_dict(self):
        out = {"name": self.name, "statement": self.statement,
               "method": self.method, "result": self.result, "data": self.data}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


@dataclass
class Certificate:
    kind: str  # E3FailureZ | E3FailureSInt | E2Failure | HFE1
    parameters: dict
    checks: list
    runtime_ms: int = 0

    @property
    def conclusion(self):
        return all(c.result for c in self.checks)

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "parameters": self.parameters,
            "checks": [c.to_dict() for c in self.checks],
            "conclusion": self.conclusion,
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _prime_classes_check(nu, m):
    """Every prime factor of nu is +-1 (mod m); vacuous for nu = 1.
    Returns (ok, factorization-evidence)."""
    fac = factorize(nu)
    bad = [p for p, _ in fac if p % m not in (1, m - 1)]
    return not bad, {"nu": nu, "factorization": fac, "offending": bad}


def _family_nu(k, c):
    """nu >= 1 with k - 4 = c * nu^2, or None."""
    d = k - 4
    if d <= 0 or d % c:
        return None
    nu = math.isqrt(d // c)
    return nu if c * nu * nu == d else None


# The Hasse-failure families k = 4 + c*nu^2, one row each:
#   the name over Z, the name over Z[1/ell] (None: a family over Z only), c,
#   m: every prime factor of nu is +-1 (mod m),
#   m': ell is +-1 (mod m'),
#   the extra clause on nu over Z, and the one over Z[1/ell], each as
#   (text, evidence key, residue of nu, accepted residues).
# The ell and nu (mod 9) clauses apply only over Z[1/ell]; the 12*nu^2 row
# and its nu^2 (mod 32) clause only over Z.  Given the factor clause, each
# nu (mod 9) clause says the same as `admissible_k`: nu is odd and prime to
# 3, k is 0 or 2 (mod 4), and k = 4 + 2*nu^2 (mod 9) is +-3 exactly when
# nu = +-1, +-2 (mod 9).  They stay because the certificates record them.
_FAMILIES = (
    ("i", "2nu^2", 2, 8, 8,
     None, ("nu in {0, +-3, +-4} (mod 9)", "nu_mod_9", lambda nu: nu % 9, (0, 3, 4, 5, 6))),
    ("ii", None, 12, 12, None,
     ("nu^2 = 25 (mod 32)", "nu_sq_mod_32", lambda nu: nu * nu % 32, (25,)), None),
    ("iii", "20nu^2", 20, 20, 5,
     None, ("nu = +-4 (mod 9)", "nu_mod_9", lambda nu: nu % 9, (4, 5))),
)


def _family_candidates(k, ell):
    """The families over Z (ell None) or Z[1/ell] that k has the shape of,
    each as {family, clauses, holds, evidence}."""
    out = []
    for zname, sname, c, m, ell_m, z_clause, s_clause in _FAMILIES:
        name = zname if ell is None else sname
        nu = _family_nu(k, c)
        if name is None or nu is None:
            continue
        okf, ev = _prime_classes_check(nu, m)
        clauses = {"factors of nu = +-1 (mod %d)" % m: okf}
        if ell is not None:
            ev["ell_mod_%d" % ell_m] = ell % ell_m
            clauses["ell = +-1 (mod %d)" % ell_m] = ell % ell_m in (1, ell_m - 1)
        extra = z_clause if ell is None else s_clause
        if extra is not None:
            text, key, residue, accepted = extra
            ev[key] = residue(nu)
            clauses[text] = residue(nu) in accepted
        out.append({"family": name, "clauses": clauses, "holds": all(clauses.values()),
                    "evidence": ev})
    return out


def _failure_certificate(k, ell, bound, max_exp):
    """Certificate that the level-k surface has no points over S^-1 Z,
    S = () when ell is None and (ell,) otherwise: membership in one of the
    reciprocity-failure families, no congruence obstruction (so the surface
    has points everywhere locally), and an independent bounded search that
    finds no point."""
    t0 = time.perf_counter()
    candidates = _family_candidates(k, ell)
    if ell is None:
        kind, params = "E3FailureZ", {"k": k, "bound": bound}
        statement = ("k - 4 has one of the shapes 2*nu^2, 12*nu^2, 20*nu^2 "
                     "with the required factor congruences")
        membership = {"k": k, "candidates": candidates}
        search = Check(name="integral-search-empty",
                       statement="no integer point with all coordinates bounded",
                       method="exhaustive", result=not search_integral(k, bound),
                       data={"k": k}, bound=bound)
    else:
        kind, params = "E3FailureSInt", {"k": k, "ell": ell, "bound": bound,
                                         "max_exp": max_exp}
        statement = "(k, ell) lies in one of the S-integer failure families"
        membership = {"k": k, "ell": ell, "candidates": candidates}
        pts = search_localized(k, ell, max_exp, bound)
        found = ["(%s, %s, %s)@%d" % (*(localized_str(c, ell) for c in p.coords()), k)
                 for p in pts[:5]]
        search = Check(name="localized-search-empty",
                       statement="no point in either denominator shape within bounds",
                       method="exhaustive", result=not pts,
                       data={"k": k, "ell": ell, "max_exp": max_exp, "found": found},
                       bound=bound)
    return Certificate(kind, params, [
        Check(name="family-membership", statement=statement, method="closed-form",
              result=any(f["holds"] for f in candidates), data=membership),
        Check(name="no-congruence-obstruction",
              statement="k avoids 3 (mod 4) and +-3 (mod 9)", method="closed-form",
              result=admissible_k(k), data={"k_mod_4": k % 4, "k_mod_9": k % 9}),
        search,
    ], runtime_ms=int((time.perf_counter() - t0) * 1000))


def certify_hfz(k, bound=DEFAULT_HFZ_BOUND):
    """Certificate that the level-k surface has no integer points although
    it has no congruence obstruction (see `_failure_certificate`)."""
    return _failure_certificate(k, None, bound, None)


def certify_sint_failure(k, ell, bound=DEFAULT_SINT_BOUND, max_exp=DEFAULT_SINT_MAX_EXP):
    """Certificate that the level-k surface has no Z[1/ell] points although
    it has no congruence obstruction (see `_failure_certificate`); the
    search covers two of the three valuation patterns, not
    (-(b+c), -b, -c) (see `search_localized`)."""
    if ell % 2 == 0 or ell % 3 == 0 or not is_probable_prime(ell):
        raise ValueError("ell must be a prime coprime to 6")
    return _failure_certificate(k, ell, bound, max_exp)


def build_hfe1_matrix(nu, ell):
    """The explicit trace 2+20*nu^2 matrix that is a commutator in every
    congruence quotient but not globally; integrality of the top-right
    entry is forced by nu = 4 (mod 27)."""
    if nu % 27 != 4:
        raise ValueError("nu must be 4 (mod 27)")
    ok, ev = _prime_classes_check(nu, 20)
    if not ok:
        raise ValueError("prime factors of nu must be +-1 (mod 20): %r" % (ev,))
    if ell % 5 not in (1, 4) or not is_probable_prime(ell):
        raise ValueError("ell must be a prime = +-1 (mod 5)")
    t = 2 + 20 * nu * nu
    a = Mat2(t - 5, 2 * (5 * nu - 2) // 3, 6 * (5 * nu + 2), 5)
    if a.det() != 1:
        raise AssertionError("determinant contract failed")
    return a


def _trace_failure_checks(t, ell, bound, max_exp, name):
    """The global half of a trace-t failure: the level t + 2 surface is a
    Hasse failure over Z[1/ell] (the nested certificate, checked under
    `name`), and t has no congruence obstruction."""
    sub = certify_sint_failure(t + 2, ell, bound=bound, max_exp=max_exp)
    return [
        Check(name=name, statement="the level t+2 surface is a Hasse failure over Z[1/ell]",
              method="oracle", result=sub.conclusion, data=sub.to_dict()),
        Check(name="trace-admissible",
              statement="t avoids the obstructed classes mod 16 and mod 9",
              method="closed-form", result=admissible_t(t),
              data={"t": t, "t_mod_16": t % 16, "t_mod_9": t % 9}),
    ]


def _local_commutator_check(a, q):
    """One modulus of the local verification: (replayed ok, witness data)."""
    ok, wit = commutator_test_modq(a, q)
    if not ok:
        return False, None
    x, y = wit
    wdata = {"X": [[e.v for e in row] for row in x.rows()],
             "Y": [[e.v for e in row] for row in y.rows()]}
    return commutator(x, y) == mat_mod(a, q), wdata


def verify_hfe1(nu, ell, local_moduli=DEFAULT_HFE1_MODULI,
                sint_bound=DEFAULT_SINT_BOUND, sint_max_exp=DEFAULT_SINT_MAX_EXP):
    """End-to-end certificate: `build_hfe1_matrix(nu, ell)` is a commutator
    in every listed finite quotient (with recorded witnesses) yet the trace
    surface has no S-integer points, so it cannot be a commutator globally.

    The local verification necessarily truncates at the listed moduli; the
    certificate records them rather than claiming all prime powers.
    An empty list, or a modulus below 2, is invalid input (ValueError), not
    a failed check: with no modulus the local half would hold vacuously.
    """
    if not local_moduli:
        raise ValueError("local moduli must not be empty")
    bad = [q for q in local_moduli if q < 2]
    if bad:
        raise ValueError("local moduli must be at least 2, got %r" % (bad,))

    t0 = time.perf_counter()
    checks = []
    a = build_hfe1_matrix(nu, ell)
    t = a.trace()
    checks.append(Check(
        name="matrix-shape",
        statement="det A = 1, A = I (mod 2), A = -I (mod 3)",
        method="closed-form",
        result=(a.det() == 1 and mat_mod(a, 2) == mat_mod(Mat2(1, 0, 0, 1), 2)
                and mat_mod(a, 3) == mat_mod(Mat2(-1, 0, 0, -1), 3)),
        data={"matrix": a.rows(), "trace": t},
    ))
    for q in local_moduli:
        ok, wdata = _local_commutator_check(a, q)
        checks.append(Check(
            name="commutator-mod-%d" % q,
            statement="A is a commutator in SL2(Z/%d) with a recorded witness" % q,
            method="exhaustive",
            result=ok,
            data=wdata,
            bound=q,
        ))
    checks += _trace_failure_checks(t, ell, sint_bound, sint_max_exp,
                                    "nonsolvable-over-s-integers")
    return Certificate("HFE1",
                       {"nu": nu, "ell": ell, "local_moduli": list(local_moduli),
                        "sint_bound": sint_bound, "sint_max_exp": sint_max_exp},
                       checks, runtime_ms=int((time.perf_counter() - t0) * 1000))


def _e2_failure(nu, ell, t=None, bound=DEFAULT_SINT_BOUND, max_exp=DEFAULT_SINT_MAX_EXP):
    """The global half of HFE1 as E2Failure files (which no command makes
    any more) record it, checks in their order.  A stored t is not used:
    the certificate records 2 + 20*nu^2, and replay compares the two."""
    t = 2 + 20 * nu * nu
    return Certificate("E2Failure", {"nu": nu, "ell": ell, "t": t, "bound": bound,
                                     "max_exp": max_exp},
                       _trace_failure_checks(t, ell, bound, max_exp, "surface-failure")[::-1])


# The certificate kinds replay knows, one row each: the generator's name in
# this module (looked up per call, so a wrapper bound to that name sees the
# replay), the required and the optional parameters, each passed to it by
# name, and the checks an older file of the kind may lack, each with the
# result it stands for.  E3FailureZ files made before the congruence check
# was added to it replay as they did whenever that check holds.
_KINDS = {
    "E3FailureZ": ("certify_hfz", ("k",), ("bound",), {"no-congruence-obstruction": True}),
    "E3FailureSInt": ("certify_sint_failure", ("k", "ell"), ("bound", "max_exp"), {}),
    "E2Failure": ("_e2_failure", ("nu", "ell"), ("t", "bound", "max_exp"), {}),
    "HFE1": ("verify_hfe1", ("nu", "ell"), ("local_moduli", "sint_bound", "sint_max_exp"), {}),
}


def _witness(check):
    """[X, Y] mod q of the witness of a true commutator-mod-<q> check (None
    unless det X = det Y = 1 mod q), else False; ValueError if malformed."""
    if not (check["name"].startswith("commutator-mod-") and check["result"]):
        return False
    try:
        x, y = (mat_mod(Mat2(a, b, c, d), int(check["name"][len("commutator-mod-"):]))
                for (a, b), (c, d) in (check["data"]["X"], check["data"]["Y"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise ValueError("%s: witness not two 2x2 integer matrices" % check["name"]) from None
    return commutator(x, y) if x.det() == 1 and y.det() == 1 else None


def check_certificate(cert_dict):
    """Replay a serialized certificate; returns (ok, regenerated dict).

    Deterministic: calling the kind's generator with the stored parameters
    (the generator's defaults for those not stored) must reproduce the
    stored checks as an ordered list (each name and result, and the bound
    of each check that stores one; `_KINDS` names the checks a file may
    lack), the conclusion, each stored parameter, and `_witness` of each
    check.  Input that is not a certificate of a known kind (not a JSON
    object, another schema version, an unknown kind, no `checks` list of
    results each named by a string, a malformed witness, no `conclusion`,
    a parameter missing, unknown to the kind or not an integer;
    `local_moduli` is a list of them) raises ValueError.
    """
    if not isinstance(cert_dict, dict):
        raise ValueError("a certificate is a JSON object, got %s" % type(cert_dict).__name__)
    kind = cert_dict.get("kind")
    params = cert_dict.get("parameters", {})
    if cert_dict.get("schema_version") != SCHEMA_VERSION:
        raise ValueError("unknown schema version %r" % (cert_dict.get("schema_version"),))
    if kind not in _KINDS:
        raise ValueError("unknown certificate kind %r" % (kind,))
    generator, required, optional, absent = _KINDS[kind]
    checks = cert_dict.get("checks")
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str) and "result" in c
            for c in checks):
        raise ValueError("certificate needs a list of checks, each with a name and a result")
    witnesses = [_witness(c) for c in checks]
    if "conclusion" not in cert_dict:
        raise ValueError("certificate has no conclusion")
    if not isinstance(params, dict):
        raise ValueError("certificate parameters must be a JSON object")
    missing = [p for p in required if p not in params]
    if missing:
        raise ValueError("%s certificate lacks parameters %s" % (kind, ", ".join(missing)))
    extra = [str(p) for p in params if p not in required + optional]
    if extra:
        raise ValueError("%s certificate takes no parameters %s" % (kind, ", ".join(extra)))
    for name, value in params.items():
        values = value if name == "local_moduli" else [value]
        if not isinstance(values, list) or not all(type(v) is int for v in values):
            raise ValueError("certificate parameter %s must be %s, got %r" % (
                name, "a list of integers" if name == "local_moduli" else "an integer", value))
    fresh_dict = globals()[generator](**params).to_dict()
    dropped = set(absent) - {c["name"] for c in checks}
    fresh = [f for f in fresh_dict["checks"]
             if not (f["name"] in dropped and f["result"] == absent[f["name"]])]
    ok = (len(checks) == len(fresh)
          and all(c["name"] == f["name"] and c["result"] == f["result"]
                  and ("bound" not in c or c["bound"] == f.get("bound"))
                  for c, f in zip(checks, fresh))
          and witnesses == [_witness(f) for f in fresh]
          and cert_dict["conclusion"] == fresh_dict["conclusion"]
          and all(fresh_dict["parameters"].get(p) == v for p, v in params.items()))
    return ok, fresh_dict
