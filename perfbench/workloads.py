"""The four closed-loop workloads: request generators, the timed library
calls, and the checks of every answer.

A workload produces its traffic in rounds. A round has a fixed composition
(request kinds, moduli, size strata) and the seed picks the concrete inputs
and their order, so two seeds send statistically the same traffic and a run
that executes whole rounds measures the same mix every time. Each workload
keeps the independent answers it checks against (see reference.py), built
before any request is timed.

Call sites go through module attributes (`Q.commutator_test_modq`, ...) so
the tracer can rebind them.
"""

import json
import math
import random
import subprocess
import sys
import time
from collections import Counter

from mksurf import certify as C
from mksurf import expected_tables as E
from mksurf import markoff as M
from mksurf import mat2 as M2
from mksurf import quadforms as QF
from mksurf import quotients as Q
from mksurf import words as W
from mksurf.rings import INF

import env
import reference as R

# Golden-ratio step: successive draws u0 + j*PHI (mod 1) are each uniform on
# [0, 1) when u0 is, and any run of them covers [0, 1) evenly.
PHI = (math.sqrt(5) - 1) / 2
CLI_TIMEOUT_S = 60


class Workload:
    """Shared machinery: seeded rounds, CLI requests and their samples."""

    name = None
    # Seconds one round takes on the reference machine (2 vCPU Xeon); fixes
    # how many rounds a run executes, so a seed's traffic and counts repeat
    # exactly whatever the speed of the machine or of the commit.
    round_s = None

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.cli_samples = []   # (start, end) of every CLI subprocess

    def rounds(self):
        r = 0
        while True:
            yield self.make_round(r)
            r += 1

    def make_round(self, r):
        raise NotImplementedError

    def execute(self, req):
        if req[0] == "cli":
            return self.run_cli(req[1])
        return self._execute(req)

    def run_cli(self, argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "mksurf.cli"] + list(argv),
                              cwd=env.ROOT, env=env.child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        self.cli_samples.append((t0, time.perf_counter()))
        payload = json.loads(proc.stdout) if proc.returncode == 0 else None
        return proc.returncode, payload

    def replay(self, req, answer):
        """Thunks that each replay one item of the answer as a user would
        check it (one witness, one descent path, one word)."""
        return []

    def is_replay(self, req):
        """True for a request that is itself the replay of an earlier answer."""
        return False

    def check(self, req, answer, replayed):
        """None when the answer is right, else a one-line reason."""
        raise NotImplementedError

    def traffic(self, requests):
        raise NotImplementedError


# --- oracle -------------------------------------------------------------------

class Stratified:
    """Uniform draws from a finite list whose mix over strata tracks the
    strata sizes.

    Items are ordered by stratum (shuffled inside each stratum) and indexed
    by a golden-ratio sequence with a seeded start: each draw is uniform on
    the list, while any stretch of draws visits every stratum in proportion
    to its size, within a draw or two.
    """

    def __init__(self, items, stratum, rng):
        keys = [rng.random() for _ in items]
        self.items = [items[i] for i in sorted(range(len(items)),
                                               key=lambda i: (stratum(i), keys[i]))]
        self.u = rng.random()

    def draw(self):
        self.u = (self.u + PHI) % 1.0
        return self.items[int(self.u * len(self.items))]


class Oracle(Workload):
    name = "oracle"
    round_s = 4.5
    MODULI = (8, 9, 16)
    TESTS_PER_Q = 4
    # Latencies form clusters (positives, image mod 9, mod-8 scans, mod-9
    # scans, image mod 16 and mod-16 scans); one image at 9 and four at 16 a
    # round put the median latency mid-way into the mod-9 scans rather than
    # on the edge between two clusters.
    IMAGE_Q = (9, 16, 16, 16, 16)

    def __init__(self, seed):
        super().__init__(seed)
        self.groups = {q: R.SL2Group(q) for q in self.MODULI}
        for q in set(self.IMAGE_Q):
            if self.groups[q].commutator_traces != E.HFU2_IMAGES[q]:
                raise RuntimeError("reference commutator traces mod %d disagree with "
                                   "expected_tables.HFU2_IMAGES" % q)
        # Strata: commutator or not, then conjugacy class. The exhaustive
        # test's cost is close to a class function, so matching the class mix
        # keeps a run's work steady across seeds.
        self.samplers = {}
        for q, g in self.groups.items():
            elements = [tuple(int(v) for v in e) for e in g.elements]
            self.samplers[q] = Stratified(
                elements, lambda i, g=g: (bool(g.is_commutator[i]), int(g.class_of[i])), self.rng)

    def make_round(self, r):
        reqs = [("test", q, self.samplers[q].draw())
                for _ in range(self.TESTS_PER_Q) for q in self.MODULI]
        reqs += [("image", q) for q in self.IMAGE_Q]
        self.rng.shuffle(reqs)
        return reqs

    def cli_request(self):
        return ("cli", ["quotient", "test", "--q", "8",
                        "--z", ",".join(map(str, self.samplers[8].draw()))])

    def _execute(self, req):
        if req[0] == "test":
            return Q.commutator_test_modq(req[2], req[1])
        return Q.trace_commutator_image(req[1])

    def replay(self, req, answer):
        if req[0] == "test" and answer[0]:
            x, y = answer[1]
            return [lambda: M2.commutator(x, y)]
        return []

    def _expected(self, q, z):
        g = self.groups[q]
        return bool(g.is_commutator[g.index(z)])

    def check(self, req, answer, replayed):
        if req[0] == "cli":
            code, payload = answer
            z = tuple(int(v) for v in req[1][-1].split(","))
            if code != 0 or payload["is_commutator"] != self._expected(8, z):
                return "cli quotient test gave %r (exit %d)" % (payload, code)
            return None
        if req[0] == "image":
            q = req[1]
            if sorted(answer) != self.groups[q].commutator_traces:
                return "trace image mod %d is %r" % (q, sorted(answer))
            return None
        _, q, z = req
        ok, wit = answer
        if ok != self._expected(q, z):
            return "Z=%r mod %d: answered %r" % (z, q, ok)
        if ok:
            replayed, = replayed
            x, y = (tuple(e.v % q for e in m.entries()) for m in wit)
            for m in (x, y):
                if (m[0] * m[3] - m[1] * m[2]) % q != 1 % q:
                    return "witness %r mod %d has determinant != 1" % (m, q)
            if R.commutator_mod(x, y, q) != tuple(v % q for v in z):
                return "witness for Z=%r mod %d does not multiply out" % (z, q)
            if tuple(e.v % q for e in replayed.entries()) != tuple(v % q for v in z):
                return "mat2.commutator replay of the witness for Z=%r mod %d differs" % (z, q)
        return None

    def traffic(self, requests):
        tests = [r for r in requests if r[0] == "test"]
        neg = Counter(r[1] for r in tests if not self._expected(r[1], r[2]))
        mix = Counter(r[1] for r in tests)
        return {
            "q_mix": dict(sorted(mix.items())),
            "negative_share": {q: round(neg[q] / mix[q], 4) for q in sorted(mix)},
            "classes_visited": {q: len({int(self.groups[q].class_of[self.groups[q].index(r[2])])
                                        for r in tests if r[1] == q}) for q in sorted(mix)},
            "image_requests": dict(sorted(Counter(r[1] for r in requests
                                                  if r[0] == "image").items())),
        }

    @staticmethod
    def warmup():
        s, t = R.S_GEN, R.T_GEN
        for q in Oracle.MODULI:
            Q.commutator_test_modq(R.commutator_mod(s, t, q), q)
        Q.trace_commutator_image(9)


# --- certify ------------------------------------------------------------------

HFZ_FAMILIES = ((2, {1, 7}, 8), (12, {1, 11}, 12), (20, {1, 19}, 20))
NU_MAX = 3000
HFE1_NU_MAX = 20000         # nu = 4 (mod 27) with factors = +-1 (mod 20) are sparse
ELLS_20 = (11, 19, 29, 31, 41)   # primes = +-1 (mod 5), coprime to 6
ELLS_2 = (7, 17, 23, 31, 41)     # primes = +-1 (mod 8)


def _sint_budget_ok(k, ell, bound=C.DEFAULT_SINT_BOUND, max_exp=C.DEFAULT_SINT_MAX_EXP):
    """The exact-arithmetic range search_localized accepts."""
    return bound ** 4 + ell ** (2 * max_exp) * (4 * bound * bound + 4 * abs(k) + 16) <= 2 ** 62


class Certify(Workload):
    """Certificate generation, each followed by its replay through
    check_certificate, both counted as requests (`certify hfz|sint|hfe1`
    then `certify check`)."""

    name = "certify"
    round_s = 7.5
    _last = None

    def is_replay(self, req):
        return req[0] == "check"

    def _draw_nu(self, ok, top=NU_MAX):
        while True:
            nu = self.rng.randint(1, top)
            if ok(nu):
                return nu

    def _hfz_k(self, family, member):
        coeff, classes, modulus = HFZ_FAMILIES[family]

        def ok(nu):
            good = R.factors_in(nu, classes, modulus) and (coeff != 12 or nu * nu % 32 == 25)
            return good == member and R.admissible_k(4 + coeff * nu * nu)

        return 4 + coeff * self._draw_nu(ok) ** 2

    def _sint(self, coeff):
        if coeff == 20:
            ell = self.rng.choice(ELLS_20)
            nu = self._draw_nu(lambda nu: R.factors_in(nu, {1, 19}, 20) and nu % 9 in (4, 5)
                               and _sint_budget_ok(4 + 20 * nu * nu, ell))
        else:
            ell = self.rng.choice(ELLS_2)
            nu = self._draw_nu(lambda nu: R.factors_in(nu, {1, 7}, 8)
                               and nu % 9 in (0, 3, 4, 5, 6)
                               and R.admissible_k(4 + 2 * nu * nu)
                               and _sint_budget_ok(4 + 2 * nu * nu, ell))
        return ("sint", 4 + coeff * nu * nu, ell)

    def _hfe1(self):
        ell = self.rng.choice(ELLS_20)
        nu = self._draw_nu(lambda nu: nu % 27 == 4 and R.factors_in(nu, {1, 19}, 20)
                           and _sint_budget_ok(4 + 20 * nu * nu, ell), HFE1_NU_MAX)
        return ("hfe1", nu, ell)

    def make_round(self, r):
        # Three family members and one non-member of certify_hfz, one sint and
        # one hfe1 a round: the full box scans of hfz make up two thirds of
        # the requests, so the median and the tail both fall among them.
        gens = [("hfz", self._hfz_k(f, True)) for f in range(3)]
        gens += [("hfz", self._hfz_k(r % 3, False)), self._sint(20 if r % 2 == 0 else 2),
                 self._hfe1()]
        self.rng.shuffle(gens)
        return [g for gen in gens for g in (gen, ("check",) + gen)]

    def cli_request(self):
        return ("cli", ["certify", "hfz", "--k", str(self._hfz_k(0, True)), "--bound", "200"])

    def _execute(self, req):
        if req[0] == "check":
            return C.check_certificate(json.loads(self._last))
        if req[0] == "hfz":
            cert = C.certify_hfz(req[1])
        elif req[0] == "sint":
            cert = C.certify_sint_failure(req[1], req[2])
        else:
            cert = C.verify_hfe1(req[1], req[2])
        self._last = cert.to_json()
        return self._last

    def expected_conclusion(self, req):
        if req[0] == "hfz":
            return R.hfz_member(req[1])
        if req[0] == "sint":
            return R.sint_member(req[1], req[2])
        return True

    def check(self, req, answer, replayed):
        if req[0] == "cli":
            code, payload = answer
            if code != 0 or payload["conclusion"] is not True:
                return "cli certify hfz gave exit %d, conclusion %r" % (
                    code, payload and payload.get("conclusion"))
            return None
        if req[0] == "check":
            ok, fresh = answer
            if not ok or fresh["conclusion"] != self.expected_conclusion(req[1:]):
                return "replay of %r: ok=%r conclusion=%r" % (req[1:], ok, fresh["conclusion"])
            return None
        cert = json.loads(answer)
        want = self.expected_conclusion(req)
        if cert["conclusion"] != want:
            return "%r: conclusion %r, expected %r" % (req, cert["conclusion"], want)
        if req[0] == "hfe1":
            (a, b), (c, d) = cert["checks"][0]["data"]["matrix"]
            for chk in cert["checks"]:
                if chk["name"].startswith("commutator-mod-"):
                    q = chk["bound"]
                    x, y = (tuple(v for row in chk["data"][n] for v in row) for n in ("X", "Y"))
                    if R.commutator_mod(x, y, q) != (a % q, b % q, c % q, d % q):
                        return "%r: recorded witness mod %d does not multiply out" % (req, q)
        return None

    def traffic(self, requests):
        gens = [r for r in requests if r[0] in ("hfz", "sint", "hfe1")]
        return {
            "kinds": dict(sorted(Counter(r[0] for r in requests).items())),
            "hfz_members": sum(1 for r in gens if r[0] == "hfz" and R.hfz_member(r[1])),
            "parameters": [list(r) for r in gens],
        }

    @staticmethod
    def warmup():
        cert = C.certify_hfz(102, bound=100)
        C.certify_sint_failure(4 + 20 * 139 ** 2, 19, bound=50, max_exp=1)
        C.verify_hfe1(139, 19, local_moduli=(2, 3), sint_bound=50)
        C.check_certificate(json.loads(cert.to_json()))


# --- classes ------------------------------------------------------------------

K_STRATA = 4               # log-uniform strata of |k| over [1e4, 1e6]
CLI_K = tuple(sorted(E.CLASS_NUMBERS))
WALK_MOVES = (2, 6)
# points found independently of class_data, each of whose orbits must be
# among the returned classes
SMALL_POINT_LIMIT = 100
SMALL_POINT_COUNT = 3


def _walk(c, rng):
    """A Vieta walk of seeded length that never undoes its last move."""
    last = None
    for _ in range(rng.randint(*WALK_MOVES)):
        j = rng.choice([j for j in (1, 2, 3) if j != last])
        c = R.apply_move("vieta", (j,), c)
        last = j
    return c


class Classes(Workload):
    name = "classes"
    round_s = 0.75

    def __init__(self, seed):
        super().__init__(seed)
        # one golden-ratio sequence per (stratum, sign): the |k| of a run
        # spread evenly over each stratum
        self.u = {}
        # CLI commands cycle through CLI_K from a seeded start, so that
        # every run sends the same mix
        self.cli_turn = self.rng.randrange(len(CLI_K))

    def _k(self, stratum, sign):
        if (stratum, sign) not in self.u:
            self.u[(stratum, sign)] = self.rng.random()
        self.u[(stratum, sign)] = u = (self.u[(stratum, sign)] + PHI) % 1.0
        k = sign * int(10 ** (4 + 2 * (stratum + u) / K_STRATA))
        while not R.admissible_k(k):
            k += sign
        return k

    def make_round(self, r):
        reqs = [("class", self._k(s, sign), self.rng.getrandbits(32))
                for s in range(K_STRATA) for sign in (1, -1)]
        reqs.append(self.cli_request())
        self.rng.shuffle(reqs)
        return reqs

    def cli_request(self):
        self.cli_turn += 1
        return ("cli", ["markoff", "class", "--k", str(CLI_K[self.cli_turn % len(CLI_K)])])

    def _execute(self, req):
        _, k, walk_seed = req
        walk_rng = random.Random(walk_seed)
        out = []
        for rep in M.class_data(k):
            profile = isotropy = None
            if k > 4:
                profile = QF.hasse_profile(rep)
                isotropy = QF.form_isotropic(rep)
            end = _walk(rep.coords(), walk_rng)
            normal, path = M.reduce_point(M.MarkoffPoint(*end, k))
            out.append((rep, profile, isotropy, end, normal, path))
        return out

    def replay(self, req, answer):
        if req[0] != "class":
            return []
        return [lambda path=path, normal=normal: M.apply_path(path, normal).coords()
                for _, _, _, _, normal, path in answer]

    def check(self, req, answer, replayed):
        if req[0] == "cli":
            return self._check_cli(int(req[1][-1]), *answer)
        k = req[1]
        reps = [item[0].coords() for item in answer]
        if len(set(reps)) != len(reps):
            return "k=%d: repeated representatives" % k
        for c in R.small_points(k, SMALL_POINT_LIMIT, SMALL_POINT_COUNT):
            if M.reduce_point(M.MarkoffPoint(*c, k))[0].coords() not in reps:
                return "k=%d: point %r reduces to no returned representative" % (k, c)
        for (rep, profile, isotropy, end, normal, path), again in zip(answer, replayed):
            c = rep.coords()
            if R.level(c) != k:
                return "k=%d: representative %r is off the surface" % (k, c)
            if M.reduce_point(rep)[0].coords() != c:
                return "k=%d: representative %r does not reduce to itself" % (k, c)
            if normal.coords() != c:
                return "k=%d: walk %r reduced to %r, not %r" % (k, end, normal.coords(), c)
            if R.replay(path, c) != end or again != end:
                return "k=%d: descent path of %r does not replay" % (k, end)
            if profile is not None and profile.product() != 1:
                return "k=%d: profile of %r breaks Hilbert reciprocity" % (k, c)
            if isotropy is not None and isotropy[1].get("witness"):
                u = isotropy[1]["witness"]
                x1, x2, x3 = c
                value = (u[0] ** 2 + u[1] ** 2 + u[2] ** 2 + x1 * u[0] * u[1]
                         + x2 * u[0] * u[2] + x3 * u[1] * u[2])
                if value != 0 or not any(u):
                    return "k=%d: isotropy witness %r of %r is not a zero" % (k, u, c)
        return None

    def _check_cli(self, k, code, payload):
        if code != 0 or payload["hhat"] != E.CLASS_NUMBERS[k]:
            return "cli markoff class --k %d: exit %d, payload %r" % (k, code, payload)
        if k == 329:
            reps = [c["rep"] for c in payload["classes"]]
            if reps != [g["rep"] for g in E.GENUS_329]:
                return "cli markoff class --k 329 reps %r" % (reps,)
            for rep, g in zip(reps, E.GENUS_329):
                prof = QF.hasse_profile(M.MarkoffPoint(*rep, 329))
                got = {("inf" if p == INF else str(p)): v for p, v in prof.entries}
                if got != g["profile"]:
                    return "k=329 rep %r profile %r" % (rep, got)
        return None

    def traffic(self, requests):
        ks = [r[1] for r in requests if r[0] == "class"]
        return {
            "k_range": [min(ks), max(ks)] if ks else None,
            "abs_k_range": [min(map(abs, ks)), max(map(abs, ks))] if ks else None,
            "sign_split": {"positive": sum(1 for k in ks if k > 0),
                           "negative": sum(1 for k in ks if k < 0)},
            "cli_k": dict(sorted(Counter(int(r[1][-1]) for r in requests
                                         if r[0] == "cli").items())),
            "k": ks,
        }

    @staticmethod
    def warmup():
        for rep in M.class_data(10 ** 4 + 1):
            QF.hasse_profile(rep)
            QF.form_isotropic(rep)
            M.reduce_point(rep)


# --- words --------------------------------------------------------------------

EMBEDDINGS = ((2, 3), (2, None), (3, 3), (3, None))
T_MAX = {(2, 3): 18, (2, None): 14, (3, 3): 18, (3, None): 14}


class Words(Workload):
    """Every round asks each (m, n, t) with 3 <= t <= T_MAX once, in seeded
    order. The inputs are few and their cost spans three orders of magnitude
    ((3, inf, 14) takes 1.8 s, (3, 3, 3) under 1 ms), so a round holds all
    of them and the seed varies the order; a run of two rounds gives each
    quantile a pair of samples per input. The infinite-order embeddings stop
    at t = 14: t = 15..18 would add 19 s to a round."""

    name = "words"
    round_s = 9.6

    def __init__(self, seed):
        super().__init__(seed)
        self.gens = {mn: {g: tuple(v for row in E.EMBEDDINGS[mn][g] for v in row)
                          for g in ("a", "b")} for mn in EMBEDDINGS}

    def make_round(self, r):
        reqs = [("alg1", m, n, t) for (m, n) in EMBEDDINGS for t in range(3, T_MAX[(m, n)] + 1)]
        self.rng.shuffle(reqs)
        return reqs

    def cli_request(self):
        return ("cli", ["words", "alg1", "--m", "2", "--n", "3", "--t",
                        str(self.rng.randint(3, 10))])

    def _execute(self, req):
        return W.alg1_representatives(req[1], req[2], req[3])

    def replay(self, req, answer):
        if req[0] != "alg1":
            return []
        return [lambda w=w: W.word_trace(req[1], req[2], w) for w in answer]

    def _check_reps(self, m, n, t, reps):
        gens = self.gens[(m, n)]
        keys = set()
        for runs in reps:
            if R.word_abs_trace(gens, runs) != t:
                return "(%r,%r,%d): %r has the wrong trace" % (m, n, t, runs)
            try:
                keys.add(R.cyclic_key(runs))
            except ValueError as exc:
                return "(%r,%r,%d): %s" % (m, n, t, exc)
        if len(keys) != len(reps):
            return "(%r,%r,%d): two representatives are conjugate" % (m, n, t)
        return None

    def check(self, req, answer, replayed):
        if req[0] == "cli":
            code, payload = answer
            t = int(req[1][-1])
            if code != 0:
                return "cli words alg1 exit %d" % code
            return self._check_reps(2, 3, t, [R.parse_word(s, 2, 3) for s in payload["words"]])
        _, m, n, t = req
        reps = [w.runs for w in answer]
        bad = self._check_reps(m, n, t, reps)
        if bad:
            return bad
        if replayed != [t] * len(reps):
            return "(%r,%r,%d): word_trace replay gave %r" % (m, n, t, replayed)
        row = E.RT_TABLE.get((m, n, t))
        if row is not None:
            def key(runs):
                return min(R.cyclic_key(runs), R.cyclic_key(R.inverse(runs, m, n)))

            want = [[R.parse_word(s, m, n) for s in col] for col in row]
            if ({key(w) for w in reps} != {key(w) for w in want[0]}
                    or {key(w) for w in reps if R.in_derived(w, m, n)}
                    != {key(w) for w in want[1]}):
                return "(%r,%r,%d): differs from the committed rt row" % (m, n, t)
        return None

    def traffic(self, requests):
        return {"mnt": [[r[1], "inf" if r[2] is None else r[2], r[3]]
                        for r in requests if r[0] == "alg1"],
                "psl2_class_reps_cache": W.psl2_class_reps.cache_info()._asdict()}

    @staticmethod
    def warmup():
        """Fills the psl2_class_reps cache for every t a round asks, so no
        request pays for it depending on where the seed puts it."""
        for t in range(3, max(T_MAX.values()) + 1):
            W.psl2_class_reps(t)
        W.alg1_representatives(2, 3, 6)


WORKLOADS = {w.name: w for w in (Oracle, Certify, Classes, Words)}
