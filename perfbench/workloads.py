"""The four workloads: seeded inputs, the ops, and the reference checks.

Each workload is a class built from a seed.  ``prepare(b)`` makes the inputs
of batch ``b`` (a fixed composition of ops whose inputs depend only on the
seed and ``b``) and returns a list of ``Op``.  ``Op.run()`` is the timed call
into the program; ``Op.check(result)``, untimed, compares the answer with a
reference that does not come from the code under test.  It raises
``CheckFailed`` on a wrong answer and returns the decision ("yes", "no",
"unknown") for decision requests, else None.

Why each workload (one line each):
  scan        - acceptance 06; the only workload whose inputs share work: every
                amalgam_embeddable call recomputes chief_series over the same
                16 catalog tables, closure is about two thirds of traced time,
                and Higman towers reach order 2048.
  certify     - the users' CLI path (cli, serialize, certify, verify) with many
                short requests and no sharing: every vertex table is relabeled,
                so a cache that helps scan must show no change here.
  filtrations - the pure-Python hot loops (IdealBasis.multiply and rref_mod_p
                on groups of order up to 64, the 2x2 matrix loops of the
                SL(2, Z/p^k) towers); closure and the homomorphism search
                are under 1% here.
  search      - the homomorphism search behind find_isomorphism, automorphisms
                and is_isomorphic, which is at most a few percent of every other
                workload.

Relabeling rule: a table of order n is relabeled by a seeded permutation pi
of {0..n-1} with pi(0) = 0 (the identity stays at index 0), as
T'[pi(a), pi(b)] = pi(T[a, b]), and every map into the table is composed
with pi.  Relabeled inputs are isomorphic to the originals, so every answer
that depends only on the isomorphism type (verdicts, series orders, |Aut|)
is checked against the same reference for every seed, while no two requests
share a table: cross-request sharing is removed by design.  Only scan keeps
the catalog tables, because sharing is what it measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """The program's answer disagrees with the reference."""


def check(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]] = lambda result: None


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


# -- independent table arithmetic (numpy only) ---------------------------------

def relabel_perm(n: int, rng: random.Random) -> np.ndarray:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return np.array([0] + rest, dtype=np.int64)


def relabel_table(table: np.ndarray, pi: np.ndarray) -> np.ndarray:
    out = np.empty_like(table)
    out[np.ix_(pi, pi)] = pi[table]
    return out


def cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


def elab_table(p: int, r: int):
    """F_p^r with element x <-> base-p digits of x; returns (table, digits)."""
    n = p ** r
    digits = np.array([[(x // p ** i) % p for i in range(r)] for x in range(n)],
                      dtype=np.int64)
    weights = p ** np.arange(r)
    table = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    return table, digits


def is_injective_hom(dom: np.ndarray, cod: np.ndarray, m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=np.int64)
    return len(set(m.tolist())) == len(m) and \
        bool((cod[m[:, None], m[None, :]] == m[dom]).all())


def is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def direct_product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element (x, y) at index x * |b| + y."""
    nb = len(b)
    xa, ya = np.divmod(np.arange(len(a) * nb), nb)
    return a[xa[:, None], xa[None, :]] * nb + b[ya[:, None], ya[None, :]]


def rank_mod_p(rows, p: int) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c] % p), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _quiet(fn, *args):
    """Call fn with the program's stdout captured (the CLI prints results)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


# -- scan ----------------------------------------------------------------------

class Scan:
    """One amalgam_scan over the 2-groups of order <= 16, then one op per
    record: every no record (176), the first 20 yes records (as in
    acceptance 06), a seeded sample of yes records from the largest block
    of the enumeration, C2^4 u C2^4' (7800 of the 18486 yes records), and a
    seeded sample of yes records from the blocks that hold the no records
    and have a factor of order 16 (349 yes records).

    All no records run, not a sample: their costs fall in clusters (about
    10, 20 and 30 ms) and a sample moves the median from one cluster to the
    next.  The seeded yes records come from blocks whose records cost
    alike: about 1.3 s each in C2^4 u C2^4' (closure-bound chief series on
    C2^4), 15-50 ms each in the no-record blocks; a sample across all
    blocks mixes 10 ms and 2 s records and moved wall_s and the p90 by
    15-40% between seeds.  The second sample also puts the median op inside
    a dense stretch of costs: without it the median fell between the 20 ms
    and 30 ms clusters of the no records and moved by 20% between runs.
    (D8 u D8', the one no-record block without a factor of order 16, has
    yes records that build a Higman tower of order 2048 in 1.3 s.)  The
    Higman tower at order 2048 is exercised by a fixed record of the first
    20."""

    name = "scan"
    SEEDED_YES = 3
    BLOCK = ("C2^4", "C2^4'")
    SEEDED_NO_BLOCK_YES = 64

    def __init__(self, seed: int):
        from residuap import catalog, embed
        self.embed = embed
        self.seed = seed
        self.golden = load_golden()["scan"]
        self.groups = catalog.two_group_scan_list(16)
        self.yes: list = []
        self.no: list = []
        self.block: list = []
        self.no_block_yes: list = []
        self.pick: list = []
        self.pick_rng = random.Random()

    @staticmethod
    def digest(records) -> str:
        h = hashlib.sha256()
        for r in records:
            h.update(f"{r.g_name}|{r.h_name}|{r.u_g}|{r.u_h}|{r.iso}|"
                     f"{int(r.embeddable)}\n".encode())
        return h.hexdigest()

    def _scan(self):
        recs = self.embed.amalgam_scan(self.groups)
        self.yes = [r for r in recs if r.embeddable]
        self.no = [r for r in recs if not r.embeddable]
        return recs

    def _check_scan(self, recs):
        g = self.golden
        check(len(recs) == g["records"] and len(self.no) == g["no"],
              f"scan gave {len(recs)} records / {len(self.no)} no")
        first = self.no[0]
        check([first.g_name, first.h_name, list(first.u_g), list(first.u_h),
               list(first.iso)] == g["first_no"], "golden first-no record")
        check(self.digest(recs) == g["sha256"], "scan records differ")
        self.block = [r for r in self.yes if (r.g_name, r.h_name) == self.BLOCK]
        order = {G.name: G.order for G in self.groups}
        no_blocks = {(r.g_name, r.h_name) for r in self.no}
        self.no_block_yes = [
            r for r in self.yes if (r.g_name, r.h_name) in no_blocks and
            16 in (order[r.g_name], order[r.h_name.rstrip("'")])]
        self.pick = self.pick_rng.sample(self.no_block_yes,
                                         self.SEEDED_NO_BLOCK_YES)

    def _yes_op(self, record):
        embed = self.embed
        am = embed.scan_amalgam_object(self.groups, record())
        dec = embed.amalgam_embeddable(am)
        res = None
        if dec.is_yes:
            fw = embed.feasible_witness(am, dec.certificate, 2, cap=2048)
            if fw is not None:
                res = embed.higman_embed(am, fw[0], fw[1], cap=2048,
                                         verify=True)
        return am, dec, res

    @staticmethod
    def _check_yes(out):
        am, dec, res = out
        check(dec.is_yes, f"yes record answered {dec.status}")
        if res is not None:
            emb = res.embedding
            W = emb.W.mult
            check(W.shape[0] <= 2048 and is_p_power(W.shape[0], 2),
                  "Higman target order")
            a, b = emb.alpha.map, emb.beta.map
            check(is_injective_hom(am.G.mult, W, a) and
                  is_injective_hom(am.H.mult, W, b), "Higman maps")
            ua = a[am.uG.map]
            check(bool((ua == b[am.uH.map]).all()) and
                  set(a.tolist()) & set(b.tolist()) == set(ua.tolist()),
                  "Higman images meet exactly in U")
        return "yes"

    def _no_op(self, idx: int):
        am = self.embed.scan_amalgam_object(self.groups, self.no[idx])
        return self.embed.amalgam_embeddable(am)

    @staticmethod
    def _check_no(dec):
        check(dec.is_no, f"no record answered {dec.status}")
        return "no"

    def prepare(self, b: int) -> list[Op]:
        rng = random.Random(f"scan:{self.seed}:{b}")
        # the seeded records are drawn when the op runs, from the records of
        # this batch's scan; the draws depend only on the seed and b
        draws = [rng.random() for _ in range(self.SEEDED_YES)]
        # the second sample is drawn by _check_scan, right after this
        # batch's scan, from a generator seeded here
        self.pick_rng = random.Random(rng.random())
        ops = [Op("amalgam_scan", self._scan, self._check_scan)]
        ops += [Op("embeddable_yes",
                   lambda i=i: self._yes_op(lambda: self.yes[i]),
                   self._check_yes) for i in range(20)]
        ops += [Op("embeddable_yes", lambda u=u: self._yes_op(
            lambda: self.block[int(u * len(self.block))]), self._check_yes)
            for u in draws]
        ops += [Op("embeddable_yes",
                   lambda j=j: self._yes_op(lambda: self.pick[j]),
                   self._check_yes)
                for j in range(self.SEEDED_NO_BLOCK_YES)]
        ops += [Op("embeddable_no", lambda i=i: self._no_op(i), self._check_no)
                for i in range(self.golden["no"])]
        # record ops in a seeded order, so that each kind of op is timed
        # across the whole batch rather than in one stretch of it
        records = ops[1:]
        rng.shuffle(records)
        return ops[:1] + records


# -- certify -------------------------------------------------------------------

def _loop_gog(vtable, etable, f_e, f_bar) -> dict:
    return {"graph": {"nv": 1, "bar": [1, 0], "orig": [0, 0], "term": [0, 0]},
            "vgroups": [{"order": len(vtable), "mult": vtable.tolist(),
                         "name": "V"}],
            "egroup_of_edge": [0, 0],
            "egroups": [{"order": len(etable), "mult": etable.tolist(),
                         "name": "E"}],
            "emaps": [np.asarray(f_e).tolist(), np.asarray(f_bar).tolist()]}


def _amalgam_gog(ga, gb, etable, into_a, into_b) -> dict:
    # edge 0 runs a -> b (its map lands in b), edge 1 runs back
    return {"graph": {"nv": 2, "bar": [1, 0], "orig": [0, 1], "term": [1, 0]},
            "vgroups": [{"order": len(ga), "mult": ga.tolist(), "name": "A"},
                        {"order": len(gb), "mult": gb.tolist(), "name": "B"}],
            "egroup_of_edge": [0, 0],
            "egroups": [{"order": len(etable), "mult": etable.tolist(),
                         "name": "C"}],
            "emaps": [np.asarray(into_b).tolist(), np.asarray(into_a).tolist()]}


def certify_templates() -> list[dict]:
    """The isomorphism types of the certify requests, fixed for every seed.

    HNN loops over F_p^r (p=2 with r <= 4, p=3 with r <= 3) with random
    injective edge maps from F_p^s, three per (p, r, s); amalgams of
    nonabelian catalog p-groups over C_p, the edge generator sent to a random
    element of order p; and the two README loops (shift: yes, swap: exit 10).
    Each template is a dict with the gog object, the prime, and the README
    verdict where one is known.
    """
    from residuap import catalog
    rng = random.Random("certify-templates")
    out = []
    for p, rmax in ((2, 4), (3, 3)):
        for r in range(2, rmax + 1):
            vt, _ = elab_table(p, r)
            for s in range(1, r + 1):
                et, edig = elab_table(p, s)
                for _ in range(3):
                    maps = []
                    for _ in range(2):
                        while True:
                            A = [[rng.randrange(p) for _ in range(s)]
                                 for _ in range(r)]
                            if rank_mod_p(list(zip(*A)), p) == s:
                                break
                        img = (edig @ np.array(A).T) % p
                        maps.append(img @ (p ** np.arange(r)))
                    out.append({"p": p, "gog": _loop_gog(vt, et, *maps),
                                "label": f"loop F{p}^{r} over F{p}^{s}"})
    for p, names in ((2, ("D8", "Q8", "D16", "SD16")), (3, ("Heis27", "C9:C3"))):
        et = cyclic_table(p)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i:]]
        for a, b in pairs:
            tabs, maps = [], []
            for nm in (a, b):
                G = catalog.by_name(nm)
                T = np.array(G.mult)
                # elements of order p, found from the table itself
                cand = [x for x in range(1, len(T))
                        if _power(T, x, p) == 0]
                x = rng.choice(cand)
                tabs.append(T)
                maps.append([_power(T, x, k) for k in range(p)])
            out.append({"p": p, "gog": _amalgam_gog(tabs[0], tabs[1], et, *maps),
                        "label": f"{a} *_C{p} {b}"})
    # README examples: the F_3^3 shift loop certifies, the F_3^2 swap refutes
    v27, d27 = elab_table(3, 3)
    v9, d9 = elab_table(3, 2)
    w27, w9 = 3 ** np.arange(3), 3 ** np.arange(2)
    fe = np.stack([d9[:, 0], d9[:, 1], 0 * d9[:, 0]], axis=1) @ w27
    fb = np.stack([d9[:, 1], 0 * d9[:, 0], d9[:, 0]], axis=1) @ w27
    out.append({"p": 3, "gog": _loop_gog(v27, v9, fe, fb),
                "label": "README shift loop", "expect": "yes"})
    swap = np.stack([d9[:, 1], d9[:, 0]], axis=1) @ w9
    out.append({"p": 3, "gog": _loop_gog(v9, v9, np.arange(9), swap),
                "label": "README swap loop", "expect": "no"})
    return out


def _power(T, x, e) -> int:
    y = 0
    for _ in range(e):
        y = int(T[y, x])
    return y


def relabel_gog(gog: dict, rng: random.Random) -> dict:
    """Relabel every vertex table by a seeded permutation fixing 0."""
    out = dict(gog)
    perms = []
    out["vgroups"] = []
    for vg in gog["vgroups"]:
        T = np.array(vg["mult"], dtype=np.int64)
        pi = relabel_perm(len(T), rng)
        perms.append(pi)
        out["vgroups"].append(dict(vg, mult=relabel_table(T, pi).tolist()))
    term = gog["graph"]["term"]
    out["emaps"] = [perms[term[e]][np.array(m)].tolist()
                    for e, m in enumerate(gog["emaps"])]
    return out


def check_certificate(cert: dict, p: int):
    """Re-check a residually-p certificate with numpy alone: the target is a
    p-group table, vertex maps are injective homomorphisms, tree edges map to
    1, and e f_e(x) e^-1 = f_bar(e)(x) holds in the target."""
    gog = cert["gog"]
    P = np.array(cert["target"]["mult"], dtype=np.int64)
    check(cert["p"] == p and is_p_power(len(P), p), "target is not a p-group")
    check((P[0] == np.arange(len(P))).all(), "target identity")
    inv = np.argmin(P, axis=1)
    vt = [np.array(g["mult"], dtype=np.int64) for g in gog["vgroups"]]
    vm = [np.array(m, dtype=np.int64) for m in cert["vertex_maps"]]
    for T, m in zip(vt, vm):
        check(is_injective_hom(T, P, m), "vertex map is not an injective hom")
    Y = gog["graph"]
    img = cert["edge_images"]
    for e in range(len(Y["bar"])):
        if e in cert["tree"]:
            check(img[e] == 0, "tree edge image")
        eb = Y["bar"][e]
        check(P[img[e], img[eb]] == 0, "edge images invert under bar")
        fe = np.array(gog["emaps"][e])
        fb = np.array(gog["emaps"][eb])
        lhs = vm[Y["term"][e]][fe]
        lhs = P[P[img[e], lhs], inv[img[e]]]
        check((lhs == vm[Y["term"][eb]][fb]).all(), "edge relation")


class Certify:
    """A stream of `gog certify --out` requests through residuap.cli.main,
    each followed by `verify --file` when it exits 0.  Every batch sends each
    template once, relabeled afresh."""

    name = "certify"
    EXIT = {0: "yes", 10: "no", 20: "unknown"}

    def __init__(self, seed: int):
        from residuap import cli
        self.cli = cli
        self.seed = seed
        self.templates = certify_templates()
        self.golden = load_golden()["certify"]
        check(len(self.golden) == len(self.templates), "certify golden size")
        self.workdir = os.path.join(os.getcwd(), ".perfbench_work", "certify")
        os.makedirs(self.workdir, exist_ok=True)
        self.cert_path = os.path.join(self.workdir, "cert.json")

    def _request(self, path: str, p: int):
        if os.path.exists(self.cert_path):
            os.remove(self.cert_path)
        code = _quiet(self.cli.main, ["gog", "certify", "--file", path, "--p",
                                      str(p), "--out", self.cert_path, "--json"])
        vcode = None
        if code == 0:
            vcode = _quiet(self.cli.main, ["verify", "--file", self.cert_path,
                                           "--json"])
        return code, vcode

    def _check(self, i: int, out):
        t = self.templates[i]
        code, vcode = out
        check(code in self.EXIT, f"{t['label']}: exit {code}")
        verdict = self.EXIT[code]
        if verdict == "yes":
            check(vcode == 0, f"{t['label']}: verify exit {vcode}")
            with open(self.cert_path) as fh:
                check_certificate(json.load(fh), t["p"])
        expect = t.get("expect")
        if expect is not None:
            check(verdict == expect, f"{t['label']}: {verdict} != {expect}")
        ref = self.golden[i]
        check({verdict, ref} != {"yes", "no"},
              f"{t['label']}: {verdict} contradicts {ref}")
        return verdict

    def prepare(self, b: int) -> list[Op]:
        rng = random.Random(f"certify:{self.seed}:{b}")
        ops = []
        for i, t in enumerate(self.templates):
            path = os.path.join(self.workdir, f"req{i}.json")
            with open(path, "w") as fh:
                json.dump({"gog": relabel_gog(t["gog"], rng)}, fh)
            ops.append(Op("gog_certify",
                          lambda path=path, p=t["p"]: self._request(path, p),
                          lambda out, i=i: self._check(i, out)))
        return ops


# -- filtrations ---------------------------------------------------------------

def jennings_d(orders: list[int], p: int) -> int:
    """(p - 1) * sum n * k_n, where |D_n / D_{n+1}| = p^k_n (Jennings)."""
    total = 0
    for n in range(len(orders) - 1):
        total += (n + 1) * round(math.log(orders[n] // orders[n + 1], p))
    return (p - 1) * total


def _series_orders(F) -> list[int]:
    return [len(t) for t in F.terms]


class Filtrations:
    """One request per group of the property suites (p=2 to order 64, p=3
    to order 81, except C3^4), relabeled by the seed, for its dimension,
    Jennings and augmentation-ideal series; then the congruence facts of
    acceptance 09 and 10.  Requests are per group, not per series: split
    into 0.1-3 ms calls, the median op latency sat on a sparse stretch of
    the distribution and moved by 25-40% between runs.

    Single calls of several seconds are left out, so that a batch takes
    about 5 s and a run averages several labelings and several stretches
    of the machine's speed: the series of C3^4 (about 4 s of
    IdealBasis.multiply and rref_mod_p; the same loops run on C2^6, C32 and
    C27 here), level_group(1) of the SL(2, Z/27) tower with its potency
    check (about 5 s, of which 4 s build the order-729 table in
    as_finite_group), and congruence_layer_check(3, 3) (about 12 s; its
    loops run here at (3, 2) and (2, 3))."""

    name = "filtrations"
    SUITES = ((2, 64), (3, 81))
    SKIP = ("C3^4",)

    def __init__(self, seed: int):
        from residuap import algebra, catalog, congruence, filtration, groups
        from residuap import smith
        self.algebra, self.congruence = algebra, congruence
        self.filtration, self.smith, self.groups = filtration, smith, groups
        self.seed = seed
        self.golden = load_golden()["filtrations"]
        self.suite = [(p, G) for p, bound in self.SUITES
                      for G in catalog.property_suite(p)
                      if G.order <= bound and G.name not in self.SKIP]
        check(sorted(f"{p}:{G.name}" for p, G in self.suite) ==
              sorted(k for k in self.golden
                     if k.split(":", 1)[1] not in self.SKIP),
              "property suite changed")

    @staticmethod
    def _layers_ok(p, k):
        def chk(rep):
            check(rep["commutator_ok"] and len(rep["layers"]) == k - 1 and
                  all(l["elementary_abelian_p3"] for l in rep["layers"]),
                  f"layers of SL(2, Z/{p}^{k})")
            return "yes"
        return chk

    @staticmethod
    def _powermap_ok(k):
        def chk(rep):
            check(rep["all_injective"] and len(rep["levels"]) == k - 2,
                  f"power map at 3^{k}")
            return "yes"
        return chk

    def _matrix(self, p):
        c = self.congruence
        spec = c.MatrixGroupSpec(
            generators=(((1, 1), (0, 1)),),
            presentation=self.smith.Presentation(1, ()),
            subgroups=(c.TSpec(((1,),)), c.TSpec(((1, 1),))))
        return c.matrix_p_filtration(spec, p, 3)

    @staticmethod
    def _check_matrix(p):
        # acceptance 10: level 1 for T = <u> at p = 3 (for every k), and
        # level 0 for T = <u^2> at p = 2
        def chk(rep):
            if p == 3:
                check(rep["subgroups"][0]["level"] == 1 and
                      all(e["level"] == 1
                          for e in rep["subgroups"][0]["per_k"]),
                      "matrix p-filtration level 1 at p=3")
            else:
                check(rep["subgroups"][1]["level"] == 0,
                      "matrix p-filtration level 0 at p=2")
        return chk

    def _series(self, H, p):
        """One request: the three series of H, as a user asks for them."""
        dim = self.filtration.dimension_series(H, p)
        aug = self.algebra.augmentation_ideal_powers(H, p)
        jen = self.algebra.jennings_series(H, p)
        return dim, aug, jen

    def _check_series(self, H, p, ref):
        def chk(out):
            dim, (_, dims, d), jen = out
            check(_series_orders(dim) == ref,
                  f"dimension series of {H.name}: {_series_orders(dim)}")
            check(_series_orders(jen) == ref,
                  f"Jennings series of {H.name}")
            check(d == jennings_d(ref, p), f"Jennings identity on {H.name}")
            check(dims[0] == H.order - 1 and dims[-1] == 0,
                  "augmentation dims")
        return chk

    def _towers(self, p):
        return [self.congruence.sl2_congruence_tower(p, k) for k in (1, 2, 3)]

    @staticmethod
    def _check_towers(p):
        def chk(towers):
            for k, t in zip((1, 2, 3), towers):
                check(t.full.order == p ** (3 * k - 2) * (p * p - 1),
                      f"|SL(2, Z/{p}^{k})|")
        return chk

    def prepare(self, b: int) -> list[Op]:
        rng = random.Random(f"filtrations:{self.seed}:{b}")
        con = self.congruence
        ops = []
        for p, G in self.suite:
            H = self.groups.FiniteGroup(
                relabel_table(np.array(G.mult), relabel_perm(G.order, rng)),
                name=G.name, validate=False)
            ops.append(Op("series", lambda H=H, p=p: self._series(H, p),
                          self._check_series(H, p,
                                             self.golden[f"{p}:{G.name}"])))
        for p in (2, 3):
            ops.append(Op("sl2_towers", lambda p=p: self._towers(p),
                          self._check_towers(p)))
        for p, k in ((2, 3), (3, 2)):
            ops.append(Op("layer_check",
                          lambda p=p, k=k: con.congruence_layer_check(p, k),
                          self._layers_ok(p, k)))
        for k in (3, 4):
            ops.append(Op("power_map",
                          lambda k=k: con.power_map_injectivity(3, k),
                          self._powermap_ok(k)))
        for p in (3, 2):
            ops.append(Op("matrix_filtration", lambda p=p: self._matrix(p),
                          self._check_matrix(p)))
        return ops


# -- search --------------------------------------------------------------------

# |Aut(G)| from group theory: |GL(n, p)| for elementary abelian groups, the
# unit groups for cyclic ones, the holomorph orders for the dihedral,
# semidihedral and quaternion groups, and the standard counts for the
# abelian groups of rank 2 and 3.
AUT_ORDER = {"C8": 4, "C4xC2": 8, "C2^3": 168, "D8": 8, "Q8": 24, "C9": 6,
             "C3^2": 48, "C16": 8, "C8xC2": 16, "C4xC4": 96, "C4xC2xC2": 192,
             "D16": 32, "SD16": 16}
ISO_GROUPS = ("C8", "C4xC2", "C2^3", "D8", "Q8", "C9", "C3^2", "C16", "C8xC2",
              "C4xC4", "C4xC2xC2", "C2^4", "D16", "SD16", "C27", "C9xC3",
              "C3^3", "Heis27", "C9:C3")
NONISO_PAIRS = (("D8", "Q8"), ("C4xC4", "C4xC2xC2"), ("D16", "SD16"),
                ("C8xC2", "C4xC4"), ("Heis27", "C3^3"), ("C9xC3", "C9:C3"),
                ("C4:C4", "Q8xC2"))


def c4_semi_c4() -> np.ndarray:
    """C4 x| C4 with y x y^-1 = x^-1; element x^i y^j at index 4j + i."""
    out = np.empty((16, 16), dtype=np.int64)
    for a in range(16):
        j1, i1 = divmod(a, 4)
        for b in range(16):
            j2, i2 = divmod(b, 4)
            # x^i1 y^j1 x^i2 y^j2 = x^(i1 + (-1)^j1 i2) y^(j1 + j2)
            out[a, b] = 4 * ((j1 + j2) % 4) + (i1 + (-1) ** j1 * i2) % 4
    return out


def invariants(T: np.ndarray) -> tuple:
    """Isomorphism invariants: element orders, number of squares, abelian."""
    orders = []
    for x in range(len(T)):
        y, k = x, 1
        while y != 0:
            y, k = int(T[y, x]), k + 1
        orders.append(k)
    return (sorted(orders), len(set(np.diag(T).tolist())),
            bool((T == T.T).all()))


class Search:
    """find_isomorphism(G, relabel(G)) for catalog groups of order 8-27,
    automorphisms(relabel(G)) for those of order <= 16 except C2^4 (25 s as
    one op), and is_isomorphic on non-isomorphic pairs of equal order, both
    sides relabeled, including C4 x| C4 against Q8 x C2, which agree on
    element orders and on being nonabelian and so need the full search."""

    name = "search"
    # the search cost depends on the labeling (generating_sequence is greedy
    # by index), so a batch averages three labelings of every input
    LABELINGS = 3

    def __init__(self, seed: int):
        from residuap import catalog, groups
        self.groups = groups
        self.seed = seed
        self.base = {n: catalog.by_name(n) for n in ISO_GROUPS}
        self.tables = {n: np.array(G.mult) for n, G in self.base.items()}
        self.tables["C4:C4"] = c4_semi_c4()
        self.tables["Q8xC2"] = direct_product_table(
            np.array(catalog.quaternion8().mult), cyclic_table(2))
        # the benchmark's own proof that each pair is not isomorphic
        for a, c in NONISO_PAIRS:
            check(invariants(self.tables[a]) != invariants(self.tables[c]),
                  f"{a} and {c} are not told apart by invariants")

    def _group(self, name, rng):
        T = self.tables[name]
        return self.groups.FiniteGroup(
            relabel_table(T, relabel_perm(len(T), rng)), name=name,
            validate=False)

    @staticmethod
    def _check_iso(G, H):
        def chk(iso):
            check(iso is not None, f"{G.name}: no isomorphism to a relabeling")
            check(is_injective_hom(G.mult, H.mult, iso.map),
                  "isomorphism check")
            return "yes"
        return chk

    @staticmethod
    def _check_aut(H):
        def chk(autos):
            check(len(autos) == AUT_ORDER[H.name], f"|Aut({H.name})|")
            check(len({tuple(a.tolist()) for a in autos}) == len(autos),
                  "automorphisms are distinct")
            for a in autos:
                check(is_injective_hom(H.mult, H.mult, a), "automorphism check")
        return chk

    @staticmethod
    def _check_noniso(got):
        check(got is False, "non-isomorphic pair reported isomorphic")
        return "no"

    def prepare(self, b: int) -> list[Op]:
        rng = random.Random(f"search:{self.seed}:{b}")
        return [op for _ in range(self.LABELINGS) for op in self._ops(rng)]

    def _ops(self, rng) -> list[Op]:
        grp = self.groups
        ops = []
        for name in ISO_GROUPS:
            G, H = self.base[name], self._group(name, rng)
            ops.append(Op("find_isomorphism",
                          lambda G=G, H=H: grp.find_isomorphism(G, H),
                          self._check_iso(G, H)))
        for name in AUT_ORDER:
            H = self._group(name, rng)
            ops.append(Op("automorphisms", lambda H=H: grp.automorphisms(H),
                          self._check_aut(H)))
        for a, c in NONISO_PAIRS:
            A, B = self._group(a, rng), self._group(c, rng)
            ops.append(Op("is_isomorphic",
                          lambda A=A, B=B: grp.is_isomorphic(A, B),
                          self._check_noniso))
        return ops


WORKLOADS = {w.name: w for w in (Scan, Certify, Filtrations, Search)}
