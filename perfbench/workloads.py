"""The three workloads: their inputs, their job lists and their checks.

A job is one ``mereo`` command line.  Its check receives the exit status,
the text the command wrote and the freshly imported ``mereo`` package,
and returns None or a one-line description of what was wrong.  Checks
run after a pass, outside every timed region and with no trace hooks
installed.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from oracles import Relation, encode, is_minimal_encoding

HERE = Path(__file__).resolve().parent

THEORIES = ("SPO", "T1", "T2", "T3", "MSPO_DAG", "MSPO_DDAG", "MEM", "MCM",
            "GM", "GMU", "CM")


class Job:
    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def _witness_doc(witness):
    """The CLI's JSON rendering of a library witness tuple."""
    if witness is None:
        return None
    elements, subsets = [], []
    for w in witness:
        if hasattr(w, "members"):
            subsets.append([e.label for e in w.members])
        else:
            elements.append(w.label)
    return {"elements": elements, "subsets": subsets}


def _status(rc, want):
    return None if rc == want else f"exit status {rc}, expected {want}"


# -- iso-census ----------------------------------------------------------------

# OEIS A000112: unlabelled strict partial orders on k points.
A000112 = (1, 1, 2, 5, 16, 63, 318)

# Isomorphism classes per theory for k = 1..6, as the seed commit counts
# them (SPO is A000112 above).
ISO_COUNTS = {
    "SPO": A000112[1:7],
    "T1": (1, 1, 2, 3, 7, 19),
    "T2": (1, 1, 2, 3, 6, 14),
    "T3": (1, 1, 2, 3, 6, 14),
    "MSPO_DAG": (1, 1, 2, 2, 3, 5),
    "MSPO_DDAG": (1, 1, 2, 2, 3, 5),
    "GM": (1, 0, 1, 0, 0, 0),
    "GMU": (1, 0, 1, 0, 0, 0),
    "CM": (1, 0, 1, 0, 0, 0),
}


class IsoCensus:
    name = "iso-census"
    why = ("up-to-iso enumeration of 9 theories at k=1..6: canonical forms "
           "dominate and subset scans are light")
    # The job list is fixed by definition: the seed does not change it, and
    # every pass runs it in a freshly imported package.
    capacity = None

    def __init__(self, seed, workdir):
        self._verified = {}

    def jobs(self, pass_index):
        return [Job(["enumerate", "--n", str(k), "--theory", theory,
                     "--up-to-iso", "--json"], self._checker(theory, k))
                for theory in ISO_COUNTS for k in range(1, 7)]

    def _checker(self, theory, k):
        def check(rc, text, lib):
            # Passes repeat the job list; verify each distinct output once.
            key = (theory, k, rc, text)
            if key not in self._verified:
                self._verified[key] = self._verify(theory, k, rc, text, lib)
            return self._verified[key]
        return check

    @staticmethod
    def _verify(theory, k, rc, text, lib):
        if rc != 0:
            return f"exit status {rc}"
        doc = json.loads(text)
        if doc["n"] != k or doc["theory"] != theory:
            return "wrong header"
        models = doc["models"]
        want = ISO_COUNTS[theory][k - 1]
        if len(models) != want:
            return f"{len(models)} classes, expected {want}"
        labels = "abcdefghijkl"[:k]
        last = -1
        for m in models:
            if "".join(m["elements"]) != labels:
                return "unexpected labels"
            pairs = [(labels.index(p), labels.index(w)) for p, w in m["parts"]]
            code = encode(k, pairs)
            if code <= last:
                return "models not in increasing encoding order"
            last = code
            if not is_minimal_encoding(k, pairs):
                return f"non-canonical model {m['parts']}"
            s = lib.core.ParthoodStructure.build(m["elements"], m["parts"])
            if not lib.theories.check_theory(s, theory).holds:
                return f"model {m['parts']} is not a {theory} model"
        return None


# -- countermodel --------------------------------------------------------------

def claim_argv(ambient, hyp, concl, max_n):
    argv = ["implies", "--from", hyp, "--to", concl, "--max-n", str(max_n),
            "--json"]
    if ambient:
        argv[1:1] = ["--ambient", ambient]
    return argv


def _load_claims():
    doc = json.loads((HERE / "claims.json").read_text(encoding="utf-8"))
    return [dict(zip(doc["fields"], row)) for row in doc["claims"]]


class Countermodel:
    name = "countermodel"
    why = ("bounded implies over catalog claims: early-exit is_canonical and "
           "the generators; jobs re-walk shared candidate spaces")
    # Claims per pass from each stratum: (ambient, size at which the
    # seed's search found a countermodel, or None when it exhausted the
    # bound).  Fixed counts keep a pass's cost the same for every seed.
    # The cheap size-2 claims hold the median job, and the exhaustive
    # searches without an ambient (about 0.5 s each) the 90th percentile.
    PER_PASS = {
        ("", 1): 1, ("", 2): 10, ("", 3): 2, ("", 4): 2, ("", None): 8,
        ("IRR", 1): 1, ("IRR", 2): 10, ("IRR", 3): 2, ("IRR", 4): 2,
        ("IRR", None): 2,
        ("T", 1): 1, ("T", 2): 10, ("T", 3): 1, ("T", 4): 2, ("T", None): 2,
        ("T", 5): 1,
    }

    def __init__(self, seed, workdir):
        rng = random.Random(f"countermodel:{seed}")
        strata = {key: [] for key in self.PER_PASS}
        for claim in _load_claims():
            key = (claim["ambient"], claim["countermodel_n"])
            strata.setdefault(key, []).append(claim)
        for pool in strata.values():
            rng.shuffle(pool)
        self._strata = strata
        self.capacity = min(len(strata[key]) // k
                            for key, k in self.PER_PASS.items())

    def jobs(self, pass_index):
        out = []
        for key, k in self.PER_PASS.items():
            for c in self._strata[key][pass_index * k:(pass_index + 1) * k]:
                argv = claim_argv(c["ambient"], c["from"], c["to"], c["max_n"])
                out.append(Job(argv, self._checker(c)))
        return out

    @staticmethod
    def _checker(claim):
        def check(rc, text, lib):
            want_n = claim["countermodel_n"]
            bad = _status(rc, 0 if want_n is None else 1)
            if bad:
                return bad
            doc = json.loads(text)
            model = doc["countermodel"]
            got_n = None if model is None else len(model["elements"])
            if got_n != want_n:
                return f"countermodel size {got_n}, expected {want_n}"
            if doc["explored"] != claim["explored"]:
                return f"explored {doc['explored']}, expected {claim['explored']}"
            if doc["exhausted"] != (model is None):
                return "exhausted flag disagrees with the verdict"
            if model is None:
                return None
            s = lib.core.ParthoodStructure.build(model["elements"],
                                                 model["parts"])
            for code in filter(None, (claim["ambient"], claim["from"])):
                if not lib.axioms.check_axiom(s, code).holds:
                    return f"countermodel violates {code}"
            if lib.axioms.check_axiom(s, claim["to"]).holds:
                return f"countermodel satisfies {claim['to']}"
            return None
        return check


# -- catalog -------------------------------------------------------------------

ATOMS = "abcd"
COMPOSITES = ["".join(c) for k in (2, 3, 4)
              for c in itertools.combinations(ATOMS, k)]
SIZES = (8, 9, 10, 11)
ALG_OPS = ("product", "difference", "complement", "bsum")


class _FileCase:
    """One generated structure file and the expectations derived from it."""

    def __init__(self, path, labels, pairs):
        self.path = str(path)
        self.rel = Relation.from_labelled(labels, pairs)
        self.labels = labels
        self.pairs = pairs
        self._verdicts = None

    def text(self):
        lines = ["elements: " + " ".join(self.labels)]
        lines += [f"part: {p} < {w}" for p, w in self.pairs]
        return "\n".join(lines) + "\n"

    def structure(self, lib):
        return lib.core.ParthoodStructure.build(self.labels, self.pairs)

    def verdicts(self, lib):
        if self._verdicts is None:
            self._verdicts = lib.axioms.check_all(self.structure(lib))
        return self._verdicts


class Catalog:
    name = "catalog"
    why = ("every non-search command on structures of 8 to 11 elements: full "
           "subset scans in the axioms, no generation or canonical forms")
    FAMILIES_PER_SIZE = 2     # per pass, inclusion families of each size
    RAW_PER_PASS = 2          # per pass, raw relations of random size
    EDGE_PROBABILITY = 0.16   # raw relations: chance of each ordered pair

    def __init__(self, seed, workdir):
        self._seed = seed
        self._workdir = Path(workdir)
        rng = random.Random(f"catalog:{seed}")
        # Each family holds the four atoms plus distinct composites, drawn
        # without replacement so no family repeats within a run.
        self._families = {}
        for n in SIZES:
            combos = list(itertools.combinations(COMPOSITES, n - len(ATOMS)))
            rng.shuffle(combos)
            self._families[n] = combos
        self.capacity = min(len(c) for c in self._families.values()) \
            // self.FAMILIES_PER_SIZE

    def jobs(self, pass_index):
        cases = []
        for n in SIZES:
            start = pass_index * self.FAMILIES_PER_SIZE
            for i, combo in enumerate(
                    self._families[n][start:start + self.FAMILIES_PER_SIZE]):
                rng = random.Random(f"family:{self._seed}:{pass_index}:{n}:{i}")
                cases.append(self._family(rng, combo,
                                          f"p{pass_index}_f{n}_{i}.txt"))
        for i in range(self.RAW_PER_PASS):
            rng = random.Random(f"raw:{self._seed}:{pass_index}:{i}")
            cases.append(self._raw(rng, f"p{pass_index}_r{i}.txt"))
        jobs = []
        for case in cases:
            Path(case.path).write_text(case.text(), encoding="utf-8")
            jobs += self._case_jobs(case)
        return jobs

    def _family(self, rng, combo, filename):
        """Nonempty subsets of a 4-atom set under strict inclusion."""
        labels = list(ATOMS) + list(combo)
        rng.shuffle(labels)
        pairs = [(x, y) for x in labels for y in labels
                 if x != y and set(x) < set(y)]
        rng.shuffle(pairs)
        return _FileCase(self._workdir / filename, labels, pairs)

    def _raw(self, rng, filename):
        """A random relation: loops, cycles and missing transitive edges."""
        n = rng.choice(SIZES)
        labels = [f"e{i}" for i in range(n)]
        pairs = [(x, y) for x in labels for y in labels
                 if x != y and rng.random() < self.EDGE_PROBABILITY]
        if rng.random() < 0.5:
            x = rng.choice(labels)
            pairs.append((x, x))
        return _FileCase(self._workdir / filename, labels, pairs)

    def _case_jobs(self, case):
        path, labels = case.path, case.labels
        rng = random.Random(f"queries:{self._seed}:{Path(path).name}")
        jobs = [Job(["axioms", path, "--json"], _check_axioms(case))]
        jobs += [Job(["check", path, "--theory", t, "--json"],
                     _check_theory(case, t)) for t in THEORIES]
        jobs.append(Job(["lattice", path, "--tarski", "--json"],
                        _check_lattice(case)))
        jobs.append(Job(["localtrans", path, "--json"],
                        _check_localtrans(case)))
        jobs.append(Job(["dot", path], _check_dot(case)))
        for query in ("sum", "sup"):
            members = rng.sample(labels, rng.randint(1, 3))
            jobs.append(Job([query, path, "--set", ",".join(members), "--json"],
                            _check_query(case, query, members)))
        op = rng.choice(ALG_OPS)
        args = rng.sample(labels, 1 if op == "complement" else 2)
        jobs.append(Job(["alg", path, "--op", op, "--args", ",".join(args),
                         "--json"], _check_alg(case, op, args)))
        return jobs


def _verdict_doc(v):
    return {"axiom": v.axiom.value, "holds": v.holds,
            "witness": _witness_doc(v.witness)}


def _check_axioms(case):
    def check(rc, text, lib):
        verdicts = case.verdicts(lib)
        bad = _status(rc, 0 if all(v.holds for v in verdicts) else 1)
        if bad:
            return bad
        if json.loads(text)["results"] != [_verdict_doc(v) for v in verdicts]:
            return "axiom verdicts differ from check_all"
        return None
    return check


def _check_theory(case, theory):
    def check(rc, text, lib):
        tv = lib.theories.check_theory(case.structure(lib), theory)
        bad = _status(rc, 0 if tv.holds else 1)
        if bad:
            return bad
        doc = json.loads(text)
        want = (tv.holds, None if tv.holds else tv.failing.axiom.value,
                None if tv.holds else _witness_doc(tv.failing.witness))
        if (doc["holds"], doc["failed_axiom"], doc["witness"]) != want:
            return f"{theory} verdict differs from check_theory"
        return None
    return check


def _check_lattice(case):
    def check(rc, text, lib):
        agree = lib.lattice.tarski_check(case.structure(lib))
        bad = _status(rc, 0 if agree else 1)
        if bad:
            return bad
        doc = json.loads(text)
        order = case.rel.is_strict_order()
        if doc["order"] != order:
            return "strict-order verdict differs from the oracle"
        if doc["tarski"] != ("agree" if agree else "disagree"):
            return "tarski verdict differs from tarski_check"
        if order:
            rep = lib.lattice.lattice_report(
                lib.lattice.adjoin_zero(case.structure(lib)))
            if (doc["lattice"], doc["boolean"]) != (rep.is_lattice,
                                                    rep.is_boolean):
                return "lattice verdicts differ from lattice_report"
        return None
    return check


def _check_localtrans(case):
    def check(rc, text, lib):
        doc = json.loads(text)
        acyclic = case.rel.is_acyclic()
        local = lib.weakparts.is_locally_transitive(case.structure(lib)).holds
        bad = _status(rc, 0 if acyclic and local else 1)
        if bad:
            return bad
        if doc["acyclic"] != acyclic:
            return "acyclicity differs from the oracle"
        if doc["locally_transitive"] != local:
            return "local transitivity differs from is_locally_transitive"
        return None
    return check


def _check_dot(case):
    def check(rc, text, lib):
        bad = _status(rc, 0)
        if bad:
            return bad
        edges, nodes = set(), []
        for line in text.splitlines()[2:-1]:
            quoted = line.split('"')[1::2]
            if len(quoted) == 1:
                nodes.append(quoted[0])
            else:
                edges.add((case.rel.index[quoted[0]], case.rel.index[quoted[1]]))
        if nodes != list(case.labels):
            return "DOT nodes differ from the universe"
        if edges != case.rel.covering_pairs():
            return "DOT edges differ from the covering oracle"
        return None
    return check


def _check_query(case, query, members):
    def check(rc, text, lib):
        idx = [case.rel.index[m] for m in members]
        found = case.rel.sums(idx) if query == "sum" else case.rel.sups(idx)
        want = [case.labels[x] for x in found]
        bad = _status(rc, 0 if want else 1)
        if bad:
            return bad
        doc = json.loads(text)
        if doc["candidates"] != want or doc["unique"] != (len(want) == 1):
            return f"{query} candidates {doc['candidates']}, oracle {want}"
        return None
    return check


def _check_alg(case, op, args):
    def check(rc, text, lib):
        rel = case.rel
        x = rel.index[args[0]]
        if op == "complement":
            u = rel.unity()
            members = None if u is None or u == x else \
                [v for v in rel.ing[u] if not rel.overlap(v, x)]
        elif op == "product":
            members = sorted(rel.ing[x] & rel.ing[rel.index[args[1]]])
        elif op == "difference":
            y = rel.index[args[1]]
            members = [v for v in rel.ing[x] if not rel.overlap(v, y)]
        else:
            members = [x, rel.index[args[1]]]
        cands = [] if members is None else rel.sums(members)
        bad = _status(rc, 1 if len(cands) > 1 else 0)
        if bad:
            return bad
        doc = json.loads(text)
        labels = [case.labels[c] for c in cands]
        want = ((labels[0] if labels else None, None) if len(labels) < 2
                else (None, labels))
        if (doc["result"], doc["ambiguous"]) != want:
            return f"{op} gave {doc['result']!r}/{doc['ambiguous']}, oracle {want}"
        return None
    return check


WORKLOADS = {w.name: w for w in (IsoCensus, Countermodel, Catalog)}
