"""The benchmark's workloads: inputs made from the seed, one op, its output check.

Each workload is a closed loop over a fixed cycle of ops; a run ends only at
a cycle boundary, so per-op counts repeat exactly between runs of one seed.
Instances come from a pool of pool seeds whose reference outputs, recorded
from the program, live in ``reference.json``; the workload seed picks which
pool entries a run uses.

Where instances are rademacher-semirandom, the words are fixed per slot and
the seed draws only the +-1 signs (the semirandom model itself).  Graph
sizes, and so op cost, then do not depend on the seed, which keeps the
medians of different seeds comparable.

Output checks (a failed check counts the op as failed):

* algval within ``ALGVAL_RTOL`` of its reference.  The eigensolver's last
  digits can move with the BLAS build, so the repr is not compared;
* ``num_vertices``, ``num_edges`` and the instance digest exactly;
* verify: soundness ``algval >= lambda_max - 1e-9`` and ``lambda_max``
  within 1e-9 of its reference; the witness ``kind=`` line and the sha256
  of its dump exactly; ``positivity.pass=1``; and for lifted witnesses an
  ``energy=`` line equal to the classical energy of the moments, computed
  here in exact arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import hkxor
import hkxor.cli

REFERENCE_PATH = Path(__file__).with_name("reference.json")
POOL = 16  # pool seeds per slot with recorded reference outputs
ALGVAL_RTOL = 1e-9
SOUNDNESS_TOL = 1e-9
LAMBDA_TOL = 1e-9

# even-sweep: one `hkxor sweep` cell per op.  The m grid is 1/4, 1/2, 1 and 2
# times threshold_size(60, 2, 1, 0.5) = 3931.  A cycle visits the threshold
# and the 2x cells twice, so two cheaper and two dearer cells flank two
# threshold cells and the median op time is the median of the threshold
# cells.  With four equally frequent sizes it would fall in the gap between
# the 1/2 and 1 cells and jump with noise; with only the threshold cell
# doubled it would be a low quantile of the threshold cells.
EVEN = dict(n=60, k=2, ell=1, eps=0.5)
EVEN_M = (983, 1966, 3931, 7862)
EVEN_CYCLE = EVEN_M + (3931, 7862)
EVEN_SEEDS_PER_RUN = 4

# odd-slice: `certify --ell 3 --eps 0.8` on n=12, k=3, m=60 files that share
# one word structure and differ in their signs, so every op builds a graph of
# the same size and the median op time is not set by a mix of sizes.
ODD = dict(n=12, k=3, m=60, ell=3, eps=0.8)
ODD_WORDS = 0
ODD_FILES = 2

# verify: rademacher n=10, k=3, m=200 (certify + oracle) alternating with
# one-basis-z n in {8, 9}, k=3, m=12 (certify + oracle + two witnesses).
RAD = dict(n=10, k=3, m=200, ell=2, eps=0.8)
RAD_WORDS = (0, 1)
OBZ = dict(k=3, m=12, degree=4)
OBZ_N = (8, 9)


@dataclass
class Outcome:
    """What one op's check found."""

    problems: list[str] = field(default_factory=list)
    refuted: bool | None = None  # even-sweep: algval <= 1/2 + eps
    slack: float | None = None  # verify: algval - lambda_max


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def read_report(path: Path) -> tuple[dict[str, str], list[str]]:
    """key=value fields of an hkxor report, and all of its lines."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if sep and key not in fields:
            fields[key] = value
    return fields, lines


def witness_digest(lines: list[str]) -> str:
    """sha256 of a witness dump: the PSEXP block, or the contradiction after ``kind=``."""
    if "" in lines:
        body = lines[lines.index("") + 1:]
    else:
        body = lines[next(i for i, ln in enumerate(lines) if ln.startswith("kind=")) + 1:]
    return hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()


def check_certificate(obs: dict, ref: dict) -> list[str]:
    problems = []
    if not math.isclose(obs["algval"], ref["algval"], rel_tol=ALGVAL_RTOL, abs_tol=ALGVAL_RTOL):
        problems.append(f"algval {obs['algval']!r} != reference {ref['algval']!r}")
    for key in ("num_vertices", "num_edges", "digest"):
        if obs[key] != ref[key]:
            problems.append(f"{key} {obs[key]!r} != reference {ref[key]!r}")
    return problems


def check_oracle(obs: dict, ref: dict) -> list[str]:
    problems = []
    if abs(obs["lambda_max"] - ref["lambda_max"]) > LAMBDA_TOL:
        problems.append(f"lambda_max {obs['lambda_max']!r} != reference {ref['lambda_max']!r}")
    if obs["algval"] < obs["lambda_max"] - SOUNDNESS_TOL:
        problems.append(f"unsound: algval {obs['algval']!r} < lambda_max {obs['lambda_max']!r}")
    return problems


def check_witness(obs: dict, ref: dict, prefix: str) -> list[str]:
    problems = []
    for key in ("kind", "sha256", "energy"):
        if obs.get(key) != ref.get(key):
            problems.append(f"{prefix}{key} {obs.get(key)!r} != reference {ref.get(key)!r}")
    if obs["kind"] != "contradiction" and obs.get("positivity_pass") != "1":
        problems.append(f"{prefix}positivity.pass={obs.get('positivity_pass')}")
    return problems


# -- instances -----------------------------------------------------------------


def _fixed_words(n: int, k: int, m: int, structure: int):
    inst = hkxor.generate(hkxor.GeneratorConfig(n=n, k=k, m=m, seed=structure))
    return tuple(c.pauli for c in inst.constraints)


def semirandom(spec: dict, structure: int, seed: int):
    """Rademacher-semirandom instance: fixed words of one structure, seeded signs."""
    words = _fixed_words(spec["n"], spec["k"], spec["m"], structure)
    return hkxor.generate(hkxor.GeneratorConfig(
        n=spec["n"], k=spec["k"], m=spec["m"], model="rademacher-semirandom",
        seed=seed, words=words))


def one_basis(n: int, seed: int):
    return hkxor.generate(hkxor.GeneratorConfig(n=n, k=OBZ["k"], m=OBZ["m"],
                                                model="one-basis-z", seed=seed))


def moments(n: int, seed: int) -> dict[tuple[int, ...], Fraction]:
    """Exact degree-4 moments of a seeded three-point distribution on +-1 assignments."""
    rng = random.Random(f"pmom:{n}:{seed}")
    points = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(3)]
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    return {sites: sum(w * math.prod(x[i] for i in sites) for x, w in zip(points, weights))
            for size in range(OBZ["degree"] + 1) for sites in combinations(range(n), size)}


def write_moments(path: Path, n: int, mom: dict) -> None:
    lines = [f"PMOM v1 n={n} d={OBZ['degree']}"]
    for sites, value in mom.items():
        lines.append(f"{','.join(str(i + 1) for i in sites) or '-'} {value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def classical_energy(inst, mom: dict) -> str:
    """1/2 + (1/2|H|) sum_C b_C E[x_C] as the report prints it."""
    total = sum(Fraction(c.coeff) * mom[c.support] for c in inst.constraints)
    return repr(float(Fraction(1, 2) + total / (2 * inst.m)))


def write_instance(path: Path, inst) -> None:
    path.write_text(hkxor.serialize(inst), encoding="utf-8", newline="\n")


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    cycle = 1  # ops per cycle

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.reference = reference

    def setup(self) -> None:
        """Make this run's inputs (untimed part of set-up)."""

    def op(self, i: int):
        """Run op i of the cycle; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, i: int, result) -> Outcome:
        raise NotImplementedError

    def pool_keys(self):
        """Every reference key of this workload, for recording."""
        raise NotImplementedError

    def observe(self, key: str) -> dict:
        """Run the program on one pool entry and return its reference values."""
        raise NotImplementedError


def _cli(argv: list[str]) -> int:
    return hkxor.cli.main([str(a) for a in argv])


def _key_fields(key: str) -> dict[str, int]:
    """The ``name=value`` parts of a reference key such as ``verify/obz/n=8/seed=3``."""
    return {k: int(v) for k, _, v in (part.partition("=") for part in key.split("/")) if v}


def _cert_obs(cert) -> dict:
    return {"algval": cert.algval, "num_vertices": cert.num_vertices,
            "num_edges": cert.num_edges, "digest": cert.instance_digest}


class EvenSweep(Workload):
    name = "even-sweep"
    cycle = len(EVEN_CYCLE)

    def setup(self):
        self.seeds = self.rng.sample(range(POOL), EVEN_SEEDS_PER_RUN)

    def _cell(self, m: int, seed: int):
        inst = hkxor.generate(hkxor.GeneratorConfig(n=EVEN["n"], k=EVEN["k"], m=m,
                                                    model="rademacher-semirandom", seed=seed))
        return hkxor.certify(inst, EVEN["ell"], eps=EVEN["eps"])

    def _key(self, i: int) -> tuple[str, int, int]:
        m = EVEN_CYCLE[i % self.cycle]
        seed = self.seeds[(i // self.cycle) % len(self.seeds)]
        return f"{self.name}/m={m}/seed={seed}", m, seed

    def op(self, i):
        _, m, seed = self._key(i)
        return self._cell(m, seed)

    def check(self, i, cert):
        return Outcome(check_certificate(_cert_obs(cert), self.reference[self._key(i)[0]]),
                       refuted=cert.algval <= 0.5 + EVEN["eps"])

    def pool_keys(self):
        return [f"{self.name}/m={m}/seed={s}" for m in EVEN_M for s in range(POOL)]

    def observe(self, key):
        fields = _key_fields(key)
        return _cert_obs(self._cell(fields["m"], fields["seed"]))


def _certify_obs(path: Path) -> dict:
    fields, _ = read_report(path)
    return {"algval": float(fields["algval"]), "num_vertices": int(fields["num_vertices"]),
            "num_edges": int(fields["num_edges"]), "digest": fields["digest"]}


class OddSlice(Workload):
    """Ops alternate between the files; all build the same graph, so any op count is a whole cycle."""

    name = "odd-slice"

    def setup(self):
        self.files = []
        for seed in self.rng.sample(range(POOL), ODD_FILES):
            path = self.workdir / f"odd-{seed}.hkxor"
            write_instance(path, semirandom(ODD, ODD_WORDS, seed))
            self.files.append((f"{self.name}/words={ODD_WORDS}/seed={seed}", path))

    def _certify(self, path: Path, out: Path) -> int:
        return _cli(["certify", "--in", path, "--ell", ODD["ell"], "--eps", ODD["eps"],
                     "--out", out])

    def op(self, i):
        key, path = self.files[i % ODD_FILES]
        out = self.workdir / f"odd-{i % ODD_FILES}.report"
        return key, self._certify(path, out), out

    def check(self, i, result):
        key, code, out = result
        if code != 0:
            return Outcome([f"certify exited {code}"])
        return Outcome(check_certificate(_certify_obs(out), self.reference[key]))

    def pool_keys(self):
        return [f"{self.name}/words={ODD_WORDS}/seed={s}" for s in range(POOL)]

    def observe(self, key):
        fields = _key_fields(key)
        path = self.workdir / "record.hkxor"
        write_instance(path, semirandom(ODD, fields["words"], fields["seed"]))
        out = self.workdir / "record.report"
        if self._certify(path, out) != 0:
            raise RuntimeError(f"certify failed on {key}")
        return _certify_obs(out)


class Verify(Workload):
    """Ops alternate: rademacher, one-basis n=8, rademacher, one-basis n=9."""

    name = "verify"
    cycle = 4

    def setup(self):
        self.cases = []
        for j in range(self.cycle):
            seed = self.rng.randrange(POOL)
            if j % 2 == 0:
                words = RAD_WORDS[j // 2]
                key = f"{self.name}/rad/words={words}/seed={seed}"
            else:
                key = f"{self.name}/obz/n={OBZ_N[j // 2]}/seed={seed}"
            self.cases.append(self._prepare(key, f"case{j}"))

    def _prepare(self, key: str, stem: str) -> dict:
        fields = _key_fields(key)
        seed = fields["seed"]
        case = {"key": key, "path": self.workdir / f"{stem}.hkxor", "stem": stem}
        if "words" in fields:
            inst = semirandom(RAD, fields["words"], seed)
        else:
            n = fields["n"]
            inst = one_basis(n, seed)
            mom = moments(n, seed)
            case["pmom"] = self.workdir / f"{stem}.pmom"
            case["energy"] = classical_energy(inst, mom)
            write_moments(case["pmom"], n, mom)
        write_instance(case["path"], inst)
        return case

    def _run(self, case: dict) -> dict:
        out = {name: self.workdir / f"{case['stem']}.{name}"
               for name in ("certify", "oracle", "witness", "lift")}
        path = case["path"]
        codes = {"certify": _cli(["certify", "--in", path, "--ell", RAD["ell"],
                                  "--eps", RAD["eps"], "--out", out["certify"]]),
                 "oracle": _cli(["oracle", "--in", path, "--out", out["oracle"]])}
        if "pmom" in case:
            codes["witness"] = _cli(["witness", "--in", path, "--degree", OBZ["degree"],
                                     "--out", out["witness"]])
            codes["lift"] = _cli(["witness", "--in", path, "--degree", OBZ["degree"],
                                  "--lift", case["pmom"], "--out", out["lift"]])
        return {"codes": codes, "out": out}

    def _observe(self, case: dict, run: dict) -> tuple[dict, list[str]]:
        codes, out = run["codes"], run["out"]
        problems = []
        allowed = {"certify": {0}, "oracle": {0}, "witness": {0, 2}, "lift": {0}}
        for name, code in codes.items():
            if code not in allowed[name]:
                problems.append(f"{name} exited {code}")
        if problems:
            return {}, problems
        obs = _certify_obs(out["certify"])
        obs["lambda_max"] = float(read_report(out["oracle"])[0]["lambda_max"])
        for name in ("witness", "lift"):
            if name not in codes:
                continue
            fields, lines = read_report(out[name])
            obs[name] = {"kind": fields["kind"], "sha256": witness_digest(lines),
                         "energy": fields.get("energy"),
                         "positivity_pass": fields.get("positivity.pass")}
        if codes.get("witness") == 2 and obs["witness"]["kind"] != "contradiction":
            problems.append("witness exited 2 without a contradiction")
        if "lift" in obs and obs["lift"]["energy"] != case["energy"]:
            problems.append(f"lifted energy {obs['lift']['energy']} != classical "
                            f"energy {case['energy']} of the moments")
        return obs, problems

    def op(self, i):
        return self._run(self.cases[i % self.cycle])

    def check(self, i, run):
        case = self.cases[i % self.cycle]
        obs, problems = self._observe(case, run)
        if not obs:
            return Outcome(problems)
        ref = self.reference[case["key"]]
        problems += check_certificate(obs, ref) + check_oracle(obs, ref)
        for name in ("witness", "lift"):
            if name in obs:
                problems += check_witness(obs[name], ref[name], name + ".")
        return Outcome(problems, slack=obs["algval"] - obs["lambda_max"])

    def pool_keys(self):
        rad = [f"{self.name}/rad/words={j}/seed={s}" for j in RAD_WORDS for s in range(POOL)]
        obz = [f"{self.name}/obz/n={n}/seed={s}" for n in OBZ_N for s in range(POOL)]
        return rad + obz

    def observe(self, key):
        case = self._prepare(key, "record")
        obs, problems = self._observe(case, self._run(case))
        if problems:
            raise RuntimeError(f"{key}: {problems}")
        return obs


WORKLOADS = {w.name: w for w in (EvenSweep, OddSlice, Verify)}
