"""The four benchmark workloads and their seeded inputs.

Each workload builds its tasks in rounds: a round holds a fixed mix of task
classes, with per-task parameters drawn from ``(workload, seed, round)``, so
every run sees the same mix whatever its seed.  ``run`` is a task's timed
region: the construction plus the invariant check the matching CLI command
prints.  ``references`` runs the independent references after the timed
region, and ``digest`` gives the sha256 digest of the task's outputs.

Class multiplicities are chosen so the task at the tail percentile (the one
with ten tasks beyond it) falls inside one class for every plausible round
count, which keeps ``task_tail_s`` from jumping between classes run to run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from bairekit import circuits, game, language, martingale, strategy, zoo
from bairekit.core import rank_to_string


class TaskFailure(Exception):
    """A task's output broke an invariant or disagreed with a reference."""


def task_rng(*parts: object) -> random.Random:
    """Input generator for one round; independent of the program's own
    seed derivation, so a change there cannot change the inputs."""
    blob = ":".join(str(p) for p in ("perfbench", *parts)).encode()
    return random.Random(int.from_bytes(hashlib.sha256(blob).digest()[:8], "big"))


def digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def require(ok: bool, what: str) -> None:
    if not ok:
        raise TaskFailure(what)


def bitstring(rng: random.Random, length: int) -> str:
    return "".join(str(rng.randrange(2)) for _ in range(length))


class Workload:
    """Seeded rounds of tasks.  ``prepare`` writes any input files, ``round``
    gives a round's task specs, ``run`` is one task's timed region,
    ``references`` checks a result independently and ``digest`` hashes it."""

    name = ""

    def prepare(self) -> None:
        pass


# ---------------------------------------------------------------------------
# halving: the majority-flip diagonal over oracle-circuit families


class Halving(Workload):
    """Enumerate one (n, s) family, then flip majorities over a seeded order
    of all n-bit query strings plus one repeat, which empties the set."""

    name = "halving"
    # (n, s) -> circuits in the canonical enumeration (arity-1 oracle gates)
    FAMILY_SIZES = {
        (2, 1): 9, (2, 2): 51, (2, 3): 485, (2, 4): 7093,
        (3, 1): 16, (3, 2): 120, (3, 3): 1498, (3, 4): 27810,
        (4, 1): 25, (4, 2): 235, (4, 3): 3637,
    }
    # (2,4) makes up over half of a round, so both the median and the tail
    # task are (2,4) ones: the short rungs time far less steadily on a
    # shared machine, and (3,4) once a round gives too few samples
    MIX = [(3, 4)] + [(2, 4)] * 13 + [(4, 3)] * 2 + [
        (3, 3), (2, 3), (4, 2), (3, 2), (2, 2), (4, 1), (3, 1), (2, 1)
    ]

    def round(self, seed: int, r: int) -> list[dict]:
        rng = task_rng(self.name, seed, r)
        specs = []
        for n, s in self.MIX:
            order = [format(v, f"0{n}b") for v in range(2**n)]
            rng.shuffle(order)
            specs.append({
                "class": f"n{n}s{s}",
                "n": n,
                "s": s,
                "sigma": bitstring(rng, rng.randrange(1, 9)),
                "zs": order + order[:1],
            })
        rng.shuffle(specs)
        return specs

    def run(self, spec: dict):
        family = list(circuits.enumerate_circuits(spec["n"], spec["s"]))
        oracle = strategy.PrefixOracle.from_string(spec["sigma"])
        steps, final = circuits.diagonal_steps(family, spec["zs"], oracle)
        require(all(st.after <= st.before // 2 for st in steps), "halving violated")
        require(not final, "consistent set not exhausted")
        return family, steps

    def references(self, spec: dict, result) -> None:
        family, steps = result
        n, s, sigma = spec["n"], spec["s"], spec["sigma"]
        require(len(family) == self.FAMILY_SIZES[(n, s)], "family size")
        require(steps[0].before == len(family), "first step size")
        constraints = [(st.z, st.bit) for st in steps]
        # brute-force consistent set before the last step, on the plain string
        expected = circuits.consistent_set(n, s, sigma, constraints[:-1], family=family)
        last = steps[-1]
        require(len(expected) == last.before, "consistent-set size")
        require(last.bit == 1 - circuits.majority_or_one(expected, last.z, sigma), "flip bit")

    def digest(self, spec: dict, result) -> str:
        _, steps = result
        return digest(spec["n"], spec["s"], spec["sigma"],
                      *(f"{st.z},{st.bit},{st.before},{st.after}" for st in steps))


# ---------------------------------------------------------------------------
# diag: global and local diagonal languages, generic builder, sigma2 avoider


class Diag(Workload):
    """Large per-string sparse diagonals make up over half of a round, so
    they set both the median and the tail task."""

    name = "diag"
    MIX = (
        [("global", "singletons"), ("global", "ones")]
        + [("global", "sparse")] * 13
        + [("local", "singletons-loc"), ("local", "ones-loc"), ("local", "sparse")]
        + [("generic", None)]
        + [("sigma2", None)] * 2
    )
    SPARSE_BITS = range(1216, 1280, 5)  # one stratum per sparse task
    GLOBAL_MEETS = 6
    LOCAL_MEETS = 4
    GENERIC_HORIZON = 128

    def round(self, seed: int, r: int) -> list[dict]:
        rng = task_rng(self.name, seed, r)
        specs = []
        sparse_bits = iter(self.SPARSE_BITS)
        for kind, family in self.MIX:
            spec = {"class": f"{kind}-{family}" if family else kind, "kind": kind, "family": family}
            if kind == "global":
                # one draw from each thirteenth of the sparse range, so every
                # round has the same spread of sizes
                low = next(sparse_bits) if family == "sparse" else 960
                spec["bits"] = low + rng.randrange(5 if family == "sparse" else 65)
            elif kind == "generic":
                order = ["sparse", "ones-loc", "singletons-loc"]
                rng.shuffle(order)
                spec["order"] = order
            elif kind == "sigma2":
                spec["ranks"] = sorted(rng.sample(range(2, 11), rng.randrange(3)))
            specs.append(spec)
        rng.shuffle(specs)
        return specs

    def run(self, spec: dict):
        return getattr(self, "_run_" + spec["kind"])(spec)

    def _run_global(self, spec):
        fam = zoo.indexed_families()[spec["family"]]
        bits = spec["bits"]
        full = game.diag_prefix_global(fam, max(bits, 2 ** (self.GLOBAL_MEETS + 1) - 1))
        prefix = full[:bits]
        lang = game.diag_language_global(fam)
        require(language.chi_prefix(lang, bits) == prefix, "per-string disagrees")
        for i in range(1, self.GLOBAL_MEETS + 1):
            require(strategy.meets_at(fam, lang, full[: 2**i - 1], index=i), f"misses h_{i}")
        return fam, full, prefix

    def _run_local(self, spec):
        fam = zoo.local_families()[spec["family"]]
        table = strategy.bound_extension_sizes(fam, self.LOCAL_MEETS)
        prefix = game.diag_prefix_local(fam, table)
        lang = game.diag_language_local(fam, table)
        require(language.chi_prefix(lang, len(prefix)) == prefix, "per-string disagrees")
        for i in range(1, self.LOCAL_MEETS + 1):
            tau = prefix[: sum(table[:i])]
            require(strategy.meets_at(fam, lang, tau, index=i), f"misses h_{i}")
        return fam, table, prefix

    def _run_generic(self, spec):
        fams = zoo.local_families()
        hs = [fams[name] for name in spec["order"]]
        lang = zoo.generic_builder(hs, len(hs))
        for i, h in enumerate(hs, 1):
            verdict = strategy.meets_check(h, lang, self.GENERIC_HORIZON, index=i)
            require(verdict.met, f"generic misses h_{i}")
        return hs, language.chi_prefix(lang, self.GENERIC_HORIZON)

    def _run_sigma2(self, spec):
        h = zoo.sigma2_avoider(zoo.finite_class_predicate(), language.full_language())
        lang = language.finite_language({rank_to_string(r) for r in spec["ranks"]})
        exts = []
        for m in range(9):
            w = strategy.materialize_local(h, 0, language.chi_prefix(lang, m), 2048)
            require(w != "" and set(w) == {"1"}, "sigma2 extension does not follow its tail")
            exts.append(w)
        # the verdict is recorded, not required: the avoider is only claimed
        # to avoid some finite languages (it meets {s_2, s_3} at tau = 00)
        return exts, str(strategy.meets_check(h, lang, 2**8))

    def references(self, spec: dict, result) -> None:
        kind = spec["kind"]
        if kind == "global":
            fam, full, _ = result
            for i in range(1, self.GLOBAL_MEETS + 1):
                met, _ = game.meets_within(fam, full[: 2 ** (i + 1) - 1], index=i)
                require(met, f"meets_within h_{i}")
        elif kind == "local":
            fam, _, prefix = result
            indexed = strategy.local_as_indexed(fam)
            for i in range(1, self.LOCAL_MEETS + 1):
                require(game.meets_within(indexed, prefix, index=i)[0], f"meets_within h_{i}")
        elif kind == "generic":
            hs, bits = result
            for i, h in enumerate(hs, 1):
                met, _ = game.meets_within(strategy.local_as_indexed(h), bits, index=i)
                require(met, f"meets_within h_{i}")

    def digest(self, spec: dict, result) -> str:
        kind = spec["kind"]
        if kind == "global":
            return digest(kind, spec["family"], result[2])
        if kind == "local":
            return digest(kind, spec["family"], *result[1:])
        if kind == "generic":
            return digest(kind, spec["order"], result[1])
        exts, verdict = result
        return digest(kind, spec["ranks"], verdict, *exts)


# ---------------------------------------------------------------------------
# play: Banach-Mazur games plus martingale capital and fairness


class Play(Workload):
    """Each family at three horizons a round: the long games set the tail and
    the medium ones the median.  Each class always bets on the same kind of
    language, since a sparse and the generic language take different times:
    drawn per task, the mix and so the median would move with the seed."""

    name = "play"
    HORIZONS = {"short": (504, 512), "medium": (1008, 1024), "long": (2016, 2048)}
    MIX = [(family, size, ("sparse", "generic")[(f + z) % 2])
           for f, family in enumerate(("singletons", "ones", "sparse"))
           for z, size in enumerate(("short", "medium", "long"))]
    MEETS = 4
    FAIRNESS_DEPTH = 12

    def round(self, seed: int, r: int) -> list[dict]:
        rng = task_rng(self.name, seed, r)
        specs = []
        for family, size, lang in self.MIX:
            low, high = self.HORIZONS[size]
            horizon = rng.randrange(low, high + 1)
            specs.append({
                "class": f"{family}-{size}",
                "family": family,
                "horizon": horizon,
                "adversary_seed": rng.randrange(2**32),
                "language": lang,
                "language_seed": rng.randrange(2**16),
                "capital_horizon": 2 * horizon,
                "samples": sorted(rng.sample(range(1, 2 * horizon), 6)),
            })
        rng.shuffle(specs)
        return specs

    @staticmethod
    def language_for(spec: dict) -> language.LanguageOracle:
        if spec["language"] == "sparse":
            return language.make_sparse([1, 1], spec["language_seed"])
        return zoo.build_strategy(zoo.StrategySpec("generic", {"blocks": 3}), {})

    def run(self, spec: dict):
        fam = zoo.indexed_families()[spec["family"]]
        adversary = game.seeded_adversary(spec["adversary_seed"])
        transcript = game.run_game(adversary, game.indexed_to_winning(fam), 2048, spec["horizon"])
        require(len(transcript.result_prefix) >= spec["horizon"], "game ended short")
        lang = self.language_for(spec)
        bettor = martingale.density_bettor()
        trace = martingale.capital_trace(bettor, lang, spec["capital_horizon"])
        require(all(c >= 0 for c in trace), "negative capital")
        require(martingale.fairness_check(bettor, self.FAIRNESS_DEPTH).ok, "unfair martingale")
        return fam, transcript, lang, trace

    def references(self, spec: dict, result) -> None:
        fam, transcript, lang, trace = result
        for i in range(1, self.MEETS + 1):
            met, _ = game.meets_within(fam, transcript.result_prefix, index=i)
            require(met, f"game misses h_{i}")
        chi = language.chi_prefix(lang, spec["capital_horizon"])
        bettor = martingale.density_bettor()
        for p in [0, *spec["samples"], spec["capital_horizon"]]:
            require(bettor.value(chi[:p]) == trace[p], f"capital at {p}")

    def digest(self, spec: dict, result) -> str:
        _, transcript, _, trace = result
        records = (
            f"{r.move_index},{r.player},{r.state_length},{r.extension_length}"
            for r in transcript.records
        )
        capital = (f"{c.numerator}/{c.denominator}" for c in trace)
        return digest(*records, transcript.result_prefix, *capital)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m bairekit.cli` process per command


class Cli(Workload):
    """README commands with seeded parameters.  Circuit-diag runs six times
    a round, (2,3) and (3,4) once and (2,4), (4,3) twice each, so the tail
    task is a circuit-diag command."""

    name = "cli"

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.child = str(Path(__file__).resolve().parent / "cli_child.py")
        self.counter = 0

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def round(self, seed: int, r: int) -> list[dict]:
        rng = task_rng(self.name, seed, r)
        s = rng.randrange(1000)
        config = self.work / f"experiment-{seed}-{r}.json"
        config.write_text(json.dumps(
            {"command": "check", "strategy": "sparse", "language": "full",
             "horizon": rng.randrange(8, 17), "seed": s}
        ))

        def cmd(label, argv, check, expect=0, out=False, **params):
            return {"class": label, "argv": argv, "check": check, "expect": expect,
                    "out": out, **params}

        bits = rng.randrange(8, 65)
        horizon = rng.randrange(768, 1025)
        specs = [
            cmd("chi-empty", ["chi", "--language", "empty", "--bits", str(bits)], "chi", bits=bits),
            cmd("chi-sparse", ["chi", "--language", f"sparse:coeffs=1,1:seed={s}", "--bits", "64"],
                "chi", bits=64),
            cmd("check", ["check", "--strategy", "sparse", "--language", "full",
                          "--horizon", str(rng.randrange(8, 17))], "met"),
            cmd("strategy-sparse", ["strategy", "--strategy", "sparse", "--prefix",
                                    bitstring(rng, 4), "--bound", "poly:2"], "strategy"),
            cmd("strategy-size-diag", ["strategy", "--strategy", "size-diag", "--prefix",
                                       bitstring(rng, 3)], "strategy"),
            cmd("strategy-derand-diag", ["strategy", "--strategy", "derand-diag", "--prefix",
                                         bitstring(rng, 4)], "strategy"),
            cmd("game", ["game", "--family", rng.choice(["singletons", "ones", "sparse"]),
                         "--adversary", "seeded", "--horizon", str(horizon), "--seed", str(s)],
                "game", out=True, horizon=horizon),
            cmd("diag-global", ["diag", "--family", rng.choice(["singletons", "ones"]),
                                "--mode", "global", "--bits", "128", "--meets", "6"],
                "diag", out=True, meets=6),
            cmd("diag-local", ["diag", "--family", "sparse", "--mode", "local", "--meets", "4"],
                "diag", out=True, meets=4),
            cmd("circuit-diag-n2s3", ["circuit-diag", "--n", "2", "--size", "3", "--sigma",
                                      bitstring(rng, 4), "--bits", "10"], "halving", bits=10),
            cmd("circuit-diag-n3s4", ["circuit-diag", "--n", "3", "--size", "4", "--sigma",
                                      bitstring(rng, 4), "--bits", "16"], "halving", bits=16),
            *(cmd(f"circuit-diag-n{n}s{size}", ["circuit-diag", "--n", str(n), "--size", str(size),
                                                "--sigma", bitstring(rng, 4), "--bits", "12"],
                  "halving", bits=12)
              for n, size in [(2, 4), (2, 4), (4, 3), (4, 3)]),
            cmd("martingale", ["martingale", "--language",
                               rng.choice(["generic", f"sparse:coeffs=1,1:seed={s}"]),
                               "--horizon", str(horizon)], "martingale", out=True, horizon=horizon),
            cmd("verify", ["verify", "--suite", "all", "--seed", str(s)], "verify"),
            cmd("config-run", ["--config", str(config)], "met"),
            cmd("config-validate", ["--config", str(config), "validate"], "validate"),
            cmd("config-error", ["chi", "--language", f"nosuch{s}", "--bits", "8"], "config-error",
                expect=2),
            cmd("guard-trip", ["circuit-diag", "--n", "5", "--size", "2"], "guard", expect=1),
        ]
        rng.shuffle(specs)
        return specs

    def run(self, spec: dict, stats: Path | None = None):
        """Time one command in a fresh interpreter; ``stats`` selects the
        traced child, which writes its span totals there."""
        self.counter += 1
        out = self.work / f"out{self.counter}"
        argv = list(spec["argv"]) + (["--out", str(out)] if spec["out"] else [])
        if stats is None:
            cmd = [self.python, "-m", "bairekit.cli", *argv]
        else:
            cmd = [self.python, self.child, str(stats), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.work, timeout=150)
        artifacts = {}
        if out.is_dir():
            for path in sorted(out.iterdir()):
                artifacts[path.name] = path.read_bytes()
                path.unlink()
            out.rmdir()
        return proc, artifacts

    def references(self, spec: dict, result) -> None:
        proc, artifacts = result
        stdout = proc.stdout.decode("ascii", "replace")
        stderr = proc.stderr.decode("ascii", "replace")
        require("Traceback" not in stderr, "traceback on stderr")
        require(proc.returncode == spec["expect"], f"exit {proc.returncode}, want {spec['expect']}")
        lines = stdout.splitlines()
        kind = spec["check"]
        if kind == "chi":
            require(len(lines) == 1 and len(lines[0]) == spec["bits"] and not lines[0].strip("01"),
                    "chi prefix")
        elif kind == "met":
            require(stdout.startswith("Met tau="), "meets verdict")
        elif kind == "strategy":
            require(len(lines) == 2 and lines[0].startswith("extension ")
                    and lines[1].startswith("meter queries="), "strategy report")
        elif kind == "game":
            _, rounds, _, result_bits = lines[0].split()
            transcript = artifacts["transcript.jsonl"].decode().splitlines()
            prefix = artifacts["result_prefix.txt"].decode().strip()
            require(int(result_bits) >= spec["horizon"] and len(prefix) == int(result_bits)
                    and len(transcript) == 2 * int(rounds), "game artifacts")
        elif kind == "diag":
            require("per-string-agrees True" in lines
                    and sum(line.endswith(" True") for line in lines[2:]) == spec["meets"]
                    and artifacts["diag_prefix.txt"].decode().strip() == lines[0], "diag report")
        elif kind == "halving":
            require(lines[-1] == "halving PASS" and len(lines) == spec["bits"] + 1, "halving report")
        elif kind == "martingale":
            rows = artifacts["capital_trace.csv"].decode().splitlines()
            last = rows[-1].split(",")
            require(lines[0].startswith("final ") and len(rows) == spec["horizon"] + 1
                    and Fraction(lines[0][6:]) == Fraction(int(last[3]), int(last[4])),
                    "martingale trace")
        elif kind == "verify":
            require(lines == [f"{suite} PASS" for suite in
                              ("roundtrip", "halving", "fairness", "union", "queryset")], "verify")
        elif kind == "validate":
            require(lines == ["ok"], "validate")
        elif kind == "config-error":
            require(stderr.startswith("config error: unknown language"), "config error message")
        elif kind == "guard":
            require(stderr.startswith("error: "), "guard message")

    def digest(self, spec: dict, result) -> str:
        proc, artifacts = result
        parts = [spec["class"], proc.returncode, proc.stdout, proc.stderr]
        for name, data in artifacts.items():
            parts += [name, data]
        return digest(*parts)


def make(name: str, root: Path, work: Path):
    """The named workload; ``work`` is the scratch directory it may write."""
    if name == "cli":
        return Cli(root, work)
    return {"halving": Halving, "diag": Diag, "play": Play}[name]()


NAMES = ("halving", "diag", "play", "cli")
