"""Benchmark for bairekit: closed-loop workloads timed end to end, plus a
separate traced run that breaks task time down by package layer.

    python3 perfbench/run.py --workload {halving,diag,play,cli,all} \\
        --seed N --seconds S --trace {0,1}

One single-threaded client sends each task only after the previous one has
finished.  Tasks come in rounds with a fixed mix (see workloads.py); whole
rounds run until the timed task time reaches ``--seconds``.  Every task
checks its outputs: the invariant inside the timed region, the independent
references after it, and, at the default seed, the sha256 digest stored in
reference.json.

``--trace 0`` prints the end-to-end metrics, with every time scaled to the
reference speed of a fixed loop (see REFERENCE_LOOP_S).  ``--trace 1`` runs
each task twice, untraced and traced in alternating order, and prints the per-layer
metrics and the tracing overhead.  ``--workload all`` runs the four
workloads in this one process, with at most one child process at a time,
and with ``--trace 1`` also checks that every layer recorded calls.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --write-reference

recomputes the stored digests at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench_out"

# fresh interpreters timed for setup_s, half before the timed rounds and
# half after them, so one short slow spell moves the median less
SETUP_PROBES = 12
# A shared machine's speed moves by up to ~1.9x within minutes, for all the
# code in one process alike.  So every timed interval is bracketed by two
# timings of a fixed loop (loop_s), and the end-to-end times are reported at
# the reference speed: the raw time times REFERENCE_LOOP_S over the loop's
# median time nearby.  REFERENCE_LOOP_S is about the loop's median time on
# the 2-vCPU Xeon VM that defined the benchmark, so the figures read as
# seconds on it.
REFERENCE_LOOP_S = 0.004
SPEED_WINDOW = 3
SPAN_CAP = 100_000
# rounds whose digests --write-reference stores: about four times what a
# 20-second run completes at the commit that defined the benchmark
REFERENCE_ROUNDS = {"halving": 16, "diag": 12, "play": 32, "cli": 16}

# exact work counts reported per task in the traced run
WORK_COUNTS = (
    "circuits.enumerated", "circuits.evals", "circuits.flip_steps",
    "strategy.ext_bit_calls", "strategy.oracle_reads", "language.member_calls",
    "game.half_moves", "game.blocks", "martingale.bets",
)

END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names(layers) -> list[tuple[str, str]]:
    names = []
    for layer in layers:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.share", "1"),
                  (f"{layer}.calls", "count"), (f"{layer}.raised", "count")]
    names += [(name, "count") for name in WORK_COUNTS]
    names += [("cli.artifact_bytes", "bytes"), ("cli.startup_s", "s"), ("cli.handler_s", "s"),
              ("game.scans_per_move", "1"), ("game.extends_per_member", "1"),
              ("trace.overhead", "x")]
    return names


def load_package():
    """Import bairekit from this checkout's src/ and the benchmark modules;
    exit 2 when the checkout holds no package."""
    if not (SRC / "bairekit" / "__init__.py").is_file():
        print(f"perfbench: no bairekit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bairekit

    if Path(bairekit.__file__).resolve().parent != SRC / "bairekit":
        print(f"perfbench: imported bairekit from {bairekit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import tracer
    import workloads

    return bairekit, tracer, workloads


def machine_meta(seed: int, workload: str, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(ROOT / ".git"),
        "seed": seed,
        "workload": workload,
        "trace": trace,
        "calibration_s": calibration_s(),
    }


def loop_s() -> float:
    """One timing of a fixed pure-Python loop that uses no bairekit code."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    parts = []
    total = 0
    for i in range(1, 4000):
        key = format(i, "b")
        table[key] = table.get(key[:-1], 0) + len(key)
        parts.append(key[::-1])
        total += i * i % 7
    total += len("".join(parts)) + len(table)
    return time.perf_counter() - start


def calibration_s() -> float:
    """Median of 25 loop timings: the machine's speed at one moment."""
    return statistics.median(loop_s() for _ in range(25))


def at_reference_speed(raw: list[float], loops: list[tuple[float, float]]) -> list[float]:
    """Each interval of ``raw`` scaled to the reference speed: times the
    reference loop time, over the median of the loop timings taken around
    this interval and the SPEED_WINDOW intervals on either side of it."""
    scaled = []
    for i, seconds in enumerate(raw):
        near = [x for pair in loops[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1] for x in pair]
        scaled.append(seconds * REFERENCE_LOOP_S / statistics.median(near))
    return scaled


def git_commit(git: Path) -> str:
    """HEAD's commit id, read from the files (the checkout may not be a git
    repository at all)."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(times: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten tasks beyond it,
    and that percentile; the maximum when there are ten tasks or fewer."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Runner:
    def __init__(self, tracer_mod, workloads_mod, reference: dict, work: Path):
        self.tracer_mod = tracer_mod
        self.workloads = workloads_mod
        self.reference = reference
        self.work = work
        self.failures = 0

    # -- one task -----------------------------------------------------------

    def _fail(self, where: str, exc: BaseException) -> None:
        if isinstance(exc, self.workloads.TaskFailure):
            message = f"{where}: {exc}"
        else:
            message = f"{where}: " + "".join(traceback.format_exception_only(exc)).strip()
        self.failures += 1
        if self.failures <= 5:
            print(f"FAILED {message}", file=sys.stderr)

    def _expected(self, wl, seed: int, r: int, j: int):
        if seed != self.reference["default_seed"]:
            return None
        rounds = self.reference["digests"].get(wl.name, [])
        return rounds[r][j] if r < len(rounds) else None

    def _verify(self, wl, seed, r, j, spec, result, references: bool) -> bool:
        where = f"{wl.name} round {r} task {j} ({spec['class']})"
        try:
            if references:
                wl.references(spec, result)
            got = wl.digest(spec, result)
        except Exception as exc:  # a broken output must not stop the run
            self._fail(where, exc)
            return False
        expected = self._expected(wl, seed, r, j)
        if expected is not None and got != expected:
            self._fail(where, self.workloads.TaskFailure("output differs from reference digest"))
            return False
        return True

    def _timed(self, wl, spec, **kwargs):
        start = time.perf_counter()
        try:
            result = wl.run(spec, **kwargs)
        except Exception as exc:  # counted as a failed task
            return time.perf_counter() - start, None, exc
        return time.perf_counter() - start, result, None

    # -- closed loop ----------------------------------------------------------

    def rounds(self, wl, seed: int, seconds: float, one_task) -> list[float]:
        """Run whole rounds until the timed task time reaches ``seconds``;
        returns each round's timed task time."""
        spent: list[float] = []
        while sum(spent) < seconds:
            spent.append(sum(one_task(len(spent), j, spec)
                             for j, spec in enumerate(wl.round(seed, len(spent)))))
        return spent

    def setup_times(self, name: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
        """Raw set-up times of ``probes`` fresh interpreters, and the same
        times at the reference speed."""
        raw, loops = [], []
        for _ in range(probes):
            before = loop_s()
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(self.work)],
                capture_output=True, cwd=ROOT, timeout=60,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
            raw.append(float(proc.stdout.decode().split()[-1]) - start)
            loops.append((before, loop_s()))
        return raw, at_reference_speed(raw, loops)

    def end_to_end(self, name: str, seed: int, seconds: float) -> dict:
        wl = self.workloads.make(name, ROOT, self.work)
        raw_setup, setup = self.setup_times(name, seed, SETUP_PROBES // 2)
        wl.prepare()
        raw: list[float] = []
        loops: list[tuple[float, float]] = []
        failed = 0

        def one_task(r, j, spec):
            nonlocal failed
            before = loop_s()
            elapsed, result, exc = self._timed(wl, spec)
            loops.append((before, loop_s()))
            raw.append(elapsed)
            if exc is not None:
                self._fail(f"{name} round {r} task {j} ({spec['class']})", exc)
                failed += 1
            elif not self._verify(wl, seed, r, j, spec, result, references=True):
                failed += 1
            return elapsed

        rounds = self.rounds(wl, seed, seconds, one_task)
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
        raw_more, more = self.setup_times(name, seed, SETUP_PROBES - SETUP_PROBES // 2)
        raw_setup += raw_more
        setup += more
        times = at_reference_speed(raw, loops)
        tail_s, tail_pct = tail(times)
        return {
            "attempted": len(times),
            "failed": failed,
            "rounds": len(rounds),
            "timed_s": sum(raw),
            "tail_pct": tail_pct,
            "loop_s": statistics.median(x for pair in loops for x in pair),
            "raw": {"setup_s": statistics.median(raw_setup), "task_p50_s": statistics.median(raw)},
            "metrics": {
                "setup_s": statistics.median(setup),
                "tasks_per_s": len(times) / sum(times),
                "task_p50_s": statistics.median(times),
                "task_tail_s": tail_s,
                "peak_rss_mb": peak_mb,
            },
        }

    def traced(self, name: str, seed: int, seconds: float, tracer) -> dict:
        wl = self.workloads.make(name, ROOT, self.work)
        wl.prepare()
        layers = self.tracer_mod.LAYERS
        sums = {f"{layer}.{key}": 0.0 for layer in layers for key in ("self_s", "calls", "raised")}
        counts = dict.fromkeys(self.tracer_mod.COUNTS, 0)
        totals = {"traced_s": 0.0, "untraced_s": 0.0, "tasks": 0, "failed": 0,
                  "artifact_bytes": 0, "startup_s": 0.0, "handler_s": 0.0}
        stats_path = self.work / "child-stats.json"

        def run_traced(spec):
            if name == "cli":
                spawned = time.monotonic()
                elapsed, result, exc = self._timed(wl, spec, stats=stats_path)
                try:
                    stats = json.loads(stats_path.read_text())
                    stats_path.unlink()
                except (OSError, ValueError) as err:
                    # the child timed out or died before writing its totals
                    return elapsed, result, exc or err, {"layers": {}, "counts": {}}
                totals["startup_s"] += stats["ready"] - spawned
                totals["handler_s"] += stats["handler_s"]
                if result is not None:
                    totals["artifact_bytes"] += sum(len(b) for b in result[1].values())
                return elapsed, result, exc, stats
            tracer.install()
            tracer.begin_task(totals["tasks"])
            try:
                elapsed, result, exc = self._timed(wl, spec)
            finally:
                stats = tracer.end_task()
                tracer.uninstall()
            return elapsed, result, exc, stats

        def one_task(r, j, spec):
            where = f"{name} round {r} task {j} ({spec['class']})"
            ok = True
            spent = 0.0
            # alternate which side runs first, so neither always finds warm caches
            for side in ((False, True) if totals["tasks"] % 2 == 0 else (True, False)):
                if side:
                    elapsed, result, exc, stats = run_traced(spec)
                    totals["traced_s"] += elapsed
                    for layer, agg in stats["layers"].items():
                        for key, value in agg.items():
                            sums[f"{layer}.{key}"] += value
                    for key, value in stats["counts"].items():
                        counts[key] += value
                else:
                    elapsed, result, exc = self._timed(wl, spec)
                    totals["untraced_s"] += elapsed
                spent += elapsed
                if exc is not None:
                    self._fail(where, exc)
                    ok = False
                elif not self._verify(wl, seed, r, j, spec, result, references=not side):
                    ok = False
            totals["tasks"] += 1
            totals["failed"] += not ok
            return spent

        self.rounds(wl, seed, seconds, one_task)
        n = totals["tasks"]
        metrics = {}
        for layer in layers:
            metrics[f"{layer}.self_s"] = sums[f"{layer}.self_s"] / n
            metrics[f"{layer}.share"] = sums[f"{layer}.self_s"] / totals["traced_s"]
            metrics[f"{layer}.calls"] = sums[f"{layer}.calls"] / n
            metrics[f"{layer}.raised"] = sums[f"{layer}.raised"] / n
        for key in WORK_COUNTS:
            metrics[key] = counts[key] / n
        for key in ("artifact_bytes", "startup_s", "handler_s"):
            metrics[f"cli.{key}"] = totals[key] / n  # 0 outside the cli workload
        moves, members = counts["game.half_moves"], counts["language.member_calls"]
        metrics["game.scans_per_move"] = counts["family.ext_in_game"] / moves if moves else 0.0
        metrics["game.extends_per_member"] = (
            counts["family.ext_in_member"] / members if members else 0.0)
        metrics["trace.overhead"] = totals["traced_s"] / totals["untraced_s"]
        return {
            "attempted": n,
            "failed": totals["failed"],
            "traced_s": totals["traced_s"],
            "untraced_s": totals["untraced_s"],
            "layer_calls": {layer: sums[f"{layer}.calls"] for layer in layers},
            "metrics": metrics,
        }

    def write_reference(self, names) -> None:
        seed = self.reference["default_seed"]
        for name in names:
            wl = self.workloads.make(name, ROOT, self.work)
            wl.prepare()
            rounds = []
            for r in range(REFERENCE_ROUNDS[name]):
                row = []
                for j, spec in enumerate(wl.round(seed, r)):
                    result = wl.run(spec)
                    wl.references(spec, result)
                    row.append(wl.digest(spec, result))
                rounds.append(row)
            self.reference["digests"][name] = rounds
            print(f"{name}: {len(rounds)} rounds", file=sys.stderr)
        REFERENCE.write_text(json.dumps(self.reference, indent=1) + "\n")


def fmt(value: float) -> str:
    return repr(float(value))


def report_end_to_end(name: str, res: dict) -> None:
    m, raw = res["metrics"], res["raw"]
    print(f"{name} setup_s {fmt(m['setup_s'])} s (median of {SETUP_PROBES} fresh interpreters; "
          f"raw {raw['setup_s']:.4f} s)")
    print(f"{name} tasks_per_s {fmt(m['tasks_per_s'])} 1/s ({res['attempted']} tasks in "
          f"{res['timed_s']:.2f} s timed, {res['rounds']} rounds)")
    print(f"{name} task_p50_s {fmt(m['task_p50_s'])} s (raw {raw['task_p50_s']:.4f} s)")
    print(f"{name} task_tail_s {fmt(m['task_tail_s'])} s "
          f"(p{res['tail_pct']:.1f}, {min(10, res['attempted'] - 1)} of {res['attempted']} tasks beyond)")
    print(f"{name} failed_ratio {fmt(res['failed'] / res['attempted'])} 1 "
          f"({res['failed']} of {res['attempted']} tasks)")
    print(f"{name} peak_rss_mb {fmt(m['peak_rss_mb'])} MB")
    print(f"{name} loop_s {fmt(res['loop_s'])} s (median over the tasks; reference "
          f"{REFERENCE_LOOP_S} s)")


def report_traced(name: str, res: dict, units: dict, layers) -> None:
    for key, value in res["metrics"].items():
        print(f"{name} {key} {fmt(value)} {units[key]}")
    top = max(layers, key=lambda layer: res["metrics"][f"{layer}.share"])
    print(f"{name} top layer by share: {top} ({res['metrics'][f'{top}.share']:.3f})")
    print(f"{name} tracing overhead: traced {res['traced_s']:.3f} s / untraced "
          f"{res['untraced_s']:.3f} s = {res['metrics']['trace.overhead']:.3f}x "
          f"over {res['attempted']} tasks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    package, tracer_mod, workloads_mod = load_package()
    names = list(workloads_mod.NAMES) if args.workload == "all" else [args.workload]
    if any(name not in workloads_mod.NAMES for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    reference = json.loads(REFERENCE.read_text())
    seed = reference["default_seed"] if args.seed is None else args.seed

    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(tracer_mod, workloads_mod, reference, work)
    try:
        if args.write_reference:
            runner.write_reference(names)
            return 0
        print("meta " + json.dumps(machine_meta(seed, args.workload, args.trace)))
        metrics, attempted, failed = {}, 0, 0
        prefix = (lambda name: f"{name}.") if len(names) > 1 else (lambda name: "")
        if args.trace == 0:
            for name in names:
                res = runner.end_to_end(name, seed, args.seconds)
                report_end_to_end(name, res)
                attempted += res["attempted"]
                failed += res["failed"]
                for key, unit in END_TO_END:
                    metrics[prefix(name) + key] = {"value": res["metrics"][key], "unit": unit}
            covered = True
        else:
            layers = tracer_mod.LAYERS
            units = dict(per_layer_names(layers))
            tracer = tracer_mod.Tracer(package, span_cap=SPAN_CAP)
            calls = dict.fromkeys(layers, 0.0)
            for name in names:
                res = runner.traced(name, seed, args.seconds, tracer)
                report_traced(name, res, units, layers)
                attempted += res["attempted"]
                failed += res["failed"]
                for layer in layers:
                    calls[layer] += res["layer_calls"][layer]
                for key, unit in per_layer_names(layers):
                    metrics[prefix(name) + key] = {"value": res["metrics"][key], "unit": unit}
            spans = OUT / f"spans-{args.workload}-seed{seed}.tsv"
            written = tracer.write_spans(spans)
            print(f"spans: {written} kept, {tracer.dropped} beyond the cap, "
                  f"written to {spans.relative_to(ROOT)}")
            missing = [layer for layer in layers if calls[layer] == 0]
            covered = len(names) < len(workloads_mod.NAMES) or not missing
            if len(names) == len(workloads_mod.NAMES):
                print("layer coverage: " + ("every layer recorded calls" if covered
                                            else "FAIL, no calls in " + ", ".join(missing)))
        print(f"calibration_s at end {fmt(calibration_s())} s")
        correct = failed == 0 and covered
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
