"""Steadiness check: run the benchmark in two sets of runs of the same code
and compare them against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads halving,diag,play,cli] [--runs 10]

Each run is ``run.py --workload W --seed S --trace 0`` with its own seed, one
at a time; set 1 uses seeds 1000.., set 2 the next ``--runs`` seeds.  Per
workload and end-to-end metric it prints both sets' medians, both sets'
spreads (the distance between the first and third quartiles as a share of
the median), how far set 2's median is from set 1's as a share of set 1's,
and the bound.  It fails when that distance exceeds the bound, or when a
spread other than setup_s's does: the acceptance rule the benchmark is held
to bounds setup_s's shift between sets but not its spread, since a set-up of
about 0.1 s in fresh interpreters times far less steadily than the rest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1000


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    metrics = bench["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        sets = ({m["name"]: [] for m in metrics}, {m["name"]: [] for m in metrics})
        for i in range(2 * args.runs):
            values = sets[i // args.runs]
            seed = FIRST_SEED + i
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.decode().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})\n"
                      + proc.stderr.decode()[-2000:])
                return 1
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            meta = json.loads(next(x for x in lines if x.startswith("meta "))[5:])
            print(f"{workload} set {i // args.runs + 1} seed {seed}: "
                  f"calibration_s={meta['calibration_s']:.4g} " + " ".join(
                      f"{m['name']}={values[m['name']][-1]:.6g}" for m in metrics), flush=True)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first, second = (statistics.median(v[name]) for v in sets)
            spreads = [spread(v[name]) for v in sets]
            apart = (second - first) / first
            bad = abs(apart) > bound or (name != "setup_s" and max(spreads) > bound)
            ok &= not bad
            print(f"{workload:8s} {name:12s} medians {first:.6g} {second:.6g} spreads "
                  + " ".join(f"{x:.3f}" for x in spreads)
                  + f" apart {apart:+.3f} bound {bound} " + ("FAIL" if bad else "ok"), flush=True)
    print("steadiness " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
