"""Record the benchmark of one or more checkouts into one JSON file.

    python3 tools/bench_record.py --checkout parent=../parent \
        --checkout change=. --seeds 10 --out BENCH_N.json

For every workload in the first checkout's ``BENCHMARK.json`` and every seed
1..K, runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout, alternating which checkout runs first from one seed to the
next.  Then runs each workload once per checkout with ``--trace 1`` (seed 1)
for the per-layer metrics.  Writes, per workload and checkout, the median,
quartiles and spread (IQR / median) of every end-to-end metric with all run
values, the failed and attempted operation counts, and the traced per-layer
values.  Every checkout after the first is compared with the first: for each
end-to-end metric, the pairs (same seed) it wins, ties counting for neither,
the relative change of the median, and whether that change exceeds the
first checkout's IQR in the better direction.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The JSON line ``bench/run.py`` prints last, or a record of its failure."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip().splitlines()[-5:],
                "returncode": proc.returncode}
    return json.loads(lines[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "spread": (q3 - q1) / median if median else None, "values": values}


def compare(base: dict, other: dict, better: str) -> dict:
    """Pairs won by ``other`` over ``base`` and the move of its median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - o) > 0 for b, o in zip(base["values"], other["values"]))
    move = other["median"] - base["median"]
    return {"pairs": min(len(base["values"]), len(other["values"])),
            "pairs_won": wins,
            "median_change": move / base["median"] if base["median"] else None,
            "beyond_base_iqr": sign * move < 0 and abs(move) > base["iqr"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--checkout", action="append", required=True,
                        metavar="NAME=PATH", help="a source checkout to run")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    given = dict(item.partition("=")[::2] for item in args.checkout)
    checkouts = {name: Path(path).resolve() for name, path in given.items()}
    spec = json.loads((next(iter(checkouts.values())) / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    names = list(checkouts)

    record = {"host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                       "python": platform.python_version()},
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seeds": args.seeds, "seconds": seconds,
              "checkouts": given,
              "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        runs = {name: [] for name in names}
        for seed in range(1, args.seeds + 1):
            for name in (names if seed % 2 else names[::-1]):
                result = run_bench(checkouts[name], w, seed, seconds, 0)
                runs[name].append(result)
                print(f"{w} seed {seed} {name}: "
                      f"{json.dumps(result.get('metrics', result))}", flush=True)
        entry = {}
        for name in names:
            ok = [r for r in runs[name] if "metrics" in r]
            entry[name] = {
                "runs": len(runs[name]), "errors": len(runs[name]) - len(ok),
                "correct": all(r["correct"] for r in ok),
                "attempted": sum(r["attempted"] for r in ok),
                "failed": sum(r["failed"] for r in ok),
                "end_to_end": {m: quartiles([r["metrics"][m]["value"] for r in ok])
                               for m in better if ok},
            }
            traced = run_bench(checkouts[name], w, 1, seconds, 1)
            entry[name]["per_layer"] = {m: v["value"] for m, v in
                                        traced.get("metrics", {}).items()}
        base = entry[names[0]]["end_to_end"]
        for name in names[1:]:
            other = entry[name]["end_to_end"]
            entry[f"{name}_vs_{names[0]}"] = {
                m: compare(base[m], other[m], b) for m, b in better.items()
                if m in base and m in other}
        record["workloads"][w] = entry
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
