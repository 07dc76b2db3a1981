"""dbarkit benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload spectrum-large --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports dbarkit from its
``src/``.  A run sets up (import and seeded inputs) several times, then runs
whole rounds of the workload's operations for about ``--seconds`` (at least
one), then checks each operation's first output against
``bench/reference.py`` and its later outputs against the first.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, writes the spans and counts of the first traced
round to ``bench/out/trace-<workload>.npz`` and reports the per-layer
metrics, medians over the traced rounds, with ``trace.overhead_s``, the
mean traced round time minus the mean untraced one.  See README.md.
"""

import os

# one thread per process: BLAS threads would compete for the two cores
# with the rest of the machine and add noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
SUBMODULES = ("errors", "special", "quadrature", "weights", "spectrum",
              "solver", "ball2d", "weights_nd", "criteria", "cli")
IMPORT_CHECK = (
    "import sys; sys.path.insert(0, sys.argv[1]); import dbarkit, dbarkit.cli; "
    "from pathlib import Path; "
    "sys.exit(Path(dbarkit.__file__).resolve().parent.parent != Path(sys.argv[1]))")


def import_dbarkit() -> dict:
    """Import dbarkit from this checkout's src/, and only from there."""
    if not (SRC / "dbarkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no dbarkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"dbarkit.{name}")
               for name in SUBMODULES}
    package = sys.modules["dbarkit"]
    if Path(package.__file__).resolve().parent != (SRC / "dbarkit").resolve():
        raise SystemExit(f"error: imported dbarkit from {package.__file__}")
    return modules


def make_api(m: dict):
    """The benchmark's table of dbarkit entry points."""
    return types.SimpleNamespace(
        cli_main=m["cli"].main,
        MomentSequence=m["weights"].MomentSequence,
        CustomRadial=m["weights"].CustomRadial,
        DiscPolynomial=m["weights"].DiscPolynomial,
        FockExponential=m["weights"].FockExponential,
        moment_quadrature=m["weights"].moment_quadrature,
        DivergenceError=m["errors"].DivergenceError,
        classify=m["spectrum"].classify,
        HolomorphicCoeffs=m["solver"].HolomorphicCoeffs,
        apply_solution_operator=m["solver"].apply_solution_operator,
        space_norm_sq=m["solver"].space_norm_sq,
        defect_norm_sq=m["solver"].defect_norm_sq,
        monomial_inner_product=m["solver"].monomial_inner_product,
        dbar_residual=m["solver"].dbar_residual,
        bound_constant=m["solver"].bound_constant,
        kernel_eval=m["solver"].kernel_eval,
        defect_norm_quadrature=m["solver"].defect_norm_quadrature,
        reproduce_check=m["solver"].reproduce_check,
        BallMomentGrid=m["ball2d"].BallMomentGrid,
        ball_hs_partial_sum=m["ball2d"].ball_hs_partial_sum,
        form_energy=m["ball2d"].form_energy,
        form_energy_from_moments=m["ball2d"].form_energy_from_moments,
        ball_kernel_series=m["ball2d"].ball_kernel_series,
        ball_moment_quadrature=m["ball2d"].ball_moment_quadrature,
        PshWeight=m["weights_nd"].PshWeight,
        check_hilbert_schmidt_hypotheses=m["weights_nd"].check_hilbert_schmidt_hypotheses,
        conjugate_transform=m["weights_nd"].conjugate_transform,
        sup_shift=m["weights_nd"].sup_shift,
    )


def fingerprint(value, h=None) -> str:
    """Digest of an op output, for comparing rounds bit for bit."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(value, workloads.CliOutput):
        h.update(f"cli {value.rc} ".encode())
        h.update(value.path.read_bytes())
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype} {value.shape} ".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(f"key {key!r} ".encode())
            fingerprint(value[key], h)
    elif isinstance(value, (list, tuple)):
        h.update(f"seq {len(value)} ".encode())
        for item in value:
            fingerprint(item, h)
    else:
        h.update(f"{type(value).__name__} {value!r} ".encode())
    return h.hexdigest() if top else ""


def run_round(ops, api, workdir: Path, errors: list):
    """Run every op once; returns (wall seconds, op seconds, outputs,
    failed count)."""
    workdir.mkdir(parents=True)
    rd = workloads.Round(api, workdir)
    outputs, op_times = [], []
    failed = 0
    t0 = perf_counter()
    for op in ops:
        t = perf_counter()
        try:
            out = op.run(rd)
        except Exception:  # an op that raises counts as failed, the run goes on
            errors.append(f"{op.name}: {traceback.format_exc()}")
            out = None
            failed += 1
        op_times.append(perf_counter() - t)
        outputs.append(out)
    return perf_counter() - t0, op_times, outputs, failed


def measure(args, ops, api, modules, tally, workdir: Path) -> dict:
    """Whole rounds for about ``args.seconds``; in trace mode untraced and
    traced rounds alternate."""
    rounds = {"untraced": [], "traced": []}
    op_rounds, errors, layer_rounds = [], [], []
    first_outputs = [None] * len(ops)
    prints = [None] * len(ops)
    mismatches = []
    attempted = failed = 0
    first_tracer = None
    t_start = perf_counter()
    i = 0
    while True:
        traced = args.trace and i % 2 == 1
        tracer = None
        round_api, round_ops = api, ops
        if traced:
            tally.counts = {}
            tally.active = True
            tracer = spans.Tracer(modules, tally)
            tracer.install()
            round_api = tracer.wrap_api(api)
            round_ops = [workloads.Op(op.name, tracer.wrap(f"bench.{op.name}", op.run),
                                      op.check) for op in ops]
        try:
            wall, op_times, outputs, n_failed = run_round(
                round_ops, round_api, workdir / f"round{i}", errors)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tally.active = False
        attempted += len(ops)
        failed += n_failed
        rounds["traced" if traced else "untraced"].append(wall)
        if not traced:
            op_rounds.append(op_times)
        # each op's first output is kept for the reference checks, so an op
        # that fails in one round is still checked on the round it succeeds
        kept = False
        for k, out in enumerate(outputs):
            if out is None:
                continue
            digest = fingerprint(out)
            if first_outputs[k] is None:
                first_outputs[k], prints[k] = out, digest
                kept = True
            elif digest != prints[k]:
                mismatches.append(ops[k].name)
        if not kept:
            shutil.rmtree(workdir / f"round{i}")
        if tracer is not None:
            layer_rounds.append(tracer.metrics())
            if first_tracer is None:
                first_tracer = tracer
        i += 1
        # stop before a round that would end after the deadline, so a run
        # measures about args.seconds however slow the host is
        enough = not args.trace or (rounds["untraced"] and rounds["traced"])
        upcoming = rounds["traced" if args.trace and i % 2 == 1 else "untraced"]
        expected = statistics.median(upcoming or rounds["untraced"])
        if enough and perf_counter() - t_start + expected > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first_tracer is not None:
        first_tracer.save(OUT / f"trace-{args.workload}.npz", layer_rounds)
    return {"rounds": rounds, "op_rounds": op_rounds, "errors": errors,
            "layer_rounds": layer_rounds, "first_outputs": first_outputs,
            "mismatches": mismatches, "attempted": attempted, "failed": failed,
            "peak_rss_mb": peak_rss_mb}


def setup(args, api, tally):
    """Import dbarkit in a fresh interpreter and build the seeded inputs,
    SETUP_REPEATS times; returns the ops and the fastest set-up time, since
    starting an interpreter is slowed by the host and never sped up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals and
        # rounds the set-up time up to the next poll
        subprocess.run([sys.executable, "-c", IMPORT_CHECK, str(SRC.resolve())],
                       check=True)
        ops = workloads.build(args.workload, args.seed, api, tally)
        times.append(perf_counter() - t0)
    return ops, min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = import_dbarkit()
    api = make_api(modules)
    tally = workloads.Tally()
    ops, setup_s = setup(args, api, tally)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        res = measure(args, ops, api, modules, tally, Path(tmp))
        failures = []
        for op, out in zip(ops, res["first_outputs"]):
            # an op that failed in every round counts in `failed` only
            if out is not None:
                failures += [f"{op.name}: {msg}" for msg in op.check(out)]
    failures += [f"{name}: output differs between rounds"
                 for name in sorted(set(res["mismatches"]))]
    for msg in res["errors"] + failures:
        sys.stderr.write(msg.rstrip() + "\n")
    for kind, walls in res["rounds"].items():
        if walls:
            sys.stderr.write(f"{kind} rounds (s): "
                             + " ".join(f"{w:.4f}" for w in walls) + "\n")

    # the mean, not the median, of the round times: the host's speed drifts
    # over tens of seconds, and the mean weighs every stretch of the run by
    # its length where the median of a few rounds jumps between stretches
    wall_s = statistics.mean(res["rounds"]["untraced"])
    if args.trace:
        metrics = {}
        for name, unit in spans.PER_LAYER:
            metrics[name] = {"value": statistics.median(
                r[name] for r in res["layer_rounds"]), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": statistics.mean(res["rounds"]["traced"]) - wall_s,
            "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": 1e3 * float(np.median(res["op_rounds"])),
                          "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
