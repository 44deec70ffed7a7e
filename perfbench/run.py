"""Benchmark entry point.

    python3 perfbench/run.py --workload interval-quench --seed 1 \\
        --seconds 30 --trace 0

Runs one workload of perfbench/workloads.py for --seconds seconds, checks
every output and prints each metric with its unit, then a provenance line,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics, measured with
no tracing; --trace 1 gives the per-layer metrics from traced repetitions
alternated with untraced ones, whose difference is the tracing overhead.
Exit code 0 when every operation passed, 1 when one failed, 2 when the
program cannot be imported.  Results and spans go to .perfbench_out/.
"""

import os
import sys

# One process, one thread: BLAS/OpenMP pools are pinned before numpy loads.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3

# A fresh interpreter: import chdbc, then build the workload's operators and
# Stepper from its config, when it has one.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import chdbc
out = {"import_s": time.perf_counter() - t0}
if len(sys.argv) > 1:
    from chdbc import experiments, solver
    with open(sys.argv[1]) as fh:
        cfg = experiments.resolve_config(experiments.parse_config(fh.read()))
    ops = experiments.build_operators(cfg)
    solver.Stepper(ops, experiments.build_solver_config(cfg))
out["setup_s"] = time.perf_counter() - t0
print(json.dumps(out))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown (not a git checkout)"


def provenance(args, workload, seeds, reps):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "data_seeds": seeds if workload.seeded else "seed ignored: no random input",
        "trace": args.trace,
        "seconds": args.seconds,
        "repetition_wall_s": reps,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "machine": platform.machine(),
    }


def measure_setup(workload, data_seed, reps, workdir):
    """Median setup_s and import_s over fresh interpreters."""
    argv = [sys.executable, "-c", SETUP_CHILD]
    text = workload.config(data_seed)
    if text is not None:
        cfg = workdir / "setup.cfg"
        cfg.write_text(text)
        argv.append(str(cfg))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(reps):
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(r["setup_s"] for r in runs),
            statistics.median(r["import_s"] for r in runs))


def one_rep(workload, tally, workdir, data_seed):
    rep_dir = workdir / "rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    try:
        return workload.run(tally, rep_dir, data_seed)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def end_to_end(workload, tally, workdir, seeds, seconds):
    """Repetitions cycling through the data sets until the time is up."""
    setup_s, _ = measure_setup(workload, seeds[0], SETUP_REPS, workdir)
    reps = []
    deadline = perf_counter() + seconds
    while not reps or perf_counter() < deadline:
        reps.append(one_rep(workload, tally, workdir,
                            seeds[len(reps) % len(seeds)]))
    values = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "setup_s": setup_s,
        "steps_per_s": statistics.median(r.steps / r.step_wall_s for r in reps),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, [r.wall_s for r in reps]


def per_layer(workload, tally, workdir, seeds, seconds, spans_path):
    """Untraced and traced repetitions in turn, all on the first data set,
    so that every count repeats exactly."""
    from perfbench.tracing import Tracer, layer_metrics, patch_points

    _, import_s = measure_setup(workload, seeds[0], SETUP_REPS, workdir)
    tracer = Tracer()
    points = patch_points(tracer)
    untraced, traced, layers = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        untraced.append(one_rep(workload, tally, workdir, seeds[0]).wall_s)
        run_id = len(traced)
        with tracer.installed(points, run_id):
            traced.append(one_rep(workload, tally, workdir, seeds[0]).wall_s)
        layers.append(layer_metrics(tracer, run_id))
    tracer.write(spans_path)
    # median_low: a value one repetition measured, so counts stay integers
    values = {key: statistics.median_low(m[key] for m in layers)
              for key in layers[0]}
    values["setup.import_s"] = import_s
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    return values, {"untraced": untraced, "traced": traced}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chdbc" / "__init__.py").is_file():
        print(f"perfbench: no chdbc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench.metrics import END_TO_END, PER_LAYER

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seeds = workloads.data_seeds(args.seed) if workload.seeded else [None]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = workloads.Tally()
    try:
        if args.trace:
            spec = PER_LAYER
            values, reps = per_layer(workload, tally, workdir, seeds,
                                     args.seconds, OUT / f"spans-{tag}.npz")
        else:
            spec = END_TO_END
            values, reps = end_to_end(workload, tally, workdir, seeds,
                                      args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args, workload, seeds, reps)
    for m in spec:
        print(f"{m.name} = {values[m.name]!r} {m.unit}")
    print(f"failed_frac = {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} operations)")
    for what in tally.failures:
        print(f"FAILED: {what}")
    print("provenance: " + json.dumps(prov))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in spec},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"provenance": prov, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
