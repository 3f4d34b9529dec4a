"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-paper-cell --seed 1 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` of the
same checkout. Each metric is printed as ``metric <name> <value> <unit>``,
followed by the output checks' error rate; the last line is one JSON object
with the keys correct, attempted, failed and metrics. With ``--trace 0`` the
metrics are the end-to-end ones, measured with no wrapper installed; with
``--trace 1`` they are the per-layer ones from a traced run. See NOTES.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ("ingest-ride", "train-paper-cell", "grid-sweep")
#: BLAS threads per process, grid workers included: the GEMMs are tiny
#: (Cout 4-16), so a second thread buys nothing and adds noise.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(workload):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ[BLAS_ENV[0]],
        "nproc": len(os.sched_getaffinity(0)),
    }
    env.update(workload.info())
    return env


def _import_probe():
    """A function timing one fresh interpreter that imports numpy and trailgrade.

    The probes keep their bytecode under ``out/pycache``, and an untimed first
    probe fills it, so every timed import reads compiled bytecode whether or
    not the environment lets Python write its caches next to the sources.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BENCH_DIR / "out" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-c", "import numpy, trailgrade"]

    def probe():
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        return time.perf_counter() - started

    probe()
    return probe


def main(argv=None):
    args = _parse_args(argv)
    for var in BLAS_ENV:  # before numpy loads, and inherited by grid workers
        os.environ[var] = "1"
    if not (SRC / "trailgrade" / "__init__.py").is_file():
        print(f"bench: no trailgrade sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trailgrade

    if Path(trailgrade.__file__).resolve().parent != SRC / "trailgrade":
        print(f"bench: trailgrade imported from {trailgrade.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import workloads

    workload = workloads.build(args.workload)
    checks = harness.Checks()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    status = 0
    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR / "out") as workdir:
        workdir = Path(workdir)
        try:
            if args.trace:
                spans = BENCH_DIR / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
                values = harness.measure_traced(workload, args.seed, workdir, checks, spans)
                units = harness.PER_LAYER
            else:
                values = harness.measure(workload, args.seed, args.seconds, workdir, checks, _import_probe())
                units = harness.END_TO_END
        except Exception:  # a failed operation: report it, print no metrics
            traceback.print_exc()
            checks.check("the run raised no exception", False)
            values, units, status = {}, (), 1

    print("env " + " ".join(f"{k}={v}" for k, v in _environment(workload).items()))
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} {values[name]!r} {unit}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"error_rate {checks.error_rate!r} ({checks.failed}/{checks.attempted})")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return status


if __name__ == "__main__":
    sys.exit(main())
