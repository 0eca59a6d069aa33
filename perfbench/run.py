"""gfdtd benchmark.

    python3 perfbench/run.py --workload paper2d --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  See README.md next to this
file.
"""

import os

# one single-threaded process: pin every BLAS/OpenMP pool before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SCRATCH = ROOT / ".bench_tmp"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="gfdtd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """gfdtd from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    try:
        import gfdtd
    except ImportError as exc:
        raise SystemExit(f"cannot import gfdtd from {src}: {exc}")
    if not Path(gfdtd.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"gfdtd imported from {gfdtd.__file__}, not from {src}")


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from perfbench import bench, machine
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        env = machine.environment()
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        print("env " + json.dumps(env))
        ops = bench.Ops()
        passes = bench.per_layer if args.trace else bench.end_to_end
        metrics = passes(workload, args.seconds, ops, print)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            SCRATCH.rmdir()
    print(f"checks: {ops.attempted} attempted, {len(ops.failed)} failed"
          + (f" ({', '.join(sorted(set(ops.failed)))})" if ops.failed else ""))
    print(json.dumps({
        "correct": not ops.failed,
        "attempted": ops.attempted,
        "failed": len(ops.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
