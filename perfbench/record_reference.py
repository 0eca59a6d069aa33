"""Record paper2d's reference results for every seed's packet shift.

    python3 perfbench/record_reference.py

Writes reference_paper2d.json next to this file: the final norm, energy
and in-barrier probability of one paper2d solve for each packet-centre
shift a seed can pick.  Run it only when the workload's inputs or step
count change; the benchmark checks later code against these numbers.
"""

import contextlib
import json
import sys
import tempfile

from run import SCRATCH, import_package


def main():
    import_package()
    from perfbench.workloads import REFERENCE_FILE, Paper2D

    results = {}
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        workload = Paper2D(0, workdir)
        for dj in range(-workload.shift, workload.shift + 1):
            for dk in range(-workload.shift, workload.shift + 1):
                workload.dj, workload.dk = dj, dk
                problem = workload.setup()
                summary = workload.summary(problem, workload.solve(problem))
                results[f"{dj},{dk}"] = {key: summary[key]
                                         for key in ("norm", "energy_j", "barrier_prob")}
                print(dj, dk, results[f"{dj},{dk}"], flush=True)
    with contextlib.suppress(OSError):   # still in use by a benchmark run
        SCRATCH.rmdir()
    REFERENCE_FILE.write_text(json.dumps({"steps": workload.steps, "results": results},
                                         indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
