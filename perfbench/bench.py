"""Measurement passes.

Closed loop, one solve at a time, in one single-threaded process.

* ``end_to_end`` (``--trace 0``): set-ups for SETUP_SECONDS, one untimed
  solve under tracemalloc for peak memory, then back-to-back timed solves
  for ``seconds`` (at least MIN_SOLVES).  Medians, rescaled by the
  machine-speed probe (machine.Probe).
* ``per_layer`` (``--trace 1``): plain timed solves for half of
  ``seconds``, then ``trace_solves`` solves with the span wrappers
  installed, then the memory-bandwidth floor.

Every solve's output is checked, and each check counts as one attempted
operation.
"""

import statistics
import tracemalloc
from time import perf_counter

from . import machine, tracing

MIN_SOLVES = 3
MIN_SETUPS = 5
SETUP_SECONDS = 1.0
SETUP_CHUNK_S = 0.01

# bytes a call must move at least, per grid cell (see README.md):
# apply_b reads its input plane and V and writes one plane
APPLY_B_BYTES_PER_CELL = 3 * 8

SNAPSHOT_WRITERS = ("snapshots.write_field_dump", "snapshots.write_diagonal_snapshot",
                    "snapshots.write_runlog")


def step_bytes_per_cell(N):
    """A full step applies B 2(2N+1) times, each at the apply_b minimum."""
    return 2 * (2 * N + 1) * APPLY_B_BYTES_PER_CELL


class Ops:
    """Checks attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def record(self, results):
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(name)


def _finish(workload, problem, output, ops):
    """Check one solve's output, then remove whatever it wrote."""
    try:
        ops.record(workload.check(problem, output))
    finally:
        workload.cleanup(output)


class Timer:
    """Wall times, each rescaled by the probe runs just before and after."""

    def __init__(self, probe):
        self.probe = probe
        self.last_probe = probe()
        self.wall = []
        self.scaled = []

    def record(self, elapsed):
        before, self.last_probe = self.last_probe, self.probe()
        self.wall.append(elapsed)
        self.scaled.append(elapsed * machine.PROBE_NOMINAL_S / (0.5 * (before + self.last_probe)))

    def time(self, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        self.record(perf_counter() - t0)
        return result

    def median(self):
        return statistics.median(self.scaled)

    def describe(self):
        q = statistics.quantiles(self.scaled, n=4) if len(self.scaled) > 1 else self.scaled * 2
        return (f"median of {len(self.scaled)}, q1 {q[0]:.6g}, q3 {q[-1]:.6g}; "
                f"wall median {statistics.median(self.wall):.6g} s")


def _solve_for(workload, problem, ops, seconds, timer):
    output = None
    start = perf_counter()
    while len(timer.wall) < MIN_SOLVES or perf_counter() - start < seconds:
        output = timer.time(workload.solve, problem)
        _finish(workload, problem, output, ops)
    return output


def end_to_end(workload, seconds, ops, say):
    # set-ups run in chunks of at least SETUP_CHUNK_S, a probe between
    # chunks; each chunk gives one rescaled time per set-up
    setup = Timer(machine.Probe(workload.setup_probe_work()))
    start = perf_counter()
    while len(setup.wall) < MIN_SETUPS or perf_counter() - start < SETUP_SECONDS:
        reps, t0 = 0, perf_counter()
        while reps == 0 or perf_counter() - t0 < SETUP_CHUNK_S:
            problem = workload.setup()
            reps += 1
        setup.record((perf_counter() - t0) / reps)
    setup_s = setup.median()

    # first solve: untimed, under tracemalloc; it also warms lazy state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        output = workload.solve(problem)
        peak_mib = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()
    _finish(workload, problem, output, ops)

    timer = Timer(machine.Probe(workload.probe_work()))
    output = _solve_for(workload, problem, ops, seconds, timer)
    run_s = timer.median()
    say(f"setup_s     {setup_s:.6g} s  ({setup.describe()})")
    say(f"run_s       {run_s:.6g} s  ({timer.describe()})")
    say(f"peak_mem_mb {peak_mib:.6g} MiB  (tracemalloc peak above the solve's inputs)")
    for name, (value, unit) in workload.figures(run_s, problem, output).items():
        say(f"{name:<11} {value:.6g} {unit}")
    return {"setup_s": (setup_s, "s"), "run_s": (run_s, "s"), "peak_mem_mb": (peak_mib, "MiB")}


def per_layer(workload, seconds, ops, say):
    probe = machine.Probe(workload.probe_work())
    problem = workload.setup()
    plain = Timer(probe)
    _solve_for(workload, problem, ops, seconds / 2, plain)

    tracer = tracing.Tracer()
    traced, written = Timer(probe), []
    restore, missing = tracing.install(tracer)
    try:
        for _ in range(workload.trace_solves):
            output = traced.time(workload.solve, problem)
            written.append(workload.bytes_written(output))
            _finish(workload, problem, output, ops)
    finally:
        tracing.uninstall(restore)

    gbps, copy_bytes = machine.stream_copy_gbps()
    plane_ms = machine.plane_copy_ms()
    stats = tracer.stats()
    solves = workload.trace_solves
    metrics = {}
    say(f"{'span':<36}{'calls':>9}{'self_s':>12}{'total_s':>12}{'ms_p50':>11}{'ms_p90':>11}"
        f"   (per solve, {solves} traced solves)")
    summaries = {}
    for module_name, func_name in tracing.HOOKS:
        name = f"{module_name}.{func_name}"
        if name in missing:
            say(f"{name:<36}  MISSING: no attribute {func_name} in gfdtd.{module_name}")
            continue
        s = summaries[name] = tracing.summarize(stats, name, solves)
        p90 = f"{s['ms_p90']:11.4g}" if "ms_p90" in s else f"{'-':>11}"
        say(f"{name:<36}{s['calls']:9.6g}{s['self_s']:12.5g}{s['total_s']:12.5g}"
            f"{s['ms_p50']:11.4g}{p90}")
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.self_s"] = (s["self_s"], "s")
        metrics[f"{name}.total_s"] = (s["total_s"], "s")
        metrics[f"{name}.ms_p50"] = (s["ms_p50"], "ms")

    bandwidth = gbps * 1e9
    if "scheme.step" in summaries and "stencils.apply_b" in summaries:
        step_calls = summaries["scheme.step"]["calls"] * solves
        in_step = tracing.child_calls(stats, "stencils.apply_b", "scheme.step")
        metrics["scheme.apply_b_per_step"] = (
            in_step / (2 * step_calls) if step_calls else 0.0, "count")
    if "stencils.apply_b" in summaries:
        metrics["stencils.apply_b.roofline_frac"] = (_roofline(
            APPLY_B_BYTES_PER_CELL * workload.cells, summaries["stencils.apply_b"], bandwidth), "1")
    if "scheme.step" in summaries:
        metrics["scheme.step.roofline_frac"] = (_roofline(
            step_bytes_per_cell(workload.N) * workload.cells, summaries["scheme.step"],
            bandwidth), "1")
    bytes_written = sum(written) / solves
    writers = [summaries[w]["total_s"] for w in SNAPSHOT_WRITERS if w in summaries]
    metrics["snapshots.bytes_written"] = (bytes_written, "B")
    metrics["snapshots.write_mbps"] = (
        bytes_written / sum(writers) / 1e6 if bytes_written and sum(writers) else 0.0, "MB/s")
    metrics["mem.stream_copy_gbps"] = (gbps, "GB/s")
    metrics["mem.plane_copy_ms"] = (plane_ms, "ms")
    overhead = traced.median() / plain.median() - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")
    metrics["trace.missing_hooks"] = (len(missing), "count")
    say(f"untraced run_s {plain.median():.6g} s ({plain.describe()})")
    say(f"traced run_s   {traced.median():.6g} s ({traced.describe()})")
    rows, cols = machine.PLANE_SHAPE
    say(f"memory floor: copy of {copy_bytes / 2 ** 20:.0f} MiB arrays {gbps:.4g} GB/s; "
        f"{rows}x{cols} float64 plane ({8 * rows * cols / 1e6:.3g} MB) copy {plane_ms:.4g} ms")
    for name in ("scheme.apply_b_per_step", "stencils.apply_b.roofline_frac",
                 "scheme.step.roofline_frac", "snapshots.bytes_written",
                 "snapshots.write_mbps", "trace.overhead_frac", "trace.missing_hooks"):
        if name in metrics:
            value, unit = metrics[name]
            say(f"{name:<36}{value:.6g} {unit}")
    if missing:
        say("missing hooks: " + ", ".join(missing))
    return metrics


def _roofline(bytes_per_call, summary, bandwidth):
    """Computed minimum bytes / (median call time x measured bandwidth)."""
    if not summary["calls"]:
        return 0.0
    return bytes_per_call / (summary["ms_p50"] * 1e-3 * bandwidth)
