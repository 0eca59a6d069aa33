"""Span tracing installed from outside the package.

The package is never edited to be traced.  Instead each hooked function
is replaced, for the duration of the traced pass only, by a wrapper at
every ``gfdtd`` module attribute that holds it.  That covers both the
defining module (``gfdtd.stencils.apply_b``) and each module that
imported the name (``gfdtd.scheme.apply_b``), which is where the package
itself looks the function up when it calls it.

A hook whose module or attribute no longer exists is reported as
missing; its metrics are left out rather than reported as zero.
"""

import functools
import statistics
import sys
from time import perf_counter

# (module, function) pairs traced in the per-layer pass
HOOKS = (
    ("scenarios", "run"),
    ("scheme", "step"),
    ("stencils", "apply_b"),
    ("stencils", "apply_laplacian"),
    ("scenarios", "energy_expectation"),
    ("fields", "norm"),
    ("stability", "wavenumber_scan"),
    ("snapshots", "write_field_dump"),
    ("snapshots", "write_diagonal_snapshot"),
    ("snapshots", "write_runlog"),
    ("config", "parse_config"),
    ("cli", "main"),
)

# a timing percentile is reported only with at least ten samples beyond it
P90_MIN_CALLS = 100


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        spans, open_stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, open_stack[-1] if open_stack else -1]
            open_stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_stack.pop()

        return traced

    def stats(self):
        """{name: {"durations": [...], "self": [...], "parents": [...]}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"durations": [], "self": [], "parents": []})
            entry["durations"].append(end - start)
            entry["self"].append(end - start - child_time[i])
            entry["parents"].append(self.spans[parent][0] if parent >= 0 else None)
        return out


def install(tracer, package="gfdtd", hooks=HOOKS):
    """Wrap every hook; returns (restore list, names of missing hooks)."""
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    restore, missing = [], []
    for module_name, func_name in hooks:
        name = f"{module_name}.{func_name}"
        home = sys.modules.get(f"{package}.{module_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if not callable(original):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
    return restore, missing


def uninstall(restore):
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)


def summarize(stats, name, solves):
    """calls, self_s, total_s per solve and ms_p50 (ms_p90 from 100 calls)."""
    entry = stats.get(name, {"durations": [], "self": []})
    durations = entry["durations"]
    out = {
        "calls": len(durations) / solves,
        "self_s": sum(entry["self"]) / solves,
        "total_s": sum(durations) / solves,
        "ms_p50": 1e3 * statistics.median(durations) if durations else 0.0,
    }
    if len(durations) >= P90_MIN_CALLS:
        out["ms_p90"] = 1e3 * statistics.quantiles(durations, n=10)[-1]
    return out


def child_calls(stats, child, parent):
    """Number of ``child`` spans whose nearest traced ancestor is ``parent``."""
    entry = stats.get(child, {"parents": []})
    return sum(1 for p in entry["parents"] if p == parent)
