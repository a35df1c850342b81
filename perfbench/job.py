"""One benchmark job, in a fresh interpreter.

    DP_FIXTURES=<corpus> python3 perfbench/job.py '<spec as JSON>'

run.py starts one of these per job, so that every job begins the way a
``dp3`` command does: nothing in the engine's caches, nothing left by the
job before.  The spec names the engine's source directory, the workload,
seed, size, reference file, job number, whether to trace and the
directory for the spans.

The process times its own set-up (importing the engine and loading the
corpus named by ``DP_FIXTURES``), runs the workload's calls in order,
checks every output and prints one JSON line: the set-up and call times,
machine-speed probes (untraced jobs only), mismatches, the peak memory the
engine added to the process and, when traced, calls and self time per
layer.
"""

from __future__ import annotations

import gc
import itertools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE_EVERY_S = 0.1


def rss_mb(field: str) -> float:
    """``VmRSS`` (resident now) or ``VmHWM`` (peak) of this process, in MB.
    Read from /proc rather than getrusage, whose peak carries over the
    parent's across fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise LookupError(field)


def probe() -> float:
    """Seconds a fixed pure-Python task takes: sorting tuples, filling a
    dict, comparing permutations, the operations the engine spends its time
    on, but none of its code.  The cyclic garbage collector is off while it
    runs, so the engine's heap does not add to its time; it works on small
    tables, so that it adds little to the process's peak memory."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(5):
            rows = sorted((i * 7919 % 1009, str(i), (i, i + 1)) for i in range(2000))
            table = {row[1]: row for row in rows}
        sum(1 for p in itertools.permutations(range(7)) if p < (3, 2, 1, 0, 4, 5, 6))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_job(workload, probes: list[float] | None = None) -> dict:
    """Every call in order, timed; outputs checked afterwards, outside the
    job's time.  The job's time is the sum of its calls'.

    Given a list of ``probes``, a probe runs before the first call, after
    the last and between calls at most every PROBE_EVERY_S; its time is
    appended (see run.probe_scales)."""
    outputs, call_s = [], []
    if probes is not None:
        probes.append(probe())
    last_probe = time.perf_counter()
    for done, call in enumerate(workload.calls, 1):
        t0 = time.perf_counter()
        try:
            outputs.append((True, call.run()))
        except Exception as exc:  # an engine failure is a failed output
            outputs.append((False, exc))
        call_s.append(time.perf_counter() - t0)
        if probes is not None and (
            done == len(workload.calls) or time.perf_counter() - last_probe >= PROBE_EVERY_S
        ):
            probes.append(probe())
            last_probe = time.perf_counter()
    problems = []
    for call, (ok, out) in zip(workload.calls, outputs):
        try:
            found = call.check(out) if ok else [f"raised {out!r}"]
        except Exception as exc:  # output the check cannot read is a mismatch
            found = [f"unreadable output: {exc!r}"]
        problems.append([f"{call.name}: {p}" for p in found])
    return {
        "wall_s": sum(call_s), "call_s": call_s, "probes": probes or [],
        "failed": sum(1 for found in problems if found),
        "problems": [p for found in problems for p in found],
    }


def main(spec: dict) -> dict:
    bare_mb = rss_mb("VmRSS")
    probes = None if spec["traced"] else [probe()]
    t0 = time.perf_counter()
    sys.path[:0] = [spec["src"], str(HERE)]
    import workloads  # imports the engine

    workloads.load_corpus()
    setup_s = time.perf_counter() - t0
    reference = json.loads(Path(spec["reference"]).read_text())
    workload = workloads.build(spec["workload"], spec["seed"], spec["size"], reference)
    tracer = None
    if spec["traced"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        job = run_job(workload, probes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    job.update(
        setup_s=setup_s,
        rss_mb=rss_mb("VmHWM") - bare_mb,
        calls=[c.name for c in workload.calls],
        items=workload.items,
        counters=workload.counters,
    )
    if tracer is not None:
        job["layers"] = tracer.per_layer()
        job["canon_in_cascade"] = tracer.calls_under("boundary.canonical_form", "swaps.cascade")
        job["cascade_keys"] = workload.cascade_keys
        tracer.write(Path(spec["spans"]) / f"job-{spec['job']}.csv.gz", spec["job"])
    return job


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
