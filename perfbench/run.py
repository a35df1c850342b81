"""Benchmark of the delpezzo3 engine.

    python3 perfbench/run.py --workload cascade-w3 --seed 1 --seconds 40 --trace 0

Runs one workload (see workloads.py) in a closed loop: one caller, jobs
back to back until ``--seconds`` have passed, each output checked against
reference.json.  Every job runs in a fresh interpreter (job.py), as a
``dp3`` command does, so no job finds the engine's caches filled by the
one before.  The engine is imported from ``src`` of the checkout this file
sits in, and reads a seeded, relabelled copy of its fixture corpus
(inputs.py) through ``DP_FIXTURES``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` jobs alternate between untraced
and traced (spans.py), and the object carries the per-layer metrics.
Lines before it give every metric in words, the run environment and the
work counters.  Spans and a full result file go to ``.perfbench/`` in the
checkout.  Exit code 0 when every output matched, 1 when one did not, 2
when the engine's source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
JOB_TIMEOUT_S = 170
PROBE_REF_S = 0.010  # scaled times read as seconds on a machine that probes in this time

END_TO_END = {
    "setup_s": "s", "job_s": "s", "items_per_s": "1/s",
    "call_ms_p50": "ms", "call_ms_p90": "ms", "peak_rss_mb": "MB",
}
LAYERS = (
    "boundary.canonical_form", "boundary.graph_automorphisms",
    "boundary.delpezzo_check_width", "boundary.DecoratedType.is_admissible",
    "boundary.singularity_type_of", "chains.ld_chain", "chains.ld_fork",
    "swaps.cascade", "swaps.reverse_moves", "swaps.reverse_swap",
    "swaps.from_graph", "swaps.to_graph",
    "notation.parse", "notation.substitute",
    "fixtures.parse_fixture_file", "fixtures.abcd_enumerate",
    "simulator.replay", "simulator.extract_decorated_type",
    "homology.smith_normal_form", "homology.build_restriction_matrix",
    "reports.Report.render_csv",
)


def run_one(spec: dict, corpus: Path) -> dict:
    """One job in a fresh interpreter (job.py); its result."""
    out = subprocess.run(
        [sys.executable, str(HERE / "job.py"), json.dumps(spec)],
        env=dict(os.environ, DP_FIXTURES=str(corpus)),
        cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"job process exited with {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def run_jobs(spec: dict, corpus: Path, seconds: float, traced: bool) -> list[dict]:
    """Closed loop: jobs back to back until ``seconds`` have passed (at
    least one job, or one pair).  With ``traced``, untraced and traced jobs
    alternate, so that drift in machine speed falls on both sides alike."""
    kinds = (False, True) if traced else (False,)
    jobs = []
    t_end = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < t_end:
        for kind in kinds:
            jobs.append(run_one(dict(spec, job=len(jobs), traced=kind), corpus))
    return jobs


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def probe_scales(jobs) -> list[float]:
    """Per job: PROBE_REF_S over the mean time of the job's probes (one
    before its set-up, one before its first call, one after its last and
    some between its calls).

    On a shared host the speed of a process swings by up to two thirds as
    other tenants come and go, for seconds or minutes at a time.
    Multiplying a job's times by its scale cancels those swings, which slow
    the probe as much as the engine, and keeps the engine's own changes,
    which do not touch it.  A single probe is too short to say much about
    the second around it, hence the mean over the job, which like the
    job's time sums the slow moments with the fast."""
    return [PROBE_REF_S / statistics.fmean(j["probes"]) for j in jobs]


def end_to_end(jobs, scaled: bool = True) -> dict[str, float]:
    """The times of each job, its set-up included, are multiplied by its
    probe scale."""
    scales = probe_scales(jobs) if scaled else [1.0] * len(jobs)
    setups = [j["setup_s"] * k for j, k in zip(jobs, scales)]
    calls = [[t * k for t in j["call_s"]] for j, k in zip(jobs, scales)]
    walls = [sum(c) for c in calls]
    # each call's median over the jobs, so one slow moment of the machine
    # moves no percentile
    calls_ms = [1000 * statistics.median(c[i] for c in calls) for i in range(len(calls[0]))]
    return {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(walls),
        "items_per_s": jobs[0]["items"] * len(jobs) / sum(walls),
        "call_ms_p50": nearest_rank(calls_ms, 0.5),
        "call_ms_p90": nearest_rank(calls_ms, 0.9),
        "peak_rss_mb": statistics.median(j["rss_mb"] for j in jobs),
    }


def per_layer(jobs) -> dict[str, tuple[float, str]]:
    """Per traced job: calls, self time and errors per layer; the median
    over jobs is reported."""
    untraced = [j for j in jobs if "layers" not in j]
    traced = [j for j in jobs if "layers" in j]

    def med(value) -> float:
        return statistics.median(value(j) for j in traced)

    def cell(j, name, k):
        row = j["layers"].get(name)
        return row[k] if row else 0

    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (med(lambda j: cell(j, name, 0)), "count")
        out[f"{name}.self_s"] = (med(lambda j: cell(j, name, 1)), "s")
    out["swaps.reverse_swap.errors"] = (med(lambda j: cell(j, "swaps.reverse_swap", 2)), "count")
    out["swaps.cascade.dedup_ratio"] = (
        med(lambda j: j["cascade_keys"] / j["canon_in_cascade"] if j["canon_in_cascade"] else 0.0),
        "ratio",
    )
    traced_s = med(lambda j: j["wall_s"])
    untraced_s = statistics.median(j["wall_s"] for j in untraced)
    out["job_s.traced"] = (traced_s, "s")
    out["job_s.untraced"] = (untraced_s, "s")
    out["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    out["tracing.self_s_total"] = (med(lambda j: sum(row[1] for row in j["layers"].values())), "s")
    out["tracing.uncovered_s"] = (
        med(lambda j: j["wall_s"] - sum(row[1] for row in j["layers"].values())), "s",
    )
    return out


def environment(jobs) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    engine = sorted((SRC / "delpezzo3").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in engine),
        "work_per_job": jobs[0]["counters"],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("cascade-w3", "verify-corpus", "canon-symmetric"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delpezzo3" / "__init__.py").is_file():
        print(f"error: no engine source under {SRC}", file=sys.stderr)
        return 2
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from inputs import relabel_corpus

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    corpus = WORK / f"corpus-{tag}-{os.getpid()}"
    spec = {
        "src": str(SRC), "workload": args.workload, "seed": args.seed, "size": args.size,
        "reference": str(args.reference.resolve()),
        "spans": str(WORK / "spans" / tag),
    }
    shutil.rmtree(spec["spans"], ignore_errors=True)
    try:
        relabel_corpus(SRC / "delpezzo3" / "data", corpus, args.seed)
        jobs = run_jobs(spec, corpus, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(corpus, ignore_errors=True)
    raw = {}
    if args.trace:
        metrics = per_layer(jobs)
    else:
        raw = end_to_end(jobs, scaled=False)
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(jobs).items()}

    attempted = len(jobs) * len(jobs[0]["calls"])
    failed = sum(j["failed"] for j in jobs)
    problems = [p for j in jobs for p in j["problems"]]
    env = environment(jobs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"{'traced' if args.trace else 'untraced'}, {len(jobs)} jobs")
    print(f"environment: {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        unscaled = f"  (unscaled {raw[name]:.6f})" if raw.get(name, value) != value else ""
        print(f"  {name:44s} {value:14.6f} {unit}{unscaled}")
    print(f"  {'failed_share':44s} {failed / attempted:14.6f} share of {attempted} outputs")
    for p in problems[:20]:
        print(f"MISMATCH {p}")
    out = WORK / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        dict(result, failed_share=failed / attempted, unscaled=raw, environment=env,
             calls=jobs[0]["calls"],
             jobs=[{k: j[k] for k in ("setup_s", "wall_s", "call_s", "probes", "rss_mb", "failed")}
                   for j in jobs],
             problems=problems), indent=1,
    ))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
