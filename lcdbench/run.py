"""Run one lcdkit benchmark workload and print its metrics.

    python3 lcdbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds lcdkit's sources under src/.
The workload's inputs come from --seed.  After set-up the job list is
repeated in passes until --seconds have gone by (at least MIN_PASSES
passes); every job's output is checked each time.  The last line of
standard output is one JSON object with "correct", "attempted", "failed"
and "metrics".  With --trace 0 the metrics are the end-to-end ones, their
times scaled to a reference host speed (hostspeed.py); with --trace 1
they are the per-layer ones from a traced run, whose spans are also
written under the results directory.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
sources or the arguments are missing or wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs, lcdkit_modules  # noqa: E402

SETUP_REPEATS = 15
MIN_PASSES = 3  # the warm-up pass and at least two timed ones
MIN_TRACED_PASSES = 4  # warm-up, traced, untraced, traced


def fresh_import():
    """Import lcdkit and all its modules as if for the first time."""
    for name in [m for m in sys.modules if m == "lcdkit" or m.startswith("lcdkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("lcdkit")
    return lcdkit_modules(pkg)


def git_revision(root: Path) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = root / ".git"
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
    return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", type=Path, default=HERE / "results",
                    help="where the result file (and, traced, the spans) go")
    return ap.parse_args(argv)


def run_passes(prepared, seconds: float, tracer=None):
    """Repeat the job list.  Pass 0 warms up: its operations are checked and
    counted but not timed, since its checks fill the oracle's verdicts.
    With a tracer, odd passes record spans while a job runs (its check runs
    untraced) and times stay wall times; without one, times are scaled to
    the reference host speed (see hostspeed.py)."""
    jobs = prepared.jobs
    job_spans = [[] for _ in jobs]
    pass_spans, per_pass, problems = [], [], []
    attempted = failed = 0
    min_passes = MIN_TRACED_PASSES if tracer else MIN_PASSES
    clock = hostspeed.WallClock() if tracer else hostspeed.SpeedSampler()
    start = time.perf_counter()
    p = 0
    with clock:
        while p < min_passes or time.perf_counter() - start < seconds:
            trace_this = tracer is not None and p % 2 == 1
            if trace_this:
                tracer.start_pass(p)
            gc.collect()
            t0 = time.perf_counter()
            prepared.begin_pass()
            for i, job in enumerate(jobs):
                for _ in range(job.repeat):
                    attempted += 1
                    try:
                        with (tracer.recording(job.name) if trace_this
                              else contextlib.nullcontext()):
                            j0 = time.perf_counter()
                            out = job.run()
                            j1 = time.perf_counter()
                    except Exception:
                        failed += 1
                        print(f"lcdbench: {job.name} raised:\n{traceback.format_exc()}",
                              file=sys.stderr)
                        continue
                    if p > 0:
                        job_spans[i].append((j0, j1))
                    try:
                        job.check(out)
                    except Exception as exc:  # a wrong or malformed output
                        problems.append(f"{job.name}: {type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            if trace_this:
                tracer.end_pass()
                per_pass.append(tracing.pass_metrics(tracer, p))
            if p > 0:
                pass_spans.append((trace_this, t0, t1))
            p += 1
    untraced = [clock.scaled(a, b) for traced, a, b in pass_spans if not traced]
    return {"job_times": [[clock.scaled(a, b) for a, b in spans] for spans in job_spans],
            "untraced": untraced,
            "traced": [clock.scaled(a, b) for traced, a, b in pass_spans if traced],
            "untraced_wall": [b - a for traced, a, b in pass_spans if not traced],
            "per_pass": per_pass, "passes": p, "attempted": attempted,
            "failed": failed, "problems": problems}


def timed_setups(setup, inp):
    """Run the set-up SETUP_REPEATS times from a fresh import; returns the
    last (lk, prepared) with each repeat's scaled and wall time."""
    spans = []
    with hostspeed.SpeedSampler() as clock:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lk = fresh_import()
            prepared = setup(lk, inp)
            spans.append((t0, time.perf_counter()))
    return lk, prepared, [clock.scaled(a, b) for a, b in spans], [b - a for a, b in spans]


def end_to_end(res, setup_times) -> dict:
    medians = [statistics.median(t) for t in res["job_times"] if t]
    geomean = math.exp(statistics.fmean(math.log(t) for t in medians))
    return {
        "pass_s": (statistics.median(res["untraced"]), "s"),
        "job_geomean_s": (geomean, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(res, tracer) -> dict:
    values = tracing.combine(res["per_pass"], tracing.setup_metrics(tracer),
                             res["traced"], res["untraced"])
    return {name: (float(values[name]), unit)
            for name, unit in tracing.per_layer_metric_names()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lcdkit" / "__init__.py").is_file():
        print(f"lcdbench: no lcdkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch_root = HERE / "scratch"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run(args, scratch: Path) -> int:
    generate, setup = WORKLOADS[args.workload]
    inp = Inputs(args.seed, ROOT, scratch)
    generate(inp)

    tracer = None
    setup_times = setup_wall = []
    if args.trace:
        lk = fresh_import()
        tracer = tracing.Tracer(lk.pkg)
        with tracer.recording("setup"):
            prepared = setup(lk, inp)
    else:
        lk, prepared, setup_times, setup_wall = timed_setups(setup, inp)
    where = Path(lk.pkg.__file__).resolve()
    src_dir = (ROOT / "src").resolve()
    if src_dir not in where.parents:
        print(f"lcdbench: imported lcdkit from {where}, not {src_dir}", file=sys.stderr)
        return 2

    res = run_passes(prepared, args.seconds, tracer)
    metrics = per_layer(res, tracer) if tracer else end_to_end(res, setup_times)
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    revision = git_revision(ROOT)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    args.results_dir.mkdir(parents=True, exist_ok=True)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "revision": revision, "python": platform.python_version(),
            "nproc": os.cpu_count(), "jobs": len(prepared.jobs),
            "passes": res["passes"]}
    detail = {"meta": meta, "result": result, "setup_s": setup_times,
              "setup_wall_s": setup_wall, "untraced_pass_s": res["untraced"],
              "untraced_pass_wall_s": res["untraced_wall"], "traced_pass_s": res["traced"],
              "job_median_s": {job.name: statistics.median(t)
                               for job, t in zip(prepared.jobs, res["job_times"]) if t},
              "problems": res["problems"]}
    (args.results_dir / f"{stamp}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        tracer.dump(args.results_dir / f"spans-{stamp}.json.gz", revision, meta)

    for problem in res["problems"][:20]:
        print(f"lcdbench: check failed: {problem}", file=sys.stderr)
    print(f"lcdbench: {args.workload} seed={args.seed} jobs={meta['jobs']} "
          f"passes={meta['passes']} attempted={res['attempted']} failed={res['failed']}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"lcdbench:   {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
