"""Batch-job benchmark for the helioq CLI.

    python3 perfbench/run.py --workload gate-calibration --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout (it needs src/helioq).  One client
in one process runs the seeded batch of CLI jobs back to back through
`helioq.cli.main(argv)` (a closed loop), repeating the batch
round(seconds / nominal batch time) times, and checks every job's output
outside the timed region.  Before timing, it runs the reference seed's
frozen jobs once and compares them with reference.json.  With --trace 0
it prints the end-to-end metrics; with --trace 1 it alternates untraced
and traced batches and prints the per-layer metrics.  The last stdout line is one JSON object
with keys correct, attempted, failed and metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 10
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import helioq.cli
helioq.cli.load_config(sys.argv[2], [])
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- run record --------------------------------------------------------------


def _blas_info() -> dict:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import numpy as np

    info: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except Exception as exc:  # numpy without the dict form
        info["library"] = f"unknown ({type(exc).__name__})"
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                threads[Path(path).name] = int(fn())
                break
    info["threads"] = threads
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "helioq").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def run_record(args, jobs, reps) -> dict:
    import numpy as np
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "batch_jobs": len(jobs),
        "batches": reps,
        "job_mix": workloads.mix(jobs),
    }


# --- set-up ------------------------------------------------------------------


def measure_setup(config_path: Path, repeats: int) -> list[float]:
    """Fresh-interpreter import of helioq.cli plus the first load_config."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if out.returncode != 0:
            fail(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def setup_schedule(batches: int) -> list[int]:
    """Set-up probes to take before each batch, SETUP_REPEATS in all.

    Spreading them over the run makes their median sample the same stretch
    of host speed as the batches, not only its first seconds.
    """
    return [SETUP_REPEATS // batches + (i < SETUP_REPEATS % batches) for i in range(batches)]


# --- job execution -----------------------------------------------------------


def write_configs(jobs, cfg_dir: Path) -> dict[str, Path]:
    cfg_dir.mkdir(parents=True)
    paths = {}
    for job in jobs:
        p = cfg_dir / f"{job.name}.json"
        p.write_text(json.dumps(job.config))
        paths[job.name] = p
    return paths


class Runner:
    """Calls the CLI in-process, capturing what it prints."""

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed job, not a failed benchmark
                print(traceback.format_exc(limit=-3))
                code = 1
        return code, buf.getvalue()


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def warm_up(runner, jobs, cfg_paths, seen: set) -> None:
    """Run the first job of each kind not in `seen` once, untimed, so that
    lazy imports and the package's own memoized tables are in place before
    timing."""
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            runner.call(job.argv(cfg_paths[job.name]))


def run_reference(runner, checker, workload: str, ref_dir: Path) -> list[dict]:
    """Run the reference seed's frozen jobs once, untimed, and compare their
    outputs with reference.json, whatever the run's own seed."""
    jobs = workloads.reference_jobs(workload, str(ref_dir / "out"))
    cfg_paths = write_configs(jobs, ref_dir / "configs")
    return run_batch(runner, jobs, cfg_paths, checker, require_reference=True)


def run_batch(runner, jobs, cfg_paths, checker, tracer=None, require_reference=False):
    """One pass over the batch; returns per-job records."""
    import checks

    records = []
    for job in jobs:
        span = tracer.begin_job(job.name) if tracer else None
        t0 = time.perf_counter()
        try:
            code, out = runner.call(job.argv(cfg_paths[job.name]))
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.end_job(span)
        rec = {"job": job, "wall": wall, "code": code, "error": None,
               "known_defect": None, "digest": None, "bytes": 0}
        if code != 0:
            rec["error"] = f"exit {code}: {out.strip()[-400:]}"
        else:
            try:
                checker.check(job, out, require_reference)
                arts = checks.artifact_paths(out)
                rec["digest"] = _digest_files(arts)
                rec["bytes"] = sum(p.stat().st_size for p in arts)
            except (checks.CheckError, OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                rec["error"] = f"check failed: {type(exc).__name__}: {exc}"
                rec["known_defect"] = getattr(exc, "name", None)
        records.append(rec)
    return records


# --- metrics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    With too few samples for that, the maximum (p100).
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(records, setup_times, batch_size, failed, attempted) -> tuple[dict, list[str]]:
    """End-to-end metrics of the untraced batches.

    A slow spell on a shared host stretches every job it overlaps, so the
    throughput is the median over batches, and a job's wall time is the
    median over its repeats before the median over jobs is taken.  The
    tail keeps every sample: slow spells are what it reports.
    """
    walls = [r["wall"] for r in records]
    batches = [records[i:i + batch_size] for i in range(0, len(records), batch_size)]
    per_batch = [
        sum(1 for r in b if r["error"] is None) / sum(r["wall"] for r in b) for b in batches
    ]
    per_job: dict[str, list[float]] = {}
    for r in records:
        per_job.setdefault(r["job"].name, []).append(r["wall"])
    job_wall = {name: statistics.median(v) for name, v in per_job.items()}
    tail_s, tail_pct = tail(walls)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (statistics.median(per_batch), "jobs/s"),
        "job_p50_s": (statistics.median(job_wall.values()), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    notes = [
        f"setup_s: median of {len(setup_times)} fresh interpreters",
        f"jobs_per_s: median of {len(batches)} batches",
        f"job_p50_s: median of {len(job_wall)} jobs, each the median of "
        f"{len(batches)} repeats",
        f"job_tail_s: p{tail_pct:.1f} of {len(walls)} job runs "
        f"({round(len(walls) * (1 - tail_pct / 100))} beyond it)",
        f"error_rate: {failed / attempted:.6g} ratio ({failed} failed of {attempted}, "
        f"reference jobs included)",
    ]
    by_kind: dict[str, list[float]] = {}
    for r in records[:batch_size]:
        by_kind.setdefault(r["job"].kind, []).append(job_wall[r["job"].name])
    for kind, vals in sorted(by_kind.items()):
        notes.append(
            f"{kind.replace('-', '_')}_p50_s: {statistics.median(vals):.6g} s "
            f"(median of {len(vals)} jobs x {len(batches)} repeats)"
        )
    return m, notes


def result_line(correct, records, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"] is not None),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


# --- main --------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "helioq" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'helioq'}; run from a helioq checkout")
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    out_dir = run_dir / "out"
    jobs = workloads.generate(args.workload, args.seed, str(out_dir))
    workloads.validate(jobs, SRC / "helioq" / "schemas" / "experiment.schema.json")
    reps = max(1, round(args.seconds / workloads.NOMINAL_BATCH_S[args.workload]))

    try:
        return _run(args, jobs, reps, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, jobs, reps, run_dir) -> int:
    import checks

    cfg_paths = write_configs(jobs, run_dir / "configs")
    import helioq.cli

    runner = Runner(helioq.cli)
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    checker = checks.Checker(runner.call, run_dir / "checks", reference)
    (run_dir / "checks").mkdir()
    record = run_record(args, jobs, reps)
    # the reference jobs also warm up the kinds they cover
    ref_records = run_reference(runner, checker, args.workload, run_dir / "reference")
    warm_up(runner, jobs, cfg_paths, {r["job"].kind for r in ref_records})

    if args.trace:
        metrics, records, correct, notes = _traced(args, jobs, reps, runner, cfg_paths, checker, record)
    else:
        # set-up time is an end-to-end metric; the traced run does not report it
        records, setup_times = [], []
        for n_setup in setup_schedule(reps):
            setup_times += measure_setup(cfg_paths[jobs[0].name], n_setup)
            records += run_batch(runner, jobs, cfg_paths, checker)
        record["setup_s_samples"] = setup_times
        every = ref_records + records
        failed = sum(1 for r in every if r["error"])
        metrics, notes = end_to_end(records, setup_times, len(jobs), failed, len(every))
        correct = _deterministic(records, notes)
    every = ref_records + records
    failures = [f"{r['job'].name}: {r['error']}" for r in every if r["error"]]
    # a failure that is a documented package defect is counted and listed
    # but does not make the run incorrect (checks.KnownDefect)
    correct = correct and all(r["known_defect"] for r in every if r["error"])
    notes.append(f"reference jobs: {len(ref_records)} frozen jobs of seed "
                 f"{workloads.REFERENCE_SEED}, checked against reference.json, untimed")
    record.update({
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "notes": notes,
        "failures": failures,
        "job_walls_s": [[r["job"].name, r["wall"]] for r in records],
    })
    (WORK / f"record-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{reps} batch(es) of {len(jobs)} jobs, closed loop, 1 client")
    print("job mix: " + ", ".join(f"{k} x{v}" for k, v in record["job_mix"].items()))
    print(f"run record: git {record['git_revision']}, source {record['source_sha256']}, "
          f"python {record['python']}, numpy {record['numpy']}, scipy {record['scipy']}, "
          f"blas {record['blas']}, nproc {record['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for f, n in collections.Counter(failures).items():
        print(f"  FAILED {f}" + (f" (x{n})" if n > 1 else ""))
    print(result_line(correct, every, metrics))
    return 0


def _deterministic(records, notes) -> bool:
    """Every repeat of a job must write byte-identical artifacts."""
    seen: dict[str, str] = {}
    ok = True
    for r in records:
        if r["digest"] is None:
            continue
        prev = seen.setdefault(r["job"].name, r["digest"])
        if prev != r["digest"]:
            notes.append(f"NONDETERMINISTIC artifacts: {r['job'].name}")
            ok = False
    return ok


def _traced(args, jobs, reps, runner, cfg_paths, checker, record):
    import spans as spanmod

    tracer = spanmod.Tracer()
    tracer.install()
    pairs = max(1, reps // 2)
    untraced, traced, per_batch = [], [], []
    try:
        for _ in range(pairs):
            untraced += run_batch(runner, jobs, cfg_paths, checker)
            first = len(tracer.spans)
            batch = run_batch(runner, jobs, cfg_paths, checker, tracer)
            traced += batch
            per_batch.append(spanmod.layer_metrics(
                tracer.spans[first:], first, sum(r["bytes"] for r in batch)))
    finally:
        tracer.uninstall()
    (WORK / f"spans-{args.workload}-s{args.seed}.json").write_text(
        json.dumps({"missing": tracer.missing, "spans": tracer.to_records()}))

    notes = []
    metrics = {}
    counts_repeat = True
    for name, (_, unit) in per_batch[0].items():
        vals = [b[name][0] for b in per_batch]
        if name in spanmod.COUNT_METRICS:
            metrics[name] = (vals[0], unit)
            if len(set(vals)) > 1:
                notes.append(f"COUNT DIFFERS between traced batches: {name} {vals}")
                counts_repeat = False
        else:
            metrics[name] = (statistics.median(vals), unit)
    ok_u = sum(1 for r in untraced if r["error"] is None)
    ok_t = sum(1 for r in traced if r["error"] is None)
    jps_u = ok_u / sum(r["wall"] for r in untraced)
    jps_t = ok_t / sum(r["wall"] for r in traced)
    metrics["trace.untraced_jobs_per_s"] = (jps_u, "jobs/s")
    metrics["trace.traced_jobs_per_s"] = (jps_t, "jobs/s")
    metrics["trace.overhead"] = (jps_u / jps_t - 1.0 if jps_t else 0.0, "ratio")
    metrics["trace.missing_boundaries"] = (len(tracer.missing), "count")
    if tracer.missing:
        notes.append("missing boundaries (reported, not traced): " + ", ".join(tracer.missing))
    notes.append(f"per-layer times: median over {len(per_batch)} traced batch(es); "
                 f"counts: first traced batch")

    # a traced job must write the same bytes as its untraced run
    correct = counts_repeat
    for u, t in zip(untraced, traced):
        if u["digest"] and t["digest"] and u["digest"] != t["digest"]:
            notes.append(f"TRACED ARTIFACTS DIFFER: {u['job'].name}")
            correct = False
    correct = _deterministic(untraced + traced, notes) and correct
    record["traced_batches"] = len(per_batch)
    return metrics, untraced + traced, correct, notes


if __name__ == "__main__":
    sys.exit(main())
