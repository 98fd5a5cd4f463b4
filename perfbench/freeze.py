"""Freeze the outputs of the reference-seed batches into reference.json.

    python3 perfbench/freeze.py

Run from the root of a source checkout.  Every job without a closed-form
check (`Job.frozen`) of every workload at the reference seed runs once; the
quantities that `checks.frozen_values` selects are written, keyed by config
digest.  Regenerate only at a commit whose
outputs are trusted: the benchmark compares later commits against this file.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import helioq.cli

    runner = run.Runner(helioq.cli)
    work = run.WORK / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    reference = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.reference_jobs(workload, str(work / "out"))
        cfg_paths = run.write_configs(jobs, work / "configs" / workload)
        for job in jobs:
            code, out = runner.call(job.argv(cfg_paths[job.name]))
            if code != 0:
                raise SystemExit(f"{workload}/{job.name} failed: {out[-400:]}")
            values = checks.frozen_values(job, checks.artifact_paths(out))
            reference[job.config_digest()] = {
                "job": f"{workload}/{job.name}",
                "values": {k: [mode, v] for k, (mode, v) in values.items()},
            }
            print(f"froze {workload}/{job.name}")
    shutil.rmtree(work)
    path = Path(run.HERE) / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path} ({len(reference)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
