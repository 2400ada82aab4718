"""Record the digests of every study's ``--format json`` rendering.

    python3 e2ebench/record_digests.py

Runs ``python -m repro study run <study> --format json`` through the CLI,
once per study, at the repository's default master seed and the
benchmark's campaign settings, each on an empty store, and writes the
SHA-256 of each rendering to ``digests.json``.  The benchmark's digest gate
compares its own renderings with these.  Re-record only when a change is
meant to alter study outputs.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile

from common import (
    DEFAULT_SEED,
    DIGESTS_PATH,
    ENGINE,
    ROOT,
    RUNS,
    STUDY_WORKLOADS,
    child_env,
    digest,
    workload_scale,
    write_json,
)


def cli_rendering(study: str, scale: float, store: str) -> str:
    command = [
        sys.executable, "-m", "repro", "study", "run", study,
        "--format", "json",
        "--engine", ENGINE,
        "--runs", str(RUNS),
        "--seed", str(DEFAULT_SEED),
        "--scale", str(scale),
        "--jobs", "1",
        "--store", store,
    ]
    completed = subprocess.run(
        command, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
        text=True, check=True,
    )
    return completed.stdout.rstrip("\n")


def main() -> int:
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload, studies in STUDY_WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=str(ROOT)) as store:
            recorded["workloads"][workload] = {
                study: digest(cli_rendering(study, workload_scale(workload), store))
                for study in studies
            }
    write_json(DIGESTS_PATH, recorded)
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
