"""Rewrite digests.json: the sha256 of every structured report at the default seed.

    python3 perfbench/make_digests.py

Run it only when a change is meant to alter what reports say; the traced
benchmark run counts every report that no longer matches as
`report.digest_mismatch`.  Reports that fail their verdict prediction are
refused, so the store only ever holds correct reports.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    workdir = run.WORK / "digests"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    digests = {}
    try:
        for workload in workloads.WORKLOADS:
            folder = workdir / workload
            folder.mkdir()
            cli, cases, _ = run.setup(workload, run.DEFAULT_SEED, folder)
            for case in cases:
                outcome = run.verify(cli, case, folder / "report.json")
                if not outcome.ok:
                    print(f"error: {workload}/{case.name} is not correct", file=sys.stderr)
                    return 1
                digests[case.text_sha] = outcome.digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
