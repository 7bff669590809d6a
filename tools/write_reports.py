"""Write the report of every benchmark job, for a byte-identity check.

    python tools/write_reports.py OUTDIR

Runs every job of the benchmark's two workloads (``solve`` and
``montecarlo``, at full and ``--tiny`` size, seeds 1 and 2) and their probe
jobs in one process through ``sourcesink.cli.main``, and writes each report
to ``OUTDIR/<workload>.<size>.seed<seed>/<job>.json``: 150 files.  The
package comes from this checkout's ``src/`` and the job lists from
``perfbench/workloads.py``, which is only imported.  Two checkouts give the
same reports exactly when ``diff -r`` of their two OUTDIRs prints nothing.
Exits 1, after writing the rest, if any job does not exit 0.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from sourcesink import cli  # noqa: E402
from workloads import WORKLOADS, make_jobs, tiny  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/write_reports.py OUTDIR", file=sys.stderr)
        return 2
    failed = written = 0
    with tempfile.TemporaryDirectory() as configs:
        for workload in WORKLOADS:
            for size in ("full", "tiny"):
                for seed in (1, 2):
                    jobs, probes = make_jobs(workload, seed)
                    outdir = os.path.join(argv[0], f"{workload}.{size}.seed{seed}")
                    os.makedirs(outdir, exist_ok=True)
                    for job in (tiny(jobs) if size == "tiny" else jobs) + probes:
                        config = os.path.join(configs, job.name + ".config.json")
                        with open(config, "w") as f:
                            json.dump(job.config, f)
                        code = cli.main(job.argv(config, os.path.join(outdir, job.name + ".json")))
                        if code:
                            print(f"{outdir}/{job.name}: exit {code}", file=sys.stderr)
                            failed += 1
                        else:
                            written += 1
    print(f"{written} reports written to {argv[0]}, {failed} jobs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
