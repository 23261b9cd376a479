"""Re-record the shipped-run reference (``reference/shipped_run.json``).

    python3 perfbench/record_reference.py

Runs ``pwa-hier run caseN --plot-data`` for both shipped models from the
checkout's ``src/`` and stores the compact summary that the shipped-run
output check compares against.  Re-record only in a change that means to
alter the shipped trajectories, certificates or bounds, and say so there.
"""

import contextlib
import io
import json
import shutil
import sys

import run  # pins BLAS before numpy loads

sys.path[:0] = [str(run.SRC)]

import checks  # noqa: E402
from pwa_hier import cli  # noqa: E402


def main() -> int:
    work = run.ROOT / ".bench_out" / "reference"
    summary = {}
    try:
        for case in run.ShippedRun.cases:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", case, "--out", str(work / case), "--plot-data"])
            if code != 0:
                print(f"error: {case} exited {code}", file=sys.stderr)
                return 1
            summary[case] = checks.run_summary(work / case)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(summary) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
