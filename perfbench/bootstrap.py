"""One benchmark set-up: import cstomo, then one warm-up op at the workload's
own size. Both are timed; their sum is one ``setup_s`` sample.

run.py calls ``setup_once`` in its own process, which then goes on to the
timed ops, and also starts this file as a script in fresh interpreters to
take more samples:

    python3 perfbench/bootstrap.py --workload raw-d7 --work <dir>

which prints ``{"import_s": ..., "warmup_s": ...}`` as its last line. Run it
from the root of a cstomo checkout (the source is taken from ``src/``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import workloads

# BLAS runs one thread. On a host whose few cores are shared with other
# processes, a 2-thread OpenBLAS waits on whichever core is busy elsewhere:
# with one competing busy process on a 2-vCPU machine, a corrected d=7 op took
# 2.8 times as long at 2 threads but 1.24 times at 1 thread. Set on import,
# before numpy is imported; the set-up interpreters run.py starts inherit it.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

# exit codes the warm-up op may end with: converged, or stopped at its
# iteration cap before converging
WARMUP_EXIT_OK = (0, 3)


def setup_once(root: Path, workload: str, work: Path) -> dict:
    src = (root / "src").resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import cstomo.cli
    import cstomo.experiments

    import_s = time.perf_counter() - t0
    if src not in Path(cstomo.cli.__file__).resolve().parents:
        raise RuntimeError(f"imported cstomo from {cstomo.cli.__file__}, not from {src}")

    wl = workloads.WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    if wl.kind == "cli":
        argv = wl.warmup_argv(workloads.write_warmup_campaign(wl, work),
                              str(work / "warmup-report.json"))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t1 = time.perf_counter()
            rc = cstomo.cli.main(argv)
            warmup_s = time.perf_counter() - t1
        if rc not in WARMUP_EXIT_OK:
            raise RuntimeError(f"warm-up op {argv} exited with {rc}")
    else:
        spec = workloads.warmup_sweep_spec(wl)
        t1 = time.perf_counter()
        rows = cstomo.experiments.run_sweep(spec, jobs=1)
        warmup_s = time.perf_counter() - t1
        if any(r.status != "ok" for r in rows):
            raise RuntimeError(f"warm-up sweep failed: {[r.status for r in rows]}")
    return {"import_s": import_s, "warmup_s": warmup_s}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--work", required=True, help="directory for the warm-up files")
    args = ap.parse_args()
    print(json.dumps(setup_once(Path.cwd(), args.workload, Path(args.work))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
