"""cstomo benchmark.

    python3 perfbench/run.py --workload raw-d7 --seed 1 --seconds 10 --trace 0

Run from the root of a cstomo checkout; the program is imported from its
``src/`` directory. One client issues one op at a time (closed loop) in this
process; BLAS runs one thread (see bootstrap.py). The campaign files are
written before timing starts, then ops run back to back until ``--seconds``
have passed and at least one pass over the workload's inputs is done. Reports
are checked after the timed loop (see checks.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The lines before it give every metric with its unit, the sample counts and
an environment record. Everything the run writes goes to
``.perfbench/<workload>-seed<seed>-trace<0|1>/`` in the checkout. The exit
code is 0 only when every op succeeded and passed its check.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap
import workloads

HERE = Path(__file__).resolve().parent

PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="cstomo benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_probe(root: Path, wl, work: Path) -> dict:
    """One set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "bootstrap.py"), "--workload", wl.name,
         "--work", str(work)],
        cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_record() -> dict:
    import numpy as np

    info = {"name": "unknown", "threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        import ctypes

        try:
            handle = ctypes.CDLL(str(lib))
            fn = getattr(handle, "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["threads"] = fn()
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_size() -> str:
    """Size of the highest cache level sysfs lists for cpu0."""
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in caches.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment(args) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "llc": llc_size(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_cli_ops(wl, args, work: Path, tracer):
    """Back-to-back reconstruct ops over the campaign pool; with a tracer,
    each op is a root span."""
    import cstomo.cli

    pool = workloads.write_pool(wl, args.seed, work)
    ops = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t_start = time.perf_counter()
        i = 0
        while i < len(pool) or time.perf_counter() - t_start < args.seconds:
            path = pool[i % len(pool)][0]
            out = str(work / f"report-{i}.json")
            argv = wl.op_argv(path, out)
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = cstomo.cli.main(argv)
                else:
                    rc = tracer.span("cli.main", cstomo.cli.main, (argv,))
            except Exception as exc:  # an op that raises is counted as failed
                rc, error = None, repr(exc)
            t1 = time.perf_counter()
            ops.append({"campaign": i % len(pool), "latency_s": t1 - t0, "rc": rc,
                        "error": error, "out": out})
            i += 1
        wall = time.perf_counter() - t_start
    for op in ops:
        op["ms"] = pool[op["campaign"]][1]
    return ops, wall, len(pool)


def check_cli_ops(ops) -> None:
    """Mark each op failed or record its fidelity and report iterations;
    the report files are removed once checked."""
    from checks import check_report_file, constraint_residual

    for op in ops:
        ms = op.pop("ms")
        if op["error"] is None and op["rc"] != 0:
            op["error"] = f"exit code {op['rc']}"
        if op["error"] is None:
            problems, doc = check_report_file(op["out"], ms)
            if problems:
                op["error"] = "; ".join(problems)
            else:
                op["residual"], op["residual_tol"] = constraint_residual(doc, ms)
                op["delta_norm"] = (doc.get("correction") or {}).get("delta_norm")
                op["fidelity"] = doc["metrics"]["fidelity"]
                op["iterations"] = [doc["iterations"]]
                if "raw" in (doc.get("correction") or {}):
                    op["iterations"].append(doc["correction"]["raw"]["iterations"])
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.pop("out"))


def run_sweep_ops(wl, args, work: Path, tracer):
    """Whole sweeps back to back; each cell is one op (with a tracer, the
    wrapped run_sweep_cell is the root span)."""
    import cstomo.experiments

    ops = []
    t_start = time.perf_counter()
    sweeps = 0
    while sweeps < wl.pool or time.perf_counter() - t_start < args.seconds:
        spec = workloads.sweep_spec(wl, args.seed, sweeps)
        last = [time.perf_counter()]

        def on_row(row):
            now = time.perf_counter()
            ops.append({"campaign": f"{sweeps}/{row.fraction}/{row.repeat}",
                        "latency_s": now - last[0], "row": row})
            last[0] = now

        cstomo.experiments.run_sweep(spec, jobs=1, on_row=on_row)
        sweeps += 1
        if sweeps == wl.pool:
            first_pass = len(ops)
    wall = time.perf_counter() - t_start
    return ops, wall, first_pass


def check_sweep_ops(ops) -> None:
    """Mark each cell failed or record its fidelity and iterations."""
    from checks import check_sweep_row, sweep_cell_fidelity

    for op in ops:
        row = op.pop("row")
        problems = check_sweep_row(row)
        op["error"] = "; ".join(problems) if problems else None
        if not problems:
            op["fidelity"] = sweep_cell_fidelity(row)
            op["iterations"] = [row.iterations]


def tail_latency(lat: list[float]):
    """The highest percentile with at least 10 samples beyond it, when that
    percentile is at least the median; else None."""
    n = len(lat)
    if n < 20:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(lat)[k - 1]


def end_to_end(ops, wall, first_pass, setup) -> dict:
    lat = [op["latency_s"] for op in ops]
    failed = sum(op["error"] is not None for op in ops)
    fids = [op["fidelity"] for op in ops[:first_pass] if "fidelity" in op]
    return {
        "ops_per_s": len(ops) / wall,
        "latency_p50_s": statistics.median(lat),
        "ok_frac": 1.0 - failed / len(ops),
        # 0 when no op of the pass succeeded (the run then fails anyway)
        "fidelity_mean": math.fsum(fids) / len(fids) if fids else 0.0,
        "fidelity_min": min(fids) if fids else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s["import_s"] + s["warmup_s"] for s in setup),
    }


def identity_record(ops, first_pass) -> dict:
    return {"fidelity": [op.get("fidelity") for op in ops[:first_pass]],
            "iterations": [op.get("iterations") for op in ops[:first_pass]]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cstomo" / "__init__.py").is_file():
        print(f"error: no cstomo source under {root / 'src'}; run from the root of a "
              "cstomo checkout", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    base = root / ".perfbench"
    work = base / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # the build step: byte-compile once so no run pays for compiling
    if not compileall.compile_dir(str(root / "src"), quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2

    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    # set-ups in fresh interpreters before and after the timed loop, and one
    # in this process just before it. The median drops a first process that
    # paid for a cold file cache; spreading the samples over the run keeps a
    # slow spell of a few seconds from moving all of them at once.
    before = (workloads.SETUP_SAMPLES - 1) // 2
    setup = [setup_probe(root, wl, work / f"setup-{k}") for k in range(before)]
    setup.append(bootstrap.setup_once(root, wl.name, work / "setup-main"))
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    runner, check = ((run_cli_ops, check_cli_ops) if wl.kind == "cli"
                     else (run_sweep_ops, check_sweep_ops))
    try:
        ops, wall, first_pass = runner(wl, args, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    check(ops)  # after uninstall: the checks call traced cstomo functions
    setup += [setup_probe(root, wl, work / f"setup-{k}")
              for k in range(before, workloads.SETUP_SAMPLES - 1)]

    failed = [op for op in ops if op["error"] is not None]
    for op in failed:
        print(f"FAILED op on campaign {op['campaign']}: {op['error']}")
    e2e = end_to_end(ops, wall, first_pass, setup)
    lat = [op["latency_s"] for op in ops]
    correct = not failed
    record = {"env": env, "setup": setup, "end_to_end": e2e,
              "identity": identity_record(ops, first_pass),
              "ops": ops}

    if tracer is None:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        print(f"{wl.name} seed={args.seed}: {len(ops)} ops in {wall:.3f} s, "
              f"{len(failed)} failed")
        for k, v in metrics.items():
            print(f"  {k:<16} {v['value']:.6g} {v['unit']}")
        print(f"  {'failed_frac':<16} {len(failed) / len(ops):.6g} ratio "
              f"({len(failed)} of {len(ops)} ops)")
        print(f"  latency_p50_s over n={len(lat)} ops")
        tail = tail_latency(lat)
        if tail is None:
            print(f"  latency_tail_s omitted: {len(lat)} ops leave fewer than 10 "
                  "samples beyond the median")
        else:
            print(f"  latency_tail_s   {tail[1]:.6g} s (p{tail[0]:.1f}, n={len(lat)})")
    else:
        spans_path = work / "spans.jsonl"
        tracer.write(spans_path)
        per_layer, table = tracing.layer_metrics(tracer.spans, first_pass, lat)
        text = tracing.format_table(wl.name, per_layer, table, env["llc"])
        untraced = base / f"{wl.name}-seed{args.seed}-trace0" / "result.json"
        if untraced.is_file():
            ref = json.loads(untraced.read_text(encoding="utf-8"))
            p50 = ref["end_to_end"]["latency_p50_s"]
            text += (f"\n  tracing overhead: traced op p50 {per_layer['trace.op_p50_s']:.4f} s "
                     f"vs untraced {p50:.4f} s ({per_layer['trace.op_p50_s'] / p50 - 1:+.2%})")
            same = ref["identity"] == record["identity"]
            text += ("\n  traced and untraced runs give identical per-op fidelity and "
                     "iterations: " + ("yes" if same else "NO"))
            correct = correct and same
        else:
            text += ("\n  tracing overhead and identity check: no untraced run of this "
                     "workload and seed under .perfbench/")
        print(text)
        (work / "layers.txt").write_text(text + "\n", encoding="utf-8")
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
        record["per_layer"] = per_layer

    (work / "result.json").write_text(json.dumps(record, sort_keys=True, default=str) + "\n",
                                      encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
