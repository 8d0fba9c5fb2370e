"""Self-tests of the benchmark itself (not of cstomo).

    python3 perfbench/selftest.py

Run from the root of a cstomo checkout. Checks that one seed gives
byte-identical campaign files, that the output check rejects corrupted
reports and that a rejected report fails its op, and that the tracing
wrappers leave cstomo's output unchanged.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str((Path.cwd() / "src").resolve()))

import numpy as np  # noqa: E402

import cstomo.cli  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cstomo.serialize import save_measurement_set  # noqa: E402
from cstomo.simulate import make_max_entangled, simulate_measurements  # noqa: E402


def _quiet_main(argv) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cstomo.cli.main(argv)


class CampaignDeterminism(unittest.TestCase):
    def test_same_seed_byte_identical_files(self):
        for wl in workloads.WORKLOADS.values():
            if wl.kind != "cli":
                continue
            with self.subTest(workload=wl.name), tempfile.TemporaryDirectory() as tmp:
                dirs = [Path(tmp) / name for name in ("a", "b", "c")]
                for path, seed in zip(dirs, (5, 5, 6)):
                    path.mkdir()
                    workloads.write_pool(wl, seed, path)
                for j in range(wl.pool):
                    a, b, c = ((p / f"campaign-{j}.json").read_bytes() for p in dirs)
                    self.assertEqual(a, b)
                    self.assertNotEqual(a, c)

    def test_same_seed_same_sweep(self):
        wl = workloads.WORKLOADS["sweep-d5"]
        self.assertEqual(workloads.sweep_spec(wl, 5, 0), workloads.sweep_spec(wl, 5, 0))
        self.assertNotEqual(workloads.sweep_spec(wl, 5, 0).seed,
                            workloads.sweep_spec(wl, 6, 0).seed)


class ReportCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls.tmp.name)
        cls.ms = simulate_measurements(3, 24, state=make_max_entangled(3), seed=7)
        cls.ms_path = str(tmp / "ms.json")
        save_measurement_set(cls.ms, cls.ms_path)
        cls.report_path = str(tmp / "report.json")
        rc = _quiet_main(["reconstruct", cls.ms_path, "--out", cls.report_path,
                          "--no-correction", "--tau", "0.7"])
        assert rc == 0, rc
        cls.doc = json.loads(Path(cls.report_path).read_text())
        cls.corrected_argv = ["reconstruct", cls.ms_path, "--tau", "0.7", "--subsets", "2"]
        cls.corrected_path = str(tmp / "corrected.json")
        rc = _quiet_main(cls.corrected_argv + ["--out", cls.corrected_path])
        assert rc == 0, rc
        cls.corrected_doc = json.loads(Path(cls.corrected_path).read_text())

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    @staticmethod
    def corrupted(doc, path, fn):
        """A copy of ``doc`` with the matrix at key path ``path`` replaced by fn(matrix)."""
        doc = json.loads(json.dumps(doc))
        *parents, key = path
        node = doc
        for k in parents:
            node = node[k]
        m = fn(checks._cmat(node[key]))
        node[key] = np.stack([m.real, m.imag], axis=-1).tolist()
        return doc

    def assert_rejected(self, cases):
        for what, doc in cases.items():
            with self.subTest(corruption=what):
                problems = checks.check_report(doc, self.ms)
                self.assertTrue(problems)
                self.assertIn(what, " ".join(problems))

    def test_valid_reports_pass(self):
        self.assertEqual(checks.check_report(self.doc, self.ms), [])
        self.assertTrue(self.corrected_doc["correction"]["applied"])
        self.assertEqual(checks.check_report(self.corrected_doc, self.ms), [])

    def test_corrupted_reports_rejected(self):
        dim = 9
        eye = np.eye(dim)
        cases = {
            "not Hermitian": self.corrupted(
                self.doc, ("rho",), lambda m: m + 1e-3 * np.triu(np.ones((dim, dim)), 1)),
            "not PSD": self.corrupted(self.doc, ("rho",), lambda m: 1.5 * m - 0.5 * eye / dim),
            "trace": self.corrupted(self.doc, ("rho",), lambda m: 1.01 * m),
            "constraints": self.corrupted(self.doc, ("rho_pre_gamma",), lambda m: m + 1e-3 * eye),
        }
        wrong_fid = json.loads(json.dumps(self.doc))
        wrong_fid["metrics"]["fidelity"] -= 0.01
        cases["fidelity"] = wrong_fid
        missing = dict(self.doc)
        del missing["rho"]
        cases["rho"] = missing
        self.assert_rejected(cases)

    def test_corrupted_corrected_reports_rejected(self):
        # the corrected bound is delta_norm, far above a 1e-3 shift, so the
        # constraint case replaces rho_pre_gamma by the maximally mixed state
        doc = self.corrected_doc
        self.assert_rejected({
            "constraints": self.corrupted(doc, ("rho_pre_gamma",), lambda m: np.eye(9) / 9),
            "raw rho trace": self.corrupted(doc, ("correction", "raw", "rho"), lambda m: 1.01 * m),
            "raw rho not PSD": self.corrupted(
                doc, ("correction", "raw", "rho"), lambda m: 1.5 * m - 0.5 * np.eye(9) / 9),
        })

    def test_rejected_report_fails_its_op(self):
        tmp = Path(self.tmp.name)
        good, bad = str(tmp / "good.json"), str(tmp / "bad.json")
        Path(good).write_text(json.dumps(self.doc))
        Path(bad).write_text(json.dumps(self.corrupted(self.doc, ("rho",), lambda m: 1.01 * m)))
        ops = [{"campaign": k, "latency_s": 1.0, "rc": 0, "error": None, "out": out,
                "ms": self.ms} for k, out in enumerate((good, bad))]
        run.check_cli_ops(ops)
        self.assertIsNone(ops[0]["error"])
        self.assertIn("trace", ops[1]["error"])
        e2e = run.end_to_end(ops, 2.0, 2, [{"import_s": 0.1, "warmup_s": 0.1}])
        self.assertEqual(e2e["ok_frac"], 0.5)

    def test_tracing_changes_nothing(self):
        tmp = Path(self.tmp.name)
        traced = str(tmp / "traced.json")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            rc = tracer.span("cli.main", _quiet_main, (self.corrected_argv + ["--out", traced],))
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        self.assertEqual(rc, 0)
        self.assertEqual(Path(self.corrected_path).read_bytes(), Path(traced).read_bytes())
        per_layer, table = tracing.layer_metrics(tracer.spans, 1, [wall])
        self.assertEqual(per_layer["solver.solves"], 4)  # raw, 2 subsets, final
        self.assertAlmostEqual(per_layer["trace.self_sum_frac"], 1.0, delta=0.05)
        self.assertFalse(hasattr(cstomo.solver.kaczmarz_sweep, "__wrapped__"))


class BenchmarkFile(unittest.TestCase):
    def test_matches_code(self):
        bench = json.loads(Path("BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        setup_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup_bound, max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
