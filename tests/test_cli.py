import csv
import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cstomo
import cstomo.experiments
from cstomo.cli import _build_parser, _solver_config, main
from cstomo.correction import reconstruct_corrected
from cstomo.errors import InvariantViolation
from cstomo.experiments import SweepSpec, cell_seed
from cstomo.metrics import MetricsSummary
from cstomo.serialize import load_measurement_set, report_to_dict, save_measurement_set
from cstomo.simulate import make_max_entangled, simulate_measurements, state_to_density
from cstomo.solver import ReconstructionConfig


COUNTS_ERROR = "error: mean_total_counts must be positive and finite, at most 1e+18\n"
CALIBRATION_ERROR = (
    "error: measurement set: calibration must be positive and finite, at most 1e+18\n")
# calibrations that no simulation can record; NaN reaches the file as the
# JSON literal NaN
IMPOSSIBLE_CALIBRATIONS = pytest.mark.parametrize(
    "calibration", [0, -5, 1e30, float("nan")], ids=["0", "-5", "1e30", "NaN"])


def set_calibration(path, calibration):
    doc = json.loads(path.read_text())
    doc["calibration"] = calibration
    path.write_text(json.dumps(doc))

# the default correction (the raw solve's own gap) and two correction subsets
CORRECTIONS = pytest.mark.parametrize("correction", [(), ("--subsets", "2")],
                                      ids=["default", "subsets-2"])


def run(*argv):
    return main([str(a) for a in argv])


def die(*args, **kwargs):
    # a worker killed mid-task (for example when memory runs out); defined
    # here, not in a test, because a task's function is pickled by name
    os._exit(1)


def no_solve(*args, **kwargs):
    raise AssertionError("a solve ran")


def fresh_process_env():
    """The environment of a fresh interpreter that imports this cstomo, with
    BLAS pinned to one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(cstomo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def strip_runtime(text):
    """A sweep CSV with its wall-clock runtime_seconds column blanked."""
    out = []
    for i, ln in enumerate(text.strip().splitlines()):
        cells = ln.split(",")
        if i:
            cells[6] = "_"
        out.append(",".join(cells))
    return "\n".join(out)


class TestParserDefaults:
    """The command line's defaults are the library's."""

    def test_reconstruct(self, tmp_path, monkeypatch):
        args = _build_parser().parse_args(["reconstruct", "x", "--out", "y"])
        assert _solver_config(args) == ReconstructionConfig()
        # without flags the command runs the library's default correction
        calls = []

        def spy(ms, cfg, **kwargs):
            calls.append((cfg, kwargs["n_subsets"]))
            return reconstruct_corrected(ms, cfg, **kwargs)

        monkeypatch.setattr("cstomo.cli.reconstruct_corrected", spy)
        inp = tmp_path / "c.json"
        save_measurement_set(simulate_measurements(3, 40, seed=0), str(inp))
        run("reconstruct", inp, "--out", tmp_path / "r.json")
        default = inspect.signature(reconstruct_corrected).parameters["n_subsets"].default
        assert calls == [(ReconstructionConfig(), default)]

    def test_sweep(self):
        args = _build_parser().parse_args(["sweep", "--d", "3", "--fractions", "0.5",
                                           "--out", "z"])
        spec = SweepSpec(d=3, fractions=[0.5])
        assert _solver_config(args) == spec.solver
        assert (args.repeats, args.mean_total_counts, args.seed) == (
            spec.repeats, spec.mean_total_counts, spec.seed)


class TestSimulateCommand:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "ms.json"
        assert run("simulate", "--d", 3, "--measurements", 10, "--seed", 4,
                   "--out", out) == 0
        ms = load_measurement_set(str(out))
        assert ms.d == 3 and len(ms) == 10 and ms.seed == 4
        assert ms.truth is not None

    def test_poisson_noise_records_counts(self, tmp_path):
        out = tmp_path / "ms.json"
        assert run("simulate", "--d", 3, "--measurements", 12, "--seed", 1,
                   "--mean-total-counts", 1e4, "--out", out) == 0
        ms = load_measurement_set(str(out))
        assert ms.counts is not None and ms.calibration == 1e4

    def test_noise_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--d", 3, "--measurements", 5, "--noise", "poisson",
                "--out", tmp_path / "ms.json")
        assert exc.value.code == 2
        assert not (tmp_path / "ms.json").exists()

    @pytest.mark.parametrize("counts", [None, 300.0], ids=["noiseless", "poisson"])
    def test_counts_flag_selects_the_noise(self, tmp_path, counts):
        # a campaign is noiseless unless --mean-total-counts is given, and is
        # the library's campaign either way
        out, want = tmp_path / "ms.json", tmp_path / "want.json"
        flag = () if counts is None else ("--mean-total-counts", counts)
        assert run("simulate", "--d", 3, "--measurements", 12, "--seed", 4, *flag,
                   "--out", out) == 0
        ms = load_measurement_set(str(out))
        assert ms.calibration == counts and (ms.counts is None) is (counts is None)
        save_measurement_set(simulate_measurements(3, 12, seed=4, mean_total_counts=counts),
                             str(want))
        assert out.read_bytes() == want.read_bytes()

    def test_strip_truth(self, tmp_path):
        out = tmp_path / "ms.json"
        run("simulate", "--d", 3, "--measurements", 5, "--strip-truth", "--out", out)
        assert load_measurement_set(str(out)).truth is None

    @pytest.mark.parametrize("counts", ["inf", "nan", "1e30"])
    def test_rejects_non_finite_counts(self, tmp_path, capsys, counts):
        out = tmp_path / "x.json"
        assert run("simulate", "--d", 3, "--measurements", 10,
                   "--mean-total-counts", counts, "--out", out) == 1
        assert capsys.readouterr().err == COUNTS_ERROR
        assert not out.exists()

    def test_rejects_zero_measurements(self, tmp_path, capsys):
        assert run("simulate", "--d", 3, "--measurements", 0,
                   "--out", tmp_path / "x.json") == 1

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run("simulate", "--d", 3, "--measurements", 20, "--seed", 9,
                "--mean-total-counts", 5e4, "--out", out)
        assert a.read_bytes() == b.read_bytes()

    def test_campaign_file_bytes_are_pinned(self, tmp_path):
        # the file of an earlier per-projector draw loop: the batched draw
        # changed no byte of it
        out = tmp_path / "c.json"
        assert run("simulate", "--d", 5, "--measurements", 40, "--mean-total-counts", 1000,
                   "--seed", 21, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "9716390fd1b331cd8c36f9a7ab9443bf299e1a3672cf7613641c30d99dc4bf3e")

    def test_flagship_campaign_budgets(self, tmp_path):
        # d=7: 2401 = 100% of d^4; d=17: 2506 measurements = 3% of 83521
        out7 = tmp_path / "d7.json"
        assert run("simulate", "--d", 7, "--measurements", 7**4, "--seed", 0,
                   "--out", out7) == 0
        assert len(load_measurement_set(str(out7))) == 2401
        assert round(2506 / 17**4, 2) == 0.03
        out17 = tmp_path / "d17.json"
        assert run("simulate", "--d", 17, "--measurements", 2506, "--seed", 0,
                   "--state", "downconversion", "--spiral-width", 4.0,
                   "--out", out17) == 0
        ms = load_measurement_set(str(out17))
        assert ms.d == 17 and len(ms) == 2506


class TestReconstructCommand:
    def make_input(self, tmp_path, n=24, noise=False, seed=5):
        path = tmp_path / "in.json"
        argv = ["simulate", "--d", 3, "--measurements", n, "--seed", seed,
                "--out", path]
        if noise:
            argv += ["--mean-total-counts", 1e4]
        assert run(*argv) == 0
        return path

    def test_noiseless_reconstruction_report(self, tmp_path, capsys):
        inp = self.make_input(tmp_path)
        out = tmp_path / "report.json"
        code = run("reconstruct", inp, "--out", out, "--tau", 0.7, "--no-correction")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["metrics"]["fidelity"] >= 0.99
        assert "rho_pre_gamma" in doc and "correction" not in doc

    def test_correction_block_in_report(self, tmp_path):
        inp = self.make_input(tmp_path, n=60, noise=True)
        out = tmp_path / "report.json"
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7,
                   "--subsets", 2) == 0
        doc = json.loads(out.read_text())
        assert doc["correction"]["applied"] is True
        assert doc["correction"]["n_subsets"] == 2
        assert "raw" in doc["correction"]
        assert "fidelity" in doc["correction"]["raw"]["metrics"]

    def test_default_correction_is_the_raw_solves_own_gap(self, tmp_path, monkeypatch):
        # one subset, the whole campaign: no subset solve runs
        monkeypatch.setattr("cstomo.correction._subset_gap", no_solve)
        inp = self.make_input(tmp_path, n=60, noise=True)
        out = tmp_path / "report.json"
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7) == 0
        corr = json.loads(out.read_text())["correction"]
        assert corr["applied"] is True
        assert (corr["n_subsets"], corr["subset_sizes"], corr["subset_converged"]) == (
            1, [60], [True])

    @pytest.mark.parametrize("key, value", [
        ("seed", ["x"]), ("seed", "abc"), ("seed", {"a": 1}), ("seed", 1.5), ("seed", True),
        ("seed", -1),
        ("calibration", "300"), ("calibration", True), ("calibration", [1.0]),
        ("calibration", float("inf")),
    ])
    def test_mistyped_optional_key_exits_1(self, tmp_path, capsys, key, value):
        inp = self.make_input(tmp_path, noise=True)
        doc = json.loads(inp.read_text())
        doc[key] = value
        inp.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7, "--no-correction") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: measurement set: {key} must be")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, index, value, message", [
        ("calibration", None, 10**400, CALIBRATION_ERROR),
        ("probs", 4, 10**400,
         "error: measurement set: probs: int too large to convert to float\n"),
        ("counts", 3, 10**30,
         "error: measurement set: counts: Python int too large to convert to C long\n"),
    ], ids=["calibration", "probs", "counts"])
    def test_number_beyond_range_names_its_field(self, tmp_path, capsys, key, index,
                                                 value, message):
        inp = self.make_input(tmp_path, noise=True)
        doc = json.loads(inp.read_text())
        if index is None:
            doc[key] = value
        else:
            doc[key][index] = value
        inp.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("reconstruct", inp, "--out", out, "--no-correction") == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_zero_subsets_exits_1(self, tmp_path, capsys):
        inp = self.make_input(tmp_path, noise=True)
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("reconstruct", inp, "--out", out, "--subsets", 0) == 1
        assert capsys.readouterr().err == "error: n_subsets must be at least 1, got 0\n"
        assert not out.exists()

    @IMPOSSIBLE_CALIBRATIONS
    def test_impossible_calibration_exits_1(self, tmp_path, capsys, calibration):
        inp = self.make_input(tmp_path, noise=True)
        set_calibration(inp, calibration)
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("reconstruct", inp, "--out", out) == 1
        assert capsys.readouterr().err == CALIBRATION_ERROR
        assert not out.exists()

    def test_schema_error_no_partial_output(self, tmp_path, capsys):
        inp = self.make_input(tmp_path)
        doc = json.loads(inp.read_text())
        doc["probs"] = doc["probs"][:-1]
        inp.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run("reconstruct", inp, "--out", out) == 1
        assert not out.exists()

    def test_non_finite_prob_exit_code(self, tmp_path, capsys):
        inp = self.make_input(tmp_path, n=30)
        doc = json.loads(inp.read_text())
        doc["probs"][4] = float("nan")
        inp.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        capsys.readouterr()
        assert run("reconstruct", inp, "--out", out) == 1
        assert capsys.readouterr().err == "error: measurement set: probs[4] is not finite\n"
        assert not out.exists()

    def test_nonconvergence_exit_code(self, tmp_path):
        inp = self.make_input(tmp_path, n=20, noise=True)
        out = tmp_path / "report.json"
        assert run("reconstruct", inp, "--out", out, "--k-max", 2,
                   "--no-correction") == 3

    @pytest.mark.parametrize("tol", ["inf", "nan", "1", "0"])
    def test_step_tol_outside_the_unit_interval_exits_1(self, tmp_path, capsys, tol):
        inp = self.make_input(tmp_path)
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7, "--step-tol", tol) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: step_tol_rel must lie in (0, 1), got {float(tol)}\n"
        assert captured.out == "" and not out.exists()

    def test_degenerate_system_exit_code(self, tmp_path, capsys):
        inp = tmp_path / "empty.json"
        inp.write_text('{"d":3,"projectors":[],"probs":[]}')
        assert run("reconstruct", inp, "--out", tmp_path / "r.json",
                   "--no-correction") == 4

    def test_invariant_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken(ms, cfg, on_iteration=None):
            raise InvariantViolation("iterate lost Hermiticity after projection 1")

        monkeypatch.setattr("cstomo.cli.reconstruct", broken)
        inp = self.make_input(tmp_path)
        assert run("reconstruct", inp, "--out", tmp_path / "r.json",
                   "--no-correction") == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_invariant_violation_in_a_subset_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken(sub, sub_cfg):
            raise InvariantViolation("iterate lost Hermiticity after projection 1")

        monkeypatch.setattr("cstomo.correction._subset_gap", broken)
        inp = self.make_input(tmp_path, n=60, noise=True)
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7, "--subsets", 2) == 5
        err = capsys.readouterr().err
        assert err == "error: solver invariant violated: iterate lost Hermiticity after " \
                      "projection 1\n"
        assert not out.exists()

    def test_subsets_start_no_process(self, tmp_path, monkeypatch, no_pool):
        def no_fork():
            raise AssertionError("a process was forked")

        inp = self.make_input(tmp_path, n=60, noise=True)
        monkeypatch.setattr(os, "fork", no_fork)
        before = set(multiprocessing.active_children())
        out = tmp_path / "r.json"
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7, "--subsets", 2) == 0
        assert set(multiprocessing.active_children()) == before
        assert json.loads(out.read_text())["correction"]["n_subsets"] == 2

    @pytest.mark.filterwarnings("ignore:subset did not converge")
    @pytest.mark.parametrize("seed", [5, 8])
    def test_subsets_report_is_the_library_report(self, tmp_path, seed):
        # the command adds only the metrics blocks to reconstruct_corrected's report
        inp = self.make_input(tmp_path, n=60, noise=True, seed=seed)
        out = tmp_path / "r.json"
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7, "--subsets", 6) == 0
        doc = json.loads(out.read_text())
        del doc["metrics"], doc["correction"]["raw"]["metrics"]
        want = report_to_dict(reconstruct_corrected(
            load_measurement_set(str(inp)), ReconstructionConfig(tau=0.7), n_subsets=6))
        assert want["correction"]["n_subsets"] == 6
        assert json.dumps(doc, sort_keys=True) == json.dumps(want, sort_keys=True)

    @CORRECTIONS
    def test_byte_identical_reruns(self, tmp_path, correction):
        inp = self.make_input(tmp_path, n=60, noise=True)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("reconstruct", inp, "--out", out, "--tau", 0.7, *correction) == 0
        assert a.read_bytes() == b.read_bytes()

    @CORRECTIONS
    def test_byte_identical_across_processes(self, tmp_path, correction):
        # the README's determinism scope: one numpy/BLAS build, fixed thread count
        inp = self.make_input(tmp_path, n=60, noise=True)
        env = fresh_process_env()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            subprocess.run([sys.executable, "-m", "cstomo", "reconstruct", str(inp),
                            "--out", str(out), "--tau", "0.7", *correction],
                           env=env, check=True, timeout=120)
        assert a.read_bytes() == b.read_bytes()

    @CORRECTIONS
    def test_diagnostics_stream(self, tmp_path, correction):
        inp = self.make_input(tmp_path, n=60, noise=True)
        diag = tmp_path / "diag.csv"
        assert run("reconstruct", inp, "--out", tmp_path / "r.json", "--tau", 0.7,
                   *correction, "--diagnostics", diag) == 0
        lines = diag.read_text().strip().splitlines()
        assert lines[0] == "phase,iteration,step,step_tol"
        phases = {ln.split(",")[0] for ln in lines[1:]}
        assert phases == {"raw", "corrected"}

    def test_diagnostics_raw_rows_then_corrected_rows_with_subsets(self, tmp_path):
        # the subset solves between them write no rows
        inp = self.make_input(tmp_path, n=60, noise=True)
        diag, out = tmp_path / "diag.csv", tmp_path / "r.json"
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7,
                   "--subsets", 2, "--diagnostics", diag) == 0
        doc = json.loads(out.read_text())
        phases = [ln.split(",")[0] for ln in diag.read_text().strip().splitlines()[1:]]
        n_raw = doc["correction"]["raw"]["iterations"]
        assert phases == ["raw"] * n_raw + ["corrected"] * doc["iterations"]


    def test_diagnostics_one_iteration_final_solve_is_corrected(self, tmp_path):
        # the final solve starts at the raw solution, and at 40 % of d⁴ it
        # converges in one iteration: its row restarts the counter at 1
        inp, diag, out = tmp_path / "c.json", tmp_path / "diag.csv", tmp_path / "r.json"
        assert run("simulate", "--d", 5, "--measurements", 250, "--mean-total-counts", 5e4,
                   "--seed", 3, "--out", inp) == 0
        assert run("reconstruct", inp, "--out", out, "--diagnostics", diag) == 0
        doc = json.loads(out.read_text())
        assert doc["iterations"] == 1
        rows = [ln.split(",")[:2] for ln in diag.read_text().strip().splitlines()[1:]]
        n_raw = doc["correction"]["raw"]["iterations"]
        assert rows == [["raw", str(k)] for k in range(1, n_raw + 1)] + [["corrected", "1"]]

class TestMetricsCommand:
    def test_truth_matrix_fidelity_one(self, tmp_path, capsys):
        ms_path = tmp_path / "ms.json"
        run("simulate", "--d", 3, "--measurements", 10, "--seed", 2, "--out", ms_path)
        rho = state_to_density(make_max_entangled(3))
        mat_path = tmp_path / "rho.json"
        mat_path.write_text(
            json.dumps([[[z.real, z.imag] for z in row] for row in rho])
        )
        assert run("metrics", mat_path, "--measurements", ms_path) == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert doc["residual_inf"] <= 1e-12

    @pytest.mark.parametrize("strip", [(), ("--strip-truth",)], ids=["truth", "no-truth"])
    def test_keys_are_the_summarys_fields_that_are_set(self, tmp_path, capsys, strip):
        # a metrics block holds MetricsSummary's fields less those that are
        # None: the fidelity without a truth, the residual without a campaign
        inp, out = tmp_path / "in.json", tmp_path / "report.json"
        assert run("simulate", "--d", 3, "--measurements", 40, "--seed", 1,
                   "--mean-total-counts", 1e4, "--out", inp, *strip) == 0
        assert run("reconstruct", inp, "--out", out, "--tau", 0.7) == 0
        doc = json.loads(out.read_text())
        assert doc["correction"]["applied"] is True
        fields = {f.name for f in dataclasses.fields(MetricsSummary)}
        with_campaign = fields - {"fidelity"} if strip else fields
        assert set(doc["metrics"]) == with_campaign
        assert set(doc["correction"]["raw"]["metrics"]) == with_campaign
        capsys.readouterr()
        assert run("metrics", out, "--measurements", inp) == 0
        assert set(json.loads(capsys.readouterr().out)) == with_campaign
        assert run("metrics", out) == 0
        assert set(json.loads(capsys.readouterr().out)) == fields - {"fidelity", "residual_inf"}

    @IMPOSSIBLE_CALIBRATIONS
    def test_impossible_calibration_exits_1(self, tmp_path, capsys, calibration):
        ms_path = tmp_path / "ms.json"
        run("simulate", "--d", 3, "--measurements", 10, "--seed", 2,
            "--mean-total-counts", 1e4, "--out", ms_path)
        set_calibration(ms_path, calibration)
        mat_path = tmp_path / "rho.json"
        mat_path.write_text(json.dumps([[[1 / 9 if r == c else 0.0, 0.0] for c in range(9)]
                                        for r in range(9)]))
        capsys.readouterr()
        assert run("metrics", mat_path, "--measurements", ms_path) == 1
        captured = capsys.readouterr()
        assert captured.err == CALIBRATION_ERROR and captured.out == ""

    def test_maximally_mixed_vs_d7_target(self, tmp_path, capsys):
        rho = np.eye(49) / 49
        mat_path = tmp_path / "mixed.json"
        mat_path.write_text(
            json.dumps([[[float(z), 0.0] for z in row] for row in rho])
        )
        assert run("metrics", mat_path, "--target", "max-entangled") == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["fidelity"] == pytest.approx(1 / 7, abs=1e-9)
        assert doc["effective_rank"] == 49

    @pytest.mark.parametrize("diagonal, target, error", [
        ([2 / 9] * 9, ["--target", "max-entangled"],
         "trace = 2.0, expected 1 within 1.0e-09"),
        ([1e150] + [0.0] * 8, [], "trace = 1e+150, expected 1 within 1.0e-09"),
        ([1.5, -0.5] + [0.0] * 7, [], "least eigenvalue = -0.5 < -1.0e-09"),
    ], ids=["trace-2", "trace-1e150", "negative-eigenvalue"])
    def test_not_a_density_matrix_exits_1(self, tmp_path, capsys, diagonal, target, error):
        # a score of a matrix that is no density matrix would mean nothing:
        # the first read a fidelity of 0.4714 and the last a purity of 2.5
        mat_path = tmp_path / "m.json"
        mat_path.write_text(json.dumps([[[diagonal[i] if i == j else 0.0, 0.0]
                                         for j in range(9)] for i in range(9)]))
        assert run("metrics", mat_path, *target) == 1
        assert capsys.readouterr() == ("", f"error: {mat_path}: not a density matrix: {error}\n")

    def test_non_hermitian_file_rejected(self, tmp_path, capsys):
        mat_path = tmp_path / "bad.json"
        mat_path.write_text(json.dumps([[[0, 0], [1, 0]], [[0, 0], [0, 0]]]))
        assert run("metrics", mat_path) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: matrix is not Hermitian: max |m - m†| = 1.000e+00 > 1.0e-12\n")
        assert captured.out == ""

    @pytest.mark.parametrize("matrix,err", [
        ([[[0, 1], [0, 0]], [[0, 0], [1, 0]]], "2.000e+00"),  # imaginary diagonal
        ([[[0.5, 0], [2e-12, 0]], [[0, 0], [0.5, 0]]], "2.000e-12"),
    ], ids=["imaginary-diagonal", "just-above-tolerance"])
    def test_non_hermitian_error_names_the_deviation(self, tmp_path, capsys, matrix, err):
        mat_path = tmp_path / "bad.json"
        mat_path.write_text(json.dumps(matrix))
        assert run("metrics", mat_path) == 1
        assert capsys.readouterr().err == (
            f"error: matrix is not Hermitian: max |m - m†| = {err} > 1.0e-12\n")

    @pytest.mark.parametrize("asymmetry", [1e-13, 1e-12])
    def test_rounding_level_asymmetry_accepted(self, tmp_path, capsys, asymmetry):
        mat_path = tmp_path / "almost.json"
        mat_path.write_text(json.dumps([[[0.5, 0], [asymmetry, 0]], [[0, 0], [0.5, 0]]]))
        assert run("metrics", mat_path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["purity"] == pytest.approx(0.5)

    def test_non_finite_score_is_not_printed(self, tmp_path, capsys, monkeypatch):
        # stdout is JSON: a NaN or an infinity is an error, not a bare literal
        monkeypatch.setattr("cstomo.cli.summarize", lambda *a, **kw: MetricsSummary(
            fidelity=float("nan"), purity=float("inf"), effective_rank=1, residual_inf=None))
        mat_path = tmp_path / "m.json"
        mat_path.write_text(json.dumps([[[1.0, 0.0]]]))
        assert run("metrics", mat_path) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1


class TestSweepCommand:
    def test_single_cell_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 1,
                   "--mean-total-counts", 1e4, "--tau", 0.7, "--seed", 3,
                   "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("fraction,repeat,seed,fidelity_raw,fidelity_corrected,"
                            "iterations,runtime_seconds,status")
        assert len(lines) == 2  # header + one data row
        assert lines[1].endswith(",ok")
        summary = (tmp_path / "sweep.csv.summary.csv").read_text().strip().splitlines()
        assert summary[0] == ("fraction,n,fidelity_raw_mean,fidelity_raw_std,"
                              "fidelity_corrected_mean,fidelity_corrected_std")
        assert len(summary) == 2

    def test_row_count_and_determinism(self, tmp_path):
        args = ("sweep", "--d", 3, "--fractions", "0.5,0.75", "--repeats", 2,
                "--mean-total-counts", 1e4, "--tau", 0.7, "--seed", 1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        rows_a = a.read_text().strip().splitlines()
        assert len(rows_a) == 1 + 2 * 2
        # identical except the wall-clock runtime column
        assert strip_runtime(a.read_text()) == strip_runtime(b.read_text())
        # summaries carry no timing at all: fully byte-identical
        assert (tmp_path / "a.csv.summary.csv").read_bytes() == \
            (tmp_path / "b.csv.summary.csv").read_bytes()


    def test_outputs_identical_across_jobs(self, tmp_path, monkeypatch, forked_workers):
        # d=5 with the default correction; the last cell's campaign fails
        real = cstomo.experiments.simulate_measurements
        fail_seed = cell_seed(0, 1, 1)

        def simulate(*args, **kwargs):
            if kwargs["seed"] == fail_seed:
                raise ValueError("no campaign for this seed")
            return real(*args, **kwargs)

        monkeypatch.setattr("cstomo.experiments.simulate_measurements", simulate)
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"sweep{jobs}.csv"
            assert run("sweep", "--d", 5, "--fractions", "0.05,0.2", "--repeats", 2,
                       "--jobs", jobs, "--out", out) == 0
            summary = tmp_path / f"sweep{jobs}.csv.summary.csv"
            outputs.append((strip_runtime(out.read_text()), summary.read_bytes()))
        assert outputs[1] == outputs[0]
        lines = outputs[0][0].splitlines()
        assert lines[-1].endswith(",failed: no campaign for this seed")
        assert all(ln.endswith(",ok") for ln in lines[1:-1])

    def test_status_with_a_comma_is_quoted(self, tmp_path, monkeypatch):
        # numpy's own message for an array too large for memory
        message = "Unable to allocate 122. GiB for an array with shape (90601, 90601)"

        def simulate(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("cstomo.experiments.simulate_measurements", simulate)
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.5", "--out", out) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5
        assert all(len(row) == 8 for row in rows)
        assert [row[-1] for row in rows[1:]] == [f"failed: {message}"] * 5

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invariant_violation_in_a_final_solve_fails_only_its_row(
            self, tmp_path, violate_in_final_solve, forked_workers, jobs):
        violate_in_final_solve(cell_seed(0, 0, 1))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 3, "--tau", 0.7,
                   "--jobs", jobs, "--out", out) == 0
        statuses = [ln.split(",")[-1] for ln in out.read_text().strip().splitlines()[1:]]
        assert statuses == ["ok", "failed: iterate lost Hermiticity after projection 1", "ok"]

    def test_in_line_sweep_starts_no_process(self, tmp_path, monkeypatch, no_pool):
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        before = set(multiprocessing.active_children())
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 2, "--tau", 0.7,
                   "--out", out) == 0
        assert set(multiprocessing.active_children()) == before
        assert all(ln.endswith(",ok") for ln in out.read_text().strip().splitlines()[1:])

    @pytest.mark.parametrize("counts", ["inf", "nan", "0", "1e30"])
    def test_rejects_non_finite_counts_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                        counts):
        simulated = []
        monkeypatch.setattr("cstomo.experiments.simulate_measurements",
                            lambda *args, **kwargs: simulated.append(kwargs["seed"]))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 1,
                   "--mean-total-counts", counts, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == COUNTS_ERROR
        assert simulated == [] and not out.exists()

    def test_rejects_step_tol_inf_before_any_cell(self, tmp_path, capsys, monkeypatch):
        simulated = []
        monkeypatch.setattr("cstomo.experiments.simulate_measurements",
                            lambda *args, **kwargs: simulated.append(kwargs["seed"]))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 1,
                   "--tau", 0.7, "--step-tol", "inf", "--out", out) == 1
        assert capsys.readouterr().err == "error: step_tol_rel must lie in (0, 1), got inf\n"
        assert simulated == [] and not out.exists()

    def test_rejects_jobs_below_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 1,
                   "--tau", 0.7, "--jobs", -2, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: jobs must be at least 1, got -2\n"
        assert not out.exists()

    def test_dead_worker_exit_code(self, tmp_path, capsys, monkeypatch, forked_workers):
        # a cell worker killed mid-run (for example when memory runs out)
        monkeypatch.setattr("cstomo.experiments.run_sweep_cell", die)
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 2,
                   "--tau", 0.7, "--jobs", 2, "--out", out) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker died") and err.count("\n") == 1
        assert not out.exists()

    def test_failed_worker_start_exit_code(self, tmp_path, capsys, monkeypatch,
                                           forked_workers):
        # the first worker forks, the second cannot: the first must not linger
        real_fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", fork_once)
        before = set(multiprocessing.active_children())
        out = tmp_path / "sweep.csv"
        try:
            rc = run("sweep", "--d", 3, "--fractions", "0.75", "--repeats", 2,
                     "--tau", 0.7, "--jobs", 2, "--out", out)
        finally:
            stray = set(multiprocessing.active_children()) - before
            for proc in stray:  # keep a failure here from hanging the test run
                proc.kill()
                proc.join(10)
        assert rc == 6
        err = capsys.readouterr().err
        assert err.startswith("error: could not start sweep workers")
        assert err.count("\n") == 1
        assert len(forks) == 2
        assert not stray
        assert not out.exists()


# run in a fresh interpreter: the pool modules, once loaded, stay in
# sys.modules, and the test process loads them itself
IMPORT_GRAPH_SCRIPT = """
import sys
import cstomo
import cstomo.cli
from cstomo.experiments import SweepSpec, run_sweep
from cstomo.solver import ReconstructionConfig

campaign, report = sys.argv[1:]
assert cstomo.cli.main(["simulate", "--d", "3", "--measurements", "40", "--seed", "1",
                        "--mean-total-counts", "5e4", "--out", campaign]) == 0
for flags in ([], ["--no-correction"]):
    assert cstomo.cli.main(["reconstruct", campaign, "--out", report, "--tau", "0.7",
                            *flags]) == 0
spec = SweepSpec(d=3, fractions=[0.75], repeats=2, solver=ReconstructionConfig(tau=0.7))
assert all(row.status == "ok" for row in run_sweep(spec, jobs=1))
loaded = sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))
assert not loaded, f"loaded without a fork: {loaded}"
"""


def test_pool_modules_load_only_when_a_sweep_forks(tmp_path):
    # reconstruct, with and without the correction, and an in-line sweep
    # never fork, so they must not pay for importing the pool
    subprocess.run([sys.executable, "-c", IMPORT_GRAPH_SCRIPT, str(tmp_path / "c.json"),
                    str(tmp_path / "r.json")], env=fresh_process_env(), check=True,
                   timeout=120)


@pytest.mark.filterwarnings("error")
class TestSpiralWidthUnderflow:
    """Below about 1.6e-162, 2·spiral_width² underflows to 0 and the
    downconversion spectrum cannot be formed: every command exits 1 before
    any work, naming the width, with no numpy warning."""

    ERROR = "error: spiral_width and its square must be positive, got 1e-300\n"

    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("simulate", "--d", 5, "--measurements", 10, "--mean-total-counts", 5e4,
                   "--state", "downconversion", "--spiral-width", "1e-300", "--out", out) == 1
        assert capsys.readouterr().err == self.ERROR
        assert not out.exists()

    def test_sweep_runs_no_cell(self, tmp_path, capsys, monkeypatch):
        simulated = []
        monkeypatch.setattr("cstomo.experiments.simulate_measurements",
                            lambda *args, **kwargs: simulated.append(kwargs["seed"]))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--d", 5, "--fractions", "0.2", "--repeats", 1,
                   "--state", "downconversion", "--spiral-width", "1e-300", "--out", out) == 1
        assert capsys.readouterr().err == self.ERROR
        assert simulated == [] and not out.exists()

    def test_metrics_target(self, tmp_path, capsys):
        mat_path = tmp_path / "mixed.json"
        mat_path.write_text(json.dumps([[[1 / 25 if i == j else 0.0, 0.0] for j in range(25)]
                                        for i in range(25)]))
        capsys.readouterr()
        assert run("metrics", mat_path, "--target", "downconversion",
                   "--spiral-width", "1e-300") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == self.ERROR


class TestParser:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--subset-assignment", "round-robin"),
                                             ("--correction-seed", "7")],
                             ids=["subset-assignment", "correction-seed"])
    def test_removed_correction_flags_exit_2(self, tmp_path, capsys, flag, value):
        # the partition is round-robin only: neither flag is known any more
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", str(tmp_path / "c.json"), "--out", str(tmp_path / "r.json"),
                  flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_removed_threshold_mode_flag_exits_2(self, tmp_path, capsys, command):
        # thresholds are relative only: the flag is not known any more
        args = {"reconstruct": [str(tmp_path / "c.json")],
                "sweep": ["--d", "3", "--fractions", "0.75"]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(tmp_path / "o"), "--threshold-mode", "relative"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threshold-mode relative" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["reconstruct", "metrics"])
    def test_removed_rank_tol_flag_exits_2(self, tmp_path, capsys, command):
        # the effective rank's cut is the constant metrics.RANK_REL_TOL
        args = {"reconstruct": ["--out", str(tmp_path / "r.json")], "metrics": []}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, str(tmp_path / "c.json"), *args, "--rank-tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rank-tol 1e-3" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = (["simulate", "--d", 3, "--measurements", 12] if command == "simulate"
                else ["sweep", "--d", 3, "--fractions", "0.75", "--repeats", 1])
        assert run(*argv, "--seed", -1, "--out", out) == 1
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_missing_input_file(self, tmp_path):
        assert run("reconstruct", tmp_path / "nope.json",
                   "--out", tmp_path / "r.json") == 1

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "{dir}", "--out", "{tmp}/r.json", "--no-correction"],
        ["reconstruct", "{c}", "--out", "{dir}", "--tau", "0.7", "--no-correction"],
        ["reconstruct", "{c}", "--out", "{tmp}/r.json", "--diagnostics", "{dir}", "--no-correction"],
        ["metrics", "{dir}"],
        ["simulate", "--d", "3", "--measurements", "12", "--out", "{dir}"],
    ], ids=["reconstruct-input", "reconstruct-out", "reconstruct-diagnostics",
            "metrics-matrix", "simulate-out"])
    def test_directory_for_a_file_exits_1(self, tmp_path, capsys, argv):
        campaign, directory = tmp_path / "c.json", tmp_path / "a-directory"
        directory.mkdir()
        assert run("simulate", "--d", 3, "--measurements", 12, "--out", campaign) == 0
        capsys.readouterr()
        paths = {"dir": directory, "tmp": tmp_path, "c": campaign}
        rc = run(*[a.format(**paths) for a in argv])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not list(tmp_path.glob("*.tmp"))

    def test_output_in_a_missing_directory_names_the_requested_file(
            self, tmp_path, capsys, monkeypatch):
        # the report is written through a temporary file beside it; the
        # error names the file asked for, not the temporary one
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "--d", 3, "--measurements", 12, "--out", "c.json") == 0
        capsys.readouterr()
        assert run("reconstruct", "c.json", "--out", "missing/r.json", "--tau", 0.7,
                   "--no-correction") == 1
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'missing/r.json'\n")

    @pytest.mark.parametrize("command", [["reconstruct", "--out", "{tmp}/r.json"], ["metrics"]],
                             ids=["reconstruct", "metrics"])
    def test_deeply_nested_json_exits_1(self, tmp_path, capsys, command):
        # the JSON decoder recurses once per level; 10^5 levels exceed the
        # interpreter's default recursion limit
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5, encoding="utf-8")
        rc = run(command[0], deep, *[a.format(tmp=tmp_path) for a in command[1:]])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "not valid JSON" in err and "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--d", "3", "--fractions", "0.75"], "--subsets 2"),
        (["simulate", "--d", "3", "--measurements", "10"], "--identical-arms"),
    ], ids=["sweep-subsets", "simulate-identical-arms"])
    def test_removed_sweep_and_simulate_flags_exit_2(self, tmp_path, capsys, argv, flag):
        # a sweep cell runs the default correction, and a simulated
        # projector's arms are two independent draws
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o"), *flag.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, needs", [
        (["simulate", "--d", "3", "--measurements", "5", "--out", "{tmp}/o"],
         "--state downconversion"),
        (["sweep", "--d", "3", "--fractions", "0.75", "--state", "max-entangled",
          "--out", "{tmp}/o"], "--state downconversion"),
        (["metrics", "{tmp}/r.json"], "--target downconversion"),
        (["metrics", "{tmp}/r.json", "--target", "max-entangled"], "--target downconversion"),
    ], ids=["simulate", "sweep", "metrics", "metrics-max-entangled"])
    def test_spiral_width_without_downconversion_exits_2(self, tmp_path, capsys, argv, needs):
        # the width shapes only the downconversion spectrum: without that
        # state or target it would be dropped, so it is refused
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv] + ["--spiral-width", "4"])
        assert exc.value.code == 2
        assert f"error: argument --spiral-width: only with {needs}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_subsets_with_no_correction_exits_2(self, tmp_path, capsys, n):
        # one raw solve has no correction subsets, not even the default one
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct", str(tmp_path / "c.json"), "--out", str(tmp_path / "r.json"),
                  "--no-correction", "--subsets", n])
        assert exc.value.code == 2
        assert ("error: argument --subsets: not allowed with --no-correction\n"
                in capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_explicit_default_width_is_the_default(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--d", 3, "--measurements", 5, "--state", "downconversion"]
        assert run(*argv, "--out", a) == 0
        assert run(*argv, "--spiral-width", 2.5, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOutOfMemory:
    """An array too large for memory ends in one error line and exit 1.
    numpy raises MemoryError when the allocation is refused; the tests make
    the allocating function raise it, because a real huge allocation can be
    granted under memory overcommit and then touched."""

    MESSAGE = ("Unable to allocate 122. GiB for an array with shape (90601, 90601) "
               "and data type complex128")

    # what a large campaign allocates: the simulated state's D×D density
    # matrix, the M×M Gram matrix of the measurements, and the eigenvalues
    # of a stored D×D matrix
    @pytest.mark.parametrize("target, argv", [
        ("cstomo.simulate.state_to_density",
         ["simulate", "--d", "3", "--measurements", "12", "--out", "{out}"]),
        ("cstomo.solver._factor_inverse", ["reconstruct", "{c}", "--out", "{out}"]),
        ("cstomo.metrics.effective_rank", ["metrics", "{m}", "--measurements", "{c}"]),
    ], ids=["simulate", "reconstruct", "metrics"])
    def test_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, target, argv):
        campaign, out = tmp_path / "c.json", tmp_path / "out.json"
        matrix = tmp_path / "m.json"
        assert run("simulate", "--d", 3, "--measurements", 12, "--out", campaign) == 0
        matrix.write_text(json.dumps([[[1 / 9 if i == j else 0.0, 0.0] for j in range(9)]
                                      for i in range(9)]))

        def refused(*args, **kwargs):
            raise MemoryError(self.MESSAGE)

        monkeypatch.setattr(target, refused)
        capsys.readouterr()
        assert run(*[a.format(c=campaign, out=out, m=matrix) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {self.MESSAGE}\n"
        assert not out.exists()

    def test_sweep_fails_the_cell(self, tmp_path, capsys, monkeypatch):
        # a sweep records the refused cell and goes on to the next
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 122. GiB for an array")

        monkeypatch.setattr("cstomo.experiments.simulate_measurements", refused)
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        assert run("sweep", "--d", 3, "--fractions", "0.5,0.75", "--repeats", 1,
                   "--out", out) == 0
        assert capsys.readouterr().err == ""
        rows = out.read_text().strip().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == [
            "failed: Unable to allocate 122. GiB for an array"] * 2


def with_huge_amplitude(path, where):
    """The campaign at ``path`` with one finite amplitude, [1e308, 0], whose
    square overflows: the first projector's or the truth's."""
    doc = json.loads(path.read_text())
    amps = doc["projectors"][0]["signal"] if where == "projector" else doc["truth"]["coeffs"]
    amps[0] = [1e308, 0.0]
    path.write_text(json.dumps(doc))


class TestHugeFiniteValues:
    """A finite value whose square overflows is refused with one error line,
    in a process where numpy's RuntimeWarnings are errors."""

    def cstomo(self, *argv):
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cstomo", *map(str, argv)],
            env=fresh_process_env(), capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("where, error", [
        ("projector", "projectors[0].signal is not normalized: sum |a|^2 = inf"),
        ("truth", "two-photon state is not normalized: sum |a|^2 = inf"),
    ], ids=["projector", "truth"])
    def test_campaign_amplitude(self, tmp_path, where, error):
        campaign, out = tmp_path / "c.json", tmp_path / "r.json"
        assert run("simulate", "--d", 3, "--measurements", 12, "--out", campaign) == 0
        with_huge_amplitude(campaign, where)
        proc = self.cstomo("reconstruct", campaign, "--out", out)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: measurement set: {error}\n")
        assert not out.exists()

    @pytest.mark.parametrize("entry", [1e308, 1e200])
    def test_metrics_matrix(self, tmp_path, entry):
        # 1e200 warned nowhere, but its purity overflowed to a bare Infinity
        matrix = [[[0.0, 0.0]] * 9 for _ in range(9)]
        matrix[0][0] = [entry, 0.0]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix))
        proc = self.cstomo("metrics", path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: {path}: matrix too large to score: sum |m|^2 = inf\n")
