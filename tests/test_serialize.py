import json
import re

import numpy as np
import pytest

from cstomo.errors import SchemaError
from cstomo.metrics import summarize
from cstomo.serialize import (
    dump_json,
    format_float,
    load_matrix,
    load_measurement_set,
    measurement_set_from_dict,
    measurement_set_to_dict,
    report_to_dict,
    save_measurement_set,
    save_report,
)
from cstomo.simulate import simulate_measurements, state_to_density
from cstomo.solver import ReconstructionConfig, reconstruct


@pytest.fixture
def noisy_ms():
    return simulate_measurements(3, 12, seed=1, mean_total_counts=1e4)


class TestMeasurementSetRoundTrip:
    def test_round_trip_exact(self, tmp_path, noisy_ms):
        path = tmp_path / "ms.json"
        save_measurement_set(noisy_ms, str(path))
        back = load_measurement_set(str(path))
        assert back.d == noisy_ms.d
        assert back.seed == noisy_ms.seed
        assert back.calibration == noisy_ms.calibration
        assert np.array_equal(back.probs, noisy_ms.probs)
        assert np.array_equal(back.counts, noisy_ms.counts)
        assert np.array_equal(back.truth.coeffs, noisy_ms.truth.coeffs)
        assert back.signal.tobytes() == noisy_ms.signal.tobytes()
        assert back.idler.tobytes() == noisy_ms.idler.tobytes()

    def test_strip_truth(self, tmp_path, noisy_ms):
        path = tmp_path / "ms.json"
        save_measurement_set(noisy_ms, str(path), strip_truth=True)
        back = load_measurement_set(str(path))
        assert back.truth is None

    def test_schema_keys(self, noisy_ms):
        doc = measurement_set_to_dict(noisy_ms)
        assert set(doc) == {"d", "seed", "calibration", "projectors", "probs", "counts", "truth"}
        assert doc["projectors"][0].keys() == {"signal", "idler"}
        # complex numbers as [re, im] pairs
        pair = doc["projectors"][0]["signal"][0]
        assert isinstance(pair, list) and len(pair) == 2

    def test_deterministic_bytes(self, tmp_path, noisy_ms):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_measurement_set(noisy_ms, str(p1))
        save_measurement_set(noisy_ms, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSchemaValidation:
    def test_missing_key(self):
        with pytest.raises(SchemaError, match="missing required key"):
            measurement_set_from_dict({"d": 3, "projectors": []})

    @pytest.mark.parametrize("d", [0, -3, 3.0, True])
    @pytest.mark.parametrize("m", [0, 12])
    def test_bad_mode_count(self, noisy_ms, d, m):
        doc = measurement_set_to_dict(noisy_ms)
        doc.update(d=d, projectors=doc["projectors"][:m], probs=doc["probs"][:m])
        del doc["counts"]
        with pytest.raises(SchemaError, match="^measurement set: 'd' must be a positive integer$"):
            measurement_set_from_dict(doc)

    def test_probs_length_mismatch(self, noisy_ms):
        doc = measurement_set_to_dict(noisy_ms)
        doc["probs"] = doc["probs"][:-1]
        with pytest.raises(SchemaError, match="probs"):
            measurement_set_from_dict(doc)

    def test_bad_pair(self, noisy_ms):
        doc = measurement_set_to_dict(noisy_ms)
        doc["projectors"][0]["signal"][0] = [1.0]
        with pytest.raises(SchemaError, match="pair"):
            measurement_set_from_dict(doc)

    def test_unnormalized_mode(self, noisy_ms):
        doc = measurement_set_to_dict(noisy_ms)
        doc["projectors"][0]["signal"] = [[2.0, 0.0] for _ in range(3)]
        with pytest.raises(SchemaError, match="normalized"):
            measurement_set_from_dict(doc)

    @pytest.mark.parametrize("arm", ["signal", "idler"])
    def test_unnormalized_row_named(self, tmp_path, noisy_ms, arm):
        doc = measurement_set_to_dict(noisy_ms)
        doc["projectors"][9][arm][1] = [0.9, 0.0]
        path = tmp_path / "ms.json"
        dump_json(doc, str(path))
        with pytest.raises(SchemaError, match=re.escape(
                f"measurement set: projectors[9].{arm} is not normalized")):
            load_measurement_set(str(path))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_prob_named(self, tmp_path, noisy_ms, value):
        # json.load accepts NaN and Infinity, and NaN passes a [0, 1] range check
        doc = measurement_set_to_dict(noisy_ms)
        doc["probs"][4] = value
        path = tmp_path / "ms.json"
        dump_json(doc, str(path))
        with pytest.raises(SchemaError, match=re.escape(
                "measurement set: probs[4] is not finite")):
            load_measurement_set(str(path))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_measurement_set(str(path))

    def test_non_finite_rejected(self, noisy_ms):
        doc = measurement_set_to_dict(noisy_ms)
        doc["truth"]["coeffs"][0] = [float("nan"), 0.0]
        with pytest.raises(SchemaError, match="non-finite"):
            measurement_set_from_dict(doc)


class TestDeepMalformedAmplitude:
    """One bad amplitude deep in a file: the error names it exactly."""

    @pytest.fixture(scope="class")
    def doc(self):
        return measurement_set_to_dict(simulate_measurements(3, 600, seed=2))

    @pytest.mark.parametrize(
        "value, message",
        [
            ([True, 0.0], "projectors[500].idler[2]: expected a [re, im] pair of numbers"),
            (["0.5", 0.0], "projectors[500].idler[2]: expected a [re, im] pair of numbers"),
            ([0.5], "projectors[500].idler[2]: expected a [re, im] pair of numbers"),
            ([0.5, 0.0, 0.0], "projectors[500].idler[2]: expected a [re, im] pair of numbers"),
            ((0.5, 0.0), "projectors[500].idler[2]: expected a [re, im] pair of numbers"),
            (None, "projectors[500].idler: expected length 3, got 2"),
            ([float("inf"), 0.0], "projectors[500].idler: non-finite value"),
            ([10**400, 0], "projectors[500].idler[2]: int too large to convert to float"),
        ],
        ids=["bool", "string", "short-pair", "long-pair", "tuple", "length",
             "non-finite", "overflow"],
    )
    def test_first_offence_named(self, doc, value, message):
        bad = json.loads(json.dumps(doc))
        idler = bad["projectors"][500]["idler"]
        if value is None:
            idler.pop()
        else:
            idler[2] = value
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            measurement_set_from_dict(bad)

    def test_not_a_list(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["projectors"][500]["signal"] = {"re": 1.0}
        with pytest.raises(SchemaError, match=re.escape(
                "projectors[500].signal: expected a list of [re, im] pairs")):
            measurement_set_from_dict(bad)

    def test_earlier_offence_wins(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["projectors"][500]["idler"][2] = [True, 0.0]
        bad["projectors"][3]["signal"] = [[2.0, 0.0]] * 3
        with pytest.raises(SchemaError, match="not normalized"):
            measurement_set_from_dict(bad)

    def test_integer_amplitudes_same_bits(self, doc):
        # integer parts convert exactly as complex(re, im) converts them
        bad = json.loads(json.dumps(doc))
        bad["projectors"][7]["signal"] = [[1, 0], [0, 0], [0, 0]]
        ms = measurement_set_from_dict(bad)
        assert ms.signal[7].tolist() == [1 + 0j, 0j, 0j]
        want = np.array([[complex(*p) for p in entry["idler"]] for entry in doc["projectors"]])
        assert ms.idler.tobytes() == want.tobytes()


class TestReportSerialization:
    def test_report_schema_and_rho_round_trip(self, tmp_path, noisy_ms):
        rep = reconstruct(noisy_ms, ReconstructionConfig(tau=0.7))
        metrics = summarize(rep.rho, measurements=noisy_ms, target=noisy_ms.truth)
        doc = report_to_dict(rep, d=noisy_ms.d, metrics=metrics)
        for key in ("rho", "rho_pre_gamma", "converged", "iterations", "metrics"):
            assert key in doc
        path = tmp_path / "report.json"
        save_report(doc, str(path))
        rho_back = load_matrix(str(path))
        assert np.array_equal(rho_back, rep.rho)

    def test_bare_matrix_file(self, tmp_path, noisy_ms):
        rho = state_to_density(noisy_ms.truth)
        doc = [[[z.real, z.imag] for z in row] for row in rho]
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(doc))
        back = load_matrix(str(path))
        assert np.array_equal(back, rho)

    def test_matrix_integer_beyond_double_range(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[[1" + "0" * 400 + ", 0]]]")
        with pytest.raises(SchemaError, match=re.escape("matrix[0][0]: int too large")):
            load_matrix(str(path))

    def test_probs_integer_beyond_double_range(self, noisy_ms):
        doc = measurement_set_to_dict(noisy_ms)
        doc["probs"][4] = 10**400
        with pytest.raises(SchemaError, match="int too large"):
            measurement_set_from_dict(doc)

    def test_matrix_object_without_rho(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"something": 1}))
        with pytest.raises(SchemaError, match="rho"):
            load_matrix(str(path))


def per_element_pairs(a):
    """The [re, im] writer the array writer replaced: one float() per part."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [per_element_pairs(row) for row in a]


class TestPairWriter:
    """The array writer gives the same document as per-element conversion."""

    def test_campaign(self):
        ms = simulate_measurements(7, 720, seed=5, mean_total_counts=300)
        doc = measurement_set_to_dict(ms)
        assert doc["projectors"] == [
            {"signal": per_element_pairs(s), "idler": per_element_pairs(t)}
            for s, t in zip(ms.signal, ms.idler)
        ]
        assert doc["truth"] == {"coeffs": per_element_pairs(ms.truth.coeffs)}
        assert doc["probs"] == [float(p) for p in ms.probs]
        assert doc["counts"] == [int(c) for c in ms.counts]
        assert all(type(x) is float for pair in doc["projectors"][0]["signal"] for x in pair)
        assert all(type(c) is int for c in doc["counts"])

    def test_report(self):
        from cstomo.correction import NoiseCorrectionConfig, reconstruct_corrected

        ms = simulate_measurements(3, 40, seed=1, mean_total_counts=1e4)
        rep = reconstruct_corrected(
            ms, NoiseCorrectionConfig(n_subsets=2, base=ReconstructionConfig(tau=0.7))
        )
        doc = report_to_dict(rep, d=3)
        assert doc["rho"] == per_element_pairs(rep.rho)
        assert doc["rho_pre_gamma"] == per_element_pairs(rep.rho_pre_gamma)
        assert doc["correction"]["raw"]["rho"] == per_element_pairs(rep.correction.raw_report.rho)
        rep.rho = np.asfortranarray(rep.rho)  # any memory layout, same pairs
        assert report_to_dict(rep, d=3) == doc


class TestFormatting:
    def test_format_float_17_significant_digits(self):
        s = format_float(1 / 3)
        assert s == "3.3333333333333331e-01"
        assert float(s) == 1 / 3  # exact round trip

    def test_dump_json_atomic_and_newline_terminated(self, tmp_path):
        path = tmp_path / "x.json"
        dump_json({"b": 1, "a": [1.5]}, str(path))
        text = path.read_text()
        assert text == '{"a":[1.5],"b":1}\n'
        assert not (tmp_path / "x.json.tmp").exists()
