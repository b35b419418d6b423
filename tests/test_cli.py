import json
import subprocess
import sys

import numpy as np
import pytest

from bilinid import FourTuple, conjugate, gaussian_tuple, to_json
from bilinid.cli import main

SCALAR = FourTuple([[-1.0]], [[0.5]], [1.0], [2.0])
SHIFT = FourTuple([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]],
                  [0.0, 1.0], [1.0, 0.0])


@pytest.fixture
def scalar_file(tmp_path):
    p = tmp_path / "scalar.json"
    p.write_text(to_json(SCALAR))
    return str(p)


@pytest.fixture
def shift_file(tmp_path):
    p = tmp_path / "shift.json"
    p.write_text(to_json(SHIFT))
    return str(p)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSimulate:
    def test_pulse_response(self, capsys, scalar_file):
        code, out, _ = _run(capsys, "simulate", "--system", scalar_file,
                            "--pulse", "1.0", "1.0", "0.0",
                            "--grid", "0.5:0.5:2.0")
        assert code == 0
        doc = json.loads(out)
        assert [float(v) for v in doc["times"]] == [0.5, 1.0, 1.5, 2.0]
        # during the pulse the closed loop is xdot = -0.5 x + 1, x(0) = 0
        y1 = float(doc["outputs"][1])
        assert y1 == pytest.approx(4.0 * (1.0 - np.exp(-0.5)), abs=1e-12)

    def test_states_flag(self, capsys, scalar_file):
        code, out, _ = _run(capsys, "simulate", "--system", scalar_file,
                            "--pulse", "1.0", "1.0", "0.0",
                            "--grid", "1.0:1.0:2.0", "--states")
        assert code == 0
        assert json.loads(out)["states"] is not None

    def test_input_file(self, capsys, scalar_file, tmp_path):
        u = tmp_path / "input.json"
        u.write_text(json.dumps({
            "breakpoints": ["0.0", "1.0"], "levels": ["1.0", "0.0"],
            "horizon": "3.0"}))
        code, out, _ = _run(capsys, "simulate", "--system", scalar_file,
                            "--input", str(u), "--grid", "0.5:0.5:2.5")
        assert code == 0
        assert len(json.loads(out)["outputs"]) == 5

    def test_bad_grid_is_usage_error(self, capsys, scalar_file):
        code, _, err = _run(capsys, "simulate", "--system", scalar_file,
                            "--pulse", "1", "1", "0", "--grid", "oops")
        assert code == 1
        assert "grid" in err

    def test_overflow_exits_two(self, capsys, tmp_path):
        p = tmp_path / "fast.json"
        p.write_text(to_json(FourTuple([[200.0]], [[0.0]], [1.0], [1.0],
                                       "II")))
        code, out, err = _run(capsys, "simulate", "--system", str(p),
                              "--pulse", "0", "1", "1", "--grid", "0:0.1:5")
        assert code == 2
        assert json.loads(out)["error"] == "Overflow"
        assert err == ""

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, "simulate", "--system",
                            str(tmp_path / "absent.json"),
                            "--pulse", "1", "1", "0", "--grid", "0:1:2")
        assert code == 1
        assert err


class TestChecks:
    def test_equivalent_pair(self, capsys, scalar_file, tmp_path):
        padded = FourTuple([[-1.0, 0.0], [0.0, -5.0]],
                           [[0.5, 0.0], [0.0, 1.0]],
                           [1.0, 0.0], [2.0, 3.0])
        p = tmp_path / "padded.json"
        p.write_text(to_json(padded))
        code, out, _ = _run(capsys, "check-equiv", "--a", scalar_file,
                            "--b", str(p))
        assert code == 0
        assert json.loads(out) == {"equivalent": True, "word": None}

    def test_inequivalent_pair_reports_word(self, capsys, shift_file,
                                            tmp_path):
        other = FourTuple(SHIFT.A, [[0.0, 0.0], [0.0, 1.0]], SHIFT.b, SHIFT.c)
        p = tmp_path / "other.json"
        p.write_text(to_json(other))
        code, out, _ = _run(capsys, "check-equiv", "--a", shift_file,
                            "--b", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["equivalent"] is False
        assert doc["word"] == "AN"

    def test_large_pair_needs_no_word_bound(self, capsys, tmp_path):
        # n1 + n2 = 16, past the old cap of 12; --max-len is gone
        rng = np.random.default_rng(3)
        t = gaussian_tuple(8, rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(to_json(t))
        T = np.eye(8) + 0.1 * rng.standard_normal((8, 8))
        b.write_text(to_json(conjugate(t, T)))
        code, out, _ = _run(capsys, "check-equiv", "--a", str(a),
                            "--b", str(b))
        assert code == 0
        assert json.loads(out) == {"equivalent": True, "word": None}
        code, _, _ = _run(capsys, "check-equiv", "--a", str(a), "--b", str(b),
                          "--max-len", "3")
        assert code == 1

    def test_canonical_true(self, capsys, shift_file):
        code, out, _ = _run(capsys, "check-canonical", "--system", shift_file)
        assert code == 0
        assert json.loads(out) == {"canonical": True, "reason": None}

    def test_unreachable_reason(self, capsys, tmp_path):
        dead = FourTuple(SHIFT.A, SHIFT.N, [0.0, 0.0], SHIFT.c)
        p = tmp_path / "dead.json"
        p.write_text(to_json(dead))
        code, out, _ = _run(capsys, "check-canonical", "--system", str(p))
        assert code == 0
        assert json.loads(out) == {"canonical": False,
                                   "reason": "reachability rank 0"}

    def test_unobservable_reason(self, capsys, tmp_path):
        mute = FourTuple(SHIFT.A, SHIFT.N, SHIFT.b, [0.0, 0.0])
        p = tmp_path / "mute.json"
        p.write_text(to_json(mute))
        code, out, _ = _run(capsys, "check-canonical", "--system", str(p))
        assert code == 0
        assert json.loads(out) == {"canonical": False,
                                   "reason": "observability rank 0"}

    def test_classify(self, capsys, shift_file):
        code, out, _ = _run(capsys, "classify", "--system", shift_file)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"in_G0", "in_C", "in_M", "in_B_alpha",
                            "diagnostics"}
        assert doc["in_G0"] is True

    def test_tolerance_override(self, capsys, shift_file):
        code, out, _ = _run(capsys, "check-canonical", "--system", shift_file,
                            "--tol", "rank_tol=1e-6")
        assert code == 0
        assert json.loads(out)["canonical"] is True

    def test_bad_tolerance_name(self, capsys, shift_file):
        code, _, err = _run(capsys, "check-canonical", "--system", shift_file,
                            "--tol", "bogus=1")
        assert code == 1
        assert "tol" in err


class TestCounterexample:
    def test_single_pulse_runs_and_is_deterministic(self, capsys):
        args = ("counterexample", "--class", "single-pulse", "--tau", "1.0",
                "--alpha", "1.0", "--rng-seed", "3")
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["input_class"]["kind"] == "single-pulse"
        assert float(doc["agreement_residual"]) < 1e-7

    def test_constants_class(self, capsys):
        code, out, _ = _run(capsys, "counterexample", "--class", "constants",
                            "--rng-seed", "5")
        assert code == 0
        assert json.loads(out)["input_class"]["tau"] is None

    def test_sampled_class(self, capsys):
        code, out, _ = _run(capsys, "counterexample", "--class", "sampled",
                            "--rng-seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert float(doc["agreement_residual"]) < 1e-9

    def test_bad_seed_is_domain_error(self, capsys, shift_file):
        # the shift pair is not in class C, so seeding fails downstream
        code, out, _ = _run(capsys, "counterexample", "--class",
                            "single-pulse", "--seed-tuple", shift_file)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "NotInC"
        assert doc["message"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pair.json"
        code, out, _ = _run(capsys, "counterexample", "--class",
                            "pulse-family", "--rng-seed", "2",
                            "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["input_class"]["kind"] \
            == "pulse-family"


class TestIdentify:
    def test_scalar(self, capsys, scalar_file):
        code, out, _ = _run(capsys, "identify", "--system", scalar_file,
                            "--alpha", "1.0", "--n-max", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 1
        assert float(doc["tuple"]["A"][0][0]) == pytest.approx(-1.0,
                                                               abs=1e-6)
        assert "fit_residual" in doc["diagnostics"]


class TestUsage:
    def test_unknown_verb(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_no_verb(self, capsys):
        assert _run(capsys, )[0] == 1

    def test_help_exits_zero(self, capsys):
        assert _run(capsys, "--help")[0] == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bilinid.cli", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "reproduce" in proc.stdout


class TestReproduce:
    def test_single_criterion(self, capsys):
        code, out, err = _run(capsys, "reproduce", "--only", "8")
        assert code == 0
        assert out.startswith("PASS  criterion 8")
        assert "budget" in err

    def test_unknown_criterion(self, capsys):
        code, _, _ = _run(capsys, "reproduce", "--only", "11")
        assert code == 1
