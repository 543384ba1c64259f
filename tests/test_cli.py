import json

import numpy as np
import pytest

from symbidisc.cli import (
    matrix_from_json,
    matrix_to_json,
    run_command,
    save_matrix,
)


def write_matrix(path, M):
    save_matrix(str(path), M)
    return str(path)


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_round_trip_exact():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = json.loads(json.dumps(matrix_to_json(M)))
    back = matrix_from_json(obj)
    assert np.array_equal(back, M)


def test_matrix_length_validation():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_point_command(capsys):
    code, out, _ = run(capsys, ["point", "--s", "2", "--p", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["inside"] is True
    assert obj["beta"] == pytest.approx([1.0, 0.0], abs=1e-12)


def test_point_outside(capsys):
    code, out, _ = run(capsys, ["point", "--s", "2.2", "--p", "1"])
    assert code == 0
    assert json.loads(out)["inside"] is False


def test_classify_command(capsys, tmp_path):
    s_path = write_matrix(tmp_path / "S.json", np.array([[0.0, 2.0], [0.0, 0.0]]))
    p_path = write_matrix(tmp_path / "P.json", np.zeros((2, 2)))
    code, out, _ = run(capsys, ["classify", "--S", s_path, "--P", p_path])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "GammaContraction"
    assert obj["wA"] <= obj["wA_upper"]
    assert 1.0 <= obj["wA_upper"] <= 1 + 1e-8
    assert obj["wA"] == pytest.approx(1.0, abs=1e-8)


def test_fundamental_command(capsys, tmp_path):
    s_path = write_matrix(tmp_path / "S.json", np.array([[1.2]]))
    p_path = write_matrix(tmp_path / "P.json", np.array([[0.5]]))
    code, out, _ = run(capsys, ["fundamental", "--S", s_path, "--P", p_path])
    assert code == 0
    obj = json.loads(out)
    assert obj["A"]["data"][0] == pytest.approx([0.8, 0.0], abs=1e-12)
    assert obj["wA"] == pytest.approx(0.8, abs=1e-9)


def test_numrad_command(capsys, tmp_path):
    a_path = write_matrix(tmp_path / "A.json", np.array([[0.0, 2.0], [0.0, 0.0]]))
    code, out, _ = run(capsys, ["numrad", "--A", a_path])
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(1.0, abs=1e-9)
    assert obj["value"] <= obj["upper"]
    assert 1.0 <= obj["upper"] <= 1 + 1e-11


def test_blh_solve_command_echoes_a_for_shift_theta(capsys, tmp_path):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 2))
    a_path = write_matrix(tmp_path / "A.json", A)
    theta = {
        "coeffs": [matrix_to_json(np.zeros((2, 2))), matrix_to_json(np.eye(2))]
    }
    t_path = tmp_path / "theta.json"
    t_path.write_text(json.dumps(theta))
    code, out, _ = run(capsys, ["blh", "solve", "--A", a_path, "--theta", str(t_path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["solved"] is True
    B = matrix_from_json(obj["B"])
    assert np.allclose(B, A, atol=1e-12)


def test_blh_check_command(capsys, tmp_path):
    a_path = write_matrix(tmp_path / "A.json", np.array([[0.0, 2.0], [0.0, 0.0]]))
    theta = {
        "coeffs": [matrix_to_json(np.diag([0.0, 1.0])), matrix_to_json(np.diag([1.0, 0.0]))]
    }
    t_path = tmp_path / "theta.json"
    t_path.write_text(json.dumps(theta))
    code, out, _ = run(capsys, ["blh", "check", "--A", a_path, "--theta", str(t_path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["invariant"] is False
    assert obj["residual"] >= 0.1


def test_dilate_schaffer_writes_files(capsys, tmp_path):
    s_path = write_matrix(tmp_path / "S.json", np.array([[1.2]]))
    p_path = write_matrix(tmp_path / "P.json", np.array([[0.5]]))
    prefix = str(tmp_path / "out")
    code, out, _ = run(
        capsys,
        ["dilate", "--schaffer", "--S", s_path, "--P", p_path, "--N", "16",
         "--out-prefix", prefix],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["intertwining_residual_S"] < 1e-12
    V = matrix_from_json(json.loads((tmp_path / "out_V.json").read_text()))
    assert V.shape == (18, 18)


def test_dilate_nf_ay(capsys, tmp_path):
    s_path = write_matrix(tmp_path / "S.json", np.array([[1.2]]))
    p_path = write_matrix(tmp_path / "P.json", np.array([[0.5]]))
    prefix = str(tmp_path / "m")
    code, out, _ = run(
        capsys,
        ["dilate", "--nf-ay", "--S", s_path, "--P", p_path, "--out-prefix", prefix],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["residual_S"] <= 1e-6
    S_model = matrix_from_json(json.loads((tmp_path / "m_S_model.json").read_text()))
    assert S_model[0, 0] == pytest.approx(1.2, abs=1e-6)


def test_domain_error_exit_code_and_json_stderr(capsys, tmp_path):
    code, out, err = run(capsys, ["numrad", "--A", str(tmp_path / "missing.json")])
    assert code == 1
    obj = json.loads(err)
    assert "error" in obj and "message" in obj


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_command(["no-such-command"])
    assert exc.value.code == 2


def test_deterministic_output(capsys, tmp_path):
    a_path = write_matrix(tmp_path / "A.json", np.array([[0.3, -0.1], [0.7, 0.2]]))
    _, out1, _ = run(capsys, ["numrad", "--A", a_path])
    _, out2, _ = run(capsys, ["numrad", "--A", a_path])
    assert out1 == out2


def test_config_file_round_trip(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "N": 16}))
    a_path = write_matrix(tmp_path / "A.json", np.eye(2))
    code, out, _ = run(capsys, ["--config", str(cfg), "numrad", "--A", a_path])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-12)


def test_bad_config_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 1}))
    a_path = write_matrix(tmp_path / "A.json", np.eye(2))
    code, _, err = run(capsys, ["--config", str(cfg), "numrad", "--A", a_path])
    assert code == 1
    assert "N" in json.loads(err)["message"]
