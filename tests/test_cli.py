import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbidisc.cli import (
    matrix_from_json,
    matrix_to_json,
    run_command,
    save_matrix,
)
from symbidisc.blh import blh_solve, make_problem
from symbidisc.errors import NonFiniteInput
from symbidisc.generate import random_unitary
from symbidisc.hardy import SymbolPoly
from symbidisc.linalg import adj
from symbidisc.numrad import numerical_radius
from test_blh import _dense_invariance_check, _stacked_opnorm_inner_residual


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


@pytest.mark.parametrize("s, p", [("nan", "0"), ("inf", "0"), ("0", "1-infj")])
def test_point_with_a_non_finite_coordinate_is_a_typed_error(capsys, s, p):
    code, out, err = run(capsys, ["point", "--s", s, "--p", p])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


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
    assert obj["wA_decided_by"] == "level set"
    assert obj["flushed_max"] == 0.0


def test_classify_reports_the_grid_bounds_that_decided(capsys, tmp_path):
    # P = 0 makes S the fundamental operator; w(S) = 0.95 is far enough below
    # 1 for the 16-angle grid to decide, so wA and wA_upper bracket w(S), while
    # Kittaneh's bound sqrt(1.9^2 / sqrt 2) = 1.60 does not pass it
    S = np.array([[0.0, 1.9], [0.0, 0.0]])
    s_path = write_matrix(tmp_path / "S.json", S)
    p_path = write_matrix(tmp_path / "P.json", np.zeros((2, 2)))
    code, out, _ = run(capsys, ["classify", "--S", s_path, "--P", p_path])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "GammaContraction"
    value = numerical_radius(S).value
    assert obj["wA"] <= value <= obj["wA_upper"]
    assert obj["wA_upper"] - obj["wA"] > 1e-6  # grid bounds, not the level-set ones
    assert obj["wA_decided_by"] == "grid"


def test_classify_reports_no_w_a_step_on_an_early_rejection(capsys, tmp_path):
    # ||S|| > 2 answers NotGamma before the fundamental operator is solved
    s_path = write_matrix(tmp_path / "S.json", np.array([[2.2]]))
    p_path = write_matrix(tmp_path / "P.json", np.array([[1.0]]))
    code, out, _ = run(capsys, ["classify", "--S", s_path, "--P", p_path])
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "NotGamma"
    assert obj["wA_decided_by"] is None


def test_classify_reports_flushed_max(capsys, tmp_path):
    # the near-isometric direction of P is cut from the defect space
    s_path = write_matrix(tmp_path / "S.json", np.diag([1.9 + 1e-9j, 0.3]))
    p_path = write_matrix(tmp_path / "P.json", np.diag([1 - 1e-12, 0.5]))
    code, out, _ = run(capsys, ["classify", "--S", s_path, "--P", p_path])
    assert code == 0
    assert 0 < json.loads(out)["flushed_max"] < 1e-10


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
    assert obj["steps"] >= 1


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


def _write_symbol(path, theta):
    path.write_text(json.dumps({"coeffs": [matrix_to_json(c) for c in theta.coeffs]}))
    return str(path)


_SHIFT_W = random_unitary(np.random.default_rng(31), 2)
_BLH_FILES = {  # Theta = W z, solved by B = W* A W, and the diag(z, 1) counterexample
    "solved": (
        np.array([[0.3, -0.5j], [0.2, 0.1 + 0.4j]]),
        SymbolPoly([np.zeros((2, 2)), _SHIFT_W]),
    ),
    "unsolved": (
        np.array([[0.0, 2.0], [0.0, 0.0]]),
        SymbolPoly([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])]),
    ),
}


@pytest.mark.parametrize("case", ["solved", "unsolved"])
def test_blh_json_keys_and_values_match_an_eager_computation(capsys, tmp_path, case):
    # inner_residual and wB are computed when the command reads them; the JSON
    # keeps its keys, and its values are those of the eager forms up to rounding
    A, theta = _BLH_FILES[case]
    a_path = write_matrix(tmp_path / "A.json", A)
    argv = ["--A", a_path, "--theta", _write_symbol(tmp_path / "theta.json", theta)]
    code, out, err = run(capsys, ["blh", "solve", *argv])
    assert code == 0 and err == ""
    obj = json.loads(out)
    sol = blh_solve(make_problem(A, theta))
    inner_residual, sup_norm = _stacked_opnorm_inner_residual(theta)
    rounding = 8 * np.finfo(float).eps * max(1.0, sup_norm**2)
    assert abs(obj["inner_residual"] - inner_residual) <= rounding
    assert obj["residual"] == pytest.approx(sol.residual, rel=1e-12, abs=1e-15)
    if case == "solved":
        assert set(obj) == {"B", "inner_residual", "kernel_dim", "residual", "solved", "wB"}
        assert obj["solved"] is True and obj["kernel_dim"] == sol.kernel_dim == 0
        B = matrix_from_json(obj["B"])
        assert np.allclose(B, sol.B, rtol=0, atol=1e-14)
        assert np.allclose(B, adj(_SHIFT_W) @ A @ _SHIFT_W, rtol=0, atol=1e-14)
        assert obj["wB"] == pytest.approx(numerical_radius(B).value, rel=1e-12)
    else:
        assert set(obj) == {"best_B", "inner_residual", "residual", "solved"}
        assert obj["solved"] is False and obj["residual"] >= 1
        assert np.allclose(matrix_from_json(obj["best_B"]), sol.best_B, rtol=0, atol=1e-14)

    code, out, err = run(capsys, ["blh", "check", *argv])
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert set(obj) == {"N", "invariant", "residual"} and obj["N"] == 8
    invariant, residual = _dense_invariance_check(A, theta, 8)
    assert obj["invariant"] is invariant is (case == "solved")
    assert obj["residual"] == pytest.approx(residual, rel=1e-12, abs=1e-13)


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
    assert obj["cnu_margin"] == 0.5
    assert "delta_norm" not in obj
    S_model = matrix_from_json(json.loads((tmp_path / "m_S_model.json").read_text()))
    assert S_model[0, 0] == pytest.approx(1.2, abs=1e-6)


def test_dilate_nf_ay_on_the_empty_pair(capsys, tmp_path):
    path = tmp_path / "E.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "data": []}))
    prefix = str(tmp_path / "m")
    argv = ["dilate", "--nf-ay", "--S", str(path), "--P", str(path), "--out-prefix", prefix]
    code, out, _ = run(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["residual_S"] == obj["residual_P"] == obj["trunc_error"] == 0.0
    basis = matrix_from_json(json.loads((tmp_path / "m_basis.json").read_text()))
    assert basis.shape == (0, 0)


def test_dilate_nf_ay_refuses_a_truncation_under_transient_growth(capsys, tmp_path):
    # rho(P)^27 <= 1e-8, but ||P^27|| = 5.8e-2 for this non-normal P
    n = 10
    T = 0.5 * np.eye(n) + 0.5 * np.diag(np.ones(n - 1), -1)
    P = 0.999 * T / np.linalg.norm(T, 2)
    s_path = write_matrix(tmp_path / "S.json", (np.eye(n) + P) / 2)
    p_path = write_matrix(tmp_path / "P.json", P)
    argv = ["dilate", "--nf-ay", "--S", s_path, "--P", p_path, "--N", "26",
            "--out-prefix", str(tmp_path / "m")]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "TruncationTooSmall"


@pytest.mark.parametrize(
    "argv", [["dilate", "--schaffer"], ["dilate", "--nf-ay"], ["blh", "check"]]
)
def test_over_budget_truncation_is_a_typed_error(capsys, tmp_path, argv):
    s_path = write_matrix(tmp_path / "S.json", 1.2 * np.eye(2))
    p_path = write_matrix(tmp_path / "P.json", 0.5 * np.eye(2))
    t_path = tmp_path / "theta.json"
    t_path.write_text(json.dumps({"coeffs": [matrix_to_json(np.eye(2))]}))
    if argv[0] == "dilate":
        argv += ["--S", s_path, "--P", p_path, "--out-prefix", str(tmp_path / "m")]
    else:
        argv += ["--A", s_path, "--theta", str(t_path)]
    code, out, err = run(capsys, argv + ["--N", str(10**7)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ProblemTooLarge"


@pytest.mark.parametrize("action", ["solve", "check"])
def test_blh_symbol_off_the_codomain_of_theta_is_a_value_error(capsys, tmp_path, action):
    a_path = write_matrix(tmp_path / "A.json", np.eye(2))
    t_path = tmp_path / "theta.json"
    t_path.write_text(json.dumps({"coeffs": [matrix_to_json(np.eye(1))]}))
    code, out, err = run(capsys, ["blh", action, "--A", a_path, "--theta", str(t_path)])
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "ValueError"
    assert obj["message"] == "A must be square on the codomain of theta"


def test_domain_error_exit_code_and_json_stderr(capsys, tmp_path):
    code, out, err = run(capsys, ["numrad", "--A", str(tmp_path / "missing.json")])
    assert code == 1
    obj = json.loads(err)
    assert "error" in obj and "message" in obj


def test_non_finite_matrix_file_is_a_typed_error(capsys, tmp_path):
    s_path = tmp_path / "S.json"
    s_path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]}))
    p_path = write_matrix(tmp_path / "P.json", np.zeros((1, 1)))
    code, out, err = run(capsys, ["classify", "--S", str(s_path), "--P", p_path])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "NonFiniteInput"


@pytest.mark.parametrize(
    "bad",
    [
        {"rows": 1, "cols": 2, "data": [[None, 0], [0, 0]]},
        [1, 2],
        {"rows": "1", "cols": 1, "data": [[0, 0]]},
        {"rows": 1, "cols": 1, "data": {"0": [0, 0]}},
        {"rows": 1, "cols": 1, "data": [[0, 0, 0]]},
        {"rows": 1, "cols": 1, "data": [[True, 0]]},
        {"rows": -1, "cols": -1, "data": [[0, 0]]},
    ],
)
def test_malformed_matrix_file_is_a_value_error(capsys, tmp_path, bad):
    a_path = tmp_path / "A.json"
    a_path.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["numrad", "--A", str(a_path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_matrix_entry_beyond_the_float_range_is_non_finite():
    with pytest.raises(NonFiniteInput):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[10**400, 0]]})


@pytest.mark.parametrize("bad", [[1], {"coeffs": 3}, {"coeffs": "ab"}, {"coeffs": [[1, 2]]}])
def test_malformed_symbol_file_is_a_value_error(capsys, tmp_path, bad):
    a_path = write_matrix(tmp_path / "A.json", np.eye(1))
    t_path = tmp_path / "theta.json"
    t_path.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["blh", "solve", "--A", a_path, "--theta", str(t_path)])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "bad",
    [{"N": "3"}, {"N": 1.5}, {"seed": 1.0}, {"seed": -1}, {"seed": None}, ["N", 3], "N"],
)
def test_malformed_config_is_rejected_before_any_output(capsys, tmp_path, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["--config", str(cfg), "suite"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ValueError"


_LEAF = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_MATRIX = st.fixed_dictionaries(
    {
        "rows": st.integers(-1, 3) | _LEAF,
        "cols": st.integers(-1, 3) | _LEAF,
        "data": st.lists(st.lists(_LEAF, max_size=3) | _LEAF, max_size=9) | _JSON,
    }
)
_SQUARE = st.integers(0, 3).flatmap(
    lambda n: st.fixed_dictionaries(
        {
            "rows": st.just(n),
            "cols": st.just(n),
            "data": st.lists(
                st.lists(st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False),
                         min_size=2, max_size=2),
                min_size=n * n,
                max_size=n * n,
            ),
        }
    )
)
_CONFIG = st.dictionaries(
    st.sampled_from(["rank_tol", "residual_tol", "wr_slack", "N", "seed"]),
    _LEAF | st.floats(1e-12, 0.9) | st.integers(-1, 40),
    max_size=5,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_SQUARE | _MATRIX | _JSON, st.just({}) | _CONFIG | _JSON)
def test_numrad_on_arbitrary_json_files_answers_or_rejects(matrix, config):
    with tempfile.TemporaryDirectory() as tmp:
        a_path, cfg_path = Path(tmp, "A.json"), Path(tmp, "cfg.json")
        a_path.write_text(json.dumps(matrix))
        cfg_path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["--config", str(cfg_path), "numrad", "--A", str(a_path)])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        obj = json.loads(err.getvalue())
        assert isinstance(obj, dict) and set(obj) == {"error", "message"}


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
    # unknown keys, such as the retired grid sizes, w(A) slack and tolerances, are ignored
    retired = {"boundary_grid": 256, "vn_grid": 64, "wr_slack": 0.5,
               "rank_tol": 1.5, "residual_tol": None}
    cfg.write_text(json.dumps({"seed": 3, "N": 16, **retired}))
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
