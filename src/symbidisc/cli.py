"""Command-line surface: JSON matrix I/O and reports for every solver.

Matrix files are JSON objects {"rows": r, "cols": c, "data": [[re, im], ...]}
with row-major data.  All output is deterministic: keys are sorted and
floats use shortest round-trip formatting, so identical inputs and seeds
produce byte-identical results.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .blh import BlhSolution, blh_solve, invariance_check, make_problem
from .classify import fundamental_op, is_gamma_contraction
from .defect import defect_data
from .dilation import nf_ay_build, schaffer_build
from .errors import NonFiniteInput, SymbidiscError
from .gamma_point import GammaPoint, beta_solve, in_gamma
from .hardy import SymbolPoly
from .linalg import adj, as_matrix, opnorm
from .numrad import numerical_radius
from .pair import make_pair
from .suite import RunConfig, run_suite

CONFIG_ENV = "SYMBIDISC_CONFIG"


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------


def matrix_to_json(M) -> dict:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    r, c = M.shape
    data = [[float(v.real), float(v.imag)] for v in M.ravel()]
    return {"cols": c, "data": data, "rows": r}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_pair_of_numbers(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(
        _is_int(x) or isinstance(x, float) for x in v
    )


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of a JSON matrix object; ValueError on a wrong shape or type."""
    if not isinstance(obj, dict):
        raise ValueError(f"a matrix must be a JSON object, got {type(obj).__name__}")
    r, c, data = obj["rows"], obj["cols"], obj["data"]
    if not (_is_int(r) and _is_int(c) and r >= 0 and c >= 0):
        raise ValueError(f"rows and cols must be non-negative integers, got {r!r} and {c!r}")
    if not isinstance(data, list) or len(data) != r * c:
        raise ValueError(f"data must be a list of rows*cols = {r * c} entries")
    if not all(map(_is_pair_of_numbers, data)):
        raise ValueError("every data entry must be a pair [re, im] of numbers")
    try:
        entries = np.array([complex(re, im) for re, im in data])
    except OverflowError:  # an integer beyond the float range
        raise NonFiniteInput("matrix has an entry beyond the float range") from None
    return as_matrix(entries.reshape(r, c))


def load_matrix(path: str) -> np.ndarray:
    with open(path) as f:
        return matrix_from_json(json.load(f))


def save_matrix(path: str, M) -> None:
    with open(path, "w") as f:
        f.write(_dumps(matrix_to_json(M)))
        f.write("\n")


def load_symbol_poly(path: str) -> SymbolPoly:
    with open(path) as f:
        obj = json.load(f)
    if not isinstance(obj, dict) or not isinstance(obj["coeffs"], list):
        raise ValueError('a symbol file must be a JSON object {"coeffs": [matrix, ...]}')
    return SymbolPoly([matrix_from_json(c) for c in obj["coeffs"]])


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "))


def _emit(obj) -> None:
    print(_dumps(obj))


def load_config(path) -> RunConfig:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return RunConfig()
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"a config must be a JSON object, got {type(raw).__name__}")
    known = {k: raw[k] for k in RunConfig.__dataclass_fields__ if k in raw}
    return RunConfig(**known)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_point(args, cfg: RunConfig) -> int:
    pt = GammaPoint(complex(args.s), complex(args.p))
    sol = beta_solve(pt)
    _emit(
        {
            "beta": [sol.beta.real, sol.beta.imag],
            "beta_exact": sol.exact,
            "beta_residual": sol.residual,
            "inside": in_gamma(pt),
            "p": [pt.p.real, pt.p.imag],
            "s": [pt.s.real, pt.s.imag],
        }
    )
    return 0


def _load_pair(args):
    return make_pair(load_matrix(args.S), load_matrix(args.P))


def _cmd_classify(args, cfg: RunConfig) -> int:
    rep = is_gamma_contraction(_load_pair(args))
    out = {
        "checks": [[name, ok, res] for name, ok, res in rep.checks],
        "flushed_max": rep.flushed_max,
        "fundamental_residual": rep.fundamental_residual,
        "kind": rep.kind,
        "wA": rep.wA,
        "wA_upper": rep.wA_upper,
        "wA_decided_by": rep.wA_decided_by,
    }
    if rep.fundamental_op is not None:
        out["fundamental_op"] = matrix_to_json(rep.fundamental_op)
    _emit(out)
    return 0


def _cmd_fundamental(args, cfg: RunConfig) -> int:
    pair = _load_pair(args)
    F, residual = fundamental_op(pair.S, defect_data(pair.P))
    _emit(
        {
            "A": matrix_to_json(F),
            "residual": residual,
            "wA": numerical_radius(F).value,
        }
    )
    return 0


def _cmd_numrad(args, cfg: RunConfig) -> int:
    _emit(dataclasses.asdict(numerical_radius(load_matrix(args.A))))
    return 0


def _cmd_dilate(args, cfg: RunConfig) -> int:
    pair = _load_pair(args)
    N = args.N if args.N is not None else cfg.N
    prefix = args.out_prefix
    if args.schaffer:
        sp = schaffer_build(pair, N)
        outputs = [("V", sp.V), ("W", sp.W), ("embed", sp.embed)]
        report = {
            "intertwining_residual_P": opnorm(adj(sp.V) @ sp.embed - sp.embed @ adj(pair.P)),
            "intertwining_residual_S": opnorm(adj(sp.W) @ sp.embed - sp.embed @ adj(pair.S)),
            "kind": "schaffer",
        }
    else:
        m = nf_ay_build(pair, N)
        outputs = [
            ("S_model", m.S_model),
            ("P_model", m.P_model),
            ("basis", m.model_space.basis),
            ("symbol", m.symbol_A),
        ]
        report = {
            "cnu_margin": m.model_space.cnu_margin,
            "kind": "nf-ay",
            "residual_P": m.residual_P,
            "residual_S": m.residual_S,
            "trunc_error": m.model_space.trunc_error,
        }
    files = [f"{prefix}_{suffix}.json" for suffix, _ in outputs]
    for path, (_, M) in zip(files, outputs):
        save_matrix(path, M)
    _emit({"N": N, "files": files, **report})
    return 0


def _cmd_blh(args, cfg: RunConfig) -> int:
    A = load_matrix(args.A)
    theta = load_symbol_poly(args.theta)
    if args.blh_action == "solve":
        prob = make_problem(A, theta)
        sol = blh_solve(prob)
        if isinstance(sol, BlhSolution):
            _emit(
                {
                    "B": matrix_to_json(sol.B),
                    "inner_residual": prob.inner_residual,
                    "kernel_dim": sol.kernel_dim,
                    "residual": sol.residual,
                    "solved": True,
                    "wB": sol.wB,
                }
            )
        else:
            _emit(
                {
                    "best_B": matrix_to_json(sol.best_B),
                    "inner_residual": prob.inner_residual,
                    "residual": sol.residual,
                    "solved": False,
                }
            )
    else:
        N = args.N if args.N is not None else max(8, theta.degree + 2)
        invariant, residual = invariance_check(A, theta, N)
        _emit({"N": N, "invariant": invariant, "residual": residual})
    return 0


def _cmd_suite(args, cfg: RunConfig) -> int:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    print(f"# property suite, seed {cfg.seed}, N {cfg.N}")
    results = run_suite(cfg)
    all_ok = True
    for r in results:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{r.number:2d}  {flag}  {r.name}: {r.detail}")
        all_ok &= r.passed
    print(f"# {sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbidisc",
        description="Operator theory of the symmetrized bidisc: classification, "
        "models, dilations, and intertwining solvers.",
    )
    parser.add_argument("--config", help="path to a RunConfig JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="scalar membership and beta characterization")
    p.add_argument("--s", required=True, help="first coordinate, e.g. 2 or 1+0.5j")
    p.add_argument("--p", required=True, help="second coordinate")
    p.set_defaults(func=_cmd_point)

    for name, fn, hlp in (
        ("classify", _cmd_classify, "classify a commuting pair"),
        ("fundamental", _cmd_fundamental, "solve the fundamental-operator equation"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--S", required=True, help="matrix file for S")
        p.add_argument("--P", required=True, help="matrix file for P")
        p.set_defaults(func=fn)

    p = sub.add_parser("numrad", help="numerical radius of a matrix")
    p.add_argument("--A", required=True, help="matrix file")
    p.set_defaults(func=_cmd_numrad)

    p = sub.add_parser("dilate", help="build an explicit dilation or model")
    p.add_argument("--S", required=True)
    p.add_argument("--P", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--schaffer", action="store_true")
    mode.add_argument("--nf-ay", dest="nf_ay", action="store_true")
    p.add_argument("--N", type=int, help="truncation degree (default from config)")
    p.add_argument("--out-prefix", default="dilation", help="output file prefix")
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("blh", help="intertwining solver and invariance check")
    blh_sub = p.add_subparsers(dest="blh_action", required=True)
    for action in ("solve", "check"):
        q = blh_sub.add_parser(action)
        q.add_argument("--A", required=True, help="matrix file for the symbol")
        q.add_argument("--theta", required=True, help="JSON file {\"coeffs\": [matrix, ...]}")
        if action == "check":
            q.add_argument("--N", type=int, help="truncation degree")
        q.set_defaults(func=_cmd_blh)

    p = sub.add_parser("suite", help="run the seeded property suite")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(func=_cmd_suite)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except (SymbidiscError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(_dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
