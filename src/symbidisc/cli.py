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
from .classify import is_gamma_contraction
from .dilation import nf_ay_build, schaffer_build
from .errors import SymbidiscError
from .gamma_point import GammaPoint, beta_solve, in_gamma
from .hardy import SymbolPoly
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


def matrix_from_json(obj: dict) -> np.ndarray:
    r, c = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != r * c:
        raise ValueError(f"data length {len(data)} != rows*cols = {r * c}")
    flat = np.array([complex(re, im) for re, im in data])
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix file has non-finite entries")
    return flat.reshape(r, c)


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


def _load_pair(args, cfg: RunConfig):
    return make_pair(load_matrix(args.S), load_matrix(args.P))


def _cmd_classify(args, cfg: RunConfig) -> int:
    rep = is_gamma_contraction(_load_pair(args, cfg), cfg.tol, cfg.wr_slack)
    out = {
        "checks": [[name, ok, res] for name, ok, res in rep.checks],
        "fundamental_residual": rep.fundamental_residual,
        "kind": rep.kind,
        "wA": rep.wA,
        "wA_upper": rep.wA_upper,
    }
    if rep.fundamental_op is not None:
        out["fundamental_op"] = matrix_to_json(rep.fundamental_op)
    _emit(out)
    return 0


def _cmd_fundamental(args, cfg: RunConfig) -> int:
    from .classify import fundamental_op
    from .defect import defect_data

    pair = _load_pair(args, cfg)
    F, residual = fundamental_op(pair.S, defect_data(pair.P, cfg.tol), cfg.tol)
    _emit(
        {
            "A": matrix_to_json(F),
            "residual": residual,
            "wA": numerical_radius(F, cfg.tol).value,
        }
    )
    return 0


def _cmd_numrad(args, cfg: RunConfig) -> int:
    res = numerical_radius(load_matrix(args.A), cfg.tol)
    _emit({"argmax_angle": res.argmax_angle, "upper": res.upper, "value": res.value})
    return 0


def _cmd_dilate(args, cfg: RunConfig) -> int:
    pair = _load_pair(args, cfg)
    N = args.N if args.N is not None else cfg.N
    prefix = args.out_prefix
    if args.schaffer:
        sp = schaffer_build(pair, N, cfg.tol)
        save_matrix(f"{prefix}_V.json", sp.V)
        save_matrix(f"{prefix}_W.json", sp.W)
        save_matrix(f"{prefix}_embed.json", sp.embed)
        from .linalg import adj, opnorm

        _emit(
            {
                "N": N,
                "files": [f"{prefix}_V.json", f"{prefix}_W.json", f"{prefix}_embed.json"],
                "intertwining_residual_P": opnorm(
                    adj(sp.V) @ sp.embed - sp.embed @ adj(pair.P)
                ),
                "intertwining_residual_S": opnorm(
                    adj(sp.W) @ sp.embed - sp.embed @ adj(pair.S)
                ),
                "kind": "schaffer",
            }
        )
    else:
        m = nf_ay_build(pair, N, cfg.tol)
        save_matrix(f"{prefix}_S_model.json", m.S_model)
        save_matrix(f"{prefix}_P_model.json", m.P_model)
        save_matrix(f"{prefix}_basis.json", m.model_space.basis)
        save_matrix(f"{prefix}_symbol.json", m.symbol_A)
        _emit(
            {
                "N": N,
                "delta_norm": m.model_space.delta_norm,
                "files": [
                    f"{prefix}_S_model.json",
                    f"{prefix}_P_model.json",
                    f"{prefix}_basis.json",
                    f"{prefix}_symbol.json",
                ],
                "kind": "nf-ay",
                "residual_P": m.residual_P,
                "residual_S": m.residual_S,
                "trunc_error": m.model_space.trunc_error,
            }
        )
    return 0


def _cmd_blh(args, cfg: RunConfig) -> int:
    A = load_matrix(args.A)
    theta = load_symbol_poly(args.theta)
    if args.blh_action == "solve":
        prob = make_problem(A, theta)
        sol = blh_solve(prob, cfg.tol)
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
        invariant, residual = invariance_check(A, theta, N, cfg.tol)
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
