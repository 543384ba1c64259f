"""Every parameter of every function in the package is read in its body.

A read is a load of the parameter's name anywhere in the body, nested
functions and lambdas included.  A parameter that no body reads is a
setting no caller can vary, so it goes.  The CLI handlers `_cmd_*` are
exempt: they share one `(args, cfg)` signature for the subcommand table.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _params(fn) -> list:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    return names + [p.arg for p in (a.vararg, a.kwarg) if p is not None]


def _unread_params() -> list:
    unread = []
    for f in sorted((ROOT / "src" / "symbidisc").glob("*.py")):
        for fn in ast.walk(ast.parse(f.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(fn, "name", "<lambda>")
            if name.startswith("_cmd_"):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [f"{f.name}:{fn.lineno} {name}({p})" for p in _params(fn) if p not in read]
    return unread


def test_every_parameter_is_read():
    unread = _unread_params()
    assert not unread, f"parameters no body reads: {unread}"
