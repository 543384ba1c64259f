"""Span recorder bound around symbidisc's public functions.

The recorder replaces each listed function in every symbidisc module
namespace that holds it, so calls made inside the package are seen as well
as the benchmark's own.  Spans stay in memory with their parent ids and are
written out when the run ends.  A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

# Layer -> functions timed in the traced run.
LAYERS = {
    "linalg": ["psd_sqrt", "range_basis", "sandwich_solve"],
    "numrad": ["numerical_radius"],
    "defect": ["defect_data", "theta_taylor", "delta_eval", "pi_nf_matrix", "build_model_space"],
    "hardy": ["build_mult_op", "compress"],
    "pair": ["make_pair"],
    "gamma_point": ["boundary_grid"],
    "classify": ["is_gamma_contraction", "fundamental_op", "von_neumann_margin",
                 "joint_unitary_equiv", "find_unitary_intertwiner"],
    "dilation": ["nf_ay_build", "compressed_scalar", "schaffer_build", "factorization_check"],
    "blh": ["make_problem", "blh_solve", "invariance_check"],
}
# Generators, timed only while the inputs are set up.
GENERATE = ["random_unitary", "random_commuting_unitaries", "random_symbol",
            "random_strict_contraction", "coinvariant_closure",
            "random_gamma_contraction", "random_inner_poly"]

NUMRAD = "numrad.numerical_radius"
JUE = "classify.joint_unitary_equiv"
FUI = "classify.find_unitary_intertwiner"

# Fields of a span record.
ID, PARENT, NAME, START, END, ERROR, ATTRS = range(7)


def kron_bytes(ops1, *_args, **_kwargs) -> int:
    """Bytes of the Kronecker system K (2 k n^2 x n^2) and its full SVD factors.

    Computed from n and the operator count k, as find_unitary_intertwiner
    builds them: complex128 K, U and Vh, float64 singular values.
    """
    k, n = len(ops1), np.asarray(ops1[0]).shape[0]
    rows, cols = 2 * k * n * n, n * n
    return 16 * (rows * cols + rows * rows + cols * cols) + 8 * min(rows, cols)


ANNOTATE: Dict[str, Callable] = {FUI: lambda *a, **k: {"kron_bytes": kron_bytes(*a, **k)}}


class Recorder:
    """Collects spans while bound; `bind` and `unbind` swap the functions."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self._saved: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, annotate: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = annotate(*args, **kwargs) if annotate else {}
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, False, attrs]
            spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def _count_eig(self, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == NUMRAD:
                attrs = spans[stack[-1]][ATTRS]
                attrs["eig"] = attrs.get("eig", 0) + 1
            return fn(*args, **kwargs)

        return counted

    def bind(self, targets: Dict[str, Callable]) -> None:
        """Wrap each target (qualified name -> function) wherever symbidisc holds it."""
        by_id = {id(fn): (name, fn) for name, fn in targets.items()}
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "symbidisc" or modname.startswith("symbidisc.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn, ANNOTATE.get(name))
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[name])
        for attr in ("eigvalsh", "eigh"):
            fn = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._count_eig(fn))

    def unbind(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def write(self, fh, phase: str) -> None:
        for s in self.spans:
            fh.write(json.dumps({"phase": phase, "id": s[ID], "parent": s[PARENT],
                                 "name": s[NAME], "start": s[START], "end": s[END],
                                 "error": s[ERROR], **s[ATTRS]}) + "\n")


def targets(names: Dict[str, List[str]]) -> Dict[str, Callable]:
    """Qualified name -> original function, looked up in each defining module."""
    out = {}
    for layer, fns in names.items():
        mod = sys.modules[f"symbidisc.{layer}"]
        for fn in fns:
            out[f"{layer}.{fn}"] = getattr(mod, fn)
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: List[list]) -> List[float]:
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered(children[s[ID]], s[START], s[END]) for s in spans]


def layer_metrics(spans: List[list], names: List[str], rounds: int) -> Dict[str, float]:
    """Per-round calls, self seconds and errors of each named function, plus counts."""
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.errors"] = 0.0
    has_fui_child = set()
    eig = kron = 0
    for s, self_s in zip(spans, self_times(spans)):
        name = s[NAME]
        if name in names:
            out[f"{name}.calls"] += 1 / rounds
            out[f"{name}.self_s"] += self_s / rounds
            out[f"{name}.errors"] += s[ERROR] / rounds
        eig += s[ATTRS].get("eig", 0)
        kron = max(kron, s[ATTRS].get("kron_bytes", 0))
        if name == FUI and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == JUE:
            has_fui_child.add(s[PARENT])
    numrad_calls = sum(1 for s in spans if s[NAME] == NUMRAD)
    jue_calls = sum(1 for s in spans if s[NAME] == JUE)
    out["numrad.eig_calls_per_call"] = eig / numrad_calls if numrad_calls else 0.0
    out[f"{JUE}.dfs_decided_ratio"] = (
        (jue_calls - len(has_fui_child)) / jue_calls if jue_calls else 0.0
    )
    out[f"{FUI}.kron_bytes"] = float(kron)
    return out


def generate_self_s(spans: List[list]) -> float:
    return sum(t for s, t in zip(spans, self_times(spans)) if s[NAME].startswith("generate."))
