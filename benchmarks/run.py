"""symbidisc benchmark: closed-loop workloads with known-answer checks.

Usage (from the repository root):

    python3 benchmarks/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

One client calls symbidisc's public API and sends the next call only when
the previous one has returned.  The loop runs whole rounds of the workload's
inputs (see workloads.py) until --seconds have passed.  Every answer is
checked against a known answer derived from how the input was built.

--trace 0 measures the end-to-end metrics.  --trace 1 runs whole rounds
with a span recorder bound around each layer's public functions, replays
the same rounds untraced to get the tracing overhead, reports per-layer
metrics per round and writes the spans to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a report
with every end-to-end metric, the failures and the environment.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("classify", "model", "certify", "scale")
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric(value, unit, **extra):
    return {"value": value, "unit": unit, **extra}


def tail_percentile(latencies):
    """Highest of p99 and p90 (nearest rank) with at least ten samples beyond it."""
    xs = sorted(latencies)
    for p in (99, 90):
        k = math.ceil(p / 100 * len(xs))
        if len(xs) - k >= 10:
            return p, xs[k - 1]
    return None


def run_rounds(wl, rounds, n_rounds, seconds, tally):
    """Closed loop over whole rounds; returns per-operation latencies.

    Runs n_rounds rounds, or when n_rounds is None, whole rounds until
    `seconds` of operation time have passed.  The oracle runs outside the
    timed window.
    """
    latencies, done = [], 0
    while (done < n_rounds) if n_rounds is not None else (sum(latencies) < seconds):
        for item in rounds[done % len(rounds)]:
            t0 = time.perf_counter()
            try:
                result = wl.op(item)
            except Exception as exc:  # a raising operation is a failed one
                latencies.append(time.perf_counter() - t0)
                tally.record(None, f"{item.slice}: raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            tally.record(wl.check(item, result))
        done += 1
    return latencies, done


class Tally:
    """Counts answers against the known answers."""

    def __init__(self):
        self.attempted = self.failed = self.inconclusive = self.known_defect = 0
        self.failures = []

    def record(self, outcome, raised=None):
        self.attempted += 1
        if outcome is not None and outcome.ok:
            self.inconclusive += outcome.inconclusive
            return
        if outcome is not None and outcome.known_defect:
            self.known_defect += 1
            return
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            self.failures.append(raised or outcome.detail)


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "symbidisc").glob("*.py"))),
    }


def set_up(wl, seed):
    """Generate the inputs from the seed and run one untimed warm-up operation."""
    import numpy as np

    rounds = wl.build(np.random.default_rng(seed))
    wl.op(wl.warmup(rounds))
    return rounds


def end_to_end(args, wl, t_imported):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rounds = set_up(wl, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = (t_imported - T_START) + statistics.median(setups)

    tally = Tally()
    latencies, n_rounds = run_rounds(wl, rounds, None, args.seconds, tally)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "error_ratio": metric((tally.failed + tally.known_defect) / tally.attempted, "fraction"),
        "inconclusive_ratio": metric(tally.inconclusive / tally.attempted, "fraction"),
    }
    tail = tail_percentile(latencies)
    if tail is not None:
        extra["latency_tail_ms"] = metric(1e3 * tail[1], "ms", percentile=f"p{tail[0]}",
                                          samples=len(latencies))
    return metrics, extra, tally, {"rounds": n_rounds, "setup_runs_s": setups}


def traced(args, wl):
    import spans

    setup_rec = spans.Recorder()
    setup_rec.bind(spans.targets({**spans.LAYERS, "generate": spans.GENERATE}))
    try:
        rounds = set_up(wl, args.seed)
    finally:
        setup_rec.unbind()

    tally = Tally()
    rec = spans.Recorder()
    rec.bind(spans.targets(spans.LAYERS))
    try:
        lat_traced, n_rounds = run_rounds(wl, rounds, None, args.seconds / 2, tally)
    finally:
        rec.unbind()
    lat_plain, _ = run_rounds(wl, rounds, n_rounds, None, tally)

    names = [f"{layer}.{fn}" for layer, fns in spans.LAYERS.items() for fn in fns]
    values = spans.layer_metrics(rec.spans, names, n_rounds)
    values["generate.self_s"] = spans.generate_self_s(setup_rec.spans)
    values["trace_overhead_ratio"] = sum(lat_traced) / sum(lat_plain)
    metrics = {k: metric(v, unit_of(k)) for k, v in values.items()}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        setup_rec.write(fh, "setup")
        rec.write(fh, "timed")
    return metrics, tally, {"rounds": n_rounds, "spans": str(path.relative_to(ROOT))}


def unit_of(name):
    if name.endswith(".calls") or name.endswith(".errors"):
        return "count/round"
    if name == "generate.self_s":
        return "s"
    if name.endswith(".self_s"):
        return "s/round"
    return {"numrad.eig_calls_per_call": "count/call",
            "classify.joint_unitary_equiv.dfs_decided_ratio": "fraction",
            "classify.find_unitary_intertwiner.kron_bytes": "bytes",
            "trace_overhead_ratio": "ratio"}[name]


def run_all(args):
    """Each workload in a fresh process, one after another."""
    code = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "symbidisc" / "__init__.py").is_file():
        print(f"symbidisc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import symbidisc

    if Path(symbidisc.__file__).resolve().parent != SRC / "symbidisc":
        print(f"imported symbidisc from {symbidisc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    t_imported = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, tally, info = traced(args, wl)
        extra = {}
    else:
        metrics, extra, tally, info = end_to_end(args, wl, t_imported)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        **info,
        "metrics": {**metrics, **extra},
        "known_defect_misses": tally.known_defect,
        "failures": tally.failures,
        "environment": environment(args.seed),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
