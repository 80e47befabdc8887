"""qmerge benchmark runner.

    python3 bench/run.py --workload merge-decouple --seed 11 --seconds 24 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced

Runs one workload as a closed loop with one client for ``--seconds``, checks
every op's output, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A result file
with the environment and every metric, and for a traced run the spans, are
written under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
TAIL_MIN_BEYOND = 10  # a percentile is reported only with this many samples above it
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
IMPORT_PROBE = (
    "import json, sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import qmerge.cli\n"
    "print(json.dumps([time.perf_counter() - t, len(sys.modules) - n]))\n"
)


def require_checkout():
    """Refuse to run anywhere but a qmerge source checkout."""
    if not (SRC / "qmerge" / "__init__.py").is_file():
        sys.exit(f"error: no qmerge sources at {SRC}; run from the root of a qmerge checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> list[dict]:
    """Thread count of every OpenBLAS this process has loaded, asked through
    the library's own getter (what threadpoolctl would do)."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1].lower()})
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out.append({"library": Path(path).name, "threads": int(getter())})
                break
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qmerge").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    """Versions, BLAS, CPU and source identity; exits if BLAS would use more
    threads than this process may run on."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    nproc = len(os.sched_getaffinity(0))
    threads = _blas_threads()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads},
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    over = [t for t in threads if t["threads"] > nproc]
    if over:
        sys.exit(f"error: BLAS uses more threads than nproc={nproc}: {over}")
    return env


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0


def closed_loop(w, seconds: float, min_ops: int = 0, store=None) -> Phase:
    """Run ops 0, 1, ... back to back until ``seconds`` have passed and at
    least ``min_ops`` ops are done. Each op is timed from call to return;
    input generation and the output check are outside that interval."""
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if store is not None:
            store.op_id = -1  # spans made while building inputs belong to no op
        inp = w.inputs(i)
        if store is not None:
            store.op_id = i
        t0 = time.perf_counter()
        try:
            out = w.op(inp)
        except Exception:  # a raising op is a failed op; the loop goes on
            phase.latencies.append(time.perf_counter() - t0)
            phase.failures.append((i, [traceback.format_exc(limit=4)]))
            i += 1
            continue
        phase.latencies.append(time.perf_counter() - t0)
        if store is not None and hasattr(w, "collect"):
            w.collect(i)
        try:
            errs = w.check(i, inp, out)
        except Exception:  # output too malformed to inspect
            errs = [traceback.format_exc(limit=4)]
        if errs:
            phase.failures.append((i, errs))
        i += 1
    phase.elapsed = time.perf_counter() - start
    return phase


def tail_percentile(samples, q: float, min_beyond: int = TAIL_MIN_BEYOND):
    """Nearest-rank q-quantile, or None when fewer than ``min_beyond``
    samples lie above it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def prepare(name: str, seed: int):
    """Everything before the first timed op: imports, environment, inputs,
    and one untimed warm-up op (op 0)."""
    require_checkout()
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed)
    env = environment()  # after the imports, so every loaded BLAS is listed
    import qmerge

    if not Path(qmerge.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported qmerge from {qmerge.__file__}, not {SRC}")
    warm = closed_loop(w, 0, min_ops=1)
    return env, w, warm


def setup_seconds(name: str, seed: int) -> float:
    """Spawn-to-ready time of a fresh interpreter that runs :func:`prepare`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode}): {line!r}")
    return elapsed


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


# ---------------------------------------------------------------------------
# untraced and traced runs


def run_untraced(name: str, seed: int, seconds: float):
    env, w, warm = prepare(name, seed)
    phase = closed_loop(w, seconds)
    rss = peak_rss_mb(w.in_process)  # read before any set-up child runs
    setups = [setup_seconds(name, seed) for _ in range(SETUP_SAMPLES)]
    p90 = tail_percentile(phase.latencies, 0.9)
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    failures = warm.failures + phase.failures
    attempted = warm.ops + phase.ops
    extra = {
        "op_samples": phase.ops,
        "op_p90_ms": None if p90 is None else p90 * 1e3,
        "fail_ratio": len(failures) / attempted,
        "setup_samples_s": setups,
        "timed_phase_s": phase.elapsed,
    }
    lines = [f"{k:<13} {v:.6g} {E2E_UNITS[k]}" for k, v in metrics.items()]
    lines.insert(2, f"{'op_p90_ms':<13} " + (
        f"{extra['op_p90_ms']:.6g} ms ({phase.ops} samples)" if p90 is not None else
        f"omitted ({phase.ops} samples; needs {TAIL_MIN_BEYOND} beyond p90, i.e. >= 100)"))
    lines.append(f"{'fail_ratio':<13} {extra['fail_ratio']:.6g} ratio "
                 f"({len(failures)}/{attempted})")
    return env, metrics, extra, failures, attempted, lines


def import_probe() -> tuple[float, int]:
    """Median seconds and exact module count of ``import qmerge.cli`` in a
    fresh interpreter."""
    from workloads import cli_env

    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=cli_env(),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(out.stdout))
    counts = {c for _, c in samples}
    if len(counts) != 1:
        raise RuntimeError(f"import module count varies between interpreters: {counts}")
    return statistics.median(s for s, _ in samples), counts.pop()


def memory_pass(w) -> tuple[float, Phase]:
    """tracemalloc peak of each ``run_merge`` call over the first ops, with
    no spans installed so the timing of the traced phase stays clean."""
    import tracemalloc

    import tracer

    peaks = []

    def make(_metric, fn):
        def measured(*args, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return measured

    tracemalloc.start()
    patches, _ = tracer.install(make, [("merging", "run_merge", "merging.run_merge")])
    try:
        phase = closed_loop(w, 0, min_ops=w.memory_ops)
    finally:
        tracer.restore(patches)
        tracemalloc.stop()
    return (max(peaks) / 2 ** 20 if peaks else 0.0), phase


def traced_phase(w, seconds: float):
    """The closed loop with spans installed (in this process, and through
    ``cli_boot.py`` in cli children); every wrapper is removed afterwards."""
    import tracer

    store = tracer.SpanStore()
    if not w.in_process:
        w.trace_dir, w.store = OUT_DIR, store
    patches = tracer.install_spans(store)
    try:
        phase = closed_loop(w, seconds, min_ops=w.count_ops, store=store)
    finally:
        tracer.restore(patches)
        if not w.in_process:
            w.trace_dir, w.store = None, None
    return store, phase


def run_traced(name: str, seed: int, seconds: float):
    import tracer

    env, w, warm = prepare(name, seed)
    base = closed_loop(w, seconds / 2)
    store, traced = traced_phase(w, seconds / 2)
    peak_mb, mem = memory_pass(w) if w.memory_ops else (0.0, Phase())
    import_s, import_modules = import_probe()

    layers = tracer.layer_metrics(store, traced.ops, w.count_ops)
    layers["merging.run_merge.peak_mb"] = peak_mb
    layers["cli.import_s"] = import_s
    layers["cli.import_modules"] = import_modules
    layers["trace.untraced_ops_per_s"] = base.ops_per_s
    layers["trace.ops_ratio"] = traced.ops_per_s / base.ops_per_s if base.ops else 0.0
    store.save(OUT_DIR / f"{name}-seed{seed}-spans.npz")

    absent = sorted(store.absent)
    metrics = {k: layers[k] for k in tracer.REPORTED}
    failures = warm.failures + base.failures + traced.failures + mem.failures
    attempted = warm.ops + base.ops + traced.ops + mem.ops
    extra = {"layers": layers, "absent": absent, "ops_traced": traced.ops,
             "count_ops": w.count_ops, "untraced_ops": base.ops}
    lines = [f"{k:<48} {v:.6g}" for k, v in sorted(layers.items())]
    lines += [f"absent: {m} (no longer defined; reported as 0)" for m in absent]
    lines.append(f"tracing overhead: traced/untraced ops_per_s = "
                 f"{traced.ops_per_s:.4g}/{base.ops_per_s:.4g} = "
                 f"{layers['trace.ops_ratio']:.4f}")
    return env, metrics, extra, failures, attempted, lines


def run_one(args) -> int:
    import tracer

    OUT_DIR.mkdir(exist_ok=True)
    runner = run_traced if args.trace else run_untraced
    env, metrics, extra, failures, attempted, lines = runner(args.workload, args.seed,
                                                            args.seconds)
    units = tracer.REPORTED if args.trace else E2E_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result, **extra,
              "failures": [{"op": i, "errors": e} for i, e in failures[:20]]}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    for i, errs in failures[:5]:
        print(f"FAILED op {i}: {errs[0].strip()}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints every
    end-to-end metric by name and unit per workload."""
    from workloads import WORKLOADS

    table, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            ok = False
            continue
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        table.append(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
        table += lines[2:-1]
    print("\n".join(table))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="merge-decouple, merge-curve, ep-search, cli, or all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_checkout()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
