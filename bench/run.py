"""Benchmark of the eulerchi package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the workload runs whole cycles of operations in a closed
loop until S seconds have passed and the end-to-end metrics are reported.
With ``--trace 1`` one fixed cycle runs alternately without and with the
per-layer tracer until S seconds have passed, and the per-layer metrics are
reported.  The last line of standard output is the result as one JSON
object; the line before it records the environment and the run.  See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter

from tracer import CACHE_LAYER, ROUTES, Tracer, layer_names, leftover_wrappers
from workloads import (
    BENCH,
    PACKAGE_DIR,
    ROOT,
    WORKLOADS,
    Outcome,
    ProgramMissing,
    import_program,
    require_sources,
    reset_program_caches,
    run_child,
)

SETUP_REPEATS = 7

# A HostSpeed sample: a fresh interpreter importing a few standard modules,
# and its time on a quiet host of the machine this benchmark was written on.
# End-to-end times are scaled by REF_NOMINAL_S / (nearby sample times); see
# README.md, "Noise".
REF_PROCESS = [sys.executable, "-c", "import argparse, hashlib, json, pathlib"]
REF_NOMINAL_S = 0.06
REF_WINDOW = 10  # samples on each side that set one operation's scale

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name, extras in layer_names():
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
        if name in ROUTES:
            spec.append((f"{name}.total_s", "s", "lower"))
        spec += [(f"{name}.{extra}", "count", "lower") for extra in extras]
        if name == "groups.hom_enumerate":
            spec.append((f"{name}.yield", "ratio", "higher"))
    spec += [
        (f"{CACHE_LAYER}.hits", "count", "higher"),
        (f"{CACHE_LAYER}.misses", "count", "lower"),
        (f"{CACHE_LAYER}.hit_ratio", "ratio", "higher"),
        ("cli.import_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


# ---------------------------------------------------------------------------
# environment


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = sha256()
    for path in sorted(PACKAGE_DIR.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(PACKAGE_DIR)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")  # read, not imported
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# host speed


class HostSpeed:
    """Samples of fixed work, timed between operations, that slow down and
    speed up with the shared host (README.md, "Noise")."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        subprocess.run(REF_PROCESS, check=True, cwd=ROOT)
        self.samples.append(perf_counter() - t0)

    def scale(self) -> float:
        """Factor taking a time measured during the samples to the nominal
        host speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)

    def local_scales(self) -> list[float]:
        """The factor for each sample, from the samples around it."""
        n, w = len(self.samples), REF_WINDOW
        return [
            REF_NOMINAL_S / statistics.median(self.samples[max(0, i - w): min(n, i + w + 1)])
            for i in range(n)
        ]


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed: int, workdir: Path):
    """Import eulerchi and make the inputs; the program is returned only to
    workloads that call it in this process."""
    prog = import_program()
    return (prog if workload.in_process else None), workload.generate(seed, workdir)


def measure_setup(name: str, seed: int, workdir: Path) -> tuple[list[float], float]:
    """Set-up time of fresh interpreters, each importing eulerchi and
    making the inputs; the interpreter's own start-up is not counted.

    Returns the samples and the factor that scales them to the nominal host
    speed, taken from a reference interpreter run after each of them.
    """
    samples, speed = [], HostSpeed()
    for i in range(SETUP_REPEATS):
        sub = workdir / f"setup{i}"
        sub.mkdir()
        argv = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", name,
                "--seed", str(seed), "--workdir", str(sub)]
        code, out, _ = run_child(argv, sub / "stderr.txt")
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {(sub / 'stderr.txt').read_text()}")
        samples.append(float(out.decode().split()[-1]))
        speed.sample()
    return samples, speed.scale()


# ---------------------------------------------------------------------------
# running operations


def run_ops(ops, prog, speed: HostSpeed | None = None, tracer: Tracer | None = None) -> list[tuple[Outcome, float]]:
    done = []
    for op in ops:
        if speed is not None:
            speed.sample()
        if prog is not None:
            reset_program_caches(prog)
            gc.collect()  # start from a clean heap, as a fresh process would
        t0 = perf_counter()
        try:
            outcome = op.run(prog, tracer)
        except Exception as exc:  # a failed operation is counted, and the loop goes on
            outcome = Outcome(False, error=f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        elapsed = perf_counter() - t0
        if tracer is not None:
            if prog is not None:
                tracer.add_cache_counts(prog.catalog)
            tracer.merge(outcome.stats)
        if not outcome.ok:
            print(f"FAILED {op.label}: {outcome.error}", file=sys.stderr)
        done.append((outcome, elapsed))
    return done


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def timed_phase(workload, prog, inputs, seconds: float, setup_samples, setup_scale):
    speed = HostSpeed()
    latencies, rss_kb, ok, cycle_s = [], 0, 0, []
    start = perf_counter()
    while not cycle_s or perf_counter() - start < seconds:
        t0 = perf_counter()
        for outcome, elapsed in run_ops(workload.cycle(inputs, len(cycle_s)), prog, speed):
            latencies.append(elapsed)
            rss_kb = max(rss_kb, outcome.rss_kb)
            ok += outcome.ok
        cycle_s.append(perf_counter() - t0)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p = workload.tail_percentile
    raw = sorted(latencies)
    lat = sorted(t * f for t, f in zip(latencies, speed.local_scales()))
    unscaled = {
        "ops_per_s": ok / sum(raw),
        "op_p50_ms": 1000 * statistics.median(raw),
        "op_tail_ms": 1000 * percentile(raw, p),
        "setup_s": statistics.median(setup_samples),
    }
    metrics = {
        "ops_per_s": (ok / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * percentile(lat, p), "ms"),
        "setup_s": (unscaled["setup_s"] * setup_scale, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    run = {
        "cycle_s": cycle_s, "samples": len(lat), "tail_percentile": p,
        "samples_beyond_tail": sum(1 for v in lat if v > percentile(lat, p)),
        "fail_rate": (len(lat) - ok) / len(lat),
        "speed_scale": speed.scale(), "setup_speed_scale": setup_scale, "unscaled": unscaled,
    }
    return metrics, len(lat), len(lat) - ok, [], run


def _counts(stats: dict) -> dict:
    return {
        name: {k: v for k, v in fields.items() if not k.endswith("_s")}
        for name, fields in stats.items()
    }


def traced_phase(workload, prog, inputs, seconds: float):
    """Alternate untraced and traced passes over cycle 0, while another
    round still fits in the given seconds."""
    ops = workload.cycle(inputs, 0)
    plain_s, traced_s, passes, problems = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    round_s = 0.0
    while not passes or perf_counter() - start + round_s <= seconds:
        round_start = t0 = perf_counter()
        plain = run_ops(ops, prog)
        plain_s.append(perf_counter() - t0)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            t0 = perf_counter()
            traced = run_ops(ops, prog, tracer=tracer)
            traced_s.append(perf_counter() - t0)
        finally:
            tracer.remove()
        left = leftover_wrappers() + ["(child)"] * tracer.stats.pop("leftover_wrappers", {}).get("count", 0)
        if left:
            problems.append(f"wrappers left installed: {left}")
        if [o.value for o, _ in plain] != [o.value for o, _ in traced]:
            problems.append("tracing changed an operation's output")
        if passes and _counts(tracer.stats) != _counts(passes[0]):
            problems.append("per-layer counts differ between traced passes")
        passes.append(tracer.stats)
        round_s = perf_counter() - round_start
        for outcome, _ in plain + traced:
            attempted += 1
            failed += not outcome.ok

    ref = passes[0]

    def med(name: str, key: str) -> float:
        return statistics.median(p.get(name, {}).get(key, 0.0) for p in passes)

    metrics = {}
    for name, unit, _ in per_layer_spec():
        layer, _, key = name.rpartition(".")
        if key.endswith("_s") and layer != "trace":
            metrics[name] = (med(layer, key), unit)
        elif key == "yield":
            hom = ref[layer]
            metrics[name] = (hom["homs"] / hom["space"] if hom["space"] else 0.0, unit)
        elif key == "hit_ratio":
            looked = ref[layer]["hits"] + ref[layer]["misses"]
            metrics[name] = (ref[layer]["hits"] / looked if looked else 0.0, unit)
        elif layer != "trace":
            metrics[name] = (ref[layer][key], unit)
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    run = {
        "passes": len(passes), "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
        "ops_per_pass": len(ops),
    }
    return metrics, attempted, failed, problems, run


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        require_sources()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.setup_only:
        t0 = perf_counter()
        setup(workload, args.seed, Path(args.workdir))
        print(perf_counter() - t0)
        return 0

    env = environment()
    workdir = BENCH / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            setup_samples = []
            prog, inputs = setup(workload, args.seed, workdir)
            result = traced_phase(workload, prog, inputs, args.seconds)
        else:
            setup_samples, setup_scale = measure_setup(workload.name, args.seed, workdir)
            prog, inputs = setup(workload, args.seed, workdir)
            result = timed_phase(workload, prog, inputs, args.seconds, setup_samples, setup_scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, problems, run = result
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    env.update(
        loadavg_end=os.getloadavg(), workload=workload.name, seed=args.seed,
        seconds=args.seconds, trace=args.trace, setup_samples_s=setup_samples, **run,
    )
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
