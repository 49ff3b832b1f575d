"""Benchmark of the wovenframes CLI scans and library queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src/``
without being installed.  Inputs are generated from ``--seed``, every answer
is checked against an independent oracle, and the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it give every figure by name and unit, the
environment, and any mismatch found.  A full record of each run is written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS threads would compete with --threads; fixed before numpy loads here and
# passed on to every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
CHILD = [sys.executable, str(BENCH / "child.py")]
CLI = [sys.executable, "-m", "wovenframes"]

SETUP_REPEATS = 11
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


@dataclass(frozen=True)
class Run:
    """One finished child process."""

    wall_s: float
    code: int
    stdout: bytes
    rss_mb: float


def spawn(argv: list[str], work: Path) -> tuple[Run, float]:
    """Run one child to its end; returns it and its spawn time."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    if proc.returncode not in (0, 1):
        sys.stderr.write(err_path.read_text()[-2000:])
    # ru_maxrss is in KiB on Linux
    return Run(wall, proc.returncode, stdout, usage.ru_maxrss / 1024.0), t0


def setup_times(work: Path, setup_args: list[str], repeats: int) -> list[float]:
    """Seconds from spawn until wovenframes.cli is imported and the inputs parsed."""
    out = []
    for _ in range(repeats):
        run, t0 = spawn(CHILD + ["setup"] + setup_args, work)
        if run.code != 0:
            raise RuntimeError("set-up child failed")
        out.append(float(run.stdout.decode().strip().splitlines()[-1]) - t0)
    return out


def environment(threads: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cli_threads": threads,
    }


def percentile_line(name: str, values: list[float], scale: float, unit: str) -> str:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for permille in (999, 990, 900):
        beyond = len(values) - (len(values) * permille + 999) // 1000
        if beyond >= 10:
            v = float(np.percentile(values, permille / 10)) * scale
            return f"{name.replace('pXX', f'p{permille / 10:g}')} {v:.6g} {unit} ({len(values)} samples, {beyond} beyond)"
    return f"{name} n/a ({len(values)} samples, too few for a tail percentile)"


# ------------------------------------------------------------------ scans


def cli_args(w: workloads.Workload, seed: int, family: Path, threads: int) -> list[str]:
    args = ["--threads", str(threads)]
    if w.kind == "sample":
        args += ["--samples", str(w.samples), "--seed", str(seed)]
    args += ["weave", "check", str(family.relative_to(ROOT))]
    return args + (["--mode", "sample"] if w.kind == "sample" else [])


def run_scan(w, seed, seconds, trace, work, inputs, report):
    threads = min(w.threads, len(os.sched_getaffinity(0)))
    families = [inputs / f"family-{i}.json" for i in range(w.pool)]
    stacks = [workloads.load_stack(f) for f in families]
    extrema = [oracle.exhaustive_extrema(s) if w.kind == "exhaustive" else None for s in stacks]

    spawn(CHILD + ["setup", str(inputs), "1"], work)  # warm-up: bytecode caches
    setups = setup_times(work, [str(inputs), "1"], SETUP_REPEATS)

    plain, traced, errors = [], [], []
    reference = {}
    start = time.perf_counter()
    for i in itertools.count():
        f = i % w.pool
        args = cli_args(w, seed, families[f], threads)
        is_traced = trace and i % 2 == 1
        spans_path = work / f"spans-{len(traced)}.json"
        argv = CHILD + ["cli", str(spans_path), "--"] + args if is_traced else CLI + args
        run, _ = spawn(argv, work)
        (traced if is_traced else plain).append((f, run, spans_path))
        problems = oracle.check_scan_report(run.stdout, run.code, stacks[f], extrema[f])
        if run.stdout != reference.setdefault(f, run.stdout):
            problems.append(f"stdout of family {f} differs from its first invocation")
        errors.append(problems)
        enough = len(plain) >= MIN_INVOCATIONS and (not trace or len(traced) >= 2)
        if time.perf_counter() - start >= seconds and enough:
            break
    loop_s = time.perf_counter() - start

    report["invocations"] = {"untraced": len(plain), "traced": len(traced), "threads": threads, "families": w.pool}
    report["failures"] = [p for p in errors if p]
    attempted, failed = len(errors), sum(1 for p in errors if p)
    report["walls_s"] = [[f, r.wall_s, r.rss_mb] for f, r, _ in plain]
    wall = statistics.median(r.wall_s for _, r, _ in plain)
    if not trace:
        metrics = {
            "wall_s": wall,
            "ops_per_s": len(plain) / loop_s,
            "peak_rss_mb": statistics.median(r.rss_mb for _, r, _ in plain),
            "setup_s": statistics.median(setups),
        }
        lines = [
            f"  wall_s: median of {len(plain)} invocations over {min(len(plain), w.pool)} families; "
            "too few for a tail percentile",
            f"weavings_per_s {w.weavings / wall:.6g} 1/s ({w.weavings} weavings per invocation)",
        ]
        return metrics, lines, attempted, failed, True

    per_run = [spans.layer_metrics(load(p), 1, r.wall_s, w.n) for _, r, p in traced]
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    metrics["trace.overhead_ratio"] = statistics.median(r.wall_s for _, r, _ in traced) / wall
    repeat = all(m[k] == per_run[0][k] for m in per_run for k in spans.EXACT_COUNTS)
    lines = [f"exact counts repeat across {len(per_run)} traced invocations: {repeat}"]
    return metrics, lines, attempted, failed, repeat


def load(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- queries


def run_queries(w, seed, seconds, trace, work, inputs, report):
    setup_args = [str(inputs), str(w.pool)]
    spawn(CHILD + ["setup"] + setup_args, work)  # warm-up: bytecode caches
    setups = setup_times(work, setup_args, SETUP_REPEATS)

    def loop(length, spans_path=None):
        argv = CHILD + ["queries", str(inputs), str(seed), repr(length)]
        run, _ = spawn(argv + ([str(spans_path)] if spans_path else []), work)
        if run.code != 0:
            raise RuntimeError("query child failed")
        return run, json.loads(run.stdout.decode().strip().splitlines()[-1])

    if not trace:
        run, res = loop(seconds)
        runs = [res]
    else:
        spans_path = work / "spans-queries.json"
        _, plain = loop(seconds / 2)
        run, res = loop(seconds / 2, spans_path)
        runs = [plain, res]
    errors = [op["errors"] for r in runs for op in r["ops"]]
    report["failures"] = [p for p in errors if p][:20]
    attempted, failed = len(errors), sum(1 for p in errors if p)
    report["invocations"] = {"queries": [len(r["ops"]) for r in runs]}

    if not trace:
        lat = [op["seconds"] for op in res["ops"]]
        p50 = statistics.median(lat)
        rounds: dict[int, float] = {}
        for op in res["ops"]:
            rounds[op["round"]] = rounds.get(op["round"], 0.0) + op["seconds"]
        metrics = {
            "wall_s": statistics.median(rounds.values()),
            "ops_per_s": len(lat) / res["loop_s"],
            "peak_rss_mb": run.rss_mb,
            "setup_s": statistics.median(setups),
        }
        lines = [
            f"  wall_s: median of {len(rounds)} rounds of {len(lat) // len(rounds)} queries",
            f"queries_per_s {len(lat) / res['loop_s']:.6g} 1/s ({len(lat)} queries in {res['loop_s']:.3f} s)",
            f"query_p50_ms {p50 * 1e3:.6g} ms ({len(lat)} samples)",
            percentile_line("query_pXX_ms", lat, 1e3, "ms"),
        ]
        for name in sorted({op["query"] for op in res["ops"]}):
            per = [op["seconds"] for op in res["ops"] if op["query"] == name]
            lines.append(f"  {name}: p50 {statistics.median(per) * 1e3:.4g} ms over {len(per)} calls")
        return metrics, lines, attempted, failed, True

    trace_spans = load(spans_path)
    ops = res["ops"]
    busy = sum(op["seconds"] for op in ops)
    metrics = spans.layer_metrics(trace_spans, len(ops), busy, w.n)
    plain_mean = sum(op["seconds"] for op in plain["ops"]) / len(plain["ops"])
    metrics["trace.overhead_ratio"] = (busy / len(ops)) / plain_mean
    # the same query on the same family must make the same linalg calls
    counts = spans.single_calls_by_op(trace_spans)
    seen: dict[tuple, int] = {}
    repeat = True
    for i, op in enumerate(ops):
        key = (op["family"], op["query"])
        repeat &= seen.setdefault(key, counts.get(i, 0)) == counts.get(i, 0)
    lines = [f"exact counts repeat for each (family, query) over {len(seen)} keys: {repeat}"]
    return metrics, lines, attempted, failed, repeat


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "wovenframes" / "cli.py").is_file():
        print(f"error: no wovenframes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[a.workload]
    work = OUT / f"work-{os.getpid()}"
    inputs = work / "inputs"
    try:
        workloads.write_inputs(w, a.seed, inputs)
        report = {"workload": w.name, "seed": a.seed, "seconds": a.seconds, "trace": a.trace}
        runner = run_queries if w.kind == "queries" else run_scan
        metrics, lines, attempted, failed, repeat = runner(w, a.seed, a.seconds, bool(a.trace), work, inputs, report)
        if a.trace:
            (OUT / "results").mkdir(parents=True, exist_ok=True)
            last = sorted(work.glob("spans-*.json"))[-1]
            shutil.copy(last, OUT / "results" / f"{w.name}-seed{a.seed}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = spans.PER_LAYER if a.trace else END_TO_END
    report["environment"] = environment(report["invocations"].get("threads"))
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["fail_rate"] = failed / attempted
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{w.name}-seed{a.seed}-trace{a.trace}.json").write_text(json.dumps(report, indent=2))

    print(f"workload {w.name} seed {a.seed}: m={w.m} n={w.n} d={w.d} {json.dumps(report['invocations'])}")
    print("env " + json.dumps(report["environment"], sort_keys=True))
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    for line in lines:
        print(line)
    print(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed the oracle)")
    for problems in report["failures"][:5]:
        print("  mismatch: " + "; ".join(problems))
    if not repeat:
        print("  FLAG: counts that must repeat exactly differed")
    result = {
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
