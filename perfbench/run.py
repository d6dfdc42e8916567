"""gaussqi benchmark: one workload per call, checked item by item.

    python3 perfbench/run.py --workload {advantage-map,fock-gate}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it measures set-up several
times in fresh processes, then runs the workload untraced for S seconds
and prints the end-to-end metrics.  With --trace 1 it runs the workload
untraced for S/2 seconds, then again traced over exactly the same blocks,
checks that both runs produced identical outputs, and prints the per-layer
metrics.  Every workload process is a fresh interpreter with BLAS pinned to
one thread.  Times of the end-to-end metrics are in reference seconds (see
reference.py): each span is scaled by the reference kernel's time measured
next to it, which cancels the drift of a shared host.  The wall-clock
figures are printed too.  The last line of standard output is the JSON
result; the environment and the result are also saved under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
# Fresh processes that measure set-up only; the workload process adds one
# more sample, and set-up is reported as the median of all of them.
SETUP_SAMPLES = 7
PROCESS_TIMEOUT_S = 150.0


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # Every process compiles its imports from source, whatever bytecode a
    # previous run left, so set-up time does not depend on run order.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, work_dir: str, tag: str, extra: list[str], deadline: float) -> dict:
    out = os.path.join(work_dir, f"{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--src", SRC, "--work-dir", work_dir, "--out", out,
        "--t-spawn", repr(time.monotonic()),
    ] + extra
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{tag} worker exceeded the time limit") from None
    if code != 0:
        raise RuntimeError(f"{tag} worker exited with {code}")
    with open(out) as fh:
        return json.load(fh)


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gaussqi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(versions: dict) -> dict:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": int(BLAS_THREADS),
    }


def _items(run: dict) -> tuple[int, int]:
    items = sum(b["items"] for b in run["blocks"])
    failed = sum(len(b["failures"]) for b in run["blocks"])
    return items, failed


def _ref_seconds(kernel: reference.Kernel, block: dict) -> float:
    """The block's program time in reference seconds.

    Each latency sample is scaled by the kernel time measured around it;
    in advantage-map the one sample covers the whole sweep.
    """
    lat = block["latencies_ms"]
    scaled = sum(kernel.scale(ms, k) for ms, k in zip(lat, block["kernel_s"]))
    return block["seconds"] * scaled / sum(lat)


def _speeds(kernel: reference.Kernel, run: dict) -> dict:
    """Throughput and median latency, in reference and in wall seconds.

    Every block has the same mix of items, so the median block rate is
    taken rather than the rate over the whole run.
    """
    blocks = run["blocks"]
    return {
        "items_per_s": statistics.median(b["items"] / _ref_seconds(kernel, b) for b in blocks),
        "item_ms_p50": statistics.median(
            kernel.scale(ms, k)
            for b in blocks for ms, k in zip(b["latencies_ms"], b["kernel_s"])
        ),
        "wall.items_per_s": statistics.median(b["items"] / b["seconds"] for b in blocks),
        "wall.item_ms_p50": statistics.median(x for b in blocks for x in b["latencies_ms"]),
        "reference.kernel_ms_p50":
            statistics.median(k for b in blocks for k in b["kernel_s"]) * 1e3,
    }


def _measure(args, work_dir: str, deadline: float):
    """Returns (metrics, units, main run, problems found, wall-clock figures)."""
    problems = []
    kernel = reference.Kernel(args.workload)
    if args.trace == 0:
        samples = [
            _worker(args, work_dir, f"setup{k}", ["--setup-only"], deadline)
            for k in range(SETUP_SAMPLES)
        ]
        run = _worker(args, work_dir, "timed", ["--seconds", str(args.seconds)], deadline)
        if any(s["setup_info"] != run["setup_info"] for s in samples):
            problems.append("set-up produced different results across processes")
        setups = samples + [run]
        speeds = _speeds(kernel, run)
        metrics = {
            "setup_s": statistics.median(
                kernel.scale(s["setup_s"], s["setup_kernel_s"]) for s in setups
            ),
            "items_per_s": speeds["items_per_s"],
            "item_ms_p50": speeds["item_ms_p50"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {"setup_s": "s", "items_per_s": "items/s", "item_ms_p50": "ms",
                 "peak_rss_mb": "MB"}
        wall = {
            "wall.setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall.items_per_s": speeds["wall.items_per_s"],
            "wall.item_ms_p50": speeds["wall.item_ms_p50"],
            "reference.kernel_ms_p50": speeds["reference.kernel_ms_p50"],
        }
        return metrics, units, run, problems, wall

    run = _worker(args, work_dir, "untraced", ["--seconds", str(args.seconds / 2)], deadline)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    traced = _worker(args, work_dir, "traced",
                     ["--blocks", str(len(run["blocks"])), "--trace", spans], deadline)
    if [b["digest"] for b in traced["blocks"]] != [b["digest"] for b in run["blocks"]]:
        problems.append("traced and untraced runs produced different outputs")
    speeds, t_speeds = _speeds(kernel, run), _speeds(kernel, traced)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_items_per_s"] = t_speeds["items_per_s"] - speeds["items_per_s"]
    for name in ("wall.items_per_s", "wall.item_ms_p50", "reference.kernel_ms_p50"):
        metrics[name] = speeds[name]
    units = {name: _layer_unit(name) for name in metrics}
    return metrics, units, run, problems, {}


def _layer_unit(name: str) -> str:
    if name == "fock_oracle.choose_cutoff.s" or name.endswith("setup_s"):
        return "s"
    if name.endswith("items_per_s"):
        return "items/s"
    if "ms" in name.rsplit(".", 1)[-1]:
        return "ms"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "gaussqi", "__init__.py")):
        print(f"error: no gaussqi sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        metrics, units, run, problems, wall = _measure(args, work_dir, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = _items(run)
    env = _environment(run["versions"])
    failures = [f for b in run["blocks"] for f in b["failures"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_info": run["setup_info"],
        "attempted": attempted, "failed": failed, "problems": problems,
        "first_failures": failures[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_clock": wall,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env))
    print(f"{args.workload} seed={args.seed}: {attempted} items attempted, {failed} failed")
    for reason in failures[:5]:
        print(f"  failed: {reason}")
    for problem in problems:
        print(f"  problem: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"{name} = {value:.6g} {_layer_unit(name)} (not a bounded metric)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
