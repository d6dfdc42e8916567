"""One workload process: set up the program, run timed blocks, write JSON.

Started by run.py with BLAS pinned to one thread.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --src DIR --work-dir DIR
        --out FILE --t-spawn T [--seconds S | --blocks B] [--setup-only] [--trace FILE]

Set-up time runs from the parent's spawn time T (time.monotonic, which is
system-wide) to the end of the program's set-up, minus the time this
process spends on the benchmark's own imports and input generation.  Right
after set-up the workload's reference kernel runs (reference.py); its
median time is saved with the set-up time, and the runner runs it again
between items.
"""

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--blocks", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here and trace the run")
    args = ap.parse_args()

    first_inputs = workloads.block_inputs(args.workload, args.seed, 0)
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()

    t_prog = time.monotonic()
    if tracer is not None:
        tracer.install()

    def set_item(item):
        tracer.current_item = item

    runner = workloads.Runner(
        args.workload, args.work_dir, set_item if tracer is not None else (lambda item: None)
    )
    runner.setup()
    setup_s = (T_MAIN - args.t_spawn) + (time.monotonic() - t_prog)

    kernel = reference.Kernel(args.workload)
    # Set-up lasts about a second and one kernel run only some milliseconds,
    # so the kernel is sampled many times.
    setup_kernel_s = kernel.median_seconds(31)
    runner.kernel = kernel.seconds

    import gaussqi
    result = {"setup_s": setup_s, "setup_kernel_s": setup_kernel_s,
              "setup_info": runner.setup_info}
    if not os.path.abspath(gaussqi.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"gaussqi imported from {gaussqi.__file__}, not {args.src}", file=sys.stderr)
        return 3
    if args.setup_only:
        _write(args.out, result)
        return 0

    blocks = []
    start = time.monotonic()
    inputs = first_inputs
    while True:
        blocks.append(runner.run_block(inputs).summary())
        if args.blocks is not None:
            if len(blocks) >= args.blocks:
                break
        elif time.monotonic() - start >= args.seconds:
            break
        inputs = workloads.block_inputs(args.workload, args.seed, len(blocks))
    result["wall_s"] = time.monotonic() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blocks"] = blocks

    import mpmath
    import numpy
    import scipy
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        n_items = sum(b["items"] for b in blocks)
        result["layers"] = tracer.layer_metrics(n_items)
        tracer.write(args.trace)
    _write(args.out, result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
