"""One benchmark repeat in a fresh process: import meanfield, optionally
install the tracer, call ``meanfield.cli.run`` once, report what it cost.

    python3 perfbench/child.py RESULT.json --spawned T [--config CFG --out DIR
        --threads K] [--spans SPANS.npz --run-id ID]

``--spawned`` is the parent's CLOCK_MONOTONIC reading taken just before it
started this process, so ``setup_s`` covers interpreter start and the
numpy and meanfield imports. Without ``--config`` the child only measures
start-up. With ``--spans`` the tracer is installed and the spans are
written there after the run; otherwise ``tracer.py`` is never imported
and every meanfield attribute stays the original object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-child")
    parser.add_argument("result")
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", type=int, default=0)
    args = parser.parse_args(argv)

    import numpy
    import meanfield.cli

    result = {"numpy": numpy.__version__, "meanfield_file": meanfield.cli.__file__}
    if args.spans:
        from tracer import Tracer, install

        tracer = Tracer(args.run_id)
        install(tracer, meanfield.cli, sys.modules["meanfield.core"])
    cpu0 = _cpu_s()
    result["setup_s"] = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    if args.config:
        t0 = time.perf_counter()
        result["rc"] = meanfield.cli.run(args.config, threads=args.threads, out_dir=args.out)
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.spans:
        tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
