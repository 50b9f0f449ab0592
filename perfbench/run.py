"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload chiral_lax --seed 1 --seconds 20 --trace 0

Every invocation goes through ``gstrand.cli.main`` in this process, on a
scenario file generated from ``--seed`` (see ``workloads.py``).  Each
invocation's output is checked; an invocation that raises or fails its check
counts as failed.

With ``--trace 0`` the untraced invocations are timed for ``--seconds`` and
the end-to-end metrics are reported: ``wall_ref_s`` (median wall time of one
invocation, scaled to a reference host speed; see ``measure.py``),
``setup_s`` (median time of ``ScenarioConfig.from_file`` on the scenario
file, sampled after every timed invocation and scaled the same way),
``peak_mem_mb`` (tracemalloc peak of the first, untimed invocation) and
``success_rate`` (1 - failed / attempted).  The raw wall and set-up times
are printed with their quartiles and sample counts.  With ``--trace 1``
traced and untraced invocations alternate (see ``spans.py``); the per-layer
metrics are medians over the traced invocations, and ``trace.overhead_s`` is
the median, over adjacent untraced/traced pairs, of the traced minus the
untraced wall time.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outside a checkout that holds ``src/gstrand`` it exits with status 1 before
measuring anything.
"""

import argparse
import json
import os
import shutil
import sys

import program


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program.load()
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    work_dir = program.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
