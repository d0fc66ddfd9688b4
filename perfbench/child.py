"""Entry point of the benchmark's child processes.

    python3 perfbench/child.py setup WORKLOAD SEED
        import normgeo, then build and validate the workload's specs; the
        parent times the whole process, interpreter start included.
    python3 perfbench/child.py cli TRACE_FILE -- ARGS...
        time `import normgeo.cli`, install the tracer, run the CLI with
        ARGS, and write the spans and the import time to TRACE_FILE.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _setup(workload, seed):
    import normgeo as ng

    from workloads import build_specs

    build_specs(ng, workload, int(seed))
    return 0


def _cli(trace_file, argv):
    t0 = time.perf_counter()
    import normgeo.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        with tracer.span("cli.main", command=argv[0]):
            rc = normgeo.cli.main(argv)
    dumped = tracer.dump()
    dumped["import_s"] = import_s
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(dumped, fh)
    return rc


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        return _setup(argv[1], argv[2])
    if argv[:1] == ["cli"] and len(argv) > 3 and argv[2] == "--":
        return _cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
