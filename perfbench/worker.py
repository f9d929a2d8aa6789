"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --out DIR [--setup-only]
                                [--spans FILE]

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and the BLAS
thread count fixed at 1.  The last line of standard output is a JSON
record: the monotonic time at the end of set-up, the wall time of the
levels, the peak resident memory, every level's status and row, and the
documented checks.  With ``--spans`` the run is traced; the record then
holds the per-layer metrics and the spans go to FILE.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import streamfem
    source = Path(streamfem.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"streamfem imported from {source}, "
                         f"not from {ROOT / 'src'}")
    import spans
    import workloads

    reference = workloads.load_reference()
    tracer = spans.Tracer().install() if args.spans else None
    workload = workloads.make(args.workload, args.out)
    state = workload.setup()
    setup_done = time.monotonic()
    record = {"setup_done": setup_done}
    if not args.setup_only:
        levels = workloads.run_levels(workload, state, reference)
        record.update(wall_s=time.monotonic() - setup_done, levels=levels,
                      checks=state.get("checks", []))
    record["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss * 1024 / 1e6)
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
