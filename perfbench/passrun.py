"""One pass of a workload in a fresh process; prints one JSON line.

    python3 perfbench/passrun.py ROOT WORKLOAD ORDER_SEED TRACE [SPANS_FILE]

ROOT is the checkout holding ``src/neron``.  WORKLOAD is ``setup`` (set-up
only), ``seeds``, ``cli``, ``lift`` or ``census``.  ORDER_SEED -1 runs the
ops in their listed order; any other value shuffles them with that seed.
TRACE 1 installs the tracer after set-up and reports per-layer metrics.
"""

import json
import os
import random
import sys
import time


def _peak_rss_mb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    t0 = time.perf_counter()
    root, workload, order_seed, trace = argv[:4]
    order_seed, trace = int(order_seed), trace == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import neron
    if not os.path.abspath(neron.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"neron imported from {neron.__file__}, not {src}")
    import workloads
    inputs = workloads.Inputs(root)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if workload != "setup":
        ops = workloads.WORKLOADS[workload](inputs)
        if order_seed >= 0:
            random.Random(order_seed).shuffle(ops)
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            for op in ops:
                op.run = (lambda f=op.run, i=op.op_id: tracer.run_op(i, f))
        rejections = workloads.rejection_types()
        records = []
        for op in ops:
            seconds, outcome, digest = workloads.timed(op, rejections)
            records.append({"id": op.op_id, "seconds": seconds,
                            "outcome": outcome, "digest": digest})
        result["ops"] = records
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["missing"] = tracer.missing
            if len(argv) > 4:
                tracer.write(argv[4])
    result["peak_rss_mb"] = _peak_rss_mb()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
