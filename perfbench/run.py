"""Benchmark of the neron library: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {seeds,cli,lift,all} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --census

Run from the root of a checkout that holds ``src/neron``.  Each pass of a
workload runs in a fresh Python process (one at a time), so every pass
starts from the same cold caches and its peak memory is its own.  The
number of passes depends on ``--seconds`` only, so every run takes the
same samples.  ``--seed`` shuffles the order of the ops in
each pass; the op set itself is fixed, so runs with different seeds do the
same work.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one traced pass and the tracing overhead against one untraced pass, both in
listed op order.  ``--census`` runs desingularize on every generator seed
0-31 under the deadline and prints each seed's outcome.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PASSRUN = os.path.join(HERE, "passrun.py")

WORKLOADS = ("seeds", "cli", "lift")
# One pass per 5 s of --seconds; a pass, with its checks, takes 5-8 s on a
# 2-core x86 host.
SECONDS_PER_PASS = 5
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
# a run must end within 180 s; a pass still going at the budget is killed
RUN_BUDGET_S = 170

END_TO_END_UNITS = {"wall_s": "s", "solved_frac": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Runner:
    def __init__(self, root, workload):
        self.root = root
        self.workload = workload
        self.out_dir = os.path.join(root, ".perfbench_out")
        self.started = time.monotonic()
        self.setup_samples = []

    def child(self, workload, order_seed, trace, spans_file=None):
        left = RUN_BUDGET_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("run budget exhausted")
        cmd = [sys.executable, PASSRUN, self.root, workload,
               str(order_seed), "1" if trace else "0"]
        if spans_file:
            cmd.append(spans_file)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=left, cwd=self.root)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass of {workload} ran past the "
                             f"{RUN_BUDGET_S} s budget of a run") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"pass of {workload} exited "
                             f"{proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup_samples.append(result["setup_s"])
        return result

    def setup_median(self):
        while len(self.setup_samples) < MIN_SETUP_SAMPLES:
            self.child("setup", -1, False)
        return statistics.median(self.setup_samples)

    def warm_up(self):
        """Byte-compile the sources once; this sample is not kept."""
        self.child("setup", -1, False)
        self.setup_samples.clear()


def pass_count(seconds):
    return max(MIN_PASSES, round(seconds / SECONDS_PER_PASS))


def tail(samples):
    """Highest-percentile sample with ten samples above it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def src_fingerprint(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def src_loc(root):
    total = 0
    for dirpath, _, filenames in os.walk(os.path.join(root, "src")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def check_digests(runner, passes, problems):
    """Every pass, and every earlier run on the same sources in this
    checkout, must print the same stdout for each op."""
    path = os.path.join(runner.out_dir, f"digests-{runner.workload}.json")
    fingerprint = src_fingerprint(runner.root)
    merged = {}
    try:
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
        if saved.get("src") == fingerprint:
            merged = saved["digests"]
    except (OSError, ValueError, KeyError):
        pass  # no earlier run on these sources
    for result in passes:
        for rec in result["ops"]:
            if rec["digest"] is None:
                continue
            want = merged.setdefault(rec["id"], rec["digest"])
            if want != rec["digest"]:
                problems.append(f"stdout digest of {rec['id']} differs "
                                f"between runs")
    os.makedirs(runner.out_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"src": fingerprint, "digests": merged}, fh, indent=1,
                  sort_keys=True)
    os.replace(tmp, path)


def summarize_ops(passes, problems):
    """Per-op outcome and median time; outcomes must agree across passes."""
    by_id = {}
    for result in passes:
        for rec in result["ops"]:
            by_id.setdefault(rec["id"], []).append(rec)
    lines = []
    for op_id in sorted(by_id, key=_op_sort_key):
        recs = by_id[op_id]
        outcomes = sorted({r["outcome"] for r in recs})
        if len(outcomes) > 1:
            problems.append(f"{op_id} has outcomes {outcomes} across passes")
        med = statistics.median(r["seconds"] for r in recs)
        lines.append(f"op {op_id:<32} {'/'.join(outcomes):<36} "
                     f"median {med:.4f} s over {len(recs)}")
    return lines


def _op_sort_key(op_id):
    stem, _, num = op_id.rpartition("-")
    return (stem, int(num)) if num.isdigit() else (op_id, 0)


def pass_seconds(result):
    return sum(rec["seconds"] for rec in result["ops"])


def counts(passes):
    attempted = failed = solved = 0
    for result in passes:
        for rec in result["ops"]:
            attempted += 1
            outcome = rec["outcome"]
            solved += outcome == "solved"
            failed += outcome == "timeout" or outcome.startswith("failed:")
    return attempted, failed, solved


def run_timed(runner, seed, seconds, out):
    runner.warm_up()
    n = pass_count(seconds)
    passes = [runner.child(runner.workload, seed * 1000 + i, False)
              for i in range(n)]
    problems = []
    lines = summarize_ops(passes, problems)
    if runner.workload == "cli":
        check_digests(runner, passes, problems)
    attempted, failed, solved = counts(passes)
    samples = [rec["seconds"] for r in passes for rec in r["ops"]]
    tail_value, tail_pct = tail(samples)
    metrics = {
        "wall_s": statistics.median(pass_seconds(r) for r in passes),
        "solved_frac": solved / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "setup_s": runner.setup_median(),
    }
    out.extend(lines)
    out.append(f"passes {n}, ops per pass {len(passes[0]['ops'])}, op samples "
               f"{len(samples)}, order seed {seed}")
    # printed, not gated: on a shared host, short ops and single samples
    # swing by more than the largest bound a metric may have
    out.append(f"latency_p50_s = {statistics.median(samples):.6g} s: median "
               f"of the {len(samples)} op samples")
    out.append(f"latency_tail_s = {tail_value:.6g} s: p{tail_pct:.1f} of the "
               f"{len(samples)} op samples (10 above it)")
    out.append(f"failed_frac = {failed / attempted:.4f} "
               f"({failed} of {attempted} failed or timed out)")
    if runner.workload == "seeds":
        out.append("generator seeds outside the timed range: 0-16, 28-31 "
                   "(desingularize outcomes: run.py --census); the lift "
                   "workload runs all of 0-31")
    for name, value in metrics.items():
        out.append(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    for p in problems:
        out.append("CHECK FAILED: " + p)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}


def run_traced(runner, out):
    runner.warm_up()
    plain = runner.child(runner.workload, -1, False)
    spans = os.path.join(runner.out_dir, f"spans-{runner.workload}.tsv.gz")
    traced = runner.child(runner.workload, -1, True, spans)
    problems = []
    out.extend(summarize_ops([plain, traced], problems))
    attempted, failed, _ = counts([plain, traced])
    wall = [pass_seconds(r) for r in (plain, traced)]
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace_overhead_s"] = {"value": wall[1] - wall[0], "unit": "s"}
    metrics["src.loc"] = {"value": src_loc(runner.root), "unit": "lines"}
    out.append(f"untraced pass {wall[0]:.4f} s, traced pass {wall[1]:.4f} s, "
               f"tracing overhead {wall[1] - wall[0]:.4f} s; spans in {spans}")
    for name in traced.get("missing", []):
        out.append(f"not traced (not found in neron): {name}")
    for name, m in metrics.items():
        out.append(f"{name} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        out.append("CHECK FAILED: " + p)
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_census(root):
    runner = Runner(root, "census")
    result = runner.child("census", -1, False)
    for rec in result["ops"]:
        print(f"{rec['id']:<10} {rec['outcome']:<36} {rec['seconds']:.3f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--census", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "neron", "__init__.py")):
        print(f"no neron sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.census:
        run_census(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        runner = Runner(root, name)
        out = [f"== workload {name}"]
        try:
            if args.trace:
                results[name] = run_traced(runner, out)
            else:
                results[name] = run_timed(runner, args.seed, args.seconds,
                                          out)
        except BenchError as exc:
            print("\n".join(out))
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(out), flush=True)
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
