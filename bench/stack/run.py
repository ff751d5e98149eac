#!/usr/bin/env python3
"""The one command for bench_stack: build, run, summarize, compare.

Run from anywhere; paths are resolved against the repository root.

  python3 bench/stack/run.py --workload W --seed S --seconds T --trace 0|1
      Builds bench_stack if needed, runs workload W once, and prints one
      JSON line {"correct", "attempted", "failed", "metrics"} as the last
      line of stdout: the end-to-end metrics of BENCHMARK.json untraced,
      its per-layer metrics traced. Exits non-zero, printing no result,
      when a build or run fails or any answer disagrees with the oracle.

  python3 bench/stack/run.py --sets K [--seed S] [--seconds T] [--trace 0|1]
      Runs every workload K times, alternating the workload order between
      sets, with seeds S, S+1, ..., and prints `workload metric median q1
      q3 unit spread bound n` per metric. Exits non-zero if any run fails.

  python3 bench/stack/run.py --compare A B [--pairs K] [--seed S]
                             [--seconds T] [--workload W]
      A and B are two checkouts, the parent and the change. Builds
      bench_stack from each, then runs K seed-paired runs of each workload
      (or of W) on both, alternating which side runs first, and judges
      every end-to-end metric with this checkout's BENCHMARK.json bounds:
      `unresolved` when either side's run-to-run spread exceeds the bound,
      unless every B run beats every A run; `REGRESSION` when B's median
      is worse by more than the bound; `gain` when there are at least ten
      pairs, B wins nine tenths of them, the medians differ by more than
      A's quartile distance, and B failed no more answers than A. Exits
      non-zero on any regression or failed run.

  python3 bench/stack/run.py --smoke [--bin PATH] [--workdir DIR]
      Every workload at n=2^12 for 1 s, untraced and traced, every answer
      oracle-checked, plus the span recorder's self-time checks.

Everything goes under $CARGO_TARGET_DIR (default .bench_build in this
checkout): the build in stack/, --compare's two builds in compare/a and
compare/b, run files and store files in runs/ (smoke/ for --smoke).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


class RunFailed(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(root=ROOT, bdir=None):
    """Builds target bench_stack of the main project of the checkout at
    `root` into `bdir`, with bench/stack added by root_hook.cmake."""
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        raise RunFailed(f"no main project with library sources under {root}",
                        2)
    bdir = bdir or build_root() / "stack"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        hook = root / "bench" / "stack" / "root_hook.cmake"
        steps.append(["cmake", "-S", str(root), "-B", str(bdir),
                      f"-DCMAKE_PROJECT_plg_INCLUDE={hook}"])
    steps.append(["cmake", "--build", str(bdir), "--target", "bench_stack",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            raise RunFailed(f"build failed: {e}", 2)
        if rc != 0:
            raise RunFailed(f"build failed: {' '.join(cmd)} exited {rc}", 2)
    return bdir / "bench" / "stack" / "bench_stack"


def run_once(binary, workdir, workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns its --out document."""
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    out = workdir / f"{tag}.json"
    trace_file = workdir / f"{tag}.trace.json"
    store_dir = workdir / "tmp"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(out),
           "--workdir", str(store_dir)]
    if trace:
        cmd += ["--trace", str(trace_file)]
    if smoke:
        cmd.append("--smoke")
    out.unlink(missing_ok=True)
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{tag}: no result within {RUN_TIMEOUT_S} s")
    finally:
        # The program removes its store files itself; this covers a kill.
        shutil.rmtree(store_dir, ignore_errors=True)
    if rc != 0:
        raise RunFailed(f"{tag}: bench_stack exited {rc}", rc)
    with open(out) as f:
        doc = json.load(f)
    if not doc.get("correct"):
        raise RunFailed(f"{tag}: {doc.get('error')}")
    doc["trace_file"] = str(trace_file) if trace else None
    return doc


def metric_specs(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def result_line(bench, doc, trace):
    metrics = {}
    for m in metric_specs(bench, trace):
        if m["name"] not in doc["metrics"]:
            raise RunFailed(f"metric {m['name']} missing from the run")
        metrics[m["name"]] = {"value": doc["metrics"][m["name"]],
                              "unit": m["unit"]}
    return {"correct": bool(doc["correct"]), "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def cmd_single(args, bench):
    binary = build()
    doc = run_once(binary, build_root() / "runs", args.workload, args.seed,
                   args.seconds, args.trace)
    print("config " + json.dumps(doc["config"], sort_keys=True))
    print(json.dumps(result_line(bench, doc, args.trace)))
    return 0


def cmd_sets(args, bench):
    binary = build()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    specs = metric_specs(bench, args.trace)
    values = {w: {m["name"]: [] for m in specs} for w in names}
    failures = 0
    for i in range(args.sets):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            try:
                doc = run_once(binary, build_root() / "runs", w,
                               args.seed + i, seconds, args.trace)
            except RunFailed as e:
                log(f"run failed: {e}")
                failures += 1
                continue
            for m in specs:
                values[w][m["name"]].append(doc["metrics"][m["name"]])
            log(f"set {i + 1}/{args.sets} {w}: attempted {doc['attempted']} "
                f"failed {doc['failed']}")
    print(f"{'workload':<11} {'metric':<36} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'unit':<9} {'spread':>7} {'bound':>6} n")
    for w in names:
        for m in specs:
            v = values[w][m["name"]]
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            print(f"{w:<11} {m['name']:<36} {med:>14.6g} {q1:>14.6g} "
                  f"{q3:>14.6g} {m['unit']:<9} {spread(v):>7.3f} {bound:>6} "
                  f"{len(v)}")
    return 1 if failures else 0


def verdict(m, va, vb, more_failed):
    """Judges one end-to-end metric from seed-paired runs va[i], vb[i] of
    the parent A and the change B (choosing-metrics sections 6 and 8). A
    gain needs at least ten pairs and no more failed answers than A."""
    q1a, ma, q3a = quartiles(va)
    mb = quartiles(vb)[1]
    lower = m["better"] == "lower"
    worse = ((mb - ma) if lower else (ma - mb)) / ma if ma else 0.0
    wins = sum(1 for x, y in zip(va, vb) if (y < x if lower else y > x))
    if max(spread(va), spread(vb)) > m["bound"]:
        every_b_better = max(vb) < min(va) if lower else min(vb) > max(va)
        return worse, "better in every run" if every_b_better else "unresolved"
    if worse > m["bound"]:
        return worse, "REGRESSION"
    if (worse < 0 and len(va) >= 10 and not more_failed
            and wins >= 0.9 * len(va) and abs(mb - ma) > q3a - q1a):
        return worse, f"gain ({wins}/{len(va)} pairs)"
    return worse, "within bound"


def cmd_compare(args, bench):
    sides = [Path(p).resolve() for p in args.compare]
    binaries = [build(root, build_root() / "compare" / name)
                for root, name in zip(sides, ("a", "b"))]
    names = [args.workload] if args.workload else \
        [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["end_to_end"]
    values = {(w, side): {m["name"]: [] for m in specs}
              for w in names for side in (0, 1)}
    failed_answers = {(w, side): 0 for w in names for side in (0, 1)}
    failures = 0
    # Pairs interleave the workloads, and which side runs first alternates
    # from pair to pair, so a drift of the host lands on both sides.
    for i in range(args.pairs):
        for w in names:
            docs = {}
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                try:
                    docs[side] = run_once(binaries[side],
                                          build_root() / "runs", w,
                                          args.seed + i, seconds, 0)
                except RunFailed as e:
                    log(f"run failed: {'AB'[side]}: {e}")
                    failures += 1
            if len(docs) < 2:
                continue
            for side, doc in docs.items():
                failed_answers[w, side] += doc["failed"]
                for m in specs:
                    values[w, side][m["name"]].append(doc["metrics"][m["name"]])
            log(f"pair {i + 1}/{args.pairs} {w}: done")
    regressions = 0
    print(f"{'workload':<11} {'metric':<14} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for w in names:
        for m in specs:
            va, vb = values[w, 0][m["name"]], values[w, 1][m["name"]]
            if not va:
                continue
            worse, v = verdict(m, va, vb,
                               failed_answers[w, 1] > failed_answers[w, 0])
            regressions += v == "REGRESSION"
            print(f"{w:<11} {m['name']:<14} {quartiles(va)[1]:>12.6g} "
                  f"{quartiles(vb)[1]:>12.6g} {-worse:>+8.1%} "
                  f"{m['bound']:>6.0%}  {v}")
    return 1 if regressions or failures else 0


def cmd_smoke(args, bench):
    binary = Path(args.bin) if args.bin else build()
    workdir = Path(args.workdir) if args.workdir else build_root() / "smoke"
    if subprocess.run([str(binary), "--self-test"], stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        raise RunFailed("span recorder self-test failed")
    for w in bench["workloads"]:
        for trace in (0, 1):
            doc = run_once(binary, workdir, w["name"], 1, 1, trace, smoke=True)
            line = result_line(bench, doc, trace)
            if line["failed"] or line["attempted"] < 1:
                raise RunFailed(f"{w['name']}: {line['failed']} of "
                                f"{line['attempted']} answers failed")
            if trace:
                with open(doc["trace_file"]) as f:
                    phases = json.load(f)["phases"]
                bad = {p: v["self_sum_error_ns"] for p, v in phases.items()
                       if v["self_sum_error_ns"] != 0}
                if bad:
                    raise RunFailed(f"{w['name']}: self times do not sum to "
                                    f"their roots' durations: {bad}")
            log(f"smoke {w['name']} trace={trace}: ok, "
                f"{line['attempted']} answers checked")
    print("bench_stack smoke: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin")
    p.add_argument("--workdir")
    args = p.parse_args()
    try:
        bench = load_benchmark()
        if args.smoke:
            return cmd_smoke(args, bench)
        if args.compare:
            return cmd_compare(args, bench)
        if args.sets:
            return cmd_sets(args, bench)
        if args.workload:
            if args.seconds is None:
                args.seconds = bench["run_seconds"]
            return cmd_single(args, bench)
        p.print_usage(sys.stderr)
        return 2
    except RunFailed as e:
        log(f"bench_stack: {e}")
        return e.code
    except (OSError, ValueError, KeyError) as e:
        log(f"bench_stack: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
