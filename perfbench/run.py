#!/usr/bin/env python3
"""Repo benchmark runner: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload graph_sim --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --selftest              # determinism self-test

Run from the repository root. The build lives in $CARGO_TARGET_DIR (default
.bench_build)/perfbench. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The full
record (every metric, seed, nproc, build type, commit) overwrites
<build>/results/<workload>-trace<t>.json. Exit status is non-zero when the
build fails or a correctness gate fails. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["graph_sim", "accountable_shuffle", "witness_channel", "transport_stream"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then incrementally builds the perfbench target."""
    for need in ("src/CMakeLists.txt", "include/accountnet", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from a full checkout of the repository" % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    # Only this checkout's own repository: never walk up into a parent one.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_binary(binary, args):
    """Runs perfbench, echoes its report lines, returns (exit code, last JSON)."""
    try:
        r = subprocess.run([binary] + args, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if args == ["--selftest"]:
        print(lines[-1] if lines else "")
        return r.returncode, None
    try:
        return r.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return r.returncode, None


def run_workload(binary, spec, workload, seed, seconds, trace):
    rc, rep = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(trace)])
    if rep is None:
        fail("%s produced no result (exit %d)" % (workload, rc))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    # In a traced run, a per-layer metric a workload does not report belongs
    # to a layer that workload never calls (README.md, "bypass"): it reads 0
    # and is listed.
    bypassed = [m["name"] for m in wanted if trace and m["name"] not in rep["metrics"]]
    for m in wanted:
        if m["name"] in bypassed:
            rep["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
    for m in wanted:
        got = rep["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("%s did not report %s in %s" % (workload, m["name"], m["unit"]))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "build_type": build_type(), "commit": git_commit(),
        "correct": rep["correct"] and rc == 0, "attempted": rep["attempted"],
        "failed": rep["failed"], "gates": rep["gates"], "metrics": rep["metrics"],
        "info": rep["info"], "bypassed": bypassed,
    }
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-trace%d.json" % (workload, trace))
    with open(path, "w") as f:  # overwrite: one record per file, never appended
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    selected = {m["name"]: {"value": rep["metrics"][m["name"]]["value"], "unit": m["unit"]}
                for m in wanted}
    return record, selected


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()

    if args.selftest:
        rc, _ = run_binary(binary, ["--selftest"])
        sys.exit(0 if rc == 0 else 1)
    if args.workload is None:
        ap.error("--workload is required")
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    if args.workload != "all":
        record, selected = run_workload(binary, spec, args.workload, args.seed, seconds,
                                        args.trace)
        print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": selected}))
        sys.exit(0 if record["correct"] else 1)

    # Every workload in its own process (peak RSS is per process), then one
    # table of each workload's end-to-end metrics under their own names.
    rows, all_ok, attempted, failed, merged = [], True, 0, 0, {}
    for w in WORKLOADS:
        print("== %s" % w)
        record, selected = run_workload(binary, spec, w, args.seed, seconds, args.trace)
        all_ok = all_ok and record["correct"]
        attempted += record["attempted"]
        failed += record["failed"]
        for name, m in selected.items():
            merged["%s.%s" % (w, name)] = m
        rows.append(record)
    print("\n%-20s %-28s %18s %s" % ("workload", "metric", "value", "unit"))
    named = ["ops_per_s", "shuffles_per_s", "deliveries_per_s", "delivery_sim_ms_p50", "delivery_sim_ms_p99",
             "frames_per_s", "payload_mb_per_s", "fail_ratio"]
    for r in rows:
        names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
        names += [n for n in named if n in r["metrics"] and not args.trace]
        for n in names:
            m = r["metrics"][n]
            print("%-20s %-28s %18.6g %s" % (r["workload"], n, m["value"], m["unit"]))
        print("%-20s %-28s %18s" % (r["workload"], "correct",
                                     "yes" if r["correct"] else "NO (%s)" % "; ".join(r["gates"])))
    print(json.dumps({"correct": all_ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
