#!/usr/bin/env python3
"""Builds and runs the DMap benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lookup_zipf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selfcheck

The first call configures and builds perfbench/ (the benchmark binary plus
the library sources under src/) into $CARGO_TARGET_DIR, default .bench_build.
A run prints the binary's human-readable output, one line
`report: {...}` with every metric, the attribution table and the machine
and build fingerprint, and as its last line the result object
{"correct", "attempted", "failed", "metrics"}. The metrics are the
end-to-end metrics of BENCHMARK.json, or its per-layer metrics with
--trace 1. `--workload all` runs the three workloads in turn. The exit
code is 0 only when every correctness check passed.

--selfcheck runs every workload at smoke size, untraced and traced, and
checks that every metric is present with its unit and that all checks pass.
A traced workload must report every per-layer metric except those it lists,
with the reason, as unmeasured because it bypasses their layer.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup_zipf", "mobility_mixed", "wire_openloop")
# A run takes --seconds of measurement plus set-up (five builds untraced,
# one traced) and its checks; a stuck binary is killed after this long.
SETUP_ALLOWANCE_S = 120

# The end-to-end metrics each workload reports; BENCHMARK.json compares the
# ones every workload has and that are never zero.
E2E_BY_WORKLOAD = {
    "lookup_zipf": ["setup_s", "lookups_per_s", "guid_updates_per_s",
                    "peak_rss_mb", "failed_frac", "sim_lookup_ms_p50",
                    "sim_lookup_ms_p99"],
    "mobility_mixed": ["setup_s", "lookups_per_s", "guid_updates_per_s",
                       "peak_rss_mb", "failed_frac", "stale_frac",
                       "sim_lookup_ms_p50", "sim_lookup_ms_p99",
                       "sim_update_ms_p50", "sim_update_ms_p99"],
    "wire_openloop": ["setup_s", "lookups_per_s", "guid_updates_per_s",
                      "peak_rss_mb", "failed_frac", "sim_lookup_ms_p50",
                      "sim_lookup_ms_p99", "sim_update_ms_p50",
                      "sim_update_ms_p99"],
}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "dmap_perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (path and content)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    """Runs the binary; returns (human-readable lines, report dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.csv")]
    if smoke:
        cmd.append("--smoke")
    timeout = SETUP_ALLOWANCE_S + 1.5 * float(seconds)
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s")
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed nothing (exit {result.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not a JSON report (exit "
             f"{result.returncode})")
    return lines[:-1], report


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def pick_metrics(report, declared, section):
    """The declared metrics from a report section; raises on any mismatch.

    A per-layer metric the workload lists as unmeasured (a layer it
    bypasses) reads as 0; any other missing metric is an error.
    """
    unmeasured = report.get("unmeasured", {}) if section == "per_layer" else {}
    metrics = {}
    for m in declared:
        got = report[section].get(m["name"])
        if m["name"] in unmeasured:
            if got is not None:
                raise ValueError(f"metric {m['name']} is both reported and "
                                 f"listed as unmeasured")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
            continue
        if got is None or not isinstance(got.get("value"), (int, float)):
            raise ValueError(f"metric {m['name']} missing or not a number")
        if got["unit"] != m["unit"]:
            raise ValueError(f"metric {m['name']} has unit {got['unit']}, "
                             f"declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return metrics


def run(args):
    binary = build()
    started = time.time()
    lines, report = run_binary(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    for line in lines:
        print(line)
    section = "per_layer" if args.trace else "end_to_end"
    try:
        metrics = pick_metrics(report, declared_metrics(args.trace), section)
    except ValueError as e:
        fail(f"{args.workload}: {e}")
    report["fingerprint"].update({
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seeds": {"seed": args.seed},
        "run_wall_s": round(time.time() - started, 3),
    })
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] else 1


def selfcheck():
    binary = build()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, report = run_binary(binary, workload, 1, 1, trace, smoke=True)
            tag = f"{workload} trace={trace}"
            if not report["correct"]:
                problems.append(f"{tag}: checks failed: {report['failures']}")
            try:
                pick_metrics(report, declared_metrics(trace),
                             "per_layer" if trace else "end_to_end")
            except ValueError as e:
                problems.append(f"{tag}: {e}")
            for name in E2E_BY_WORKLOAD[workload]:
                got = report["end_to_end"].get(name)
                if got is None or not got.get("unit"):
                    problems.append(f"{tag}: end-to-end {name} missing")
            if trace:
                declared = {m["name"] for m in declared_metrics(1)}
                extra = (set(report["per_layer"]) |
                         set(report["unmeasured"])) - declared
                if extra:
                    problems.append(f"{tag}: undeclared per-layer {sorted(extra)}")
                if not report["attribution"]["rows"]:
                    problems.append(f"{tag}: empty attribution table")
            print(f"selfcheck {tag}: attempted={report['attempted']} "
                  f"correct={report['correct']}")
    for p in problems:
        print(f"selfcheck FAILED: {p}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        codes = [run(argparse.Namespace(**{**vars(args), "workload": w}))
                 for w in WORKLOADS]
        return max(codes)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
