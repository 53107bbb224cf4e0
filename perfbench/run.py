#!/usr/bin/env python3
"""The htp benchmark: builds the program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload iscas_flow --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --steady --workload serve_eco --runs 10

A workload run prints a host/build stamp line and then, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. --steady runs a workload once per seed (1..--runs) and reports
each end-to-end metric's median and quartile spread against its bound in
BENCHMARK.json.
perfbench/README.md describes the workloads and metrics.

The build goes to $CARGO_TARGET_DIR (default .bench_build), configured with
CMake from perfbench/CMakeLists.txt. Stdlib only.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("iscas_flow", "rent_multilevel", "serve_eco")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds perfbench and htp_serve; returns the dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no htp sources next to perfbench/ (src/CMakeLists.txt missing)")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "htp_serve",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return out


def cache_value(out, key):
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def stamp(out):
    """Host and build facts that every result line is read against."""
    cpu = platform.processor() or ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "build_type": cache_value(out, "CMAKE_BUILD_TYPE"),
        "obs_enabled": cache_value(out, "HTP_OBS_ENABLED") in ("ON", "1",
                                                               "TRUE"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def work_dir(out):
    # The daemon's socket lives here; AF_UNIX paths are short, so keep the
    # path relative to the checkout root when it is inside it.
    path = (out / "run").resolve()
    path.mkdir(parents=True, exist_ok=True)
    try:
        return str(path.relative_to(pathlib.Path.cwd()))
    except ValueError:
        return str(path)


def binary_args(out):
    return [str(out / "perfbench"),
            "--serve", str(out / "htp" / "tools" / "htp_serve"),
            "--work-dir", work_dir(out)]


def run_in_group(cmd):
    """Runs cmd in its own process group and kills whatever of the group is
    left when it ends (the daemon child, if the benchmark binary died early).
    Returns (exit code or None on timeout, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        return proc.returncode, stdout
    except subprocess.TimeoutExpired:
        return None, ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_workload(args):
    out = build()
    cmd = binary_args(out) + ["--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", str(args.seconds),
                              "--trace", str(args.trace)]
    returncode, stdout = run_in_group(cmd)
    if returncode is None:
        log(f"workload {args.workload} timed out after {RUN_TIMEOUT_S} s")
        return 1
    lines = stdout.strip().splitlines()
    if returncode != 0 or not lines:
        log(f"workload {args.workload} failed (exit {returncode})")
        return returncode or 1
    info = stamp(out)
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print(json.dumps({"stamp": info}))
    print(lines[-1], flush=True)
    return 0


def run_self_test():
    out = build()
    returncode, stdout = run_in_group(binary_args(out) + ["--self-test"])
    return 1 if returncode is None else returncode


def run_steady(args):
    """Runs each workload once per seed (1..runs); reports each end-to-end
    metric's median and quartile spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    worst_ok = True
    summary = {}
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log(f"{workload} seed {seed}: run failed "
                    f"(exit {proc.returncode})")
                worst_ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                log(f"{workload} seed {seed}: correct={result['correct']} "
                    f"failed={result['failed']}")
                worst_ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed} done")
        rows = {}
        print(f"\n{workload} ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                log(f"{workload} {name}: fewer than two values")
                worst_ok = False
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread > bound:
                flag, worst_ok = "OVER", False
            elif spread > bound / 3:
                flag = "over 1/3"
            print(f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {bound:>6} {flag}")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
        summary[workload] = rows
    print(json.dumps({"steady": summary, "within_bounds": worst_ok}))
    return 0 if worst_ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0,
                        help="operation-list length in seconds of work on "
                             "the reference host (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_test:
        return run_self_test()
    if not args.workload:
        parser.error("--workload is required")
    if args.steady:
        if args.trace is not None:
            parser.error("--steady runs the end-to-end metrics; drop --trace")
        return run_steady(args)
    if args.trace is None:
        args.trace = 0
    if args.workload == "all":
        parser.error("--workload all needs --steady")
    if not args.seconds:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e}")
        sys.exit(1)
