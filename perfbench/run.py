#!/usr/bin/env python3
"""Build and run the benchmark of record (see perfbench/README.md).

    python3 perfbench/run.py --workload module-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (with the library
sources in src/) into .bench_build/ on first use, runs the benchmark's
own unit test, then runs lpo_perfbench with scratch files under
.bench_run/. The last line of standard output is the result JSON, with
exactly the end-to-end (--trace 0) or per-layer (--trace 1) metrics
BENCHMARK.json lists; a layer the workload bypasses reads 0.
Everything the build and the run write stays inside the checkout.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("module-cold", "rq-discovery", "serve-mixed")
RUN_TIMEOUT_S = 160


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_revision(root):
    """git revision when available, else a hash of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git-" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(root, build_dir, env):
    """Configure once, then an incremental build (a no-op when current)."""
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                            "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                        "lpo_perfbench", "perfbench_stats_test"],
                       check=True, stdout=sys.stderr, env=env)
        subprocess.run([os.path.join(build_dir, "perfbench_stats_test")],
                       check=True, stdout=sys.stderr, env=env)


def narrow(result_line, listed, trace):
    """The result line with exactly the metrics BENCHMARK.json lists."""
    result = json.loads(result_line)
    metrics = {}
    for entry in listed:
        name, unit = entry["name"], entry["unit"]
        value = result["metrics"].get(name)
        if value is None and not trace:
            fail("workload did not report end-to-end metric " + name)
        if value is not None and value["unit"] != unit:
            fail("metric %s reported in %s, listed in %s"
                 % (name, value["unit"], unit))
        metrics[name] = value or {"value": 0, "unit": unit}
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "CMakeLists.txt")):
        fail("run from the root of a checkout (perfbench/ not found)")
    if not os.path.isdir(os.path.join(root, "src")):
        fail("library sources (src/) not found; nothing to build")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    work_dir = os.path.join(root, ".bench_run")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(root, build_dir, env)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)

    command = [os.path.join(build_dir, "lpo_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--revision", source_revision(root)]
    # Own process group, so a timeout also stops the per-module children.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = output.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        print(lines[-1])
        fail("benchmark failed (exit %d)" % proc.returncode)
    print(narrow(lines[-1], listed, args.trace), flush=True)


if __name__ == "__main__":
    main()
