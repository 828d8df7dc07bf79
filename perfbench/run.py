#!/usr/bin/env python3
"""ZeroER pipeline benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload ab-alg1 --seed 17 --seconds 20 --trace 0

The script builds the benchmark (perfbench/build.sbt, which compiles the
repository's own sources) once per source state, runs one workload in a
fresh JVM, prints one line per metric (name, unit, value, sample count) and
an environment record, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end ones, with
--trace 1 its per_layer ones. Metric names, units and the F1 bound come from
BENCHMARK.json. A pass that throws or fails the correctness gate counts as
failed; a JVM that crashes or overruns its time counts as one failed attempt.
Without the repository's sources next to it the script exits with status 2.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
START = time.monotonic()
RUN_LIMIT_S = 175      # a run that finds the build up to date
BUILD_RUN_LIMIT_S = 880  # the first run in a checkout, which builds first
RESULT_TAG = "PERFBENCH_RESULT "
INITIAL_HEAP = "2g"  # no larger than driver_heap()'s floor

# Spark 4 on JDK 17 needs the module opens spark-submit would add; the same
# list as the repository's build.sbt.
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
]

# F1 depends on the shuffle partition count through floating-point
# reduction order; it repeats exactly at a fixed count. Not a regression.
F1_PARTITION_NOTE = (
    "F1 depends on spark.sql.shuffle.partitions: DS scale 0.5 Algorithm 2 "
    "scored 0.916843 at 64 partitions and 0.916197 at 200, and repeats "
    "exactly across JVMs at a fixed count; compare F1 only at the same "
    "count (the benchmark's is recorded as shuffle_partitions)")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def sources():
    """Every file the build reads from the checkout, in a stable order."""
    files = [os.path.join(ROOT, "build.sbt")]
    for top in ("project", "src/main", "jobs", "perfbench/build.sbt", "perfbench/project",
                "perfbench/src"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build(out):
    """Compile with sbt, offline, and return the runtime classpath."""
    digest = source_hash()
    stamp, cp_file = os.path.join(out, "stamp"), os.path.join(out, "classpath")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as fh, open(cp_file) as cf:
            if fh.read() == digest:
                return cf.read(), digest
    env = dict(os.environ, COURSIER_MODE="offline")
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), "-Dsbt.offline=true",
                                "-Dsbt.server.autostart=false",
                                f"-Dsbt.global.base={os.path.join(out, 'sbt')}"]).strip()
    log = os.path.join(out, "build.log")
    with open(log, "w") as fh:
        code = run_process(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                            "export Runtime/fullClasspath"],
                           cwd=BENCH_DIR, env=env, stdout=fh, stderr=subprocess.STDOUT,
                           limit=BUILD_RUN_LIMIT_S - 60 - (time.monotonic() - START))
    with open(log) as fh:
        lines = fh.read().splitlines()
    if code != 0 or not lines:
        die(f"build failed (status {code}); see {log}")
    cp = lines[-1].strip()
    if os.path.join("perfbench", "target") not in cp:
        die(f"build printed no classpath; see {log}")
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp, "w") as fh:
        fh.write(digest)
    return cp, digest


def run_process(cmd, limit, **kw):
    """Run in its own process group; kill the group past `limit` seconds,
    or when this script is terminated."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    def on_signal(signum, _):
        stop()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, on_signal) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return proc.wait(timeout=max(1.0, limit))
    except subprocess.TimeoutExpired:
        stop()
        return None
    finally:
        for s, h in previous.items():
            signal.signal(s, h)


def driver_heap():
    """Half the machine's memory, clamped to 2..8 GiB, as the tests derive it."""
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration, ValueError):
        return "2g"


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_file):
        die("BENCHMARK.json not found")
    with open(spec_file) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        die("the repository's sources (build.sbt, src/main/scala) are not in this checkout")

    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    built = time.monotonic()
    classpath, digest = build(out)
    built = time.monotonic() - built

    wanted = spec["per_layer"] if args.trace == "1" else spec["end_to_end"]
    f1_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "f1")
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    heap = driver_heap()
    # A fixed initial heap, so that growing the heap from the JVM's small
    # default is done in the warm-up, not in the measured passes.
    cmd = [java, f"-Xms{INITIAL_HEAP}", f"-Xmx{heap}", *JVM_OPENS,
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Djava.io.tmpdir={os.path.join(out, 'tmp')}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seconds", str(args.seconds), "--trace", args.trace,
           "--f1-bound", str(f1_bound), "--local-dir", os.path.join(out, "spark")]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    limit = (BUILD_RUN_LIMIT_S if built > 5 else RUN_LIMIT_S) - (time.monotonic() - START)
    log = os.path.join(out, "jvm.stdout")
    with open(log, "w") as fh:
        code = run_process(cmd, limit=limit, cwd=ROOT, stdout=fh)
    with open(log) as fh:
        tagged = [l[len(RESULT_TAG):] for l in fh.read().splitlines() if l.startswith(RESULT_TAG)]

    if code != 0 or not tagged:
        why = "timed out" if code is None else f"exited with status {code}"
        print(f"perfbench: the benchmark JVM {why}", file=sys.stderr)
        res = {"correct": False, "attempted": 1, "failed": 1,
               "metrics": {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in wanted}}
        print(json.dumps(res))
        return

    res = json.loads(tagged[-1])
    samples, errors = res["samples"], list(res["errors"])
    metrics = {}
    for m in wanted:
        xs = samples.get(m["name"], [])
        value = statistics.median(xs) if xs else 0.0
        if not xs or not math.isfinite(value):
            errors.append(f"metric {m['name']} has no finite samples")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<26} {m['unit']:<6} {value:>14.6f}   n={len(xs)}")

    env = dict(res["env"], driver_heap=heap, initial_heap=INITIAL_HEAP, git_sha=git_sha(), source_sha256=digest,
               build_s=round(built, 3), f1_note=F1_PARTITION_NOTE)
    print("env " + json.dumps(env, sort_keys=True))
    for e in errors:
        print(f"error: {e}")
    correct = bool(res["correct"]) and not errors
    failed = res["failed"] if correct else max(1, res["failed"])
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
