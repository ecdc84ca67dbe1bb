#!/usr/bin/env python3
"""AdaWave benchmark runner.

    python3 perfbench/run.py --workload blobs8d_200k --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source (see build.py), then runs
one workload in a single JVM with Spark in local mode. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of the traced replay with `--trace 1`.

    python3 perfbench/run.py --record <workload>

prints the reference AMI lines of perfbench/reference_ami.tsv for that
workload, computed by the program as it is now.

Everything the run writes stays under .bench_build/ in the checkout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402  (perfbench/build.py)

WORKLOADS = ["running2d_4.5m", "blobs8d_200k", "uci9_table1"]
JVM_SECONDS = 175
MAX_CORES = 4
HEAP = "3g"

# What Spark's own launcher adds on Java 17.
JAVA_MODULE_OPTIONS = [
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
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def java_command(dirs, main_class, args):
    work = build.OUT / "run"
    for sub in ("tmp", "spark-local", "warehouse"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    classpath = [dirs["bench"]] + ([dirs["trace"]] if dirs["trace"] else [])
    classpath.append(dirs["jars"] / "*")
    return [
        "java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
        *JAVA_MODULE_OPTIONS,
        f"-Djava.io.tmpdir={work / 'tmp'}",
        f"-Dlog4j.configurationFile={build.BENCH / 'log4j2.properties'}",
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={work / 'spark-local'}",
        f"-Dspark.sql.warehouse.dir={work / 'warehouse'}",
        "-cp", os.pathsep.join(str(c) for c in classpath),
        main_class, *args,
    ]


def run_jvm(cmd, env, timeout):
    """Runs the JVM in its own process group and returns (code, stdout).
    The group is killed and reaped if the JVM outlives `timeout`."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            cwd=build.ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", choices=WORKLOADS,
                   help="print reference AMI lines for a workload and exit")
    a = p.parse_args()
    if not a.workload and not a.record:
        p.error("--workload or --record is required")
    if not 1 <= a.seconds <= 60:
        p.error("--seconds must be in 1..60")

    try:
        dirs = build.build()
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")
    if a.trace and not dirs["trace"]:
        sys.exit("perfbench: the traced replay does not compile against this "
                 "program, see .bench_build/perfbench/trace.log")

    env = dict(os.environ, SPARK_MASTER=f"local[{min(MAX_CORES, os.cpu_count() or 1)}]")
    if a.record:
        cmd = java_command(dirs, "perfbench.RecordReferences", [a.record])
        code, out = run_jvm(cmd, env, timeout=1800)
        sys.stdout.write(out)
        sys.exit(code)

    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace-file", str(build.OUT / "traces" / f"{a.workload}-seed{a.seed}.jsonl")]
    main_class = "perfbench.TracedMain" if a.trace else "perfbench.Bench"
    try:
        code, out = run_jvm(java_command(dirs, main_class, args), env, timeout=JVM_SECONDS)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: the run did not finish within {JVM_SECONDS} s")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = (code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
              and all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()))
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        sys.exit(f"perfbench: the JVM exited with code {code} and no result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
