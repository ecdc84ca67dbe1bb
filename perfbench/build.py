#!/usr/bin/env python3
"""Build file of the AdaWave benchmark.

Compiles the program (src/main/scala and jobs) together with the benchmark's
end-to-end sources (perfbench/src/bench) into .bench_build/perfbench/bench,
then the layer replay (perfbench/src/trace) into .bench_build/perfbench/trace.
The Scala compiler is the one shipped in the Spark distribution's jars, so
the build needs no dependency resolution.

The replay calls each layer's public functions, so a program change that
alters a layer's signature can break only the traced build; the end-to-end
build then still succeeds and only `--trace 1` runs refuse to start.

Run directly with `python3 perfbench/build.py`; the benchmark runner calls
`build()` before every run and rebuilds only when a source file changed.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
PROGRAM_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "jobs"]
BENCH_DIR = BENCH / "src" / "bench"
TRACE_DIR = BENCH / "src" / "trace"


class BuildError(RuntimeError):
    pass


def spark_jars() -> Path:
    """The Spark distribution's jar directory: $SPARK_HOME/jars, else the
    directory next to the `spark-submit` found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found "
                         "(set SPARK_HOME)")
    return jars


def scala_sources(dirs):
    files = []
    for d in dirs:
        files += sorted(p for p in d.rglob("*.scala") if p.is_file())
    return files


def fingerprint(files) -> str:
    h = hashlib.sha256()
    for f in files + [Path(__file__).resolve()]:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def scalac(jars: Path, classpath, dest: Path, files, log: Path) -> bool:
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    cp = os.pathsep.join([str(jars / "*")] + [str(c) for c in classpath])
    cmd = ["java", "-Xmx1g", "-XX:-UsePerfData", "-cp", cp,
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", str(dest)] + [str(f) for f in files]
    with open(log, "w") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode == 0


def build() -> dict:
    """Compiles what is stale and returns {"bench": dir, "trace": dir or None,
    "jars": dir}. Raises BuildError when the end-to-end build fails."""
    for d in PROGRAM_DIRS[:1] + [BENCH_DIR, TRACE_DIR]:
        if not d.is_dir():
            raise BuildError(f"missing source directory {d.relative_to(ROOT)}")
    jars = spark_jars()
    OUT.mkdir(parents=True, exist_ok=True)

    bench_files = scala_sources(PROGRAM_DIRS + [BENCH_DIR])
    bench_dir, bench_stamp = OUT / "bench", OUT / "bench.stamp"
    key = fingerprint(bench_files)
    if not (bench_stamp.exists() and bench_stamp.read_text() == key):
        bench_stamp.unlink(missing_ok=True)
        if not scalac(jars, [], bench_dir, bench_files, OUT / "bench.log"):
            raise BuildError(f"compile failed, see {(OUT / 'bench.log').relative_to(ROOT)}")
        bench_stamp.write_text(key)

    trace_files = scala_sources([TRACE_DIR])
    trace_dir, trace_stamp = OUT / "trace", OUT / "trace.stamp"
    key = fingerprint(bench_files + trace_files)
    if not (trace_stamp.exists() and trace_stamp.read_text().split()[0] == key):
        ok = scalac(jars, [bench_dir], trace_dir, trace_files, OUT / "trace.log")
        trace_stamp.write_text(f"{key} {'ok' if ok else 'failed'}")
    traced_ok = trace_stamp.read_text().split()[1] == "ok"
    return {"bench": bench_dir, "trace": trace_dir if traced_ok else None, "jars": jars}


if __name__ == "__main__":
    try:
        dirs = build()
    except BuildError as e:
        sys.exit(f"build: {e}")
    print(f"built {dirs['bench'].relative_to(ROOT)}"
          + ("" if dirs["trace"] else " (traced replay did not compile, "
             "see .bench_build/perfbench/trace.log)"))
