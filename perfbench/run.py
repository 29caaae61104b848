#!/usr/bin/env python3
"""Build and run the predefined-join benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload snb-m --seed 1 --seconds 10 --trace 0

Workloads: snb-m, job-lite, tpch-spark. The first run builds the benchmark
with sbt (perfbench/build.sbt compiles the repository's src/main/scala with
the harness in perfbench/src); later runs reuse the build while the sources
are unchanged. The benchmark JVM prints a human-readable report and, as the
last line of standard output, one JSON object with the metrics; with
--trace 1 it also writes the span tree to perfbench/out/trace-*.json.

The benchmark's own tests (each workload's reference configuration against
the DuckDB oracle at tiny scale) run with `sbt test` in perfbench/.
"""
import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "target" / "bench"
WORKLOADS = ("snb-m", "job-lite", "tpch-spark")
# Fixed heap and a stop-the-world collector: no heap resizing and no
# concurrent marking running beside the timed passes. The serial executors
# are compiled in the foreground, when their call counts say so rather than
# whenever a compiler thread gets to them. With background compilation, one
# run in a set of five kept a JIT state in which duck and rid_only ran 1.5
# times slower throughout, while grain and gflow in the same run did not.
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:CompileCommand=quiet",
             "-XX:CompileCommand=BackgroundCompilation,repro.columnar.ColumnarExec*::*,false",
             "-XX:CompileCommand=BackgroundCompilation,repro.graphsim.GraphflowSim*::*,false"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# JDK 17 module opens that the spark-submit launcher would normally add.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def source_files():
    """Every file the build reads, in a stable order."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for top in (ROOT / "src" / "main", HERE / "src" / "main"):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(digest):
    """Compile once per source digest; returns the runtime classpath."""
    stamp, cp_file = BUILD / "digest", BUILD / "classpath"
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text()
    env = dict(os.environ)
    # Resolve only from the local caches; never reach for a network.
    env.setdefault("COURSIER_MODE", "offline")
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if "SBT_OPTS" not in env and repos.exists():
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           f"-Dsbt.repository.config={repos}")
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: build exceeded {BUILD_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: build failed (sbt exit {proc.returncode})")
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(lines[-1])
    stamp.write_text(digest)
    return lines[-1]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src' / 'main' / 'scala'}")
    digest = source_digest()
    cp = build(digest)
    out = HERE / "out"
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = (["java"] + JVM_FLAGS + [f"-Djava.io.tmpdir={tmp}"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, "repro.perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--out", str(out), "--source", digest, "--commit", git_commit()])
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped")
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
