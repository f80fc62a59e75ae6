"""Build file of the benchmark: compiles the program and the benchmark with scalac.

The program's sources (``src/main/scala``, ``jobs``) and the benchmark's
(``perfbench/src``) are compiled in one scalac call against the Scala and
Spark jars of the Spark distribution (``$SPARK_HOME/jars``), the same jars
the sbt build puts on its classpath. ``repro/Oracle.scala`` is left out: it
is the tests' DuckDB oracle, and DuckDB is not among those jars.

Output goes to ``.bench_build/classes`` in the checkout. A stamp of the
source hashes skips the compile when nothing changed.
"""

import glob
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
CLASSES = os.path.join(BUILD_DIR, "classes")
STAMP = os.path.join(BUILD_DIR, "classes.sha256")
PROGRAM_DIRS = ["src/main/scala", "jobs"]
BENCH_DIR = "perfbench/src"
EXCLUDED = {"src/main/scala/repro/Oracle.scala"}


def spark_jars():
    """Jars of $SPARK_HOME, or else of the first Spark on PATH that has them."""
    homes = [os.environ.get("SPARK_HOME")] + [
        os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in filter(None, homes):
        jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
        if jars:
            return jars
    raise SystemExit("build: no Spark jars; set SPARK_HOME")


def sources():
    """Program and benchmark sources, or exit when the program is absent."""
    missing = [d for d in PROGRAM_DIRS + [BENCH_DIR] if not os.path.isdir(d)]
    if missing:
        raise SystemExit(f"build: missing source directories {missing}")
    found = []
    for d in PROGRAM_DIRS + [BENCH_DIR]:
        found += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    found = sorted(f for f in found if f not in EXCLUDED)
    if not any(f.startswith("src/") for f in found):
        raise SystemExit("build: no program sources")
    return found


def source_sha(files):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile when the sources changed; return (classpath, source sha)."""
    files = sources()
    jars = spark_jars()
    sha = source_sha(files)
    classpath = os.pathsep.join([os.path.abspath(CLASSES)] + jars)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == sha:
        return classpath, sha
    os.makedirs(CLASSES, exist_ok=True)
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", CLASSES,
           "-classpath", os.pathsep.join(jars)] + files
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"build: scalac failed with code {proc.returncode}")
    with open(STAMP, "w") as fh:
        fh.write(sha + "\n")
    return classpath, sha
