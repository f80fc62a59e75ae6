"""TSUBASA benchmark: end-to-end and per-layer metrics on three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload histo|realtime|spark --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call compiles the program and the benchmark (see build.py). Each
run starts one JVM that generates the workload's inputs from the seed,
measures for about S seconds, checks every answer against an independent
two-pass Pearson reference, and prints a run record and then, as the last
line, the result object. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. ``--self-test`` runs
the tests of the benchmark's own checker.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import build  # noqa: E402

JVM_TIMEOUT_S = 170
HEAP = {"histo": "1g", "realtime": "1g", "spark": "3g", "self-test": "1g"}
# Module options the Spark launcher passes to a Java 17 driver.
SPARK_JVM_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions",
                  "--add-modules=jdk.incubator.vector"] + [
    f"--add-opens={m}=ALL-UNNAMED" for m in (
        "java.base/java.lang", "java.base/java.lang.invoke",
        "java.base/java.lang.reflect", "java.base/java.io", "java.base/java.net",
        "java.base/java.nio", "java.base/java.util",
        "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
        "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
        "java.base/sun.security.action", "java.base/sun.util.calendar",
        "java.security.jgss/sun.security.krb5")] + [
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true"]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def expected_metrics(trace):
    """Names and units of the metrics to report, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def complete_metrics(result, record, want, trace):
    """Check the measured metrics against BENCHMARK.json. In a traced run a
    layer the workload does not call is reported as 0 with 0 samples; with
    tracing off every metric must be measured."""
    got = result["metrics"]
    unknown = sorted(set(got) - set(want))
    missing = sorted(set(want) - set(got))
    if unknown or (missing and not trace):
        raise SystemExit(f"metrics differ from BENCHMARK.json: unknown {unknown}, missing {missing}")
    wrong = sorted(k for k, v in got.items() if v["unit"] != want[k])
    if wrong:
        raise SystemExit(f"units differ from BENCHMARK.json: {wrong}")
    bad = [k for k, v in got.items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        raise SystemExit(f"non-finite metric values: {bad}")
    for name in missing:
        record["metrics"][name] = {"value": 0, "unit": want[name], "stat": "not exercised", "samples": 0}
    result["metrics"] = {k: got.get(k, {"value": 0, "unit": u}) for k, u in want.items()}
    record["metrics"] = {k: record["metrics"][k] for k in want}


def run_jvm(main, args, kind, classpath):
    run_dir = os.path.abspath(os.path.join(build.BUILD_DIR, f"run-{os.getpid()}"))
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(run_dir, "spark-local"))
    heap = HEAP[kind]
    # -XX:-UsePerfData: no hsperfdata file in the system temp directory.
    cmd = (["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:+AlwaysPreTouch", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={tmp}",
            "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
            f"-Dspark.sql.warehouse.dir={os.path.join(run_dir, 'warehouse')}",
            f"-Dspark.local.dir={os.path.join(run_dir, 'spark-local')}",
            f"-Dlog4j2.configurationFile={os.path.join(ROOT, 'perfbench', 'log4j2.properties')}"]
           + SPARK_JVM_OPTS + ["-cp", classpath, main, "--dir", run_dir] + args)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"benchmark JVM exceeded {JVM_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["histo", "realtime", "spark"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    os.chdir(ROOT)
    classpath, sha = build.build()

    if a.self_test:
        code, out = run_jvm("perfbench.CheckerTest", [], "self-test", classpath)
        sys.stdout.write(out)
        sys.exit(code)

    want = expected_metrics(a.trace)
    code, out = run_jvm("perfbench.Main",
                        ["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", str(a.trace)],
                        a.workload, classpath)
    lines = out.splitlines()
    tagged = {l.split(" ", 1)[0]: l.split(" ", 1)[1] for l in lines
              if l.startswith(("RECORD ", "RESULT "))}
    for l in lines:
        if not l.startswith(("RECORD ", "RESULT ")):
            print(l, file=sys.stderr)
    if code != 0 or "RESULT" not in tagged:
        raise SystemExit(f"benchmark JVM failed with code {code}")
    record = json.loads(tagged["RECORD"])
    result = json.loads(tagged["RESULT"])
    record.update(git_sha=git_sha(), source_sha256=sha, nproc_os=os.cpu_count())
    complete_metrics(result, record, want, a.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
