#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go build cache, the binary and the traced run's span files all go
under .bench_build/ in the checkout. The last line of standard output is
the benchmark's JSON result; the exit code is non-zero if the build fails
or any output was wrong.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Each step must end well inside the run's 180 s limit (900 s for the
# first build in a fresh checkout).
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    """The toolchain's environment: every cache and scratch directory it
    writes (build cache, temp files, module cache, and the per-user config
    dir holding the toolchain's telemetry) lives under .bench_build/."""
    env = dict(os.environ)
    env.update({
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def call(cmd, cwd, timeout, env=None, stderr=None):
    """Runs cmd in its own process group and returns (exit code, stdout).
    On timeout the whole group is killed and reaped, so no child of the
    benchmark outlives it."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: %s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out.decode(errors="replace")


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at the checkout root; the dlsm sources are missing")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    code, out = call(["go", "build", "-o", BINARY, "."], HERE, BUILD_TIMEOUT_S,
                     env=go_env(), stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out)
        sys.exit("perfbench: build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace:
        # One span file per workload, overwritten by its next traced run.
        cmd += ["-trace-out", os.path.join(BUILD, "traces", args.workload + ".json")]
    code, out = call(cmd, ROOT, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    # The program's report goes through; its JSON line stays last.
    sys.stdout.write(out)
    sys.stdout.flush()
    # The reported metrics must be exactly the ones BENCHMARK.json declares;
    # this is checked before the program's own exit code is passed on, so
    # both failures are reported.
    problems = []
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (ValueError, KeyError, TypeError):
        got = None
    if got is None:
        problems.append("perfbench: the last output line is not a result")
    else:
        want = declared_metrics(args.trace)
        if got != want:
            problems.append("perfbench: reported metrics differ from BENCHMARK.json: missing %s, undeclared %s"
                            % (sorted(want - got), sorted(got - want)))
    if code != 0:
        problems.append("perfbench: the benchmark exited with code %d" % code)
    if problems:
        sys.stderr.write("\n".join(problems) + "\n")
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
