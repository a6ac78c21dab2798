#!/usr/bin/env python3
"""The repository benchmark: serve-hit, serve-miss and sweep-10k.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-hit --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The script builds the coalescing CLI and the benchmark's load generator
(perfbench/bench) from source with dune into .bench_build/, prints the
host facts, runs one workload through the load generator and checks its
result line against BENCHMARK.json.  The last line of standard output
is the JSON result: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics; --trace 1 is the separate
traced run that reports the per-layer metrics and writes its spans to
.bench_build/run/trace-<workload>-<seed>.jsonl.

--selftest runs every workload end to end at toy size, checks that
every named metric appears with its unit and that the traced run
writes spans for every layer, and checks that one deliberately
corrupted answer is counted as failed.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
RUN_DIR = os.path.join(".bench_build", "run")
PROFILE = "release"
BENCH_EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench", "perfbench.exe")
CLI_EXE = os.path.join(BUILD_DIR, "default", "bin", "coalesce_cli.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Spans the traced run must write, per workload (the layers of the
# benchmark's per-layer table).
TRACE_SPANS = {
    "serve-hit": {
        "client.round_trip", "instance_io.of_binary", "instance_io.canonical_hash",
        "profile.analyze", "strategies.run_cfg", "strategies.render",
        "certify.certify_solution", "flat.of_graph",
        "greedy_k.flat_is_greedy_k_colorable",
    },
    "serve-miss": {
        "client.round_trip", "instance_io.of_binary", "instance_io.canonical_hash",
        "profile.analyze", "strategies.run_cfg", "strategies.render",
        "certify.certify_solution", "flat.of_graph",
        "greedy_k.flat_is_greedy_k_colorable",
    },
    "sweep-10k": {
        "sweep.instance_problems", "profile.analyze", "pool.run",
        "strategies.evaluate_cfg", "portfolio.race", "flat.of_graph",
        "greedy_k.flat_is_greedy_k_colorable",
    },
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "bench")):
        if not os.path.exists(need):
            fail("no %s here: run from the root of a repository checkout" % need, 2)
    os.makedirs(RUN_DIR, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(".bench_build", "cache"))
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", PROFILE, "./perfbench/bench/perfbench.exe",
           "./bin/coalesce_cli.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 2)
    if r.returncode != 0:
        fail("build failed (dune exit %d)" % r.returncode, 2)


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def commit():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        c = command_output(["git", "rev-parse", "HEAD"])
        if c:
            return c
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def host_facts(loadavg):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]),
        "dune_profile": PROFILE,
        "commit": commit(),
        "loadavg_at_start": loadavg,
    }


def run_bench(workload, seed, seconds, trace, extra=()):
    """Runs the load generator; returns (exit code, stdout lines)."""
    cmd = [BENCH_EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--coalesce", CLI_EXE, "--workdir", RUN_DIR,
           "--clk-tck", str(os.sysconf("SC_CLK_TCK"))] + list(extra)
    # A process group of its own, so a timeout takes the servers it
    # started with it.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail("%s seed %d timed out after %d s" % (workload, seed, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out.splitlines()


def check_result(line, wanted):
    """Parses the result line and checks it names exactly [wanted]
    (metric -> unit) with finite values."""
    try:
        res = json.loads(line)
    except ValueError:
        return None, "result line is not JSON: %r" % line[:200]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are %s" % sorted(res)
    got = res["metrics"]
    if set(got) != set(wanted):
        return None, "metrics missing %s, unexpected %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)))
    for name, unit in wanted.items():
        v = got[name]
        if v.get("unit") != unit:
            return None, "%s has unit %r, not %r" % (name, v.get("unit"), unit)
        if not isinstance(v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            return None, "%s has no finite value" % name
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int)):
        return None, "attempted/failed are not counts"
    return res, None


def wanted_metrics(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)), 2)
    loadavg = open("/proc/loadavg").read().split()[:3]
    build()
    print("host " + json.dumps(host_facts(loadavg), sort_keys=True), flush=True)
    code, lines = run_bench(args.workload, args.seed, args.seconds, args.trace)
    if not lines:
        fail("the load generator printed nothing (exit %d)" % code)
    for l in lines[:-1]:
        print(l)
    res, err = check_result(lines[-1], wanted_metrics(spec, args.trace))
    if err:
        fail(err)
    print(json.dumps(res), flush=True)
    sys.exit(0 if code == 0 and res["correct"] else 1)


def selftest():
    spec = load_spec()
    build()
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_bench(w, 7, 2, trace, ["--scale", "toy"])
            res, err = check_result(lines[-1] if lines else "",
                                    wanted_metrics(spec, trace))
            if err or code != 0 or not res["correct"] or res["failed"] != 0:
                problems.append("%s trace %d: %s" % (w, trace, err or "\n".join(lines[-30:])))
                continue
            if trace:
                seen = set()
                with open(os.path.join(RUN_DIR, "trace-%s-7.jsonl" % w)) as f:
                    for l in f:
                        seen.add(json.loads(l)["name"])
                if not TRACE_SPANS[w] <= seen:
                    problems.append("%s: no spans for %s" % (w, sorted(TRACE_SPANS[w] - seen)))
            print("selftest %s trace %d: every metric present with its unit" % (w, trace),
                  flush=True)
        code, lines = run_bench(w, 7, 2, 0, ["--scale", "toy", "--corrupt", "3"])
        res, err = check_result(lines[-1] if lines else "", wanted_metrics(spec, 0))
        if err or res["failed"] != 1 or res["correct"] or code == 0:
            problems.append("%s: a corrupted answer was not counted as failed (%s)"
                            % (w, err or "failed=%s" % (res and res["failed"])))
        else:
            print("selftest %s: the corrupted answer is counted in failed" % w, flush=True)
    for p in problems:
        print("selftest FAILED " + p)
    print("selftest " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        fail("--workload is required", 2)
    measure(args)


if __name__ == "__main__":
    main()
