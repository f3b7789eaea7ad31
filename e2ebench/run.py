#!/usr/bin/env python3
"""End-to-end benchmark of the dedicated-core I/O path: one workload, one seed.

Usage (from the root of a source checkout):

    python3 e2ebench/run.py --workload cm1_overlap --seed 1 --seconds 30 --trace 0

Builds e2ebench/ (which builds the dedicore libraries from the checkout) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), runs one
e2e_bench process per episode of about four seconds with its scratch files
inside that directory, turns the episodes' raw facts into the metrics that
BENCHMARK.json declares for this mode (refusing a run whose computed set
differs), and prints as the last line of stdout

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the run record (host, build, source and workload);
a traced run prints the per-layer ledger as a table too.
Exit status is 0 only for a correct run.  See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Whole-run limit after the build; a run must end within 180 s.
RUN_TIMEOUT_S = 170
# Target episode length; a run of S seconds is round(S / 4) episodes.
EPISODE_S = 4.0
# Initialize-only worlds per untraced episode, for setup_s.
SETUP_PROBES = 8


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build(out_dir):
    """Configures (once) and builds e2e_bench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no dedicore source tree next to e2ebench/")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out_dir, "--target", "e2e_bench",
                    "-j", "3"], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "e2e_bench")


def fs_type(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mnt = fields[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """Git commit when the checkout is a repository, and always a digest
    of the sources the benchmark builds (the checkout may not be one)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "e2ebench", "CMakeLists.txt", "cmake"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(base) for f in files)
        for p in paths:
            digest.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                digest.update(fh.read())
    return commit, digest.hexdigest()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, to record how much time the host
    took from this machine during the run."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def percentile(values, q):
    """Linear interpolation between closest ranks (as dedicore's SampleSet)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def tail(values, q, what):
    """The q-quantile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (1 - q) < 10:
        log(f"e2ebench: {len(values)} {what} samples, too few for a p{q * 100:g}")
        return None
    return percentile(values, q)


def median(values):
    return statistics.median(values) if values else 0.0


def mb_s(ep):
    return ep["raw_bytes"] / 1e6 / ep["persist_s"]


def end_to_end(eps, attempted, failed):
    """End-to-end metrics over the untraced episodes; None if a tail lacks
    samples."""
    write = [x for e in eps for x in e["write_us"]]
    end_it = [x for e in eps for x in e["end_iteration_us"]]
    setup = [x for e in eps for x in e["setup_s"]]
    print(f"samples: write={len(write)} end_iteration={len(end_it)} "
          f"episodes={len(eps)} setup={len(setup)}")
    write_p99 = tail(write, 0.99, "write")
    end_p90 = tail(end_it, 0.90, "end_iteration")
    if write_p99 is None or end_p90 is None:
        return None
    return {
        "write_p50_us": percentile(write, 0.5),
        "write_p99_us": write_p99,
        "end_iteration_p50_us": percentile(end_it, 0.5),
        "end_iteration_p90_us": end_p90,
        "client_io_frac": sum(e["io_s"] for e in eps) / sum(e["wall_s"] for e in eps),
        "persist_mb_s": median([mb_s(e) for e in eps]),
        "stored_per_raw": sum(e["image_bytes"] for e in eps) / sum(e["raw_bytes"] for e in eps),
        "peak_rss_mb": median([e["peak_rss_mb"] for e in eps]),
        "setup_s": median(setup),
        "ops_ok_frac": 1.0 - failed / attempted,
    }


MAX_LAYERS = ("shm.segment_peak_bytes", "write_behind.max_pending_bytes")
MEDIAN_LAYERS = ("server.pipeline_p50_ms", "server.pipeline_p99_ms")


def per_layer(eps):
    """The per-layer ledger of the traced episodes, plus tracing overhead
    against the untraced ones."""
    traced = [e for e in eps if e["traced"]]
    plain = [e for e in eps if not e["traced"]]
    m = {}
    for name in traced[0]["layers"]:
        values = [e["layers"][name] for e in traced]
        m[name] = (max(values) if name in MAX_LAYERS else
                   median(values) if name in MEDIAN_LAYERS else sum(values))
    busy, idle = m["server.busy_s"], m.pop("server.idle_s")
    m["server.idle_frac"] = idle / (idle + busy) if idle + busy else 0.0
    wire = m["transport.wire_messages"]
    m["transport.events_per_wire_message"] = (
        m["transport.events_sent"] / wire if wire else 0.0)
    spans = [x for e in traced for x in e["store_run_s"]]
    m["store.run_s"] = sum(spans)
    m["store.run_p50_ms"] = percentile(spans, 0.5) * 1e3 if spans else 0.0
    m["store.run_p99_ms"] = percentile(spans, 0.99) * 1e3 if spans else 0.0
    m["store.self_s"] = (m["store.run_s"] - m["emit.compress_s"] - m["emit.probe_s"]
                         - m["write_behind.enqueue_block_s"])
    m["ledger.coverage"] = (
        (m["store.run_s"] + m["write_behind.drain_s"]) / busy if busy else 0.0)
    m["trace.persist_mb_s_overhead"] = (
        1.0 - median([mb_s(e) for e in traced]) / median([mb_s(e) for e in plain]))
    m["trace.write_p50_us_overhead"] = (
        percentile([x for e in traced for x in e["write_us"]], 0.5)
        / percentile([x for e in plain for x in e["write_us"]], 0.5) - 1.0)
    return m


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        log(f"e2ebench: cannot read BENCHMARK.json: {err}")
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (selftest.py): flip one persisted byte in the first
    # episode / stall the server, with a short stall deadline.
    ap.add_argument("--corrupt-one", action="store_true")
    ap.add_argument("--stall", action="store_true")
    ap.add_argument("--grace", type=float, default=30.0)
    args = ap.parse_args()
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # episode, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        log(f"e2ebench: cannot set up: {err}")
        return 2
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    started = time.monotonic()
    steal_before, total_before = cpu_ticks()

    # One process per episode; a traced run alternates untraced and traced
    # episodes so both halves see the same conditions.
    count = max(1, int(args.seconds / EPISODE_S + 0.5))
    if args.trace:
        count = max(2, count + count % 2)
    window = args.seconds / count
    scratch = os.path.join(out_dir, "scratch", f"run-{os.getpid()}")
    eps, attempted, failed, record, stalled = [], 0, 0, None, False
    try:
        for index in range(count):
            traced = bool(args.trace and index % 2)
            cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(window), "--trace", str(int(traced)),
                   "--scratch", scratch, "--grace", str(args.grace),
                   "--setup-probes", "0" if args.trace else str(SETUP_PROBES)]
            if args.corrupt_one and index == 0:
                cmd.append("--corrupt-one")
            if args.stall:
                cmd.append("--stall")
            budget = RUN_TIMEOUT_S - (time.monotonic() - started)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(budget, 1), cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.rstrip("\n").split("\n")
            for line in lines[:-1]:
                print(line)
            ep = json.loads(lines[-1])
            record = ep.pop("record")
            attempted += ep["attempted"]
            failed += ep["failed"]
            if ep.get("stall"):
                stalled = True
                break
            eps.append(ep)
            print(f"episode {index}{' (traced)' if traced else ''}: "
                  f"persist={ep['persist_s']:.3f}s raw={ep['raw_bytes'] / 1e6:.1f}MB "
                  f"({mb_s(ep):.1f} MB/s) rss={ep['peak_rss_mb']:.1f}MB "
                  f"ops={ep['attempted']} failed={ep['failed']}", flush=True)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    except (ValueError, IndexError, KeyError) as err:
        log(f"e2ebench: e2e_bench exited {proc.returncode} without a result: {err}")
        return proc.returncode or 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    commit, source_digest = source_identity()
    steal_after, total_after = cpu_ticks()
    record.update({
        "cpu_steal_frac": ((steal_after - steal_before) / (total_after - total_before)
                           if total_after > total_before else None),
        "seconds": args.seconds,
        "episodes": count,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "scratch_fs": fs_type(os.path.dirname(scratch)),
        "git_commit": commit,
        "source_sha256": source_digest,
    })
    print("run_record: " + json.dumps(record, sort_keys=True))

    values = None
    if not stalled:
        values = per_layer(eps) if args.trace else end_to_end(
            [e for e in eps if not e["traced"]], attempted, failed)
    metrics = {}
    if values is not None:
        if set(values) != set(declared):
            log("e2ebench: computed metrics differ from BENCHMARK.json: "
                f"missing={sorted(set(declared) - set(values))} "
                f"extra={sorted(set(values) - set(declared))}")
            values = None
        else:
            metrics = {n: {"value": values[n], "unit": u} for n, u in declared.items()}
    if args.trace and metrics:
        print("per-layer ledger (traced episodes):")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:18.6f} {m['unit']}")
    correct = not stalled and failed == 0 and values is not None
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    if stalled:
        return 3
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
