#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks.  Run from the checkout root:

    python3 e2ebench/selftest.py

1. One flipped byte in one persisted image is caught, on the single-root
   posix layout (digest mismatch) and on the sharded layout (chunk CRC).
2. A run that cannot finish trips the stall watchdog: it prints the
   snapshot, counts the unfinished operations as failed and exits non-zero.
3. A traced run of each workload prints every per-layer metric that
   BENCHMARK.json declares (run.py enforces the exact set), and the
   counters only cm1_nodes_xorlzs exercises are zero on cm1_overlap.

Takes about a minute; exits non-zero on the first failed expectation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, proc.stdout, json.loads(lines[-1])


def expect(cond, what, detail=""):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        print(detail)
        sys.exit(1)


def main():
    for workload in ("cm1_overlap", "cm1_nodes_xorlzs"):
        rc, out, res = run("--workload", workload, "--seed", "5",
                           "--seconds", "2", "--trace", "1", "--corrupt-one")
        expect(rc != 0 and not res["correct"] and res["failed"] == 1,
               f"{workload}: one flipped byte fails exactly one image", out)

    rc, out, res = run("--workload", "cm1_nodes_xorlzs", "--seed", "5",
                       "--seconds", "1", "--trace", "0", "--stall",
                       "--grace", "3")
    snapshot = ("STALL", "segment: used=", "write_behind: pending_bytes=",
                "last_closed_iteration=")
    expect(rc == 3 and not res["correct"] and res["failed"] > 0
           and all(s in out for s in snapshot),
           "stalled run: snapshot printed, failures counted, exit 3", out)

    # Counters only the dedicated-node workload moves (wire transport,
    # codec, sharded storage); on cm1_overlap they must read zero.
    nodes_only = ("emit.compress_s", "emit.raw_bytes", "emit.stored_bytes",
                  "transport.wire_messages", "transport.bytes_shipped",
                  "sharded.chunks_written", "sharded.manifests_published")
    for workload in ("cm1_overlap", "cm1_nodes_xorlzs"):
        rc, out, res = run("--workload", workload, "--seed", "5",
                           "--seconds", "2", "--trace", "1")
        expect(rc == 0 and res["correct"] and res["failed"] == 0,
               f"{workload}: traced run correct with every per-layer metric",
               out)
        owner = workload == "cm1_nodes_xorlzs"
        for name in nodes_only:
            value = res["metrics"][name]["value"]
            expect((value > 0) == owner,
                   f"{workload}: {name}={value:g} "
                   f"({'non-zero' if owner else 'zero'} expected)")


if __name__ == "__main__":
    main()
