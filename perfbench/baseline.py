"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Runs ``run.py`` on every workload in ``BENCHMARK.json`` for its
``run_seconds``: untraced once per seed 1..10, and traced once with seed
1. For each end-to-end metric it records the median, the quartiles and
the spread (interquartile distance over the median, the figure the
bounds are checked against), and the same for the plain rate and the
median reference time printed beside ``items_per_ref``. The traced run
gives the exact counts and each layer's self-time share of the traced
wall time. The file also holds the layer map below and the Python and
numpy versions, the CPU count and the git commit measured.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1

LAYER_MAP = [
    {"layer": "bell",
     "metrics": ["bell.bsm.{calls,swaps,readouts,self_s}", "bell.apply_pauli.{calls,self_s}"],
     "moves": "items_per_s", "on": ["session_eve", "audit_honest", "montecarlo"],
     "still": ["verify_oracle"]},
    {"layer": "knowledge", "metrics": ["knowledge.{calls,self_s}"],
     "moves": "items_per_s", "on": ["session_eve", "audit_honest", "montecarlo"],
     "still": ["verify_oracle"]},
    {"layer": "rng",
     "metrics": ["rng.round_stream.{calls,self_s}", "rng.session_seeds.self_s",
                 "rng.streams_per_draw"],
     "moves": "items_per_s", "on": ["session_eve", "audit_honest", "montecarlo"],
     "still": ["verify_oracle"]},
    {"layer": "protocol",
     "metrics": ["protocol.run_round.{calls,self_s,p50_us,p99_us}",
                 "protocol.reset_round.{calls,self_s}", "protocol.session_init.{calls,self_s}"],
     "moves": "items_per_s", "on": ["session_eve", "audit_honest", "montecarlo"],
     "still": ["verify_oracle"],
     "note": "session_init matters only on montecarlo"},
    {"layer": "adversary", "metrics": ["adversary.{calls,self_s}"],
     "moves": "items_per_s", "on": ["session_eve", "montecarlo"],
     "still": ["audit_honest", "verify_oracle"],
     "note": "exactly 0 calls on audit_honest"},
    {"layer": "analysis",
     "metrics": ["analysis.eavesdropping_test.{calls,self_s}", "analysis.parallel_efficiency"],
     "moves": "items_per_s", "on": ["montecarlo"],
     "still": ["session_eve", "audit_honest", "verify_oracle"],
     "note": "montecarlo is timed with one worker; parallel_efficiency alone covers the pool"},
    {"layer": "transcript", "metrics": ["transcript.emit_lines.{self_s,bytes_per_round}"],
     "moves": "items_per_s, peak_rss_mb", "on": ["session_eve", "audit_honest"],
     "still": ["montecarlo", "verify_oracle"]},
    {"layer": "transcript", "metrics": ["transcript.parse_lines.{calls,self_s}"],
     "moves": "items_per_s", "on": ["audit_honest"],
     "still": ["session_eve", "montecarlo", "verify_oracle"]},
    {"layer": "cli", "metrics": ["cli.main.self_s"],
     "moves": "items_per_s", "on": ["session_eve", "montecarlo"], "still": [],
     "note": "argument parsing and output writing"},
    {"layer": "oracle",
     "metrics": ["oracle.{prepare,oracle_bsm,oracle_apply_pauli,bell_label_of}.{calls,self_s}"],
     "moves": "items_per_s", "on": ["verify_oracle"],
     "still": ["session_eve", "audit_honest", "montecarlo"]},
    {"layer": "verify", "metrics": ["verify.run_all.self_s"],
     "moves": "items_per_s", "on": ["verify_oracle"],
     "still": ["session_eve", "audit_honest", "montecarlo"]},
    {"layer": "runtime", "metrics": ["runtime.{gc_s,gc_collections}"],
     "moves": "spread of items_per_s", "on": ["session_eve", "audit_honest"], "still": [],
     "note": "the whole transcript stays live"},
    {"layer": "trace", "metrics": ["trace.overhead_share"],
     "moves": "nothing: traced wall time over untraced, per workload", "on": [], "still": []},
]
"""Which end-to-end metric each layer metric should move, on which workloads."""


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: (its JSON result, the name-value pairs of its report)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{proc.stdout}")
    printed = {}
    for line in report:
        name, value, *_ = line.split() + ["", ""]
        try:
            printed[name] = float(value)
        except ValueError:
            pass
    return result, printed


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def environment() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "platform": platform.platform(), "git_sha": sha}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(name, seed, seconds, 0) for seed in SEEDS]
        end_to_end = {
            m["name"]: dict(describe([r["metrics"][m["name"]]["value"] for r, _ in runs]),
                            unit=m["unit"], bound=m["bound"])
            for m in spec["end_to_end"]
        }
        plain = {k: describe([p[k] for _, p in runs])
                 for k in runs[0][1] if k.endswith("_per_s") or k == "reference_s"}
        traced = bench(name, TRACE_SEED, seconds, 1)[0]["metrics"]
        workloads[name] = {
            "why": w["why"],
            "end_to_end": end_to_end,
            "plain": plain,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
        for metric, d in {**end_to_end, **plain}.items():
            print(f"{name:<14} {metric:<14} median {d['median']:.6g} spread {d['spread']}")

    out = {
        "environment": environment(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "layer_map": LAYER_MAP,
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
