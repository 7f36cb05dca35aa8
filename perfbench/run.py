"""The swapqkd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; swapqkd is imported from its
``src``. Workloads and metrics are declared in ``BENCHMARK.json``, which
also gives every metric its unit.

``--trace 0`` measures the end-to-end metrics. Set-up is timed inside a
fresh workload process, from ``import swapqkd`` (numpy is already
imported) to the end of its warm-up unit, over several processes, and
reported as the median. A final process then runs
the workload's unit for ``--seconds`` seconds. Its throughput is the
median over units, printed as is; the gated ``items_per_ref`` is the
median over units of items done in the time a fixed reference pass,
run just before the unit, takes on the same machine (see
``workload.measure``).

``--trace 1`` reports the per-layer metrics from a separate traced run of
a fixed amount of work (see ``workload.py``), so its counts repeat exactly
for a given seed.

Every unit's outputs are checked. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` (checks) and ``metrics``.
Generated files live in a temporary directory under the checkout, removed
on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
TIMEOUT_S = 170.0
"""Every workload process of one run is killed once this much time has passed."""


class BenchError(Exception):
    pass


def start(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one workload process: (its set-up seconds, its result)."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    ) as proc:
        timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline().split()
            rest = proc.stdout.read().splitlines()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise BenchError(f"workload process {argv} exited with code {proc.returncode}")
    return float(ready[1]), (json.loads(rest[-1]) if rest else {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swapqkd" / "__init__.py").is_file():
        print(f"error: no swapqkd source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED="0")
    env.pop("SWAPQKD_OUTDIR", None)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]
    deadline = time.perf_counter() + TIMEOUT_S
    try:
        if args.trace:
            _, result = start(base + ["--trace"], env, deadline)
            declared = spec["per_layer"]
        else:
            setups = [start(base + ["--setup-only"], env, deadline)[0]
                      for _ in range(SETUP_PROBES)]
            setup, result = start(base + ["--seconds", str(args.seconds)], env, deadline)
            setups.append(setup)
            declared = spec["end_to_end"]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    values = result["values"]
    if not args.trace:
        values.update(
            setup_s=statistics.median(setups),
            passed_share=(attempted - len(failed)) / attempted if attempted else 0.0,
        )
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"error: measured metrics {sorted(set(values) ^ names)} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for label in sorted(set(failed)):
        print(f"FAILED CHECK {label} ({failed.count(label)}x)")
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}, {result['units']} units")
    if not args.trace:
        item = result["item"]
        print(f"  {item + 's_per_s':<40} {result['items_per_s']:.6g} {item}s/s "
              f"({result['items_per_unit']:g} {item}s per unit, median over units)")
        print(f"  {'reference_s':<40} {result['reference_s']:.6g} s "
              "(median reference pass; items_per_ref is the median over units of "
              f"{item}s done per reference pass run before the unit)")
        print(f"  {'failed_share':<40} {len(failed) / attempted if attempted else 1.0:.6g} "
              f"({len(failed)} of {attempted} checks failed)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": attempted > 0 and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
