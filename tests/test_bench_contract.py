"""The benchmark's contract with the package.

Each workload in ``perfbench/workload.py`` drives swapqkd through names
it imports and checks its outputs, and its traced pass requires exact
call counts per layer. A unit run here, untraced and then traced, and the
workload's memory probe (its long session, 10,000 rounds where it has
one), fail when a workload's call no longer exists, its outputs no longer
check, or a traced call moved.
"""

import sys
from pathlib import Path

import pytest

import swapqkd
from swapqkd import analysis, cli, protocol, rng, transcript  # noqa: F401  (as workload.main)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402
import workload  # noqa: E402


def traced_totals(t: tracer.Tracer, keys) -> dict[str, int]:
    """Calls per key, counting every span named the key or below it."""
    calls, _, _ = t.summary("protocol.run_round")
    return {
        key: sum(n for name, n in calls.items() if name == key or name.startswith(key + "."))
        for key in keys
    }


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_workload_unit_checks_and_traced_counts(name, tmp_path):
    w = workload.WORKLOADS[name](swapqkd, 1, tmp_path)
    w.warm_up()
    w.prepare()
    checks = workload.Checks()
    workload.run_units(w, 1, checks)
    checks.add(w.memory_probe())
    assert checks.attempted > 0
    assert checks.failed == []

    t = tracer.Tracer()
    t.install(swapqkd)
    try:
        workload.run_units(w, 1, checks)
    finally:
        t.uninstall()
    assert checks.failed == []
    want = w.expected_counts(1)
    assert traced_totals(t, want) == want
