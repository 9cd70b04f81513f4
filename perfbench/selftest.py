"""Quick self-test of the benchmark's output contract.

    python3 perfbench/selftest.py

Checks ``BENCHMARK.json`` against the limits the benchmark format sets, then
runs every workload for one second, untraced and traced (two processes,
about a minute in all), and checks that the metric names and units each run
emits are exactly those listed in ``BENCHMARK.json``. Exits 0 when all
checks pass and 1 otherwise, naming each mismatch.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec_problems(spec: dict) -> list:
    problems = []
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]):
            problems.append(f"bad unit {m['unit']!r} of {m['name']}")
        if m["better"] not in ("higher", "lower"):
            problems.append(f"bad direction of {m['name']}")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) missing")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    if not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds outside 1..60")
    return problems


def emitted_problems(spec: dict, trace: int) -> list:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"trace {trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"trace {trace}: result keys {sorted(result)}")
    for w in spec["workloads"]:
        prefix = w["name"] + "."
        got = {k[len(prefix):]: v["unit"] for k, v in result["metrics"].items()
               if k.startswith(prefix)}
        for name in sorted(set(want) - set(got)):
            problems.append(f"trace {trace} {w['name']}: {name} not emitted")
        for name in sorted(set(got) - set(want)):
            problems.append(f"trace {trace} {w['name']}: {name} not listed")
        for name in sorted(set(got) & set(want)):
            if got[name] != want[name]:
                problems.append(f"trace {trace} {w['name']}: {name} unit "
                                f"{got[name]!r} != {want[name]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = spec_problems(spec)
    for trace in (0, 1):
        problems += emitted_problems(spec, trace)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
