"""Prove perfbench's correctness check can fail and its counts repeat.

    python3 perfbench/selfcheck.py [--workloads read_zipf,write_fanout,mixed_tcp]

1. ``read_zipf --inject tamper``: a single-edge router over an edge
   whose replica holds a tampered value must make the run report failed
   ops and exit non-zero (no failover can hide the REJECT).
2. ``read_zipf --inject short_model``: a model missing one row must do
   the same (a sound but over-complete answer is still a failure).
3. Per workload, two untraced and two traced runs with the same seed
   must report every metric ``BENCHMARK.json`` lists, with identical
   exact counts.
4. ``BENCHMARK.json`` must list exactly the workloads and metrics the
   code defines.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from report import END_TO_END, PER_LAYER
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Counts that depend on timing: how many ``recv`` calls a reply takes
#: depends on how the kernel coalesces arrivals, which shifts under load.
TIMING_DEPENDENT = {"reactor.recv_per_op"}
#: Metrics that are exact counts of bytes or operations.
EXACT = {
    name
    for name, unit, *_rest in (*END_TO_END, *PER_LAYER)
    if unit in ("B", "B/row", "count") and name not in TIMING_DEPENDENT
}


def run(workload: str, *extra: str) -> tuple[int, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, result


def spec_matches() -> bool:
    """``BENCHMARK.json`` names the code's workloads and metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(w.name, w.why) for w in WORKLOADS.values()]
        and [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        == list(END_TO_END)
        and [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [(name, unit, better) for name, unit, better, _moves in PER_LAYER]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="read_zipf,write_fanout,mixed_tcp")
    args = parser.parse_args(argv)
    ok = spec_matches()
    print(f"BENCHMARK.json matches the code: {ok}")
    for inject in ("tamper", "short_model"):
        rc, result = run("read_zipf", "--inject", inject)
        caught = rc != 0 and result.get("failed", 0) > 0
        print(f"inject {inject}: rc={rc} failed={result.get('failed')} "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    for workload in args.workloads.split(","):
        for trace, listed in (("0", END_TO_END), ("1", PER_LAYER)):
            first = run(workload, "--trace", trace)
            second = run(workload, "--trace", trace)
            for rc, result in (first, second):
                ok &= rc == 0
                ok &= set(result.get("metrics", ())) == {m[0] for m in listed}
            a, b = (
                {k: v["value"] for k, v in r.get("metrics", {}).items() if k in EXACT}
                for _rc, r in (first, second)
            )
            differ = sorted(k for k in a if a[k] != b.get(k))
            print(f"{workload} trace={trace}: rc={first[0]},{second[0]} "
                  f"{len(a)} exact counts, differing: {differ or 'none'}")
            ok &= bool(a) and not differ
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
