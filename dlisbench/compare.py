#!/usr/bin/env python3
"""Summarise and compare dlisbench runs.

Each `*.txt` file in a run directory is the captured stdout of one
`run.py` invocation. Runs are grouped by workload and trace mode.

    compare.py BASE_DIR
        Per workload and metric: the median, the quartiles and the
        spread (distance between the quartiles as a share of the
        median) over the runs, flagging end-to-end spreads above a
        third of the metric's bound in BENCHMARK.json.

    compare.py BASE_DIR CHANGE_DIR
        Also compares medians: an end-to-end metric whose change
        median is worse than the base median by more than its bound
        is a regression.

Results are only comparable on one host: every run of both sets must
carry the same host record (fingerprint, nproc, CPU model, SIMD ISA),
or the comparison is refused.

Exit status: 0 ok, 1 regression or a failed run, 2 refused or unreadable.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def parse_run(path):
    lines = path.read_text().splitlines()
    head = [ln.split() for ln in lines if ln.startswith("workload ")]
    host = [ln[len("host "):] for ln in lines if ln.startswith("host ")]
    if not head or not host or not lines:
        raise ValueError("not a dlisbench report")
    result = json.loads(lines[-1])
    return {"workload": head[0][1], "trace": head[0][-1],
            "host": json.loads(host[0]), "result": result}


def load_set(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.txt")):
        try:
            runs.append(parse_run(path))
        except (ValueError, json.JSONDecodeError, IndexError) as exc:
            print(f"compare: cannot read {path}: {exc}", file=sys.stderr)
            sys.exit(2)
    if not runs:
        print(f"compare: no runs in {directory}", file=sys.stderr)
        sys.exit(2)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def grouped(runs):
    out = {}
    for r in runs:
        key = (r["workload"], r["trace"])
        for name, m in r["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(
                m["value"])
    return out


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load_set(d) for d in argv[1:]]
    hosts = {json.dumps(r["host"], sort_keys=True)
             for runs in sets for r in runs}
    if len(hosts) != 1:
        print("compare: refusing to compare runs from different hosts:",
              file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        return 2
    print(f"host {hosts.pop()}")

    status = 0
    for runs in sets:
        for r in runs:
            res = r["result"]
            if not res["correct"] or res["failed"]:
                print(f"FAILED RUN {r['workload']}: {res['failed']} of "
                      f"{res['attempted']} failed, "
                      f"correct={res['correct']}")
                status = 1

    base = grouped(sets[0])
    change = grouped(sets[1]) if len(sets) == 2 else {}
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        for name, values in base[key].items():
            med, q1, q3, spread = summary(values)
            line = (f"  {name:28s} n={len(values):2d} median={med:.6g} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")
            spec = E2E.get(name) if trace == "0" else None
            if spec and spread > spec["bound"] / 3:
                line += f"  [spread above bound/3 = {spec['bound'] / 3:.3f}]"
            if spec and key in change and name in change[key]:
                cmed = statistics.median(change[key][name])
                worse = (cmed - med) / med if spec["better"] == "lower" \
                    else (med - cmed) / med
                line += f"  change median={cmed:.6g} worse_by={worse:+.3f}"
                if worse > spec["bound"]:
                    line += "  REGRESSION"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
