"""Compares alternating `perf run`s of a parent and a change commit.

Usage: python3 bench_pairs.py BENCHMARK.json < RUNS, where each line of
RUNS is `SIDE WORKLOAD RESULT`: SIDE is `base` or `head`, RESULT the
last line `perf run` printed (empty if none), in the order the pairs
ran. For each workload and end-to-end metric this prints each side's
median, the parent's quartiles and perf/README.md's verdict:
`unresolved` when the parent's IQR over its median is wider than the
metric's bound, `regressed` when the change's median is worse than the
parent's by more than the bound, `within bound` otherwise. Exits 1 on a
change run that is not correct, a larger failed share, or a regression.
"""

import json
import statistics
import sys
from collections import defaultdict


def parse(result):
    try:
        return json.loads(result)
    except ValueError:
        return {}


def failed_share(docs):
    attempted = sum(doc.get("attempted", 0) for doc in docs)
    return sum(doc.get("failed", 0) for doc in docs) / attempted if attempted else 1.0


def main():
    with open(sys.argv[1]) as spec:
        bench = json.load(spec)
    runs = defaultdict(list)
    for line in sys.stdin:
        fields = line.split(maxsplit=2)
        if len(fields) >= 2:
            runs[fields[0], fields[1]].append(parse(fields[2]) if len(fields) == 3 else {})
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        base, head = runs["base", workload], runs["head", workload]
        wrong = sum(doc.get("correct") is not True for doc in head)
        if wrong or not head:
            failures.append(f"{workload}: {wrong} of {len(head)} change runs not correct")
        shares = failed_share(base), failed_share(head)
        print(f"{workload}: {len(base)} parent and {len(head)} change runs, "
              f"failed share {shares[0]:.4f} -> {shares[1]:.4f}")
        if shares[1] > shares[0]:
            failures.append(f"{workload}: failed share {shares[0]:.4f} -> {shares[1]:.4f}")
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            b, h = ([doc["metrics"][name]["value"] for doc in docs if name in doc.get("metrics", {})]
                    for docs in (base, head))
            if len(b) < 2 or len(h) < 2:
                print(f"  {name:<18} too few runs ({len(b)} parent, {len(h)} change)")
                if len(h) < 2:
                    failures.append(f"{workload} {name}: too few change runs")
                continue
            q1, mid, q3 = statistics.quantiles(b, n=4)
            before, after = statistics.median(b), statistics.median(h)
            change = (after - before) / (abs(before) or 1.0)
            worse = change if lower else -change
            spread = (q3 - q1) / abs(mid) if mid else float("inf")
            ahead = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
            if spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                failures.append(f"{workload} {name}: change median {after:.6g} is {worse:.1%} "
                                f"worse than the parent's {before:.6g} (bound {bound:.0%})")
            else:
                verdict = "within bound"
            print(f"  {name:<18} parent {before:.6g} [{q1:.6g}-{q3:.6g}, IQR {spread:.1%}]"
                  f"  change {after:.6g} ({change:+.1%}, ahead {ahead}/{min(len(b), len(h))})"
                  f"  bound {bound:.0%}: {verdict}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
