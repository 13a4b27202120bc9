"""Compare benchmark result files.

    python3 bench/compare.py --base OLD1.json OLD2.json ... [--new NEW1.json ...]

Each file is a ``bench/out/result-*.json`` written by ``bench/run.py``.  For
every workload and metric, the per-file values of one side are reduced to
their median and their spread, the distance between the first and third
quartiles as a share of the median.  With ``--new``, the new median is
compared with the base median against the metric's bound in
BENCHMARK.json: a change worse than the bound is a regression, and a
change no larger than the base spread is unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def collect(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, record in document["workloads"].items():
            for metric, entry in record["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="*", default=[])
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    base = collect(args.base)
    new = collect(args.new)
    print(f"{'workload':20s} {'metric':32s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for (workload, metric), values in sorted(base.items()):
        spec = specs.get(metric, {})
        bound = spec.get("bound")
        base_median = statistics.median(values)
        line = (f"{workload:20s} {metric:32s} {base_median:12.6g} "
                f"{spread(values):7.1%}")
        if (workload, metric) in new:
            new_median = statistics.median(new[(workload, metric)])
            change = new_median / base_median - 1 if base_median else 0.0
            worse = change if spec.get("better") == "lower" else -change
            if bound is None:
                verdict = "-"
            elif worse > bound:
                verdict = "REGRESSION"
            elif abs(change) <= spread(values):
                verdict = "unresolved"
            else:
                verdict = "better" if worse < 0 else "within bound"
            line += f" {new_median:12.6g} {change:+8.1%} {bound or 0:6.2f}  {verdict}"
        elif bound is not None:
            verdict = "steady" if spread(values) < bound / 3 else "NOISY"
            line += f" {'':12s} {'':8s} {bound:6.2f}  {verdict}"
        print(line)


if __name__ == "__main__":
    main()
