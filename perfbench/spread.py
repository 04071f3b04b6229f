"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads infer_2k --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --trace-seed 1 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per workload and seed, exactly as the
benchmark contract does, and reports per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  Compare each spread with the
metric's bound in BENCHMARK.json.  ``--trace-seed`` adds one traced run per
workload for the per-layer numbers and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORKLOADS  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace-seed", type=int, help="also run one traced run with this seed")
    parser.add_argument("--out", help="write the summary (and the interaction table) here")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    def run_bench(workload, seed, trace):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
        )
        return [json.loads(x) for x in proc.stdout.strip().splitlines()[-2:]]

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            details, result = run_bench(workload, seed, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {details['errors']}", file=sys.stderr)
                return 1
            runs.append((details, result))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for _, r in runs]) for name in bounds
        }
        quality = {
            name: summarize([d["quality"][name] for d, _ in runs])
            for name in runs[0][0]["quality"]
        }
        summary[workload] = {"metrics": metrics, "quality": quality, "env": runs[0][0]["env"]}
        if args.trace_seed is not None:
            details, result = run_bench(workload, args.trace_seed, 1)
            summary[workload]["traced"] = {
                "seed": args.trace_seed,
                "correct": result["correct"],
                "outputs_identical": details["outputs_identical"],
                "self_check": details["self_check"],
                "overhead": details["overhead"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
            print(f"  traced seed {args.trace_seed}: correct={result['correct']}, "
                  f"overhead {details['overhead']}")
        for name, s in metrics.items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"  {name:<12} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}  {flag}")
    if args.out:
        table = [
            {"metric": name, "unit": unit, "moves": moves, "on": list(on)}
            for name, unit, _, _, moves, on in LAYER_METRICS
        ]
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "seeds": args.seeds, "workloads": summary,
             "interactions": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
