"""spcnet benchmark: end-to-end metrics per workload, per-layer metrics from a
traced run.

    python3 perfbench/run.py --workload train_1l --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from the root of a checkout.  Each workload runs in a fresh process
(``perfbench/workload.py``) with the BLAS/OpenMP pools pinned to one thread
and ``SPCNET_THREADS`` removed, so ``peak_rss_mb`` belongs to that workload.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and traced, prints the per-layer metrics of the
traced run, records the tracing overhead, and requires both runs to produce
byte-identical loss traces and eval CSVs.  The last line of standard output
is the result object; the line before it holds the details (samples, tail
percentile, environment, quality numbers, checks).

``--workload all`` runs every workload and prints a table of all metrics,
including the workload-specific names (step_s_* on train_*, infer_ms_* on
infer_2k) and the error rate.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_1l", "train_4l_asym", "infer_2k")
DEADLINE_S = 175.0  # the whole invocation, both processes of a traced run included
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPCNET_THREADS", None)  # the threaded eval leaks grad mode
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    tmp = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}-{int(trace)}"
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--tmp", str(tmp),
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: ran past the {DEADLINE_S:.0f} s deadline") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: workload process printed nothing")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """(details, result) for one workload; ``result`` is the contract object."""
    plain = run_child(workload, seed, seconds, False, deadline)
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "env": plain["env"],
        "tail": plain["tail"],
        "samples": plain["samples"],
        "quality": plain["quality"],
        "errors": plain["errors"],
        "end_to_end": plain["metrics"],
    }
    correct = plain["failed"] == 0
    attempted, failed = plain["attempted"], plain["failed"]
    metrics = plain["metrics"]
    if trace:
        traced = run_child(workload, seed, seconds, True, deadline)
        identical = traced["outputs"] == plain["outputs"] and bool(plain["outputs"])
        details.update(
            traced_errors=traced["errors"],
            outputs_identical=identical,
            self_check=traced["self_check"],
            bindings=traced["bindings"],
            overhead={
                m: traced["metrics"][m]["value"] - plain["metrics"][m]["value"]
                for m in ("setup_s", "op_s_p50", "eval_s")
            },
            traced_end_to_end=traced["metrics"],
        )
        correct = correct and traced["failed"] == 0 and identical and not traced["self_check"]
        attempted += traced["attempted"]
        failed += traced["failed"] + (0 if identical else 1)
        metrics = traced["layers"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def print_table(rows) -> None:
    """Every metric by name with its unit, the issue-facing aliases included."""
    for details, result in rows:
        w = details["workload"]
        m = {k: v["value"] for k, v in details["end_to_end"].items()}
        named = [("setup_s", m["setup_s"], "s")]
        if w.startswith("train"):
            named += [("step_s_p50", m["op_s_p50"], "s"), ("step_s_tail", m["op_s_tail"], "s"),
                      ("loss_final", details["quality"].get("loss_final"), "")]
        else:
            named += [("infer_ms_p50", 1000 * m["op_s_p50"], "ms"),
                      ("infer_ms_tail", 1000 * m["op_s_tail"], "ms")]
        named += [
            ("eval_s", m["eval_s"], "s"),
            ("eval_cd_x1000", details["quality"].get("eval_cd_x1000"), ""),
            ("peak_rss_mb", m["peak_rss_mb"], "MB"),
            ("error_rate", result["failed"] / result["attempted"], ""),
        ]
        tail = details["tail"]
        print(f"{w}  (seed {details['seed']}, correct={result['correct']}, tail = "
              f"p{tail['percentile']:g} of {tail['samples']} samples, {tail['beyond']} beyond)")
        for name, value, unit in named:
            print(f"  {name:<16} {value:>14.6g} {unit}")
        if "self_check" in details:
            print(f"  traced: outputs identical={details['outputs_identical']}, "
                  f"self-check failures={details['self_check']}")
            for name, v in result["metrics"].items():
                print(f"    {name:<30} {v['value']:>14.6g} {v['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spcnet" / "__init__.py").is_file():
        print(f"error: no spcnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            rows = []
            for w in WORKLOADS:
                rows.append(run_workload(w, args.seed, args.seconds, bool(args.trace),
                                         time.monotonic() + DEADLINE_S))
            print_table(rows)
            return 0 if all(r["correct"] for _, r in rows) else 1
        details, result = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), time.monotonic() + DEADLINE_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
