#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/repeat.py --workloads time_scan,phase_space,cli_batch \
        --seeds 1-10 --trace 0 --out perfbench/results/seed-baseline.json

For every workload and metric it reports the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: (Q3 - Q1) / median,
the figure the benchmark's bounds are compared against.  Runs are sequential;
each is one ``perfbench/run.py`` process.  With --out, the summary is merged
into that JSON file under the key "trace0" or "trace1".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # the middle cut is the median
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def layer_summary(runs: list[dict]) -> dict:
    """Median per-round layer table and each module's share of the traced time.

    "job" is time inside a job that no layer span covers (unattributed).  For
    cli_batch, "cli.startup" is the untraced process floor times the number of
    invocations, since the traced run calls boxrevive.cli.run in-process.
    """
    tables = [r["detail"]["layer_table"] for r in runs]
    layers = sorted({name for t in tables for name in t})
    table = {
        name: {key: statistics.median(t.get(name, {}).get(key, 0) for t in tables)
               for key in ("calls", "self_s")}
        for name in layers
    }
    startup = statistics.median(r["result"]["metrics"]["cli.startup_s"]["value"] for r in runs)
    if startup:
        table["cli.startup"] = {"calls": runs[0]["detail"]["jobs_per_round"],
                                "self_s": startup * runs[0]["detail"]["jobs_per_round"]}
    total = sum(v["self_s"] for v in table.values())
    modules = {}
    for name, v in table.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + v["self_s"] / total
    return {"layer_table": table,
            "layer_share": {n: v["self_s"] / total for n, v in table.items()},
            "module_share": modules}


def tracing_overhead(data: dict) -> dict:
    """Traced minus untraced median wall_s per workload, both unscaled.

    The traced cli_batch run has no process floor (it calls the CLI
    in-process), so its untraced start-up time is added back first.
    """
    out = {}
    for workload in sorted(set(data.get("trace0", {})) & set(data.get("trace1", {}))):
        traced = data["trace1"][workload]
        startup = traced["layer_table"].get("cli.startup", {}).get("self_s", 0.0)
        out[workload] = (traced["metrics"]["trace.wall_s"]["median"] + startup
                         - data["trace0"][workload]["unscaled"]["wall_s"]["median"])
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                      if not k.startswith(("cli.exit", "wigner.", "fields."))),
                  flush=True)
            runs.append(run)
        names = list(runs[0]["result"]["metrics"])
        summary[workload] = {
            "seeds": seed_list(args.seeds),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "error_rate": sum(r["result"]["failed"] for r in runs)
            / sum(r["result"]["attempted"] for r in runs),
            "metrics": {
                name: {"unit": runs[0]["result"]["metrics"][name]["unit"],
                       **summarize([r["result"]["metrics"][name]["value"] for r in runs])}
                for name in names
            },
            "detail": {
                key: summarize([r["detail"][key] for r in runs])
                for key in runs[0]["detail"]
                if key.endswith(("_ms", "_per_s")) or key == "rounds"
            },
            "unscaled": {
                key: summarize([r["detail"]["unscaled"][key] for r in runs])
                for key in runs[0]["detail"].get("unscaled", {})
            },
            "environment": [r["detail"]["environment"] for r in runs],
        }
        if args.trace:
            summary[workload].update(layer_summary(runs))
        for name, m in summary[workload]["metrics"].items():
            print(f"  {name:40s} median {m['median']:.6g} {m['unit']:6s} spread {m['spread']:.4f}")

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault(f"trace{args.trace}", {}).update(summary)
        data["tracing_overhead_s"] = tracing_overhead(data)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
