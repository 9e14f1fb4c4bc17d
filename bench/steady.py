"""Steadiness check: run workloads repeatedly and summarise the spread.

    python3 bench/steady.py --workload rank-scale equiv-suite --runs 10 --first-seed 101

Each run is a separate ``bench/run.py`` process with its own seed; runs
go one after another, cycling through the named workloads for each seed
so that every workload sees the same stretches of host speed.  For every
end-to-end metric the tool prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread -- the distance
between the quartiles as a share of the median -- next to the metric's
bound in ``BENCHMARK.json``.  With ``--trace 1`` it prints the per-layer
medians instead, and whether each count or byte size was the same in
every run.  Raw results, with each run's last line of standard error (raw
pass seconds and the median probe time), go to ``bench/out/steady-<workload>-t<trace>-s<first
seed>.json``.  The exit code is 1 when a run failed its checks, failed
shares differ, a spread is wider than a third of its bound, or a count
varies.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run {cmd} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    result["stderr_tail"] = done.stderr.strip().splitlines()[-1:]  # raw pass and probe median
    return result


def summarise(workload: str, results: list[dict], metrics: list[dict], trace: int) -> bool:
    shares = {r["failed"] / r["attempted"] for r in results}
    ok = all(r["correct"] for r in results) and len(shares) == 1
    print(f"== {workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        if any(v is None for v in values):
            print(f"{m['name']:44s} missing in {values.count(None)} runs")
            continue
        q1, med, q3 = quartiles(values)
        if trace:
            exact = m["unit"] in ("count", "bytes")
            note = ("repeats" if len(set(values)) == 1 else "VARIES") if exact else ""
            ok &= note != "VARIES"
            print(f"{m['name']:44s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  {note}")
            continue
        s = spread(values)
        note = "ok" if m["name"] == "setup_s" or s <= m["bound"] / 3 else "WIDE"
        ok &= note == "ok"
        print(f"{m['name']:16s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {s:.4f}  bound {m['bound']}  {note}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, nargs="+",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results: dict[str, list[dict]] = {w: [] for w in args.workload}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in args.workload:
            res = run_once(w, seed, args.seconds, args.trace)
            results[w].append(res)
            shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()
                     if not args.trace}
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {shown}", flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ok = True
    for w, res in results.items():
        (out / f"steady-{w}-t{args.trace}-s{args.first_seed}.json").write_text(
            json.dumps(res, indent=1) + "\n")
        ok &= summarise(w, res, spec["per_layer" if args.trace else "end_to_end"], args.trace)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
