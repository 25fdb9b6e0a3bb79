"""Run one benchmark workload, or all of them.

One workload, as the regression gate runs it (from the repository root)::

    python3 perfbench/run.py --workload cold-read --seed 1 --seconds 24 --trace 0

prints human-readable ``#`` lines, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer ones
(tracing alternates on and off in one-second chunks, so the same run also
gives ``obs.trace_overhead_pct``).

Everything, untraced and traced, with a table of every metric::

    python3 perfbench/run.py --all [--seed 1] [--seconds 24] [--output FILE]

``--smoke`` shrinks every input to a tiny size (see test_perfbench.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {
    "cold-read": "cold_read",
    "durable-mix": "durable_mix",
    "http-keepalive": "http_keepalive",
}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args) -> int:
    import common

    spec = _spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    module = importlib.import_module(WORKLOADS[args.workload])
    started = time.perf_counter()
    result = module.run(args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    if args.trace:
        # Layers a workload does not exercise report 0, which is the
        # prediction for them; a layer it claims must have been measured.
        missing = [name for name in module.LAYERS if name not in result.metrics]
        if missing:
            raise KeyError(f"{args.workload} did not measure {missing}")
        for name in names:
            result.metrics.setdefault(name, 0.0)
    payload = common.emit(result, units, names)
    info = dict(result.info)
    info["run_s"] = time.perf_counter() - started
    fingerprint = common.fingerprint(args.workload, args.seed, common.WORK, info)
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for name in sorted(result.metrics):
        unit = units.get(name, "")
        print(f"# {args.workload} {name} = {result.metrics[name]:.6g} {unit}")
    print(json.dumps(payload, sort_keys=True))
    return 0


def run_all(args) -> int:
    results = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=900
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                print(f"{workload} trace={trace}: exit {done.returncode}")
                status = 1
                continue
            payload = json.loads(lines[-1])
            fingerprint = next(
                json.loads(line[len("# fingerprint "):])
                for line in lines
                if line.startswith("# fingerprint ")
            )
            results.append(
                {"workload": workload, "trace": trace,
                 "fingerprint": fingerprint, **payload}
            )
            print(
                f"\n{workload} (trace={trace}): correct={payload['correct']} "
                f"attempted={payload['attempted']} failed={payload['failed']}"
            )
            # A traced run reports every per-layer metric, 0 for the layers
            # this workload does not exercise; the table shows its own.
            shown = importlib.import_module(WORKLOADS[workload]).LAYERS if trace else None
            for name, metric in payload["metrics"].items():
                if shown is None or name in shown:
                    print(f"  {name:38s} {metric['value']:14.6g} {metric['unit']}")
            if not payload["correct"]:
                status = 1
    output = Path(args.output) if args.output else ROOT / ".perfbench" / "results.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {output}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no source tree at {ROOT / 'src'}; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
