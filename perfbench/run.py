"""ringspace benchmark: seeded CLI jobs, cold-start set-up, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload divisor-ladder --seed 0 --seconds 45 --trace 0

One client runs the seeded jobs in a closed loop, in this process, through
the CLI's click entry point (so through ``ringspace.cli.run``), each
document going to a file under ``perfbench/out/``.  ``--seconds`` sets how
many rounds of jobs a run holds (see ``jobs.ROUND_SECONDS``).  Outcomes are checked against the
correctness gate in ``jobs.py`` after the loop ends.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run also
writes a result file (with the run environment and every job's outcome) and,
with ``--trace 1``, the span trace, both under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before numpy loads: at two threads the
# thread count flips some geometries' outcomes and widens run-to-run spread.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import jobs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "results.schema.json"
OUT = ROOT / "perfbench" / "out"
COLD_STARTS = 7
IMPORT_PROBES = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_start_seconds(validator) -> list[float]:
    """Wall time of fresh interpreters that import ringspace.cli and run one
    trivial ``hmeasure``, as the ``ringspace`` console script does."""
    samples = []
    doc = OUT / f"setup-{os.getpid()}.json"
    for _ in range(COLD_STARTS):
        argv = [sys.executable, "-c",
                "import sys; from ringspace.cli import main; sys.exit(main())",
                *jobs.SETUP_JOB, "--out", str(doc)]
        start = perf_counter()
        proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True,
                              timeout=60)
        samples.append(perf_counter() - start)
        text = doc.read_text() if doc.exists() else None
        doc.unlink(missing_ok=True)
        outcome = jobs.classify(jobs.SETUP_JOB[0], proc.returncode, None, text, validator)
        if outcome != "ok":
            raise RuntimeError(f"set-up job failed ({outcome}): {proc.stderr.decode()[-500:]}")
    return samples


def import_breakdown() -> dict[str, float]:
    """Median of ``python -X importtime -c "import ringspace.cli"`` cumulative times."""
    keys = {"ringspace_cli_s": [], "scipy_linalg_s": [], "scipy_sparse_s": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ringspace.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        found = {"ringspace_cli_s": 0.0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1]) * 1e-6
            except ValueError:
                continue     # the header line
            name = parts[2][1:]
            if name.startswith("ringspace"):   # top level: ringspace, ringspace.cli
                found["ringspace_cli_s"] += cumulative
            elif name.strip() == "scipy.linalg":
                found.setdefault("scipy_linalg_s", cumulative)
            elif name.strip() == "scipy.sparse":
                found.setdefault("scipy_sparse_s", cumulative)
        for key in keys:
            keys[key].append(found.get(key, 0.0))
    return {f"setup.import.{k}": statistics.median(v) for k, v in keys.items()}


def run_subcommand(argv, cli) -> dict:
    """One CLI call; the time covers the call and reading its document back."""
    doc = OUT / f"doc-{os.getpid()}.json"
    code, raw = 0, None
    start = perf_counter()
    try:
        cli.main.main(args=[*argv, "--out", str(doc)], prog_name="ringspace",
                      standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:   # a raw exception is a measured failure, not a crash
        raw = type(exc).__name__
    text = doc.read_text() if doc.exists() else None
    seconds = perf_counter() - start
    doc.unlink(missing_ok=True)
    return {"command": argv[0], "seconds": seconds, "code": code, "raw": raw, "text": text}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_job(job, cli) -> dict:
    start = perf_counter()
    runs = [run_subcommand(argv, cli) for argv in job]
    return {"seconds": perf_counter() - start, "runs": runs, "peak_rss_mb": peak_rss_mb()}


def timed_loop(job_list, cli, tracer=None):
    """Closed loop, one client: each job starts when the previous one ends."""
    records = []
    start = perf_counter()
    for i, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = i
        records.append(run_job(job, cli))
    return records, perf_counter() - start


def runs_of(records) -> list[dict]:
    return [run for rec in records for run in rec["runs"]]


def grade(records, validator) -> None:
    for run in runs_of(records):
        run["outcome"] = jobs.classify(run["command"], run["code"], run["raw"], run["text"],
                                       validator)


def same_outcomes(a, b) -> bool:
    """Same gate outcome and byte-identical primary results, run by run."""
    return all(x["outcome"] == y["outcome"]
               and jobs.primary_results(x["text"]) == jobs.primary_results(y["text"])
               for x, y in zip(runs_of(a), runs_of(b), strict=True))


def passed_jobs(records) -> float:
    """Jobs passed, a job of n subcommands counting 1/n for each one that passes."""
    return sum(sum(run["outcome"] == "ok" for run in rec["runs"]) / len(rec["runs"])
               for rec in records)


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(np.show_config), "scipy_blas": blas(scipy.show_config),
            "thread_pin": THREAD_PIN}


def summarize(records) -> dict:
    classes: dict[str, int] = {}
    for run in runs_of(records):
        if run["outcome"] != "ok":
            classes[run["outcome"]] = classes.get(run["outcome"], 0) + 1
    return classes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ringspace" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"no ringspace sources under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jsonschema
    from ringspace import cli
    if args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(jobs.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    # With --trace 1 the jobs run twice, untraced then traced: half as many.
    stream = jobs.job_list(args.workload, args.seed, args.seconds / (1 + args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    if args.trace == 0:
        setup = cold_start_seconds(validator)
        warm = run_job(stream[0], cli)              # warm-up, replayed as job 0 below
        records, wall = timed_loop(stream, cli)
        grade(records + [warm], validator)
        correct = same_outcomes([warm], records[:1])
        runs = runs_of(records)
        passes = sum(run["outcome"] == "ok" for run in runs)
        # Latency of every job whose subcommands all exited 0, so that a fix
        # turning an invariant miss into a pass cannot read as a latency
        # regression; goodput and success_rate count the passes.
        done = [rec["seconds"] for rec in records
                if all(run["raw"] is None and run["code"] == 0 for run in rec["runs"])]
        if not passes or not done:
            print(f"{passes} of {len(runs)} subcommands passed and {len(done)} jobs exited 0: "
                  "goodput or job_p50_s is undefined", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "goodput_jobs_per_s": (passed_jobs(records) / wall, "jobs/s"),
            "job_p50_s": (statistics.median(done), "s"),
            "success_rate": (passes / len(runs), "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        report.update(setup_samples_s=setup, loop_wall_s=wall)
        print(f"{args.workload}: {len(records)} jobs in {wall:.2f} s; {passes} of {len(runs)} "
              f"subcommands passed; job_p50_s over {len(done)} jobs that exited 0; "
              f"failures {summarize(records)}")
    else:
        from tracer import Tracer
        imports = import_breakdown()
        run_job(stream[0], cli)                     # warm-up
        plain, plain_wall = timed_loop(stream, cli)
        tracer = Tracer()
        tracer.install()
        try:
            records, wall = timed_loop(stream, cli, tracer=tracer)
        finally:
            tracer.uninstall()
        grade(plain + records, validator)
        correct = same_outcomes(plain, records)
        runs = runs_of(records)
        untraced, traced = passed_jobs(plain) / plain_wall, passed_jobs(records) / wall
        codes = [run["code"] for run in runs if run["raw"] is None]
        layers = tracer.layer_metrics()
        layers.update({
            "cli.exit.0": codes.count(0), "cli.exit.3": codes.count(3),
            "cli.exit.4": codes.count(4),
            "cli.raw_exceptions": sum(run["raw"] is not None for run in runs),
            "gate.invariant_misses": sum(run["outcome"].startswith("invariant:")
                                         for run in runs),
            "trace.spans": len(tracer.spans),
            "trace.goodput_untraced_jobs_per_s": untraced,
            "trace.goodput_traced_jobs_per_s": traced,
            "trace.overhead": 1.0 - traced / untraced if untraced else 0.0,
            **imports,
        })
        units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in units}
        spans_path = OUT / f"{tag}-spans.jsonl"
        tracer.write(spans_path)
        report.update(untraced_wall_s=plain_wall, traced_wall_s=wall, spans=str(spans_path))
        print(f"{args.workload} traced: {len(records)} jobs; goodput {untraced:.4f} jobs/s "
              f"untraced vs {traced:.4f} jobs/s traced "
              f"(overhead {layers['trace.overhead']:.1%}); spans in {spans_path}")

    failed = sum(run["outcome"] != "ok" for run in runs)
    report.update(
        correct=correct,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted=len(runs), failed=failed, failure_classes=summarize(records),
        jobs=[{"id": i, "seconds": rec["seconds"], "peak_rss_mb": rec["peak_rss_mb"],
               "runs": [{"argv": argv, "seconds": run["seconds"], "code": run["code"],
                         "raw": run["raw"], "outcome": run["outcome"]}
                        for argv, run in zip(stream[i], rec["runs"])]}
              for i, rec in enumerate(records)])
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
