"""cvbattery benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (no install or build is needed):

    python3 perfbench/run.py --workload traj-nonlinear --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload sweep-nonlinear --seed 7 --seconds 55 --trace 1
    python3 perfbench/run.py --seed 0 --trace 0     # every workload in turn
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --write-reference

The workload's commands run through ``cvbattery.cli.main`` in a fresh
worker process, one after another (a closed loop with one client), passing
over the workload again while the next pass should end within ``--seconds``.
With ``--trace 0`` the measuring time is shared out among several fresh
worker processes run one after another, and it prints the end-to-end metrics
named in BENCHMARK.json: the median wall time of one pass (``wall_s``), the
median set-up time of the workers (``setup_s``: import ``cvbattery.cli`` plus
a first tiny call) and their median peak resident memory.  With ``--trace 1``
untraced and traced passes alternate in one worker and it prints the
per-layer metrics: self times and call counts of the public functions,
patched in from ``tracer.py``.

Every command's outputs are checked (``checks.py``); a command fails when it
exits non-zero or its outputs fail a check.  Outputs, scenario files, the
full result record (environment, digests, problems) and the spans go to
``.perfbench_work/<workload>/`` under the checkout.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WARMUP_SCENARIO, WORKLOADS, commands, scenario_text, scenarios_for,
)

# Fresh worker processes per untraced run.  Each times its own set-up, and
# the median pass then does not hang on the speed of one process.
WORKERS = 6
TIME_LIMIT = 170.0  # seconds for the whole run, below the 180 s contract


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failing command)."""


def child_env():
    """Environment of the worker processes: BLAS capped at nproc threads."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def run_worker(cfg, workdir, tag, deadline):
    cfg_path, result_path = workdir / f"{tag}.config.json", workdir / f"{tag}.result.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(cfg_path), str(result_path)],
            env=child_env(), stdout=subprocess.DEVNULL,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker did not finish within the time limit")
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{tag} worker exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def measure(root, name, seed, seconds, trace, tiny=False, reference=None, workers=WORKERS):
    """Run one workload in ``workers`` fresh processes one after another
    (one when tracing), sharing out ``seconds``; returns the merged result."""
    deadline = time.monotonic() + TIME_LIMIT
    src = root / "src"
    if not (src / "cvbattery" / "cli.py").is_file():
        raise BenchError(f"no cvbattery source tree at {src}")
    workload = WORKLOADS[name]
    workdir = root / ".perfbench_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    scenarios = scenarios_for(workload, seed, tiny)
    for sc_name, sc in scenarios.items():
        (workdir / f"{sc_name}.txt").write_text(scenario_text(sc))
    (workdir / "warmup.txt").write_text(scenario_text(WARMUP_SCENARIO))
    if reference is None:
        reference = "all" if seed == DEFAULT_SEED and not tiny else "seedless"
    cfg = dict(
        src=str(src),
        warmup=["run", str(workdir / "warmup.txt"), "--out", str(workdir / "warmup.csv")],
        workload=name,
        scenarios=scenarios,
        commands=commands(workload, scenarios, str(workdir), str(workdir / "out")),
        outdir=str(workdir / "out"),
        trace=bool(trace),
        reference=reference,
        spans=str(workdir / "spans.npz"),
    )
    n = 1 if trace else workers
    start = time.monotonic()
    results = []
    for i in range(n):
        budget = max(start + seconds * (i + 1) / n - time.monotonic(), 0.0)
        results.append(run_worker(dict(cfg, seconds=budget), workdir, f"worker{i}", deadline))
    result = merge(results)
    result.update(workload=name, seed=seed, seconds=seconds, trace=bool(trace), tiny=tiny)
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def merge(results):
    """One result from the workers' results, in the order they ran."""
    first = results[0]
    merged = {
        "setup_samples": [r["setup_s"] for r in results],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "digests": results[-1]["digests"],
        "digests_stable": all(r["digests_stable"] and r["digests"] == first["digests"]
                              for r in results),
        "environment": first["environment"],
    }
    for key in ("walls", "traced_walls", "problems", "passes"):
        merged[key] = [x for r in results for x in r[key]]
    if "layer" in first:
        merged["layer"] = first["layer"]
    return merged


def metric_values(result, specs):
    """{name: {"value", "unit"}} for the BENCHMARK.json metric specs."""
    if "layer" in result:
        values = result["layer"]
    else:
        values = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(result["setup_samples"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def report(result, metrics):
    env = result["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']} threads {env['blas_threads']}, nproc {env['nproc']}")
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{len(result['walls'])} untraced and {len(result['traced_walls'])} traced passes, "
          f"{result['attempted']} commands, {result['failed']} failed")
    print(f"  fail_frac = {result['failed'] / result['attempted']:.6g} (share of commands)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print("  output digests " + ("identical in every pass" if result["digests_stable"]
                                 else "changed between passes (values within tolerance)"))
    for rel, digest in sorted((result["digests"] or {}).items()):
        print(f"  sha256 {digest}  {rel}")


def self_check(root, bench):
    """Tiny runs of every workload, traced and untraced: every named metric
    appears, and the checks reject outputs with one altered value."""
    failures = []
    for name in WORKLOADS:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = measure(root, name, DEFAULT_SEED, 0, trace, tiny=True, workers=2)
            if result["failed"] or result["problems"]:
                failures.append(f"{name} trace {trace}: {result['problems']}")
            try:
                metric_values(result, specs)
            except BenchError as exc:
                failures.append(f"{name} trace {trace}: {exc}")
        failures += rejection_checks(root, name)
    for f in failures:
        print(f"FAIL {f}")
    print("self-check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def _alter(text, change, column=None):
    """``text`` with one value of the middle data row of its first block
    replaced by ``change(old)``: the one in ``column``, or the last one."""
    lines = text.splitlines(keepends=True)
    head = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    end = next((i for i in range(head + 1, len(lines)) if not lines[i].strip()), len(lines))
    i = (head + 1 + end) // 2
    toks = lines[i].rstrip("\n").split(",")
    if column is None:
        j = max(k for k, tok in enumerate(toks) if tok)
    else:
        j = lines[head].rstrip("\n").split(",").index(column)
    toks[j] = repr(change(float(toks[j])))
    lines[i] = ",".join(toks) + "\n"
    return "".join(lines)


def rejection_checks(root, name):
    workload = WORKLOADS[name]
    workdir = root / ".perfbench_work" / name
    outdir = workdir / "out"
    scenarios = scenarios_for(workload, DEFAULT_SEED, tiny=True)
    scenario = scenarios["run"]
    argvs = commands(workload, scenarios, str(workdir), str(outdir))
    failures = []

    def nudge(v):  # well beyond the reference tolerance
        return v * (1 + 1e-6) + 1e-6

    def expect_rejected(what, problems):
        if not problems:
            failures.append(f"{name}: {what} was not rejected")

    # the reference comparison, on every output file
    for argv in argvs:
        for rel in checks.output_files(outdir, argv):
            text = (outdir / rel).read_text()
            altered = _alter(text, nudge)
            if checks.compare_text(text, text):
                failures.append(f"{name}: {rel} differs from itself")
            expect_rejected(f"{rel} with one altered value", checks.compare_text(altered, text))

    # the invariants, on the run CSV
    run_csv = (outdir / "run.csv").read_text()
    if "sweep_param" in scenario:
        cases = [("ergotropy_ss", lambda v: 2 * v + 1.0)]
    elif scenario["coupling"] == "linear":
        cases = [("energy_fock", lambda v: v * 1.01 + 1e-3), ("det_fock", lambda v: 0.5)]
    else:
        cases = [("det_cumulant", lambda v: 0.5), ("ergotropy_fock", lambda v: -1.0)]
    for column, change in cases:
        expect_rejected(f"run.csv with {column} altered",
                        checks.check_run_csv(_alter(run_csv, change, column), scenario))

    # the whole command check, on the first file of each seed-independent output
    for argv in argvs[1:]:
        rel = checks.output_files(outdir, argv)[0]
        path = outdir / rel
        text = path.read_text()
        path.write_text(_alter(text, nudge))
        expect_rejected(f"{rel} altered on disk",
                        checks.check_command(name, scenarios, outdir, argv, "seedless")[0])
        path.write_text(text)
    return failures


def write_reference(root):
    """Regenerate the reference files from the default seed at full size."""
    for name in WORKLOADS:
        result = measure(root, name, DEFAULT_SEED, 0, 0, reference="none", workers=1)
        if result["failed"] or result["problems"]:
            raise BenchError(f"{name}: {result['problems']}")
        target = checks.REFERENCE_DIR / name
        shutil.rmtree(target, ignore_errors=True)
        for rel in result["digests"]:
            dest = checks.reference_path(name, rel)
            dest.parent.mkdir(parents=True, exist_ok=True)
            data = (root / ".perfbench_work" / name / "out" / rel).read_bytes()
            dest.write_bytes(gzip.compress(data, mtime=0))
            print(f"wrote {dest.relative_to(root)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
        if args.self_check:
            return self_check(root, bench)
        if args.write_reference:
            return write_reference(root)
        for name in [args.workload] if args.workload else list(WORKLOADS):
            result = measure(root, name, args.seed, args.seconds, args.trace)
            metrics = metric_values(result, bench["per_layer" if args.trace else "end_to_end"])
            report(result, metrics)
            print(json.dumps({
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }))
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
