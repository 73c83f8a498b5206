"""One benchmark process: import cvbattery, set up, run a workload's commands.

    python3 worker.py CONFIG.json RESULT.json

CONFIG names the source tree, the first-call set-up command, the workload's
commands, output directory, measuring time and whether to trace.  The
commands run in this process through ``cvbattery.cli.main``, one after
another (a closed loop with one client).  Outputs are checked after each
pass over the workload, outside the timed region.  RESULT receives the
timings, counts, check results and digests.
"""

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def run_command(main, argv):
    """Exit code of one CLI command, with its stdout discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)
    except SystemExit as exc:  # argparse errors; exit(None) is success
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def blas_threads():
    """{BLAS library file: thread count} for every OpenBLAS loaded."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(dll, sym):
                get = getattr(dll, sym)
                get.argtypes, get.restype = [], ctypes.c_int
                out[Path(lib).name] = get()
                break
    return out


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(cfg):
    """Import the CLI and make the first call; returns (cli module, seconds)."""
    t0 = time.perf_counter()
    from cvbattery import cli

    src = Path(cfg["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the source tree {src}")
    rc = run_command(cli.main, cfg["warmup"])
    if rc != 0:
        raise SystemExit(f"first-call set-up exited with {rc}")
    return cli, time.perf_counter() - t0


def measure(cfg, cli, setup_s):
    import checks
    from tracer import Tracer

    tracer = Tracer() if cfg["trace"] else None
    passes = []  # {"traced", "command_walls"} of each pass over the workload
    traced_commands = []  # command ids of each traced pass
    attempted = failed = 0
    problems, digests, bytes_written = [], None, []
    first_texts, digests_stable = {}, True

    def walls(traced):
        return [sum(p["command_walls"]) for p in passes if p["traced"] == traced]

    start = time.perf_counter()
    while True:
        # in a traced run, untraced and traced passes alternate
        traced = tracer is not None and len(walls(True)) < len(walls(False))
        if traced:
            tracer.install()
            traced_commands.append([])
        exit_codes, command_walls = [], []
        for argv in cfg["commands"]:
            if traced:
                tracer.command = attempted + len(exit_codes)
                traced_commands[-1].append(tracer.command)
            t0 = time.perf_counter()
            exit_codes.append(run_command(cli.main, argv))
            command_walls.append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "command_walls": command_walls})

        pass_digests, size = {}, 0
        for argv, rc in zip(cfg["commands"], exit_codes):
            attempted += 1
            found = [f"{argv[:2]} exited with {rc}"] if rc != 0 else []
            if rc == 0:
                more, dig = checks.check_command(
                    cfg["workload"], cfg["scenarios"], cfg["outdir"], argv,
                    cfg["reference"])
                found += more
                pass_digests.update(dig)
                size += sum((Path(cfg["outdir"]) / f).stat().st_size for f in dig)
            failed += bool(found)
            problems += found
        # scipy's expm_multiply draws from numpy's global RNG for its norm
        # estimates, so the last digits may change from pass to pass; the
        # values must still agree within the reference tolerance.
        for rel in pass_digests:
            text = (Path(cfg["outdir"]) / rel).read_text()
            first = first_texts.setdefault(rel, text)
            problems += [f"{rel} differs from the first pass: {p}"
                         for p in checks.compare_text(text, first)]
        digests_stable &= digests in (None, pass_digests)
        digests = pass_digests
        bytes_written.append(size)

        # start another pass only if it should end within the measuring time
        predicted = time.perf_counter() - start + statistics.median(walls(False) + walls(True))
        if predicted > cfg["seconds"] and (tracer is None or walls(True)):
            break

    result = {
        "setup_s": setup_s,
        "walls": walls(False),
        "traced_walls": walls(True),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:50],
        "digests": digests,
        "digests_stable": digests_stable,
        "passes": passes,
    }
    if tracer is not None:
        per_pass = [tracer.layer_metrics(cmds) for cmds in traced_commands]
        # median_low: an observed value, so counts stay whole numbers
        layer = {k: statistics.median_low(p[k] for p in per_pass) for k in per_pass[0]}
        layer["cli.bytes_written"] = statistics.median(bytes_written)
        layer["cli.fail_frac"] = failed / attempted
        layer["trace_overhead_frac"] = (
            statistics.median(walls(True)) / statistics.median(walls(False)) - 1.0)
        result["layer"] = layer
        tracer.save(cfg["spans"])
    return result


def main(config_path, result_path):
    cfg = json.loads(Path(config_path).read_text())
    sys.path.insert(0, str(Path(cfg["src"]).resolve()))
    cli, setup_s = set_up(cfg)
    result = measure(cfg, cli, setup_s)
    result["environment"] = environment()
    Path(result_path).write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main(*sys.argv[1:])
