"""Correctness checks on the CSV files a workload's commands write.

Every seed: the physical invariants (det >= 1 within round-off,
0 <= ergotropy <= energy), the linear Fock energy against the closed form,
the expected row counts, and no empty or non-finite value where a route
applies.  Outputs that do not depend on the seed (all but ``run.csv``), and
every output of the default seed, are also compared value by value with
the reference files kept beside this module.
"""

import gzip
import hashlib
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference comparison: |x - ref| <= REF_RTOL * |ref| + REF_ATOL.  Fock
# outputs change in their last digits from run to run (scipy's expm_multiply
# draws from numpy's global RNG for its norm estimates); the tolerance admits
# that and reordered floating-point arithmetic, not a different result.
REF_RTOL = 1e-8
REF_ATOL = 1e-10
DET_TOL = 1e-9  # det >= 1 - DET_TOL
ERGO_RTOL = 1e-9  # ergotropy within [-tol, energy + tol], tol relative to peak energy
LINEAR_FOCK_RTOL = 1e-6  # |E_fock - E_analytic| relative to peak energy; measured 5e-9


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_files(outdir, argv) -> list:
    """The files one command wrote, relative to the iteration's output dir."""
    outdir = Path(outdir)
    target = Path(argv[argv.index("--out") + 1])
    files = sorted(target.iterdir()) if target.is_dir() else [target]
    return [f.relative_to(outdir).as_posix() for f in files]


def _number(token):
    try:
        return float(token)
    except ValueError:
        return None


def _blocks(text):
    """Non-comment CSV blocks (separated by blank lines) as lists of rows."""
    blocks, rows = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            if rows:
                blocks.append(rows)
            rows = []
            continue
        rows.append(line.split(","))
    if rows:
        blocks.append(rows)
    return blocks


def _columns(block):
    header, rows = block[0], block[1:]
    cols = {}
    for j, name in enumerate(header):
        cols[name] = [_number(r[j]) if r[j] else None for r in rows]
    return cols, len(rows)


def check_run_csv(text, scenario) -> list:
    """Invariants of a ``cvbattery run`` CSV for the given scenario."""
    blocks = _blocks(text)
    if not blocks:
        return ["no CSV rows"]
    if "sweep_param" in scenario:
        return _check_sweep(blocks, scenario)
    problems = []
    cols, n_rows = _columns(blocks[0])
    if n_rows != scenario["n_samples"]:
        problems.append(f"{n_rows} time rows, expected {scenario['n_samples']}")
    peak = {}
    for name in cols:
        if not name.startswith("energy"):
            continue
        suffix = name[len("energy"):]
        energy = cols[name]
        if all(v is None for v in energy):
            continue  # route does not apply; the CSV carries a note
        group = {f: cols.get(f + suffix) for f in ("power", "ergotropy", "var_x", "var_p", "det")}
        missing = [
            f"{f}{suffix}: missing or non-finite value"
            for f, col in (("energy", energy), *group.items())
            # power is empty at t = 0
            if col is None or any(v is None or not math.isfinite(v)
                                  for v in (col[1:] if f == "power" else col))
        ]
        problems += missing
        if missing:
            continue
        peak[suffix] = max(abs(v) for v in energy)
        tol = ERGO_RTOL * peak[suffix]
        for i, (e, erg, det) in enumerate(zip(energy, group["ergotropy"], group["det"])):
            if det < 1.0 - DET_TOL:
                problems.append(f"det{suffix}[{i}] = {det!r} < 1")
            if not -tol <= erg <= e + tol:
                problems.append(f"ergotropy{suffix}[{i}] = {erg!r} outside [0, energy = {e!r}]")
    if scenario["coupling"] == "linear" and {"_analytic", "_fock"} <= peak.keys():
        worst = max(abs(a - f) for a, f in zip(cols["energy_analytic"], cols["energy_fock"]))
        if worst > LINEAR_FOCK_RTOL * peak["_analytic"]:
            problems.append(f"Fock energy off the closed form by {worst:.3e} "
                            f"(peak energy {peak['_analytic']:.3e})")
    return problems[:20]


def _check_sweep(blocks, scenario):
    problems = []
    cols, n_rows = _columns(blocks[0])
    if n_rows != scenario["sweep_points"]:
        problems.append(f"{n_rows} sweep rows, expected {scenario['sweep_points']}")
    for name, col in cols.items():
        if any(v is None or not math.isfinite(v) for v in col):
            problems.append(f"{name}: missing or non-finite value")
    if problems:
        return problems
    for i, (e, erg) in enumerate(zip(cols["energy_ss"], cols["ergotropy_ss"])):
        tol = ERGO_RTOL * abs(e)
        if not -tol <= erg <= e + tol:
            problems.append(f"ergotropy_ss[{i}] = {erg!r} outside [0, energy_ss = {e!r}]")
    return problems


def check_figure_csv(text) -> list:
    """Every data value of a figure bundle file is a number, not NaN.
    (An infinite t_E is a result: below the exceptional point the energy
    only approaches its maximum.)"""
    problems = []
    for block in _blocks(text):
        for i, row in enumerate(block[1:], start=1):
            values = [_number(tok) for tok in row if tok]
            if any(v is None or math.isnan(v) for v in values):
                problems.append(f"row {i}: non-numeric or NaN value")
    return problems[:20]


def compare_text(text, ref) -> list:
    """Line-by-line comparison: numbers within the reference tolerance,
    everything else (comments, headers, empty cells) exactly."""
    lines, ref_lines = text.splitlines(), ref.splitlines()
    if len(lines) != len(ref_lines):
        return [f"{len(lines)} lines, reference has {len(ref_lines)}"]
    problems = []
    for ln, (line, ref_line) in enumerate(zip(lines, ref_lines), start=1):
        if line == ref_line:
            continue
        toks, ref_toks = line.split(","), ref_line.split(",")
        if line.startswith("#") or len(toks) != len(ref_toks):
            problems.append(f"line {ln} differs from the reference")
            continue
        for tok, ref_tok in zip(toks, ref_toks):
            x, r = _number(tok), _number(ref_tok)
            if tok == ref_tok:
                continue
            if x is None or r is None or not abs(x - r) <= REF_RTOL * abs(r) + REF_ATOL:
                problems.append(f"line {ln}: {tok!r} != reference {ref_tok!r}")
    return problems[:20]


def reference_path(workload, relpath) -> Path:
    return REFERENCE_DIR / workload / (relpath + ".gz")


def check_command(workload, scenarios, outdir, argv, reference) -> tuple:
    """(problems, {file: sha256}) for the outputs of one command.

    ``scenarios`` maps the name of each ``run`` output (``name.csv``) to its
    scenario.
    ``reference`` says which outputs are compared with the reference files:
    "all" (default seed at full size), "seedless" (all but the seeded
    ``run.csv``) or "none" (while the reference files are being written).
    """
    problems, digests = [], {}
    for rel in output_files(outdir, argv):
        path = Path(outdir) / rel
        digests[rel] = sha256(path)
        text = path.read_text()
        if argv[0] == "run":
            found = check_run_csv(text, scenarios[Path(rel).stem])
        else:
            found = check_figure_csv(text)
        if reference == "all" or (reference == "seedless" and rel != "run.csv"):
            ref = reference_path(workload, rel)
            if not ref.is_file():
                found.append("reference file missing")
            else:
                found += compare_text(text, gzip.decompress(ref.read_bytes()).decode())
        problems += [f"{rel}: {p}" for p in found]
    return problems, digests
