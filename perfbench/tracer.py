"""Spans around the public functions of cvbattery, patched in from outside.

Each public function of the traced modules (the names ``cvbattery``
re-exports), ``focksim.expm_multiply`` and ``cli.main`` is replaced by a
wrapper in every cvbattery module that binds it, so calls are recorded
wherever they are looked up: through the module (``focksim.evolve``), by a
name bound at import (``metrics.exact_ergotropy``, ``cli.quadrature_stats``)
or as a module global (``extract_moments`` inside ``FockTrajectory``).

A span is (name, start, end, parent span, command id), kept in flat arrays
so that the ~70k ``energy_linear`` calls of one ``figure fig2`` stay cheap.
Self time is a span's duration minus the durations of its direct children.
"""

import functools
import inspect
import warnings
from array import array
from time import perf_counter

import numpy as np

TRACED_MODULES = ("focksim", "cumulant", "perturbation", "linear", "metrics", "gaussian")
DEDUP_TRACKED = ("focksim.evolve", "cumulant.integrate_cumulant")


class Tracer:
    def __init__(self):
        import cvbattery
        from cvbattery import cli

        self._pkg = cvbattery
        self._modules = [cvbattery, cli] + [
            getattr(cvbattery, m) for m in TRACED_MODULES
        ]
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_cmd = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.command = -1
        self.arg_keys = {}  # (command, name) -> list of canonical argument strings
        self.counts = {}  # (command, counter) -> summed count
        self.maxima = {}  # (command, counter) -> largest value seen
        self._patches = []

    # -- installing ---------------------------------------------------------

    def targets(self):
        """(name, module, attribute) of every function to wrap."""
        out = []
        for attr in sorted(vars(self._pkg)):
            obj = getattr(self._pkg, attr)
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            mod = obj.__module__.rpartition(".")[2]
            if mod in TRACED_MODULES:
                out.append((f"{mod}.{attr}", getattr(self._pkg, mod), attr))
        out.append(("focksim.expm_multiply", self._pkg.focksim, "expm_multiply"))
        out.append(("cli.main", self._pkg.cli, "main"))
        return out

    def install(self):
        hooks = {
            "focksim.evolve": self._hook_evolve,
            "cumulant.integrate_cumulant": self._hook_integrate_cumulant,
            "focksim.expm_multiply": self._hook_expm_multiply,
        }
        for name, module, attr in self.targets():
            original = getattr(module, attr)
            inner = hooks[name](original) if name in hooks else original
            wrapper = self._wrap(name, inner)
            functools.update_wrapper(wrapper, original)
            for mod in self._modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, cmds = self.span_name, self.span_parent, self.span_cmd
        starts, ends, stack = self.span_start, self.span_end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            cmds.append(tracer.command)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()

        return wrapper

    # -- counters at the layer boundaries -----------------------------------

    def _count(self, counter, n=1):
        key = (self.command, counter)
        self.counts[key] = self.counts.get(key, 0) + n

    def _record_max(self, counter, value):
        key = (self.command, counter)
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _record_args(self, name, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        key = repr([
            (k, v.tobytes() if isinstance(v, np.ndarray) else v)
            for k, v in bound.arguments.items()
        ])
        self.arg_keys.setdefault((self.command, name), []).append(key)

    def _hook_evolve(self, fn):
        def evolve(*args, **kwargs):
            self._record_args("focksim.evolve", fn, args, kwargs)
            traj = fn(*args, **kwargs)
            if not traj.cutoff_ok:
                self._count("focksim.evolve.cutoff_fail")
            return traj

        return evolve

    def _hook_integrate_cumulant(self, fn):
        def integrate_cumulant(*args, **kwargs):
            self._record_args("cumulant.integrate_cumulant", fn, args, kwargs)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._count("cumulant.retries", sum(
                        1 for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "determinant drift" in str(w.message)
                    ))
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

        return integrate_cumulant

    def _hook_expm_multiply(self, fn):
        def expm_multiply(A, *args, **kwargs):
            self._record_max("focksim.liouvillian_nnz", A.nnz)
            self._record_max("focksim.liouvillian_dim", A.shape[0])
            return fn(A, *args, **kwargs)

        return expm_multiply

    # -- results ------------------------------------------------------------

    def spans(self):
        """The recorded spans as numpy arrays."""
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "command": np.array(self.span_cmd, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def layer_metrics(self, commands) -> dict:
        """Per-layer counts and self times over the given command ids."""
        s = self.spans()
        n, n_names = s["name"].size, len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        sel = np.isin(s["command"], list(commands))
        calls = np.bincount(s["name"][sel], minlength=n_names)
        self_s = np.bincount(s["name"][sel], weights=self_time[sel], minlength=n_names)

        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.s"] = float(self_s[nid])
        for mod in TRACED_MODULES:
            out[f"{mod}.s"] = sum(v for k, v in out.items()
                                  if k.startswith(mod + ".") and k.endswith(".s"))
        out["focksim.propagate.s"] = out["focksim.expm_multiply.s"]
        out["cli.self_s"] = out["cli.main.s"]
        for counter in ("focksim.evolve.cutoff_fail", "cumulant.retries"):
            out[counter] = sum(self.counts.get((c, counter), 0) for c in commands)
        for counter in ("focksim.liouvillian_nnz", "focksim.liouvillian_dim"):
            out[counter] = max((self.maxima.get((c, counter), 0) for c in commands), default=0)
        for name in DEDUP_TRACKED:
            keys = [k for c in commands for k in self.arg_keys.get((c, name), [])]
            # with no calls nothing was wasted
            out[f"{name}.unique_frac"] = len(set(keys)) / len(keys) if keys else 1.0
        return out
