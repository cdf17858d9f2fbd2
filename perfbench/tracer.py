"""Outside-in tracer: wraps rtfverify's public functions at run time.

Nothing under src/ changes.  ``install`` replaces each public function of the
layer modules with a wrapper, in its defining module and at every alias that
another rtfverify module imported by name (``from .ntransform import
closed_power`` and the like).  A wrapper records one span per call: name,
start, end and parent span, kept in memory and written out by
``write_spans``.  The hot primitives of the exact kernel get counters only
(``iota`` also its time), because a span per call would cost more than the
call itself.

Self time is a span's duration minus the time its child spans cover; the
counted primitives are not spans, so their time stays in their caller's self
time.  ``total_s`` counts only the outermost call of a name, so recursion is
not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYER_MODULES = ("formal", "ideals", "ntransform", "spectral", "testfns", "orbital_local",
                 "orbital_arch", "lattice", "assembly")

# Hot primitives: (module, attribute path, metric name, timed).
COUNTED = (
    ("ideals", "Ideal.of", "ideals.Ideal.of", False),
    ("ideals", "iota", "ideals.iota", True),
    ("ideals", "omega_v", "ideals.omega_v", False),
    ("ideals", "omega_pair", "ideals.omega_pair", False),
    ("ideals", "square_decompose", "ideals.square_decompose", False),
    ("ideals", "stratum", "ideals.stratum", False),
    ("formal", "FormalLog.__init__", "formal.FormalLog.init", False),
    ("formal", "FormalLog.log_integer", "formal.FormalLog.log_integer", False),
    ("spectral", "q_poly", "spectral.q_poly", False),
    ("spectral", "q_poly_one", "spectral.q_poly_one", False),
    ("spectral", "tau_jj", "spectral.tau_jj", False),
)

SUBCOMMANDS = ("ntransform", "local-weights", "moments", "local-tables", "arch", "lattice",
               "main-terms", "verify")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []            # (name id, start, end, parent index, outermost)
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.errors: list[int] = []
        self.counts: dict[str, list] = {}  # metric name -> [calls, seconds]
        self._undo: list = []
        self._wrappers: set[int] = set()
        self.t_start = 0.0

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self._depth.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    def _span(self, fn, name_of):
        """Wrap fn; name_of(args, kwargs) picks the span's name id."""
        spans, stack, depth, errors = self.spans, self._stack, self._depth, self.errors
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            nid = name_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[nid] == 0
            depth[nid] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                t1 = perf()
                depth[nid] -= 1
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, outer)

        return functools.update_wrapper(wrapper, fn)

    def _named_span(self, fn, name: str):
        nid = self._name_id(name)
        return self._span(fn, lambda args, kwargs: nid)

    def _counter(self, fn, name: str, timed: bool):
        slot = self.counts.setdefault(name, [0, 0.0])
        if not timed:
            def wrapper(*args, **kwargs):
                slot[0] += 1
                return fn(*args, **kwargs)
        else:
            perf = time.perf_counter

            def wrapper(*args, **kwargs):
                slot[0] += 1
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot[1] += perf() - t0
        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        self._wrappers.add(id(getattr(value, "__func__", value)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every rtfverify module global that names `original`."""
        for mod in [m for n, m in sys.modules.items() if n == "rtfverify" or n.startswith("rtfverify.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"rtfverify.{name}") for name in LAYER_MODULES}
        verify = importlib.import_module("rtfverify.verify")
        cli = importlib.import_module("rtfverify.cli")
        for modname, path, metric, timed in COUNTED:
            owner = mods[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._counter(raw.__func__, metric, timed)))
            elif cls_path:
                self._set(owner, attr, self._counter(raw, metric, timed))
            else:
                self._replace_everywhere(raw, self._counter(raw, metric, timed))

        for modname, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or id(fn) in self._wrappers or inspect.isgeneratorfunction(fn)):
                    continue
                if modname == "spectral" and attr == "r_z":
                    wrapper = self._r_z_span(fn)
                else:
                    wrapper = self._named_span(fn, f"{modname}.{attr}")
                self._replace_everywhere(fn, wrapper)

        for suite, fn in list(verify.SUITES.items()):
            wrapper = self._named_span(fn, f"verify.{suite}")
            self._replace_everywhere(fn, wrapper)
            self._undo.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = wrapper

        # cli.main parses, dispatches and formats: its self time is the CLI's
        # own cost, named after the subcommand in argv[0]
        ids = {cmd: self._name_id(f"cli.{cmd}") for cmd in SUBCOMMANDS}
        other = self._name_id("cli.other")

        def subcommand(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return ids.get(argv[0] if argv else "", other)

        self._set(cli, "main", self._span(cli.main, subcommand))
        self.t_start = time.perf_counter()

    def _r_z_span(self, fn):
        # r_z's closed form and its oracle are one function; the path argument
        # selects which, so the span is named after it
        ids = {"closed": self._name_id("spectral.r_z-closed"), "sum": self._name_id("spectral.r_z-sum")}
        return self._span(fn, lambda args, kwargs: ids[args[4] if len(args) > 4 else kwargs.get("path", "closed")])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls, self_s, total_s and errors per span name; calls (and self_s
        where timed) per counted primitive."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _outer in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = [[0, 0.0, 0.0] for _ in self.names]
        for i, (nid, t0, t1, _parent, outer) in enumerate(self.spans):
            st = stats[nid]
            st[0] += 1
            st[1] += t1 - t0 - child[i]
            if outer:
                st[2] += t1 - t0
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s), errors in zip(self.names, stats, self.errors):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
            out[f"{name}.errors"] = errors
        for name, (calls, seconds) in self.counts.items():
            out[f"{name}.calls"] = calls
            if seconds:
                out[f"{name}.self_s"] = seconds
        # per-transform ratios: base is the oracle calls of the transform pair
        base = out["ntransform.n_transform.calls"] + out["ntransform.convolve_omega.calls"]
        out["ntransform.iota_per_transform"] = out["ideals.iota.calls"] / base if base else 0.0
        out["ntransform.ideal_of_per_transform"] = out["ideals.Ideal.of.calls"] / base if base else 0.0
        w_plus = out["orbital_arch.w_plus.total_s"]
        out["orbital_arch.w_plus.quad_share"] = out["orbital_arch.j_plus_quad.total_s"] / w_plus if w_plus else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (nid, t0, t1, parent, _outer) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0 - self.t_start:.9f},{t1 - self.t_start:.9f},{parent}\n")
