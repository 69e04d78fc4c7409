"""Outside-in layer trace.

`Tracer.install()` replaces package functions, looked up by module attribute
name, with timing wrappers; `uninstall()` puts the originals back.  Every
wrapped call is a span: its self time is its duration minus the time of the
wrapped calls made inside it.  A target that a later change removes or
renames is listed as absent, and measures 0 calls and 0 s, instead of
failing the run.  Untraced runs
never construct a Tracer, so they run the package unmodified.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "finsler_solitons"

# Layer groups: the spans each per-layer metric is summed over, named
# (module, attribute path) inside the package.
GROUPS = {
    "jets.mul": (("jets", "Jet.__mul__"), ("jets", "Jet.__rmul__")),
    "jets.compose": (("jets", "Jet._compose"),),
    "finsler.f2_tables": (("finsler", "_f2_tables"),),
    "finsler.spray_derivatives": (("finsler", "_spray_derivatives"),),
    "finsler.assemble_riemann": (("finsler", "_assemble_riemann"),),
    "finsler.curvature_bundle": (("finsler", "curvature_bundle"),),
    "finsler.metric_value": (("finsler", "FinslerMetric.value"),),
    "riemann.tables": (("riemann", "scalar_table"), ("riemann", "vector_table"),
                       ("riemann", "matrix_table")),
    "riemann.christoffel": (("riemann", "christoffel"), ("riemann", "christoffel_derivative")),
    "randers.tables": (("randers", "beta_tables"), ("randers", "beta_derivatives"),
                       ("randers", "nav_tensors"), ("randers", "randers_ricci_closed_form")),
    "solitons.bundles": (("solitons", "gradient_soliton_checks_ab"),
                         ("solitons", "gradient_soliton_checks_nav"),
                         ("solitons", "vector_soliton_checks_ab"),
                         ("solitons", "vector_soliton_checks_nav")),
    "solitons.fits": (("solitons", "fit_kappa"), ("solitons", "fit_sigma")),
    "sampling": (("sampling", "sample_flags"), ("sampling", "unit_direction")),
    "suites.flag_rows": (("suites", "_flag_rows"),),
    "reports.aggregate": (("reports", "report_from_values"), ("reports", "all_passed"),
                          ("reports", "ResidualReport.to_dict")),
    "cli.render": (("cli", "_render"),),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str      # the end-to-end metric and workload it is expected to move


PER_LAYER = (
    LayerMetric("jets.mul.calls", "count", "lower",
                "flags_per_s on verify-cylinder and crosscheck"),
    LayerMetric("jets.mul.self_s", "s", "lower",
                "flags_per_s on verify-cylinder and crosscheck; per-call overhead on verify-plane"),
    LayerMetric("jets.mul.per_flag", "calls/flag", "lower",
                "flags_per_s on every workload; peak_rss_mb on verify-cylinder if batched"),
    LayerMetric("jets.compose.calls", "count", "lower",
                "flags_per_s on verify-cylinder and crosscheck"),
    LayerMetric("jets.compose.self_s", "s", "lower",
                "flags_per_s on verify-cylinder and crosscheck"),
    LayerMetric("jets.jet_space.build_s", "s", "lower", "setup_s on every workload"),
    LayerMetric("finsler.f2_tables.calls", "count", "lower",
                "flags_per_s on verify-plane and verify-cylinder"),
    LayerMetric("finsler.f2_tables.self_s", "s", "lower",
                "flags_per_s on verify-plane and verify-cylinder"),
    LayerMetric("finsler.f2_tables.order4_per_flag", "calls/flag", "lower",
                "flags_per_s on both verify workloads; on crosscheck only its 2-flag verify"),
    LayerMetric("finsler.spray_derivatives.self_s", "s", "lower",
                "flags_per_s on verify-cylinder"),
    LayerMetric("finsler.assemble_riemann.self_s", "s", "lower",
                "flags_per_s on verify-cylinder"),
    LayerMetric("finsler.curvature_bundle.calls", "count", "lower",
                "flags_per_s on verify-cylinder"),
    LayerMetric("riemann.tables.calls", "count", "lower",
                "flags_per_s on verify-plane and crosscheck"),
    LayerMetric("riemann.tables.self_s", "s", "lower",
                "flags_per_s on verify-plane and crosscheck"),
    LayerMetric("riemann.christoffel.self_s", "s", "lower",
                "flags_per_s on verify-plane and crosscheck"),
    LayerMetric("randers.tables.calls", "count", "lower", "flags_per_s on crosscheck"),
    LayerMetric("randers.tables.self_s", "s", "lower", "flags_per_s on crosscheck"),
    LayerMetric("solitons.bundles.self_s", "s", "lower", "flags_per_s on verify-plane"),
    LayerMetric("solitons.fits.self_s", "s", "lower", "flags_per_s on verify-cylinder"),
    LayerMetric("sampling.draws", "count", "lower",
                "nothing; a change means the flag set changed"),
    LayerMetric("sampling.accept_ratio", "ratio", "higher",
                "nothing; a change means the flag set changed"),
    LayerMetric("sampling.self_s", "s", "lower", "nothing; stays negligible"),
    LayerMetric("suites.flag_rows.s", "s", "lower",
                "flags_per_s on both verify workloads; under 1 % of a crosscheck pass"),
    LayerMetric("reports.aggregate.self_s", "s", "lower", "nothing; stays negligible"),
    LayerMetric("cli.render.self_s", "s", "lower", "nothing; stays negligible"),
    LayerMetric("trace.overhead", "ratio", "lower",
                "nothing; traced over untraced pass time"),
)


def _param(fn, name):
    """Position of parameter `name` in fn's signature, or None if it has none."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index(name) if name in params else None


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if pos is not None and pos < len(args) else None


class Tracer:
    """Span timings and context counters for one process."""

    def __init__(self, groups=GROUPS):
        self.groups = groups
        self.absent: list[str] = []         # "module:attr" targets not found
        self.stats: dict[str, list] = {}    # group -> [calls, inclusive_s, child_s]
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self.reset()

    # -- counters ------------------------------------------------------

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.in_rows = 0            # open suites._flag_rows spans
        self.row_flags = 0          # flags passed to suites._flag_rows
        self.row_order4 = 0         # order-4 _f2_tables calls inside _flag_rows
        self.in_sampler = 0         # open sampling.sample_flags spans
        self.draws = 0              # direction draws inside sample_flags
        self.accepted = 0           # flags sample_flags returned
        self.rejected = 0           # draws whose F was rejected inside sample_flags

    # -- installation ----------------------------------------------------

    def install(self):
        for group, targets in self.groups.items():
            self.stats.setdefault(group, [0, 0.0, 0.0])
            for modname, path in targets:
                if not self._install_one(group, modname, path):
                    self.absent.append(f"{modname}:{path}")
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _install_one(self, group, modname, path) -> bool:
        try:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            return False
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = vars(owner).get(name)
        if original is None or not callable(original):
            return False
        if getattr(original, "_perfbench_group", None) is not None:
            return True         # an alias of a target already wrapped (__rmul__)
        wrapper = self._wrap(group, modname, path, original)
        # Patch every binding of the original: aliases in the class, and
        # names other package modules imported with `from .x import f`.
        owners = [owner] if isinstance(owner, type) else [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in owners:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
        return True

    def _wrap(self, group, modname, path, fn):
        stat = self.stats[group]
        stack = self._stack
        clock = time.perf_counter
        enter, leave = self._observer(f"{modname}:{path}", fn)

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[0]
                if leave is not None:
                    leave(args, kwargs, result, exc)

        wrapper._perfbench_group = group
        return wrapper

    # -- context observers -------------------------------------------------

    def _observer(self, target, fn):
        """(enter, leave) callbacks that keep the context counters, or (None, None)."""
        if target == "suites:_flag_rows":
            pos = _param(fn, "flags")

            def enter(args, kwargs):
                self.in_rows += 1
                flags = _arg(args, kwargs, pos, "flags")
                self.row_flags += len(flags) if flags is not None else 0

            def leave(args, kwargs, result, exc):
                self.in_rows -= 1
            return enter, leave
        if target == "finsler:_f2_tables":
            pos = _param(fn, "order")

            def enter(args, kwargs):
                if self.in_rows and _arg(args, kwargs, pos, "order") == 4:
                    self.row_order4 += 1
            return enter, None
        if target == "sampling:sample_flags":
            def enter(args, kwargs):
                self.in_sampler += 1

            def leave(args, kwargs, result, exc):
                self.in_sampler -= 1
                if exc is None:
                    self.accepted += len(result)
            return enter, leave
        if target == "sampling:unit_direction":
            def enter(args, kwargs):
                if self.in_sampler:
                    self.draws += 1
            return enter, None
        if target == "finsler:FinslerMetric.value":
            sampling = sys.modules.get(f"{PACKAGE}.sampling")
            min_f = getattr(sampling, "MIN_F", 0.0)

            def leave(args, kwargs, result, exc):
                if self.in_sampler and (exc is not None or result < min_f):
                    self.rejected += 1
            return None, leave
        return None, None

    # -- metrics -------------------------------------------------------------

    def present(self, group) -> bool:
        return any(f"{m}:{p}" not in self.absent for m, p in self.groups[group])

    def snapshot(self, flags: int) -> dict:
        """Per-layer values of the spans recorded since the last reset.

        `flags` is the number of sample flags the traced pass evaluated.
        Returns name -> value.  A layer whose targets are absent, or that the
        pass never called, measures 0 calls and 0 s; the absent targets are
        listed in `self.absent`.
        """
        def calls(g):
            return self.stats[g][0]

        def self_s(g):
            st = self.stats[g]
            return st[1] - st[2]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "jets.mul.calls": calls("jets.mul"),
            "jets.mul.self_s": self_s("jets.mul"),
            "jets.mul.per_flag": ratio(calls("jets.mul"), flags),
            "jets.compose.calls": calls("jets.compose"),
            "jets.compose.self_s": self_s("jets.compose"),
            "finsler.f2_tables.calls": calls("finsler.f2_tables"),
            "finsler.f2_tables.self_s": self_s("finsler.f2_tables"),
            "finsler.f2_tables.order4_per_flag": ratio(self.row_order4, self.row_flags),
            "finsler.spray_derivatives.self_s": self_s("finsler.spray_derivatives"),
            "finsler.assemble_riemann.self_s": self_s("finsler.assemble_riemann"),
            "finsler.curvature_bundle.calls": calls("finsler.curvature_bundle"),
            "riemann.tables.calls": calls("riemann.tables"),
            "riemann.tables.self_s": self_s("riemann.tables"),
            "riemann.christoffel.self_s": self_s("riemann.christoffel"),
            "randers.tables.calls": calls("randers.tables"),
            "randers.tables.self_s": self_s("randers.tables"),
            "solitons.bundles.self_s": self_s("solitons.bundles"),
            "solitons.fits.self_s": self_s("solitons.fits"),
            "sampling.draws": self.draws,
            "sampling.accept_ratio": ratio(self.accepted, self.draws),
            "sampling.self_s": self_s("sampling"),
            "suites.flag_rows.s": self.stats["suites.flag_rows"][1],
            "reports.aggregate.self_s": self_s("reports.aggregate"),
            "cli.render.self_s": self_s("cli.render"),
        }

    def inclusive_shares(self, pass_s: float) -> dict:
        """group -> inclusive time as a share of the pass (a human summary)."""
        return {g: st[1] / pass_s for g, st in self.stats.items()
                if self.present(g) and pass_s > 0}
