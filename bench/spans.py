"""Spans around calls into sdelab's public functions, and the per-layer
metrics computed from them.

A :class:`Tracer` replaces each traced function by a timing wrapper under
every name it is reachable by: its own module, the package namespace, and
the modules (including the CLI) that import it by name.  Every call records
one span ``(id, name, start_ns, end_ns, parent_id, thread_id)``; the parent
is the innermost open span of the same thread.  Spans stay in memory until
the caller takes them with :meth:`Tracer.take`.

Nothing here changes what the wrapped functions compute: wrappers pass
arguments and results through untouched.  Observers handed to
``run_ensemble`` are wrapped in a forwarding proxy so their calls show up
as spans of their own.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

from sdelab.ensemble import supports_batch

# (span name, module, attribute); a dotted attribute is a method
TARGETS = (
    ("cli.main", "sdelab.cli", "main"),
    ("config.load_config", "sdelab.config", "load_config"),
    ("noise.gaussian_block", "sdelab.noise", "NoiseStream.gaussian_block"),
    ("ensemble.run_ensemble", "sdelab.ensemble", "run_ensemble"),
    ("engine.simulate", "sdelab.engine", "simulate"),
    ("engine.sample_poisson_measure", "sdelab.engine", "sample_poisson_measure"),
    ("ergodics.mixing_check", "sdelab.ergodics", "mixing_check"),
    ("ergodics.time_average", "sdelab.ergodics", "time_average"),
    ("ergodics.moment_bound_check", "sdelab.ergodics", "moment_bound_check"),
    ("ergodics.tightness_diagnostic", "sdelab.ergodics", "tightness_diagnostic"),
    ("ergodics.kurtz_diagnostic", "sdelab.ergodics", "kurtz_diagnostic"),
    ("rates.mixing_rate_estimate", "sdelab.rates", "mixing_rate_estimate"),
    ("rates.halanay_rate", "sdelab.rates", "halanay_rate"),
    ("rates.razumikhin_gamma", "sdelab.rates", "razumikhin_gamma"),
    ("paths.skorohod_distance", "sdelab.paths", "skorohod_distance"),
    ("paths.uniform_distance", "sdelab.paths", "uniform_distance"),
    ("conditions.check", "sdelab.conditions", "check_drift_dissipation"),
    ("conditions.check", "sdelab.conditions", "check_diffusion_domination"),
    ("conditions.check", "sdelab.conditions", "check_neutral_conditions"),
    ("conditions.check", "sdelab.conditions", "check_jump_conditions"),
    ("conditions.replay_witness", "sdelab.conditions", "replay_witness"),
)
OBSERVER = "ensemble.observer"

# every per-layer metric, with its unit and direction (BENCHMARK.json lists
# the same names)
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("noise.gaussian_block.calls", "count", "lower"),
    ("noise.gaussian_block.self_s", "s", "lower"),
    ("noise.gaussian_words", "count", "lower"),
    ("noise.gaussian_words_per_s", "1/s", "higher"),
    ("ensemble.run_ensemble.calls", "count", "lower"),
    ("ensemble.run_ensemble.self_s", "s", "lower"),
    ("ensemble.batch.path_steps", "count", "lower"),
    ("ensemble.batch.path_steps_per_s", "1/s", "higher"),
    ("ensemble.max_fixed_point_iters", "count", "lower"),
    ("ensemble.per_path.path_steps", "count", "lower"),
    ("ensemble.per_path.path_steps_per_s", "1/s", "higher"),
    ("ensemble.observer.calls", "count", "lower"),
    ("ensemble.observer.self_s", "s", "lower"),
    ("engine.simulate.calls", "count", "lower"),
    ("engine.simulate.self_s", "s", "lower"),
    ("engine.path_steps", "count", "lower"),
    ("engine.path_steps_per_s", "1/s", "higher"),
    ("engine.sample_poisson_measure.calls", "count", "lower"),
    ("engine.sample_poisson_measure.self_s", "s", "lower"),
    ("engine.jump_epochs", "count", "lower"),
    ("ergodics.mixing_check.self_s", "s", "lower"),
    ("ergodics.time_average.self_s", "s", "lower"),
    ("ergodics.moment_bound_check.self_s", "s", "lower"),
    ("ergodics.tightness_diagnostic.self_s", "s", "lower"),
    ("ergodics.kurtz_diagnostic.self_s", "s", "lower"),
    ("rates.mixing_rate_estimate.self_s", "s", "lower"),
    ("rates.halanay_rate.calls", "count", "lower"),
    ("rates.halanay_rate.self_s", "s", "lower"),
    ("rates.razumikhin_gamma.self_s", "s", "lower"),
    ("paths.skorohod_distance.calls", "count", "lower"),
    ("paths.skorohod_distance.self_s", "s", "lower"),
    ("paths.skorohod_candidates", "count", "lower"),
    ("paths.skorohod.step_pairs_per_s", "1/s", "higher"),
    ("paths.skorohod.linear_pairs_per_s", "1/s", "higher"),
    ("paths.uniform_distance.calls", "count", "lower"),
    ("paths.uniform_distance.self_s", "s", "lower"),
    ("conditions.check.self_s", "s", "lower"),
    ("conditions.trials", "count", "lower"),
    ("conditions.trials_per_s", "1/s", "higher"),
    ("conditions.replay_witness.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class _ObserverProxy:
    """Forwards ``see_batch``/``see_path`` to an observer, one span per call."""

    __slots__ = ("_tracer", "_inner")

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def see_batch(self, step, *wins):
        with self._tracer.span(OBSERVER):
            self._inner.see_batch(step, *wins)

    def see_path(self, path, step, *wins):
        with self._tracer.span(OBSERVER):
            self._inner.see_path(path, step, *wins)


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start", "end")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else -1
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.sid, self.name, self.start, self.end,
                                  self.parent, threading.get_ident()))
        return False

    @property
    def seconds(self):
        return (self.end - self.start) * 1e-9


class Tracer:
    """Installs span wrappers on sdelab, and removes them again."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_path_open = 0
        self._patched = []

    # -- spans and counters --------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name):
        return _Span(self, name)

    def add(self, key, value):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts.get(key, 0), value)

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        record = _RECORDERS.get(fn.__name__)
        sig = inspect.signature(fn)
        is_ensemble = fn.__name__ == "run_ensemble"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if record else None
            per_path = False
            if is_ensemble:
                bound.arguments["observer"] = _ObserverProxy(
                    self, bound.arguments["observer"])
                args, kwargs = bound.args, bound.kwargs
                per_path = not supports_batch(bound.arguments["model"])
            if per_path:
                with self._lock:
                    self._per_path_open += 1
            try:
                with self.span(name) as sp:
                    result = fn(*args, **kwargs)
            finally:
                if per_path:
                    with self._lock:
                        self._per_path_open -= 1
            if record:
                record(self, bound.arguments, result, sp.seconds)
            return result

        return wrapper

    def install(self):
        """Wrap every target under every name that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sdelab" or key.startswith("sdelab.")]
        for name, mod_name, attr in TARGETS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, orig, wrapped)

    def _set(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._patched.append((owner, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []


# ---------------------------------------------------------------------------
# counters taken from arguments and results
# ---------------------------------------------------------------------------

def _rec_gaussian_block(tr, args, result, seconds):
    tr.add("noise.gaussian_words", int(args["n_steps"]) * int(args["m"]))


def _rec_run_ensemble(tr, args, outcome, seconds):
    model, cfg = args["model"], args["cfg"]
    tr.maximum("ensemble.max_fixed_point_iters", int(outcome.max_fixed_point_iters))
    if supports_batch(model):
        n_steps = int(round(cfg.horizon / cfg.step))
        paths = int(args["n_paths"]) * (2 if args.get("eta") is not None else 1)
        tr.add("ensemble.batch.path_steps", paths * n_steps)
        tr.add("ensemble.batch.s", seconds)
    else:
        tr.add("ensemble.per_path.s", seconds)


def _rec_simulate(tr, args, traj, seconds):
    steps = int((traj.times > 0.0).sum())
    tr.add("engine.path_steps", steps)
    if tr._per_path_open:
        tr.add("ensemble.per_path.path_steps", steps)


def _rec_poisson(tr, args, result, seconds):
    tr.add("engine.jump_epochs", int(result[0].size))


def _rec_skorohod(tr, args, bracket, seconds):
    tr.add("paths.skorohod_candidates", int(bracket.n_candidates))
    kind = "step" if args["xi"].kind.value == "cadlag-step" else "linear"
    tr.add(f"paths.skorohod.{kind}_pairs", 1)
    tr.add(f"paths.skorohod.{kind}_s", seconds)


def _rec_check(tr, args, verdicts, seconds):
    tr.add("conditions.trials", int(args.get("trials", 400)))


_RECORDERS = {
    "gaussian_block": _rec_gaussian_block,
    "run_ensemble": _rec_run_ensemble,
    "simulate": _rec_simulate,
    "sample_poisson_measure": _rec_poisson,
    "skorohod_distance": _rec_skorohod,
    "check_drift_dissipation": _rec_check,
    "check_diffusion_domination": _rec_check,
    "check_neutral_conditions": _rec_check,
    "check_jump_conditions": _rec_check,
}


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def reduce_spans(spans):
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Self time is the span's duration minus the durations of its direct
    children (children always run in the parent's thread).
    """
    dur = {sid: end - start for sid, _, start, end, _, _ in spans}
    child = {}
    for sid, _, _, _, parent, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + dur[sid]
    out = {}
    for sid, name, _, _, _, _ in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += dur[sid] * 1e-9
        agg["self_s"] += (dur[sid] - child.get(sid, 0)) * 1e-9
    return out


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced round, except ``cli.import_s`` and
    ``trace.overhead_s``, which the caller measures.

    A ``*_per_s`` rate divides a count by the inclusive seconds of the spans
    that did the work (the route's ``run_ensemble`` spans for the ensemble
    rates, the kind's ``skorohod_distance`` spans for the pair rates).
    """
    agg = reduce_spans(spans)

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    words = counts.get("noise.gaussian_words", 0)
    batch = counts.get("ensemble.batch.path_steps", 0)
    per_path = counts.get("ensemble.per_path.path_steps", 0)
    engine_steps = counts.get("engine.path_steps", 0)
    m = {
        "cli.main.self_s": get("cli.main", "self_s"),
        "config.load_config.self_s": get("config.load_config", "self_s"),
        "noise.gaussian_block.calls": get("noise.gaussian_block", "calls"),
        "noise.gaussian_block.self_s": get("noise.gaussian_block", "self_s"),
        "noise.gaussian_words": words,
        "noise.gaussian_words_per_s": rate(words, get("noise.gaussian_block", "total_s")),
        "ensemble.run_ensemble.calls": get("ensemble.run_ensemble", "calls"),
        "ensemble.run_ensemble.self_s": get("ensemble.run_ensemble", "self_s"),
        "ensemble.batch.path_steps": batch,
        "ensemble.batch.path_steps_per_s": rate(batch, counts.get("ensemble.batch.s", 0.0)),
        "ensemble.max_fixed_point_iters": counts.get("ensemble.max_fixed_point_iters", 0),
        "ensemble.per_path.path_steps": per_path,
        "ensemble.per_path.path_steps_per_s": rate(per_path, counts.get("ensemble.per_path.s", 0.0)),
        "ensemble.observer.calls": get(OBSERVER, "calls"),
        "ensemble.observer.self_s": get(OBSERVER, "self_s"),
        "engine.simulate.calls": get("engine.simulate", "calls"),
        "engine.simulate.self_s": get("engine.simulate", "self_s"),
        "engine.path_steps": engine_steps,
        "engine.path_steps_per_s": rate(engine_steps, get("engine.simulate", "total_s")),
        "engine.sample_poisson_measure.calls": get("engine.sample_poisson_measure", "calls"),
        "engine.sample_poisson_measure.self_s": get("engine.sample_poisson_measure", "self_s"),
        "engine.jump_epochs": counts.get("engine.jump_epochs", 0),
        "rates.halanay_rate.calls": get("rates.halanay_rate", "calls"),
        "rates.halanay_rate.self_s": get("rates.halanay_rate", "self_s"),
        "rates.razumikhin_gamma.self_s": get("rates.razumikhin_gamma", "self_s"),
        "rates.mixing_rate_estimate.self_s": get("rates.mixing_rate_estimate", "self_s"),
        "paths.skorohod_distance.calls": get("paths.skorohod_distance", "calls"),
        "paths.skorohod_distance.self_s": get("paths.skorohod_distance", "self_s"),
        "paths.skorohod_candidates": counts.get("paths.skorohod_candidates", 0),
        "paths.skorohod.step_pairs_per_s": rate(counts.get("paths.skorohod.step_pairs", 0),
                                                counts.get("paths.skorohod.step_s", 0.0)),
        "paths.skorohod.linear_pairs_per_s": rate(counts.get("paths.skorohod.linear_pairs", 0),
                                                  counts.get("paths.skorohod.linear_s", 0.0)),
        "paths.uniform_distance.calls": get("paths.uniform_distance", "calls"),
        "paths.uniform_distance.self_s": get("paths.uniform_distance", "self_s"),
        "conditions.check.self_s": get("conditions.check", "self_s"),
        "conditions.trials": counts.get("conditions.trials", 0),
        "conditions.trials_per_s": rate(counts.get("conditions.trials", 0),
                                        get("conditions.check", "total_s")),
        "conditions.replay_witness.self_s": get("conditions.replay_witness", "self_s"),
    }
    for fn in ("mixing_check", "time_average", "moment_bound_check",
               "tightness_diagnostic", "kurtz_diagnostic"):
        m[f"ergodics.{fn}.self_s"] = get(f"ergodics.{fn}", "self_s")
    return m
