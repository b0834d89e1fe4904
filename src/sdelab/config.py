"""Experiment configuration files.

The on-disk format is flat INI: sections of ``key = value`` lines, parsed
with :mod:`configparser` (no interpolation, ``#``/``;`` comments).  Every
key is validated against the section's documented vocabulary and unknown
keys are rejected, so a typo fails loudly instead of silently running a
default.  Seeds are always explicit — there is no wall-clock fallback.

Sections
--------
``[model]``     built-in model name plus its parameters.
``[sim]``       discretization / reproducibility knobs (``SimConfig``).
``[task]``      exactly one task ``name`` plus task-specific parameters.
``[output]``    artifact directory (and optional format list).
``[initial]``   initial segment (``[initial2]`` for two-segment tasks).

Each task's keys, parsers and defaults live in one table, ``_TASKS``, whose
order is also the order of ``TASK_NAMES``.  ``[sim]`` keys are ``SimConfig``
fields (``seed`` is ``master_seed``), parsed by ``_SIM_PARSERS``; a key the
file leaves out takes ``SimConfig``'s own default, so the library and the
CLI share one default.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .engine import SimConfig
from .errors import ConfigError
from .models import (
    ConstantMark,
    DiscreteMarks,
    Distributed,
    GaussianMarks,
    ModelClass,
    ModelSpec,
    PointConstant,
    PointVariable,
    UniformInterval,
    UniformSigns,
    jump_linear,
    linear_retarded,
    neutral_linear,
)
from .paths import Segment, SegmentKind, segment_from_csv

__all__ = ["ExperimentConfig", "load_config", "TASK_NAMES"]

# tasks that run the simulation engine and therefore need [model] + [sim]
_SIM_TASKS = ("simulate", "couple", "mixing", "invariant", "moments",
              "tightness", "kurtz")
# tasks needing a second initial segment
_PAIR_TASKS = ("couple", "mixing", "skorohod")

_MODEL_KEYS = {
    "name", "tau", "dim", "a", "b_lag", "sigma0", "kappa",
    "jump_scale", "intensity", "saturating", "mark_law",
    "mark_lo", "mark_hi", "mark_mu", "mark_sigma", "mark_value",
    "mark_atoms", "mark_weights",
    "delay", "lag", "delay_base", "delay_amp", "delay_freq",
    "delay_atoms", "delay_weights",
}
_INITIAL_KEYS = {
    "kind", "value", "start", "end", "amp", "freq", "phase", "offset",
    "path", "points", "tau",
}
_OUTPUT_KEYS = {"dir", "formats"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: one task plus everything it needs."""

    task: str
    task_params: dict
    model: ModelSpec | None
    sim: SimConfig | None
    xi: Segment | None
    eta: Segment | None
    out_dir: str | None
    formats: tuple
    config_sha256: str
    source_path: str

    @property
    def seed(self) -> int | None:
        return self.sim.master_seed if self.sim is not None else None

    def with_overrides(self, seed: int | None = None,
                       threads: int | None = None,
                       out_dir: str | None = None) -> "ExperimentConfig":
        sim = self.sim
        if sim is not None and (seed is not None or threads is not None):
            kw = {}
            if seed is not None:
                kw["master_seed"] = int(seed)
            if threads is not None:
                kw["threads"] = int(threads)
            sim = replace(sim, **kw)
        return ExperimentConfig(
            self.task, self.task_params, self.model, sim, self.xi, self.eta,
            out_dir if out_dir is not None else self.out_dir,
            self.formats, self.config_sha256, self.source_path)


# ---------------------------------------------------------------------------
# low-level readers
# ---------------------------------------------------------------------------

def _fail(section: str, msg: str):
    raise ConfigError(f"[{section}] {msg}")


def _check_keys(section: str, items: dict, allowed: set):
    unknown = sorted(set(items) - allowed)
    if unknown:
        raise ConfigError(
            f"[{section}] unknown key(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}")


def _get(items, section, key, conv, required=False, default=None):
    if key not in items:
        if required:
            _fail(section, f"missing required key '{key}'")
        return default
    raw = items[key].strip()
    try:
        return conv(raw)
    except ConfigError:
        raise
    except Exception:
        _fail(section, f"key '{key}': cannot parse {raw!r}")


def _as_float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _as_int(raw: str) -> int:
    v = int(raw, 0)
    return v


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _as_float_list(raw: str) -> tuple:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ValueError(raw)
    return tuple(_as_float(p) for p in parts)


def _as_str(raw: str) -> str:
    return raw


def _enum(section, key, raw, choices):
    if raw not in choices:
        _fail(section, f"key '{key}' must be one of {', '.join(choices)}, "
                       f"got {raw!r}")
    return raw


# ---------------------------------------------------------------------------
# [task] and [sim] vocabularies
# ---------------------------------------------------------------------------

def _task_enum(key, choices):
    return lambda raw: _enum("task", key, raw, choices)


def _check_ids(raw: str) -> tuple:
    ids = tuple(s.strip() for s in raw.split(",") if s.strip())
    for cid in ids:
        _enum("task", "checks", cid, ("drift-dissipation", "diffusion-domination",
                                      "neutral-conditions", "jump-conditions"))
    return ids


_REQUIRED = object()  # a task key without a default
_functional = _task_enum("functional", (
    "value_at_zero", "tanh_value_at_zero", "squared_value_at_zero",
    "clipped_sup_norm"))

# task -> its keys besides ``name``, in parse order: key -> (parser, default)
_TASKS = {
    "simulate": {"path_index": (_as_int, 0)},
    "couple": {"window_start": (_as_float, _REQUIRED),
               "window_end": (_as_float, _REQUIRED)},
    "mixing": {"functional": (_functional, _REQUIRED), "clip": (_as_float, 10.0),
               "eval_times": (_as_float_list, None),
               "pi_burn_in": (_as_float, None), "pi_ensemble": (_as_int, None)},
    "invariant": {"functional": (_functional, _REQUIRED),
                  "clip": (_as_float, 10.0), "burn_in": (_as_float, _REQUIRED),
                  "eval_stride": (_as_int, 1)},
    "moments": {"kappa_exp": (_as_float, 0.1), "burn_in": (_as_float, None),
                "n_eval": (_as_int, 25)},
    "tightness": {"deltas": (_as_float_list, _REQUIRED),
                  "eps": (_as_float, _REQUIRED), "n_eval": (_as_int, 12),
                  "burn_in": (_as_float, None)},
    "kurtz": {"eps_list": (_as_float_list, _REQUIRED), "n_eval": (_as_int, 6),
              "tail_start": (_as_float, None)},
    "halanay": {k: (_as_float, _REQUIRED) for k in ("a", "b", "tau")},
    "razumikhin": {k: (_as_float, _REQUIRED) for k in ("kappa", "lam", "tau", "q")},
    "check": {"checks": (_check_ids, None), "trials": (_as_int, 400),
              "p_exp": (_as_float, 0.0), "radius": (_as_float, 2.0),
              "unbounded": (_as_bool, False), "mark_samples": (_as_int, 256),
              "sampler_seed": (_as_int, 0), "t_max": (_as_float, 10.0)},
    "skorohod": {"space": (_task_enum("space", ("continuous", "step")), "step"),
                 "resolution": (_as_float, 0.0)},
}
TASK_NAMES = tuple(_TASKS)

# [sim] key -> parser, in parse order; the first three are required.  Each key
# names its SimConfig field (``seed`` is ``master_seed``), and a key the file
# leaves out takes SimConfig's own default
_SIM_PARSERS = {
    "step": _as_float, "horizon": _as_float, "seed": _as_int,
    "ensemble": _as_int, "threads": _as_int, "divergence_guard": _as_float,
    "fixed_point_tol": _as_float, "fixed_point_max_iter": _as_int,
    "segment_grid_points": _as_int,
}


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def _build_delay(items, tau: float):
    kind = _enum("model", "delay", items.get("delay", "point").strip(),
                 ("point", "variable_sin", "distributed"))
    if kind == "point":
        lag = _get(items, "model", "lag", _as_float, default=tau)
        if not 0.0 <= lag <= tau:
            _fail("model", f"lag must lie in [0, tau], got {lag!r}")
        return PointConstant(lag)
    if kind == "variable_sin":
        base = _get(items, "model", "delay_base", _as_float, required=True)
        amp = _get(items, "model", "delay_amp", _as_float, required=True)
        freq = _get(items, "model", "delay_freq", _as_float, default=1.0)
        if base - abs(amp) < 0.0 or base + abs(amp) > tau:
            _fail("model", "variable delay range [base-|amp|, base+|amp|] "
                           "must stay inside [0, tau]")

        def delta(t, _b=base, _a=amp, _f=freq):
            return _b + _a * math.sin(_f * t)

        return PointVariable(delta)
    atoms = _get(items, "model", "delay_atoms", _as_float_list, required=True)
    weights = _get(items, "model", "delay_weights", _as_float_list, required=True)
    return Distributed(atoms, weights)


def _build_mark_law(items):
    kind = _enum("model", "mark_law", items.get("mark_law", "uniform_signs").strip(),
                 ("uniform_signs", "uniform", "gaussian", "constant", "discrete"))
    if kind == "uniform_signs":
        return UniformSigns()
    if kind == "uniform":
        lo = _get(items, "model", "mark_lo", _as_float, required=True)
        hi = _get(items, "model", "mark_hi", _as_float, required=True)
        return UniformInterval(lo, hi)
    if kind == "gaussian":
        mu = _get(items, "model", "mark_mu", _as_float, default=0.0)
        sigma = _get(items, "model", "mark_sigma", _as_float, default=1.0)
        return GaussianMarks(mu, sigma)
    if kind == "constant":
        return ConstantMark(_get(items, "model", "mark_value", _as_float,
                                 default=1.0))
    atoms = _get(items, "model", "mark_atoms", _as_float_list, required=True)
    weights = _get(items, "model", "mark_weights", _as_float_list, required=True)
    return DiscreteMarks(atoms, weights)


def _build_model(items: dict) -> ModelSpec:
    _check_keys("model", items, _MODEL_KEYS)
    name = _enum("model", "name",
                 _get(items, "model", "name", _as_str, required=True),
                 ("linear_retarded", "neutral_linear", "jump_linear"))
    tau = _get(items, "model", "tau", _as_float, required=True)
    if tau <= 0:
        _fail("model", "tau must be positive")
    dim = _get(items, "model", "dim", _as_int, default=1)
    a = _get(items, "model", "a", _as_float, required=True)
    b_lag = _get(items, "model", "b_lag", _as_float, required=True)
    try:
        delay = _build_delay(items, tau)
        if name == "linear_retarded":
            sigma0 = _get(items, "model", "sigma0", _as_float_list, required=True)
            sig = sigma0[0] if len(sigma0) == 1 else np.array(sigma0)
            return linear_retarded(a, b_lag, sig, delay, tau, dim=dim)
        if name == "neutral_linear":
            sigma0 = _get(items, "model", "sigma0", _as_float_list, required=True)
            sig = sigma0[0] if len(sigma0) == 1 else np.array(sigma0)
            kappa = _get(items, "model", "kappa", _as_float, required=True)
            return neutral_linear(kappa, delay, a, b_lag, sig, tau, dim=dim)
        jump_scale = _get(items, "model", "jump_scale", _as_float, required=True)
        intensity = _get(items, "model", "intensity", _as_float, required=True)
        saturating = _get(items, "model", "saturating", _as_bool, default=False)
        return jump_linear(a, b_lag, jump_scale, intensity, _build_mark_law(items),
                           delay, tau, dim=dim, saturating=saturating)
    except ConfigError:
        raise
    except Exception as exc:  # domain errors from the builders
        raise ConfigError(f"[model] invalid parameters: {exc}") from exc


def _build_sim(items: dict) -> SimConfig:
    _check_keys("sim", items, set(_SIM_PARSERS))
    parsers = list(_SIM_PARSERS.items())
    given = {key: _get(items, "sim", key, conv, required=True)
             for key, conv in parsers[:3]}
    given.update((key, _get(items, "sim", key, conv))
                 for key, conv in parsers[3:] if key in items)
    given["master_seed"] = given.pop("seed")
    try:
        return SimConfig(**given)
    except Exception as exc:
        raise ConfigError(f"[sim] invalid parameters: {exc}") from exc


def _vector(raw_tuple, dim, section, key):
    arr = np.asarray(raw_tuple, dtype=float)
    if arr.size == 1:
        return np.full(dim, arr[0])
    if arr.size != dim:
        _fail(section, f"key '{key}' needs 1 or {dim} values, got {arr.size}")
    return arr


def _build_segment(items: dict, section: str, tau: float | None, dim: int,
                   kind: SegmentKind, base_dir: str) -> Segment:
    _check_keys(section, items, _INITIAL_KEYS)
    seg_kind = _enum(section, "kind",
                     _get(items, section, "kind", _as_str, required=True),
                     ("constant", "linear", "sine", "csv"))
    if seg_kind == "csv":
        rel = _get(items, section, "path", _as_str, required=True)
        path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        if not os.path.exists(path):
            _fail(section, f"segment file not found: {path}")
        seg = segment_from_csv(path, kind)
        if tau is not None and abs(seg.tau - tau) > 1e-9 * max(1.0, tau):
            _fail(section, f"segment window {seg.tau!r} does not match tau={tau!r}")
        return seg
    tau_here = _get(items, section, "tau", _as_float, default=tau)
    if tau_here is None:
        _fail(section, "key 'tau' is required when no [model] provides one")
    if tau is not None and abs(tau_here - tau) > 1e-9 * max(1.0, tau):
        _fail(section, f"tau={tau_here!r} conflicts with the model's {tau!r}")
    if tau_here <= 0:
        _fail(section, "tau must be positive")
    points = _get(items, section, "points", _as_int, default=101)
    if points < 2:
        _fail(section, "points must be >= 2")
    grid = np.linspace(-tau_here, 0.0, points)

    if seg_kind == "constant":
        v = _vector(_get(items, section, "value", _as_float_list, required=True),
                    dim, section, "value")
        vals = np.tile(v, (points, 1))
    elif seg_kind == "linear":
        lo = _vector(_get(items, section, "start", _as_float_list, required=True),
                     dim, section, "start")
        hi = _vector(_get(items, section, "end", _as_float_list, required=True),
                     dim, section, "end")
        w = (grid + tau_here) / tau_here
        vals = lo[None, :] + w[:, None] * (hi - lo)[None, :]
    else:  # sine: value(theta) = offset + amp * sin(freq * theta + phase)
        amp = _get(items, section, "amp", _as_float, default=1.0)
        freq = _get(items, section, "freq", _as_float, default=1.0)
        phase = _get(items, section, "phase", _as_float, default=0.0)
        offset = _get(items, section, "offset", _as_float, default=0.0)
        vals = np.tile(offset + amp * np.sin(freq * grid + phase)[:, None],
                       (1, dim))
    return Segment(kind, grid, vals)


def _build_task(items: dict) -> tuple[str, dict]:
    name = _enum("task", "name",
                 _get(items, "task", "name", _as_str, required=True), TASK_NAMES)
    keys = _TASKS[name]
    _check_keys("task", items, {"name", *keys})
    return name, {key: _get(items, "task", key, conv, required=default is _REQUIRED,
                            default=default)
                  for key, (conv, default) in keys.items()}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file; raises ConfigError on any
    unknown section/key, missing requirement, or unparseable value."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()

    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(blob.decode("utf-8"), source=path)
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    known = {"model", "sim", "task", "output", "initial", "initial2"}
    unknown = sorted(set(cp.sections()) - known)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}; "
                          f"allowed: {', '.join(sorted(known))}")
    if "task" not in cp:
        raise ConfigError("missing [task] section")

    task, params = _build_task(dict(cp["task"]))

    model = sim = None
    needs_engine = task in _SIM_TASKS
    if needs_engine:
        if "model" not in cp:
            raise ConfigError(f"task '{task}' needs a [model] section")
        if "sim" not in cp:
            raise ConfigError(f"task '{task}' needs a [sim] section")
    if "model" in cp:
        model = _build_model(dict(cp["model"]))
    if "sim" in cp:
        sim = _build_sim(dict(cp["sim"]))

    base_dir = os.path.dirname(os.path.abspath(path))
    xi = eta = None
    needs_initial = needs_engine or task == "skorohod"
    if needs_initial:
        if "initial" not in cp:
            raise ConfigError(f"task '{task}' needs an [initial] section")
        if task == "skorohod":
            kind = (SegmentKind.CADLAG_STEP if params["space"] == "step"
                    else SegmentKind.CONTINUOUS_LINEAR)
            tau_hint, dim = None, 1
        else:
            kind = (SegmentKind.CADLAG_STEP
                    if model.model_class is ModelClass.JUMP
                    else SegmentKind.CONTINUOUS_LINEAR)
            tau_hint, dim = model.tau, model.dim
        xi = _build_segment(dict(cp["initial"]), "initial", tau_hint, dim,
                            kind, base_dir)
        if task in _PAIR_TASKS:
            if "initial2" not in cp:
                raise ConfigError(f"task '{task}' needs an [initial2] section")
            eta = _build_segment(dict(cp["initial2"]), "initial2",
                                 tau_hint if tau_hint is not None else xi.tau,
                                 dim, kind, base_dir)
        elif "initial2" in cp:
            raise ConfigError(f"task '{task}' does not take [initial2]")

    out_dir = None
    formats = ("csv", "json")
    if "output" in cp:
        items = dict(cp["output"])
        _check_keys("output", items, _OUTPUT_KEYS)
        out_dir = _get(items, "output", "dir", _as_str)
        if out_dir is not None and not os.path.isabs(out_dir):
            out_dir = os.path.join(base_dir, out_dir)
        raw = _get(items, "output", "formats", _as_str)
        if raw is not None:
            formats = tuple(s.strip() for s in raw.split(",") if s.strip())
            for f in formats:
                _enum("output", "formats", f, ("csv", "json"))

    return ExperimentConfig(task, params, model, sim, xi, eta, out_dir,
                            formats, digest, os.path.abspath(path))
