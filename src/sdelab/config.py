"""Experiment configuration files.

The on-disk format is flat INI: sections of ``key = value`` lines, parsed
with :mod:`configparser` (no interpolation, ``#``/``;`` comments).  Unknown
keys are rejected, so a typo, or a key that the chosen model, delay, mark
law or segment kind does not read, fails loudly instead of silently running
a default.  Seeds are always explicit — there is no wall-clock fallback.

Sections
--------
``[model]``     built-in model name plus its parameters.
``[sim]``       discretization / reproducibility knobs (``SimConfig``).
``[task]``      exactly one task ``name`` plus task-specific parameters.
``[output]``    the artifact directory ``dir``, and nothing else.
``[initial]``   initial segment (``[initial2]`` for two-segment tasks).

:func:`_parse` reads every section from a table, key -> (parser, default).
A selector key (the task or model ``name``, ``delay``, ``mark_law``, a
segment ``kind``) picks a variant, whose own table (``_TASKS``,
``_MODELS``, ``_DELAYS``, ``_MARK_LAWS``, ``_SEGMENTS``) parses in its
place; a key of no chosen table is refused with the chosen vocabulary.
``[sim]`` keys are ``SimConfig`` fields (``seed`` is ``master_seed``), and
one the file leaves out takes ``SimConfig``'s own default.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .engine import SimConfig
from .errors import ConfigError, DomainError
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
        return replace(self, sim=sim,
                       out_dir=out_dir if out_dir is not None else self.out_dir)


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


_REQUIRED = object()  # the default of a key the section must set


def _get(items, section, key, conv, default=None):
    if key not in items:
        if default is _REQUIRED:
            _fail(section, f"missing required key '{key}'")
        return default
    raw = items[key].strip()
    try:
        return conv(raw)
    except ConfigError:
        raise
    except Exception:
        _fail(section, f"key '{key}': cannot parse {raw!r}")


def _parse(section: str, items: dict, table: dict) -> dict:
    """Check and parse one section by its key table, key -> (parser, default).

    A parser that is a dict is a selector: the key's value must name one of
    its variants, whose own table then parses in the key's place.  Keys
    outside the chosen tables are refused before any other value is parsed.
    """
    rows, values = list(table.items()), {}
    i = 0
    while i < len(rows):
        key, (conv, default) = rows[i]
        i += 1
        if isinstance(conv, dict):
            values[key] = _enum(section, key, _get(items, section, key, _as_str, default),
                                tuple(conv))
            rows[i:i] = conv[values[key]].items()
    _check_keys(section, items, {key for key, _ in rows})
    for key, (conv, default) in rows:
        if key not in values:
            values[key] = _get(items, section, key, conv, default)
    return values


def _as_float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(raw)
    return v


def _as_int(raw: str) -> int:
    return int(raw, 0)


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
# key tables: key -> (parser, default), in parse order
# ---------------------------------------------------------------------------

def _task_enum(key, choices):
    return lambda raw: _enum("task", key, raw, choices)


def _check_ids(raw: str) -> tuple:
    ids = tuple(s.strip() for s in raw.split(",") if s.strip())
    for cid in ids:
        _enum("task", "checks", cid, ("drift-dissipation", "diffusion-domination",
                                      "neutral-conditions", "jump-conditions"))
    return ids


_functional = _task_enum("functional", (
    "value_at_zero", "tanh_value_at_zero", "squared_value_at_zero",
    "clipped_sup_norm"))

# task -> its keys besides ``name``
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

# the first three are required; the rest default to SimConfig's own defaults
_SIM = {"step": (_as_float, _REQUIRED), "horizon": (_as_float, _REQUIRED),
        "seed": (_as_int, _REQUIRED),
        **{key: (conv, getattr(SimConfig, key)) for key, conv in (
            ("ensemble", _as_int), ("threads", _as_int),
            ("divergence_guard", _as_float), ("fixed_point_tol", _as_float),
            ("fixed_point_max_iter", _as_int))}}

# a point lag left out is the whole window, tau
_DELAYS = {
    "point": {"lag": (_as_float, None)},
    "variable_sin": {"delay_base": (_as_float, _REQUIRED),
                     "delay_amp": (_as_float, _REQUIRED),
                     "delay_freq": (_as_float, 1.0)},
    "distributed": {"delay_atoms": (_as_float_list, _REQUIRED),
                    "delay_weights": (_as_float_list, _REQUIRED)},
}

# mark law -> (its class, its keys in the class's argument order)
_MARK_LAWS = {
    "uniform_signs": (UniformSigns, {}),
    "uniform": (UniformInterval, {"mark_lo": (_as_float, _REQUIRED),
                                  "mark_hi": (_as_float, _REQUIRED)}),
    "gaussian": (GaussianMarks, {"mark_mu": (_as_float, 0.0),
                                 "mark_sigma": (_as_float, 1.0)}),
    "constant": (ConstantMark, {"mark_value": (_as_float, 1.0)}),
    "discrete": (DiscreteMarks, {"mark_atoms": (_as_float_list, _REQUIRED),
                                 "mark_weights": (_as_float_list, _REQUIRED)}),
}

# every model reads these first, then its own keys
_MODEL = {"tau": (_as_float, _REQUIRED), "dim": (_as_int, 1),
          "a": (_as_float, _REQUIRED), "b_lag": (_as_float, _REQUIRED),
          "delay": (_DELAYS, "point")}
_SIGMA0 = (_as_float_list, _REQUIRED)
_MODELS = {
    "linear_retarded": {**_MODEL, "sigma0": _SIGMA0},
    "neutral_linear": {**_MODEL, "sigma0": _SIGMA0, "kappa": (_as_float, _REQUIRED)},
    "jump_linear": {**_MODEL, "jump_scale": (_as_float, _REQUIRED),
                    "intensity": (_as_float, _REQUIRED), "saturating": (_as_bool, False),
                    "mark_law": ({law: keys for law, (_, keys) in _MARK_LAWS.items()},
                                 "uniform_signs")},
}

# the window keys; a tau left out is the model's
_WINDOW = {"tau": (_as_float, None), "points": (_as_int, 101)}
_SEGMENTS = {
    "constant": {**_WINDOW, "value": (_as_float_list, _REQUIRED)},
    "linear": {**_WINDOW, "start": (_as_float_list, _REQUIRED),
               "end": (_as_float_list, _REQUIRED)},
    # value(theta) = offset + amp * sin(freq * theta + phase)
    "sine": {**_WINDOW, "amp": (_as_float, 1.0), "freq": (_as_float, 1.0),
             "phase": (_as_float, 0.0), "offset": (_as_float, 0.0)},
    "csv": {"path": (_as_str, _REQUIRED)},
}


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------

def _build_delay(p: dict, tau: float):
    kind = p["delay"]
    if kind == "point":
        lag = tau if p["lag"] is None else p["lag"]
        if not 0.0 <= lag <= tau:
            _fail("model", f"lag must lie in [0, tau], got {lag!r}")
        return PointConstant(lag)
    if kind == "variable_sin":
        base, amp, freq = p["delay_base"], p["delay_amp"], p["delay_freq"]
        if base - abs(amp) < 0.0 or base + abs(amp) > tau:
            _fail("model", "variable delay range [base-|amp|, base+|amp|] "
                           "must stay inside [0, tau]")

        def delta(t, _b=base, _a=amp, _f=freq):
            return _b + _a * math.sin(_f * t)

        return PointVariable(delta)
    return Distributed(p["delay_atoms"], p["delay_weights"])


def _build_model(items: dict) -> ModelSpec:
    p = _parse("model", items, {"name": (_MODELS, _REQUIRED)})
    name, tau, dim = p["name"], p["tau"], p["dim"]
    if tau <= 0:
        _fail("model", "tau must be positive")
    try:
        delay = _build_delay(p, tau)
        if name == "jump_linear":
            cls, keys = _MARK_LAWS[p["mark_law"]]
            return jump_linear(p["a"], p["b_lag"], p["jump_scale"], p["intensity"],
                               cls(*(p[k] for k in keys)), delay, tau, dim=dim,
                               saturating=p["saturating"])
        sigma0 = p["sigma0"]
        sig = sigma0[0] if len(sigma0) == 1 else np.array(sigma0)
        if name == "linear_retarded":
            return linear_retarded(p["a"], p["b_lag"], sig, delay, tau, dim=dim)
        return neutral_linear(p["kappa"], delay, p["a"], p["b_lag"], sig, tau, dim=dim)
    except ConfigError:
        raise
    except Exception as exc:  # domain errors from the builders
        raise ConfigError(f"[model] invalid parameters: {exc}") from exc


def _build_sim(items: dict) -> SimConfig:
    given = _parse("sim", items, _SIM)
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
    p = _parse(section, items, {"kind": (_SEGMENTS, _REQUIRED)})
    seg_kind = p["kind"]
    if seg_kind == "csv":
        path = os.path.join(base_dir, p["path"])  # an absolute path stays as it is
        if not os.path.isfile(path):
            _fail(section, f"segment file not found: {path}")
        try:
            seg = segment_from_csv(path, kind)
        except DomainError as exc:
            _fail(section, str(exc))
        if tau is not None and abs(seg.tau - tau) > 1e-9 * max(1.0, tau):
            _fail(section, f"segment window {seg.tau!r} does not match tau={tau!r}")
        return seg
    tau_here = tau if p["tau"] is None else p["tau"]
    if tau_here is None:
        _fail(section, "key 'tau' is required when no [model] provides one")
    if tau is not None and abs(tau_here - tau) > 1e-9 * max(1.0, tau):
        _fail(section, f"tau={tau_here!r} conflicts with the model's {tau!r}")
    if tau_here <= 0:
        _fail(section, "tau must be positive")
    points = p["points"]
    if points < 2:
        _fail(section, "points must be >= 2")
    grid = np.linspace(-tau_here, 0.0, points)

    if seg_kind == "constant":
        vals = np.tile(_vector(p["value"], dim, section, "value"), (points, 1))
    elif seg_kind == "linear":
        lo = _vector(p["start"], dim, section, "start")
        hi = _vector(p["end"], dim, section, "end")
        w = (grid + tau_here) / tau_here
        vals = lo[None, :] + w[:, None] * (hi - lo)[None, :]
    else:
        wave = p["offset"] + p["amp"] * np.sin(p["freq"] * grid + p["phase"])
        vals = np.tile(wave[:, None], (1, dim))
    return Segment(kind, grid, vals)


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

    task_items = dict(cp["task"])
    params = _parse("task", task_items, {"name": (_TASKS, _REQUIRED)})
    task = params.pop("name")
    if "clip" in task_items and params["functional"] != "clipped_sup_norm":
        _fail("task", "key 'clip' is read only with functional = clipped_sup_norm")

    model = sim = None
    needs_engine = task in _SIM_TASKS
    if needs_engine:
        if "model" not in cp:
            raise ConfigError(f"task '{task}' needs a [model] section")
        if "sim" not in cp:
            raise ConfigError(f"task '{task}' needs a [sim] section")
    if "model" in cp:
        model = _build_model(dict(cp["model"]))
        # the checks that read these keys refuse every other model class
        for key, cls in (("p_exp", ModelClass.RETARDED), ("mark_samples", ModelClass.JUMP)):
            if key in task_items and model.model_class is not cls:
                _fail("task", f"key '{key}' is read only for a {cls.value} model")
    if "sim" in cp:
        sim = _build_sim(dict(cp["sim"]))

    base_dir = os.path.dirname(os.path.abspath(path))
    xi = eta = None
    if needs_engine or task == "skorohod":
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

    out_dir = _parse("output", dict(cp["output"]) if "output" in cp else {},
                     {"dir": (_as_str, None)})["dir"]
    if out_dir is not None:
        out_dir = os.path.join(base_dir, out_dir)  # an absolute dir stays as it is

    return ExperimentConfig(task, params, model, sim, xi, eta, out_dir,
                            digest, os.path.abspath(path))
