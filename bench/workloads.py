"""The benchmark's three workloads.

A workload builds its inputs from the seed in ``__init__`` (INI files for
the CLI, models and segments for library calls), runs whole rounds of the
same operations in ``run_round``, and checks the outputs of one round in
``verify``, after the clock has stopped.  Every operation is one call into
sdelab's public surface: ``sdelab.cli.main`` on an INI file, or a library
function.  Calls go through module attributes (``sdelab.simulate``), so a
traced run sees them.

* ``continuous-mixing``: the batch route of ``ensemble.py`` through the
  CLI, in its two shapes (wide and short, narrow and long), with the
  neutral fixed point, the observers and Gaussian noise.
* ``per-path-ensembles``: everything that runs ``engine.simulate`` path by
  path: the jump class, hand-rolled coefficients, ``kurtz``'s own loop and
  the thread pool.
* ``pathspace-verify``: no simulation; Skorohod brackets, uniform
  distances, sampled hypothesis checkers and the rate calculators.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import replace

import numpy as np

import sdelab
import sdelab.cli
import sdelab.config
import sdelab.ensemble

import checks as ck

THREADS = 2


def _ini(sections) -> str:
    out = []
    for name, items in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {v}" for k, v in items.items()]
        out.append("")
    return "\n".join(out)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


def _artifacts(out_dir):
    """Every artifact of one CLI run except the manifest, which records wall time."""
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                blobs[name] = fh.read()
    return blobs


class Workload:
    """Common round bookkeeping: CLI runs, operation counts, outputs."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.configs = {}  # part name -> INI path
        self.attempted = 0
        self.failed = 0

    def _write_config(self, part, sections):
        path = os.path.join(self.workdir, f"{part}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_ini(sections))
        self.configs[part] = path

    def _cli(self, task, part, out_root, extra=()):
        """Run one CLI task; its artifacts land in ``out_root/part``."""
        out_dir = os.path.join(out_root, part)
        argv = [task, "--config", self.configs[part], "--output", out_dir, *extra]
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = sdelab.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sdelab {' '.join(argv)} exited with {code}")
        return out_dir

    def _op(self, fn, *args, **kwargs):
        """One library call: counted as attempted; exceptions propagate."""
        self.attempted += 1
        return fn(*args, **kwargs)

    def round_dir(self, r):
        path = os.path.join(self.workdir, f"round{r}")
        os.makedirs(path, exist_ok=True)
        return path

    def verify_routes(self, v: ck.Verifier):
        """Route-contract checks; only the batch-route workload has them."""


def fingerprint(obj):
    """A comparable copy of a round's outputs: artifact bytes of CLI runs
    (without the manifest) and exact values of library results."""
    if isinstance(obj, str) and os.path.isdir(obj):
        return _artifacts(obj)
    if isinstance(obj, dict):
        return {k: fingerprint(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [fingerprint(x) for x in obj]
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, sdelab.DistanceBracket):
        tc = obj.time_change
        return (obj.lower, obj.upper, obj.sup_distance, obj.n_candidates,
                tc.breakpoints.tobytes(), tc.images.tobytes())
    if isinstance(obj, sdelab.Verdict):
        return json.dumps(obj.to_json_dict(), sort_keys=True)
    return repr(obj)


# ---------------------------------------------------------------------------
# continuous-mixing
# ---------------------------------------------------------------------------

class ContinuousMixing(Workload):
    """Built-in retarded and neutral models on the batch route, via the CLI."""

    name = "continuous-mixing"
    RET = {"name": "linear_retarded", "a": 3, "b_lag": 1, "sigma0": 0.5, "tau": 1}
    NEU = {"name": "neutral_linear", "kappa": 0.25, "a": 3, "b_lag": 0.5,
           "sigma0": 0.5, "tau": 1}
    OU = {"name": "linear_retarded", "a": 1, "b_lag": 0, "sigma0": 1, "tau": 1}
    DIST = {"name": "linear_retarded", "a": 3, "b_lag": 1, "sigma0": 0.5, "tau": 1,
            "delay": "distributed", "delay_atoms": "-1 -0.5 -0.25",
            "delay_weights": "0.5 0.3 0.2"}
    MIX_PATHS = 4000  # the batch kernel's block holds 4096 paths
    PARTS = (("mixing", "mixing"), ("couple", "couple-retarded"),
             ("couple", "couple-neutral"), ("invariant", "invariant-ou"),
             ("moments", "moments-neutral"), ("tightness", "tightness-distributed"))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 1])
        sim_seed = lambda: int(rng.integers(1, 2**31))  # noqa: E731
        c = float(rng.uniform(0.5, 1.5))
        self.c = c
        self.sine = {"kind": "sine", "offset": round(float(rng.uniform(0.5, 1.0)), 6),
                     "amp": round(float(rng.uniform(0.2, 0.5)), 6),
                     "freq": round(float(rng.uniform(2.0, 4.0)), 6),
                     "phase": round(float(rng.uniform(0.0, 3.0)), 6)}
        self.line = {"kind": "linear", "start": round(float(rng.uniform(-1.5, -0.5)), 6),
                     "end": round(float(rng.uniform(-1.0, 0.0)), 6)}
        self.ou_start = round(float(rng.uniform(-1.0, 1.0)), 6)

        self._write_config("mixing", {
            "model": self.RET,
            "sim": {"step": 0.02, "horizon": 4, "seed": sim_seed(),
                    "ensemble": self.MIX_PATHS},
            "task": {"name": "mixing", "functional": "value_at_zero",
                     "eval_times": "1 2 3 4", "pi_burn_in": 2, "pi_ensemble": 1600},
            "initial": {"kind": "constant", "value": repr(c)},
            "initial2": {"kind": "constant", "value": repr(-c)}})
        for part, model in (("couple-retarded", self.RET), ("couple-neutral", self.NEU)):
            self._write_config(part, {
                "model": model,
                "sim": {"step": 0.01, "horizon": 8, "seed": sim_seed(), "ensemble": 200},
                "task": {"name": "couple", "window_start": 1, "window_end": 8},
                "initial": self.sine, "initial2": self.line})
        self._write_config("invariant-ou", {
            "model": self.OU,
            "sim": {"step": 0.01, "horizon": 120, "seed": sim_seed(), "ensemble": 2},
            "task": {"name": "invariant", "functional": "squared_value_at_zero",
                     "burn_in": 20},
            "initial": {"kind": "constant", "value": repr(self.ou_start)}})
        self._write_config("moments-neutral", {
            "model": self.NEU,
            "sim": {"step": 0.02, "horizon": 20, "seed": sim_seed(), "ensemble": 400},
            "task": {"name": "moments", "kappa_exp": 0.1, "n_eval": 25},
            "initial": {"kind": "constant", "value": repr(c)}})
        self._write_config("tightness-distributed", {
            "model": self.DIST,
            "sim": {"step": 0.02, "horizon": 10, "seed": sim_seed(), "ensemble": 400},
            "task": {"name": "tightness", "deltas": "0.5 0.2 0.1 0.05", "eps": 0.3,
                     "n_eval": 12},
            "initial": self.sine})
        self.route_paths = (0, 1, int(rng.integers(2, self.MIX_PATHS)))

    def run_round(self, r):
        root = self.round_dir(r)
        return {part: self._cli(task, part, root, ("--threads", str(THREADS)))
                for task, part in self.PARTS}

    def verify(self, dirs, v: ck.Verifier):
        # mixing: p_hat against the Euler mean recursion from +c; the two
        # invariant estimates against the recursion averaged over their record
        # window (it tends to 0, the symmetric invariant law's mean)
        h, k_hist, n_steps = 0.02, 50, 200
        mean_xi = ck.delay_recursion(3.0, 1.0, h, k_hist, n_steps, self.c)
        mean_eta = -mean_xi
        _, gaps = _read_csv(os.path.join(dirs["mixing"], "mixing_gaps.csv"))
        steps = np.round(gaps[:, 0] / h).astype(int)
        want = mean_xi[k_hist + steps]
        v.within_se("mixing p_hat", gaps[:, 1], want, gaps[:, 2], self.MIX_PATHS - 1)
        with open(os.path.join(dirs["mixing"], "mixing.json"), encoding="utf-8") as fh:
            mix = json.load(fh)
        burn = int(round(2.0 / h))
        dof = round(math.sqrt(1600)) - 1
        for key, se_key, mean in (("pi_hat", "pi_se", mean_eta),
                                  ("pi_hat_alt", "pi_se_alt", mean_xi)):
            ref = float(mean[k_hist + burn + 1:].mean())
            v.within_se(f"mixing {key}", mix[key], ref, mix[se_key], dof)

        # couple: synchronous coupling cancels the additive noise, so the curve
        # is the deterministic delay recursion's squared window sup
        h, k_hist, n_steps = 0.01, 100, 800
        grid = np.linspace(-1.0, 0.0, 101)
        d_hist = (_values(self.sine, grid) - _values(self.line, grid))[:, 0]
        for part, kappa, b in (("couple-retarded", 0.0, 1.0), ("couple-neutral", 0.25, 0.5)):
            _, curve = _read_csv(os.path.join(dirs[part], "coupling_curve.csv"))
            d = ck.delay_recursion(3.0, b, h, k_hist, n_steps, d_hist, kappa=kappa)
            ref = ck.window_sup(d, k_hist, np.round(curve[:, 0] / h).astype(int), 2)
            v.run(ck.check_close, f"{part} curve", curve[:, 1], ref, 1e-9,
                  perturbed=(f"{part} curve", curve[:, 1] * (1 + 1e-8), ref, 1e-9))

        # invariant on OU: the Euler scheme's exact stationary variance; the
        # two-path estimate's SE comes from 16 time blocks (15 dof)
        est, se = _read_invariant(os.path.join(dirs["invariant-ou"], "invariant.csv"))
        var = ck.ou_euler_variance(1.0, 1.0, 0.01)
        v.within_se("invariant-ou", est, var, se, 15)

        # moments: a mean of positive powers, its maximum, and a CI that
        # contains its own slope
        _, mom = _read_csv(os.path.join(dirs["moments-neutral"], "moments.csv"))
        with open(os.path.join(dirs["moments-neutral"], "moments.json"), encoding="utf-8") as fh:
            mj = json.load(fh)
        v.run(ck.check_true, "moments positive, max and CI",
              _moments_consistent(mom, mj),
              perturbed=("moments positive, max and CI",
                         _moments_consistent(mom, dict(mj, max_moment=mj["max_moment"] * 2))))

        # tightness: the modulus is monotone in delta pathwise
        _, tab = _read_csv(os.path.join(dirs["tightness-distributed"], "tightness.csv"))
        frac = tab[:, 1:]
        v.run(ck.check_nonincreasing, "tightness columns", frac,
              perturbed=("tightness columns", frac[::-1] + np.arange(frac.shape[0])[:, None]))
        v.run(ck.check_in_unit_interval, "tightness fractions", frac,
              perturbed=("tightness fractions", frac + 1.5))

    def verify_routes(self, v: ck.Verifier):
        """Batch route through ``run_ensemble`` against ``engine.simulate``,
        path by path, on every model of this workload."""
        for part in ("mixing", "couple-retarded", "couple-neutral", "invariant-ou",
                     "moments-neutral", "tightness-distributed"):
            cfg = sdelab.config.load_config(self.configs[part])
            sim = replace(cfg.sim, horizon=2.0)
            n_steps = int(round(sim.horizon / sim.step))
            k_hist = int(round(cfg.model.tau / sim.step))
            starts = [cfg.xi] + ([cfg.eta] if cfg.eta is not None else [])
            for xi in starts:
                for p in self.route_paths:
                    rec = sdelab.ensemble.WindowRecorder(
                        range(n_steps + 1), {"x": lambda w: w[..., -1, 0]}, 1)
                    sdelab.ensemble.run_ensemble(cfg.model, xi, sim, 1, rec, path_offset=p)
                    batch = rec.out["x"][0]
                    single = sdelab.simulate(cfg.model, xi, sim, path_index=p).states[k_hist:, 0]
                    v.run(ck.check_bitwise, f"route {part} path {p}", batch, single,
                          perturbed=(f"route {part} path {p}", np.nextafter(batch, np.inf),
                                     single))


def _read_invariant(path):
    """(estimate, stderr) from an ``invariant.csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        row = list(csv.reader(fh))[1]
    return float(row[1]), float(row[2])


def _moments_consistent(mom, mj):
    moments, ses = mom[:, 1], mom[:, 2]
    lo, hi = mj["slope_ci"]
    return bool(np.all(moments > 0) and np.all(ses >= 0)
                and mj["max_moment"] == float(moments.max())
                and lo <= mj["slope"] <= hi)


# ---------------------------------------------------------------------------
# per-path-ensembles
# ---------------------------------------------------------------------------

def nonlinear_drift(t, seg):
    x0 = seg.eval(0.0)
    return -x0 ** 3 - x0 + 0.5 * np.tanh(seg.eval(-1.0))


class PerPathEnsembles(Workload):
    """Everything that runs ``engine.simulate`` path by path."""

    name = "per-path-ensembles"
    JUMP = {"name": "jump_linear", "a": 3, "b_lag": 1, "jump_scale": 0.3,
            "intensity": 2, "mark_law": "uniform_signs", "tau": 1}
    LOOP_PATHS = 100
    LOOP_HORIZON = 2.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        sim_seed = lambda: int(rng.integers(1, 2**31))  # noqa: E731
        self.c_xi = round(float(rng.uniform(0.5, 1.5)), 6)
        self.c_eta = -round(float(rng.uniform(0.5, 1.5)), 6)
        const = lambda c: {"kind": "constant", "value": repr(c)}  # noqa: E731

        self._write_config("couple-jump", {
            "model": self.JUMP,
            "sim": {"step": 0.025, "horizon": 2.5, "seed": sim_seed(), "ensemble": 100},
            "task": {"name": "couple", "window_start": 1, "window_end": 2.5},
            "initial": const(self.c_xi), "initial2": const(self.c_eta)})
        self._write_config("moments-jump", {
            "model": self.JUMP,
            "sim": {"step": 0.02, "horizon": 8, "seed": sim_seed(), "ensemble": 20},
            "task": {"name": "moments", "kappa_exp": 0.1, "n_eval": 25},
            "initial": const(self.c_xi)})
        self._write_config("kurtz-jump", {
            "model": self.JUMP,
            "sim": {"step": 0.02, "horizon": 6, "seed": sim_seed(), "ensemble": 20},
            "task": {"name": "kurtz", "eps_list": "0.5 0.2 0.1", "n_eval": 6},
            "initial": const(self.c_xi)})
        self._write_config("invariant-jump", {
            "model": dict(self.JUMP, intensity=20),
            "sim": {"step": 0.01, "horizon": 60, "seed": sim_seed(), "ensemble": 1},
            "task": {"name": "invariant", "functional": "value_at_zero", "burn_in": 5},
            "initial": const(self.c_xi)})

        step_kind = sdelab.SegmentKind.CADLAG_STEP
        self.jump_model = sdelab.jump_linear(3.0, 1.0, 0.3, 2.0, sdelab.UniformSigns(),
                                             sdelab.PointConstant(1.0), 1.0)
        self.jump_xi = sdelab.Segment.constant(np.array([self.c_xi]), 1.0, kind=step_kind)
        self.loop_cfg = sdelab.SimConfig(step=0.01, horizon=self.LOOP_HORIZON,
                                         master_seed=sim_seed(), threads=THREADS)
        sigma = np.array([[0.5]])
        sigma.setflags(write=False)
        self.hand_model = sdelab.ModelSpec(
            model_class=sdelab.ModelClass.RETARDED, dim=1, brownian_dim=1, tau=1.0,
            drift=nonlinear_drift, diffusion=lambda t, seg: sigma,
            delay=sdelab.PointConstant(1.0))
        self.hand_xi = sdelab.Segment.constant(np.array([self.c_xi]), 1.0)
        self.hand_cfg = sdelab.SimConfig(step=0.02, horizon=100.0, master_seed=sim_seed(),
                                         ensemble=2, threads=THREADS)

    def run_round(self, r):
        root = self.round_dir(r)
        th = ("--threads", str(THREADS))
        out = {part: self._cli(task, part, root, th)
               for task, part in (("couple", "couple-jump"), ("moments", "moments-jump"),
                                  ("kurtz", "kurtz-jump"))}
        loop = np.empty((self.LOOP_PATHS, 2))
        for p in range(self.LOOP_PATHS):
            traj = self._op(sdelab.simulate, self.jump_model, self.jump_xi, self.loop_cfg,
                            path_index=p)
            loop[p, 0] = (traj.states[-1, 0] - traj.state_at(0.0)[0]
                          - traj.drift_integral[-1, 0])
            loop[p, 1] = traj.jump_times.size
        out["simulate-loop"] = loop
        out["invariant-jump"] = self._cli("invariant", "invariant-jump", root, th)
        out["invariant-hand"] = np.array(self._op(
            sdelab.time_average, self.hand_model, self.hand_xi,
            sdelab.ergodics.value_at_zero(), self.hand_cfg, 5.0))
        return out

    def verify(self, out, v: ck.Verifier):
        # couple: jumps and compensators cancel under synchronous coupling; the
        # curve differs from the uniform-grid recursion only through epoch nodes
        h, k_hist = 0.025, 40
        _, curve = _read_csv(os.path.join(out["couple-jump"], "coupling_curve.csv"))
        d = ck.delay_recursion(3.0, 1.0, h, k_hist, 100, self.c_xi - self.c_eta)
        ref = ck.window_sup(d, k_hist, np.round(curve[:, 0] / h).astype(int), 1)
        v.run(ck.check_close, "couple-jump curve", curve[:, 1], ref, 0.02,
              perturbed=("couple-jump curve", curve[:, 1] * 1.05, ref, 0.02))
        _, rate = _read_csv(os.path.join(out["couple-jump"], "coupling_rate.csv"))
        floor = 0.8 * ck.halanay_root(5.0, 1.0, 1.0) / 2.0
        v.run(ck.check_at_least, "couple-jump fitted rate", rate[0, 0], floor,
              perturbed=("couple-jump fitted rate", 0.9 * floor, floor))

        _, mom = _read_csv(os.path.join(out["moments-jump"], "moments.csv"))
        with open(os.path.join(out["moments-jump"], "moments.json"), encoding="utf-8") as fh:
            mj = json.load(fh)
        v.run(ck.check_true, "moments-jump positive, max and CI", _moments_consistent(mom, mj),
              perturbed=("moments-jump positive, max and CI",
                         _moments_consistent(-mom, mj)))

        # kurtz: nondecreasing in eps; at least eps * lambda * s^2 * E[z^2]
        head, tab = _read_csv(os.path.join(out["kurtz-jump"], "kurtz.csv"))
        eps = np.array([float(c.split("=")[1]) for c in head[1:]])
        vals = tab[:, 1:]
        v.run(ck.check_nonincreasing, "kurtz in eps", vals.T,
              perturbed=("kurtz in eps", vals.T[::-1] + 1.0))
        floor = eps * 2.0 * 0.3 ** 2 * 1.0
        v.run(ck.check_at_least, "kurtz floor", vals - floor, 0.0,
              perturbed=("kurtz floor", vals - 2 * floor - vals.max(), 0.0))

        # the simulate loop: the compensated jump sum has mean 0; the epoch
        # count is Poisson(lambda T N)
        loop = out["simulate-loop"]
        n = loop.shape[0]
        mart = loop[:, 0]
        se = float(mart.std(ddof=1) / math.sqrt(n))
        v.within_se("simulate-loop martingale", float(mart.mean()), 0.0, se, n - 1)
        lam_tn = 2.0 * self.LOOP_HORIZON * n
        total = float(loop[:, 1].sum())
        v.within_se("simulate-loop epochs", total, lam_tn, math.sqrt(lam_tn), 10**9)

        # invariant means of symmetric laws; one- and two-path estimates get
        # their SE from 16 time blocks (15 dof)
        est, se = _read_invariant(os.path.join(out["invariant-jump"], "invariant.csv"))
        hand_est, hand_se = out["invariant-hand"]
        for name, e, s in (("invariant-jump", est, se), ("invariant-hand", hand_est, hand_se)):
            v.within_se(name, e, 0.0, s, 15)


# ---------------------------------------------------------------------------
# pathspace-verify
# ---------------------------------------------------------------------------

def random_step_segment(rng, tau=1.0, max_jumps=5):
    """Cadlag segment with up to ``max_jumps`` interior jumps, values in [-2, 2]
    (the acceptance-08 pair distribution)."""
    n_jumps = int(rng.integers(0, max_jumps + 1))
    interior = np.sort(rng.uniform(-tau + 0.02 * tau, -0.02 * tau, size=n_jumps))
    if n_jumps:
        interior = interior[np.concatenate([[True], np.diff(interior) > 1e-4 * tau])]
    grid = np.concatenate([[-tau], interior, [0.0]])
    values = rng.uniform(-2.0, 2.0, size=(grid.size, 1))
    flags = np.zeros(grid.size, dtype=bool)
    flags[1:-1] = True
    return sdelab.Segment(sdelab.SegmentKind.CADLAG_STEP, grid, values, flags)


def indicator(u):
    return sdelab.Segment(sdelab.SegmentKind.CADLAG_STEP, np.array([-1.0, u, 0.0]),
                          np.array([0.0, 1.0, 1.0]), np.array([False, True, False]))


def _arrays(seg):
    kind = "step" if seg.kind is sdelab.SegmentKind.CADLAG_STEP else "linear"
    return kind, np.asarray(seg.grid), np.asarray(seg.values)


class PathspaceVerify(Workload):
    """Skorohod brackets, uniform distances, checkers and rates; no simulation."""

    name = "pathspace-verify"
    STREAM_PAIRS = 600
    DEFAULT_PAIRS = 40
    SELF_PAIRS = 20
    INDICATORS = 16
    RATE_SETS = 300
    # windows of tau = 1 and tau = 1 + 5e-10: accepted as compatible, then
    # rejected by the evaluator; fixed inputs, failing on every run
    MISMATCH_PAIRS = 3
    MISMATCH_TAU = 1.0 + 5e-10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 3])
        self.stream_params = sdelab.SearchParams(max_match_points=3, lower_bound_levels=4)
        self.stream = [(random_step_segment(rng), random_step_segment(rng))
                       for _ in range(self.STREAM_PAIRS)]
        self.default = [(random_step_segment(rng), random_step_segment(rng))
                        for _ in range(self.DEFAULT_PAIRS)]
        self.selfs = [random_step_segment(rng) for _ in range(self.SELF_PAIRS)]
        self.indicators = []
        while len(self.indicators) < self.INDICATORS:
            u, w = (round(float(x), 6) for x in rng.uniform(-0.9, -0.1, size=2))
            if abs(u - w) > 1e-3:
                self.indicators.append((u, w))
        fixed = np.random.default_rng(0x7A5)
        self.mismatch = []
        for _ in range(self.MISMATCH_PAIRS):
            a = random_step_segment(fixed)
            b = random_step_segment(fixed, tau=self.MISMATCH_TAU)
            self.mismatch.append((a, b))

        # continuous-linear pairs through the CLI skorohod task; fixed inputs,
        # because how many of the 12 870 candidate matchings a pair prunes
        # (0.5 to 1.6 s per pair) depends on its shape
        shapes = np.random.default_rng(0x5E1)

        def sine():
            return {"kind": "sine", "tau": 1, "points": 101,
                    "offset": round(float(shapes.uniform(-0.5, 0.5)), 6),
                    "amp": round(float(shapes.uniform(0.5, 1.5)), 6),
                    "freq": round(float(shapes.uniform(4.0, 8.0)), 6),
                    "phase": round(float(shapes.uniform(0.0, 3.0)), 6)}
        line = {"kind": "linear", "tau": 1, "points": 101,
                "start": round(float(shapes.uniform(-1.0, 1.0)), 6),
                "end": round(float(shapes.uniform(-1.0, 1.0)), 6)}
        self.linear_pairs = {"skorohod-sine-sine-1": (sine(), sine()),
                             "skorohod-sine-sine-2": (sine(), sine()),
                             "skorohod-sine-linear": (sine(), line)}
        for part, (a, b) in self.linear_pairs.items():
            self._write_config(part, {
                "task": {"name": "skorohod", "space": "continuous"},
                "initial": a, "initial2": b})

        check = lambda trials: {"name": "check", "trials": trials,  # noqa: E731
                                "sampler_seed": int(rng.integers(0, 2**31))}
        self._write_config("check-retarded", {
            "model": {"name": "linear_retarded", "a": 3, "b_lag": 1, "sigma0": 0.5, "tau": 1},
            "task": check(400)})
        self._write_config("check-weak", {
            "model": {"name": "linear_retarded", "a": 0.4, "b_lag": 1, "sigma0": 0.5, "tau": 1},
            "task": dict(check(400), checks="drift-dissipation")})
        self._write_config("check-neutral", {
            "model": {"name": "neutral_linear", "kappa": 0.49, "a": 1, "b_lag": 0.95,
                      "sigma0": 0.5, "tau": 1},
            "task": check(400)})
        self._write_config("check-jump", {
            "model": {"name": "jump_linear", "a": 3, "b_lag": 1, "jump_scale": 0.3,
                      "intensity": 2, "mark_law": "gaussian", "mark_mu": 0,
                      "mark_sigma": 1, "tau": 1},
            "task": dict(check(200), mark_samples=256)})

        b = rng.uniform(1e-3, 5.0, self.RATE_SETS)
        self.halanay_sets = np.stack([b + rng.uniform(1e-3, 1.0, self.RATE_SETS) * (10.0 - b),
                                      b, rng.uniform(0.01, 5.0, self.RATE_SETS)], axis=1)
        kappa = rng.uniform(0.0, 0.9, self.RATE_SETS)
        self.razumikhin_sets = np.stack([
            kappa, rng.uniform(0.1, 5.0, self.RATE_SETS), rng.uniform(0.1, 3.0, self.RATE_SETS),
            rng.uniform(1.05, 4.0, self.RATE_SETS) / (1.0 - kappa) ** 2], axis=1)

    def run_round(self, r):
        root = self.round_dir(r)
        out = {}
        out["stream"] = [(self._op(sdelab.skorohod_distance, a, b, self.stream_params),
                          self._op(sdelab.uniform_distance, a, b)) for a, b in self.stream]
        out["default"] = [(self._op(sdelab.skorohod_distance, a, b),
                           self._op(sdelab.uniform_distance, a, b)) for a, b in self.default]
        out["self"] = [self._op(sdelab.skorohod_distance, a, a) for a in self.selfs]
        out["indicators"] = [self._op(sdelab.skorohod_distance, indicator(u), indicator(w))
                             for u, w in self.indicators]
        for part in self.linear_pairs:
            out[part] = self._cli("skorohod", part, root)
        for part in ("check-retarded", "check-weak", "check-neutral", "check-jump"):
            out[part] = self._cli("check", part, root)
        out["halanay"] = [self._op(sdelab.halanay_rate, *p) for p in self.halanay_sets]
        out["razumikhin"] = [self._op(sdelab.razumikhin_gamma, *p)
                             for p in self.razumikhin_sets]
        out["mismatch"] = []
        for a, b in self.mismatch:
            got = []
            for fn in (sdelab.skorohod_distance, sdelab.uniform_distance):
                try:
                    got.append(self._op(fn, a, b))
                except sdelab.DomainError:
                    self.failed += 1
            out["mismatch"].append(got)
        return out

    def verify(self, out, v: ck.Verifier):
        def brackets(label, rows):
            """rows of (lower, upper, program's sup, reference sup)"""
            lower, upper, sup, ref = np.array(rows, dtype=float).reshape(-1, 4).T
            v.run(ck.check_order, label, lower, upper, sup,
                  perturbed=(label, lower, upper + 0.5, sup))
            v.run(ck.check_close, label + " sup", sup, ref, 1e-12, 1e-12,
                  perturbed=(label + " sup", sup * (1 + 1e-9), ref, 1e-12, 1e-12))

        def step_rows(pairs, results):
            return [(br.lower, br.upper, sup, ck.sup_distance(_arrays(a), _arrays(b)))
                    for (a, b), (br, sup) in zip(pairs, results)]

        brackets("stream", step_rows(self.stream, out["stream"]))
        brackets("default", step_rows(self.default, out["default"]))
        selfs = np.array([(br.lower, br.upper) for br in out["self"]])
        v.run(ck.check_close, "self-distance", selfs, np.zeros_like(selfs),
              perturbed=("self-distance", selfs + 1e-300, np.zeros_like(selfs)))

        ind = np.array([(br.lower, ck.indicator_distance(u, w), br.upper)
                        for br, (u, w) in zip(out["indicators"], self.indicators)])
        v.run(ck.check_sandwich, "indicator closed form", ind,
              perturbed=("indicator closed form", ind + [0.0, 2.0, 0.0]))

        grid = np.linspace(-1.0, 0.0, 101)
        rows = []
        for part, (sa, sb) in self.linear_pairs.items():
            _, row = _read_csv(os.path.join(out[part], "skorohod.csv"))
            rows.append((*row[0, :3], ck.sup_distance(("linear", grid, _values(sa, grid)),
                                                      ("linear", grid, _values(sb, grid)))))
        brackets("continuous-linear", rows)

        self._verify_checkers(out, v)

        halanay = np.array(out["halanay"])
        ref = np.array([ck.halanay_root(*p) for p in self.halanay_sets])
        v.run(ck.check_close, "halanay_rate", halanay, ref, 0.0, 1e-9,
              perturbed=("halanay_rate", halanay + 2e-9, ref, 0.0, 1e-9))
        gammas = np.array(out["razumikhin"])
        v.run(ck.check_razumikhin, "razumikhin_gamma", gammas, self.razumikhin_sets,
              perturbed=("razumikhin_gamma", self.razumikhin_sets[:, 1], self.razumikhin_sets))

        # the tau-mismatch pairs raise today; once mended they must bracket
        mended = [(pair, got) for pair, got in zip(self.mismatch, out["mismatch"])
                  if len(got) == 2]
        if mended:
            brackets("tau-mismatch", step_rows([p for p, _ in mended], [g for _, g in mended]))

    def _verify_checkers(self, out, v):
        def verdicts(part):
            with open(os.path.join(out[part], "check_verdicts.json"), encoding="utf-8") as fh:
                return {d["check"]: d for d in json.load(fh)}

        ret = verdicts("check-retarded")
        drift = ret["drift-dissipation"]
        a1, a2 = drift["constants"]["alpha1"], drift["constants"]["alpha2"]
        passed = all(d["status"] == "PassWithConstants" for d in ret.values())
        v.run(ck.check_true, "check-retarded passes", passed,
              perturbed=("check-retarded passes", False))
        v.run(ck.check_close, "check-retarded alpha1", a1, 5.0, 0.1,
              perturbed=("check-retarded alpha1", a1 * 1.25, 5.0, 0.1))
        v.run(ck.check_true, "check-retarded alpha2 <= 1.1 b", a2 <= 1.1,
              perturbed=("check-retarded alpha2 <= 1.1 b", a2 + 1.0 <= 1.1))
        weak = verdicts("check-weak")["drift-dissipation"]
        v.run(ck.check_true, "check-weak does not pass", weak["status"] != "PassWithConstants",
              perturbed=("check-weak does not pass", False))
        gate = verdicts("check-neutral")["neutral-rate-gate"]
        rejects = (gate["status"] == "FailWithWitness"
                   and any("violated" in n for n in gate["notes"]))
        v.run(ck.check_true, "check-neutral gate rejects", rejects,
              perturbed=("check-neutral gate rejects", False))
        jump = verdicts("check-jump")
        mc = all(d["status"] == "PassWithConstants" and d["constants"]["marks_exact"] is False
                 for d in jump.values())
        v.run(ck.check_true, "check-jump Monte Carlo marks pass", mc,
              perturbed=("check-jump Monte Carlo marks pass", False))


def _values(spec, grid):
    """An INI ``sine``/``linear`` initial segment on ``[-1, 0]``, evaluated on ``grid``."""
    if spec["kind"] == "sine":
        return (spec["offset"] + spec["amp"] * np.sin(spec["freq"] * grid + spec["phase"]))[:, None]
    w = grid + 1.0
    return (spec["start"] + w * (spec["end"] - spec["start"]))[:, None]


WORKLOADS = {w.name: w for w in (ContinuousMixing, PerPathEnsembles, PathspaceVerify)}
