"""Config-driven experiment runner.

One invocation runs one task from an experiment file and writes
analysis-ready artifacts (CSV series, JSON reports) plus a ``manifest.json``
recording the config hash, seed, thread count, library version, and wall
time — enough to re-run the experiment byte-for-byte.

Exit codes: 0 success; 2 configuration error; 3 numerical failure
(divergence / non-convergence); 4 a non-Pass verdict under ``check
--strict``.  Every nonzero exit also emits a single machine-readable line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .config import ExperimentConfig, TASK_NAMES, load_config
from .conditions import (
    SegmentPairSampler,
    VerdictStatus,
    check_diffusion_domination,
    check_drift_dissipation,
    check_jump_conditions,
    check_neutral_conditions,
)
from .engine import simulate, trajectory_to_csv
from .ergodics import (
    clipped_sup_norm,
    kurtz_diagnostic,
    mixing_check,
    moment_bound_check,
    squared_value_at_zero,
    tanh_value_at_zero,
    tightness_diagnostic,
    time_average,
    value_at_zero,
)
from .errors import ConfigError, DomainError, ModelContractError, NumericalError
from .models import ModelClass
from .paths import SearchParams, homeomorphism_norm, segment_to_csv, skorohod_distance
from .rates import halanay_rate, mixing_rate_estimate, razumikhin_gamma

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdelab",
        description="simulation and verification runner for delay equations")
    sub = ap.add_subparsers(dest="task", required=True, metavar="TASK")
    for name in TASK_NAMES:
        sp = sub.add_parser(name, help=f"run a '{name}' experiment")
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="experiment file (INI sections of key = value)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override [sim] seed")
        sp.add_argument("--threads", type=int, default=None,
                        help="override [sim] threads; recorded in the manifest, "
                             "selects nothing (every route runs in one thread)")
        sp.add_argument("--output", default=None, metavar="DIR",
                        help="override [output] dir")
        if name == "check":
            sp.add_argument("--strict", action="store_true",
                            help="exit 4 unless every verdict passes")
    return ap


def _err_line(code: int, exc: BaseException) -> str:
    detail = " ".join(str(exc).split())
    return f"sdelab-error code={code} kind={type(exc).__name__} detail=\"{detail}\""


def _functional(params):
    name = params["functional"]
    if name == "clipped_sup_norm":
        return clipped_sup_norm(params.get("clip", 10.0))
    return {"value_at_zero": value_at_zero,
            "tanh_value_at_zero": tanh_value_at_zero,
            "squared_value_at_zero": squared_value_at_zero}[name]()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# task runners: (cfg, out_dir, args) -> (artifact names, status, exit code)
# ---------------------------------------------------------------------------

def _run_halanay(cfg, out, args):
    p = cfg.task_params
    lam = halanay_rate(p["a"], p["b"], p["tau"])
    print(f"decay rate lambda = {lam:.17g}  "
          f"(a={p['a']:g}, b={p['b']:g}, tau={p['tau']:g})")
    _write(os.path.join(out, "halanay.csv"),
           "a,b,tau,lambda\n"
           f"{p['a']:.17g},{p['b']:.17g},{p['tau']:.17g},{lam:.17g}\n")
    return ["halanay.csv"], "ok", 0


def _run_razumikhin(cfg, out, args):
    p = cfg.task_params
    gamma = razumikhin_gamma(p["kappa"], p["lam"], p["tau"], p["q"])
    print(f"certified exponent gamma = {gamma:.17g}  "
          f"(kappa={p['kappa']:g}, lam={p['lam']:g}, tau={p['tau']:g}, "
          f"q={p['q']:g})")
    _write(os.path.join(out, "razumikhin.csv"),
           "kappa,lam,tau,q,gamma\n"
           f"{p['kappa']:.17g},{p['lam']:.17g},{p['tau']:.17g},"
           f"{p['q']:.17g},{gamma:.17g}\n")
    return ["razumikhin.csv"], "ok", 0


def _run_simulate(cfg, out, args):
    traj = simulate(cfg.model, cfg.xi, cfg.sim,
                    path_index=cfg.task_params["path_index"])
    trajectory_to_csv(traj, os.path.join(out, "trajectory.csv"))
    tail = ", ".join(f"{v:.6g}" for v in traj.states[-1])
    print(f"simulated to t={traj.horizon:g}; final state [{tail}]")
    if traj.max_fixed_point_iters:
        print(f"max fixed-point iterations per step: {traj.max_fixed_point_iters}")
    if traj.diverged:
        print(f"path diverged at t={traj.diverged_at:g} (guard "
              f"{cfg.sim.divergence_guard:g}); trajectory truncated")
        return ["trajectory.csv"], "diverged", 3
    return ["trajectory.csv"], "ok", 0


def _run_couple(cfg, out, args):
    p = cfg.task_params
    rep = mixing_rate_estimate(cfg.model, cfg.xi, cfg.eta, cfg.sim,
                               (p["window_start"], p["window_end"]))
    rep.curve_csv(os.path.join(out, "coupling_curve.csv"))
    _write(os.path.join(out, "coupling_rate.csv"),
           rep.CSV_HEADER + "\n" + rep.to_csv_row() + "\n")
    print(rep.to_text())
    return ["coupling_curve.csv", "coupling_rate.csv"], "ok", 0


def _run_mixing(cfg, out, args):
    p = cfg.task_params
    rep = mixing_check(cfg.model, cfg.xi, cfg.eta, _functional(p), cfg.sim,
                       eval_times=p["eval_times"], pi_burn_in=p["pi_burn_in"],
                       pi_ensemble=p["pi_ensemble"])
    arts = ["mixing_gaps.csv"]
    rep.to_csv(os.path.join(out, "mixing_gaps.csv"))
    if "json" in cfg.formats:
        _write(os.path.join(out, "mixing.json"), rep.to_json())
        arts.append("mixing.json")
    print(f"pi_hat = {rep.pi_hat:.17g} +- {rep.pi_se:.3g}; "
          f"alt = {rep.pi_hat_alt:.17g} +- {rep.pi_se_alt:.3g}; "
          f"agree within 3 SE: {rep.pi_agree}")
    print(f"gap decay: fitted_rate={rep.fitted_rate:.6g} "
          f"r_squared={rep.r_squared:.6g} n_fit_points={rep.n_fit_points}")
    if rep.note:
        print(f"note: {rep.note}")
    return arts, "ok", 0


def _run_invariant(cfg, out, args):
    p = cfg.task_params
    func = _functional(p)
    est, se = time_average(cfg.model, cfg.xi, func, cfg.sim, p["burn_in"],
                           eval_stride=p["eval_stride"])
    _write(os.path.join(out, "invariant.csv"),
           "functional,estimate,stderr\n"
           f"{func.name},{est:.17g},{se:.17g}\n")
    print(f"time average of {func.name}: {est:.17g} +- {se:.3g}")
    return ["invariant.csv"], "ok", 0


def _run_moments(cfg, out, args):
    p = cfg.task_params
    rep = moment_bound_check(cfg.model, cfg.xi, cfg.sim, p["kappa_exp"],
                             burn_in=p["burn_in"], n_eval=p["n_eval"])
    arts = ["moments.csv"]
    rep.to_csv(os.path.join(out, "moments.csv"))
    if "json" in cfg.formats:
        _write(os.path.join(out, "moments.json"), rep.to_json())
        arts.append("moments.json")
    lo, hi = rep.slope_ci
    print(f"sup-moment power {rep.power:g}: max {rep.max_moment:.6g}, "
          f"slope {rep.slope:.3g} with 99% CI [{lo:.3g}, {hi:.3g}] "
          f"(contains zero: {rep.contains_zero})")
    return arts, "ok", 0


def _run_tightness(cfg, out, args):
    p = cfg.task_params
    tbl = tightness_diagnostic(cfg.model, cfg.xi, cfg.sim, p["deltas"],
                               p["eps"], n_eval=p["n_eval"],
                               burn_in=p["burn_in"])
    tbl.to_csv(os.path.join(out, "tightness.csv"))
    worst = tbl.fractions.max(axis=1)
    print("modulus tail fractions (worst over time grid): " +
          ", ".join(f"delta={d:g}: {w:.4g}"
                    for d, w in zip(tbl.deltas, worst)))
    return ["tightness.csv"], "ok", 0


def _run_kurtz(cfg, out, args):
    p = cfg.task_params
    tbl = kurtz_diagnostic(cfg.model, cfg.xi, cfg.sim, p["eps_list"],
                           n_eval=p["n_eval"], tail_start=p["tail_start"])
    tbl.to_csv(os.path.join(out, "kurtz.csv"))
    worst = tbl.values.max(axis=0)
    print("displacement bound (worst over tail times): " +
          ", ".join(f"eps={e:g}: {w:.4g}"
                    for e, w in zip(tbl.eps_list, worst)))
    return ["kurtz.csv"], "ok", 0


def _run_skorohod(cfg, out, args):
    res = cfg.task_params["resolution"]
    search = SearchParams(resolution=res) if res > 0 else None
    br = skorohod_distance(cfg.xi, cfg.eta, search)
    warp = homeomorphism_norm(br.time_change)
    _write(os.path.join(out, "skorohod.csv"),
           "lower,upper,sup_distance,warp_norm\n"
           f"{br.lower:.17g},{br.upper:.17g},{br.sup_distance:.17g},"
           f"{warp:.17g}\n")
    print(f"skorohod distance in [{br.lower:.17g}, {br.upper:.17g}] "
          f"(sup distance {br.sup_distance:.17g}, best warp norm {warp:.6g})")
    return ["skorohod.csv"], "ok", 0


def _default_checks(model) -> tuple:
    if model.model_class is ModelClass.RETARDED:
        return ("drift-dissipation", "diffusion-domination")
    if model.model_class is ModelClass.NEUTRAL:
        return ("neutral-conditions",)
    return ("jump-conditions",)


def _run_check(cfg, out, args):
    model = cfg.model
    if model is None:
        raise ConfigError("task 'check' needs a [model] section")
    p = cfg.task_params
    sampler = SegmentPairSampler.for_model(
        model, radius=p["radius"], seed=p["sampler_seed"],
        unbounded=p["unbounded"], t_max=p["t_max"])
    ids = p["checks"] or _default_checks(model)

    verdicts = []
    for cid in ids:
        if cid == "drift-dissipation":
            verdicts.append(check_drift_dissipation(
                model, sampler, p_exp=p["p_exp"], trials=p["trials"]))
        elif cid == "diffusion-domination":
            verdicts.append(check_diffusion_domination(
                model, sampler, p_exp=p["p_exp"], trials=p["trials"]))
        elif cid == "neutral-conditions":
            verdicts.extend(check_neutral_conditions(
                model, sampler, trials=p["trials"]))
        else:
            verdicts.extend(check_jump_conditions(
                model, sampler, trials=p["trials"],
                mark_samples=p["mark_samples"]))

    arts = ["check_verdicts.json", "check_summary.txt"]
    lines = []
    for v in verdicts:
        lines.append(v.summary_line())
        print(lines[-1])
        if v.witness is not None and not v.passed:
            for label, seg in (("phi", v.witness.phi), ("psi", v.witness.psi)):
                fname = f"witness_{v.check}_{label}.csv"
                segment_to_csv(seg, os.path.join(out, fname))
                arts.append(fname)
    _write(os.path.join(out, "check_verdicts.json"),
           json.dumps([v.to_json_dict() for v in verdicts], indent=2))
    _write(os.path.join(out, "check_summary.txt"), "\n".join(lines) + "\n")

    all_pass = all(v.status is VerdictStatus.PASS_WITH_CONSTANTS
                   for v in verdicts)
    print(f"overall: {'all checks pass' if all_pass else 'NOT all checks pass'}")
    if not all_pass and getattr(args, "strict", False):
        return arts, "check-failed", 4
    return arts, "ok" if all_pass else "check-not-passed", 0


_RUNNERS = {
    "simulate": _run_simulate,
    "couple": _run_couple,
    "mixing": _run_mixing,
    "invariant": _run_invariant,
    "moments": _run_moments,
    "tightness": _run_tightness,
    "kurtz": _run_kurtz,
    "halanay": _run_halanay,
    "razumikhin": _run_razumikhin,
    "check": _run_check,
    "skorohod": _run_skorohod,
}


def _write_manifest(out_dir: str, cfg: ExperimentConfig, artifacts, status,
                    wall: float):
    doc = {
        "task": cfg.task,
        "config_sha256": cfg.config_sha256,
        "config_path": cfg.source_path,
        "seed": cfg.seed,
        "threads": cfg.sim.threads if cfg.sim is not None else None,
        "version": __version__,
        "wall_time_s": round(wall, 6),
        "artifacts": list(artifacts),
        "status": status,
    }
    _write(os.path.join(out_dir, "manifest.json"), json.dumps(doc, indent=2))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    cfg = None
    out_dir = None
    try:
        cfg = load_config(args.config)
        if cfg.task != args.task:
            raise ConfigError(
                f"config file declares task '{cfg.task}' but the subcommand "
                f"is '{args.task}'")
        cfg = cfg.with_overrides(seed=args.seed, threads=args.threads,
                                 out_dir=args.output)
        out_dir = cfg.out_dir
        if out_dir is None:
            raise ConfigError("no output directory: set [output] dir in the "
                              "config or pass --output")
        os.makedirs(out_dir, exist_ok=True)
        artifacts, status, code = _RUNNERS[cfg.task](cfg, out_dir, args)
    except (ConfigError, DomainError, ModelContractError) as exc:
        print(_err_line(2, exc), file=sys.stderr)
        return 2
    except NumericalError as exc:
        if out_dir is not None:
            _write_manifest(out_dir, cfg, [], f"error:{type(exc).__name__}",
                            time.perf_counter() - t0)
        print(_err_line(3, exc), file=sys.stderr)
        return 3
    _write_manifest(out_dir, cfg, artifacts, status, time.perf_counter() - t0)
    if code == 3:
        print(_err_line(3, RuntimeError(f"task ended with status {status!r}")),
              file=sys.stderr)
    elif code == 4:
        print(_err_line(4, RuntimeError("strict check: not all verdicts pass")),
              file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
