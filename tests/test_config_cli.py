"""Tests for experiment-file parsing and the command-line runner.

Covers the INI grammar (strict key vocabularies, initial-segment builders,
delay and mark-law sub-grammars), override precedence, exit codes, the
machine-readable error line, manifest completeness, and artifact
determinism across seeds and thread counts.
"""

import hashlib
import json
import re
import textwrap

import numpy as np
import pytest

from sdelab import ConfigError, ModelClass, Segment, SimConfig, razumikhin_gamma
from sdelab import cli
from sdelab.cli import main
from sdelab.config import TASK_NAMES, load_config
from sdelab.models import Distributed, DiscreteMarks, PointVariable
from sdelab.paths import SegmentKind, segment_to_csv


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text).strip() + "\n", encoding="utf-8")
    return str(path)


def drop_section(text, section):
    """Remove one [section] block from a dedented config template."""
    lines, skipping = [], False
    for line in textwrap.dedent(text).split("\n"):
        if line.startswith("["):
            skipping = line.strip() == f"[{section}]"
        if not skipping:
            lines.append(line)
    return "\n".join(lines)


SIMULATE_EQUILIBRIUM = textwrap.dedent("""
    [model]
    name = linear_retarded
    a = 1
    b_lag = 1
    sigma0 = 0
    tau = 1

    [sim]
    step = 0.1
    horizon = 1
    seed = 7

    [task]
    name = simulate

    [initial]
    kind = constant
    value = 1.5

    [output]
    dir = out
""")

JUMP_INVARIANT = textwrap.dedent("""
    [model]
    name = jump_linear
    a = 3
    b_lag = 1
    jump_scale = 0.3
    intensity = 2
    mark_law = uniform_signs
    tau = 1

    [sim]
    step = 0.02
    horizon = 6
    seed = 11
    ensemble = 8

    [task]
    name = invariant
    functional = value_at_zero
    burn_in = 1

    [initial]
    kind = constant
    value = 1

    [output]
    dir = out
""")

HALANAY = textwrap.dedent("""
    [task]
    name = halanay
    a = 2
    b = 1
    tau = 1

    [output]
    dir = out
""")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class TestLoadConfig:
    def test_happy_path_populates_every_field(self, tmp_path):
        path = write_config(tmp_path, SIMULATE_EQUILIBRIUM)
        cfg = load_config(path)
        assert cfg.task == "simulate"
        assert cfg.task_params == {"path_index": 0}
        assert cfg.model.model_class is ModelClass.RETARDED
        assert cfg.sim.step == 0.1
        assert cfg.sim.horizon == 1.0
        assert cfg.sim.master_seed == 7
        assert cfg.seed == 7
        assert isinstance(cfg.xi, Segment)
        assert np.all(cfg.xi.values == 1.5)
        assert cfg.eta is None
        assert cfg.formats == ("csv", "json")
        assert cfg.out_dir == str(tmp_path / "out")
        assert cfg.source_path == path
        raw = open(path, "rb").read()
        assert cfg.config_sha256 == hashlib.sha256(raw).hexdigest()

    def test_unknown_section_is_rejected(self, tmp_path):
        path = write_config(tmp_path, HALANAY + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(path)

    def test_unknown_key_is_rejected_with_vocabulary(self, tmp_path):
        bad = SIMULATE_EQUILIBRIUM.replace("seed = 7", "seed = 7\nstepsize = 2")
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="stepsize") as err:
            load_config(path)
        assert "allowed" in str(err.value)

    def test_missing_task_section(self, tmp_path):
        path = write_config(tmp_path, "[output]\ndir = out\n")
        with pytest.raises(ConfigError, match=r"missing \[task\]"):
            load_config(path)

    def test_seed_is_mandatory(self, tmp_path):
        bad = SIMULATE_EQUILIBRIUM.replace("seed = 7\n", "")
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_unknown_model_and_task_names(self, tmp_path):
        bad = SIMULATE_EQUILIBRIUM.replace("linear_retarded", "cubic_sde")
        with pytest.raises(ConfigError, match="cubic_sde"):
            load_config(write_config(tmp_path, bad))
        bad = HALANAY.replace("name = halanay", "name = lyapunov")
        with pytest.raises(ConfigError, match="lyapunov"):
            load_config(write_config(tmp_path, bad, name="t.ini"))

    def test_model_parameter_validation(self, tmp_path):
        bad = SIMULATE_EQUILIBRIUM.replace("tau = 1", "tau = -1")
        with pytest.raises(ConfigError, match="tau"):
            load_config(write_config(tmp_path, bad))
        bad = SIMULATE_EQUILIBRIUM.replace(
            "sigma0 = 0", "sigma0 = 0\nlag = 3.0")
        with pytest.raises(ConfigError, match="lag"):
            load_config(write_config(tmp_path, bad, name="u.ini"))
        # built-in factory preconditions surface as config errors
        bad = SIMULATE_EQUILIBRIUM.replace("a = 1", "a = 0")
        with pytest.raises(ConfigError, match="invalid parameters"):
            load_config(write_config(tmp_path, bad, name="v.ini"))

    def test_variable_delay_grammar(self, tmp_path):
        good = SIMULATE_EQUILIBRIUM.replace(
            "sigma0 = 0",
            "sigma0 = 0\ndelay = variable_sin\ndelay_base = 0.5\n"
            "delay_amp = 0.3\ndelay_freq = 2.0")
        cfg = load_config(write_config(tmp_path, good))
        assert isinstance(cfg.model.delay, PointVariable)
        bad = good.replace("delay_amp = 0.3", "delay_amp = 0.6")
        with pytest.raises(ConfigError, match="inside"):
            load_config(write_config(tmp_path, bad, name="w.ini"))

    def test_distributed_delay_and_discrete_marks(self, tmp_path):
        text = JUMP_INVARIANT.replace(
            "mark_law = uniform_signs",
            "mark_law = discrete\nmark_atoms = -2 0 3\n"
            "mark_weights = 0.5 0.25 0.25").replace(
            "tau = 1",
            "tau = 1\ndelay = distributed\ndelay_atoms = -1.0 0.0\n"
            "delay_weights = 0.5 0.5")
        cfg = load_config(write_config(tmp_path, text))
        assert isinstance(cfg.model.delay, Distributed)
        assert isinstance(cfg.model.mark_law, DiscreteMarks)
        # bad atoms surface as config errors, not bare domain errors
        bad = text.replace("delay_atoms = -1.0 0.0", "delay_atoms = 1.0 0.0")
        with pytest.raises(ConfigError, match="invalid parameters"):
            load_config(write_config(tmp_path, bad, name="e.ini"))

    def test_initial_constant_broadcasts_over_dimensions(self, tmp_path):
        text = SIMULATE_EQUILIBRIUM.replace("tau = 1", "tau = 1\ndim = 2")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.xi.dim == 2
        assert np.all(cfg.xi.values == 1.5)
        bad = text.replace("value = 1.5", "value = 1 2 3")
        with pytest.raises(ConfigError, match="1 or 2 values"):
            load_config(write_config(tmp_path, bad, name="x.ini"))

    def test_initial_linear_and_sine_builders(self, tmp_path):
        text = SIMULATE_EQUILIBRIUM.replace(
            "kind = constant\nvalue = 1.5",
            "kind = linear\nstart = -1\nend = 3\npoints = 11")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.xi.eval(-1.0)[0] == pytest.approx(-1.0)
        assert cfg.xi.eval(0.0)[0] == pytest.approx(3.0)
        assert cfg.xi.eval(-0.5)[0] == pytest.approx(1.0)

        text = SIMULATE_EQUILIBRIUM.replace(
            "kind = constant\nvalue = 1.5",
            "kind = sine\namp = 2\nfreq = 3\nphase = 0.5\noffset = 1")
        cfg = load_config(write_config(tmp_path, text, name="y.ini"))
        theta = cfg.xi.grid[17]
        expected = 1.0 + 2.0 * np.sin(3.0 * theta + 0.5)
        assert cfg.xi.values[17, 0] == pytest.approx(expected)

    def test_initial_from_csv_resolves_relative_paths(self, tmp_path):
        grid = np.linspace(-1.0, 0.0, 21)
        seg = Segment(SegmentKind.CONTINUOUS_LINEAR, grid,
                      np.sin(grid).reshape(-1, 1))
        segment_to_csv(seg, str(tmp_path / "history.csv"))
        text = SIMULATE_EQUILIBRIUM.replace(
            "kind = constant\nvalue = 1.5", "kind = csv\npath = history.csv")
        cfg = load_config(write_config(tmp_path, text))
        assert np.allclose(cfg.xi.values[:, 0], np.sin(grid))

        missing = text.replace("history.csv", "nowhere.csv")
        with pytest.raises(ConfigError, match="not found"):
            load_config(write_config(tmp_path, missing, name="z.ini"))

    def test_initial_window_must_match_model_tau(self, tmp_path):
        text = SIMULATE_EQUILIBRIUM.replace(
            "kind = constant\nvalue = 1.5",
            "kind = constant\nvalue = 1.5\ntau = 2")
        with pytest.raises(ConfigError, match="conflicts"):
            load_config(write_config(tmp_path, text))

    def test_engine_tasks_demand_their_sections(self, tmp_path):
        with pytest.raises(ConfigError, match=r"needs a \[model\]"):
            load_config(write_config(
                tmp_path, drop_section(SIMULATE_EQUILIBRIUM, "model")))
        with pytest.raises(ConfigError, match=r"needs a \[sim\]"):
            load_config(write_config(
                tmp_path, drop_section(SIMULATE_EQUILIBRIUM, "sim"),
                name="a.ini"))
        with pytest.raises(ConfigError, match=r"needs an \[initial\]"):
            load_config(write_config(
                tmp_path, drop_section(SIMULATE_EQUILIBRIUM, "initial"),
                name="b.ini"))

    def test_second_segment_only_where_it_belongs(self, tmp_path):
        extra = SIMULATE_EQUILIBRIUM + "\n[initial2]\nkind = constant\nvalue = 2\n"
        with pytest.raises(ConfigError, match=r"does not take \[initial2\]"):
            load_config(write_config(tmp_path, extra))
        couple = SIMULATE_EQUILIBRIUM.replace(
            "name = simulate",
            "name = couple\nwindow_start = 0.2\nwindow_end = 0.8")
        with pytest.raises(ConfigError, match=r"needs an \[initial2\]"):
            load_config(write_config(tmp_path, couple, name="c.ini"))

    def test_output_formats_vocabulary(self, tmp_path):
        text = SIMULATE_EQUILIBRIUM.replace("dir = out",
                                            "dir = out\nformats = csv, xml")
        with pytest.raises(ConfigError, match="xml"):
            load_config(write_config(tmp_path, text))
        text = SIMULATE_EQUILIBRIUM.replace("dir = out",
                                            "dir = out\nformats = csv")
        cfg = load_config(write_config(tmp_path, text, name="d.ini"))
        assert cfg.formats == ("csv",)

    def test_overrides_replace_seed_threads_and_outdir(self, tmp_path):
        cfg = load_config(write_config(tmp_path, SIMULATE_EQUILIBRIUM))
        over = cfg.with_overrides(seed=99, threads=4, out_dir="/elsewhere")
        assert over.sim.master_seed == 99
        assert over.sim.threads == 4
        assert over.out_dir == "/elsewhere"
        # untouched fields survive
        assert over.sim.step == cfg.sim.step
        assert over.config_sha256 == cfg.config_sha256
        same = cfg.with_overrides()
        assert same.sim == cfg.sim and same.out_dir == cfg.out_dir

    def test_sim_parse_errors_name_the_section_once(self, tmp_path):
        # optional and required [sim] keys report a parse failure alike
        for key, text in (("threads", "seed = 7\nthreads = k"), ("seed", "seed = y")):
            bad = SIMULATE_EQUILIBRIUM.replace("seed = 7", text)
            with pytest.raises(ConfigError) as err:
                load_config(write_config(tmp_path, bad, name=f"{key}.ini"))
            assert str(err.value) == f"[sim] key '{key}': cannot parse {text[-1]!r}"
        # a value SimConfig refuses still reads as invalid parameters
        bad = SIMULATE_EQUILIBRIUM.replace("seed = 7", "seed = 7\nthreads = 0")
        with pytest.raises(ConfigError, match=r"^\[sim\] invalid parameters: threads"):
            load_config(write_config(tmp_path, bad, name="zero.ini"))

    def test_malformed_text_is_a_config_error(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("value without any section = 3\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(str(path))
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))


# each task's required keys, and the parameters a config holding only those
# parses to: the rest are the task's defaults
REQUIRED_ONLY = {
    "simulate": ({}, {"path_index": 0}),
    "couple": ({"window_start": "1", "window_end": "2"},
               {"window_start": 1.0, "window_end": 2.0}),
    "mixing": ({"functional": "value_at_zero"},
               {"functional": "value_at_zero", "clip": 10.0, "eval_times": None,
                "pi_burn_in": None, "pi_ensemble": None}),
    "invariant": ({"functional": "tanh_value_at_zero", "burn_in": "2"},
                  {"functional": "tanh_value_at_zero", "clip": 10.0,
                   "burn_in": 2.0, "eval_stride": 1}),
    "moments": ({}, {"kappa_exp": 0.1, "burn_in": None, "n_eval": 25}),
    "tightness": ({"deltas": "0.5 0.1", "eps": "0.3"},
                  {"deltas": (0.5, 0.1), "eps": 0.3, "n_eval": 12,
                   "burn_in": None}),
    "kurtz": ({"eps_list": "0.5, 0.2"},
              {"eps_list": (0.5, 0.2), "n_eval": 6, "tail_start": None}),
    "halanay": ({"a": "3", "b": "1", "tau": "1"},
                {"a": 3.0, "b": 1.0, "tau": 1.0}),
    "razumikhin": ({"kappa": "0.2", "lam": "1", "tau": "1", "q": "2"},
                   {"kappa": 0.2, "lam": 1.0, "tau": 1.0, "q": 2.0}),
    "check": ({}, {"checks": None, "trials": 400, "p_exp": 0.0, "radius": 2.0,
                   "unbounded": False, "mark_samples": 256, "sampler_seed": 0,
                   "t_max": 10.0}),
    "skorohod": ({}, {"space": "step", "resolution": 0.0}),
}
ENGINE_TASKS = ("simulate", "couple", "mixing", "invariant", "moments",
                "tightness", "kurtz")


@pytest.mark.parametrize("task", list(REQUIRED_ONLY))
def test_required_keys_alone_give_the_task_defaults(tmp_path, task):
    keys, params = REQUIRED_ONLY[task]
    text = f"[task]\nname = {task}\n" + "".join(
        f"{k} = {v}\n" for k, v in keys.items())
    if task in ENGINE_TASKS:
        text += ("[model]\nname = linear_retarded\na = 1\nb_lag = 1\n"
                 "sigma0 = 0\ntau = 1\n[sim]\nstep = 0.1\nhorizon = 4\n"
                 "seed = 7\n[initial]\nkind = constant\nvalue = 1\n")
    if task == "skorohod":
        text += "[initial]\nkind = constant\nvalue = 1\ntau = 1\n"
    if task in ("couple", "mixing", "skorohod"):
        text += "[initial2]\nkind = constant\nvalue = 0\n"
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.task == task
    assert cfg.task_params == params
    if task in ENGINE_TASKS:
        # every [sim] key the file leaves out takes SimConfig's own default
        assert cfg.sim == SimConfig(step=0.1, horizon=4.0, master_seed=7)
    else:
        assert cfg.sim is None


def test_every_task_has_a_runner_and_no_runner_lacks_a_task():
    assert set(cli._RUNNERS) == set(TASK_NAMES)
    assert set(REQUIRED_ONLY) == set(TASK_NAMES)


# ---------------------------------------------------------------------------
# command-line runner
# ---------------------------------------------------------------------------

def read_manifest(out_dir):
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


ERROR_LINE = re.compile(
    r'^sdelab-error code=(\d+) kind=(\w+) detail="[^"]*"$', re.M)


RETARDED_MODEL = "[model]\nname = linear_retarded\na = 3\nb_lag = 1\nsigma0 = 0.5\ntau = 1\n"
JUMP_MODEL = ("[model]\nname = jump_linear\na = 3\nb_lag = 1\njump_scale = 0.3\n"
              "intensity = 2\nmark_law = gaussian\ntau = 1\n")
RUN = ("[sim]\nstep = 0.05\nhorizon = 4\nseed = 7\nensemble = 8\n"
       "[initial]\nkind = constant\nvalue = 1\n")


@pytest.mark.parametrize("task, inputs, keys", [
    ("moments", RETARDED_MODEL + RUN, "n_eval = 0"),
    ("moments", RETARDED_MODEL + RUN, "n_eval = 1"),
    ("tightness", RETARDED_MODEL + RUN, "deltas = 0.5 0.1\neps = 0.3\nn_eval = 0"),
    ("kurtz", JUMP_MODEL + RUN, "eps_list = 0.5, 0.2\nn_eval = 0"),
    ("moments", RETARDED_MODEL + RUN, "n_eval = -2"),
    ("tightness", RETARDED_MODEL + RUN, "deltas = 0.5 0.1\neps = 0.3\nn_eval = -1"),
    ("kurtz", JUMP_MODEL + RUN, "eps_list = 0.5, 0.2\nn_eval = -1"),
    ("check", JUMP_MODEL, "mark_samples = 0"),
    ("check", JUMP_MODEL, "mark_samples = -3"),
], ids=["moments-0", "moments-1", "tightness-0", "kurtz-0", "moments-neg", "tightness-neg",
        "kurtz-neg", "check-marks-0", "check-marks-neg"])
def test_too_few_evaluation_times_or_marks_exit_2(tmp_path, capsys, task, inputs, keys):
    text = f"{inputs}[task]\nname = {task}\n{keys}\n[output]\ndir = out\n"
    assert main([task, "--config", write_config(tmp_path, text)]) == 2
    match = ERROR_LINE.search(capsys.readouterr().err)
    assert match and match.group(1) == "2" and match.group(2) == "DomainError"


def test_negative_path_index_exits_2(tmp_path, capsys):
    text = RETARDED_MODEL + RUN + "[task]\nname = simulate\npath_index = -1\n[output]\ndir = out\n"
    assert main(["simulate", "--config", write_config(tmp_path, text)]) == 2
    match = ERROR_LINE.search(capsys.readouterr().err)
    assert match and match.group(1) == "2" and match.group(2) == "DomainError"
    assert "path_index" in match.group(0)


class TestCliRunner:
    def test_halanay_prints_rate_and_writes_manifest(self, tmp_path, capsys):
        path = write_config(tmp_path, HALANAY)
        assert main(["halanay", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "0.44285" in out

        csv = (tmp_path / "out" / "halanay.csv").read_text()
        header, row = csv.strip().split("\n")
        assert header == "a,b,tau,lambda"
        assert float(row.split(",")[-1]) == pytest.approx(
            0.4428544010020232, abs=1e-12)

        manifest = read_manifest(tmp_path / "out")
        raw = open(path, "rb").read()
        assert manifest["task"] == "halanay"
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
        assert manifest["artifacts"] == ["halanay.csv"]
        assert manifest["status"] == "ok"
        assert manifest["seed"] is None and manifest["threads"] is None
        assert manifest["wall_time_s"] >= 0.0
        assert re.match(r"\d+\.\d+", manifest["version"])

    def test_razumikhin_writes_certified_exponent(self, tmp_path, capsys):
        text = """
            [task]
            name = razumikhin
            kappa = 0.25
            lam = 1
            tau = 1
            q = 4

            [output]
            dir = out
        """
        assert main(["razumikhin", "--config",
                     write_config(tmp_path, text)]) == 0
        row = (tmp_path / "out" / "razumikhin.csv").read_text().strip()
        gamma = float(row.split("\n")[1].split(",")[-1])
        assert gamma == razumikhin_gamma(0.25, 1.0, 1.0, 4.0)

    def test_equilibrium_simulation_writes_constant_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, SIMULATE_EQUILIBRIUM)
        assert main(["simulate", "--config", path]) == 0
        data = np.loadtxt(tmp_path / "out" / "trajectory.csv",
                          delimiter=",", skiprows=1)
        assert np.all(data[:, 1] == 1.5)
        assert data[0, 0] == -1.0 and data[-1, 0] == 1.0
        assert read_manifest(tmp_path / "out")["status"] == "ok"

    def test_divergent_simulation_exits_3(self, tmp_path, capsys):
        text = SIMULATE_EQUILIBRIUM.replace("a = 1", "a = 0.5") \
            .replace("b_lag = 1", "b_lag = 3") \
            .replace("step = 0.1", "step = 0.01") \
            .replace("horizon = 1", "horizon = 10\ndivergence_guard = 1000")
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path]) == 3
        captured = capsys.readouterr()
        assert "diverged" in captured.out
        match = ERROR_LINE.search(captured.err)
        assert match and match.group(1) == "3"
        manifest = read_manifest(tmp_path / "out")
        assert manifest["status"] == "diverged"
        assert "trajectory.csv" in manifest["artifacts"]

    def test_couple_with_diverging_pairs_exits_3(self, tmp_path, capsys):
        # a guard this tight stops some of the noisy pairs, not all of them
        text = SIMULATE_EQUILIBRIUM.replace("a = 1", "a = 3") \
            .replace("sigma0 = 0", "sigma0 = 1") \
            .replace("step = 0.1", "step = 0.05") \
            .replace("horizon = 1", "horizon = 3\nensemble = 100\n"
                     "divergence_guard = 1.5") \
            .replace("name = simulate",
                     "name = couple\nwindow_start = 1\nwindow_end = 3") \
            .replace("[output]", "[initial2]\nkind = constant\nvalue = -1\n\n[output]")
        path = write_config(tmp_path, text)
        assert main(["couple", "--config", path]) == 3
        match = ERROR_LINE.search(capsys.readouterr().err)
        assert match and match.group(2) == "DivergenceError"
        assert "of 100 paths diverged" in match.group(0)
        assert "100 of 100" not in match.group(0)
        assert read_manifest(tmp_path / "out")["status"] == "error:DivergenceError"

    def test_fixed_point_failure_exits_3(self, tmp_path, capsys):
        text = """
            [model]
            name = neutral_linear
            kappa = 0.25
            a = 3
            b_lag = 0.5
            sigma0 = 0.5
            tau = 1

            [sim]
            step = 0.1
            horizon = 1
            seed = 1
            fixed_point_max_iter = 1

            [task]
            name = simulate

            [initial]
            kind = constant
            value = 1

            [output]
            dir = out
        """
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path]) == 3
        err = capsys.readouterr().err
        match = ERROR_LINE.search(err)
        assert match and match.group(2) == "FixedPointError"
        assert read_manifest(tmp_path / "out")["status"] == \
            "error:FixedPointError"

    def test_config_error_exits_2_with_machine_line(self, tmp_path, capsys):
        bad = SIMULATE_EQUILIBRIUM.replace("linear_retarded", "no_such_model")
        path = write_config(tmp_path, bad)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        match = ERROR_LINE.search(err)
        assert match and match.group(1) == "2"
        assert match.group(2) == "ConfigError"
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_subcommand_must_match_declared_task(self, tmp_path, capsys):
        path = write_config(tmp_path, HALANAY)
        assert main(["razumikhin", "--config", path]) == 2
        assert "declares task 'halanay'" in capsys.readouterr().err

    def test_output_dir_required_but_overridable(self, tmp_path, capsys):
        path = write_config(tmp_path, drop_section(HALANAY, "output"))
        assert main(["halanay", "--config", path]) == 2
        assert "output directory" in capsys.readouterr().err
        alt = tmp_path / "elsewhere"
        assert main(["halanay", "--config", path, "--output", str(alt)]) == 0
        assert (alt / "halanay.csv").exists()
        assert read_manifest(alt)["artifacts"] == ["halanay.csv"]

    def test_strict_check_failure_exits_4_with_witness_files(self, tmp_path,
                                                             capsys):
        text = """
            [model]
            name = linear_retarded
            a = 0.4
            b_lag = 1
            sigma0 = 0.5
            tau = 1

            [task]
            name = check

            [output]
            dir = out
        """
        path = write_config(tmp_path, text)
        assert main(["check", "--config", path, "--strict"]) == 4
        captured = capsys.readouterr()
        assert "NOT all checks pass" in captured.out
        match = ERROR_LINE.search(captured.err)
        assert match and match.group(1) == "4"

        out = tmp_path / "out"
        verdicts = json.loads((out / "check_verdicts.json").read_text())
        statuses = {v["check"]: v["status"] for v in verdicts}
        assert statuses["drift-dissipation"] != "PassWithConstants"
        assert statuses["diffusion-domination"] == "PassWithConstants"
        assert (out / "witness_drift-dissipation_phi.csv").exists()
        assert (out / "witness_drift-dissipation_psi.csv").exists()
        summary = (out / "check_summary.txt").read_text().strip().split("\n")
        assert len(summary) == len(verdicts)
        assert read_manifest(out)["status"] == "check-failed"

        # without --strict the same config reports but exits cleanly
        relaxed = tmp_path / "relaxed"
        assert main(["check", "--config", path, "--output",
                     str(relaxed)]) == 0
        assert read_manifest(relaxed)["status"] == "check-not-passed"

    def test_strict_check_passes_inside_hypothesis_region(self, tmp_path,
                                                          capsys):
        text = """
            [model]
            name = linear_retarded
            a = 3
            b_lag = 1
            sigma0 = 0.5
            tau = 1

            [task]
            name = check

            [output]
            dir = out
        """
        path = write_config(tmp_path, text)
        assert main(["check", "--config", path, "--strict"]) == 0
        assert "all checks pass" in capsys.readouterr().out
        verdicts = json.loads(
            (tmp_path / "out" / "check_verdicts.json").read_text())
        assert [v["status"] for v in verdicts] == ["PassWithConstants"] * 2
        assert read_manifest(tmp_path / "out")["status"] == "ok"

    def test_skorohod_task_brackets_the_distance(self, tmp_path, capsys):
        text = """
            [task]
            name = skorohod
            space = step

            [initial]
            kind = constant
            value = 1
            tau = 1

            [initial2]
            kind = constant
            value = 2
            tau = 1

            [output]
            dir = out
        """
        path = write_config(tmp_path, text)
        assert main(["skorohod", "--config", path]) == 0
        row = (tmp_path / "out" / "skorohod.csv").read_text().strip()
        lower, upper, sup, warp = map(float, row.split("\n")[1].split(","))
        assert sup == pytest.approx(1.0)
        assert 0.0 <= lower <= upper <= sup + 1e-12
        assert warp >= 0.0

    def test_same_seed_reproduces_artifacts_byte_for_byte(self, tmp_path,
                                                          capsys):
        path = write_config(tmp_path, JUMP_INVARIANT)
        assert main(["invariant", "--config", path,
                     "--output", str(tmp_path / "r1")]) == 0
        assert main(["invariant", "--config", path,
                     "--output", str(tmp_path / "r2")]) == 0
        assert main(["invariant", "--config", path, "--seed", "99",
                     "--output", str(tmp_path / "r3")]) == 0
        first = (tmp_path / "r1" / "invariant.csv").read_bytes()
        second = (tmp_path / "r2" / "invariant.csv").read_bytes()
        reseeded = (tmp_path / "r3" / "invariant.csv").read_bytes()
        assert first == second
        assert first != reseeded
        assert read_manifest(tmp_path / "r3")["seed"] == 99

    def test_thread_count_never_changes_results(self, tmp_path, capsys):
        path = write_config(tmp_path, JUMP_INVARIANT)
        blobs = []
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            assert main(["invariant", "--config", path,
                         "--threads", str(threads),
                         "--output", str(out)]) == 0
            blobs.append((out / "invariant.csv").read_bytes())
            assert read_manifest(out)["threads"] == threads
        assert blobs[0] == blobs[1]

    def test_threads_env_is_ignored(self, tmp_path, monkeypatch):
        # only the config and --threads set the thread count
        path = write_config(tmp_path, JUMP_INVARIANT, name="jump.ini")
        for env in ("3", "many"):
            monkeypatch.setenv("SDDE_THREADS", env)
            assert main(["invariant", "--config", path,
                         "--output", str(tmp_path / "env")]) == 0
            assert read_manifest(tmp_path / "env")["threads"] == 1

            assert main(["invariant", "--config", path, "--threads", "2",
                         "--output", str(tmp_path / "flag")]) == 0
            assert read_manifest(tmp_path / "flag")["threads"] == 2
