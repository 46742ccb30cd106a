import numpy as np
import pytest

from mvamp.cli import TABLES, main, parse_grid, UsageError
from mvamp.experiments import ExperimentConfig, draw_instance
from mvamp.model import write_covariates_csv, write_edge_list, write_labels_csv


def run_cli(*args):
    return main(list(args))


class TestGridParsing:
    def test_comma_list(self):
        assert parse_grid("0.5,1,2", "g") == (0.5, 1.0, 2.0)

    def test_linspace(self):
        assert parse_grid("0:1:3", "g") == (0.0, 0.5, 1.0)

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_grid("a,b", "g")


class TestTheoryCommand:
    def test_boundary_point(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("theory", "--lambda-grid", "1", "--mu-grid", "0",
                       "--c", "1", "--out-dir", str(out)) == 0
        header, row = (out / "theory.csv").read_text().splitlines()
        assert header == "lambda,mu,c,z_star,limit_mmse,detectable,xi"
        cells = row.split(",")
        assert cells[3] == "0"          # z_star
        assert cells[4] == "1"          # limit_mmse
        assert cells[5] == "false"      # detectable

    def test_no_signal_point(self, tmp_path):
        out = tmp_path / "o"
        run_cli("theory", "--lambda-grid", "0", "--mu-grid", "0", "--c", "1",
                "--out-dir", str(out))
        row = (out / "theory.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "0" and row[6] == "0"  # z_star and xi

    def test_grid_enumeration_order(self, tmp_path):
        out = tmp_path / "o"
        run_cli("theory", "--lambda-grid", "0,1,2", "--mu-grid", "0,0.5,1",
                "--c", "1.5", "--out-dir", str(out))
        lines = (out / "theory.csv").read_text().splitlines()
        assert len(lines) == 10
        lams = [float(l.split(",")[0]) for l in lines[1:]]
        mus = [float(l.split(",")[1]) for l in lines[1:]]
        assert lams == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert mus == [0, 0.5, 1] * 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("theory", "--lambda-grid", "0.5:3:6", "--mu-grid", "0,1",
                    "--c", "2", "--out-dir", str(out))
        assert (a / "theory.csv").read_bytes() == (b / "theory.csv").read_bytes()

    def test_missing_args_is_usage_error(self, tmp_path):
        assert run_cli("theory", "--mu-grid", "1", "--c", "1",
                       "--out-dir", str(tmp_path / "x")) == 1

    def test_usage_error_creates_no_output_directory(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("theory", "--lambda-grid", "1", "--mu-grid", "0.5",
                       "--out-dir", str(out)) == 1
        assert not out.exists()

    def test_common_section_keys_of_other_subcommands_are_ignored(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nseed = 3\nthreads = 2\n\n"
                       "[theory]\nlambda-grid = 1,2\nmu-grid = 0.5\nc = 1.5\n")
        out = tmp_path / "o"
        assert run_cli("theory", "--config", str(ini), "--out-dir", str(out)) == 0
        assert len((out / "theory.csv").read_text().splitlines()) == 3

    def test_common_key_no_subcommand_reads_is_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nsede = 5\n\n"
                       "[theory]\nlambda-grid = 1\nmu-grid = 0.5\nc = 1.5\n")
        assert run_cli("theory", "--config", str(ini),
                       "--out-dir", str(tmp_path / "o")) == 1
        assert "sede" in capsys.readouterr().err

    def test_own_section_key_of_another_subcommand_is_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[theory]\nlambda-grid = 1\nmu-grid = 0.5\nc = 1.5\nseed = 3\n")
        assert run_cli("theory", "--config", str(ini),
                       "--out-dir", str(tmp_path / "o")) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_replicate_flags_are_not_accepted(self, tmp_path, flag):
        assert run_cli("theory", "--lambda-grid", "1", "--mu-grid", "0.5", "--c", "1.5",
                       flag, "4", "--out-dir", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("ini", [None, "[theory]\neps = 0.3\n"])
    def test_has_no_revelation_fraction(self, tmp_path, capsys, ini):
        # theory reports the eps = 0 limits only; eps is no setting of it
        args = ("theory", "--lambda-grid", "0.5", "--mu-grid", "0.5", "--c", "1")
        if ini is None:
            args += ("--eps", "0.3")
        else:
            (tmp_path / "run.ini").write_text(ini)
            args += ("--config", str(tmp_path / "run.ini"))
        out = tmp_path / "o"
        assert run_cli(*args, "--out-dir", str(out)) == 1
        assert "eps" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    ARGS = ("simulate", "--family", "gaussian", "--n", "200", "--p", "120",
            "--sweep", "lambda", "--grid", "3.0", "--fixed", "0.9",
            "--replicates", "2", "--n-iter", "15", "--seed", "5")

    def test_runs_and_writes_outputs(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(*self.ARGS, "--out-dir", str(out), "--svg",
                       "--export-instance") == 0
        text = (out / "results.csv").read_text()
        header = text.splitlines()[0]
        assert header == ("family,n,p,lambda,mu,c,replicates,theory_mmse,"
                          "mean_mse,sd_mse,min_mse,max_mse,mean_overlap,errors")
        assert text.endswith("\n") and "\r" not in text
        timings = (out / "timings.csv").read_text().splitlines()
        assert timings[0] == "lambda,mu,wall_time_s,mean_amp_steps,capped_replicates"
        assert len(timings) == 2
        assert (out / "plot.svg").read_text().startswith("<svg")
        assert (out / "labels.csv").exists()
        assert (out / "covariates.csv").exists()
        assert (out / "config_used.ini").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli(*self.ARGS, "--out-dir", str(out))
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "o"
        run_cli(*self.ARGS, "--out-dir", str(out))
        row = (out / "results.csv").read_text().splitlines()[1]
        theory = row.split(",")[7]
        assert len(theory.replace(".", "").replace("-", "").lstrip("0")) >= 11

    def test_config_file_with_flag_override(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[common]\nseed = 5\n\n[simulate]\nfamily = gaussian\nn = 200\n"
            "p = 120\nsweep = lambda\ngrid = 3.0\nfixed = 0.9\n"
            "replicates = 2\nn-iter = 15\n")
        a = tmp_path / "a"
        assert run_cli("simulate", "--config", str(ini), "--out-dir", str(a)) == 0
        b = tmp_path / "b"
        run_cli(*self.ARGS, "--out-dir", str(b))
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        # flag overrides the file value -> different seed -> different numbers
        c = tmp_path / "c"
        run_cli("simulate", "--config", str(ini), "--seed", "6", "--out-dir", str(c))
        assert (a / "results.csv").read_bytes() != (c / "results.csv").read_bytes()

    def test_malformed_config_names_key(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[simulate]\nreplicates = soon\n")
        code = run_cli("simulate", "--config", str(ini),
                       "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "replicates" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[simulate]\nrepliactes = 3\n")
        assert run_cli("simulate", "--config", str(ini),
                       "--out-dir", str(tmp_path / "o")) == 1
        assert "repliactes" in capsys.readouterr().err

    def test_bad_family_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--family", "gaussian", "--n", "200", "--p", "120",
                       "--sweep", "lambda", "--grid", "-3.0", "--fixed", "0.9",
                       "--out-dir", str(tmp_path / "o")) == 1

    def test_revelation_init_end_to_end(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--family", "gaussian", "--n", "200", "--p", "120",
                       "--sweep", "lambda", "--grid", "2.0", "--fixed", "1.0",
                       "--replicates", "2", "--n-iter", "10", "--seed", "2",
                       "--init", "revelation", "--eps", "0.2",
                       "--out-dir", str(out)) == 0
        row = (out / "results.csv").read_text().splitlines()[1]
        assert float(row.split(",")[8]) < 1.0  # mean mse: revelation helps

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_nonpositive_thread_flag_is_usage_error(self, tmp_path, capsys, value):
        assert run_cli(*self.ARGS, "--threads", value, "--out-dir", str(tmp_path / "o")) == 1
        assert "threads" in capsys.readouterr().err

    def test_usage_error_creates_no_output_directory(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(*self.ARGS, "--threads", "0", "--out-dir", str(out)) == 1
        assert not out.exists()

    def test_thread_count_does_not_change_stopped_results(self, tmp_path):
        args = ("simulate", "--n", "300", "--p", "180", "--grid", "2.0,3.0",
                "--replicates", "2", "--n-iter", "100", "--seed", "8")
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--threads", "1", "--out-dir", str(a)) == 0
        assert run_cli(*args, "--threads", "2", "--out-dir", str(b)) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        for out in (a, b):
            rows = [line.split(",") for line in
                    (out / "timings.csv").read_text().splitlines()[1:]]
            assert all(float(row[3]) < 100 and row[4] == "0" for row in rows)

    def test_nonpositive_thread_config_value_is_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\nthreads = -3\n")
        out = tmp_path / "o"
        assert run_cli(*self.ARGS, "--config", str(ini), "--out-dir", str(out)) == 1
        assert "threads" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_exported_instance_is_the_replicate_instance(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", "--family", "multilayer", "--m", "2",
                       "--r-fractions", "0.6,0.4", "--p-bar-coeffs", "0.9,0.6",
                       "--n", "300", "--p", "150", "--grid", "2.0,3.0", "--fixed", "0.9",
                       "--replicates", "1", "--n-iter", "5", "--seed", "11",
                       "--export-instance", "--out-dir", str(out)) == 0
        cfg = ExperimentConfig(family="multilayer", n=300, p=150, sweep_param="lambda",
                               grid=(2.0, 3.0), fixed_value=0.9, replicates=1, n_iter=5,
                               seed=11, m=2, r_fractions=(0.6, 0.4), p_bar_coeffs=(0.9, 0.6))
        inst = draw_instance(cfg, 0, 0)
        ref = tmp_path / "ref"
        ref.mkdir()
        write_labels_csv(inst.labels, ref / "labels.csv")
        write_covariates_csv(inst.covariates, ref / "covariates.csv")
        names = ["labels.csv", "covariates.csv"]
        for i, layer in enumerate(inst.network):
            write_edge_list(layer, ref / f"layer_{i}_edges.txt")
            names.append(f"layer_{i}_edges.txt")
        assert len(inst.network) == 2
        assert not (out / "layer_2_edges.txt").exists()
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name
        # 12 significant digits hold the stored float32 covariates exactly
        read_back = np.loadtxt(out / "covariates.csv", delimiter=",", skiprows=1)
        assert read_back.astype(np.float32).tobytes() == inst.covariates.B.tobytes()

    def test_svg_is_well_formed(self, tmp_path):
        import xml.etree.ElementTree as ET
        out = tmp_path / "o"
        run_cli(*self.ARGS, "--grid", "2.0,3.0", "--out-dir", str(out), "--svg")
        root = ET.parse(out / "plot.svg").getroot()
        assert root.tag.endswith("svg")


class TestSeCheckCommand:
    def test_full_revelation_gaps_zero(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("se-check", "--lambda", "2", "--mu", "1", "--c", "1",
                       "--eps", "1.0", "--n", "150", "--t-max", "3",
                       "--replicates", "2", "--out-dir", str(out)) == 0
        lines = (out / "se_check.csv").read_text().splitlines()
        assert lines[0] == "t,z_t_theory,mean_overlap_empirical,abs_gap"
        assert len(lines) == 4  # header plus t = 1..3
        for line in lines[1:]:
            assert float(line.split(",")[3]) < 1e-12

    def test_single_step_gives_single_row(self, tmp_path):
        out = tmp_path / "o"
        run_cli("se-check", "--lambda", "1", "--mu", "0.5", "--c", "1",
                "--eps", "0.2", "--n", "120", "--t-max", "1",
                "--replicates", "1", "--out-dir", str(out))
        lines = (out / "se_check.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_requires_positive_eps(self, tmp_path):
        assert run_cli("se-check", "--lambda", "1", "--mu", "1", "--c", "1",
                       "--eps", "0", "--n", "100", "--t-max", "2",
                       "--replicates", "1", "--out-dir", str(tmp_path / "o")) == 1

    def test_usage_error_creates_no_output_directory(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("se-check", "--eps", "0", "--n", "100", "--t-max", "2",
                       "--replicates", "1", "--out-dir", str(out)) == 1
        assert not out.exists()

    def test_nonpositive_c_is_usage_error(self, tmp_path, capsys):
        assert run_cli("se-check", "--c", "0", "--n", "100", "--t-max", "2",
                       "--replicates", "1", "--out-dir", str(tmp_path / "o")) == 1
        assert "c must be positive" in capsys.readouterr().err

    SE_ARGS = ("se-check", "--lambda", "1", "--mu", "1", "--c", "1", "--eps", "0.2",
               "--n", "100", "--t-max", "2", "--replicates", "1")

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_nonpositive_thread_flag_is_usage_error(self, tmp_path, capsys, value):
        assert run_cli(*self.SE_ARGS, "--threads", value,
                       "--out-dir", str(tmp_path / "o")) == 1
        assert "threads" in capsys.readouterr().err

    def test_nonpositive_thread_config_value_is_usage_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[se-check]\nthreads = 0\n")
        out = tmp_path / "o"
        assert run_cli(*self.SE_ARGS, "--config", str(ini), "--out-dir", str(out)) == 1
        assert "threads" in capsys.readouterr().err
        assert not (out / "se_check.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("se-check", "--lambda", "2", "--mu", "1", "--c", "1",
                    "--eps", "0.3", "--n", "150", "--t-max", "3",
                    "--replicates", "2", "--seed", "9", "--out-dir", str(out))
        assert (a / "se_check.csv").read_bytes() == (b / "se_check.csv").read_bytes()


def test_no_subcommand_is_usage_error():
    assert run_cli() == 1


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate") == 1


@pytest.mark.parametrize("args,ini", [
    (("theory", "--lambda-grid", "1", "--mu-grid", "1", "--c", "1", "--eps", "1.5"), None),
    (("theory", "--lambda-grid", "nan", "--mu-grid", "1", "--c", "1"), None),
    (("simulate", "--grid", "nan", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--n", "100", "--p", "60", "--replicates", "1"),
     "[simulate]\nse-init = bogus\n"),
    (("simulate", "--family", "contextual-sbm", "--p-bar-coeffs", "0.7,0.3",
      "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate",), "seed = 3\n"),
    (("simulate", "--family", "gaussian", "--m", "3", "--r-fractions", "0.5",
      "--p-bar-coeffs", "9", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--stop-tol", "-1", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--stop-tol", "nan", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--eps", "nan", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--eps", "7", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--eps", "-2", "--n", "100", "--p", "60", "--replicates", "1"), None),
    (("simulate", "--n", "100", "--p", "60", "--replicates", "1"), "[simulate]\neps = 0.3\n"),
    (("simulate", "--init", "revelation", "--eps", "1.5", "--n", "100", "--p", "60",
      "--replicates", "1"), None),
    (("se-check", "--lambda", "nan", "--n", "100", "--replicates", "1"), None),
    (("se-check", "--n", "1", "--replicates", "1"), None),
])
def test_bad_input_is_usage_error_without_output(tmp_path, capsys, args, ini):
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        args += ("--config", str(tmp_path / "run.ini"))
    out = tmp_path / "o"
    assert run_cli(*args, "--out-dir", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args,named,unnamed", [
    (("--lambda", "nan"), "lam, mu, c and eps must be finite", "grid"),
    (("--n", "1"), "n >= 2", "n_iter"),
    (("--t-max", "0"), "t_max >= 1", "n_iter"),
    (("--c", "1000", "--n", "100"), "n / c", "p >= 1"),
])
def test_se_check_errors_name_its_own_settings(tmp_path, capsys, args, named, unnamed):
    assert run_cli("se-check", "--replicates", "1", *args,
                   "--out-dir", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert named in err and unnamed not in err


@pytest.mark.parametrize("command", list(TABLES))
def test_help_shows_every_default(capsys, command):
    with pytest.raises(SystemExit):
        run_cli(command, "--help")
    text = "".join(capsys.readouterr().out.split())
    for opt in TABLES[command]:
        shown = "(required)" if opt.default is None else f"(default {opt.default})"
        assert "".join(shown.split()) in text, opt.key


@pytest.mark.parametrize("args,csv", [
    (("theory", "--lambda-grid", "0.5:3:6", "--mu-grid", "0.1:0.9:4", "--c", "1.667"),
     "theory.csv"),
    (("simulate", "--n", "200", "--p", "120", "--grid", "0.5:3:4", "--replicates", "1",
      "--n-iter", "10", "--seed", "4"), "results.csv"),
    (("se-check", "--lambda", "1.23456789012345", "--mu", "0.98765432109876",
      "--n", "150", "--t-max", "3", "--replicates", "1"), "se_check.csv"),
])
def test_echoed_config_replays_the_run(tmp_path, args, csv):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out-dir", str(a)) == 0
    echoed = a / "config_used.ini"
    keys = [line.split(" = ")[0] for line in echoed.read_text().splitlines()[1:]]
    assert keys == [opt.key for opt in TABLES[args[0]]]
    assert run_cli(args[0], "--config", str(echoed), "--out-dir", str(b)) == 0
    assert (a / csv).read_bytes() == (b / csv).read_bytes()


class TestSeCheckRun:
    """se-check checks its arguments, creates the output directory, and only
    then runs the replicates."""

    ARGS = ("se-check", "--lambda", "1", "--mu", "1", "--c", "1", "--eps", "0.2",
            "--n", "100", "--t-max", "2", "--replicates", "2")

    def test_value_error_during_the_run_is_a_failure(self, tmp_path, capsys, monkeypatch):
        def broken(cfg, point_index, rep_index):
            raise ValueError("broken replicate")

        monkeypatch.setattr("mvamp.experiments.run_replicate", broken)
        assert run_cli(*self.ARGS, "--out-dir", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.startswith("failure: ValueError: broken replicate")

    def test_output_directory_exists_before_the_first_replicate(self, tmp_path, monkeypatch):
        import mvamp.experiments as experiments

        out, seen = tmp_path / "o", []
        real = experiments.run_replicate

        def watched(cfg, point_index, rep_index):
            seen.append(out.is_dir())
            return real(cfg, point_index, rep_index)

        monkeypatch.setattr(experiments, "run_replicate", watched)
        assert run_cli(*self.ARGS, "--out-dir", str(out)) == 0
        assert seen == [True, True]
