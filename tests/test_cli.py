import json
import os
import resource
import shlex
import subprocess
import sys
import time

import mpmath
import pytest

import discwalk
from discwalk import AverageSeries, Schedule, walk
from discwalk.averages import EXACT_N_CAP
from discwalk.cli import entrypoint
from discwalk.rotation import walk_heights

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWalkCommand:
    def test_example_row(self, capsys):
        code, out, _ = run(capsys, "walk", "--alpha", "golden",
                           "--theta", "0", "--n", "4")
        assert code == 0
        assert "theta0_hex,N,min_h,max_h,a_N,levels" in out
        row = out.strip().splitlines()[-1]
        assert row.endswith(",4,0,1,2,0:2;1:2")

    def test_n_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "walk", "--alpha", "golden",
                           "--theta", "0", "--n", "0")
        assert code == 2 and "N must be >= 1" in err

    def test_missing_n(self, capsys):
        code, _, _ = run(capsys, "walk", "--alpha", "golden", "--theta", "0")
        assert code == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run(capsys, "walk", "--alpha", "golden", "--n", "64",
                             "--n-theta", "8", "--seed", "5", "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_random_thetas_need_seed(self, capsys):
        code, _, err = run(capsys, "walk", "--alpha", "golden", "--n", "8",
                           "--n-theta", "4")
        assert code == 2 and "seed" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "walk", "--alpha", "plastic",
                           "--theta", "0", "--n", "4")
        assert code == 2 and "unknown alpha preset" in err


class TestConstantsCommand:
    def test_minimal_run(self, capsys):
        code, out, _ = run(capsys, "constants", "--alpha", "golden", "--n", "16",
                           "--n-theta", "2", "--v-max", "0", "--seed", "1")
        assert code == 0
        assert "schema: discwalk-constants-v1" in out
        assert "m[0]:" in out

    def test_c_column_nondecreasing(self, capsys):
        code, out, _ = run(capsys, "constants", "--alpha", "golden",
                           "--n", "4096", "--n-theta", "8", "--v-max", "3",
                           "--seed", "1")
        assert code == 0
        cs = [float(line.split(":")[1]) for line in out.splitlines()
              if line.startswith("c[")]
        assert cs == sorted(cs)


class TestScheduleCommand:
    def test_desk_emit(self, capsys):
        code, out, _ = run(capsys, "schedule", "--mode", "desk",
                           "--pairs", "3:12,40:100")
        assert code == 0
        assert "schema: discwalk-schedule-v1" in out
        assert "l[1]: 3" in out and "r[2]: 100" in out

    def test_desk_overlap_is_config_error(self, capsys):
        code, _, _ = run(capsys, "schedule", "--mode", "desk", "--pairs", "2:6,7:10")
        assert code == 2

    def test_paper_generate_and_verify(self, capsys):
        code, out, _ = run(capsys, "schedule", "--mode", "paper",
                           "--c-const", "2", "--m-max", "4", "--margin", "0.99")
        assert code == 0
        assert "conditions_passed: True" in out

    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "schedule.txt"
        code, _, _ = run(capsys, "schedule", "--mode", "paper", "--c-const", "2",
                         "--m-max", "3", "--out", str(path))
        assert code == 0
        body = "\n".join(
            line for line in path.read_text().splitlines()
            if not line.startswith("#") and not line.startswith("conditions")
            and not line.startswith("max_ratio") and not line.startswith("a_ok")
            and not line.startswith("m["))
        schedule = Schedule.parse(body)
        code, out, _ = run(capsys, "schedule", "--schedule-file", str(path),
                           "--c-const", "2")
        assert code == 0 and "conditions_passed: True" in out


class TestAverageCommand:
    def test_empty_e(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "average", "--alpha", "golden", "--pairs", "",
                           "--n-list", "4,16", "--n-theta", "32", "--seed", "3",
                           "--report-out", str(report))
        assert code == 0
        series = AverageSeries.from_csv(out)
        assert series.values() == [0.0, 0.0]
        doc = json.loads(report.read_text())
        assert doc["oscillation"] == 0.0
        assert doc["config"]["seed"] == 3  # provenance echoed

    def test_routes_agree_exit_zero(self, capsys):
        code, _, _ = run(capsys, "average", "--alpha", "golden",
                         "--pairs", "2:6", "--n-list", "64", "--n-theta", "512",
                         "--seed", "3", "--routes", "reduced,exact,mc")
        assert code == 0

    def test_fault_injection_trips_gate(self, capsys):
        code, _, err = run(capsys, "average", "--alpha", "golden",
                           "--pairs", "2:6", "--n-list", "64", "--n-theta", "512",
                           "--seed", "3", "--routes", "reduced,mc",
                           "--fault-inject")
        assert code == 3 and "disagree" in err

    def test_exact_budget_exceeded(self, capsys):
        code, _, _ = run(capsys, "average", "--alpha", "golden", "--pairs", "2:6",
                         "--n-list", str(EXACT_N_CAP + 1), "--n-theta", "32",
                         "--seed", "3", "--routes", "exact,reduced")
        assert code == 4

    def test_exact_with_filter_rejected_before_writing(self, capsys, tmp_path):
        out, report = tmp_path / "series.csv", tmp_path / "report.json"
        code, _, err = run(capsys, *AVERAGE, "--n-list", "64", "--n-theta", "32",
                           "--routes", "reduced,exact", "--filter", "quantile:0.2",
                           "--out", str(out), "--report-out", str(report))
        assert code == 2 and "exact" in err and len(err.strip().splitlines()) == 1
        assert not out.exists() and not report.exists()

    def test_missing_subsequence_time_writes_nothing(self, capsys, tmp_path):
        # 331 = l_2 + r_2 + 1 is a subsequence time the report needs
        out = tmp_path / "series.csv"
        code, stdout, err = run(capsys, "average", "--alpha", "golden",
                                "--pairs", "2:6,30:300", "--n-list", "64,256,512",
                                "--n-theta", "16", "--seed", "1", "--out", str(out))
        assert code == 2 and "N=331" in err and len(err.strip().splitlines()) == 1
        assert stdout == "" and not out.exists()

    def test_unwritable_report_out_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, stdout, err = run(capsys, *AVERAGE, "--n-list", "64", "--n-theta", "16",
                                "--out", str(out),
                                "--report-out", str(tmp_path / "missing" / "r.json"))
        assert code == 2 and len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("report_out", ["same.txt", "./same.txt"])
    def test_out_and_report_out_same_file_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                         report_out):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, *AVERAGE, "--n-list", "64", "--n-theta", "16",
                                "--out", "same.txt", "--report-out", report_out)
        assert code == 2 and "same file" in err and len(err.strip().splitlines()) == 1
        assert stdout == "" and list(tmp_path.iterdir()) == []

    def test_thread_count_does_not_change_bytes(self, capsys, tmp_path):
        outs = []
        for i, threads in enumerate(("1", "4")):
            path = tmp_path / f"series{i}.csv"
            code, _, _ = run(capsys, "average", "--alpha", "golden",
                             "--pairs", "3:12", "--n-list", "16,64,256",
                             "--n-theta", "64", "--seed", "7",
                             "--threads", threads, "--out", str(path),
                             "--report-out", str(tmp_path / f"r{i}.json"))
            assert code == 0
            text = path.read_text()
            # the echoed config differs only in the threads and path lines
            outs.append("\n".join(l for l in text.splitlines()
                                  if not l.startswith(("# threads", "# report_out"))))
        assert outs[0] == outs[1]


class TestOtherCommands:
    def test_ratio(self, capsys):
        code, out, _ = run(capsys, "ratio", "--alpha", "golden", "--n-theta", "16",
                           "--v-max", "1", "--n-list", "100,1000", "--seed", "2")
        assert code == 0
        assert "v,N,median_ratio,median_abs_dev_from_one" in out

    def test_ratio_lines_cost_the_same_at_every_level(self, capsys):
        # a scan of all 32000 levels for each line's level took about 27 s
        start = time.perf_counter()
        code, out, _ = run(capsys, "ratio", "--alpha", "golden", "--n-theta", "2",
                           "--v-max", "16000", "--n-list", "100,1000", "--seed", "2")
        assert code == 0 and len(out.splitlines()) == 7 + 4 * 16000
        assert time.perf_counter() - start < 10

    def test_entropy_proxy(self, capsys):
        code, out, _ = run(capsys, "entropy-proxy", "--alpha", "golden",
                           "--n-theta", "16", "--n-list", "1,100", "--seed", "2")
        assert code == 0
        assert out.strip().splitlines()[-2].startswith("1,1.0")

    def test_ergodicity(self, capsys):
        code, out, _ = run(capsys, "ergodicity", "--alpha", "golden", "--n", "64",
                           "--n-samples", "32", "--seed", "4",
                           "--cyl-a", "", "--cyl-b", "")
        assert code == 0
        assert "cesaro_average: 1.0" in out and "product_of_measures: 1.0" in out

    def test_ergodicity_cylinder_a_beyond_walk_window(self, capsys):
        # cylinder A is read at time 0 only, so its coordinate 100 widens
        # the symbol window instead of failing the budget for B's walk
        code, out, err = run(capsys, "ergodicity", "--alpha", "golden", "--n", "1000",
                             "--n-samples", "20", "--seed", "1",
                             "--cyl-a", "100:1", "--cyl-b", "0:1")
        assert code == 0, err
        assert "product_of_measures: 0.25" in out

    @pytest.mark.parametrize("cyl_a, cyl_b, lhs, sigmas", [
        # no sample lands in A, so every sample is 0 against a product of 2**-9
        ("0:1,1:1,2:1,3:1,4:1,5:1,6:1,7:1", "0:1", "0.0", "inf"),
        ("", "", "1.0", "0.0"),  # every sample is 1, and so is the product
    ])
    def test_ergodicity_without_spread(self, capsys, cyl_a, cyl_b, lhs, sigmas):
        code, out, _ = run(capsys, "ergodicity", "--alpha", "golden", "--n", "64",
                           "--n-samples", "20", "--seed", "1",
                           "--cyl-a", cyl_a, "--cyl-b", cyl_b)
        assert code == 0
        assert f"cesaro_average: {lhs}\n" in out and "stderr: 0.0\n" in out
        assert out.endswith(f"sigmas: {sigmas}\n")


AVERAGE = ["average", "--alpha", "golden", "--pairs", "2:6", "--seed", "1"]
WALK = ["walk", "--alpha", "golden", "--theta", "0", "--n", "4"]
PAPER = ["schedule", "--mode", "paper", "--c-const", "2", "--m-max", "2"]


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return str(path)

    def test_file_supplies_values(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "schema: discwalk-config-v1\n"
                                   "alpha: golden\nn: 4\ntheta: ['0']\n")
        code, out, _ = run(capsys, "walk", "--config", cfg)
        assert code == 0 and ",4,0,1,2," in out

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "schema: discwalk-config-v1\n"
                                   "alpha: golden\nn: 4\ntheta: ['0']\n")
        code, out, _ = run(capsys, "walk", "--config", cfg, "--n", "8")
        assert code == 0 and ",8,0,2," in out

    def test_bad_schema_rejected(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "schema: discwalk-config-v2\n")
        code, _, err = run(capsys, "walk", "--config", cfg, "--n", "4")
        assert code == 2 and "schema" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "walk", "--config", "/nonexistent.yaml", "--n", "4")
        assert code == 2

    def test_int_valued_float_setting_matches_flag_run(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "schema: discwalk-config-v1\nmode: paper\n"
                                   "c_const: 2\nm_max: 4\nmargin: 0.99\n")
        code, from_file, _ = run(capsys, "schedule", "--config", cfg)
        assert code == 0
        code, from_flags, _ = run(capsys, "schedule", "--mode", "paper", "--c-const", "2",
                                  "--m-max", "4", "--margin", "0.99")
        assert code == 0
        assert from_file == from_flags and "# c_const: 2.0\n" in from_file

    @pytest.mark.parametrize("argv, text", [
        (["walk", "--alpha", "golden", "--theta", "0"], "n: abc"),
        (["walk", "--alpha", "golden", "--theta", "0"], "n: [1]"),
        (WALK, "threads: abc"),
        (WALK, "seed: abc"),
        (["walk", "--alpha", "golden", "--n-theta", "2", "--n", "4"], "seed: -1"),
        (PAPER, "margin: [1]"),
        (["schedule", "--mode", "paper", "--m-max", "2"], "c_const: abc"),
        (["schedule", "--pairs", "3:12,40:100"], "mode: bogus"),
        (AVERAGE + ["--n-list", "64", "--n-theta", "32"], "routes: [exact]"),
        (["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "4", "--seed", "1"],
         "cyl_a: 5"),
        (WALK, "nn: 5"),
        (WALK, "alpha: [golden"),
        (AVERAGE + ["--n-theta", "32"], "n_list: [.inf]"),
        (["average", "--alpha", "golden", "--n-list", "64", "--n-theta", "32", "--seed", "1"],
         "pairs: [[2, 6, 1]]"),
        (WALK + ["--seed", "1"], "n_theta: 3"),
    ])
    def test_bad_config_exit_2_with_one_line(self, capsys, tmp_path, argv, text):
        cfg = self.write(tmp_path, "schema: discwalk-config-v1\n" + text + "\n")
        code, out, err = run(capsys, *argv, "--config", cfg)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_cylinder_list_matches_flag_run(self, capsys, tmp_path):
        argv = ["ergodicity", "--alpha", "golden", "--n", "1000", "--n-samples", "20",
                "--seed", "1", "--cyl-b", "0:1"]
        cfg = self.write(tmp_path, "schema: discwalk-config-v1\ncyl_a: [[0, 1]]\n")
        code, from_file, _ = run(capsys, *argv, "--config", cfg)
        assert code == 0
        code, from_flags, _ = run(capsys, *argv, "--cyl-a", "0:1")
        assert code == 0
        # the echoed setting keeps the form it was given in
        assert from_file.replace("# cyl_a: [[0, 1]]\n", "# cyl_a: 0:1\n") == from_flags

    def test_effective_config_echoed(self, capsys, tmp_path):
        cfg = self.write(tmp_path, "schema: discwalk-config-v1\n"
                                   "alpha: golden\nn: 4\ntheta: ['0']\n")
        code, out, _ = run(capsys, "walk", "--config", cfg, "--n", "8")
        assert code == 0
        assert "# n: 8" in out and "# alpha: golden" in out


class TestBadInput:
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_unwritable_out_exit_2_with_one_line(self, capsys, tmp_path, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
        code, stdout, err = run(capsys, *WALK, "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert err.startswith(f"config: cannot write {out}")

    @pytest.mark.parametrize("argv", [
        AVERAGE + ["--n-list", "64", "--n-theta", "5"],
        AVERAGE + ["--n-list", "64", "--n-theta", "5", "--routes", "mc"],
        AVERAGE + ["--n-list", "0,64", "--n-theta", "32"],
        AVERAGE + ["--n-list", "64,64", "--n-theta", "32"],
        AVERAGE + ["--n-list", "64,64", "--routes", "exact"],
        AVERAGE + ["--n-list", "64", "--n-theta", "32", "--filter", "quantile:1.5"],
        ["schedule", "--mode", "paper", "--c-const", "2", "--m-max", "2",
         "--margin", "1.5"],
        ["schedule", "--mode", "paper", "--c-const", "2", "--m-max", "2",
         "--margin", "0"],
        ["schedule", "--mode", "paper", "--c-const", "0", "--m-max", "2"],
        ["schedule", "--mode", "paper", "--c-const", "inf", "--m-max", "2"],
        ["constants", "--alpha", "golden", "--n", "8", "--n-theta", "4", "--seed", "1"],
        ["ratio", "--alpha", "golden", "--n-theta", "16", "--n-list", "0", "--seed", "1"],
        ["entropy-proxy", "--alpha", "golden", "--n-theta", "16", "--n-list", "0",
         "--seed", "1"],
        ["walk", "--alpha", "golden", "--theta", "abc", "--n", "4"],
        ["ratio", "--alpha", "golden", "--n-theta", "0", "--n-list", "10", "--seed", "1"],
        ["entropy-proxy", "--alpha", "golden", "--n-theta", "0", "--n-list", "10",
         "--seed", "1"],
        ["ergodicity", "--alpha", "golden", "--n", "0", "--n-samples", "4", "--seed", "1"],
        ["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "1", "--seed", "1"],
        ["walk", "--alpha", "golden", "--n", "4", "--n-theta", "0", "--seed", "1"],
        ["constants", "--alpha", "golden", "--n", "16", "--n-theta", "2", "--v-max", "-1",
         "--seed", "1"],
        ["schedule", "--mode", "paper", "--c-const", "2", "--m-max", "0"],
        ["schedule", "--mode", "paper", "--c-const", "nan", "--m-max", "2"],
        WALK + ["--threads", "0"],
        ["ratio", "--alpha", "golden", "--n-theta", "4", "--v-max", "0", "--n-list", "10",
         "--seed", "1"],
        AVERAGE + ["--n-list", "64", "--n-theta", "32", "--filter", "quantile:0.2:0"],
        AVERAGE + ["--n-list", "64", "--n-theta", "32", "--filter", "quantile:0.2:-5"],
        AVERAGE + ["--n-list", "64", "--n-theta", "32", "--filter", "quantile:0.2:64:-1"],
        ["walk", "--alpha", "golden", "--n-theta", "2", "--n", "4", "--seed", "-5"],
        ["ratio", "--alpha", "golden", "--n-theta", "-1", "--n-list", "100", "--seed", "1"],
        ["entropy-proxy", "--alpha", "golden", "--n-theta", "-3", "--n-list", "100",
         "--seed", "1"],
        ["constants", "--alpha", "golden", "--n", "100", "--n-theta", "-2", "--seed", "1"],
        ["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "4", "--seed", "-1"],
        ["walk", "--alpha", "golden", "--theta", "1.5", "--n", "4"],
        ["walk", "--alpha", "golden", "--theta", "-0.5", "--n", "4"],
        ["walk", "--alpha", "golden", "--theta", "1e400", "--n", "4"],
        ["schedule", "--mode", "desk", "--pairs", "2:6:99"],
        ["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "4", "--seed", "1",
         "--cyl-a", "0:1:7"],
        # ESet keeps l + r + 1 as an int64 edge
        ["average", "--alpha", "golden", "--pairs", "2:9223372036854775805", "--n-list", "64",
         "--n-theta", "16", "--seed", "1"],
        ["average", "--alpha", "golden", "--pairs", "2:9223372036854775807", "--n-list", "64",
         "--n-theta", "16", "--seed", "1"],
        ["schedule", "--mode", "desk", "--pairs", "9223372036854775808:1"],
        AVERAGE + ["--n-list", "64", "--n-theta", "16", "--filter", "quantile:0.5:64:2:9"],
        # the header would echo a sample of n_theta points that never ran
        WALK + ["--n-theta", "3", "--seed", "1"],
        # an empty route list names no route, and is not the default
        AVERAGE + ["--n-list", "64", "--n-theta", "32", "--routes", ""],
    ])
    def test_exit_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--cyl-a", "0:1,0:1", "cylinder coordinates must be distinct"),
        ("--cyl-b", "0:2", "cylinder symbols must be +/-1"),
    ])
    def test_cylinder_spec_keeps_its_message(self, capsys, flag, value, message):
        code, out, err = run(capsys, "ergodicity", "--alpha", "golden", "--n", "10",
                             "--n-samples", "4", "--seed", "1", flag, value)
        assert code == 2
        assert out == ""
        assert err.strip() == f"config: {message}"

    # the kernel refuses each of these requests outright, so no memory is touched
    @pytest.mark.parametrize("argv", [
        ["walk", "--alpha", "golden", "--n", "4", "--seed", "1", "--n-theta", str(10**17)],
        ["walk", "--alpha", "golden", "--n", "4", "--seed", "1", "--n-theta", str(10**18)],
        ["walk", "--alpha", "golden", "--n", "4", "--seed", "1", "--n-theta", str(10**20)],
        AVERAGE + ["--n-list", "64", "--n-theta", str(10**17)],
        ["ergodicity", "--alpha", "golden", "--n", "8", "--seed", "1",
         "--n-samples", str(10**17)],
        # a band of 2 * v_max + 1 levels per theta and checkpoint
        ["constants", "--alpha", "golden", "--n", "100", "--n-theta", "2", "--seed", "1",
         "--v-max", str(10**15)],
        ["constants", "--alpha", "golden", "--n", "100", "--n-theta", "2", "--seed", "1",
         "--v-max", str(10**22)],
        AVERAGE + ["--n-list", "64", "--n-theta", "16",
                   "--filter", f"quantile:0.2:64:{10**15}"],
        # a symbol window as wide as the farthest cylinder coordinate
        ["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "20", "--seed", "1",
         "--cyl-a", f"{10**22}:1"],
        ["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "20", "--seed", "1",
         "--cyl-b", f"{10**19}:1"],
        ["ergodicity", "--alpha", "golden", "--n", "8", "--n-samples", "20", "--seed", "1",
         "--cyl-a", f"{10**15}:1"],
    ])
    def test_unallocatable_sample_count_exit_4_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    # the band of 2 * v_max + 1 levels is asked for before any level is
    # listed; the run is capped at 2 GiB of address space, because without a
    # cap the allocator may grant the band and the walk then fill it
    @pytest.mark.parametrize("v_max", [10**9, 10**15])
    def test_huge_ratio_band_exit_4_with_one_line(self, v_max):
        limit = 2 << 30
        src = os.path.dirname(os.path.dirname(discwalk.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from discwalk.cli import entrypoint; sys.exit(entrypoint(sys.argv[1:]))",
             "ratio", "--alpha", "golden", "--n-theta", "2", "--n-list", "100", "--seed", "1",
             "--v-max", str(v_max)],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["walk", "--alpha", "golden", "--theta", "0", "--n", str(10**14)],
        # [0; 3000, 2, 2, ...] has no block table, so its walk is one stretch
        ["walk", "--alpha", "cf:3000" + ",2" * 150 + ":3000", "--theta", "0",
         "--n", str(10**12)],
    ])
    def test_huge_walk_exit_4_with_one_line(self, capsys, monkeypatch, argv):
        def short_walks_only(theta, alpha, n):
            assert n <= 1 << 20, f"walked {n} steps"
            return walk_heights(theta, alpha, n)

        monkeypatch.setattr(walk, "walk_heights", short_walks_only)
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("body", [
        b"l[1]: 3\nr[1]: 12\n",  # no mode
        b"mode: weird\nl[1]: 3\nr[1]: 12\n",
        b"mode: desk\nl[1]: abc\nr[1]: 12\n",
        b"mode: desk\nl[1]: 3\n",  # no r[1]
        b"mode: desk\nl[1]: 0\nr[1]: 12\n",
        b"mode: paper\nl[1]: 2\nr[1]: log:1:abc:0\n",
        b"mode: paper\nl[1]: 2\nr[1]: log:1:5\n",
        b"mode: paper\nl[1]: 2\nr[1]: log:-1:5:0\n",
        b"mode: paper\nl[1]: 2\nr[1]: log:1:0:0\n",
        b"mode: desk\nl[1]: \xff\nr[1]: 12\n",  # not UTF-8
        b"mode: desk\nl[1]: 50\nr[1]: 3\nl[2]: 10\nr[2]: 1\n",  # descending
        b"mode: desk\nl[1]: log:1:5:0\nr[1]: 3\n",  # not an exact integer
        b"mode: desk\nl[1]: 2\nr[1]: 9223372036854775806\n",  # l + r + 1 = 2**63 + 1
    ])
    def test_bad_schedule_file_exit_2_with_one_line(self, capsys, tmp_path, body):
        path = tmp_path / "schedule.txt"
        path.write_bytes(b"schema: discwalk-schedule-v1\n" + body)
        code, out, err = run(capsys, "schedule", "--schedule-file", str(path),
                             "--c-const", "2")
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_threads_echoed_as_given(capsys):
    # the header depends on the configuration alone, not on the host's CPUs
    cpus = os.cpu_count() or 1
    code, out, _ = run(capsys, *WALK, "--threads", str(cpus + 1))
    assert code == 0
    assert f"# threads: {cpus + 1}\n" in out


def test_paper_schedule_independent_of_global_precision(capsys):
    argv = ["schedule", "--mode", "paper", "--c-const", "2", "--m-max", "10",
            "--margin", "0.99"]
    saved = mpmath.mp.dps
    outs = []
    try:
        for dps in (15, 60):
            mpmath.mp.dps = dps
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
    finally:
        mpmath.mp.dps = saved
    assert outs[0] == outs[1]


def readme_commands():
    with open(README) as f:
        blocks = f.read().split("```sh\n")[1:]
    commands = []
    for block in blocks:
        text = block.split("```")[0].replace("\\\n", " ")
        commands += [line for line in text.splitlines() if line.startswith("discwalk ")]
    return commands


def test_readme_sampled_examples_import_neither_numpy_random_nor_mpmath():
    # in a fresh process: numpy.random's import alone costs more than the
    # sampled routes' draws, only paper schedules need mpmath's, and only a
    # config file needs yaml's.  numpy before 2.0 imports numpy.random
    # itself, so only modules that the examples load beyond numpy's own count.
    commands = [shlex.split(line)[1:] for line in readme_commands()
                if line.split()[1] in ("average", "ergodicity")]
    assert [argv[0] for argv in commands] == ["average", "ergodicity"]
    assert "reduced,exact,mc" in commands[0]
    src = os.path.dirname(os.path.dirname(discwalk.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "import numpy\n"
         "loaded = set(sys.modules)\n"
         "from discwalk.cli import entrypoint\n"
         "codes = [entrypoint(argv) for argv in json.loads(sys.argv[1])]\n"
         "print(codes, sorted({'numpy.random', 'mpmath', 'yaml'} & (set(sys.modules) - loaded)))",
         json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"


def test_readme_examples_exit_zero(capsys):
    commands = readme_commands()
    assert len(commands) == 4
    for line in commands:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


def test_readme_ergodicity_example_output(capsys):
    # N = 10**5 is past golden's q = 10946, so every theta's blocks are read
    # off the block table at once: these bytes pin that path of the sampled
    # statistics
    [line] = [line for line in readme_commands() if line.split()[1] == "ergodicity"]
    code, out, _ = run(capsys, *shlex.split(line)[1:])
    assert code == 0
    assert out.splitlines()[-4:] == [
        "cesaro_average: 0.2959811",
        "product_of_measures: 0.25",
        "stderr: 0.0170388665582088",
        "sigmas: 2.6986008630866194",
    ]
