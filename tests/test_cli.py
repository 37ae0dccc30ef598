import csv
import json
import math
import os

import pytest

from sirmnn import cli
from sirmnn.cli import _threads, main
from sirmnn.scenarios import figure1_panel


def run(argv, env=None, monkeypatch=None):
    if env and monkeypatch:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
    return main(argv)


def _panel_a_with(field: str, value: float) -> str:
    """Problem JSON of panel a with one field of its first source ball replaced."""
    obj = figure1_panel("a").to_json()
    obj["source"]["components"][0][field] = value
    return json.dumps(obj)


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "sc"
    rc = main([
        "scenario", "--panel", "a", "--n", "400", "--m", "40",
        "--eval-n", "200", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    return out


class TestScenario:
    def test_writes_expected_files(self, scenario_dir):
        names = sorted(os.listdir(scenario_dir))
        assert names == ["eval.csv", "problem.json", "source.csv", "target_labeled.csv", "target_unlabeled.csv"]
        with open(scenario_dir / "source.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 401  # header + n

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["scenario", "--panel", "c", "--n", "100", "--m", "10", "--seed", "3", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("problem.json", "source.csv", "target_labeled.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_invalid_panel_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--panel", "z", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_spec_path_missing_exits_2(self, tmp_path):
        rc = main(["scenario", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "y")])
        assert rc == 2


class TestTrain:
    def test_source_only(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main([
            "train", "--regime", "source-only", "--panel", "a",
            "--source", str(scenario_dir / "source.csv"),
            "--eval", str(scenario_dir / "eval.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out.strip()
        summary = json.loads(stdout)
        assert summary["chosen_map_index"] == 1
        assert "target_risk" in summary
        body = json.loads(out.read_text())
        assert body["regime"] == "source-only"
        assert len(body["diagnostics"]) == 2

    def test_unlabeled_regime(self, tmp_path, capsys):
        sc = tmp_path / "scb"
        assert main(["scenario", "--panel", "b", "--n", "600", "--m", "40", "--seed", "5", "--out", str(sc)]) == 0
        out = tmp_path / "t2.json"
        rc = main([
            "train", "--regime", "unlabeled", "--panel", "b",
            "--source", str(sc / "source.csv"),
            "--target", str(sc / "target_unlabeled.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["chosen_map_index"] == 1

    def test_validate_regime(self, tmp_path, capsys):
        sc = tmp_path / "scc"
        assert main(["scenario", "--panel", "c", "--n", "800", "--m", "25", "--seed", "6", "--out", str(sc)]) == 0
        out = tmp_path / "t3.json"
        rc = main([
            "train", "--regime", "validate", "--panel", "c",
            "--source", str(sc / "source.csv"),
            "--target", str(sc / "target_labeled.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["chosen_map_index"] == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main([
            "train", "--regime", "source-only", "--panel", "a",
            "--source", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 2
        assert "missing.csv" in capsys.readouterr().err

    def test_regime_input_mismatch_exits_2(self, scenario_dir, tmp_path):
        # labeled CSV fed to the unlabeled regime: header mismatch
        rc = main([
            "train", "--regime", "unlabeled", "--panel", "a",
            "--source", str(scenario_dir / "source.csv"),
            "--target", str(scenario_dir / "target_labeled.csv"),
            "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 2

    def test_singleton_family_spec(self, tmp_path, capsys):
        # custom problem JSON whose family has one map: that map is chosen
        from sirmnn.featuremaps import FeatureFamily, identity_map
        from sirmnn.scenarios import ShiftProblem, figure1_panel

        base = figure1_panel("a")
        prob = ShiftProblem(base.source, base.target, FeatureFamily((identity_map(2),)))
        spec_path = tmp_path / "single.json"
        prob.save(spec_path)
        sc = tmp_path / "sc1"
        assert main(["scenario", "--spec", str(spec_path), "--n", "200", "--seed", "4", "--out", str(sc)]) == 0
        out = tmp_path / "single_train.json"
        rc = main([
            "train", "--regime", "source-only", "--spec", str(spec_path),
            "--source", str(sc / "source.csv"), "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["chosen_map_index"] == 0

    def test_fixed_epsilon_mode(self, scenario_dir, tmp_path):
        out = tmp_path / "t4.json"
        rc = main([
            "train", "--regime", "source-only", "--panel", "a",
            "--source", str(scenario_dir / "source.csv"),
            "--epsilon-mode", "fixed:0.25", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["epsilon"] == 0.25

    def test_bad_epsilon_mode(self, scenario_dir, tmp_path):
        rc = main([
            "train", "--regime", "source-only", "--panel", "a",
            "--source", str(scenario_dir / "source.csv"),
            "--epsilon-mode", "sometimes", "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 2


class TestSweep:
    def sweep_args(self, tmp_path, tag, regime="source-only"):
        grid_m = [] if regime == "source-only" else ["--grid-m", "30"]
        return [
            "sweep", "--panel", "a", "--regime", regime,
            "--grid-n", "100,200", *grid_m, "--trials", "2", "--eval-n", "300",
            "--seed", "9",
            "--out-csv", str(tmp_path / f"rec{tag}.csv"),
            "--out-json", str(tmp_path / f"sum{tag}.json"),
        ]

    def test_record_count_and_schema(self, tmp_path):
        assert main(self.sweep_args(tmp_path, "a")) == 0
        with open(tmp_path / "reca.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 cells x 2 trials
        assert all(r["status"] == "ok" for r in rows)
        summary = json.loads((tmp_path / "suma.json").read_text())
        assert {c["n"] for c in summary["cells"]} == {100, 200}
        for cell in summary["cells"]:
            assert "target_risk_median" in cell
            assert cell["trials"] == 2

    def test_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        self.assert_thread_count_invariant(tmp_path, monkeypatch, "source-only")

    @pytest.mark.parametrize("regime", ["unlabeled", "validate"])
    def test_byte_identical_across_thread_counts_with_target(self, tmp_path, monkeypatch, regime):
        self.assert_thread_count_invariant(tmp_path, monkeypatch, regime)

    def assert_thread_count_invariant(self, tmp_path, monkeypatch, regime):
        noisy = ["--flip-prob", "0.1"]  # so risks differ from trial to trial
        # SIRM_THREADS caps the CPUs the process may use; allow 8 so that "8" means 8 workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setenv("SIRM_THREADS", "1")
        assert main(self.sweep_args(tmp_path, "b", regime) + noisy) == 0
        monkeypatch.setenv("SIRM_THREADS", "8")
        assert main(self.sweep_args(tmp_path, "c", regime) + noisy) == 0
        assert (tmp_path / "recb.csv").read_bytes() == (tmp_path / "recc.csv").read_bytes()
        assert (tmp_path / "sumb.json").read_bytes() == (tmp_path / "sumc.json").read_bytes()

    def test_failed_trial_keeps_its_message(self, tmp_path, monkeypatch, capsys):
        def boom(*args):
            raise RuntimeError("map scoring exploded")

        monkeypatch.setattr(cli, "direct_generalize_nn", boom)
        assert main(self.sweep_args(tmp_path, "f")) == 0
        err = capsys.readouterr().err
        for cell in (0, 1):
            for trial in (0, 1):
                assert f"trial ({cell}, {trial}): RuntimeError: map scoring exploded" in err
        assert err.count("Traceback (most recent call last)") == 4
        assert err.count(", in boom\n") == 4
        rows = [
            f"source-only,{n},0,{trial},-1,0,,,error:RuntimeError"
            for n in (100, 200) for trial in (0, 1)
        ]
        want = "\r\n".join([",".join(cli.SWEEP_FIELDS), *rows, ""])
        assert (tmp_path / "recf.csv").read_bytes().decode() == want
        cells = json.loads((tmp_path / "sumf.json").read_text())["cells"]
        assert [(c["trials"], c["failed"]) for c in cells] == [(2, 2), (2, 2)]

    def test_single_cell_matches_train(self, tmp_path):
        """A 1x1 sweep record equals a train run on identically sampled data."""
        from sirmnn.core import SeedSpec, save_csv
        from sirmnn.scenarios import figure1_panel, sample

        rc = main([
            "sweep", "--panel", "a", "--regime", "source-only",
            "--grid-n", "300", "--trials", "1", "--eval-n", "400", "--seed", "11",
            "--out-csv", str(tmp_path / "one.csv"),
            "--out-json", str(tmp_path / "one.json"),
        ])
        assert rc == 0
        with open(tmp_path / "one.csv") as fh:
            (record,) = list(csv.DictReader(fh))

        # rebuild the trial's exact sample streams (cell 0, trial 0)
        prob = figure1_panel("a")
        sub = SeedSpec(11).substream(0, 0)
        save_csv(sample(prob.source, 300, sub.substream(0)), tmp_path / "src.csv")
        save_csv(sample(prob.target, 400, sub.substream(2)), tmp_path / "ev.csv")
        rc = main([
            "train", "--regime", "source-only", "--panel", "a",
            "--source", str(tmp_path / "src.csv"),
            "--eval", str(tmp_path / "ev.csv"),
            "--out", str(tmp_path / "train.json"),
        ])
        assert rc == 0
        body = json.loads((tmp_path / "train.json").read_text())
        assert int(record["chosen_map"]) == body["chosen_map_index"]
        assert float(record["target_risk"]) == pytest.approx(body["target_risk"])

    def test_regime_needs_grid_m(self, tmp_path):
        rc = main([
            "sweep", "--panel", "b", "--regime", "unlabeled",
            "--grid-n", "100", "--trials", "1",
            "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--regime", "source-only", "--grid-n=-5"],
        ["--regime", "source-only", "--grid-n", "4"],
        ["--regime", "unlabeled", "--grid-n", "100", "--grid-m", "0,20"],
        ["--regime", "source-only", "--grid-n", "100", "--eval-n", "0"],
        ["--regime", "source-only", "--grid-n", "100", "--grid-m", "5,500"],
        ["--regime", "unlabeled", "--grid-n", "100", "--grid-m", ","],
    ])
    def test_unusable_grid_values_exit_2(self, tmp_path, flags, capsys):
        # Each would fail every trial with a ValueError; none may start.
        rc = main([
            "sweep", "--panel", "a", *flags, "--trials", "1",
            "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.slow
def test_sweep_risk_curve_non_increasing(tmp_path):
    """Median target risk does not increase across the n grid."""
    rc = main([
        "sweep", "--panel", "a", "--regime", "source-only",
        "--grid-n", "250,1000,4000", "--trials", "20", "--eval-n", "1000",
        "--seed", "13",
        "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "s.json"),
    ])
    assert rc == 0
    with open(tmp_path / "r.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    summary = json.loads((tmp_path / "s.json").read_text())
    med = {c["n"]: c["target_risk_median"] for c in summary["cells"]}
    steps = [(250, 1000), (1000, 4000)]
    assert sum(med[b] <= med[a] for a, b in steps) >= 2


class TestPlot:
    def test_empty_records(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("learner,n,m,trial,chosen_map,fallback,source_risk,target_risk,status\n")
        out = tmp_path / "p.svg"
        assert main(["plot", "--records", str(path), "--out", str(out)]) == 0
        body = out.read_text()
        assert body.startswith("<svg")
        assert "no data" in body

    def test_deterministic_bytes(self, tmp_path):
        assert main([
            "sweep", "--panel", "a", "--regime", "source-only",
            "--grid-n", "100,200", "--trials", "2", "--eval-n", "200", "--seed", "2",
            "--out-csv", str(tmp_path / "r.csv"), "--out-json", str(tmp_path / "s.json"),
        ]) == 0
        for tag in ("p1", "p2"):
            assert main(["plot", "--records", str(tmp_path / "r.csv"), "--out", str(tmp_path / f"{tag}.svg")]) == 0
        assert (tmp_path / "p1.svg").read_bytes() == (tmp_path / "p2.svg").read_bytes()
        body = (tmp_path / "p1.svg").read_text()
        assert "risk vs n" in body and "selection frequency" in body
        assert body.count("<path") == 1  # one curve per learner present

    def test_schema_mismatch_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        rc = main(["plot", "--records", str(path), "--out", str(tmp_path / "x.svg")])
        assert rc == 2


class TestDdprobe:
    def test_cor_4_2(self, tmp_path, capsys):
        out = tmp_path / "dd.json"
        rc = main([
            "ddprobe", "--family", "cor:4,2", "--quads", "30",
            "--sizes", "1,2,3,4,5", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["dd_upper"] == 4.0
        by_size = {r["size"]: r["status"] for r in report["results"]}
        assert by_size[5] == "none"

    def test_singleton_family_nothing_shatters(self, tmp_path):
        out = tmp_path / "dd1.json"
        fam_path = tmp_path / "fam.json"
        from sirmnn.featuremaps import FeatureFamily, coordinate_map

        FeatureFamily((coordinate_map(3, [0]),)).save(fam_path)
        rc = main([
            "ddprobe", "--family", str(fam_path), "--quads", "10",
            "--sizes", "1,2", "--seed", "1", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert all(r["status"] == "none" for r in report["results"])

    def test_proj_bound_row(self, tmp_path):
        out = tmp_path / "dd2.json"
        rc = main([
            "ddprobe", "--family", "proj:3,2,8", "--quads", "12",
            "--sizes", "1,2,3", "--seed", "2", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["dd_upper"] == 9.0
        assert report["family"]["size"] == 8

    def test_budget_inconclusive_exit_0(self, tmp_path):
        out = tmp_path / "dd3.json"
        rc = main([
            "ddprobe", "--family", "cor:5,2", "--quads", "40",
            "--sizes", "3", "--budget", "5", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["results"][0]["status"] == "inconclusive"


class TestExitCodes:
    def test_library_value_error_is_internal(self, scenario_dir, tmp_path, monkeypatch, capsys):
        def bad(*args):
            raise ValueError("library bug")

        monkeypatch.setattr(cli, "direct_generalize_nn", bad)
        rc = main([
            "train", "--regime", "source-only", "--panel", "a",
            "--source", str(scenario_dir / "source.csv"), "--out", str(tmp_path / "o.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "internal error: ValueError: library bug" in err
        assert "Traceback (most recent call last)" in err
        assert ", in bad\n" in err

    @pytest.mark.parametrize("flags", [
        ["--flip-prob", "0.7"],
        ["--lambda", "1.5"],
        ["--source", "{sc}/target_unlabeled.csv"],
        ["--source", "{sc}/d3.csv"],
        ["--source", "{sc}/tiny.csv"],
        ["--regime", "unlabeled", "--target", "{sc}/empty.csv"],
        ["--lambda", "nan"],
        ["--lambda", "inf"],
        ["--epsilon-mode", "fixed:nan"],
        ["--regime", "unlabeled"],
        ["--regime", "validate"],
    ])
    def test_bad_train_input_exits_2(self, scenario_dir, tmp_path, flags, capsys):
        (scenario_dir / "d3.csv").write_text("x_0,x_1,x_2,y\n0.1,0.2,0.3,0\n")
        (scenario_dir / "empty.csv").write_text("x_0,x_1\n")
        lines = (scenario_dir / "source.csv").read_text().splitlines(keepends=True)
        (scenario_dir / "tiny.csv").write_text("".join(lines[:8]))  # header + 7 rows
        argv = ["train", "--regime", "source-only", "--panel", "a",
                "--source", str(scenario_dir / "source.csv"), "--out", str(tmp_path / "o.json")]
        argv += [f.format(sc=scenario_dir) for f in flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["ddprobe", "--family", "cor:3", "--out", "{tmp}/o.json"],
        ["ddprobe", "--family", "cor:2,5", "--out", "{tmp}/o.json"],
        ["sweep", "--panel", "a", "--regime", "source-only", "--grid-n", "1x",
         "--out-csv", "{tmp}/x.csv", "--out-json", "{tmp}/x.json"],
        ["ddprobe", "--family", "proj:2,3,1", "--out", "{tmp}/o.json"],
    ])
    def test_bad_spec_exits_2(self, tmp_path, argv):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2

    @pytest.mark.parametrize("argv, text, key", [
        (["scenario", "--spec", "{f}", "--out", "{tmp}/x"], "{}", "'source'"),
        (["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"], "{}", "'D'"),
        (["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"], '{"D": 2, "maps": 3}', "not iterable"),
        (["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"],
         '{"D": 5, "K": 2, "maps": [{"matrix": [[1, 0], [0, 1], [0, 0]]}, {"matrix": [[0, 1], [1, 0], [0, 0]]}]}',
         "D=5, K=2"),
        (["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"],
         '{"schema_version": 7, "D": 2, "K": 1, "maps": [{"J": [0]}, {"J": [1]}]}', "schema_version 7"),
        (["scenario", "--spec", "{f}", "--out", "{tmp}/x"], '{"schema_version": 2}', "schema_version 2"),
        (["scenario", "--spec", "{f}", "--out", "{tmp}/x"], "[]", "list indices"),
        pytest.param(["scenario", "--spec", "{f}", "--out", "{tmp}/x"], _panel_a_with("weight", math.nan),
                     "component weight", id="nan-weight"),
        pytest.param(["scenario", "--spec", "{f}", "--out", "{tmp}/x"], _panel_a_with("radius", math.inf),
                     "component radius", id="infinite-radius"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"], '{"D": 2, "K": 1, "maps": [{"matrix": 5}]}',
                     "linear map needs a (D, K) matrix", id="scalar-family-matrix"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"], '{"D": 2, "K": 1, "maps": [{"matrix": null}]}',
                     "linear map needs a (D, K) matrix", id="null-family-matrix"),
        pytest.param(["train", "--spec", "{f}", "--regime", "source-only", "--source", "{tmp}/s.csv", "--out", "{tmp}/o.json"],
                     json.dumps({**figure1_panel("a").to_json(), "family": {"D": 2, "K": 1, "maps": [{"matrix": 5}]}}),
                     "linear map needs a (D, K) matrix", id="scalar-problem-matrix"),
        pytest.param(["train", "--spec", "{f}", "--regime", "source-only", "--source", "{tmp}/s.csv", "--out", "{tmp}/o.json"],
                     json.dumps({**figure1_panel("a").to_json(), "family": {"D": 2, "K": 1, "maps": [{"matrix": None}]}}),
                     "linear map needs a (D, K) matrix", id="null-problem-matrix"),
        pytest.param(["scenario", "--spec", "{f}", "--out", "{tmp}/x"],
                     json.dumps({**figure1_panel("a").to_json(), "ground_truth": [2]}),
                     "map index 2 is out of range for a family of 2 maps", id="ground-truth-past-family"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"],
                     '{"D": 2, "K": 3, "maps": [{"matrix": [[1, 0, 0], [0, 1, 0]]}]}',
                     "need D >= K >= 1", id="family-maps-up"),
        pytest.param(["scenario", "--spec", "{f}", "--out", "{tmp}/x"],
                     json.dumps({**figure1_panel("a").to_json(), "target": {"dim": 2, "label_count": 1, "components": [
                         {"center": [0, 0], "radius": 1, "label": 0, "weight": 1, "flip_prob": 0.2}]}}),
                     "flip_prob needs at least two labels", id="one-label-flip"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"], '{"D": 2, "K": 1, "maps": [5]}',
                     "map entry 5 is not an object", id="family-map-number"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"], '{"D": 2, "K": 1, "maps": ["J"]}',
                     "map entry 'J' is not an object", id="family-map-string"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"],
                     '{"D": 2, "K": 1, "maps": [{"J": [0.7]}, {"J": [1]}]}', "J must be an integer", id="family-fractional-J"),
        pytest.param(["ddprobe", "--family", "{f}", "--out", "{tmp}/o.json"],
                     '{"D": 2.9, "K": 1, "maps": [{"J": [0]}, {"J": [1]}]}', "D must be an integer", id="family-fractional-D"),
        pytest.param(["scenario", "--spec", "{f}", "--out", "{tmp}/x"], _panel_a_with("label", 0.9),
                     "label must be an integer", id="fractional-label"),
        pytest.param(["scenario", "--spec", "{f}", "--out", "{tmp}/x"],
                     json.dumps({**figure1_panel("a").to_json(), "ground_truth": [1.5]}),
                     "ground_truth must be an integer", id="fractional-ground-truth"),
    ])
    def test_bad_json_file_exits_2(self, tmp_path, argv, text, key, capsys):
        spec = tmp_path / "f.json"
        spec.write_text(text)
        assert main([a.format(f=spec, tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("flags", [["--n", "-1"], ["--seed", "-1"]])
    def test_bad_flag_value_exits_2(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--panel", "a", *flags, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestEnvThreads:
    def test_bad_env_value(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIRM_THREADS", "many")
        rc = main([
            "sweep", "--panel", "a", "--regime", "source-only",
            "--grid-n", "50", "--trials", "1",
            "--out-csv", str(tmp_path / "x.csv"), "--out-json", str(tmp_path / "x.json"),
        ])
        assert rc == 2

    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("SIRM_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _threads() == 1

    def test_env_value_caps_cpu_affinity(self, monkeypatch):
        monkeypatch.setenv("SIRM_THREADS", "4")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _threads() == 1
