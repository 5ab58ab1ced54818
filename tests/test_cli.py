import csv
import gzip
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from wmhseg import cli, sweep
from wmhseg.cli import main
from wmhseg.grids import BinaryMask3D
from wmhseg.net.unet import build_unet, init_weights
from wmhseg.net.weights_io import save_weights
from wmhseg.nifti import read_nifti, read_nifti_mask, write_nifti


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def run_failing(runner, args):
    """Run ``cli.run`` as the console script does; (exit code, stderr lines)."""
    with runner.isolation() as (_, err, _):
        with pytest.raises(SystemExit) as exit_info:
            cli.run(args)
        sys.stderr.flush()
    return exit_info.value.code, err.getvalue().decode().splitlines()


class TestPhantomAndSplit:
    def test_phantom_writes_dataset(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "4",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        assert (data / "manifest.csv").exists()
        assert (data / "phantom_000" / "flair.nii.gz").exists()
        assert (data / "phantom_000" / "mask.nii.gz").exists()

    def test_phantom_seed_flag(self, runner, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        invoke(runner, ["--seed", "1", "phantom", "--out", str(a), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        invoke(runner, ["--seed", "1", "phantom", "--out", str(b), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        invoke(runner, ["--seed", "2", "phantom", "--out", str(c), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        blob = (a / "phantom_000" / "flair.nii.gz").read_bytes()
        assert blob == (b / "phantom_000" / "flair.nii.gz").read_bytes()
        assert blob != (c / "phantom_000" / "flair.nii.gz").read_bytes()

    def test_phantom_bytes_ignore_clock(self, runner, tmp_path, monkeypatch):
        # gzip stamps time.time() into the header unless told otherwise.
        blobs = []
        for now, out in ((1_000_000_000.0, tmp_path / "a"), (1_000_000_007.0, tmp_path / "b")):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            invoke(runner, ["--seed", "1", "phantom", "--out", str(out), "--count", "1",
                            "--dims", "32,32,8", "--lesions", "2,3"])
            blobs.append((out / "phantom_000" / "flair.nii.gz").read_bytes())
        assert blobs[0] == blobs[1]

    def test_split_subject(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "3",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        out = tmp_path / "splits.csv"
        invoke(runner, ["split", "--data", str(data), "--kind", "subject",
                        "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        folds = {r["fold_id"] for r in rows}
        assert len(folds) == 3
        for fold in folds:
            members = [r for r in rows if r["fold_id"] == fold]
            assert sum(r["role"] == "test" for r in members) == 1
            assert sum(r["role"] == "train" for r in members) == 2

    def test_split_scanner(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "6",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        out = tmp_path / "splits.csv"
        invoke(runner, ["split", "--data", str(data), "--kind", "scanner",
                        "--out", str(out)])
        rows = list(csv.DictReader(open(out)))
        assert len({r["fold_id"] for r in rows}) == 3  # three scanners round-robin


class TestEndToEndPipeline:
    def test_train_names_subjects_without_mask(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "3",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        (data / "phantom_001" / "mask.nii.gz").unlink()
        model = tmp_path / "model.wmhnet"
        result = invoke(runner, ["train", "--data", str(data), "--epochs", "1",
                                 "--base-width", "2", "--augment-factor", "1",
                                 "--out", str(model)])
        lines = result.output.splitlines()
        assert lines[0] == "skipped 1 subject(s) without mask.nii.gz: phantom_001"
        assert lines[1].startswith("final training loss")
        assert model.exists()

    def test_train_predict_evaluate(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["--seed", "7", "phantom", "--out", str(data), "--count", "4",
                        "--dims", "32,32,8", "--lesions", "2,3"])

        model = tmp_path / "model.wmhnet"
        result = invoke(runner, [
            "--seed", "0", "train", "--data", str(data),
            "--epochs", "40", "--batch", "16", "--lr", "0.0004",
            "--base-width", "8", "--stop-loss", "-0.85",
            "--out", str(model),
        ])
        assert model.exists()
        assert "final training loss" in result.output

        subject = data / "phantom_000"
        pred_path = tmp_path / "pred.nii.gz"
        invoke(runner, [
            "predict", "--models", str(model),
            "--flair", str(subject / "flair.nii.gz"),
            "--t1", str(subject / "t1.nii.gz"),
            "--target", "32,32", "--out", str(pred_path),
        ])
        pred = read_nifti_mask(pred_path)
        truth = read_nifti_mask(subject / "mask.nii.gz")
        assert pred.data.shape == truth.data.shape
        assert pred.population > 0

        result = invoke(runner, [
            "evaluate", "--gt", str(subject / "mask.nii.gz"),
            "--pred", str(pred_path), "--team", "smoke",
        ])
        lines = result.output.strip().splitlines()
        assert lines[0] == "team,dsc,h95_mm,avd,recall,f1"
        fields = lines[1].split(",")
        assert fields[0] == "smoke"
        assert 0.0 <= float(fields[1]) <= 1.0  # a valid DSC

    @pytest.mark.parametrize("dims", ["200,200,6", "252,232,6"])
    def test_train_and_predict_at_unaligned_dims(self, runner, tmp_path, dims):
        # neither size is a multiple of 16: the network pads and crops itself
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "2",
                        "--dims", dims, "--lesions", "2,3"])
        model = tmp_path / "model.wmhnet"
        invoke(runner, ["train", "--data", str(data), "--epochs", "1",
                        "--base-width", "2", "--out", str(model)])
        nx, ny, _ = dims.split(",")
        subject = data / "phantom_000"
        pred_path = tmp_path / "pred.nii.gz"
        invoke(runner, ["predict", "--models", str(model),
                        "--flair", str(subject / "flair.nii.gz"),
                        "--t1", str(subject / "t1.nii.gz"),
                        "--target", f"{ny},{nx}", "--out", str(pred_path)])
        pred = read_nifti_mask(pred_path)
        assert pred.dims == read_nifti_mask(subject / "mask.nii.gz").dims

    def test_predict_keeps_orientation(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        subject = data / "phantom_000"
        raw = bytearray(gzip.decompress((subject / "flair.nii.gz").read_bytes()))
        struct.pack_into("<2h", raw, 252, 1, 1)  # qform_code, sform_code
        struct.pack_into("<6f", raw, 256, 0.0, 0.0, 1.0, 120.0, -110.0, -40.0)
        struct.pack_into("<12f", raw, 280, -0.96, 0, 0, 120, 0, 0.96, 0, -110,
                         0, 0, 3.0, -40)
        flair = tmp_path / "oriented.nii.gz"
        flair.write_bytes(gzip.compress(bytes(raw)))

        spec = build_unet(base_width=2)
        model = tmp_path / "model.wmhnet"
        save_weights(model, spec, init_weights(spec, np.random.default_rng(0)))
        pred_path = tmp_path / "pred.nii.gz"
        invoke(runner, ["predict", "--models", str(model), "--flair", str(flair),
                        "--t1", str(subject / "t1.nii.gz"), "--target", "32,32",
                        "--out", str(pred_path)])
        written = gzip.decompress(pred_path.read_bytes())
        assert written[252:348] == bytes(raw[252:348])

    def test_preprocess_command(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        subject = data / "phantom_000"
        out = tmp_path / "prep"
        invoke(runner, [
            "preprocess", "--flair", str(subject / "flair.nii.gz"),
            "--t1", str(subject / "t1.nii.gz"),
            "--gt", str(subject / "mask.nii.gz"),
            "--target", "48,48", "--out", str(out),
        ])
        assert (out / "flair_norm.nii.gz").exists()
        assert (out / "t1_norm.nii.gz").exists()
        assert (out / "gt_aligned.nii.gz").exists()
        record = (out / "record.txt").read_text()
        assert "original_dims=32,32,8" in record
        kv = dict(line.split("=", 1) for line in record.splitlines())
        assert list(kv) == ["original_dims", "offsets_rows", "offsets_cols", "degenerate",
                            "threshold_flair", "threshold_t1", "mean_flair", "std_flair",
                            "mean_t1", "std_t1"]
        assert (kv["offsets_rows"], kv["offsets_cols"], kv["degenerate"]) == ("8,8", "8,8", "0")
        assert (kv["threshold_flair"], kv["threshold_t1"]) == ("70.0", "30.0")

    def test_preprocess_has_no_threshold_options(self, runner):
        result = invoke(runner, ["preprocess", "--help"])
        assert "thresh" not in result.output


class TestRankCommand:
    def test_rank_orders_teams(self, runner, tmp_path):
        table = tmp_path / "teams.csv"
        table.write_text(
            "team,dsc,h95_mm,avd,recall,f1\n"
            "good,0.80,6.30,21.88,0.84,0.76\n"
            "bad,0.60,9.00,40.00,0.60,0.50\n"
        )
        out = tmp_path / "ranked.csv"
        result = invoke(runner, ["rank", "--table", str(table), "--out", str(out)])
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("good,0.000000")
        assert lines[1].startswith("bad,1.000000")
        assert out.exists()
        assert "-0.000000" not in out.read_text()

    def test_ranks_evaluate_rows(self, runner, tmp_path):
        # the columns `evaluate` prints are the ones `rank` reads
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "2",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        gt = str(data / "phantom_000" / "mask.nii.gz")
        rows = []
        for team, pred in (("other", "phantom_001"), ("exact", "phantom_000")):
            result = invoke(runner, ["evaluate", "--gt", gt, "--team", team,
                                     "--pred", str(data / pred / "mask.nii.gz")])
            header, row = result.output.strip().splitlines()
            rows.append(row)
        assert header == "team,dsc,h95_mm,avd,recall,f1"
        table = tmp_path / "teams.csv"
        table.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "ranked.csv"
        result = invoke(runner, ["rank", "--table", str(table), "--out", str(out)])
        assert result.output.splitlines()[:2] == ["exact,0.000000", "other,1.000000"]
        saved = list(csv.DictReader(open(out)))
        assert saved[0] == {"team": "exact", "score_dsc": "0.000000", "score_h95": "0.000000",
                            "score_avd": "0.000000", "score_recall": "0.000000",
                            "score_f1": "0.000000", "score": "0.000000"}


class TestScoringCsv:
    @pytest.mark.parametrize("command, option, text", [
        ("rank", "--table", "team,dsc\nx,0.8\ny,0.6\nz,0.7\n"),
        ("stats", "--input", "a,b\n1,2\n3,-1\n5,4\n2,7\n4,-3\n6,1\n-1,5\n"),
    ], ids=["rank", "stats"])
    def test_blank_rows_skipped(self, runner, tmp_path, command, option, text):
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        plain.write_text(text)
        spaced.write_text(text.replace("\n", "\n\n", 2) + "\n")
        expected = invoke(runner, [command, option, str(plain)]).output
        assert invoke(runner, [command, option, str(spaced)]).output == expected


class TestStatsCommand:
    def test_per_column_p_values(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        shifted = rng.normal(1.0, 0.2, 12)
        null = rng.normal(0.0, 1.0, 12)
        table = tmp_path / "diffs.csv"
        with open(table, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["shifted", "null"])
            writer.writerows(zip(shifted, null))
        out = tmp_path / "stats.csv"
        result = invoke(runner, ["stats", "--input", str(table), "--out", str(out)])
        rows = {line.split(",")[0]: line.split(",")[1:]
                for line in result.output.strip().splitlines()}
        assert float(rows["shifted"][0]) < 0.01
        assert float(rows["null"][0]) > 0.05
        saved = list(csv.DictReader(open(out)))
        assert [r["comparison"] for r in saved] == ["shifted", "null"]


    def test_undefined_column_left_out_of_adjustment(self, runner, tmp_path):
        table = tmp_path / "diffs.csv"
        table.write_text("shifted,zeros\n" + "".join(f"{v},0\n" for v in range(1, 9)))
        result = invoke(runner, ["stats", "--input", str(table)])
        assert result.output.splitlines() == ["shifted,0.0078125,0.0078125", "zeros,nan,nan"]


class TestConfigFile:
    def test_defaults_from_config(self, runner, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\nseed=5\ncount=2\ndims=32,32,8\nlesions=2,3\n")
        data = tmp_path / "data"
        invoke(runner, ["--config", str(cfg), "phantom", "--out", str(data)])
        rows = list(csv.DictReader(open(data / "manifest.csv")))
        assert len(rows) == 2

    def test_command_line_seed_wins_over_config(self, runner, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("seed=5\n")
        args = ["phantom", "--count", "1", "--dims", "32,32,8", "--lesions", "2,3"]

        def flair(name, *flags):
            out = tmp_path / name
            invoke(runner, [*flags, *args, "--out", str(out)])
            return gzip.decompress((out / "phantom_000" / "flair.nii.gz").read_bytes())

        one, five = flair("one", "--seed", "1"), flair("five", "--seed", "5")
        assert one != five
        assert flair("both", "--seed", "1", "--config", str(cfg)) == one
        assert flair("file", "--config", str(cfg)) == five

    @pytest.mark.parametrize("line, key", [("cuont=2", "cuont"), ("out=somewhere", "out"),
                                            ("flair_thresh=60", "flair_thresh")])
    def test_key_no_option_takes(self, runner, tmp_path, line, key):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text(f"count=2\n{line}\n")
        out = tmp_path / "data"
        result = runner.invoke(main, ["--config", str(cfg), "phantom", "--out", str(out)])
        assert result.exit_code == 2
        assert (f"Error: Invalid value for '--config': {cfg}: {key!r} is not the parameter "
                "name of any option") in result.output
        assert not out.exists()

    def test_line_without_equals_sign(self, runner, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("# defaults\n\ncount 1\n")
        out = tmp_path / "data"
        result = runner.invoke(main, ["--config", str(cfg), "phantom", "--out", str(out)])
        assert result.exit_code == 2
        assert (f"Error: Invalid value for '--config': {cfg}, line 3: 'count 1' is not a "
                "key=value line") in result.output
        assert not out.exists()

    def test_keys_are_parameter_names(self, runner, tmp_path):
        # out_dir is phantom's, augment_factor is train's: a file may serve both
        cfg = tmp_path / "defaults.cfg"
        data = tmp_path / "data"
        cfg.write_text(f"count=1\ndims=32,32,8\nlesions=2,3\naugment-factor=2\nout_dir={data}\n")
        invoke(runner, ["--config", str(cfg), "phantom"])
        assert [r["subject_id"] for r in csv.DictReader(open(data / "manifest.csv"))] == [
            "phantom_000"]


class TestErrorReporting:
    def test_machine_readable_error_line(self, tmp_path):
        table = tmp_path / "teams.csv"
        table.write_text("team,dsc\nonly,0.8\n")  # one team: ContractError
        proc = subprocess.run(
            [sys.executable, "-m", "wmhseg.cli", "rank", "--table", str(table)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        err_lines = [l for l in proc.stderr.splitlines() if l.startswith("ERROR ")]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("ERROR ContractError: ")

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_train_rejects_fewer_than_one_epoch(self, tmp_path, epochs):
        proc = subprocess.run(
            [sys.executable, "-m", "wmhseg.cli", "train", "--data", str(tmp_path),
             "--epochs", epochs, "--out", str(tmp_path / "m.wmhnet")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"ERROR ContractError: epochs must be >= 1, got {epochs}"]

    @pytest.mark.parametrize("lesions", ["5,3", "-2,-1"])
    def test_phantom_rejects_bad_lesion_range(self, runner, tmp_path, lesions):
        out = tmp_path / "data"
        code, lines = run_failing(runner, ["phantom", "--out", str(out),
                                           "--lesions", lesions])
        assert code == 2
        assert lines == ["ERROR ConfigurationError: lesion count range must satisfy "
                         f"0 <= low <= high, got {lesions}"]
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["64,64,0", "0,64,16"])
    def test_phantom_rejects_empty_dims(self, runner, tmp_path, dims):
        out = tmp_path / "data"
        code, lines = run_failing(runner, ["phantom", "--out", str(out), "--dims", dims])
        assert code == 2
        assert lines == [f"ERROR ConfigurationError: dims must be >= 1, got {dims}"]
        assert not out.exists()

    def test_evaluate_rejects_pair_with_other_spacing(self, runner, tmp_path):
        data = np.zeros((8, 16, 16), bool)
        data[3:5, 4:9, 6:10] = True
        write_nifti(BinaryMask3D(data, (1.0, 1.0, 3.0)), tmp_path / "fine.nii.gz")
        write_nifti(BinaryMask3D(data, (2.0, 2.0, 6.0)), tmp_path / "coarse.nii.gz")
        for gt, pred in (("fine", "coarse"), ("coarse", "fine")):
            code, lines = run_failing(runner, ["evaluate", "--gt", str(tmp_path / f"{gt}.nii.gz"),
                                               "--pred", str(tmp_path / f"{pred}.nii.gz")])
            assert code == 2
            assert len(lines) == 1
            assert lines[0].startswith("ERROR ContractError: mask spacings differ: ")

    def test_phantom_rejects_dim_beyond_nifti_range(self, runner, tmp_path):
        out = tmp_path / "data"
        code, lines = run_failing(runner, ["phantom", "--out", str(out), "--count", "1",
                                           "--dims", "40000,8,8", "--lesions", "0,0"])
        assert code == 2
        assert lines == ["ERROR ContractError: dim x is 40000; "
                         "NIfTI-1 stores dims as int16 (at most 32767)"]
        assert not list(out.rglob("*.nii*"))

    def test_usage_error_nonzero_exit(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "wmhseg.cli", "rank"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0

    @pytest.mark.parametrize("args, option", [
        (["phantom", "--dims", "32,32"], "--dims"),
        (["phantom", "--lesions", "2,x"], "--lesions"),
        (["preprocess", "--flair", "{scan}", "--t1", "{scan}", "--target", "20x20"],
         "--target"),
        (["predict", "--models", "{scan}", "--flair", "{scan}", "--t1", "{scan}",
          "--target", "32"], "--target"),
        (["predict", "--models", ",", "--flair", "{scan}", "--t1", "{scan}"], "--models"),
        (["predict", "--models", "{tmp}/missing.wmhnet", "--flair", "{scan}",
          "--t1", "{scan}"], "--models"),
        (["sweep", "--data", "{tmp}", "--sizes", "1,,x"], "--sizes"),
        (["sweep", "--data", "{tmp}", "--sizes", "3,0"], "--sizes"),
        (["phantom", "--count", "-1"], "--count"),
        (["phantom", "--count", "0"], "--count"),
        (["train", "--data", "{tmp}", "--augment-factor", "0"], "--augment-factor"),
        (["train", "--data", "{tmp}", "--augment-factor", "-3"], "--augment-factor"),
        (["train", "--data", "{tmp}", "--input-channels", "0"], "--input-channels"),
        (["train", "--data", "{tmp}", "--input-channels", "3"], "--input-channels"),
    ], ids=["dims", "lesions", "preprocess-target", "predict-target", "models-empty",
            "models-missing", "sizes", "sizes-zero", "count-negative", "count-zero",
            "augment-factor-zero", "augment-factor-negative",
            "input-channels-zero", "input-channels-three"])
    def test_bad_list_option(self, runner, tmp_path, args, option):
        scan = tmp_path / "scan.nii.gz"
        scan.write_bytes(b"")  # the option is rejected before any file is read
        args = [a.format(tmp=tmp_path, scan=scan) for a in args]
        result = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"Error: Invalid value for '{option}'" in result.output

    @pytest.mark.parametrize("command, masks_removed, message", [
        (["train", "--epochs", "1"], "all", "no training cases"),
        (["sweep", "--sizes", "1", "--repeats", "2"], "all",
         "case phantom_000 has no ground-truth mask"),
        (["sweep", "--sizes", "1", "--repeats", "2"], "one",
         "case phantom_002 has no ground-truth mask"),
    ], ids=["train-no-masks", "sweep-no-masks", "sweep-one-mask-missing"])
    def test_missing_masks_error_line(self, runner, tmp_path, monkeypatch, command,
                                      masks_removed, message):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "6",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        subjects = sorted(data.glob("phantom_*"))
        for subject in subjects if masks_removed == "all" else subjects[2:3]:
            (subject / "mask.nii.gz").unlink()

        def no_training(*args, **kwargs):
            raise AssertionError("a missing mask must fail before any training")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.setattr(sweep, "train", no_training)
        args = command + ["--data", str(data), "--out", str(tmp_path / "out")]
        with runner.isolation() as (_, err, _):
            with pytest.raises(SystemExit) as exit_info:
                cli.run(args)
            sys.stderr.flush()
        assert exit_info.value.code == 2
        lines = err.getvalue().decode().splitlines()
        assert lines == [f"ERROR ContractError: {message}"]

    def test_train_mixed_in_plane_sizes(self, runner, tmp_path):
        data, wide = tmp_path / "data", tmp_path / "wide"
        invoke(runner, ["phantom", "--out", str(data), "--count", "2",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        invoke(runner, ["phantom", "--out", str(wide), "--count", "1",
                        "--dims", "48,32,8", "--lesions", "2,3"])
        shutil.copytree(wide / "phantom_000", data / "wide_000")
        with open(data / "manifest.csv", "a") as f:
            f.write("wide_000,scanner_a\n")
        code, lines = run_failing(runner, ["train", "--data", str(data), "--epochs", "1",
                                           "--out", str(tmp_path / "m.wmhnet")])
        assert code == 2
        assert lines == ["ERROR ContractError: cases phantom_000 (32x32) and wide_000 "
                         "(48x32) differ in in-plane size"]

    @pytest.mark.parametrize("command", [
        ["split", "--kind", "ratio"],
        ["sweep", "--sizes", "1", "--repeats", "2"],
    ], ids=["split", "sweep"])
    def test_ratio_split_without_training_case(self, runner, tmp_path, monkeypatch, command):
        # three cases on scanners a, b and c: each keeps its one case for test
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "3",
                        "--dims", "32,32,8", "--lesions", "2,3"])

        def no_training(*args, **kwargs):
            raise AssertionError("an empty training set must fail before any training")

        monkeypatch.setattr(sweep, "train", no_training)
        out = tmp_path / "out.csv"
        with runner.isolation() as (_, err, _):
            with pytest.raises(SystemExit) as exit_info:
                cli.run(command + ["--data", str(data), "--out", str(out)])
            sys.stderr.flush()
        assert exit_info.value.code == 2
        assert err.getvalue().decode().splitlines() == [
            "ERROR ContractError: ratio split leaves no training case: each of the 3 "
            "scanners kept at least one case for test, which takes all 3 cases"]
        assert not out.exists()

    @pytest.mark.parametrize("line, option", [("seed=abc", "--seed")])
    def test_bad_config_integer(self, runner, tmp_path, line, option):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text(line + "\n")
        result = runner.invoke(main, ["--config", str(cfg), "phantom",
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 2
        assert f"Error: Invalid value for '{option}'" in result.output
        assert not (tmp_path / "data").exists()

    def test_predict_rejects_non_finite_voxel(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        subject = data / "phantom_000"
        scan = read_nifti(subject / "flair.nii.gz")
        scan.data[4, 16, 16] = np.nan
        flair = tmp_path / "nan_flair.nii.gz"
        write_nifti(scan, flair)
        spec = build_unet(base_width=2)
        model = tmp_path / "model.wmhnet"
        save_weights(model, spec, init_weights(spec, np.random.default_rng(0)))
        code, lines = run_failing(runner, [
            "predict", "--models", str(model), "--flair", str(flair),
            "--t1", str(subject / "t1.nii.gz"), "--target", "32,32",
            "--out", str(tmp_path / "pred.nii.gz")])
        assert code == 2
        assert lines == ["ERROR ContractError: case case: flair has 1 non-finite voxel(s)"]
        assert not (tmp_path / "pred.nii.gz").exists()

    def test_predict_names_models_that_differ(self, runner, tmp_path):
        paths = []
        for width in (2, 4):
            spec = build_unet(base_width=width)
            paths.append(tmp_path / f"w{width}.wmhnet")
            save_weights(paths[-1], spec, init_weights(spec, np.random.default_rng(0)))
        scan = tmp_path / "scan.nii"
        scan.write_bytes(b"")  # never read: the models are checked first
        code, lines = run_failing(runner, [
            "predict", "--models", ",".join(map(str, paths)), "--flair", str(scan),
            "--t1", str(scan), "--out", str(tmp_path / "pred.nii.gz")])
        assert code == 2
        assert lines == [f"ERROR ContractError: {paths[0]} (2 input channels, base width 2) "
                         f"and {paths[1]} (2 input channels, base width 4) "
                         f"hold different networks"]

    def test_memory_error_line(self, runner, tmp_path, monkeypatch):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        spec = build_unet(base_width=2)
        model = tmp_path / "model.wmhnet"
        save_weights(model, spec, init_weights(spec, np.random.default_rng(0)))

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.4 GiB for an array")

        monkeypatch.setattr(cli, "predict_case", out_of_memory)
        subject = data / "phantom_000"
        args = ["predict", "--models", str(model),
                "--flair", str(subject / "flair.nii.gz"),
                "--t1", str(subject / "t1.nii.gz"),
                "--target", "32,32", "--out", str(tmp_path / "pred.nii.gz")]
        with runner.isolation() as (_, err, _):
            with pytest.raises(SystemExit) as exit_info:
                cli.run(args)
            sys.stderr.flush()
        assert exit_info.value.code == 2
        lines = err.getvalue().decode().splitlines()
        assert lines == ["ERROR MemoryError: Unable to allocate 12.4 GiB for an array"]

    def test_memory_error_subclass_reported_by_public_name(self, runner, tmp_path,
                                                            monkeypatch):
        class _ArrayMemoryError(MemoryError):  # as numpy raises it
            pass

        def out_of_memory(*args, **kwargs):
            raise _ArrayMemoryError("Unable to allocate 3.1 GiB for an array")

        monkeypatch.setattr(cli.datasets, "load_dataset", out_of_memory)
        code, lines = run_failing(runner, ["train", "--data", str(tmp_path), "--epochs", "1",
                                           "--out", str(tmp_path / "m.wmhnet")])
        assert code == 2
        assert lines == ["ERROR MemoryError: Unable to allocate 3.1 GiB for an array"]

    @pytest.mark.parametrize("header, missing", [
        ("subject,scanner", "'subject_id' or 'scanner_id'"),
        ("subject_id,site", "'scanner_id'"),
    ], ids=["both", "scanner"])
    def test_manifest_without_its_columns(self, runner, tmp_path, header, missing):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{header}\nphantom_000,scanner_a\n")
        code, lines = run_failing(runner, ["train", "--data", str(tmp_path), "--epochs", "1",
                                           "--out", str(tmp_path / "m.wmhnet")])
        assert code == 2
        assert lines == [f"ERROR FormatError: {manifest}: no {missing} column"]
        assert not (tmp_path / "m.wmhnet").exists()

    @pytest.mark.parametrize("command", [["split", "--kind", "scanner"],
                                         ["train", "--epochs", "1"]])
    def test_manifest_lists_subject_twice(self, runner, tmp_path, command):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "3",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        manifest = data / "manifest.csv"
        rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*rows, rows[1]]) + "\n")
        out = tmp_path / "out"
        code, lines = run_failing(runner, [command[0], "--data", str(data), *command[1:],
                                           "--out", str(out)])
        assert code == 2
        assert lines == [f"ERROR FormatError: {manifest}, line 5: subject 'phantom_000' "
                         "appears twice"]
        assert not out.exists()

    def test_preprocess_out_under_a_file(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "1",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        subject = data / "phantom_000"
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, lines = run_failing(runner, [
            "preprocess", "--flair", str(subject / "flair.nii.gz"),
            "--t1", str(subject / "t1.nii.gz"), "--target", "32,32",
            "--out", str(blocker / "out")])
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("ERROR NotADirectoryError: ")
        assert str(blocker) in lines[0]

    def test_split_missing_scan(self, runner, tmp_path):
        data = tmp_path / "data"
        invoke(runner, ["phantom", "--out", str(data), "--count", "3",
                        "--dims", "32,32,8", "--lesions", "2,3"])
        missing = data / "phantom_001" / "t1.nii.gz"
        missing.unlink()
        code, lines = run_failing(runner, ["split", "--data", str(data),
                                           "--out", str(tmp_path / "splits.csv")])
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith("ERROR FileNotFoundError: ")
        assert str(missing) in lines[0]

    @pytest.mark.parametrize("command, text, message", [
        ("rank", "team,dsc,h95_mm\ngood,0.8,6.0\nbad,abc,9.0\n",
         "line 3, column 'dsc': 'abc' is not a finite number"),
        ("stats", "a,b\n1,2\nx,3\n", "line 3, column 'a': 'x' is not a finite number"),
        ("stats", "", "is empty"),
        ("rank", "", "is empty"),
        ("stats", "a,a\n1,2\n", "column 'a' appears twice in the header"),
        ("rank", "team,dsc,dsc\nx,0.8,0.7\ny,0.6,0.5\n",
         "column 'dsc' appears twice in the header"),
        ("rank", "team,dsc\nx,0.8\ny,0.6\nx,0.7\n", "line 4: team 'x' appears twice"),
        ("rank", "team,dsc\nx,0.8\ny,0.6,0.9\n", "line 3: more cells than the header has columns"),
        ("stats", "a,b\n1,2\n1,2,3\n", "line 3: more cells than the header has columns"),
        ("rank", "\nteam,dsc\nx,0.8\ny,0.6\n", "line 1: the header line is blank"),
        ("stats", "\na,b\n1,2\n", "line 1: the header line is blank"),
        ("rank", "dsc,team\n0.8,a\n0.6\n", "line 3: the row names no team"),
    ], ids=["rank-cell", "stats-cell", "stats-empty", "rank-empty", "stats-repeated-column",
            "rank-repeated-column", "rank-repeated-team", "rank-extra-cell", "stats-extra-cell",
            "rank-blank-header", "stats-blank-header", "rank-no-team"])
    def test_malformed_scoring_csv(self, runner, tmp_path, command, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        option = "--table" if command == "rank" else "--input"
        code, lines = run_failing(runner, [command, option, str(path)])
        assert code == 2
        assert len(lines) == 1
        assert lines[0].startswith(f"ERROR FormatError: {path}")
        assert lines[0].endswith(message)
