import dataclasses
import re

import numpy as np
import pytest

from wmhseg import datasets, ensemble, pipeline
from wmhseg.ensemble import EnsembleConfig, ensemble_predict, postprocess, threshold_map
from wmhseg.errors import ContractError, FormatError
from wmhseg.net.unet import build_unet, forward, init_weights
from wmhseg.phantom import PhantomSpec, phantom_generate
from wmhseg.pipeline import case_training_arrays, predict_case
from wmhseg.preprocess import preprocess_case


@pytest.fixture(scope="module")
def cases():
    spec = PhantomSpec(dims=(32, 32, 8), lesion_count_range=(2, 3),
                       lesion_radius_range=(1.5, 2.5), seed=2)
    return phantom_generate(spec, 3)


class TestCaseTrainingArrays:
    def test_shapes_default_target(self, cases):
        x, g = case_training_arrays(cases)
        assert x.shape == (24, 2, 32, 32)  # 3 cases x 8 slices
        assert g.shape == (24, 32, 32)
        assert g.dtype == bool

    def test_explicit_target(self, cases):
        x, g = case_training_arrays(cases, target=(48, 48))
        assert x.shape == (24, 2, 48, 48)
        assert g.shape == (24, 48, 48)

    def test_flair_only(self, cases):
        x, _ = case_training_arrays(cases, modalities=("flair",))
        assert x.shape[1] == 1

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError, match="no training cases"):
            case_training_arrays([])

    def test_case_without_mask_rejected(self, cases):
        stripped = type(cases[1])(cases[1].subject_id, cases[1].scanner_id,
                                  cases[1].flair, cases[1].t1, None)
        with pytest.raises(ContractError, match=f"case {stripped.subject_id} has no"):
            case_training_arrays([cases[0], stripped, cases[2]])

    def test_mixed_in_plane_sizes_rejected(self, cases, monkeypatch):
        wide = phantom_generate(PhantomSpec(dims=(48, 32, 8), lesion_count_range=(2, 3),
                                            lesion_radius_range=(1.5, 2.5), seed=3), 1)[0]
        wide = dataclasses.replace(wide, subject_id="wide_000")

        def no_preprocessing(*args, **kwargs):
            raise AssertionError("mixed sizes must fail before any preprocessing")

        monkeypatch.setattr(pipeline, "preprocess_case", no_preprocessing)
        with pytest.raises(ContractError) as exc_info:
            case_training_arrays([cases[0], cases[1], wide])
        assert str(exc_info.value) == ("cases phantom_000 (32x32) and wide_000 (48x32) "
                                       "differ in in-plane size")


class TestPredictCase:
    def test_output_on_original_grid(self, cases):
        spec = build_unet(base_width=2)
        models = [init_weights(spec, np.random.default_rng(i)) for i in range(2)]
        mask = predict_case(cases[0], spec, models, target=(48, 48))
        assert mask.data.shape == cases[0].flair.data.shape
        assert mask.spacing == cases[0].flair.spacing

    def test_z_trim_applied(self, cases):
        spec = build_unet(base_width=2)
        # a heavily biased model predicts foreground everywhere; z-trim on 20%
        # of the slices must clear the extremes
        weights = init_weights(spec, np.random.default_rng(0))
        w, b = weights[-1]
        weights[-1] = (w, b + 10.0)
        config = EnsembleConfig(model_count=1, z_trim_fraction=0.25)
        mask = predict_case(cases[0], spec, [weights], config, target=(32, 32))
        assert not mask.data[:2].any()
        assert not mask.data[-2:].any()
        assert mask.data[4].any()

    def test_config_for_another_ensemble_size_rejected(self, cases):
        spec = build_unet(base_width=2)
        weights = init_weights(spec, np.random.default_rng(0))
        with pytest.raises(ContractError, match="config is for 3 models, the ensemble has 1"):
            predict_case(cases[0], spec, [weights], EnsembleConfig(model_count=3),
                         target=(32, 32))

    @pytest.mark.parametrize("nz, z_trim, n_trim", [
        (8, 0.10, 0), (10, 0.10, 1), (16, 0.10, 1),
        (48, 0.10, 4),  # floor(0.1 * 48) = 4 slices at each end
        (10, 0.0, 0),   # no trim: every slice is forwarded
    ], ids=["8-0", "10-1", "16-1", "48-4", "untrimmed"])
    def test_forwards_only_kept_slices(self, monkeypatch, nz, z_trim, n_trim):
        case = phantom_generate(PhantomSpec(dims=(32, 32, nz), lesion_count_range=(2, 3),
                                            lesion_radius_range=(1.5, 2.5), seed=4), 1)[0]
        spec = build_unet(base_width=2)
        models = [init_weights(spec, np.random.default_rng(i)) for i in range(2)]
        samples, _, record = preprocess_case(case, target=(32, 32))
        full = ensemble_predict(models, spec, samples)
        full[:n_trim] = 0.0
        full[nz - n_trim :] = 0.0
        want = postprocess(threshold_map(full, 0.5, spacing=case.flair.spacing), record,
                           header=case.flair.header)

        batches = []

        def counting_forward(spec, weights, x):
            batches.append(x.shape[0])
            return forward(spec, weights, x)

        monkeypatch.setattr(ensemble, "forward", counting_forward)
        config = EnsembleConfig(model_count=2, z_trim_fraction=z_trim)
        got = predict_case(case, spec, models, config, target=(32, 32))
        assert sum(batches) == len(models) * (nz - 2 * n_trim)
        assert 0 < want.data.sum() < want.data.size
        np.testing.assert_array_equal(got.data, want.data)
        assert got.header == want.header and got.spacing == want.spacing


class TestDatasets:
    def test_round_trip(self, cases, tmp_path):
        datasets.save_dataset(cases, tmp_path / "d")
        loaded = datasets.load_dataset(tmp_path / "d")
        assert [c.subject_id for c in loaded] == [c.subject_id for c in cases]
        assert [c.scanner_id for c in loaded] == [c.scanner_id for c in cases]
        for a, b in zip(cases, loaded):
            np.testing.assert_allclose(a.flair.data, b.flair.data, atol=1e-4)
            np.testing.assert_array_equal(a.ground_truth.data, b.ground_truth.data)
            np.testing.assert_allclose(a.flair.spacing, b.flair.spacing, rtol=1e-6)

    def test_optional_mask(self, cases, tmp_path):
        stripped = [type(c)(c.subject_id, c.scanner_id, c.flair, c.t1, None)
                    for c in cases]
        datasets.save_dataset(stripped, tmp_path / "d")
        loaded = datasets.load_dataset(tmp_path / "d")
        assert all(c.ground_truth is None for c in loaded)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            datasets.load_dataset(tmp_path)

    @pytest.mark.parametrize("header, missing", [
        ("subject,scanner", "'subject_id' or 'scanner_id'"),
        ("subject_id,site", "'scanner_id'"),
        ("", "'subject_id' or 'scanner_id'"),
    ], ids=["both", "scanner", "empty"])
    def test_manifest_without_its_columns(self, tmp_path, header, missing):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(header + "\n" if header else "")
        with pytest.raises(FormatError, match=f"^{re.escape(str(manifest))}: no {missing} column$"):
            datasets.load_dataset(tmp_path)

    def test_subject_listed_twice(self, cases, tmp_path):
        datasets.save_dataset(cases, tmp_path / "d")
        manifest = tmp_path / "d" / "manifest.csv"
        with open(manifest, "a") as f:
            f.write(f"{cases[0].subject_id},scanner_b\n")
        message = f"{manifest}, line 5: subject {cases[0].subject_id!r} appears twice"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            datasets.load_dataset(tmp_path / "d")
