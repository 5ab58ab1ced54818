"""The package calls perfbench makes and the names its layer trace patches.

perfbench drives the package through these signatures and wraps these module
attributes with timers; a parameter or name deleted here would break a
benchmark run, so each is checked by binding the arguments perfbench passes.
"""

import inspect
from collections import Counter

import numpy as np
import pytest

from wmhseg import augment, datasets, metrics, nifti, phantom, pipeline
from wmhseg.ensemble import EnsembleConfig
from wmhseg.net import training, unet, weights_io
from wmhseg.preprocess import CaseRecord

# (callable, positional arguments, keyword names) as perfbench's workloads
# pass them; the values only stand in for the real ones.
CALLS = [
    (pipeline.predict_case, ("case", "spec", "models", "config"), ("target", "modalities")),
    (pipeline.case_training_arrays, ("cases",), ("modalities",)),
    (EnsembleConfig, (), ("model_count", "threshold", "z_trim_fraction")),
    (training.TrainConfig, (), ("batch_size", "learning_rate", "epochs", "seed")),
    (training.backward, ("spec", "weights", "x", "g"), ()),
    (training.train, ("spec", "x", "g", "config"), ()),
    (phantom.PhantomSpec, (), ("dims", "spacing", "lesion_count_range", "lesion_radius_range",
                               "lesion_z_radius", "noise_std", "seed")),
    (phantom.phantom_generate, ("spec", "n"), ()),
    (augment.augment_dataset, ("x", "g", "factor", "seed"), ()),
    (metrics.evaluate_case, ("gt", "pred"), ("spacing",)),
    (weights_io.save_weights, ("path", "spec", "weights"), ()),
    (weights_io.load_weights, ("path",), ()),
    (unet.build_unet, (), ("input_channels", "base_width")),
    (unet.init_weights, ("spec", "rng"), ()),
    (unet.forward, ("spec", "weights", "x"), ()),
    (nifti.read_nifti, ("path",), ()),
    (nifti.read_nifti_mask, ("path",), ()),
    (nifti.write_nifti, ("vol", "path"), ()),
    (datasets.save_dataset, ("cases", "dir"), ()),
    (datasets.load_dataset, ("dir",), ()),
    (CaseRecord, (), ("subject_id", "scanner_id", "flair", "t1")),
]

# (module, attribute) pairs the layer trace replaces with timing wrappers.
PATCHED = [
    (pipeline, "case_training_arrays"),
    (pipeline, "preprocess_case"),
    (pipeline, "ensemble_predict"),
    (pipeline, "threshold_map"),
    (pipeline, "postprocess"),
    (training, "dice_loss_grad"),
    (training, "forward_with_caches"),
    (metrics, "evaluate_case"),
    (metrics, "dsc"),
    (metrics, "hausdorff95"),
    (metrics, "avd"),
    (metrics, "connected_components_3d"),
]


@pytest.mark.parametrize("fn, args, keywords", CALLS, ids=[c[0].__name__ for c in CALLS])
def test_perfbench_call_binds(fn, args, keywords):
    inspect.signature(fn).bind(*args, **{k: k for k in keywords})


@pytest.mark.parametrize("module, name", PATCHED, ids=[f"{m.__name__}.{n}" for m, n in PATCHED])
def test_traced_name_exists(module, name):
    assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_evaluate_case_calls_through_metrics_globals(monkeypatch):
    # The trace times these rows by replacing the names in metrics' module
    # namespace; a call that bypasses them drops its row without an error.
    calls = Counter()
    for name in ("dsc", "hausdorff95", "avd", "connected_components_3d"):
        def counted(*args, _name=name, _fn=getattr(metrics, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(metrics, name, counted)
    data = np.zeros((3, 4, 5), bool)
    data[1, 1:3, 1:4] = True
    truth = metrics.BinaryMask3D(data, (1.0, 1.0, 1.0))
    pred = metrics.BinaryMask3D(np.roll(data, 1, axis=2), (1.0, 1.0, 1.0))
    metrics.evaluate_case(truth, pred)
    assert calls == {"connected_components_3d": 2, "dsc": 1, "hausdorff95": 1, "avd": 1}
