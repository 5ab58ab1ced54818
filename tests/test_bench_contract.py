"""The package calls perfbench makes and the names its layer trace patches.

perfbench drives the package through these signatures and wraps these module
attributes with timers; a parameter or name deleted here would break a
benchmark run, so each is checked by binding the arguments perfbench passes.
"""

import inspect

import pytest

from wmhseg import pipeline
from wmhseg.ensemble import EnsembleConfig
from wmhseg.net import training

# (callable, positional arguments, keyword names) as perfbench's workloads
# pass them; the values only stand in for the real ones.
CALLS = [
    (pipeline.predict_case, ("case", "spec", "models", "config"), ("target", "modalities")),
    (pipeline.case_training_arrays, ("cases",), ("modalities",)),
    (EnsembleConfig, (), ("model_count", "threshold", "z_trim_fraction")),
    (training.TrainConfig, (), ("batch_size", "learning_rate", "epochs", "seed")),
    (training.backward, ("spec", "weights", "x", "g"), ()),
    (training.train, ("spec", "x", "g", "config"), ()),
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
]


@pytest.mark.parametrize("fn, args, keywords", CALLS, ids=[c[0].__name__ for c in CALLS])
def test_perfbench_call_binds(fn, args, keywords):
    inspect.signature(fn).bind(*args, **{k: k for k in keywords})


@pytest.mark.parametrize("module, name", PATCHED, ids=[f"{m.__name__}.{n}" for m, n in PATCHED])
def test_traced_name_exists(module, name):
    assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
