"""End-to-end prediction: preprocess, ensemble inference, post-process."""

from __future__ import annotations

import numpy as np

from .ensemble import (
    EnsembleConfig,
    ensemble_predict,
    postprocess,
    threshold_map,
)
from .errors import ContractError
from .grids import BinaryMask3D
from .preprocess import (
    DEFAULT_TARGET,
    CaseRecord,
    preprocess_case,
)


def predict_case(
    case: CaseRecord,
    spec,
    models,
    config: EnsembleConfig | None = None,
    target=DEFAULT_TARGET,
    modalities: tuple[str, ...] = ("flair", "t1"),
) -> BinaryMask3D:
    """Segment one case; the output mask is on the case's original grid and
    carries the FLAIR's header, so it overlays the scan when written.

    The first and last floor(z_trim_fraction * nz) axial slices are
    anatomically implausible detections: they are never forwarded through
    the ensemble and get probability 0, so no threshold in (0, 1) keeps them.
    """
    config = config or EnsembleConfig(model_count=len(models))
    if config.model_count != len(models):
        raise ContractError(f"config is for {config.model_count} models, "
                            f"the ensemble has {len(models)}")
    samples, _, record = preprocess_case(case, target=target, modalities=modalities)
    nz = samples.shape[0]
    n_trim = int(config.z_trim_fraction * nz)
    prob = np.zeros((nz, *samples.shape[2:]))
    prob[n_trim : nz - n_trim] = ensemble_predict(models, spec, samples[n_trim : nz - n_trim])
    mask = threshold_map(prob, config.threshold, spacing=case.flair.spacing)
    return postprocess(mask, record, header=case.flair.header)


def case_training_arrays(cases, target=None, modalities=("flair", "t1")):
    """Stack preprocessed slices of many cases into (X, G) training arrays.

    Every case needs a ground-truth mask; an empty list or a case without
    one raises ContractError.  ``target`` defaults to the cases' own in-plane
    dims, which must then agree.
    """
    if not cases:
        raise ContractError("no training cases")
    first = cases[0].flair
    for case in cases:
        if case.ground_truth is None:
            raise ContractError(f"case {case.subject_id} has no ground-truth mask")
        if target is None and case.flair.dims[:2] != first.dims[:2]:
            sizes = ["x".join(map(str, v.dims[:2])) for v in (first, case.flair)]
            raise ContractError(f"cases {cases[0].subject_id} ({sizes[0]}) and "
                                f"{case.subject_id} ({sizes[1]}) differ in in-plane size")
    xs, gs = [], []
    for case in cases:
        samples, truth, _ = preprocess_case(case, target=target or first.data.shape[1:],
                                            modalities=modalities)
        xs.append(samples)
        gs.append(truth)
    return np.concatenate(xs), np.concatenate(gs)
