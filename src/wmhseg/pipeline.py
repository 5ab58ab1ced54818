"""End-to-end prediction: preprocess, ensemble inference, post-process."""

from __future__ import annotations

import numpy as np

from .ensemble import (
    EnsembleConfig,
    ensemble_predict,
    postprocess,
    threshold_map,
    trimmed_slice_count,
)
from .grids import BinaryMask3D
from .preprocess import (
    DEFAULT_FLAIR_THRESHOLD,
    DEFAULT_T1_THRESHOLD,
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
    flair_threshold: float = DEFAULT_FLAIR_THRESHOLD,
    t1_threshold: float = DEFAULT_T1_THRESHOLD,
    modalities: tuple[str, ...] = ("flair", "t1"),
) -> BinaryMask3D:
    """Segment one case; the output mask is on the case's original grid and
    carries the FLAIR's header, so it overlays the scan when written.

    Only the slices ``postprocess`` keeps are forwarded through the
    ensemble; the z-trimmed ones get probability 0.
    """
    config = config or EnsembleConfig(model_count=len(models))
    samples, _, record = preprocess_case(
        case,
        target=target,
        flair_threshold=flair_threshold,
        t1_threshold=t1_threshold,
        modalities=modalities,
    )
    nz = samples.shape[0]
    n_trim = trimmed_slice_count(nz, config.z_trim_fraction)
    prob = np.zeros((nz, *samples.shape[2:]))
    prob[n_trim : nz - n_trim] = ensemble_predict(models, spec, samples[n_trim : nz - n_trim])
    mask = threshold_map(prob, config.threshold, spacing=case.flair.spacing)
    return postprocess(mask, record, z_trim=config.z_trim_fraction,
                       header=case.flair.header)


def case_training_arrays(cases, target=None, modalities=("flair", "t1"),
                         flair_threshold=DEFAULT_FLAIR_THRESHOLD,
                         t1_threshold=DEFAULT_T1_THRESHOLD):
    """Stack preprocessed slices of many cases into (X, G) training arrays.

    ``target`` defaults to each case's own in-plane dims (useful for
    phantoms that are already network-sized).
    """
    xs, gs = [], []
    for case in cases:
        tgt = target or case.flair.data.shape[1:]
        samples, truth, _ = preprocess_case(
            case, target=tgt, modalities=modalities,
            flair_threshold=flair_threshold, t1_threshold=t1_threshold,
        )
        xs.append(samples)
        if truth is not None:
            gs.append(truth)
    x = np.concatenate(xs)
    g = np.concatenate(gs) if gs else None
    return x, g
