"""The three workloads: inputs made from the seed, the timed body, and the
checks of every output against ``reference``.

Each body calls the package through the module attributes the ``wmhseg`` CLI
uses, so the tracer's wrappers see the calls.  A body runs whole rounds of
the same operations until ``seconds`` have passed (at least one round).  An
operation fails when it raises or its output disagrees with the reference;
every other operation has passed its check.  Rounds repeat identical work,
so an output that equals the first round's checked output is checked too.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy import stats as sps

from wmhseg import augment, datasets, metrics, nifti, phantom, pipeline, ranking, stats
from wmhseg.ensemble import EnsembleConfig
from wmhseg.net import training, unet, weights_io
from wmhseg.preprocess import CaseRecord

import reference as ref

SPACING = (0.96, 0.96, 3.0)  # scanner-like voxel size (mm)


@dataclass
class Body:
    """What one timed body measured and how its checks went."""

    attempted: int = 0
    failed: int = 0
    passed: int = 0
    work_s: list = field(default_factory=list)    # seconds per unit of main work
    input_s: list = field(default_factory=list)   # seconds per input-stage unit
    work_per_s: float = 0.0
    input_per_s: float = 0.0
    peak_rss_mb: float = 0.0
    units: dict = field(default_factory=dict)     # unit kind -> count, for the trace
    step_wall_s: float | None = None
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """No operation failed and every one passed its check."""
        return self.failed == 0 and self.passed == self.attempted

    def tally(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            print(f"# check failed: {what}", file=sys.stderr)
            self.failed += 1

    def raised(self, what: str) -> None:
        print(f"# operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        self.failed += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])] if values else []


def per_s(count: float, seconds: list) -> float:
    """``count`` over the median of ``seconds``; 0 when nothing was timed,
    which only a run whose every operation failed can give."""
    return count / float(np.median(seconds)) if seconds else 0.0


def passes(check, *args) -> bool:
    """Run one output check; a check that raises has failed."""
    try:
        return bool(check(*args))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False


def _rounds(seconds: float):
    """Round indices until ``seconds`` have passed; always at least one."""
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        yield r
        r += 1


# ------------------------------------------------------------ train_c5 ----


# The criterion-5 configuration: 64x64x16 phantoms, width 16, batch 30,
# lr 2e-4, tenfold augmentation.
C5_WIDTH = 16
C5_BATCH = 30
C5_LR = 2e-4
C5_AUGMENT = 10
STEPS_PER_ROUND = 2


@dataclass(frozen=True)
class TrainConfig:
    """A round is the ``wmhseg train`` path: load the dataset, assemble and
    augment the training arrays, run ``train`` for a fixed number of steps
    and save the weights.  The input stage also runs ``input_repeats`` times
    before the rounds, so its median rests on more than the two or three
    rounds a run holds; the first of these passes is warm-up."""

    cases: int = 3
    input_repeats: int = 6


class TrainC5:
    full = TrainConfig()
    small = TrainConfig(cases=1, input_repeats=0)

    @staticmethod
    def setup(workdir: Path, seed: int, cfg: TrainConfig):
        cases = phantom.phantom_generate(phantom.PhantomSpec(seed=seed), cfg.cases)
        datasets.save_dataset(cases, workdir / "data")
        return workdir

    @staticmethod
    def measure(workdir: Path, seed: int, seconds: float, cfg: TrainConfig, tracer) -> Body:
        body = Body()
        spec = unet.build_unet(input_channels=2, base_width=C5_WIDTH)
        n = STEPS_PER_ROUND * C5_BATCH
        config = training.TrainConfig(batch_size=C5_BATCH, learning_rate=C5_LR, epochs=1,
                                      seed=seed)
        samples = 0

        # Step boundaries and the first batch, seen at the call ``train``
        # makes into ``backward``.
        marks, batches = [], []
        original = training.backward

        def timed_backward(*args, **kwargs):
            if tracer:  # the run's first step warms up and is not traced
                tracer.recording = bool(marks or body.work_s)
            if not batches:
                batches.append((args[2], args[3]))
            marks.append(time.perf_counter())
            return original(*args, **kwargs)

        def prepare():
            start = time.perf_counter()
            cases = datasets.load_dataset(workdir / "data")
            cases = [c for c in cases if c.ground_truth is not None]
            x, g = pipeline.case_training_arrays(cases, modalities=("flair", "t1"))
            x, g = augment.augment_dataset(x, g, C5_AUGMENT, seed)
            body.input_s.append(time.perf_counter() - start)
            return x, g

        # Every round trains the seed's initial weights on the same inputs,
        # so every round must end with the same weights.
        trained = []
        if tracer:
            tracer.install()
        training.backward = timed_backward
        try:
            for _ in range(cfg.input_repeats):
                prepare()
            for r in _rounds(seconds):
                body.attempted += 1
                try:
                    x, g = prepare()
                    samples = x.shape[0]
                    marks.clear()
                    weights, _ = training.train(spec, x[:n], g[:n], config)
                    marks.append(time.perf_counter())
                    weights_io.save_weights(workdir / f"round{r}.wmhnet", spec, weights)
                except Exception:
                    body.raised(f"train_c5 round {r}")
                    continue
                body.work_s.extend(np.diff(marks).tolist())
                trained.append((r, weights))
        finally:
            training.backward = original
            if tracer:
                tracer.uninstall()
                tracer.recording = True
        body.peak_rss_mb = peak_rss_mb()

        if trained:
            first = passes(_check_training, spec, trained[0][1], *batches[0], seed)
            for r, weights in trained:
                same = all(np.array_equal(a, b) for pair, pair0 in zip(weights, trained[0][1])
                           for a, b in zip(pair, pair0))
                body.tally(first and same, f"train_c5 round {r}")

        steps = body.work_s[1:] or body.work_s  # the first step is warm-up
        inputs = body.input_s[1:] or body.input_s  # and so is the first input pass
        body.work_per_s = per_s(C5_BATCH, steps)
        body.input_per_s = per_s(samples, inputs)
        body.units = {"net": len(steps), "prep": len(body.input_s), "io": len(body.input_s)}
        body.step_wall_s = float(np.sum(steps))
        body.info = {"train_slices_per_s": body.work_per_s,
                     "prep_slices_per_s": body.input_per_s, "samples": int(samples),
                     "step_s": body.work_s, "prep_s": body.input_s}
        return body


GRAD_STEPS = (1e-8, 1e-9, 1e-10)
GRAD_RTOL = 1e-5


def _check_training(spec, weights, bx, bg, seed) -> bool:
    """Backward against a float64 central difference of the reference loss,
    and a lower reference loss than the seed's initial weights.

    The difference is taken over a step on which no ReLU and no max pool
    changes its choice, so it sees one smooth piece of the loss; the step
    shrinks until that holds.
    """
    sel = np.argsort(-bg.sum(axis=(1, 2)), kind="stable")[:2]  # two slices with most lesion
    xb, gb = bx[sel], bg[sel]
    w64 = [(w.astype(np.float64), b.astype(np.float64)) for w, b in weights]
    loss, grads = training.backward(spec, w64, xb, gb)
    rng = np.random.default_rng(seed)
    direction = [(rng.standard_normal(w.shape), rng.standard_normal(b.shape)) for w, b in w64]
    analytic = sum(np.vdot(gw, vw) + np.vdot(gb_, vb)
                   for (gw, gb_), (vw, vb) in zip(grads, direction))

    def ref_loss(step, kinks=None):
        moved = [(w + step * vw, b + step * vb) for (w, b), (vw, vb) in zip(w64, direction)]
        return ref.dice_loss(ref.unet_forward(moved, xb, kinks=kinks), gb)

    grad_ok = False
    for eps in GRAD_STEPS:
        plus, minus = [], []
        numeric = (ref_loss(eps, plus) - ref_loss(-eps, minus)) / (2 * eps)
        if all(np.array_equal(a, b) for a, b in zip(plus, minus)):
            grad_ok = abs(numeric - analytic) <= GRAD_RTOL * abs(numeric)
            break
    loss_ok = abs(loss - ref_loss(0.0)) <= 1e-9 * abs(loss)

    initial = unet.init_weights(spec, np.random.default_rng(seed))
    before = ref.dice_loss(ref.unet_forward(initial, bx, np.float32), bg)
    after = ref.dice_loss(ref.unet_forward(weights, bx, np.float32), bg)
    return bool(grad_ok and loss_ok and after < before)


# -------------------------------------------------------- predict_paper ----


@dataclass(frozen=True)
class PredictConfig:
    """The released configuration: three width-64 models on a 240x256 case
    cropped to 200x200 (padded to 208x208 for the network)."""

    dims: tuple = (240, 256, 10)
    width: int = 64
    target: tuple = (200, 200)
    lesions: tuple = (8, 16)
    lesion_radius: tuple = (2.0, 6.0)
    input_repeats: int = 8


MODELS = 3
PROB_TOL = 1e-3  # voxels whose reference probability is this close to 0.5 are not compared
THRESHOLDS = (70.0, 30.0)  # the package's default FLAIR / T1 brain-mask thresholds


class PredictPaper:
    full = PredictConfig()
    small = PredictConfig(dims=(64, 64, 10), width=16, target=(64, 64), lesions=(3, 6),
                          lesion_radius=(1.5, 3.0), input_repeats=1)

    @staticmethod
    def setup(workdir: Path, seed: int, cfg: PredictConfig):
        case = _predict_case(seed, cfg)
        nifti.write_nifti(case.flair, workdir / "flair.nii.gz")
        nifti.write_nifti(case.t1, workdir / "t1.nii.gz")
        spec = unet.build_unet(input_channels=2, base_width=cfg.width)
        for m, weights in enumerate(_model_weights(spec, seed)):
            weights_io.save_weights(workdir / f"model{m}.wmhnet", spec, weights)
        return workdir

    @staticmethod
    def measure(workdir: Path, seed: int, seconds: float, cfg: PredictConfig, tracer) -> Body:
        body = Body()
        models = [workdir / f"model{m}.wmhnet" for m in range(MODELS)]
        nz = cfg.dims[2]

        def load_inputs():
            loaded = [weights_io.load_weights(p) for p in models]
            scans = CaseRecord(subject_id="case", scanner_id="unknown",
                               flair=nifti.read_nifti(workdir / "flair.nii.gz"),
                               t1=nifti.read_nifti(workdir / "t1.nii.gz"))
            return loaded, scans

        for _ in range(cfg.input_repeats):
            start = time.perf_counter()
            loaded, _ = load_inputs()
            body.input_s.append(time.perf_counter() - start)
        unet.forward(loaded[0][0], loaded[0][1], np.zeros((1, 2, 16, 16), np.float32))  # warm-up
        del loaded

        outputs = []
        if tracer:
            tracer.install()
        try:
            for r in _rounds(seconds):
                out_path = workdir / f"seg{r}.nii.gz"
                body.attempted += 1
                start = time.perf_counter()
                try:  # the `wmhseg predict` path
                    loaded, scans = load_inputs()
                    config = EnsembleConfig(model_count=len(loaded), threshold=0.5,
                                            z_trim_fraction=0.10)
                    mask = pipeline.predict_case(scans, loaded[0][0], [w for _, w in loaded],
                                                 config, target=cfg.target,
                                                 modalities=("flair", "t1"))
                    nifti.write_nifti(mask, out_path)
                except Exception:
                    body.raised(f"predict_paper round {r}")
                    continue
                finally:
                    loaded = scans = mask = None
                body.work_s.append(time.perf_counter() - start)
                outputs.append(out_path)
        finally:
            if tracer:
                tracer.uninstall()
        body.peak_rss_mb = peak_rss_mb()

        if outputs:
            counts = {}
            first = passes(_check_prediction, outputs[0], seed, cfg, counts)
            for path in outputs:
                body.tally(first and path.read_bytes() == outputs[0].read_bytes(), path.name)

        body.work_per_s = per_s(nz, body.work_s)
        body.input_per_s = per_s(nz, body.input_s[1:] or body.input_s)  # the first is warm-up
        cases = len(body.work_s)
        body.units = {"net": cases, "case": cases, "io": cases}
        body.info = {"predict_slices_per_s": body.work_per_s, "slices": nz,
                     "case_s": body.work_s, "input_stage_s": body.input_s,
                     "checked_slice": counts if outputs else None}
        return body


def _predict_case(seed: int, cfg: PredictConfig):
    spec = phantom.PhantomSpec(dims=cfg.dims, spacing=SPACING, lesion_count_range=cfg.lesions,
                               lesion_radius_range=cfg.lesion_radius, seed=seed)
    return phantom.phantom_generate(spec, 1)[0]


def _model_weights(spec, seed: int):
    """The ensemble's weights: ``init_weights`` with one fixed seed per model."""
    return [unet.init_weights(spec, np.random.default_rng((seed, m))) for m in range(MODELS)]


def _check_prediction(path, seed: int, cfg: PredictConfig, counts: dict) -> bool:
    """Geometry, z-trim and one slice against the float64 reference ensemble.

    The case and the weight arrays are made again from the seed, after the
    timed part, so the run does not hold them while it is measured.  The
    slice is compared inside the target window, where the network decides;
    outside it the mask must be empty, and more than half the window must be
    decided.  Both classes are not required: with initial weights the
    reference's lesion share on a slice ranges from under 1 % to over 99.9 %
    across seeds, so such a rule would fail on some seeds whatever the
    program does.  ``counts`` receives the compared slice and its class
    counts, which the run prints.
    """
    mask, spacing = ref.read_nifti_u8(path)
    case = _predict_case(seed, cfg)
    vols = (case.flair.data, case.t1.data)
    nz, ny, nx = vols[0].shape
    if mask.shape != (nz, ny, nx) or not np.allclose(spacing, SPACING, rtol=1e-6):
        return False
    n_trim = int(0.10 * nz)
    trim_ok = not mask[:n_trim].any() and not mask[nz - n_trim:].any()

    z = n_trim + seed % (nz - 2 * n_trim)
    x, splits = ref.network_input(vols, THRESHOLDS, cfg.target)
    th, tw = cfg.target
    spec = unet.build_unet(input_channels=2, base_width=cfg.width)
    prob = np.mean([ref.unet_forward(w, x[z : z + 1])[0, :th, :tw]
                    for w in _model_weights(spec, seed)], axis=0)
    window = ref.to_original_grid(np.ones((th, tw), bool), splits, (ny, nx))
    prob = ref.to_original_grid(prob, splits, (ny, nx))
    decided = window & (np.abs(prob - 0.5) > PROB_TOL)
    want = prob[decided] > 0.5
    got = mask[z][decided] != 0
    counts.update(z=int(z), window=int(window.sum()), decided=int(decided.sum()),
                  lesion=int(want.sum()), agree=int(np.count_nonzero(got == want)))
    slice_ok = np.array_equal(got, want)
    outside_empty = not mask[z][~window].any()
    return bool(trim_ok and slice_ok and outside_empty and decided.sum() > 0.5 * window.sum())


# ------------------------------------------------------ score_challenge ----


@dataclass(frozen=True)
class ScoreConfig:
    """Challenge scoring: ground truth at 240x256x48 and 0.96x0.96x3 mm with
    tens of lesions, scored against seeded teams of predictions."""

    dims: tuple = (240, 256, 48)
    cases: int = 8
    teams: int = 3
    lesions: tuple = (20, 40)
    lesion_radius: tuple = (2.0, 6.0)
    lesion_z_radius: float = 1.5


CASES = 8


def _plane_cross(m: np.ndarray, grow: bool) -> np.ndarray:
    """In-plane dilation (grow) or erosion by the 4-neighbour cross."""
    out = m.copy()
    for axis in (1, 2):
        for shift in (-1, 1):
            moved = np.roll(m, shift, axis=axis)
            out = (out | moved) if grow else (out & moved)
    return out


def _team_prediction(truth, labels, count, team: int, rng: np.random.Generator) -> np.ndarray:
    """A plausible team output: dilated, eroded with dropped lesions, or
    shifted with dropped lesions, plus one to four false-positive blobs."""
    kind = team % 3
    if kind == 0:
        pred = _plane_cross(truth, grow=True)
    else:
        keep = np.concatenate([[False], rng.random(count) > 0.25])
        pred = keep[labels]
        if kind == 1:
            pred = _plane_cross(pred, grow=False)
        else:
            pred = np.roll(pred, tuple(rng.choice([-1, 1], size=2)), axis=(1, 2))
    nz, ny, nx = truth.shape
    z, y, x = np.ogrid[0:nz, 0:ny, 0:nx]
    for _ in range(int(rng.integers(1, 5))):
        c = rng.uniform((0.3 * nz, 0.3 * ny, 0.3 * nx), (0.7 * nz, 0.7 * ny, 0.7 * nx))
        r = rng.uniform(1.5, 3.0)
        sl = tuple(slice(max(0, int(ci - 4)), int(ci + 5)) for ci in c)
        pred[sl] |= ((z[sl[0]] - c[0]) ** 2 + ((y[:, sl[1]] - c[1]) / r) ** 2
                     + ((x[:, :, sl[2]] - c[2]) / r) ** 2) <= 1.0
    return pred


class ScoreChallenge:
    full = ScoreConfig()
    small = ScoreConfig(dims=(64, 64, 16), teams=2, lesions=(3, 6), lesion_radius=(1.5, 3.0),
                        lesion_z_radius=1.0)

    @staticmethod
    def setup(workdir: Path, seed: int, cfg: ScoreConfig):
        spec_p = phantom.PhantomSpec(dims=cfg.dims, spacing=SPACING, lesion_count_range=cfg.lesions,
                                     lesion_radius_range=cfg.lesion_radius,
                                     lesion_z_radius=cfg.lesion_z_radius, noise_std=0.0, seed=seed)
        for c, case in enumerate(phantom.phantom_generate(spec_p, CASES)):
            gt = case.ground_truth
            nifti.write_nifti(gt, workdir / f"gt{c}.nii.gz")
            labels, count = ndimage.label(gt.data, structure=np.ones((3, 3, 3)))
            for t in range(cfg.teams):
                pred = _team_prediction(gt.data, labels, count, t, np.random.default_rng((seed, c, t)))
                nifti.write_nifti(type(gt)(pred, gt.spacing), workdir / f"team{t}_case{c}.nii.gz")
        return workdir

    @staticmethod
    def measure(workdir: Path, seed: int, seconds: float, cfg: ScoreConfig, tracer) -> Body:
        body = Body()
        pairs = [(c, t) for c in range(CASES) for t in range(cfg.teams)]

        def score(c, t):
            start = time.perf_counter()
            gt = nifti.read_nifti_mask(workdir / f"gt{c}.nii.gz")
            pred = nifti.read_nifti_mask(workdir / f"team{t}_case{c}.nii.gz")
            read = time.perf_counter() - start
            report = metrics.evaluate_case(gt, pred, spacing=gt.spacing)
            return report, read, time.perf_counter() - start

        score(*pairs[0])  # warm-up
        rounds, summary_s = [], []
        if tracer:
            tracer.install()
        try:
            for r in _rounds(seconds):
                reports = {}
                for c, t in pairs:
                    body.attempted += 1
                    try:
                        reports[c, t], read, total = score(c, t)
                    except Exception:
                        body.raised(f"score_challenge round {r} case {c} team {t}")
                        continue
                    body.input_s.append(read)
                    body.work_s.append(total)
                body.attempted += 1
                start = time.perf_counter()
                try:
                    summary = _rank_and_test(reports, cfg)
                except Exception:
                    body.raised(f"score_challenge round {r} rank/stats")
                    summary = None
                else:
                    summary_s.append(time.perf_counter() - start)
                rounds.append((reports, summary))
        finally:
            if tracer:
                tracer.uninstall()
        body.peak_rss_mb = peak_rss_mb()

        checked = {}  # output -> its first instance and whether the reference agreed
        for reports, summary in rounds:
            for (c, t), report in reports.items():
                if (c, t) not in checked:
                    checked[c, t] = report, passes(_check_report, report, workdir / f"gt{c}.nii.gz",
                                                   workdir / f"team{t}_case{c}.nii.gz")
                first, ok = checked[c, t]
                body.tally(ok and report == first, f"case {c} team {t}")
            if summary is not None:
                if "summary" not in checked:
                    checked["summary"] = summary, passes(_check_summary, summary)
                first, ok = checked["summary"]
                body.tally(ok and repr(summary) == repr(first), "rank/stats")

        if body.work_s and summary_s:
            per_pair = float(np.median(body.work_s)) + float(np.median(summary_s)) / len(pairs)
            body.work_per_s = 1.0 / per_pair
        body.input_per_s = per_s(2.0, body.input_s)
        body.units = {"pair": len(body.work_s), "io": len(body.work_s), "round": len(summary_s)}
        body.info = {"score_cases_per_s": body.work_per_s, "masks_read_per_s": body.input_per_s,
                     "rounds": len(rounds), "pair_s_quartiles": quartiles(body.work_s),
                     "summary_s": summary_s}
        return body


def _rank_and_test(reports, cfg: ScoreConfig):
    """The organisers' summary: rank teams on mean metrics, then test each
    team's per-case DSC against team 0 and adjust the p-values."""
    table = {}
    for t in range(cfg.teams):
        table[f"team{t}"] = {}
        for m in ref.HIGHER_BETTER:
            vals = [getattr(reports[c, t], m) for c in range(CASES)]
            vals = [v for v in vals if v is not None]
            table[f"team{t}"][m] = float(np.mean(vals)) if vals else None
    ranked = ranking.rank_teams(table)
    diffs = [np.array([reports[c, t].dsc - reports[c, 0].dsc for c in range(CASES)])
             for t in range(1, cfg.teams)]
    p = [stats.wilcoxon_signed_rank(d) for d in diffs]
    return table, ranked.scores, ranked.final, diffs, p, list(stats.benjamini_hochberg(p))


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_report(report, truth_path, pred_path) -> bool:
    truth, spacing = ref.read_nifti_u8(truth_path)
    pred, _ = ref.read_nifti_u8(pred_path)
    want = ref.case_metrics(truth != 0, pred != 0, spacing)
    return all(_close(getattr(report, m), want[m], 1e-9) for m in want)


def _check_summary(summary) -> bool:
    table, scores, final, diffs, p, adjusted = summary
    want_scores, want_final = ref.minmax_scores(table)
    ok = all(_close(scores[t].get(m), want_scores[t].get(m), 1e-12)
             for t in table for m in ref.HIGHER_BETTER)
    ok &= all(_close(final[t], want_final[t], 1e-12) for t in table)
    want_p = [sps.wilcoxon(d, method="exact").pvalue for d in diffs]
    ok &= all(_close(a, b, 1e-9) for a, b in zip(p, want_p))
    ok &= all(_close(a, b, 1e-12) for a, b in zip(adjusted, sps.false_discovery_control(want_p)))
    return bool(ok)


WORKLOADS = {"train_c5": TrainC5, "predict_paper": PredictPaper, "score_challenge": ScoreChallenge}
