"""Command line interface.

Subcommands: phantom, split, preprocess, train, predict, evaluate, rank,
sweep, stats.  Global flags --seed and --config FILE (key=value lines of
option defaults keyed by parameter name, such as out_dir; blank and "#"
lines are skipped, any other line without "=" or a key that no option takes
is an error, and a flag given on the command line wins).  Exit
code is 0 on success; failures print one machine-readable line
"ERROR <kind>: <message>" to stderr and exit nonzero.
"""

from __future__ import annotations

import csv
import inspect
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import datasets
from .augment import augment_dataset
from .ensemble import EnsembleConfig
from .errors import ContractError, WmhsegError
from .grids import BinaryMask3D, Volume3D
from .metrics import evaluate_case, parse_cell, read_table
from .net.training import TrainConfig, train
from .net.unet import build_unet
from .net.weights_io import load_weights, save_weights
from .nifti import read_nifti, read_nifti_mask, write_nifti
from .phantom import PhantomSpec, phantom_generate
from .pipeline import case_training_arrays, predict_case
from .preprocess import DEFAULT_TARGET, CaseRecord, preprocess_case, write_record
from .ranking import rank_teams, read_team_csv, write_rank_csv
from .splits import split_cross_scanner, split_loso, split_ratio
from .stats import benjamini_hochberg, wilcoxon_signed_rank
from .sweep import ensemble_sweep

TARGET_TEXT = ",".join(map(str, DEFAULT_TARGET))


def _load_config_defaults(path, ctx, param) -> dict:
    defaults = {}
    with open(path) as f:
        for number, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.BadParameter(f"{path}, line {number}: {line!r} is not a "
                                         "key=value line", ctx, param)
            key, value = (s.strip() for s in line.split("=", 1))
            defaults[key.replace("-", "_")] = value
    return defaults


def _comma_list(item_type: click.ParamType, count: int | None = None):
    """Click callback turning "a,b,c" into a tuple of ``item_type`` values.

    Empty entries are dropped; ``count`` fixes how many values must remain.
    """

    def callback(ctx, param, value):
        items = tuple(item_type.convert(v.strip(), param, ctx)
                      for v in value.split(",") if v.strip())
        if not items or (count is not None and len(items) != count):
            wanted = count if count is not None else "one or more"
            raise click.BadParameter(f"expected {wanted} comma-separated values, "
                                     f"got {value!r}", ctx, param)
        return items

    return callback


@click.group()
@click.option("--seed", type=int, default=0, show_default=True, help="Global random seed.")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None,
              help="key=value file with option defaults.")
@click.pass_context
def main(ctx, seed, config_file):
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed
    if config_file:
        params = {p.name: p for p in ctx.command.params}
        defaults = _load_config_defaults(config_file, ctx, params["config_file"])
        known = {"seed"} | {p.name for cmd in main.commands.values() for p in cmd.params}
        unknown = [key for key in defaults if key not in known]
        if unknown:
            raise click.BadParameter(f"{config_file}: {unknown[0]!r} is not the parameter "
                                     "name of any option", ctx, params["config_file"])
        ctx.default_map = {cmd: defaults for cmd in main.commands}
        if "seed" in defaults and ctx.get_parameter_source("seed") is ParameterSource.DEFAULT:
            ctx.obj["seed"] = click.INT.convert(defaults["seed"], params["seed"], ctx)


@main.command()
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--count", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--dims", default="64,64,16", show_default=True, help="nx,ny,nz",
              callback=_comma_list(click.INT, 3))
@click.option("--lesions", default="3,6", show_default=True, help="min,max lesion count",
              callback=_comma_list(click.INT, 2))
@click.pass_context
def phantom(ctx, out_dir, count, dims, lesions):
    """Generate a synthetic phantom dataset with ground truth."""
    spec = PhantomSpec(dims=dims, lesion_count_range=lesions, seed=ctx.obj["seed"])
    cases = phantom_generate(spec, count)
    datasets.save_dataset(cases, out_dir)
    click.echo(f"wrote {count} phantom cases to {out_dir}")


@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--kind", type=click.Choice(["subject", "scanner", "ratio"]), default="subject",
              show_default=True)
@click.option("--test-fraction", type=float, show_default=True,
              default=inspect.signature(split_ratio).parameters["test_fraction"].default)
@click.option("--out", "out_csv", required=True, type=click.Path())
@click.pass_context
def split(ctx, data_dir, kind, test_fraction, out_csv):
    """Write split plans (fold, role, subject) as CSV."""
    cases = datasets.load_dataset(data_dir)
    if kind == "subject":
        plans = split_loso(cases)
    elif kind == "scanner":
        plans = split_cross_scanner(cases)
    else:
        plans = [split_ratio(cases, test_fraction, seed=ctx.obj["seed"])]
    with open(out_csv, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["fold_id", "role", "subject_id"])
        for plan in plans:
            for sid in plan.train_ids:
                writer.writerow([plan.fold_id, "train", sid])
            for sid in plan.test_ids:
                writer.writerow([plan.fold_id, "test", sid])
    click.echo(f"wrote {len(plans)} folds to {out_csv}")


@main.command()
@click.option("--flair", required=True, type=click.Path(exists=True))
@click.option("--t1", "t1_path", required=True, type=click.Path(exists=True))
@click.option("--gt", "gt_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--target", default=TARGET_TEXT, show_default=True,
              callback=_comma_list(click.INT, 2))
def preprocess(flair, t1_path, gt_path, out_dir, target):
    """Preprocess one case: normalized slice stacks + sidecar record."""
    case = CaseRecord(
        subject_id="case", scanner_id="unknown",
        flair=read_nifti(flair), t1=read_nifti(t1_path),
        ground_truth=read_nifti_mask(gt_path) if gt_path else None,
    )
    samples, truth, record = preprocess_case(case, target=target)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spacing = case.flair.spacing
    for ci, name in enumerate(("flair", "t1")):
        write_nifti(Volume3D(samples[:, ci], spacing), out / f"{name}_norm.nii.gz")
    if truth is not None:
        write_nifti(BinaryMask3D(truth, spacing), out / "gt_aligned.nii.gz")
    write_record(record, out / "record.txt")
    click.echo(f"wrote preprocessed stacks and record to {out_dir}")


@main.command(name="train")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--epochs", type=int, default=TrainConfig.epochs, show_default=True)
@click.option("--batch", type=int, default=TrainConfig.batch_size, show_default=True)
@click.option("--lr", type=float, default=TrainConfig.learning_rate, show_default=True)
@click.option("--base-width", type=int, default=64, show_default=True)
@click.option("--input-channels", type=click.IntRange(1, 2), default=2, show_default=True)
@click.option("--augment-factor", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--stop-loss", type=float, default=None,
              help="Early stop once epoch loss falls below this value.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def train_cmd(ctx, data_dir, epochs, batch, lr, base_width, input_channels,
              augment_factor, stop_loss, out_path):
    """Train a single model on a dataset directory."""
    config = TrainConfig(batch_size=batch, learning_rate=lr, epochs=epochs,
                         seed=ctx.obj["seed"], stop_loss=stop_loss)
    cases = datasets.load_dataset(data_dir)
    skipped = [c.subject_id for c in cases if c.ground_truth is None]
    if skipped:
        click.echo(f"skipped {len(skipped)} subject(s) without mask.nii.gz: {', '.join(skipped)}")
    cases = [c for c in cases if c.ground_truth is not None]
    modalities = ("flair", "t1")[:input_channels]
    x, g = case_training_arrays(cases, modalities=modalities)
    x, g = augment_dataset(x, g, augment_factor, ctx.obj["seed"])
    spec = build_unet(input_channels=input_channels, base_width=base_width)
    weights, history = train(spec, x, g, config)
    save_weights(out_path, spec, weights)
    click.echo(f"final training loss {history['train_loss'][-1]:.4f} "
               f"after {len(history['train_loss'])} epochs; model -> {out_path}")


@main.command()
@click.option("--models", required=True, help="Comma-separated weight files.",
              callback=_comma_list(click.Path(exists=True, dir_okay=False)))
@click.option("--flair", required=True, type=click.Path(exists=True))
@click.option("--t1", "t1_path", required=True, type=click.Path(exists=True))
@click.option("--threshold", type=float, default=EnsembleConfig.threshold, show_default=True)
@click.option("--z-trim", type=float, default=EnsembleConfig.z_trim_fraction, show_default=True)
@click.option("--target", default=TARGET_TEXT, show_default=True,
              callback=_comma_list(click.INT, 2))
@click.option("--out", "out_path", required=True, type=click.Path())
def predict(models, flair, t1_path, threshold, z_trim, target, out_path):
    """Segment a case with a model ensemble; writes a binary mask."""
    loaded = [load_weights(p) for p in models]
    spec = loaded[0][0]
    for path, (other, _) in zip(models[1:], loaded[1:]):
        if other != spec:
            raise ContractError(" and ".join(
                f"{p} ({s.input_channels} input channels, base width {s.widths[0]})"
                for p, s in ((models[0], spec), (path, other))) + " hold different networks")
    weight_sets = [w for _, w in loaded]
    case = CaseRecord(subject_id="case", scanner_id="unknown",
                      flair=read_nifti(flair), t1=read_nifti(t1_path))
    modalities = ("flair", "t1")[: spec.input_channels]
    config = EnsembleConfig(model_count=len(weight_sets), threshold=threshold,
                            z_trim_fraction=z_trim)
    mask = predict_case(case, spec, weight_sets, config, target=target,
                        modalities=modalities)
    write_nifti(mask, out_path)
    click.echo(f"wrote segmentation ({mask.population} voxels) to {out_path}")


@main.command()
@click.option("--gt", "gt_path", required=True, type=click.Path(exists=True))
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--team", default="case", show_default=True)
def evaluate(gt_path, pred_path, team):
    """Print one CSV row with the five metrics."""
    truth = read_nifti_mask(gt_path)
    pred = read_nifti_mask(pred_path)
    report = evaluate_case(truth, pred, spacing=truth.spacing)
    row = report.as_row()
    click.echo(",".join(["team", *row]))
    click.echo(",".join([team, *row.values()]))


@main.command()
@click.option("--table", "table_csv", required=True, type=click.Path(exists=True))
@click.option("--out", "out_csv", default=None, type=click.Path())
def rank(table_csv, out_csv):
    """Rank teams from a metric table CSV (columns team,dsc,h95_mm,avd,recall,f1)."""
    ranked = rank_teams(read_team_csv(table_csv))
    for t in ranked.order():
        click.echo(f"{t},{ranked.final[t]:.6f}")
    if out_csv:
        write_rank_csv(ranked, out_csv)
        click.echo(f"wrote rank table to {out_csv}")


@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--sizes", default="1,3,5", show_default=True,
              callback=_comma_list(click.IntRange(min=1)))
@click.option("--repeats", type=int, default=5, show_default=True)
@click.option("--epochs", type=int, default=15, show_default=True)
@click.option("--batch", type=int, default=TrainConfig.batch_size, show_default=True)
@click.option("--lr", type=float, default=TrainConfig.learning_rate, show_default=True)
@click.option("--base-width", type=int, default=8, show_default=True)
@click.option("--out", "out_csv", required=True, type=click.Path())
@click.pass_context
def sweep(ctx, data_dir, sizes, repeats, epochs, batch, lr, base_width, out_csv):
    """Ensemble-size sweep on a dataset with ground truth."""
    cases = datasets.load_dataset(data_dir)
    spec = build_unet(input_channels=2, base_width=base_width)
    config = TrainConfig(batch_size=batch, learning_rate=lr, epochs=epochs,
                         seed=ctx.obj["seed"])
    result = ensemble_sweep(cases, sizes, repeats, spec, config, seed=ctx.obj["seed"])
    result.to_csv(out_csv)
    click.echo(f"wrote sweep summary to {out_csv}")


@main.command()
@click.option("--input", "input_csv", required=True, type=click.Path(exists=True),
              help="CSV of paired differences, one column per comparison.")
@click.option("--out", "out_csv", default=None, type=click.Path())
def stats(input_csv, out_csv):
    """Wilcoxon signed-rank p-values per column, FDR-adjusted across columns."""
    header, records = read_table(input_csv)
    columns = {name: [] for name in header}
    for line, row in records:
        for name, value in row.items():
            if value != "":
                columns[name].append(parse_cell(value, input_csv, line, name))
    p_values = [wilcoxon_signed_rank(np.array(columns[name])) for name in header]
    rows = list(zip(header, p_values, benjamini_hochberg(p_values).tolist()))
    for name, p, adj in rows:
        click.echo(f"{name},{p:.6g},{adj:.6g}")
    if out_csv:
        with open(out_csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["comparison", "p_value", "p_adjusted"])
            writer.writerows(rows)


def run(args=None):
    try:
        main(args=args, standalone_mode=False)
    except (WmhsegError, MemoryError, OSError) as exc:
        # numpy raises a private MemoryError subclass; report the public name.
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"ERROR {name}: {exc}", file=sys.stderr)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code or 1)
    except click.Abort:
        sys.exit(130)


if __name__ == "__main__":
    run()
