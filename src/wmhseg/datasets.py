"""On-disk dataset layout used by the CLI.

A dataset directory holds one subdirectory per subject with flair.nii.gz,
t1.nii.gz and optionally mask.nii.gz, plus a manifest.csv mapping
subject_id to scanner_id.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .errors import FormatError
from .nifti import read_nifti, read_nifti_mask, write_nifti
from .preprocess import CaseRecord

MANIFEST_COLUMNS = ("subject_id", "scanner_id")


def save_dataset(cases, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "manifest.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MANIFEST_COLUMNS)
        for case in cases:
            writer.writerow([case.subject_id, case.scanner_id])

    for case in cases:
        subject_dir = directory / case.subject_id
        subject_dir.mkdir(exist_ok=True)
        write_nifti(case.flair, subject_dir / "flair.nii.gz")
        write_nifti(case.t1, subject_dir / "t1.nii.gz")
        if case.ground_truth is not None:
            write_nifti(case.ground_truth, subject_dir / "mask.nii.gz")


def load_dataset(directory) -> list[CaseRecord]:
    directory = Path(directory)
    manifest = directory / "manifest.csv"
    if not manifest.exists():
        raise FormatError(f"no manifest.csv in {directory}")
    cases = []
    with open(manifest, newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in MANIFEST_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise FormatError(f"{manifest}: no {' or '.join(map(repr, missing))} column")
        for row in reader:
            if any(case.subject_id == row["subject_id"] for case in cases):
                raise FormatError(f"{manifest}, line {reader.line_num}: subject "
                                  f"{row['subject_id']!r} appears twice")
            subject_dir = directory / row["subject_id"]
            mask_path = subject_dir / "mask.nii.gz"
            cases.append(
                CaseRecord(
                    subject_id=row["subject_id"],
                    scanner_id=row["scanner_id"],
                    flair=read_nifti(subject_dir / "flair.nii.gz"),
                    t1=read_nifti(subject_dir / "t1.nii.gz"),
                    ground_truth=read_nifti_mask(mask_path) if mask_path.exists() else None,
                )
            )
    return cases
