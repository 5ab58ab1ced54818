"""Challenge rank scoring: per-metric min-max normalization, best team -> 0.

Each metric column is normalized to [0, 1] with the best-performing team at
0 and the worst at 1 (the direction of each metric is ``HIGHER_BETTER`` in
``metrics``).  The final score is the mean over the five per-metric scores,
so smaller final scores rank higher.  Ties share identical scores; a column
where every team is equal contributes 0 to everyone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import ContractError, FormatError
from .metrics import COLUMN, HIGHER_BETTER, METRIC_NAMES, parse_cell, read_table


@dataclass
class RankTable:
    teams: list[str]
    scores: dict[str, dict[str, float | None]]     # team -> metric -> rank score
    final: dict[str, float]                        # team -> averaged score
    excluded: dict[str, list[str]] = field(default_factory=dict)  # team -> missing metrics

    def order(self) -> list[str]:
        """Teams best first (lowest final score); ties keep table order."""
        return sorted(self.teams, key=self.final.__getitem__)

    def winner(self) -> str:
        return self.order()[0]


def rank_teams(table: dict[str, dict[str, float | None]]) -> RankTable:
    """Score every team from its raw metric values.

    ``table`` maps team -> {metric -> value}; a missing/None value excludes
    the team from that metric (flagged in ``excluded``), and its final score
    averages the metrics it does have.
    """
    if len(table) < 2:
        raise ContractError("ranking needs at least two teams")
    teams = list(table)
    scores: dict[str, dict[str, float | None]] = {t: {} for t in teams}
    excluded: dict[str, list[str]] = {}

    for metric in METRIC_NAMES:
        values = {t: table[t].get(metric) for t in teams}
        present = {t: v for t, v in values.items() if v is not None}
        for t in teams:
            if values[t] is None:
                scores[t][metric] = None
                excluded.setdefault(t, []).append(metric)
        if not present:
            continue
        lo, hi = min(present.values()), max(present.values())
        for t, v in present.items():
            # Distance from the best value, so the best team scores +0.0.
            gap = hi - v if HIGHER_BETTER[metric] else v - lo
            scores[t][metric] = gap / (hi - lo) if hi > lo else 0.0

    final = {}
    for t in teams:
        available = [s for s in scores[t].values() if s is not None]
        if not available:
            raise ContractError(f"team {t!r} has no usable metric values")
        final[t] = sum(available) / len(available)

    return RankTable(teams=teams, scores=scores, final=final, excluded=excluded)


def read_team_csv(path) -> dict[str, dict[str, float | None]]:
    """Read a team table CSV: a ``team`` column and the metric columns
    ``MetricReport.as_row`` writes (H95 may also be headed ``h95``)."""
    columns = {COLUMN[m]: m for m in METRIC_NAMES} | {"h95": "h95"}
    header, rows = read_table(path)
    if "team" not in header:
        raise ContractError("team CSV must have a 'team' column")
    table = {}
    for line, row in rows:
        team = row.get("team")
        if not team:
            raise FormatError(f"{path}, line {line}: the row names no team")
        if team in table:
            raise FormatError(f"{path}, line {line}: team {team!r} appears twice")
        table[team] = {metric: parse_cell(row[col], path, line, col)
                       for col, metric in columns.items() if row.get(col)}
    return table


def write_rank_csv(ranked: RankTable, path) -> None:
    fields = ["team"] + [f"score_{m}" for m in METRIC_NAMES] + ["score"]
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for t in ranked.order():
            row = {"team": t, "score": f"{ranked.final[t]:.6f}"}
            for m in METRIC_NAMES:
                s = ranked.scores[t][m]
                row[f"score_{m}"] = "" if s is None else f"{s:.6f}"
            writer.writerow(row)
