import math

import pytest

from wmhseg.errors import ContractError, FormatError
from wmhseg.metrics import METRIC_NAMES
from wmhseg.ranking import rank_teams, read_team_csv, write_rank_csv

# Published scores of the top five entries of the 2017 challenge leaderboard.
LEADERBOARD = {
    "sysu_media": {"dsc": 0.80, "h95": 6.30, "avd": 21.88, "recall": 0.84, "f1": 0.76},
    "cian": {"dsc": 0.78, "h95": 6.82, "avd": 21.72, "recall": 0.83, "f1": 0.70},
    "nlp_logix": {"dsc": 0.77, "h95": 7.16, "avd": 18.37, "recall": 0.73, "f1": 0.78},
    "nih_cidi_2": {"dsc": 0.76, "h95": 7.02, "avd": 27.98, "recall": 0.81, "f1": 0.70},
    "nic-vicorob": {"dsc": 0.77, "h95": 8.28, "avd": 28.54, "recall": 0.75, "f1": 0.71},
}


class TestRankTeams:
    def test_leaderboard_winner(self):
        ranked = rank_teams(LEADERBOARD)
        assert ranked.winner() == "sysu_media"

    def test_leaderboard_dsc_column(self):
        # DSC spans 0.76..0.80 -> scores (0.80-x)/0.04 from the top
        ranked = rank_teams(LEADERBOARD)
        expected = {"sysu_media": 0.0, "cian": 0.5, "nlp_logix": 0.75,
                    "nih_cidi_2": 1.0, "nic-vicorob": 0.75}
        for team, score in expected.items():
            assert ranked.scores[team]["dsc"] == pytest.approx(score)

    def test_leaderboard_final_score(self):
        ranked = rank_teams(LEADERBOARD)
        # hand-computed mean of the five per-metric scores for the winner:
        # dsc 0, h95 0, avd (21.88-18.37)/(28.54-18.37), recall 0, f1 (0.78-0.76)/0.08
        avd_score = (21.88 - 18.37) / (28.54 - 18.37)
        f1_score = (0.78 - 0.76) / (0.78 - 0.70)
        assert ranked.final["sysu_media"] == pytest.approx((avd_score + f1_score) / 5)

    def test_best_and_worst_pinned(self):
        ranked = rank_teams(LEADERBOARD)
        for metric in METRIC_NAMES:
            column = [ranked.scores[t][metric] for t in ranked.teams]
            assert min(column) == 0.0
            assert max(column) == 1.0

    def test_dominant_team_scores_zero(self):
        table = {
            "best": {"dsc": 0.9, "h95": 3.0, "avd": 10.0, "recall": 0.9, "f1": 0.9},
            "worst": {"dsc": 0.5, "h95": 9.0, "avd": 40.0, "recall": 0.5, "f1": 0.5},
        }
        ranked = rank_teams(table)
        assert ranked.final["best"] == 0.0
        assert ranked.final["worst"] == 1.0

    def test_constant_column_contributes_zero(self):
        table = {
            "a": {"dsc": 0.8, "h95": 5.0},
            "b": {"dsc": 0.8, "h95": 7.0},
        }
        ranked = rank_teams(table)
        assert ranked.scores["a"]["dsc"] == 0.0
        assert ranked.scores["b"]["dsc"] == 0.0

    def test_missing_metric_excluded_and_flagged(self):
        table = {
            "a": {"dsc": 0.8, "h95": 5.0},
            "b": {"dsc": 0.7},
        }
        ranked = rank_teams(table)
        assert "h95" in ranked.excluded["b"]
        assert ranked.scores["b"]["h95"] is None
        assert ranked.final["b"] == pytest.approx(1.0)  # only the dsc column

    def test_monotone_transform_invariance(self):
        # rank order is preserved under any positive affine map of a column
        base = rank_teams(LEADERBOARD)
        shifted = {t: dict(v) for t, v in LEADERBOARD.items()}
        for t in shifted:
            shifted[t]["h95"] = 2.0 * shifted[t]["h95"] + 5.0
        again = rank_teams(shifted)
        for t in LEADERBOARD:
            assert again.scores[t]["h95"] == pytest.approx(base.scores[t]["h95"])

    def test_no_score_is_negative(self):
        # a higher-is-better column must not give its best team -0.0
        ranked = rank_teams(LEADERBOARD)
        for team in ranked.teams:
            for score in [*ranked.scores[team].values(), ranked.final[team]]:
                assert math.copysign(1.0, score) == 1.0, (team, score)

    def test_order_best_first(self):
        ranked = rank_teams(LEADERBOARD)
        order = ranked.order()
        assert order[0] == ranked.winner() == "sysu_media"
        assert sorted(order) == sorted(LEADERBOARD)
        finals = [ranked.final[t] for t in order]
        assert finals == sorted(finals)

    def test_order_ties_keep_table_order(self):
        ranked = rank_teams({"b": {"dsc": 0.8}, "a": {"dsc": 0.8}, "c": {"dsc": 0.5}})
        assert ranked.order() == ["b", "a", "c"]

    def test_too_few_teams(self):
        with pytest.raises(ContractError):
            rank_teams({"only": {"dsc": 0.8}})

    def test_team_with_no_metrics(self):
        with pytest.raises(ContractError):
            rank_teams({"a": {"dsc": 0.8}, "b": {}})


class TestCSV:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text(
            "team,dsc,h95_mm,avd,recall,f1\n"
            "alpha,0.80,6.30,21.88,0.84,0.76\n"
            "beta,0.78,6.82,21.72,0.83,0.70\n"
        )
        table = read_team_csv(path)
        assert table["alpha"]["h95"] == 6.30
        ranked = rank_teams(table)
        out = tmp_path / "ranked.csv"
        write_rank_csv(ranked, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "team,score_dsc,score_h95,score_avd,score_recall,score_f1,score"
        assert lines[1].startswith("alpha,")  # winner listed first

    def test_missing_values_read_as_absent(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("team,dsc,h95_mm\nalpha,0.8,\nbeta,0.7,6.0\n")
        table = read_team_csv(path)
        assert "h95" not in table["alpha"]

    def test_short_row_reads_as_absent(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("team,dsc,h95_mm\nalpha,0.8\nbeta,0.7,6.0\n")
        assert read_team_csv(path)["alpha"] == {"dsc": 0.8}

    def test_row_longer_than_header(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("team,dsc\nalpha,0.8\nbeta,0.7,0.9\n")
        with pytest.raises(FormatError, match=r"teams\.csv, line 3: more cells than the header"):
            read_team_csv(path)

    def test_empty_team_cell(self, tmp_path):
        # a row too short to reach the team column: test_cli's rank-no-team
        path = tmp_path / "teams.csv"
        path.write_text("dsc,team\n0.8,a\n0.6,\n")
        with pytest.raises(FormatError, match=r"teams\.csv, line 3: the row names no team"):
            read_team_csv(path)

    def test_missing_team_column(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("name,dsc\nalpha,0.8\n")
        with pytest.raises(ContractError):
            read_team_csv(path)

    def test_no_negative_zero_written(self, tmp_path):
        table = {"a": {"dsc": 0.9, "h95": 3.0}, "b": {"dsc": 0.5, "h95": 9.0}}
        out = tmp_path / "ranked.csv"
        write_rank_csv(rank_teams(table), out)
        lines = out.read_text().splitlines()
        assert lines[1] == "a,0.000000,0.000000,,,,0.000000"
        assert "-0.000000" not in out.read_text()

    def test_h95_column_alias(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("team,dsc,h95\nalpha,0.8,6.5\n")
        assert read_team_csv(path) == {"alpha": {"dsc": 0.8, "h95": 6.5}}

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "1,5"])
    def test_malformed_cell_names_place(self, tmp_path, cell):
        path = tmp_path / "teams.csv"
        path.write_text(f'team,dsc,h95_mm\nalpha,0.8,6.0\nbeta,0.7,"{cell}"\n')
        with pytest.raises(FormatError, match=r"teams\.csv, line 3, column 'h95_mm': "):
            read_team_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "teams.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="is empty"):
            read_team_csv(path)
