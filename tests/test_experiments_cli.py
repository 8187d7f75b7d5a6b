"""Tests for the experiments library/CLI (quick scales)."""

import pytest

from repro.experiments import EXPERIMENTS, figure7, section76
from repro.experiments.__main__ import _render, main


class TestRunner:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {"fig5", "fig7", "tpce", "sec76"}

    def test_section76_rows(self):
        headers, rows = section76(scale=0.1)
        assert headers[0] == "mix"
        assert len(rows) == 5
        # endpoints of the crossover
        assert rows[0][1].startswith("0")
        assert rows[-1][2].startswith("0")

    @pytest.mark.slow
    def test_figure7_registers_five_benchmarks_and_sim_column(self):
        headers, rows = figure7(scale=0.01, show_cluster=True)
        assert headers == ["benchmark", "JECB", "Schism 50%", "JECB sim"]
        assert [row[0] for row in rows] == [
            "tpcc", "tatp", "tpce", "seats", "auctionmark"
        ]
        for row in rows:
            assert "units/txn" in row[3]


class TestCli:
    def test_render(self):
        text = _render(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "longer" in lines[3]

    def test_main_single_experiment(self, capsys):
        assert main(["sec76", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "sec76" in out
        assert "schema-respecting" in out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_main_rejects_workers_flag(self):
        # Phase 2 is serial; there is no parallelism flag to accept.
        with pytest.raises(SystemExit):
            main(["sec76", "--workers", "2"])

    def test_seed_override(self, capsys):
        assert main(["sec76", "--scale", "0.1", "--seed", "123"]) == 0

    def test_no_cluster_flag_accepted(self, capsys):
        assert main(["sec76", "--scale", "0.1", "--no-cluster"]) == 0
