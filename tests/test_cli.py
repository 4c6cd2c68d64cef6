"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.builders import erdos_renyi
from repro.graph.io import write_edge_list, write_node_sets
from repro.query import MEASURE_NAMES


@pytest.fixture
def workspace(tmp_path):
    import numpy as np

    graph = erdos_renyi(25, 0.2, np.random.default_rng(4), weighted=True)
    graph_path = tmp_path / "graph.tsv"
    sets_path = tmp_path / "sets.json"
    write_edge_list(graph, graph_path)
    write_node_sets(
        {"A": [0, 1, 2, 3], "B": [10, 11, 12], "C": [20, 21, 22]}, sets_path
    )
    return graph_path, sets_path


class TestTwoWayCommand:
    def test_text_output(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "two-way", str(graph_path), "--sets", str(sets_path),
            "--left", "A", "--right", "B", "-k", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "h_d" in out
        assert out.count("\n") == 3

    def test_json_output(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "two-way", str(graph_path), "--sets", str(sets_path),
            "--left", "A", "--right", "B", "-k", "2", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)["results"]
        assert len(data) == 2
        assert {"left", "right", "score"} <= set(data[0])
        assert data[0]["score"] >= data[1]["score"]

    def test_dht_e_measure(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "two-way", str(graph_path), "--sets", str(sets_path),
            "--left", "A", "--right", "B", "-k", "1",
            "--measure", "dht-e", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]

    def test_measure_with_max_bytes(self, workspace, capsys):
        """The walk-block ceiling applies to series measures too, and a
        capped run returns the same pairs as an unbounded one — in the
        budgeted JSON envelope, flagged exact."""
        graph_path, sets_path = workspace
        base = [
            "two-way", str(graph_path), "--sets", str(sets_path),
            "--left", "A", "--right", "B", "-k", "3",
            "--measure", "ppr", "--json",
        ]
        assert main(base) == 0
        free = json.loads(capsys.readouterr().out)["results"]
        assert main(base + ["--max-bytes", "400"]) == 0  # one column of 25 nodes
        capped = json.loads(capsys.readouterr().out)
        assert capped["exact"] and capped["reason"] is None
        assert [(p["left"], p["right"]) for p in capped["results"]] == [
            (p["left"], p["right"]) for p in free
        ]

    def test_unknown_set_name(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "two-way", str(graph_path), "--sets", str(sets_path),
            "--left", "A", "--right", "ZZZ",
        ])
        assert code == 2
        assert "ZZZ" in capsys.readouterr().err

    def test_missing_graph_file(self, workspace, capsys):
        _, sets_path = workspace
        code = main([
            "two-way", "/nonexistent.tsv", "--sets", str(sets_path),
            "--left", "A", "--right", "B",
        ])
        assert code == 2

    @pytest.mark.parametrize("bad_id", [1.5, True, "3"])
    def test_non_integral_set_id_exits_2(self, workspace, capsys, bad_id):
        """A ``--sets`` id passes the requests' id check: never
        truncated to an int (``1.5 -> 1``, ``true -> 1``, ``"3" -> 3``)."""
        graph_path, sets_path = workspace
        sets_path.write_text(json.dumps({"A": [0, 1], "B": [bad_id]}))
        code = main([
            "two-way", str(graph_path), "--sets", str(sets_path),
            "--left", "A", "--right", "B",
        ])
        assert code == 2
        assert "node ids must be integers" in capsys.readouterr().err

    def test_measure_choices_are_the_measure_names(self, workspace, capsys):
        """``--measure`` offers exactly ``repro.query.MEASURE_NAMES``."""
        from repro.query import MEASURE_NAMES

        graph_path, sets_path = workspace
        with pytest.raises(SystemExit) as exited:
            main([
                "two-way", str(graph_path), "--sets", str(sets_path),
                "--left", "A", "--right", "B", "--measure", "simrank",
            ])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert ", ".join(f"'{name}'" for name in MEASURE_NAMES) in err


class TestMultiWayCommand:
    def test_chain_json(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "multi-way", str(graph_path), "--sets", str(sets_path),
            "--node-sets", "A", "B", "C", "--shape", "chain",
            "-k", "3", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)["results"]
        assert data and len(data[0]["nodes"]) == 3
        assert len(data[0]["edge_scores"]) == 2

    def test_triangle_shape(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "multi-way", str(graph_path), "--sets", str(sets_path),
            "--node-sets", "A", "B", "C", "--shape", "triangle",
            "-k", "2", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)["results"]
        assert len(data[0]["edge_scores"]) == 6  # bidirectional triangle

    def test_triangle_wrong_arity(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "multi-way", str(graph_path), "--sets", str(sets_path),
            "--node-sets", "A", "B", "--shape", "triangle",
        ])
        assert code == 2

    def test_algorithms_agree(self, workspace, capsys):
        graph_path, sets_path = workspace
        scores = {}
        for algorithm in ("nl", "pj-i"):
            main([
                "multi-way", str(graph_path), "--sets", str(sets_path),
                "--node-sets", "A", "B", "--shape", "chain",
                "-k", "3", "--algorithm", algorithm, "--json",
            ])
            data = json.loads(capsys.readouterr().out)["results"]
            scores[algorithm] = [round(a["score"], 9) for a in data]
        assert scores["nl"] == scores["pj-i"]

    def test_sum_aggregate(self, workspace, capsys):
        graph_path, sets_path = workspace
        code = main([
            "multi-way", str(graph_path), "--sets", str(sets_path),
            "--node-sets", "A", "B", "C", "--aggregate", "SUM",
            "-k", "1", "--json",
        ])
        assert code == 0
        answer = json.loads(capsys.readouterr().out)["results"][0]
        assert answer["score"] == pytest.approx(sum(answer["edge_scores"]))


class TestStatsCommand:
    def test_text(self, workspace, capsys):
        graph_path, _ = workspace
        assert main(["stats", str(graph_path)]) == 0
        assert "num_nodes" in capsys.readouterr().out

    def test_json(self, workspace, capsys):
        graph_path, _ = workspace
        assert main(["stats", str(graph_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["num_nodes"] == 25.0


class TestOneRequestBuilder:
    """A one-shot run and a ``--requests`` entry asking for the same
    query build the same request: the flags are the entry's keys."""

    MEASURES = [[], *(["--measure", name] for name in MEASURE_NAMES)]
    BUDGETS = [[], ["--deadline-ms", "7"], ["--step-budget", "7"],
               ["--max-bytes", "7"]]
    POLICIES = [[], ["--on-budget", "partial"], ["--on-budget", "error"]]
    PLANS = [[], ["--plan", "fixed"], ["--plan", "auto"]]
    AGGREGATES = [[], ["--aggregate", "MIN"], ["--aggregate", "sum"]]

    @staticmethod
    def _entry(command, flags):
        """The ``--requests`` entry of the one-shot ``flags``."""
        entry = {"type": command}
        for flag, value in zip(flags[::2], flags[1::2]):
            key = flag.lstrip("-").replace("-", "_")
            entry[key] = value if key in ("measure", "on_budget", "plan",
                                          "aggregate") else int(value)
        return entry

    def test_one_shot_request_is_the_entry_request(self, workspace, capsys,
                                                   monkeypatch):
        import itertools

        from repro import cli
        from repro.exec.budget import exact_result
        from repro.graph.io import read_node_sets

        graph_path, sets_path = workspace
        executed = []

        def run(graph, request, **kwargs):
            executed.append(request)
            return exact_result([])

        monkeypatch.setattr(cli, "run", run)
        node_sets = read_node_sets(str(sets_path))
        grid = {
            "two-way": (
                ["--left", "A", "--right", "B"], {"left": "A", "right": "B"},
                [self.MEASURES, self.BUDGETS, self.POLICIES],
            ),
            "multi-way": (
                ["--node-sets", "A", "B", "C"], {"node_sets": ["A", "B", "C"]},
                [self.MEASURES, self.BUDGETS, self.POLICIES, self.PLANS,
                 self.AGGREGATES],
            ),
        }
        checked = 0
        for command, (sets_flags, sets_entry, axes) in grid.items():
            for combo in itertools.product(*axes):
                flags = [flag for axis in combo for flag in axis]
                assert main([command, str(graph_path), "--sets",
                             str(sets_path), *sets_flags, *flags]) == 0
                entry = {**self._entry(command, flags), **sets_entry}
                expected = cli._parse_request(entry, node_sets, str(sets_path))
                assert executed.pop() == expected, (command, flags)
                checked += 1
        capsys.readouterr()
        assert checked == 5 * 4 * 3 * (1 + 3 * 3)

    def test_choices_are_read_from_the_tables_that_run_them(self):
        import argparse

        from repro.cli import build_parser
        from repro.core.nway import EXECUTORS
        from repro.core.nway.driver import OPERATORS
        from repro.core.nway.spec import PLAN_MODES

        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        choices = {
            (command, action.dest): tuple(action.choices)
            for command, parser in subparsers.choices.items()
            for action in parser._actions if action.choices
        }
        assert choices["two-way", "algorithm"] == tuple(OPERATORS)
        assert choices["multi-way", "algorithm"] == tuple(EXECUTORS)
        assert choices["multi-way", "plan"] == PLAN_MODES


class TestMeasureFlags:
    """``--decay`` / ``--damping`` configure the measure that reads them
    and are a usage error beside any other, never silently dropped."""

    BASE = ["--left", "A", "--right", "B", "-k", "3", "--json"]

    def _scores(self, workspace, capsys, *flags):
        graph_path, sets_path = workspace
        capsys.readouterr()
        assert main(["two-way", str(graph_path), "--sets", str(sets_path),
                     *self.BASE, *flags]) == 0
        return [row["score"] for row in json.loads(capsys.readouterr().out)["results"]]

    @pytest.mark.parametrize("flags", [
        ["--measure", "ppr", "--decay", "0.3"],
        ["--measure", "dht-e", "--decay", "0.3"],
        ["--damping", "0.5"],
        ["--measure", "dht", "--damping", "0.5"],
        ["--measure", "dht-e", "--damping", "0.5"],
    ])
    def test_a_flag_the_measure_does_not_read_exits_2(self, workspace, capsys,
                                                      flags):
        graph_path, sets_path = workspace
        code = main(["two-way", str(graph_path), "--sets", str(sets_path),
                     *self.BASE, *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert flags[-2] in err and "does not apply" in err

    def test_a_flag_the_measure_reads_configures_it(self, workspace, capsys):
        dht = self._scores(workspace, capsys)
        assert self._scores(workspace, capsys, "--decay", "0.2") == dht
        assert self._scores(workspace, capsys, "--decay", "0.5") != dht
        ppr = self._scores(workspace, capsys, "--measure", "ppr")
        assert self._scores(
            workspace, capsys, "--measure", "ppr", "--damping", "0.85"
        ) == ppr
        assert self._scores(
            workspace, capsys, "--measure", "ppr", "--damping", "0.5"
        ) != ppr
