"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.parallel.backends import BACKEND_NAMES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "mnist"])
        assert args.dataset == "mnist"
        assert args.splits == 3
        assert "srda" in args.algorithms

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "imagenet"])

    def test_table1_requires_sizes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1"])

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_bench_backend_choices(self, name):
        args = build_parser().parse_args(["bench", "pie", "--backend", name])
        assert args.backend == name

    def test_bench_removed_process_backend_rejected(self):
        for name in ("process", "distributed"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", "pie", "--backend", name])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SRDA" in out
        assert "pie, isolet, mnist, news" in out

    def test_table1(self, capsys):
        code = main(
            ["table1", "--m", "1000", "--n", "500", "--c", "10", "--s", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LDA" in out
        assert "SRDA (LSQR, sparse)" in out

    def test_bench_small_run(self, capsys):
        code = main(
            [
                "bench", "mnist",
                "--algorithms", "srda", "idrqr",
                "--sizes", "4,8",
                "--splits", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "error rates" in out
        assert "SRDA" in out and "IDR/QR" in out
        assert "Computational time" in out

    def test_bench_ratio_sizes(self, capsys):
        code = main(
            [
                "bench", "news",
                "--algorithms", "srda",
                "--sizes", "0.05",
                "--splits", "1",
            ]
        )
        assert code == 0
        assert "5%" in capsys.readouterr().out

    def test_bench_memory_budget(self, capsys):
        code = main(
            [
                "bench", "news",
                "--algorithms", "lda", "srda",
                "--sizes", "0.05",
                "--splits", "1",
                "--memory-budget-gb", "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "—" in out  # LDA blocked by the budget

    def test_bench_unknown_algorithm(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["bench", "mnist", "--algorithms", "svm"])


class TestBuilderContracts:
    def test_small_builders_cover_declared_sizes(self):
        """Every CLI small-scale dataset must be able to serve its own
        declared default training sizes (plus one test sample/class)."""
        import numpy as np

        from repro.cli import DATASET_BUILDERS

        for name, builder in DATASET_BUILDERS.items():
            dataset = builder("small", 0)
            sizes = dataset.metadata.get("train_sizes")
            if sizes is None:
                continue  # ratio-based datasets always fit
            largest = max(sizes)
            if "train_pool" in dataset.metadata:
                pool_labels = dataset.y[dataset.metadata["train_pool"]]
                per_class = np.bincount(pool_labels).min()
                assert per_class >= largest, (name, per_class, largest)
            else:
                per_class = np.bincount(dataset.y).min()
                assert per_class >= largest + 1, (name, per_class, largest)
