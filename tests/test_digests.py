"""Byte-identity gate: fixed (flags, seed) pairs must reproduce pinned outputs.

A change that only restructures or speeds up the program must leave every
digest unchanged; a change that alters the random stream or the output
format on purpose re-records them and says so.
"""

import hashlib

import pytest

from kpr_lab import cli, engine
from kpr_lab.cli import main
from kpr_lab.model import SimulationConfig, Strategy

CLI_CASES = {
    "run-random": ["run", "--strategy", "random", "--n", "50", "--seed", "3",
                   "--max-days", "200"],
    "run-ca": ["run", "--strategy", "ca", "--n", "200", "--seed", "5"],
    "run-gca": ["run", "--strategy", "gca", "--n", "100", "--seed", "7"],
    "sweep-ca-n": ["sweep", "--strategy", "ca", "--variable", "n",
                   "--values", "20,40,80", "--runs", "3", "--seed", "2",
                   "--threads", "1"],
    "sweep-ca-alpha": ["sweep", "--strategy", "ca", "--variable", "alpha",
                       "--n", "50", "--values", "0.5,1.0", "--runs", "2",
                       "--seed", "4", "--max-days", "300", "--threads", "1"],
    "sweep-gca-n": ["sweep", "--strategy", "gca", "--variable", "n",
                    "--values", "10,20,40", "--runs", "3", "--seed", "1",
                    "--threads", "1"],
    "worldlines-gca": ["worldlines", "--strategy", "gca", "--n", "30",
                       "--seed", "8"],
    "worldlines-ca": ["worldlines", "--strategy", "ca", "--n", "40",
                      "--seed", "1", "--max-days", "100"],
}

CLI_DIGESTS = {
    "run-random": "c594beb60b8f28bc4a1ad4bbd6c4bb27ef414da67d2f3eaa2d6a6dcf0cb38a8a",
    "run-ca": "9f8b26e1651922227089bbd011b683689308a75a6f27b4e754f20810b226c2bc",
    "run-gca": "1587aeed0f4e8aafd65cff5ffaf642c165663462fa46aaab5e765ba052ac178d",
    "sweep-ca-n": "ec9eb60e73b5dd4a10c0b188f2dc4c1c8f371d64b905f15141a6e403bd80f07b",
    "sweep-ca-alpha": "0721baad1d1d209bd001c5b31f5854f3fec15e1c48f26fba77f99435cb238d31",
    "sweep-gca-n": "5bc72b55ca73d3b28040c47b2077db76a30b9c4520a8ab586fc9a70bbc847e55",
    "worldlines-gca": "71ec7fc780c40c9f88d5c3c31c2d19d3529785c46a8ed36f3a77b892fc52fed7",
    "worldlines-ca": "41bf91f02e79aeae8809b1f47c4b4861b1647d08afd53566adb8025cf329f163",
}

FIGURES_DIGEST = "cef7ffb2be3a3cda3cfed4bda9b84277ef7efcb7400d0bc4911b60e317ee64dc"

# (strategy, n, seed, max_days): random and crowd-avoiding runs converged
# from day 1, at day 6, at day 3 of 4 and not at all; greedy runs whose
# final_rates are read on the day before the last (converged) and on the
# last day (capped); two runs whose restaurant indices do not fit in 16
# bits; and a capped greedy run long enough to reach the endgame of few
# unserved agents
RUN_CASES = {
    "random-tau0": (Strategy.RANDOM, 60, 11, 40),
    "ca-tau0": (Strategy.CROWD_AVOIDING, 20, 6, 30),
    "ca-tau6": (Strategy.CROWD_AVOIDING, 300, 2, 200),
    "ca-tau3-of-4": (Strategy.CROWD_AVOIDING, 30, 1, 4),
    "ca-unconverged": (Strategy.CROWD_AVOIDING, 30, 0, 2),
    "gca-converged": (Strategy.GREEDY_CROWD_AVOIDING, 80, 5, None),
    "gca-capped": (Strategy.GREEDY_CROWD_AVOIDING, 80, 5, 20),
    "ca-n70000": (Strategy.CROWD_AVOIDING, 70000, 3, 3),
    "gca-n70000": (Strategy.GREEDY_CROWD_AVOIDING, 70000, 3, 3),
    "gca-n6400-capped": (Strategy.GREEDY_CROWD_AVOIDING, 6400, 1, 3000),
}

RUN_DIGESTS = {
    "random-tau0": "bced1209747c7ef3d4df38246bd32cfc54e26a91316f89ee94c6654f8c72c0b2",
    "ca-tau0": "64969be35ad239bf3ac8b7eb6504d234b81d024b1b4e3263718a53da92ede4d9",
    "ca-tau6": "3950a2732aa43bea47b90e6be8695661ffc8c47ad562c84afcc20d2e5a104dda",
    "ca-tau3-of-4": "599f366d06f275ce770bd1e75b73638701d911e334a7121149cef1ee504692e6",
    "ca-unconverged": "69f30afd99c3a2247b01303b6ea4c22f1f077f418d1cf8d7c4900f0b614d03d7",
    "gca-converged": "35160561d350b5d032011d2d2fbacb24642e6a3cba3ec8f26f2bd77e789f2c40",
    "gca-capped": "2c12fd3b91ecdfe3cbaf1db167da9eed1782b7f2188013b241a5b240259a9e37",
    "ca-n70000": "fcb745966a5d78fc94815f6939f664ade0909953c25b36e55a79aa8da1e78634",
    "gca-n70000": "003f34031b86c8b980f1f1000eaaff2f14afa1877032d1b48ceacec95b5a1303",
    "gca-n6400-capped": "f97856e600b7d684c6e65480ace69025c2e5e7565cfef69971a1f7d3e1251801",
}


def cli_digest(args, out):
    assert main(args + ["--out", str(out)]) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_digest(strategy, n, seed, max_days):
    result = engine.run(
        SimulationConfig(n=n, strategy=strategy, seed=seed, max_days=max_days)
    )
    h = hashlib.sha256(repr((result.tau, result.f_s, result.converged)).encode())
    h.update(result.f_series.tobytes())
    if result.final_rates is not None:  # greedy runs only
        h.update(result.final_rates.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_is_pinned(case, tmp_path):
    assert cli_digest(CLI_CASES[case], tmp_path / case) == CLI_DIGESTS[case]


def test_figures_output_is_pinned(tmp_path, monkeypatch):
    # the smoke-test sizes of
    # tests/test_cli.py::test_each_figure_is_the_output_of_its_command
    monkeypatch.setattr(cli, "FIGURE_SWEEP_NS", (20, 40, 60))
    monkeypatch.setattr(cli, "FIGURE_WORLDLINE_NS", (20, 30))
    args = ["figures", "--runs", "2", "--threads", "1"]
    assert cli_digest(args, tmp_path / "figs") == FIGURES_DIGEST


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_result_is_pinned(case):
    assert run_digest(*RUN_CASES[case]) == RUN_DIGESTS[case]
