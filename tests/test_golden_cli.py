"""Golden CLI bytes: the stdout of five seeded commands, recorded in
tests/data/ and required byte for byte.

A change that moves any printed digit of these outputs fails here; one that
means to must update the file and say so where it records its changes.
"""

from pathlib import Path

import pytest

from bergerconn.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "verify_n3_eps-1_seed5.json": ["verify", "--n", "3", "--eps=-1", "--format", "json",
                                   "--seed", "5"],
    "classify_n3_eps-2_seed7.json": ["classify", "--n", "3", "--eps=-2", "--format", "json",
                                     "--seed", "7"],
    "classify_n4_eps1.json": ["classify", "--n", "4", "--eps", "1", "--format", "json"],
    "export_n2_eps-3_2_seed5.json": ["export", "--n", "2", "--eps=-3/2", "--seed", "5"],
    "table.json": ["table", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_is_the_recorded_bytes(name, capsysbinary):
    assert main(GOLDEN[name]) == 0
    assert capsysbinary.readouterr().out == (DATA / name).read_bytes()
