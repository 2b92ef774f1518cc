"""Byte-exact golden outputs of the command line.

Each digest is the SHA-256 of a CLI stdout recorded before the words
layer moved to integer letter codes.  A change of letter encoding,
relator-stream order, labels or rendering shows up here as a mismatch.
"""

import hashlib

import pytest

from braidhomotopy.cli import run_command

PRES = [
    ("--family surface -n 3 -g 1",
     "5bca58ace553fb30f98c56e6c9f5bb1e134345ad0475e7e721b3d6bca5dbb2b1",
     "ea3be61ea7af416ad5f2bf49b38986d0e8516ee3568c115ead650cc29ce122f1"),
    ("--family surface -n 1 -g 2",
     "86107c44329ca527f40035dc097d4c19e6d52854e2429a03ec20e4348a994308",
     "3d1e39c04b3faf56f9e68b7ad12915c9e75019b3fcdc1292ba063bc67f18e69a"),
    ("--family homotopy -n 3 -g 1 --closed --lh-bound 2",
     "11253cc5d349fa6910d0d4f2ff3ce77d45406ae80bc66913083dfa839e035c91",
     "bf0a5575a673d4c680f7ac032d778509350766ed20aec96fbd5e658cbd3540df"),
    ("--family homotopy -n 3 -g 2 --punctured --lh-bound 1",
     "c66a19da5ebfd7f3f8ce31f145d332ae4241bde407e00ffb989d02afb02b7666",
     "97ff4f1a122933803758abf25d6a2c0254d45f07871af40976020958d13da34c"),
    ("--family homotopy -n 3 -g 1 --closed --lh-bound 1 --with-auxiliary",
     "6401ad784a82a60fa0f346717fe765ad90bc5a9d657ecb042a3e95cef7191c66",
     "98914cfe5cb7cb496d922e402826771900e708e475a10597f848eaa6ab3c0001"),
    ("--family goldsmith -n 4 --lh-bound 2",
     "2e8d2c9b7965c0637abac3da90b164db7b5e4ca125e1361e20243362a52f009d",
     "ac40f666633ff0e6593672bb6fd29c4cae7c41f7ad3dda31c01e83ae26d641e5"),
    ("--family pure -n 3 -g 1 --closed --lh-bound 1",
     "d227f47c8658342563511bf71ae6579e3c1416c0534d297300e539633aa875a2",
     "4ea97f36246f755d3abd5400051c82ae98d82029eacaea331ce7da7ee44017fe"),
    ("--family pure -n 3 -g 1 --punctured --lh-bound 2",
     "d146ad42bdb9c900c017a66ff00d319ebc6a3134749f1f097488cd0113ce33e9",
     "d50769f36f6a2ffe16dfb65e8356b0f60c0d3a0b2b35a8362b3473b6558f5d0c"),
    ("--family symmetric -n 4",
     "0595a08163b8a8976ced91d09a7625a5364d68e6891482100b0e75548618c429",
     "7694291861954189253cbadd03a798908f0968a8c64c13fb3b70b7271c8750a5"),
    ("--family quotient -n 3 -g 1 --lh-bound 1",
     "32f8cd2b57e41f7153a8cfdcb6d6c9e4017fb87daadcea88cd574050a0d9a200",
     "784de0a932f5b55f3f57d9e64e73aaaf4ed0c9b0274381ec9c642cac4a3d8866"),
]

PURITY = ("verify purity --family homotopy -n 3 -g 1 --closed --lh-bound 2",
          "364c1783f80d53ef410d66d5746c4916a2bc523856cb2cb682982179895e56e4")


def _digest(argv: str, code: int = 0) -> str:
    got, out, err = run_command(argv.split())
    assert (got, err) == (code, b"")
    return hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("flags,text_sha,json_sha", PRES, ids=[p[0] for p in PRES])
def test_pres_golden(flags, text_sha, json_sha):
    assert _digest(f"pres {flags} --format text") == text_sha
    assert _digest(f"pres {flags} --format json") == json_sha


def test_purity_golden():
    argv, sha = PURITY
    assert _digest(argv) == sha
