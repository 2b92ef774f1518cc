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

# Purity reports recorded before relators were walked through a strand-
# permutation transition table.  Each entry: argv, exit code, text digest,
# JSON digest; the ``--inject-fault`` run fails on purpose and exits 1.
PURITY_REPORTS = [
    ("verify purity --family homotopy -n 3 -g 1 --closed --lh-bound 1 --inject-fault", 1,
     "f55648f2be07e62a4127ae039d9f831959b6894a4099798da0c152216dc2a021",
     "b58293b706049dfabe7242148a85dbf8355ce86985728233ddc953cbfab9bf6e"),
    ("verify purity --family symmetric -n 5", 0,
     "a767f65055249c7742f87febb02ec8609eb4ed07f20ecf3a927602c751c859c6",
     "d4690eb36f99fda67b7447c0671fb9bd3d54c2a6ef77e33d203b2a46ff6bb10b"),
    ("verify purity --family quotient -n 3 -g 1 --lh-bound 2", 0,
     "07fc84292d02198c826baa4b9e38f793bf4bbf0520b80650751e34f6ad23aefd",
     "a10f5e53ed605b3aceee345b38d575f0aec81dd8afeeed849e45cf00dead3263"),
    ("verify purity --family goldsmith -n 4 --lh-bound 2", 0,
     "1bec19eb631cd667a0c3d016dbf7cf4f3fca226b85dde882b325f0c77501d6c2",
     "dab32ab6f51824c22c0017b114aef9e935fb0fea2b236f6292c6f8d46af8e307"),
]


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


@pytest.mark.parametrize("argv,code,text_sha,json_sha", PURITY_REPORTS,
                         ids=[v[0] for v in PURITY_REPORTS])
def test_purity_report_golden(argv, code, text_sha, json_sha):
    assert _digest(f"{argv} --format text", code) == text_sha
    assert _digest(f"{argv} --format json", code) == json_sha


# Identity-check reports, recorded before the relation builders of
# ``presentations`` and the free-equality records of ``verify`` were
# shared.  Each entry: argv, exit code, text digest, JSON digest.  The
# ``--inject-fault`` runs fail on purpose and exit 1.
VERIFY = [
    ("verify eq31 -n 5", 0,
     "e7975c6b81f7374f0ef75d69acaff0d0ebdb50ec53d451bf79f82f5352cd1c32",
     "31d9003aa1439856cccb4194e8cb9856faeeee298182645cc71c25b623072a36"),
    ("verify eq32 -n 4 -g 2 --lh-bound 2", 0,
     "86afccf718b957abf3ffce71f43101fb3538935187523735a1109645f6b599c2",
     "57af46288ed20f89b66158154ef643a8219dff9dfeae5c37518121f0a999932d"),
    ("verify transport -n 4 -g 2", 0,
     "c37d99a418fd1b98c96e86de74a6300042204c941d58315385ed6d0f763150ae",
     "3e23fb086baceec8b6a612f8940f89dec541e210c347886a3d1205da5a84a0fe"),
    ("verify a-expansion -n 3 -g 2", 0,
     "22e8d65fd01187fb5d3a0d5765b06e032d578ef8c4690f09a7300eec55ccf8cc",
     "91a4640089d5099592d0ef05051e822d5faf3de753bf7cd95bb65c9c38ac796c"),
    ("verify eq31 -n 5 --inject-fault", 1,
     "44ece895d3dc722e635013daad1b9f099e88039110a02f57d3ee3a5dd071e112",
     "18c929d4041d55d3894b1b5ceddc11b67a21b04a4d8b6a62a1f52ee1a5016234"),
    ("verify eq32 -n 4 -g 2 --lh-bound 2 --inject-fault", 1,
     "866846529add2b8beccdf1ee159e89656da8275d5651c98140971baef8803107",
     "2fc80a260624f87983b9cafc30ff8101c3a9446a3f6449415c6324f9a9e19347"),
    ("verify transport -n 4 -g 2 --inject-fault", 1,
     "63f00c9085f521d14497507ec1b1fc3bedcafe7b29e6696513e2245a68ce18ec",
     "69b073f2222e79702dd86011aa2bbb9ab05c808485b743b11602b79b25529f4e"),
]


@pytest.mark.parametrize("argv,code,text_sha,json_sha", VERIFY, ids=[v[0] for v in VERIFY])
def test_verify_golden(argv, code, text_sha, json_sha):
    assert _digest(f"{argv} --format text", code) == text_sha
    assert _digest(f"{argv} --format json", code) == json_sha
