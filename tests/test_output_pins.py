"""SHA-256 pins of `cdckit formula` and `cdckit bound` stdout: the closed
forms and the bound tables they print stay byte-identical."""

import hashlib

import pytest

from cdckit.cli import main

FAMILIES = ("A_q(4k,2k;2k)", "A_q(6k,2k;2k)")

FORMULA_SHA = {
    "A_q(8,4;4)": "ae0e3a44a4dd5002e53b8d6c3c786c0be1454ace729b8f4dc4a9b4414b633078",
    "A_q(12,4;4)_cor": "32cb4740e9acb1a009f6a513548ffe110af2cb05182fd89a556756841149d67c",
    "A_q(12,4;4)_combined": "d19fd561c803e09862de8a92ff550f3280acf9eac29b102200cd1afcc049fffd",
    "A_q(12,4;4)_thm": "75831f51346322b0474210b7bde3234b2332ed2337ddb4548117cb984a18af29",
    "A_q(12,4;4)_prior": "1772bd50c0477cfdf1ddb46c38720fdc452fe70f7053af5935ca5b62a9d09e42",
    "A_q(12,6;6)": "ab1298642a63232294679afaa0ef088eda03453a10f3016386d7757d4c3e4efe",
    "A_q(10,4;5)_linkage": "a2e5cc69af59339d8d612aa31d38f98df57ea464939229ecd4264e9b5db5a8c1",
    "A_q(10,4;5)_claimed": "d37855ace92db47016a183e3ee988aae2d14ea17393b1cfeec792feabaa94589",
    "A_q(12,8;6)": "afe0e4cc4080015347e35801d79f6ab76b3b8b0bd019321ac7f15d753fc9c7ae",
    "A_q(16,4;4)": "3afb17dca2d7b368da4431e23df3377725652b9403539cf95a80901f272e3a59",
    "A_q(9,4;3)": "c64845185ebf1d6640fbcc6c38cf8f3694971d377d9ca117618c233fdc6959cc",
    "A_q(10,4;3)": "b8f44f472159de9dc50a9c28453f0839e0176b4d1401b9c82f3c9a36d1162032",
    "A_q(4k,2k;2k)": "f884d94e44c8dc740e8ecf1a93568e16ddfa0132a1edb5a402ad26168015852b",
    "A_q(6k,2k;2k)": "c5e1962f7d33de8a1f7308cfb5a0cde95cb550e950016d45a83c017097c3cfbe",
}

BOUND_SHA = {
    (2, False): "bb223bd4d707a80bed3cbfdaf48aa38ac94d051a5c1a0504bdf95159e756808c",
    (2, True): "1586e4f337428c34b965240cc6a9d2f1dd846c001a5a4f6ec342e4c5f2e2772f",
    (3, False): "83c90e67947a90115dd09b073a121881d9687d9c0a49d912cf94c03eab4e90ba",
    (3, True): "feb7682f0e3df177bd6ec73cf05e1f4d2cad9991de04a96ebb6b68c87cf92ec4",
}


def _stdout(capsys, argv):
    assert main(argv) == 0, argv
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(FORMULA_SHA))
def test_formula_output_pinned(name, capsys):
    digest = hashlib.sha256()
    for q in (2, 3, 4, 5, 7, 8, 9):
        for k in (("--k", "4"), ("--k", "6")) if name in FAMILIES else ((),):
            digest.update(_stdout(capsys, ["formula", "--name", name, "--q", str(q), *k]))
    assert digest.hexdigest() == FORMULA_SHA[name]


def _bound_grid():
    # every even d and every k for 2 <= n <= 16, then one member of each
    # (4k, 2k; 2k) and (6k, 2k; 2k) family
    for n in range(2, 17):
        for d in range(2, n + 1, 2):
            for k in range(n + 1):
                yield n, d, k
    yield from ((16, 8, 8), (24, 8, 8))


@pytest.mark.parametrize("q,csv", sorted(BOUND_SHA))
def test_bound_output_pinned(q, csv, capsys):
    digest = hashlib.sha256()
    for n, d, k in _bound_grid():
        digest.update(_stdout(capsys, ["bound", "--q", str(q), "--n", str(n), "--d", str(d),
                                       "--k", str(k)] + (["--csv"] if csv else [])))
    assert digest.hexdigest() == BOUND_SHA[(q, csv)]
