"""SHA-256 of `verify --suite <s> --format json` output for every suite.

The golden file pins the bytes of a few verify suites; these digests pin
all eleven at two seeds, so a rewrite of `verify.py` that changes any
check, its order or a random draw fails here.  The digests were recorded
before the suites were rewritten as row generators; those of
theta-identity and edge-pair-forms were recorded again when their rules
came to name the color-pattern transfer, and those of fvs1 and precolor
when the rules of their fvs1-weight, fvs1-polynomial and precolor checks
did (the checks, their order and their values stayed the same).  Those
of fvs1 were recorded again when its fvs1-polynomial rows came to check
the exact value `value_at(m)` in place of the eventual polynomial, under
a rule that says so, and the suite gained folds 1 and 2 on each graph,
where the polynomial and P_DP can differ.
"""

import hashlib

import pytest

from dpchroma.cli import main
from dpchroma.verify import SUITES

DIGESTS = {
    20200801: {
        "theta-identity": (
            "c9f1a14ae011522ef2944654da3288ccd623e4b8d463a9afd3f9b13e2e86cdd9"
        ),
        "edge-pair-forms": (
            "1478090e5634ce6b5e7a3a49190c928f69623286309f9e5717510164d6ce8c66"
        ),
        "term-differences": (
            "ec6271ff363204ac1244e837918f14b2486ae09478fc02813c839fc5f596feb6"
        ),
        "formula-search": (
            "2405fd95e57e7b2122c48e906c416026c229f81f5d87444b8e60749325b01248"
        ),
        "inclusion-exclusion": (
            "c6c8e022d7e0071e1571195d7c25848e8f6d84841abc377ff74ffd3a1435eeb0"
        ),
        "subset-audit": (
            "13d2db3b307740e72481342ef1b0e83c40ea329e7dcccab544b9d2e856f03984"
        ),
        "gap-bound": (
            "f3b8b31a913ca9fe9b9a6339ec91f2c25b7155a8f2bc2b35c128d302926c416a"
        ),
        "fvs1": (
            "ae8760bbd385fbf95a69105cca437d4f130c01ae737f6f283bc7c099787cad12"
        ),
        "classify": (
            "f29927e0b7bcee08e735a8d3f95d45047a1670aebe589408bd1282fff3a2aaa2"
        ),
        "precolor": (
            "c9bae40a676648fdda95c00b59b8464186a24d596d66a03b0abe3c7e040c7c43"
        ),
        "poly": (
            "a633dfbf4d9d9c9714647a6d7c7abcb091ae7b8998b4805736b7e7f445eea6c1"
        ),
    },
    7: {
        "theta-identity": (
            "adfc43954ce6e80c01bfeb386b992ac4648ce4dad0a6c0fec4a319c179a1fd9a"
        ),
        "edge-pair-forms": (
            "51d374ba62ff3485d5babf446fc650f5e91b71e025ec2aa6b20c468ef9f5d124"
        ),
        "term-differences": (
            "0397aec02c5b4f0c8fcf433a667aa3fe441dec4519c74b80976af379777cc9a8"
        ),
        "formula-search": (
            "8f2cee48f8467b46eaafa157f3f56ef347d69241f2f085fd2678e5c5403f7577"
        ),
        "inclusion-exclusion": (
            "a1b3355a7ef77567c954b227373ee24dfaea24d1c5972af66e2ced11ff70fe74"
        ),
        "subset-audit": (
            "7f94308eba813d67405c96ea8806104fa8fdfc1a6c6a3dfaf73f3a7ef1cf7cbf"
        ),
        "gap-bound": (
            "392fb78b670ea6d9c1d08768d055e87ec24bdcc73f8439cadfc98ca512e5d430"
        ),
        "fvs1": (
            "3a2ffa4e33490573c928676081ca66c48dd97e262c44fbe7fd4238a595dc7322"
        ),
        "classify": (
            "c2d13afdfad108e86028b19875bcf601feac68fa0a114591a801e7676719a3ec"
        ),
        "precolor": (
            "d8c3384d91e5e4370b4d6e64cd79cb39448a8a89d9e87b34e4a6ddbb5c83feee"
        ),
        "poly": (
            "3799c4f5ac9f4dfec4d791bb7f196b73c4d2cea888d10307e866d0effb50e15b"
        ),
    },
}


def test_digests_name_every_suite_in_order():
    for digests in DIGESTS.values():
        assert list(digests) == list(SUITES)


@pytest.mark.parametrize(
    "seed,suite", [(seed, suite) for seed in DIGESTS for suite in DIGESTS[seed]]
)
def test_suite_prints_the_recorded_bytes(capsys, seed, suite):
    args = ["verify", "--suite", suite, "--format", "json", "--seed", str(seed)]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[seed][suite]
