"""Every command's output bytes, pinned by sha256.

Each command line runs in-process through cli.main with --out in tmp_path,
and the file it writes must hash to the digest in the table: the five
defaults, the small (12 thetas) and fine (512 thetas) grids, the smallest
meshes, and the refinement levels down to EPS_FLOOR = 2**-510
(2.983336292480083e-154). A change that alters an output byte on purpose
updates its digest here.

The digests were taken with CPython 3.11 and numpy 2.4 on x86-64 Linux; the
same bytes came out with numpy's SIMD dispatch cut to its X86_V2 baseline.
This file needs numpy and pytest only.
"""

import hashlib

import pytest

from conelab import cli

FLOOR = "0.1,1e-100,2.983336292480083e-154"

GOLDEN = {
    "verify": "1f5e880d3eeff507d2e0ccee1bb5552f994eb318d305f01cb9eda689464b413c",
    "faces": "0c172fbb4bf8b5d29f9ff184ec57d3b48fc736189da8508ed0a3e926bdca77a6",
    "sweep": "ff8aa95ac96c47844950b9d2640e76bc37380d94147b577d83690462e5cbb362",
    "mesh": "e9467e91455a75d9dc962d1398f2a0aa7d602af16f37b98574250149305e9cff",
    "nice3d": "3dec7b9ea94770660866e0367c90eb13b597a9d19f52c106080de0a0b23bfe91",
    "verify --samples 96 --theta-grid 12":
        "f867d86db6f5e6b2c4f142a60654941e027a29e702dd458852b98797e48736f3",
    "faces --theta-grid 12": "ab0cb4d46ea7f6f3a362dc88f9864f364a6cd685c7c04702795868fb0639055e",
    "faces --theta-grid 512": "b807bf530235a7d65465cb8f60829ffbe9ec2b78b557fec6172468cf77ed55ba",
    "sweep --control": "f83d9d7fb23310aebf56f44b32874f6a15fae467125f82a5fbaa6c3057e3e007",
    "sweep --samples 8192 --eps 1e-1,1e-3,1e-6":
        "84f09e02afb4c84a6139cccd540c970d541e6f86e7bb4b7779be4e7a700b018a",
    # --samples is read by nothing: the same bytes without it
    "sweep --eps 1e-1,1e-3,1e-6": "84f09e02afb4c84a6139cccd540c970d541e6f86e7bb4b7779be4e7a700b018a",
    f"sweep --samples 8 --eps {FLOOR}":
        "90a12f80d40c09612a2885b5d2082bb6659d2af5a39a4c7df7bdcc36bbf24fc3",
    f"sweep --control --samples 8 --eps {FLOOR}":
        "170fb899d3da8bb4cd10b26d9f72ed9718d3d5932b9cac210f8057fa753cbcfc",
    f"verify --samples 96 --theta-grid 12 --eps {FLOOR}":
        "7afd09ed89533986f619e1f3d648dc5182bba312b6c887442383fe377ef2527a",
    "mesh --which C --samples 2": "302a2cba5394e4acbc97170077b0bc03070bc30494a405d316f550f4ca3978dd",
    "mesh --which Cprime --samples 2":
        "e9d4638a7cbfaea5b9b0f4f4fde1e419aae639144843a890a0b4cd1d07a7e53e",
    "mesh --which C --samples 24": "613707184ac0c1a360cd97cb04f7e6600439b5d4299630115a731ce952d3b851",
    "mesh --which Cprime --samples 24":
        "8f35ffca1b6cfda2b300a1000cad8237058a792159d5d7dfbf5ba234eb7bee14",
}


@pytest.mark.parametrize("line", GOLDEN)
def test_output_bytes_are_pinned(line, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*line.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[line]
