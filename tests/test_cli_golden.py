"""Byte-for-byte CLI output: sha256 digests of stdout for small invocations.

Any change to a written byte, from the float formatting to the sampled
indices, fails here. Record new digests only for a change that means to alter
the output, and say so where it is made.
"""

import hashlib

import pytest

from groversim.cli import main

GOLDEN = [
    ("search --log2-n 10", "e8a701938e74a769f15493c0bd09c690555382e1c7fb8e29737bb697c978b7ec"),
    ("collide --log2-n 10", "860a9a24e2fa177cfeb99b5e8ade8fcd0213ccc8d8886481935b3d56dd66a540"),
    ("compare --log2-n 8", "1bb25fba6da8c4e46ec878ddefc64472f26e8eba6624ebe90b5d45c9a889d4ed"),
    ("sweep --log2-min 2 --log2-max 12 --n2 1", "fa34b2f05c4f690d8c4a775dde33c2503ff39b4a60a3bcc8c3d696ae159ef783"),
    # 4 iterations; exact mode takes 3
    ("search --n1 25 --n2 1 --theta-mode paper", "496a9f0dd3b2a2c99c90fed6c2ccc01ff4cc238c2bd5f37bac0b1aaf29eb751b"),
    ("search --n1 25 --n2 1", "d2989acbbe56cbaefd85e8b94bb1afaf0dda442245b3f2a4281e10049dbe49a3"),
    ("sweep --log2-min 3 --log2-max 9 --n2 2 --theta-mode paper", "bb4c360f4ff421f9391ab8ce0919e41b1aebb331f3e6bb6f31151068c515ddbd"),
    # equal masses
    ("collide --n1 4 --n2 4 --iterations 6", "bb2ef0d212454e3463ecf56b60b2af1819e305d25cae0c4c224bb3a9aa48f6e2"),
    # boundary, n2 = N/4
    ("compare --n1 12 --n2 4", "55f0e2f9d17bd01205d8f9636a38bd04f33a53c3db0f826c009408ee89b15df2"),
    # inefficient, N/4 < n2 < N/2
    ("search --n1 9 --n2 5 --iterations 3", "8fe2547fd8cdf56fc7fb84f593a6b367bdedcf73348bc72c7591dbf2f3cc1408"),
    # over-rotated: the optimum is 6
    ("compare --log2-n 6 --iterations 40", "d28bd850adf97cd09e2758aeeb72b24a70db791779060ee26cfeeea19ea15936"),
    ("collide --log2-n 20 --marked-count 3 --v-init 2.5", "465eee073e9481bd4dca1c627b6790e84ba21e6760cbce7dd196ca53258cdb41"),
    ("search --log2-n 12 --draws 500 --seed 3", "75a8b7536a7515ce7737cd7d77e88605daa00c5ab8b63d8fb34902f038593508"),
    # draws * 16 < N and a Grover state of two runs: the run path;
    # recorded from the exact CDF search
    ("search --log2-n 16 --draws 300 --seed 3", "17d1ffd5ba8cebf36bb062305ffc6b098e9940e79531772e5b2579b5f7d930b3"),
    # the guide table, over three chunks of keys, the last one ragged
    ("search --log2-n 12 --draws 40000 --seed 5", "f768a2e9c1b504dbcceb16991c34e54a34a03c0c305a107ee6cc904c84c881e9"),
    # few draws (256 * 16 < N) from a Grover state of two runs: the run
    # path; recorded from the exact CDF search
    ("search --log2-n 18 --draws 256 --seed 7", "52681288ac1f78cd4806b014c49542db055ecc395255b8f7c493e546ce764c99"),
    # n2 = N/4 and one iteration: the unmarked amplitude is exactly 0.0, so
    # its run is dropped and every draw is marked
    ("search --log2-n 16 --marked-count 16384 --iterations 1 --draws 256 --seed 3", "afff0315a3e146cd6aeba81d4275152a59b9a8f59e36e98c7238091c7f685e09"),
    # the largest vector the run path samples, with three marked states
    ("search --log2-n 20 --marked-count 3 --draws 256 --seed 5", "5621ed4dcae139f8c2a5f7fd1f18ee42f5d07da74b7ae12468ccbec128d5ca23"),
    # the size most benchmark operations search
    ("search --log2-n 14 --draws 256 --seed 3", "01bf05e8af7b33a8da6ee7db7339b9988648ac6d36860cdad4b6e051b2a85f31"),
    # the uniform start itself, sampled from its runs; both recorded from
    # the exact CDF search
    ("search --log2-n 16 --iterations 0 --draws 256 --seed 3", "374e254bf81d5d27086f4e5d9dd39e49ca2cb68e615acc4d889545b1bbc45194"),
    ("search --log2-n 20 --marked-count 3 --iterations 0 --draws 256 --seed 3", "f8bd82ac50d3a255e4f674deea9d23ca362ff2dc4cf70d7fbbe40c8896e02364"),
]


@pytest.mark.filterwarnings("ignore::groversim.ProtocolWarning")
@pytest.mark.filterwarnings("ignore::groversim.RegimeWarning")
@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_matches_the_recorded_digest(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# Queries whose CSV is followed by a "#" tail, written as a second text.
WITH_TAIL = ["compare --log2-n 8", "search --log2-n 12 --draws 500 --seed 3"]


@pytest.mark.parametrize("argv", WITH_TAIL)
def test_output_file_matches_the_recorded_digest(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    code = main([*argv.split(), "--output", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    digest = dict(GOLDEN)[argv]
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
