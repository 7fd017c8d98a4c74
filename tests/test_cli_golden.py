"""Pinned CLI output bytes.

Each invocation's output file must hash to the SHA-256 it had when these
digests were recorded, so a change to the serialization (or to any exact
result behind it) shows up as a failure here rather than as silently
different files.  The rerun test in test_cli only checks that two runs of
the same code agree; this one checks that output is unchanged across
versions of the code.

Every pinned value is exact arithmetic, a float(Fraction) conversion
(correctly rounded), or the seeded pure-Python Monte Carlo, so the bytes
do not depend on the platform.  Left out on purpose: the float `tv`
curve, whose l2 column goes through libm log and exp (its uniform
profile is correctly rounded int / int division, but the l2 terms are
summed in logs), and `bounds`, whose step counts go through libm log and
exp; libm does not guarantee these are correctly rounded, so the last
digits may differ on another machine.

To re-record after an intended output change, print
hashlib.sha256(path.read_bytes()).hexdigest() for each case and say in
the change log which outputs moved and why.
"""

import hashlib

import pytest

from cubemix.cli import main

INVOCATIONS = {
    "spectrum-exact": "spectrum --n 6 --k 3",
    "spectrum-float": "spectrum --n 6 --k 3 --backend float",
    "spectrum-p": "spectrum --n 9 --k 4 --p 1/3",
    "spectrum-cyclic": "spectrum --n 12 --m 3 --k 2",
    "tv-cube": "tv --n 6 --k 3 --steps 10",
    "tv-cyclic": "tv --n 10 --m 3 --k 3 --steps 8",
    "couple": "couple --n 8 --k 3 --trials 500 --steps 20 --seed 42",
    "verify-probineq": "verify --lemma probineq --n 6",
    "verify-general": "verify --lemma general --n-max 12 --parts 2,3",
    "verify-eig34": "verify --lemma eig34 --n 6",
    "verify-marginal": "verify --lemma marginal --n 6 --k 3",
    "verify-symmetry": "verify --lemma symmetry --n 10",
    "verify-general-all": "verify --lemma general --n-max 30",
    "tv-cube-p": "tv --n 24 --k 5 --p 1/3 --steps 40",
    "tv-cube-p0": "tv --n 10 --k 4 --p 0 --steps 12",
}

# (case, format) -> (exit code, SHA-256 of the output file)
DIGESTS = {
    ("spectrum-exact", "csv"): (0, "aa3f01da72307dc8c9cb061f2f5b5dc260a3f3b7cafe0d92c74de5bb42085e2d"),
    ("spectrum-exact", "json"): (0, "8f1e5d0f2847f569469861290fbcc8748922db32644492329fad5b08dde6db1e"),
    ("spectrum-float", "csv"): (0, "676cb2ba4db59e4862e14fe3f20f93fc29de6d6b69b2207074c39a4801fe9229"),
    ("spectrum-float", "json"): (0, "c537711f024b77318857d8790c056b2a33d4d754ddfef13bd810832f77ec795b"),
    ("spectrum-p", "csv"): (0, "0ae80c9b2fb83b5a16ac3f2b204fb01aba97eda63500e567bced3b7e83164ac4"),
    ("spectrum-p", "json"): (0, "b9e6ab13d5cc32991d32056e87559963cd31e58e20d0fe2337662f9650c3a6a1"),
    ("spectrum-cyclic", "csv"): (0, "3a27747c3c9d9840232d52cc46ba0850f6bccfe39876ea45817a879cf9b09f03"),
    ("spectrum-cyclic", "json"): (0, "ce4770c20b159f2206f191eaa1a76aa2638eb87a8f3df99ca90910a1d9ad6bf5"),
    ("tv-cube", "csv"): (0, "75d23f0f0ed0301d7efb7a0b4623fd8c95f80cf064fe0f36800fe0a7bd82f4e4"),
    ("tv-cube", "json"): (0, "98005499f40c060f147b0b3798dd85c0dc72658ca57cf0fb75a02722527b0c9f"),
    ("tv-cyclic", "csv"): (0, "93f12aaee155522a7718ac1f55238d1155088c71375667db87f2771cd19f4e36"),
    ("tv-cyclic", "json"): (0, "aaef5a67a098183e17a1fe159c6ec777f1f70a8db04dff4548307d26454fb699"),
    ("couple", "csv"): (0, "6861487b23fd6013be26dc82c5f3d62ce99eebc30dd4189e3e3f2e7b01ec7f4b"),
    ("couple", "json"): (0, "52fb114d8b587a2f7bd028d82a75de8e6220690fe653287399d0ba09b14f8a41"),
    ("verify-probineq", "csv"): (2, "e2d4f4e5567436ab836d8aaceaf5ff0daee8d966ef69631b45100c86612a2929"),
    ("verify-probineq", "json"): (2, "60f4036ed81ad4e0ddcfe09c909016281a2e5842726ece2678459cb2221c0961"),
    ("verify-general", "csv"): (0, "e967398728d0bbf60328627493bb78fff2ca36a10470dd635e896db60a980f0b"),
    ("verify-general", "json"): (0, "a35634425d4eb8de85699b541997dd76c0d36094a038168687d9d87a7346e33a"),
    ("verify-eig34", "csv"): (0, "8244886050c1a910ec0479f699508bdb6bd113b9c1a520a409af8177c95103d1"),
    ("verify-eig34", "json"): (0, "b783a9e71927fc4a9310cbb51db25dc8f91200cfb63be8eb3358033bc247ce41"),
    ("verify-marginal", "csv"): (0, "84c531a7c00a5b9af51cac42739252a727b2a66a41a720f84a572909ce7befb4"),
    ("verify-marginal", "json"): (0, "497a833f66575005e214b57d75d31e48e8f5f41e60af5bb0a801ab781c732e54"),
    ("verify-symmetry", "csv"): (0, "23fde4d8647364833b30451c690c9799143020d309e28080edbce65eb67263ae"),
    ("verify-symmetry", "json"): (0, "c8e6d037fd38d065c3fed1b9489f84dabd4f473cb0878c19ae21c816b0fad5ed"),
    ("verify-general-all", "csv"): (2, "2713e8bd3434ea3f1ce68e884c749a1379586d18cda7dfbddd51bdf770988f7c"),
    ("verify-general-all", "json"): (2, "04b6622103aebbca27fabf61e591a3b69564439682e3f824ca4b181b671085a1"),
    ("tv-cube-p", "csv"): (0, "47d73cea9b7d14a1a12b205c6d291cf92700435e64245dae52b393b93e6ead52"),
    ("tv-cube-p", "json"): (0, "80908ab453e311961b29abe02d663019a0b713e45c2d464c9481b72b6eed9b7b"),
    ("tv-cube-p0", "csv"): (0, "9595d0e87355ba326074d8cb28987adc30f020235115b1d7529cf0fa186a3dd8"),
    ("tv-cube-p0", "json"): (0, "084b70b82072f86bdb4f6cc4fd4da57e52e52a5b3e6b0e4df0f0895815cda048"),
}


@pytest.mark.parametrize("case,fmt", sorted(DIGESTS), ids=lambda v: v)
def test_output_bytes_are_pinned(case, fmt, tmp_path):
    out = tmp_path / f"{case}.{fmt}"
    code = main(INVOCATIONS[case].split() + ["--format", fmt, "--output", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == DIGESTS[(case, fmt)]


# The digests above pin the Monte Carlo only at n = 8, where every subset is
# drawn from random.sample's pool branch.  These pin the couple file at the
# benchmark's sizes: n = 100, k = 5 draws from the set branch, and n = 54,
# k = 27 from the pool branch with k > 5.
COUPLE_AT_BENCH_SIZE = {
    "couple --n 100 --k 5 --trials 4000 --steps 50 --seed 2":
        "a0337fda7fb6649e51422bb01fc99653d99ca2ddd3788316694adacda8cd5716",
    "couple --n 100 --k 5 --trials 4000 --steps 50 --seed 3":
        "901e021ae477ff7a066dd91b880d51a03859554c58ade5bcbb3b9bfde777a0ae",
    "couple --n 54 --k 27 --trials 2000 --steps 50 --seed 2":
        "14232353d75d937d87ecd38f0ac56e5116622f649eea97bac4cac3923c4a0846",
}


@pytest.mark.parametrize("argv", sorted(COUPLE_AT_BENCH_SIZE))
def test_couple_bytes_are_pinned_at_bench_size(argv, tmp_path):
    out = tmp_path / "couple.csv"
    assert main(argv.split() + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COUPLE_AT_BENCH_SIZE[argv]


# The tv digests above stop at n = 24.  These pin the exact tv files at the
# benchmark's sizes (the same digests as bench/reference.json), where the
# exact TV's sign pass meets 200 weights of integers thousands of bits long.
TV_AT_BENCH_SIZE = {
    "tv --n 200 --k 5 --steps 130": "5cb2b371edcfe338ad9dd25c784cf8f17fc0715a18d29a0793737c0c2823618d",
    "tv --n 40 --m 3 --k 3 --steps 50": "5c4bab34d405c702a52f74db462988f6d206c5f5e47659cb697e137902b42f58",
}


@pytest.mark.parametrize("argv", sorted(TV_AT_BENCH_SIZE))
def test_tv_bytes_are_pinned_at_bench_size(argv, tmp_path):
    out = tmp_path / "tv.csv"
    assert main(argv.split() + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TV_AT_BENCH_SIZE[argv]


# The digests above pin the general sweep only up to n = 30.  These pin it at
# the benchmark's size (n-max 80) and at the README's (150), where every
# part's minimum and violation samples come from large binomials; the
# 150 digest is also checked through the console script in CI.
VERIFY_GENERAL_AT_SIZE = {
    80: "67aab0cd36a14d88919ba9f4ae6ac4f0e6d29700066abc2a40770069f3e97d9b",
    150: "0474a747daf949790482067d836dc4b15c78614b4d653dbbd834f8387486f1e8",
}


@pytest.mark.parametrize("n_max", sorted(VERIFY_GENERAL_AT_SIZE))
def test_verify_general_bytes_are_pinned_at_size(n_max, tmp_path):
    out = tmp_path / "general.json"
    argv = f"verify --lemma general --n-max {n_max} --format json --output {out}"
    assert main(argv.split()) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_GENERAL_AT_SIZE[n_max]
