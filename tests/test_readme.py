"""The README's command block runs as written and gives the recorded outputs.

The block's `cat > f <<'EOF'` and `echo '...' > f` lines write their files
into a temporary directory, and each `ionread ...` line runs in-process
through `cli.run_command`. Small outputs are compared as text; the two
large CSVs by sha256, with one digest per sixteenth of their lines to
point at the first block that differs.
"""

import hashlib
import re
import shlex
from pathlib import Path

from ionread.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"

# the stdout of each command, in README order
EXPECTED_STDOUT = {
    "ionread params --config det.json": (
        "lambda0: 7.91681349\n"
        "alpha1: 1.33198359e-06\n"
        "alpha2: 2.93408863e-07\n"
        "eta: 0.0014\n"
    ),
    "ionread dist --config leak.json --out dist.csv": "",
    "ionread optimize --config sp.json --eta 0.001": (
        "d: 0\n"
        "lambda0_opt: 5.37076296\n"
        "fidelity: 0.995349006\n"
        "dark_fidelity: 0.995349006\n"
        "bright_fidelity: 0.995349418\n"
    ),
    "ionread curve --config sp.json --out curve.csv": "",
    "ionread table1 --out table.csv": "",
    "ionread mc --config det.json --trials 20000 --seed 9 --out dark.csv": "",
    "ionread mc --config det_bright.json --trials 20000 --seed 9 --out bright.csv": "",
    "ionread fit --config fit.json": (
        "eta: 0.00138362097\n"
        "s: 0.255217731\n"
        "p_impure: 0.00110879366\n"
        "lambda_bg: none\n"
        "neg_log_likelihood: 49999.8277\n"
        "converged: true\n"
        "iterations: 7\n"
    ),
    "ionread ccd-sim --config reg.json --trials 20000 --seed 777": "",
    "ionread crosstalk --config xt.json": "crosstalk_ratio: 0.00068650863\n",
}

EXPECTED_FILES = {
    "curve.csv": """\
eta,infidelity_numeric,infidelity_approx,lambda0_opt,d_opt
0.001,0.00465099402,0.00729312119,5.37076296,0
0.01,0.00067176845,0.000974672563,7.30571052,0
0.1,8.87572738e-05,0.000122003301,9.3297126,0
0.3,3.3091054e-05,4.45699897e-05,10.3164127,0
""",
    "table.csv": """\
species,eta,fidelity_percent,lambda0_opt,d_opt
cd111,0.001,96.6442953,22.7424054,0
cd111,0.01,99.6539792,29.6501606,0
cd111,0.3,99.9884273,36.8647213,0
yb171,0.001,99.337997,26.7085008,0
yb171,0.01,99.9334029,33.6162561,0
yb171,0.3,99.9977787,37.4659702,0
hg199,0.001,99.4314754,27.055143,0
hg199,0.01,99.9428551,33.9628983,0
hg199,0.3,99.9980941,41.2956686,0
""",
    "dark.csv": """\
# trials=20000 seed=9 mode=rate_equation initial=dark
n,count
0,19866
1,18
2,18
3,18
4,23
5,18
6,11
7,6
8,6
9,5
10,4
11,5
12,1
13,1
""",
    "bright.csv": """\
# trials=20000 seed=9 mode=rate_equation initial=bright
n,count
0,9
1,68
2,218
3,604
4,1121
5,1863
6,2485
7,2864
8,2755
9,2460
10,2005
11,1369
12,938
13,570
14,346
15,173
16,95
17,36
18,14
19,5
20,2
""",
    "report.csv": """\
i,j,p_i,p_i_given_j,deviation,stderr,n_cond,defined
0,1,0.5127,0.521166134,0.00846613419,0.00352874272,10016,1
0,2,0.5127,0.505578801,0.00712119944,0.00352098796,10038,1
1,0,0.5008,0.509069631,0.00826963136,0.00344683899,10254,1
1,2,0.5008,0.512353058,0.0115530584,0.0035221198,10038,1
2,0,0.5019,0.494928808,0.00697119173,0.00344681852,10254,1
2,1,0.5019,0.513478435,0.0115784345,0.00352985608,10016,1
""",
}

# file: (sha256 of the whole file, line count, 12-hex sha256 prefix of each of its 16 line blocks)
EXPECTED_DIGESTS = {
    "dist.csv": ("94d77268014c6413ea383e9bc3aee96709b2ec45832a38e0cf60276ea32281a1", 86,
        ["c77bfe0f7546", "563441ec4452", "ff530240e6d9", "45ec588f84c4", "421bf5369af5", "2fbb8f01c166",
         "fde4e38b5258", "737ddf958d71", "af8df4d27020", "e04f9de50282", "eda9a960f0d9", "bd9ee670e406",
         "2dc95a1800cf", "f9ce99841c7d", "d4b64ff2daef"]),
    "readouts.csv": ("c50da09d30380129adfa6d8260fcf45fa1a1f685a14f9e57002aa000e8bfd16f", 60001,
        ["73236ee22d9e", "4a0e536911d6", "e89bc6a8897c", "c651c8031b41", "d8908ff87f89", "6bd70815769e",
         "5640935d81fa", "d20b7ffedb37", "a8544a166105", "05ba36cb63b4", "be33afa21dbb", "ce176b879b25",
         "4a88c4935d79", "72a2cc684184", "a0dec14e87f5", "0f7ed7dbaf8a"]),
}


def readme_block() -> list:
    """The lines of the README's `sh` block that runs `ionread`."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return next(block for block in blocks if "\nionread " in block).splitlines()


def run_block(lines, capsys) -> dict:
    """Write the block's files into the working directory and run its
    commands; the stdout of each command, keyed by its line."""
    stdout = {}
    lines = iter(lines)
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if m := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
            Path(m[1]).write_text("".join(body + "\n" for body in iter(lines.__next__, "EOF")))
        elif m := re.fullmatch(r"echo '(.*)' > (\S+)", line):
            Path(m[2]).write_text(m[1] + "\n")
        else:
            argv = shlex.split(line)
            assert argv[0] == "ionread", f"the README block has a line the test cannot run: {line!r}"
            code = run_command(argv[1:])
            out, err = capsys.readouterr()
            assert code == 0, (line, err)
            stdout[line] = out
    return stdout


def block_digests(lines: list, size: int) -> list:
    """12-hex sha256 prefixes of the runs of size consecutive lines."""
    return [hashlib.sha256("".join(lines[i : i + size]).encode()).hexdigest()[:12]
            for i in range(0, len(lines), size)]


def digests(text: str):
    """(sha256, line count, block digests) of text, as in EXPECTED_DIGESTS."""
    lines = text.splitlines(keepends=True)
    return hashlib.sha256(text.encode()).hexdigest(), len(lines), block_digests(lines, -(-len(lines) // 16))


def first_difference(name: str, text: str, expected) -> str:
    """Where text first departs from the recorded digests of file name."""
    lines = text.splitlines(keepends=True)
    size = -(-expected[1] // 16)
    for i, (got, want) in enumerate(zip(block_digests(lines, size), expected[2])):
        if got != want:
            return (f"{name} differs first in lines {i * size + 1}-{(i + 1) * size}, "
                    f"which begin {lines[i * size]!r}")
    return f"{name} has {len(lines)} lines, recorded {expected[1]}"


def test_readme_block_gives_recorded_outputs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_block(readme_block(), capsys) == EXPECTED_STDOUT
    for name, text in EXPECTED_FILES.items():
        assert (tmp_path / name).read_text() == text, name
    for name, expected in EXPECTED_DIGESTS.items():
        text = (tmp_path / name).read_text()
        assert digests(text)[0] == expected[0], first_difference(name, text, expected)


def test_readme_python_example_prints_its_comment(capsys):
    # the library example runs as written and prints what its comment says
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    block = next(block for block in blocks if "optimize_detection(" in block)
    assert re.search(r"print\(.*\)\s*#\s*(.*)", block)[1] == "0.9953..., 5.37..., 0"
    exec(compile(block, str(README), "exec"), {})
    fidelity, lambda0_opt, d = capsys.readouterr().out.split()
    assert fidelity.startswith("0.9953")
    assert lambda0_opt.startswith("5.37")
    assert d == "0"
