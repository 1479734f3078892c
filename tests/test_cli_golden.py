"""Every CLI subcommand, human and --json, prints exactly the recorded stdout
and exits with the recorded code.

The records in cli_golden.json map each invocation to [exit code, stdout].
Report paths name the temporary directory as <tmp>, and a campaign's
wall_time reads 0.  Only stdout is pinned: error wording on stderr is free.
Re-record with `PYTHONPATH=src python tests/test_cli_golden.py` after a
deliberate change of output.
"""

import json
import re
from pathlib import Path

from addcomb.cli import run

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

FILES = {
    "array.json": "[0, 2, 3, 4]",
    "residues.json": '{"modulus": 11, "elements": [0, 3, 4, 5, 6]}',
    "wrapped.json": '{"modulus": 13, "elements": [13, 14, -11, 3, 4]}',
    "dup-array.json": "[1, 1]",
    "dup-residues.json": '{"modulus": 11, "elements": [0, 11]}',
    "no-elements.json": '{"modulus": 11}',
    "string.json": '"{1,2}"',
    "big-modulus.json": '{"modulus": 1000000000000, "elements": [1, 2]}',
    "float.json": '{"modulus": 11, "elements": [1.5, 2]}',
    "not-json.json": "not json",
}

_SETS = [
    ("sumset", "n=11:{0,3,4,5,6}"), ("sumset", "{0,2,3,4}"), ("sumset", "n=7:{}"),
    ("sumset", "{-3,0,5}"), ("sumset", "n=13:{0,1,2,3,5}"),
    ("cover", "n=11:{0,3,4,5,6}"), ("cover", "n=11:{0,1,3,6}"), ("cover", "n=13:{7}"),
    ("dim", "{0,1,10,11}"), ("dim", "{0,1,3}"), ("dim", "{5}"),
    ("rectify", "n=11:{0,1,2}"), ("rectify", "n=13:{0,1,3,9}"),
    ("spectrum", "n=5:{0,1}"), ("spectrum", "n=13:{0,1,2,3,5}"), ("spectrum", "n=7:{}"),
    ("spectrum", "n=5:{0,1,2,3,4}"),
    ("engine", "n=11:{0,3,4,5,6}"), ("engine", "n=101:{" + ",".join(map(str, [*range(21), 24])) + "}"),
    ("verdict main", "n=13:{0,1,2,3,5}"), ("verdict main", "n=11:{0,3,4,5,6}"),
    ("verdict vosper", "n=13:{0,1,2,3,4}"), ("verdict vosper", "n=13:{0,1,2,3,5}"),
    ("verdict conjecture", "n=13:{0,1,2,3,4}"), ("verdict conjecture", "n=11:{0,3,4,5,6}"),
]

_FILE_SETS = [
    ("sumset", "array.json"), ("sumset", "residues.json"), ("sumset", "wrapped.json"),
    ("cover", "residues.json"), ("cover", "wrapped.json"), ("dim", "array.json"),
    ("spectrum", "wrapped.json"), ("verdict main", "residues.json"),
    ("engine", "wrapped.json"),
]

_ERRORS = [
    # wrong set kind, malformed literals, missing input
    "sumset", "cover {1,2,3}", "dim n=11:{0,1}", "rectify {0,1}", "spectrum {0,1}",
    "engine {0,1,2}", "verdict main {0,1}", "verdict vosper {0,1}", "cover n=12:{0,1}",
    "cover n=11:{0,11}", "sumset {1,1}", "dim {}", "sumset n=1:{0}", "sumset {1,x}",
    "sumset n=11:{0,1", "cover n=1000000000000:{1}", "engine n=11:{0,1}",
    "iso {0,1} {0,1,1}", "nosuchcommand", "",
]

_CAMPAIGNS = [
    "hunt --primes 5,7", "hunt --primes 5 --override-budget", "hunt --primes 41",
    "family verify example2 --max-p 20", "family verify example1 --max-p 23",
    "suite vosper", "suite dim_bound", "suite 3k4", "suite prop23_variant",
]


def invocations():
    for cmd, literal in _SETS:
        yield f"{cmd} {literal}"
    for cmd, name in _FILE_SETS:
        yield f"{cmd} --file <tmp>/{name}"
    for name in FILES:
        yield f"cover --file <tmp>/{name}"
    yield "cover --file <tmp>/absent.json"
    yield "iso {0,1,2} {5,9,13}"
    yield "iso {0,1,2} {0,1,3}"
    yield "iso n=11:{0,1,3} n=11:{0,2,6}"
    yield "family build example1 -k 5 -x 1"
    yield "family build example2 -k 5 -t 1"
    yield "family build example1 -k 2 -x 1"
    for line in _CAMPAIGNS:
        yield f"{line} --out <tmp>"
    for line in _ERRORS:
        yield line


def record(tmp: Path, read_stdout) -> dict:
    for name, text in FILES.items():
        (tmp / name).write_text(text)
    out = {}
    for line in invocations():
        for extra in ([], ["--json"]):
            argv = [a.replace("<tmp>", str(tmp)) for a in line.split()] + extra
            code = run(argv)
            stdout = read_stdout().replace(str(tmp), "<tmp>")
            stdout = re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', stdout)
            out[" ".join([line, *extra])] = [code, stdout]
    return out


def test_every_subcommand_prints_the_recorded_stdout(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())
    got = record(tmp_path, lambda: capsys.readouterr().out)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == value, key


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    buffer = io.StringIO()

    def read_stdout():
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buffer):
        records = record(Path(tmp), read_stdout)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"{len(records)} invocations recorded in {GOLDEN}")
