"""The CLI's stdout, byte for byte, against transcripts kept in tests/golden/.

Each transcript replays one pairsub command in tests/golden/, through a fresh
interpreter, and compares every byte it prints with the kept file.  Every
number they print is a whole one, so the bytes do not depend on how the
interpreter sums floats, and they are the same on CPython 3.10-3.13.

The verify transcripts pin the sampled draw stream: on the adversarial
instance (V = 0-7, V* = 8-13, k = 2) supermodularity of conditioning holds
on all 2000 draws, while the redundancy bound fails at draw 690 at seed 0
and at draw 249 at seed 7, so a draw that moves moves a count or a witness.

After a deliberate change to what the CLI prints, rewrite every transcript
with

    PYTHONPATH=src python tests/test_transcripts.py

and record the re-pin and its reason in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"

VERIFY = ["verify", "--instance", "adversarial.json",
          "--properties", "supermodularity_of_conditioning,pairwise_redundancy_bound"]
TRANSCRIPTS = {  # file under tests/golden/ -> the argv that prints it
    "verify_adversarial_seed0.stdout": VERIFY + ["--seed", "0"],
    "verify_adversarial_seed7.stdout": VERIFY + ["--seed", "7"],
}


def replay(argv) -> bytes:
    """The stdout bytes of `pairsub *argv`, run in tests/golden/."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "pairsub.cli", *argv], cwd=GOLDEN, env=env,
                          capture_output=True, check=False, timeout=60)
    assert (done.returncode, done.stderr) == (0, b""), argv
    return done.stdout


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_the_cli_prints_the_kept_transcript(name):
    assert replay(TRANSCRIPTS[name]) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for name, argv in TRANSCRIPTS.items():
        (GOLDEN / name).write_bytes(replay(argv))
        print("wrote", GOLDEN / name)
