"""Acceptance battery: one test per criterion, each printing a verdict line.

One `suite` run in a subprocess feeds every test. Criteria 1-9 read their
entry of its JSON summary. Criterion 10 checks its exit code and stdout
digest against the pin recorded in another process, and its stderr against
the summary. Run with `-s` to see the per-criterion lines.
"""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stablereg.acceptance import _fraction_sqrt

SEED = 20260810
PIN = Path(__file__).with_name(f"suite_seed_{SEED}.expected")


@pytest.fixture(scope="module")
def suite():
    """The battery's one run: its completed process and its parsed summary,
    or None for the summary when the run crashed."""
    cmd = [sys.executable, "-m", "stablereg", "suite", "--seed", str(SEED)]
    done = subprocess.run(cmd, capture_output=True, check=False)
    try:
        summary = json.loads(done.stdout) if done.returncode in (0, 1) else None
    except ValueError:
        summary = None
    return done, summary


def _criteria(suite):
    done, summary = suite
    if summary is None:
        tail = done.stderr.decode(errors="replace")[-2000:]
        pytest.fail(f"suite crashed with exit {done.returncode}; stderr ends:\n{tail}")
    return summary["criteria"]


def _report(suite, cid):
    (entry,) = [c for c in _criteria(suite) if c["id"] == cid]
    status = "PASS" if entry["pass"] else "FAIL"
    print(f"{status} criterion {cid}: {entry['name']} {entry['details']}")
    assert entry["pass"], entry


def test_criterion_1_ladder_oracle_equivalence(suite):
    _report(suite, 1)


def test_criterion_2_symmetry_lemma(suite):
    _report(suite, 2)


def test_criterion_3_pair_implications(suite):
    _report(suite, 3)


def test_criterion_4_threshold_dichotomy(suite):
    _report(suite, 4)


def test_criterion_5_excellence(suite):
    _report(suite, 5)


def test_criterion_6_definability(suite):
    _report(suite, 6)


def test_criterion_7_harrington(suite):
    _report(suite, 7)


def test_criterion_8_end_to_end_pipeline(suite):
    _report(suite, 8)


def test_criterion_9_group_regularity(suite):
    _report(suite, 9)


def test_criterion_10_suite_byte_determinism(suite):
    # the pin was recorded in another process, so output that depends on the
    # process (the hash seed) or drifts between commits fails here; a change
    # that moves the exit code or the digest says why and records the pin again
    criteria = _criteria(suite)
    done = suite[0]
    digest = hashlib.sha256(done.stdout).hexdigest()
    assert f"exit {done.returncode}\nsha256 {digest}\n".encode() == PIN.read_bytes()
    verdicts = "".join(
        f"{'PASS' if c['pass'] else 'FAIL'} criterion {c['id']}: {c['name']}\n" for c in criteria
    )
    assert done.stderr.decode() == verdicts
    print("PASS criterion 10: suite output matches the pinned digest")


def test_fraction_sqrt_is_exact_past_float_range():
    assert _fraction_sqrt(Fraction(10**400, 9)) == Fraction(10**200, 3)
    with pytest.raises(ValueError):
        _fraction_sqrt(Fraction(2, 9))
