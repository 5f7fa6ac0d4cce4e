"""Certificate parity: the certifier must reproduce the golden corpus.

``tests/data/certify_golden.json`` holds the ``LoopCertificate.summary()``
of every loop in :mod:`tests.certify_golden_cases`, captured from the
per-record probe and per-element dependence scan.  The columnar probe log
and the trace kernel must decide exactly as that code did: same verdict,
basis, exactness, reason, hints and stats, field for field, under either
kernels implementation.
"""

import json

import pytest

from tests.certify_golden_cases import (
    GOLDEN_PATH,
    LOOPS,
    certify_case,
    track_certificates,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())

FIELDS = ("verdict", "basis", "exact", "reason", "strategy_hint",
          "window_hint", "stats")


def _assert_same(name: str, got: dict) -> None:
    want = GOLDEN[name]
    for key in FIELDS:
        assert got.get(key) == want.get(key), f"{name}: {key} diverged"
    assert got == want


def test_golden_corpus_is_complete():
    track = [k for k in GOLDEN if k.startswith("track/")]
    assert sorted(set(GOLDEN) - set(track)) == sorted(LOOPS)
    assert len(track) >= 40


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_certificate_matches_golden(name):
    _assert_same(name, certify_case(name))


def test_track_certificates_match_golden():
    got = track_certificates()
    assert sorted(got) == sorted(k for k in GOLDEN if k.startswith("track/"))
    for name, summary in got.items():
        _assert_same(name, summary)
