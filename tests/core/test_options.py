"""Option parsing and validation."""

import pytest

from repro.core.options import HaltSpec, Options
from repro.errors import OptionsError


# ---------------------------------------------------------------- HaltSpec
def test_halt_default_never():
    spec = HaltSpec.parse(None)
    assert spec.when == "never" and not spec.active


def test_halt_never_literal():
    assert not HaltSpec.parse("never").active


def test_halt_now_fail_1():
    spec = HaltSpec.parse("now,fail=1")
    assert spec.when == "now" and spec.what == "fail"
    assert spec.threshold == 1.0 and not spec.percent


def test_halt_soon_fail_percent():
    spec = HaltSpec.parse("soon,fail=30%")
    assert spec.when == "soon" and spec.percent
    assert spec.threshold == pytest.approx(0.3)


def test_halt_success_count():
    spec = HaltSpec.parse("now,success=3")
    assert spec.what == "success" and spec.threshold == 3.0


def test_halt_when_defaults_to_now():
    assert HaltSpec.parse("fail=2").when == "now"


@pytest.mark.parametrize("bad", ["garbage", "now,fail=0", "now,fail=-1",
                                 "now,fail=200%", "later,fail=1", "now,fail="])
def test_halt_bad_specs(bad):
    with pytest.raises(OptionsError):
        HaltSpec.parse(bad)


# ----------------------------------------------------------------- Options
def test_options_defaults_sane():
    opts = Options()
    assert opts.jobs >= 1
    assert not opts.keep_order
    assert opts.halt_spec.when == "never"


def test_options_negative_jobs_rejected():
    with pytest.raises(OptionsError):
        Options(jobs=-1)


def test_options_jobs_zero_resolution():
    opts = Options(jobs=0)
    assert opts.effective_jobs(10) == 10
    with pytest.raises(OptionsError):
        opts.effective_jobs(None)


def test_options_bad_timeout():
    with pytest.raises(OptionsError):
        Options(timeout=0)


def test_options_bad_delay():
    with pytest.raises(OptionsError):
        Options(delay=-0.1)


def test_options_bad_retries():
    with pytest.raises(OptionsError):
        Options(retries=-2)


def test_resume_requires_joblog():
    with pytest.raises(OptionsError):
        Options(resume=True)


def test_resume_failed_implies_resume():
    opts = Options(resume_failed=True, joblog="/tmp/x.log")
    assert opts.resume


def test_tagstring_implies_tag():
    opts = Options(tagstring="T{#}")
    assert opts.tag


def test_dispatchers_accepts_auto_and_counts():
    # Accepted for compatibility (it selects nothing); counts normalize.
    assert Options().dispatchers == "auto"
    assert Options(dispatchers=2).dispatchers == 2
    assert Options(dispatchers=" 8 ").dispatchers == 8


def test_dispatchers_rejects_bad_forms():
    for bad in (0, -3, "none", "1.5", "-2"):
        with pytest.raises(OptionsError):
            Options(dispatchers=bad)


def test_rpc_batch_accepts_auto_and_counts():
    # Accepted for compatibility (it selects nothing); counts normalize.
    assert Options().rpc_batch == "auto"
    assert Options(rpc_batch=8).rpc_batch == 8
    assert Options(rpc_batch="16").rpc_batch == 16


def test_rpc_batch_rejects_bad_forms():
    for bad in (0, -1, "none", "1.5"):
        with pytest.raises(OptionsError):
            Options(rpc_batch=bad)


def test_keep_results_accepts_auto_all_and_counts():
    assert Options().keep_results == "auto"
    assert Options().effective_keep_results() == 10_000
    assert Options(keep_results="all").effective_keep_results() is None
    assert Options(keep_results=0).effective_keep_results() == 0
    assert Options(keep_results="250").effective_keep_results() == 250


def test_keep_results_rejects_bad_forms():
    for bad in (-1, "some", "1.5"):
        with pytest.raises(OptionsError):
            Options(keep_results=bad)
