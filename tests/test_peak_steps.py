"""tools/peak_steps.py: how rises are charged, the VmHWM parse, and the check on its source."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "peak_steps.py"
_spec = importlib.util.spec_from_file_location("peak_steps", TOOL)
peak_steps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_steps)


def test_vmhwm_is_read_from_a_status_text():
    status = b"Name:\tpython3\nVmPeak:\t  80000 kB\nVmHWM:\t   59136 kB\nVmRSS:\t 1024 kB\n"
    assert peak_steps.vmhwm_kib(status) == 59136


def test_a_rise_is_charged_to_the_code_that_ran_since_the_last_event():
    readings = iter([100, 100, 400, 400, 450, 1124])
    watch = peak_steps.PeakWatch(lambda: next(readings))
    here = sys._getframe()
    this = f"{__name__}.test_a_rise_is_charged_to_the_code_that_ran_since_the_last_event"
    watch(here, "return", None)  # no rise

    def callee():
        watch(sys._getframe(), "call", None)  # +300: the caller's body ran up to the call

    callee()
    watch(here, "c_call", len)  # no rise
    watch(here, "c_return", len)  # +50: the C function
    watch(here, "return", None)  # +674
    report = watch.report(top=5)
    assert report["start_mib"] == round(100 / 1024, 2)
    assert report["peak_mib"] == round(1124 / 1024, 2)
    assert report["rises"] == [[this, round(974 / 1024, 2), 2], ["builtins.len", 0.05, 1]]
    assert report["final_peak_stack"][0] == this
    assert report["final_peak_stack"][1].startswith(f"{this} (test_peak_steps.py:")
    assert peak_steps.PeakWatch(lambda: 7).report(top=5)["rises"] == []


def test_a_source_without_voicecloak_is_a_usage_error(tmp_path, capsys):
    assert peak_steps.main(["evaluate", str(tmp_path), "1"]) == 2
    assert f"no voicecloak package in {tmp_path}" in capsys.readouterr().err
